// The KILL cleanup of Lemma 4.2, including the straggler ("zombie") chase
// that DESIGN.md section 3b documents: a processor cleaned by the KILL wave
// can be transiently re-contaminated by an in-flight character from a
// not-yet-cleaned in-neighbour; the trailing KILL on the same wire must
// re-erase it before it propagates.
#include <gtest/gtest.h>

#include <map>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "graph/families.hpp"
#include "run_audited.hpp"
#include "trace/span_collector.hpp"

namespace dtop {
namespace {

// Root 0 -> initiator 1, short loop 1 <-> 0, plus a long chain hanging off
// node 1 with a chord jumping from deep in the chain (cleaned late) back to
// a node near the initiator (cleaned early).
PortGraph zombie_graph(int chain_len, int chord_from, int chord_to) {
  const NodeId n = static_cast<NodeId>(2 + chain_len);
  PortGraph g(n, 3);
  g.connect(0, 0, 1, 0);  // root -> initiator
  g.connect(1, 0, 0, 0);  // initiator -> root (tiny RCA loop)
  // Chain 1 -> 2 -> 3 -> ... -> chain_len+1.
  for (int i = 0; i < chain_len; ++i)
    g.connect(static_cast<NodeId>(i + 1), i == 0 ? 1 : 0,
              static_cast<NodeId>(i + 2), 0);
  // Tail of the chain reaches back to the root (strong connectivity).
  g.connect(n - 1, 1, 0, 1);
  // The zombie chord: deep node -> shallow node.
  g.connect(static_cast<NodeId>(chord_from), 2,
            static_cast<NodeId>(chord_to), 1);
  g.validate();
  return g;
}

TEST(Kill, ZombieChaseLeavesExactMapAndCleanState) {
  // Sweep chord placements; every configuration must stay correct. (Chords
  // from depth ~5 hit the straggler window; deeper chords are killed before
  // they can stream — both cases must come out clean.)
  for (int chord_from : {5, 6, 7, 8, 10, 12}) {
    for (int chord_to : {2, 3, 4}) {
      const PortGraph g = zombie_graph(14, chord_from, chord_to);
      const GtdResult r = run_gtd(g, 0);
      ASSERT_EQ(r.status, RunStatus::kTerminated)
          << "chord " << chord_from << "->" << chord_to;
      const VerifyResult v = verify_map(g, 0, r.map);
      EXPECT_TRUE(v.ok) << v.detail;
      EXPECT_TRUE(r.end_state_clean);
    }
  }
}

TEST(Kill, StragglerReErasureActuallyHappens) {
  // At least one chord placement must trigger a double erasure at one node
  // within a single RCA window — evidence the zombie path is exercised, not
  // just tolerated.
  // The straggler window: the chord source at chain depth q is reached by
  // the snake at ~3q ticks but cleaned only at ~t4+q, while the chord
  // target at depth p was cleaned at ~t4+p; chord characters arrive at
  // ~3q+1 > t4+p for q around (t4-1)/2.
  bool double_erasure_seen = false;
  for (int chord_from : {4, 5, 6, 7}) {
    const PortGraph g = zombie_graph(14, chord_from, 2);
    trace::SpanCollector obs;
    GtdOptions opt;
    opt.observer = &obs;
    const GtdResult r = run_gtd(g, 0, opt);
    ASSERT_EQ(r.status, RunStatus::kTerminated);
    // Group non-BCA erasures by RCA span and node.
    for (const auto& span : obs.rca()) {
      std::map<NodeId, int> per_node;
      for (const auto& er : obs.erasures()) {
        if (er.bca_lane) continue;
        if (er.tick >= span.start && er.tick <= span.end)
          ++per_node[er.node];
      }
      for (const auto& [node, count] : per_node)
        if (count >= 2) double_erasure_seen = true;
    }
  }
  EXPECT_TRUE(double_erasure_seen)
      << "no straggler chase observed — the adversarial graph needs "
         "retuning";
}

TEST(Kill, NetworkPristineBetweenRcas) {
  // Per-tick invariant: whenever no RCA and no BCA is active anywhere, no
  // processor may hold growing marks (Lemma 4.2 continuously, not just at
  // termination).
  const PortGraph g = zombie_graph(10, 8, 2);
  Transcript transcript;
  GtdMachine::Config cfg;
  cfg.transcript = &transcript;
  GtdEngine engine(g, 0, cfg);
  engine.schedule(0);
  bool violation = false;
  const auto audit = [&](GtdEngine& e) {
    bool busy = false;
    for (NodeId v = 0; v < e.graph().num_nodes(); ++v) {
      const GtdState& st = e.machine(v).state();
      if (st.rca_phase != RcaPhase::kIdle || st.bca_phase != BcaPhase::kIdle)
        busy = true;
    }
    if (busy) return;
    for (NodeId v = 0; v < e.graph().num_nodes(); ++v) {
      const GtdState& st = e.machine(v).state();
      for (const auto& m : st.grow)
        if (m.visited) violation = true;
    }
  };
  ASSERT_EQ(run_audited(engine, default_tick_budget(g), audit),
            RunStatus::kTerminated);
  EXPECT_FALSE(violation);
}

TEST(Kill, KillExtinctionWithinLoopTraversal) {
  // Lemma 4.2's proof: the KILL tokens die out by the time the speed-1
  // FORWARD/BACK token completes the loop. Measure: after each RCA
  // completes, no growing characters anywhere.
  const PortGraph g = directed_ring(7);
  Transcript transcript;
  GtdMachine::Config cfg;
  cfg.transcript = &transcript;
  GtdEngine engine(g, 0, cfg);
  engine.schedule(0);
  // Per-tick audit: when the previous RCA just ended (some node's rca_phase
  // returned to idle this tick), growing chars must be gone.
  bool violation = false;
  std::vector<RcaPhase> prev(g.num_nodes(), RcaPhase::kIdle);
  const auto audit = [&](GtdEngine& e) {
    for (NodeId v = 0; v < e.graph().num_nodes(); ++v) {
      const RcaPhase now = e.machine(v).state().rca_phase;
      if (prev[v] != RcaPhase::kIdle && now == RcaPhase::kIdle) {
        // RCA at v just completed; audit the whole network.
        for (NodeId u = 0; u < e.graph().num_nodes(); ++u) {
          const GtdState& st = e.machine(u).state();
          const int ig = index_of(GrowKind::kIG);
          const int og = index_of(GrowKind::kOG);
          if (st.grow[ig].visited || st.grow[og].visited) violation = true;
        }
        for (WireId w : e.graph().wire_ids()) {
          const Character* c = e.staged_message(w);
          if (c && (c->has_grow(index_of(GrowKind::kIG)) ||
                    c->has_grow(index_of(GrowKind::kOG))))
            violation = true;
        }
      }
      prev[v] = now;
    }
  };
  ASSERT_EQ(run_audited(engine, default_tick_budget(g), audit),
            RunStatus::kTerminated);
  EXPECT_FALSE(violation);
}

TEST(Kill, BrokenSpeedRatioIsDetected) {
  // Ablation guard: with snake_delay == 0 snakes move at KILL speed, so a
  // straggler character can depart in the very tick the trailing KILL
  // would have erased it and the cleanup argument collapses. On a plain
  // ring the constant gap happens to stay at zero, so the breakage needs a
  // graph with a straggler chord; at least one configuration must fail
  // loudly (protocol violation, budget exhaustion, or a dirty end state) —
  // never silently return a wrong map.
  bool detected = false;
  for (int chord_from : {4, 5, 6, 7, 8}) {
    const PortGraph g = zombie_graph(14, chord_from, 2);
    GtdOptions opt;
    opt.protocol.snake_delay = 0;
    opt.protocol.loop_delay = 0;
    opt.max_ticks = 400000;
    try {
      const GtdResult r = run_gtd(g, 0, opt);
      if (r.status != RunStatus::kTerminated) detected = true;
      else if (!r.end_state_clean) detected = true;
      else if (!verify_map(g, 0, r.map).ok) detected = true;
    } catch (const Error&) {
      detected = true;
    }
  }
  EXPECT_TRUE(detected);
}

}  // namespace
}  // namespace dtop
