// BCA-level properties: the reconstruction's contract (DESIGN.md 3a) —
// delivery, target identification, O(D) cost, loop-simplicity — exercised
// through protocol runs on adversarial shapes.
#include <gtest/gtest.h>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "graph/analysis.hpp"
#include "graph/families.hpp"
#include "graph/random_graph.hpp"
#include "run_audited.hpp"
#include "trace/span_collector.hpp"

namespace dtop {
namespace {

TEST(Bca, EveryEdgeReturnsExactlyOnce) {
  const PortGraph g = random_strongly_connected(
      {.nodes = 13, .delta = 3, .avg_out_degree = 2.0, .seed = 31});
  trace::SpanCollector obs;
  GtdOptions opt;
  opt.observer = &obs;
  const GtdResult r = run_gtd(g, 0, opt);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  EXPECT_EQ(obs.bca().size(), g.num_wires());
}

TEST(Bca, SelfLoopReturn) {
  // The degenerate single-edge loop: B is its own target. The DFS must
  // traverse the self-loop and return it backwards without deadlock.
  PortGraph g(3, 2);
  g.connect(0, 0, 1, 0);
  g.connect(1, 0, 1, 1);  // self loop at node 1
  g.connect(1, 1, 2, 0);
  g.connect(2, 0, 0, 0);
  trace::SpanCollector obs;
  GtdOptions opt;
  opt.observer = &obs;
  const GtdResult r = run_gtd(g, 0, opt);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  EXPECT_TRUE(verify_map(g, 0, r.map).ok);
  EXPECT_TRUE(r.end_state_clean);
  EXPECT_EQ(obs.bca().size(), g.num_wires());
}

TEST(Bca, DurationProportionalToReturnDistance) {
  // On the directed ring, returning the token across the edge (k -> k+1)
  // requires a loop of length N (all the way around). BCA durations should
  // therefore be about equal on a ring and scale linearly with N.
  std::vector<double> means;
  for (NodeId n : {8u, 16u, 32u}) {
    const PortGraph g = directed_ring(n);
    trace::SpanCollector obs;
    GtdOptions opt;
    opt.observer = &obs;
    const GtdResult r = run_gtd(g, 0, opt);
    ASSERT_EQ(r.status, RunStatus::kTerminated);
    double sum = 0;
    for (const auto& s : obs.bca()) sum += static_cast<double>(s.duration());
    means.push_back(sum / static_cast<double>(obs.bca().size()));
  }
  EXPECT_NEAR(means[1] / means[0], 2.0, 0.4);
  EXPECT_NEAR(means[2] / means[1], 2.0, 0.4);
}

TEST(Bca, ShortcutEdgesMakeCheapReturns) {
  // On a bidirectional ring the reversed edge is adjacent, so every BCA
  // loop has length 2 and durations must stay flat as N grows.
  std::vector<double> means;
  for (NodeId n : {8u, 16u, 32u}) {
    const PortGraph g = bidirectional_ring(n);
    trace::SpanCollector obs;
    GtdOptions opt;
    opt.observer = &obs;
    const GtdResult r = run_gtd(g, 0, opt);
    ASSERT_EQ(r.status, RunStatus::kTerminated);
    double sum = 0;
    for (const auto& s : obs.bca()) sum += static_cast<double>(s.duration());
    means.push_back(sum / static_cast<double>(obs.bca().size()));
  }
  EXPECT_LT(means[2], means[0] * 1.5)
      << "BCA cost must depend on the loop, not on N";
}

TEST(Bca, CleanAfterEachBca) {
  // After the protocol, no BCA residue anywhere (target flags, marks).
  const PortGraph g = random_strongly_connected(
      {.nodes = 10, .delta = 3, .avg_out_degree = 2.0, .seed = 8});
  Transcript transcript;
  GtdMachine::Config cfg;
  cfg.transcript = &transcript;
  GtdEngine engine(g, 0, cfg);
  engine.schedule(0);
  int target_sightings = 0;
  const auto audit = [&](GtdEngine& e) {
    for (NodeId v = 0; v < e.graph().num_nodes(); ++v)
      if (e.machine(v).state().bca_marks.target) ++target_sightings;
  };
  ASSERT_EQ(run_audited(engine, default_tick_budget(g), audit),
            RunStatus::kTerminated);
  EXPECT_GT(target_sightings, 0);  // targets do get marked mid-protocol
  for (int i = 0; i < 8; ++i) engine.step();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(engine.machine(v).state().bca_marks.has) << v;
    EXPECT_FALSE(engine.machine(v).state().bca_marks.target) << v;
    EXPECT_EQ(engine.machine(v).state().bca_phase, BcaPhase::kIdle) << v;
  }
}

TEST(Bca, ParallelEdgesReturnOnTheRightPort) {
  // Two parallel edges 0 -> 1 on distinct ports: each traversal must be
  // returned for its own out-port (the BCA target learns the port from the
  // marked loop, not from the token).
  PortGraph g(2, 3);
  g.connect(0, 0, 1, 0);
  g.connect(0, 1, 1, 1);
  g.connect(1, 0, 0, 0);
  const GtdResult r = run_gtd(g, 0);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  const VerifyResult v = verify_map(g, 0, r.map);
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_EQ(r.map.edge_count(), 3u);
}

}  // namespace
}  // namespace dtop
