// RCA-level properties: serialization, counts, O(D) durations (Lemma 4.3),
// and canonical-path conformance of the observed transcripts (Lemma 4.1 /
// Definition 4.1).
#include <gtest/gtest.h>

#include "core/gtd.hpp"
#include "graph/analysis.hpp"
#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/random_graph.hpp"
#include "run_audited.hpp"
#include "trace/span_collector.hpp"

namespace dtop {
namespace {

GtdResult run_with(const PortGraph& g, NodeId root,
                   trace::SpanCollector& obs) {
  GtdOptions opt;
  opt.observer = &obs;
  GtdResult r = run_gtd(g, root, opt);
  EXPECT_EQ(r.status, RunStatus::kTerminated);
  return r;
}

TEST(Rca, CountsMatchEdgeAccounting) {
  // Every edge is traversed forward exactly once. Each forward traversal
  // into a non-root node triggers a FORWARD RCA; each return delivered to a
  // non-root node triggers a BACK RCA; each return is one BCA. The root's
  // own records are piped without network RCAs.
  const PortGraph g = de_bruijn(3);
  trace::SpanCollector obs;
  const GtdResult r = run_with(g, 0, obs);
  const std::size_t e = g.num_wires();
  const auto in_root = static_cast<std::size_t>(g.in_degree(0));
  const auto out_root = static_cast<std::size_t>(g.out_degree(0));
  EXPECT_EQ(obs.bca().size(), e);
  EXPECT_EQ(obs.rca().size(), 2 * e - in_root - out_root);
  // Transcript records cover all traversals, self or not.
  EXPECT_EQ(r.records.size(), 2 * e);
}

TEST(Rca, SerializationNeverOverlaps) {
  // SpanCollector throws on overlap; surviving the run is the assertion.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const PortGraph g = random_strongly_connected(
        {.nodes = 14, .delta = 3, .avg_out_degree = 2.0, .seed = seed});
    trace::SpanCollector obs;
    run_with(g, 0, obs);
    // Spans must be disjoint and ordered.
    for (std::size_t i = 1; i < obs.rca().size(); ++i)
      EXPECT_GE(obs.rca()[i].start, obs.rca()[i - 1].end);
    for (std::size_t i = 1; i < obs.bca().size(); ++i)
      EXPECT_GE(obs.bca()[i].start, obs.bca()[i - 1].end);
  }
}

TEST(Rca, DurationProportionalToLoopLength) {
  // Lemma 4.3: each RCA by processor A takes O(d(A,root) + d(root,A)).
  // On the directed ring every RCA loop has length exactly N, so durations
  // must be (nearly) identical; across sizes they must scale linearly.
  std::vector<double> sizes, means;
  for (NodeId n : {8u, 16u, 32u}) {
    const PortGraph g = directed_ring(n);
    trace::SpanCollector obs;
    run_with(g, 0, obs);
    double sum = 0, mn = 1e18, mx = 0;
    for (const auto& s : obs.rca()) {
      const double d = static_cast<double>(s.duration());
      sum += d;
      mn = std::min(mn, d);
      mx = std::max(mx, d);
    }
    const double mean = sum / static_cast<double>(obs.rca().size());
    // All loops equal => tight spread.
    EXPECT_LT(mx - mn, 0.35 * mean + 8.0) << "n=" << n;
    sizes.push_back(static_cast<double>(n));
    means.push_back(mean);
  }
  // Linear growth in N (ring loop length == N).
  const double ratio1 = means[1] / means[0];
  const double ratio2 = means[2] / means[1];
  EXPECT_NEAR(ratio1, 2.0, 0.4);
  EXPECT_NEAR(ratio2, 2.0, 0.4);
}

// Collects the per-phase timestamps of every RCA.
class PhaseObserver : public trace::SpanCollector {
 public:
  struct Phases {
    Tick start = 0, og_head = 0, odt = 0, token_back = 0, done = 0;
  };
  void on_rca_start(NodeId n, Tick t, bool fwd) override {
    SpanCollector::on_rca_start(n, t, fwd);
    phases_.push_back(Phases{t, 0, 0, 0, 0});
  }
  void on_rca_phase(NodeId, Tick t, RcaPhase p) override {
    if (p == RcaPhase::kWaitOdt) phases_.back().og_head = t;
    if (p == RcaPhase::kWaitToken) phases_.back().odt = t;
    if (p == RcaPhase::kWaitUnmark) phases_.back().token_back = t;
  }
  void on_rca_complete(NodeId n, Tick t) override {
    SpanCollector::on_rca_complete(n, t);
    phases_.back().done = t;
  }
  const std::vector<Phases>& phases() const { return phases_; }

 private:
  std::vector<Phases> phases_;
};

TEST(Rca, PhaseDecompositionClosedFormOnRings) {
  // On a directed N-ring every RCA loop has length L = N and the protocol
  // is deterministic, so each of the five steps of Section 4.2.1 has an
  // exact cost:
  //   floods (IG out + OG back)     3L - 2   (speed-1 both legs)
  //   marking (ID out + OD back)    4L       (the dying snakes inherit the
  //                                           grow tail's 1 tick/hop drift)
  //   FORWARD/BACK token lap        3L - 2
  //   UNMARK lap (+1 release delay) L + 1
  //   total                         11L - 3
  for (NodeId n : {4u, 6u, 9u}) {
    const PortGraph g = directed_ring(n);
    PhaseObserver obs;
    GtdOptions opt;
    opt.observer = &obs;
    const GtdResult r = run_gtd(g, 0, opt);
    ASSERT_EQ(r.status, RunStatus::kTerminated);
    const Tick L = n;
    for (const auto& ph : obs.phases()) {
      EXPECT_EQ(ph.og_head - ph.start, 3 * L - 2) << "floods, N=" << n;
      EXPECT_EQ(ph.odt - ph.og_head, 4 * L) << "marking, N=" << n;
      EXPECT_EQ(ph.token_back - ph.odt, 3 * L - 2) << "token, N=" << n;
      EXPECT_EQ(ph.done - ph.token_back, L + 1) << "unmark, N=" << n;
      EXPECT_EQ(ph.done - ph.start, 11 * L - 3) << "total, N=" << n;
    }
  }
}

TEST(Rca, UpAndDownPathsAreCanonical) {
  const PortGraph g = random_strongly_connected(
      {.nodes = 18, .delta = 3, .avg_out_degree = 2.2, .seed = 5});
  const NodeId root = 0;
  const GtdResult r = run_gtd(g, root);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  const CanonicalTree down_tree = canonical_bfs_tree(g, root);
  for (const RcaRecord& rec : r.records) {
    if (rec.self) continue;
    // Identify A by walking the down-path.
    const NodeId a = walk_path(g, root, rec.down);
    EXPECT_EQ(rec.down, canonical_path(g, down_tree, a));
    // The up-path must be A's canonical path to the root.
    EXPECT_EQ(walk_path(g, a, rec.up), root);
    const CanonicalTree up_tree = canonical_bfs_tree(g, a);
    EXPECT_EQ(rec.up, canonical_path(g, up_tree, root));
  }
}

TEST(Rca, ForwardTokenCarriesDfsEdge) {
  // The FORWARD(i,j) payload must be a real edge from the previous stack
  // top into the current processor.
  const PortGraph g = de_bruijn(3);
  const GtdResult r = run_gtd(g, 0);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  for (const MapEdge& e : r.map.edges()) {
    const WireId w = g.out_wire(
        walk_path(g, 0, r.map.path_of(e.from)), e.out_port);
    ASSERT_NE(w, kNoWire);
    EXPECT_EQ(g.wire(w).in_port, e.in_port);
    EXPECT_EQ(g.wire(w).to, walk_path(g, 0, r.map.path_of(e.to)));
  }
}

TEST(Rca, RootPhaseReopensAfterEveryRca) {
  // Per-tick audit: whenever no RCA is in flight, the root must be open.
  const PortGraph g = directed_ring(5);
  Transcript transcript;
  GtdMachine::Config cfg;
  cfg.transcript = &transcript;
  GtdEngine engine(g, 0, cfg);
  engine.schedule(0);
  bool always_consistent = true;
  const auto audit = [&](GtdEngine& e) {
    bool any_rca = false;
    for (NodeId v = 0; v < e.graph().num_nodes(); ++v)
      if (e.machine(v).state().rca_phase != RcaPhase::kIdle) any_rca = true;
    const RootPhase rp = e.machine(0).state().root_phase;
    // When the root is mid-conversion an RCA must exist somewhere.
    if (rp != RootPhase::kOpen && !any_rca) always_consistent = false;
  };
  ASSERT_EQ(run_audited(engine, default_tick_budget(g), audit),
            RunStatus::kTerminated);
  EXPECT_TRUE(always_consistent);
}

TEST(Rca, LoopMarksConfinedToLoop) {
  // During node 2's RCA on a 4-ring, only loop processors ever hold loop
  // marks; after termination nobody does (Lemma 4.2).
  const PortGraph g = directed_ring(4);
  Transcript transcript;
  GtdMachine::Config cfg;
  cfg.transcript = &transcript;
  GtdEngine engine(g, 0, cfg);
  engine.schedule(0);
  std::vector<int> marked_ticks(g.num_nodes(), 0);
  const auto audit = [&](GtdEngine& e) {
    for (NodeId v = 0; v < e.graph().num_nodes(); ++v)
      if (e.machine(v).state().loop.any()) ++marked_ticks[v];
  };
  ASSERT_EQ(run_audited(engine, default_tick_budget(g), audit),
            RunStatus::kTerminated);
  // On a ring every node lies on every RCA loop, so everyone got marked at
  // some point...
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_GT(marked_ticks[v], 0);
  // ...and nobody stays marked at the end.
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_FALSE(engine.machine(v).state().loop.any());
}

}  // namespace
}  // namespace dtop
