// Micro-traces of the snake machinery: exact speed-1 timing, '*' label
// resolution, baby-snake shape, tail insertion, transcript ordering, and the
// two-slot loop alternation — all pinned against the closed-form timelines
// derived from the paper's rules.
#include <gtest/gtest.h>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "graph/families.hpp"
#include "proto/gtd_machine.hpp"

namespace dtop {
namespace {

// Engine timeline on a directed ring 0 -> 1 -> ... (root 0, all ports 0):
//  tick 1: root initiates; DFS token staged on wire 0->1
//  tick 2: node 1 starts its FORWARD RCA; IG head staged on wire 1->2
//  tick 3: IG tail staged on wire 1->2 ("during the next time step")
//  tick 5: node 2 relays the head (3-tick hop: read at 3, emit at 5)
//  tick 6: node 2 emits the inserted body character
//  tick 7: node 2 relays the tail (delayed one tick behind the insertion)
//  tick 8: node 3 relays the head
TEST(Snakes, Speed1TimingOnRing) {
  const PortGraph g = directed_ring(6);
  Transcript transcript;
  GtdMachine::Config cfg;
  cfg.transcript = &transcript;
  GtdEngine engine(g, 0, cfg);
  engine.schedule(0);

  const WireId w01 = g.out_wire(0, 0);
  const WireId w12 = g.out_wire(1, 0);
  const WireId w23 = g.out_wire(2, 0);
  const WireId w34 = g.out_wire(3, 0);
  const int IG = index_of(GrowKind::kIG);

  engine.step();  // tick 1
  ASSERT_TRUE(engine.staged_message(w01));
  EXPECT_TRUE(engine.staged_message(w01)->has_dfs());

  engine.step();  // tick 2
  {
    const Character* c = engine.staged_message(w12);
    ASSERT_TRUE(c && c->has_grow(IG));
    EXPECT_EQ(c->grow(IG).part, SnakePart::kHead);
    EXPECT_EQ(c->grow(IG).out, 0);        // head labelled with its out-port
    EXPECT_EQ(c->grow(IG).in, kStarPort);  // '*' until received
  }

  engine.step();  // tick 3: tail follows one tick behind the head
  {
    const Character* c = engine.staged_message(w12);
    ASSERT_TRUE(c && c->has_grow(IG));
    EXPECT_EQ(c->grow(IG).part, SnakePart::kTail);
  }

  engine.step();  // tick 4: wire 2->3 still silent (speed-1 residence)
  EXPECT_EQ(engine.staged_message(w23), nullptr);

  engine.step();  // tick 5: node 2 relays the head, '*' resolved to 0
  {
    const Character* c = engine.staged_message(w23);
    ASSERT_TRUE(c && c->has_grow(IG));
    EXPECT_EQ(c->grow(IG).part, SnakePart::kHead);
    EXPECT_EQ(c->grow(IG).out, 0);
    EXPECT_EQ(c->grow(IG).in, 0);
  }

  engine.step();  // tick 6: the inserted body character (fresh '*')
  {
    const Character* c = engine.staged_message(w23);
    ASSERT_TRUE(c && c->has_grow(IG));
    EXPECT_EQ(c->grow(IG).part, SnakePart::kBody);
    EXPECT_EQ(c->grow(IG).in, kStarPort);
  }

  engine.step();  // tick 7: the tail, one slot behind the insertion
  {
    const Character* c = engine.staged_message(w23);
    ASSERT_TRUE(c && c->has_grow(IG));
    EXPECT_EQ(c->grow(IG).part, SnakePart::kTail);
  }

  engine.step();  // tick 8: the head is now two hops out — 3 ticks per hop
  {
    const Character* c = engine.staged_message(w34);
    ASSERT_TRUE(c && c->has_grow(IG));
    EXPECT_EQ(c->grow(IG).part, SnakePart::kHead);
  }
}

TEST(Snakes, VisitedMarksAndParents) {
  const PortGraph g = directed_ring(6);
  GtdMachine::Config cfg;
  GtdEngine engine(g, 0, cfg);
  engine.schedule(0);
  for (int i = 0; i < 6; ++i) engine.step();
  const int IG = index_of(GrowKind::kIG);
  // Node 1 is the creator (visited, no parent); node 2 was visited via its
  // only in-port.
  EXPECT_TRUE(engine.machine(1).state().grow[IG].visited);
  EXPECT_EQ(engine.machine(1).state().grow[IG].parent, kNoPort);
  EXPECT_TRUE(engine.machine(2).state().grow[IG].visited);
  EXPECT_EQ(engine.machine(2).state().grow[IG].parent, 0);
  // Node 5 not yet reached (head arrives on wire 4->5 at tick 11).
  EXPECT_FALSE(engine.machine(5).state().grow[IG].visited);
}

TEST(Snakes, TailInsertionBranchesPerPort) {
  // A node with two out-ports must emit per-port body characters IG(i,*)
  // when the tail passes. Build: 0 -> 1, then 1 branches to 2 and 3, with
  // returns closing strong connectivity.
  PortGraph g(4, 3);
  g.connect(0, 0, 1, 0);
  g.connect(1, 0, 2, 0);
  g.connect(1, 1, 3, 0);
  g.connect(2, 0, 0, 0);
  g.connect(3, 0, 0, 1);
  GtdMachine::Config cfg;
  GtdEngine engine(g, 0, cfg);
  engine.schedule(0);
  // tick 1: token 0->1. tick 2: node 1 floods heads on both out-ports.
  engine.step();
  engine.step();
  const int IG = index_of(GrowKind::kIG);
  const Character* to2 = engine.staged_message(g.out_wire(1, 0));
  const Character* to3 = engine.staged_message(g.out_wire(1, 1));
  ASSERT_TRUE(to2 && to2->has_grow(IG));
  ASSERT_TRUE(to3 && to3->has_grow(IG));
  // Per-port heads carry their own out-port label.
  EXPECT_EQ(to2->grow(IG).out, 0);
  EXPECT_EQ(to3->grow(IG).out, 1);
}

TEST(Snakes, TranscriptEventOrderOnTriangle) {
  // Ring 0 -> 1 -> 2 -> 0. The first RCA (initiator node 1) must produce:
  // UP(1->2), UP(2->0), UP_END, DOWN(0->1), DOWN_END, FORWARD.
  const PortGraph g = directed_ring(3);
  const GtdResult r = run_gtd(g, 0);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  const auto& ev = r.transcript.events();
  using K = TranscriptEvent::Kind;
  ASSERT_GE(ev.size(), 7u);
  EXPECT_EQ(ev[0].kind, K::kInit);
  EXPECT_EQ(ev[1].kind, K::kUpStep);   // edge 1->2
  EXPECT_EQ(ev[2].kind, K::kUpStep);   // edge 2->0
  EXPECT_EQ(ev[3].kind, K::kUpEnd);
  EXPECT_EQ(ev[4].kind, K::kDownStep);  // edge 0->1
  EXPECT_EQ(ev[5].kind, K::kDownEnd);
  EXPECT_EQ(ev[6].kind, K::kForward);
  EXPECT_EQ(ev[6].out, 0);
  EXPECT_EQ(ev[6].in, 0);
  EXPECT_EQ(ev.back().kind, K::kTerminated);
}

TEST(Snakes, UpAndDownPathLengthsMatchDistances) {
  // On a directed ring, the RCA of the node at distance k from the root has
  // an up-path of N-k edges and a down-path of k edges.
  const NodeId n = 5;
  const PortGraph g = directed_ring(n);
  const GtdResult r = run_gtd(g, 0);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  // First RCA belongs to node 1 (down distance 1, up distance n-1).
  ASSERT_FALSE(r.records.empty());
  EXPECT_EQ(r.records[0].down.size(), 1u);
  EXPECT_EQ(r.records[0].up.size(), n - 1u);
}

TEST(Snakes, DualSlotLoopAlternation) {
  // 0 -> 1 -> 2 with 2 -> 1 and 1 -> 0: node 1 lies on both legs of node
  // 2's RCA loop (up 2->1->0, down 0->1->2), so it must mark both slots and
  // alternate. Correct recovery of this graph exercises exactly that path.
  PortGraph g(3, 2);
  g.connect(0, 0, 1, 0);
  g.connect(1, 0, 2, 0);
  g.connect(2, 0, 1, 1);
  g.connect(1, 1, 0, 0);
  const GtdResult r = run_gtd(g, 0);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  const VerifyResult v = verify_map(g, 0, r.map);
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_TRUE(r.end_state_clean);
  // Find node 2's RCA record and confirm the shared intermediate node.
  bool found = false;
  for (const RcaRecord& rec : r.records) {
    if (rec.down.size() == 2 && rec.up.size() == 2) found = true;
  }
  EXPECT_TRUE(found) << "expected a two-hop-up/two-hop-down RCA";
}

TEST(Snakes, SharedEdgeOnBothLegs) {
  // Loop that uses the same *edge* twice is impossible (an edge reversal
  // needs distinct wires), but a shared node with distinct ports is the
  // worst case; an 8-figure through the middle node stresses slot handling.
  PortGraph g(5, 4);
  g.connect(0, 0, 1, 0);  // root -> a
  g.connect(1, 0, 2, 0);  // a -> mid
  g.connect(2, 0, 3, 0);  // mid -> b
  g.connect(3, 0, 2, 1);  // b -> mid
  g.connect(2, 1, 4, 0);  // mid -> c
  g.connect(4, 0, 2, 2);  // c -> mid
  g.connect(2, 2, 0, 0);  // mid -> root
  const GtdResult r = run_gtd(g, 0);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  const VerifyResult v = verify_map(g, 0, r.map);
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_TRUE(r.end_state_clean);
}

TEST(Snakes, AlphabetToString) {
  SnakeChar c{SnakePart::kHead, 2, kStarPort};
  EXPECT_EQ(to_string(c), "H(2,*)");
  Character ch;
  EXPECT_EQ(to_string(ch), "blank");
  EXPECT_TRUE(ch.blank());
  ch.set_kill(true);
  ch.set_grow(index_of(GrowKind::kOG), SnakeChar{SnakePart::kTail, 0, 0});
  EXPECT_FALSE(ch.blank());
  const std::string s = to_string(ch);
  EXPECT_NE(s.find("KILL"), std::string::npos);
  EXPECT_NE(s.find("OG"), std::string::npos);
}

TEST(Snakes, CharacterIsSmallPod) {
  EXPECT_TRUE(std::is_trivially_copyable_v<Character>);
  EXPECT_LE(sizeof(Character), 28u);  // constant-size wire symbol
  EXPECT_TRUE(std::is_trivially_copyable_v<GtdState>);
}

}  // namespace
}  // namespace dtop
