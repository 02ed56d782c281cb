// True unit tests of the protocol automaton: one machine, hand-fed
// characters, each paper rule checked in isolation (Sections 2.2-2.3 and
// 4.2.1). See machine_harness.hpp.
#include <gtest/gtest.h>

#include "machine_harness.hpp"
#include "proto/transcript.hpp"

namespace dtop {
namespace {

GtdMachine::Config plain_config() { return GtdMachine::Config{}; }

SnakeChar head(Port out, Port in) { return {SnakePart::kHead, out, in}; }
SnakeChar body(Port out, Port in) { return {SnakePart::kBody, out, in}; }
SnakeChar tail() { return {SnakePart::kTail, kNoPort, kNoPort}; }

constexpr int IG = static_cast<int>(GrowKind::kIG);
constexpr int OG = static_cast<int>(GrowKind::kOG);
constexpr int BG = static_cast<int>(GrowKind::kBG);
constexpr int ID = static_cast<int>(DieKind::kID);
constexpr int BD = static_cast<int>(DieKind::kBD);

TEST(MachineUnit, QuiescentMachineStaysSilent) {
  MachineHarness h(false, 3, plain_config());
  for (int i = 0; i < 5; ++i) {
    const auto& out = h.step_blank();
    for (const auto& o : out) EXPECT_FALSE(o.has_value());
  }
  EXPECT_TRUE(h.machine().idle());
  EXPECT_TRUE(h.machine().pristine());
  EXPECT_EQ(h.messages_sent(), 0u);
}

TEST(MachineUnit, GrowingCharAcceptedAndRelayedAfterResidence) {
  MachineHarness h(false, 3, plain_config());
  h.input(1).set_grow(IG, head(2, kStarPort));
  auto out = h.step();  // tick 1: residence begins
  for (const auto& o : out) EXPECT_FALSE(o.has_value());
  EXPECT_TRUE(h.machine().state().grow[IG].visited);
  EXPECT_EQ(h.machine().state().grow[IG].parent, 1);  // '*' resolution side
  out = h.step_blank();  // tick 2
  for (const auto& o : out) EXPECT_FALSE(o.has_value());
  out = h.step_blank();  // tick 3: speed-1 => emitted 2 ticks after receipt
  for (Port p = 0; p < 3; ++p) {
    ASSERT_TRUE(out[p].has_value()) << "broadcast out all out-ports";
    ASSERT_TRUE(out[p]->has_grow(IG));
    EXPECT_EQ(out[p]->grow(IG).out, 2);
    EXPECT_EQ(out[p]->grow(IG).in, 1);  // '*' was resolved to in-port 1
  }
}

TEST(MachineUnit, LowestInPortWinsSimultaneousArrival) {
  MachineHarness h(false, 4, plain_config());
  h.input(2).set_grow(IG, head(0, kStarPort));
  h.input(1).set_grow(IG, head(3, kStarPort));
  h.step();
  EXPECT_EQ(h.machine().state().grow[IG].parent, 1);
  // Only the winner is relayed.
  h.step_blank();
  const auto& out = h.step_blank();
  ASSERT_TRUE(out[0].has_value());
  EXPECT_EQ(out[0]->grow(IG).out, 3);  // the port-1 arrival's labels
}

TEST(MachineUnit, NonParentCharactersIgnored) {
  MachineHarness h(false, 3, plain_config());
  h.input(0).set_grow(IG, head(0, kStarPort));
  h.step();
  // Later characters through a different port belong to a losing snake.
  h.input(2).set_grow(IG, body(1, kStarPort));
  h.step();
  h.step_blank();
  const auto& out = h.step_blank();  // would be the rogue's emission tick
  for (const auto& o : out) {
    if (o) {
      EXPECT_FALSE(o->has_grow(IG) && o->grow(IG).out == 1);
    }
  }
}

TEST(MachineUnit, TailInsertionEmitsPerPortBodyThenTail) {
  MachineHarness h(false, 2, plain_config());
  h.input(0).set_grow(IG, head(0, kStarPort));
  h.step();
  h.input(0).set_grow(IG, tail());
  h.step();          // tick 2
  h.step_blank();    // tick 3: head emitted
  auto out = h.step_blank();  // tick 4: inserted per-port body
  for (Port p = 0; p < 2; ++p) {
    ASSERT_TRUE(out[p].has_value());
    ASSERT_TRUE(out[p]->has_grow(IG));
    EXPECT_EQ(out[p]->grow(IG).part, SnakePart::kBody);
    EXPECT_EQ(out[p]->grow(IG).out, p);  // IG(i,*) through out-port i
    EXPECT_EQ(out[p]->grow(IG).in, kStarPort);
  }
  out = h.step_blank();  // tick 5: the tail, one slot later
  ASSERT_TRUE(out[0].has_value());
  EXPECT_EQ(out[0]->grow(IG).part, SnakePart::kTail);
}

TEST(MachineUnit, KillErasesMarksAndRebroadcasts) {
  MachineHarness h(false, 2, plain_config());
  h.input(0).set_grow(IG, head(0, kStarPort));
  h.step();
  ASSERT_TRUE(h.machine().state().grow[IG].visited);
  h.input(1).set_kill(true);
  const auto& out = h.step();  // KILL forwarded the same tick (speed 3)
  EXPECT_FALSE(h.machine().state().grow[IG].visited);
  for (Port p = 0; p < 2; ++p) {
    ASSERT_TRUE(out[p].has_value());
    EXPECT_TRUE(out[p]->kill());
    // The held head was erased before its emission tick.
    EXPECT_FALSE(out[p]->has_grow(IG));
  }
}

TEST(MachineUnit, KillIgnoredWithoutGrowingState) {
  MachineHarness h(false, 2, plain_config());
  h.input(0).set_kill(true);
  const auto& out = h.step();
  for (const auto& o : out) EXPECT_FALSE(o.has_value());
}

TEST(MachineUnit, KillErasesSameTickArrivals) {
  MachineHarness h(false, 2, plain_config());
  h.input(0).set_grow(IG, head(0, kStarPort));
  h.input(1).set_kill(true);
  const auto& out = h.step();
  // The arriving character counts as state: KILL is forwarded...
  ASSERT_TRUE(out[0].has_value());
  EXPECT_TRUE(out[0]->kill());
  // ...and the character never marks the machine.
  EXPECT_FALSE(h.machine().state().grow[IG].visited);
}

TEST(MachineUnit, BkillOnlyTouchesBgLane) {
  MachineHarness h(false, 2, plain_config());
  h.input(0).set_grow(IG, head(0, kStarPort));
  h.input(1).set_grow(BG, head(1, kStarPort));
  h.step();
  h.input(0).set_bkill(true);
  h.step();
  EXPECT_TRUE(h.machine().state().grow[IG].visited);
  EXPECT_FALSE(h.machine().state().grow[BG].visited);
}

TEST(MachineUnit, DyingHeadSetsLoopMarksAndIsConsumed) {
  MachineHarness h(false, 3, plain_config());
  h.input(2).set_die(ID, head(1, 0));
  const auto& out = h.step();
  for (const auto& o : out) EXPECT_FALSE(o.has_value());  // head eaten
  EXPECT_TRUE(h.machine().state().loop.has1);
  EXPECT_EQ(h.machine().state().loop.pred1, 2);
  EXPECT_EQ(h.machine().state().loop.succ1, 1);
}

TEST(MachineUnit, DyingBodyPromotedToHead) {
  MachineHarness h(false, 3, plain_config());
  h.input(2).set_die(ID, head(1, 0));
  h.step();
  h.input(2).set_die(ID, body(0, 2));
  h.step();
  h.step_blank();
  const auto& out = h.step_blank();  // speed-1 residence
  ASSERT_TRUE(out[1].has_value()) << "relayed through successor out-port";
  ASSERT_TRUE(out[1]->has_die(ID));
  EXPECT_EQ(out[1]->die(ID).part, SnakePart::kHead);  // promoted
  EXPECT_EQ(out[1]->die(ID).out, 0);
  EXPECT_FALSE(out[0].has_value());  // not broadcast
}

TEST(MachineUnit, BdHeadThenTailMarksTarget) {
  MachineHarness h(false, 2, plain_config());
  h.input(0).set_die(BD, head(1, 0));
  h.step();
  EXPECT_FALSE(h.machine().state().bca_marks.target);
  h.input(0).set_die(BD, tail());
  h.step();
  EXPECT_TRUE(h.machine().state().bca_marks.target);
}

TEST(MachineUnit, DyingBodyWithoutHeadThrows) {
  MachineHarness h(false, 2, plain_config());
  h.input(0).set_die(ID, body(0, 0));
  EXPECT_THROW(h.step(), Error);
}

TEST(MachineUnit, LoopTokenWithoutMarksThrows) {
  MachineHarness h(false, 2, plain_config());
  h.input(0).set_rloop(RcaToken{RcaToken::Kind::kBack, kNoPort, kNoPort});
  EXPECT_THROW(h.step(), Error);
}

TEST(MachineUnit, LoopTokenRoutedPredToSucc) {
  MachineHarness h(false, 3, plain_config());
  h.input(2).set_die(ID, head(1, 0));  // pred1 = 2, succ1 = 1
  h.step();
  h.input(2).set_rloop(RcaToken{RcaToken::Kind::kForward, 0, 0});
  h.step();
  h.step_blank();
  const auto& out = h.step_blank();  // FORWARD is speed-1
  ASSERT_TRUE(out[1].has_value());
  ASSERT_TRUE(out[1]->has_rloop());
  EXPECT_EQ(out[1]->rloop().kind, RcaToken::Kind::kForward);
}

TEST(MachineUnit, UnmarkClearsSlotAndMovesFast) {
  MachineHarness h(false, 3, plain_config());
  h.input(2).set_die(ID, head(1, 0));
  h.step();
  h.input(2).set_rloop(RcaToken{RcaToken::Kind::kUnmark, kNoPort, kNoPort});
  const auto& out = h.step();  // speed-3: forwarded the same tick
  ASSERT_TRUE(out[1].has_value());
  EXPECT_EQ(out[1]->rloop().kind, RcaToken::Kind::kUnmark);
  EXPECT_FALSE(h.machine().state().loop.has1);
}

TEST(MachineUnit, DualSlotAlternation) {
  MachineHarness h(false, 4, plain_config());
  h.input(0).set_die(ID, head(1, 0));  // slot 1: pred 0, succ 1
  h.step();
  h.input(2).set_die(static_cast<int>(DieKind::kOD), head(3, 0));  // slot 2
  h.step();
  // First token must use slot 1 (pred 0 -> succ 1)...
  h.input(0).set_rloop(RcaToken{RcaToken::Kind::kBack, kNoPort, kNoPort});
  h.step();
  h.step_blank();
  auto out = h.step_blank();
  ASSERT_TRUE(out[1].has_value());
  // ...the second pass uses slot 2 (pred 2 -> succ 3).
  h.input(2).set_rloop(RcaToken{RcaToken::Kind::kBack, kNoPort, kNoPort});
  h.step();
  h.step_blank();
  out = h.step_blank();
  ASSERT_TRUE(out[3].has_value());
}

TEST(MachineUnit, WrongPredPortThrows) {
  MachineHarness h(false, 3, plain_config());
  h.input(2).set_die(ID, head(1, 0));
  h.step();
  h.input(0).set_rloop(RcaToken{RcaToken::Kind::kBack, kNoPort, kNoPort});
  EXPECT_THROW(h.step(), Error);
}

TEST(MachineUnit, DfsTokenTriggersRcaFlood) {
  MachineHarness h(false, 2, plain_config());
  h.input(1).set_dfs(DfsToken{0, kStarPort});
  const auto& out = h.step();
  // Step 1 of the RCA: baby IG heads out of every out-port, immediately.
  for (Port p = 0; p < 2; ++p) {
    ASSERT_TRUE(out[p].has_value());
    ASSERT_TRUE(out[p]->has_grow(IG));
    EXPECT_EQ(out[p]->grow(IG).part, SnakePart::kHead);
    EXPECT_EQ(out[p]->grow(IG).out, p);
    EXPECT_EQ(out[p]->grow(IG).in, kStarPort);
  }
  EXPECT_EQ(h.machine().state().rca_phase, RcaPhase::kWaitOg);
  EXPECT_TRUE(h.machine().state().dfs.visited);
  EXPECT_EQ(h.machine().state().dfs.parent, 1);
  // Tail follows on the next tick.
  const auto& out2 = h.step_blank();
  ASSERT_TRUE(out2[0].has_value());
  EXPECT_EQ(out2[0]->grow(IG).part, SnakePart::kTail);
}

TEST(MachineUnit, RootAcceptsFirstIgHeadAndConverts) {
  Transcript t;
  GtdMachine::Config cfg;
  cfg.transcript = &t;
  MachineHarness h(true, 2, cfg);
  // The root machine self-initiates on its first step (kInit + DFS token).
  h.step_blank();
  ASSERT_FALSE(t.events().empty());
  EXPECT_EQ(t.events()[0].kind, TranscriptEvent::Kind::kInit);
  // Feed the first IG head.
  h.input(1).set_grow(IG, head(0, 1));
  h.step();
  EXPECT_EQ(h.machine().state().root_phase, RootPhase::kConvertGrow);
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[1].kind, TranscriptEvent::Kind::kUpStep);
  EXPECT_EQ(t.events()[1].out, 0);
  EXPECT_EQ(t.events()[1].in, 1);
  // Converted OG head appears after the speed-1 residence, label preserved.
  h.step_blank();
  const auto& out = h.step_blank();
  ASSERT_TRUE(out[0].has_value());
  ASSERT_TRUE(out[0]->has_grow(OG));
  EXPECT_EQ(out[0]->grow(OG).part, SnakePart::kHead);
  EXPECT_EQ(out[0]->grow(OG).out, 0);
  EXPECT_EQ(out[0]->grow(OG).in, 1);
  // A second IG head is ignored: "the root closes itself off".
  h.input(0).set_grow(IG, head(1, 0));
  h.step();
  EXPECT_EQ(t.events().size(), 2u);
}

TEST(MachineUnit, AblationDelaysRespected) {
  // snake_delay = 0: relays happen in the same tick.
  GtdMachine::Config cfg;
  cfg.protocol.snake_delay = 0;
  MachineHarness h(false, 2, cfg);
  h.input(0).set_grow(IG, head(0, kStarPort));
  const auto& out = h.step();
  ASSERT_TRUE(out[0].has_value());
  EXPECT_TRUE(out[0]->has_grow(IG));
}

TEST(MachineUnit, PristineAfterKillAndUnmark) {
  MachineHarness h(false, 2, plain_config());
  h.input(0).set_grow(IG, head(0, kStarPort));
  h.step();
  h.input(0).set_die(ID, head(1, 0));  // marks the loop through this node
  h.step();
  h.input(0).set_die(ID, tail());  // the stream completes (tail passes on)
  h.step();
  h.input(1).set_kill(true);
  h.step();
  EXPECT_FALSE(h.machine().pristine());  // loop marks remain
  h.input(0).set_rloop(RcaToken{RcaToken::Kind::kUnmark, kNoPort, kNoPort});
  h.step();
  // Let pending emissions drain.
  while (!h.machine().idle()) h.step_blank();
  EXPECT_TRUE(h.machine().pristine());
}

}  // namespace
}  // namespace dtop
