// The shared fault-scenario grammar (runner/scenario.hpp): one parser for
// campaign spec files, `dtopctl sweep --scenarios`, and `dtopctl trace
// record --scenario`, plus the deterministic scenario -> injection mapping.
#include <gtest/gtest.h>

#include "graph/families.hpp"
#include "runner/scenario.hpp"

namespace dtop::runner {
namespace {

TEST(Scenario, ParsesEveryKind) {
  EXPECT_EQ(make_scenario("none").kind, FaultScenario::Kind::kNone);

  const FaultScenario budget = make_scenario("budget@500");
  EXPECT_EQ(budget.kind, FaultScenario::Kind::kBudget);
  EXPECT_EQ(budget.at, 500);
  EXPECT_EQ(budget.label, "budget@500");
  EXPECT_FALSE(budget.is_injection());

  const FaultScenario kill = make_scenario("kill@40");
  EXPECT_EQ(kill.kind, FaultScenario::Kind::kKill);
  EXPECT_EQ(kill.at, 40);
  EXPECT_TRUE(kill.is_injection());

  EXPECT_EQ(make_scenario("unmark@3").kind, FaultScenario::Kind::kUnmark);
  EXPECT_EQ(make_scenario("dfs@0").kind, FaultScenario::Kind::kDfs);
}

TEST(Scenario, RejectsMalformedText) {
  EXPECT_THROW(make_scenario(""), SpecError);
  EXPECT_THROW(make_scenario("kill"), SpecError);        // missing @T
  EXPECT_THROW(make_scenario("kill@"), SpecError);       // empty tick
  EXPECT_THROW(make_scenario("kill@abc"), SpecError);    // non-numeric tick
  EXPECT_THROW(make_scenario("kill@-3"), SpecError);     // negative tick
  EXPECT_THROW(make_scenario("budget@0"), SpecError);    // budget needs T>=1
  EXPECT_THROW(make_scenario("explode@5"), SpecError);   // unknown kind
  EXPECT_THROW(make_scenario("None"), SpecError);        // case-sensitive
  EXPECT_THROW(make_scenario("kill@99999999999999999999"), SpecError);
}

TEST(Scenario, ParsesLists) {
  const auto list = parse_scenario_list("none, kill@40\tdfs@200 budget@1");
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0].kind, FaultScenario::Kind::kNone);
  EXPECT_EQ(list[1].kind, FaultScenario::Kind::kKill);
  EXPECT_EQ(list[2].kind, FaultScenario::Kind::kDfs);
  EXPECT_EQ(list[3].kind, FaultScenario::Kind::kBudget);
  EXPECT_TRUE(parse_scenario_list("  ,  ").empty());
  EXPECT_THROW(parse_scenario_list("none bogus"), SpecError);
}

TEST(Scenario, TokenGrammarIsShared) {
  const auto tokens = tokenize("a,b  c\td");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[3], "d");
  EXPECT_EQ(parse_u64_token("x", "42"), 42u);
  EXPECT_THROW(parse_u64_token("x", "4 2"), SpecError);
  EXPECT_THROW(parse_u64_token("x", ""), SpecError);
}

TEST(Scenario, RogueCharactersMatchTheirKind) {
  EXPECT_TRUE(rogue_character(FaultScenario::Kind::kKill).kill());
  const Character unmark = rogue_character(FaultScenario::Kind::kUnmark);
  ASSERT_TRUE(unmark.has_rloop());
  EXPECT_EQ(unmark.rloop().kind, RcaToken::Kind::kUnmark);
  const Character dfs = rogue_character(FaultScenario::Kind::kDfs);
  EXPECT_TRUE(dfs.has_dfs());
  EXPECT_THROW(rogue_character(FaultScenario::Kind::kNone), Error);
}

TEST(Scenario, InjectionIsDeterministicInSeedAndTick) {
  const PortGraph g = de_bruijn(3);
  const FaultScenario sc = make_scenario("kill@40");

  const trace::TraceInjection a = make_injection(g, 7, sc);
  const trace::TraceInjection b = make_injection(g, 7, sc);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.at, 40);
  EXPECT_LT(a.wire, g.wire_slots());
  EXPECT_TRUE(a.rogue.kill());

  // Different seeds must be able to pick different wires (statistically:
  // over 16 seeds on a 16-wire graph, at least two picks differ).
  bool any_differs = false;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    if (make_injection(g, seed, sc).wire != a.wire) any_differs = true;
  }
  EXPECT_TRUE(any_differs);

  EXPECT_THROW(make_injection(g, 1, make_scenario("budget@5")), Error);
}

}  // namespace
}  // namespace dtop::runner
