#include "runner/scenario.hpp"

#include <charconv>
#include <limits>

#include "support/rng.hpp"

namespace dtop::runner {

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : text) {
    if (c == ',' || c == ' ' || c == '\t') {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  return tokens;
}

std::uint64_t parse_u64_token(const std::string& flag,
                              const std::string& token) {
  std::uint64_t v = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) {
    throw SpecError(flag + " expects a non-negative integer, got '" + token +
                    "'");
  }
  return v;
}

namespace {

Tick parse_at_suffix(const std::string& text, std::size_t at_pos) {
  const std::string num = text.substr(at_pos + 1);
  const std::uint64_t v = parse_u64_token("scenario '" + text + "'", num);
  if (v > static_cast<std::uint64_t>(std::numeric_limits<Tick>::max())) {
    throw SpecError("scenario tick out of range in '" + text + "'");
  }
  return static_cast<Tick>(v);
}

}  // namespace

FaultScenario make_scenario(const std::string& text) {
  FaultScenario sc;
  sc.label = text;
  if (text == "none") return sc;
  const std::size_t at_pos = text.find('@');
  if (at_pos != std::string::npos) {
    const std::string kind = text.substr(0, at_pos);
    sc.at = parse_at_suffix(text, at_pos);
    if (kind == "budget") {
      sc.kind = FaultScenario::Kind::kBudget;
      if (sc.at < 1) throw SpecError("budget@T needs T >= 1");
      return sc;
    }
    if (kind == "kill") {
      sc.kind = FaultScenario::Kind::kKill;
      return sc;
    }
    if (kind == "unmark") {
      sc.kind = FaultScenario::Kind::kUnmark;
      return sc;
    }
    if (kind == "dfs") {
      sc.kind = FaultScenario::Kind::kDfs;
      return sc;
    }
  }
  throw SpecError("unknown scenario '" + text +
                  "' (known: none budget@T kill@T unmark@T dfs@T)");
}

std::vector<FaultScenario> parse_scenario_list(const std::string& text) {
  std::vector<FaultScenario> scenarios;
  for (const std::string& token : tokenize(text)) {
    scenarios.push_back(make_scenario(token));
  }
  return scenarios;
}

Character rogue_character(FaultScenario::Kind kind) {
  Character c;
  switch (kind) {
    case FaultScenario::Kind::kKill:
      c.set_kill(true);
      break;
    case FaultScenario::Kind::kUnmark:
      c.set_rloop(RcaToken{RcaToken::Kind::kUnmark, kNoPort, kNoPort});
      break;
    case FaultScenario::Kind::kDfs:
      c.set_dfs(DfsToken{0, kStarPort});
      break;
    default:
      unreachable("rogue_character: not an injection scenario");
  }
  return c;
}

trace::TraceInjection make_injection(const PortGraph& g, std::uint64_t seed,
                                     const FaultScenario& scenario) {
  DTOP_REQUIRE(scenario.is_injection(),
               "make_injection: scenario '" + scenario.label +
                   "' is not an injection");
  const std::vector<WireId> wires = g.wire_ids();
  DTOP_REQUIRE(!wires.empty(), "make_injection: graph has no wires");
  Rng rng(0x6a09e667f3bcc908ULL ^ (seed * 0x9e3779b97f4a7c15ULL) ^
          static_cast<std::uint64_t>(scenario.at));
  trace::TraceInjection inj;
  inj.at = scenario.at;
  inj.wire = wires[rng.next_below(wires.size())];
  inj.rogue = rogue_character(scenario.kind);
  return inj;
}

}  // namespace dtop::runner
