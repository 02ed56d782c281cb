// The dtopd service layer: line-JSON protocol, canonical-form result cache
// (hit/miss/coalesce/LRU), worker-count determinism, and the Unix-socket
// transport. The acceptance contract: identical responses at 1 vs 8
// workers, repeated determines served from cache without a second protocol
// run, in-flight duplicates coalescing to one execution, and LRU eviction
// respecting capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/map_io.hpp"
#include "core/verify.hpp"
#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "graph/permute.hpp"
#include "service/metrics_wire.hpp"
#include "service/json.hpp"
#include "service/result_cache.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/signals.hpp"

namespace dtop::service {
namespace {

using namespace std::chrono_literals;

// ------------------------------- json ------------------------------------

TEST(ServiceJson, ParsesFlatObject) {
  const JsonObject o = parse_json_object(
      R"({"op": "determine", "nodes": 16, "seed": 18446744073709551615, )"
      R"("deep": false, "note": "a\"b\n", "id": 7})");
  EXPECT_EQ(o.require_string("op"), "determine");
  EXPECT_EQ(o.get_u64("nodes", 0), 16u);
  // 64-bit integers survive (a double round-trip would clip above 2^53).
  EXPECT_EQ(o.get_u64("seed", 0), 18446744073709551615ull);
  EXPECT_FALSE(o.get_bool("deep", true));
  EXPECT_EQ(o.get_string("note"), "a\"b\n");
  EXPECT_EQ(o.raw_token("id"), "7");
  EXPECT_EQ(o.get_u64("absent", 42), 42u);
}

TEST(ServiceJson, RejectsNestedAndMalformed) {
  EXPECT_THROW(parse_json_object(R"({"a": {"b": 1}})"), JsonError);
  EXPECT_THROW(parse_json_object(R"({"a": [1, 2]})"), JsonError);
  EXPECT_THROW(parse_json_object(R"({"a": 1} trailing)"), JsonError);
  EXPECT_THROW(parse_json_object(R"({"a": 1, "a": 2})"), JsonError);
  EXPECT_THROW(parse_json_object(R"({"a": nope})"), JsonError);
  EXPECT_THROW(parse_json_object("not json at all"), JsonError);
}

TEST(ServiceJson, WriterEmitsOneDeterministicLine) {
  JsonWriter w;
  const std::string line = w.field("op", "stats")
                               .field("ok", true)
                               .field("n", std::uint64_t{7})
                               .field("note", "a\"b")
                               .field_raw("id", "\"x\"")
                               .str();
  EXPECT_EQ(line,
            R"({"op": "stats", "ok": true, "n": 7, "note": "a\"b", "id": "x"})");
}

TEST(ServiceJson, WriterEscapesKeysAndValues) {
  const std::string map = "dtop-graph v1 2 2\n0 0 1 0\n1 0 0 0\n";
  const std::string line = JsonWriter()
                         .field("k\"ey\\", std::string("v\ta\x01l\x7f"))
                         .field("map", map)
                         .field("tab\there", "\r")
                         .field("count\n", std::uint64_t{3})
                         .str();
  EXPECT_EQ(line,
            "{\"k\\\"ey\\\\\": \"v\\ta\\u0001l\x7f\", "
            "\"map\": \"dtop-graph v1 2 2\\n0 0 1 0\\n1 0 0 0\\n\", "
            "\"tab\\there\": \"\\r\", \"count\\n\": 3}");
  // The escaped line parses back to the original keys and values.
  const JsonObject o = parse_json_object(line);
  EXPECT_EQ(o.get_string("k\"ey\\"), "v\ta\x01l\x7f");
  EXPECT_EQ(o.get_string("map"), map);
  EXPECT_EQ(o.get_string("tab\there"), "\r");
  EXPECT_EQ(o.get_u64("count\n", 0), 3u);
}

// ---------------------------- result cache --------------------------------

CachedMap toy_result(const std::string& tag) {
  CachedMap m;
  m.map_text = tag;
  m.label = tag;
  return m;
}

TEST(ResultCache, HitMissCountersAndLookup) {
  ResultCache cache(4);
  std::string outcome;
  const CacheKey key{0x1234, "ratio3"};
  const std::shared_ptr<const CachedMap> a =
      cache.get_or_compute(key, [] { return toy_result("a"); }, &outcome);
  EXPECT_EQ(outcome, "miss");
  EXPECT_EQ(a->map_text, "a");
  const std::shared_ptr<const CachedMap> b = cache.get_or_compute(
      key, [] { return toy_result("WRONG — must not recompute"); }, &outcome);
  EXPECT_EQ(outcome, "hit");
  EXPECT_EQ(b->map_text, "a");
  // A hit shares the stored entry; it does not copy it.
  EXPECT_EQ(a.get(), b.get());

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.executions, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(cache.lookup(key).get(), a.get());
  EXPECT_FALSE(cache.lookup(CacheKey{0x9999, "ratio3"}));
}

TEST(ResultCache, DistinctConfigsAreDistinctKeys) {
  ResultCache cache(4);
  cache.get_or_compute({1, "ratio3"}, [] { return toy_result("r3"); });
  std::string outcome;
  const std::shared_ptr<const CachedMap> m =
      cache.get_or_compute({1, "ratio2"}, [] { return toy_result("r2"); },
                           &outcome);
  EXPECT_EQ(outcome, "miss");
  EXPECT_EQ(m->map_text, "r2");
}

TEST(ResultCache, LruEvictionRespectsCapacity) {
  ResultCache cache(3);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    cache.get_or_compute({k, "c"},
                         [k] { return toy_result(std::to_string(k)); });
  }
  // Refresh key 1's recency, then insert a fourth: key 2 (now the LRU tail)
  // must be the one evicted.
  EXPECT_TRUE(cache.lookup({1, "c"}));
  cache.get_or_compute({4, "c"}, [] { return toy_result("4"); });

  CacheStats s = cache.stats();
  EXPECT_EQ(s.size, 3u);
  EXPECT_EQ(s.capacity, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_TRUE(cache.lookup({1, "c"}));
  EXPECT_FALSE(cache.lookup({2, "c"}));
  EXPECT_TRUE(cache.lookup({3, "c"}));
  EXPECT_TRUE(cache.lookup({4, "c"}));
  // The lookup miss on key 2 is not a counted miss (only computes are).
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ResultCache, CoalescesInFlightDuplicates) {
  ResultCache cache(4);
  const CacheKey key{77, "ratio3"};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  std::atomic<int> executions{0};

  const auto compute = [&] {
    ++executions;
    entered.set_value();
    release_f.wait();
    return toy_result("shared");
  };

  std::string outcome_a;
  std::thread a([&] { cache.get_or_compute(key, compute, &outcome_a); });
  entered.get_future().wait();  // compute() is now in flight

  std::string outcome_b, outcome_c;
  std::thread b([&] { cache.get_or_compute(key, compute, &outcome_b); });
  std::thread c([&] { cache.get_or_compute(key, compute, &outcome_c); });

  // Wait until both duplicates registered as coalesced waiters, then let
  // the single execution finish.
  for (int i = 0; i < 1000 && cache.stats().coalesced < 2; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(cache.stats().coalesced, 2u);
  release.set_value();
  a.join();
  b.join();
  c.join();

  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(outcome_a, "miss");
  EXPECT_EQ(outcome_b, "coalesced");
  EXPECT_EQ(outcome_c, "coalesced");
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.executions, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.coalesced, 2u);
  EXPECT_EQ(s.size, 1u);
}

TEST(ResultCache, FlightDiscriminatorPreventsFailureInheritance) {
  // A determine strangled by a tiny tick budget must not capture a
  // generously-budgeted twin into its in-flight failure: the budget is
  // part of the coalescing identity (but not of the completed-entry key).
  ResultCache cache(4);
  const CacheKey key{55, "ratio3"};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();

  std::atomic<bool> strangled_failed{false};
  std::thread strangled([&] {
    try {
      cache.get_or_compute(
          key,
          [&]() -> CachedMap {
            entered.set_value();
            release_f.wait();
            throw Error("tick budget exhausted");
          },
          nullptr, /*flight_discriminator=*/5);
    } catch (const Error&) {
      strangled_failed = true;
    }
  });
  entered.get_future().wait();  // the strangled run is now in flight

  std::string outcome;
  const std::shared_ptr<const CachedMap> ok = cache.get_or_compute(
      key, [] { return toy_result("ok"); }, &outcome,
      /*flight_discriminator=*/0);
  EXPECT_EQ(outcome, "miss");  // ran independently, did not coalesce
  EXPECT_EQ(ok->map_text, "ok");

  release.set_value();
  strangled.join();
  EXPECT_TRUE(strangled_failed.load());

  // The success is cached under the budget-free key; the failed twin
  // contributed nothing. A later request with yet another budget hits.
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.inserts, 1u);
  std::string later;
  cache.get_or_compute(key, [] { return toy_result("unused"); }, &later, 7);
  EXPECT_EQ(later, "hit");
}

TEST(ResultCache, ConcurrentSuccessesUnderDistinctBudgetsStoreOneEntry) {
  ResultCache cache(4);
  const CacheKey key{66, "ratio3"};
  std::promise<void> entered_a, entered_b, release;
  std::shared_future<void> release_f = release.get_future().share();
  const auto compute = [&](std::promise<void>& entered) {
    return [&] {
      entered.set_value();
      release_f.wait();
      return toy_result("same");
    };
  };
  std::thread a([&] { cache.get_or_compute(key, compute(entered_a), nullptr, 1); });
  std::thread b([&] { cache.get_or_compute(key, compute(entered_b), nullptr, 2); });
  entered_a.get_future().wait();
  entered_b.get_future().wait();  // both in flight for the same key
  release.set_value();
  a.join();
  b.join();
  // Deterministic runs produce identical values: one entry, no duplicate.
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.executions, 2u);
  EXPECT_TRUE(cache.lookup(key));
}

TEST(ResultCache, ComputeFailureReachesEveryWaiterAndCachesNothing) {
  ResultCache cache(4);
  const CacheKey key{88, "ratio3"};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();

  std::atomic<int> failures{0};
  const auto attempt = [&] {
    try {
      cache.get_or_compute(key, [&]() -> CachedMap {
        entered.set_value();
        release_f.wait();
        throw Error("protocol violation");
      });
    } catch (const Error&) {
      ++failures;
    }
  };
  std::thread a(attempt);
  entered.get_future().wait();
  std::thread b([&] {
    try {
      cache.get_or_compute(key, [] { return toy_result("unused"); });
    } catch (const Error&) {
      ++failures;
    }
  });
  for (int i = 0; i < 1000 && cache.stats().coalesced < 1; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  release.set_value();
  a.join();
  b.join();

  EXPECT_EQ(failures.load(), 2);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
  // The key is retryable after the failure (fresh miss, not a poisoned
  // entry).
  std::string outcome;
  cache.get_or_compute(key, [] { return toy_result("retry"); }, &outcome);
  EXPECT_EQ(outcome, "miss");
}

// ------------------------- service: determinism ---------------------------

std::string determine_line(const std::string& family, NodeId nodes,
                           std::uint64_t seed = 1) {
  JsonWriter w;
  return w.field("op", "determine")
      .field("family", family)
      .field("nodes", static_cast<std::uint64_t>(nodes))
      .field("seed", seed)
      .field("include_map", false)
      .str();
}

// One scripted session per worker count: a batch of distinct requests
// submitted together (exercises the queue), then a sequential tail with a
// repeat, a relabelled inline twin and a stats call (exercises
// cache-state-dependent fields).
std::vector<std::string> session_transcript(int workers) {
  ServiceOptions opt;
  opt.workers = workers;
  Service svc(opt);

  const std::vector<std::string> batch = {
      determine_line("torus", 9),    determine_line("debruijn", 16),
      determine_line("dering", 8),   determine_line("torus", 16),
      determine_line("kautz", 12),   determine_line("treeloop", 15),
  };
  std::vector<std::uint64_t> tickets;
  for (const std::string& line : batch) tickets.push_back(svc.submit(line));

  std::vector<std::string> transcript;
  for (const std::uint64_t t : tickets) transcript.push_back(svc.wait(t));
  transcript.push_back(svc.call(determine_line("torus", 9)));  // repeat: hit
  {
    // debruijn-16 relabelled, as an inline graph: a hit on the same entry.
    const FamilyInstance fi = make_family("debruijn", 16, 1);
    std::vector<NodeId> mapping;
    const PortGraph permuted = permute_nodes_random(fi.graph, 7, &mapping);
    JsonWriter w;
    transcript.push_back(
        svc.call(w.field("op", "determine")
                     .field("graph", graph_to_string(permuted))
                     .field("root", static_cast<std::uint64_t>(mapping[0]))
                     .field("include_map", false)
                     .str()));
  }
  transcript.push_back(svc.call(R"({"op": "stats", "id": "s1"})"));
  // A pipelined batch of one connection: hits answered at submit, a miss,
  // and hits queued behind it.
  const std::vector<std::string> tail = {
      determine_line("debruijn", 16), determine_line("kautz", 12),
      determine_line("ccc", 24),      determine_line("dering", 8),
      determine_line("torus", 16),
  };
  tickets.clear();
  std::uint64_t last = 0;
  for (const std::string& line : tail) {
    last = svc.submit(line, last);
    tickets.push_back(last);
  }
  for (const std::uint64_t t : tickets) transcript.push_back(svc.wait(t));
  transcript.push_back(svc.call(R"({"op": "stats", "id": "s2"})"));
  return transcript;
}

TEST(ServiceDeterminism, ResponsesByteIdenticalAt1And8Workers) {
  const std::vector<std::string> one = session_transcript(1);
  const std::vector<std::string> eight = session_transcript(8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], eight[i]) << "response " << i;
  }
  // Spot-check the cache-state-dependent tail: the repeat and the
  // relabelled twin are hits and the stats line saw exactly two hits and
  // six executions.
  EXPECT_NE(one[6].find("\"cache\": \"hit\""), std::string::npos);
  EXPECT_NE(one[7].find("\"cache\": \"hit\""), std::string::npos);
  EXPECT_NE(one[8].find("\"hits\": 2"), std::string::npos);
  EXPECT_NE(one[8].find("\"executions\": 6"), std::string::npos);
}

// ------------------------- service: cache behaviour -----------------------

TEST(ServiceCache, RepeatedDetermineIsServedFromCache) {
  Service svc(ServiceOptions{});
  const std::string first = svc.call(determine_line("torus", 9));
  const std::string second = svc.call(determine_line("torus", 9));
  EXPECT_NE(first.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(first.find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_NE(second.find("\"cache\": \"hit\""), std::string::npos);

  // Apart from the cache field the responses are byte-identical — the hit
  // replays the stored result, it does not re-run the protocol.
  std::string expected = first;
  const std::size_t at = expected.find("\"cache\": \"miss\"");
  expected.replace(at, std::string("\"cache\": \"miss\"").size(),
                   "\"cache\": \"hit\"");
  EXPECT_EQ(second, expected);

  const CacheStats s = svc.cache_stats();
  EXPECT_EQ(s.executions, 1u);  // one protocol run served both requests
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(ServiceCache, RelabelledNetworkHitsTheSameEntry) {
  // The cache key is the rooted canonical form: a relabelled instance of an
  // already-solved network — submitted as an inline graph — must hit, and
  // the cached (canonical) map must verify against the relabelled truth.
  const FamilyInstance fi = make_family("debruijn", 16, 1);
  std::vector<NodeId> mapping;
  const PortGraph permuted = permute_nodes_random(fi.graph, 99, &mapping);

  Service svc(ServiceOptions{});
  const std::string miss = svc.call(determine_line("debruijn", 16));
  EXPECT_NE(miss.find("\"cache\": \"miss\""), std::string::npos);

  JsonWriter w;
  const std::string req = w.field("op", "determine")
                              .field("graph", graph_to_string(permuted))
                              .field("root", static_cast<std::uint64_t>(mapping[0]))
                              .str();
  const std::string hit = svc.call(req);
  EXPECT_NE(hit.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(hit.find("\"cache\": \"hit\""), std::string::npos);

  // determine responses are flat JSON; pull the map out and verify it
  // against the permuted ground truth.
  const JsonObject resp = parse_json_object(hit);
  const TopologyMap map = map_from_string(resp.require_string("map"));
  EXPECT_TRUE(verify_map(permuted, mapping[0], map).ok);
  EXPECT_EQ(svc.cache_stats().executions, 1u);
}

TEST(ServiceCache, EvictionAtCapacityForcesRecompute) {
  ServiceOptions opt;
  opt.cache_capacity = 1;
  Service svc(opt);
  svc.call(determine_line("torus", 9));
  svc.call(determine_line("dering", 8));  // evicts the torus entry
  const std::string again = svc.call(determine_line("torus", 9));
  EXPECT_NE(again.find("\"cache\": \"miss\""), std::string::npos);
  const CacheStats s = svc.cache_stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.executions, 3u);
  EXPECT_EQ(s.size, 1u);
}

// --------------------------- service: protocol ----------------------------

TEST(ServiceProtocol, VerifyOpChecksARecoveredMap) {
  Service svc(ServiceOptions{});
  const JsonObject det = parse_json_object(svc.call(
      R"({"op": "determine", "family": "torus", "nodes": 9})"));
  ASSERT_TRUE(det.get_bool("ok", false));
  JsonWriter w;
  const std::string ok_resp = svc.call(w.field("op", "verify")
                                           .field("family", "torus")
                                           .field("nodes", std::uint64_t{9})
                                           .field("map", det.require_string("map"))
                                           .str());
  EXPECT_NE(ok_resp.find("\"ok\": true"), std::string::npos);

  // The same map against a different network must report a mismatch.
  JsonWriter w2;
  const std::string bad_resp = svc.call(w2.field("op", "verify")
                                            .field("family", "dering")
                                            .field("nodes", std::uint64_t{8})
                                            .field("map", det.require_string("map"))
                                            .str());
  EXPECT_NE(bad_resp.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(bad_resp.find("\"detail\""), std::string::npos);
}

TEST(ServiceProtocol, SweepOpRunsACampaign) {
  Service svc(ServiceOptions{});
  const std::string resp = svc.call(
      R"({"op": "sweep", "families": "torus", "sizes": "9", "seeds": "1,2"})");
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(resp.find("\"jobs\": 2"), std::string::npos);
  EXPECT_NE(resp.find("\"exact\": 2"), std::string::npos);
  EXPECT_NE(resp.find("\"status\": \"exact\""), std::string::npos);
}

TEST(ServiceProtocol, ErrorsAreStructuredResponses) {
  Service svc(ServiceOptions{});
  EXPECT_NE(svc.call("not json").find("\"ok\": false"), std::string::npos);
  EXPECT_NE(svc.call(R"({"op": "frobnicate"})").find("unknown op"),
            std::string::npos);
  EXPECT_NE(svc.call(R"({"op": "determine"})").find("\"ok\": false"),
            std::string::npos);
  // Echoed id on errors too.
  EXPECT_NE(svc.call(R"({"id": 42, "op": "nope"})").find("\"id\": 42"),
            std::string::npos);
  // A determine on a root out of range fails cleanly.
  EXPECT_NE(
      svc.call(R"({"op": "determine", "family": "torus", "nodes": 9, "root": 99})")
          .find("out of range"),
      std::string::npos);
}

TEST(ServiceProtocol, PipelinedDuplicateFollowsItsPredecessorIntoTheCache) {
  // The later twin makes its cache lookup only after the earlier one has,
  // so the earlier twin is the miss whichever worker reaches the cache
  // first.
  for (int round = 0; round < 20; ++round) {
    ServiceOptions opt;
    opt.workers = 4;
    Service svc(opt);
    const std::uint64_t first = svc.submit(determine_line("torus", 9));
    const std::uint64_t second = svc.submit(determine_line("torus", 9), first);
    const std::string r1 = svc.wait(first);
    const std::string r2 = svc.wait(second);
    EXPECT_NE(r1.find("\"cache\": \"miss\""), std::string::npos) << r1;
    EXPECT_TRUE(r2.find("\"cache\": \"hit\"") != std::string::npos ||
                r2.find("\"cache\": \"coalesced\"") != std::string::npos)
        << r2;
  }
  // A predecessor that never reaches the cache does not hold its
  // successor up.
  ServiceOptions opt;
  opt.workers = 2;
  Service svc(opt);
  const std::uint64_t bad = svc.submit("not json");
  const std::uint64_t stats = svc.submit(R"({"op": "stats"})", bad);
  const std::uint64_t det = svc.submit(determine_line("torus", 9), stats);
  EXPECT_NE(svc.wait(bad).find("\"ok\": false"), std::string::npos);
  EXPECT_NE(svc.wait(stats).find("\"ok\": true"), std::string::npos);
  EXPECT_NE(svc.wait(det).find("\"cache\": \"miss\""), std::string::npos);
}

TEST(ServiceLifecycle, ShutdownFlagsAndDrains) {
  Service svc(ServiceOptions{});
  EXPECT_FALSE(svc.shutdown_requested());
  EXPECT_NE(svc.call(R"({"op": "shutdown"})").find("\"ok\": true"),
            std::string::npos);
  EXPECT_TRUE(svc.shutdown_requested());
  svc.stop();
  // Submitting after the drain yields a structured refusal, not a hang.
  const std::uint64_t t = svc.submit(determine_line("torus", 9));
  EXPECT_NE(svc.wait(t).find("shutting down"), std::string::npos);
}

// ------------------------ service: hits at submit -------------------------

// A miss long enough that a request submitted right after it is answered
// (or not) well before the single worker finishes it.
std::string long_miss_line() { return determine_line("debruijn", 256); }

TEST(ServiceSubmit, CachedHitOvertakesAWorkerHeldOnAMiss) {
  ServiceOptions opt;
  opt.workers = 1;
  Service svc(opt);
  const std::string warm = svc.call(determine_line("torus", 9));
  ASSERT_NE(warm.find("\"cache\": \"miss\""), std::string::npos);

  const std::uint64_t miss = svc.submit(long_miss_line());
  // Another caller's hit: answered on this thread, not queued behind the
  // miss that holds the only worker.
  const std::string hit = svc.wait(svc.submit(determine_line("torus", 9)));
  // The miss inserts its entry only when it completes; the hit came first.
  EXPECT_EQ(svc.cache_stats().inserts, 1u);
  std::string expected = warm;
  expected.replace(expected.find("\"cache\": \"miss\""),
                   std::string("\"cache\": \"miss\"").size(),
                   "\"cache\": \"hit\"");
  EXPECT_EQ(hit, expected);
  EXPECT_NE(svc.wait(miss).find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_EQ(svc.cache_stats().inserts, 2u);
}

TEST(ServiceSubmit, PipelinedStatsDoesNotCountTheHitBehindIt) {
  ServiceOptions opt;
  opt.workers = 1;
  Service svc(opt);
  svc.call(determine_line("torus", 9));
  // Hold the worker so the stats request is still queued when the hit
  // behind it on the same connection is submitted.
  const std::uint64_t miss = svc.submit(long_miss_line());
  const std::uint64_t stats = svc.submit(R"({"op": "stats"})");
  const std::uint64_t hit = svc.submit(determine_line("torus", 9), stats);
  const std::string stats_resp = svc.wait(stats);
  EXPECT_NE(stats_resp.find("\"hits\": 0"), std::string::npos) << stats_resp;
  // The warm-up and the miss, not the hit.
  EXPECT_NE(stats_resp.find("\"determine\": 2"), std::string::npos)
      << stats_resp;
  EXPECT_NE(svc.wait(hit).find("\"cache\": \"hit\""), std::string::npos);
  EXPECT_NE(svc.wait(miss).find("\"ok\": true"), std::string::npos);
  const std::string after = svc.call(R"({"op": "stats"})");
  EXPECT_NE(after.find("\"hits\": 1"), std::string::npos) << after;
  EXPECT_NE(after.find("\"determine\": 3"), std::string::npos) << after;
}

TEST(ServiceSubmit, CachedHitAfterStopIsRefused) {
  Service svc(ServiceOptions{});
  ASSERT_NE(svc.call(determine_line("torus", 9)).find("\"ok\": true"),
            std::string::npos);
  svc.stop();
  EXPECT_EQ(svc.call(determine_line("torus", 9)),
            R"({"ok": false, "error": "service is shutting down"})");
  EXPECT_EQ(svc.cache_stats().hits, 0u);
}

TEST(ServiceSubmit, RequestsTotalEqualsServedPlusRejected) {
  ServiceOptions opt;
  opt.workers = 4;
  Service svc(opt);
  svc.call(determine_line("torus", 9));
  svc.call(determine_line("dering", 8));
  // The one-host cluster's entry-copying ops are gone: unknown ops now.
  std::vector<std::string> removed_ops;
  for (const char* verb : {"get", "put"}) {
    removed_ops.push_back(std::string("cache_") + verb);
  }
  // A pipelined batch: hits answered at submit, hits queued behind a
  // predecessor, a miss, errors of every kind, and other ops.
  const std::vector<std::string> batch = {
      determine_line("torus", 9),
      determine_line("dering", 8),
      R"({"op": "stats"})",
      determine_line("torus", 9),
      determine_line("kautz", 12),
      "not json",
      R"({"op": "frobnicate"})",
      R"({"op": "determine", "family": "torus", "nodes": 9, "root": 99})",
      R"({"op": "determine", "family": "torus", "nodes": 9, "config": "x"})",
      R"({"op": ")" + removed_ops[0] + R"(", "key": "0000000000000001"})",
      R"({"op": ")" + removed_ops[1] +
          R"(", "key": "0000000000000001", "map": "x"})",
      determine_line("dering", 8),
  };
  std::vector<std::uint64_t> tickets;
  std::uint64_t last = 0;
  for (const std::string& line : batch) {
    last = svc.submit(line, last);
    tickets.push_back(last);
  }
  std::vector<std::string> responses;
  for (const std::uint64_t t : tickets) responses.push_back(svc.wait(t));
  for (std::size_t k = 0; k < removed_ops.size(); ++k) {
    const std::string& op = removed_ops[k];
    EXPECT_EQ(responses[batch.size() - 3 + k],
              R"({"op": ")" + op +
                  R"(", "ok": false, "error": "unknown op \")" + op +
                  R"j(\" (known: determine verify sweep stats metrics )j"
                  R"j(shutdown)"})j");
  }
  // The request behind them still answers.
  EXPECT_NE(responses.back().find("\"cache\": \"hit\""), std::string::npos)
      << responses.back();
  for (int i = 0; i < 5; ++i) svc.call(determine_line("kautz", 12));

  const obs::Snapshot s =
      parse_snapshot_response(svc.call(R"({"op": "metrics"})"));
  std::uint64_t served = 0;
  for (std::size_t f = 0; f < kServedOpCount; ++f) {
    served += s.counter_or(std::string("service_") + kStatsServedFields[f] +
                           "_served_total");
  }
  const std::uint64_t rejected = s.counter_or("service_rejected_total");
  EXPECT_EQ(rejected, 4u);
  EXPECT_EQ(s.counter_or("service_errors_served_total"), 6u);
  EXPECT_EQ(s.counter_or("service_requests_total"),
            2 + batch.size() + 5 + 1);
  EXPECT_EQ(s.counter_or("service_requests_total"), served + rejected);
  // Every determine, hit or not, records one latency sample.
  const auto* lat = s.find_histogram("service_determine_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count(),
            s.counter_or("service_determine_served_total"));
  EXPECT_EQ(s.counter_or("service_determine_served_total"), 2u + 7u + 5u);
  EXPECT_EQ(s.counter_or("cache_hits_total") +
                s.counter_or("cache_misses_total") +
                s.counter_or("cache_coalesced_total"),
            2u + 5u + 5u);  // the two failed determines never looked up
}

// ---------------------- service: family identity map -----------------------

std::string key_hex(const std::string& family, NodeId nodes,
                    std::uint64_t seed, NodeId root) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(canonical_hash(
                    make_family(family, nodes, seed).graph, root)));
  return buf;
}

TEST(ServiceIdentity, RequestsDifferingInOneFieldGetDistinctEntries) {
  struct Variant {
    std::string family;
    NodeId nodes;
    std::uint64_t seed;
    NodeId root;
    std::string config;
  };
  // Each differs from the first in exactly one field.
  const std::vector<Variant> variants = {
      {"random3", 16, 5, 0, "ratio3"}, {"grid", 16, 5, 0, "ratio3"},
      {"random3", 20, 5, 0, "ratio3"}, {"random3", 16, 6, 0, "ratio3"},
      {"random3", 16, 5, 3, "ratio3"}, {"random3", 16, 5, 0, "ratio4"},
  };
  const auto line = [](const Variant& v) {
    return JsonWriter()
        .field("op", "determine")
        .field("family", v.family)
        .field("nodes", static_cast<std::uint64_t>(v.nodes))
        .field("seed", v.seed)
        .field("root", static_cast<std::uint64_t>(v.root))
        .field("config", v.config)
        .field("include_map", false)
        .str();
  };
  Service svc(ServiceOptions{});
  std::vector<std::string> entries;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Variant& v : variants) {
      const std::string answer = svc.call(line(v));
      const JsonObject resp = parse_json_object(answer);
      ASSERT_TRUE(resp.get_bool("ok", false)) << answer;
      EXPECT_EQ(resp.require_string("cache"), pass == 0 ? "miss" : "hit")
          << line(v);
      // The remembered hash is the one a fresh build computes.
      EXPECT_EQ(resp.require_string("key"),
                key_hex(v.family, v.nodes, v.seed, v.root));
      if (pass == 0) {
        entries.push_back(resp.require_string("key") + "/" + v.config);
      }
    }
  }
  std::sort(entries.begin(), entries.end());
  EXPECT_EQ(std::unique(entries.begin(), entries.end()), entries.end());
  EXPECT_EQ(svc.cache_stats().executions, variants.size());
}

TEST(ServiceIdentity, EvictedEntryOfAKnownIdentityIsRecomputed) {
  ServiceOptions opt;
  opt.cache_capacity = 2;
  Service svc(opt);
  const std::string req = R"({"op": "determine", "family": "random3", )"
                          R"("nodes": 16, "seed": 5, "root": 2})";
  const JsonObject first = parse_json_object(svc.call(req));
  ASSERT_EQ(first.require_string("cache"), "miss");
  // Two inline networks push the family entry out of the LRU; inline
  // graphs never enter the identity map, so its identity stays known.
  for (const NodeId n : {NodeId{8}, NodeId{9}}) {
    JsonWriter w;
    svc.call(w.field("op", "determine")
                 .field("graph", graph_to_string(make_family("dering", n, 1).graph))
                 .str());
  }
  ASSERT_EQ(svc.cache_stats().evictions, 1u);
  ASSERT_EQ(svc.known_identities(), 1u);

  const std::string again = svc.call(req);
  const JsonObject resp = parse_json_object(again);
  EXPECT_EQ(resp.require_string("cache"), "miss");
  EXPECT_EQ(resp.require_string("key"), first.require_string("key"));
  const PortGraph truth = make_family("random3", 16, 5).graph;
  const TopologyMap map = map_from_string(resp.require_string("map"));
  EXPECT_TRUE(verify_map(truth, 2, map).ok);
  EXPECT_EQ(resp.require_string("label"), first.require_string("label"));
  EXPECT_EQ(svc.cache_stats().executions, 4u);
}

TEST(ServiceIdentity, NeverHoldsMoreThanCacheCapacity) {
  ServiceOptions opt;
  opt.cache_capacity = 3;
  Service svc(opt);
  for (NodeId n = 2; n < 12; ++n) {
    ASSERT_NE(svc.call(determine_line("dering", n)).find("\"ok\": true"),
              std::string::npos);
    EXPECT_LE(svc.known_identities(), 3u);
    EXPECT_GE(svc.known_identities(), 1u);
  }
  // A request that fails validation is never remembered.
  const std::size_t before = svc.known_identities();
  svc.call(R"({"op": "determine", "family": "torus", "nodes": 9, "root": 99})");
  EXPECT_EQ(svc.known_identities(), before);
}

TEST(ServiceIdentity, FamilyAndGraphTogetherAreStillRefused) {
  Service svc(ServiceOptions{});
  JsonWriter w;
  const std::string both =
      w.field("op", "determine")
          .field("family", "torus")
          .field("nodes", std::uint64_t{9})
          .field("graph", graph_to_string(make_family("torus", 9, 1).graph))
          .str();
  const std::string cold = svc.call(both);
  EXPECT_NE(cold.find("exactly one network source"), std::string::npos);
  svc.call(determine_line("torus", 9));  // the identity is now known
  EXPECT_EQ(svc.call(both), cold);
  // So is a known identity whose other fields are bad.
  EXPECT_NE(svc.call(R"({"op": "determine", "family": "torus", "nodes": 9, )"
                     R"("seed": 1, "config": "ratio9"})")
                .find("\"ok\": false"),
            std::string::npos);
}

// ------------------------------ transport ---------------------------------

std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + "dtopd_" + name + ".sock";
}

TEST(ServerSocket, EndToEndSessionCacheHitAndShutdown) {
  const std::string path = socket_path("e2e");
  if (path.size() >= 100) GTEST_SKIP() << "TempDir too long for AF_UNIX";
  ::unlink(path.c_str());

  ServerOptions opt;
  opt.socket_path = path;
  opt.service.workers = 2;
  opt.quiet = true;
  Server server(opt);
  std::ostringstream log;
  std::thread daemon([&] { server.serve(log); });

  // Wait for the listener.
  for (int i = 0; i < 2000; ++i) {
    try {
      ClientChannel probe(path);
      break;
    } catch (const Error&) {
      std::this_thread::sleep_for(1ms);
    }
  }

  ClientChannel client(path);
  client.send(determine_line("torus", 9));
  client.send(determine_line("torus", 9));
  client.send(R"({"op": "stats"})");
  const std::optional<std::string> r1 = client.recv();
  const std::optional<std::string> r2 = client.recv();
  const std::optional<std::string> r3 = client.recv();
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_NE(r1->find("\"ok\": true"), std::string::npos);
  // The pipelined identical request either arrived after the first
  // completed (hit) or while it was in flight (coalesced); both mean one
  // protocol run, as the stats line asserts.
  EXPECT_TRUE(r2->find("\"cache\": \"hit\"") != std::string::npos ||
              r2->find("\"cache\": \"coalesced\"") != std::string::npos)
      << *r2;
  EXPECT_NE(r3->find("\"executions\": 1"), std::string::npos) << *r3;

  client.send(R"({"op": "shutdown"})");
  const std::optional<std::string> r4 = client.recv();
  ASSERT_TRUE(r4);
  EXPECT_NE(r4->find("\"ok\": true"), std::string::npos);
  daemon.join();
  // The address is released on drain.
  EXPECT_THROW(ClientChannel reconnect(path), Error);
}

TEST(ServerSocket, SurvivesClientVanishingBeforeItsResponse) {
  // A peer that hangs up before reading its response must cost the daemon
  // nothing: no SIGPIPE death, no leaked pending response. Regression test
  // for the write path using send(MSG_NOSIGNAL) + always-reaped tickets.
  const std::string path = socket_path("gone");
  if (path.size() >= 100) GTEST_SKIP() << "TempDir too long for AF_UNIX";
  ::unlink(path.c_str());

  ServerOptions opt;
  opt.socket_path = path;
  opt.quiet = true;
  Server server(opt);
  std::ostringstream log;
  std::thread daemon([&] { server.serve(log); });
  for (int i = 0; i < 2000; ++i) {
    try {
      ClientChannel probe(path);
      break;
    } catch (const Error&) {
      std::this_thread::sleep_for(1ms);
    }
  }

  {
    ClientChannel rude(path);
    rude.send(determine_line("torus", 9));
    // Destructor closes the socket without reading the response.
  }

  // The daemon is still alive and serving; the rude client's run even
  // warmed the cache for us.
  std::string second;
  for (int i = 0; i < 5000; ++i) {
    ClientChannel polite(path);
    polite.send(determine_line("torus", 9));
    const std::optional<std::string> resp = polite.recv();
    ASSERT_TRUE(resp);
    second = *resp;
    if (second.find("\"cache\": \"hit\"") != std::string::npos) break;
    std::this_thread::sleep_for(1ms);  // abandoned run still in flight
  }
  EXPECT_NE(second.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(second.find("\"cache\": \"hit\""), std::string::npos);

  ClientChannel stopper(path);
  stopper.send(R"({"op": "shutdown"})");
  EXPECT_TRUE(stopper.recv().has_value());
  daemon.join();
}

TEST(ServerSocket, ExternalStopFlagDrainsWithoutShutdownRequest) {
  const std::string path = socket_path("stop");
  if (path.size() >= 100) GTEST_SKIP() << "TempDir too long for AF_UNIX";
  ::unlink(path.c_str());

  std::atomic<bool> stop{false};
  ServerOptions opt;
  opt.socket_path = path;
  opt.quiet = true;
  opt.stop = &stop;
  Server server(opt);
  std::ostringstream log;
  std::thread daemon([&] { server.serve(log); });
  std::this_thread::sleep_for(50ms);
  stop.store(true);
  daemon.join();  // returns within the poll interval: the flag is honoured
  SUCCEED();
}

TEST(Signals, GuardCapturesSigintAndRestores) {
  SignalGuard::reset();
  {
    SignalGuard guard;
    EXPECT_FALSE(guard.triggered());
    ::raise(SIGINT);  // the handler only sets the flag — safe in-process
    EXPECT_TRUE(guard.triggered());
    EXPECT_EQ(SignalGuard::exit_code(), 130);
    EXPECT_TRUE(&SignalGuard::flag() == &SignalGuard::flag());
  }
  SignalGuard::reset();
  EXPECT_FALSE(SignalGuard::flag().load());
}

}  // namespace
}  // namespace dtop::service
