// The dtopd `metrics` op: the request-counting invariant (requests_total ==
// sum of per-op served + rejected), per-daemon delta windows, and the
// determinism contract (interleaved scrapes never perturb the byte-identity
// of other responses across worker counts).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "service/json.hpp"
#include "service/metrics_wire.hpp"
#include "service/service.hpp"

namespace dtop::service {
namespace {

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

std::string metrics_line(bool delta = false) {
  JsonWriter w;
  w.field("op", "metrics");
  if (delta) w.field("delta", true);
  return w.str();
}

// Sum of the real per-op served counters (excludes the "errors" tally,
// which double-books failed-but-matched ops).
std::uint64_t served_sum(const obs::Snapshot& s) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kServedOpCount; ++i) {
    sum += s.counter_or(std::string("service_") + kStatsServedFields[i] +
                        "_served_total");
  }
  return sum;
}

// ------------------------- service: invariants ----------------------------

TEST(ServiceMetrics, RequestInvariantAndScrapeShape) {
  Service svc(ServiceOptions{});
  svc.call(determine_line("torus", 9));     // miss
  svc.call(determine_line("dering", 8));    // miss
  svc.call(determine_line("torus", 9));     // hit
  svc.call(R"({"op": "stats"})");
  svc.call("this is not json");             // rejected (parse failure)
  svc.call(R"({"op": "frobnicate"})");      // rejected (unknown op)

  const std::string line = svc.call(metrics_line());
  EXPECT_NE(line.find("\"op\": \"metrics\""), std::string::npos);
  EXPECT_NE(line.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(line.find("\"delta\": false"), std::string::npos);

  const obs::Snapshot s = parse_snapshot_response(line);
  // Every request is counted on entry, the scrape included, so a
  // sequential session satisfies the exact invariant CI asserts live.
  const std::uint64_t requests = s.counter_or("service_requests_total");
  const std::uint64_t rejected = s.counter_or("service_rejected_total");
  EXPECT_EQ(requests, 7u);
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(requests, served_sum(s) + rejected);
  EXPECT_LE(s.counter_or("cache_hits_total"), requests);

  EXPECT_EQ(s.counter_or("service_determine_served_total"), 3u);
  EXPECT_EQ(s.counter_or("service_stats_served_total"), 1u);
  EXPECT_EQ(s.counter_or("service_metrics_served_total"), 1u);
  EXPECT_EQ(s.counter_or("cache_hits_total"), 1u);
  EXPECT_EQ(s.counter_or("cache_misses_total"), 2u);
  EXPECT_EQ(s.counter_or("cache_executions_total"), 2u);

  // Latency histograms: one recording per matched request of that op.
  const auto* lat = s.find_histogram("service_determine_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count(), 3u);

  ASSERT_NE(s.find_gauge("cache_size"), nullptr);
  EXPECT_EQ(s.find_gauge("cache_size")->value, 2);
  ASSERT_NE(s.find_gauge("service_workers"), nullptr);
  EXPECT_EQ(s.find_gauge("service_workers")->value, 1);

  // The engine ran twice (two cache executions): tick instrumentation
  // must have observed real work.
  EXPECT_GT(s.counter_or("engine_ticks_total"), 0u);
  EXPECT_GT(s.counter_or("engine_node_steps_total"), 0u);
}

TEST(ServiceMetrics, DeltaScrapesReportTheWindow) {
  Service svc(ServiceOptions{});
  svc.call(determine_line("torus", 9));

  const std::string first = svc.call(metrics_line(/*delta=*/true));
  EXPECT_NE(first.find("\"delta\": true"), std::string::npos);
  const obs::Snapshot d1 = parse_snapshot_response(first);
  // First delta window starts from an empty baseline == cumulative.
  EXPECT_EQ(d1.counter_or("service_determine_served_total"), 1u);
  EXPECT_EQ(d1.counter_or("service_requests_total"), 2u);

  svc.call(determine_line("dering", 8));  // miss
  svc.call(determine_line("torus", 9));   // hit
  // A cumulative scrape in between must NOT disturb the delta baseline.
  const obs::Snapshot cum = parse_snapshot_response(svc.call(metrics_line()));
  EXPECT_EQ(cum.counter_or("service_determine_served_total"), 3u);

  const obs::Snapshot d2 =
      parse_snapshot_response(svc.call(metrics_line(/*delta=*/true)));
  // The window: 2 determines, the cumulative scrape, and this scrape.
  EXPECT_EQ(d2.counter_or("service_determine_served_total"), 2u);
  EXPECT_EQ(d2.counter_or("service_metrics_served_total"), 2u);
  EXPECT_EQ(d2.counter_or("service_requests_total"), 4u);
  EXPECT_EQ(d2.counter_or("cache_hits_total"), 1u);
  const auto* lat = d2.find_histogram("service_determine_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count(), 2u);
  // Gauges pass through deltas with their instantaneous values.
  ASSERT_NE(d2.find_gauge("cache_size"), nullptr);
  EXPECT_EQ(d2.find_gauge("cache_size")->value, 2);
}

// ------------------------- service: determinism ---------------------------

// A scripted session with metrics scrapes interleaved between every
// deterministic op. Returns only the non-metrics responses; the scrapes
// are checked for well-formedness and discarded (they carry measurements
// and are the documented exception to byte-identity).
std::vector<std::string> session_with_scrapes(int workers) {
  ServiceOptions opt;
  opt.workers = workers;
  Service svc(opt);
  const std::vector<std::string> script = {
      determine_line("torus", 9),   determine_line("debruijn", 16),
      determine_line("kautz", 12),  determine_line("torus", 9),
      R"({"op": "stats", "id": "s1"})",
  };
  std::vector<std::string> transcript;
  for (const std::string& line : script) {
    transcript.push_back(svc.call(line));
    const std::string scrape = svc.call(metrics_line(/*delta=*/true));
    EXPECT_NE(scrape.find("\"ok\": true"), std::string::npos);
  }
  return transcript;
}

TEST(ServiceMetrics, ScrapesNeverPerturbByteIdentityAcrossWorkerCounts) {
  const std::vector<std::string> one = session_with_scrapes(1);
  const std::vector<std::string> two = session_with_scrapes(2);
  const std::vector<std::string> eight = session_with_scrapes(8);
  ASSERT_EQ(one.size(), two.size());
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], two[i]) << "response " << i;
    EXPECT_EQ(one[i], eight[i]) << "response " << i;
  }
  // The stats response is part of the deterministic transcript even though
  // seven metrics scrapes ran before it.
  EXPECT_NE(one.back().find("\"hits\": 1"), std::string::npos);
}

}  // namespace
}  // namespace dtop::service
