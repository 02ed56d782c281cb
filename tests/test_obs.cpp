// Unit tests for src/obs: the log-linear histogram's bucket math and
// quantile error bound, the shard-merge exactness law, snapshot delta
// windows, wire encoding, exposition, and a concurrent recording
// stress (run under the TSan CI job — the lock-free recording paths are
// exactly what it audits).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/expose.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace dtop::obs {
namespace {

TEST(Histogram, BucketBoundariesRoundTrip) {
  // Every bucket's floor maps back to the bucket, its last value too, and
  // floor+width is exactly the next bucket's floor: the buckets tile
  // [0, kMaxValue) with no gaps and no overlaps.
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t lo = Histogram::bucket_floor(i);
    const std::uint64_t w = Histogram::bucket_width(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "floor of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(lo + w - 1), i) << "last of bucket " << i;
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_EQ(Histogram::bucket_floor(i + 1), lo + w) << "bucket " << i;
    } else {
      EXPECT_EQ(lo + w, Histogram::kMaxValue);
    }
  }
}

TEST(Histogram, SmallValuesAreExact) {
  // Values below 2^(kSubBits+1) = 64 land in unit-width buckets, so their
  // quantiles are exact — the property that keeps tick counters faithful.
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(Histogram::bucket_width(Histogram::bucket_index(v)), 1u);
    Histogram h;
    h.record(v);
    EXPECT_EQ(h.quantile(0), static_cast<double>(v));
    EXPECT_EQ(h.quantile(100), static_cast<double>(v));
  }
}

TEST(Histogram, ClampsToMax) {
  Histogram h;
  h.record(Histogram::kMaxValue + 12345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);
}

TEST(Histogram, RelativeBucketWidthBound) {
  // The layout law the quantile error bound rests on: every bucket above
  // the exact range is at most 2^-kSubBits of its floor wide.
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t lo = Histogram::bucket_floor(i);
    const std::uint64_t w = Histogram::bucket_width(i);
    if (lo >= (std::uint64_t{1} << (Histogram::kSubBits + 1))) {
      EXPECT_LE(static_cast<double>(w),
                std::ldexp(static_cast<double>(lo), -Histogram::kSubBits))
          << "bucket " << i;
    }
  }
}

TEST(Histogram, MergeOfShardsEqualsSingleShard) {
  // The shard-merge law: recording a stream into K histograms round-robin
  // and merging gives the exact histogram of the whole stream — buckets,
  // count, sum, min, max, everything operator== compares.
  Rng rng(7);
  Histogram single;
  Histogram shards[4];
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.next_u64() >> (rng.next_u64() % 40);
    single.record(v);
    shards[i % 4].record(v);
  }
  Histogram merged;
  for (const Histogram& s : shards) merged.merge(s);
  EXPECT_TRUE(merged == single);
  EXPECT_EQ(merged.sum(), single.sum());
  EXPECT_EQ(merged.min(), single.min());
  EXPECT_EQ(merged.max(), single.max());
}

TEST(Histogram, ShardedMergedEqualsPlainRecording) {
  // Same law across the concurrent form: ShardedHistogram::merged() folds
  // its shard atomics into exactly the plain histogram of the stream.
  Rng rng(11);
  Histogram plain;
  ShardedHistogram sharded;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.next_u64() % 3'000'000;
    plain.record(v);
    sharded.record(v, i % kShards);
  }
  EXPECT_TRUE(sharded.merged() == plain);
}

TEST(Histogram, QuantileErrorBoundVsExactSort) {
  // 10^5 samples spanning six orders of magnitude: every quantile read off
  // the histogram stays within the bucket-width bound (3.125% relative at
  // kSubBits = 5, plus one unit of interpolation slack) of the exact
  // sorted-sample percentile with the same rank convention.
  Rng rng(42);
  Histogram h;
  Samples exact;
  for (int i = 0; i < 100000; ++i) {
    // Log-uniform-ish: a uniform mantissa under a uniform scale.
    const std::uint64_t v = rng.next_u64() % (std::uint64_t{1}
                                              << (4 + rng.next_u64() % 28));
    h.record(v);
    exact.add(static_cast<double>(v));
  }
  for (const double p : {0.0, 1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    const double want = exact.percentile(p);
    const double got = h.quantile(p);
    EXPECT_NEAR(got, want, std::max(1.5, 0.04 * want)) << "p" << p;
  }
}

TEST(Histogram, QuantileClampedToObservedExtrema) {
  Histogram h;
  h.record(1000);
  h.record(1000000);
  EXPECT_EQ(h.quantile(0), 1000.0);
  // p100 resolves to the bucket holding the max, clamped to never exceed it.
  EXPECT_LE(h.quantile(100), 1000000.0);
  EXPECT_GT(h.quantile(100), 1000000.0 * (1.0 - 0.04));
  EXPECT_EQ(Histogram().quantile(50), 0.0);
  Histogram one;
  one.record(12345);
  EXPECT_EQ(one.quantile(100), 12345.0);  // single sample is exact
}

TEST(Histogram, EncodeDecodeRoundTrip) {
  Rng rng(3);
  Histogram h;
  for (int i = 0; i < 5000; ++i) h.record(rng.next_u64() % 10'000'000);
  const Histogram back = Histogram::decode(h.encode());
  EXPECT_TRUE(back == h);
  EXPECT_TRUE(Histogram::decode(Histogram().encode()) == Histogram());
}

TEST(Histogram, DecodeRejectsGarbage) {
  EXPECT_THROW(Histogram::decode("not a histogram"), Error);
  EXPECT_THROW(Histogram::decode("1|2|3"), Error);
}

TEST(Histogram, SubtractYieldsTheWindow) {
  Histogram prev;
  prev.record(10);
  prev.record(100);
  Histogram now = prev;
  now.record(20);
  now.record(200000);
  Histogram window = now;
  window.subtract(prev);
  EXPECT_EQ(window.count(), 2u);
  EXPECT_EQ(window.quantile(0), 20.0);
  // Min/max re-derive from bucket bounds: exact for the unit bucket, and
  // within one bucket width for the large value.
  EXPECT_NEAR(window.quantile(100), 200000.0, 0.04 * 200000.0);
}

TEST(Histogram, SubtractRejectsNonMonotone) {
  Histogram prev;
  prev.record(10);
  Histogram now;  // empty: bucket 10 would go negative
  EXPECT_THROW(now.subtract(prev), Error);
}

TEST(Registry, CountersShardAndSum) {
  Registry r;
  Counter* c = r.counter("x_total");
  EXPECT_EQ(c, r.counter("x_total"));  // pointer-stable, same instrument
  for (int shard = 0; shard < 20; ++shard) c->add(3, shard);
  EXPECT_EQ(c->total(), 60u);
  r.gauge("g")->set(-7);
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counter_or("x_total"), 60u);
  EXPECT_EQ(s.find_gauge("g")->value, -7);
  EXPECT_EQ(s.counter_or("absent", 17u), 17u);
}

TEST(Registry, SnapshotIsNameSorted) {
  Registry r;
  r.counter("zeta_total");
  r.counter("alpha_total");
  r.histogram("mid");
  const Snapshot s = r.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "alpha_total");
  EXPECT_EQ(s.counters[1].name, "zeta_total");
}

TEST(Snapshot, DeltaSubtractsCountersAndHistograms) {
  Snapshot before, after;
  before.add_counter("c", 5);
  after.add_counter("c", 12);
  after.add_counter("only_after", 1);
  before.set_gauge("g", 2);
  after.set_gauge("g", 5);
  Histogram h1, h2;
  h1.record(10);
  h2.record(20);
  before.merge_histogram("h", h1);
  after.merge_histogram("h", h1);
  after.merge_histogram("h", h2);
  EXPECT_EQ(after.find_histogram("h")->hist.count(), 2u);

  const Snapshot d = after.delta_since(before);
  EXPECT_EQ(d.counter_or("c"), 7u);
  EXPECT_EQ(d.counter_or("only_after"), 1u);
  EXPECT_EQ(d.find_histogram("h")->hist.count(), 1u);
  EXPECT_EQ(d.find_gauge("g")->value, 5);  // instantaneous: passes through

  Snapshot backwards;
  backwards.add_counter("c", 1);
  EXPECT_THROW(backwards.delta_since(after), Error);
}

TEST(Registry, ConcurrentRecordingStress) {
  // The lock-free hot path under real contention: 8 threads hammer one
  // counter and one histogram through wrapped shard indices while a reader
  // snapshots concurrently. TSan (CI runs this suite under it) audits the
  // relaxed-atomic discipline; the final totals check exactness.
  Registry r;
  Counter* c = r.counter("stress_total");
  ShardedHistogram* h = r.histogram("stress_hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->inc(t);
        h->record(static_cast<std::uint64_t>(i), t);
      }
    });
  }
  for (int i = 0; i < 50; ++i) (void)r.snapshot();  // racing reader
  for (std::thread& w : workers) w.join();
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counter_or("stress_total"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const Histogram merged = s.find_histogram("stress_hist")->hist;
  EXPECT_EQ(merged.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(merged.min(), 0u);
  EXPECT_EQ(merged.max(), static_cast<std::uint64_t>(kPerThread - 1));
}

TEST(Expose, JsonFragmentsAreFlatAndSorted) {
  // The JSON renderers preserve snapshot order; Registry::snapshot() is the
  // producer and is name-sorted (see SnapshotIsNameSorted above).
  Snapshot s;
  s.add_counter("a_total", 1);
  s.add_counter("b_total", 2);
  s.set_gauge("g", -4);
  Histogram h;
  h.record(5);
  s.merge_histogram("lat_us", h);
  EXPECT_EQ(counters_json(s), "{\"a_total\": 1, \"b_total\": 2}");
  EXPECT_EQ(gauges_json(s), "{\"g\": -4}");
  EXPECT_EQ(histograms_json(s),
            "{\"lat_us\": \"" + h.encode() + "\"}");
}

TEST(Expose, PrometheusShape) {
  Snapshot s;
  s.add_counter("req_total", 3);
  s.set_gauge("depth", 1);
  Histogram h;
  h.record(10);
  h.record(100);
  s.merge_histogram("lat", h);
  const std::string text = to_prometheus(s);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 110"), std::string::npos);
  EXPECT_NE(text.find("lat_count 2"), std::string::npos);
  // Cumulative buckets: the le bound covering 10 counts 1, and every
  // rendered count is monotone in le (spot check via the first bucket).
  EXPECT_NE(text.find("lat_bucket{le="), std::string::npos);
}

}  // namespace
}  // namespace dtop::obs
