// The process-wide metrics registry: named counters, gauges, and
// histograms with lock-free sharded recording.
//
// Hot-path contract: a handle (Counter*/Gauge*/ShardedHistogram*) is
// obtained once (registration takes a mutex; it is cold) and recorded into
// with a shard index — the caller's worker index, which every instrumented
// layer already has (engine pool worker, service request worker). Each
// shard's slots live on their own cache lines, writes are relaxed
// fetch_adds, and nothing allocates: two workers recording the same metric
// never touch the same cache line, so instrumentation cannot perturb the
// timing-independent determinism the engine and service guarantee — the
// relaxed counters are write-only from the hot path and only ever *read*
// at snapshot time, where shards are summed into plain values.
//
// Snapshots are plain data (obs/histogram.hpp values + name/value pairs),
// subtractable for delta windows. Exposition lives in obs/expose.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace dtop::obs {

// Shards per instrument. A power of two so the shard pick is a mask, and
// comfortably above the worker counts the repo's pools run with; worker
// indices past it wrap, which only costs cache-line sharing, never
// correctness.
inline constexpr int kShards = 16;

class Counter {
 public:
  void add(std::uint64_t n, int shard = 0) {
    shards_[shard & (kShards - 1)].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc(int shard = 0) { add(1, shard); }

  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const Slot& s : shards_) t += s.v.load(std::memory_order_relaxed);
    return t;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  Slot shards_[kShards];
};

// A settable instantaneous value (queue depth, cache size). Gauges are
// sampled, not accumulated, so one slot suffices; set() is rare enough
// (snapshot-time or per-request) that sharing is a non-issue.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// The concurrent recording form of obs::Histogram: per-shard atomic bucket
// arrays written with relaxed fetch_adds, merged into a plain Histogram at
// snapshot time. Each shard struct is cache-line aligned and written by
// one worker, so recording never contends.
class ShardedHistogram {
 public:
  void record(std::uint64_t v, int shard = 0) {
    Shard& s = shards_[shard & (kShards - 1)];
    s.buckets[Histogram::bucket_index(v)].fetch_add(
        1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    // Relaxed CAS maxima: single-writer per shard in practice, but kept
    // race-safe so wrapped shard indices stay merely slow, never wrong.
    std::uint64_t cur = s.min.load(std::memory_order_relaxed);
    while (v < cur &&
           !s.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = s.max.load(std::memory_order_relaxed);
    while (v > cur &&
           !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  // Sums every shard into a plain mergeable histogram.
  Histogram merged() const;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::atomic<std::uint64_t> buckets[Histogram::kBuckets] = {};
  };
  Shard shards_[kShards];
};

// One merged view of a registry: counters and
// gauges as name/value pairs, histograms as full obs::Histogram values.
// Entries stay sorted by name (the registry's map order), so two snapshots
// of the same schema align index-wise and renderings are deterministic.
struct Snapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    Histogram hist;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  void add_counter(const std::string& name, std::uint64_t value);
  void set_gauge(const std::string& name, std::int64_t value);
  void merge_histogram(const std::string& name, const Histogram& h);

  const CounterValue* find_counter(const std::string& name) const;
  const GaugeValue* find_gauge(const std::string& name) const;
  const HistogramValue* find_histogram(const std::string& name) const;
  std::uint64_t counter_or(const std::string& name,
                           std::uint64_t fallback = 0) const;

  // The delta window [prev, this]: counters and histograms subtract
  // (requiring monotonicity), gauges keep their current values. Names in
  // `prev` missing here are ignored; names new here pass through whole.
  Snapshot delta_since(const Snapshot& prev) const;
};

// Instrument namespace/owner. Registration (the name -> instrument map) is
// mutex-guarded and expected at setup time; handles stay valid for the
// registry's lifetime (instruments are pointer-stable).
class Registry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  ShardedHistogram* histogram(const std::string& name);

  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ShardedHistogram>> histograms_;
};

}  // namespace dtop::obs
