#include "obs/registry.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dtop::obs {

Histogram ShardedHistogram::merged() const {
  Histogram out;
  for (const Shard& s : shards_) {
    // Read the buckets before the aggregate fields: recording bumps the
    // bucket first, so a racing snapshot can at worst see a bucket
    // increment whose count it also sees — never a count whose sample it
    // missed — keeping count >= sum-of-buckets violations impossible in
    // the direction decode() checks. All loads relaxed: a sample landing
    // exactly at the snapshot cut lands on one side or the other, which
    // is the same guarantee any scrape of live counters has.
    std::uint64_t bucket_total = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t c = s.buckets[i].load(std::memory_order_relaxed);
      out.buckets_[i] += c;
      bucket_total += c;
    }
    if (bucket_total == 0) continue;
    out.count_ += bucket_total;
    out.sum_ += s.sum.load(std::memory_order_relaxed);
    out.min_ = std::min(out.min_, s.min.load(std::memory_order_relaxed));
    out.max_ = std::max(out.max_, s.max.load(std::memory_order_relaxed));
  }
  return out;
}

namespace {

template <typename Vec>
auto* find_by_name(Vec& vec, const std::string& name) {
  for (auto& v : vec) {
    if (v.name == name) return &v;
  }
  return static_cast<decltype(&vec.front())>(nullptr);
}

}  // namespace

void Snapshot::add_counter(const std::string& name, std::uint64_t value) {
  if (auto* c = find_by_name(counters, name)) {
    c->value += value;
    return;
  }
  counters.push_back({name, value});
}

void Snapshot::set_gauge(const std::string& name, std::int64_t value) {
  if (auto* g = find_by_name(gauges, name)) {
    g->value = value;
    return;
  }
  gauges.push_back({name, value});
}

void Snapshot::merge_histogram(const std::string& name, const Histogram& h) {
  if (auto* e = find_by_name(histograms, name)) {
    e->hist.merge(h);
    return;
  }
  histograms.push_back({name, h});
}

const Snapshot::CounterValue* Snapshot::find_counter(
    const std::string& name) const {
  return find_by_name(counters, name);
}

const Snapshot::GaugeValue* Snapshot::find_gauge(
    const std::string& name) const {
  return find_by_name(gauges, name);
}

const Snapshot::HistogramValue* Snapshot::find_histogram(
    const std::string& name) const {
  return find_by_name(histograms, name);
}

std::uint64_t Snapshot::counter_or(const std::string& name,
                                   std::uint64_t fallback) const {
  const CounterValue* c = find_counter(name);
  return c ? c->value : fallback;
}

Snapshot Snapshot::delta_since(const Snapshot& prev) const {
  Snapshot out;
  for (const CounterValue& c : counters) {
    const CounterValue* p = prev.find_counter(c.name);
    const std::uint64_t before = p ? p->value : 0;
    DTOP_REQUIRE(c.value >= before,
                 "Snapshot::delta_since: counter '" + c.name +
                     "' went backwards");
    out.counters.push_back({c.name, c.value - before});
  }
  out.gauges = gauges;  // instantaneous: the current reading is the window's
  for (const HistogramValue& h : histograms) {
    HistogramValue d{h.name, h.hist};
    if (const HistogramValue* p = prev.find_histogram(h.name)) {
      d.hist.subtract(p->hist);
    }
    out.histograms.push_back(std::move(d));
  }
  return out;
}

Counter* Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

ShardedHistogram* Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<ShardedHistogram>();
  return slot.get();
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, c->total()});
  }
  for (const auto& [name, g] : gauges_) s.gauges.push_back({name, g->value()});
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back({name, h->merged()});
  }
  return s;
}

}  // namespace dtop::obs
