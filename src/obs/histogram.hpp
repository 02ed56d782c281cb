// Log-linear-bucket histogram: the repo's one approximate-quantile type,
// shared by the metrics registry (sharded atomic recording) and the loadgen
// latency report.
//
// Bucket layout (HdrHistogram-shaped): values below 2^(kSubBits+1) land in
// exact unit-width buckets; above that, each power-of-two octave is split
// into 2^kSubBits linear sub-buckets, so the relative width of any bucket
// is at most 2^-kSubBits (3.125% at kSubBits = 5) and a quantile read off
// the bucket midpoints carries at most half that relative error — well
// inside the tolerance every wall-clock consumer gates at. Values are
// clamped to [0, 2^32): recorded units are microseconds or nanoseconds of
// single operations, so the cap (~71 min in µs) is unreachable in practice
// and keeps the dense bucket array at 896 words.
//
// Everything here is a plain value type: record into it single-threaded,
// merge() registry shards or worker-local recordings together, subtract() a
// baseline for a delta window, encode()/decode() for the wire. The
// concurrent recording form lives in registry.hpp (ShardedHistogram), which
// merges into this type at snapshot time.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace dtop::obs {

class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kMaxValue = std::uint64_t{1} << 32;
  // Buckets: 2^(kSubBits+1) exact ones (block 0 spans two unit-width
  // octaves), then one block of 2^kSubBits per remaining octave up to 2^32.
  static constexpr std::size_t kBuckets =
      std::size_t{32 - kSubBits + 1} << kSubBits;  // 896

  // Index of the bucket holding `v` (clamped to kMaxValue - 1). Inline:
  // this is the one piece of histogram math on recording hot paths.
  static std::size_t bucket_index(std::uint64_t v) {
    if (v >= kMaxValue) v = kMaxValue - 1;
    const int msb = 63 - std::countl_zero(v | 1);
    if (msb < kSubBits) return static_cast<std::size_t>(v);
    const int shift = msb - kSubBits;
    return (static_cast<std::size_t>(shift + 1) << kSubBits) +
           static_cast<std::size_t>((v >> shift) & ((1u << kSubBits) - 1));
  }
  // Lowest value mapping to bucket `i`.
  static std::uint64_t bucket_floor(std::size_t i) {
    const std::size_t block = i >> kSubBits;
    const std::uint64_t sub = i & ((1u << kSubBits) - 1);
    if (block == 0) return sub;
    return ((std::uint64_t{1} << kSubBits) + sub) << (block - 1);
  }
  // Number of distinct values mapping to bucket `i`.
  static std::uint64_t bucket_width(std::size_t i) {
    const std::size_t block = i >> kSubBits;
    return block == 0 ? 1 : std::uint64_t{1} << (block - 1);
  }

  void record(std::uint64_t v);
  void record_n(std::uint64_t v, std::uint64_t n);

  // Bucket-wise sum; min/max/count/sum fold in exactly as if the other
  // histogram's samples had been recorded here (the shard-merge law the
  // tests pin: merge of shards == single-shard recording).
  void merge(const Histogram& other);

  // Bucket-wise difference for delta snapshots. `prev` must be an earlier
  // snapshot of the same histogram (every bucket monotone); min/max are
  // re-derived from the surviving buckets' bounds since extrema cannot be
  // subtracted.
  void subtract(const Histogram& prev);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  // Smallest/largest recorded value (exact, tracked beside the buckets).
  // 0 when empty.
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return count_ ? max_ : 0; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  // Quantile estimate, p in [0, 100]. Same rank convention as
  // Samples::percentile (rank = p/100 * (count-1)), with linear
  // interpolation inside the landing bucket. 0 when empty.
  double quantile(double p) const;

  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

  // Compact wire form: "count|sum|min|max|i:c,i:c,..." (non-zero buckets
  // only, ascending). Decodable by decode(); contains no JSON
  // metacharacters, so it travels as a plain JSON string value.
  std::string encode() const;
  static Histogram decode(const std::string& text);

  bool operator==(const Histogram& other) const;

 private:
  // The registry's concurrent form folds its shard atomics (exact count,
  // sum, extrema) straight into these fields at snapshot time.
  friend class ShardedHistogram;

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace dtop::obs
