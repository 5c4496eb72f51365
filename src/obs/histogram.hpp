// Mergeable log-bucketed latency histograms.
//
// A Histogram is a fixed array of relaxed atomics — record() is lock-free
// and wait-free apart from the max CAS loop, safe from any thread, and
// costs a ~7-step binary search plus two relaxed atomic RMWs and a max
// check.  Bucket upper bounds grow by roughly x1.2 per bucket (u[i+1] =
// u[i] + max(1, u[i]/5)), which keeps the relative quantile error under
// ~20% across the full range while the low buckets stay exact (width 1 up
// to 10).  With
// 128 buckets the range runs from 1 to ~2.9e9 before the +infinity
// catch-all — recording microseconds, that is sub-µs to ~48 minutes.
//
// Snapshots are plain structs: elementwise-addable (merge()), comparable,
// and carrying exact count/sum/max alongside the buckets.  quantile(q)
// returns the upper bound of the bucket holding the q-th value, clamped to
// the exact tracked maximum; quantile_bounds(q) exposes the full [lo, hi]
// containment interval for oracle tests.
//
// Histograms register into obs::MetricRegistry (metrics.hpp) for
// exposition; this header is dependency-free so support- and core-level
// code can hold Histogram* handles without pulling in the registry.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ais::obs {

inline constexpr std::size_t kHistogramBuckets = 128;

namespace detail {
constexpr std::array<std::uint64_t, kHistogramBuckets> make_bucket_bounds() {
  std::array<std::uint64_t, kHistogramBuckets> bounds{};
  std::uint64_t u = 1;
  for (std::size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    bounds[i] = u;
    const std::uint64_t step = u / 5;
    u += step == 0 ? 1 : step;
  }
  bounds[kHistogramBuckets - 1] = ~0ULL;  // +infinity catch-all
  return bounds;
}
}  // namespace detail

/// Bucket i covers (bound[i-1], bound[i]]; bucket 0 covers [0, bound[0]].
inline constexpr std::array<std::uint64_t, kHistogramBuckets>
    kHistogramBucketBounds = detail::make_bucket_bounds();

namespace detail {
/// Bucket index of every value below kSmallValues: most recorded values
/// (span and compile microseconds, chop prefix lengths) are small, and a
/// table read is cheaper than the binary search.
inline constexpr std::size_t kSmallValues = 64;
constexpr std::array<std::uint8_t, kSmallValues> make_small_index() {
  std::array<std::uint8_t, kSmallValues> index{};
  std::size_t b = 0;
  for (std::size_t v = 0; v < kSmallValues; ++v) {
    while (kHistogramBucketBounds[b] < v) ++b;
    index[v] = static_cast<std::uint8_t>(b);
  }
  return index;
}
inline constexpr std::array<std::uint8_t, kSmallValues> kSmallBucketIndex =
    make_small_index();
}  // namespace detail

/// Index of the bucket covering larger values (binary search).
std::size_t histogram_bucket_index_search(std::uint64_t value);

/// Index of the bucket covering `value`.
inline std::size_t histogram_bucket_index(std::uint64_t value) {
  return value < detail::kSmallValues ? detail::kSmallBucketIndex[value]
                                      : histogram_bucket_index_search(value);
}

struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> counts{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  /// Elementwise add; max-of-max.  Associative and commutative, so shard-
  /// or thread-partial snapshots merge in any grouping.
  void merge(const HistogramSnapshot& other);

  /// Upper bound of the bucket holding the ceil(q * count)-th smallest
  /// recorded value, clamped to the exact max; 0 when empty.  q in [0, 1].
  std::uint64_t quantile(double q) const;

  struct Bounds {
    std::uint64_t lo = 0;  // exclusive lower bucket bound (0 for bucket 0)
    std::uint64_t hi = 0;  // inclusive upper bound, clamped to max
  };
  /// The containment interval for the q-th value: lo < value <= hi (lo <=
  /// value for bucket 0).  The sorted-vector oracle test asserts this.
  Bounds quantile_bounds(double q) const;

  bool operator==(const HistogramSnapshot&) const = default;
};

class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Lock-free; relaxed ordering throughout.  Concurrent record()s never
  /// lose counts (fetch_add) — only snapshot() taken mid-storm may see the
  /// sum momentarily out of step with the buckets, which merge-based readers
  /// tolerate.  The total count is the buckets' sum, so it needs no counter
  /// of its own.
  void record(std::uint64_t value) {
    counts_[histogram_bucket_index(value)].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value && !max_.compare_exchange_weak(
                               prev, value, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const;

  /// Zeroes the values; the histogram object (and any cached pointer to
  /// it) stays valid.  Not linearizable against concurrent record()s.
  void reset_values();

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace ais::obs
