#include "obs/histogram.hpp"

#include <algorithm>

namespace ais::obs {

std::size_t histogram_bucket_index_search(std::uint64_t value) {
  const auto it = std::lower_bound(kHistogramBucketBounds.begin(),
                                   kHistogramBucketBounds.end(), value);
  return static_cast<std::size_t>(it - kHistogramBucketBounds.begin());
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  return quantile_bounds(q).hi;
}

HistogramSnapshot::Bounds HistogramSnapshot::quantile_bounds(double q) const {
  Bounds b;
  if (count == 0) return b;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target value, 1-based: ceil(q * count), at least 1.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             q * static_cast<double>(count) + (1.0 - 1e-9)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      b.lo = i == 0 ? 0 : kHistogramBucketBounds[i - 1];
      b.hi = std::min(kHistogramBucketBounds[i], max);
      return b;
    }
  }
  // counts/count raced in a concurrent snapshot; fall back to the max.
  b.lo = 0;
  b.hi = max;
  return b;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
    s.count += s.counts[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset_values() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace ais::obs
