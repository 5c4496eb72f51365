// Labeled metric registry: counters, gauges and histograms keyed by a
// metric name plus at most two label pairs, with Prometheus text and JSON
// snapshot exposition — the payload the future `aisd /stats` endpoint will
// serve, written today by `aisc --metrics-out` and `aisprof --metrics`.
//
// Handle discipline
// -----------------
// counter()/gauge()/histogram() return stable pointers: a series, once
// registered, is never destroyed or moved for the life of the process.
// reset_values() zeroes every value but keeps the registrations, so cached
// handles (thread-local memos, the schedule cache's per-shard arrays, the
// flight recorder's crash-path walk) never dangle.  Registration takes the
// registry mutex; steady-state updates are relaxed atomics on the handle —
// callers cache the pointer once and never touch the lock again.
//
// Naming
// ------
// Registry names are free-form (the built-in obs counters, histograms and
// phase spans of obs/obs.hpp register dotted names like "cache.hits");
// the Prometheus writer sanitizes on the way out
// (prometheus_name()): characters outside [a-zA-Z0-9_:] become '_', and a
// leading digit gets an "ais_" prefix.  Histogram exposition follows the
// Prometheus convention: cumulative `<name>_bucket{le="..."}` rows up to
// the last occupied bound plus `+Inf`, then `<name>_sum` / `<name>_count`.
// scripts/check_metrics.py validates the full format in CI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace ais::obs {

/// One label pair; a series carries at most two, stored sorted by key.
using MetricLabel = std::pair<std::string_view, std::string_view>;

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset_value() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Monotone raise: records `v` only if it exceeds the current value.  For
  /// high-water marks (peak RSS, arena high water) updated from racing
  /// threads — the CAS loop never lowers the gauge.
  void set_max(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset_value() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One series in a registry snapshot (tests and writers).
struct MetricSeries {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  // sorted by key
  MetricType type = MetricType::kCounter;
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  HistogramSnapshot hist;
};

class MetricRegistry {
 public:
  MetricRegistry();
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry every exposition path reads.
  static MetricRegistry& global();

  /// The global registry iff global() has already been called, else nullptr.
  /// Never allocates — the crash handler's entry point.
  static MetricRegistry* global_if_created();

  /// Registers (or finds) a series; aborts on a type mismatch with an
  /// existing registration.  At most two labels; pairs are sorted by key,
  /// so {a,b} and {b,a} name the same series.
  Counter* counter(std::string_view name);
  Counter* counter(std::string_view name, MetricLabel l0);
  Counter* counter(std::string_view name, MetricLabel l0, MetricLabel l1);
  Gauge* gauge(std::string_view name);
  Gauge* gauge(std::string_view name, MetricLabel l0);
  Gauge* gauge(std::string_view name, MetricLabel l0, MetricLabel l1);
  Histogram* histogram(std::string_view name);
  Histogram* histogram(std::string_view name, MetricLabel l0);
  Histogram* histogram(std::string_view name, MetricLabel l0, MetricLabel l1);

  /// Every registered series, sorted by (name, labels).
  std::vector<MetricSeries> snapshot() const;

  /// Prometheus text exposition of every series, one family per sanitized
  /// name, in name order.
  void write_prometheus(std::ostream& os) const;
  std::string prometheus_text() const;

  /// JSON snapshot — the `aisd /stats` payload: {"schema": 2, "metrics":
  /// [series...]} with per-bucket (non-cumulative) histogram counts and
  /// p50/p90/p99/max.
  void write_json(std::ostream& os) const;
  std::string json_text() const;

  /// ASCII report: one block per histogram series with per-bucket bars
  /// (`aisprof --hist`), plus a counter/gauge table.
  std::string ascii_report() const;

  /// Zeroes every value; registrations and handles survive.
  void reset_values();

  /// Crash-path walk: visits every series without allocating iff the
  /// registry mutex is free (try_lock); returns false when contended.
  /// `fn` gets the series name, a "k=v,k=v" label summary (static buffer,
  /// valid only during the call) and the live series pointers.
  bool try_visit(void (*fn)(void* ctx, const char* name, const char* labels,
                            MetricType type, const void* series),
                 void* ctx) const;

 private:
  struct Impl;
  Impl* impl_;  // leaked via global(); plain pointer keeps teardown trivial
};

/// The Prometheus-sanitized form of a registry name: invalid characters
/// become '_', and a leading digit gets an "ais_" prefix.
std::string prometheus_name(std::string_view name);

/// True when `s` is a valid Prometheus label value needing no escaping
/// beyond the writer's \\ \" \n handling (always true for our values).
std::string prometheus_label_escape(std::string_view value);

}  // namespace ais::obs
