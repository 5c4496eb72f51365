// Shared definitions of the end-to-end benchmark: workloads, timing
// helpers and the metric sink.  See perfbench/README.md for what each
// workload loads and bypasses.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ir/instruction.hpp"
#include "server/compile_service.hpp"
#include "server/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// One named workload: its distinct inputs (IR text, generated from the
/// seed) and the options every request carries.
struct Workload {
  std::string name;
  ais::server::CompileOptions options;
  /// Requests go through an in-process aisd (Server + Client), which keeps
  /// its schedule cache warm.  Otherwise they call server::compile_ir
  /// directly with the cache cleared before every compile, as a fresh
  /// `aisc` process would start.
  bool daemon = false;
  std::vector<std::string> bodies;
  /// In-process set-up compiles these once, untimed: inputs of the same
  /// shape generated from a fixed seed, so set-up does the same work
  /// whichever inputs the run's seed draws.
  std::vector<std::string> warmup;
};

/// What a timed phase saw: one latency sample per request, and per input
/// its fastest request, its first reply (the one the correctness pass
/// checks), how often it was requested and how many of those requests
/// failed (transport error, ERR reply, or a reply differing from the
/// input's first one).
struct Timed {
  std::vector<double> latency_us;
  double elapsed_s = 0;
  std::size_t rounds = 0;
  std::vector<double> best_us;
  std::vector<ais::server::Response> first;
  std::vector<std::uint64_t> requests;
  std::vector<std::uint64_t> failures;
  std::vector<std::string> why;  // first failure per input

  explicit Timed(std::size_t inputs = 0)
      : best_us(inputs, std::numeric_limits<double>::infinity()),
        first(inputs),
        requests(inputs),
        failures(inputs),
        why(inputs) {}

  /// Books one reply of input `i`, taken in round `round` after
  /// `latency_us`.  Only one thread books a given input in a round.
  void book(std::size_t i, std::size_t round, double latency_us,
            ais::server::Response&& reply, const std::string& transport_error);
  std::uint64_t total_requests() const;
};

bool is_workload(const std::string& name);

/// Generates `name`'s inputs from `seed` through src/workloads.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Appends `blocks` in the emitter's text form (`block L:` then one
/// indented instruction per line), the form compile_ir replies in.
void render_blocks(const std::vector<ais::BasicBlock>& blocks,
                   std::string* out);

/// FNV-1a digest of the inputs and request options; repeats exactly for a
/// given workload and seed.
std::uint64_t input_digest(const Workload& w);

/// The COMPILE request `w` sends for input `i`.
ais::server::Request compile_request(const Workload& w, std::size_t i);

/// q-quantile (0..1) by linear interpolation; `v` is sorted in place.
double quantile(std::vector<double>& v, double q);

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// Ordered (name, value, unit) metrics for the result line.
struct Metrics {
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries;

  void add(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Prints the one-line JSON result (must be the last stdout line).
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics);

}  // namespace perfbench
