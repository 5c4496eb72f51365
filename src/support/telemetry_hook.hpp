// Layering escape hatch for support-level telemetry.
//
// src/obs depends on src/support (mutex, stopwatch), so support-level
// primitives like ThreadPool cannot include obs headers without a cycle.
// Instead they publish latency samples through this indirection: src/obs
// installs a sink at static-initialization time (only in AIS_OBS builds),
// and a null sink means telemetry is compiled out or not yet linked.  The
// disabled cost at a call site is one relaxed atomic load of the sink
// pointer; the runtime-off cost adds the sink's own enabled() gate (one
// more relaxed load).
//
// The sample names live here, next to the emitting code; obs files each
// under the built-in histogram id of the same name (obs::hist in
// src/obs/obs.hpp).  The "time." prefix marks wall-clock distributions:
// they describe the run, not the schedule, so their ids never replay
// through the schedule cache.
#pragma once

#include <atomic>
#include <cstdint>

namespace ais {

struct TelemetrySink {
  /// Runtime gate, e.g. obs::enabled.  Never null in an installed sink.
  bool (*enabled)();
  /// Value-distribution sample, e.g. obs::record_value.
  void (*value)(const char* name, std::uint64_t v);
};

/// Installs (or clears, with nullptr) the process-wide sink.  The sink must
/// outlive every call site — obs installs a static.
void set_telemetry_sink(const TelemetrySink* sink);

/// The installed sink, or nullptr.  One relaxed load.
const TelemetrySink* telemetry_sink();

/// ThreadPool task latency distributions, in microseconds.
inline constexpr const char* kPoolQueueWaitUs = "time.pool_queue_wait_us";
inline constexpr const char* kPoolRunUs = "time.pool_run_us";

}  // namespace ais
