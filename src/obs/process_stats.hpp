// Process-level resource gauges: peak RSS and arena high-water marks.
//
// Exposition paths (aisc --metrics-out, aisprof --metrics) call
// record_process_gauges() just before writing so `mem_peak_rss_bytes`
// reflects the whole run; allocation sites raise
// `arena_high_water{arena=...}` as they go.  All gauges are monotone
// (Gauge::set_max), so concurrent recorders can never lower a peak.
#pragma once

#include <cstdint>
#include <string_view>

namespace ais::obs {

class Gauge;

/// Peak resident set size of this process in bytes (getrusage ru_maxrss);
/// 0 where the platform cannot report it.
std::int64_t peak_rss_bytes();

/// Publishes `mem_peak_rss_bytes` from getrusage.  Call just before
/// exposition; safe to call repeatedly (monotone).
void record_process_gauges();

/// Raises `arena_high_water{arena=<name>}` to `bytes` if larger.  `name`
/// must outlive the process (string literals only) — the registry keeps the
/// view.
void record_arena_high_water(std::string_view name, std::int64_t bytes);

/// The `arena_high_water{arena=<name>}` gauge itself, registered on first
/// call.  Hot allocation sites cache it once (registry handles never
/// dangle) instead of paying record_arena_high_water's locked lookup on
/// every call.
Gauge* arena_high_water_gauge(std::string_view name);

}  // namespace ais::obs
