// The `--profile` report over the built-in instrumentation counters
// (obs::ctr) and phase spans.
#pragma once

#include <string>

namespace ais::obs {

/// The full `aisc --profile` report: a per-phase time table (phase, calls,
/// total ms, mean ms) followed by every registered counter.  Pipeline
/// counters that a reader will look for first are pre-registered at zero
/// (register_builtin_counters) so the table is complete even for compiles
/// that never hit a code path.
std::string profile_report();

/// Registers every built-in pipeline counter at its current value
/// (creating missing ones at zero); a no-op while telemetry is disabled.
void register_builtin_counters();

}  // namespace ais::obs
