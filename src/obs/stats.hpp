// The `--profile` report over the built-in instrumentation counters
// (obs::ctr) and phase spans.
#pragma once

#include <string>

namespace ais::obs {

/// The full `aisc --profile` report: a per-phase time table (phase, calls,
/// total ms, mean ms) followed by every counter of counters_snapshot() —
/// each built-in id, touched or not, so the table is complete even for
/// compiles that never hit a code path — and the recorded distributions.
std::string profile_report();

}  // namespace ais::obs
