// Pipeline telemetry: RAII phase spans, monotonic counters, value
// distributions and a Chrome-trace-event sink, instrumenting core/, sim/,
// driver/ and verify/.  Every counter, distribution and phase total lives
// in the labeled metric registry (obs/metrics.hpp — Prometheus/JSON
// exposition); spans also feed the crash flight recorder
// (obs/flight_recorder.hpp) while it is enabled.
//
// Built-in counters (namespace ctr) and histograms (namespace hist) are
// dense ids: small integers fixed at compile time that index one table of
// permanent registry handles, registered all at once by the first use of
// telemetry.  Phase spans record microseconds into the histogram
// phase_us{phase=<name>}; each AIS_OBS_SPAN site holds its histogram's
// handle in a function-local static.
//
// Two gates, so hot paths stay as fast as the hardware allows:
//  * compile time — AIS_OBS_ENABLED (CMake option AIS_OBS, default ON).
//    With it 0, AIS_OBS_SPAN / AIS_OBS_COUNT* expand to nothing in that
//    translation unit; the library API below still exists so mixed builds
//    link.
//  * run time — enabled() / trace_enabled(), off by default, flipped only
//    by the AIS_TRACE / AIS_TRACE_JSON environment variables (init_from_env)
//    or by CLI flags (aisc --profile / --trace-json, aisprof).  A disabled
//    hook costs one relaxed atomic load.
//
// enabled() turns on counters and per-phase time aggregation (the
// `aisc --profile` table); trace_enabled() additionally records every span
// as a trace event for write_chrome_trace(), whose output loads in
// Perfetto / chrome://tracing.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef AIS_OBS_ENABLED
#define AIS_OBS_ENABLED 1
#endif

namespace ais::obs {

class Histogram;

/// True when this translation unit was compiled with telemetry hooks.
inline constexpr bool kHooksCompiledIn = AIS_OBS_ENABLED != 0;

// --- runtime gates ------------------------------------------------------

bool enabled();
bool trace_enabled();
/// Turning telemetry on registers every built-in id (a no-op after the
/// first time), so reports list untouched counters at zero.
void set_enabled(bool on);
/// Turning tracing on implies enabled(); turning it off leaves enabled()
/// untouched.
void set_trace_enabled(bool on);

/// Reads AIS_TRACE (any value but "" / "0" enables counters+phases; the
/// value "trace" also enables event recording) and AIS_TRACE_JSON (a path;
/// implies full tracing — tools write the file on exit, see
/// env_trace_path()).  Also forwards to flight_init_from_env()
/// (AIS_FLIGHT_RECORDER / AIS_FLIGHT_RING / AIS_FLIGHT_DIR; see
/// obs/flight_recorder.hpp).
void init_from_env();

/// The AIS_TRACE_JSON path seen by init_from_env(); empty when unset.
const std::string& env_trace_path();

// --- built-in ids ---------------------------------------------------------

/// One row of a built-in id table: the registry name, and whether the
/// schedule cache replays the id.  Replaying ids describe the schedule and
/// are recorded into cache values, so a hit reports what a fresh solve
/// would; the others (cache traffic, wall-clock times) describe the run,
/// and replaying them would double-count or smear timings.
struct MetricInfo {
  std::string_view name;
  bool replays;
};

/// Built-in counters.  Enumerators are declared in name order, so walking
/// ids walks the names sorted (the order of `--profile` and of a
/// `COMPILE profile=1` reply).  A new counter is one enumerator here plus
/// one row of kInfo; docs/OBSERVABILITY.md has the glossary.
namespace ctr {
enum Id : std::uint8_t {
  kCacheBytes,
  kCacheDiskHits,
  /// Disk writes absorbed by the coalescing flusher: the same key was
  /// queued again before its first write hit the disk.
  kCacheDiskWriteCoalesced,
  kCacheDiskWrites,
  kCacheEvictions,
  kCacheHits,
  kCacheMisses,
  kChopCalls,
  kChopPoints,
  kLookaheadBlocks,
  kWindowSpanOverW,
  /// The §5.2.3 loop search (core/loop_single.cpp): candidates enumerated,
  /// and the distinct surrogates among them that were actually scheduled
  /// (pivots with the same surrogate share one Rank + Delay_Idle_Slots run).
  kLoopCandidates,
  kLoopSurrogates,
  kMergeCalls,
  kMergeFullRelaxRounds,
  kMergeGallopProbes,
  kMergeRelaxRounds,
  kIdleMoveAttempts,
  kDeadlinesTightened,
  kIdleSlotsMoved,
  /// Attempts decided "not moved" from the schedule and deadlines alone,
  /// before any rank work, one counter per guard (see core/move_idle.cpp):
  /// no other node before the slot may refill the tail position, no tail
  /// node precedes it, or it lies in the prefix of idle slots that issue
  /// width forces into every cycle.
  kIdleMovesPrunedNoRefill,
  kIdleMovesPrunedNoTail,
  kIdleMovesPrunedSaturated,
  kRankIncrementalPasses,
  kRankInfeasible,
  kRankNodesRanked,
  kRankNodesReranked,
  kRankRuns,
  /// Event-driven simulator internals: kSimEvents counts the event-loop
  /// iterations (cycles the engine actually examined); kSimCyclesJumped
  /// counts the idle cycles skipped by next-event jumps.  Their sum equals
  /// kSimCycles.
  kSimCycles,
  kSimCyclesJumped,
  kSimEvents,
  /// simulate_loop runs (sim/loop_sim.cpp): one per distinct candidate
  /// order the §5.2.3 search scores, or one per multi-block loop compile.
  /// Kept apart from kSimRuns, whose cycles the event engine accounts.
  kSimLoopRuns,
  kSimRuns,
  kSimStallLatency,
  kSimStallWindow,
  kCount
};

inline constexpr std::array<MetricInfo, kCount> kInfo = {{
    {"cache.bytes", false},
    {"cache.disk_hits", false},
    {"cache.disk_write_coalesced", false},
    {"cache.disk_writes", false},
    {"cache.evictions", false},
    {"cache.hits", false},
    {"cache.misses", false},
    {"chop.calls", true},
    {"chop.points", true},
    {"lookahead.blocks", true},
    {"lookahead.window_span_gt_w", true},
    {"loop.candidates", true},
    {"loop.surrogates", true},
    {"merge.calls", true},
    {"merge.full_relax_rounds", true},
    {"merge.gallop_probes", true},
    {"merge.relax_rounds", true},
    {"move_idle.attempts", true},
    {"move_idle.deadlines_tightened", true},
    {"move_idle.moved", true},
    {"move_idle.pruned_no_refill", true},
    {"move_idle.pruned_no_tail", true},
    {"move_idle.pruned_saturated", true},
    {"rank.incremental_passes", true},
    {"rank.infeasible", true},
    {"rank.nodes_ranked", true},
    {"rank.nodes_reranked", true},
    {"rank.runs", true},
    {"sim.cycles", true},
    {"sim.cycles_jumped", true},
    {"sim.events", true},
    {"sim.loop_runs", true},
    {"sim.runs", true},
    {"sim.stall.latency", true},
    {"sim.stall.window", true},
}};

/// Prefix of the per-diagnostic-code verifier counters
/// ("verify.diag.<code>").  The codes are open-ended, so these counters
/// have no id: each is a registry counter of exactly that name, bumped by
/// count_named().
inline constexpr std::string_view kVerifyDiagPrefix = "verify.diag.";
}  // namespace ctr

/// Built-in histograms, same scheme.  Wall-clock distributions carry the
/// "time." prefix and do not replay; the deterministic shape distribution
/// chop.prefix_len replays through the cache like a counter.  The schedule
/// cache's labeled latency histograms ("cache_lookup_us{shard=,outcome=}",
/// "cache_disk_read_us", "cache_disk_write_us") are registered by
/// core/schedule_cache directly.
namespace hist {
enum Id : std::uint8_t {
  /// Emitted-prefix length per chop call.
  kChopPrefixLen,
  kCompileLoopUs,
  kCompileProgramUs,
  kCompileTraceUs,
  /// ThreadPool task queue-wait and run time (support/thread_pool reports
  /// them through the TelemetrySink hook under the names of
  /// support/telemetry_hook.hpp — support cannot link obs).
  kPoolQueueWaitUs,
  kPoolRunUs,
  /// simulate_many whole-batch time.
  kSimBatchUs,
  kCount
};

inline constexpr std::array<MetricInfo, kCount> kInfo = {{
    {"chop.prefix_len", true},
    {"time.compile_loop_us", false},
    {"time.compile_program_us", false},
    {"time.compile_trace_us", false},
    {"time.pool_queue_wait_us", false},
    {"time.pool_run_us", false},
    {"time.sim_batch_us", false},
}};
}  // namespace hist

/// The registry name of phase span histograms: phase_us{phase=<name>}.
inline constexpr std::string_view kPhaseMetric = "phase_us";

// --- counters and histograms --------------------------------------------

/// Adds `delta` to counter `id` in every CounterRecorder active on the
/// calling thread (when `id` replays), then, while enabled(), to the
/// registry.  Counters are process-global, thread-safe and monotone: there
/// is no decrement.
void count(ctr::Id id, std::uint64_t delta = 1);

/// count() for an open-ended name (verify.diag.<code>): the registry
/// counter of exactly that name.  Recorders capture it like a replaying id;
/// the schedule cache never sees one, since no such name is counted inside
/// a cached solve.
void count_named(std::string_view name, std::uint64_t delta = 1);

/// Records one sample into histogram `id`: the histogram analog of count().
void record_value(hist::Id id, std::uint64_t value);

/// Current registry value of counter `id`.
std::uint64_t counter_value(ctr::Id id);

/// Every registered unlabeled counter — the built-in ids and the named
/// counters — as (name, value), sorted by name.
std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot();

/// (id, summed delta) per touched counter, ascending id — a recorder's
/// capture in the form the schedule cache stores and replays.
using CounterDeltas = std::vector<std::pair<ctr::Id, std::uint64_t>>;
/// (id, samples in arrival order) per replaying histogram that got any.
using ValueSamples =
    std::vector<std::pair<hist::Id, std::vector<std::uint64_t>>>;

/// RAII capture of every count() issued by the *calling thread* while alive,
/// independent of enabled().  Recorders nest (a stack per thread; each
/// delivery goes to all of them, so an outer recorder sees deltas replayed
/// by an inner cache hit) and capture only replaying ids.  Used by
/// core/schedule_cache to make cached results counter-identical to fresh
/// solves, and by compile_ir for a `profile=1` reply.
class CounterRecorder {
 public:
  /// An inactive recorder is never delivered to and records nothing (the
  /// cache passes active=false when caching is bypassed).
  explicit CounterRecorder(bool active = true);
  ~CounterRecorder();
  CounterRecorder(const CounterRecorder&) = delete;
  CounterRecorder& operator=(const CounterRecorder&) = delete;

  /// Every touched id with its summed delta.  A counter touched only with
  /// zero is listed at zero: replay must touch it again, so an outer
  /// recorder lists it too.
  CounterDeltas deltas() const;

  /// The captured histogram samples.
  ValueSamples value_samples() const;

  /// Every touched counter, built-in and named, as (name, delta) sorted by
  /// name: the counter list of a `COMPILE profile=1` reply.
  std::vector<std::pair<std::string, std::uint64_t>> touched_counters() const;

  /// Re-issues every recorded delta through count() on the calling thread
  /// (delivering to the registry while enabled() and to any recorder
  /// active *outside* this one).
  static void replay(const CounterDeltas& deltas);

  /// Re-issues every recorded sample through record_value(), same contract.
  static void replay_values(const ValueSamples& samples);

  /// Internal: called by count(), count_named() and record_value().
  void record(ctr::Id id, std::uint64_t delta) {
    deltas_[id] += delta;
    touched_[id] = true;
  }
  void record_named(std::string_view name, std::uint64_t delta);
  void record_sample(hist::Id id, std::uint64_t value) {
    samples_[id].push_back(value);
  }

 private:
  bool active_;
  std::array<std::uint64_t, ctr::kCount> deltas_{};
  std::array<bool, ctr::kCount> touched_{};
  std::array<std::vector<std::uint64_t>, hist::kCount> samples_;
  std::vector<std::pair<std::string, std::uint64_t>> named_;
};

// --- phase spans --------------------------------------------------------

/// The permanent phase_us{phase=<name>} histogram.
Histogram* phase_histogram(std::string_view name);

/// RAII span over one pipeline phase.  `name` must outlive the span (string
/// literals only — instrumentation sites pass compile-time names).  While
/// enabled(), the destructor records the elapsed microseconds into the
/// phase's histogram; while trace_enabled(), it also appends one trace
/// event.
class Span {
 public:
  /// Resolves the phase histogram by name when it closes.
  explicit Span(const char* name);
  /// The AIS_OBS_SPAN form: `phase` is the call site's phase histogram.
  Span(Histogram* phase, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  Histogram* phase_ = nullptr;
  std::int64_t start_us_ = 0;
  bool active_ = false;
  bool flight_ = false;
};

/// Span for ultra-hot sub-phases (hundreds of closes per compile, bodies in
/// the sub-microsecond range, where a Span's two clock reads rival the work
/// being measured).  Inert under plain enabled() — it activates only while
/// trace_enabled(), when the caller has asked for full fidelity — but still
/// feeds the flight recorder, whose per-event cost is one ring write.
class DetailSpan {
 public:
  DetailSpan(Histogram* phase, const char* name);
  ~DetailSpan();
  DetailSpan(const DetailSpan&) = delete;
  DetailSpan& operator=(const DetailSpan&) = delete;

 private:
  const char* name_;
  Histogram* phase_;
  std::int64_t start_us_ = 0;
  bool active_ = false;
  bool flight_ = false;
};

/// RAII wall-clock sample: while enabled(), the destructor records the
/// elapsed microseconds into histogram `id` via record_value().  Lighter
/// than a Span — no trace event; made for hot latency distributions
/// (per-compile time, pool tasks).
class ScopedTimer {
 public:
  explicit ScopedTimer(hist::Id id);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  hist::Id id_;
  std::int64_t start_us_ = 0;
  bool active_ = false;
};

struct PhaseTotal {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0;
};

/// Span time per phase from the phase_us histograms' exact count and sum,
/// sorted by descending total time; phases with no closed span are left
/// out.
std::vector<PhaseTotal> phase_totals();

// --- trace events -------------------------------------------------------

struct TraceEvent {
  std::string name;
  int tid = 0;       // dense per-thread index, not the OS id
  int depth = 0;     // span nesting depth at open, within its thread
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
};

/// Completed spans recorded while trace_enabled(), in completion order.
std::vector<TraceEvent> trace_events();

/// Writes the Chrome trace-event JSON ({"traceEvents": [...]}): one "X"
/// (complete) event per recorded span plus one "C" (counter) sample per
/// counter of counters_snapshot().  Loadable in Perfetto.
void write_chrome_trace(std::ostream& os);

/// Same, to a file; returns false when the file cannot be opened.
bool write_chrome_trace(const std::string& path);

/// Zeroes every counter, histogram and phase total and clears the trace
/// events (gates unchanged).  Nothing is unregistered, so every handle
/// stays valid.
void reset();

}  // namespace ais::obs

// --- hook macros --------------------------------------------------------
//
// All instrumentation sites go through these, so an AIS_OBS_ENABLED=0 build
// compiles them out entirely (tests/test_obs_off.cpp checks this).

#if AIS_OBS_ENABLED

#define AIS_OBS_CONCAT_IMPL(a, b) a##b
#define AIS_OBS_CONCAT(a, b) AIS_OBS_CONCAT_IMPL(a, b)

/// Opens a phase span until the end of the enclosing scope.  The static
/// holds the phase's histogram, registered on the site's first pass.
#define AIS_OBS_SPAN(name)                                                  \
  static ::ais::obs::Histogram* const AIS_OBS_CONCAT(ais_obs_phase_,       \
                                                     __LINE__) =           \
      ::ais::obs::phase_histogram(name);                                    \
  ::ais::obs::Span AIS_OBS_CONCAT(ais_obs_span_, __LINE__)(                 \
      AIS_OBS_CONCAT(ais_obs_phase_, __LINE__), (name))

/// AIS_OBS_SPAN for sub-phases too hot to time outside full-trace mode
/// (see obs::DetailSpan).
#define AIS_OBS_SPAN_DETAIL(name)                                           \
  static ::ais::obs::Histogram* const AIS_OBS_CONCAT(ais_obs_phase_,       \
                                                     __LINE__) =           \
      ::ais::obs::phase_histogram(name);                                    \
  ::ais::obs::DetailSpan AIS_OBS_CONCAT(ais_obs_span_, __LINE__)(           \
      AIS_OBS_CONCAT(ais_obs_phase_, __LINE__), (name))

/// Bumps a built-in counter: AIS_OBS_COUNT(id) or AIS_OBS_COUNT(id, delta).
#define AIS_OBS_COUNT(...) ::ais::obs::count(__VA_ARGS__)

/// Bumps a counter whose name is computed at run time; the name expression
/// is only evaluated while telemetry is runtime-enabled.
#define AIS_OBS_COUNT_DYN(name_expr, delta)                    \
  do {                                                         \
    if (::ais::obs::enabled()) {                               \
      ::ais::obs::count_named((name_expr), (delta));           \
    }                                                          \
  } while (false)

/// Records one histogram sample: AIS_OBS_VALUE(id, value).
#define AIS_OBS_VALUE(id, value) ::ais::obs::record_value((id), (value))

/// Times the enclosing scope into histogram `id` (microseconds).
#define AIS_OBS_TIMER(id) \
  ::ais::obs::ScopedTimer AIS_OBS_CONCAT(ais_obs_timer_, __LINE__)(id)

#else

#define AIS_OBS_SPAN(name) static_cast<void>(0)
#define AIS_OBS_SPAN_DETAIL(name) static_cast<void>(0)
#define AIS_OBS_COUNT(...) static_cast<void>(0)
#define AIS_OBS_COUNT_DYN(name_expr, delta) static_cast<void>(0)
#define AIS_OBS_VALUE(id, value) static_cast<void>(0)
#define AIS_OBS_TIMER(id) static_cast<void>(0)

#endif  // AIS_OBS_ENABLED
