// Pipeline telemetry: RAII phase spans, named monotonic counters, latency
// value distributions and a Chrome-trace-event sink, instrumenting core/,
// sim/, driver/ and verify/.  Value distributions land in mergeable
// log-bucketed histograms (obs/histogram.hpp) inside the labeled metric
// registry (obs/metrics.hpp — Prometheus/JSON exposition); spans also feed
// the crash flight recorder (obs/flight_recorder.hpp) while it is enabled.
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

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef AIS_OBS_ENABLED
#define AIS_OBS_ENABLED 1
#endif

namespace ais::obs {

/// True when this translation unit was compiled with telemetry hooks.
inline constexpr bool kHooksCompiledIn = AIS_OBS_ENABLED != 0;

// --- runtime gates ------------------------------------------------------

bool enabled();
bool trace_enabled();
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

// --- named monotonic counters -------------------------------------------

/// Adds `delta` to the counter `name`, creating it at zero on first touch
/// (so a delta of 0 registers a counter without changing it).  Counters are
/// process-global, thread-safe and monotone: there is no decrement.
/// No-op while !enabled(), except that deltas are still delivered to any
/// CounterRecorder active on the calling thread (the schedule cache records
/// counter deltas even in untraced runs, so a later traced run replaying a
/// cached entry reports the same numbers a fresh solve would).  A fully
/// disabled hook costs one thread-local load plus one relaxed atomic load.
void count(std::string_view name, std::uint64_t delta = 1);

/// Per-call-site memo for count_cached() / Span: caches a pointer into the
/// registry, validated against the registry generation (reset() bumps it, so
/// a stale handle re-resolves instead of dangling).  Zero-initialised; one
/// lives in a function-local static behind each AIS_OBS_SPAN / AIS_OBS_COUNT
/// expansion and is shared by every thread passing that site.
struct SiteHandle {
  std::atomic<void*> slot{nullptr};
  std::atomic<std::uint64_t> gen{0};
};

/// count() with a call-site memo: the steady state is three relaxed loads
/// and one relaxed fetch_add — no mutex, no map walk.  Falls back to the
/// full count() path whenever a CounterRecorder is active on this thread
/// (per-event capture must see every delta).
void count_cached(SiteHandle& site, std::string_view name,
                  std::uint64_t delta = 1);

/// Records one sample into the process-global histogram `name` (registered
/// on first touch in MetricRegistry::global()).  The histogram analog of
/// count(): while !enabled() it only delivers to active CounterRecorders
/// (which skip "cache."/"time."-prefixed names — wall-clock distributions
/// describe the run, not the schedule); while enabled() it also lands in
/// the registry.  Steady state is lock-free: the histogram handle is
/// memoized per (thread, name).
void record_value(std::string_view name, std::uint64_t value);

/// RAII capture of every count() issued by the *calling thread* while alive,
/// independent of enabled().  Recorders nest (a stack per thread; each
/// delivery goes to all of them, so an outer recorder sees deltas replayed
/// by an inner cache hit) and skip counters prefixed "cache." — cache
/// traffic describes the run, not the schedule, and replaying it would
/// double-count.  Used by core/schedule_cache to make cached results
/// counter-identical to fresh solves.
class CounterRecorder {
 public:
  /// An inactive recorder records nothing and costs nothing (the cache
  /// passes active=false when caching is bypassed).
  explicit CounterRecorder(bool active = true);
  ~CounterRecorder();
  CounterRecorder(const CounterRecorder&) = delete;
  CounterRecorder& operator=(const CounterRecorder&) = delete;

  /// Histogram samples captured by record_value(), per name, in arrival
  /// order (order matters: replay re-issues them one by one so an outer
  /// recorder and the registry see the same stream a fresh solve produced).
  using ValueSamples =
      std::map<std::string, std::vector<std::uint64_t>, std::less<>>;

  /// The captured (name, summed delta) pairs, sorted by name.
  const std::map<std::string, std::uint64_t, std::less<>>& deltas() const {
    return deltas_;
  }

  /// The captured histogram samples, sorted by name.
  const ValueSamples& value_samples() const { return samples_; }

  /// Re-issues every recorded delta through count() on the calling thread
  /// (delivering to the global registry while enabled() and to any recorder
  /// active *outside* this one).
  static void replay(
      const std::map<std::string, std::uint64_t, std::less<>>& deltas);

  /// Re-issues every recorded sample through record_value(), same contract.
  static void replay_values(const ValueSamples& samples);

  /// Internal: called by count() for each delivery.
  void record(std::string_view name, std::uint64_t delta);

  /// Internal: called by record_value() for each delivery.
  void record_sample(std::string_view name, std::uint64_t value);

 private:
  bool active_;
  std::map<std::string, std::uint64_t, std::less<>> deltas_;
  ValueSamples samples_;
};

/// Current value of `name`; 0 if it was never touched.
std::uint64_t counter_value(std::string_view name);

/// All registered counters, sorted by name.
std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot();

/// Crash-path counter walk (flight recorder): visits every registered
/// counter without allocating iff the registry mutex is free (try_lock);
/// returns false when contended.  Names are valid only during the call.
bool try_visit_counters(void (*fn)(void* ctx, const char* name,
                                   std::uint64_t value),
                        void* ctx);

// --- phase spans --------------------------------------------------------

/// RAII span over one pipeline phase.  `name` must outlive the span (string
/// literals only — instrumentation sites pass compile-time names).  While
/// enabled(), the destructor folds the elapsed time into the per-phase
/// aggregate; while trace_enabled(), it also appends one trace event.
class Span {
 public:
  explicit Span(const char* name);
  /// The AIS_OBS_SPAN form: `site` memoizes this call site's phase cell so
  /// closing the span is lock-free after the first pass (see SiteHandle).
  Span(SiteHandle& site, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  SiteHandle* site_ = nullptr;
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
  DetailSpan(SiteHandle& site, const char* name);
  ~DetailSpan();
  DetailSpan(const DetailSpan&) = delete;
  DetailSpan& operator=(const DetailSpan&) = delete;

 private:
  const char* name_;
  SiteHandle* site_;
  std::int64_t start_us_ = 0;
  bool active_ = false;
  bool flight_ = false;
};

/// RAII wall-clock sample: while enabled(), the destructor records the
/// elapsed microseconds into the histogram `name` via record_value().
/// Lighter than a Span — no phase aggregate, no trace event; made for hot
/// latency distributions (per-compile time, cache lookups, pool tasks).
/// `name` must outlive the timer (string literals only).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  std::int64_t start_us_ = 0;
  bool active_ = false;
};

struct PhaseTotal {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0;
};

/// Aggregated span time per phase name, sorted by descending total time.
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
/// registered counter.  Loadable in Perfetto.
void write_chrome_trace(std::ostream& os);

/// Same, to a file; returns false when the file cannot be opened.
bool write_chrome_trace(const std::string& path);

/// Clears counters, phase aggregates and trace events (gates unchanged).
void reset();

// --- counter names used by the built-in instrumentation -----------------
//
// One constant per counter keeps call sites and reports in sync; see
// docs/OBSERVABILITY.md for the glossary.
namespace ctr {
inline constexpr const char* kRankRuns = "rank.runs";
inline constexpr const char* kRankInfeasible = "rank.infeasible";
inline constexpr const char* kRankNodesRanked = "rank.nodes_ranked";
inline constexpr const char* kRankIncrementalPasses = "rank.incremental_passes";
inline constexpr const char* kRankNodesReranked = "rank.nodes_reranked";
inline constexpr const char* kMergeCalls = "merge.calls";
inline constexpr const char* kMergeRelaxRounds = "merge.relax_rounds";
inline constexpr const char* kMergeFullRelaxRounds = "merge.full_relax_rounds";
inline constexpr const char* kMergeGallopProbes = "merge.gallop_probes";
inline constexpr const char* kIdleMoveAttempts = "move_idle.attempts";
inline constexpr const char* kIdleSlotsMoved = "move_idle.moved";
/// Attempts decided "not moved" from the schedule and deadlines alone,
/// before any rank work, one counter per guard (see core/move_idle.cpp):
/// the slot lies in the prefix of idle slots that issue width forces into
/// every cycle, no tail node precedes it, or no other node before it may
/// refill the tail position.
inline constexpr const char* kIdleMovesPrunedSaturated =
    "move_idle.pruned_saturated";
inline constexpr const char* kIdleMovesPrunedNoTail =
    "move_idle.pruned_no_tail";
inline constexpr const char* kIdleMovesPrunedNoRefill =
    "move_idle.pruned_no_refill";
inline constexpr const char* kDeadlinesTightened =
    "move_idle.deadlines_tightened";
/// The §5.2.3 loop search (core/loop_single.cpp): candidates enumerated,
/// and the distinct surrogates among them that were actually scheduled
/// (pivots with the same surrogate share one Rank + Delay_Idle_Slots run).
inline constexpr const char* kLoopCandidates = "loop.candidates";
inline constexpr const char* kLoopSurrogates = "loop.surrogates";
inline constexpr const char* kChopCalls = "chop.calls";
inline constexpr const char* kChopPoints = "chop.points";
inline constexpr const char* kLookaheadBlocks = "lookahead.blocks";
inline constexpr const char* kWindowSpanOverW = "lookahead.window_span_gt_w";
inline constexpr const char* kSimRuns = "sim.runs";
inline constexpr const char* kSimCycles = "sim.cycles";
inline constexpr const char* kSimStallLatency = "sim.stall.latency";
inline constexpr const char* kSimStallWindow = "sim.stall.window";
/// Event-driven simulator internals: kSimEvents counts the event-loop
/// iterations (cycles the engine actually examined); kSimCyclesJumped counts
/// the idle cycles skipped by next-event jumps.  Their sum equals kSimCycles.
inline constexpr const char* kSimEvents = "sim.events";
inline constexpr const char* kSimCyclesJumped = "sim.cycles_jumped";
/// Schedule-cache counters (core/schedule_cache).  The "cache." prefix is
/// load-bearing: CounterRecorder filters it, and the differential tests
/// exclude it when asserting cache-on/off counter identity.
inline constexpr const char* kCachePrefix = "cache.";
inline constexpr const char* kCacheHits = "cache.hits";
inline constexpr const char* kCacheMisses = "cache.misses";
inline constexpr const char* kCacheEvictions = "cache.evictions";
inline constexpr const char* kCacheBytes = "cache.bytes";
inline constexpr const char* kCacheDiskHits = "cache.disk_hits";
inline constexpr const char* kCacheDiskWrites = "cache.disk_writes";
/// Disk writes absorbed by the coalescing flusher: the same key was queued
/// again before its first write hit the disk, so one write covered both.
inline constexpr const char* kCacheDiskWriteCoalesced =
    "cache.disk_write_coalesced";
/// Prefix for per-diagnostic-code verifier counters ("verify.diag.<code>").
inline constexpr const char* kVerifyDiagPrefix = "verify.diag.";
/// Prefix for wall-clock histogram names (see namespace hist below).
/// Load-bearing like kCachePrefix: CounterRecorder filters both prefixes,
/// so run-dependent timings never enter schedule-cache values and the
/// cache-on/off differential tests stay byte-identical.
inline constexpr const char* kTimePrefix = "time.";
}  // namespace ctr

// --- histogram names used by the built-in instrumentation ---------------
//
// All wall-clock distributions use the "time." prefix (filtered by
// CounterRecorder, see ctr::kTimePrefix); deterministic shape
// distributions (chop.prefix_len) do not, and replay through the cache.
namespace hist {
inline constexpr const char* kCompileTraceUs = "time.compile_trace_us";
inline constexpr const char* kCompileLoopUs = "time.compile_loop_us";
inline constexpr const char* kCompileProgramUs = "time.compile_program_us";
/// ThreadPool task queue-wait and run time (support/thread_pool via the
/// TelemetrySink hook — support cannot link obs).
inline constexpr const char* kPoolQueueWaitUs = "time.pool_queue_wait_us";
inline constexpr const char* kPoolRunUs = "time.pool_run_us";
/// simulate_many whole-batch time.
inline constexpr const char* kSimBatchUs = "time.sim_batch_us";
/// Schedule-cache latency histograms are labeled series registered by
/// core/schedule_cache directly ("cache_lookup_us{shard=,outcome=}",
/// "cache_disk_read_us", "cache_disk_write_us").
/// Emitted-prefix length per chop call — deterministic, so it is recorded
/// into cache values and replayed on hits like a counter.
inline constexpr const char* kChopPrefixLen = "chop.prefix_len";
}  // namespace hist

}  // namespace ais::obs

// --- hook macros --------------------------------------------------------
//
// All instrumentation sites go through these, so an AIS_OBS_ENABLED=0 build
// compiles them out entirely (tests/test_obs_off.cpp checks this).

#if AIS_OBS_ENABLED

#define AIS_OBS_CONCAT_IMPL(a, b) a##b
#define AIS_OBS_CONCAT(a, b) AIS_OBS_CONCAT_IMPL(a, b)

/// Opens a phase span until the end of the enclosing scope.  The static
/// SiteHandle is zero-initialised (no registration until the span actually
/// closes while enabled) and makes span close lock-free after first use.
#define AIS_OBS_SPAN(name)                                            \
  static ::ais::obs::SiteHandle AIS_OBS_CONCAT(ais_obs_site_,         \
                                               __LINE__);             \
  ::ais::obs::Span AIS_OBS_CONCAT(ais_obs_span_, __LINE__)(           \
      AIS_OBS_CONCAT(ais_obs_site_, __LINE__), (name))

/// AIS_OBS_SPAN for sub-phases too hot to time outside full-trace mode
/// (see obs::DetailSpan).
#define AIS_OBS_SPAN_DETAIL(name)                                     \
  static ::ais::obs::SiteHandle AIS_OBS_CONCAT(ais_obs_site_,         \
                                               __LINE__);             \
  ::ais::obs::DetailSpan AIS_OBS_CONCAT(ais_obs_span_, __LINE__)(     \
      AIS_OBS_CONCAT(ais_obs_site_, __LINE__), (name))

/// Bumps a counter: AIS_OBS_COUNT(name) or AIS_OBS_COUNT(name, delta).
/// Dispatches on arity so each expansion gets its own SiteHandle memo.
#define AIS_OBS_COUNT_ARITY(one, two, pick, ...) pick
#define AIS_OBS_COUNT(...)                                            \
  AIS_OBS_COUNT_ARITY(__VA_ARGS__, AIS_OBS_COUNT_2, AIS_OBS_COUNT_1, )\
  (__VA_ARGS__)
#define AIS_OBS_COUNT_1(name) AIS_OBS_COUNT_2(name, 1)
#define AIS_OBS_COUNT_2(name, delta)                                  \
  do {                                                                \
    static ::ais::obs::SiteHandle AIS_OBS_CONCAT(ais_obs_site_,       \
                                                 __LINE__);           \
    ::ais::obs::count_cached(AIS_OBS_CONCAT(ais_obs_site_, __LINE__), \
                             (name), (delta));                        \
  } while (false)

/// Bumps a counter whose name is computed at run time; the name expression
/// is only evaluated while telemetry is runtime-enabled.
#define AIS_OBS_COUNT_DYN(name_expr, delta)                    \
  do {                                                         \
    if (::ais::obs::enabled()) {                               \
      ::ais::obs::count((name_expr), (delta));                 \
    }                                                          \
  } while (false)

/// Records one histogram sample: AIS_OBS_VALUE(name, value).
#define AIS_OBS_VALUE(name, value) ::ais::obs::record_value((name), (value))

/// Times the enclosing scope into the histogram `name` (microseconds).
#define AIS_OBS_TIMER(name) \
  ::ais::obs::ScopedTimer AIS_OBS_CONCAT(ais_obs_timer_, __LINE__)(name)

#else

#define AIS_OBS_SPAN(name) static_cast<void>(0)
#define AIS_OBS_SPAN_DETAIL(name) static_cast<void>(0)
#define AIS_OBS_COUNT(...) static_cast<void>(0)
#define AIS_OBS_COUNT_DYN(name_expr, delta) static_cast<void>(0)
#define AIS_OBS_VALUE(name, value) static_cast<void>(0)
#define AIS_OBS_TIMER(name) static_cast<void>(0)

#endif  // AIS_OBS_ENABLED
