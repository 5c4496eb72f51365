#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <string_view>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "support/mutex.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry_hook.hpp"

namespace ais::obs {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_trace_enabled{false};

template <std::size_t N>
constexpr bool names_ascending(const std::array<MetricInfo, N>& info) {
  for (std::size_t i = 1; i < N; ++i) {
    if (!(info[i - 1].name < info[i].name)) return false;
  }
  return true;
}
static_assert(names_ascending(ctr::kInfo),
              "ctr ids must be declared in name order");
static_assert(names_ascending(hist::kInfo),
              "hist ids must be declared in name order");

/// The permanent registry handle of every built-in id, all registered by
/// the first call.
struct Builtins {
  std::array<Counter*, ctr::kCount> counters{};
  std::array<Histogram*, hist::kCount> hists{};
};

const Builtins& builtins() {
  static const Builtins b = [] {
    Builtins out;
    MetricRegistry& reg = MetricRegistry::global();
    for (std::size_t i = 0; i < ctr::kCount; ++i) {
      out.counters[i] = reg.counter(ctr::kInfo[i].name);
    }
    for (std::size_t i = 0; i < hist::kCount; ++i) {
      out.hists[i] = reg.histogram(hist::kInfo[i].name);
    }
    return out;
  }();
  return b;
}

/// Trace events and the dense thread ids they carry: the only telemetry
/// state kept outside the metric registry.  Spans fire at pass granularity
/// (a few thousand per compile at most), and only trace mode appends
/// events, so one mutex is enough.
struct Registry {
  Mutex mu;
  std::vector<TraceEvent> events AIS_GUARDED_BY(mu);
  std::map<std::thread::id, int> thread_ids AIS_GUARDED_BY(mu);
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during static teardown
  return *r;
}

int thread_index() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  const auto [it, inserted] = r.thread_ids.emplace(
      std::this_thread::get_id(), static_cast<int>(r.thread_ids.size()));
  static_cast<void>(inserted);
  return it->second;
}

/// Span nesting depth of the current thread (opened, not yet closed).
thread_local int t_depth = 0;

/// Active CounterRecorders of the current thread, innermost last.  A plain
/// vector of non-owning pointers: recorders are stack-allocated RAII objects,
/// so push/pop order is guaranteed.
thread_local std::vector<CounterRecorder*> t_recorders;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string g_env_trace_path;  // written once by init_from_env

}  // namespace

#if AIS_OBS_ENABLED
namespace {

// ThreadPool lives in support/, which cannot link obs; it reports task
// queue-wait and run times through the TelemetrySink function-pointer hook
// instead.  obs.o is always in the link (Span/enabled() are referenced from
// every instrumented TU), so installing the sink from a static initializer
// is reliable — and an AIS_OBS=OFF build compiles this block away, leaving
// the pool unhooked.
bool sink_enabled() { return enabled(); }
void sink_value(const char* name, std::uint64_t value) {
  for (std::size_t i = 0; i < hist::kCount; ++i) {
    if (hist::kInfo[i].name == name) {
      record_value(static_cast<hist::Id>(i), value);
      return;
    }
  }
}
constexpr TelemetrySink kObsSink{&sink_enabled, &sink_value};
const bool g_sink_installed = [] {
  set_telemetry_sink(&kObsSink);
  return true;
}();

}  // namespace
#endif  // AIS_OBS_ENABLED

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool trace_enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  if (on) builtins();
  g_enabled.store(on, std::memory_order_relaxed);
  if (!on) g_trace_enabled.store(false, std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  if (on) builtins();
  g_trace_enabled.store(on, std::memory_order_relaxed);
  if (on) g_enabled.store(true, std::memory_order_relaxed);
}

void init_from_env() {
  const char* trace = std::getenv("AIS_TRACE");
  if (trace != nullptr && trace[0] != '\0' &&
      std::string_view(trace) != "0") {
    set_enabled(true);
    if (std::string_view(trace) == "trace") set_trace_enabled(true);
  }
  const char* path = std::getenv("AIS_TRACE_JSON");
  if (path != nullptr && path[0] != '\0') {
    g_env_trace_path = path;
    set_trace_enabled(true);
  }
  flight_init_from_env();
}

const std::string& env_trace_path() { return g_env_trace_path; }

void count(ctr::Id id, std::uint64_t delta) {
  if (!t_recorders.empty() && ctr::kInfo[id].replays) {
    for (CounterRecorder* r : t_recorders) r->record(id, delta);
  }
  if (!enabled()) return;
  builtins().counters[id]->add(delta);
}

void count_named(std::string_view name, std::uint64_t delta) {
  for (CounterRecorder* r : t_recorders) r->record_named(name, delta);
  if (!enabled()) return;
  MetricRegistry::global().counter(name)->add(delta);
}

void record_value(hist::Id id, std::uint64_t value) {
  if (!t_recorders.empty() && hist::kInfo[id].replays) {
    for (CounterRecorder* r : t_recorders) r->record_sample(id, value);
  }
  if (!enabled()) return;
  builtins().hists[id]->record(value);
}

std::uint64_t counter_value(ctr::Id id) {
  return builtins().counters[id]->value();
}

std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot() {
  builtins();  // every id is listed, touched or not
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const MetricSeries& s : MetricRegistry::global().snapshot()) {
    if (s.type == MetricType::kCounter && s.labels.empty()) {
      out.emplace_back(s.name, s.counter_value);
    }
  }
  return out;  // the snapshot is already sorted by name
}

CounterRecorder::CounterRecorder(bool active) : active_(active) {
  if (active_) t_recorders.push_back(this);
}

CounterRecorder::~CounterRecorder() {
  if (active_) t_recorders.pop_back();
}

CounterDeltas CounterRecorder::deltas() const {
  CounterDeltas out;
  for (std::size_t i = 0; i < ctr::kCount; ++i) {
    if (touched_[i]) out.emplace_back(static_cast<ctr::Id>(i), deltas_[i]);
  }
  return out;
}

ValueSamples CounterRecorder::value_samples() const {
  ValueSamples out;
  for (std::size_t i = 0; i < hist::kCount; ++i) {
    if (!samples_[i].empty()) {
      out.emplace_back(static_cast<hist::Id>(i), samples_[i]);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
CounterRecorder::touched_counters() const {
  std::vector<std::pair<std::string, std::uint64_t>> out = named_;
  for (const auto& [id, delta] : deltas()) {
    out.emplace_back(std::string(ctr::kInfo[id].name), delta);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CounterRecorder::record_named(std::string_view name,
                                   std::uint64_t delta) {
  for (auto& [n, d] : named_) {
    if (n == name) {
      d += delta;
      return;
    }
  }
  named_.emplace_back(std::string(name), delta);
}

void CounterRecorder::replay(const CounterDeltas& deltas) {
  for (const auto& [id, delta] : deltas) count(id, delta);
}

void CounterRecorder::replay_values(const ValueSamples& samples) {
  for (const auto& [id, values] : samples) {
    for (const std::uint64_t v : values) record_value(id, v);
  }
}

Histogram* phase_histogram(std::string_view name) {
  return MetricRegistry::global().histogram(kPhaseMetric, {"phase", name});
}

namespace {

/// Shared Span / DetailSpan close: records the elapsed time into the phase
/// histogram lock-free, and takes the registry mutex only in full-trace
/// mode to append the event.
void close_span(Histogram* phase, const char* name, std::int64_t start_us) {
  const std::int64_t end_us = Stopwatch::now_us();
  --t_depth;
  // A span that outlives a set_enabled(false) still closes its books; the
  // gate only stops *new* spans from activating.
  (phase != nullptr ? phase : phase_histogram(name))
      ->record(static_cast<std::uint64_t>(end_us - start_us));
  if (trace_enabled()) {
    Registry& r = registry();
    const int tid = thread_index();
    MutexLock lock(r.mu);
    r.events.push_back(TraceEvent{name, tid, t_depth, start_us,
                                  end_us - start_us});
  }
}

}  // namespace

Span::Span(const char* name) : Span(nullptr, name) {}

Span::Span(Histogram* phase, const char* name) : name_(name), phase_(phase) {
  if (flight_enabled()) {
    flight_ = true;  // remember: the gate may flip before the destructor
    flight_record(name_, 'B');
  }
  if (!enabled()) return;
  active_ = true;
  start_us_ = Stopwatch::now_us();
  ++t_depth;
}

Span::~Span() {
  if (flight_) {
    flight_record(name_, 'E',
                  active_ ? static_cast<std::uint64_t>(Stopwatch::now_us() -
                                                       start_us_)
                          : 0);
  }
  if (!active_) return;
  close_span(phase_, name_, start_us_);
}

DetailSpan::DetailSpan(Histogram* phase, const char* name)
    : name_(name), phase_(phase) {
  if (flight_enabled()) {
    flight_ = true;
    flight_record(name_, 'B');
  }
  if (!trace_enabled()) return;  // inert outside full-trace mode
  active_ = true;
  start_us_ = Stopwatch::now_us();
  ++t_depth;
}

DetailSpan::~DetailSpan() {
  if (flight_) {
    flight_record(name_, 'E',
                  active_ ? static_cast<std::uint64_t>(Stopwatch::now_us() -
                                                       start_us_)
                          : 0);
  }
  if (!active_) return;
  close_span(phase_, name_, start_us_);
}

ScopedTimer::ScopedTimer(hist::Id id) : id_(id) {
  if (!enabled()) return;
  active_ = true;
  start_us_ = Stopwatch::now_us();
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  record_value(id_, static_cast<std::uint64_t>(Stopwatch::now_us() -
                                               start_us_));
}

std::vector<PhaseTotal> phase_totals() {
  std::vector<PhaseTotal> out;
  for (const MetricSeries& s : MetricRegistry::global().snapshot()) {
    if (s.name != kPhaseMetric || s.labels.size() != 1 || s.hist.count == 0) {
      continue;
    }
    out.push_back(PhaseTotal{s.labels[0].second, s.hist.count,
                             static_cast<double>(s.hist.sum) * 1e-3});
  }
  std::sort(out.begin(), out.end(), [](const PhaseTotal& a,
                                       const PhaseTotal& b) {
    return a.total_ms > b.total_ms || (a.total_ms == b.total_ms &&
                                       a.name < b.name);
  });
  return out;
}

std::vector<TraceEvent> trace_events() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  return r.events;
}

void write_chrome_trace(std::ostream& os) {
  std::vector<TraceEvent> events = trace_events();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  const auto counters = counters_snapshot();
  std::int64_t last_ts = 0;
  for (const TraceEvent& e : events) {
    last_ts = std::max(last_ts, e.ts_us + e.dur_us);
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(e.name)
       << "\",\"cat\":\"ais\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
       << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
       << ",\"args\":{\"depth\":" << e.depth << "}}";
  }
  for (const auto& [name, value] : counters) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(name)
       << "\",\"cat\":\"ais\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
       << last_ts << ",\"args\":{\"value\":" << value << "}}";
  }
  os << "\n]}\n";
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  write_chrome_trace(out);
  return out.good();
}

void reset() {
  // Callers must quiesce concurrent counting threads first: zeroing is not
  // linearizable against a racing add.
  {
    Registry& r = registry();
    MutexLock lock(r.mu);
    r.events.clear();
  }
  if (MetricRegistry* m = MetricRegistry::global_if_created()) {
    m->reset_values();
  }
}

}  // namespace ais::obs
