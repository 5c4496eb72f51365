#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"

namespace ais::obs {

namespace {

struct FlightEvent {
  std::int64_t ts_us = 0;
  const char* name = nullptr;
  std::uint64_t arg = 0;
  char kind = 0;
};

// One ring per thread, allocated on the thread's first event and leaked:
// the crash handler may fire on any thread at any time, so rings are never
// freed.  Only the owning thread writes; head is atomic so the dumper can
// read a consistent cursor, and event payloads may tear mid-crash (accepted
// — see the header).
struct FlightRing {
  explicit FlightRing(std::size_t cap)
      : capacity(cap), events(new FlightEvent[cap]()) {}
  const std::size_t capacity;      // power of two
  std::atomic<std::uint64_t> head{0};
  FlightEvent* const events;       // leaked with the ring
};

// Lock-free ring table: slots are claimed by fetch_add and published with
// release stores, so the (async) dumper sees fully constructed rings.
std::atomic<FlightRing*> g_rings[kFlightMaxThreads] = {};
std::atomic<std::size_t> g_ring_count{0};

std::atomic<bool> g_flight{false};
std::atomic<std::size_t> g_ring_entries{kFlightRingDefaultEntries};
std::atomic<bool> g_handlers_installed{false};
std::atomic<bool> g_dumping{false};

// The dump directory, mirrored into a fixed buffer the signal handler can
// read without locks.  Empty string = current working directory.
char g_dump_dir[512] = {0};

thread_local FlightRing* t_flight_ring = nullptr;
thread_local bool t_flight_dropped = false;

std::size_t clamp_ring_entries(std::size_t entries) {
  if (entries < 16) entries = 16;
  if (entries > kFlightRingMaxEntries) entries = kFlightRingMaxEntries;
  std::size_t pow2 = 16;
  while (pow2 * 2 <= entries) pow2 *= 2;
  return pow2;
}

FlightRing* ring_for_thread() {
  if (t_flight_ring != nullptr || t_flight_dropped) return t_flight_ring;
  const std::size_t idx = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kFlightMaxThreads) {
    t_flight_dropped = true;  // never fetch_add again on this thread
    return nullptr;
  }
  auto* ring = new FlightRing(g_ring_entries.load(std::memory_order_relaxed));
  g_rings[idx].store(ring, std::memory_order_release);
  t_flight_ring = ring;
  return ring;
}

// --- dump emission ------------------------------------------------------
//
// Everything below formats with snprintf into stack buffers and hands the
// bytes to a sink; the fd sink is the async-signal-safe crash path, the
// string sink reuses the identical formatting for tests and deliberate
// dumps.

struct DumpSink {
  virtual ~DumpSink() = default;
  virtual void write(const char* data, std::size_t n) = 0;
};

struct FdSink final : DumpSink {
  explicit FdSink(int fd_in) : fd(fd_in) {}
  void write(const char* data, std::size_t n) override {
    while (n > 0) {
      const ssize_t w = ::write(fd, data, n);
      if (w <= 0) return;  // best-effort: never block or retry forever
      data += w;
      n -= static_cast<std::size_t>(w);
    }
  }
  int fd;
};

struct StringSink final : DumpSink {
  void write(const char* data, std::size_t n) override { out.append(data, n); }
  std::string out;
};

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void emitf(DumpSink& sink, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) {
    sink.write(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
  }
}

void emit_ring(DumpSink& sink, std::size_t index, const FlightRing& ring) {
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  const std::uint64_t n =
      head < ring.capacity ? head : static_cast<std::uint64_t>(ring.capacity);
  emitf(sink, "== ring %zu (%llu events, cap %zu) ==\n", index,
        static_cast<unsigned long long>(n), ring.capacity);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Oldest first: the ring holds [head - n, head).
    const FlightEvent& e = ring.events[(head - n + i) & (ring.capacity - 1)];
    const char kind = e.kind != 0 ? e.kind : '?';
    emitf(sink, "%lld %c %s %llu\n", static_cast<long long>(e.ts_us), kind,
          e.name != nullptr ? e.name : "?",
          static_cast<unsigned long long>(e.arg));
  }
}

void emit_counter(void* ctx, const char* name, const char* labels,
                  MetricType type, const void* series) {
  if (type != MetricType::kCounter) return;
  const auto value = static_cast<unsigned long long>(
      static_cast<const Counter*>(series)->value());
  if (labels[0] == '\0') {
    emitf(*static_cast<DumpSink*>(ctx), "%s %llu\n", name, value);
  } else {
    emitf(*static_cast<DumpSink*>(ctx), "%s{%s} %llu\n", name, labels, value);
  }
}

void emit_histogram(void* ctx, const char* name, const char* labels,
                 MetricType type, const void* series) {
  auto& sink = *static_cast<DumpSink*>(ctx);
  if (type != MetricType::kHistogram) return;
  const HistogramSnapshot s =
      static_cast<const Histogram*>(series)->snapshot();
  if (s.count == 0) return;
  emitf(sink,
        "%s{%s} count=%llu sum=%llu max=%llu p50=%llu p90=%llu p99=%llu\n",
        name, labels, static_cast<unsigned long long>(s.count),
        static_cast<unsigned long long>(s.sum),
        static_cast<unsigned long long>(s.max),
        static_cast<unsigned long long>(s.quantile(0.50)),
        static_cast<unsigned long long>(s.quantile(0.90)),
        static_cast<unsigned long long>(s.quantile(0.99)));
}

void dump_impl(DumpSink& sink, int signal) {
  emitf(sink, "AIS-FLIGHT-DUMP v1\n");
  emitf(sink, "signal: %d\n", signal);
  emitf(sink, "pid: %lld\n", static_cast<long long>(::getpid()));
  std::size_t nrings = g_ring_count.load(std::memory_order_relaxed);
  if (nrings > kFlightMaxThreads) nrings = kFlightMaxThreads;
  emitf(sink, "rings: %zu\n", nrings);
  for (std::size_t i = 0; i < nrings; ++i) {
    const FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring != nullptr) emit_ring(sink, i, *ring);
  }
  // Never allocate the registry from a handler: with none created yet,
  // both sections stay empty.
  MetricRegistry* metrics = MetricRegistry::global_if_created();
  emitf(sink, "== counters ==\n");
  if (metrics != nullptr && !metrics->try_visit(&emit_counter, &sink)) {
    emitf(sink, "(skipped: metric registry busy)\n");
  }
  emitf(sink, "== histograms ==\n");
  if (metrics != nullptr && !metrics->try_visit(&emit_histogram, &sink)) {
    emitf(sink, "(skipped: metric registry busy)\n");
  }
  emitf(sink, "== end ==\n");
}

extern "C" void ais_flight_crash_handler(int sig) {
  // One dump per process: a second fault inside the handler (or a crash on
  // another thread) must not recurse.
  if (!g_dumping.exchange(true)) {
    char path[640];
    const long long now = static_cast<long long>(::time(nullptr));
    const long long pid = static_cast<long long>(::getpid());
    if (g_dump_dir[0] != 0) {
      snprintf(path, sizeof path, "%s/ais-crash-%lld-%lld.dump", g_dump_dir,
               pid, now);
    } else {
      snprintf(path, sizeof path, "ais-crash-%lld-%lld.dump", pid, now);
    }
    const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      flight_dump_to_fd(fd, sig);
      ::close(fd);
      FdSink err(2);
      emitf(err, "ais: wrote flight-recorder dump: %s\n", path);
    }
  }
  // SA_RESETHAND restored the default disposition at handler entry, so the
  // re-raise terminates with the unhandled-signal exit status (core dumps
  // and shell reporting behave exactly as without the recorder).
  ::raise(sig);
}

void install_handlers_once() {
  if (g_handlers_installed.exchange(true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = &ais_flight_crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);
}

}  // namespace

bool flight_enabled() { return g_flight.load(std::memory_order_relaxed); }

void set_flight_enabled(bool on) {
  if (on) install_handlers_once();
  g_flight.store(on, std::memory_order_relaxed);
}

void flight_init_from_env() {
  if (const char* ring = std::getenv("AIS_FLIGHT_RING");
      ring != nullptr && *ring != 0) {
    set_flight_ring_entries(
        static_cast<std::size_t>(std::strtoull(ring, nullptr, 10)));
  }
  if (const char* dir = std::getenv("AIS_FLIGHT_DIR");
      dir != nullptr && *dir != 0) {
    set_flight_dir(dir);
  }
  const char* flag = std::getenv("AIS_FLIGHT_RECORDER");
  if (flag != nullptr && *flag != 0 && std::string_view(flag) != "0") {
    set_flight_enabled(true);
  }
}

void set_flight_dir(const std::string& dir) {
  const std::size_t n = std::min(dir.size(), sizeof g_dump_dir - 1);
  std::memcpy(g_dump_dir, dir.data(), n);
  g_dump_dir[n] = 0;
}

std::string flight_dir() { return std::string(g_dump_dir); }

void set_flight_ring_entries(std::size_t entries) {
  g_ring_entries.store(clamp_ring_entries(entries),
                       std::memory_order_relaxed);
}

void flight_record(const char* name, char kind, std::uint64_t arg) {
  if (!flight_enabled()) return;
  FlightRing* ring = ring_for_thread();
  if (ring == nullptr) return;
  const std::uint64_t i = ring->head.load(std::memory_order_relaxed);
  FlightEvent& e = ring->events[i & (ring->capacity - 1)];
  e.ts_us = Stopwatch::now_us();
  e.name = name;
  e.arg = arg;
  e.kind = kind;
  // Publish after the payload so the dumper never counts a slot it cannot
  // at least partially read (teared payloads are accepted, absent ones not).
  ring->head.store(i + 1, std::memory_order_release);
}

std::string flight_dump_string(int signal) {
  StringSink sink;
  dump_impl(sink, signal);
  return std::move(sink.out);
}

bool write_flight_dump(const std::string& path, int signal) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  flight_dump_to_fd(fd, signal);
  ::close(fd);
  return true;
}

void flight_dump_to_fd(int fd, int signal) {
  FdSink sink(fd);
  dump_impl(sink, signal);
}

void flight_reset() {
  std::size_t nrings = g_ring_count.load(std::memory_order_relaxed);
  if (nrings > kFlightMaxThreads) nrings = kFlightMaxThreads;
  for (std::size_t i = 0; i < nrings; ++i) {
    FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t j = 0; j < ring->capacity; ++j) {
      ring->events[j] = FlightEvent{};
    }
    ring->head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace ais::obs
