// Always-on crash flight recorder: per-thread fixed ring buffers of recent
// trace events, dumped post-mortem by SIGSEGV/SIGABRT/SIGBUS handlers.
//
// Compiled in under AIS_OBS like every other hook; enabled at run time by
// AIS_FLIGHT_RECORDER=1 (or set_flight_enabled) — independently of
// obs::enabled(), so a production process can fly with counters off and
// rings on.  While enabled, every obs::Span writes a begin ('B') and end
// ('E') event into its thread's ring, and code can add point events with
// flight_record(); a disabled site costs one relaxed atomic load.
//
// Ring discipline: one fixed-size ring per thread (default 256 entries,
// AIS_FLIGHT_RING up to 65536), allocated on the thread's first event and
// leaked — the crash handler may fire on any thread at any time, so rings
// are never freed or shrunk.  Entries hold {timestamp µs, name pointer,
// arg, kind}: names must be string literals (the handler reads them
// asynchronously from the crashing thread).
//
// Signal safety is best-effort by design: the handler walks a lock-free
// fixed table of ring pointers, formats with snprintf into stack buffers,
// and write()s straight to an fd; the counter and histogram sections
// try_lock the metric registry and are skipped when contended.  Entries being
// overwritten mid-crash can tear — a torn line in a post-mortem beats a
// deadlocked handler.  After dumping, the handler re-raises with the
// default disposition (SA_RESETHAND), so exit codes and core dumps behave
// exactly as without the recorder.  See docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string>

namespace ais::obs {

inline constexpr std::size_t kFlightRingDefaultEntries = 256;
inline constexpr std::size_t kFlightRingMaxEntries = 65536;
/// Rings beyond this many threads drop their events (never the process).
inline constexpr std::size_t kFlightMaxThreads = 256;

/// One relaxed atomic load.
bool flight_enabled();

/// First enable installs the SIGSEGV/SIGABRT/SIGBUS handlers (once per
/// process; they stay installed after a disable — an installed handler
/// with the recorder off just dumps empty rings).
void set_flight_enabled(bool on);

/// Reads AIS_FLIGHT_RECORDER (any value but ""/"0" enables),
/// AIS_FLIGHT_RING (entries per ring, clamped to a power of two in
/// [16, kFlightRingMaxEntries]) and AIS_FLIGHT_DIR (dump directory).
/// Called by obs::init_from_env().
void flight_init_from_env();

/// Directory crash dumps are written to; empty (default) = CWD.  Dump
/// files are named ais-crash-<pid>-<epoch-seconds>.dump.
void set_flight_dir(const std::string& dir);
std::string flight_dir();

/// Entries per ring for rings created after this call (existing rings keep
/// their size).  Rounded down to a power of two, clamped to
/// [16, kFlightRingMaxEntries].
void set_flight_ring_entries(std::size_t entries);

/// Appends one event to the calling thread's ring (no-op while disabled).
/// `name` MUST be a string literal or otherwise immortal.  kind: 'B' span
/// begin, 'E' span end, 'P' point event.
void flight_record(const char* name, char kind, std::uint64_t arg = 0);

/// The merged dump as a string — rings in thread order (oldest event
/// first), the counter snapshot, and histogram quantiles.  Ordinary
/// locking code for tests and deliberate dumps; the crash path uses
/// flight_dump_to_fd.
std::string flight_dump_string(int signal = 0);

/// Same, to a file; returns false when the file cannot be opened.
bool write_flight_dump(const std::string& path, int signal = 0);

/// Async-signal-safe best-effort dump to an open fd (the crash handler's
/// whole body).  Exposed so tests can exercise the exact crash-path code.
void flight_dump_to_fd(int fd, int signal);

/// Clears every ring's contents (tests; not signal-safe).
void flight_reset();

}  // namespace ais::obs
