// Content-addressed schedule cache: memoization in front of the Lookahead
// solver, with cross-trace reuse and an optional on-disk tier.
//
// A scheduling instance — one whole schedule_trace() run: the dependence DAG
// restricted to the trace's nodes, their latencies and block positions, the
// machine shape, the window W and the algorithm switches — is serialized
// into a canonical key; the cache maps that key to the solver's result so an
// identical trace (the same file recompiled, the same body sent to aisd
// again, a monotone relabeling of it reached through another CFG path)
// skips the entire Lookahead solve and replays the stored answer.
//
// Canonical form and the byte-identity contract
// ---------------------------------------------
// Keys are *dense-id serializations*: the instance's nodes are compacted in
// ascending caller-id order to dense ids 0..n-1, names are dropped
// (scheduling is name-independent; renamed registers reuse each other's
// schedules), and edges are sorted.  Two instances produce equal keys
// exactly when one is a monotone relabeling of the other — and the solver
// breaks every tie by ascending node id, so it is equivariant under
// monotone relabelings: replaying a cached schedule through the key's
// dense→caller id map is byte-identical to a fresh solve.  (Serving hits
// across *non*-monotone isomorphic relabelings would not be: equal-rank
// nodes tie-break by id, and the relabeling can swap them.)  The key's
// *hash* is a plain hash of its bytes; it picks the shard, the bucket and
// the disk file name, and full-key equality — never the hash — decides
// reuse.  See docs/CACHING.md.
//
// Counters are part of the contract: a hit replays the counter deltas the
// original solve recorded (obs::CounterRecorder), so `aisc --profile` and
// the differential tests see identical numbers with the cache on or off —
// only the `cache.*` counters themselves differ.
//
// There is one entry kind, the whole trace ('T'): order, diagnostics and
// counter deltas of one schedule_trace() result.  Single Lookahead
// iterations are not cached: a per-iteration level hit on no measured
// workload, yet cost a key build, a certificate and an insert per block
// (docs/CACHING.md).
//
// Every entry carries a self-contained dependence certificate — the stored
// order is checked against the key's own edge list at insert and again on
// every disk load.  (The deeper optimality certificates live in src/verify,
// which *links against* this library; the driver's --verify path re-checks
// cached schedules with the full oracle, uncached.)
//
// Concurrency: the in-memory tier is a 16-shard, mutex-striped LRU, safe
// under ThreadPool parallel trace compilation; the disk tier uses atomic
// temp-file + rename writes and validates header, versions, key bytes and
// the certificate on load, so a torn or stale file degrades to a miss.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/depgraph.hpp"
#include "graph/nodeset.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"

namespace ais {

/// Bump when any scheduling algorithm changes observable output: it is
/// serialized into every key, so stale disk (and in-memory) entries of an
/// older scheduler can never be served.
/// v2: Move_Idle_Slot's failure guards changed the recorded counter deltas
/// (move_idle.pruned; fewer deadline caps and incremental rank passes).
/// v3: the saturated-cycle guard and the lazily built Delay_Idle_Slots
/// session dropped rank runs and deadline caps from the recorded deltas,
/// and move_idle.pruned split into one counter per guard.
inline constexpr std::uint32_t kScheduleCacheAlgoVersion = 3;
/// Bump when the key or value serialization layout changes.
/// v3: values grew per-name histogram sample lists (value_samples).
/// v4: the key prefix lost its 8-byte Merge fill-depth cap field.
/// v5: the step ('S') entry kind is gone; 'T' is the only key kind.
/// v6: counter deltas and histogram samples are keyed by their obs ids,
/// not by name.
/// v7: the key hash (disk file name and header field) hashes the key bytes,
/// and the obs id tables lost four ids.
inline constexpr std::uint32_t kScheduleCacheFormatVersion = 7;

/// A canonical scheduling-instance key plus the remap table for its hits.
struct CacheKey {
  /// Dense serialization; key equality is bytes equality.
  std::string bytes;
  /// std::hash<std::string_view> of `bytes`: the same in every process of
  /// one build, so it can name disk files.  Shard, bucket and file name
  /// only; equality never reads it.
  std::uint64_t hash = 0;
  /// Dense id -> caller NodeId (ascending).  Not part of equality: two
  /// equal keys may map onto different caller ids — that is the reuse.
  std::vector<NodeId> ids;
};

/// Scalar context shared by every instance of one schedule_trace() run.
struct CacheInstanceParams {
  const MachineModel* machine = nullptr;
  int window = 0;
  Time huge = 0;
  bool delay_idle = true;
  bool merge_deadline_caps = true;
  bool do_chop = true;
  bool split_long_ops = false;
  /// RankOptions::tie_break, indexed by caller NodeId; empty = id order.
  const std::vector<int>* tie_break = nullptr;
};

/// One whole schedule_trace() outcome, in dense ids.
struct TraceCacheValue {
  std::vector<std::uint32_t> order;        // planning permutation, dense
  std::vector<Time> merged_makespans;      // LookaheadDiagnostics
  std::uint64_t prefixes_emitted = 0;
  /// What the original solve counted and sampled (obs::CounterRecorder),
  /// replayed on hits.  Only ids that replay are ever recorded: cache
  /// traffic and wall-clock histograms describe the run, not the schedule.
  obs::CounterDeltas counter_deltas;
  obs::ValueSamples value_samples;
};

/// Key for a whole trace: `blocks` in iteration order over `g`.  One flat
/// pass: the bytes are sized once and written in place, and the edge sort
/// is skipped when `g` already lists the induced edges in key order (every
/// graph build_trace_graph makes does).
CacheKey build_trace_key(const DepGraph& g, const std::vector<NodeSet>& blocks,
                         const CacheInstanceParams& params);

class ScheduleCache {
 public:
  explicit ScheduleCache(std::size_t capacity_bytes = kDefaultCapacityBytes);
  ~ScheduleCache();
  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// The process-wide cache used by schedule_trace().  First use reads the
  /// environment: AIS_CACHE=0 disables it, AIS_CACHE_DIR sets the disk tier.
  static ScheduleCache& global();

  /// The global cache if it should serve the calling thread right now —
  /// nullptr when disabled or bypassed.  Lookahead's single entry check.
  static ScheduleCache* active();

  /// RAII thread-local bypass: benchmarks measuring the raw solver and the
  /// differential tests' reference passes run under one of these.
  class ScopedBypass {
   public:
    ScopedBypass();
    ~ScopedBypass();
    ScopedBypass(const ScopedBypass&) = delete;
    ScopedBypass& operator=(const ScopedBypass&) = delete;
  };

  void set_enabled(bool on);
  bool enabled() const;

  /// Directory of the persistent tier; empty disables it.  Created on first
  /// write.  Entries are validated (versions, key bytes, certificate) on
  /// load, so a foreign or corrupt file is just a miss.
  void set_disk_dir(std::string dir);

  /// Writes every queued disk entry and stops the background flusher (it
  /// restarts on the next queued write).  Called on daemon shutdown and
  /// before a tool reports its counters; registered via atexit for the
  /// global cache so entries written late in a process's life still land
  /// on disk.
  void flush_disk();

  /// Drops every in-memory entry (the disk tier is untouched).  Tests use
  /// this to make hit/miss sequences deterministic.
  void clear();

  std::optional<TraceCacheValue> lookup_trace(const CacheKey& key);
  void insert_trace(const CacheKey& key, const TraceCacheValue& value);

  /// Total in-memory budget, split evenly across the shards; inserting past
  /// a shard's share evicts its least-recently-used entries (counter
  /// cache.evictions).
  static constexpr std::size_t kDefaultCapacityBytes = 64u << 20;

 private:
  struct Impl;
  /// Raw serialized-value lookup/insert/erase.  lookup_bytes consults
  /// memory, then disk; *from_disk tells the caller whether the bytes still
  /// need certification and in-memory promotion.  insert_bytes queues a
  /// disk write (when `write_disk` and a directory is set) only if memory
  /// did not already hold the key.
  std::optional<std::string> lookup_bytes(const CacheKey& key,
                                          bool* from_disk);
  void insert_bytes(const CacheKey& key, std::string value, bool write_disk);
  void erase_bytes(const CacheKey& key);

  std::unique_ptr<Impl> impl_;
};

}  // namespace ais
