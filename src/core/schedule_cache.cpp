#include "core/schedule_cache.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <list>
#include <map>
#include <mutex>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/arena.hpp"
#include "support/assert.hpp"
#include "support/mutex.hpp"
#include "support/stopwatch.hpp"

namespace ais {
namespace {

// --- byte-buffer serialization (native-endian; keys and values never leave
// --- the machine except through the disk tier, whose header is validated
// --- byte-for-byte, so a foreign-endian file is simply a miss) ------------

template <typename T>
void put_raw(std::string& b, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  b.append(buf, sizeof(T));
}

void put_u32(std::string& b, std::uint32_t v) { put_raw(b, v); }
void put_u64(std::string& b, std::uint64_t v) { put_raw(b, v); }
void put_i64(std::string& b, std::int64_t v) { put_raw(b, v); }

/// Bounds-checked forward reader over a byte string.  Every accessor
/// returns a zero value once ok() has gone false, so a truncated buffer
/// cannot walk past the end — callers check ok() after a parse, not after
/// every field.
class Reader {
 public:
  explicit Reader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && p_ == end_; }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }

  std::string_view bytes(std::size_t n) {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) {
      ok_ = false;
      return {};
    }
    std::string_view v(p_, n);
    p_ += n;
    return v;
  }

 private:
  template <typename T>
  T get() {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

// --- hashing --------------------------------------------------------------

/// splitmix64 finalizer: the bijective mixer every label and accumulator
/// goes through, so commutative sums of mixed values stay well-distributed.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over raw bytes; seeds the structural hash with the scalar
/// (node-id-free) prefix of the key.
std::uint64_t hash_bytes(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kInSalt = 0x8e2a4f7d9c1b3e55ULL;
constexpr std::uint64_t kOutSalt = 0x41c64e6da3b59f21ULL;
constexpr char kTraceKind = 'T';
constexpr std::uint32_t kNoBlock = 0xffffffffU;

/// Flag bits of the key prefix's `flags` byte.
constexpr std::uint8_t kFlagDelayIdle = 1U << 0U;
constexpr std::uint8_t kFlagMergeCaps = 1U << 1U;
constexpr std::uint8_t kFlagDoChop = 1U << 2U;
constexpr std::uint8_t kFlagSplitLongOps = 1U << 3U;
constexpr std::uint8_t kFlagHasTie = 1U << 4U;

/// One node of the dense instance, attributes only — ids are positional.
struct DenseNode {
  std::uint32_t exec = 0;
  std::uint32_t fu = 0;
  std::uint32_t block_pos = 0;
  std::int64_t tie = 0;  // when the instance has a tie-break vector
};

struct DenseEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t latency = 0;
};

/// The Weisfeiler–Leman-style structural hash: per-node labels from local
/// attributes, refined by two rounds of commutative in/out-neighborhood
/// accumulation, folded into an order-independent digest.  Invariant under
/// any isomorphic relabeling of the dense instance (sums and xors commute;
/// nothing reads a node's positional id).
std::uint64_t wl_hash(std::uint64_t seed, bool has_tie, const DenseNode* nodes,
                      std::size_t n, const DenseEdge* edges, std::size_t m,
                      Arena& scratch) {
  std::uint64_t* cur = scratch.alloc_array<std::uint64_t>(n);
  std::uint64_t* nxt = scratch.alloc_array<std::uint64_t>(n);
  std::uint64_t* in_acc = scratch.alloc_array<std::uint64_t>(n);
  std::uint64_t* out_acc = scratch.alloc_array<std::uint64_t>(n);

  for (std::size_t v = 0; v < n; ++v) {
    const DenseNode& node = nodes[v];
    std::uint64_t h = mix64(seed ^ ((static_cast<std::uint64_t>(node.exec)
                                     << 32U) |
                                    node.fu));
    h = mix64(h ^ node.block_pos);
    if (has_tie) h = mix64(h ^ static_cast<std::uint64_t>(node.tie));
    cur[v] = h;
  }

  for (int round = 0; round < 2; ++round) {
    std::fill_n(in_acc, n, std::uint64_t{0});
    std::fill_n(out_acc, n, std::uint64_t{0});
    for (std::size_t e = 0; e < m; ++e) {
      const DenseEdge& edge = edges[e];
      const std::uint64_t lat = mix64(edge.latency);
      out_acc[edge.from] += mix64(cur[edge.to] ^ lat ^ kOutSalt);
      in_acc[edge.to] += mix64(cur[edge.from] ^ lat ^ kInSalt);
    }
    for (std::size_t v = 0; v < n; ++v) {
      nxt[v] = mix64(cur[v] + 3 * mix64(in_acc[v]) + 5 * mix64(out_acc[v]));
    }
    std::swap(cur, nxt);
  }

  std::uint64_t sum = 0;
  std::uint64_t xored = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t h = mix64(cur[v]);
    sum += h;
    xored ^= h;
  }
  return mix64(seed ^ sum) ^
         mix64(xored + (static_cast<std::uint64_t>(n) << 32U) + m);
}

/// Per-thread scratch for key building and hashing; reset at every use, so
/// it converges on the peak instance size and stops allocating.
Arena& key_scratch() {
  thread_local Arena arena;
  return arena;
}

// --- key serialization ----------------------------------------------------

std::uint8_t flags_of(const CacheInstanceParams& params, bool has_tie) {
  std::uint8_t flags = 0;
  if (params.delay_idle) flags |= kFlagDelayIdle;
  if (params.merge_deadline_caps) flags |= kFlagMergeCaps;
  if (params.do_chop) flags |= kFlagDoChop;
  if (params.split_long_ops) flags |= kFlagSplitLongOps;
  if (has_tie) flags |= kFlagHasTie;
  return flags;
}

/// Fixed-width field writer over storage the caller sized in advance: the
/// key builder computes the exact key length first, so writing a field is a
/// memcpy and a bump, with no capacity check or reallocation.
class Writer {
 public:
  explicit Writer(char* p) : p_(p) {}

  template <typename T>
  void put(T v) {
    std::memcpy(p_, &v, sizeof(T));
    p_ += sizeof(T);
  }

  const char* pos() const { return p_; }

 private:
  char* p_;
};

/// Length of the scalar, node-id-free key prefix (everything before the
/// `n` field): kind + versions, machine shape, timing table, window, huge,
/// flags and the raw block count.  The structural hash is seeded with it.
std::size_t prefix_length(std::uint32_t num_classes) {
  std::size_t len = 1 + 4 + 4;                       // kind + versions
  len += 4 + 4 + 4ULL * num_classes;                 // machine shape
  len += 4 + 12ULL * kNumOpClasses;                  // timing table
  len += 8 + 8 + 1;                                  // window, huge, flags
  len += 4;                                          // block count
  return len;
}

/// Writes the scalar prefix: kind, versions, the machine fingerprint (shape
/// and full timing table; names are dropped — scheduling is
/// name-independent), window, huge horizon, the algorithm switches and the
/// trace's raw block count.
void write_prefix(Writer& w, const CacheInstanceParams& params, bool has_tie,
                  std::size_t num_blocks) {
  w.put(static_cast<std::uint8_t>(kTraceKind));
  w.put(kScheduleCacheFormatVersion);
  w.put(kScheduleCacheAlgoVersion);
  const MachineModel& machine = *params.machine;
  w.put(static_cast<std::uint32_t>(machine.issue_width()));
  w.put(static_cast<std::uint32_t>(machine.num_fu_classes()));
  for (const FuClassInfo& fu : machine.fu_classes()) {
    w.put(static_cast<std::uint32_t>(fu.count));
  }
  w.put(static_cast<std::uint32_t>(kNumOpClasses));
  for (std::size_t cls = 0; cls < kNumOpClasses; ++cls) {
    const OpTiming& t = machine.timing(static_cast<OpClass>(cls));
    w.put(static_cast<std::uint32_t>(t.fu_class));
    w.put(static_cast<std::uint32_t>(t.exec_time));
    w.put(static_cast<std::uint32_t>(t.latency));
  }
  w.put(static_cast<std::int64_t>(params.window));
  w.put(static_cast<std::int64_t>(params.huge));
  w.put(flags_of(params, has_tie));
  w.put(static_cast<std::uint32_t>(num_blocks));
}

bool params_have_tie(const CacheInstanceParams& params) {
  return params.tie_break != nullptr && !params.tie_break->empty();
}

std::int64_t tie_value(const CacheInstanceParams& params, NodeId id) {
  if (id < params.tie_break->size()) return (*params.tie_break)[id];
  return static_cast<std::int64_t>(id);
}

/// (from, to, latency) order: the order key edges are serialized in.
bool edge_less(const DenseEdge& a, const DenseEdge& b) {
  if (a.from != b.from) return a.from < b.from;
  if (a.to != b.to) return a.to < b.to;
  return a.latency < b.latency;
}

/// Decoded form of a key's node/edge sections, for certification and for
/// recomputing the structural hash in tests.
struct DecodedKey {
  bool has_tie = false;
  std::size_t num_nodes = 0;
  std::vector<DenseNode> nodes;
  std::vector<DenseEdge> edges;
};

/// Sanity cap on node/edge counts read from (possibly corrupt) disk bytes.
constexpr std::uint32_t kMaxDecodedCount = 1U << 26U;

bool decode_key(std::string_view bytes, DecodedKey& out) {
  Reader r(bytes);
  if (r.u8() != static_cast<std::uint8_t>(kTraceKind)) return false;
  if (r.u32() != kScheduleCacheFormatVersion) return false;
  if (r.u32() != kScheduleCacheAlgoVersion) return false;
  r.u32();  // issue width
  const std::uint32_t num_classes = r.u32();
  if (!r.ok() || num_classes > kMaxDecodedCount) return false;
  for (std::uint32_t i = 0; i < num_classes; ++i) r.u32();
  const std::uint32_t num_timings = r.u32();
  if (!r.ok() || num_timings != kNumOpClasses) return false;
  for (std::uint32_t i = 0; i < 3 * num_timings; ++i) r.u32();
  r.i64();  // window
  r.i64();  // huge
  const std::uint8_t flags = r.u8();
  out.has_tie = (flags & kFlagHasTie) != 0;
  r.u32();  // raw block count

  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxDecodedCount) return false;
  out.num_nodes = n;
  out.nodes.assign(n, DenseNode{});
  for (DenseNode& node : out.nodes) {
    node.exec = r.u32();
    node.fu = r.u32();
    node.block_pos = r.u32();
  }
  if (out.has_tie) {
    for (DenseNode& node : out.nodes) node.tie = r.i64();
  }
  const std::uint32_t m = r.u32();
  if (!r.ok() || m > kMaxDecodedCount) return false;
  out.edges.assign(m, DenseEdge{});
  for (DenseEdge& edge : out.edges) {
    edge.from = r.u32();
    edge.to = r.u32();
    edge.latency = r.u32();
    if (edge.from >= n || edge.to >= n) return false;
  }
  return r.at_end();
}

// --- certification --------------------------------------------------------

/// True iff `order` (dense ids) is a permutation of 0..n-1 that places
/// every edge's source before its sink.  O(n + m); the only property a
/// consumer needs for memory safety and for the tail-end AIS_CHECKs of
/// schedule_trace to pass.
bool order_respects_key(const DecodedKey& dk,
                        const std::vector<std::uint32_t>& order) {
  const std::size_t n = dk.num_nodes;
  if (order.size() != n) return false;
  std::vector<std::uint32_t> pos(n, kNoBlock);
  std::uint32_t next = 0;
  for (const std::uint32_t v : order) {
    if (v >= n || pos[v] != kNoBlock) return false;
    pos[v] = next++;
  }
  for (const DenseEdge& e : dk.edges) {
    if (pos[e.from] >= pos[e.to]) return false;
  }
  return true;
}

bool certify_trace(const CacheKey& key, const TraceCacheValue& value) {
  DecodedKey dk;
  if (!decode_key(key.bytes, dk)) return false;
  if (!key.ids.empty() && key.ids.size() != dk.num_nodes) return false;
  return order_respects_key(dk, value.order);
}

// --- value serialization --------------------------------------------------

/// Values store obs counter and histogram ids, and an id is a position in
/// the name-ordered obs::ctr / obs::hist tables, so adding, removing or
/// renaming an entry changes what a stored id means.  This FNV-1a digest of
/// both tables' names pins them: when it fails, bump
/// kScheduleCacheFormatVersion and pin the new digest.
constexpr std::uint64_t obs_id_digest() {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::string_view name) {
    for (const char c : name) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    h *= 0x100000001b3ULL;  // a NUL after each name
  };
  for (const obs::MetricInfo& info : obs::ctr::kInfo) mix(info.name);
  for (const obs::MetricInfo& info : obs::hist::kInfo) mix(info.name);
  return h;
}
static_assert(obs_id_digest() == 0x62b8bbc2feffdef5ULL,
              "the obs id tables changed: bump kScheduleCacheFormatVersion");

void put_u32_vec(std::string& b, const std::vector<std::uint32_t>& v) {
  put_u32(b, static_cast<std::uint32_t>(v.size()));
  for (const std::uint32_t x : v) put_u32(b, x);
}

void put_time_vec(std::string& b, const std::vector<Time>& v) {
  put_u32(b, static_cast<std::uint32_t>(v.size()));
  for (const Time x : v) put_i64(b, x);
}

void put_counters(std::string& b, const obs::CounterDeltas& deltas) {
  put_u32(b, static_cast<std::uint32_t>(deltas.size()));
  for (const auto& [id, delta] : deltas) {
    put_u32(b, id);
    put_u64(b, delta);
  }
}

bool read_u32_vec(Reader& r, std::vector<std::uint32_t>& v) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxDecodedCount) return false;
  v.assign(n, 0);
  for (std::uint32_t& x : v) x = r.u32();
  return r.ok();
}

bool read_time_vec(Reader& r, std::vector<Time>& v) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxDecodedCount) return false;
  v.assign(n, 0);
  for (Time& x : v) x = r.i64();
  return r.ok();
}

bool read_counters(Reader& r, obs::CounterDeltas& deltas) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > obs::ctr::kCount) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t id = r.u32();
    const std::uint64_t delta = r.u64();
    if (!r.ok() || id >= obs::ctr::kCount) return false;
    deltas.emplace_back(static_cast<obs::ctr::Id>(id), delta);
  }
  return true;
}

void put_samples(std::string& b, const obs::ValueSamples& samples) {
  put_u32(b, static_cast<std::uint32_t>(samples.size()));
  for (const auto& [id, values] : samples) {
    put_u32(b, id);
    put_u32(b, static_cast<std::uint32_t>(values.size()));
    for (const std::uint64_t v : values) put_u64(b, v);
  }
}

bool read_samples(Reader& r, obs::ValueSamples& samples) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > obs::hist::kCount) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t id = r.u32();
    const std::uint32_t count = r.u32();
    if (!r.ok() || id >= obs::hist::kCount || count > kMaxDecodedCount) {
      return false;
    }
    std::vector<std::uint64_t> values(count, 0);
    for (std::uint64_t& v : values) v = r.u64();
    if (!r.ok()) return false;
    samples.emplace_back(static_cast<obs::hist::Id>(id), std::move(values));
  }
  return true;
}

std::string encode_trace_value(const TraceCacheValue& v) {
  std::string b;
  put_u32_vec(b, v.order);
  put_time_vec(b, v.merged_makespans);
  put_u64(b, v.prefixes_emitted);
  put_counters(b, v.counter_deltas);
  put_samples(b, v.value_samples);
  return b;
}

bool decode_trace_value(std::string_view bytes, TraceCacheValue& v) {
  Reader r(bytes);
  if (!read_u32_vec(r, v.order)) return false;
  if (!read_time_vec(r, v.merged_makespans)) return false;
  v.prefixes_emitted = r.u64();
  if (!read_counters(r, v.counter_deltas)) return false;
  if (!read_samples(r, v.value_samples)) return false;
  return r.at_end();
}

// --- disk tier ------------------------------------------------------------

constexpr char kDiskMagic[4] = {'A', 'I', 'S', 'C'};

std::string disk_file_name(std::uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx.aisc",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::optional<std::string> disk_load(const std::string& dir,
                                     const CacheKey& key) {
  const std::filesystem::path path =
      std::filesystem::path(dir) / disk_file_name(key.hash);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;

  Reader r(blob);
  const std::string_view magic = r.bytes(sizeof kDiskMagic);
  if (!r.ok() || std::memcmp(magic.data(), kDiskMagic, sizeof kDiskMagic) != 0)
    return std::nullopt;
  if (r.u32() != kScheduleCacheFormatVersion) return std::nullopt;
  if (r.u32() != kScheduleCacheAlgoVersion) return std::nullopt;
  if (r.u64() != key.hash) return std::nullopt;
  const std::uint64_t key_size = r.u64();
  if (!r.ok() || key_size != key.bytes.size()) return std::nullopt;
  const std::string_view key_bytes = r.bytes(key_size);
  if (!r.ok() || key_bytes != key.bytes) return std::nullopt;
  const std::uint64_t value_size = r.u64();
  const std::string_view value = r.bytes(value_size);
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return std::string(value);
}

/// Atomic publish: write a unique temp file, then rename over the final
/// name.  A reader never sees a torn file; a lost race just rewrites the
/// same (deterministic) bytes.  Returns false when any step fails — the
/// cache degrades to memory-only for that entry.
bool disk_store(const std::string& dir, const CacheKey& key,
                const std::string& value, std::uint64_t seq) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);

  std::string blob;
  blob.reserve(40 + key.bytes.size() + value.size());
  blob.append(kDiskMagic, sizeof kDiskMagic);
  put_u32(blob, kScheduleCacheFormatVersion);
  put_u32(blob, kScheduleCacheAlgoVersion);
  put_u64(blob, key.hash);
  put_u64(blob, key.bytes.size());
  blob.append(key.bytes);
  put_u64(blob, value.size());
  blob.append(value);

  const std::uint64_t nonce =
      mix64(seq ^ static_cast<std::uint64_t>(
                      std::chrono::steady_clock::now().time_since_epoch()
                          .count()));
  char tmp_name[64];
  std::snprintf(tmp_name, sizeof tmp_name, ".tmp-%016llx-%016llx",
                static_cast<unsigned long long>(key.hash),
                static_cast<unsigned long long>(nonce));
  const fs::path tmp = fs::path(dir) / tmp_name;
  const fs::path final_path = fs::path(dir) / disk_file_name(key.hash);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, final_path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

thread_local int t_bypass_depth = 0;

}  // namespace

// --- key builder ----------------------------------------------------------

CacheKey build_trace_key(const DepGraph& g, const std::vector<NodeSet>& blocks,
                         const CacheInstanceParams& params) {
  AIS_CHECK(params.machine != nullptr, "cache key needs a machine model");
  CacheKey key;
  Arena& scratch = key_scratch();
  scratch.reset();

  // Block position of every member (its first block), straight from the
  // sets' bits.
  const std::size_t domain = g.num_nodes();
  std::uint32_t* block_pos = scratch.alloc_array<std::uint32_t>(domain);
  std::fill_n(block_pos, domain, kNoBlock);
  std::size_t n = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto pos = static_cast<std::uint32_t>(b);
    blocks[b].bits().for_each([&](std::size_t id) {
      if (block_pos[id] == kNoBlock) {
        block_pos[id] = pos;
        ++n;
      }
    });
  }

  // Dense ids in ascending caller-id order, with each node's attributes.
  const bool has_tie = params_have_tie(params);
  const std::span<const std::int32_t> exec = g.exec_times();
  const std::span<const std::int32_t> fu = g.fu_classes();
  std::uint32_t* dense_of = scratch.alloc_array<std::uint32_t>(domain);
  DenseNode* nodes = scratch.alloc_array<DenseNode>(n);
  key.ids.reserve(n);
  for (NodeId id = 0; id < domain; ++id) {
    if (block_pos[id] == kNoBlock) continue;
    const auto v = static_cast<std::uint32_t>(key.ids.size());
    dense_of[id] = v;
    key.ids.push_back(id);
    DenseNode& node = nodes[v];
    node.exec = static_cast<std::uint32_t>(exec[id]);
    node.fu = static_cast<std::uint32_t>(fu[id]);
    node.block_pos = block_pos[id];
    node.tie = has_tie ? tie_value(params, id) : 0;
  }

  // Induced loop-independent edges in dense ids.  They are usually already
  // in (from, to, latency) order — build_trace_graph emits them that way —
  // so the sort runs only when an inversion is seen.
  DenseEdge* edges = scratch.alloc_array<DenseEdge>(g.num_edges());
  std::size_t m = 0;
  bool sorted = true;
  for (const DepEdge& e : g.edges()) {
    if (e.distance != 0) continue;
    if (block_pos[e.from] == kNoBlock || block_pos[e.to] == kNoBlock) continue;
    edges[m] = DenseEdge{dense_of[e.from], dense_of[e.to],
                         static_cast<std::uint32_t>(e.latency)};
    if (m > 0 && edge_less(edges[m], edges[m - 1])) sorted = false;
    ++m;
  }
  if (!sorted) std::sort(edges, edges + m, edge_less);

  // Serialize: prefix, nodes, tie values, edges — sized once, written in
  // place.
  const std::size_t prefix = prefix_length(
      static_cast<std::uint32_t>(params.machine->num_fu_classes()));
  key.bytes.resize(prefix + 4 + 12 * n + (has_tie ? 8 * n : 0) + 4 + 12 * m);
  Writer w(key.bytes.data());
  write_prefix(w, params, has_tie, blocks.size());
  w.put(static_cast<std::uint32_t>(n));
  for (std::size_t v = 0; v < n; ++v) {
    w.put(nodes[v].exec);
    w.put(nodes[v].fu);
    w.put(nodes[v].block_pos);
  }
  if (has_tie) {
    for (std::size_t v = 0; v < n; ++v) w.put(nodes[v].tie);
  }
  w.put(static_cast<std::uint32_t>(m));
  for (std::size_t e = 0; e < m; ++e) {
    w.put(edges[e].from);
    w.put(edges[e].to);
    w.put(edges[e].latency);
  }
  AIS_CHECK(w.pos() == key.bytes.data() + key.bytes.size(),
            "trace key length drifted from its layout");

  const std::uint64_t seed =
      hash_bytes(std::string_view(key.bytes.data(), prefix));
  key.hash = wl_hash(seed, has_tie, nodes, n, edges, m, scratch);
  return key;
}

std::uint64_t structural_hash(const CacheKey& key) {
  DecodedKey dk;
  AIS_CHECK(decode_key(key.bytes, dk), "structural_hash: undecodable key");
  // Recover the seed the builder used: the hash of the scalar prefix.
  std::uint32_t num_classes = 0;
  {
    Reader r(key.bytes);
    r.u8();
    r.u32();
    r.u32();
    r.u32();
    num_classes = r.u32();
  }
  const std::size_t prefix = prefix_length(num_classes);
  const std::uint64_t seed =
      hash_bytes(std::string_view(key.bytes.data(), prefix));
  Arena& scratch = key_scratch();
  scratch.reset();
  return wl_hash(seed, dk.has_tie, dk.nodes.data(), dk.nodes.size(),
                 dk.edges.data(), dk.edges.size(), scratch);
}

// --- the cache ------------------------------------------------------------

struct ScheduleCache::Impl {
  /// Owned key: the map node keeps `bytes` and `hash` at stable addresses
  /// (unordered_map is node-based), so the LRU list stores key pointers.
  struct StoredKey {
    std::string bytes;
    std::uint64_t hash = 0;
  };
  struct KeyView {
    std::string_view bytes;
    std::uint64_t hash = 0;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const StoredKey& k) const { return k.hash; }
    std::size_t operator()(const KeyView& k) const { return k.hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const StoredKey& a, const StoredKey& b) const {
      return a.bytes == b.bytes;
    }
    bool operator()(const StoredKey& a, const KeyView& b) const {
      return a.bytes == b.bytes;
    }
    bool operator()(const KeyView& a, const StoredKey& b) const {
      return a.bytes == b.bytes;
    }
  };
  struct Entry {
    std::string value;
    std::list<const StoredKey*>::iterator lru_it;
  };
  struct Shard {
    Mutex mu;
    std::unordered_map<StoredKey, Entry, KeyHash, KeyEq> map
        AIS_GUARDED_BY(mu);
    std::list<const StoredKey*> lru
        AIS_GUARDED_BY(mu);  // front = most recently used
    std::size_t bytes AIS_GUARDED_BY(mu) = 0;
  };

  /// Fixed per-entry overhead charged against the byte budget (map node,
  /// list node, string headers) on top of the actual key/value bytes.
  static constexpr std::size_t kEntryOverhead = 128;

  /// Shard is immovable (Mutex), so a runtime-sized shard array lives
  /// behind unique_ptr<Shard[]>.  num_shards is a power of two, written
  /// only under external quiescence (set_shard_count's contract).
  std::size_t num_shards = kNumShards;
  std::unique_ptr<Shard[]> shards = std::make_unique<Shard[]>(kNumShards);
  std::atomic<bool> enabled{true};
  std::atomic<std::size_t> capacity{kDefaultCapacityBytes};
  mutable Mutex dir_mu;
  std::string dir AIS_GUARDED_BY(dir_mu);
  std::atomic<std::uint64_t> tmp_seq{0};

  // --- disk-write coalescing (background flusher) -----------------------
  //
  // insert_bytes queues disk writes here instead of writing inline; the
  // flusher thread (started lazily on the first queued write) drains the
  // map in batches after a short gather delay, so the compile never waits
  // on the file system, and a burst of inserts of the same key — daemon
  // tenants or cfg-mode traces compiling one body at the same time —
  // costs one file write instead of N (counter cache.disk_write_coalesced
  // tracks the writes saved).  disk_store's atomic tmp+rename publish is
  // unchanged.  flush_disk() / the destructor stop the thread and drain.
  struct PendingWrite {
    std::uint64_t hash = 0;
    std::string value;
  };
  Mutex flush_mu;
  CondVar flush_cv;
  std::map<std::string, PendingWrite, std::less<>> pending
      AIS_GUARDED_BY(flush_mu);  // keyed by key bytes (dedup = coalescing)
  bool flusher_running AIS_GUARDED_BY(flush_mu) = false;
  bool flusher_exit AIS_GUARDED_BY(flush_mu) = false;
  std::thread flusher_thread AIS_GUARDED_BY(flush_mu);
  std::mutex flusher_lifecycle_mu;  // serializes stop_flusher callers

  /// Gather delay before a batch is written: long enough to coalesce
  /// concurrent inserts of one trace, short enough to be invisible next to
  /// a single solve.
  static constexpr std::chrono::microseconds kFlushDelay{2000};

#if AIS_OBS_ENABLED
  // Per-shard labeled latency metrics, registered once at construction so
  // the hot paths only touch the cached handles (registrations are
  // permanent; a second ScheduleCache instance just gets the same handles).
  // Outcome indexes: 0 = hit (memory), 1 = miss, 2 = disk_hit.
  static constexpr int kOutcomeHit = 0;
  static constexpr int kOutcomeMiss = 1;
  static constexpr int kOutcomeDiskHit = 2;
  static constexpr const char* kOutcomeNames[3] = {"hit", "miss", "disk_hit"};
  struct ShardMetrics {
    obs::Counter* requests[3] = {};
    obs::Histogram* lookup_us[3] = {};
  };
  std::vector<ShardMetrics> shard_metrics;  // one per shard
  obs::Histogram* disk_read_us = nullptr;
  obs::Histogram* disk_write_us = nullptr;

  Impl() {
    register_shard_metrics();
    obs::MetricRegistry& reg = obs::MetricRegistry::global();
    disk_read_us = reg.histogram("cache_disk_read_us");
    disk_write_us = reg.histogram("cache_disk_write_us");
  }

  /// (Re)builds the per-shard handle table for the current shard count.
  /// Registrations are permanent, so growing and shrinking just re-resolves
  /// the same series.
  void register_shard_metrics() {
    obs::MetricRegistry& reg = obs::MetricRegistry::global();
    shard_metrics.assign(num_shards, ShardMetrics{});
    for (std::size_t i = 0; i < num_shards; ++i) {
      const std::string shard = std::to_string(i);
      for (int o = 0; o < 3; ++o) {
        shard_metrics[i].requests[o] =
            reg.counter("cache_requests_total", {"shard", shard},
                        {"outcome", kOutcomeNames[o]});
        shard_metrics[i].lookup_us[o] =
            reg.histogram("cache_lookup_us", {"shard", shard},
                          {"outcome", kOutcomeNames[o]});
      }
    }
  }

  /// Books one lookup: outcome counter plus whole-lookup latency, into the
  /// shard the key hashes to.  start_us < 0 means telemetry was disabled at
  /// lookup entry — record nothing.
  void note_lookup(std::uint64_t hash, int outcome, std::int64_t start_us) {
    if (start_us < 0) return;
    const std::size_t sh = shard_index(hash);
    shard_metrics[sh].requests[outcome]->add(1);
    shard_metrics[sh].lookup_us[outcome]->record(
        static_cast<std::uint64_t>(Stopwatch::now_us() - start_us));
  }
#else
  Impl() = default;
  void register_shard_metrics() {}
#endif  // AIS_OBS_ENABLED

  ~Impl() { stop_flusher(); }

  std::size_t shard_index(std::uint64_t hash) const {
    // High bits select the shard (top 8 cover kMaxShards); the map's
    // buckets use the full hash.
    return (hash >> 56U) & (num_shards - 1);
  }

  Shard& shard_for(std::uint64_t hash) { return shards[shard_index(hash)]; }

  std::string dir_copy() const {
    MutexLock lock(dir_mu);
    return dir;
  }

  /// Queues one disk write for the flusher, starting it on first use.  A
  /// key already pending is coalesced: values are deterministic, so the
  /// queued bytes already match and one write covers both inserts.
  void queue_disk_write(const CacheKey& key, const std::string& value)
      AIS_EXCLUDES(flush_mu) {
    bool coalesced = false;
    {
      MutexLock lock(flush_mu);
      const auto [it, inserted] = pending.try_emplace(key.bytes);
      if (inserted) {
        it->second.hash = key.hash;
        it->second.value = value;
      } else {
        coalesced = true;
      }
      if (!flusher_running) {
        flusher_running = true;
        flusher_exit = false;
        flusher_thread = std::thread([this] { flusher_loop(); });
      }
      flush_cv.notify_one();
    }
    if (coalesced) AIS_OBS_COUNT(obs::ctr::kCacheDiskWriteCoalesced);
  }

  void flusher_loop() AIS_EXCLUDES(flush_mu) {
    std::map<std::string, PendingWrite, std::less<>> batch;
    for (;;) {
      batch.clear();
      {
        MutexLock lock(flush_mu);
        while (pending.empty() && !flusher_exit) flush_cv.wait(flush_mu);
        if (pending.empty() && flusher_exit) return;
        if (!flusher_exit) {
          // Gather delay: let the burst that woke us finish coalescing.
          flush_cv.wait_for(flush_mu, kFlushDelay);
        }
        batch.swap(pending);
      }
      const std::string dir = dir_copy();
      if (dir.empty()) continue;  // tier turned off with writes in flight
      for (const auto& [bytes, write] : batch) {
        CacheKey key;
        key.bytes = bytes;
        key.hash = write.hash;
#if AIS_OBS_ENABLED
        const std::int64_t start_us =
            obs::enabled() ? Stopwatch::now_us() : -1;
#endif
        const bool stored =
            disk_store(dir, key, write.value,
                       tmp_seq.fetch_add(1, std::memory_order_relaxed));
#if AIS_OBS_ENABLED
        if (start_us >= 0) {
          disk_write_us->record(
              static_cast<std::uint64_t>(Stopwatch::now_us() - start_us));
        }
#endif
        if (stored) AIS_OBS_COUNT(obs::ctr::kCacheDiskWrites);
      }
    }
  }

  /// Stops the flusher after it drains everything pending.  Idempotent;
  /// the next queue_disk_write restarts the thread.
  void stop_flusher() AIS_EXCLUDES(flush_mu) {
    std::lock_guard<std::mutex> lifecycle(flusher_lifecycle_mu);
    std::thread thread;
    {
      MutexLock lock(flush_mu);
      if (!flusher_running) return;
      flusher_exit = true;
      flush_cv.notify_all();
      thread = std::move(flusher_thread);
    }
    thread.join();
    MutexLock lock(flush_mu);
    flusher_running = false;
    flusher_exit = false;
  }
};

ScheduleCache::ScheduleCache(std::size_t capacity_bytes)
    : impl_(std::make_unique<Impl>()) {
  impl_->capacity.store(capacity_bytes, std::memory_order_relaxed);
}

ScheduleCache::~ScheduleCache() = default;

ScheduleCache& ScheduleCache::global() {
  static ScheduleCache* cache = [] {
    auto* c = new ScheduleCache();  // leaked: usable during static teardown
    const char* env = std::getenv("AIS_CACHE");
    if (env != nullptr &&
        (std::string_view(env) == "0" || std::string_view(env) == "off")) {
      c->set_enabled(false);
    }
    const char* dir = std::getenv("AIS_CACHE_DIR");
    if (dir != nullptr && dir[0] != '\0') c->set_disk_dir(dir);
    const char* shards = std::getenv("AIS_CACHE_SHARDS");
    if (shards != nullptr && shards[0] != '\0') {
      c->set_shard_count(
          static_cast<std::size_t>(std::strtoul(shards, nullptr, 10)));
    }
    // Disk writes are coalesced through a background flusher; drain it at
    // exit so short-lived aisc runs still persist their tail-end entries.
    std::atexit([] { ScheduleCache::global().flush_disk(); });
    return c;
  }();
  return *cache;
}

ScheduleCache* ScheduleCache::active() {
  if (t_bypass_depth > 0) return nullptr;
  ScheduleCache& c = global();
  return c.enabled() ? &c : nullptr;
}

ScheduleCache::ScopedBypass::ScopedBypass() { ++t_bypass_depth; }
ScheduleCache::ScopedBypass::~ScopedBypass() { --t_bypass_depth; }

void ScheduleCache::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

bool ScheduleCache::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void ScheduleCache::set_capacity(std::size_t bytes) {
  impl_->capacity.store(bytes, std::memory_order_relaxed);
}

void ScheduleCache::set_disk_dir(std::string dir) {
  MutexLock lock(impl_->dir_mu);
  impl_->dir = std::move(dir);
}

std::string ScheduleCache::disk_dir() const { return impl_->dir_copy(); }

void ScheduleCache::clear() {
  for (std::size_t i = 0; i < impl_->num_shards; ++i) {
    Impl::Shard& s = impl_->shards[i];
    MutexLock lock(s.mu);
    s.map.clear();
    s.lru.clear();
    s.bytes = 0;
  }
}

void ScheduleCache::flush_disk() { impl_->stop_flusher(); }

void ScheduleCache::set_shard_count(std::size_t count) {
  std::size_t n = 1;
  while (n < count && n < kMaxShards) n <<= 1U;
  if (n == impl_->num_shards) {
    clear();
    return;
  }
  // Caller guarantees quiescence: nothing holds a Shard& or is mid-lookup.
  impl_->shards = std::make_unique<Impl::Shard[]>(n);
  impl_->num_shards = n;
  impl_->register_shard_metrics();
}

std::size_t ScheduleCache::shard_count() const { return impl_->num_shards; }

std::optional<std::string> ScheduleCache::lookup_bytes(const CacheKey& key,
                                                       bool* from_disk) {
  *from_disk = false;
  Impl::Shard& s = impl_->shard_for(key.hash);
  {
    MutexLock lock(s.mu);
    const auto it = s.map.find(Impl::KeyView{key.bytes, key.hash});
    if (it != s.map.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      return it->second.value;
    }
  }
  const std::string dir = impl_->dir_copy();
  if (dir.empty()) return std::nullopt;
#if AIS_OBS_ENABLED
  const std::int64_t start_us = obs::enabled() ? Stopwatch::now_us() : -1;
#endif
  std::optional<std::string> value = disk_load(dir, key);
#if AIS_OBS_ENABLED
  if (start_us >= 0) {
    impl_->disk_read_us->record(
        static_cast<std::uint64_t>(Stopwatch::now_us() - start_us));
  }
#endif
  if (value) *from_disk = true;
  return value;
}

void ScheduleCache::insert_bytes(const CacheKey& key, std::string value,
                                 bool write_disk) {
  if (write_disk && !impl_->dir_copy().empty()) {
    impl_->queue_disk_write(key, value);
  }

  const std::size_t entry_bytes =
      key.bytes.size() + value.size() + Impl::kEntryOverhead;
  const std::size_t shard_budget =
      impl_->capacity.load(std::memory_order_relaxed) / impl_->num_shards;
  std::uint64_t evictions = 0;
  Impl::Shard& s = impl_->shard_for(key.hash);
  {
    MutexLock lock(s.mu);
    const auto it = s.map.find(Impl::KeyView{key.bytes, key.hash});
    if (it != s.map.end()) {
      // Deterministic values: an existing entry already holds these bytes.
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      return;
    }
    const auto [pos, inserted] =
        s.map.emplace(Impl::StoredKey{key.bytes, key.hash}, Impl::Entry{});
    static_cast<void>(inserted);
    pos->second.value = std::move(value);
    s.lru.push_front(&pos->first);
    pos->second.lru_it = s.lru.begin();
    s.bytes += entry_bytes;

    // Evict from the cold end, but never the entry just inserted: one
    // oversized instance must not make the cache permanently empty.
    while (s.bytes > shard_budget && s.lru.size() > 1) {
      const Impl::StoredKey* victim = s.lru.back();
      const auto vit = s.map.find(Impl::KeyView{victim->bytes, victim->hash});
      AIS_CHECK(vit != s.map.end(), "cache LRU points at a missing entry");
      s.bytes -= victim->bytes.size() + vit->second.value.size() +
                 Impl::kEntryOverhead;
      s.lru.pop_back();
      s.map.erase(vit);
      ++evictions;
    }
  }
  AIS_OBS_COUNT(obs::ctr::kCacheBytes, entry_bytes);
  if (evictions > 0) AIS_OBS_COUNT(obs::ctr::kCacheEvictions, evictions);
}

void ScheduleCache::erase_bytes(const CacheKey& key) {
  Impl::Shard& s = impl_->shard_for(key.hash);
  MutexLock lock(s.mu);
  const auto it = s.map.find(Impl::KeyView{key.bytes, key.hash});
  if (it == s.map.end()) return;
  s.bytes -= it->first.bytes.size() + it->second.value.size() +
             Impl::kEntryOverhead;
  s.lru.erase(it->second.lru_it);
  s.map.erase(it);
}

std::optional<TraceCacheValue> ScheduleCache::lookup_trace(
    const CacheKey& key) {
#if AIS_OBS_ENABLED
  const std::int64_t start_us = obs::enabled() ? Stopwatch::now_us() : -1;
  int outcome = Impl::kOutcomeMiss;
#endif
  bool from_disk = false;
  bool ok = true;
  std::optional<std::string> raw = lookup_bytes(key, &from_disk);
  TraceCacheValue value;
  if (!raw || !decode_trace_value(*raw, value)) {
    if (raw) erase_bytes(key);  // undecodable entries can only rot away
    AIS_OBS_COUNT(obs::ctr::kCacheMisses);
    ok = false;
  } else if (from_disk) {
    if (!certify_trace(key, value)) {
      AIS_OBS_COUNT(obs::ctr::kCacheMisses);
      ok = false;
    } else {
      insert_bytes(key, std::move(*raw), /*write_disk=*/false);
      AIS_OBS_COUNT(obs::ctr::kCacheDiskHits);
#if AIS_OBS_ENABLED
      outcome = Impl::kOutcomeDiskHit;
#endif
    }
  } else {
    AIS_OBS_COUNT(obs::ctr::kCacheHits);
#if AIS_OBS_ENABLED
    outcome = Impl::kOutcomeHit;
#endif
  }
#if AIS_OBS_ENABLED
  impl_->note_lookup(key.hash, outcome, start_us);
#endif
  if (!ok) return std::nullopt;
  return value;
}

void ScheduleCache::insert_trace(const CacheKey& key,
                                 const TraceCacheValue& value) {
  if (!certify_trace(key, value)) return;
  insert_bytes(key, encode_trace_value(value), /*write_disk=*/true);
}

}  // namespace ais
