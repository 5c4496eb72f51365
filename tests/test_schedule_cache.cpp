// Unit tests for the content-addressed schedule cache: canonical key
// semantics (monotone-relabeling equality; non-monotone relabelings are
// distinct entries, on disk too), the trace entry's round trip, the
// dependence certificate, LRU eviction, the disk tier's validation and
// write count, and cross-trace reuse end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/lookahead.hpp"
#include "core/schedule_cache.hpp"
#include "graph/depgraph.hpp"
#include "graph/nodeset.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"

namespace ais {
namespace {

/// Diamond a -> {b, c} -> d with unit latencies, built in the id order
/// given by `perm` (perm[k] = position at which the k-th logical node is
/// added), so tests can construct isomorphic graphs under arbitrary
/// relabelings.  Logical roles: 0 = a, 1 = b, 2 = c, 3 = d.
DepGraph diamond(const std::vector<int>& perm = {0, 1, 2, 3}) {
  DepGraph g;
  std::vector<NodeId> id(4);
  std::vector<int> logical_at(4);
  for (int pos = 0; pos < 4; ++pos) {
    for (int logical = 0; logical < 4; ++logical) {
      if (perm[logical] == pos) logical_at[pos] = logical;
    }
  }
  for (int pos = 0; pos < 4; ++pos) {
    id[logical_at[pos]] = g.add_node("n" + std::to_string(pos), 1, 0, 0);
  }
  g.add_edge(id[0], id[1], 1, 0);
  g.add_edge(id[0], id[2], 1, 0);
  g.add_edge(id[1], id[3], 1, 0);
  g.add_edge(id[2], id[3], 1, 0);
  return g;
}

CacheInstanceParams params_for(const MachineModel& m, int window = 4) {
  CacheInstanceParams p;
  p.machine = &m;
  p.window = window;
  p.huge = 100;
  return p;
}

std::vector<NodeSet> one_block(const DepGraph& g) {
  return {NodeSet::all(g.num_nodes())};
}

std::filesystem::path fresh_temp_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("ais_cache_" + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CacheKey, EqualUnderMonotoneRelabeling) {
  const MachineModel machine = scalar01();
  const DepGraph g = diamond();

  // Same diamond shifted up by one id: node 0 is an unrelated spectator
  // outside the scheduled block, so the instance is a monotone relabeling.
  DepGraph shifted;
  shifted.add_node("spectator", 1, 0, 0);
  const NodeId a = shifted.add_node("a", 1, 0, 0);
  const NodeId b = shifted.add_node("b", 1, 0, 0);
  const NodeId c = shifted.add_node("c", 1, 0, 0);
  const NodeId d = shifted.add_node("d", 1, 0, 0);
  shifted.add_edge(a, b, 1, 0);
  shifted.add_edge(a, c, 1, 0);
  shifted.add_edge(b, d, 1, 0);
  shifted.add_edge(c, d, 1, 0);

  const CacheKey k1 =
      build_trace_key(g, one_block(g), params_for(machine));
  const CacheKey k2 = build_trace_key(
      shifted, {NodeSet(5, {a, b, c, d})}, params_for(machine));

  EXPECT_EQ(k1.bytes, k2.bytes);
  EXPECT_EQ(k1.hash, k2.hash);
  EXPECT_EQ(k1.ids, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(k2.ids, (std::vector<NodeId>{1, 2, 3, 4}));
}

TEST(CacheKey, ContextChangesTheKey) {
  const MachineModel scalar = scalar01();
  const MachineModel deep = deep_pipeline();
  const DepGraph g = diamond();
  const CacheKey base =
      build_trace_key(g, one_block(g), params_for(scalar));

  const CacheKey wider =
      build_trace_key(g, one_block(g), params_for(scalar, /*window=*/7));
  EXPECT_NE(base.bytes, wider.bytes);

  const CacheKey other_machine =
      build_trace_key(g, one_block(g), params_for(deep));
  EXPECT_NE(base.bytes, other_machine.bytes);

  CacheInstanceParams no_chop = params_for(scalar);
  no_chop.do_chop = false;
  EXPECT_NE(base.bytes, build_trace_key(g, one_block(g), no_chop).bytes);

  // A latency change is a different instance even with identical topology.
  DepGraph slow;
  const NodeId a = slow.add_node("a", 1, 0, 0);
  const NodeId b = slow.add_node("b", 1, 0, 0);
  const NodeId c = slow.add_node("c", 1, 0, 0);
  const NodeId d = slow.add_node("d", 1, 0, 0);
  slow.add_edge(a, b, 3, 0);
  slow.add_edge(a, c, 1, 0);
  slow.add_edge(b, d, 1, 0);
  slow.add_edge(c, d, 1, 0);
  EXPECT_NE(base.bytes,
            build_trace_key(slow, one_block(slow), params_for(scalar)).bytes);
}

TEST(ScheduleCache, TraceValueRoundTrip) {
  ScheduleCache cache;
  const MachineModel machine = scalar01();
  const DepGraph g = diamond();
  const CacheKey key =
      build_trace_key(g, one_block(g), params_for(machine));

  EXPECT_FALSE(cache.lookup_trace(key).has_value());

  TraceCacheValue v;
  v.order = {0, 2, 1, 3};
  v.merged_makespans = {4};
  v.prefixes_emitted = 1;
  v.counter_deltas = {{obs::ctr::kMergeRelaxRounds, 3}, {obs::ctr::kRankRuns, 0}};
  v.value_samples = {{obs::hist::kChopPrefixLen, {4, 9}}};
  cache.insert_trace(key, v);

  const auto hit = cache.lookup_trace(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->order, v.order);
  EXPECT_EQ(hit->merged_makespans, v.merged_makespans);
  EXPECT_EQ(hit->prefixes_emitted, 1u);
  EXPECT_EQ(hit->counter_deltas, v.counter_deltas);
  EXPECT_EQ(hit->value_samples, v.value_samples);
}

TEST(ScheduleCache, CertificateRejectsDependenceViolations) {
  ScheduleCache cache;
  const MachineModel machine = scalar01();
  const DepGraph g = diamond();
  const CacheKey key =
      build_trace_key(g, one_block(g), params_for(machine));

  TraceCacheValue bad;
  bad.order = {3, 1, 2, 0};  // sink before source on every edge
  cache.insert_trace(key, bad);
  EXPECT_FALSE(cache.lookup_trace(key).has_value());

  TraceCacheValue not_a_permutation;
  not_a_permutation.order = {0, 1, 1, 3};
  cache.insert_trace(key, not_a_permutation);
  EXPECT_FALSE(cache.lookup_trace(key).has_value());
}

TEST(ScheduleCache, LruEvictsUnderCapacityPressure) {
  // Tiny budget: a few hundred bytes per shard, roughly one entry each.
  ScheduleCache cache(/*capacity_bytes=*/4096);
  const MachineModel machine = scalar01();
  const DepGraph g = diamond();

  std::vector<CacheKey> keys;
  for (int w = 1; w <= 64; ++w) {
    keys.push_back(build_trace_key(g, one_block(g), params_for(machine, w)));
    TraceCacheValue v;
    v.order = {0, 1, 2, 3};
    cache.insert_trace(keys.back(), v);
  }

  int present = 0;
  for (const CacheKey& key : keys) {
    present += cache.lookup_trace(key).has_value() ? 1 : 0;
  }
  EXPECT_LT(present, 64);
  // The most recently inserted entry is never the eviction victim.
  EXPECT_TRUE(cache.lookup_trace(keys.back()).has_value());
}

TEST(ScheduleCache, DiskTierRoundTripsAcrossInstances) {
  const auto dir = fresh_temp_dir("roundtrip");
  const MachineModel machine = scalar01();
  const DepGraph g = diamond();
  const CacheKey key =
      build_trace_key(g, one_block(g), params_for(machine));
  TraceCacheValue v;
  v.order = {0, 1, 2, 3};
  v.merged_makespans = {4};

  {
    ScheduleCache writer;
    writer.set_disk_dir(dir.string());
    writer.insert_trace(key, v);
  }

  ScheduleCache reader;
  reader.set_disk_dir(dir.string());
  const auto hit = reader.lookup_trace(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->order, v.order);
  EXPECT_EQ(hit->merged_makespans, v.merged_makespans);
  // The disk hit was promoted: dropping the directory keeps it servable.
  reader.set_disk_dir("");
  EXPECT_TRUE(reader.lookup_trace(key).has_value());
  std::filesystem::remove_all(dir);
}

/// Turns telemetry on for one test, so the cache's counters count, and
/// restores the previous state however the test exits.
class ScopedTelemetry {
 public:
  ScopedTelemetry() { obs::set_enabled(true); }
  ~ScopedTelemetry() { obs::set_enabled(was_enabled_); }
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  bool was_enabled_ = obs::enabled();
};

/// Number of `.aisc` entry files in `dir`.
int disk_entries(const std::filesystem::path& dir) {
  int n = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    n += f.path().extension() == ".aisc" ? 1 : 0;
  }
  return n;
}

/// Non-monotone relabelings of one instance serialize to different bytes —
/// the scheduler's id tie-break makes them different instances — so each
/// keeps its own entry, on disk as in memory: a fresh reader gets every one
/// back.
TEST(ScheduleCache, NonMonotoneRelabelingsKeepTheirOwnDiskEntries) {
  const auto dir = fresh_temp_dir("relabelings");
  const MachineModel machine = scalar01();
  std::vector<CacheKey> keys;
  std::vector<TraceCacheValue> values;
  for (const auto& perm : std::vector<std::vector<int>>{
           {0, 1, 2, 3}, {3, 1, 2, 0}, {1, 0, 3, 2}, {2, 3, 0, 1}}) {
    const DepGraph g = diamond(perm);
    keys.push_back(build_trace_key(g, one_block(g), params_for(machine)));
    // a, b, c, d under this relabeling: a dependence order of its diamond.
    TraceCacheValue v;
    for (const int id : perm) v.order.push_back(static_cast<std::uint32_t>(id));
    values.push_back(v);
  }
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_NE(keys[i].bytes, keys[0].bytes) << "relabeling " << i;
  }

  const ScopedTelemetry telemetry;
  {
    ScheduleCache writer;
    writer.set_disk_dir(dir.string());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      writer.insert_trace(keys[i], values[i]);
    }
  }
  EXPECT_EQ(disk_entries(dir), 4);

  ScheduleCache reader;
  reader.set_disk_dir(dir.string());
  const std::uint64_t disk_hits_before =
      obs::counter_value(obs::ctr::kCacheDiskHits);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto hit = reader.lookup_trace(keys[i]);
    ASSERT_TRUE(hit.has_value()) << "relabeling " << i;
    EXPECT_EQ(hit->order, values[i].order) << "relabeling " << i;
  }
  if (obs::kHooksCompiledIn) {
    EXPECT_EQ(obs::counter_value(obs::ctr::kCacheDiskHits) - disk_hits_before,
              4u);
  }
  std::filesystem::remove_all(dir);
}

/// Only the insert that adds an entry to the memory tier writes it to disk:
/// inserting the same key again, before or after the write lands, writes
/// nothing.
TEST(ScheduleCache, RepeatedInsertWritesTheDiskOnce) {
  const auto dir = fresh_temp_dir("write_once");
  const MachineModel machine = scalar01();
  const DepGraph g = diamond();
  const CacheKey key =
      build_trace_key(g, one_block(g), params_for(machine));
  TraceCacheValue v;
  v.order = {0, 1, 2, 3};

  const ScopedTelemetry telemetry;
  const std::uint64_t writes_before =
      obs::counter_value(obs::ctr::kCacheDiskWrites);
  ScheduleCache cache;
  cache.set_disk_dir(dir.string());
  cache.insert_trace(key, v);
  cache.insert_trace(key, v);
  cache.flush_disk();
  cache.insert_trace(key, v);
  cache.flush_disk();
  EXPECT_EQ(disk_entries(dir), 1);
  if (obs::kHooksCompiledIn) {
    EXPECT_EQ(obs::counter_value(obs::ctr::kCacheDiskWrites) - writes_before,
              1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, CorruptDiskEntriesDegradeToMisses) {
  const auto dir = fresh_temp_dir("corrupt");
  const MachineModel machine = scalar01();
  const DepGraph g = diamond();
  const CacheKey key =
      build_trace_key(g, one_block(g), params_for(machine));
  {
    ScheduleCache writer;
    writer.set_disk_dir(dir.string());
    TraceCacheValue v;
    v.order = {0, 1, 2, 3};
    writer.insert_trace(key, v);
  }

  std::filesystem::path entry;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    if (f.path().extension() == ".aisc") entry = f.path();
  }
  ASSERT_FALSE(entry.empty());

  std::string blob;
  {
    std::ifstream in(entry, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    blob = os.str();
  }
  const auto rewrite = [&entry](const std::string& bytes) {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  const auto miss = [&dir, &key](const std::string& tag) {
    ScheduleCache reader;
    reader.set_disk_dir(dir.string());
    EXPECT_FALSE(reader.lookup_trace(key).has_value()) << tag;
  };

  // Flip a byte inside the serialized key: the stored key no longer equals
  // the probe's, so the load is rejected before the value is even decoded.
  ASSERT_GT(blob.size(), 60u);
  std::string bad_key = blob;
  bad_key[40] ^= 0x01;
  rewrite(bad_key);
  miss("key corruption");

  // Flip a byte of the stored order (the value's trailing section is
  // order[4] + makespans[1] + prefixes + empty counters = 44 bytes; the
  // first order element sits 40 bytes from the end): the dependence
  // certificate re-checked on load must reject it.
  std::string bad_value = blob;
  bad_value[blob.size() - 40] ^= 0x02;
  rewrite(bad_value);
  miss("value corruption");

  // A truncated file is also just a miss.
  rewrite(blob.substr(0, 10));
  miss("truncation");

  // A stale header: an entry written under format version 3, whose key
  // prefix still carried the 8-byte Merge fill-depth cap, must never be
  // read.
  std::string stale = blob;
  const std::uint32_t v3 = 3;
  std::memcpy(stale.data() + 4, &v3, sizeof v3);  // just past the magic
  rewrite(stale);
  miss("format v3 header");

  // A format v4 entry, written while step ('S') entries still shared the
  // store, is a miss too: both its header and its key bytes name v4, and
  // it must be neither served nor treated as an error.
  std::string v4_entry = blob;
  const std::uint32_t v4 = 4;
  std::memcpy(v4_entry.data() + 4, &v4, sizeof v4);  // header version
  std::memcpy(v4_entry.data() + 4 + 4 + 4 + 8 + 8 + 1, &v4,
              sizeof v4);  // the key's own format field, after its kind
  rewrite(v4_entry);
  miss("format v4 entry");

  // A format v5 entry, whose counter deltas were keyed by name, is a miss
  // under v6's id-keyed values.
  std::string v5_entry = blob;
  const std::uint32_t v5 = 5;
  std::memcpy(v5_entry.data() + 4, &v5, sizeof v5);
  std::memcpy(v5_entry.data() + 4 + 4 + 4 + 8 + 8 + 1, &v5, sizeof v5);
  rewrite(v5_entry);
  miss("format v5 entry");

  // A format v6 entry, named by the structural hash of its key, is a miss
  // under v7's byte hash.
  std::string v6_entry = blob;
  const std::uint32_t v6 = 6;
  std::memcpy(v6_entry.data() + 4, &v6, sizeof v6);
  std::memcpy(v6_entry.data() + 4 + 4 + 4 + 8 + 8 + 1, &v6, sizeof v6);
  rewrite(v6_entry);
  miss("format v6 entry");

  // And the pristine bytes still hit, so the misses above were the
  // corruption's doing.
  rewrite(blob);
  {
    ScheduleCache reader;
    reader.set_disk_dir(dir.string());
    EXPECT_TRUE(reader.lookup_trace(key).has_value());
  }
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, ActiveHonorsEnableAndBypass) {
  ScheduleCache& global = ScheduleCache::global();
  const bool was_enabled = global.enabled();
  global.set_enabled(true);
  EXPECT_EQ(ScheduleCache::active(), &global);
  {
    ScheduleCache::ScopedBypass bypass;
    EXPECT_EQ(ScheduleCache::active(), nullptr);
    {
      ScheduleCache::ScopedBypass nested;
      EXPECT_EQ(ScheduleCache::active(), nullptr);
    }
    EXPECT_EQ(ScheduleCache::active(), nullptr);
  }
  EXPECT_EQ(ScheduleCache::active(), &global);
  global.set_enabled(false);
  EXPECT_EQ(ScheduleCache::active(), nullptr);
  global.set_enabled(was_enabled);
}

TEST(ScheduleCache, CrossTraceReuseRemapsOntoCallerIds) {
  ScheduleCache& global = ScheduleCache::global();
  const bool was_enabled = global.enabled();
  global.set_enabled(true);
  global.clear();

  const MachineModel machine = rs6000_like();
  LookaheadOptions opts;
  opts.window = 4;

  const DepGraph g = diamond();
  const RankScheduler cold(g, machine);
  const LookaheadResult first = schedule_trace(cold, one_block(g), opts);

  // Monotone relabeling (+1 shift) of the same instance in a fresh graph:
  // the solve must be served from the cache and remapped onto the new ids.
  DepGraph shifted;
  shifted.add_node("spectator", 1, 0, 1);
  const NodeId a = shifted.add_node("a", 1, 0, 0);
  const NodeId b = shifted.add_node("b", 1, 0, 0);
  const NodeId c = shifted.add_node("c", 1, 0, 0);
  const NodeId d = shifted.add_node("d", 1, 0, 0);
  shifted.add_edge(a, b, 1, 0);
  shifted.add_edge(a, c, 1, 0);
  shifted.add_edge(b, d, 1, 0);
  shifted.add_edge(c, d, 1, 0);

  const std::uint64_t hits_before =
      obs::counter_value(obs::ctr::kCacheHits);
  const RankScheduler warm(shifted, machine);
  const LookaheadResult second =
      schedule_trace(warm, {NodeSet(5, {a, b, c, d})}, opts);
  if (obs::enabled()) {
    EXPECT_GT(obs::counter_value(obs::ctr::kCacheHits), hits_before);
  }

  ASSERT_EQ(second.order.size(), first.order.size());
  for (std::size_t i = 0; i < first.order.size(); ++i) {
    EXPECT_EQ(second.order[i], first.order[i] + 1);
  }
  EXPECT_EQ(second.diag.merged_makespans, first.diag.merged_makespans);
  global.set_enabled(was_enabled);
}

}  // namespace
}  // namespace ais
