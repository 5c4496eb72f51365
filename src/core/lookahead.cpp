#include "core/lookahead.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "core/chop.hpp"
#include "core/legality.hpp"
#include "core/merge.hpp"
#include "core/move_idle.hpp"
#include "core/schedule_cache.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace ais {
namespace {

/// Dense id of `id` within `key` (key.ids is ascending).
std::uint32_t dense_index(const CacheKey& key, NodeId id) {
  const auto it = std::lower_bound(key.ids.begin(), key.ids.end(), id);
  AIS_CHECK(it != key.ids.end() && *it == id,
            "scheduled node missing from its cache key");
  return static_cast<std::uint32_t>(it - key.ids.begin());
}

}  // namespace

std::vector<NodeId> LookaheadResult::priority_list() const {
  std::vector<NodeId> list;
  for (const auto& sub : per_block) {
    list.insert(list.end(), sub.begin(), sub.end());
  }
  return list;
}

std::vector<NodeSet> blocks_of(const DepGraph& g) {
  int max_block = -1;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    max_block = std::max(max_block, g.node(id).block);
  }
  std::vector<NodeSet> blocks(static_cast<std::size_t>(max_block + 1),
                              NodeSet(g.num_nodes()));
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    blocks[static_cast<std::size_t>(g.node(id).block)].insert(id);
  }
  return blocks;
}

LookaheadResult schedule_trace(const RankScheduler& scheduler,
                               const std::vector<NodeSet>& blocks,
                               const LookaheadOptions& opts) {
  AIS_OBS_SPAN("lookahead");
  const DepGraph& g = scheduler.graph();
  AIS_CHECK(!blocks.empty(), "trace needs at least one block");
  AIS_CHECK(opts.window >= 1, "window must be positive");

  const Time huge =
      opts.huge > 0 ? opts.huge : huge_deadline(g, NodeSet::all(g.num_nodes()));

  // The schedule cache memoizes this function per whole trace.  Hits are
  // byte-identical to a fresh solve — keys only match monotone relabelings
  // of the same instance, and the recorded counter deltas are replayed — so
  // everything below the probe is the unchanged algorithm.
  ScheduleCache* cache = ScheduleCache::active();
  CacheInstanceParams params;
  params.machine = &scheduler.machine();
  params.window = opts.window;
  params.huge = huge;
  params.delay_idle = opts.delay_idle;
  params.merge_deadline_caps = opts.merge_deadline_caps;
  params.do_chop = opts.do_chop;
  params.split_long_ops = opts.rank.split_long_ops;
  params.tie_break = &opts.rank.tie_break;

  LookaheadResult out;
  bool solved_from_cache = false;
  CacheKey trace_key;
  if (cache != nullptr) {
    trace_key = build_trace_key(g, blocks, params);
    if (std::optional<TraceCacheValue> hit = cache->lookup_trace(trace_key)) {
      out.order.reserve(hit->order.size());
      for (const std::uint32_t dense : hit->order) {
        out.order.push_back(trace_key.ids[dense]);
      }
      out.diag.merged_makespans = std::move(hit->merged_makespans);
      out.diag.prefixes_emitted = hit->prefixes_emitted;
      obs::CounterRecorder::replay(hit->counter_deltas);
      obs::CounterRecorder::replay_values(hit->value_samples);
      solved_from_cache = true;
    }
  }

  if (!solved_from_cache) {
    obs::CounterRecorder trace_rec(cache != nullptr);
    AIS_OBS_COUNT(obs::ctr::kLookaheadBlocks, blocks.size());

    NodeSet old(g.num_nodes());
    DeadlineMap deadlines = uniform_deadlines(g, huge);
    Time t_old = 0;
    // The final suffix in its schedule order, refreshed every iteration;
    // appended to the emitted prefixes after the loop.
    std::vector<NodeId> last_suffix_order;

    for (const NodeSet& new_nodes : blocks) {
      if (new_nodes.empty()) continue;

      Schedule merged(&g, NodeSet(g.num_nodes()), 1);
      if (opts.merge_deadline_caps) {
        MergeResult m = merge_blocks(scheduler, old, new_nodes, deadlines,
                                     t_old, huge, opts.rank);
        deadlines = std::move(m.deadlines);
        merged = std::move(m.schedule);
      } else {
        // Ablation: schedule the whole live set fresh, no displacement
        // protection for old nodes.
        const NodeSet cur = set_union(old, new_nodes);
        DeadlineMap flat = uniform_deadlines(g, huge);
        RankResult r = scheduler.run(cur, flat, opts.rank);
        AIS_CHECK(r.feasible, "unconstrained schedule must be feasible");
        for (const NodeId id : cur.ids()) flat[id] = r.makespan;
        deadlines = std::move(flat);
        merged = std::move(r.schedule);
      }

      if (opts.delay_idle) {
        merged = delay_idle_slots(scheduler, std::move(merged), deadlines,
                                  opts.rank);
      }
      out.diag.merged_makespans.push_back(merged.makespan());

      if (opts.do_chop) {
        ChopResult c = chop(merged, deadlines, opts.window);
        out.order.insert(out.order.end(), c.emitted.begin(), c.emitted.end());
        if (!c.emitted.empty()) ++out.diag.prefixes_emitted;
        // Deterministic shape distribution (a replaying id): recorded into
        // the trace value below and replayed on hits, so cached and fresh
        // runs report identical prefix-length histograms.
        AIS_OBS_VALUE(obs::hist::kChopPrefixLen, c.emitted.size());
        old = std::move(c.suffix);
        t_old = c.suffix_makespan;
        // Rebase the retained suffix schedule implicitly: the next merge
        // re-schedules `old` from its deadlines, so only the node set, the
        // deadlines (already rebased by chop) and t_old carry forward.
      } else {
        old = merged.active();
        t_old = merged.makespan();
      }
      last_suffix_order.clear();
      for (const NodeId id : merged.permutation()) {
        if (old.contains(id)) last_suffix_order.push_back(id);
      }
    }

    // Emit the final suffix in its schedule order.
    out.order.insert(out.order.end(), last_suffix_order.begin(),
                     last_suffix_order.end());

    if (cache != nullptr) {
      TraceCacheValue value;
      value.order.reserve(out.order.size());
      for (const NodeId id : out.order) {
        value.order.push_back(dense_index(trace_key, id));
      }
      value.merged_makespans = out.diag.merged_makespans;
      value.prefixes_emitted = out.diag.prefixes_emitted;
      value.counter_deltas = trace_rec.deltas();
      value.value_samples = trace_rec.value_samples();
      cache->insert_trace(trace_key, value);
    }
  }

  AIS_CHECK(out.order.size() == [&] {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.size();
    return n;
  }(), "lookahead must emit every instruction exactly once");

  // Quantify the ROADMAP `window-span` open item: how often does the
  // planning order promise overlap deeper than the hardware window?  Only
  // measured under telemetry — the linear scan is off the disabled path.
  // Runs outside the cache's counter recording on hit and miss paths alike,
  // so cached entries never need to carry it.
#if AIS_OBS_ENABLED
  if (obs::enabled()) {
    out.diag.max_inversion_span = max_inversion_span(g, out.order).span;
    obs::count(obs::ctr::kWindowSpanOverW,
               out.diag.max_inversion_span >
                       static_cast<std::size_t>(opts.window)
                   ? 1
                   : 0);
  }
#endif

  out.per_block.assign(blocks.size(), {});
  for (const NodeId id : out.order) {
    const int b = g.node(id).block;
    AIS_CHECK(b >= 0 && b < static_cast<int>(blocks.size()),
              "node block index out of range");
    AIS_CHECK(blocks[static_cast<std::size_t>(b)].contains(id),
              "node emitted into the wrong block");
    out.per_block[static_cast<std::size_t>(b)].push_back(id);
  }
  return out;
}

LookaheadResult schedule_trace(const RankScheduler& scheduler,
                               const LookaheadOptions& opts) {
  return schedule_trace(scheduler, blocks_of(scheduler.graph()), opts);
}

}  // namespace ais
