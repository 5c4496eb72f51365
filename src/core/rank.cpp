#include "core/rank.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <span>
#include <tuple>

#include "graph/topo.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/process_stats.hpp"
#include "support/assert.hpp"

namespace ais {
namespace {

constexpr Time kInf = std::numeric_limits<Time>::max() / 4;

/// Backward packer over caller-owned lanes: one lane per physical unit of
/// each class, each lane available arbitrarily late initially; nodes are
/// inserted in nonincreasing rank order, each at the latest completion <=
/// its rank its class allows.  The lane storage lives in the RankSession so
/// repeated rank computations never reallocate it.
class BackwardPacker {
 public:
  explicit BackwardPacker(std::vector<std::vector<Time>>& lanes)
      : lanes_(lanes) {
    for (auto& class_lanes : lanes_) {
      std::fill(class_lanes.begin(), class_lanes.end(), kInf);
    }
  }

  /// Allocates lane storage matching `machine` (all lanes free).
  static std::vector<std::vector<Time>> make_lanes(
      const MachineModel& machine) {
    std::vector<std::vector<Time>> lanes(
        static_cast<std::size_t>(machine.num_fu_classes()));
    for (int c = 0; c < machine.num_fu_classes(); ++c) {
      lanes[static_cast<std::size_t>(c)].assign(
          static_cast<std::size_t>(machine.fu_count(c)), kInf);
    }
    return lanes;
  }

  /// Inserts a node with the given class/exec/rank; returns its start time.
  Time insert(int fu_class, int exec_time, Time rank, bool split) {
    auto& lanes = lanes_[static_cast<std::size_t>(fu_class)];
    if (!split || exec_time == 1) {
      auto best = std::max_element(lanes.begin(), lanes.end());
      const Time completion = std::min(rank, *best);
      *best = completion - exec_time;
      return completion - exec_time;
    }
    // §4.2 unit-splitting: schedule each unit piece at the latest possible
    // time <= rank; the earliest piece start stands in for the node's start.
    Time earliest = kInf;
    for (int piece = 0; piece < exec_time; ++piece) {
      auto best = std::max_element(lanes.begin(), lanes.end());
      const Time completion = std::min(rank, *best);
      *best = completion - 1;
      earliest = std::min(earliest, completion - 1);
    }
    return earliest;
  }

 private:
  std::vector<std::vector<Time>>& lanes_;
};

/// Fills the CSR of distance-0 out-edges between active nodes of `g`
/// (targets/latencies of node x at [begin[x], begin[x + 1])) and each
/// node's active in-degree.  Vector types vary: RankSession keeps them in
/// its arena.
template <typename Begins, typename Targets, typename Latencies,
          typename Counts>
void build_active_csr(const DepGraph& g, const NodeSet& active, Begins& begin,
                      Targets& to, Latencies& latency, Counts& preds) {
  const std::size_t n = g.num_nodes();
  begin.assign(n + 1, 0);
  to.reserve(g.num_edges());
  latency.reserve(g.num_edges());
  preds.assign(n, 0);
  for (NodeId x = 0; x < n; ++x) {
    begin[x + 1] = begin[x];
    if (!active.contains(x)) continue;
    for (const auto eidx : g.out_edges(x)) {
      const DepEdge& e = g.edge(eidx);
      if (e.distance != 0 || !active.contains(e.to)) continue;
      to.push_back(e.to);
      latency.push_back(e.latency);
      ++preds[e.to];
      ++begin[x + 1];
    }
  }
}

/// What the greedy kernel reads besides the graph's per-node columns: the
/// active-node CSR and in-degrees of build_active_csr.
struct GreedyInputs {
  const DepGraph& graph;
  const MachineModel& machine;
  const NodeSet& active;
  std::span<const std::uint32_t> succ_begin;
  std::span<const NodeId> succ_to;
  std::span<const Time> succ_lat;
  std::span<const std::int32_t> pred_count;
};

/// The greedy list scheduler: every cycle, issue ready nodes in `list`
/// order onto the first free unit of their class, up to the issue width.
///
/// Event-driven: `ready` holds dependence-ready nodes as a bitset over list
/// positions (the greedy priority); `pending` holds nodes whose dependences
/// are satisfied but whose earliest start is in the future.  Equivalent to
/// the classic "rescan the list from the front after every placement"
/// formulation: within one cycle units only get busier and a successor
/// released at t has est >= t + 1, so a single front-to-back sweep over the
/// ready set per cycle issues exactly the same nodes.
Schedule greedy_schedule(const GreedyInputs& in,
                         const std::vector<NodeId>& list,
                         GreedyScratch& scratch) {
  const MachineModel& machine = in.machine;
  const int num_classes = machine.num_fu_classes();
  const std::span<const std::int32_t> exec_col = in.graph.exec_times();
  const std::span<const std::int32_t> fu_col = in.graph.fu_classes();

  // Global unit indexing is class-major, matching validate_schedule.
  std::vector<int>& unit_base = scratch.unit_base;
  unit_base.assign(static_cast<std::size_t>(num_classes), 0);
  int total_units = 0;
  for (int c = 0; c < num_classes; ++c) {
    unit_base[static_cast<std::size_t>(c)] = total_units;
    total_units += machine.fu_count(c);
  }

  Schedule sched(&in.graph, in.active, total_units);
  std::vector<Time>& unit_free = scratch.unit_free;
  unit_free.assign(static_cast<std::size_t>(total_units), 0);

  const std::size_t n = in.graph.num_nodes();
  std::vector<std::uint32_t>& pos = scratch.pos;
  std::vector<std::int32_t>& preds_left = scratch.preds_left;
  // Earliest dependence-legal start per node; meaningful once all preds are
  // placed.
  std::vector<Time>& est = scratch.est;
  pos.resize(n);
  preds_left.resize(n);
  est.resize(n);
  const std::size_t num_words = (list.size() + 63) / 64;
  std::vector<std::uint64_t>& ready = scratch.ready;
  ready.assign(num_words, 0);
  using Pending = GreedyScratch::Pending;
  std::vector<Pending>& pending = scratch.pending;  // min-heap on (est, pos)
  pending.clear();
  const auto later = std::greater<Pending>();
  for (std::uint32_t i = 0; i < list.size(); ++i) {
    const NodeId id = list[i];
    pos[id] = i;
    preds_left[id] = in.pred_count[id];
    est[id] = 0;
    if (preds_left[id] == 0) ready[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  std::vector<char>& class_waiting = scratch.class_waiting;
  class_waiting.assign(static_cast<std::size_t>(num_classes), 0);

  std::size_t unplaced = list.size();
  Time t = 0;
  const Time t_limit = in.graph.total_work() +
                       static_cast<Time>(list.size() + 1) *
                           (in.graph.max_latency() + 1) +
                       1;
  while (unplaced > 0) {
    AIS_CHECK(t <= t_limit, "greedy scheduler failed to make progress");
    while (!pending.empty() && pending.front().first <= t) {
      const std::uint32_t p = pending.front().second;
      ready[p >> 6] |= std::uint64_t{1} << (p & 63);
      std::pop_heap(pending.begin(), pending.end(), later);
      pending.pop_back();
    }

    // One ascending sweep over the ready positions.  Releases go to
    // `pending`, never to `ready`, so the sweep may clear bits as it issues.
    int issued = 0;
    bool width_exhausted = false;
    for (std::size_t w = 0; w < num_words && !width_exhausted; ++w) {
      std::uint64_t word = ready[w];
      while (word != 0) {
        if (issued >= machine.issue_width()) {
          width_exhausted = true;
          break;
        }
        const int bit = __builtin_ctzll(word);
        word &= word - 1;
        const NodeId id = list[w * 64 + static_cast<std::size_t>(bit)];
        const int fu_class = fu_col[id];
        const Time exec_time = exec_col[id];
        // A unit of this node's class free for [t, t + exec)?
        const int base = unit_base[static_cast<std::size_t>(fu_class)];
        int chosen = -1;
        for (int k = 0; k < machine.fu_count(fu_class); ++k) {
          if (unit_free[static_cast<std::size_t>(base + k)] <= t) {
            chosen = base + k;
            break;
          }
        }
        if (chosen < 0) continue;
        sched.place(id, t, chosen);
        unit_free[static_cast<std::size_t>(chosen)] = t + exec_time;
        --unplaced;
        ++issued;
        ready[w] &= ~(std::uint64_t{1} << bit);
        // Release successors.  A successor released now has est >= t + 1
        // (exec_time >= 1), so it can never issue this cycle.
        for (std::uint32_t e = in.succ_begin[id]; e < in.succ_begin[id + 1];
             ++e) {
          const NodeId to = in.succ_to[e];
          est[to] = std::max(est[to], t + exec_time + in.succ_lat[e]);
          if (--preds_left[to] == 0) {
            pending.emplace_back(est[to], pos[to]);
            std::push_heap(pending.begin(), pending.end(), later);
          }
        }
      }
    }
    if (unplaced == 0) break;

    // Jump to the next cycle where anything can change: (a) t + 1 when the
    // issue width cut the sweep short, (b) the earliest pending release,
    // (c) the earliest unit of a class some ready node waits on freeing up.
    Time next = kInf;
    if (width_exhausted) next = t + 1;
    if (!pending.empty()) next = std::min(next, pending.front().first);
    if (!width_exhausted) {
      std::fill(class_waiting.begin(), class_waiting.end(), 0);
      for (std::size_t w = 0; w < num_words; ++w) {
        std::uint64_t word = ready[w];
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          word &= word - 1;
          const NodeId id = list[w * 64 + static_cast<std::size_t>(bit)];
          class_waiting[static_cast<std::size_t>(fu_col[id])] = 1;
        }
      }
      for (int c = 0; c < num_classes; ++c) {
        if (!class_waiting[static_cast<std::size_t>(c)]) continue;
        const int base = unit_base[static_cast<std::size_t>(c)];
        for (int k = 0; k < machine.fu_count(c); ++k) {
          next = std::min(next,
                          unit_free[static_cast<std::size_t>(base + k)]);
        }
      }
    }
    AIS_CHECK(next > t && next < kInf,
              "greedy scheduler failed to make progress");
    t = next;
  }
  return sched;
}

}  // namespace

RankScheduler::RankScheduler(const DepGraph& g, MachineModel machine)
    : graph_(g), machine_(std::move(machine)) {
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    AIS_CHECK(g.node(id).fu_class < machine_.num_fu_classes(),
              "node uses an FU class the machine does not have");
  }
}

std::vector<Time> RankScheduler::compute_ranks(
    const NodeSet& active, const DeadlineMap& deadlines,
    const RankOptions& opts, bool* structurally_feasible) const {
  RankSession session(*this, active);
  return session.compute_ranks(deadlines, opts, structurally_feasible);
}

RankResult RankScheduler::run(const NodeSet& active,
                              const DeadlineMap& deadlines,
                              const RankOptions& opts) const {
  RankSession session(*this, active);
  return session.run(deadlines, opts);
}

// --- RankSession ---------------------------------------------------------

RankSession::RankSession(const RankScheduler& scheduler, const NodeSet& active)
    : scheduler_(&scheduler),
      active_(active),
      active_ids_(active.ids()),
      closure_(scheduler.graph(), active, &arena_),
      exec_(ArenaAllocator<Time>(arena_)),
      fu_class_(ArenaAllocator<std::int32_t>(arena_)),
      succ_begin_(ArenaAllocator<std::uint32_t>(arena_)),
      succ_to_(ArenaAllocator<NodeId>(arena_)),
      succ_lat_(ArenaAllocator<Time>(arena_)),
      pred_count_(ArenaAllocator<std::int32_t>(arena_)),
      rank_(scheduler.graph().num_nodes(), kInf),
      desc_part_(ArenaAllocator<Time>(arena_)),
      desc_keys_(ArenaAllocator<std::uint64_t>(arena_)),
      by_rank_(ArenaAllocator<DescEntry>(arena_)),
      rank_pos_(ArenaAllocator<std::uint32_t>(arena_)),
      pos_words_(ArenaAllocator<std::uint64_t>(arena_)),
      back_start_(ArenaAllocator<Time>(arena_)),
      packer_lanes_(BackwardPacker::make_lanes(scheduler.machine())),
      changed_(scheduler.graph().num_nodes()),
      rank_changed_(scheduler.graph().num_nodes()),
      snap_desc_part_(ArenaAllocator<Time>(arena_)),
      snap_by_rank_(ArenaAllocator<DescEntry>(arena_)) {
  const auto order = topo_order(scheduler.graph(), active);
  AIS_CHECK(order.has_value(), "rank computation requires an acyclic graph");
  order_ = std::move(*order);
  back_start_.assign(scheduler.graph().num_nodes(), kInf);
  desc_part_.assign(scheduler.graph().num_nodes(), kInf);
  desc_keys_.reserve(order_.size());
  by_rank_.reserve(order_.size());

  const DepGraph& g = scheduler.graph();
  const std::size_t n = g.num_nodes();
  single_lane_ = scheduler.machine().total_units() == 1;
  const std::span<const std::int32_t> exec_col = g.exec_times();
  const std::span<const std::int32_t> fu_col = g.fu_classes();
  exec_.assign(exec_col.begin(), exec_col.end());
  fu_class_.assign(fu_col.begin(), fu_col.end());
  rank_pos_.assign(n, 0);
  pos_words_.assign((n + 63) / 64 + 1, 0);
  build_active_csr(g, active_, succ_begin_, succ_to_, succ_lat_, pred_count_);
  if (obs::enabled()) {
    // Cached handles: a session is built per Merge and per Delay_Idle_Slots
    // call, and a registry lookup each time is most of the metrics-on cost
    // of a small compile.
    static obs::Gauge* const session_bytes =
        obs::arena_high_water_gauge("rank_session");
    static obs::Gauge* const graph_bytes = obs::arena_high_water_gauge("graph");
    session_bytes->set_max(static_cast<std::int64_t>(arena_.bytes_reserved()));
    graph_bytes->set_max(static_cast<std::int64_t>(g.arena_bytes_reserved()));
  }
}

void RankSession::rerank_node(NodeId x, const DeadlineMap& deadlines,
                              const RankOptions& opts) {
  // Descendants come out of for_each_descendant in nonincreasing rank order
  // (ties: ascending id, making the backward pass deterministic): by_rank_
  // maintains the whole active set in exactly that order, so ascending
  // by_rank_ position yields the descendants pre-sorted — the backward pass
  // contains no sort at all.
  pack_and_finish(x, deadlines, opts);
}

template <typename Fn>
void RankSession::for_each_descendant(NodeId x, Fn&& fn) {
  const ClosureRow row = closure_.descendants(x);
  const std::uint64_t* rw = row.words().data();
  const DescEntry* br = by_rank_.data();
  const std::size_t nb = by_rank_.size();

  // Both paths visit the descendants in ascending by_rank_ position, which
  // is exactly (rank desc, id asc) — the backward-pass order — so the
  // density heuristic below can never change an output bit.
  //
  // Dense rows: filtered scan of by_rank_ — sequential loads, and the
  // membership pattern is the structured "below x in rank order" set, so
  // the branch predicts well.  Sparse rows: word-driven iteration over the
  // closure row, marking each descendant's position in pos_words_ and
  // sweeping the position words ascending — O(set bits + nb/64) beats the
  // O(nb) scan once the row is thin relative to the active set.
  const std::size_t k = row.count();
  if (k * 8 >= nb) {
    for (std::size_t p = 0; p < nb; ++p) {
      const DescEntry e = br[p];
      if ((rw[e.id >> 6] >> (e.id & 63)) & 1) fn(e);
    }
    return;
  }
  row.for_each([&](std::size_t d) {
    const std::uint32_t p = rank_pos_[d];
    pos_words_[p >> 6] |= std::uint64_t{1} << (p & 63);
  });
  const std::size_t nwords = (nb + 63) / 64;  // descendant positions are < nb
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t word = pos_words_[w];
    if (word == 0) continue;
    pos_words_[w] = 0;
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      fn(br[w * 64 + static_cast<std::size_t>(bit)]);
      word &= word - 1;
    }
  }
}

void RankSession::refresh_rank_pos(std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    rank_pos_[by_rank_[i].id] = static_cast<std::uint32_t>(i);
  }
}

void RankSession::reposition(NodeId x, Time old_rank) {
  const auto before = [](const DescEntry& a, const DescEntry& b) {
    return a.rank != b.rank ? a.rank > b.rank : a.id < b.id;
  };
  const auto old_it = std::lower_bound(by_rank_.begin(), by_rank_.end(),
                                       DescEntry{old_rank, x}, before);
  AIS_CHECK(old_it != by_rank_.end() && old_it->id == x &&
                old_it->rank == old_rank,
            "by_rank_ lost track of a node");
  const DescEntry updated{rank_[x], x};
  const auto new_it =
      std::lower_bound(by_rank_.begin(), by_rank_.end(), updated, before);
  if (new_it <= old_it) {
    std::move_backward(new_it, old_it, old_it + 1);
    *new_it = updated;
    refresh_rank_pos(static_cast<std::size_t>(new_it - by_rank_.begin()),
                     static_cast<std::size_t>(old_it - by_rank_.begin()) + 1);
  } else {
    std::move(old_it + 1, new_it, old_it);
    *(new_it - 1) = updated;
    refresh_rank_pos(static_cast<std::size_t>(old_it - by_rank_.begin()),
                     static_cast<std::size_t>(new_it - by_rank_.begin()));
  }
}

void RankSession::pack_and_finish(NodeId x, const DeadlineMap& deadlines,
                                  const RankOptions& opts) {
  // The descendant-driven part of the rank is accumulated separately from
  // the node's own deadline: it depends only on descendant ranks, so it can
  // be reused verbatim when a later call changes d(x) but no descendant
  // rank (the O(1) incremental path in compute_ranks).
  Time r = kInf;

  // back_start_ carries no state across nodes: every slot read below (a
  // descendant of x, or a distance-0 successor, which is also a descendant)
  // is written by this loop first.  Single-unit machines (the restricted
  // case and the deep-pipeline preset) skip the lane machinery: the one
  // lane is a scalar chained through the loop.
  if (single_lane_ && !opts.split_long_ops) {
    // The one lane's free slot chains through the fold and can only move
    // earlier (exec >= 1), so min over every descendant's start is just the
    // final fold value — no per-entry min against r.
    const Time* exec = exec_.data();
    Time* back = back_start_.data();
    Time free = kInf;
    for_each_descendant(x, [&](const DescEntry e) {
      const Time s = std::min(e.rank, free) - exec[e.id];
      free = s;
      back[e.id] = s;
    });
    r = free;  // x completes no later than any descendant starts
  } else if (single_lane_) {
    Time free = kInf;
    for_each_descendant(x, [&](const DescEntry e) {
      const Time exec = exec_[e.id];
      Time s;
      if (exec == 1) {
        s = std::min(e.rank, free) - 1;
        free = s;
      } else {
        // §4.2 unit-splitting on the single lane.
        s = kInf;
        for (Time piece = 0; piece < exec; ++piece) {
          free = std::min(e.rank, free) - 1;
          s = std::min(s, free);
        }
      }
      back_start_[e.id] = s;
      // x completes no later than any descendant starts.
      r = std::min(r, s);
    });
  } else {
    BackwardPacker packer(packer_lanes_);
    for_each_descendant(x, [&](const DescEntry e) {
      const Time s = packer.insert(fu_class_[e.id],
                                   static_cast<int>(exec_[e.id]), e.rank,
                                   opts.split_long_ops);
      back_start_[e.id] = s;
      r = std::min(r, s);
    });
  }
  // Latency gaps to immediate successors (CSR built in the constructor).
  for (std::uint32_t i = succ_begin_[x]; i < succ_begin_[x + 1]; ++i) {
    r = std::min(r, back_start_[succ_to_[i]] - succ_lat_[i]);
  }

  desc_part_[x] = r;
  rank_[x] = std::min(deadlines[x], r);
}

const std::vector<Time>& RankSession::compute_ranks(
    const DeadlineMap& deadlines, const RankOptions& opts,
    bool* structurally_feasible) {
  AIS_OBS_SPAN_DETAIL("rank.compute");
  const DepGraph& graph = scheduler_->graph();
  AIS_CHECK(deadlines.size() == graph.num_nodes(), "deadline map size");

  const bool can_increment =
      has_ranks_ && cached_split_ == opts.split_long_ops;
  if (!can_increment) {
    // Full pass in reverse topological order.  by_rank_ keeps the nodes
    // processed so far in (rank desc, id asc) order: a node's descendants
    // are always a subset (reverse topo), so one membership-filtered scan
    // extracts them already sorted — the per-node sort of rerank_node is
    // replaced by an O(processed) scan plus one ordered insert.
    std::fill(rank_.begin(), rank_.end(), kInf);
    by_rank_.clear();
    const auto before = [](const DescEntry& a, const DescEntry& b) {
      return a.rank != b.rank ? a.rank > b.rank : a.id < b.id;
    };
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const NodeId x = *it;
      pack_and_finish(x, deadlines, opts);
      const DescEntry self{rank_[x], x};
      const auto at =
          std::lower_bound(by_rank_.begin(), by_rank_.end(), self, before);
      const std::size_t pos = static_cast<std::size_t>(at - by_rank_.begin());
      by_rank_.insert(at, self);
      refresh_rank_pos(pos, by_rank_.size());
    }
  } else {
    // Incremental pass: rank(x) depends only on d(x) and the ranks of x's
    // descendants, so a node needs reranking only when its own deadline
    // moved or some descendant's *rank* actually moved.  The reverse-topo
    // sweep keeps rank_changed_ exact as it goes — a deadline change whose
    // rank is pinned by descendants stops the propagation on the spot (see
    // docs/PERFORMANCE.md for the cone argument).
    changed_.reset_all();
    bool any_changed = false;
    for (const NodeId id : active_ids_) {
      if (deadlines[id] != cached_deadlines_[id]) {
        changed_.set(id);
        any_changed = true;
      }
    }
    if (any_changed) {
      AIS_OBS_COUNT(obs::ctr::kRankIncrementalPasses);
      rank_changed_.reset_all();
      std::uint64_t reranked = 0;
      for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        const NodeId x = *it;
        const bool desc_moved =
            closure_.descendants(x).intersects(rank_changed_);
        if (!desc_moved) {
          if (!changed_.test(x)) continue;
          // Only x's own deadline moved: the cached descendant-driven part
          // is still exact, so the rank refreshes without a repack.  This
          // is the common case in Move_Idle_Slot, whose sigma caps touch
          // O(slot time) deadlines per trial while almost every rank stays
          // pinned by descendants.
          const Time before = rank_[x];
          rank_[x] = std::min(deadlines[x], desc_part_[x]);
          if (rank_[x] != before) {
            rank_changed_.set(x);
            reposition(x, before);
          }
          continue;
        }
        const Time before = rank_[x];
        rerank_node(x, deadlines, opts);
        if (rank_[x] != before) {
          rank_changed_.set(x);
          reposition(x, before);
        }
        ++reranked;
      }
      AIS_OBS_COUNT(obs::ctr::kRankNodesReranked, reranked);
    }
  }

  cached_deadlines_ = deadlines;
  cached_split_ = opts.split_long_ops;
  has_ranks_ = true;

  if (structurally_feasible != nullptr) {
    bool ok = true;
    for (const NodeId id : active_ids_) {
      if (rank_[id] < exec_[id]) ok = false;  // start < 0
    }
    *structurally_feasible = ok;
  }
  return rank_;
}

void RankSession::snapshot() {
  AIS_CHECK(has_ranks_, "snapshot requires computed ranks");
  snap_valid_ = true;
  snap_split_ = cached_split_;
  snap_rank_ = rank_;
  snap_desc_part_ = desc_part_;
  snap_by_rank_ = by_rank_;
  snap_deadlines_ = cached_deadlines_;
}

void RankSession::restore_snapshot() {
  AIS_CHECK(snap_valid_, "restore_snapshot without a snapshot");
  has_ranks_ = true;
  cached_split_ = snap_split_;
  rank_ = snap_rank_;
  desc_part_ = snap_desc_part_;
  by_rank_ = snap_by_rank_;
  refresh_rank_pos(0, by_rank_.size());
  cached_deadlines_ = snap_deadlines_;
}

RankResult RankSession::run(const DeadlineMap& deadlines,
                            const RankOptions& opts) {
  AIS_OBS_SPAN("rank");
  AIS_OBS_COUNT(obs::ctr::kRankRuns);
  AIS_OBS_COUNT(obs::ctr::kRankNodesRanked, active_.size());
  bool structurally_feasible = true;
  const std::vector<Time>& rank =
      compute_ranks(deadlines, opts, &structurally_feasible);

  // Priority list: nondecreasing rank, ties by opts.tie_break then id.  The
  // tie-break presence check and the active-id materialization are hoisted
  // out of the comparator (both used to run once per comparison).
  std::vector<NodeId>& list = list_;
  list.assign(active_ids_.begin(), active_ids_.end());
  if (opts.tie_break.empty()) {
    // Same packed-key trick as the backward pass: when the rank spread fits
    // 32 bits, sort flat (rank - min) << 32 | id words instead of chasing
    // rank[] through the comparator.
    Time rank_min = kInf;
    Time rank_max = -kInf;
    for (const NodeId id : list) {
      rank_min = std::min(rank_min, rank[id]);
      rank_max = std::max(rank_max, rank[id]);
    }
    const auto spread =
        list.empty() ? 0ull : static_cast<std::uint64_t>(rank_max - rank_min);
    if (spread <= 0xFFFFFFFFull) {
      desc_keys_.clear();
      for (const NodeId id : list) {
        desc_keys_.push_back(
            (static_cast<std::uint64_t>(rank[id] - rank_min) << 32) | id);
      }
      std::sort(desc_keys_.begin(), desc_keys_.end());
      for (std::size_t i = 0; i < desc_keys_.size(); ++i) {
        list[i] = static_cast<NodeId>(desc_keys_[i] & 0xFFFFFFFFu);
      }
    } else {
      std::sort(list.begin(), list.end(), [&rank](NodeId a, NodeId b) {
        return std::tie(rank[a], a) < std::tie(rank[b], b);
      });
    }
  } else {
    const std::vector<int>& tie = opts.tie_break;
    std::sort(list.begin(), list.end(), [&rank, &tie](NodeId a, NodeId b) {
      return std::make_tuple(rank[a], tie[a], a) <
             std::make_tuple(rank[b], tie[b], b);
    });
  }

  // Feasibility is decided by the constructed schedule against the original
  // deadlines.  The rank values are priorities and bounds; a rank below the
  // node's execution time usually signals infeasibility, but the packing
  // relaxation can over-tighten ranks in merged instances, so the schedule
  // itself is the arbiter (structural tightness alone never rejects).
  (void)structurally_feasible;
  RankResult result{
      .feasible = true,
      .infeasible_reason = {},
      .rank = rank,
      .schedule = greedy_schedule(
          GreedyInputs{
              .graph = scheduler_->graph(),
              .machine = scheduler_->machine(),
              .active = active_,
              .succ_begin = succ_begin_,
              .succ_to = succ_to_,
              .succ_lat = succ_lat_,
              .pred_count = pred_count_,
          },
          list, greedy_),
      .makespan = 0,
  };
  result.makespan = result.schedule.makespan();

  const DepGraph& graph = scheduler_->graph();
  for (const NodeId id : active_ids_) {
    if (result.schedule.completion(id) > deadlines[id]) {
      result.feasible = false;
      result.infeasible_reason =
          "node " + graph.node(id).name + " misses its deadline";
      break;
    }
  }
  if (!result.feasible) AIS_OBS_COUNT(obs::ctr::kRankInfeasible);
  return result;
}

// --- greedy list scheduling ----------------------------------------------

Schedule RankScheduler::greedy_from_list(const NodeSet& active,
                                         const std::vector<NodeId>& list) const {
  AIS_CHECK(list.size() == active.size(),
            "priority list must cover the active set exactly");
  for (const NodeId id : list) {
    AIS_CHECK(active.contains(id), "priority list node outside active set");
  }

  // The kernel's inputs, built the way RankSession builds them once per
  // session.
  std::vector<std::uint32_t> succ_begin;
  std::vector<NodeId> succ_to;
  std::vector<Time> succ_lat;
  std::vector<std::int32_t> pred_count;
  build_active_csr(graph_, active, succ_begin, succ_to, succ_lat, pred_count);
  GreedyScratch scratch;
  return greedy_schedule(
      GreedyInputs{
          .graph = graph_,
          .machine = machine_,
          .active = active,
          .succ_begin = succ_begin,
          .succ_to = succ_to,
          .succ_lat = succ_lat,
          .pred_count = pred_count,
      },
      list, scratch);
}

}  // namespace ais
