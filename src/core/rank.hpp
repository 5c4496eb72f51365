// The Rank Algorithm (Palem & Simons, TOPLAS'93) as used by the paper.
//
// rank(x) is an upper bound on the completion time of x in any schedule in
// which x and all of its descendants meet their deadlines.  The algorithm:
//
//   1. compute ranks of all nodes (reverse topological order; for each node,
//      backward-schedule its descendants as late as their ranks allow),
//   2. order nodes by nondecreasing rank,
//   3. greedy (list) schedule in that order.
//
// For the restricted case — unit execution times, latencies in {0,1}, a
// single functional unit — the result is an optimal (minimum makespan,
// minimum tardiness) schedule.  For typed multiple units, non-unit execution
// times and longer latencies it is the §4.2 heuristic: the backward pass
// packs per-FU-class (optionally unit-splitting long operations) and the
// forward pass respects unit typing and issue width.
//
// rank(x) for node x with descendant set D(x):
//
//   backward-schedule D(x) in nonincreasing rank order, each node completing
//   at the latest free slot <= its rank on a unit of its class; with s_y the
//   resulting start times,
//
//   rank(x) = min( d(x),
//                  min_{y in D(x)} s_y,                     [x precedes all]
//                  min_{(x,y) edge} s_y - latency(x, y) )   [latency gaps]
//
// This formulation reproduces every rank value printed in the paper's
// worked examples (see tests/test_paper_figures.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/deadlines.hpp"
#include "core/schedule.hpp"
#include "graph/closure.hpp"
#include "graph/depgraph.hpp"
#include "graph/nodeset.hpp"
#include "machine/machine_model.hpp"
#include "support/arena.hpp"
#include "support/bitset.hpp"

namespace ais {

struct RankOptions {
  /// Secondary priority for equal ranks; lower values are scheduled first.
  /// Empty = ascending node id (stable, deterministic).
  std::vector<int> tie_break;
  /// §4.2 "non-unit execution times": when true, long operations are broken
  /// into unit pieces in the backward pass (tighter packing bound); when
  /// false they are inserted whole.
  bool split_long_ops = false;
};

struct RankResult {
  /// True iff every rank admits a start >= 0 and the greedy schedule meets
  /// every deadline.
  bool feasible = false;
  std::string infeasible_reason;
  /// rank[id]; only entries of active nodes are meaningful.
  std::vector<Time> rank;
  Schedule schedule;
  Time makespan = 0;
};

/// Reusable buffers of the greedy list-scheduling kernel (rank.cpp).  A
/// RankSession keeps one across runs, so its repeated greedy passes stop
/// allocating; RankScheduler::greedy_from_list uses a fresh one per call.
struct GreedyScratch {
  using Pending = std::pair<Time, std::uint32_t>;  // (est, list position)

  std::vector<int> unit_base;             // [class] first global unit
  std::vector<Time> unit_free;            // [unit] cycle the unit frees up
  std::vector<std::uint32_t> pos;         // [node] position in the list
  std::vector<std::int32_t> preds_left;   // [node] unplaced active preds
  std::vector<Time> est;                  // [node] earliest legal start
  std::vector<std::uint64_t> ready;       // bitset over list positions
  std::vector<Pending> pending;           // min-heap of future releases
  std::vector<char> class_waiting;        // [class] some ready node waits
};

class RankScheduler {
 public:
  /// `g` must outlive the scheduler; the machine model is copied (it is
  /// small, and callers routinely pass preset temporaries).
  RankScheduler(const DepGraph& g, MachineModel machine);

  /// Runs ranks + greedy scheduling of `active` under `deadlines`.
  RankResult run(const NodeSet& active, const DeadlineMap& deadlines,
                 const RankOptions& opts = {}) const;

  /// Rank computation only.  Sets *structurally_feasible to false when some
  /// rank cannot be met by any schedule (rank(x) < exec_time(x)).
  std::vector<Time> compute_ranks(const NodeSet& active,
                                  const DeadlineMap& deadlines,
                                  const RankOptions& opts,
                                  bool* structurally_feasible) const;

  /// Greedy list scheduling of `active` using the given priority list
  /// (every active node exactly once).  Exposed for the legality checker's
  /// Ordering Constraint and for baselines.
  Schedule greedy_from_list(const NodeSet& active,
                            const std::vector<NodeId>& list) const;

  const MachineModel& machine() const { return machine_; }
  const DepGraph& graph() const { return graph_; }

 private:
  const DepGraph& graph_;
  MachineModel machine_;
};

/// Reusable scheduling context for one fixed (graph, active) pair.
///
/// The deadline-driven loops of the paper — Merge's relaxation rounds
/// (Fig. 7) and Move_Idle_Slot's tail tightening (Fig. 4) — re-run the Rank
/// Algorithm many times over the *same* active set while only deadlines
/// change.  A session caches everything that is invariant across those runs
/// (the topological order, the descendant closure, the sorted active-id
/// list, the backward-pass scratch buffers) and recomputes ranks
/// incrementally: when the deadlines of a set S changed since the previous
/// call, only S and its ancestors (queryable from the cached closure) can
/// change rank, so the backward pass restarts from that cone instead of all
/// nodes.  Results are bit-identical to a fresh computation
/// (tests/test_differential.cpp enforces this against the uncached
/// reference path); see docs/PERFORMANCE.md for the invariant's proof
/// sketch.
///
/// A session is single-threaded mutable state; concurrent compiles use one
/// session per thread (they hold distinct graphs anyway).
class RankSession {
 public:
  /// `scheduler` must outlive the session; `active` is copied.  The active
  /// induced subgraph must be acyclic.
  explicit RankSession(const RankScheduler& scheduler, const NodeSet& active);

  /// Ranks of the active nodes under `deadlines`; same contract as
  /// RankScheduler::compute_ranks.  The returned reference is invalidated
  /// by the next compute_ranks / run call on this session.
  const std::vector<Time>& compute_ranks(const DeadlineMap& deadlines,
                                         const RankOptions& opts,
                                         bool* structurally_feasible = nullptr);

  /// Ranks + greedy schedule; same contract as RankScheduler::run.
  RankResult run(const DeadlineMap& deadlines, const RankOptions& opts = {});

  /// Saves the current rank cache (ranks, descendant parts, rank ordering,
  /// deadlines).  Requires ranks to have been computed.
  void snapshot();
  /// Restores the last snapshot in O(active) time.  Speculative deadline
  /// trials (Move_Idle_Slot) snapshot the base state and restore it on
  /// failure, so the next trial's incremental pass pays only for its own
  /// deadline caps — never for undoing the previous trial's.
  void restore_snapshot();

  const RankScheduler& scheduler() const { return *scheduler_; }
  const NodeSet& active() const { return active_; }
  /// active().ids(), materialized once at construction.
  const std::vector<NodeId>& active_ids() const { return active_ids_; }
  const DescendantClosure& closure() const { return closure_; }
  /// Cached topological order of the active nodes.
  const std::vector<NodeId>& topo() const { return order_; }

 private:
  /// Recomputes rank_[x] (and its cached descendant-driven part); the ranks
  /// of all descendants of x must be final.
  void rerank_node(NodeId x, const DeadlineMap& deadlines,
                   const RankOptions& opts);
  /// Calls fn(DescEntry) for each descendant of x in (rank desc, id asc)
  /// order.  Dense closure rows use a filtered scan of by_rank_ (sequential
  /// loads, descendants are a large predictable fraction); sparse rows use
  /// word-driven iteration over the row (mark each descendant's by_rank_
  /// position in pos_words_, sweep ascending — ascending position *is* the
  /// wanted order, so no comparison happens, at O(descendants +
  /// by_rank_/64)).  Both paths visit the identical sequence.
  template <typename Fn>
  void for_each_descendant(NodeId x, Fn&& fn);
  /// Rewrites rank_pos_ for by_rank_ positions [from, to).
  void refresh_rank_pos(std::size_t from, std::size_t to);
  /// Backward-packs desc_entries_ (already in (rank desc, id asc) order)
  /// and finishes rank_[x] / desc_part_[x].
  void pack_and_finish(NodeId x, const DeadlineMap& deadlines,
                       const RankOptions& opts);
  /// Moves x's by_rank_ entry from its old_rank position to where rank_[x]
  /// now sorts it.
  void reposition(NodeId x, Time old_rank);

  const RankScheduler* scheduler_;
  NodeSet active_;
  std::vector<NodeId> order_;       // topo order of the active nodes
  std::vector<NodeId> active_ids_;  // == active_.ids(), materialized once

  // Backing store for the closure matrix and the session-internal scratch
  // vectors below: they are sized once to the active set and die with the
  // session, so their growth is pointer bumps instead of a dozen mallocs
  // per session.  Declared before closure_ (members initialize in
  // declaration order and the closure's row matrix is carved from this
  // arena).  Members the API exposes by reference (order_, active_ids_,
  // rank_, snap_rank_, deadline maps) stay ordinary vectors.  Full-size
  // initial chunks: a session always fills tens of KiB of scratch, and the
  // construction cost is on the per-compile hot path.
  Arena arena_{Arena::kDefaultChunkBytes, Arena::kDefaultChunkBytes};
  DescendantClosure closure_;

  // Flat copies of the per-node fields the backward pass touches — NodeInfo
  // drags a std::string through the cache per access, these do not.
  bool single_lane_ = false;  // machine has exactly one unit overall
  ArenaVector<Time> exec_;
  ArenaVector<std::int32_t> fu_class_;
  // CSR of distance-0 out-edges between active nodes: targets/latencies of
  // node x live at [succ_begin_[x], succ_begin_[x + 1]).
  ArenaVector<std::uint32_t> succ_begin_;
  ArenaVector<NodeId> succ_to_;
  ArenaVector<Time> succ_lat_;
  // Active in-degree over that CSR: the greedy pass's initial predecessor
  // counts, fixed for the session's lifetime.
  ArenaVector<std::int32_t> pred_count_;
  // run()'s priority list and greedy kernel buffers, reused across runs.
  std::vector<NodeId> list_;
  GreedyScratch greedy_;

  // Rank cache: valid while has_ranks_, for deadlines cached_deadlines_ and
  // the split_long_ops setting cached_split_.  rank_[x] ==
  // min(deadline[x], desc_part_[x]); the descendant-driven part is cached
  // separately so a node whose own deadline moved — but whose descendants'
  // ranks did not — reranks in O(1) instead of repacking its closure.
  bool has_ranks_ = false;
  bool cached_split_ = false;
  DeadlineMap cached_deadlines_;
  std::vector<Time> rank_;
  ArenaVector<Time> desc_part_;

  // Scratch hoisted out of the per-node backward pass.
  struct DescEntry {
    Time rank;
    NodeId id;
  };
  ArenaVector<std::uint64_t> desc_keys_;
  // Active nodes in (rank desc, id asc) order, maintained across passes
  // (full pass rebuilds it; incremental passes reposition changed nodes),
  // so a node's descendants come out of one membership-filtered scan
  // already sorted — no per-node sort anywhere in the backward pass.
  ArenaVector<DescEntry> by_rank_;
  // rank_pos_[id] = id's position in by_rank_ (maintained by the same
  // shifts that move the entries); pos_words_ is the position-space scratch
  // bitset extract_descendants marks and sweeps.
  ArenaVector<std::uint32_t> rank_pos_;
  ArenaVector<std::uint64_t> pos_words_;
  ArenaVector<Time> back_start_;
  std::vector<std::vector<Time>> packer_lanes_;  // [class][lane]
  DynamicBitset changed_;       // deadline-changed nodes, per call
  DynamicBitset rank_changed_;  // rank-moved nodes, per call

  // snapshot() / restore_snapshot() state.
  bool snap_valid_ = false;
  bool snap_split_ = false;
  std::vector<Time> snap_rank_;
  ArenaVector<Time> snap_desc_part_;
  ArenaVector<DescEntry> snap_by_rank_;
  DeadlineMap snap_deadlines_;
};

}  // namespace ais
