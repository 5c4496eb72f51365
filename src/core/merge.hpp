// Procedure Merge (paper Fig. 7).
//
// Schedules old ∪ new so that instructions of the incoming block only fill
// idle slots of the retained suffix, never displace it:
//
//   1. schedule old ∪ new under one huge deadline D — its makespan T is a
//      lower bound for any legal schedule of the union,
//   2. cap old deadlines at min(previous deadline, T_old) where T_old is the
//      makespan of scheduling `old` alone, give every new node deadline T,
//   3. if infeasible, relax the new nodes' deadlines by +1 until the Rank
//      Algorithm finds a feasible schedule (the minimum such relaxation).
//
// Step 3 is implemented as galloping (1, 2, 4, …) plus bisection on the
// relax amount in the restricted case, where feasibility is monotone in the
// relaxation; heuristic regimes (latencies > 1, typed units, long ops) keep
// the original +1 linear scan so the accepted relaxation is unchanged.  See
// docs/PERFORMANCE.md.
#pragma once

#include "core/deadlines.hpp"
#include "core/rank.hpp"

namespace ais {

struct MergeResult {
  /// Feasible schedule of old ∪ new.
  Schedule schedule;
  Time makespan = 0;
  /// Deadlines of old ∪ new after merging (old caps + relaxed new deadline).
  DeadlineMap deadlines;
  /// Ranks from the final feasible run (inputs to later passes).
  std::vector<Time> rank;
  /// Relaxation amount of the accepted schedule: new-node deadlines ended at
  /// t_lower + relax.  Minimal in the restricted case.
  Time relax = 0;
};

/// Merges `old_nodes` (with current deadlines in `deadlines`, scheduled
/// alone in `t_old` cycles) with `new_nodes`.  `deadlines` entries of new
/// nodes are ignored on input.  `huge` is the artificial deadline D.
MergeResult merge_blocks(const RankScheduler& scheduler,
                         const NodeSet& old_nodes, const NodeSet& new_nodes,
                         const DeadlineMap& deadlines, Time t_old, Time huge,
                         const RankOptions& opts = {});

}  // namespace ais
