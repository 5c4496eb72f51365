// Algorithm Lookahead (paper Fig. 5): anticipatory scheduling of a trace.
//
// Iterates over the blocks of a trace maintaining a live suffix `old` of
// not-yet-emitted instructions:
//
//   for each block BB_i:
//     (S, d) := merge(old, BB_i, d_old, W)     -- new fills old's idle slots
//     (S, d) := Delay_Idle_Slots(S, d)         -- push idle slots late
//     (S-, S+, d) := chop(S, d)                -- emit the settled prefix
//     sched := sched o S-;  old := S+
//   sched := sched o S+
//
// The output is a *permutation* of the trace: its per-block subpermutations
// are the code the compiler emits (instructions never cross block
// boundaries in the emitted code); overlap between blocks happens only in
// the hardware lookahead window at run time.  Optimal for the restricted
// case (0/1 latencies, unit execution times, single FU); the §4.2 heuristic
// otherwise.
#pragma once

#include <vector>

#include "core/deadlines.hpp"
#include "core/rank.hpp"

namespace ais {

struct LookaheadOptions {
  /// Hardware lookahead window size W.
  int window = 4;
  /// Artificial deadline D; 0 = derive from the graph (huge_deadline).
  Time huge = 0;
  RankOptions rank;
  /// Ablation switches (bench_ablation): disable individual ingredients.
  bool delay_idle = true;     // run Delay_Idle_Slots after each merge
  bool merge_deadline_caps = true;  // cap old deadlines in merge
  bool do_chop = true;        // emit settled prefixes (off = re-merge all)
};

struct LookaheadDiagnostics {
  /// Makespan of each per-iteration merged schedule (after idle delaying).
  std::vector<Time> merged_makespans;
  /// Number of chops that actually emitted a prefix.
  std::size_t prefixes_emitted = 0;
  /// Widest inversion span of the planning order (0 = no inversion); spans
  /// > W mean Merge packed new-block nodes deeper than the hardware window
  /// reaches — legal for the emitted per-block code, tracked by the
  /// `lookahead.window_span_gt_w` obs counter (see ROADMAP `window-span`).
  /// Computed only while telemetry is enabled (stays 0 otherwise).
  std::size_t max_inversion_span = 0;
};

struct LookaheadResult {
  /// The planning permutation over all trace nodes (may interleave blocks).
  std::vector<NodeId> order;
  /// Emitted code: the subpermutation of `order` for each block.
  std::vector<std::vector<NodeId>> per_block;
  LookaheadDiagnostics diag;

  /// The hardware priority list L = P1 o P2 o ... o Pm.
  std::vector<NodeId> priority_list() const;
};

/// Partition of `g`'s nodes into blocks by NodeInfo::block (dense indices).
std::vector<NodeSet> blocks_of(const DepGraph& g);

/// Runs Algorithm Lookahead over `blocks` (in trace order).
LookaheadResult schedule_trace(const RankScheduler& scheduler,
                               const std::vector<NodeSet>& blocks,
                               const LookaheadOptions& opts);

/// Convenience overload: blocks recovered from the graph's node metadata.
LookaheadResult schedule_trace(const RankScheduler& scheduler,
                               const LookaheadOptions& opts);

}  // namespace ais
