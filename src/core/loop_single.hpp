// Anticipatory scheduling of a loop containing a single basic block (§5.2).
//
// A block-optimal schedule can be steady-state suboptimal and vice versa
// (paper Fig. 3), because iteration k's tail overlaps iteration k+1's head
// in the lookahead window and through loop-carried latencies.  The paper's
// solutions build an *acyclic* surrogate graph G' and schedule it with the
// Rank Algorithm + idle-slot delaying:
//
//  §5.2.1 single-source: dummy sink z stands for the next iteration's
//         instance of the source y; every node gets a 0-latency edge to z;
//         each carried edge (u, v) becomes (u, z) with the same latency.
//  §5.2.2 single-sink (duality): dummy source z stands for the previous
//         iteration's instance of the sink y; z gets a 0-latency edge to
//         every node; each carried edge (u, v) becomes (z, v).
//  §5.2.3 general case: try every target of a carried edge as a source
//         candidate and every source of a carried edge as a sink candidate,
//         and keep the best steady-state schedule.  For 0/1 latencies the
//         candidate set prunes to sources/sinks of the loop-independent
//         subgraph.
//
// Many pivots build the same surrogate up to what scheduling can see: the
// dummy's exec time, FU class and block, and each carried neighbour's
// largest latency (a 0 adds nothing to the universal 0-latency edges).
// The search schedules each distinct surrogate once and gives a repeated
// one's order and makespan to every pivot that builds it, so the
// candidate list is exactly the per-pivot one (docs/PERFORMANCE.md, "Loop
// candidate search", has the proof).
//
// Candidate quality is judged by the *steady-state initiation interval*,
// which depends on the lookahead machine; callers supply an evaluator
// (usually sim::steady_state_period) so this module stays simulator-free.
#pragma once

#include <functional>
#include <vector>

#include "core/rank.hpp"
#include "graph/depgraph.hpp"

namespace ais {

struct LoopCandidate {
  /// The pivot node y this candidate was built around.
  NodeId pivot = kInvalidNode;
  /// True for the §5.2.1 (dummy-sink) construction, false for §5.2.2.
  bool source_form = true;
  /// Emitted instruction order for the block (original node ids).
  std::vector<NodeId> order;
  /// Makespan of the surrogate acyclic schedule (diagnostic; the relative
  /// completion-time objective the construction minimizes).
  Time surrogate_makespan = 0;
  /// Evaluator score of `order`; set by schedule_single_block_loop (0 on
  /// the candidates loop_single_candidates returns).
  double score = 0;
};

struct LoopSingleOptions {
  RankOptions rank;
  /// Prune candidates to G_li sources (step 1) / sinks (step 2); valid for
  /// 0/1 latencies (paper's observation).  Default: prune only when the
  /// machine is the restricted case.
  enum class Prune { kAuto, kAlways, kNever } prune = Prune::kAuto;
};

/// Builds the §5.2.1/§5.2.2 surrogate graph for pivot `y` and schedules it;
/// `g` must be a single-block loop graph with carried edges.
LoopCandidate build_loop_candidate(const DepGraph& g,
                                   const MachineModel& machine, NodeId pivot,
                                   bool source_form,
                                   const RankOptions& rank_opts);

/// Enumerates every §5.2.3 candidate (both constructions, pruned per opts),
/// equal to build_loop_candidate for each admitted (pivot, form) in order,
/// but runs build_loop_candidate once per distinct surrogate.  Counts
/// `loop.candidates` and `loop.surrogates`.  If the loop has no carried
/// edges, returns the single plain block schedule.
std::vector<LoopCandidate> loop_single_candidates(
    const DepGraph& g, const MachineModel& machine,
    const LoopSingleOptions& opts = {});

/// Runs §5.2.3: enumerate candidates and keep the one with the smallest
/// evaluator score (e.g. simulated steady-state cycles per iteration);
/// among equal scores the smaller surrogate makespan wins, then the earlier
/// candidate.  The winner comes back with its score filled in.
///
/// Evaluator contract: `evaluate` is called once per distinct order, in
/// the order in which each distinct order first occurs among the
/// candidates; a later candidate whose order is identical reuses that first
/// score.  So the score must depend only on the order.
LoopCandidate schedule_single_block_loop(
    const DepGraph& g, const MachineModel& machine,
    const std::function<double(const std::vector<NodeId>&)>& evaluate,
    const LoopSingleOptions& opts = {});

}  // namespace ais
