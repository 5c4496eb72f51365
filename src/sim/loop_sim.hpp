// Loop execution on the lookahead machine.
//
// The completion time of n iterations equals that of the completely unrolled
// trace, ignoring loop-back branch cost (paper §5): the dynamic stream is
// the per-iteration priority list repeated n times, and a <latency, distance>
// edge (u, v) constrains instance v[k] against u[k - distance].
#pragma once

#include <vector>

#include "graph/depgraph.hpp"
#include "machine/machine_model.hpp"

namespace ais {

struct LoopSimResult {
  /// Completion time of the whole unrolled run.
  Time completion = 0;
  /// Completion time of the last instruction of each iteration.
  std::vector<Time> iteration_finish;
  /// The period the simulator skipped ahead by, or 0 and 0 when it
  /// simulated every cycle: the machine state at one iteration boundary
  /// recurred `period_iterations` iterations and `period_cycles` cycles
  /// later, so whole periods were copied instead of simulated (the results
  /// above are exactly those of the full simulation either way).
  int period_iterations = 0;
  Time period_cycles = 0;
};

/// Simulates `iterations` repetitions of `per_iteration_list` (a permutation
/// of a loop body; for multi-block bodies pass the concatenated per-block
/// orders) with lookahead window `window`.
LoopSimResult simulate_loop(const DepGraph& g, const MachineModel& machine,
                            const std::vector<NodeId>& per_iteration_list,
                            int window, int iterations);

/// Steady-state initiation interval: cycles per iteration once the pipeline
/// has warmed up, measured as the slope of iteration finish times over the
/// second half of `iterations` runs (default 48).
double steady_state_period(const DepGraph& g, const MachineModel& machine,
                           const std::vector<NodeId>& per_iteration_list,
                           int window, int iterations = 48);

}  // namespace ais
