// Facade: the one-call interface a compiler backend would use.
//
// Wraps the whole pipeline — dependence analysis, Algorithm Lookahead for
// traces (§4), the wrap-around step for multi-block loop bodies (§5.1) and
// the candidate search for single-block loops (§5.2) — behind `schedule`
// overloads that take IR and return reordered IR with diagnostics attached.
#pragma once

#include <vector>

#include "core/lookahead.hpp"
#include "ir/depbuild.hpp"
#include "ir/instruction.hpp"
#include "machine/machine_model.hpp"
#include "verify/verify.hpp"

namespace ais {

/// Result of scheduling a trace: reordered blocks (same labels, same
/// instruction multisets — nothing crosses a block boundary) plus the
/// dependence graph and per-iteration diagnostics for inspection.
struct ScheduledTrace {
  std::vector<BasicBlock> blocks;
  DepGraph graph;
  LookaheadResult detail;
  int window = 0;

  /// Simulated completion of the emitted code on the lookahead machine.
  Time simulated_cycles(const MachineModel& machine) const;
};

/// Result of scheduling a loop body.
struct ScheduledLoop {
  std::vector<BasicBlock> blocks;
  DepGraph graph;
  /// Steady-state cycles per iteration of the selected schedule.
  double cycles_per_iteration = 0;
  int window = 0;
};

/// Anticipatorily schedules `trace` for `machine`.  `window` = 0 uses the
/// machine's default lookahead window.
ScheduledTrace schedule(const Trace& trace, const MachineModel& machine,
                        int window = 0, const DepBuildOptions& deps = {});

/// Anticipatorily schedules the body of `loop`: §5.2.3 for a single block,
/// §5.1 (Algorithm Lookahead + wrap-around clone) for multi-block bodies.
ScheduledLoop schedule(const Loop& loop, const MachineModel& machine,
                       int window = 0, const DepBuildOptions& deps = {});

/// Runs the independent static-analysis oracle (src/verify) over a
/// scheduling result: emitted-code legality against dependences re-derived
/// from `original`'s IR, plus the planning-order window constraint.
/// `check_optimality` additionally certifies completion time on restricted
/// machines (brute-force cross-check; keep inputs small).
verify::Report verify_schedule(const Trace& original,
                               const ScheduledTrace& scheduled,
                               const MachineModel& machine,
                               bool check_optimality = false);

/// Loop variant: emitted-code legality of the reordered body (the window
/// constraint and optimality certificate do not apply to steady state).
verify::Report verify_schedule(const Loop& original,
                               const ScheduledLoop& scheduled,
                               const MachineModel& machine);

}  // namespace ais
