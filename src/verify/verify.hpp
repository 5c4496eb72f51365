// Top-level verification entry points: the oracle run by `aislint`, by
// `aisc --verify`, and by the test suites after every compile.
//
// Everything here re-derives its ground truth from the IR via
// verify/ir_deps.hpp — it shares no dependence-analysis code with the
// scheduler's pipeline (ir/depbuild.cpp), so a bug there cannot
// self-certify.
#pragma once

#include <span>
#include <vector>

#include "graph/depgraph.hpp"
#include "ir/instruction.hpp"
#include "machine/machine_model.hpp"
#include "verify/ir_deps.hpp"
#include "verify/report.hpp"
#include "verify/schedule_check.hpp"

namespace ais::verify {

struct VerifyOptions {
  /// Hardware lookahead window W the emitted code targets.
  int window = 1;
  /// Attempt an optimality certificate (restricted machines only).
  bool check_optimality = false;
  /// Brute-force enumeration budget for the certificate.
  std::size_t enumeration_cap = 50000;
  /// Mirrors DepBuildOptions::disambiguate_memory.
  bool disambiguate_memory = true;
};

/// Builds a DepGraph from independently re-derived dependences; node i is
/// flat instruction i of `trace`.  The verifier's own program representation
/// (never touches ir/depbuild.cpp).
DepGraph graph_from_ir(const Trace& trace, const MachineModel& machine,
                       const std::vector<IrDep>& deps);

/// End-to-end check that `scheduled` is a legal anticipatory compilation of
/// `original`: same blocks with the same labels, every block a permutation
/// of its original instructions (nothing crosses a block boundary), branches
/// still last, and every re-derived dependence ordered correctly in the
/// emitted stream.  With opts.check_optimality set, additionally simulates
/// the emitted priority list at opts.window and certifies its completion.
/// Codes: "block-structure", "cross-block-motion", "branch-position",
/// "dep-order", "optimality*".
Report check_emitted(const Trace& original,
                     std::span<const BasicBlock> scheduled,
                     const MachineModel& machine,
                     const VerifyOptions& opts = {});

/// The same check on a scheduled Trace.
Report check_emitted(const Trace& original, const Trace& scheduled,
                     const MachineModel& machine,
                     const VerifyOptions& opts = {});

/// Checks a planning permutation and its per-block split (the shape
/// Algorithm Lookahead emits): coverage + dependences (check_order), the
/// window constraint (check_window, warning severity — the planning order
/// is advisory and may promise more overlap than a W-deep window realizes),
/// and that `per_block[b]` is exactly the block-b subpermutation of
/// `order`.
/// Codes: "order-coverage", "dep-order", "window-span" (warning),
/// "subpermutation".
Report check_planning(const DepGraph& g, const std::vector<NodeId>& order,
                      const std::vector<std::vector<NodeId>>& per_block,
                      int window);

}  // namespace ais::verify
