#include "driver/anticipatory.hpp"

#include "core/loop_single.hpp"
#include "core/loop_trace.hpp"
#include "obs/obs.hpp"
#include "sim/lookahead_sim.hpp"
#include "sim/loop_sim.hpp"
#include "support/assert.hpp"

namespace ais {
namespace {

/// Reassembles per-block instruction orders into BasicBlocks.  Node id i is
/// instruction i in trace emission order (blocks concatenated), which is
/// how the dependence builder numbers them.
std::vector<BasicBlock> reorder_blocks(
    const Trace& trace, const std::vector<std::vector<NodeId>>& per_block) {
  AIS_OBS_SPAN("emit");
  // Flatten the original instructions in numbering order.
  std::size_t total = 0;
  for (const BasicBlock& bb : trace.blocks) total += bb.insts.size();
  std::vector<const Instruction*> flat;
  flat.reserve(total);
  for (const BasicBlock& bb : trace.blocks) {
    for (const Instruction& inst : bb.insts) flat.push_back(&inst);
  }

  std::vector<BasicBlock> out;
  AIS_CHECK(per_block.size() == trace.blocks.size(),
            "per-block orders do not match the trace");
  out.reserve(per_block.size());
  for (std::size_t b = 0; b < per_block.size(); ++b) {
    BasicBlock bb;
    bb.label = trace.blocks[b].label;
    bb.insts.reserve(per_block[b].size());
    for (const NodeId id : per_block[b]) {
      AIS_CHECK(id < flat.size(), "node id out of range");
      bb.insts.push_back(*flat[id]);
    }
    AIS_CHECK(bb.insts.size() == trace.blocks[b].insts.size(),
              "scheduled block lost or gained instructions");
    out.push_back(std::move(bb));
  }
  return out;
}

int resolve_window(const MachineModel& machine, int window) {
  AIS_CHECK(window >= 0, "window must be nonnegative");
  return window == 0 ? machine.default_window() : window;
}

}  // namespace

Time ScheduledTrace::simulated_cycles(const MachineModel& machine) const {
  return simulated_completion(graph, machine, detail.priority_list(), window);
}

ScheduledTrace schedule(const Trace& trace, const MachineModel& machine,
                        int window, const DepBuildOptions& deps) {
  AIS_OBS_SPAN("compile.trace");
  const int w = resolve_window(machine, window);
  DepGraph g = [&] {
    AIS_OBS_SPAN("deps");
    return build_trace_graph(trace, machine, deps);
  }();
  const RankScheduler scheduler(g, machine);
  LookaheadOptions opts;
  opts.window = w;
  LookaheadResult detail = schedule_trace(scheduler, opts);

  ScheduledTrace out{
      .blocks = reorder_blocks(trace, detail.per_block),
      .graph = std::move(g),
      .detail = std::move(detail),
      .window = w,
  };
  return out;
}

verify::Report verify_schedule(const Trace& original,
                               const ScheduledTrace& scheduled,
                               const MachineModel& machine,
                               bool check_optimality) {
  AIS_OBS_SPAN("verify");
  verify::VerifyOptions opts;
  opts.window = scheduled.window;
  opts.check_optimality = check_optimality;
  verify::Report report =
      verify::check_emitted(original, scheduled.blocks, machine, opts);
  report.merge(verify::check_planning(scheduled.graph, scheduled.detail.order,
                                      scheduled.detail.per_block,
                                      scheduled.window));
  return report;
}

verify::Report verify_schedule(const Loop& original,
                               const ScheduledLoop& scheduled,
                               const MachineModel& machine) {
  AIS_OBS_SPAN("verify");
  verify::VerifyOptions opts;
  opts.window = scheduled.window;
  return verify::check_emitted(original.body, scheduled.blocks, machine, opts);
}

ScheduledLoop schedule(const Loop& loop, const MachineModel& machine,
                       int window, const DepBuildOptions& deps) {
  AIS_OBS_SPAN("compile.loop");
  const int w = resolve_window(machine, window);
  DepGraph g = [&] {
    AIS_OBS_SPAN("deps");
    return build_loop_graph(loop, machine, deps);
  }();

  std::vector<std::vector<NodeId>> per_block;
  double cycles_per_iteration = 0;
  if (loop.body.blocks.size() == 1) {
    const auto evaluator = [&](const std::vector<NodeId>& order) {
      return steady_state_period(g, machine, order, w);
    };
    LoopCandidate best = schedule_single_block_loop(g, machine, evaluator);
    // The search already simulated the winner: its score is the period.
    cycles_per_iteration = best.score;
    per_block.push_back(std::move(best.order));
  } else {
    LookaheadOptions opts;
    opts.window = w;
    const LookaheadResult res = schedule_loop_trace(g, machine, opts);
    per_block = res.per_block;
    cycles_per_iteration =
        steady_state_period(g, machine, res.priority_list(), w);
  }

  return ScheduledLoop{
      .blocks = reorder_blocks(loop.body, per_block),
      .graph = std::move(g),
      .cycles_per_iteration = cycles_per_iteration,
      .window = w,
  };
}

}  // namespace ais
