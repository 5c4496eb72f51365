#include "driver/function_compiler.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "baselines/block_schedulers.hpp"
#include "obs/obs.hpp"
#include "sim/lookahead_sim.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace ais {
namespace {

/// Everything one trace contributes to the program, produced independently
/// of every other trace (select_traces assigns each block to exactly one
/// trace).
struct TraceOutcome {
  ScheduledTrace scheduled;
  verify::Report verification;
  Time hot_cycles_before = 0;
  Time hot_cycles_after = 0;
};

TraceOutcome compile_trace(const Cfg& cfg, const SelectedTrace& selected,
                           const MachineModel& machine, int w, bool verify,
                           bool hot) {
  const Trace trace = materialize(cfg, selected);
  TraceOutcome out{schedule(trace, machine, w), {}, 0, 0};
  AIS_CHECK(out.scheduled.blocks.size() == selected.blocks.size(),
            "scheduled trace block count mismatch");
  if (verify) {
    out.verification = verify_schedule(trace, out.scheduled, machine);
  }
  if (hot) {
    // Hot-trace diagnostics: original order vs anticipatory order, both on
    // the graph schedule() built.
    const DepGraph& g = out.scheduled.graph;
    out.hot_cycles_before = simulated_completion(
        g, machine,
        schedule_trace_per_block(g, machine, BlockScheduler::kSourceOrder), w);
    out.hot_cycles_after = out.scheduled.simulated_cycles(machine);
  } else {
    // The fold only consumes the reordered blocks; dropping the graph and
    // per-iteration diagnostics here keeps the peak footprint of a
    // many-trace compile at O(blocks), not O(traces * arena).
    out.scheduled.graph = DepGraph();
    out.scheduled.detail = LookaheadResult();
  }
  return out;
}

}  // namespace

CompiledProgram compile_program(const Cfg& cfg, const MachineModel& machine,
                                int window, bool verify, int jobs) {
  AIS_OBS_SPAN("compile.program");
  AIS_OBS_TIMER(obs::hist::kCompileProgramUs);
  const int w = window == 0 ? machine.default_window() : window;

  CompiledProgram out;
  {
    AIS_OBS_SPAN("trace_select");
    out.traces = select_traces(cfg);
  }
  out.window = w;

  // Compile traces independently (possibly on the pool), then fold the
  // outcomes back in trace order so every job count yields the same program
  // and the same verification-report order.
  std::vector<std::optional<TraceOutcome>> outcomes(out.traces.size());
  parallel_for(jobs, out.traces.size(), [&](std::size_t t) {
    outcomes[t].emplace(
        compile_trace(cfg, out.traces[t], machine, w, verify, t == 0));
  });

  // The traces partition the blocks, so each block of the program is filled
  // from exactly one trace's scheduled blocks.
  out.program.blocks.resize(cfg.num_blocks());
  std::vector<char> filled(cfg.num_blocks(), 0);
  for (std::size_t t = 0; t < out.traces.size(); ++t) {
    const SelectedTrace& selected = out.traces[t];
    TraceOutcome& outcome = *outcomes[t];
    for (std::size_t i = 0; i < selected.blocks.size(); ++i) {
      const std::size_t id = static_cast<std::size_t>(selected.blocks[i]);
      AIS_CHECK(!filled[id], "block filled by two traces");
      filled[id] = 1;
      out.program.blocks[id] = std::move(outcome.scheduled.blocks[i]);
    }
    if (verify) out.verification.merge(outcome.verification);
    if (t == 0) {
      out.hot_trace_cycles_before = outcome.hot_cycles_before;
      out.hot_trace_cycles_after = outcome.hot_cycles_after;
    }
  }
  AIS_CHECK(std::find(filled.begin(), filled.end(), 0) == filled.end(),
            "block left out of every trace");
  return out;
}

}  // namespace ais
