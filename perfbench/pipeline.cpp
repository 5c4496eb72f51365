#include "pipeline.hpp"

#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "baselines/block_schedulers.hpp"
#include "bench.hpp"
#include "cfg/cfg.hpp"
#include "cfg/trace_select.hpp"
#include "core/loop_single.hpp"
#include "driver/anticipatory.hpp"
#include "ir/asm_parser.hpp"
#include "ir/depbuild.hpp"
#include "sim/lookahead_sim.hpp"
#include "sim/loop_sim.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using ais::BasicBlock;
using ais::DepGraph;
using ais::Instruction;
using ais::MachineModel;
using ais::NodeId;
using ais::Trace;
using ais::server::Response;

/// Per-block instruction orders back into blocks (node i is instruction i
/// of the trace, blocks concatenated — the dependence builder's numbering).
std::vector<BasicBlock> reorder(
    const Trace& trace, const std::vector<std::vector<NodeId>>& per_block) {
  std::vector<const Instruction*> flat;
  for (const BasicBlock& bb : trace.blocks) {
    for (const Instruction& inst : bb.insts) flat.push_back(&inst);
  }
  std::vector<BasicBlock> out(per_block.size());
  for (std::size_t b = 0; b < per_block.size(); ++b) {
    out[b].label = trace.blocks[b].label;
    for (const NodeId id : per_block[b]) out[b].insts.push_back(*flat[id]);
  }
  return out;
}

DepGraph depbuild(const Trace& trace, const MachineModel& machine,
                  LayerCounts* counts) {
  const Span span("ir.depbuild");
  DepGraph g = ais::build_trace_graph(trace, machine);
  counts->dep_edges += g.num_edges();
  return g;
}

ais::LookaheadResult schedule(const DepGraph& g, const MachineModel& machine,
                              int window) {
  const Span span("core.schedule");
  const ais::RankScheduler scheduler(g, machine);
  ais::LookaheadOptions opts;
  opts.window = window;
  return ais::schedule_trace(scheduler, opts);
}

void compile_trace_mode(const ais::Program& prog, const MachineModel& machine,
                        int w, ais::server::WorkerScratch& scratch,
                        Response* reply, LayerCounts* counts) {
  const Trace trace{prog.blocks};
  const DepGraph g = depbuild(trace, machine, counts);
  const ais::LookaheadResult detail = schedule(g, machine, w);
  {
    const Span span("driver.emit");
    render_blocks(reorder(trace, detail.per_block), &scratch.asm_text);
  }
  const Span span("sim.simulate");
  const auto before = ais::schedule_trace_per_block(
      g, machine, ais::BlockScheduler::kSourceOrder);
  reply->options["cycles_before"] = std::to_string(
      ais::simulated_completion(g, machine, before, w, scratch.sim));
  reply->options["cycles_after"] = std::to_string(ais::simulated_completion(
      g, machine, detail.priority_list(), w, scratch.sim));
  reply->options["window"] = std::to_string(w);
}

void compile_loop_mode(const ais::Program& prog, const MachineModel& machine,
                       int w, ais::server::WorkerScratch& scratch,
                       Response* reply, LayerCounts* counts) {
  ais::Loop loop;
  loop.body = Trace{prog.blocks};
  DepGraph g;
  {
    const Span span("ir.depbuild");
    g = ais::build_loop_graph(loop, machine);
    counts->dep_edges += g.num_edges();
  }
  ais::LoopCandidate best;
  {
    const Span span("core.schedule");
    const auto evaluator = [&](const std::vector<NodeId>& order) {
      const Span eval("sim.loop_eval");
      ++counts->loop_eval_calls;
      return ais::steady_state_period(g, machine, order, w);
    };
    best = ais::schedule_single_block_loop(g, machine, evaluator);
  }
  {
    const Span span("driver.emit");
    render_blocks(reorder(loop.body, {best.order}), &scratch.asm_text);
  }
  double period = 0;
  {
    const Span span("sim.simulate");
    period = ais::steady_state_period(g, machine, best.order, w);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", period);
  reply->options["cycles_per_iter"] = buf;
  reply->options["window"] = std::to_string(w);
}

/// compile_program's per-trace work.
struct TraceOutcome {
  std::vector<BasicBlock> blocks;
  ais::verify::Report verification;
  ais::Time cycles_before = 0;
  ais::Time cycles_after = 0;
};

void compile_cfg_mode(const ais::Program& prog, const MachineModel& machine,
                      int w, const ais::server::CompileOptions& options,
                      ais::server::WorkerScratch& scratch, Response* reply,
                      LayerCounts* counts) {
  std::optional<ais::Cfg> cfg;
  std::vector<ais::SelectedTrace> traces;
  {
    const Span span("cfg.select");
    cfg.emplace(prog);
    traces = ais::select_traces(*cfg);
  }
  counts->traces += traces.size();
  std::vector<TraceOutcome> outcomes(traces.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    Trace trace;
    {
      const Span span("cfg.select");
      trace = ais::materialize(*cfg, traces[t]);
    }
    ais::ScheduledTrace scheduled;
    scheduled.window = w;
    scheduled.graph = depbuild(trace, machine, counts);
    scheduled.detail = schedule(scheduled.graph, machine, w);
    {
      const Span span("driver.emit");
      scheduled.blocks = reorder(trace, scheduled.detail.per_block);
    }
    TraceOutcome& out = outcomes[t];
    if (options.verify) {
      const Span span("verify.check");
      out.verification = ais::verify_schedule(trace, scheduled, machine);
    }
    if (t == 0) {  // the hot trace's report, as compile_program does it
      const DepGraph g = depbuild(trace, machine, counts);
      const Span span("sim.simulate");
      out.cycles_before = ais::simulated_completion(
          g, machine,
          ais::schedule_trace_per_block(g, machine,
                                        ais::BlockScheduler::kSourceOrder),
          w);
      out.cycles_after = scheduled.simulated_cycles(machine);
    }
    out.blocks = std::move(scheduled.blocks);
  }

  ais::verify::Report verification;
  {
    const Span span("driver.emit");
    ais::Program program = cfg->program();
    for (std::size_t t = 0; t < traces.size(); ++t) {
      for (std::size_t i = 0; i < traces[t].blocks.size(); ++i) {
        program.blocks[static_cast<std::size_t>(traces[t].blocks[i])] =
            std::move(outcomes[t].blocks[i]);
      }
      verification.merge(outcomes[t].verification);
    }
    render_blocks(program.blocks, &scratch.asm_text);
  }
  if (options.report && !outcomes.empty()) {
    reply->options["cycles_before"] =
        std::to_string(outcomes[0].cycles_before);
    reply->options["cycles_after"] = std::to_string(outcomes[0].cycles_after);
    reply->options["window"] = std::to_string(w);
  }
  if (options.verify) {
    reply->options["verified"] = verification.ok() ? "ok" : "fail";
    if (!verification.ok()) reply->diag_text = verification.to_string();
  }
}

}  // namespace

void traced_compile(const std::string& ir_text,
                    const ais::server::CompileOptions& options,
                    ais::server::WorkerScratch& scratch, Response* reply,
                    LayerCounts* counts) {
  *reply = Response{};
  scratch.asm_text.clear();
  const MachineModel* machine = ais::machine_preset(options.machine);
  const bool supported =
      machine != nullptr && !options.rename && !options.profile &&
      options.jobs == 1 &&
      (options.mode == "cfg" ||
       (options.report && !options.verify &&
        (options.mode == "trace" || options.mode == "loop")));
  if (!supported) {
    reply->message = "request shape not supported by the traced pipeline";
    return;
  }
  std::optional<ais::Program> prog;
  {
    const Span span("ir.parse");
    std::string error;
    prog = ais::parse_program_or_error(ir_text, &error);
    if (!prog) {
      reply->message = "bad IR: " + error;
      return;
    }
  }
  const int w =
      options.window == 0 ? machine->default_window() : options.window;
  if (options.mode != "cfg") ++counts->traces;
  if (options.mode == "cfg") {
    compile_cfg_mode(*prog, *machine, w, options, scratch, reply, counts);
  } else if (options.mode == "loop") {
    if (prog->blocks.size() != 1) {
      reply->message = "traced pipeline handles single-block loops only";
      return;
    }
    compile_loop_mode(*prog, *machine, w, scratch, reply, counts);
  } else {
    compile_trace_mode(*prog, *machine, w, scratch, reply, counts);
  }
  reply->ok = true;
  reply->asm_text = scratch.asm_text;
}

}  // namespace perfbench
