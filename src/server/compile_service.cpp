#include "server/compile_service.hpp"

#include <cstdio>
#include <utility>

#include "baselines/block_schedulers.hpp"
#include "cfg/cfg.hpp"
#include "driver/anticipatory.hpp"
#include "driver/function_compiler.hpp"
#include "ir/asm_parser.hpp"
#include "ir/rename.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"

namespace ais::server {
namespace {

/// The assembly emitter shared by aisc and aisd: `block <label>:` then one
/// two-space-indented instruction per line.
void emit(const std::vector<BasicBlock>& blocks, std::string* out) {
  for (const BasicBlock& bb : blocks) {
    out->append("block ");
    out->append(bb.label);
    out->append(":\n");
    for (const Instruction& inst : bb.insts) {
      out->append("  ");
      inst.append_to(*out);
      out->push_back('\n');
    }
  }
}

bool parse_bool(std::string_view value, bool* out) {
  if (value == "1" || value == "true") {
    *out = true;
    return true;
  }
  if (value == "0" || value == "false") {
    *out = false;
    return true;
  }
  return false;
}

/// Folds the oracle's findings into the reply: verified=ok, or
/// verified=fail with the report text (aisc's stderr bytes) in diag.
void attach_verification(const verify::Report& report, Response* reply) {
  if (report.ok()) {
    reply->options["verified"] = "ok";
    return;
  }
  reply->options["verified"] = "fail";
  reply->diag_text = report.to_string();
}

}  // namespace

std::size_t WorkerScratch::bytes_reserved() const {
  return sim.bytes_reserved() + asm_text.capacity() + head.capacity() +
         tail.capacity();
}

bool decode_compile_options(const Request& request, CompileOptions* options,
                            std::string* error) {
  *options = CompileOptions{};
  for (const auto& [key, value] : request.options) {
    bool ok = true;
    if (key == "mode") {
      options->mode = value;
    } else if (key == "machine") {
      options->machine = value;
    } else if (key == "window") {
      options->window =
          static_cast<int>(request.option_int("window", 0, &ok));
    } else if (key == "rename") {
      ok = parse_bool(value, &options->rename);
    } else if (key == "report") {
      ok = parse_bool(value, &options->report);
    } else if (key == "verify") {
      ok = parse_bool(value, &options->verify);
    } else if (key == "profile") {
      ok = parse_bool(value, &options->profile);
    } else if (key == "id" || key == "priority" || key == "tenant") {
      // Handled by the server: id= is echoed into the reply,
      // priority=/tenant= drive admission (validated before enqueue) and
      // never change the compiled output.
    } else {
      *error = "unknown COMPILE option '" + key + "'";
      return false;
    }
    if (!ok) {
      *error = "bad value for COMPILE option '" + key + "': " + value;
      return false;
    }
  }
  return true;
}

void compile_ir(const std::string& ir_text, const CompileOptions& options,
                WorkerScratch& scratch, Response* reply) {
  *reply = Response{};
  scratch.asm_text.clear();

  std::string parse_error;
  std::optional<Program> prog = parse_program_or_error(ir_text, &parse_error);
  if (!prog.has_value()) {
    reply->message = "bad IR: " + parse_error;
    return;
  }
  if (std::string error = block_structure_error(*prog); !error.empty()) {
    reply->message = "bad IR: " + error;
    return;
  }
  const MachineModel* machine = machine_preset(options.machine);
  if (machine == nullptr) {
    reply->message = "unknown machine '" + options.machine + "'";
    return;
  }
  if (options.mode != "trace" && options.mode != "loop" &&
      options.mode != "cfg") {
    reply->message = "unknown mode '" + options.mode + "'";
    return;
  }
  if (options.window < 0) {
    reply->message =
        "window must be nonnegative, got " + std::to_string(options.window);
    return;
  }

  // Capture this request's counter stream: the recorder sees every delta
  // the calling thread issues (including cache-hit replays) of the ids that
  // replay — exactly the stream the differential tests compare.
  obs::CounterRecorder recorder(options.profile);

  if (options.mode == "cfg") {
    const Cfg cfg(std::move(*prog));
    const CompiledProgram compiled = compile_program(
        cfg, *machine, options.window, options.verify, options.jobs);
    emit(compiled.program.blocks, &scratch.asm_text);
    if (options.report) {
      reply->options["cycles_before"] =
          std::to_string(compiled.hot_trace_cycles_before);
      reply->options["cycles_after"] =
          std::to_string(compiled.hot_trace_cycles_after);
      reply->options["window"] = std::to_string(compiled.window);
    }
    if (options.verify) attach_verification(compiled.verification, reply);
  } else {
    Trace trace{std::move(prog->blocks)};
    if (options.rename) trace = rename_trace(trace);

    if (options.mode == "loop") {
      const Loop loop{std::move(trace)};
      const ScheduledLoop scheduled = schedule(loop, *machine, options.window);
      emit(scheduled.blocks, &scratch.asm_text);
      if (options.report) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f",
                      scheduled.cycles_per_iteration);
        reply->options["cycles_per_iter"] = buf;
        reply->options["window"] = std::to_string(scheduled.window);
      }
      if (options.verify) {
        attach_verification(verify_schedule(loop, scheduled, *machine), reply);
      }
    } else {
      const ScheduledTrace scheduled = schedule(trace, *machine, options.window);
      emit(scheduled.blocks, &scratch.asm_text);
      if (options.report) {
        const auto before = schedule_trace_per_block(
            scheduled.graph, *machine, BlockScheduler::kSourceOrder);
        reply->options["cycles_before"] = std::to_string(simulated_completion(
            scheduled.graph, *machine, before, scheduled.window, scratch.sim));
        reply->options["cycles_after"] = std::to_string(simulated_completion(
            scheduled.graph, *machine, scheduled.detail.priority_list(),
            scheduled.window, scratch.sim));
        reply->options["window"] = std::to_string(scheduled.window);
      }
      if (options.verify) {
        attach_verification(verify_schedule(trace, scheduled, *machine),
                            reply);
      }
    }
  }

  if (options.profile) reply->counters = recorder.touched_counters();
  reply->ok = true;
  reply->asm_text = scratch.asm_text;
}

}  // namespace ais::server
