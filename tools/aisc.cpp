// aisc — the anticipatory instruction scheduling compiler driver.
//
// Reads a toy-ISA assembly file and emits it rescheduled:
//
//   aisc --in prog.s                         # trace mode (blocks in order)
//   aisc --in prog.s --mode loop             # single/multi-block loop body
//   aisc --in prog.s --mode cfg              # CFG + trace selection
//   aisc --in prog.s --machine deep --window 2 --rename --report
//
// Flags:
//   --in FILE        input assembly (required)
//   --mode MODE      trace (default) | loop | cfg
//   --machine NAME   scalar01 | rs6000 (default) | deep | vliw4
//   --window N       lookahead window (0 = machine default)
//   --jobs N         cfg mode: compile traces on N threads; trace mode:
//                    pre-schedule block substrates on N pool workers while
//                    the serial Merge/Chop chain consumes them (0 = all
//                    hardware threads; output identical at every N)
//   --rename         run local register renaming first
//   --report         print cycle counts (before/after) to stderr
//   --verify         re-check the emitted schedule with the independent
//                    oracle (src/verify); nonzero exit on any violation
//   --profile        print the per-phase time/counter telemetry table to
//                    stderr after compiling (see docs/OBSERVABILITY.md)
//   --trace-json F   write a Chrome trace-event JSON of the compile to F
//                    (loadable in Perfetto); implies telemetry collection
//   --metrics-out F  write the metric registry after compiling — Prometheus
//                    text exposition, or the JSON snapshot when F ends in
//                    .json; implies telemetry collection
//   --cache BOOL     enable/disable the in-memory schedule cache (default
//                    on; see docs/CACHING.md)
//   --cache-dir DIR  also persist cache entries under DIR and reuse them
//                    across runs (content-addressed, safe to share)
//
// The AIS_TRACE / AIS_TRACE_JSON environment variables enable the same
// telemetry without touching the command line; AIS_CACHE / AIS_CACHE_DIR
// mirror --cache / --cache-dir.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "baselines/block_schedulers.hpp"
#include "cfg/cfg.hpp"
#include "driver/anticipatory.hpp"
#include "driver/function_compiler.hpp"
#include "ir/asm_parser.hpp"
#include "ir/depbuild.hpp"
#include "ir/rename.hpp"
#include "core/schedule_cache.hpp"
#include "machine/machine_model.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/process_stats.hpp"
#include "obs/stats.hpp"
#include "sim/lookahead_sim.hpp"
#include "sim/loop_sim.hpp"
#include "support/cli.hpp"

namespace {

using namespace ais;

const MachineModel& machine_by_name(const std::string& name) {
  const MachineModel* m = machine_preset(name);
  if (m == nullptr) {
    std::fprintf(stderr, "aisc: unknown machine '%s'\n", name.c_str());
    std::exit(1);
  }
  return *m;
}

void emit(const std::vector<BasicBlock>& blocks) {
  for (const BasicBlock& bb : blocks) {
    std::printf("block %s:\n", bb.label.c_str());
    for (const Instruction& inst : bb.insts) {
      std::printf("  %s\n", inst.to_string().c_str());
    }
  }
}

/// Prints oracle findings to stderr; returns the process exit code.
int report_verification(const verify::Report& report) {
  if (report.ok()) return 0;
  std::fprintf(stderr, "aisc: schedule failed verification:\n%s",
               report.to_string().c_str());
  return 1;
}

/// True when `path` names a JSON output (the --metrics-out format switch).
bool ends_with_json(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
}

/// Emits the telemetry the run collected, on every exit path: the
/// `--profile` table to stderr, the `--trace-json` / AIS_TRACE_JSON file
/// and the `--metrics-out` registry exposition.
struct TelemetryFinalizer {
  bool profile = false;
  std::string trace_path;
  std::string metrics_path;

  ~TelemetryFinalizer() {
    if (!trace_path.empty() && !obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "aisc: cannot write trace to %s\n",
                   trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      obs::record_process_gauges();  // mem_peak_rss_bytes covers the run
      std::ofstream out(metrics_path);
      if (out.is_open()) {
        if (ends_with_json(metrics_path)) {
          obs::MetricRegistry::global().write_json(out);
        } else {
          obs::MetricRegistry::global().write_prometheus(out);
        }
      }
      if (!out.good()) {
        std::fprintf(stderr, "aisc: cannot write metrics to %s\n",
                     metrics_path.c_str());
      }
    }
    if (profile) {
      std::fprintf(stderr, "aisc: pipeline profile\n%s",
                   obs::profile_report().c_str());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string path = args.get_string("in", "");
  if (path.empty()) {
    std::fprintf(stderr, "usage: aisc --in FILE [--mode trace|loop|cfg] "
                         "[--machine NAME] [--window N] [--jobs N] "
                         "[--rename] [--report] [--verify] [--profile] "
                         "[--trace-json FILE] [--metrics-out FILE] "
                         "[--cache BOOL] [--cache-dir DIR]\n");
    return 1;
  }
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "aisc: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  const Program prog = parse_program(text.str());
  if (const std::string error = branch_position_error(prog); !error.empty()) {
    std::fprintf(stderr, "aisc: bad IR: %s\n", error.c_str());
    return 1;
  }
  const MachineModel& machine =
      machine_by_name(args.get_string("machine", "rs6000"));
  const int window = static_cast<int>(args.get_int("window", 0));
  const std::string mode = args.get_string("mode", "trace");
  const bool do_rename = args.get_bool("rename", false);
  const bool report = args.get_bool("report", false);
  const bool do_verify = args.get_bool("verify", false);

  if (args.has("cache")) {
    ScheduleCache::global().set_enabled(args.get_bool("cache", true));
  }
  const std::string cache_dir = args.get_string("cache-dir", "");
  if (!cache_dir.empty()) ScheduleCache::global().set_disk_dir(cache_dir);

  obs::init_from_env();
  TelemetryFinalizer telemetry;
  telemetry.profile = args.get_bool("profile", false);
  telemetry.trace_path = args.get_string("trace-json", obs::env_trace_path());
  telemetry.metrics_path = args.get_string("metrics-out", "");
  if (telemetry.profile) obs::set_enabled(true);
  if (!telemetry.trace_path.empty()) obs::set_trace_enabled(true);
  if (!telemetry.metrics_path.empty()) obs::set_enabled(true);
  if (obs::enabled()) obs::register_builtin_counters();

  if (mode == "cfg") {
    const Cfg cfg(prog);
    const int jobs = static_cast<int>(args.get_int("jobs", 1));
    const CompiledProgram compiled =
        compile_program(cfg, machine, window, do_verify, jobs);
    emit(compiled.program.blocks);
    if (report) {
      std::fprintf(stderr,
                   "aisc: hot trace %lld -> %lld cycles at W = %d\n",
                   static_cast<long long>(compiled.hot_trace_cycles_before),
                   static_cast<long long>(compiled.hot_trace_cycles_after),
                   compiled.window);
    }
    return report_verification(compiled.verification);
  }

  Trace trace{prog.blocks};
  if (do_rename) trace = rename_trace(trace);

  if (mode == "loop") {
    Loop loop;
    loop.body = trace;
    const ScheduledLoop scheduled = schedule(loop, machine, window);
    emit(scheduled.blocks);
    if (report) {
      std::fprintf(stderr, "aisc: %.2f cycles/iteration at W = %d\n",
                   scheduled.cycles_per_iteration, scheduled.window);
    }
    if (do_verify) {
      return report_verification(verify_schedule(loop, scheduled, machine));
    }
    return 0;
  }

  if (mode != "trace") {
    std::fprintf(stderr, "aisc: unknown mode '%s'\n", mode.c_str());
    return 1;
  }
  const ScheduledTrace scheduled =
      schedule(trace, machine, window, {},
               static_cast<int>(args.get_int("jobs", 1)));
  emit(scheduled.blocks);
  if (report) {
    const auto before = schedule_trace_per_block(
        scheduled.graph, machine, BlockScheduler::kSourceOrder);
    std::fprintf(
        stderr, "aisc: %lld -> %lld cycles at W = %d\n",
        static_cast<long long>(simulated_completion(
            scheduled.graph, machine, before, scheduled.window)),
        static_cast<long long>(scheduled.simulated_cycles(machine)),
        scheduled.window);
  }
  if (do_verify) {
    return report_verification(verify_schedule(trace, scheduled, machine));
  }
  return 0;
}
