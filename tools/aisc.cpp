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
//   --jobs N         cfg mode: compile traces on N threads (0 = all
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
// Any other argument, or a flag outside this list, exits 1 naming it.
//
// The AIS_TRACE / AIS_TRACE_JSON environment variables enable the same
// telemetry without touching the command line; AIS_CACHE / AIS_CACHE_DIR
// mirror --cache / --cache-dir.
//
// The compile itself is one server::compile_ir call — the pipeline aisd
// serves — so aisc's stdout is byte-identical to an aisd reply's assembly
// section, and every input compile_ir rejects exits 1 with its message.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/schedule_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/process_stats.hpp"
#include "obs/stats.hpp"
#include "server/compile_service.hpp"
#include "support/cli.hpp"

namespace {

using namespace ais;

/// True when `path` names a JSON output (the --metrics-out format switch).
bool ends_with_json(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
}

/// Emits the telemetry the run collected, on every exit path past the
/// compile: the `--profile` table to stderr, the `--trace-json` /
/// AIS_TRACE_JSON file and the `--metrics-out` registry exposition.
struct TelemetryFinalizer {
  bool profile = false;
  std::string trace_path;
  std::string metrics_path;

  /// Drops every output: a rejected input compiled nothing to report.
  void disarm() {
    profile = false;
    trace_path.clear();
    metrics_path.clear();
  }

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

/// The `--report` line, rebuilt from the reply's status options.
std::string report_line(const std::string& mode,
                        const server::Response& reply) {
  std::string line = "aisc: ";
  if (mode == "loop") {
    line += reply.option("cycles_per_iter");
    line += " cycles/iteration";
  } else {
    if (mode == "cfg") line += "hot trace ";
    line += reply.option("cycles_before");
    line += " -> ";
    line += reply.option("cycles_after");
    line += " cycles";
  }
  line += " at W = ";
  line += reply.option("window");
  line += "\n";
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string bad_arg = args.check(
      {"in", "mode", "machine", "window", "jobs", "rename", "report", "verify",
       "profile", "trace-json", "metrics-out", "cache", "cache-dir"});
  if (!bad_arg.empty()) {
    std::fprintf(stderr, "aisc: %s\n", bad_arg.c_str());
    return 1;
  }
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

  server::CompileOptions options;
  options.mode = args.get_string("mode", "trace");
  options.machine = args.get_string("machine", "rs6000");
  options.window = static_cast<int>(args.get_int("window", 0));
  options.jobs = static_cast<int>(args.get_int("jobs", 1));
  options.rename = args.get_bool("rename", false);
  options.report = args.get_bool("report", false);
  options.verify = args.get_bool("verify", false);

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

  server::WorkerScratch scratch;
  server::Response reply;
  server::compile_ir(text.str(), options, scratch, &reply);
  if (!reply.ok) {
    telemetry.disarm();
    std::fprintf(stderr, "aisc: %s\n", reply.message.c_str());
    return 1;
  }
  std::fwrite(reply.asm_text.data(), 1, reply.asm_text.size(), stdout);
  if (options.report) {
    std::fputs(report_line(options.mode, reply).c_str(), stderr);
  }
  if (reply.option("verified") == "fail") {
    std::fprintf(stderr, "aisc: schedule failed verification:\n%s",
                 reply.diag_text.c_str());
    return 1;
  }
  return 0;
}
