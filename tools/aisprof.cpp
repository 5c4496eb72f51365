// aisprof — telemetry report mode for the AIS pipeline.
//
// Compiles a program with full telemetry on and prints where the time and
// the scheduler effort went: per-phase wall times, every obs counter, and
// (trace mode) the simulator's stall-cycle attribution and
// window-occupancy histogram.
//
//   aisprof --in prog.s [--mode trace|loop|cfg] [--machine NAME]
//           [--window N] [--repeat N] [--jobs N] [--trace-json FILE]
//           [--json FILE]
//
// A second mode quantifies the ROADMAP `window-span` open item over random
// traces (how often Merge's planning order carries inversions spanning
// more than W list positions):
//
//   aisprof --random-traces N [--blocks B] [--nodes K] [--window W]
//           [--machine NAME] [--seed S] [--jobs N]
//
// Flags:
//   --in FILE          input assembly
//   --mode MODE        trace (default) | loop | cfg
//   --machine NAME     scalar01 | rs6000 (default) | deep | vliw4
//   --window N         lookahead window (0 = machine default)
//   --repeat N         compile N times and aggregate (default 1)
//   --trace-json FILE  also write Chrome trace-event JSON (Perfetto)
//   --json FILE        machine-readable report (bench_json.py input)
//   --metrics          print the Prometheus text exposition of the metric
//                      registry after the report (see docs/OBSERVABILITY.md)
//   --hist             print the ASCII histogram report (per-bucket bars)
//   --metrics-out FILE write the registry to FILE — Prometheus text, or the
//                      JSON snapshot when FILE ends in .json
//   --random-traces N  window-span survey instead of a file compile
//   --blocks/--nodes   random-trace shape (default 8 blocks x 12 nodes)
//   --edge-prob P      intra-block edge probability (default 0.35)
//   --max-latency L    maximum edge latency (default 3; 1 = restricted case)
//   --seed S           PRNG seed for the survey (default 42)
//   --jobs N           compile traces on N threads (0 = all hardware
//                      threads; results are identical at every N)
//   --cache BOOL       enable/disable the in-memory schedule cache (default
//                      on; see docs/CACHING.md).  Note --repeat with the
//                      cache on measures warm-hit compiles after the first.
//   --cache-dir DIR    persist cache entries under DIR across runs
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/block_schedulers.hpp"
#include "cfg/cfg.hpp"
#include "core/schedule_cache.hpp"
#include "driver/anticipatory.hpp"
#include "driver/function_compiler.hpp"
#include "ir/asm_parser.hpp"
#include "machine/machine_model.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/process_stats.hpp"
#include "obs/stats.hpp"
#include "sim/lookahead_sim.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "workloads/random_graphs.hpp"

namespace {

using namespace ais;

const MachineModel& machine_by_name(const std::string& name) {
  const MachineModel* m = machine_preset(name);
  if (m == nullptr) {
    std::fprintf(stderr, "aisprof: unknown machine '%s'\n", name.c_str());
    std::exit(2);
  }
  return *m;
}

void print_stall_table(const SimResult& sim) {
  TextTable stalls({"stall kind", "cycles"});
  stalls.add_row({"latency", std::to_string(sim.latency_stall_cycles)});
  stalls.add_row({"window-head", std::to_string(sim.window_stall_cycles)});
  stalls.add_row({"total", std::to_string(sim.stall_cycles)});
  std::printf("stall attribution:\n%s", stalls.to_string().c_str());

  TextTable occ({"window occupancy", "cycles"});
  for (std::size_t k = 0; k < sim.window_occupancy.size(); ++k) {
    occ.add_row({std::to_string(k), std::to_string(sim.window_occupancy[k])});
  }
  std::printf("\nwindow occupancy histogram:\n%s", occ.to_string().c_str());
}

std::string json_counters() {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, value] : obs::counters_snapshot()) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  return os.str();
}

std::string json_phases() {
  std::ostringstream os;
  bool first = true;
  for (const obs::PhaseTotal& p : obs::phase_totals()) {
    os << (first ? "" : ", ") << "{\"name\": \"" << p.name
       << "\", \"calls\": " << p.calls << ", \"total_ms\": "
       << fmt_double(p.total_ms, 4) << "}";
    first = false;
  }
  return os.str();
}

/// Window-span survey over random traces: the data behind the ROADMAP
/// `window-span` decision.
int run_random_survey(const CliArgs& args) {
  const int n = static_cast<int>(args.get_int("random-traces", 0));
  const int blocks = static_cast<int>(args.get_int("blocks", 8));
  const int nodes = static_cast<int>(args.get_int("nodes", 12));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  const MachineModel& machine =
      machine_by_name(args.get_string("machine", "deep"));
  int window = static_cast<int>(args.get_int("window", 0));
  if (window == 0) window = machine.default_window();

  Prng prng(seed);
  RandomTraceParams params;
  params.num_blocks = blocks;
  params.block.num_nodes = nodes;
  params.block.edge_prob = args.get_double("edge-prob", 0.35);
  params.block.max_latency =
      static_cast<int>(args.get_int("max-latency", 3));
  params.cross_edges = 2;

  const int jobs = static_cast<int>(args.get_int("jobs", 1));

  // The trace set is pregenerated serially from the single PRNG stream so
  // it is identical at every --jobs; each trace then compiles into its own
  // result slot, and the aggregation below is a serial reduction.
  std::vector<DepGraph> graphs;
  graphs.reserve(static_cast<std::size_t>(std::max(n, 0)));
  for (int i = 0; i < n; ++i) graphs.push_back(random_trace(prng, params));

  std::vector<std::size_t> spans(graphs.size(), 0);
  std::vector<std::vector<NodeId>> lists(graphs.size());
  parallel_for(jobs, graphs.size(), [&](std::size_t i) {
    const RankScheduler scheduler(graphs[i], machine);
    LookaheadOptions opts;
    opts.window = window;
    const LookaheadResult res = schedule_trace(scheduler, opts);
    spans[i] = res.diag.max_inversion_span;
    lists[i] = res.priority_list();
  });

  // All executions go through one batched simulate_many.
  std::vector<SimJob> sim_jobs;
  sim_jobs.reserve(lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    sim_jobs.push_back({&graphs[i], &machine, &lists[i], window});
  }
  const std::vector<SimResult> sims =
      simulate_many(sim_jobs, clamp_jobs(jobs));

  int over = 0;
  std::size_t max_span = 0;
  double span_sum = 0;
  for (const std::size_t span : spans) {
    if (span > static_cast<std::size_t>(window)) ++over;
    max_span = std::max(max_span, span);
    span_sum += static_cast<double>(span);
  }
  double log_cycles_sum = 0;
  Time stall_total = 0;
  Time window_stall_total = 0;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    log_cycles_sum += std::log(static_cast<double>(sims[i].completion));
    stall_total += sims[i].stall_cycles;
    window_stall_total += sims[i].window_stall_cycles;
  }

  TextTable t({"metric", "value"});
  t.add_row({"traces", std::to_string(n)});
  t.add_row({"blocks x nodes",
             std::to_string(blocks) + " x " + std::to_string(nodes)});
  t.add_row({"edge prob / max latency",
             fmt_double(params.block.edge_prob, 2) + " / " +
                 std::to_string(params.block.max_latency)});
  t.add_row({"machine / W", machine.name() + " / " + std::to_string(window)});
  t.add_row({"span > W traces", std::to_string(over)});
  t.add_row({"span > W fraction",
             fmt_double(n == 0 ? 0.0 : static_cast<double>(over) / n, 3)});
  t.add_row({"mean max span",
             fmt_double(n == 0 ? 0.0 : span_sum / n, 2)});
  t.add_row({"max span seen", std::to_string(max_span)});
  t.add_row({"geomean cycles",
             fmt_double(n == 0 ? 0.0 : std::exp(log_cycles_sum / n), 1)});
  t.add_row({"stall cycles (window / total)",
             std::to_string(window_stall_total) + " / " +
                 std::to_string(stall_total)});
  std::printf(
      "window-span survey (counter %s):\n%s",
      std::string(obs::ctr::kInfo[obs::ctr::kWindowSpanOverW].name).c_str(),
      t.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("cache")) {
    ScheduleCache::global().set_enabled(args.get_bool("cache", true));
  }
  const std::string cache_dir = args.get_string("cache-dir", "");
  if (!cache_dir.empty()) ScheduleCache::global().set_disk_dir(cache_dir);
  obs::init_from_env();
  obs::set_enabled(true);

  if (args.has("random-traces")) return run_random_survey(args);

  const std::string path = args.get_string("in", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: aisprof --in FILE [--mode trace|loop|cfg] "
                 "[--machine NAME] [--window N] [--repeat N] [--jobs N] "
                 "[--trace-json FILE] [--json FILE] [--metrics] [--hist] "
                 "[--metrics-out FILE] [--cache BOOL] [--cache-dir DIR]\n"
                 "       aisprof --random-traces N [--blocks B] [--nodes K] "
                 "[--window W] [--machine NAME] [--seed S] [--jobs N]\n");
    return 2;
  }
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "aisprof: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  const Program prog = parse_program(text.str());
  const MachineModel& machine =
      machine_by_name(args.get_string("machine", "rs6000"));
  const int window = static_cast<int>(args.get_int("window", 0));
  const std::string mode = args.get_string("mode", "trace");
  const int repeat = std::max(1, static_cast<int>(args.get_int("repeat", 1)));
  const std::string trace_path =
      args.get_string("trace-json", obs::env_trace_path());
  if (!trace_path.empty()) obs::set_trace_enabled(true);

  Time cycles_before = 0;
  Time cycles_after = 0;
  double cycles_per_iteration = 0;
  SimResult sim;
  bool have_sim = false;

  double compile_ms = 0;
  if (mode == "trace") {
    const Trace trace{prog.blocks};
    ScheduledTrace scheduled;
    compile_ms = timed_ms([&] {
      for (int r = 0; r < repeat; ++r) {
        scheduled = schedule(trace, machine, window);
      }
    });
    const auto source_list = schedule_trace_per_block(
        scheduled.graph, machine, BlockScheduler::kSourceOrder);
    cycles_before = simulated_completion(scheduled.graph, machine, source_list,
                                         scheduled.window);
    sim = simulate_list(scheduled.graph, machine,
                        scheduled.detail.priority_list(), scheduled.window);
    cycles_after = sim.completion;
    have_sim = true;
  } else if (mode == "loop") {
    Loop loop;
    loop.body = Trace{prog.blocks};
    ScheduledLoop scheduled;
    compile_ms = timed_ms([&] {
      for (int r = 0; r < repeat; ++r) {
        scheduled = schedule(loop, machine, window);
      }
    });
    cycles_per_iteration = scheduled.cycles_per_iteration;
  } else if (mode == "cfg") {
    const Cfg cfg(prog);
    const int jobs = static_cast<int>(args.get_int("jobs", 1));
    CompiledProgram compiled;
    compile_ms = timed_ms([&] {
      for (int r = 0; r < repeat; ++r) {
        compiled = compile_program(cfg, machine, window, false, jobs);
      }
    });
    cycles_before = compiled.hot_trace_cycles_before;
    cycles_after = compiled.hot_trace_cycles_after;
  } else {
    std::fprintf(stderr, "aisprof: unknown mode '%s'\n", mode.c_str());
    return 2;
  }

  std::printf("aisprof: %s (mode %s, machine %s, repeat %d)\n", path.c_str(),
              mode.c_str(), machine.name().c_str(), repeat);
  std::printf("compile: %.3f ms total, %.3f ms/compile\n", compile_ms,
              compile_ms / repeat);
  if (mode == "loop") {
    std::printf("steady state: %.2f cycles/iteration\n", cycles_per_iteration);
  } else {
    std::printf("cycles: %lld -> %lld\n",
                static_cast<long long>(cycles_before),
                static_cast<long long>(cycles_after));
  }
  std::printf("\n%s\n", obs::profile_report().c_str());
  if (have_sim) print_stall_table(sim);

  if (args.get_bool("metrics", false)) {
    obs::record_process_gauges();
    std::printf("\n%s",
                obs::MetricRegistry::global().prometheus_text().c_str());
  }
  if (args.get_bool("hist", false)) {
    std::printf("\n%s", obs::MetricRegistry::global().ascii_report().c_str());
  }
  const std::string metrics_path = args.get_string("metrics-out", "");
  if (!metrics_path.empty()) {
    obs::record_process_gauges();
    std::ofstream mo(metrics_path);
    if (!mo.is_open()) {
      std::fprintf(stderr, "aisprof: cannot write %s\n", metrics_path.c_str());
      return 2;
    }
    const bool json_fmt = metrics_path.size() >= 5 &&
                          metrics_path.compare(metrics_path.size() - 5, 5,
                                               ".json") == 0;
    if (json_fmt) {
      obs::MetricRegistry::global().write_json(mo);
    } else {
      obs::MetricRegistry::global().write_prometheus(mo);
    }
  }

  if (!trace_path.empty() && !obs::write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "aisprof: cannot write trace to %s\n",
                 trace_path.c_str());
    return 2;
  }

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::ofstream js(json_path);
    if (!js.is_open()) {
      std::fprintf(stderr, "aisprof: cannot write %s\n", json_path.c_str());
      return 2;
    }
    js << "{\n"
       << "  \"file\": \"" << path << "\",\n"
       << "  \"mode\": \"" << mode << "\",\n"
       << "  \"machine\": \"" << machine.name() << "\",\n"
       << "  \"repeat\": " << repeat << ",\n"
       << "  \"compile_ms\": " << fmt_double(compile_ms / repeat, 4) << ",\n"
       << "  \"cycles_before\": " << cycles_before << ",\n"
       << "  \"cycles_after\": " << cycles_after << ",\n"
       << "  \"cycles_per_iteration\": "
       << fmt_double(cycles_per_iteration, 4) << ",\n"
       << "  \"counters\": {" << json_counters() << "},\n"
       << "  \"phases\": [" << json_phases() << "]";
    if (have_sim) {
      js << ",\n  \"stalls\": {\"latency\": " << sim.latency_stall_cycles
         << ", \"window\": " << sim.window_stall_cycles
         << ", \"total\": " << sim.stall_cycles << "}";
    }
    js << "\n}\n";
  }
  return 0;
}
