// Telemetry overhead on the shipped example corpus — the gate behind the
// "metrics are cheap enough to leave on" claim in docs/OBSERVABILITY.md.
//
// Three arms per example, same binary (AIS_OBS compiled in):
//
//   base    = telemetry runtime-disabled (obs::set_enabled(false)): every
//             hook costs its relaxed-load gate and nothing else.  This is
//             the AIS_OBS=OFF stand-in measurable in-process; the compiled-
//             out build removes even the gate loads, so it can only be
//             faster than this baseline.
//   metrics = obs::enabled(): counters, phase aggregates, histograms and
//             the labeled registry all live.
//   flight  = metrics plus the crash flight recorder (per-span ring writes).
//
// Compiles run under ScheduleCache::ScopedBypass so every iteration is a
// fresh solve — warm cache hits would shrink compile times until the
// measurement is all noise.  The corpus-aggregate metrics overhead is the
// gated number (scripts/bench_json.py --obs, default ceiling 3%);
// per-example ratios on sub-100us compiles are fixed-cost dominated.
//
// Closing microbenchmarks time the raw hooks, reported, not gated: ns per
// histogram sample, per counter bump (without a CounterRecorder, with one,
// and with one while telemetry is off — the schedule cache's cold path) and
// per span close.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "core/schedule_cache.hpp"
#include "driver/anticipatory.hpp"
#include "driver/function_compiler.hpp"
#include "ir/asm_parser.hpp"
#include "machine/machine_model.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "verify/verify.hpp"

namespace {

using namespace ais;

struct ExampleSpec {
  const char* file;
  const char* mode;  // trace | loop | cfg — the example's natural shape
};

constexpr ExampleSpec kExamples[] = {
    {"fig3_loop.s", "loop"},
    {"two_block_trace.s", "trace"},
    {"memory_alias.s", "trace"},
    {"diamond_cfg.s", "cfg"},
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "bench_obs: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

void compile_once(const std::string& text, const std::string& mode,
                  const MachineModel& machine) {
  const Program prog = parse_program(text);
  if (mode == "cfg") {
    const Cfg cfg(prog);
    compile_program(cfg, machine, /*window=*/0, /*verify=*/true);
  } else if (mode == "loop") {
    Loop loop;
    loop.body = Trace{prog.blocks};
    const ScheduledLoop scheduled = schedule(loop, machine, 0);
    verify_schedule(loop, scheduled, machine);
  } else {
    const Trace trace{prog.blocks};
    const ScheduledTrace scheduled = schedule(trace, machine, 0);
    verify_schedule(trace, scheduled, machine);
  }
}

struct Row {
  std::string name;
  std::string mode;
  double base_ms = 0;
  double obs_ms = 0;
  double flight_ms = 0;
  double overhead_pct() const {
    return base_ms > 0 ? 100.0 * (obs_ms - base_ms) / base_ms : 0.0;
  }
  double flight_pct() const {
    return base_ms > 0 ? 100.0 * (flight_ms - base_ms) / base_ms : 0.0;
  }
};

Row measure(const ExampleSpec& spec, const std::string& dir,
            const MachineModel& machine, int repeat) {
  const std::string text = slurp(dir + "/" + spec.file);
  const std::string mode = spec.mode;

  std::vector<double> base_samples, obs_samples, flight_samples;
  for (int r = 0; r < repeat; ++r) {
    obs::set_flight_enabled(false);
    obs::set_enabled(false);
    base_samples.push_back(
        timed_ms([&] { compile_once(text, mode, machine); }));

    obs::set_enabled(true);
    obs_samples.push_back(
        timed_ms([&] { compile_once(text, mode, machine); }));

    obs::set_flight_enabled(true);
    flight_samples.push_back(
        timed_ms([&] { compile_once(text, mode, machine); }));
  }
  obs::set_flight_enabled(false);
  obs::set_enabled(false);

  Row row;
  row.name = std::string(spec.file, std::string(spec.file).rfind('.'));
  row.mode = mode;
  row.base_ms = median(base_samples);
  row.obs_ms = median(obs_samples);
  row.flight_ms = median(flight_samples);
  return row;
}

/// Raw hook cost: ns per call of `hook` over `iters` calls, with telemetry
/// on or off.
template <typename Hook>
double hook_ns(int iters, bool telemetry, Hook&& hook) {
  obs::set_enabled(telemetry);
  hook(0);  // registers outside the timed loop
  const double ms = timed_ms([&] {
    for (int i = 0; i < iters; ++i) hook(i);
  });
  obs::set_enabled(false);
  return iters > 0 ? ms * 1e6 / iters : 0.0;
}

struct HookCosts {
  double record_ns = 0;           // one histogram sample, telemetry on
  double count_ns = 0;            // one counter bump, telemetry on
  double count_recorder_ns = 0;   // the same inside a CounterRecorder
  double count_cold_ns = 0;       // recorder active, telemetry off
  double span_ns = 0;             // one span open + close, telemetry on
};

HookCosts measure_hooks(int iters) {
  const auto record = []([[maybe_unused]] int i) {
    AIS_OBS_VALUE(obs::hist::kSimBatchUs, static_cast<std::uint64_t>(i));
  };
  const auto bump = [](int) { AIS_OBS_COUNT(obs::ctr::kRankRuns); };
  HookCosts c;
  c.record_ns = hook_ns(iters, true, record);
  c.count_ns = hook_ns(iters, true, bump);
  {
    obs::CounterRecorder recorder;
    c.count_recorder_ns = hook_ns(iters, true, bump);
    c.count_cold_ns = hook_ns(iters, false, bump);
  }
  c.span_ns = hook_ns(iters, true, [](int) { AIS_OBS_SPAN("bench.span"); });
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string dir = args.get_string("examples", AIS_EXAMPLES_DIR);
  const int repeat = static_cast<int>(args.get_int("repeat", 40));
  const int record_iters =
      static_cast<int>(args.get_int("record-iters", 1000000));
  const std::string json_path = args.get_string("json", "");
  const MachineModel& machine = *machine_preset("rs6000");

  // Fresh solves only: cache hits would make compile arms incomparable.
  ScheduleCache::ScopedBypass bypass;

  std::printf("telemetry overhead on the example corpus "
              "(median of %d runs, machine rs6000, cache bypassed)\n\n",
              repeat);
  TextTable t({"example", "mode", "base (ms)", "metrics (ms)", "overhead",
               "flight (ms)", "flight overhead"});
  std::vector<Row> rows;
  for (const ExampleSpec& spec : kExamples) {
    rows.push_back(measure(spec, dir, machine, repeat));
    const Row& row = rows.back();
    char base_buf[32], obs_buf[32], pct_buf[32], fl_buf[32], fl_pct_buf[32];
    std::snprintf(base_buf, sizeof base_buf, "%.4f", row.base_ms);
    std::snprintf(obs_buf, sizeof obs_buf, "%.4f", row.obs_ms);
    std::snprintf(pct_buf, sizeof pct_buf, "%.1f%%", row.overhead_pct());
    std::snprintf(fl_buf, sizeof fl_buf, "%.4f", row.flight_ms);
    std::snprintf(fl_pct_buf, sizeof fl_pct_buf, "%.1f%%", row.flight_pct());
    t.add_row({row.name, row.mode, base_buf, obs_buf, pct_buf, fl_buf,
               fl_pct_buf});
  }
  // The gated number is the corpus aggregate (see header comment).
  Row total;
  total.name = "corpus total";
  for (const Row& row : rows) {
    total.base_ms += row.base_ms;
    total.obs_ms += row.obs_ms;
    total.flight_ms += row.flight_ms;
  }
  {
    char base_buf[32], obs_buf[32], pct_buf[32], fl_buf[32], fl_pct_buf[32];
    std::snprintf(base_buf, sizeof base_buf, "%.4f", total.base_ms);
    std::snprintf(obs_buf, sizeof obs_buf, "%.4f", total.obs_ms);
    std::snprintf(pct_buf, sizeof pct_buf, "%.1f%%", total.overhead_pct());
    std::snprintf(fl_buf, sizeof fl_buf, "%.4f", total.flight_ms);
    std::snprintf(fl_pct_buf, sizeof fl_pct_buf, "%.1f%%",
                  total.flight_pct());
    t.add_row({total.name, "", base_buf, obs_buf, pct_buf, fl_buf,
               fl_pct_buf});
  }
  std::printf("%s", t.to_string().c_str());

  const HookCosts hooks = measure_hooks(record_iters);
  std::printf("\nper-event hook cost (%d iterations each):\n"
              "  record_value:                      %.1f ns/record\n"
              "  counter bump:                      %.1f ns/event\n"
              "  counter bump, recorder active:     %.1f ns/event\n"
              "  counter bump, recorder, obs off:   %.1f ns/event\n"
              "  span close:                        %.1f ns/span\n",
              record_iters, hooks.record_ns, hooks.count_ns,
              hooks.count_recorder_ns, hooks.count_cold_ns, hooks.span_ns);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "bench_obs: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << "{\n  \"schema\": 1,\n  \"examples\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"name\": \"" << row.name << "\", \"mode\": \""
          << row.mode << "\", \"base_ms\": " << row.base_ms
          << ", \"obs_ms\": " << row.obs_ms
          << ", \"overhead_pct\": " << row.overhead_pct()
          << ", \"flight_ms\": " << row.flight_ms
          << ", \"flight_pct\": " << row.flight_pct() << "}"
          << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"total\": {\"base_ms\": " << total.base_ms
        << ", \"obs_ms\": " << total.obs_ms
        << ", \"overhead_pct\": " << total.overhead_pct()
        << ", \"flight_ms\": " << total.flight_ms
        << ", \"flight_pct\": " << total.flight_pct()
        << ", \"record_ns\": " << hooks.record_ns
        << ", \"count_ns\": " << hooks.count_ns
        << ", \"count_recorder_ns\": " << hooks.count_recorder_ns
        << ", \"count_cold_ns\": " << hooks.count_cold_ns
        << ", \"span_ns\": " << hooks.span_ns << "}\n}\n";
  }
  return 0;
}
