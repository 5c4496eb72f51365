// perfbench: runs one named workload from a seed and prints its metrics.
// See perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics: set-up (repeated, median),
// then whole rounds of requests — every input once per round — for S
// seconds, then the correctness pass.  --trace 1 makes the same inputs run
// through the traced pipeline and prints the per-layer metrics instead.
// The last stdout line is the JSON result.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check.hpp"
#include "core/schedule_cache.hpp"
#include "daemon.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"
#include "pipeline.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using ais::ScheduleCache;
using ais::server::Response;

constexpr int kSetupRepeats = 5;
/// Every input is requested at least this often in a run, a round apart,
/// so its fastest request is a best of three.
constexpr std::size_t kMinRounds = 3;
/// Every run has at least this many latency samples, so at least ten lie
/// beyond its p90.
constexpr std::size_t kMinSamples = 100;
constexpr const char* kOutDir = ".bench_build/perfbench";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || kv.size() != 4 || !kv.count("--workload") ||
      !kv.count("--seed") || !kv.count("--seconds") || !kv.count("--trace")) {
    return false;
  }
  char* end = nullptr;
  args->workload = kv["--workload"];
  args->seed = std::strtoull(kv["--seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  args->seconds = std::strtod(kv["--seconds"].c_str(), &end);
  if (*end != '\0' || !(args->seconds > 0)) return false;
  args->trace = kv["--trace"] == "1";
  return is_workload(args->workload) &&
         (args->trace || kv["--trace"] == "0");
}

std::size_t min_rounds(const Workload& w) {
  return std::max(kMinRounds,
                  (kMinSamples + w.bodies.size() - 1) / w.bodies.size());
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Restricts this thread, and every thread it starts afterwards, to the
/// highest-numbered CPU it may use.  The daemon workload runs so: on a
/// virtual machine, waking an idle vCPU for each cross-thread hand-off can
/// cost milliseconds of host steal, which made client latency swing 2x
/// between identical runs; on one CPU the hand-offs stay on one core.
bool pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) last = cpu;
  }
  if (last < 0) return false;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// Everything up to the first timed request.
struct Setup {
  Workload w;
  std::unique_ptr<Daemon> daemon;
};

/// Generates the inputs; then either starts the daemon and primes its
/// cache with every input (one closed-loop round), or compiles the
/// workload's fixed warm-up inputs once in-process.
std::unique_ptr<Setup> set_up(const Args& args, std::string* error) {
  auto s = std::make_unique<Setup>();
  s->w = make_workload(args.workload, args.seed);
  if (s->w.daemon) {
    ScheduleCache::global().clear();
    s->daemon = std::make_unique<Daemon>(s->w);
    if (!s->daemon->start(error)) return nullptr;
    const Timed prime = s->daemon->run(0, 1, nullptr);
    for (std::size_t i = 0; i < prime.why.size(); ++i) {
      if (!prime.why[i].empty()) {
        *error = "priming input " + std::to_string(i) + ": " + prime.why[i];
        return nullptr;
      }
    }
    return s;
  }
  ais::server::WorkerScratch scratch;
  Response reply;
  for (const std::string& body : s->w.warmup) {
    ScheduleCache::global().clear();
    ais::server::compile_ir(body, s->w.options, scratch, &reply);
  }
  return s;
}

/// In-process requests: whole rounds of compile_ir over every input until
/// `seconds` have passed.
Timed run_inprocess(const Workload& w, double seconds) {
  Timed t(w.bodies.size());
  ais::server::WorkerScratch scratch;
  const std::size_t min = min_rounds(w);
  const auto start = Clock::now();
  for (std::size_t round = 0; round < min || seconds_since(start) < seconds;
       ++round) {
    for (std::size_t i = 0; i < w.bodies.size(); ++i) {
      ScheduleCache::global().clear();
      Response reply;
      const auto t0 = Clock::now();
      ais::server::compile_ir(w.bodies[i], w.options, scratch, &reply);
      const double us = micros(t0, Clock::now());
      t.latency_us.push_back(us);
      t.book(i, round, us, std::move(reply), "");
    }
    t.rounds = round + 1;
  }
  t.elapsed_s = seconds_since(start);
  return t;
}

/// The correctness pass over a timed phase's first replies, outside every
/// timing: each distinct output is re-checked by the independent oracle
/// and, for the daemon, compared byte for byte with in-process compile_ir.
/// Returns the failed requests (every request of an input whose output
/// fails, plus failed repeats) and adds the outputs' simulated cycles to
/// *sim_cycles.  Prints each failure with its input index.
std::uint64_t check_outputs(const Workload& w, const Timed& t,
                            double* sim_cycles) {
  const ais::MachineModel& machine = *ais::machine_preset(w.options.machine);
  const char* cycles_key =
      w.options.mode == "loop" ? "cycles_per_iter" : "cycles_after";
  ais::server::WorkerScratch scratch;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < w.bodies.size(); ++i) {
    const Response& got = t.first[i];
    std::string why = t.why[i];
    if (why.empty() && w.daemon) {
      Response expected;
      ais::server::compile_ir(w.bodies[i], w.options, scratch, &expected);
      why = reply_difference(got, expected);
    }
    if (why.empty()) {
      why = oracle_findings(w.bodies[i], got.asm_text, machine,
                            w.options.window);
    }
    if (why.empty() && w.options.verify &&
        got.option("verified") != "ok") {
      why = "compile_ir's own verification failed: " + got.diag_text;
    }
    if (why.empty()) {
      *sim_cycles += std::strtod(std::string(got.option(cycles_key)).c_str(),
                                 nullptr);
      failed += t.failures[i];
      continue;
    }
    failed += t.requests[i];
    std::printf("failure input %zu: %s\n", i, why.substr(0, 200).c_str());
  }
  return failed;
}

/// The negative self-check on input 0's reply; true when the gate rejected
/// all three corruptions.
bool gate_checks(const Workload& w, const Timed& t) {
  const ais::MachineModel& machine = *ais::machine_preset(w.options.machine);
  return self_check(w.bodies[0], t.first[0], machine, w.options.window) == 0;
}

void print_latency(const char* what, std::vector<double> samples) {
  std::printf("%s samples=%zu p50=%.1fus p90=%.1fus\n", what, samples.size(),
              quantile(samples, 0.5), quantile(samples, 0.9));
}

int run_end_to_end(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    s.reset();  // tears the previous daemon down outside the timing
    const auto t0 = Clock::now();
    std::string error;
    s = set_up(args, &error);
    setup_s.push_back(seconds_since(t0));
    if (!s) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
  }
  const Workload& w = s->w;
  std::printf("workload=%s seed=%llu inputs=%zu input_digest=%016llx\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.bodies.size(),
              static_cast<unsigned long long>(input_digest(w)));
  std::printf("setup_s samples:");
  for (const double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");

  const Timed t = w.daemon
                      ? s->daemon->run(args.seconds, min_rounds(w), nullptr)
                      : run_inprocess(w, args.seconds);
  if (s->daemon) s->daemon->stop();

  double sim_cycles = 0;
  const std::uint64_t failed = check_outputs(w, t, &sim_cycles);
  const bool gate_ok = gate_checks(w, t);
  const std::uint64_t attempted = t.total_requests();

  // The host's speed flips between a fast and a ~1.5x slower state that
  // lasts seconds to a minute, so a run's requests mix two modes and the
  // median of all of them lands between the modes.  p50 is therefore taken
  // over the inputs' fastest requests (each input's repeats are a round
  // apart), and p90, which lies inside the slow mode, over all requests.
  // See README.md, "Steadiness".
  std::vector<double> best = t.best_us;
  std::vector<double> lat = t.latency_us;
  const double p50 = quantile(best, 0.5);
  const double p90 = quantile(lat, 0.9);
  double best_s = 0;
  for (const double us : best) best_s += us / 1e6;
  const double wall_rate = static_cast<double>(attempted) / t.elapsed_s;
  // In-process requests run one at a time, so a round at the inputs' best
  // latencies completes inputs / (sum of those latencies) per second.  The
  // daemon's two connections overlap; its rate is the measured one.
  const double rate =
      w.daemon ? wall_rate : static_cast<double>(best.size()) / best_s;
  std::printf("rounds=%zu requests=%llu elapsed_s=%.3f measured_rate=%.2f/s\n",
              t.rounds, static_cast<unsigned long long>(attempted),
              t.elapsed_s, wall_rate);
  std::printf("latency samples=%zu beyond_p90=%zu all_requests_p50=%.1fus\n",
              lat.size(),
              lat.size() - static_cast<std::size_t>(0.9 * lat.size()) - 1,
              quantile(lat, 0.5));
  std::printf("sim_cycles=%.2f\n", sim_cycles);
  std::printf("error_share=%g (%llu of %llu)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  Metrics m;
  m.add("latency_p50_us", p50, "us");
  m.add("latency_p90_us", p90, "us");
  m.add("requests_per_s", rate, "1/s");
  m.add("sim_cycles", sim_cycles, "cycles");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("setup_s", median(setup_s), "s");
  print_result(failed == 0 && gate_ok, attempted, failed, m);
  return 0;
}

/// Obs counters the traced run reads at the request boundary.
struct CounterSnapshot {
  std::uint64_t hits, misses, attempts, moved, rank_runs;

  static CounterSnapshot now() {
    using ais::obs::counter_value;
    namespace ctr = ais::obs::ctr;
    return {counter_value(ctr::kCacheHits), counter_value(ctr::kCacheMisses),
            counter_value(ctr::kIdleMoveAttempts),
            counter_value(ctr::kIdleSlotsMoved),
            counter_value(ctr::kRankRuns)};
  }
  CounterSnapshot operator-(const CounterSnapshot& o) const {
    return {hits - o.hits, misses - o.misses, attempts - o.attempts,
            moved - o.moved, rank_runs - o.rank_runs};
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Seconds one pass over every input took under each setting.
struct Comparison {
  double plain = 0;      // the workload's own requests
  double cache_off = 0;  // the same with the schedule cache disabled
  double two_jobs = 0;   // cfg only: the same with two compile jobs
};

/// Times the settings interleaved input by input, so host speed drifting
/// during the pass hits all of them alike.
Comparison compare_settings(const Workload& w) {
  ais::server::WorkerScratch scratch;
  Response reply;
  const auto timed = [&](const std::string& body,
                         const ais::server::CompileOptions& o) {
    if (!w.daemon) ScheduleCache::global().clear();
    const auto t0 = Clock::now();
    ais::server::compile_ir(body, o, scratch, &reply);
    return seconds_since(t0);
  };
  ais::server::CompileOptions two = w.options;
  two.jobs = 2;
  Comparison c;
  for (const std::string& body : w.bodies) {
    c.plain += timed(body, w.options);
    ScheduleCache::global().set_enabled(false);
    c.cache_off += timed(body, w.options);
    ScheduleCache::global().set_enabled(true);
    if (w.options.mode == "cfg") c.two_jobs += timed(body, two);
  }
  return c;
}

int run_traced(const Args& args) {
  std::string error;
  std::unique_ptr<Setup> s = set_up(args, &error);
  if (!s) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  const Workload& w = s->w;
  const std::size_t n = w.bodies.size();
  std::printf("workload=%s seed=%llu inputs=%zu input_digest=%016llx "
              "(traced)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), n,
              static_cast<unsigned long long>(input_digest(w)));
  Metrics m;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double sim_cycles = 0;

  // The daemon: client spans, METRICS snapshots around the timed phase.
  std::optional<Timed> daemon_phase;
  std::vector<SpanRecord> spans;
  double client_p50 = 0;
  HistogramTotals wait_delta, batch_delta;
  if (w.daemon) {
    std::string before, after;
    const bool ok = s->daemon->metrics(&before, &error);
    daemon_phase = s->daemon->run(args.seconds / 2, min_rounds(w), &spans);
    if (!ok || !s->daemon->metrics(&after, &error)) {
      std::fprintf(stderr, "perfbench: METRICS failed: %s\n", error.c_str());
      return 1;
    }
    for (auto [family, delta] :
         {std::pair{"server_queue_wait_us", &wait_delta},
          std::pair{"server_batch_size", &batch_delta}}) {
      const HistogramTotals a = histogram_totals(before, family);
      const HistogramTotals b = histogram_totals(after, family);
      *delta = {b.sum - a.sum, b.count - a.count};
    }
    std::vector<double> lat = daemon_phase->latency_us;
    client_p50 = quantile(lat, 0.5);
    print_latency("daemon client", daemon_phase->latency_us);
    attempted += daemon_phase->total_requests();
    failed += check_outputs(w, *daemon_phase, &sim_cycles);
  }

  // In-process: each input through compile_ir and through the traced
  // pipeline, each from the same cache state; the two replies must match.
  Timed plain(n);
  std::vector<double> traced_us;
  double plain_total = 0, traced_total = 0;
  CounterSnapshot counts{};
  LayerCounts layer;
  int first_request = -1, last_request = -1;
  ais::server::WorkerScratch scratch;
  const auto start = Clock::now();
  for (std::size_t round = 0;
       round == 0 || seconds_since(start) < args.seconds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      // Alternate which of the pair runs first: the second one finds the
      // body's data warm in the CPU caches.
      Response reply, traced;
      double plain_us = 0;
      for (int leg = 0; leg < 2; ++leg) {
        if (!w.daemon) ScheduleCache::global().clear();
        if (((i + round + leg) % 2) == 0) {
          const auto t0 = Clock::now();
          ais::server::compile_ir(w.bodies[i], w.options, scratch, &reply);
          plain_us = micros(t0, Clock::now());
          plain.latency_us.push_back(plain_us);
          plain_total += plain_us;
          continue;
        }
        if (!w.daemon) ais::obs::set_enabled(true);  // the daemon keeps it on
        const CounterSnapshot c0 = CounterSnapshot::now();
        const auto t0 = Clock::now();
        {
          const RequestSpan request;
          if (first_request < 0) first_request = request.id();
          last_request = request.id();
          traced_compile(w.bodies[i], w.options, scratch, &traced, &layer);
        }
        const double us = micros(t0, Clock::now());
        const CounterSnapshot d = CounterSnapshot::now() - c0;
        if (!w.daemon) ais::obs::set_enabled(false);
        counts.hits += d.hits;
        counts.misses += d.misses;
        // A cache hit replays the solver counts recorded when its entry
        // was solved; a request served by hits alone did no solver work.
        if (d.misses > 0 || d.hits == 0) {
          counts.attempts += d.attempts;
          counts.moved += d.moved;
          counts.rank_runs += d.rank_runs;
        }
        traced_us.push_back(us);
        traced_total += us;
      }
      ++attempted;
      const std::string diff = reply_difference(traced, reply);
      if (!diff.empty()) {
        ++failed;
        std::printf("failure input %zu: traced pipeline: %s\n", i,
                    diff.c_str());
      }
      plain.book(i, round, plain_us, std::move(reply), "");
    }
    plain.rounds = round + 1;
  }
  attempted += plain.total_requests();
  double plain_cycles = 0;
  failed += check_outputs(w, plain, &plain_cycles);
  if (!w.daemon) sim_cycles = plain_cycles;
  const bool gate_ok = gate_checks(w, plain);
  const double traced_requests = static_cast<double>(traced_us.size());

  const Comparison cmp = compare_settings(w);
  const double jobs_speedup =
      w.options.mode == "cfg" ? cmp.plain / cmp.two_jobs : 1;

  const std::vector<SpanRecord> in_process = take_spans();
  spans.insert(spans.end(), in_process.begin(), in_process.end());
  std::map<std::string, double> self =
      self_time_us(spans, first_request, last_request);
  double busy = 0;
  for (const auto& [name, us] : self) busy += us;
  const auto layer_us = [&](const char* span) {
    return self[span] / traced_requests;
  };
  const auto layer_share = [&](const char* span) {
    return ratio(self[span], busy);
  };
  std::vector<double> service = plain.latency_us;
  const double service_p50 = quantile(service, 0.5);

  m.add("server.service_us", service_p50, "us");
  m.add("server.overhead_us", w.daemon ? client_p50 - service_p50 : 0, "us");
  m.add("server.queue_wait_us", ratio(wait_delta.sum, wait_delta.count),
        "us");
  m.add("server.batch_size", ratio(batch_delta.sum, batch_delta.count),
        "count");
  m.add("ir.parse_us", layer_us("ir.parse"), "us");
  m.add("ir.parse_share", layer_share("ir.parse"), "1");
  m.add("ir.depbuild_us", layer_us("ir.depbuild"), "us");
  m.add("ir.depbuild_share", layer_share("ir.depbuild"), "1");
  m.add("ir.dep_edges", static_cast<double>(layer.dep_edges) / traced_requests,
        "count");
  m.add("core.schedule_us", layer_us("core.schedule"), "us");
  m.add("core.schedule_share", layer_share("core.schedule"), "1");
  m.add("core.move_idle_attempts",
        static_cast<double>(counts.attempts) / traced_requests, "count");
  m.add("core.move_idle_moved_ratio",
        ratio(static_cast<double>(counts.moved),
              static_cast<double>(counts.attempts)),
        "1");
  m.add("core.rank_runs",
        static_cast<double>(counts.rank_runs) / traced_requests, "count");
  m.add("core.cache_hit_ratio",
        ratio(static_cast<double>(counts.hits),
              static_cast<double>(counts.hits + counts.misses)),
        "1");
  m.add("core.cache_overhead_share",
        (cmp.plain - cmp.cache_off) / cmp.plain, "1");
  m.add("cfg.select_us", layer_us("cfg.select"), "us");
  m.add("cfg.select_share", layer_share("cfg.select"), "1");
  m.add("cfg.traces", static_cast<double>(layer.traces) / traced_requests,
        "count");
  m.add("driver.emit_us", layer_us("driver.emit"), "us");
  m.add("driver.emit_share", layer_share("driver.emit"), "1");
  m.add("driver.jobs_speedup", jobs_speedup, "x");
  m.add("verify.check_us", layer_us("verify.check"), "us");
  m.add("verify.check_share", layer_share("verify.check"), "1");
  m.add("sim.simulate_us", layer_us("sim.simulate"), "us");
  m.add("sim.loop_eval_us", layer_us("sim.loop_eval"), "us");
  m.add("sim.loop_eval_calls",
        static_cast<double>(layer.loop_eval_calls) / traced_requests, "count");
  m.add("trace.overhead_share", traced_total / plain_total - 1, "1");

  std::printf("traced requests=%.0f rounds=%zu; request self time "
              "(unattributed) %.1fus, share %.3f\n",
              traced_requests, plain.rounds, layer_us("request"),
              layer_share("request"));
  print_latency("in-process compile_ir", plain.latency_us);
  print_latency("in-process traced", traced_us);
  std::printf("sim_cycles=%.2f\n", sim_cycles);
  std::printf("error_share=%g (%llu of %llu)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  const std::string path = std::string(kOutDir) + "/spans-" + w.name + "-" +
                           std::to_string(args.seed) + ".json";
  if (write_chrome_trace(spans, path)) {
    std::printf("spans=%zu written to %s\n", spans.size(), path.c_str());
  }
  if (s->daemon) s->daemon->stop();
  print_result(failed == 0 && gate_ok, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload warm_daemon|unchoppable_trace|"
                 "cfg_program|loop_bodies --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  // Independent of the caller's environment: the cache at its defaults
  // with the disk tier off; spans, sockets and traces under kOutDir.
  ais::ScheduleCache::global().set_enabled(true);
  ais::ScheduleCache::global().set_disk_dir("");
  std::error_code ec;
  std::filesystem::create_directories(perfbench::kOutDir, ec);
  if (args.workload == "warm_daemon" && !perfbench::pin_to_one_cpu()) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU\n");
    return 1;
  }
  return args.trace ? perfbench::run_traced(args)
                    : perfbench::run_end_to_end(args);
}
