// Daemon soak bench: an in-process aisd server driven closed-loop over a
// repeated-body request mix, reporting cold-cache vs warm-cache latency
// from the daemon's own server_request_us histogram (snapshot deltas per
// phase), unix-vs-TCP warm throughput, a two-tenant QoS contention
// experiment, and a leak gate over the soak (resident set must stop
// growing once the per-worker scratch pools and the schedule cache reach
// steady state).  CI perf-smoke runs this via scripts/bench_json.sh; see
// docs/SERVER.md.
//
//   bench_server [--requests N] [--bodies B] [--clients C] [--threads T]
//                [--blocks N] [--insts K] [--window W] [--machine NAME]
//                [--seed S] [--json FILE] [--min-warm-speedup X]
//                [--max-rss-growth-mb MB] [--min-tcp-ratio X]
//                [--qos-requests N] [--qos-bulk-clients N]
//                [--qos-bulk-depth N] [--max-qos-p99-factor X]
//                [--min-fifo-qos-ratio X]
//
// Phases (all through the real socket protocol, C client connections):
//   cold:  in-memory cache cleared, every body compiled once per round
//          until at least --cold-requests samples exist — every request
//          misses the trace cache.
//   warm:  one priming round, then --requests requests drawn uniformly
//          from the body pool — steady-state hits.  The leak gate samples
//          VmRSS after priming and again after the soak.  The warm-vs-cold
//          gate (--min-warm-speedup) compares the exact mean latencies
//          (histogram sum / count) of the cold and warm phases; their
//          bucketed p50s move in ~20% steps, too coarse to gate a 3x bar
//          on, and are reported next to the means.
//   tcp:   a warm burst over the unix listener and the same burst over the
//          TCP listener; the gate bounds how much the TCP transport may
//          cost (--min-tcp-ratio, tcp_rps/unix_rps).
//   qos:   dedicated single-worker servers: an interactive tenant alone
//          (uncontended baseline), then the same tenant against a
//          saturating bulk tenant under FIFO admission and under QoS
//          admission.  Bulk and interactive use the same body pool, so
//          head-of-line blocking is measured in units of one service time.
//          Gates: the QoS arm's interactive p99 within
//          --max-qos-p99-factor of uncontended, and FIFO at least
//          --min-fifo-qos-ratio worse than QoS.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/schedule_cache.hpp"
#include "ir/instruction.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/cli.hpp"
#include "support/prng.hpp"
#include "workloads/random_ir.hpp"

namespace {

using namespace ais;

std::string render_trace(const Trace& trace) {
  std::string text;
  for (const BasicBlock& bb : trace.blocks) {
    text += "block " + bb.label + ":\n";
    for (const Instruction& inst : bb.insts) {
      text += "  " + inst.to_string() + "\n";
    }
  }
  return text;
}

/// Current resident set in bytes from /proc/self/statm (0 off-Linux, which
/// disables the leak gate rather than failing it).
std::int64_t current_rss_bytes() {
  std::ifstream in("/proc/self/statm");
  if (!in.is_open()) return 0;
  long long total_pages = 0;
  long long resident_pages = 0;
  in >> total_pages >> resident_pages;
  if (!in.good()) return 0;
  return static_cast<std::int64_t>(resident_pages) *
         static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

/// Per-phase view of a monotone histogram: counts accumulated since `from`.
obs::HistogramSnapshot snapshot_delta(const obs::HistogramSnapshot& from,
                                      const obs::HistogramSnapshot& to) {
  obs::HistogramSnapshot d;
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    d.counts[i] = to.counts[i] - from.counts[i];
  }
  d.count = to.count - from.count;
  d.sum = to.sum - from.sum;
  d.max = to.max;  // upper clamp only; fine for per-phase quantiles
  return d;
}

/// A drive target: the unix socket path or a TCP host:port.
struct Target {
  std::string address;
  bool tcp = false;
};

bool connect_target(server::Client& client, const Target& target,
                    std::string* error) {
  return target.tcp ? client.connect_tcp(target.address, error)
                    : client.connect(target.address, error);
}

struct DriveStats {
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  double elapsed_s = 0;
  double rps() const {
    return elapsed_s > 0 ? static_cast<double>(ok + errors) / elapsed_s : 0;
  }
};

/// Closed-loop drive: `clients` connections, each keeping one request in
/// flight, until `requests` total have been answered.  pick(id) selects the
/// body for request id.
template <typename PickBody>
DriveStats drive(const Target& target, std::size_t requests,
                 std::size_t clients, const std::string& machine, int window,
                 const PickBody& pick) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> errors{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      server::Client client;
      std::string error;
      if (!connect_target(client, target, &error)) {
        std::fprintf(stderr, "bench_server: connect: %s\n", error.c_str());
        return;
      }
      server::Request req;
      req.verb = server::kVerbCompile;
      req.options["mode"] = "trace";
      req.options["machine"] = machine;
      req.options["window"] = std::to_string(window);
      for (;;) {
        const std::size_t id = next.fetch_add(1, std::memory_order_relaxed);
        if (id >= requests) return;
        req.body = pick(id);
        server::Response resp;
        if (!client.call(req, &resp, &error)) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        (resp.ok ? ok : errors).fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  DriveStats stats;
  stats.ok = ok.load();
  stats.errors = errors.load();
  stats.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  return stats;
}

std::int64_t percentile(std::vector<std::int64_t>& latencies, double p) {
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  const double rank = p * static_cast<double>(latencies.size() - 1);
  return latencies[static_cast<std::size_t>(rank + 0.5)];
}

/// One arm of the QoS experiment: a dedicated single-worker server (its
/// worker pops the admission queue only when free, so the admission policy
/// orders all waiting work), an interactive tenant issuing
/// `interactive_requests` closed-loop, and `bulk_clients` bulk-tenant
/// connections each keeping `bulk_depth` pipelined requests in flight until
/// the interactive tenant finishes.  Pipelining matters on a machine with
/// few cores: it keeps the server-side backlog deep (bulk_clients *
/// bulk_depth queued) with only a couple of mostly-blocked client threads,
/// so the interactive client's latency measures the server's queueing
/// discipline rather than the bench's own thread-scheduling noise.
/// Client-side latency percentiles for the interactive tenant come back in
/// the result.
struct QosArm {
  double interactive_p50_us = 0;
  double interactive_p99_us = 0;
  std::uint64_t errors = 0;
};

QosArm run_qos_arm(bool qos, std::size_t interactive_requests,
                   std::size_t bulk_clients, std::size_t bulk_depth,
                   const std::vector<std::string>& pool,
                   const std::string& machine, int window,
                   std::uint64_t seed, int arm_id) {
  server::ServerOptions options;
  options.socket_path = "/tmp/bench_server_qos." + std::to_string(getpid()) +
                        "." + std::to_string(arm_id) + ".sock";
  options.threads = 1;
  options.admission.qos = qos;
  server::Server srv(options);
  std::string error;
  QosArm arm;
  if (!srv.start(&error)) {
    std::fprintf(stderr, "bench_server: qos arm: %s\n", error.c_str());
    arm.errors = 1;
    return arm;
  }
  const Target target{options.socket_path, /*tcp=*/false};
  // Warm the shared cache so every request in the timed section is a hit:
  // the experiment measures queueing policy, not compile variance.
  ScheduleCache::global().clear();
  drive(target, pool.size(), 4, machine, window,
        [&](std::size_t id) -> const std::string& {
          return pool[id % pool.size()];
        });

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> bulk;
  bulk.reserve(bulk_clients);
  for (std::size_t b = 0; b < bulk_clients; ++b) {
    bulk.emplace_back([&, b] {
      server::Client client;
      std::string err;
      if (!connect_target(client, target, &err)) {
        errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      server::Request req;
      req.verb = server::kVerbCompile;
      req.options["mode"] = "trace";
      req.options["machine"] = machine;
      req.options["window"] = std::to_string(window);
      req.options["priority"] = "bulk";
      req.options["tenant"] = "batch";
      Prng prng(seed * 31 + b);
      std::size_t outstanding = 0;
      auto send_one = [&]() -> bool {
        req.body = pool[prng.index(pool.size())];
        if (!client.send(req, &err)) return false;
        ++outstanding;
        return true;
      };
      auto receive_one = [&]() -> bool {
        server::Response resp;
        if (!client.receive(&resp, &err)) return false;
        if (!resp.ok) errors.fetch_add(1, std::memory_order_relaxed);
        --outstanding;
        return true;
      };
      for (std::size_t i = 0; i < bulk_depth; ++i) {
        if (!send_one()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      while (!stop.load(std::memory_order_relaxed)) {
        if (!receive_one() || !send_one()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      while (outstanding > 0) {  // drain the pipeline before disconnect
        if (!receive_one()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  std::vector<std::int64_t> latency;
  latency.reserve(interactive_requests);
  {
    server::Client client;
    std::string err;
    if (!connect_target(client, target, &err)) {
      errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      server::Request req;
      req.verb = server::kVerbCompile;
      req.options["mode"] = "trace";
      req.options["machine"] = machine;
      req.options["window"] = std::to_string(window);
      req.options["priority"] = "interactive";
      req.options["tenant"] = "web";
      Prng prng(seed * 17 + 3);
      for (std::size_t i = 0; i < interactive_requests; ++i) {
        req.body = pool[prng.index(pool.size())];
        const auto t0 = std::chrono::steady_clock::now();
        server::Response resp;
        if (!client.call(req, &resp, &err)) {
          errors.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        const auto t1 = std::chrono::steady_clock::now();
        latency.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count());
        if (!resp.ok) errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : bulk) t.join();
  srv.stop();

  arm.interactive_p50_us =
      static_cast<double>(percentile(latency, 0.50));
  arm.interactive_p99_us =
      static_cast<double>(percentile(latency, 0.99));
  arm.errors = errors.load();
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::size_t requests =
      static_cast<std::size_t>(args.get_int("requests", 100'000));
  const std::size_t cold_requests =
      static_cast<std::size_t>(args.get_int("cold-requests", 2'000));
  const std::size_t bodies =
      static_cast<std::size_t>(args.get_int("bodies", 256));
  const std::size_t clients =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   args.get_int("clients", 8)));
  const int blocks = static_cast<int>(args.get_int("blocks", 4));
  const int insts = static_cast<int>(args.get_int("insts", 12));
  const int window = static_cast<int>(args.get_int("window", 2));
  const std::string machine = args.get_string("machine", "rs6000");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double min_warm_speedup = args.get_double("min-warm-speedup", 0.0);
  const double max_rss_growth_mb = args.get_double("max-rss-growth-mb", 0.0);
  const double min_tcp_ratio = args.get_double("min-tcp-ratio", 0.0);
  const std::size_t qos_requests =
      static_cast<std::size_t>(args.get_int("qos-requests", 2'000));
  const std::size_t qos_bulk_clients =
      static_cast<std::size_t>(args.get_int("qos-bulk-clients", 1));
  const std::size_t qos_bulk_depth =
      static_cast<std::size_t>(args.get_int("qos-bulk-depth", 16));
  const double max_qos_p99_factor =
      args.get_double("max-qos-p99-factor", 0.0);
  const double min_fifo_qos_ratio =
      args.get_double("min-fifo-qos-ratio", 0.0);

  // Body pool: `bodies` distinct traces; a request mix drawn uniformly from
  // it re-compiles every body requests/bodies times — the repeated-body
  // warm-cache regime.
  Prng prng(seed);
  RandomIrParams ir_params;
  ir_params.num_insts = insts;
  std::vector<std::string> pool;
  pool.reserve(bodies);
  for (std::size_t i = 0; i < bodies; ++i) {
    pool.push_back(render_trace(random_ir_trace(prng, ir_params, blocks)));
  }

  server::ServerOptions options;
  options.socket_path =
      "/tmp/bench_server." + std::to_string(getpid()) + ".sock";
  options.tcp_addr = "127.0.0.1:0";
  options.threads = static_cast<int>(args.get_int("threads", 0));
  server::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_server: %s\n", error.c_str());
    return 2;
  }
  const Target unix_target{options.socket_path, /*tcp=*/false};
  const Target tcp_target{
      "127.0.0.1:" + std::to_string(server.tcp_port()), /*tcp=*/true};
  ScheduleCache& cache = ScheduleCache::global();
  cache.set_enabled(true);

  obs::Histogram* request_us = obs::MetricRegistry::global().histogram(
      "server_request_us", {"outcome", "ok"});

  // --- cold phase: every request misses the trace cache -------------------
  Prng mix_prng(seed ^ 0x5eedULL);
  const obs::HistogramSnapshot before_cold = request_us->snapshot();
  DriveStats cold;
  {
    // Round-robin over the pool, clearing the cache between rounds so
    // repeats of a body never hit.
    std::size_t done = 0;
    while (done < cold_requests) {
      cache.clear();
      const std::size_t round = std::min(bodies, cold_requests - done);
      const DriveStats r =
          drive(unix_target, round, clients, machine, window,
                [&](std::size_t id) -> const std::string& {
                  return pool[id % bodies];
                });
      cold.ok += r.ok;
      cold.errors += r.errors;
      cold.elapsed_s += r.elapsed_s;
      done += round;
    }
  }
  const obs::HistogramSnapshot cold_hist =
      snapshot_delta(before_cold, request_us->snapshot());

  // --- warm phase + soak leak gate ----------------------------------------
  cache.clear();
  // Priming round: one compile per body fills the cache.
  drive(unix_target, bodies, clients, machine, window,
        [&](std::size_t id) -> const std::string& { return pool[id % bodies]; });
  const std::int64_t rss_after_prime = current_rss_bytes();

  std::vector<std::uint32_t> picks(requests);
  for (std::uint32_t& p : picks) {
    p = static_cast<std::uint32_t>(mix_prng.index(bodies));
  }
  const obs::HistogramSnapshot before_warm = request_us->snapshot();
  const DriveStats warm =
      drive(unix_target, requests, clients, machine, window,
            [&](std::size_t id) -> const std::string& {
              return pool[picks[id]];
            });
  const obs::HistogramSnapshot warm_hist =
      snapshot_delta(before_warm, request_us->snapshot());
  const std::int64_t rss_after_soak = current_rss_bytes();
  const double rss_growth_mb =
      static_cast<double>(rss_after_soak - rss_after_prime) /
      (1024.0 * 1024.0);

  // --- tcp phase: same warm burst over both transports --------------------
  const std::size_t burst_requests = std::min<std::size_t>(requests, 20'000);
  auto pick_burst = [&](std::size_t id) -> const std::string& {
    return pool[picks[id % picks.size()]];
  };
  const DriveStats unix_burst =
      drive(unix_target, burst_requests, clients, machine, window,
            pick_burst);
  const DriveStats tcp_burst =
      drive(tcp_target, burst_requests, clients, machine, window,
            pick_burst);
  const double tcp_ratio =
      unix_burst.rps() > 0 ? tcp_burst.rps() / unix_burst.rps() : 0.0;

  server.stop();

  // --- qos phase: two tenant classes on dedicated single-worker servers ---
  const QosArm uncontended = run_qos_arm(
      /*qos=*/true, qos_requests, 0, qos_bulk_depth, pool, machine, window,
      seed, 0);
  const QosArm fifo = run_qos_arm(
      /*qos=*/false, qos_requests, qos_bulk_clients, qos_bulk_depth, pool,
      machine, window, seed, 1);
  const QosArm qos = run_qos_arm(
      /*qos=*/true, qos_requests, qos_bulk_clients, qos_bulk_depth, pool,
      machine, window, seed, 2);
  const double qos_factor = uncontended.interactive_p99_us > 0
                                ? qos.interactive_p99_us /
                                      uncontended.interactive_p99_us
                                : 0.0;
  const double fifo_factor = uncontended.interactive_p99_us > 0
                                 ? fifo.interactive_p99_us /
                                       uncontended.interactive_p99_us
                                 : 0.0;
  const double fifo_qos_ratio =
      qos.interactive_p99_us > 0
          ? fifo.interactive_p99_us / qos.interactive_p99_us
          : 0.0;

  const double cold_p50 = static_cast<double>(cold_hist.quantile(0.50));
  const double cold_p99 = static_cast<double>(cold_hist.quantile(0.99));
  const double warm_p50 = static_cast<double>(warm_hist.quantile(0.50));
  const double warm_p99 = static_cast<double>(warm_hist.quantile(0.99));
  const double speedup = warm_p50 > 0 ? cold_p50 / warm_p50 : 0.0;
  const auto mean_us = [](const obs::HistogramSnapshot& h) {
    return h.count > 0 ? static_cast<double>(h.sum) /
                             static_cast<double>(h.count)
                       : 0.0;
  };
  const double cold_mean = mean_us(cold_hist);
  const double warm_mean = mean_us(warm_hist);
  const double mean_speedup = warm_mean > 0 ? cold_mean / warm_mean : 0.0;

  std::printf("bench_server: cold  %llu requests p50=%.0fus p99=%.0fus "
              "(%.1f req/s)\n",
              static_cast<unsigned long long>(cold_hist.count), cold_p50,
              cold_p99, cold.rps());
  std::printf("bench_server: warm  %llu requests p50=%.0fus p99=%.0fus "
              "(%.1f req/s), p50 speedup %.2fx\n",
              static_cast<unsigned long long>(warm_hist.count), warm_p50,
              warm_p99, warm.rps(), speedup);
  std::printf("bench_server: means cold=%.1fus warm=%.1fus, "
              "mean speedup %.2fx (gated)\n",
              cold_mean, warm_mean, mean_speedup);
  std::printf("bench_server: soak rss growth %.1f MiB "
              "(prime %.1f -> soak %.1f)\n",
              rss_growth_mb,
              static_cast<double>(rss_after_prime) / (1024.0 * 1024.0),
              static_cast<double>(rss_after_soak) / (1024.0 * 1024.0));
  std::printf("bench_server: tcp   unix %.1f req/s, tcp %.1f req/s "
              "(ratio %.2f)\n",
              unix_burst.rps(), tcp_burst.rps(), tcp_ratio);
  std::printf("bench_server: qos   interactive p99 uncontended=%.0fus "
              "fifo=%.0fus (%.1fx) qos=%.0fus (%.1fx)\n",
              uncontended.interactive_p99_us, fifo.interactive_p99_us,
              fifo_factor, qos.interactive_p99_us, qos_factor);

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "bench_server: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << "{\"benchmark\": \"server\", \"requests\": " << requests
        << ", \"bodies\": " << bodies << ", \"clients\": " << clients
        << ", \"machine\": \"" << machine << "\", \"window\": " << window
        << ", \"cold_p50_us\": " << cold_p50
        << ", \"cold_p99_us\": " << cold_p99
        << ", \"cold_rps\": " << cold.rps()
        << ", \"warm_p50_us\": " << warm_p50
        << ", \"warm_p99_us\": " << warm_p99
        << ", \"warm_rps\": " << warm.rps()
        << ", \"warm_speedup_p50\": " << speedup
        << ", \"cold_mean_us\": " << cold_mean
        << ", \"warm_mean_us\": " << warm_mean
        << ", \"warm_speedup_mean\": " << mean_speedup
        << ", \"rss_growth_mb\": " << rss_growth_mb
        << ", \"tcp\": {\"unix_rps\": " << unix_burst.rps()
        << ", \"tcp_rps\": " << tcp_burst.rps()
        << ", \"ratio\": " << tcp_ratio << "}"
        << ", \"qos\": {\"bulk_clients\": " << qos_bulk_clients
        << ", \"bulk_depth\": " << qos_bulk_depth
        << ", \"uncontended_p50_us\": " << uncontended.interactive_p50_us
        << ", \"uncontended_p99_us\": " << uncontended.interactive_p99_us
        << ", \"fifo_p99_us\": " << fifo.interactive_p99_us
        << ", \"fifo_factor\": " << fifo_factor
        << ", \"qos_p99_us\": " << qos.interactive_p99_us
        << ", \"qos_factor\": " << qos_factor << "}}\n";
  }

  int rc = 0;
  const std::uint64_t total_errors = cold.errors + warm.errors +
                                     unix_burst.errors + tcp_burst.errors +
                                     uncontended.errors + fifo.errors +
                                     qos.errors;
  if (total_errors > 0) {
    std::fprintf(stderr, "bench_server: %llu requests failed\n",
                 static_cast<unsigned long long>(total_errors));
    rc = 1;
  }
  if (min_warm_speedup > 0 && mean_speedup < min_warm_speedup) {
    std::fprintf(stderr,
                 "bench_server: warm mean speedup %.2fx below gate %.2fx "
                 "(p50 speedup %.2fx)\n",
                 mean_speedup, min_warm_speedup, speedup);
    rc = 1;
  }
  if (max_rss_growth_mb > 0 && rss_growth_mb > max_rss_growth_mb) {
    std::fprintf(stderr,
                 "bench_server: soak RSS growth %.1f MiB exceeds budget "
                 "%.1f MiB\n",
                 rss_growth_mb, max_rss_growth_mb);
    rc = 1;
  }
  if (min_tcp_ratio > 0 && tcp_ratio < min_tcp_ratio) {
    std::fprintf(stderr,
                 "bench_server: tcp/unix throughput ratio %.2f below gate "
                 "%.2f\n",
                 tcp_ratio, min_tcp_ratio);
    rc = 1;
  }
  if (max_qos_p99_factor > 0 && qos_factor > max_qos_p99_factor) {
    std::fprintf(stderr,
                 "bench_server: qos interactive p99 factor %.2fx exceeds "
                 "gate %.2fx\n",
                 qos_factor, max_qos_p99_factor);
    rc = 1;
  }
  if (min_fifo_qos_ratio > 0 && fifo_qos_ratio < min_fifo_qos_ratio) {
    std::fprintf(stderr,
                 "bench_server: fifo/qos interactive p99 ratio %.2f below "
                 "gate %.2f (fifo should be measurably worse)\n",
                 fifo_qos_ratio, min_fifo_qos_ratio);
    rc = 1;
  }
  return rc;
}
