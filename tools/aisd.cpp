// aisd — the long-lived anticipatory-scheduling daemon.
//
// Listens on a unix-domain socket and/or a TCP endpoint for framed compile
// requests (see docs/SERVER.md for the protocol and the QoS model) and
// serves them from a shared warm schedule cache on a fixed set of worker
// threads that pull from the admission queue:
//
//   aisd --socket /tmp/aisd.sock
//   aisd --socket /tmp/aisd.sock --threads 8 --cache-dir /var/cache/aisd
//   aisd --tcp 127.0.0.1:7433
//   aisd --tcp 127.0.0.1:0 --port-file /tmp/aisd.port   # kernel-picked port
//   aisd --socket /tmp/aisd.sock --quotas bulk-ci=50 --quota-default 0
//
// Flags:
//   --socket PATH         unix socket to listen on
//   --tcp HOST:PORT       TCP endpoint to listen on (port 0 = kernel pick);
//                         at least one of --socket/--tcp is required
//   --port-file F         write the bound TCP port to F after listen (how
//                         scripts consume --tcp HOST:0)
//   --threads N           worker threads (0 = one per hardware thread)
//   --queue-cap N         bounded admission queue depth (default 1024)
//   --read-deadline-ms N  disconnect a peer stalled mid-frame this long
//                         (default 30000; 0 disables)
//   --qos BOOL            priority/quota/aging admission (default true;
//                         false = FIFO, priorities parsed but ignored)
//   --quota-default RPS   token-bucket rate for unlisted tenants (0 = off)
//   --quotas LIST         per-tenant rates, "tenant=rps,tenant=rps"
//   --age-promote-us N    wait before a queued request is promoted one
//                         priority level (default 100000)
//   --defer-max-us N      over-quota work is force-admitted past this wait
//                         (default 1000000)
//   --cache BOOL          enable/disable the shared schedule cache
//   --cache-dir DIR       persistent cache tier shared across restarts
//   --metrics-out F       write the metric registry on clean shutdown
//                         (Prometheus text, or JSON when F ends in .json)
//
// Any other argument, or a flag outside this list, exits 1 naming it.
//
// Shut down with the SHUTDOWN verb (aisload --shutdown) or SIGINT/SIGTERM;
// both drain every admitted request, flush the cache's disk tier, write
// --metrics-out, print "clean shutdown" and exit 0.
#include <signal.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "core/schedule_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "server/server.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace ais;

bool ends_with_json(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string bad_arg = args.check(
      {"socket", "tcp", "port-file", "threads", "queue-cap",
       "read-deadline-ms", "qos", "quota-default", "quotas", "age-promote-us",
       "defer-max-us", "cache", "cache-dir", "metrics-out"});
  if (!bad_arg.empty()) {
    std::fprintf(stderr, "aisd: %s\n", bad_arg.c_str());
    return 1;
  }
  server::ServerOptions options;
  options.socket_path = args.get_string("socket", "");
  options.tcp_addr = args.get_string("tcp", "");
  if (options.socket_path.empty() && options.tcp_addr.empty()) {
    std::fprintf(
        stderr,
        "usage: aisd [--socket PATH] [--tcp HOST:PORT] [--port-file F] "
        "[--threads N] [--queue-cap N] [--read-deadline-ms N] [--qos BOOL] "
        "[--quota-default RPS] [--quotas tenant=rps,...] "
        "[--age-promote-us N] [--defer-max-us N] [--cache BOOL] "
        "[--cache-dir DIR] [--metrics-out FILE]\n"
        "(at least one of --socket / --tcp)\n");
    return 1;
  }
  options.threads = static_cast<int>(args.get_int("threads", 0));
  options.queue_cap =
      static_cast<std::size_t>(args.get_int("queue-cap", 1024));
  options.read_deadline_ms = args.get_int("read-deadline-ms", 30'000);
  options.admission.qos = args.get_bool("qos", true);
  options.admission.default_rps = args.get_double("quota-default", 0.0);
  options.admission.age_promote_us = args.get_int("age-promote-us", 100'000);
  options.admission.defer_max_us = args.get_int("defer-max-us", 1'000'000);
  const std::string quotas = args.get_string("quotas", "");
  if (!quotas.empty()) {
    std::string quota_error;
    if (!server::parse_quota_list(quotas, &options.admission.quotas,
                                  &quota_error)) {
      std::fprintf(stderr, "aisd: --quotas: %s\n", quota_error.c_str());
      return 1;
    }
  }

  if (args.has("cache")) {
    ScheduleCache::global().set_enabled(args.get_bool("cache", true));
  }
  const std::string cache_dir = args.get_string("cache-dir", "");
  if (!cache_dir.empty()) ScheduleCache::global().set_disk_dir(cache_dir);
  const std::string metrics_path = args.get_string("metrics-out", "");
  const std::string port_file = args.get_string("port-file", "");

  // Graceful SIGINT/SIGTERM: block them here (inherited by every server
  // thread), then let a watcher thread sigwait and stop the server — signal
  // handlers cannot take the locks a graceful stop needs.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  server::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "aisd: %s\n", error.c_str());
    return 1;
  }
  const int workers = clamp_jobs(options.threads);
  if (!options.socket_path.empty()) {
    std::fprintf(stderr, "aisd: listening on %s (%d workers)\n",
                 options.socket_path.c_str(), workers);
  }
  if (!options.tcp_addr.empty()) {
    std::fprintf(stderr, "aisd: listening on tcp %s port %d (%d workers)\n",
                 options.tcp_addr.c_str(), server.tcp_port(), workers);
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.tcp_port() << '\n';
    if (!out.good()) {
      std::fprintf(stderr, "aisd: cannot write port file %s\n",
                   port_file.c_str());
      server.stop();
      return 1;
    }
  }

  std::thread([&server, sigs] {
    int sig = 0;
    if (sigwait(&sigs, &sig) == 0) server.stop();
  }).detach();  // never fires on the SHUTDOWN-verb path; gone at exit

  // On a signal, the stop() inside wait() blocks until the watcher's stop()
  // has drained, so the metrics below and ~Server never race it.
  server.wait();

  if (!metrics_path.empty()) {
    obs::record_process_gauges();
    std::ofstream out(metrics_path);
    if (out.is_open()) {
      if (ends_with_json(metrics_path)) {
        obs::MetricRegistry::global().write_json(out);
      } else {
        obs::MetricRegistry::global().write_prometheus(out);
      }
    }
    if (!out.good()) {
      std::fprintf(stderr, "aisd: cannot write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "aisd: clean shutdown\n");
  return 0;
}
