// aisload — load generator for the aisd daemon.
//
// Drives a request mix of randomly generated IR programs (plus any .s files
// from an examples directory) at a daemon endpoint (unix socket or TCP),
// either closed-loop (each client thread keeps one request in flight) or
// open-loop (requests are pipelined on a fixed global schedule, one sender +
// one receiver thread per connection), and reports client-side latency
// percentiles:
//
//   aisload --socket /tmp/aisd.sock --requests 100000 --clients 32
//   aisload --tcp 127.0.0.1:7433 --requests 100000 --clients 32
//   aisload --socket /tmp/aisd.sock --rate 5000 --requests 50000
//   aisload --socket /tmp/aisd.sock --metrics      # dump daemon METRICS
//   aisload --socket /tmp/aisd.sock --shutdown     # graceful stop
//
// A second client class turns one run into a mixed-tenant contention
// experiment — per-class percentiles come back separately (the QoS gate in
// bench/bench_server.cpp is the same experiment in-process).  One command,
// wrapped over three lines:
//
//   aisload --socket /tmp/aisd.sock --clients 2 --tenant web
//           --priority interactive --requests 2000
//           --clients2 16 --tenant2 batch --priority2 bulk --requests2 8000
//
// Flags:
//   --socket PATH     daemon unix socket
//   --tcp HOST:PORT   daemon TCP endpoint (exactly one of --socket/--tcp)
//   --requests N      class-1 requests (default 1000)
//   --clients N       class-1 concurrent connections (default 8)
//   --priority P      class-1 priority: interactive | normal | bulk
//   --tenant T        class-1 tenant name
//   --clients2 N      class-2 connections (0 = single-class run)
//   --requests2 N     class-2 requests (default: same as --requests)
//   --priority2 P     class-2 priority
//   --tenant2 T       class-2 tenant name
//   --rate R          open-loop target req/s across class-1 clients
//                     (0 = closed loop; class 2 is always closed-loop)
//   --bodies N        distinct programs in the mix (default 64; smaller =
//                     warmer cache, 0 = every request unique)
//   --blocks N        blocks per generated trace (default 4)
//   --insts N         instructions per block (default 12)
//   --mode M          trace | loop | cfg (default trace)
//   --machine NAME    machine preset forwarded to the daemon
//   --window N        lookahead window forwarded to the daemon
//   --profile BOOL    request counter streams with each reply
//   --examples DIR    mix in every *.s file found in DIR
//   --seed N          request-mix PRNG seed (default 1)
//   --json            print the summary as one JSON object on stdout
//   --metrics         fetch METRICS, print the Prometheus text, exit
//   --shutdown        send SHUTDOWN and exit
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "ir/instruction.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "support/cli.hpp"
#include "support/prng.hpp"
#include "workloads/random_ir.hpp"

namespace {

using namespace ais;

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

/// The request-body pool: `bodies` generated programs (deterministic in
/// seed) plus every .s file under `examples_dir`.
std::vector<std::string> build_body_pool(std::size_t bodies, int blocks,
                                         int insts, std::uint64_t seed,
                                         const std::string& mode,
                                         const std::string& examples_dir) {
  std::vector<std::string> pool;
  Prng prng(seed);
  RandomIrParams params;
  params.num_insts = insts;
  for (std::size_t i = 0; i < bodies; ++i) {
    const int n = mode == "loop" ? 1 : blocks;
    pool.push_back(render_trace(random_ir_trace(prng, params, n)));
  }
  if (!examples_dir.empty()) {
    std::error_code ec;
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(examples_dir, ec)) {
      if (entry.path().extension() == ".s") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path);
      if (!in.is_open()) continue;
      pool.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
  }
  return pool;
}

struct LoadConfig {
  std::string target;  // socket path or host:port
  bool tcp = false;
  std::size_t requests = 1000;
  std::size_t clients = 8;
  double rate = 0.0;  // open-loop req/s; 0 = closed loop
  std::string mode = "trace";
  std::string machine = "rs6000";
  std::int64_t window = 0;
  bool profile = false;
};

/// One client class in a mixed-tenant run: its connections draw request ids
/// from [id_begin, id_end) and tag every request with its priority/tenant.
struct ClientClass {
  std::size_t clients = 0;
  std::size_t id_begin = 0;
  std::size_t id_end = 0;
  std::string priority;  // empty = daemon default (normal)
  std::string tenant;    // empty = daemon default tenant
  std::atomic<std::size_t> next_id{0};
};

bool connect_client(server::Client& client, const LoadConfig& cfg,
                    std::string* error) {
  return cfg.tcp ? client.connect_tcp(cfg.target, error)
                 : client.connect(cfg.target, error);
}

server::Request make_request(const LoadConfig& cfg, const ClientClass& cls,
                             const std::vector<std::string>& pool,
                             std::size_t id, Prng& prng, int blocks,
                             int insts) {
  server::Request req;
  req.verb = server::kVerbCompile;
  req.options["mode"] = cfg.mode;
  req.options["machine"] = cfg.machine;
  req.options["window"] = std::to_string(cfg.window);
  if (cfg.profile) req.options["profile"] = "1";
  if (!cls.priority.empty()) req.options["priority"] = cls.priority;
  if (!cls.tenant.empty()) req.options["tenant"] = cls.tenant;
  req.options["id"] = std::to_string(id);
  if (pool.empty()) {
    // --bodies 0: every request is a fresh program (all-miss load).
    RandomIrParams params;
    params.num_insts = insts;
    const int n = cfg.mode == "loop" ? 1 : blocks;
    req.body = render_trace(random_ir_trace(prng, params, n));
  } else {
    req.body = pool[prng.index(pool.size())];
  }
  return req;
}

/// Parses the id echoed in a reply: the `id=` option on OK, the trailing
/// " (id=N)" suffix on ERR.  Returns npos when absent.
std::size_t reply_id(const server::Response& resp) {
  std::string text(resp.option("id"));
  if (text.empty()) {
    const std::size_t pos = resp.message.rfind("(id=");
    if (pos == std::string::npos || resp.message.back() != ')') {
      return std::string::npos;
    }
    text = resp.message.substr(pos + 4, resp.message.size() - pos - 5);
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return std::string::npos;
  return static_cast<std::size_t>(v);
}

struct LoadResult {
  std::vector<std::int64_t> latency_us;  // one slot per request id; -1 unset
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> transport_failures{0};
};

/// Closed loop: each client thread keeps exactly one request outstanding,
/// drawing ids from its class's shared counter until the budget is spent.
void run_closed_client(const LoadConfig& cfg, ClientClass& cls,
                       const std::vector<std::string>& pool, int blocks,
                       int insts, std::uint64_t seed, LoadResult& result) {
  server::Client client;
  std::string error;
  if (!connect_client(client, cfg, &error)) {
    result.transport_failures.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Prng prng(seed);
  for (;;) {
    const std::size_t id =
        cls.id_begin + cls.next_id.fetch_add(1, std::memory_order_relaxed);
    if (id >= cls.id_end) return;
    const server::Request req =
        make_request(cfg, cls, pool, id, prng, blocks, insts);
    const std::int64_t start = now_us();
    server::Response resp;
    if (!client.call(req, &resp, &error)) {
      result.transport_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    result.latency_us[id] = now_us() - start;
    if (resp.ok) {
      result.ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      result.errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

/// Open loop: ids are striped across connections and each is sent at its
/// global schedule slot start + id*interval, regardless of responses; a
/// receiver thread matches replies back to ids.  Latency therefore includes
/// any queueing the daemon builds up when it falls behind the offered rate.
void run_open_client(const LoadConfig& cfg, const ClientClass& cls,
                     const std::vector<std::string>& pool, int blocks,
                     int insts, std::uint64_t seed, std::size_t client_index,
                     std::int64_t start_us, double interval_us,
                     std::vector<std::atomic<std::int64_t>>& send_us,
                     LoadResult& result) {
  server::Client client;
  std::string error;
  if (!connect_client(client, cfg, &error)) {
    result.transport_failures.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t expected =
      client_index < cfg.requests
          ? (cfg.requests - client_index + cfg.clients - 1) / cfg.clients
          : 0;

  std::thread receiver([&] {
    // Every sent request gets exactly one reply; when the daemon dies
    // early, recv fails and we bail with a transport failure instead.
    server::Response resp;
    std::string recv_error;
    for (std::size_t received = 0; received < expected; ++received) {
      if (!client.receive(&resp, &recv_error)) {
        result.transport_failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const std::size_t id = reply_id(resp);
      if (id < result.latency_us.size()) {
        const std::int64_t t0 = send_us[id].load(std::memory_order_acquire);
        if (t0 > 0) result.latency_us[id] = now_us() - t0;
      }
      if (resp.ok) {
        result.ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        result.errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  Prng prng(seed);
  for (std::size_t id = client_index; id < cfg.requests;
       id += cfg.clients) {
    const server::Request req =
        make_request(cfg, cls, pool, id, prng, blocks, insts);
    const std::int64_t due =
        start_us + static_cast<std::int64_t>(interval_us * id);
    const std::int64_t now = now_us();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
    }
    send_us[id].store(now_us(), std::memory_order_release);
    if (!client.send(req, &error)) {
      result.transport_failures.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  receiver.join();
}

std::int64_t percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

/// Latency percentiles over the request-id range [begin, end).
struct ClassSummary {
  std::size_t completed = 0;
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
  std::int64_t max = 0;
};

ClassSummary summarize(const std::vector<std::int64_t>& latency_us,
                       std::size_t begin, std::size_t end) {
  std::vector<std::int64_t> sorted;
  sorted.reserve(end - begin);
  for (std::size_t id = begin; id < end && id < latency_us.size(); ++id) {
    if (latency_us[id] >= 0) sorted.push_back(latency_us[id]);
  }
  std::sort(sorted.begin(), sorted.end());
  ClassSummary s;
  s.completed = sorted.size();
  s.p50 = percentile(sorted, 0.50);
  s.p90 = percentile(sorted, 0.90);
  s.p99 = percentile(sorted, 0.99);
  s.max = sorted.empty() ? 0 : sorted.back();
  return s;
}

int simple_verb(const LoadConfig& cfg, const std::string& verb) {
  server::Client client;
  std::string error;
  if (!connect_client(client, cfg, &error)) {
    std::fprintf(stderr, "aisload: %s\n", error.c_str());
    return 1;
  }
  server::Request req;
  req.verb = verb;
  server::Response resp;
  if (!client.call(req, &resp, &error)) {
    std::fprintf(stderr, "aisload: %s\n", error.c_str());
    return 1;
  }
  if (!resp.ok) {
    std::fprintf(stderr, "aisload: %s\n", resp.message.c_str());
    return 1;
  }
  if (!resp.diag_text.empty()) std::fputs(resp.diag_text.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  LoadConfig cfg;
  const std::string socket = args.get_string("socket", "");
  const std::string tcp = args.get_string("tcp", "");
  if (socket.empty() == tcp.empty()) {
    std::fprintf(stderr,
                 "usage: aisload (--socket PATH | --tcp HOST:PORT) "
                 "[--requests N] [--clients N] [--priority P] [--tenant T] "
                 "[--clients2 N] [--requests2 N] [--priority2 P] "
                 "[--tenant2 T] [--rate R] [--bodies N] [--blocks N] "
                 "[--insts N] [--mode M] [--machine NAME] [--window N] "
                 "[--profile BOOL] [--examples DIR] [--seed N] [--json] "
                 "[--metrics | --shutdown]\n");
    return 1;
  }
  cfg.tcp = socket.empty();
  cfg.target = cfg.tcp ? tcp : socket;
  if (args.get_bool("metrics", false)) {
    return simple_verb(cfg, server::kVerbMetrics);
  }
  if (args.get_bool("shutdown", false)) {
    return simple_verb(cfg, server::kVerbShutdown);
  }

  cfg.requests = static_cast<std::size_t>(args.get_int("requests", 1000));
  cfg.clients =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   args.get_int("clients", 8)));
  cfg.rate = args.get_double("rate", 0.0);
  cfg.mode = args.get_string("mode", "trace");
  cfg.machine = args.get_string("machine", "rs6000");
  cfg.window = args.get_int("window", 0);
  cfg.profile = args.get_bool("profile", false);
  const int blocks = static_cast<int>(args.get_int("blocks", 4));
  const int insts = static_cast<int>(args.get_int("insts", 12));
  const std::size_t bodies =
      static_cast<std::size_t>(args.get_int("bodies", 64));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string examples_dir = args.get_string("examples", "");
  const bool json = args.get_bool("json", false);

  ClientClass class1;
  class1.clients = cfg.clients;
  class1.id_begin = 0;
  class1.id_end = cfg.requests;
  class1.priority = args.get_string("priority", "");
  class1.tenant = args.get_string("tenant", "");

  ClientClass class2;
  class2.clients = static_cast<std::size_t>(args.get_int("clients2", 0));
  const std::size_t requests2 =
      class2.clients > 0
          ? static_cast<std::size_t>(args.get_int(
                "requests2", static_cast<std::int64_t>(cfg.requests)))
          : 0;
  class2.id_begin = cfg.requests;
  class2.id_end = cfg.requests + requests2;
  class2.priority = args.get_string("priority2", "");
  class2.tenant = args.get_string("tenant2", "");
  if (class2.clients > 0 && cfg.rate > 0) {
    std::fprintf(stderr,
                 "aisload: --rate applies to class 1 only; class 2 is "
                 "closed-loop\n");
  }
  const std::size_t total_requests = cfg.requests + requests2;

  const std::vector<std::string> pool =
      build_body_pool(bodies, blocks, insts, seed, cfg.mode, examples_dir);

  LoadResult result;
  result.latency_us.assign(total_requests, -1);
  std::vector<std::atomic<std::int64_t>> send_us(
      cfg.rate > 0 ? cfg.requests : 0);
  for (auto& t : send_us) t.store(0, std::memory_order_relaxed);

  const std::int64_t bench_start = now_us();
  std::vector<std::thread> threads;
  threads.reserve(class1.clients + class2.clients);
  for (std::size_t c = 0; c < class1.clients; ++c) {
    const std::uint64_t client_seed = seed * 7919 + c + 1;
    if (cfg.rate > 0) {
      const double interval_us = 1e6 / cfg.rate;
      threads.emplace_back([&, c, client_seed, interval_us] {
        run_open_client(cfg, class1, pool, blocks, insts, client_seed, c,
                        bench_start, interval_us, send_us, result);
      });
    } else {
      threads.emplace_back([&, client_seed] {
        run_closed_client(cfg, class1, pool, blocks, insts, client_seed,
                          result);
      });
    }
  }
  for (std::size_t c = 0; c < class2.clients; ++c) {
    const std::uint64_t client_seed = seed * 104729 + c + 1;
    threads.emplace_back([&, client_seed] {
      run_closed_client(cfg, class2, pool, blocks, insts, client_seed,
                        result);
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      static_cast<double>(now_us() - bench_start) / 1e6;

  const ClassSummary overall = summarize(result.latency_us, 0,
                                         total_requests);
  const std::uint64_t ok = result.ok.load();
  const std::uint64_t errors = result.errors.load();
  const std::uint64_t failures = result.transport_failures.load();
  const double rps =
      elapsed_s > 0 ? static_cast<double>(ok + errors) / elapsed_s : 0.0;
  const bool two_classes = class2.clients > 0;

  if (json) {
    std::printf(
        "{\"requests\": %zu, \"ok\": %" PRIu64 ", \"errors\": %" PRIu64
        ", \"transport_failures\": %" PRIu64
        ", \"elapsed_s\": %.3f, \"rps\": %.1f, \"p50_us\": %lld, "
        "\"p90_us\": %lld, \"p99_us\": %lld, \"max_us\": %lld",
        total_requests, ok, errors, failures, elapsed_s, rps,
        static_cast<long long>(overall.p50),
        static_cast<long long>(overall.p90),
        static_cast<long long>(overall.p99),
        static_cast<long long>(overall.max));
    if (two_classes) {
      auto print_class = [](const char* key, const ClientClass& cls,
                            const ClassSummary& s) {
        std::printf(
            ", \"%s\": {\"tenant\": \"%s\", \"priority\": \"%s\", "
            "\"requests\": %zu, \"p50_us\": %lld, \"p90_us\": %lld, "
            "\"p99_us\": %lld, \"max_us\": %lld}",
            key, cls.tenant.c_str(),
            cls.priority.empty() ? "normal" : cls.priority.c_str(),
            s.completed, static_cast<long long>(s.p50),
            static_cast<long long>(s.p90), static_cast<long long>(s.p99),
            static_cast<long long>(s.max));
      };
      print_class("class1", class1,
                  summarize(result.latency_us, class1.id_begin,
                            class1.id_end));
      print_class("class2", class2,
                  summarize(result.latency_us, class2.id_begin,
                            class2.id_end));
    }
    std::printf("}\n");
  } else {
    std::printf("aisload: %zu requests (%" PRIu64 " ok, %" PRIu64
                " err, %" PRIu64 " transport failures) in %.2f s = %.1f "
                "req/s\n",
                total_requests, ok, errors, failures, elapsed_s, rps);
    std::printf("aisload: latency us p50=%lld p90=%lld p99=%lld max=%lld\n",
                static_cast<long long>(overall.p50),
                static_cast<long long>(overall.p90),
                static_cast<long long>(overall.p99),
                static_cast<long long>(overall.max));
    if (two_classes) {
      auto print_class = [](const char* name, const ClientClass& cls,
                            const ClassSummary& s) {
        std::printf(
            "aisload: %s tenant=%s priority=%s n=%zu "
            "p50=%lld p90=%lld p99=%lld max=%lld\n",
            name, cls.tenant.empty() ? "default" : cls.tenant.c_str(),
            cls.priority.empty() ? "normal" : cls.priority.c_str(),
            s.completed, static_cast<long long>(s.p50),
            static_cast<long long>(s.p90), static_cast<long long>(s.p99),
            static_cast<long long>(s.max));
      };
      print_class("class1", class1,
                  summarize(result.latency_us, class1.id_begin,
                            class1.id_end));
      print_class("class2", class2,
                  summarize(result.latency_us, class2.id_begin,
                            class2.id_end));
    }
  }
  return failures == 0 && ok + errors == total_requests ? 0 : 1;
}
