#include "daemon.hpp"

#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

namespace perfbench {

Daemon::Daemon(const Workload& w)
    // Relative to the checkout root: short enough for AF_UNIX wherever the
    // checkout lives.
    : socket_path_(".bench_build/perfbench/aisd-" + std::to_string(::getpid()) +
                   ".sock") {
  for (std::size_t i = 0; i < w.bodies.size(); ++i) {
    payloads_.push_back(compile_request(w, i).encode());
  }
}

Daemon::~Daemon() { stop(); }

bool Daemon::start(std::string* error) {
  ais::server::ServerOptions options;  // aisd's defaults ...
  options.socket_path = socket_path_;
  options.threads = kThreads;  // ... but not sized by the host
  server_ = std::make_unique<ais::server::Server>(options);
  if (!server_->start(error)) return false;
  for (ais::server::Client& client : clients_) {
    // start() has bound the socket, so a refused connect is a real error.
    client.set_connect_retry_ms(0);
    if (!client.connect(socket_path_, error)) return false;
  }
  return true;
}

Timed Daemon::run(double seconds, std::size_t min_rounds,
                  std::vector<SpanRecord>* spans) {
  const std::size_t n = payloads_.size();
  const std::size_t half = (n + 1) / 2;
  Timed t(n);
  std::vector<double> latency[kConnections];
  std::vector<SpanRecord> recorded[kConnections];
  std::size_t rounds = 0;
  bool done = false;  // written by the barrier completion only
  const auto start = Clock::now();
  std::barrier sync(kConnections, [&]() noexcept {
    ++rounds;
    done = rounds >= min_rounds && seconds_since(start) >= seconds;
  });
  // Connection c takes half (c + round) % 2 of the inputs, so every input
  // goes out once per round and alternates between the two connections.
  const auto drive = [&](int c) {
    ais::server::Client& client = clients_[c];
    for (std::size_t round = 0;; ++round) {
      const std::size_t lo = ((static_cast<std::size_t>(c) + round) % 2) * half;
      const std::size_t hi = std::min(n, lo + half);
      for (std::size_t i = lo; i < hi; ++i) {
        ais::server::Response reply;
        std::string error;
        bool ok = false;
        const auto t0 = Clock::now();
        if (spans != nullptr) {
          const RequestSpan request;
          {
            const Span span("client.send");
            ok = client.send_payload(payloads_[i], &error);
          }
          if (ok) {
            const Span span("client.receive");
            ok = client.receive(&reply, &error);
          }
        } else {
          ok = client.send_payload(payloads_[i], &error) &&
               client.receive(&reply, &error);
        }
        const double us = micros(t0, Clock::now());
        latency[c].push_back(us);
        t.book(i, round, us, std::move(reply),
               ok ? std::string() : (error.empty() ? "failed" : error));
      }
      sync.arrive_and_wait();
      if (done) break;
    }
    if (spans != nullptr) recorded[c] = take_spans();
  };
  std::thread second(drive, 1);
  drive(0);
  second.join();
  t.elapsed_s = seconds_since(start);
  t.rounds = rounds;
  for (int c = 0; c < kConnections; ++c) {
    t.latency_us.insert(t.latency_us.end(), latency[c].begin(),
                        latency[c].end());
    if (spans != nullptr) {
      spans->insert(spans->end(), recorded[c].begin(), recorded[c].end());
    }
  }
  return t;
}

bool Daemon::metrics(std::string* text, std::string* error) {
  ais::server::Request request;
  request.verb = ais::server::kVerbMetrics;
  request.options["format"] = "prom";
  ais::server::Response reply;
  if (!clients_[0].call(request, &reply, error)) return false;
  if (!reply.ok) {
    *error = reply.message;
    return false;
  }
  *text = reply.diag_text;
  return true;
}

void Daemon::stop() {
  for (ais::server::Client& client : clients_) client.close();
  if (server_) {
    server_->stop();
    server_.reset();
  }
}

HistogramTotals histogram_totals(const std::string& text,
                                 const std::string& family) {
  HistogramTotals totals;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    for (const auto& [suffix, total] :
         {std::pair<const char*, double*>{"_sum", &totals.sum},
          std::pair<const char*, double*>{"_count", &totals.count}}) {
      const std::string name = family + suffix;
      if (line.rfind(name, 0) == 0 && line.size() > name.size() &&
          (line[name.size()] == '{' || line[name.size()] == ' ')) {
        *total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
      }
    }
  }
  return totals;
}

}  // namespace perfbench
