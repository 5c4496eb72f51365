// warm_daemon's load: an in-process aisd (server::Server at aisd's defaults,
// two pool threads, unix socket) driven closed-loop by two client
// connections, as aisd's callers drive it (each waits for its reply).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "spans.hpp"

namespace perfbench {

/// Sums of a histogram family in a METRICS exposition.
struct HistogramTotals {
  double sum = 0;
  double count = 0;
};

class Daemon {
 public:
  static constexpr int kThreads = 2;
  static constexpr int kConnections = 2;

  explicit Daemon(const Workload& w);
  ~Daemon();  // stops the server
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts the server and connects both clients.
  bool start(std::string* error);

  /// Closed-loop rounds: each round requests every input once, the two
  /// connections taking alternate halves; rounds continue until `seconds`
  /// have passed and at least `min_rounds` completed.  With `spans`, each
  /// request records client.send / client.receive spans under one request
  /// span, and both connections' spans are appended to *spans.
  Timed run(double seconds, std::size_t min_rounds,
            std::vector<SpanRecord>* spans);

  /// The daemon's METRICS exposition (Prometheus text) via connection 0.
  bool metrics(std::string* text, std::string* error);

  void stop();

 private:
  std::vector<std::string> payloads_;  // encoded COMPILE requests
  std::string socket_path_;
  std::unique_ptr<ais::server::Server> server_;
  ais::server::Client clients_[kConnections];
};

/// Totals of every series of histogram `family` in Prometheus `text`.
HistogramTotals histogram_totals(const std::string& text,
                                 const std::string& family);

}  // namespace perfbench
