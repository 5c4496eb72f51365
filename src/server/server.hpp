// aisd's daemon core: unix-domain and/or TCP stream listeners accepting
// framed compile requests from many concurrent clients, admitted through a
// QoS-aware bounded queue that a fixed set of worker threads pull from.
//
// Threading model
// ---------------
//  * one accept thread (poll over up to two listen fds — unix and TCP — so
//    stop() never races a blocking accept; accepted TCP sockets get
//    TCP_NODELAY),
//  * one reader thread per connection (poll + recv with a per-connection
//    read deadline: a peer stalled mid-frame past read_deadline_ms is
//    disconnected, an idle connection between frames is left alone;
//    control verbs — PING, METRICS/STATS, SHUTDOWN — are answered inline;
//    COMPILE is enqueued),
//  * `threads` worker threads, each popping the admission queue only when
//    it is free to run the request, so no request leaves admission before
//    a worker can serve it and the admission policy orders all waiting
//    work; the worker compiles and writes the reply (per-connection write
//    mutex keeps frames atomic; replies may interleave across requests,
//    matched by the id= echo).  Replies are never joined into one buffer:
//    the worker writev()s the frame prefix, status head, assembly,
//    diagnostics and counter trailer straight from their own storage.
//
// Admission (src/server/admission.hpp): COMPILE requests carry optional
// priority= (interactive|normal|bulk) and tenant= options feeding a
// weighted multi-level queue with per-tenant token-bucket quotas —
// over-quota work is deferred behind in-quota work (never dropped) and
// starvation-proofed by aging.  Back-pressure is unchanged from PR 9: a
// full queue blocks the reader, the client's socket fills and its sends
// stall.  Responses are byte-identical to offline aisc on both transports
// at every concurrency level and priority mix (tests/test_server.cpp).
//
// Graceful shutdown (`stop()`, or the SHUTDOWN verb via `wait()`): stop
// accepting, shut down connection read sides, drain every admitted request
// including deferred over-quota work (replies are still written), then
// join all threads and flush the cache's disk tier.  A stop() that races
// another returns only after that one has finished.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "server/admission.hpp"

namespace ais::server {

struct ServerOptions {
  /// Unix listener path; empty = no unix listener.
  std::string socket_path;
  /// TCP listener "host:port" (port 0 = kernel-assigned, see
  /// Server::tcp_port()); empty = no TCP listener.  At least one of
  /// socket_path / tcp_addr must be set.
  std::string tcp_addr;
  /// Worker threads compiling requests; <= 0 = one per hardware thread.
  int threads = 0;
  /// Bounded admission queue (levels + deferred): readers block
  /// (back-pressure) when full.
  std::size_t queue_cap = 1024;
  /// A peer stalled mid-frame longer than this is disconnected; idle
  /// connections between frames are unaffected.  <= 0 disables.
  std::int64_t read_deadline_ms = 30'000;
  std::size_t max_frame_bytes = 8u << 20;
  /// QoS admission policy (priorities, quotas, aging).  admission.qos =
  /// false restores the PR 9 FIFO — the bench_server baseline arm.
  AdmissionOptions admission;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // calls stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts serving.  False with *error set when no listener is
  /// configured or a socket cannot be created (path too long, bind/listen
  /// failure, unresolvable TCP address).
  bool start(std::string* error);

  /// Blocks until a client issues SHUTDOWN (or another thread calls
  /// stop()), then performs the graceful stop.  The aisd main loop.
  void wait();

  /// Graceful stop, idempotent: drains admitted requests, joins every
  /// thread, flushes the cache disk tier.  A call made while another
  /// stop() is running blocks until that one finishes.  Must not be called
  /// from a server-owned thread (use the SHUTDOWN verb there).
  void stop();

  const ServerOptions& options() const;

  /// The TCP listener's bound port after start() (resolves tcp_addr port
  /// 0 to the kernel's choice); 0 when no TCP listener is configured.
  int tcp_port() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ais::server
