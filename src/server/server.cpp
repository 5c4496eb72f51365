#include "server/server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "core/schedule_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/process_stats.hpp"
#include "server/admission.hpp"
#include "server/compile_service.hpp"
#include "server/protocol.hpp"
#include "support/mutex.hpp"
#include "support/thread_pool.hpp"

namespace ais::server {
namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a vanished peer is EPIPE, not process death.  A failed
    // send drops the reply — the client is gone.
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

/// Scatter-gather send: writev semantics via sendmsg (which takes the same
/// iovec array but accepts MSG_NOSIGNAL).  Advances the iovec list across
/// partial writes — a slow peer's socket buffer can split any frame.
void sendv_all(int fd, iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) return;
    while (iovcnt > 0 && static_cast<std::size_t>(n) >= iov->iov_len) {
      n -= static_cast<ssize_t>(iov->iov_len);
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0 && n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + n;
      iov->iov_len -= static_cast<std::size_t>(n);
    }
  }
}

/// One client connection.  The fd stays open until the last reference
/// drops: pending worker replies hold a shared_ptr, so a reader exiting at
/// EOF never yanks the fd from under an in-flight response.
struct Conn {
  explicit Conn(int f) : fd(f) {}
  ~Conn() { ::close(fd); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void write_payload(std::string_view payload) {
    std::string framed;
    framed.reserve(payload.size() + sizeof(std::uint32_t));
    append_frame(framed, payload);
    MutexLock lock(write_mu);
    send_all(fd, framed);
  }

  /// The worker hot path: one frame whose payload is the concatenation of
  /// `parts`, written scatter-gather — the length prefix and each part go
  /// out as iovecs straight from their owning buffers, with no join copy.
  void write_frame_parts(std::initializer_list<std::string_view> parts) {
    std::size_t total = 0;
    for (std::string_view p : parts) total += p.size();
    const std::uint32_t len = static_cast<std::uint32_t>(total);
    char prefix[sizeof(len)];
    std::memcpy(prefix, &len, sizeof(len));
    iovec iov[8];
    int iovcnt = 0;
    iov[iovcnt].iov_base = prefix;
    iov[iovcnt].iov_len = sizeof(prefix);
    ++iovcnt;
    for (std::string_view p : parts) {
      if (p.empty()) continue;
      iov[iovcnt].iov_base = const_cast<char*>(p.data());
      iov[iovcnt].iov_len = p.size();
      ++iovcnt;
    }
    MutexLock lock(write_mu);
    sendv_all(fd, iov, iovcnt);
  }

  const int fd;
  Mutex write_mu;  // frames must hit the stream atomically
};

/// The per-worker reusable state.  Server workers are dedicated threads, so
/// thread_local gives exactly one scratch per worker, reused across every
/// request it serves.
WorkerScratch& worker_scratch() {
  thread_local WorkerScratch scratch;
  return scratch;
}

struct Job {
  std::shared_ptr<Conn> conn;
  Request request;
  std::int64_t enqueue_us = 0;
  Priority priority = Priority::kNormal;  // as requested, for metric labels
  std::string tenant_label;               // cardinality-capped, see below
};

/// Tenant names are client-controlled, so a per-worker memo caps how many
/// distinct label pairs the queue-wait histogram family can grow.
obs::Histogram* queue_wait_hist(Priority prio,
                                const std::string& tenant_label) {
  struct Entry {
    int prio;
    std::string tenant;
    obs::Histogram* hist;
  };
  thread_local std::vector<Entry> memo;
  for (const Entry& e : memo) {
    if (e.prio == static_cast<int>(prio) && e.tenant == tenant_label) {
      return e.hist;
    }
  }
  obs::Histogram* hist = obs::MetricRegistry::global().histogram(
      "server_queue_wait_us", {"prio", priority_name(prio)},
      {"tenant", tenant_label});
  memo.push_back(Entry{static_cast<int>(prio), tenant_label, hist});
  return hist;
}

/// Distinct tenant label values the server will ever emit; every tenant
/// past the cap shares the "other" label (quotas still apply per tenant —
/// only the metric label collapses).
constexpr std::size_t kMaxTenantLabels = 64;

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions o)
      : opts(std::move(o)), queue(opts.admission) {
    auto& reg = obs::MetricRegistry::global();
    request_us_ok = reg.histogram("server_request_us", {"outcome", "ok"});
    request_us_error =
        reg.histogram("server_request_us", {"outcome", "error"});
    queue_depth = reg.gauge("server_queue_depth");
    connections = reg.gauge("server_connections");
  }

  ServerOptions opts;
  int unix_fd = -1;
  int tcp_fd = -1;
  int tcp_port_ = 0;

  std::atomic<bool> stop_accept{false};
  std::thread accept_thread;
  std::vector<std::thread> workers;

  Mutex mu;
  CondVar queue_cv;         // worker wake: work or stopping
  CondVar queue_not_full;   // reader back-pressure release
  CondVar wait_cv;          // wait(): SHUTDOWN verb arrived
  AdmissionQueue<Job> queue AIS_GUARDED_BY(mu);
  bool stopping AIS_GUARDED_BY(mu) = false;
  bool shutdown_requested AIS_GUARDED_BY(mu) = false;
  std::vector<std::shared_ptr<Conn>> conns AIS_GUARDED_BY(mu);
  std::vector<std::thread> readers AIS_GUARDED_BY(mu);
  std::vector<std::string> tenant_labels AIS_GUARDED_BY(mu);
  AdmissionStats folded AIS_GUARDED_BY(mu);  // already in the registry

  /// Serializes start() and all of stop(): a second, concurrent stop()
  /// (aisd's signal watcher racing wait()) returns only once the drain is
  /// done.  Never nested in mu.
  std::mutex lifecycle_mu;
  bool started = false;
  bool stopped = false;

  obs::Histogram* request_us_ok = nullptr;
  obs::Histogram* request_us_error = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* connections = nullptr;

  void count_request(std::string_view verb, bool ok) {
    obs::MetricRegistry::global()
        .counter("server_requests_total", {"verb", verb},
                 {"outcome", ok ? "ok" : "error"})
        ->add(1);
  }

  /// The metric label for `tenant`, interning up to kMaxTenantLabels
  /// distinct values; everything beyond shares "other".
  std::string tenant_label(std::string_view tenant) AIS_REQUIRES(mu) {
    for (const std::string& t : tenant_labels) {
      if (t == tenant) return t;
    }
    if (tenant_labels.size() < kMaxTenantLabels) {
      tenant_labels.emplace_back(tenant);
      return tenant_labels.back();
    }
    return "other";
  }

  /// Publishes AdmissionQueue stats growth since the last fold as counters.
  void fold_admission_stats() AIS_REQUIRES(mu) {
    const AdmissionStats& s = queue.stats();
    auto& reg = obs::MetricRegistry::global();
    auto fold = [&](const char* event, std::uint64_t cur,
                    std::uint64_t& prev) {
      if (cur > prev) {
        reg.counter("server_admission_total", {"event", event})
            ->add(cur - prev);
        prev = cur;
      }
    };
    fold("redeemed", s.redeemed, folded.redeemed);
    fold("conserved", s.conserved, folded.conserved);
    fold("force_admitted", s.force_admitted, folded.force_admitted);
    fold("promoted", s.promoted, folded.promoted);
  }

  void accept_loop() {
    pollfd pfds[2];
    bool tcp[2];
    int nfds = 0;
    if (unix_fd >= 0) {
      pfds[nfds] = pollfd{unix_fd, POLLIN, 0};
      tcp[nfds++] = false;
    }
    if (tcp_fd >= 0) {
      pfds[nfds] = pollfd{tcp_fd, POLLIN, 0};
      tcp[nfds++] = true;
    }
    while (!stop_accept.load(std::memory_order_relaxed)) {
      for (int i = 0; i < nfds; ++i) pfds[i].revents = 0;
      int ready = ::poll(pfds, static_cast<nfds_t>(nfds),
                         /*timeout_ms=*/100);
      if (ready <= 0) continue;
      for (int i = 0; i < nfds; ++i) {
        if ((pfds[i].revents & POLLIN) == 0) continue;
        int cfd = ::accept(pfds[i].fd, nullptr, nullptr);
        if (cfd < 0) continue;
        if (tcp[i]) {
          // Replies are latency-sensitive single frames; Nagle coalescing
          // against a peer's delayed ACK costs milliseconds per response.
          int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        }
        auto conn = std::make_shared<Conn>(cfd);
        connections->add(1);
        MutexLock lock(mu);
        if (stopping) {
          connections->add(-1);
          continue;  // conn closes via dtor
        }
        conns.push_back(conn);
        readers.emplace_back([this, conn] { reader_loop(conn); });
      }
    }
  }

  void reader_loop(std::shared_ptr<Conn> conn) AIS_EXCLUDES(mu) {
    std::string buffer;
    std::string payload;
    char chunk[65536];
    bool close_conn = false;
    // Read-deadline state: armed only while a partial frame is buffered and
    // re-armed on every byte of progress, so idle connections and slow but
    // moving peers live while a peer stalled mid-frame is cut loose (its
    // buffered prefix would otherwise pin reader memory forever).
    std::int64_t stall_deadline_us = -1;
    pollfd pfd{conn->fd, POLLIN, 0};
    while (!close_conn) {
      int timeout_ms = -1;
      if (stall_deadline_us >= 0) {
        const std::int64_t remaining_ms =
            (stall_deadline_us - now_us()) / 1000 + 1;
        timeout_ms = remaining_ms < 1
                         ? 0
                         : static_cast<int>(std::min<std::int64_t>(
                               remaining_ms, INT_MAX));
      }
      pfd.revents = 0;
      int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0) {
        if (stall_deadline_us >= 0 && now_us() >= stall_deadline_us) {
          close_conn = true;  // peer stalled mid-frame past the deadline
        }
        continue;
      }
      ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      for (;;) {
        FrameStatus status =
            take_frame(buffer, opts.max_frame_bytes, &payload);
        if (status == FrameStatus::kNeedMore) break;
        if (status == FrameStatus::kOversized) {
          // The stream offset is unrecoverable: error out and hang up.
          Response reply;
          reply.message = "frame exceeds max_frame_bytes";
          conn->write_payload(reply.encode());
          count_request("unknown", false);
          close_conn = true;
          break;
        }
        handle_payload(conn, payload);
      }
      stall_deadline_us = !close_conn && !buffer.empty() &&
                                  opts.read_deadline_ms > 0
                              ? now_us() + opts.read_deadline_ms * 1000
                              : -1;
    }
    // A protocol-level hangup still owes the client a FIN: the Conn's fd
    // stays open until the last in-flight reply drops its reference, so
    // shutdown() is what the client actually observes as the close.
    if (close_conn) ::shutdown(conn->fd, SHUT_RDWR);
    // Deregister so churning clients do not accumulate open fds for the
    // life of the daemon; queued jobs keep the Conn alive via shared_ptr.
    {
      MutexLock lock(mu);
      const auto it = std::find(conns.begin(), conns.end(), conn);
      if (it != conns.end()) conns.erase(it);
    }
    connections->add(-1);
  }

  void handle_payload(const std::shared_ptr<Conn>& conn,
                      const std::string& payload) AIS_EXCLUDES(mu) {
    Request request;
    Response reply;
    std::string error;
    if (!parse_request(payload, &request, &error)) {
      reply.message = error;
      conn->write_payload(reply.encode());
      count_request("unknown", false);
      return;
    }
    if (request.verb == kVerbCompile) {
      // Admission options are validated here, before the queue: an unknown
      // priority or tenant must never reach scheduling state.  The ERR
      // carries the id echo so pipelining clients can match it.
      auto reject = [&](std::string message) {
        std::string_view id = request.option("id");
        if (!id.empty()) message += " (id=" + std::string(id) + ")";
        reply.message = std::move(message);
        conn->write_payload(reply.encode());
        count_request("compile", false);
      };
      Priority priority = Priority::kNormal;
      if (!parse_priority(request.option("priority"), &priority)) {
        reject("unknown priority '" +
               std::string(request.option("priority")) +
               "' (want interactive|normal|bulk)");
        return;
      }
      std::string_view tenant = request.option("tenant");
      if (!valid_tenant(tenant)) {
        reject("invalid tenant '" + std::string(tenant) +
               "' (1-64 chars of [A-Za-z0-9_.-])");
        return;
      }
      if (tenant.empty()) tenant = kDefaultTenant;
      if (!enqueue(conn, std::move(request), priority, tenant)) {
        reject("server is shutting down");
      }
      return;
    }
    if (request.verb == kVerbPing) {
      reply.ok = true;
      conn->write_payload(reply.encode());
      count_request("ping", true);
      return;
    }
    if (request.verb == kVerbMetrics || request.verb == "STATS") {
      obs::record_process_gauges();
      reply.ok = true;
      std::string_view format = request.option("format", "prom");
      auto& reg = obs::MetricRegistry::global();
      reply.diag_text =
          format == "json" ? reg.json_text() : reg.prometheus_text();
      conn->write_payload(reply.encode());
      count_request("metrics", true);
      return;
    }
    if (request.verb == kVerbShutdown) {
      reply.ok = true;
      conn->write_payload(reply.encode());
      count_request("shutdown", true);
      MutexLock lock(mu);
      shutdown_requested = true;
      wait_cv.notify_all();
      return;
    }
    reply.message = "unknown verb '" + request.verb + "'";
    conn->write_payload(reply.encode());
    count_request("unknown", false);
  }

  /// Admission: blocks while the queue is full (back-pressure — the
  /// client's sends stall behind this reader).  False once stopping.
  bool enqueue(const std::shared_ptr<Conn>& conn, Request request,
               Priority priority, std::string_view tenant)
      AIS_EXCLUDES(mu) {
    MutexLock lock(mu);
    while (queue.size() >= opts.queue_cap && !stopping) {
      queue_not_full.wait(mu);
    }
    if (stopping) return false;
    const std::int64_t now = now_us();
    Job job{conn, std::move(request), now, priority, tenant_label(tenant)};
    const std::string label = job.tenant_label;
    const bool deferred = queue.push(std::move(job), priority, tenant, now);
    if (deferred) {
      obs::MetricRegistry::global()
          .counter("server_quota_deferred_total", {"tenant", label})
          ->add(1);
    }
    queue_depth->set(static_cast<std::int64_t>(queue.size()));
    queue_cv.notify_one();
    return true;
  }

  /// A worker takes a request out of admission only when it is free to
  /// run it, so the admission queue orders every waiting request.  Once
  /// stopping, workers keep popping until the queue is empty (deferred
  /// work included, via work conservation): that is the drain.
  void worker_loop() AIS_EXCLUDES(mu) {
    for (;;) {
      Job job;
      {
        MutexLock lock(mu);
        while (queue.empty() && !stopping) queue_cv.wait(mu);
        if (!queue.pop(now_us(), &job)) return;  // stopping and drained
        queue_depth->set(static_cast<std::int64_t>(queue.size()));
        queue_not_full.notify_one();
        fold_admission_stats();
      }
      process(std::move(job));
    }
  }

  void process(Job job) AIS_EXCLUDES(mu) {
    const std::int64_t start = now_us();
    queue_wait_hist(job.priority, job.tenant_label)
        ->record(static_cast<std::uint64_t>(start - job.enqueue_us));
    WorkerScratch& scratch = worker_scratch();

    Response reply;
    CompileOptions copts;
    std::string error;
    if (!decode_compile_options(job.request, &copts, &error)) {
      reply.message = error;
    } else {
      compile_ir(job.request.body, copts, scratch, &reply);
    }

    std::string_view id = job.request.option("id");
    if (!id.empty()) {
      if (reply.ok) {
        reply.options["id"] = std::string(id);
      } else {
        reply.message += " (id=" + std::string(id) + ")";
      }
    }
    // Scatter-gather reply: status head and counter trailer build in the
    // worker's reused scratch buffers, the assembly/diagnostic sections go
    // out of their owning strings — one frame, zero join copies.
    scratch.head.clear();
    scratch.tail.clear();
    reply.encode_head(&scratch.head);
    if (reply.ok) reply.encode_tail(&scratch.tail);
    job.conn->write_frame_parts(
        {scratch.head, reply.ok ? std::string_view(reply.asm_text) : "",
         reply.ok ? std::string_view(reply.diag_text) : "", scratch.tail});

    const std::int64_t elapsed = now_us() - start;
    (reply.ok ? request_us_ok : request_us_error)
        ->record(static_cast<std::uint64_t>(elapsed));
    count_request("compile", reply.ok);
    obs::record_arena_high_water(
        "server_worker",
        static_cast<std::int64_t>(scratch.bytes_reserved()));
  }
};

namespace {

/// Binds and listens on an AF_UNIX stream socket at `path`.
int bind_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path empty or too long for AF_UNIX";
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = "socket(): " + std::string(std::strerror(errno));
    return -1;
  }
  ::unlink(path.c_str());  // stale path from a past run
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    *error = "bind/listen on '" + path +
             "': " + std::string(std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Binds and listens on a TCP "host:port" endpoint; *port gets the bound
/// port (resolving a requested port 0 to the kernel's pick).
int bind_tcp(const std::string& host_port, int* port, std::string* error) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == host_port.size()) {
    *error = "tcp endpoint '" + host_port + "' is not host:port";
    return -1;
  }
  const std::string host = host_port.substr(0, colon);
  const std::string port_text = host_port.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int gai =
      ::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &res);
  if (gai != 0) {
    *error = "resolve '" + host_port + "': " + ::gai_strerror(gai);
    return -1;
  }
  int fd = -1;
  int last_errno = EADDRNOTAVAIL;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 128) == 0) {
      break;
    }
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    *error = "bind/listen on '" + host_port +
             "': " + std::string(std::strerror(last_errno));
    return -1;
  }
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  *port = 0;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    if (bound.ss_family == AF_INET) {
      *port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      *port = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  return fd;
}

}  // namespace

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

const ServerOptions& Server::options() const { return impl_->opts; }

int Server::tcp_port() const { return impl_->tcp_port_; }

bool Server::start(std::string* error) {
  {
    std::lock_guard<std::mutex> guard(impl_->lifecycle_mu);
    if (impl_->started) {
      *error = "server already started";
      return false;
    }
    impl_->started = true;
  }

  if (impl_->opts.socket_path.empty() && impl_->opts.tcp_addr.empty()) {
    *error = "no listener configured (need socket_path and/or tcp_addr)";
    return false;
  }
  if (!impl_->opts.socket_path.empty()) {
    impl_->unix_fd = bind_unix(impl_->opts.socket_path, error);
    if (impl_->unix_fd < 0) return false;
  }
  if (!impl_->opts.tcp_addr.empty()) {
    impl_->tcp_fd =
        bind_tcp(impl_->opts.tcp_addr, &impl_->tcp_port_, error);
    if (impl_->tcp_fd < 0) {
      if (impl_->unix_fd >= 0) {
        ::close(impl_->unix_fd);
        impl_->unix_fd = -1;
        ::unlink(impl_->opts.socket_path.c_str());
      }
      return false;
    }
  }

  // Counters and latency histograms must be live for METRICS regardless of
  // the environment; mirrors what aisc does under --metrics-out.
  obs::init_from_env();
  obs::set_enabled(true);

  for (int i = clamp_jobs(impl_->opts.threads); i > 0; --i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  return true;
}

void Server::wait() {
  {
    MutexLock lock(impl_->mu);
    while (!impl_->shutdown_requested && !impl_->stopping) {
      impl_->wait_cv.wait(impl_->mu);
    }
  }
  stop();
}

void Server::stop() {
  std::lock_guard<std::mutex> guard(impl_->lifecycle_mu);
  if (!impl_->started || impl_->stopped) return;
  impl_->stopped = true;

  // 1. No new connections.
  impl_->stop_accept.store(true, std::memory_order_relaxed);
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();

  // 2. No new admissions; wake every blocked thread; shut down connection
  //    read sides so readers run dry (write sides stay open for replies).
  {
    MutexLock lock(impl_->mu);
    impl_->stopping = true;
    impl_->queue_cv.notify_all();
    impl_->queue_not_full.notify_all();
    impl_->wait_cv.notify_all();
    for (const auto& conn : impl_->conns) ::shutdown(conn->fd, SHUT_RD);
  }

  // 3. Drain: workers exit only once the queue is empty, so every
  //    admitted request — deferred over-quota work included — gets its
  //    reply before the join returns.
  for (std::thread& t : impl_->workers) t.join();
  impl_->workers.clear();

  // 4. Join readers and release connections.
  std::vector<std::thread> readers;
  std::vector<std::shared_ptr<Conn>> conns;
  {
    MutexLock lock(impl_->mu);
    readers.swap(impl_->readers);
    conns.swap(impl_->conns);
  }
  for (std::thread& t : readers) t.join();
  conns.clear();

  if (impl_->unix_fd >= 0) {
    ::close(impl_->unix_fd);
    impl_->unix_fd = -1;
  }
  if (impl_->tcp_fd >= 0) {
    ::close(impl_->tcp_fd);
    impl_->tcp_fd = -1;
  }
  if (!impl_->opts.socket_path.empty()) {
    ::unlink(impl_->opts.socket_path.c_str());
  }

  // 5. Persist what the run learned.
  ScheduleCache::global().flush_disk();
}

}  // namespace ais::server
