// aisd server tests: the framed protocol round-trips, concurrent clients
// get byte-identical answers to a serial offline compile (assembly,
// diagnostics and non-cache counter streams) over both transports and
// every priority mix, malformed and oversized frames turn into error
// replies instead of crashes, the QoS admission queue defers over-quota
// work without dropping it and ages bulk work out of starvation, a live
// single-worker server serves interactive work ahead of a bulk backlog, read
// deadlines cut stalled peers but spare idle connections, graceful
// shutdown drains every admitted request, and the warm cache is shared
// across tenant connections.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/schedule_cache.hpp"
#include "ir/instruction.hpp"
#include "obs/obs.hpp"
#include "server/admission.hpp"
#include "server/client.hpp"
#include "server/compile_service.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/prng.hpp"
#include "workloads/random_ir.hpp"

#ifndef AISC_BINARY
#error "AISC_BINARY must point at the aisc executable"
#endif
#ifndef AIS_EXAMPLES_DIR
#error "AIS_EXAMPLES_DIR must point at the shipped examples/"
#endif

namespace ais {
namespace {

std::string unique_socket_path(const char* tag) {
  static std::atomic<int> seq{0};
  return ::testing::TempDir() + "/aisd_" + tag + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(seq.fetch_add(1)) + ".sock";
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

std::vector<std::string> make_bodies(std::size_t count, int blocks,
                                     int insts, std::uint64_t seed) {
  Prng prng(seed);
  RandomIrParams params;
  params.num_insts = insts;
  std::vector<std::string> bodies;
  bodies.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    bodies.push_back(render_trace(random_ir_trace(prng, params, blocks)));
  }
  return bodies;
}

/// The serial offline reference for one body: compile_ir with the schedule
/// cache bypassed — exactly what a cold, single-request aisc run computes.
server::Response serial_reference(const std::string& body,
                                  const server::CompileOptions& options) {
  ScheduleCache::ScopedBypass bypass;
  server::WorkerScratch scratch;
  server::Response reply;
  server::compile_ir(body, options, scratch, &reply);
  return reply;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(const char* tag,
                   const std::function<void(server::ServerOptions&)>& tweak =
                       nullptr) {
    server::ServerOptions options;
    options.socket_path = unique_socket_path(tag);
    options.threads = 4;
    if (tweak) tweak(options);
    server_ = std::make_unique<server::Server>(options);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    socket_path_ = options.socket_path;
    if (!options.tcp_addr.empty()) {
      tcp_target_ = "127.0.0.1:" + std::to_string(server_->tcp_port());
    }
  }

  bool Connect(server::Client& client, bool tcp, std::string* error) const {
    return tcp ? client.connect_tcp(tcp_target_, error)
               : client.connect(socket_path_, error);
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  server::Request compile_request(const std::string& body,
                                  bool profile = false,
                                  bool verify = false) const {
    server::Request req;
    req.verb = server::kVerbCompile;
    req.options["mode"] = "trace";
    req.options["machine"] = "rs6000";
    req.options["window"] = "2";
    if (profile) req.options["profile"] = "1";
    if (verify) req.options["verify"] = "1";
    req.body = body;
    return req;
  }

  /// The differential body shared by the unix and TCP transport tests:
  /// concurrent clients at several fan-outs, every request tagged with a
  /// rotating priority/tenant mix, replies compared byte-for-byte against
  /// the serial offline reference — QoS options may reorder service but
  /// must never change a single output byte.
  void RunDifferential(bool tcp) {
    const std::vector<std::string> bodies = make_bodies(24, 3, 10, 17);

    server::CompileOptions ref_options;
    ref_options.mode = "trace";
    ref_options.machine = "rs6000";
    ref_options.window = 2;
    ref_options.profile = true;
    ref_options.verify = true;
    std::vector<server::Response> reference;
    reference.reserve(bodies.size());
    for (const std::string& body : bodies) {
      reference.push_back(serial_reference(body, ref_options));
      ASSERT_TRUE(reference.back().ok) << reference.back().message;
    }

    static constexpr const char* kPriorities[] = {"interactive", "normal",
                                                  "bulk"};
    static constexpr const char* kTenants[] = {"alpha", "beta"};
    for (const std::size_t clients : {std::size_t{1}, std::size_t{8},
                                      std::size_t{32}}) {
      const std::size_t per_client = 12;
      std::atomic<int> failures{0};
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          server::Client client;
          std::string error;
          if (!Connect(client, tcp, &error)) {
            ADD_FAILURE() << error;
            failures.fetch_add(1);
            return;
          }
          for (std::size_t i = 0; i < per_client; ++i) {
            const std::size_t which = (c * per_client + i) % bodies.size();
            server::Request req =
                compile_request(bodies[which], /*profile=*/true,
                                /*verify=*/true);
            req.options["priority"] = kPriorities[(c + i) % 3];
            req.options["tenant"] = kTenants[c % 2];
            server::Response resp;
            if (!client.call(req, &resp, &error)) {
              ADD_FAILURE() << error;
              failures.fetch_add(1);
              return;
            }
            const server::Response& ref = reference[which];
            if (!resp.ok || resp.asm_text != ref.asm_text ||
                resp.diag_text != ref.diag_text ||
                resp.counters != ref.counters ||
                resp.option("verified") != ref.option("verified")) {
              failures.fetch_add(1);
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      EXPECT_EQ(failures.load(), 0)
          << "divergence from serial reference at " << clients << " clients"
          << (tcp ? " (tcp)" : " (unix)");
    }
  }

  std::unique_ptr<server::Server> server_;
  std::string socket_path_;
  std::string tcp_target_;
};

// --- protocol unit tests --------------------------------------------------

TEST(ServerProtocol, FrameRoundTrip) {
  std::string wire;
  server::append_frame(wire, "hello");
  server::append_frame(wire, "");
  std::string payload;
  ASSERT_EQ(server::take_frame(wire, 1 << 20, &payload),
            server::FrameStatus::kFrame);
  EXPECT_EQ(payload, "hello");
  ASSERT_EQ(server::take_frame(wire, 1 << 20, &payload),
            server::FrameStatus::kFrame);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(server::take_frame(wire, 1 << 20, &payload),
            server::FrameStatus::kNeedMore);
}

TEST(ServerProtocol, OversizedFrameDetected) {
  std::string wire;
  server::append_frame(wire, std::string(4096, 'x'));
  std::string payload;
  EXPECT_EQ(server::take_frame(wire, 1024, &payload),
            server::FrameStatus::kOversized);
}

TEST(ServerProtocol, RequestRoundTrip) {
  server::Request req;
  req.verb = server::kVerbCompile;
  req.options["mode"] = "trace";
  req.options["window"] = "4";
  req.body = "block a:\n  LI r1, 0\n";
  server::Request parsed;
  std::string error;
  ASSERT_TRUE(server::parse_request(req.encode(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.verb, req.verb);
  EXPECT_EQ(parsed.options, req.options);
  EXPECT_EQ(parsed.body, req.body);
}

TEST(ServerProtocol, ResponseRoundTrip) {
  server::Response resp;
  resp.ok = true;
  resp.options["id"] = "7";
  resp.asm_text = "block a:\n  LI r1, 0\n";
  resp.diag_text = "verify: ok\n";
  resp.counters.emplace_back("rank.sessions", 3);
  server::Response parsed;
  std::string error;
  ASSERT_TRUE(server::parse_response(resp.encode(), &parsed, &error))
      << error;
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.option("id"), "7");
  EXPECT_EQ(parsed.asm_text, resp.asm_text);
  EXPECT_EQ(parsed.diag_text, resp.diag_text);
  EXPECT_EQ(parsed.counters, resp.counters);
}

// --- differential: concurrent server vs serial offline compile ------------

TEST_F(ServerTest, ByteIdenticalAcrossConcurrencyLevels) {
  StartServer("diff");
  RunDifferential(/*tcp=*/false);
}

TEST_F(ServerTest, ByteIdenticalOverTcp) {
  StartServer("difftcp", [](server::ServerOptions& options) {
    options.tcp_addr = "127.0.0.1:0";
  });
  RunDifferential(/*tcp=*/true);
}

TEST_F(ServerTest, MatchesOfflineAiscBinary) {
  StartServer("aisc");
  struct Case {
    const char* file;
    const char* mode;
  };
  for (const Case& c : {Case{"two_block_trace.s", "trace"},
                        Case{"memory_alias.s", "trace"},
                        Case{"fig3_loop.s", "loop"},
                        Case{"diamond_cfg.s", "cfg"}}) {
    const std::string path = std::string(AIS_EXAMPLES_DIR) + "/" + c.file;
    const std::string out_path = ::testing::TempDir() + "/aisc_ref.txt";
    const std::string cmd = std::string(AISC_BINARY) + " --in " + path +
                            " --mode " + c.mode +
                            " --machine rs6000 --window 2 > " + out_path +
                            " 2>/dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    server::Client client;
    std::string error;
    ASSERT_TRUE(client.connect(socket_path_, &error)) << error;
    server::Request req;
    req.verb = server::kVerbCompile;
    req.options["mode"] = c.mode;
    req.options["machine"] = "rs6000";
    req.options["window"] = "2";
    req.body = slurp(path);
    server::Response resp;
    ASSERT_TRUE(client.call(req, &resp, &error)) << error;
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.asm_text, slurp(out_path)) << c.file;
  }
}

// --- robustness -----------------------------------------------------------

TEST_F(ServerTest, MalformedRequestsGetErrorRepliesNotCrashes) {
  StartServer("malformed");
  server::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(socket_path_, &error)) << error;

  struct Case {
    std::string name;
    std::string payload;
    std::string message = {};  // when set, the reply's exact message
    std::string absent = {};   // when set, must not appear in the reply
  };
  const std::string valid_body = "block a:\n  LI r1, 1\n  ADD r2, r1, r1\n";
  // The server reads no file for a client: file= is an unknown option, and
  // nothing of the named file reaches the reply.
  const std::string token = "secret" + std::to_string(::getpid()) + "token";
  const std::string secret = ::testing::TempDir() + "/aisd_file_option_" +
                             std::to_string(::getpid()) + ".s";
  std::ofstream(secret) << token << " r1, r2\n";
  std::vector<Case> cases = {
      Case{"empty payload", ""},
      Case{"unknown verb", "FROBNICATE\n"},
      Case{"bad option token", "COMPILE modetrace\n" + valid_body},
      Case{"unknown option", "COMPILE wibble=1\n" + valid_body},
      Case{"unknown machine", "COMPILE machine=pdp11\n" + valid_body},
      Case{"unknown mode", "COMPILE mode=warp\n" + valid_body},
      Case{"negative window", "COMPILE window=-3\n" + valid_body},
      Case{"unparseable window", "COMPILE window=banana\n" + valid_body},
      Case{"jobs is not a protocol option",
           "COMPILE mode=cfg jobs=100000\n" + valid_body},
      Case{"empty program", "COMPILE mode=trace\n"},
      Case{"garbage program", "COMPILE mode=trace\nLI LI LI\n"},
      Case{"bad opcode", "COMPILE\nblock a:\n  QUUX r1, r2\n"},
      Case{"huge register index",
           "COMPILE\nblock a:\n  LI r99999999999999999999, 1\n",
           "bad IR: line 2: operand 0 must be a register"},
      // Forms the parser once accepted by rewriting them, or answered with
      // a bare libstdc++ "stoi"/"stoll", or aborted the daemon on.
      Case{"label as immediate", "COMPILE\nblock a:\n  LI r1, foo\n",
           "bad IR: line 2: operand 1 must be an immediate"},
      Case{"label as compare immediate",
           "COMPILE\nblock a:\n  CMP c1, r2, bar\n",
           "bad IR: line 2: operand 2 must be an immediate"},
      Case{"malformed ALU immediate", "COMPILE\nblock a:\n  ADD r1, r2, 5x\n",
           "bad IR: line 2: operand 2 must be a register or an immediate"},
      Case{"junk after offset", "COMPILE\nblock a:\n  LD r1, x[r2+4junk]\n",
           "bad IR: line 2: bad memory offset: x[r2+4junk]"},
      Case{"extra operand", "COMPILE\nblock a:\n  ADD r1, r2, r3, r4\n",
           "bad IR: line 2: too many operands for ADD: got 4, at most 3"},
      Case{"operand on NOP", "COMPILE\nblock a:\n  NOP r1\n",
           "bad IR: line 2: too many operands for NOP: got 1, at most 0"},
      Case{"register index past int",
           "COMPILE\nblock a:\n  ADD r99999999999, r1, r2\n",
           "bad IR: line 2: operand 0 must be a register"},
      Case{"offset past int",
           "COMPILE\nblock a:\n  LD r1, x[r2+99999999999]\n",
           "bad IR: line 2: memory offset out of range: x[r2+99999999999]"},
      Case{"immediate past int64",
           "COMPILE\nblock a:\n  LI r1, 99999999999999999999\n",
           "bad IR: line 2: immediate out of range: 99999999999999999999"},
      Case{"compare into a gpr", "COMPILE\nblock a:\n  CMP r1, r2\n",
           "bad IR: line 2: operand 0 must be a condition register"},
      Case{"branch on a gpr", "COMPILE\nblock a:\n  BT r1, a\n",
           "bad IR: line 2: operand 0 must be a condition register"},
      Case{"file option", "COMPILE file=" + secret + " mode=trace\n",
           "unknown COMPILE option 'file'", token},
  };
  // Empty blocks used to abort the daemon (in Lookahead, the emitter or the
  // loop-trace scheduler, depending on mode and block position).
  for (const char* mode : {"trace", "loop", "cfg"}) {
    for (const auto& [body, block] :
         {std::pair<std::string, std::string>{"block A:\n", "A"},
          {"block A:\n  ADD r1, r2, r3\nblock B:\n", "B"},
          {"block A:\nblock B:\n  ADD r1, r2, r3\n", "A"}}) {
      cases.push_back(
          Case{"empty block " + block + ", mode " + mode,
               "COMPILE mode=" + std::string(mode) + "\n" + body,
               "bad IR: block " + block +
                   ": a block must hold at least one instruction"});
    }
  }
  for (const Case& c : cases) {
    ASSERT_TRUE(client.send_payload(c.payload, &error)) << c.name;
    server::Response resp;
    ASSERT_TRUE(client.receive(&resp, &error)) << c.name << ": " << error;
    EXPECT_FALSE(resp.ok) << c.name;
    EXPECT_FALSE(resp.message.empty()) << c.name;
    if (!c.message.empty()) {
      EXPECT_EQ(resp.message, c.message) << c.name;
    }
    if (!c.absent.empty()) {
      EXPECT_EQ(resp.message.find(c.absent), std::string::npos) << c.name;
      EXPECT_EQ(resp.asm_text.find(c.absent), std::string::npos) << c.name;
    }
  }
  std::remove(secret.c_str());

  // The connection survived every malformed request.
  server::Response resp;
  ASSERT_TRUE(client.call(compile_request(valid_body), &resp, &error))
      << error;
  EXPECT_TRUE(resp.ok) << resp.message;
}

/// A branch in mid-block parses fine but breaks the dependence builder's
/// block-structure invariant; compile_ir must reject it with an ERR reply
/// naming the block, in every mode, instead of aborting the daemon.
TEST_F(ServerTest, MidBlockBranchGetsErrorReplyNamingTheBlock) {
  const std::string body =
      "block a:\n  ADD r1, r2, r3\n  B a\n  ADD r4, r1, r1\n";
  for (const char* mode : {"trace", "loop", "cfg"}) {
    server::CompileOptions options;
    options.mode = mode;
    server::WorkerScratch scratch;
    server::Response reply;
    server::compile_ir(body, options, scratch, &reply);
    EXPECT_FALSE(reply.ok) << mode;
    EXPECT_NE(reply.message.find("block a"), std::string::npos)
        << mode << ": " << reply.message;
  }

  StartServer("midbranch");
  server::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(socket_path_, &error)) << error;
  server::Response resp;
  ASSERT_TRUE(client.call(compile_request(body), &resp, &error)) << error;
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.message.find("block a"), std::string::npos) << resp.message;

  // The daemon survived and still serves well-formed bodies.
  ASSERT_TRUE(client.call(
      compile_request("block a:\n  ADD r1, r2, r3\n  ADD r4, r1, r1\n"),
      &resp, &error))
      << error;
  EXPECT_TRUE(resp.ok) << resp.message;
}

TEST_F(ServerTest, OversizedFrameGetsErrorReplyThenClose) {
  StartServer("oversized", [](server::ServerOptions& options) {
    options.max_frame_bytes = 4096;
  });
  server::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(socket_path_, &error)) << error;
  ASSERT_TRUE(client.send_payload(std::string(8192, 'x'), &error)) << error;
  server::Response resp;
  ASSERT_TRUE(client.receive(&resp, &error)) << error;
  EXPECT_FALSE(resp.ok);
  // The declared frame length is unrecoverable — the server closes after
  // the error reply.
  EXPECT_FALSE(client.receive(&resp, &error));

  // A fresh connection still works.
  server::Client again;
  ASSERT_TRUE(again.connect(socket_path_, &error)) << error;
  ASSERT_TRUE(again.call(compile_request("block a:\n  LI r1, 1\n"), &resp,
                         &error))
      << error;
  EXPECT_TRUE(resp.ok) << resp.message;
}

TEST_F(ServerTest, PingAndMetricsVerbs) {
  StartServer("verbs");
  server::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(socket_path_, &error)) << error;

  server::Request ping;
  ping.verb = server::kVerbPing;
  server::Response resp;
  ASSERT_TRUE(client.call(ping, &resp, &error)) << error;
  EXPECT_TRUE(resp.ok);

  // One compile so the request histogram is non-empty.
  ASSERT_TRUE(client.call(compile_request("block a:\n  LI r1, 1\n"), &resp,
                          &error))
      << error;
  ASSERT_TRUE(resp.ok) << resp.message;

  server::Request metrics;
  metrics.verb = server::kVerbMetrics;
  ASSERT_TRUE(client.call(metrics, &resp, &error)) << error;
  ASSERT_TRUE(resp.ok);
  EXPECT_NE(resp.diag_text.find("server_request_us"), std::string::npos);
  EXPECT_NE(resp.diag_text.find("server_requests_total"), std::string::npos);
}

// --- graceful shutdown drains in-flight work ------------------------------

TEST_F(ServerTest, ShutdownVerbDrainsAdmittedRequests) {
  StartServer("drain");
  const std::vector<std::string> bodies = make_bodies(8, 3, 10, 29);

  server::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(socket_path_, &error)) << error;

  // Pipeline a burst of compiles, then SHUTDOWN on the same connection:
  // the reader admits frames in order, so every compile is enqueued before
  // the shutdown is processed and the drain must answer all of them.
  const std::size_t burst = 64;
  for (std::size_t i = 0; i < burst; ++i) {
    server::Request req = compile_request(bodies[i % bodies.size()]);
    req.options["id"] = std::to_string(i);
    ASSERT_TRUE(client.send(req, &error)) << error;
  }
  server::Request shutdown;
  shutdown.verb = server::kVerbShutdown;
  ASSERT_TRUE(client.send(shutdown, &error)) << error;

  std::size_t compile_replies = 0;
  std::size_t shutdown_replies = 0;
  for (std::size_t i = 0; i < burst + 1; ++i) {
    server::Response resp;
    ASSERT_TRUE(client.receive(&resp, &error)) << error;
    EXPECT_TRUE(resp.ok) << resp.message;
    if (resp.option("id").empty()) {
      ++shutdown_replies;
    } else {
      ++compile_replies;
      EXPECT_FALSE(resp.asm_text.empty());
    }
  }
  EXPECT_EQ(compile_replies, burst);
  EXPECT_EQ(shutdown_replies, 1u);

  server_->wait();  // returns because SHUTDOWN stopped the server
}

// --- the warm cache is shared across tenants ------------------------------

TEST_F(ServerTest, CacheSharedAcrossTenantConnections) {
  StartServer("tenants");
  ScheduleCache::global().set_enabled(true);
  ScheduleCache::global().clear();
  const std::vector<std::string> bodies = make_bodies(12, 3, 10, 41);

  auto compile_all = [&](server::Client& client) {
    std::string error;
    for (const std::string& body : bodies) {
      server::Response resp;
      ASSERT_TRUE(client.call(compile_request(body), &resp, &error)) << error;
      ASSERT_TRUE(resp.ok) << resp.message;
    }
  };

  std::string error;
  server::Client tenant_a;
  ASSERT_TRUE(tenant_a.connect(socket_path_, &error)) << error;
  compile_all(tenant_a);

  // Tenant B, a separate connection, re-compiles the same bodies: every
  // request must be served from the cache tenant A warmed.
  const std::uint64_t hits_before = obs::counter_value(obs::ctr::kCacheHits);
  server::Client tenant_b;
  ASSERT_TRUE(tenant_b.connect(socket_path_, &error)) << error;
  compile_all(tenant_b);
  const std::uint64_t hits_after = obs::counter_value(obs::ctr::kCacheHits);
  if (obs::kHooksCompiledIn) {  // cache.hits is counted by a hook macro
    EXPECT_GE(hits_after - hits_before, bodies.size());
  }
}

// --- QoS admission queue (fake clock) -------------------------------------

TEST(AdmissionQueue, ServesPriorityLevelsFifoWithinLevel) {
  server::AdmissionQueue<int> q{server::AdmissionOptions{}};
  std::int64_t t = 0;
  q.push(1, server::Priority::kBulk, "t", t);
  q.push(2, server::Priority::kNormal, "t", t);
  q.push(3, server::Priority::kInteractive, "t", t);
  q.push(4, server::Priority::kInteractive, "t", t);
  q.push(5, server::Priority::kBulk, "t", t);
  int out = 0;
  std::vector<int> order;
  while (q.pop(t, &out)) order.push_back(out);
  EXPECT_EQ(order, (std::vector<int>{3, 4, 2, 1, 5}));
}

TEST(AdmissionQueue, QosOffDegradesToFifo) {
  server::AdmissionOptions opts;
  opts.qos = false;
  opts.quotas.push_back({"t", 0.001});  // ignored without qos
  server::AdmissionQueue<int> q{opts};
  for (int i = 0; i < 4; ++i) {
    const auto prio = i % 2 == 0 ? server::Priority::kBulk
                                 : server::Priority::kInteractive;
    EXPECT_FALSE(q.push(i, prio, "t", 0));  // never deferred
  }
  int out = 0;
  std::vector<int> order;
  while (q.pop(0, &out)) order.push_back(out);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(AdmissionQueue, OverQuotaDeferredBehindInQuotaNeverDropped) {
  server::AdmissionOptions opts;
  opts.quotas.push_back({"limited", 1.0});  // burst 1: one token at t0
  server::AdmissionQueue<int> q{opts};
  std::int64_t t = 0;
  EXPECT_FALSE(q.push(1, server::Priority::kInteractive, "limited", t));
  EXPECT_TRUE(q.push(2, server::Priority::kInteractive, "limited", t));
  EXPECT_TRUE(q.push(3, server::Priority::kInteractive, "limited", t));
  // A lower-priority in-quota tenant still runs before the deferred
  // higher-priority over-quota work.
  EXPECT_FALSE(q.push(4, server::Priority::kBulk, "free", t));
  EXPECT_EQ(q.size(), 4u);
  int out = 0;
  std::vector<int> order;
  while (q.pop(t, &out)) order.push_back(out);
  // 1 (in-quota), 4 (in-quota bulk), then the deferred items via work
  // conservation, FIFO — nothing dropped.
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 3}));
  EXPECT_EQ(q.stats().deferred, 2u);
  EXPECT_EQ(q.stats().conserved, 2u);
}

TEST(AdmissionQueue, TokenRefillRedeemsDeferredWork) {
  server::AdmissionOptions opts;
  opts.quotas.push_back({"limited", 1.0});
  opts.defer_max_us = 10'000'000;  // keep force-admission out of this test
  server::AdmissionQueue<int> q{opts};
  std::int64_t t = 0;
  q.push(1, server::Priority::kNormal, "limited", t);   // takes the token
  q.push(2, server::Priority::kNormal, "limited", t);   // deferred
  q.push(3, server::Priority::kBulk, "free", t);
  int out = 0;
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 1);
  // One second later the bucket has a token again: the deferred normal
  // item redeems into its level and beats the bulk work.
  t += 1'000'000;
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.stats().redeemed, 1u);
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 3);
}

TEST(AdmissionQueue, DeferredWorkForceAdmittedPastDeferMax) {
  server::AdmissionOptions opts;
  opts.quotas.push_back({"limited", 0.0001});  // effectively never refills
  opts.defer_max_us = 200'000;
  server::AdmissionQueue<int> q{opts};
  std::int64_t t = 0;
  q.push(1, server::Priority::kNormal, "limited", t);
  q.push(2, server::Priority::kNormal, "limited", t);  // deferred, ~forever
  q.push(3, server::Priority::kNormal, "free", t);
  int out = 0;
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 1);
  // Before defer_max the in-quota tenant keeps winning...
  t += 100'000;
  q.push(4, server::Priority::kNormal, "free", t);
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 3);
  EXPECT_EQ(q.stats().force_admitted, 0u);
  // ...but past defer_max the deferred item is force-admitted into its
  // level — behind in-quota work already queued, ahead of later arrivals —
  // even though its bucket still has no token.
  t += 150'000;
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 4);
  EXPECT_EQ(q.stats().force_admitted, 1u);
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 2);
}

TEST(AdmissionQueue, AgingPromotesBulkPastFreshInteractive) {
  server::AdmissionOptions opts;
  opts.age_promote_us = 50'000;
  server::AdmissionQueue<int> q{opts};
  std::int64_t t = 0;
  q.push(1, server::Priority::kBulk, "t", t);
  // At t1 the bulk item has aged one step (bulk -> normal); a concurrent
  // interactive request still wins.
  t += 50'000;
  q.push(2, server::Priority::kInteractive, "t", t);
  int out = 0;
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 2);
  // At t2 it reaches the interactive level and runs ahead of interactive
  // work arriving after the promotion — bulk is delayed, never starved.
  t += 50'000;
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.stats().promoted, 2u);
  q.push(3, server::Priority::kInteractive, "t", t);
  ASSERT_TRUE(q.pop(t, &out));
  EXPECT_EQ(out, 3);
}

TEST(AdmissionQueue, ParsersValidateWireValues) {
  server::Priority p;
  EXPECT_TRUE(server::parse_priority("interactive", &p));
  EXPECT_EQ(p, server::Priority::kInteractive);
  EXPECT_TRUE(server::parse_priority("", &p));
  EXPECT_EQ(p, server::Priority::kNormal);
  EXPECT_TRUE(server::parse_priority("2", &p));
  EXPECT_EQ(p, server::Priority::kBulk);
  EXPECT_FALSE(server::parse_priority("urgent", &p));
  EXPECT_FALSE(server::parse_priority("-1", &p));

  EXPECT_TRUE(server::valid_tenant(""));
  EXPECT_TRUE(server::valid_tenant("team-a.prod_7"));
  EXPECT_FALSE(server::valid_tenant("has space"));
  EXPECT_FALSE(server::valid_tenant(std::string(65, 'x')));

  std::vector<server::TenantQuota> quotas;
  std::string error;
  EXPECT_TRUE(server::parse_quota_list("a=5,b=0.5", &quotas, &error));
  ASSERT_EQ(quotas.size(), 2u);
  EXPECT_EQ(quotas[0].tenant, "a");
  EXPECT_DOUBLE_EQ(quotas[0].rps, 5.0);
  EXPECT_DOUBLE_EQ(quotas[1].rps, 0.5);
  EXPECT_FALSE(server::parse_quota_list("a", &quotas, &error));
  EXPECT_FALSE(server::parse_quota_list("a=x", &quotas, &error));
  EXPECT_FALSE(server::parse_quota_list("bad tenant=1", &quotas, &error));
}

// --- QoS options on the wire ----------------------------------------------

TEST_F(ServerTest, UnknownPriorityOrTenantGetsErrorReplyNotCrash) {
  StartServer("qosopts");
  server::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(socket_path_, &error)) << error;
  const std::string body = "block a:\n  LI r1, 1\n";

  server::Request req = compile_request(body);
  req.options["priority"] = "urgent";
  server::Response resp;
  ASSERT_TRUE(client.call(req, &resp, &error)) << error;
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.message.find("priority"), std::string::npos);

  req = compile_request(body);
  req.options["tenant"] = "no/slashes!";
  ASSERT_TRUE(client.call(req, &resp, &error)) << error;
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.message.find("tenant"), std::string::npos);

  // The id echo survives rejection, and the connection stays usable with
  // valid QoS options.
  req = compile_request(body);
  req.options["priority"] = "warp9";
  req.options["id"] = "42";
  ASSERT_TRUE(client.call(req, &resp, &error)) << error;
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.message.find("(id=42)"), std::string::npos);

  req = compile_request(body);
  req.options["priority"] = "bulk";
  req.options["tenant"] = "team-a";
  ASSERT_TRUE(client.call(req, &resp, &error)) << error;
  EXPECT_TRUE(resp.ok) << resp.message;
}

TEST_F(ServerTest, OverQuotaRequestsDeferredNotDropped) {
  StartServer("quota", [](server::ServerOptions& options) {
    options.admission.quotas.push_back({"metered", 1.0});
    options.admission.defer_max_us = 50'000;
  });
  server::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(socket_path_, &error)) << error;

  // Pipeline far more requests than the 1 rps quota admits: every one must
  // still be answered (deferred, force-admitted or work-conserved — never
  // dropped).
  const std::size_t burst = 24;
  const std::string body = "block a:\n  LI r1, 1\n  ADD r2, r1, r1\n";
  for (std::size_t i = 0; i < burst; ++i) {
    server::Request req = compile_request(body);
    req.options["tenant"] = "metered";
    req.options["priority"] = "normal";
    req.options["id"] = std::to_string(i);
    ASSERT_TRUE(client.send(req, &error)) << error;
  }
  std::vector<bool> seen(burst, false);
  for (std::size_t i = 0; i < burst; ++i) {
    server::Response resp;
    ASSERT_TRUE(client.receive(&resp, &error)) << error;
    EXPECT_TRUE(resp.ok) << resp.message;
    const std::string id(resp.option("id"));
    ASSERT_FALSE(id.empty());
    seen[static_cast<std::size_t>(std::stoul(id))] = true;
  }
  for (std::size_t i = 0; i < burst; ++i) {
    EXPECT_TRUE(seen[i]) << "reply for request " << i << " missing";
  }
}

/// With one worker, an interactive request admitted behind a backlog of
/// bulk work is served next: the worker takes a request out of admission
/// only when it is free to run it, so no queued bulk request can ride
/// ahead of a later interactive one.
TEST_F(ServerTest, InteractiveRequestOvertakesQueuedBulkWork) {
  StartServer("overtake",
              [](server::ServerOptions& options) { options.threads = 1; });
  ScheduleCache::global().set_enabled(true);
  ScheduleCache::global().clear();  // distinct bodies: every compile misses
  const std::vector<std::string> bodies = make_bodies(17, 4, 16, 53);
  const std::size_t bulk_count = bodies.size() - 1;

  // The first bulk request is a long compile (a 48 x 24 trace that never
  // chops, about 100 ms here), so the one worker is provably still busy
  // with it when the interactive request is admitted.
  Prng prng(1);
  RandomIrParams wide;
  wide.num_insts = 24;
  wide.num_gprs = 16;
  wide.mem_frac = 0.1;
  const std::string long_body = render_trace(random_ir_trace(prng, wide, 48));

  std::string error;
  server::Client bulk;
  server::Client interactive;
  ASSERT_TRUE(bulk.connect(socket_path_, &error)) << error;
  ASSERT_TRUE(interactive.connect(socket_path_, &error)) << error;
  for (std::size_t i = 0; i < bulk_count; ++i) {
    server::Request req = compile_request(i == 0 ? long_body : bodies[i]);
    req.options["priority"] = "bulk";
    req.options["id"] = std::to_string(i);
    ASSERT_TRUE(bulk.send(req, &error)) << error;
  }
  // The reader answers PING inline after admitting every frame before it,
  // so its reply proves the whole bulk backlog is queued.
  server::Request ping;
  ping.verb = server::kVerbPing;
  ASSERT_TRUE(bulk.send(ping, &error)) << error;

  std::promise<void> backlog_queued;
  std::atomic<std::size_t> bulk_replies{0};
  std::thread receiver([&] {
    std::string receive_error;
    bool woke = false;
    for (std::size_t i = 0; i < bulk_count + 1; ++i) {
      server::Response resp;
      if (!bulk.receive(&resp, &receive_error)) {
        ADD_FAILURE() << receive_error;
        break;
      }
      EXPECT_TRUE(resp.ok) << resp.message;
      if (!resp.option("id").empty()) {
        bulk_replies.fetch_add(1);
      } else if (!woke) {
        woke = true;
        backlog_queued.set_value();
      }
    }
    if (!woke) backlog_queued.set_value();
  });
  backlog_queued.get_future().wait();

  server::Request req = compile_request(bodies.back());
  req.options["priority"] = "interactive";
  server::Response resp;
  const bool answered = interactive.call(req, &resp, &error);
  const std::size_t bulk_before = bulk_replies.load();
  receiver.join();
  ASSERT_TRUE(answered) << error;
  EXPECT_TRUE(resp.ok) << resp.message;
  EXPECT_LE(bulk_before, bulk_count / 2)
      << "the interactive reply waited behind " << bulk_before << " of "
      << bulk_count << " queued bulk requests";
  EXPECT_EQ(bulk_replies.load(), bulk_count);
}

// --- TCP transport robustness ---------------------------------------------

/// Connects a raw TCP socket to "127.0.0.1:<port>" — the tests that need
/// byte-level control the Client wrapper does not expose.
int raw_tcp_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(ServerTest, ReassemblesFramesSplitAcrossTcpSegments) {
  StartServer("segments", [](server::ServerOptions& options) {
    options.tcp_addr = "127.0.0.1:0";
  });
  const std::string body = "block a:\n  LI r1, 1\n  ADD r2, r1, r1\n";
  server::CompileOptions ref_options;
  ref_options.window = 2;
  const server::Response reference = serial_reference(body, ref_options);
  ASSERT_TRUE(reference.ok) << reference.message;

  server::Request req = compile_request(body);
  std::string wire;
  server::append_frame(wire, req.encode());

  const int fd = raw_tcp_connect(server_->tcp_port());
  ASSERT_GE(fd, 0);
  // Dribble the frame a few bytes per send with TCP_NODELAY, so the length
  // prefix itself — let alone the payload — spans several segments.
  for (std::size_t off = 0; off < wire.size(); off += 3) {
    const std::size_t n = std::min<std::size_t>(3, wire.size() - off);
    ASSERT_EQ(::send(fd, wire.data() + off, n, 0),
              static_cast<ssize_t>(n));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string buffer;
  std::string payload;
  char chunk[4096];
  while (server::take_frame(buffer, 1 << 20, &payload) !=
         server::FrameStatus::kFrame) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server::Response resp;
  std::string error;
  ASSERT_TRUE(server::parse_response(payload, &resp, &error)) << error;
  ASSERT_TRUE(resp.ok) << resp.message;
  EXPECT_EQ(resp.asm_text, reference.asm_text);
}

TEST_F(ServerTest, ReadDeadlineCutsStalledPeerButSparesIdleConnection) {
  StartServer("deadline", [](server::ServerOptions& options) {
    options.tcp_addr = "127.0.0.1:0";
    options.read_deadline_ms = 100;
  });
  std::string error;

  // An idle connection (no partial frame pending) outlives the deadline.
  server::Client idle;
  ASSERT_TRUE(idle.connect_tcp(tcp_target_, &error)) << error;

  // A peer that stalls mid-frame is disconnected once the deadline passes.
  const int fd = raw_tcp_connect(server_->tcp_port());
  ASSERT_GE(fd, 0);
  const std::uint32_t claimed = 4096;  // promise 4 KiB, deliver 8 bytes
  char partial[sizeof(claimed) + 8];
  std::memcpy(partial, &claimed, sizeof(claimed));
  std::memset(partial + sizeof(claimed), 'x', 8);
  ASSERT_EQ(::send(fd, partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  char chunk[64];
  const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);  // blocks until cut
  EXPECT_EQ(n, 0) << "server should close a peer stalled mid-frame";
  ::close(fd);

  // The idle connection is still serviceable well past the deadline.
  server::Response resp;
  ASSERT_TRUE(idle.call(compile_request("block a:\n  LI r1, 1\n"), &resp,
                        &error))
      << error;
  EXPECT_TRUE(resp.ok) << resp.message;
}

}  // namespace
}  // namespace ais
