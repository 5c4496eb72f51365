// The one compile pipeline: a COMPILE request in, one reply out.  aisd runs
// it per request and `aisc` is a thin shell over a single call, so the
// daemon's replies and the offline compiler's output are byte-identical by
// construction.
//
// The service is a pure function of (request, scratch) — it owns no locks
// and no global state beyond what the compile pipeline itself uses (the
// shared schedule cache, the obs registry) — so the server can run any
// number of calls concurrently, one per pool worker, each with its own
// reusable WorkerScratch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "server/protocol.hpp"
#include "sim/lookahead_sim.hpp"

namespace ais::server {

/// Decoded COMPILE options (the aisc command line, minus I/O paths).
struct CompileOptions {
  std::string mode = "trace";      // trace | loop | cfg
  std::string machine = "rs6000";  // machine_preset name
  int window = 0;
  /// cfg mode: compile traces on this many threads (aisc --jobs).  Not a
  /// COMPILE option: a request's parallelism is the server's pool.
  int jobs = 1;
  bool rename = false;
  bool report = false;   // cycle counts into the reply's status options
  bool verify = false;   // run the independent oracle; findings into diag
  bool profile = false;  // counter deltas into the reply trailer
};

/// Per-worker reusable state: the simulator scratch (arena-backed, converges
/// on the peak instance size) plus the string buffers replies are built in.
/// One per pool worker, reused across every request that worker serves —
/// the per-request allocation profile is what a warmed-up aisc run does, not
/// a cold process start.
struct WorkerScratch {
  SimScratch sim;
  std::string asm_text;
  std::string head;  // reply status line (Response::encode_head target)
  std::string tail;  // reply counter trailer (encode_tail target)

  /// Bytes currently reserved by the reusable buffers (high-water gauge).
  std::size_t bytes_reserved() const;
};

/// Parses the COMPILE request's options.  Returns false with *error set on
/// an unknown key or unparseable value (the caller turns it into an ERR
/// reply; nothing has been compiled).
bool decode_compile_options(const Request& request, CompileOptions* options,
                            std::string* error);

/// Compiles `ir_text` per `options` into `reply`.  On success `reply->ok`
/// with the assembly section and status options filled; on any request
/// error (bad IR, unknown machine/mode, negative window; verification
/// failure is NOT an error — it lands in diag_text with verified=fail)
/// `reply->ok == false` and `reply->message` says why.  Never terminates
/// the process.
void compile_ir(const std::string& ir_text, const CompileOptions& options,
                WorkerScratch& scratch, Response* reply);

}  // namespace ais::server
