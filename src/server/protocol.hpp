// The aisd wire protocol: length-prefixed frames over a unix-domain stream
// socket, carrying small text request/response payloads.
//
// Framing
// -------
// Every message is one frame: a native-endian uint32 payload length followed
// by that many payload bytes.  Frames never leave the machine (unix sockets
// only), so there is no endianness negotiation — the same stance the
// schedule cache's disk tier takes.  A declared length above the server's
// `max_frame_bytes` is unrecoverable (the stream offset is lost), so the
// server replies with an error frame and closes the connection; a malformed
// *payload* inside a well-formed frame is recoverable and gets an error
// reply on a connection that stays open.
//
// Requests
// --------
// The payload's first line is a verb plus space-separated key=value options;
// everything after the newline is the body (the IR text for COMPILE):
//
//   COMPILE mode=trace machine=rs6000 window=2 id=7\n<assembly...>
//   METRICS format=prom        (format=json for the JSON snapshot)
//   PING
//   SHUTDOWN
//
// COMPILE options mirror the aisc command line (mode, machine, window,
// rename, report, verify) plus `profile=1` (append the request's counter
// deltas to the reply) and `id=` (echoed back, for clients that pipeline).
// The IR always travels in the body: the server reads no file on a
// client's behalf, and any other option gets an "unknown COMPILE option"
// error reply.
//
// Responses
// ---------
// First line `OK key=value...` or `ERR <message>`; for COMPILE the `asm=N`
// option gives the byte length of the scheduled-assembly section that
// follows — byte-identical to offline aisc stdout for the same request.
// A `diag=N` option delimits a diagnostics section after the assembly (the
// verifier report when `verify=1` finds violations, byte-identical to what
// aisc prints to stderr), after which `profile=1` replies carry one
// "counter <name> <value>" line per delta.  See docs/SERVER.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ais::server {

/// Frames above this size are rejected by default (requests and replies are
/// kilobytes; a corpus chunk is still far below this).
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u << 20;

/// Appends one frame (length prefix + payload) to `out`.
void append_frame(std::string& out, std::string_view payload);

/// Result of pulling one frame out of a byte buffer.
enum class FrameStatus {
  kFrame,      // *payload holds a complete frame's payload
  kNeedMore,   // the buffer holds a partial frame; read more bytes
  kOversized,  // declared length exceeds max_frame_bytes: close the stream
};

/// Consumes one frame from the front of `buffer` if complete, moving the
/// payload into *payload and erasing the consumed bytes.
FrameStatus take_frame(std::string& buffer, std::size_t max_frame_bytes,
                       std::string* payload);

/// A decoded request: verb, options and body.  Option order is dropped
/// (keys are unique); unknown keys are the *handler's* error, not a parse
/// error, so the error message can name the key.
struct Request {
  std::string verb;
  std::map<std::string, std::string, std::less<>> options;
  std::string body;

  std::string_view option(std::string_view key,
                          std::string_view fallback = "") const;
  /// Integer option; `fallback` when absent.  Sets *ok=false (never true)
  /// when present but unparseable.
  std::int64_t option_int(std::string_view key, std::int64_t fallback,
                          bool* ok) const;

  std::string encode() const;
};

/// Parses a request payload.  Returns false (with *error set) only for
/// structural problems: an empty payload, an option token without '=' or
/// with an empty key.
bool parse_request(std::string_view payload, Request* request,
                   std::string* error);

/// A decoded response.  `ok == false` carries only `message`.
struct Response {
  bool ok = false;
  std::string message;  // ERR text
  std::map<std::string, std::string, std::less<>> options;
  std::string asm_text;   // COMPILE: the scheduled assembly section
  std::string diag_text;  // verifier report / METRICS exposition body
  /// `profile=1` replies: (counter name, delta) pairs in name order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  std::string_view option(std::string_view key,
                          std::string_view fallback = "") const;

  std::string encode() const;

  /// The scatter-gather split of encode(): the payload is exactly
  /// head + asm_text + diag_text + tail, so a worker can writev the four
  /// pieces (plus the frame length prefix) without ever joining them into
  /// one buffer.  Both append into caller-owned strings — the per-worker
  /// scratch reuses their capacity across requests.
  void encode_head(std::string* out) const;  // status line incl. '\n'
  void encode_tail(std::string* out) const;  // "counter ..." trailer lines
};

bool parse_response(std::string_view payload, Response* response,
                    std::string* error);

/// Canonical verbs.
inline constexpr const char* kVerbCompile = "COMPILE";
inline constexpr const char* kVerbMetrics = "METRICS";
inline constexpr const char* kVerbPing = "PING";
inline constexpr const char* kVerbShutdown = "SHUTDOWN";

}  // namespace ais::server
