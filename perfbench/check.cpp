#include "check.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "bench.hpp"
#include "ir/asm_parser.hpp"
#include "ir/depbuild.hpp"
#include "verify/verify.hpp"

namespace perfbench {
namespace {

using ais::BasicBlock;
using ais::Program;

std::string render(const Program& prog) {
  std::string text;
  render_blocks(prog.blocks, &text);
  return text;
}

/// The emitted program with the first intra-block dependent pair (by the
/// compiler's own dependence builder, so the corruption and the oracle use
/// independent derivations) swapped; nullopt when no block has one.
std::optional<Program> swap_dependent_pair(Program prog,
                                           const ais::MachineModel& machine) {
  for (BasicBlock& bb : prog.blocks) {
    const ais::DepGraph g = ais::build_block_graph(bb, machine);
    for (const ais::DepEdge& e : g.edges()) {
      const auto from = static_cast<std::size_t>(e.from);
      const auto to = static_cast<std::size_t>(e.to);
      if (e.distance != 0 || to + 1 == bb.insts.size() ||
          bb.insts[from].to_string() == bb.insts[to].to_string()) {
        continue;  // keep the branch last; identical twins are no swap
      }
      std::swap(bb.insts[from], bb.insts[to]);
      return prog;
    }
  }
  return std::nullopt;
}

}  // namespace

std::string oracle_findings(const std::string& ir_text,
                            const std::string& asm_text,
                            const ais::MachineModel& machine, int window) {
  std::string error;
  const std::optional<Program> original =
      ais::parse_program_or_error(ir_text, &error);
  if (!original) return "input does not parse: " + error;
  const std::optional<Program> emitted =
      ais::parse_program_or_error(asm_text, &error);
  if (!emitted) return "output does not parse: " + error;
  if (emitted->blocks.size() != original->blocks.size()) {
    return "output has " + std::to_string(emitted->blocks.size()) +
           " blocks, input " + std::to_string(original->blocks.size());
  }
  ais::verify::VerifyOptions opts;
  opts.window = window;
  for (std::size_t b = 0; b < original->blocks.size(); ++b) {
    if (original->blocks[b].label != emitted->blocks[b].label) {
      return "block " + std::to_string(b) + " relabelled";
    }
    const ais::verify::Report report = ais::verify::check_emitted(
        ais::Trace{{original->blocks[b]}}, ais::Trace{{emitted->blocks[b]}},
        machine, opts);
    if (!report.ok()) {
      return "block " + std::to_string(b) + ": " + report.to_string();
    }
  }
  return {};
}

void Timed::book(std::size_t i, std::size_t round, double latency_us,
                 ais::server::Response&& reply,
                 const std::string& transport_error) {
  ++requests[i];
  best_us[i] = std::min(best_us[i], latency_us);
  std::string failure;
  if (!transport_error.empty()) {
    failure = "transport: " + transport_error;
  } else if (!reply.ok) {
    failure = "ERR " + reply.message;
  } else if (round == 0) {
    first[i] = std::move(reply);
  } else if (!same_reply(reply, first[i])) {
    failure = "reply differs from this input's first reply";
  }
  if (!failure.empty()) {
    ++failures[i];
    if (why[i].empty()) why[i] = failure;
  }
}

std::uint64_t Timed::total_requests() const {
  std::uint64_t n = 0;
  for (const std::uint64_t r : requests) n += r;
  return n;
}

bool same_reply(const ais::server::Response& a,
                const ais::server::Response& b) {
  return a.ok == b.ok && a.message == b.message && a.options == b.options &&
         a.asm_text == b.asm_text && a.diag_text == b.diag_text &&
         a.counters == b.counters;
}

std::string reply_difference(const ais::server::Response& got,
                             const ais::server::Response& expected) {
  const std::string a = got.encode();
  const std::string b = expected.encode();
  if (a == b) return {};
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  return "reply differs from compile_ir at byte " + std::to_string(at) +
         " of " + std::to_string(b.size());
}

int self_check(const std::string& ir_text,
               const ais::server::Response& reply,
               const ais::MachineModel& machine, int window) {
  int missed = 0;
  const auto report = [&missed](const char* what, const std::string& finding) {
    std::printf("self_check %-14s %s%s\n", what,
                finding.empty() ? "MISSED" : "rejected: ",
                finding.substr(0, 100).c_str());
    if (finding.empty()) ++missed;
  };

  std::string error;
  const std::optional<Program> emitted =
      ais::parse_program_or_error(reply.asm_text, &error);
  if (!emitted || emitted->blocks.empty() ||
      emitted->blocks[0].insts.empty()) {
    std::printf("self_check: reply has no instructions to corrupt\n");
    return 3;
  }

  const std::optional<Program> swapped =
      swap_dependent_pair(*emitted, machine);
  report("swap_dependent", swapped ? oracle_findings(ir_text, render(*swapped),
                                                     machine, window)
                                   : std::string());

  Program dropped = *emitted;
  dropped.blocks[0].insts.erase(dropped.blocks[0].insts.begin());
  report("drop_inst",
         oracle_findings(ir_text, render(dropped), machine, window));

  ais::server::Response flipped = reply;
  char& byte = flipped.asm_text[flipped.asm_text.size() / 2];
  byte = byte == 'r' ? 'f' : 'r';
  report("one_byte", reply_difference(flipped, reply));
  return missed;
}

}  // namespace perfbench
