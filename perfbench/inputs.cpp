// Workload inputs (generated from the seed through src/workloads), the
// request encoding, and the small statistics / output helpers.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "support/prng.hpp"
#include "workloads/random_ir.hpp"

namespace perfbench {
namespace {

using ais::BasicBlock;
using ais::Instruction;

// Workload shapes (see README.md for why each was chosen).  Every request
// takes a few milliseconds at most: the host's speed changes from second to
// second, and a run's fastest request per input (the p50 basis) is only
// steady when each input is requested many times and a request fits inside
// a fast period.
constexpr int kMachineWindow = 2;
constexpr std::size_t kDaemonBodies = 256;
constexpr int kDaemonBlocks = 4;
constexpr int kDaemonInsts = 12;
constexpr std::size_t kUnchoppableTraces = 200;
constexpr int kUnchoppableBlocks = 4;
constexpr int kUnchoppableInsts = 24;
// A large register pool and few memory operations: nearly every trace has
// no chop point and the compile times form one mode.  With the generator's
// defaults (6 registers, 30% memory operations) a third of the traces had
// two or more chop points and compiled 3-5x faster, and the median fell
// between modes and moved with the seed's draw.
constexpr int kUnchoppableGprs = 16;
constexpr double kUnchoppableMemFrac = 0.1;
constexpr std::size_t kCfgPrograms = 128;
constexpr std::size_t kCfgBlocks = 32;
constexpr int kCfgInsts = 12;
constexpr std::size_t kLoops = 256;
constexpr int kLoopInsts = 12;
// Set-up's warm-up compiles: inputs from this fixed seed, not the run's.
constexpr std::uint64_t kWarmupSeed = 0x5eed;
constexpr std::size_t kUnchoppableWarmup = 48;
constexpr std::size_t kCfgWarmup = 16;
constexpr std::size_t kLoopWarmup = 192;

ais::server::CompileOptions base_options(const char* mode) {
  ais::server::CompileOptions o;
  o.mode = mode;
  o.machine = "rs6000";
  o.window = kMachineWindow;
  o.report = true;
  return o;
}

std::string render_trace(const ais::Trace& trace) {
  std::string text;
  render_blocks(trace.blocks, &text);
  return text;
}

}  // namespace

void render_blocks(const std::vector<BasicBlock>& blocks, std::string* out) {
  for (const BasicBlock& bb : blocks) {
    out->append("block ").append(bb.label).append(":\n");
    for (const Instruction& inst : bb.insts) {
      out->append("  ").append(inst.to_string()).append("\n");
    }
  }
}

bool is_workload(const std::string& name) {
  return name == "warm_daemon" || name == "unchoppable_trace" ||
         name == "cfg_program" || name == "loop_bodies";
}

namespace {

/// `count` inputs of workload `name`'s shape, generated from `seed`.
std::vector<std::string> generate(const std::string& name, std::uint64_t seed,
                                  std::size_t count) {
  std::vector<std::string> bodies;
  ais::Prng prng(seed);
  ais::RandomIrParams ir;
  if (name == "warm_daemon") {
    ir.num_insts = kDaemonInsts;
    for (std::size_t i = 0; i < count; ++i) {
      bodies.push_back(
          render_trace(ais::random_ir_trace(prng, ir, kDaemonBlocks)));
    }
  } else if (name == "unchoppable_trace") {
    ir.num_insts = kUnchoppableInsts;
    ir.num_gprs = kUnchoppableGprs;
    ir.mem_frac = kUnchoppableMemFrac;
    for (std::size_t i = 0; i < count; ++i) {
      bodies.push_back(
          render_trace(ais::random_ir_trace(prng, ir, kUnchoppableBlocks)));
    }
  } else if (name == "cfg_program") {
    ais::RandomIrProgramParams params;
    params.block.num_insts = kCfgInsts;
    params.num_blocks = count * kCfgBlocks;
    params.blocks_per_chunk = kCfgBlocks;
    params.seed = seed;
    ais::random_ir_program_chunks(
        params, [&](ais::Program&& prog, std::size_t) {
          std::string text;
          render_blocks(prog.blocks, &text);
          bodies.push_back(std::move(text));
        });
  } else if (name == "loop_bodies") {
    ir.num_insts = kLoopInsts;
    for (std::size_t i = 0; i < count; ++i) {
      bodies.push_back(render_trace(ais::random_ir_loop(prng, ir).body));
    }
  }
  return bodies;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "warm_daemon") {
    w.options = base_options("trace");
    w.daemon = true;
    w.bodies = generate(name, seed, kDaemonBodies);
  } else if (name == "unchoppable_trace") {
    w.options = base_options("trace");
    w.bodies = generate(name, seed, kUnchoppableTraces);
    w.warmup = generate(name, kWarmupSeed, kUnchoppableWarmup);
  } else if (name == "cfg_program") {
    w.options = base_options("cfg");
    w.options.verify = true;
    w.bodies = generate(name, seed, kCfgPrograms);
    w.warmup = generate(name, kWarmupSeed, kCfgWarmup);
  } else if (name == "loop_bodies") {
    w.options = base_options("loop");
    w.bodies = generate(name, seed, kLoops);
    w.warmup = generate(name, kWarmupSeed, kLoopWarmup);
  }
  return w;
}

ais::server::Request compile_request(const Workload& w, std::size_t i) {
  const ais::server::CompileOptions& o = w.options;
  ais::server::Request r;
  r.verb = ais::server::kVerbCompile;
  r.options["mode"] = o.mode;
  r.options["machine"] = o.machine;
  r.options["window"] = std::to_string(o.window);
  if (o.jobs != 1) r.options["jobs"] = std::to_string(o.jobs);
  if (o.report) r.options["report"] = "1";
  if (o.verify) r.options["verify"] = "1";
  r.body = w.bodies[i];
  return r;
}

std::uint64_t input_digest(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::string_view bytes) {
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator: ("ab","c") and ("a","bc") differ
    h *= 0x100000001b3ull;
  };
  for (std::size_t i = 0; i < w.bodies.size(); ++i) {
    mix(compile_request(w, i).encode());
  }
  return h;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.entries.size(); ++i) {
    const Metrics::Entry& e = metrics.entries[i];
    char num[64];
    // Shortest round-trip form: every digit the measurement has.
    const auto res = std::to_chars(num, num + sizeof(num), e.value);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " +
           std::string(num, res.ptr) + ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
