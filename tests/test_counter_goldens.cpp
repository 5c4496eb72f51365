// Exact gate on the scheduler's deterministic work and output: the counter
// stream that a `COMPILE profile=1` reply carries, and the reply itself,
// each compared byte for byte with a committed golden file
// (tests/golden/counter_streams.txt and tests/golden/reply_digests.txt).
//
// Each input compiles three ways through server::compile_ir with telemetry
// enabled, as inside aisd: with the schedule cache bypassed, as a cache
// miss and as a cache hit.  All three replies must list the golden text of
// that input.  Host load cannot move these counts (rank runs, Merge relax
// rounds, Move_Idle_Slot attempts and tightenings, Chop points, simulator
// events, ...), so an algorithmic change to the work done fails here
// however quiet or noisy the machine is.  The reply golden holds each
// reply's cycle counts (`cycles_before`, `cycles_after`, `cycles_per_iter`),
// its `verified` verdict and an FNV-1a digest of its assembly text, so a
// change to any schedule or reported period fails here too.
//
// The inputs are every examples/*.s in its natural mode on all four machine
// presets, plus a few fixed-seed src/workloads inputs of each perfbench
// shape.  When the golden file disagrees, the test prints the input and the
// first differing line, and writes the whole file it computed next to the
// test's temporary files so an intended change can be reviewed and copied
// over the golden file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule_cache.hpp"
#include "ir/instruction.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"
#include "server/compile_service.hpp"
#include "support/prng.hpp"
#include "workloads/random_ir.hpp"

#ifndef AIS_EXAMPLES_DIR
#error "AIS_EXAMPLES_DIR must point at the shipped examples/"
#endif
#ifndef AIS_COUNTER_GOLDEN
#error "AIS_COUNTER_GOLDEN must point at the committed counter streams"
#endif
#ifndef AIS_REPLY_GOLDEN
#error "AIS_REPLY_GOLDEN must point at the committed reply digests"
#endif

namespace ais {
namespace {

struct GoldenInput {
  std::string name;
  std::string text;
  server::CompileOptions options;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string render(const std::vector<BasicBlock>& blocks) {
  std::string text;
  for (const BasicBlock& bb : blocks) {
    text += "block " + bb.label + ":\n";
    for (const Instruction& inst : bb.insts) {
      text += "  " + inst.to_string() + "\n";
    }
  }
  return text;
}

/// The mode CI compiles each shipped example in (by file name).
std::string natural_mode(const std::string& file) {
  if (file.find("loop") != std::string::npos) return "loop";
  if (file.find("cfg") != std::string::npos) return "cfg";
  return "trace";
}

server::CompileOptions options_for(const std::string& mode,
                                   const std::string& machine, int window,
                                   bool verify) {
  server::CompileOptions o;
  o.mode = mode;
  o.machine = machine;
  o.window = window;
  o.report = true;
  o.verify = verify;
  o.profile = true;
  return o;
}

std::vector<GoldenInput> golden_inputs() {
  std::vector<GoldenInput> inputs;

  std::vector<std::string> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(AIS_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".s") {
      examples.push_back(entry.path().filename().string());
    }
  }
  std::sort(examples.begin(), examples.end());
  for (const std::string& file : examples) {
    const std::string text =
        read_file(std::string(AIS_EXAMPLES_DIR) + "/" + file);
    const std::string mode = natural_mode(file);
    for (const std::string& machine : machine_preset_names()) {
      inputs.push_back({file + " mode=" + mode + " machine=" + machine, text,
                        options_for(mode, machine, 0, /*verify=*/true)});
    }
  }

  // The perfbench shapes (perfbench/inputs.cpp), rs6000 at W = 2, seed 1.
  constexpr int kPerShape = 3;
  RandomIrParams ir;
  {
    Prng prng(1);
    ir.num_insts = 12;
    for (int i = 0; i < kPerShape; ++i) {
      inputs.push_back({"trace 4x12 seed=1 #" + std::to_string(i),
                        render(random_ir_trace(prng, ir, 4).blocks),
                        options_for("trace", "rs6000", 2, false)});
    }
  }
  {
    Prng prng(1);
    ir = RandomIrParams{};
    ir.num_insts = 24;
    ir.num_gprs = 16;
    ir.mem_frac = 0.1;
    for (int i = 0; i < kPerShape; ++i) {
      inputs.push_back({"trace 4x24 seed=1 #" + std::to_string(i),
                        render(random_ir_trace(prng, ir, 4).blocks),
                        options_for("trace", "rs6000", 2, false)});
    }
  }
  {
    Prng prng(1);
    ir = RandomIrParams{};
    ir.num_insts = 12;
    for (int i = 0; i < kPerShape; ++i) {
      inputs.push_back({"loop 12 seed=1 #" + std::to_string(i),
                        render(random_ir_loop(prng, ir).body.blocks),
                        options_for("loop", "rs6000", 2, false)});
    }
  }
  {
    RandomIrProgramParams params;
    params.block.num_insts = 12;
    params.num_blocks = kPerShape * 32;
    params.blocks_per_chunk = 32;
    params.seed = 1;
    random_ir_program_chunks(params, [&](Program&& prog, std::size_t i) {
      inputs.push_back({"cfg 32x12 seed=1 #" + std::to_string(i),
                        render(prog.blocks),
                        options_for("cfg", "rs6000", 2, true)});
    });
  }
  return inputs;
}

std::string counter_lines(const server::Response& reply) {
  std::string out;
  for (const auto& [name, value] : reply.counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  return out;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

/// The reply's cycle counts and verdict ("-" for an option the mode does
/// not set) and the FNV-1a digest of its assembly text.
std::string reply_lines(const server::Response& reply) {
  std::string out;
  for (const char* key :
       {"cycles_before", "cycles_after", "cycles_per_iter", "verified"}) {
    out += std::string(key) + " " + std::string(reply.option(key, "-")) + "\n";
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(reply.asm_text)));
  return out + "asm_fnv1a " + digest + "\n";
}

/// Splits a golden file into its per-input sections ("== <name>" header
/// lines, each followed by that input's lines).
std::vector<std::pair<std::string, std::string>> parse_golden(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> sections;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      sections.emplace_back(line.substr(3), "");
    } else if (!sections.empty()) {
      sections.back().second += line + "\n";
    }
  }
  return sections;
}

/// "line N: want '...' got '...'" for the first line where the two
/// streams part, or "" when they are equal.
std::string first_difference(const std::string& want, const std::string& got) {
  std::istringstream w(want), g(got);
  std::string wl, gl;
  for (int n = 1;; ++n) {
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    if (!more_w && !more_g) return "";
    if (!more_w) wl = "<end>";
    if (!more_g) gl = "<end>";
    if (!more_w || !more_g || wl != gl) {
      return "line " + std::to_string(n) + ": want '" + wl + "' got '" + gl +
             "'";
    }
  }
}

/// One golden file: its per-input sections, how a reply renders into one,
/// and the whole file this run computed.
struct Golden {
  const char* path;
  std::string (*lines)(const server::Response&);
  std::vector<std::pair<std::string, std::string>> sections;
  std::string actual;
  bool all_match = true;
};

TEST(CounterGoldens, EveryLegMatchesTheCommittedStream) {
  if (!obs::kHooksCompiledIn) {
    GTEST_SKIP() << "telemetry hooks compiled out (AIS_OBS=OFF)";
  }
  obs::set_enabled(true);  // as in aisd, which always runs with telemetry on
  ScheduleCache& cache = ScheduleCache::global();
  cache.set_enabled(true);
  cache.set_disk_dir("");

  const std::vector<GoldenInput> inputs = golden_inputs();
  Golden goldens[] = {{AIS_COUNTER_GOLDEN, counter_lines, {}, {}},
                      {AIS_REPLY_GOLDEN, reply_lines, {}, {}}};
  for (Golden& golden : goldens) {
    golden.sections = parse_golden(read_file(golden.path));
    golden.all_match = golden.sections.size() == inputs.size();
    EXPECT_EQ(golden.sections.size(), inputs.size())
        << golden.path << ": golden sections vs inputs";
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const GoldenInput& in = inputs[i];
    server::WorkerScratch scratch;
    server::Response bypass, miss, hit;
    {
      ScheduleCache::ScopedBypass no_cache;
      server::compile_ir(in.text, in.options, scratch, &bypass);
    }
    cache.clear();
    server::compile_ir(in.text, in.options, scratch, &miss);
    const std::uint64_t hits_before = obs::counter_value(obs::ctr::kCacheHits);
    server::compile_ir(in.text, in.options, scratch, &hit);
    ASSERT_TRUE(bypass.ok && miss.ok && hit.ok) << in.name;
    // Loop mode's candidate search does not go through the trace cache.
    if (in.options.mode != "loop") {
      EXPECT_GT(obs::counter_value(obs::ctr::kCacheHits), hits_before)
          << in.name << ": the third leg must be served from the cache";
    }

    for (Golden& golden : goldens) {
      golden.actual += "== " + in.name + "\n" + golden.lines(bypass);
      const std::string want =
          i < golden.sections.size() && golden.sections[i].first == in.name
              ? golden.sections[i].second
              : "<no section>\n";
      for (const auto& [leg, reply] :
           {std::pair<const char*, const server::Response*>{"bypass",
                                                            &bypass},
            {"miss", &miss},
            {"hit", &hit}}) {
        const std::string diff = first_difference(want, golden.lines(*reply));
        if (!diff.empty()) golden.all_match = false;
        EXPECT_TRUE(diff.empty())
            << golden.path << ": " << in.name << " (" << leg << "): " << diff;
      }
    }
  }
  obs::set_enabled(false);

  for (const Golden& golden : goldens) {
    if (golden.all_match) continue;
    const std::string path =
        ::testing::TempDir() +
        std::filesystem::path(golden.path).stem().string() + ".actual.txt";
    std::ofstream(path) << golden.actual;
    ADD_FAILURE() << "computed " << golden.path << " written to " << path;
  }
}

}  // namespace
}  // namespace ais
