// End-to-end tests of the aisc, aisd and aislint command-line drivers:
// invoke the real binaries on real assembly files and check their output
// parses, preserves semantics, and reproduces the paper's Figure 3
// transformation; aisd rejects bad flags and shuts down cleanly on SIGTERM.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/asm_parser.hpp"
#include "ir/instruction.hpp"
#include "ir/interp.hpp"
#include "obs/obs.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "support/prng.hpp"
#include "workloads/random_ir.hpp"

#ifndef AISC_BINARY
#error "AISC_BINARY must point at the aisc executable"
#endif
#ifndef AISD_BINARY
#error "AISD_BINARY must point at the aisd executable"
#endif
#ifndef AISLINT_BINARY
#error "AISLINT_BINARY must point at the aislint executable"
#endif
#ifndef AISPROF_BINARY
#error "AISPROF_BINARY must point at the aisprof executable"
#endif
#ifndef AIS_EXAMPLES_DIR
#error "AIS_EXAMPLES_DIR must point at the shipped examples/"
#endif

namespace ais {
namespace {

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

/// Runs aisc with `args`, returns stdout; fails the test on nonzero exit.
std::string run_aisc(const std::string& args) {
  const std::string out_path = ::testing::TempDir() + "/aisc_out.txt";
  const std::string cmd =
      std::string(AISC_BINARY) + " " + args + " > " + out_path + " 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << cmd;
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs a tool command line; returns its exit code and captures stdout.
int run_tool(const std::string& cmd, std::string* out) {
  const std::string out_path = ::testing::TempDir() + "/tool_out.txt";
  const int status =
      std::system((cmd + " > " + out_path + " 2>/dev/null").c_str());
  if (out != nullptr) {
    std::ifstream in(out_path);
    std::ostringstream text;
    text << in.rdbuf();
    *out = text.str();
  }
  return status;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Like run_tool, but also captures stderr (where aisc sends --report,
/// --profile and diagnostics, keeping stdout parseable as assembly).
int run_tool_with_stderr(const std::string& cmd, std::string* out,
                         std::string* err) {
  const std::string out_path = ::testing::TempDir() + "/tool_out.txt";
  const std::string err_path = ::testing::TempDir() + "/tool_err.txt";
  const int status =
      std::system((cmd + " > " + out_path + " 2> " + err_path).c_str());
  if (out != nullptr) *out = slurp(out_path);
  if (err != nullptr) *err = slurp(err_path);
  return status;
}

const char* kFig3 = R"(
block CL.18:
  LDU r6, x[r7+4]
  STU y[r5+4], r0
  CMP c1, r6, 0
  MUL r0, r6, r0
  BT  c1, CL.1
)";

TEST(Aisc, LoopModeReproducesPaperSchedule2) {
  const std::string in = write_temp("fig3.s", kFig3);
  const std::string out =
      run_aisc("--in " + in + " --mode loop --machine rs6000 --window 1");
  const Program prog = parse_program(out);
  ASSERT_EQ(prog.blocks.size(), 1u);
  ASSERT_EQ(prog.blocks[0].insts.size(), 5u);
  // Schedule 2: MUL before CMP.
  EXPECT_EQ(prog.blocks[0].insts[2].op, Opcode::kMul);
  EXPECT_EQ(prog.blocks[0].insts[3].op, Opcode::kCmp);
}

TEST(Aisc, TraceModePreservesSemantics) {
  const char* text = R"(
    block a:
      LI  r1, 5
      LI  r2, 7
      MUL r3, r1, r2
      ADD r4, r3, r1
      CMP c1, r4, 0
      BT  c1, b
    block b:
      SHL r5, r4, 2
      ST  out[r9+0], r5
  )";
  const std::string in = write_temp("trace.s", text);
  const std::string out = run_aisc("--in " + in + " --machine deep");
  const Trace original{parse_program(text).blocks};
  const Trace scheduled{parse_program(out).blocks};
  const InterpState init = InterpState::random(12);
  EXPECT_TRUE(run_trace(scheduled, init) == run_trace(original, init));
}

TEST(Aisc, OutputRoundTripsThroughItself) {
  const std::string in = write_temp("fig3b.s", kFig3);
  const std::string once =
      run_aisc("--in " + in + " --mode loop --window 1");
  const std::string once_path = write_temp("fig3_once.s", once);
  const std::string twice =
      run_aisc("--in " + once_path + " --mode loop --window 1");
  EXPECT_EQ(once, twice);  // scheduling is idempotent through the CLI
}

TEST(Aisc, CfgModeKeepsLayout) {
  const char* text = R"(
    block entry:
      LDU r6, a[r7+4]
      CMP c1, r6, 0
      BT  c1, cold
    block hot:
      ADD r1, r6, r6
      ST  out[r9+0], r1
    block cold:
      SUB r2, r6, r6
  )";
  const std::string in = write_temp("cfg.s", text);
  const std::string out = run_aisc("--in " + in + " --mode cfg");
  const Program prog = parse_program(out);
  ASSERT_EQ(prog.blocks.size(), 3u);
  EXPECT_EQ(prog.blocks[0].label, "entry");
  EXPECT_EQ(prog.blocks[1].label, "hot");
  EXPECT_EQ(prog.blocks[2].label, "cold");
}

TEST(Aisc, RenameFlagKeepsArchitecturalSemantics) {
  const char* text = R"(
    block r:
      LI  r1, 3
      ADD r2, r1, r1
      LI  r1, 9
      ADD r3, r1, r2
  )";
  const std::string in = write_temp("ren.s", text);
  const std::string out = run_aisc("--in " + in + " --rename");
  const Trace original{parse_program(text).blocks};
  const Trace scheduled{parse_program(out).blocks};
  const InterpState init = InterpState::random(3);
  EXPECT_TRUE(run_trace(scheduled, init)
                  .equal_architectural(run_trace(original, init), 128));
}

TEST(Aislint, VerifiesEveryShippedExample) {
  const char* examples[] = {"fig3_loop.s", "two_block_trace.s",
                            "diamond_cfg.s", "memory_alias.s"};
  for (const char* name : examples) {
    const std::string cmd = std::string(AISLINT_BINARY) + " --in " +
                            AIS_EXAMPLES_DIR + "/" + name + " --verify";
    std::string out;
    EXPECT_EQ(run_tool(cmd, &out), 0) << cmd << "\n" << out;
  }
}

TEST(Aislint, RejectsStructurallyBrokenProgram) {
  // A branch in the middle of a block is a lint error, not just a warning.
  const char* text = R"(
    block a:
      LI  r1, 5
      BT  c1, a
      ADD r2, r1, r1
  )";
  const std::string in = write_temp("broken.s", text);
  std::string out;
  EXPECT_NE(run_tool(std::string(AISLINT_BINARY) + " --in " + in, &out), 0);
  EXPECT_NE(out.find("branch-position"), std::string::npos) << out;

  // --verify cannot schedule a program with an empty block or a mid-block
  // branch: it reports the program unverifiable and exits 1, in every mode,
  // instead of aborting in the compile pipeline.
  struct Case {
    const char* name;
    const char* text;
    const char* message;
  };
  for (const Case& c : {
           Case{"lone_empty_block", "block A:\n",
                "block A: a block must hold at least one instruction"},
           Case{"empty_last_block", "block A:\n  ADD r1, r2, r3\nblock B:\n",
                "block B: a block must hold at least one instruction"},
           Case{"empty_first_block", "block A:\nblock B:\n  ADD r1, r2, r3\n",
                "block A: a block must hold at least one instruction"},
           Case{"midblock_branch", text, "must be the final instruction"},
       }) {
    const std::string path = write_temp(std::string(c.name) + ".s", c.text);
    for (const char* mode : {"trace", "loop", "cfg"}) {
      const std::string tag = std::string(c.name) + " --mode " + mode;
      const int status = run_tool(std::string(AISLINT_BINARY) + " --in " +
                                      path + " --verify --mode " + mode,
                                  &out);
      ASSERT_TRUE(WIFEXITED(status)) << tag << ": killed by a signal";
      EXPECT_EQ(WEXITSTATUS(status), 1) << tag;
      EXPECT_NE(out.find("error[not-verified]"), std::string::npos)
          << tag << "\n" << out;
      EXPECT_NE(out.find(c.message), std::string::npos) << tag << "\n" << out;
    }
  }
}

/// IR text the compile pipeline rejects: parse_program_or_error refuses it
/// (`parse_error`), or it parses but block_structure_error refuses it.
/// `message` is the reason, as compile_ir reports it after "bad IR: ".
struct BadIr {
  std::string name;
  std::string text;
  std::string message;
  bool parse_error = true;
};

const std::vector<BadIr>& bad_ir_cases() {
  static const std::vector<BadIr> cases = {
      {"midblock_branch",
       "block a:\n  ADD r1, r2, r3\n  B   a\n  ADD r4, r1, r1\n", "block a",
       false},
      {"unknown_opcode", "block a:\n  QUUX r1, r2\n",
       "line 2: unknown opcode: QUUX\n"},
      {"empty_file", "", "empty program\n"},
      {"lone_empty_block", "block A:\n",
       "block A: a block must hold at least one instruction\n", false},
      {"empty_last_block", "block A:\n  ADD r1, r2, r3\nblock B:\n",
       "block B: a block must hold at least one instruction\n", false},
      {"empty_first_block", "block A:\nblock B:\n  ADD r1, r2, r3\n",
       "block A: a block must hold at least one instruction\n", false},
      // Once compiled with immediate 0, offset 4 or dropped operands, or
      // answered with a bare libstdc++ "stoi"/"stoll", or aborted on.
      {"label_immediate", "block a:\n  LI r1, foo\n",
       "line 2: operand 1 must be an immediate\n"},
      {"label_compare_immediate", "block a:\n  CMP c1, r2, bar\n",
       "line 2: operand 2 must be an immediate\n"},
      {"malformed_alu_immediate", "block a:\n  ADD r1, r2, 5x\n",
       "line 2: operand 2 must be a register or an immediate\n"},
      {"offset_junk", "block a:\n  LD r1, x[r2+4junk]\n",
       "line 2: bad memory offset: x[r2+4junk]\n"},
      {"extra_operand", "block a:\n  ADD r1, r2, r3, r4\n",
       "line 2: too many operands for ADD: got 4, at most 3\n"},
      {"nop_operand", "block a:\n  NOP r1\n",
       "line 2: too many operands for NOP: got 1, at most 0\n"},
      {"huge_register", "block a:\n  ADD r99999999999, r1, r2\n",
       "line 2: operand 0 must be a register\n"},
      {"huge_offset", "block a:\n  LD r1, x[r2+99999999999]\n",
       "line 2: memory offset out of range: x[r2+99999999999]\n"},
      {"huge_immediate", "block a:\n  LI r1, 99999999999999999999\n",
       "line 2: immediate out of range: 99999999999999999999\n"},
      {"compare_into_gpr", "block a:\n  CMP r1, r2\n",
       "line 2: operand 0 must be a condition register\n"},
      {"branch_on_gpr", "block a:\n  BT r1, a\n",
       "line 2: operand 0 must be a condition register\n"},
  };
  return cases;
}

/// Every input the compile pipeline rejects, and every argument outside
/// aisc's flag list, exits 1 with a message, in every mode — never a
/// signal, never partial output on stdout.
TEST(Aisc, BadInputsExitNonZeroWithoutAborting) {
  struct Case {
    std::string name;
    std::string text;
    const char* flags;
    std::string message;
    const char* in_flag = " --in ";
  };
  const std::string valid = "block a:\n  LI r1, 1\n  ADD r2, r1, r1\n";
  std::vector<Case> cases = {
      {"negative_window", valid, " --window -3",
       "aisc: window must be nonnegative, got -3\n"},
      {"positional_input", valid, "", "aisc: unexpected argument '", " "},
      {"unknown_flag", valid, " --windw 3", "aisc: unknown flag --windw\n"},
  };
  for (const BadIr& ir : bad_ir_cases()) {
    cases.push_back({ir.name, ir.text, "", "aisc: bad IR: " + ir.message});
  }
  for (const Case& c : cases) {
    const std::string in = write_temp(c.name + ".s", c.text);
    for (const char* mode : {"trace", "loop", "cfg"}) {
      const std::string tag = c.name + " --mode " + mode;
      std::string out, err;
      const int status = run_tool_with_stderr(std::string(AISC_BINARY) +
                                                  c.in_flag + in + " --mode " +
                                                  mode + c.flags,
                                              &out, &err);
      ASSERT_TRUE(WIFEXITED(status)) << tag << ": killed by a signal\n" << err;
      EXPECT_EQ(WEXITSTATUS(status), 1) << tag;
      EXPECT_TRUE(out.empty()) << tag;
      EXPECT_EQ(err.rfind("aisc: ", 0), 0u) << tag << ": " << err;
      EXPECT_NE(err.find(c.message), std::string::npos) << tag << ": " << err;
    }
  }
}

/// aisprof rejects what compile_ir rejects — malformed text, broken block
/// structure, a negative window — with a message and exit 2, the code of
/// its other input errors, in every mode; never a signal.
TEST(Aisprof, BadInputsExitTwoWithoutAborting) {
  struct Case {
    std::string name;
    std::string path;
    const char* flags;
    std::string message;
  };
  std::vector<Case> cases;
  for (const BadIr& ir : bad_ir_cases()) {
    const std::string in = write_temp("prof_" + ir.name + ".s", ir.text);
    cases.push_back({ir.name, in, "", "aisprof: " + in + ": " + ir.message});
  }
  cases.push_back({"negative_window",
                   write_temp("prof_valid.s",
                              "block a:\n  LI r1, 1\n  ADD r2, r1, r1\n"),
                   " --window -3",
                   "aisprof: window must be nonnegative, got -3\n"});
  for (const Case& c : cases) {
    for (const char* mode : {"trace", "loop", "cfg"}) {
      const std::string tag = c.name + " --mode " + mode;
      std::string out, err;
      const int status = run_tool_with_stderr(
          std::string(AISPROF_BINARY) + " --in " + c.path + " --mode " + mode +
              c.flags,
          &out, &err);
      ASSERT_TRUE(WIFEXITED(status)) << tag << ": killed by a signal\n" << err;
      EXPECT_EQ(WEXITSTATUS(status), 2) << tag;
      EXPECT_NE(err.find(c.message), std::string::npos) << tag << ": " << err;
    }
  }
}

/// aislint reports malformed assembly, as the input or as the --against
/// compilation, and a negative window as input errors: a message and exit
/// 2, never a signal.
TEST(Aislint, BadInputsExitTwoWithoutAborting) {
  const std::string valid =
      write_temp("lint_valid.s", "block a:\n  LI r1, 1\n  ADD r2, r1, r1\n");
  for (const BadIr& ir : bad_ir_cases()) {
    if (!ir.parse_error) continue;  // aislint reports these as findings
    const std::string bad = write_temp("lint_" + ir.name + ".s", ir.text);
    for (const std::string& args :
         {" --in " + bad, " --in " + valid + " --against " + bad}) {
      const std::string tag = ir.name + args;
      std::string out, err;
      const int status =
          run_tool_with_stderr(std::string(AISLINT_BINARY) + args, &out, &err);
      ASSERT_TRUE(WIFEXITED(status)) << tag << ": killed by a signal\n" << err;
      EXPECT_EQ(WEXITSTATUS(status), 2) << tag;
      EXPECT_NE(err.find("aislint: " + bad + ": " + ir.message),
                std::string::npos)
          << tag << ": " << err;
    }
  }
  std::string out, err;
  const int status = run_tool_with_stderr(
      std::string(AISLINT_BINARY) + " --in " + valid + " --verify --window -3",
      &out, &err);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal\n" << err;
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_NE(err.find("aislint: window must be nonnegative, got -3\n"),
            std::string::npos)
      << err;
}

/// aisc formats --report from the compile reply's status options; each
/// mode's line is pinned byte for byte.
TEST(Aisc, ReportLinePerMode) {
  struct Case {
    const char* file;
    const char* mode;
    const char* line;
  };
  for (const Case& c :
       {Case{"two_block_trace.s", "trace", "aisc: 15 -> 15 cycles at W = 6\n"},
        Case{"fig3_loop.s", "loop", "aisc: 6.00 cycles/iteration at W = 6\n"},
        Case{"diamond_cfg.s", "cfg",
             "aisc: hot trace 10 -> 10 cycles at W = 6\n"}}) {
    std::string out, err;
    ASSERT_EQ(run_tool_with_stderr(std::string(AISC_BINARY) + " --in " +
                                       AIS_EXAMPLES_DIR + "/" + c.file +
                                       " --mode " + c.mode + " --report",
                                   &out, &err),
              0)
        << c.file;
    EXPECT_FALSE(out.empty()) << c.file;
    EXPECT_EQ(err, c.line) << c.file;
  }
}

TEST(Aislint, ListRulesPrintsTheRegistry) {
  std::string out;
  ASSERT_EQ(run_tool(std::string(AISLINT_BINARY) + " --list-rules", &out), 0);
  for (const char* id : {"branch-position", "dead-def", "dep-cycle",
                         "latency-mismatch", "redundant-dep-edge",
                         "schedule-advisor"}) {
    EXPECT_NE(out.find(id), std::string::npos) << id << "\n" << out;
  }
}

TEST(Aislint, GraphInputHonorsRuleSelectionAndExitContract) {
  const std::string fixture =
      std::string(AIS_ANALYSIS_CORPUS_DIR) + "/dep_cycle.dg";
  std::string out;
  // The staged defect is an error: exit 1 with the rule named.
  EXPECT_NE(run_tool(std::string(AISLINT_BINARY) + " --graph " + fixture,
                     &out),
            0);
  EXPECT_NE(out.find("dep-cycle"), std::string::npos) << out;
  // Disabling the rule (or selecting a disjoint one) makes the run clean.
  EXPECT_EQ(run_tool(std::string(AISLINT_BINARY) + " --graph " + fixture +
                         " --no-rule=dep-cycle",
                     &out),
            0);
  EXPECT_EQ(run_tool(std::string(AISLINT_BINARY) + " --graph " + fixture +
                         " --rule=latency-mismatch",
                     &out),
            0);
  // Unknown rule ids are a usage error, not a silent no-op.
  EXPECT_NE(run_tool(std::string(AISLINT_BINARY) + " --graph " + fixture +
                         " --rule=no-such-rule",
                     nullptr),
            0);
}

TEST(Aislint, SarifOutputIsPureAndWerrorPromotes) {
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/fig3_loop.s";
  std::string out;
  run_tool(std::string(AISLINT_BINARY) + " --in " + example + " --sarif",
           &out);
  // Machine output: starts with the SARIF object, no human summary line.
  EXPECT_EQ(out.find('{'), 0u) << out;
  EXPECT_NE(out.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_EQ(out.find("aislint: "), std::string::npos) << out;
  // fig3_loop's use-before-def warnings promote to a failing exit.
  EXPECT_EQ(run_tool(std::string(AISLINT_BINARY) + " --in " + example, &out),
            0);
  EXPECT_NE(run_tool(std::string(AISLINT_BINARY) + " --in " + example +
                         " --Werror=use-before-def",
                     &out),
            0);
}

TEST(Aislint, FixWritesAReducedGraphThatReanalyzesClean) {
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/memory_alias.s";
  const std::string reduced = ::testing::TempDir() + "/reduced.dg";
  std::string out;
  ASSERT_EQ(run_tool(std::string(AISLINT_BINARY) + " --in " + example +
                         " --fix --out " + reduced,
                     &out),
            0);
  EXPECT_NE(out.find("byte-identical"), std::string::npos) << out;
  // The written .dg parses and carries no remaining redundant edges.
  ASSERT_EQ(run_tool(std::string(AISLINT_BINARY) + " --graph " + reduced +
                         " --notes",
                     &out),
            0);
  EXPECT_EQ(out.find("redundant-dep-edge"), std::string::npos) << out;
}

TEST(Aislint, AcceptsAiscOutputAgainstItsSource) {
  const char* text = R"(
    block a:
      LI  r1, 5
      LI  r2, 7
      MUL r3, r1, r2
      ADD r4, r3, r1
      CMP c1, r4, 0
      BT  c1, b
    block b:
      SHL r5, r4, 2
      ST  out[r9+0], r5
  )";
  const std::string in = write_temp("lint_src.s", text);
  const std::string compiled = run_aisc("--in " + in + " --machine rs6000");
  const std::string out_path = write_temp("lint_out.s", compiled);
  const std::string cmd = std::string(AISLINT_BINARY) + " --in " + in +
                          " --against " + out_path + " --machine rs6000";
  std::string out;
  EXPECT_EQ(run_tool(cmd, &out), 0) << out;
}

TEST(Aisc, QuietWithoutTelemetryFlags) {
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/two_block_trace.s";
  std::string out, err;
  ASSERT_EQ(run_tool_with_stderr(std::string(AISC_BINARY) + " --in " + example,
                                 &out, &err),
            0);
  EXPECT_TRUE(err.empty()) << err;  // telemetry is strictly opt-in
}

TEST(Aisc, ProfileFlagPrintsPhaseTableAndCounters) {
  if (!obs::kHooksCompiledIn) {
    GTEST_SKIP() << "pipeline instrumentation compiled out (AIS_OBS=OFF)";
  }
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/two_block_trace.s";
  std::string out, err;
  ASSERT_EQ(run_tool_with_stderr(std::string(AISC_BINARY) + " --in " +
                                     example + " --profile",
                                 &out, &err),
            0);
  // stdout still carries the schedule; the profile goes to stderr.
  EXPECT_FALSE(parse_program(out).blocks.empty());
  EXPECT_NE(err.find("pipeline profile"), std::string::npos) << err;
  for (const char* phase :
       {"rank", "move_idle", "merge", "chop", "emit", "lookahead"}) {
    EXPECT_NE(err.find(phase), std::string::npos) << "missing phase " << phase
                                                  << " in:\n" << err;
  }
  // The acceptance bar: at least 8 distinct counters in the report.
  int counters = 0;
  for (const char* name :
       {"rank.runs", "rank.nodes_ranked", "merge.calls", "merge.relax_rounds",
        "move_idle.attempts", "move_idle.moved", "chop.calls", "chop.points",
        "lookahead.blocks", "lookahead.window_span_gt_w"}) {
    if (err.find(name) != std::string::npos) ++counters;
  }
  EXPECT_GE(counters, 8) << err;
}

/// --profile counts the disk writes of its own run: the disk tier writes
/// in the background, and aisc lands every queued entry before it reports.
TEST(Aisc, ProfileCountsTheDiskWritesItMade) {
  if (!obs::kHooksCompiledIn) {
    GTEST_SKIP() << "pipeline instrumentation compiled out (AIS_OBS=OFF)";
  }
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "aisc_profile_cache";
  std::filesystem::remove_all(dir);
  std::string out, err;
  ASSERT_EQ(run_tool_with_stderr(std::string(AISC_BINARY) + " --in " +
                                     AIS_EXAMPLES_DIR +
                                     "/diamond_cfg.s --mode cfg --cache-dir " +
                                     dir.string() + " --profile",
                                 &out, &err),
            0)
      << err;
  const std::size_t row = err.find("| cache.disk_writes ");
  ASSERT_NE(row, std::string::npos) << err;
  EXPECT_EQ(std::stoll(err.substr(err.find('|', row + 1) + 1)), 2) << err;
  int files = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    files += f.path().extension() == ".aisc" ? 1 : 0;
  }
  EXPECT_EQ(files, 2);
  std::filesystem::remove_all(dir);
}

TEST(Aisc, TraceJsonWritesPerfettoLoadableFile) {
  if (!obs::kHooksCompiledIn) {
    GTEST_SKIP() << "pipeline instrumentation compiled out (AIS_OBS=OFF)";
  }
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/two_block_trace.s";
  const std::string trace = ::testing::TempDir() + "/aisc_trace.json";
  std::string out, err;
  ASSERT_EQ(run_tool_with_stderr(std::string(AISC_BINARY) + " --in " +
                                     example + " --trace-json " + trace,
                                 &out, &err),
            0);
  const std::string json = slurp(trace);
  ASSERT_FALSE(json.empty());
  // Structural spot checks; test_obs.cpp certifies the JSON grammar and the
  // CI telemetry job runs a real JSON parser over the same output.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank\""), std::string::npos);
}

TEST(Aisprof, FileReportCoversPhasesStatsAndStalls) {
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/two_block_trace.s";
  std::string out;
  ASSERT_EQ(run_tool(std::string(AISPROF_BINARY) + " --in " + example, &out),
            0);
  for (const char* section :
       {"compile:", "cycles:", "stall attribution",
        "window occupancy histogram"}) {
    EXPECT_NE(out.find(section), std::string::npos)
        << "missing '" << section << "' in:\n" << out;
  }
}

TEST(Aisprof, WindowSpanSurveyReportsFractions) {
  std::string out;
  ASSERT_EQ(run_tool(std::string(AISPROF_BINARY) +
                         " --random-traces 10 --blocks 2 --nodes 6",
                     &out),
            0);
  EXPECT_NE(out.find("window-span survey"), std::string::npos) << out;
  EXPECT_NE(out.find("span > W fraction"), std::string::npos) << out;
}

TEST(Aislint, RejectsCorruptedCompilation) {
  const char* text = R"(
    block a:
      LI  r1, 5
      MUL r3, r1, r1
      ADD r4, r3, r1
  )";
  // A "compilation" that reverses the dependent chain must be rejected.
  const char* corrupted = R"(
    block a:
      ADD r4, r3, r1
      MUL r3, r1, r1
      LI  r1, 5
  )";
  const std::string in = write_temp("lint_good.s", text);
  const std::string bad = write_temp("lint_bad.s", corrupted);
  const std::string cmd = std::string(AISLINT_BINARY) + " --in " + in +
                          " --against " + bad;
  std::string out;
  EXPECT_NE(run_tool(cmd, &out), 0);
  EXPECT_NE(out.find("dep-order"), std::string::npos) << out;
}

/// Starts aisd with `args` and its stderr redirected to `err_path`; returns
/// its pid, or 0 (with a test failure recorded) when the spawn failed.
pid_t spawn_aisd(const std::vector<std::string>& args,
                 const std::string& err_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> argv = {const_cast<char*>(AISD_BINARY)};
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, AISD_BINARY, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  EXPECT_EQ(spawned, 0) << std::strerror(spawned);
  return spawned == 0 ? pid : 0;
}

/// A flag outside aisd's list — here one of the deleted micro-batch knobs —
/// is a usage error before anything binds: a script that still passes it
/// learns so instead of silently getting different behaviour.
TEST(Aisd, UnknownFlagExitsNonZeroWithoutListening) {
  const std::string socket = ::testing::TempDir() + "/aisd_badflag_" +
                             std::to_string(::getpid()) + ".sock";
  std::string err;
  const int status = run_tool_with_stderr(std::string(AISD_BINARY) +
                                              " --socket " + socket +
                                              " --batch-window-us 200",
                                          nullptr, &err);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal\n" << err;
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_NE(err.find("--batch-window-us"), std::string::npos) << err;
  EXPECT_NE(::access(socket.c_str(), F_OK), 0) << "aisd bound " << socket;
}

/// SIGTERM runs the same graceful stop as the SHUTDOWN verb: every admitted
/// request is answered, then aisd writes --metrics-out and exits 0.  aisd's
/// signal watcher and main's wait() both call stop(); with cold compiles
/// still queued, main must not write the metrics or destroy the server
/// until the watcher's drain has finished.
TEST(Aisd, SigtermDrainsAdmittedWorkAndWritesMetrics) {
  const std::string dir = ::testing::TempDir();
  const std::string tag = std::to_string(::getpid());
  const std::string socket = dir + "/aisd_sigterm_" + tag + ".sock";
  const std::string metrics = dir + "/aisd_sigterm_" + tag + ".prom";
  const std::string err_path = dir + "/aisd_sigterm_" + tag + ".err";
  // A socket left by an earlier run would accept the connect below before
  // this aisd has blocked SIGTERM.
  std::remove(socket.c_str());
  std::remove(metrics.c_str());

  const pid_t pid = spawn_aisd({"--socket", socket, "--threads", "2",
                                "--cache", "false", "--metrics-out", metrics},
                               err_path);
  ASSERT_NE(pid, 0);

  // The connect retries until aisd listens, which is after it blocked
  // SIGTERM.  Then a backlog of cold compiles (cache off) and a PING: the
  // reader answers PING after admitting every frame before it, so once its
  // reply is in, SIGTERM lands with the whole backlog admitted.
  server::Client client;
  client.set_connect_retry_ms(10'000);
  std::string error;
  Prng prng(7);
  RandomIrParams params;
  params.num_insts = 16;
  server::Request compile;
  compile.verb = server::kVerbCompile;
  for (const BasicBlock& bb : random_ir_trace(prng, params, 12).blocks) {
    compile.body += "block " + bb.label + ":\n";
    for (const Instruction& inst : bb.insts) {
      compile.body += "  " + inst.to_string() + "\n";
    }
  }
  constexpr int kCompiles = 48;
  bool sent = client.connect(socket, &error);
  for (int i = 0; sent && i < kCompiles; ++i) {
    compile.options["id"] = std::to_string(i);
    sent = client.send(compile, &error);
  }
  server::Request ping;
  ping.verb = server::kVerbPing;
  sent = sent && client.send(ping, &error);
  int answered = 0;
  bool pinged = false;
  server::Response resp;
  while (sent && !pinged && client.receive(&resp, &error)) {
    pinged = resp.option("id").empty();
    if (!pinged && resp.ok) ++answered;
  }

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(pinged) << error;
  while (client.receive(&resp, &error)) {
    if (resp.ok) ++answered;
  }

  const std::string err = slurp(err_path);
  ASSERT_TRUE(WIFEXITED(status))
      << "killed by signal " << WTERMSIG(status) << "\n" << err;
  EXPECT_EQ(WEXITSTATUS(status), 0) << err;
  EXPECT_NE(err.find("aisd: clean shutdown"), std::string::npos) << err;
  EXPECT_EQ(answered, kCompiles) << "admitted compiles left unanswered";
  const std::string exposition = slurp(metrics);
  EXPECT_NE(exposition.find("# TYPE server_request_us histogram"),
            std::string::npos)
      << exposition;
}

/// Bodies that used to abort a live daemon — an empty block in each
/// position, a mid-block branch — get an ERR reply in every mode, as does
/// the deleted file= option; afterwards aisd still answers PING and shuts
/// down cleanly on SIGTERM.
TEST(Aisd, MalformedBodiesGetErrorRepliesAndTheDaemonSurvives) {
  const std::string dir = ::testing::TempDir();
  const std::string tag = std::to_string(::getpid());
  const std::string socket = dir + "/aisd_malformed_" + tag + ".sock";
  const std::string err_path = dir + "/aisd_malformed_" + tag + ".err";
  std::remove(socket.c_str());
  const pid_t pid =
      spawn_aisd({"--socket", socket, "--threads", "2"}, err_path);
  ASSERT_NE(pid, 0);

  struct Case {
    std::string name;
    std::string payload;
    std::string message;
  };
  std::vector<Case> cases = {
      {"file option", "COMPILE file=/dev/zero\n",
       "unknown COMPILE option 'file'"},
  };
  for (const char* mode : {"trace", "loop", "cfg"}) {
    for (const auto& [body, message] :
         {std::pair<std::string, std::string>{
              "block A:\n",
              "bad IR: block A: a block must hold at least one instruction"},
          {"block A:\n  ADD r1, r2, r3\nblock B:\n",
           "bad IR: block B: a block must hold at least one instruction"},
          {"block A:\nblock B:\n  ADD r1, r2, r3\n",
           "bad IR: block A: a block must hold at least one instruction"},
          {"block a:\n  ADD r1, r2, r3\n  B   a\n  ADD r4, r1, r1\n",
           "bad IR: block a: branch 'B a' must be the final instruction of "
           "its block"}}) {
      cases.push_back({std::string(mode) + ": " + body,
                       "COMPILE mode=" + std::string(mode) + "\n" + body,
                       message});
    }
  }

  // No ASSERT until aisd is reaped: a failed round trip must not leave the
  // daemon running.
  server::Client client;
  client.set_connect_retry_ms(10'000);
  std::string error;
  bool connected = client.connect(socket, &error);
  std::vector<std::string> replies;
  for (const Case& c : cases) {
    server::Response resp;
    if (!connected || !client.send_payload(c.payload, &error) ||
        !client.receive(&resp, &error)) {
      break;
    }
    replies.push_back(resp.ok ? "OK" : "ERR " + resp.message);
  }
  server::Request ping;
  ping.verb = server::kVerbPing;
  server::Response pong;
  const bool pinged = connected && client.call(ping, &pong, &error);
  client.close();

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  const std::string err = slurp(err_path);
  ASSERT_TRUE(WIFEXITED(status))
      << "killed by signal " << WTERMSIG(status) << "\n" << err;
  EXPECT_EQ(WEXITSTATUS(status), 0) << err;
  ASSERT_EQ(replies.size(), cases.size()) << error << "\n" << err;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(replies[i], "ERR " + cases[i].message) << cases[i].name;
  }
  EXPECT_TRUE(pinged) << error;
  EXPECT_TRUE(pong.ok) << pong.message;
}

}  // namespace
}  // namespace ais
