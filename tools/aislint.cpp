// aislint — static analyzer and schedule verifier for toy-ISA assembly and
// dependence graphs.
//
// The analysis half runs the src/analysis rule registry over the input
// program and its dependence graph (or over a bare .dg graph); the verify
// half re-derives every dependence from the IR (sharing no code with the
// scheduler's ir/depbuild.cpp) and checks that a compiled schedule respects
// them.
//
//   aislint --list-rules                     # print the rule catalog
//   aislint --in prog.s                      # analyze program + trace graph
//   aislint --in prog.s --verify             # ... and schedule + verify
//   aislint --in prog.s --against out.s      # verify out.s compiles prog.s
//   aislint --graph g.dg --machine vliw4     # analyze a dependence graph
//   aislint --in prog.s --fix --out g.dg     # proven transitive reduction
//
// Flags:
//   --in FILE        input assembly
//   --graph FILE     input dependence graph (.dg; graph rules only)
//   --mode MODE      trace (default) | loop | cfg — graph construction and
//                    how --verify schedules
//   --machine NAME   scalar01 | rs6000 (default) | deep | vliw4
//   --window N       lookahead window (0 = machine default)
//   --list-rules     print rule ids, default severities and summaries
//   --rule IDS       run only these comma-separated rules
//   --no-rule IDS    disable these comma-separated rules
//   --Werror[=IDS]   promote all (or the listed rules') warnings to errors
//   --notes          print note-severity findings (hidden by default)
//   --sarif[=FILE]   emit SARIF 2.1.0 (stdout, or to FILE)
//   --fix            transitive reduction with a schedule-identity proof
//                    (trace mode or --graph input only)
//   --out FILE       write the reduced graph as .dg (with --fix)
//   --rename         rename the input first (mirror `aisc --rename`)
//   --verify         schedule the input in-process and verify the result
//   --against FILE   verify FILE instead of scheduling in-process
//   --optimal        also attempt an optimality certificate (restricted
//                    machines; brute-force bounded)
//   --werror         legacy alias for bare --Werror
//   --quiet          suppress note diagnostics and the summary line
//
// Exit status (deterministic contract, see docs/ANALYSIS.md): 0 clean,
// 1 error-severity findings (or promoted warnings, or failed verification),
// 2 usage or I/O error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/fix.hpp"
#include "analysis/graph_text.hpp"
#include "analysis/sarif.hpp"
#include "cfg/cfg.hpp"
#include "driver/anticipatory.hpp"
#include "driver/function_compiler.hpp"
#include "ir/asm_parser.hpp"
#include "ir/depbuild.hpp"
#include "ir/rename.hpp"
#include "machine/machine_model.hpp"
#include "support/cli.hpp"
#include "verify/lint.hpp"
#include "verify/verify.hpp"

namespace {

using namespace ais;

const MachineModel& machine_by_name(const std::string& name) {
  const MachineModel* m = machine_preset(name);
  if (m == nullptr) {
    std::fprintf(stderr, "aislint: unknown machine '%s'\n", name.c_str());
    std::exit(2);
  }
  return *m;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "aislint: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(list);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Validates --rule / --no-rule / --Werror= ids against the registry so
/// typos fail loudly (exit 2) instead of silently running nothing.
void check_rule_ids(const std::vector<std::string>& ids) {
  for (const std::string& id : ids) {
    if (analysis::find_rule(id) == nullptr) {
      std::fprintf(stderr, "aislint: unknown rule '%s' (--list-rules)\n",
                   id.c_str());
      std::exit(2);
    }
  }
}

void list_rules() {
  std::printf("%-22s %-8s %s\n", "rule", "severity", "summary");
  for (const analysis::RuleInfo& info : analysis::rule_registry()) {
    std::printf("%-22s %-8s %s\n", info.id.c_str(),
                verify::severity_name(info.default_severity),
                info.summary.c_str());
  }
}

void print_verify_report(const verify::Report& report, bool quiet) {
  for (const verify::Diagnostic& d : report.diagnostics()) {
    if (quiet && d.severity == verify::Severity::kNote) continue;
    std::printf("%s\n", d.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  if (args.get_bool("list-rules", false)) {
    list_rules();
    return 0;
  }

  const std::string path = args.get_string("in", "");
  const std::string graph_path = args.get_string("graph", "");
  if (path.empty() && graph_path.empty()) {
    std::fprintf(stderr,
                 "usage: aislint (--in FILE | --graph FILE.dg) "
                 "[--mode trace|loop|cfg] [--machine NAME] [--window N] "
                 "[--list-rules] [--rule IDS] [--no-rule IDS] "
                 "[--Werror[=IDS]] [--notes] [--sarif[=FILE]] "
                 "[--fix [--out FILE]] [--rename] [--verify] "
                 "[--against FILE] [--optimal] [--quiet]\n");
    return 2;
  }

  const MachineModel& machine =
      machine_by_name(args.get_string("machine", "rs6000"));
  const int window = static_cast<int>(args.get_int("window", 0));
  const std::string mode = args.get_string("mode", "trace");
  if (mode != "trace" && mode != "loop" && mode != "cfg") {
    std::fprintf(stderr, "aislint: unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  const bool do_rename = args.get_bool("rename", false);
  const bool do_verify = args.get_bool("verify", false);
  const std::string against = args.get_string("against", "");
  const bool optimal = args.get_bool("optimal", false);
  const bool quiet = args.get_bool("quiet", false);
  const bool notes = args.get_bool("notes", false);
  const bool do_fix = args.get_bool("fix", false);

  // --- assemble the analysis configuration --------------------------------
  analysis::AnalysisOptions opts;
  opts.only = split_commas(args.get_string("rule", ""));
  opts.disabled = split_commas(args.get_string("no-rule", ""));
  check_rule_ids(opts.only);
  check_rule_ids(opts.disabled);
  const std::string werror_arg = args.get_string("Werror", "");
  if (werror_arg == "true" || args.get_bool("werror", false)) {
    opts.warnings_as_errors = true;
  } else if (!werror_arg.empty()) {
    opts.werror = split_commas(werror_arg);
    check_rule_ids(opts.werror);
  }

  // --- load the input and build the dependence graph ----------------------
  Program prog;
  DepGraph graph;
  bool have_program = false;
  bool have_graph = false;
  if (!graph_path.empty()) {
    std::string error;
    std::optional<DepGraph> parsed =
        analysis::parse_graph_text(read_file(graph_path), &error);
    if (!parsed) {
      std::fprintf(stderr, "aislint: %s: %s\n", graph_path.c_str(),
                   error.c_str());
      return 2;
    }
    graph = std::move(*parsed);
    have_graph = true;
  } else {
    prog = parse_program(read_file(path));
    have_program = true;
    // Structurally broken programs (mid-block branches, duplicate labels)
    // would trip depbuild's invariants; gate the graph phase on a clean
    // structural lint so the analysis can still report the defects.
    const bool structurally_sound =
        verify::lint_program(prog).num_errors() == 0;
    // cfg mode has no single trace graph; program rules still run.
    if (!structurally_sound) {
      // graph rules are skipped; the lint errors surface below.
    } else if (mode == "trace") {
      graph = build_trace_graph(Trace{prog.blocks}, machine);
      have_graph = true;
    } else if (mode == "loop") {
      Loop loop;
      loop.body = Trace{prog.blocks};
      graph = build_loop_graph(loop, machine);
      have_graph = true;
    }
  }

  analysis::AnalysisInput input;
  if (have_program) input.program = &prog;
  if (have_graph) input.graph = &graph;
  input.machine = &machine;
  const analysis::AnalysisResult result = analysis::run_analysis(input, opts);

  // --- output -------------------------------------------------------------
  const std::string sarif_arg = args.get_string("sarif", "");
  const std::string artifact = graph_path.empty() ? path : graph_path;
  if (sarif_arg == "true") {
    std::fputs(analysis::to_sarif(result, artifact).c_str(), stdout);
  } else if (!sarif_arg.empty()) {
    std::ofstream out(sarif_arg);
    if (!out.is_open()) {
      std::fprintf(stderr, "aislint: cannot write %s\n", sarif_arg.c_str());
      return 2;
    }
    out << analysis::to_sarif(result, artifact);
  } else {
    for (const analysis::Finding& f : result.findings) {
      if (f.severity == verify::Severity::kNote && (!notes || quiet)) {
        continue;
      }
      std::printf("%s\n", f.to_string().c_str());
    }
  }

  // --- --fix: proven transitive reduction ---------------------------------
  if (do_fix) {
    if (have_program && mode != "trace") {
      std::fprintf(stderr,
                   "aislint: --fix requires --mode trace or a --graph input "
                   "(the identity proof schedules through the trace "
                   "pipeline)\n");
      return 2;
    }
    const analysis::FixResult fixed =
        analysis::reduce_and_prove(graph, machine, window);
    if (!quiet) std::printf("fix: %s\n", fixed.detail.c_str());
    const std::string out_path = args.get_string("out", "");
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out.is_open()) {
        std::fprintf(stderr, "aislint: cannot write %s\n", out_path.c_str());
        return 2;
      }
      out << analysis::write_graph_text(fixed.graph, "reduced");
    }
  }

  // --- the verify half (unchanged contract) -------------------------------
  verify::Report report;
  if (have_program) {
    // The program the schedule must be a reordering of: renaming changes
    // registers, so verification compares against the renamed input,
    // exactly as `aisc --rename` compiles it.
    Trace original{prog.blocks};
    if (do_rename) original = rename_trace(original);

    // The compile pipeline and the verifier's dependence re-derivation
    // abort on an empty block or a mid-block branch, so such a program is
    // reported unverifiable instead of scheduled.
    const std::string structure_error = block_structure_error(prog);
    if ((do_verify || !against.empty()) && !structure_error.empty()) {
      report.error("not-verified", "cannot verify: " + structure_error);
    } else if (!against.empty()) {
      const Program compiled = parse_program(read_file(against));
      verify::VerifyOptions vopts;
      vopts.window = window == 0 ? machine.default_window() : window;
      vopts.check_optimality = optimal;
      report.merge(
          verify::check_emitted(original, compiled.blocks, machine, vopts));
    } else if (do_verify) {
      if (mode == "cfg") {
        const Cfg cfg(prog);
        const CompiledProgram compiled =
            compile_program(cfg, machine, window, /*verify=*/true);
        report.merge(compiled.verification);
      } else if (mode == "loop") {
        Loop loop;
        loop.body = original;
        const ScheduledLoop scheduled = schedule(loop, machine, window);
        report.merge(verify_schedule(loop, scheduled, machine));
      } else {
        const ScheduledTrace scheduled = schedule(original, machine, window);
        report.merge(verify_schedule(original, scheduled, machine, optimal));
      }
    }
    print_verify_report(report, quiet);
  }

  const bool verify_failed =
      !report.ok() ||
      (opts.warnings_as_errors && report.num_warnings() > 0);
  const bool failed = result.num_errors > 0 || verify_failed;
  // SARIF-on-stdout must stay pure JSON for downstream consumers.
  if (!quiet && sarif_arg != "true") {
    std::printf("aislint: %s — %zu error(s), %zu warning(s), %zu note(s)\n",
                failed ? "FAIL" : "ok",
                result.num_errors + report.num_errors(),
                result.num_warnings + report.num_warnings(),
                result.num_notes);
  }
  return failed ? 1 : 0;
}
