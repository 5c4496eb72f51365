// The traced request: server::compile_ir's pipeline re-assembled from the
// program's public functions, with a span around each layer's call.  Its
// reply must be byte-identical to compile_ir's, otherwise the split would
// measure a different program; the traced run checks that on every request.
//
// Span names (the layer metrics are their self times):
//   ir.parse       parse_program_or_error
//   cfg.select     Cfg + select_traces, and materialize per trace
//   ir.depbuild    build_trace_graph / build_loop_graph
//   core.schedule  RankScheduler + schedule_trace, or
//                  schedule_single_block_loop
//   sim.loop_eval  the steady_state_period evaluator the loop search calls
//   driver.emit    reorder into blocks + text render (+ the cfg fold)
//   sim.simulate   simulated_completion for the report, or the final
//                  steady_state_period of a loop
//   verify.check   verify_schedule
#pragma once

#include <cstdint>
#include <string>

#include "server/compile_service.hpp"

namespace perfbench {

/// Work counts the traced request sees at the layer boundaries.
struct LayerCounts {
  std::uint64_t dep_edges = 0;        // edges of graphs built
  std::uint64_t loop_eval_calls = 0;  // evaluator invocations
  std::uint64_t traces = 0;           // traces scheduled (1 outside cfg)
};

/// Compiles `ir_text` like server::compile_ir, recording spans under the
/// caller's open RequestSpan.  Supports what the workloads request: trace,
/// loop (single-block bodies) and cfg modes, report and (cfg) verify, on
/// one compile job; anything else gets an ERR reply.
void traced_compile(const std::string& ir_text,
                    const ais::server::CompileOptions& options,
                    ais::server::WorkerScratch& scratch,
                    ais::server::Response* reply, LayerCounts* counts);

}  // namespace perfbench
