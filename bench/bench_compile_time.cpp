// E11: scheduler runtime scaling (google-benchmark).
//
// The paper defers empirical evaluation; §4.1 argues the deadline-relaxation
// loop does not change the asymptotic cost.  This bench measures wall time
// of the Rank Algorithm, Delay_Idle_Slots and full Algorithm Lookahead as
// block / trace size grows, the loop search and its steady-state simulator,
// the IR front end (parse, dependence build) and a whole warm request
// around them, and the verifier's dependence derivation and whole-program
// check.
#include <algorithm>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "cfg/cfg.hpp"
#include "cfg/trace_select.hpp"
#include "core/lookahead.hpp"
#include "core/loop_single.hpp"
#include "core/merge.hpp"
#include "core/move_idle.hpp"
#include "core/rank.hpp"
#include "core/schedule_cache.hpp"
#include "driver/anticipatory.hpp"
#include "driver/function_compiler.hpp"
#include "ir/asm_parser.hpp"
#include "ir/depbuild.hpp"
#include "machine/machine_model.hpp"
#include "server/compile_service.hpp"
#include "sim/lookahead_sim.hpp"
#include "sim/loop_sim.hpp"
#include "verify/ir_deps.hpp"
#include "workloads/random_graphs.hpp"
#include "workloads/random_ir.hpp"

namespace {

using namespace ais;

DepGraph make_block(int n) {
  Prng prng(0xb10c + static_cast<std::uint64_t>(n));
  RandomBlockParams params;
  params.num_nodes = n;
  params.edge_prob = 8.0 / n;  // constant average degree
  return random_block(prng, params);
}

/// Narrow latency-rich block (deep layered chains): its schedules stall, so
/// Delay_Idle_Slots and Chop actually do work (the interesting regime).
DepGraph make_stalling_block(int n) {
  Prng prng(0x57a1 + static_cast<std::uint64_t>(n));
  RandomBlockParams params;
  params.num_nodes = n;
  params.layers = std::max(2, n / 2);
  params.edge_prob = 0.8;
  params.max_latency = 3;
  return random_block(prng, params);
}

void BM_RankAlgorithm(benchmark::State& state) {
  const DepGraph g = make_block(static_cast<int>(state.range(0)));
  const MachineModel machine = scalar01();
  const RankScheduler scheduler(g, machine);
  const NodeSet all = NodeSet::all(g.num_nodes());
  const DeadlineMap d = uniform_deadlines(g, huge_deadline(g, all));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.run(all, d, {}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RankAlgorithm)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_DelayIdleSlots(benchmark::State& state) {
  const DepGraph g = make_stalling_block(static_cast<int>(state.range(0)));
  const MachineModel machine = deep_pipeline();
  const RankScheduler scheduler(g, machine);
  const NodeSet all = NodeSet::all(g.num_nodes());
  DeadlineMap base = uniform_deadlines(g, huge_deadline(g, all));
  RankResult r = scheduler.run(all, base, {});
  for (const NodeId id : all.ids()) base[id] = r.makespan;
  for (auto _ : state) {
    DeadlineMap d = base;
    Schedule s = r.schedule;
    benchmark::DoNotOptimize(delay_idle_slots(scheduler, std::move(s), d, {}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DelayIdleSlots)->RangeMultiplier(2)->Range(16, 256)->Complexity();

// Merge's relaxation loop in the restricted case (galloping + bisection on
// the relax amount; see src/core/merge.cpp).  Old-block deadlines are pinned
// to their standalone completions, so fitting the incoming block forces a
// relaxation well past zero every iteration.
void BM_MergeRelaxation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Prng prng(0x3e61 + static_cast<std::uint64_t>(n));
  RandomTraceParams params;
  params.num_blocks = 2;
  params.block.num_nodes = n;
  params.block.edge_prob = 4.0 / n;
  params.cross_edges = 4;
  const DepGraph g = random_trace(prng, params);
  const MachineModel machine = scalar01();
  const RankScheduler scheduler(g, machine);
  const std::vector<NodeSet> blocks = blocks_of(g);
  const Time huge = huge_deadline(g, NodeSet::all(g.num_nodes()));
  DeadlineMap deadlines = uniform_deadlines(g, huge);
  const RankResult old_alone = scheduler.run(blocks[0], deadlines, {});
  for (const NodeId id : blocks[0].ids()) {
    deadlines[id] = old_alone.schedule.completion(id);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge_blocks(scheduler, blocks[0], blocks[1],
                                          deadlines, old_alone.makespan, huge,
                                          {}));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MergeRelaxation)->RangeMultiplier(2)->Range(16, 256)->Complexity();

/// Program of `segments` identical straight-line loop bodies, each closed by
/// a self back edge.  With the back edges hot, trace selection yields one
/// equal-weight single-block trace per segment — a balanced fan-out for
/// compile_program's --jobs pool.  (Without the back edges the fallthrough
/// chain fuses everything into one giant trace and nothing parallelizes.)
Program make_wide_program(int segments) {
  std::string text;
  for (int k = 0; k < segments; ++k) {
    const std::string s = std::to_string(k);
    text += "block body" + s + ":\n";
    text += "  LDU r1, a[r9+" + std::to_string(8 * k) + "]\n";
    text += "  LDU r2, b[r9+" + std::to_string(8 * k + 4) + "]\n";
    for (int round = 0; round < 8; ++round) {
      text += "  MUL r3, r1, r2\n  ADD r4, r3, r1\n  SUB r5, r4, r2\n";
      text += "  SHL r6, r5, 1\n  ADD r7, r6, r3\n  MUL r8, r7, r4\n";
      text += "  ADD r1, r8, r5\n";
    }
    text += "  CMP c1, r1, 0\n  BT  c1, body" + s + "\n";
  }
  return parse_program(text);
}

/// Wall time of whole-program compilation at 1/2/4/8 jobs.  Speedup needs
/// hardware threads: on an N-core host the expected real-time ratio
/// jobs=1 : jobs=min(8, N) approaches min(8, N, #traces); a single-core
/// host shows flat real time (the pool adds only queueing overhead).
void BM_ParallelTraces(benchmark::State& state) {
  const int segments = 24;
  const Program prog = make_wide_program(segments);
  Cfg cfg(prog);
  for (int k = 0; k < segments; ++k) {
    cfg.set_branch_probability(cfg.find_label("body" + std::to_string(k)),
                               0.9);
  }
  const MachineModel machine = deep_pipeline();
  const int jobs = static_cast<int>(state.range(0));
  // Measure the raw solver: the bypass must reach the pool's worker
  // threads, so flip the global switch rather than the thread-local one.
  ScheduleCache::global().set_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compile_program(cfg, machine, /*window=*/4, /*verify=*/true, jobs));
  }
  ScheduleCache::global().set_enabled(true);
}
BENCHMARK(BM_ParallelTraces)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Two trace regimes: latency-rich blocks leave idle slots, so Chop emits
// prefixes and keeps the live set bounded (the paper's intended, roughly
// per-block-cost regime); dense stall-free blocks never produce a chop
// point and the live set grows with the trace (degenerate worst case).

/// The latency-rich regime: `blocks` random blocks of 12 nodes.  Shared by
/// the bypassed solve and the cache's cold and warm rows, so the three
/// read against each other.
DepGraph make_choppable_trace(int blocks) {
  Prng prng(0x7ace + static_cast<std::uint64_t>(blocks));
  RandomTraceParams params;
  params.num_blocks = blocks;
  params.block.num_nodes = 12;
  params.block.edge_prob = 0.35;
  params.block.max_latency = 3;
  params.cross_edges = 2;
  return random_trace(prng, params);
}

void BM_LookaheadChoppable(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  const DepGraph g = make_choppable_trace(blocks);
  const MachineModel machine = deep_pipeline();
  const RankScheduler scheduler(g, machine);
  LookaheadOptions opts;
  opts.window = 4;
  const ScheduleCache::ScopedBypass bypass;  // measure the raw solver
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_trace(scheduler, opts));
  }
  state.SetComplexityN(blocks);
}
BENCHMARK(BM_LookaheadChoppable)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

void BM_LookaheadDense(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  Prng prng(0x7ace + static_cast<std::uint64_t>(blocks));
  RandomTraceParams params;
  params.num_blocks = blocks;
  params.block.num_nodes = 12;
  params.block.edge_prob = 0.3;
  params.cross_edges = 2;
  const DepGraph g = random_trace(prng, params);
  const MachineModel machine = scalar01();
  const RankScheduler scheduler(g, machine);
  LookaheadOptions opts;
  opts.window = 4;
  const ScheduleCache::ScopedBypass bypass;  // measure the raw solver
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_trace(scheduler, opts));
  }
  state.SetComplexityN(blocks);
}
BENCHMARK(BM_LookaheadDense)->RangeMultiplier(2)->Range(2, 32)->Complexity();

/// The Move_Idle_Slot wall on the default multi-unit machine (rs6000, W=2):
/// random-IR traces of 24-instruction blocks drawn from a 16-register pool
/// with 10% memory operations leave no chop point, so the live set grows
/// with the trace and every Merge re-tries the retained suffix's idle slots
/// — on rs6000 almost all of them slots that single issue forces into
/// every cycle, which the saturated-cycle guard decides without a rank run.
/// At 32 and 64 blocks Merge dominates.  The other compile-time rows all
/// run single-unit machines.
void BM_LookaheadUnchoppable(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  Prng prng(0x0c4b + static_cast<std::uint64_t>(blocks));
  RandomIrParams ir;
  ir.num_insts = 24;
  ir.num_gprs = 16;
  ir.mem_frac = 0.1;
  const MachineModel machine = rs6000_like();
  const DepGraph g =
      build_trace_graph(random_ir_trace(prng, ir, blocks), machine);
  const RankScheduler scheduler(g, machine);
  LookaheadOptions opts;
  opts.window = 2;
  const ScheduleCache::ScopedBypass bypass;  // measure the raw solver
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_trace(scheduler, opts));
  }
  state.SetComplexityN(blocks);
}
BENCHMARK(BM_LookaheadUnchoppable)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// --- schedule cache -------------------------------------------------------

/// Warm trace-level hit: the first iteration populates the cache, every
/// further iteration is served from it (key build + certificate-free memory
/// hit + id remap).  Same workload as BM_LookaheadChoppable, so the
/// cold-vs-warm gap is read directly against that bench.
void BM_ScheduleCacheWarm(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  const DepGraph g = make_choppable_trace(blocks);
  const MachineModel machine = deep_pipeline();
  const RankScheduler scheduler(g, machine);
  LookaheadOptions opts;
  opts.window = 4;
  ScheduleCache::global().set_enabled(true);
  ScheduleCache::global().clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_trace(scheduler, opts));
  }
  state.SetComplexityN(blocks);
}
BENCHMARK(BM_ScheduleCacheWarm)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

/// Cold path with the cache on: the same graphs as BM_ScheduleCacheWarm,
/// but the in-memory tier is cleared before every compile, so each one
/// builds its key, misses, solves and inserts — what a fresh `aisc` pays.
/// The clear (16 shard locks, one entry) is inside the timed region.  Read
/// against BM_LookaheadChoppable (the bypassed solve) for the cache's
/// cold overhead.
void BM_ScheduleCacheCold(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  const DepGraph g = make_choppable_trace(blocks);
  const MachineModel machine = deep_pipeline();
  const RankScheduler scheduler(g, machine);
  LookaheadOptions opts;
  opts.window = 4;
  ScheduleCache::global().set_enabled(true);
  for (auto _ : state) {
    ScheduleCache::global().clear();
    benchmark::DoNotOptimize(schedule_trace(scheduler, opts));
  }
  ScheduleCache::global().clear();
  state.SetComplexityN(blocks);
}
BENCHMARK(BM_ScheduleCacheCold)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

/// A §5 loop compiled again and again: every compile after the first is a
/// trace-level hit on the whole extended trace (body plus wrap-around
/// clone).  Multi-block body so the compile takes the schedule_loop_trace
/// wrap-around path; latency-rich so the bypassed solve does real
/// Merge/Delay_Idle/Chop work.
Loop make_bench_loop() {
  std::string text;
  for (const char* label : {"head", "mid1", "mid2", "tail"}) {
    text += std::string("block ") + label + ":\n";
    for (int round = 0; round < 12; ++round) {
      text += "  LDU r1, a[r9+" + std::to_string(8 * round) + "]\n";
      text += "  MUL r3, r1, r2\n  ADD r4, r3, r1\n  SUB r5, r4, r2\n";
      text += "  MUL r6, r5, r1\n  ADD r7, r6, r3\n  ADD r2, r7, r5\n";
    }
  }
  text += "  CMP c1, r2, 0\n  BT  c1, head\n";
  Loop loop;
  loop.body = Trace{parse_program(text).blocks};
  return loop;
}

// --- lookahead simulator --------------------------------------------------

/// Latency-rich shape for the simulator benchmarks: a single dependence
/// chain with uniform [0, 3] edge latencies.  No reordering can hide the
/// latency, so most cycles are stalls and the cycle count dwarfs n — the
/// regime where the original engine's per-cycle window rescan and, worse,
/// its per-stall-cycle attribution scan over every remaining instruction
/// (O(n × edges) per stall) dominate survey and sweep runs.
DepGraph make_latency_chain_block(int n) {
  Prng prng(0x1a7e + static_cast<std::uint64_t>(n));
  RandomBlockParams params;
  params.num_nodes = n;
  params.layers = n;  // one node per layer: a chain
  params.edge_prob = 1.0;
  params.max_latency = 3;
  return random_block(prng, params);
}

/// The evaluation hot path: every paper-figure benchmark, window sweep and
/// `aisprof --random-traces` survey executes emitted code on the §2.3 window
/// simulator.
void BM_SimulateList(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const DepGraph g = make_latency_chain_block(n);
  const MachineModel machine = deep_pipeline();
  const RankScheduler scheduler(g, machine);
  LookaheadOptions opts;
  opts.window = 4;
  const ScheduleCache::ScopedBypass bypass;
  const std::vector<NodeId> list =
      schedule_trace(scheduler, opts).priority_list();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_list(g, machine, list, opts.window));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SimulateList)->Arg(64)->Arg(256)->Arg(1024);

/// The batched survey API: a mixed-size batch of latency-chain lists
/// through one simulate_many call.  Serial (threads = 1) so the number
/// measures the engine plus SimScratch reuse, not pool scaling — the
/// thread fan-out is exercised by the TSan CI job and the aisprof
/// surveys, where wall clock is the metric.
void BM_SimulateMany(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const MachineModel machine = deep_pipeline();
  const ScheduleCache::ScopedBypass bypass;
  std::vector<DepGraph> graphs;
  graphs.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    graphs.push_back(make_latency_chain_block(96 + 8 * (i % 9)));
  }
  std::vector<std::vector<NodeId>> lists;
  lists.reserve(graphs.size());
  for (const DepGraph& g : graphs) {
    const RankScheduler scheduler(g, machine);
    LookaheadOptions opts;
    opts.window = 4;
    lists.push_back(schedule_trace(scheduler, opts).priority_list());
  }
  std::vector<SimJob> jobs;
  jobs.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    jobs.push_back({&graphs[i], &machine, &lists[i], 4});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_many(jobs, 1));
  }
}
BENCHMARK(BM_SimulateMany)->Arg(16)->Arg(64);

void BM_LoopRepeatedBody_CacheOff(benchmark::State& state) {
  const Loop loop = make_bench_loop();
  const MachineModel machine = deep_pipeline();
  const ScheduleCache::ScopedBypass bypass;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule(loop, machine, /*window=*/4));
  }
}
BENCHMARK(BM_LoopRepeatedBody_CacheOff);

void BM_LoopRepeatedBody_CacheWarm(benchmark::State& state) {
  const Loop loop = make_bench_loop();
  const MachineModel machine = deep_pipeline();
  ScheduleCache::global().set_enabled(true);
  ScheduleCache::global().clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule(loop, machine, /*window=*/4));
  }
}
BENCHMARK(BM_LoopRepeatedBody_CacheWarm);

/// The same loop compiled cold with the cache on (cleared before every
/// compile, inside the timed region): the trace-level miss and insert on
/// top of BM_LoopRepeatedBody_CacheOff.  The wrap-around clone is a
/// different trace from the body, so nothing inside one compile hits.
void BM_LoopRepeatedBody_CacheCold(benchmark::State& state) {
  const Loop loop = make_bench_loop();
  const MachineModel machine = deep_pipeline();
  ScheduleCache::global().set_enabled(true);
  for (auto _ : state) {
    ScheduleCache::global().clear();
    benchmark::DoNotOptimize(schedule(loop, machine, /*window=*/4));
  }
  ScheduleCache::global().clear();
}
BENCHMARK(BM_LoopRepeatedBody_CacheCold);

/// The §5.2.3 single-block loop compile, shaped like perfbench's
/// loop_bodies: 256 random-IR loops of 12 instructions on rs6000 at W = 2,
/// each through schedule(const Loop&) — dependence build, every surrogate
/// candidate, one steady-state simulation per distinct order.  Time is per
/// pass over all 256 loops; items/s counts loops.
void BM_LoopSearch(benchmark::State& state) {
  Prng prng(0x1005);
  RandomIrParams ir;
  ir.num_insts = 12;
  std::vector<Loop> loops;
  for (int i = 0; i < 256; ++i) loops.push_back(random_ir_loop(prng, ir));
  const MachineModel machine = rs6000_like();
  for (auto _ : state) {
    for (const Loop& loop : loops) {
      benchmark::DoNotOptimize(schedule(loop, machine, /*window=*/2));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(loops.size()));
}
BENCHMARK(BM_LoopSearch)->Unit(benchmark::kMillisecond);

/// One long single-block loop, random_ir_loop of N instructions (seed 1,
/// default register pools and memory mix), through schedule(const Loop&)
/// on rs6000 at W = 2: the §5.2.3 search's cost as the body grows.  Time
/// is per loop.
void BM_LoopSearchLong(benchmark::State& state) {
  Prng prng(1);
  RandomIrParams ir;
  ir.num_insts = static_cast<int>(state.range(0));
  const Loop loop = random_ir_loop(prng, ir);
  const MachineModel machine = rs6000_like();
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule(loop, machine, /*window=*/2));
  }
}
BENCHMARK(BM_LoopSearchLong)
    ->Arg(100)
    ->Arg(200)
    ->Arg(300)
    ->Unit(benchmark::kMillisecond);

/// The loop simulator on the orders the §5.2.3 search scores: every
/// distinct candidate order of loop_bodies' 256 seed-1 loops (N = 12
/// instructions), or of one random_ir_loop of N = 96 (seed 1), each through
/// steady_state_period on rs6000 at W = 2.  Each benchmark iteration is one
/// call, cycling through the orders, so the time is per call.
void BM_SteadyStatePeriod(benchmark::State& state) {
  const int insts = static_cast<int>(state.range(0));
  const MachineModel machine = rs6000_like();
  Prng prng(1);
  RandomIrParams ir;
  ir.num_insts = insts;
  std::vector<DepGraph> graphs;
  std::vector<std::pair<std::size_t, std::vector<NodeId>>> orders;
  for (int i = 0; i < (insts == 12 ? 256 : 1); ++i) {
    graphs.push_back(build_loop_graph(random_ir_loop(prng, ir), machine));
    schedule_single_block_loop(graphs.back(), machine,
                               [&](const std::vector<NodeId>& order) {
                                 orders.emplace_back(graphs.size() - 1, order);
                                 return 0.0;
                               });
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& [graph, order] = orders[next];
    benchmark::DoNotOptimize(
        steady_state_period(graphs[graph], machine, order, /*window=*/2));
    next = next + 1 == orders.size() ? 0 : next + 1;
  }
  state.counters["orders"] = static_cast<double>(orders.size());
}
BENCHMARK(BM_SteadyStatePeriod)->Arg(12)->Arg(96);

// --- IR front end ---------------------------------------------------------

/// perfbench warm_daemon's request bodies: 256 random-IR traces of 4
/// blocks x 12 instructions, rendered as a client sends them.
std::vector<std::string> warm_bodies() {
  Prng prng(1);
  RandomIrParams ir;
  ir.num_insts = 12;
  std::vector<std::string> bodies;
  for (int i = 0; i < 256; ++i) {
    const Trace trace = random_ir_trace(prng, ir, /*num_blocks=*/4);
    std::string text;
    for (const BasicBlock& bb : trace.blocks) {
      text += "block " + bb.label + ":\n";
      for (const Instruction& inst : bb.insts) {
        text += "  " + inst.to_string() + "\n";
      }
    }
    bodies.push_back(std::move(text));
  }
  return bodies;
}

/// parse_program_or_error over the warm_daemon bodies.  Time is per pass
/// over all 256; items/s counts bodies.
void BM_Parse(benchmark::State& state) {
  const std::vector<std::string> bodies = warm_bodies();
  std::string error;
  for (auto _ : state) {
    for (const std::string& body : bodies) {
      benchmark::DoNotOptimize(parse_program_or_error(body, &error));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bodies.size()));
}
BENCHMARK(BM_Parse)->Unit(benchmark::kMicrosecond);

/// The dependence builder on rs6000 over the warm_daemon traces
/// (build_trace_graph), or over each of their bodies taken as a loop
/// (build_loop_graph: the doubled scan and its carried edges).  Time is
/// per pass over all 256; items/s counts graphs.
void BM_DepBuild(benchmark::State& state, bool loop) {
  std::vector<Loop> inputs;
  for (const std::string& body : warm_bodies()) {
    inputs.push_back(Loop{Trace{parse_program(body).blocks}});
  }
  const MachineModel machine = rs6000_like();
  for (auto _ : state) {
    for (const Loop& input : inputs) {
      if (loop) {
        benchmark::DoNotOptimize(build_loop_graph(input, machine));
      } else {
        benchmark::DoNotOptimize(build_trace_graph(input.body, machine));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inputs.size()));
}
BENCHMARK_CAPTURE(BM_DepBuild, trace, false)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DepBuild, loop, true)->Unit(benchmark::kMicrosecond);

/// One warm aisd request in-process: compile_ir (parse, dependence build,
/// a trace-level schedule cache hit, emit, and the report's two
/// simulations) on the warm_daemon bodies — rs6000, W = 2, report=1 —
/// with the cache primed by a first pass.  Time is per pass over all 256;
/// items/s counts requests.
void BM_WarmRequest(benchmark::State& state) {
  const std::vector<std::string> bodies = warm_bodies();
  server::CompileOptions options;
  options.machine = "rs6000";
  options.window = 2;
  options.report = true;
  server::WorkerScratch scratch;
  server::Response reply;
  ScheduleCache::global().set_enabled(true);
  ScheduleCache::global().clear();
  for (const std::string& body : bodies) {
    server::compile_ir(body, options, scratch, &reply);
  }
  for (auto _ : state) {
    for (const std::string& body : bodies) {
      server::compile_ir(body, options, scratch, &reply);
      benchmark::DoNotOptimize(reply);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bodies.size()));
}
BENCHMARK(BM_WarmRequest)->Unit(benchmark::kMillisecond);

// --- The verifier -----------------------------------------------------------

/// verify::derive_trace_deps on rs6000 over a random-IR trace of
/// state.range(0) instructions in blocks of 12.  items/s counts
/// instructions.
void BM_DeriveTraceDeps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Prng prng(static_cast<std::uint64_t>(n));
  RandomIrParams ir;
  ir.num_insts = 12;
  const Trace trace = random_ir_trace(prng, ir, n / 12);
  const MachineModel machine = rs6000_like();
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::derive_trace_deps(trace, machine));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DeriveTraceDeps)->Arg(24)->Arg(96)->Arg(384)->Arg(1536);

/// verify_schedule over every trace of 16 cfg_program-shaped programs
/// (random_ir_program_chunks, 32 blocks x 12 instructions), scheduled
/// once for rs6000 at W = 2.  Time is per pass over all 16; items/s counts
/// programs.
void BM_VerifyProgram(benchmark::State& state) {
  const MachineModel machine = rs6000_like();
  std::vector<std::pair<Trace, ScheduledTrace>> traces;
  constexpr int kPrograms = 16;
  for (int p = 0; p < kPrograms; ++p) {
    RandomIrProgramParams params;
    params.block.num_insts = 12;
    params.num_blocks = 32;
    params.blocks_per_chunk = 32;
    params.seed = static_cast<std::uint64_t>(p + 1);
    random_ir_program_chunks(params, [&](Program&& prog, std::size_t) {
      const Cfg cfg(std::move(prog));
      for (const SelectedTrace& selected : select_traces(cfg)) {
        Trace trace = materialize(cfg, selected);
        ScheduledTrace scheduled = schedule(trace, machine, /*window=*/2);
        traces.emplace_back(std::move(trace), std::move(scheduled));
      }
    });
  }
  for (auto _ : state) {
    for (const auto& [trace, scheduled] : traces) {
      benchmark::DoNotOptimize(verify_schedule(trace, scheduled, machine));
    }
  }
  state.SetItemsProcessed(state.iterations() * kPrograms);
}
BENCHMARK(BM_VerifyProgram)->Unit(benchmark::kMicrosecond);

}  // namespace
