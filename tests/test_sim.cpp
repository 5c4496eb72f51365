// Tests for the lookahead machine simulator: golden executions from the
// paper, and the structural invariants the model implies.
#include <algorithm>

#include <gtest/gtest.h>

#include "baselines/block_schedulers.hpp"
#include "core/loop_single.hpp"
#include "core/rank.hpp"
#include "ir/depbuild.hpp"
#include "machine/machine_model.hpp"
#include "sim/lookahead_sim.hpp"
#include "sim/loop_sim.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_graphs.hpp"
#include "workloads/random_ir.hpp"

namespace ais {
namespace {

std::vector<NodeId> by_names(const DepGraph& g,
                             std::initializer_list<const char*> names) {
  std::vector<NodeId> ids;
  for (const char* n : names) ids.push_back(g.find(n));
  return ids;
}

TEST(Sim, Fig2EmittedCodeRunsIn11CyclesAtW2) {
  const DepGraph g = fig2_trace();
  const auto list = by_names(
      g, {"x", "e", "r", "w", "b", "a", "z", "q", "p", "v", "g"});
  const SimResult r = simulate_list(g, scalar01(), list, 2);
  EXPECT_EQ(r.completion, 11);
  // z issues at cycle 5, before a (the in-window inversion of the example).
  EXPECT_EQ(r.issue_time[g.find("z")], 5);
  EXPECT_EQ(r.issue_time[g.find("a")], 6);
}

TEST(Sim, WindowOneIsStrictInOrder) {
  const DepGraph g = fig2_trace();
  const auto list = by_names(
      g, {"x", "e", "r", "w", "b", "a", "z", "q", "p", "v", "g"});
  const SimResult r = simulate_list(g, scalar01(), list, 1);
  Time prev = -1;
  for (const NodeId id : list) {
    EXPECT_GT(r.issue_time[id], prev);
    prev = r.issue_time[id];
  }
  // In-order: a stalls on w/b, z issues only after a, q stalls on z, g on p:
  // x e r w b . a z . q p v g = 13 cycles.
  EXPECT_EQ(r.completion, 13);
}

TEST(Sim, CompletionIsNonincreasingInWindow) {
  Prng prng(0x51a1);
  for (int trial = 0; trial < 12; ++trial) {
    RandomTraceParams params;
    params.num_blocks = 3;
    params.block.num_nodes = static_cast<int>(prng.uniform(4, 9));
    params.block.edge_prob = 0.35;
    params.cross_edges = 2;
    const DepGraph g = random_trace(prng, params);
    const auto list =
        schedule_trace_per_block(g, scalar01(), BlockScheduler::kSourceOrder);
    Time prev = simulated_completion(g, scalar01(), list, 1);
    for (const int w : {2, 3, 4, 8, 16, 64}) {
      const Time cur = simulated_completion(g, scalar01(), list, w);
      EXPECT_LE(cur, prev) << "W=" << w;
      prev = cur;
    }
  }
}

TEST(Sim, HugeWindowEqualsGreedyListSchedule) {
  Prng prng(0x9d9d);
  for (int trial = 0; trial < 10; ++trial) {
    RandomBlockParams params;
    params.num_nodes = 10;
    params.edge_prob = 0.3;
    const DepGraph g = random_block(prng, params);
    const MachineModel machine = scalar01();
    const RankScheduler scheduler(g, machine);
    const NodeSet all = NodeSet::all(g.num_nodes());
    const std::vector<NodeId> list = all.ids();
    const Schedule greedy = scheduler.greedy_from_list(all, list);
    EXPECT_EQ(simulated_completion(g, machine, list, 64), greedy.makespan());
  }
}

TEST(Sim, StallCyclesAccountedFor) {
  DepGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, 1);
  const SimResult r = simulate_list(g, scalar01(), {a, b}, 4);
  EXPECT_EQ(r.completion, 3);
  EXPECT_EQ(r.stall_cycles, 1);
}

TEST(Sim, RespectsIssueWidthAndUnitTyping) {
  const MachineModel machine = vliw4();
  DepGraph g;
  // Five independent int-ALU ops: only 2 int units -> at least 3 cycles.
  for (int i = 0; i < 5; ++i) {
    g.add_node("op" + std::to_string(i), 1,
               machine.timing(OpClass::kIntAlu).fu_class, 0);
  }
  std::vector<NodeId> list;
  for (NodeId id = 0; id < 5; ++id) list.push_back(id);
  const SimResult r = simulate_list(g, machine, list, 8);
  EXPECT_EQ(r.completion, 3);
}

TEST(Sim, ExecTimesOccupyUnits) {
  const MachineModel machine = deep_pipeline();
  DepGraph g;
  g.add_node("div", 4, 0, 0);  // 4-cycle occupancy
  g.add_node("alu", 1, 0, 0);
  const SimResult r = simulate_list(g, machine, {0, 1}, 4);
  EXPECT_EQ(r.issue_time[1], 4);  // unit busy until the divide retires
  EXPECT_EQ(r.completion, 5);
}

TEST(LoopSim, Fig3ScheduleOneVsTwoAtWindowOne) {
  const DepGraph g = fig3_loop();
  const MachineModel machine = scalar01();
  const auto sched1 = by_names(g, {"L4", "ST", "C4", "M", "BT"});
  const auto sched2 = by_names(g, {"L4", "ST", "M", "C4", "BT"});
  // Paper: block-optimal schedule 1 runs one iteration every 7 cycles in
  // steady state; anticipatory schedule 2 every 6.
  EXPECT_DOUBLE_EQ(steady_state_period(g, machine, sched1, 1), 7.0);
  EXPECT_DOUBLE_EQ(steady_state_period(g, machine, sched2, 1), 6.0);
  // Single-iteration completion: 5 vs 6 (also per the paper).
  EXPECT_EQ(simulate_loop(g, machine, sched1, 1, 1).completion, 5);
  EXPECT_EQ(simulate_loop(g, machine, sched2, 1, 1).completion, 6);
}

TEST(LoopSim, Fig8OrdersAtWindowOne) {
  const DepGraph g = fig8_loop();
  const MachineModel machine = scalar01();
  const auto s1 = by_names(g, {"1", "2", "3"});
  const auto s2 = by_names(g, {"2", "1", "3"});
  const int n = 12;
  // Paper: completion 5n - 1 vs 4n.
  EXPECT_EQ(simulate_loop(g, machine, s1, 1, n).completion, 5 * n - 1);
  EXPECT_EQ(simulate_loop(g, machine, s2, 1, n).completion, 4 * n);
}

TEST(LoopSim, IterationFinishTimesAreMonotone) {
  const DepGraph g = fig3_loop();
  const LoopSimResult r =
      simulate_loop(g, scalar01(), by_names(g, {"L4", "ST", "M", "C4", "BT"}),
                    4, 10);
  ASSERT_EQ(r.iteration_finish.size(), 10u);
  for (std::size_t k = 1; k < r.iteration_finish.size(); ++k) {
    EXPECT_GT(r.iteration_finish[k], r.iteration_finish[k - 1]);
  }
  EXPECT_EQ(r.completion, r.iteration_finish.back());
}

TEST(LoopSim, SteadyStatePeriodBoundedByCarriedRecurrence) {
  // M->M <4,1> forces at least 5 cycles per iteration regardless of order
  // or window (start-to-start >= exec + latency).
  const DepGraph g = fig3_loop();
  for (const int w : {1, 2, 4, 8}) {
    const double p = steady_state_period(
        g, scalar01(), {0, 1, 2, 3, 4}, w);
    EXPECT_GE(p, 5.0) << "W=" << w;
  }
}

/// Brute-force oracle for simulate_loop: materialize the completely
/// unrolled trace as an ordinary DAG — instance v[k] constrained against
/// u[k - distance] per <latency, distance> edge, early iterations'
/// out-of-range sources satisfied by pre-loop state — and run it through
/// the straight-line simulator.  Paper §5's equivalence, checked exactly.
DepGraph unroll_loop(const DepGraph& g, int iterations) {
  DepGraph u;
  const NodeId body = g.num_nodes();
  for (int k = 0; k < iterations; ++k) {
    for (NodeId id = 0; id < body; ++id) {
      const NodeInfo& info = g.node(id);
      u.add_node(info.name + "#" + std::to_string(k), info.exec_time,
                 info.fu_class, k);
    }
  }
  for (int k = 0; k < iterations; ++k) {
    for (std::size_t idx = 0; idx < g.num_edges(); ++idx) {
      const DepEdge& e = g.edge(idx);
      const int src_iter = k - e.distance;
      if (src_iter < 0) continue;
      u.add_edge(static_cast<NodeId>(src_iter) * body + e.from,
                 static_cast<NodeId>(k) * body + e.to, e.latency,
                 /*distance=*/0);
    }
  }
  return u;
}

/// simulate_loop of `list` against the unrolled oracle, exactly: whole-run
/// completion and every iteration's finish time, over a spread of windows
/// and iteration counts.  48 (the steady-state measurement) and 61 are long
/// enough for the machine state to recur and the simulator to skip whole
/// periods; 61 is prime, so no period longer than one iteration divides
/// the stream.
void expect_matches_unrolled(const DepGraph& g, const MachineModel& machine,
                             const std::vector<NodeId>& list,
                             const std::string& what) {
  for (const int window : {1, 2, 4}) {
    for (const int iterations : {1, 3, 7, 48, 61}) {
      const LoopSimResult got =
          simulate_loop(g, machine, list, window, iterations);

      const DepGraph u = unroll_loop(g, iterations);
      std::vector<NodeId> unrolled_list;
      for (int k = 0; k < iterations; ++k) {
        for (const NodeId id : list) {
          unrolled_list.push_back(static_cast<NodeId>(k) * g.num_nodes() +
                                  id);
        }
      }
      const SimResult want = simulate_list(u, machine, unrolled_list, window);

      EXPECT_EQ(got.completion, want.completion)
          << what << " W=" << window << " n=" << iterations;
      ASSERT_EQ(got.iteration_finish.size(),
                static_cast<std::size_t>(iterations));
      for (int k = 0; k < iterations; ++k) {
        Time finish = 0;
        for (NodeId id = 0; id < g.num_nodes(); ++id) {
          const NodeId q = static_cast<NodeId>(k) * g.num_nodes() + id;
          finish =
              std::max(finish, want.issue_time[q] + u.node(q).exec_time);
        }
        EXPECT_EQ(got.iteration_finish[static_cast<std::size_t>(k)], finish)
            << what << " W=" << window << " iteration " << k;
      }
    }
  }
}

TEST(LoopSim, MatchesUnrolledBruteForce) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Prng prng(0x10095 + seed * 401);
    RandomLoopParams params;
    params.block.num_nodes = static_cast<int>(prng.uniform(4, 9));
    params.block.edge_prob = 0.35;
    params.block.max_latency = 2;
    params.carried_edges = 3;
    const DepGraph g = random_loop(prng, params);
    std::vector<NodeId> list;
    for (NodeId id = 0; id < g.num_nodes(); ++id) list.push_back(id);
    expect_matches_unrolled(g, scalar01(), list,
                            "seed " + std::to_string(seed));
  }

  // IR-built loops on the typed and multi-cycle presets, in the permuted
  // orders the §5.2.3 search simulates.  vliw4 has a two-unit class, and
  // deep and vliw4 execute divides for 4 cycles (every other multiply is
  // turned into one), so reading a node's exec time or units at its list
  // position, or the reverse, changes issue times here.
  int permuted_orders = 0;
  int multi_cycle_orders = 0;
  Prng prng(0x10096);
  for (const MachineModel& machine :
       {rs6000_like(), deep_pipeline(), vliw4()}) {
    for (int trial = 0; trial < 6; ++trial) {
      RandomIrParams params;
      params.num_insts = static_cast<int>(prng.uniform(5, 10));
      params.num_gprs = 4;
      Loop loop = random_ir_loop(prng, params);
      bool flip = true;
      for (Instruction& inst : loop.body.blocks[0].insts) {
        if (inst.op != Opcode::kMul && inst.op != Opcode::kFMul) continue;
        if (flip) {
          inst.op = inst.op == Opcode::kMul ? Opcode::kDiv : Opcode::kFDiv;
        }
        flip = !flip;
      }
      const DepGraph g = build_loop_graph(loop, machine);

      std::vector<std::vector<NodeId>> orders;
      for (const LoopCandidate& c : loop_single_candidates(g, machine)) {
        if (std::is_sorted(c.order.begin(), c.order.end())) continue;
        if (std::find(orders.begin(), orders.end(), c.order) != orders.end()) {
          continue;
        }
        orders.push_back(c.order);
      }
      orders.resize(std::min<std::size_t>(orders.size(), 3));
      for (const std::vector<NodeId>& order : orders) {
        expect_matches_unrolled(
            g, machine, order,
            machine.name() + " trial " + std::to_string(trial));
        ++permuted_orders;
        multi_cycle_orders += g.max_exec_time() > 1;
      }
    }
  }
  EXPECT_GT(permuted_orders, 0);
  EXPECT_GT(multi_cycle_orders, 0);

  // Hand-built loops: ops that hold a unit for up to 4 cycles, latencies
  // up to 6 and carried distances up to 3 (the largest distance bounds how
  // far ahead an issue can reach, so it sizes the state the simulator
  // compares), on machines with one and with several units per class.
  Prng hand(0x10097);
  int deep_carried = 0;
  for (const MachineModel& machine : {scalar01(), deep_pipeline(), vliw4()}) {
    for (int trial = 0; trial < 4; ++trial) {
      const int nodes = static_cast<int>(hand.uniform(3, 8));
      const DepGraph g =
          random_timed_loop(hand, machine, nodes, /*carried_edges=*/3);
      for (const DepEdge& e : g.edges()) deep_carried += e.distance >= 2;
      std::vector<NodeId> list;
      for (NodeId id = 0; id < g.num_nodes(); ++id) list.push_back(id);
      expect_matches_unrolled(
          g, machine, list,
          "hand " + machine.name() + " trial " + std::to_string(trial));
    }
  }
  EXPECT_GT(deep_carried, 0);
}

TEST(LoopSim, SteadyStatePeriodMatchesUnrolledSlope) {
  Prng prng(0x57ead);
  RandomLoopParams params;
  params.block.num_nodes = 6;
  params.block.edge_prob = 0.4;
  params.block.max_latency = 2;
  params.carried_edges = 2;
  const DepGraph g = random_loop(prng, params);
  std::vector<NodeId> list;
  for (NodeId id = 0; id < g.num_nodes(); ++id) list.push_back(id);

  constexpr int kIters = 16;
  const DepGraph u = unroll_loop(g, kIters);
  std::vector<NodeId> unrolled_list;
  for (int k = 0; k < kIters; ++k) {
    for (const NodeId id : list) {
      unrolled_list.push_back(static_cast<NodeId>(k) * g.num_nodes() + id);
    }
  }
  for (const int window : {1, 4}) {
    const SimResult flat = simulate_list(u, scalar01(), unrolled_list, window);
    std::vector<Time> finish(kIters, 0);
    for (NodeId q = 0; q < u.num_nodes(); ++q) {
      auto& f = finish[q / g.num_nodes()];
      f = std::max(f, flat.issue_time[q] + u.node(q).exec_time);
    }
    const double want =
        static_cast<double>(finish[kIters - 1] - finish[(kIters - 1) / 2]) /
        static_cast<double>(kIters - 1 - (kIters - 1) / 2);
    EXPECT_DOUBLE_EQ(
        steady_state_period(g, scalar01(), list, window, kIters), want)
        << "W=" << window;
  }
}

TEST(LoopSim, WiderWindowNeverSlowsLoops) {
  Prng prng(0x100b);
  for (int trial = 0; trial < 8; ++trial) {
    RandomLoopParams params;
    params.block.num_nodes = static_cast<int>(prng.uniform(4, 8));
    params.block.edge_prob = 0.3;
    params.carried_edges = 2;
    const DepGraph g = random_loop(prng, params);
    std::vector<NodeId> order;
    for (NodeId id = 0; id < g.num_nodes(); ++id) order.push_back(id);
    double prev = steady_state_period(g, scalar01(), order, 1);
    for (const int w : {2, 4, 8}) {
      const double cur = steady_state_period(g, scalar01(), order, w);
      EXPECT_LE(cur, prev + 1e-9) << "W=" << w;
      prev = cur;
    }
  }
}

}  // namespace
}  // namespace ais
