// Differential properties for the event-driven lookahead simulator.
//
// The event-driven engine (wake-time heaps, per-class availability heaps,
// next-event time jumps with bulk stall/occupancy accounting) is required to
// be *byte identical* to the original cycle-stepping formulation on every
// output: per-node issue times, completion, the latency/window stall split,
// and the window-occupancy histogram.  That original formulation is retained
// here verbatim as an in-test oracle (the same pattern the Rank/Merge path
// uses in test_differential.cpp), and the tests below drive both engines
// over randomized machines × windows × latency regimes plus targeted cases
// for the bulk attribution of a jumped gap.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/lookahead.hpp"
#include "core/rank.hpp"
#include "core/schedule_cache.hpp"
#include "graph/depgraph.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"
#include "sim/lookahead_sim.hpp"
#include "support/assert.hpp"
#include "support/prng.hpp"
#include "workloads/random_graphs.hpp"

namespace ais {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the original cycle-stepping engine, verbatim (only renamed).
// ---------------------------------------------------------------------------

SimResult oracle_simulate_list(const DepGraph& g, const MachineModel& machine,
                               const std::vector<NodeId>& list, int window) {
  AIS_CHECK(window >= 1, "window must be positive");
  const std::size_t n = list.size();

  // Position of each node in the list; also validates uniqueness.
  std::vector<std::size_t> pos(g.num_nodes(), static_cast<std::size_t>(-1));
  for (std::size_t p = 0; p < n; ++p) {
    AIS_CHECK(pos[list[p]] == static_cast<std::size_t>(-1),
              "node listed twice");
    pos[list[p]] = p;
  }
  // Compiled code lists producers before consumers; a violated order would
  // deadlock the window (head waiting on an instruction behind it).
  for (const NodeId id : list) {
    for (const auto eidx : g.in_edges(id)) {
      const DepEdge& e = g.edge(eidx);
      if (e.distance != 0 || pos[e.from] == static_cast<std::size_t>(-1)) {
        continue;
      }
      AIS_CHECK(pos[e.from] < pos[id],
                "priority list is not topological: " + g.node(e.from).name +
                    " must precede " + g.node(id).name);
    }
  }

  // Class-major unit availability.
  std::vector<int> unit_base(
      static_cast<std::size_t>(machine.num_fu_classes()), 0);
  int total_units = 0;
  for (int c = 0; c < machine.num_fu_classes(); ++c) {
    unit_base[static_cast<std::size_t>(c)] = total_units;
    total_units += machine.fu_count(c);
  }
  std::vector<Time> unit_free(static_cast<std::size_t>(total_units), 0);

  SimResult result;
  result.issue_time.assign(g.num_nodes(), Time{-1});
  result.window_occupancy.assign(
      std::min(static_cast<std::size_t>(window), n) + 1, Time{0});

  std::vector<bool> issued(n, false);
  std::size_t head = 0;  // first unissued position
  std::size_t remaining = n;

  // Ready at cycle `t`: every listed distance-0 predecessor has issued and
  // its latency has elapsed.  (The issue loop and the stall-attribution
  // scan share this definition.)
  const auto ready_at = [&](const NodeId id, const Time t) {
    for (const auto eidx : g.in_edges(id)) {
      const DepEdge& e = g.edge(eidx);
      if (e.distance != 0 || pos[e.from] == static_cast<std::size_t>(-1)) {
        continue;
      }
      const Time it = result.issue_time[e.from];
      if (it < 0 || it + g.node(e.from).exec_time + e.latency > t) {
        return false;
      }
    }
    return true;
  };
  // A free unit of `id`'s class at cycle `t`, or -1.
  const auto free_unit_at = [&](const NodeId id, const Time t) {
    const NodeInfo& info = g.node(id);
    const int base = unit_base[static_cast<std::size_t>(info.fu_class)];
    for (int k = 0; k < machine.fu_count(info.fu_class); ++k) {
      if (unit_free[static_cast<std::size_t>(base + k)] <= t) {
        return base + k;
      }
    }
    return -1;
  };

  const Time t_limit =
      g.total_work() +
      static_cast<Time>(n + 1) * (g.max_latency() + g.max_exec_time()) + 1;

  Time t = 0;
  while (remaining > 0) {
    AIS_CHECK(t <= t_limit, "simulator failed to make progress");
    {
      // Window occupancy at cycle start: unissued instructions the window
      // exposes this cycle.
      const std::size_t limit =
          std::min(n, head + static_cast<std::size_t>(window));
      std::size_t occ = 0;
      for (std::size_t p = head; p < limit; ++p) {
        if (!issued[p]) ++occ;
      }
      ++result.window_occupancy[occ];
    }
    int issued_this_cycle = 0;
    bool progressed = true;
    while (progressed && issued_this_cycle < machine.issue_width()) {
      progressed = false;
      const std::size_t limit =
          std::min(n, head + static_cast<std::size_t>(window));
      for (std::size_t p = head; p < limit; ++p) {
        if (issued[p]) continue;
        const NodeId id = list[p];
        if (!ready_at(id, t)) continue;
        const int chosen = free_unit_at(id, t);
        if (chosen < 0) continue;

        result.issue_time[id] = t;
        unit_free[static_cast<std::size_t>(chosen)] =
            t + g.node(id).exec_time;
        issued[p] = true;
        --remaining;
        ++issued_this_cycle;
        while (head < n && issued[head]) ++head;  // slide the window
        progressed = true;
        break;  // rescan from the (possibly advanced) head
      }
    }
    if (issued_this_cycle == 0 && remaining > 0) {
      ++result.stall_cycles;
      // Attribution: if some instruction past the window's reach could have
      // issued this very cycle, the head blockage is what stalled us;
      // otherwise no depth of lookahead would have helped (latency stall).
      const std::size_t limit =
          std::min(n, head + static_cast<std::size_t>(window));
      bool blocked_by_window = false;
      for (std::size_t p = limit; p < n; ++p) {
        if (issued[p]) continue;  // cannot happen (window only widens), but
                                  // keep the scan independent of that proof
        const NodeId id = list[p];
        if (ready_at(id, t) && free_unit_at(id, t) >= 0) {
          blocked_by_window = true;
          break;
        }
      }
      if (blocked_by_window) {
        ++result.window_stall_cycles;
      } else {
        ++result.latency_stall_cycles;
      }
    }
    ++t;
  }

  for (const NodeId id : list) {
    result.completion = std::max(
        result.completion, result.issue_time[id] + g.node(id).exec_time);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

void expect_byte_exact(const SimResult& engine, const SimResult& oracle,
                       const std::string& what) {
  EXPECT_EQ(engine.completion, oracle.completion) << what;
  EXPECT_EQ(engine.stall_cycles, oracle.stall_cycles) << what;
  EXPECT_EQ(engine.latency_stall_cycles, oracle.latency_stall_cycles) << what;
  EXPECT_EQ(engine.window_stall_cycles, oracle.window_stall_cycles) << what;
  EXPECT_EQ(engine.issue_time, oracle.issue_time) << what;
  EXPECT_EQ(engine.window_occupancy, oracle.window_occupancy) << what;
}

/// Randomized topological order of the distance-0 subgraph induced by
/// `nodes` (Kahn with random ready-set picks), so the differential sweep is
/// not limited to the lists the scheduler happens to produce.
std::vector<NodeId> random_topo_list(Prng& prng, const DepGraph& g,
                                     const std::vector<NodeId>& nodes) {
  std::vector<char> listed(g.num_nodes(), 0);
  for (const NodeId id : nodes) listed[id] = 1;
  std::vector<int> indegree(g.num_nodes(), 0);
  for (const NodeId id : nodes) {
    for (const auto eidx : g.in_edges(id)) {
      const DepEdge& e = g.edge(eidx);
      if (e.distance == 0 && listed[e.from]) ++indegree[id];
    }
  }
  std::vector<NodeId> ready;
  for (const NodeId id : nodes) {
    if (indegree[id] == 0) ready.push_back(id);
  }
  std::vector<NodeId> order;
  order.reserve(nodes.size());
  while (!ready.empty()) {
    const std::size_t k = static_cast<std::size_t>(
        prng.index(ready.size()));
    const NodeId id = ready[k];
    ready[k] = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (const auto eidx : g.out_edges(id)) {
      const DepEdge& e = g.edge(eidx);
      if (e.distance == 0 && listed[e.to] && --indegree[e.to] == 0) {
        ready.push_back(e.to);
      }
    }
  }
  AIS_CHECK(order.size() == nodes.size(), "induced subgraph has a cycle");
  return order;
}

std::vector<NodeId> all_nodes(const DepGraph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<NodeId>(i);
  }
  return nodes;
}

const std::vector<const char*> kMachines = {"scalar01", "rs6000-like",
                                            "deep-pipeline", "vliw4"};
const std::vector<int> kWindows = {1, 2, 3, 4, 8, 16, 64};

// ---------------------------------------------------------------------------
// Randomized differential sweep: machines × windows × latency regimes.
// ---------------------------------------------------------------------------

TEST(SimOracle, RandomBlocksAcrossMachinesWindowsLatencies) {
  Prng prng(0xd1ff5e31);
  for (const int max_latency : {1, 2, 3}) {
    for (const int n : {1, 2, 5, 13, 40, 120}) {
      RandomBlockParams params;
      params.num_nodes = n;
      params.edge_prob = n <= 5 ? 0.5 : 0.15;
      params.max_latency = max_latency;
      DepGraph g = random_block(prng, params);
      const std::vector<NodeId> list =
          random_topo_list(prng, g, all_nodes(g));
      for (const char* name : kMachines) {
        const MachineModel& machine = *machine_preset(name);
        for (const int window : kWindows) {
          expect_byte_exact(
              simulate_list(g, machine, list, window),
              oracle_simulate_list(g, machine, list, window),
              std::string(name) + " W=" + std::to_string(window) +
                  " L=" + std::to_string(max_latency) +
                  " n=" + std::to_string(n));
        }
      }
    }
  }
}

TEST(SimOracle, LayeredChainsStallHeavy) {
  // The latency-rich regime the event jumps target: chain-like layered
  // graphs where most cycles are stalls and the gaps being jumped are long.
  Prng prng(0xc4a1);
  for (const int max_latency : {1, 3}) {
    for (const int n : {24, 96}) {
      RandomBlockParams params;
      params.num_nodes = n;
      params.layers = n;  // one node per layer
      params.edge_prob = 0.9;
      params.max_latency = max_latency;
      DepGraph g = random_block(prng, params);
      const std::vector<NodeId> list =
          random_topo_list(prng, g, all_nodes(g));
      for (const char* name : kMachines) {
        for (const int window : kWindows) {
          expect_byte_exact(
              simulate_list(g, *machine_preset(name), list, window),
              oracle_simulate_list(g, *machine_preset(name), list, window),
              std::string("chain ") + name + " W=" + std::to_string(window));
        }
      }
    }
  }
}

TEST(SimOracle, MachineClassedBlocksAndSchedulerLists) {
  // Multi-FU-class workloads (loads/int/fp/stores with the machine's real
  // timings) simulated through the lists the compiler actually emits.
  Prng prng(0x5c4ed);
  for (const char* name : kMachines) {
    const MachineModel& machine = *machine_preset(name);
    for (const int n : {8, 30, 90}) {
      DepGraph g = random_machine_block(prng, machine, n, 0.25);
      const RankScheduler scheduler(g, machine);
      LookaheadOptions opts;
      opts.window = 4;
      const ScheduleCache::ScopedBypass bypass;
      const std::vector<NodeId> list =
          schedule_trace(scheduler, opts).priority_list();
      for (const int window : kWindows) {
        expect_byte_exact(
            simulate_list(g, machine, list, window),
            oracle_simulate_list(g, machine, list, window),
            std::string("classed ") + name + " W=" + std::to_string(window));
      }
    }
  }
}

TEST(SimOracle, PartialListsSkipUnlistedNodes) {
  // Lists covering only a subset of the graph: dependences through unlisted
  // nodes vanish, exactly as in the oracle's pos[] filtering.
  Prng prng(0x9a57);
  RandomBlockParams params;
  params.num_nodes = 60;
  params.edge_prob = 0.2;
  params.max_latency = 3;
  DepGraph g = random_block(prng, params);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<NodeId> subset;
    for (NodeId id = 0; id < static_cast<NodeId>(g.num_nodes()); ++id) {
      if (prng.index(3) != 0) subset.push_back(id);
    }
    const std::vector<NodeId> list = random_topo_list(prng, g, subset);
    for (const int window : {1, 4, 16}) {
      expect_byte_exact(
          simulate_list(g, *machine_preset("rs6000-like"), list, window),
          oracle_simulate_list(g, *machine_preset("rs6000-like"), list,
                               window),
          "subset W=" + std::to_string(window));
    }
  }
}

TEST(SimOracle, EmptyAndSingletonLists) {
  DepGraph g;
  g.add_node("a", 2, 0);
  const MachineModel& machine = *machine_preset("scalar01");
  const std::vector<NodeId> empty;
  expect_byte_exact(simulate_list(g, machine, empty, 4),
                    oracle_simulate_list(g, machine, empty, 4), "empty");
  const std::vector<NodeId> one = {0};
  expect_byte_exact(simulate_list(g, machine, one, 1),
                    oracle_simulate_list(g, machine, one, 1), "singleton");
}

// ---------------------------------------------------------------------------
// Targeted: bulk attribution across a jumped gap.
// ---------------------------------------------------------------------------

TEST(SimOracle, BulkWindowAttributionAcrossJump) {
  // a --(latency 10)--> b, with c independent and beyond the W=1 window.
  // After a issues at cycle 0 the engine jumps straight to cycle 11; every
  // jumped cycle must be attributed to the window (c was ready with a free
  // unit the whole time, only the head blockage hid it).
  DepGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  g.add_edge(a, b, /*latency=*/10);
  const std::vector<NodeId> list = {a, b, c};
  const MachineModel& machine = *machine_preset("scalar01");

  const SimResult r = simulate_list(g, machine, list, /*window=*/1);
  expect_byte_exact(r, oracle_simulate_list(g, machine, list, 1), "jump");
  EXPECT_EQ(r.stall_cycles, 10);
  EXPECT_EQ(r.window_stall_cycles, 10);
  EXPECT_EQ(r.latency_stall_cycles, 0);
  EXPECT_EQ(r.issue_time[b], 11);
  EXPECT_EQ(r.issue_time[c], 12);
}

TEST(SimOracle, GapSplitsAtBeyondWindowReadyTime) {
  // As above, but c itself depends on a with latency 5: the jumped gap
  // (cycles 1..10) must split at c's arrival — cycles 1..5 are latency
  // stalls (nothing anywhere could issue), cycles 6..10 window stalls.
  DepGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  g.add_edge(a, b, /*latency=*/10);
  g.add_edge(a, c, /*latency=*/5);
  const std::vector<NodeId> list = {a, b, c};
  const MachineModel& machine = *machine_preset("scalar01");

  const SimResult r = simulate_list(g, machine, list, /*window=*/1);
  expect_byte_exact(r, oracle_simulate_list(g, machine, list, 1), "split");
  EXPECT_EQ(r.stall_cycles, 10);
  EXPECT_EQ(r.latency_stall_cycles, 5);
  EXPECT_EQ(r.window_stall_cycles, 5);
}

TEST(SimOracle, OccupancyAccumulatesInBulkAcrossJump) {
  // A chain with a large latency: the whole gap sits at occupancy W (all
  // exposed instructions blocked), accumulated by one bulk update.
  DepGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  g.add_edge(a, b, /*latency=*/7);
  g.add_edge(b, c, /*latency=*/7);
  const std::vector<NodeId> list = {a, b, c};
  const MachineModel& machine = *machine_preset("scalar01");

  const SimResult r = simulate_list(g, machine, list, /*window=*/2);
  expect_byte_exact(r, oracle_simulate_list(g, machine, list, 2), "occ");
  Time cycles = 0;
  for (const Time v : r.window_occupancy) cycles += v;
  // Histogram totals the executed cycles: last issue at 16, so 17 cycles.
  EXPECT_EQ(cycles, 17);
  // First wait (cycles 0..8) exposes {b, c}; second (9..16) just {c}.
  EXPECT_EQ(r.window_occupancy[2], 9);
  EXPECT_EQ(r.window_occupancy[1], 8);
  EXPECT_EQ(r.latency_stall_cycles, 14);
  EXPECT_EQ(r.window_stall_cycles, 0);
}

// ---------------------------------------------------------------------------
// Scratch reuse and the batched survey API.
// ---------------------------------------------------------------------------

TEST(SimOracle, ScratchReuseAcrossMixedShapes) {
  Prng prng(0x5c4a7c4);
  SimScratch scratch;
  for (int trial = 0; trial < 12; ++trial) {
    RandomBlockParams params;
    params.num_nodes = trial % 2 == 0 ? 80 : 7;  // alternate big / small
    params.edge_prob = 0.3;
    params.max_latency = 3;
    DepGraph g = random_block(prng, params);
    const std::vector<NodeId> list = random_topo_list(prng, g, all_nodes(g));
    const char* name = kMachines[static_cast<std::size_t>(trial) %
                                 kMachines.size()];
    const int window = kWindows[static_cast<std::size_t>(trial) %
                                kWindows.size()];
    expect_byte_exact(
        simulate_list(g, *machine_preset(name), list, window, scratch),
        oracle_simulate_list(g, *machine_preset(name), list, window),
        "scratch trial " + std::to_string(trial));
  }
}

TEST(SimOracle, SimulateManyMatchesPerCallResults) {
  Prng prng(0xba7c4);
  std::vector<DepGraph> graphs;
  std::vector<std::vector<NodeId>> lists;
  graphs.reserve(24);
  for (int i = 0; i < 24; ++i) {
    RandomBlockParams params;
    params.num_nodes = 5 + i * 7;
    params.edge_prob = 0.25;
    params.max_latency = 1 + i % 3;
    graphs.push_back(random_block(prng, params));
  }
  lists.reserve(graphs.size());
  for (const DepGraph& g : graphs) {
    lists.push_back(random_topo_list(prng, g, all_nodes(g)));
  }
  std::vector<SimJob> jobs;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const char* name = kMachines[i % kMachines.size()];
    jobs.push_back({&graphs[i], machine_preset(name), &lists[i],
                    kWindows[i % kWindows.size()]});
  }
  const std::vector<SimResult> serial = simulate_many(jobs, /*threads=*/1);
  const std::vector<SimResult> parallel = simulate_many(jobs, /*threads=*/8);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SimResult one = simulate_list(*jobs[i].graph, *jobs[i].machine,
                                        *jobs[i].list, jobs[i].window);
    expect_byte_exact(serial[i], one, "serial job " + std::to_string(i));
    expect_byte_exact(parallel[i], one, "parallel job " + std::to_string(i));
  }
}

TEST(SimOracle, EventCountersDecomposeSimulatedCycles) {
  if (!obs::kHooksCompiledIn) GTEST_SKIP() << "obs hooks compiled out";
  obs::set_enabled(false);
  obs::reset();
  obs::set_enabled(true);
  Prng prng(0xe7c7);
  RandomBlockParams params;
  params.num_nodes = 60;
  params.layers = 60;
  params.edge_prob = 0.9;
  params.max_latency = 3;
  DepGraph g = random_block(prng, params);
  const std::vector<NodeId> list = random_topo_list(prng, g, all_nodes(g));

  const auto value = obs::counter_value;
  const std::uint64_t cycles0 = value(obs::ctr::kSimCycles);
  const std::uint64_t events0 = value(obs::ctr::kSimEvents);
  const std::uint64_t jumped0 = value(obs::ctr::kSimCyclesJumped);
  const SimResult r = simulate_list(g, *machine_preset("scalar01"), list, 4);
  const std::uint64_t cycles = value(obs::ctr::kSimCycles) - cycles0;
  const std::uint64_t events = value(obs::ctr::kSimEvents) - events0;
  const std::uint64_t jumped = value(obs::ctr::kSimCyclesJumped) - jumped0;
  EXPECT_EQ(cycles, static_cast<std::uint64_t>(r.completion));
  EXPECT_EQ(events + jumped, cycles);
  EXPECT_LE(events, cycles);
  // The stall-heavy chain must actually exercise the jump path.
  EXPECT_GT(jumped, 0u);
  obs::set_enabled(false);
}

}  // namespace
}  // namespace ais
