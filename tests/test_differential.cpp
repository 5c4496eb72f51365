// Differential properties for the optimized Rank/Merge/Move_Idle hot path,
// the memoized §5.2.3 loop candidate search, the loop simulator's skipping
// of recurring periods, the IR front end (the
// renderer, the dependence builder and the asm parser), the schedule
// cache's one-pass trace key and the verifier's dependence derivation and
// block matching.
//
// The session-cached scheduler (closure reuse, incremental reranks, the
// persistent by-rank ordering, the packed-key sort, the ready-queue greedy
// pass) and the galloping Merge relaxation are required to be *byte
// identical* to the straightforward pre-optimization formulation.  That
// formulation is re-implemented here, verbatim from the original code, as
// an in-test oracle; every test below drives both implementations over
// randomized instances and compares schedules, ranks, deadlines and relax
// amounts exactly — not approximately.
#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cfg/cfg.hpp"
#include "cfg/trace_select.hpp"
#include "core/chop.hpp"
#include "core/deadlines.hpp"
#include "core/lookahead.hpp"
#include "core/loop_single.hpp"
#include "core/loop_trace.hpp"
#include "core/merge.hpp"
#include "core/move_idle.hpp"
#include "core/rank.hpp"
#include "core/schedule_cache.hpp"
#include "driver/anticipatory.hpp"
#include "graph/closure.hpp"
#include "graph/topo.hpp"
#include "ir/asm_parser.hpp"
#include "ir/depbuild.hpp"
#include "ir/instruction.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"
#include "server/compile_service.hpp"
#include "sim/lookahead_sim.hpp"
#include "sim/loop_sim.hpp"
#include "support/arena.hpp"
#include "support/assert.hpp"
#include "support/prng.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"
#include "verify/ir_deps.hpp"
#include "verify/schedule_check.hpp"
#include "verify/verify.hpp"
#include "workloads/random_graphs.hpp"
#include "workloads/random_ir.hpp"

namespace ais {
namespace {

constexpr Time kInf = std::numeric_limits<Time>::max() / 4;

// ---------------------------------------------------------------------------
// Reference implementations (the pre-optimization formulation).
// ---------------------------------------------------------------------------

/// Original descendant closure, verbatim from the pre-ClosureMatrix code:
/// one independently allocated DynamicBitset per row instead of the
/// contiguous row-major matrix.  Kept as the oracle the contiguous layout
/// is differenced against (rows and reachability).
class RefDescendantClosure {
 public:
  RefDescendantClosure(const DepGraph& g, const NodeSet& active)
      : domain_(g.num_nodes()),
        desc_(g.num_nodes(), DynamicBitset(g.num_nodes())),
        member_(g.num_nodes(), false) {
    const auto order = topo_order(g, active);
    EXPECT_TRUE(order.has_value());
    for (const NodeId id : *order) member_[id] = true;

    // Reverse topological order: successors' closures are complete first.
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
      const NodeId id = *it;
      DynamicBitset& mine = desc_[id];
      for (const auto eidx : g.out_edges(id)) {
        const DepEdge& e = g.edge(eidx);
        if (e.distance != 0 || !active.contains(e.to)) continue;
        mine.set(e.to);
        mine |= desc_[e.to];
      }
    }
  }

  const DynamicBitset& descendants(NodeId id) const {
    EXPECT_TRUE(id < domain_ && member_[id]);
    return desc_[id];
  }

  bool reaches(NodeId ancestor, NodeId descendant) const {
    return descendants(ancestor).test(descendant);
  }

 private:
  std::size_t domain_;
  std::vector<DynamicBitset> desc_;
  std::vector<bool> member_;
};

/// Backward packer of the original compute_ranks: one lane per physical
/// unit, re-created from scratch for every node.
class RefBackwardPacker {
 public:
  explicit RefBackwardPacker(const MachineModel& machine) {
    avail_.resize(static_cast<std::size_t>(machine.num_fu_classes()));
    for (int c = 0; c < machine.num_fu_classes(); ++c) {
      avail_[static_cast<std::size_t>(c)].assign(
          static_cast<std::size_t>(machine.fu_count(c)), kInf);
    }
  }

  Time insert(int fu_class, int exec_time, Time rank, bool split) {
    auto& lanes = avail_[static_cast<std::size_t>(fu_class)];
    if (!split || exec_time == 1) {
      auto best = std::max_element(lanes.begin(), lanes.end());
      const Time completion = std::min(rank, *best);
      *best = completion - exec_time;
      return completion - exec_time;
    }
    Time earliest = kInf;
    for (int piece = 0; piece < exec_time; ++piece) {
      auto best = std::max_element(lanes.begin(), lanes.end());
      const Time completion = std::min(rank, *best);
      *best = completion - 1;
      earliest = std::min(earliest, completion - 1);
    }
    return earliest;
  }

 private:
  std::vector<std::vector<Time>> avail_;
};

/// Original compute_ranks: fresh topo order + closure per call, per-node
/// descendant sort, fresh packer and back_start per node.
std::vector<Time> ref_compute_ranks(const RankScheduler& scheduler,
                                    const NodeSet& active,
                                    const DeadlineMap& deadlines,
                                    const RankOptions& opts,
                                    bool* structurally_feasible = nullptr) {
  const DepGraph& graph = scheduler.graph();
  const auto order = topo_order(graph, active);
  EXPECT_TRUE(order.has_value());
  const RefDescendantClosure closure(graph, active);

  std::vector<Time> rank(graph.num_nodes(), kInf);
  bool ok = true;

  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const NodeId x = *it;
    Time r = deadlines[x];

    std::vector<NodeId> desc;
    closure.descendants(x).for_each(
        [&desc](std::size_t i) { desc.push_back(static_cast<NodeId>(i)); });
    std::sort(desc.begin(), desc.end(), [&rank](NodeId a, NodeId b) {
      return std::tie(rank[b], a) < std::tie(rank[a], b);
    });

    RefBackwardPacker packer(scheduler.machine());
    std::vector<Time> back_start(graph.num_nodes(), kInf);
    for (const NodeId y : desc) {
      const NodeInfo& info = graph.node(y);
      back_start[y] = packer.insert(info.fu_class, info.exec_time, rank[y],
                                    opts.split_long_ops);
      r = std::min(r, back_start[y]);
    }
    for (const auto eidx : graph.out_edges(x)) {
      const DepEdge& e = graph.edge(eidx);
      if (e.distance != 0 || !active.contains(e.to)) continue;
      r = std::min(r, back_start[e.to] - e.latency);
    }

    rank[x] = r;
    if (r < graph.node(x).exec_time) ok = false;
  }

  if (structurally_feasible != nullptr) *structurally_feasible = ok;
  return rank;
}

/// Original greedy list scheduler: rescan the priority list from the front
/// after every placement, advance time one cycle at a time.
Schedule ref_greedy_from_list(const RankScheduler& scheduler,
                              const NodeSet& active,
                              const std::vector<NodeId>& list) {
  const DepGraph& graph = scheduler.graph();
  const MachineModel& machine = scheduler.machine();

  std::vector<int> unit_base(
      static_cast<std::size_t>(machine.num_fu_classes()), 0);
  int total_units = 0;
  for (int c = 0; c < machine.num_fu_classes(); ++c) {
    unit_base[static_cast<std::size_t>(c)] = total_units;
    total_units += machine.fu_count(c);
  }

  Schedule sched(&graph, active, total_units);
  std::vector<Time> unit_free(static_cast<std::size_t>(total_units), 0);

  std::vector<int> preds_left(graph.num_nodes(), 0);
  std::vector<Time> est(graph.num_nodes(), 0);
  for (const NodeId id : list) {
    for (const auto eidx : graph.in_edges(id)) {
      const DepEdge& e = graph.edge(eidx);
      if (e.distance == 0 && active.contains(e.from)) ++preds_left[id];
    }
  }

  std::size_t unplaced = list.size();
  Time t = 0;
  while (unplaced > 0) {
    int issued = 0;
    bool progressed = true;
    while (progressed && issued < machine.issue_width()) {
      progressed = false;
      for (const NodeId id : list) {
        if (sched.placed(id)) continue;
        if (preds_left[id] != 0 || est[id] > t) continue;
        const NodeInfo& info = graph.node(id);
        const int base = unit_base[static_cast<std::size_t>(info.fu_class)];
        int chosen = -1;
        for (int k = 0; k < machine.fu_count(info.fu_class); ++k) {
          if (unit_free[static_cast<std::size_t>(base + k)] <= t) {
            chosen = base + k;
            break;
          }
        }
        if (chosen < 0) continue;
        sched.place(id, t, chosen);
        unit_free[static_cast<std::size_t>(chosen)] = t + info.exec_time;
        --unplaced;
        ++issued;
        for (const auto eidx : graph.out_edges(id)) {
          const DepEdge& e = graph.edge(eidx);
          if (e.distance != 0 || !active.contains(e.to)) continue;
          est[e.to] = std::max(est[e.to], t + info.exec_time + e.latency);
          --preds_left[e.to];
        }
        progressed = true;
        break;
      }
    }
    ++t;
  }
  return sched;
}

struct RefRunResult {
  bool feasible = false;
  std::vector<Time> rank;
  Schedule schedule;
  Time makespan = 0;
};

/// Original run: sort by (rank, tie, id) with make_tuple, greedy, decide
/// feasibility by the schedule against the deadlines.
RefRunResult ref_run(const RankScheduler& scheduler, const NodeSet& active,
                     const DeadlineMap& deadlines, const RankOptions& opts) {
  std::vector<Time> rank = ref_compute_ranks(scheduler, active, deadlines,
                                             opts);

  std::vector<NodeId> list = active.ids();
  const auto tie_value = [&opts](NodeId id) {
    return opts.tie_break.empty() ? static_cast<int>(id) : opts.tie_break[id];
  };
  std::sort(list.begin(), list.end(), [&](NodeId a, NodeId b) {
    return std::make_tuple(rank[a], tie_value(a), a) <
           std::make_tuple(rank[b], tie_value(b), b);
  });

  RefRunResult result{
      .feasible = true,
      .rank = std::move(rank),
      .schedule = ref_greedy_from_list(scheduler, active, list),
      .makespan = 0,
  };
  result.makespan = result.schedule.makespan();
  for (const NodeId id : active.ids()) {
    if (result.schedule.completion(id) > deadlines[id]) {
      result.feasible = false;
      break;
    }
  }
  return result;
}

struct RefMergeResult {
  Schedule schedule;
  Time makespan = 0;
  DeadlineMap deadlines;
  Time relax = 0;
};

/// Original merge_blocks: the unconditional +1 linear relaxation scan,
/// every round a full fresh Rank Algorithm run.
RefMergeResult ref_merge_blocks(const RankScheduler& scheduler,
                                const NodeSet& old_nodes,
                                const NodeSet& new_nodes,
                                const DeadlineMap& deadlines, Time t_old,
                                Time huge, const RankOptions& opts) {
  const DepGraph& g = scheduler.graph();
  const NodeSet cur = set_union(old_nodes, new_nodes);

  DeadlineMap d_cur = uniform_deadlines(g, huge);
  const RefRunResult lower = ref_run(scheduler, cur, d_cur, opts);
  EXPECT_TRUE(lower.feasible);
  const Time t_lower = lower.makespan;

  for (const NodeId w : old_nodes.ids()) {
    d_cur[w] = std::min(deadlines[w], t_old);
  }
  for (const NodeId w : new_nodes.ids()) d_cur[w] = t_lower;

  const Time new_only_limit =
      t_old + g.max_latency() + g.total_work() + 1 - t_lower;
  const Time hard_limit =
      new_only_limit + g.total_work() +
      static_cast<Time>(cur.size() + 1) * (g.max_latency() + 1);
  Time relax = 0;
  while (true) {
    RefRunResult result = ref_run(scheduler, cur, d_cur, opts);
    if (result.feasible) {
      return RefMergeResult{
          .schedule = std::move(result.schedule),
          .makespan = result.makespan,
          .deadlines = std::move(d_cur),
          .relax = relax,
      };
    }
    ++relax;
    EXPECT_LE(relax, hard_limit) << "reference merge diverged";
    for (const NodeId w : new_nodes.ids()) ++d_cur[w];
    if (relax > new_only_limit) {
      for (const NodeId w : old_nodes.ids()) ++d_cur[w];
    }
  }
}

/// Original Move_Idle_Slot / Delay_Idle_Slots, verbatim from before the
/// failure guards: every attempt primes and snapshots the session, copies
/// the schedule into a `failure` result and the deadline map into a trial
/// map, and runs the sigma caps before the loop can fail; every counter is
/// bumped per event.  The optimized path must match it exactly — schedules,
/// slots, moved flags and deadline maps — and keep its attempts, moved and
/// rank-run counts.
///
/// Class-major unit -> FU class mapping (same layout as greedy_from_list).
std::vector<int> ref_unit_classes(const MachineModel& machine) {
  std::vector<int> classes;
  for (int c = 0; c < machine.num_fu_classes(); ++c) {
    for (int k = 0; k < machine.fu_count(c); ++k) classes.push_back(c);
  }
  return classes;
}

/// Restores the session's rank-cache snapshot on scope exit unless the
/// trial committed.  Failed deadline trials thereby never pollute the
/// session cache: the next trial diffs against the base deadlines instead
/// of paying a second incremental pass to undo this trial's caps.
class RefSessionRestore {
 public:
  explicit RefSessionRestore(RankSession& session) : session_(&session) {}
  RefSessionRestore(const RefSessionRestore&) = delete;
  RefSessionRestore& operator=(const RefSessionRestore&) = delete;
  ~RefSessionRestore() {
    if (session_ != nullptr) session_->restore_snapshot();
  }
  void commit() { session_ = nullptr; }

 private:
  RankSession* session_;
};

MoveIdleResult ref_move_idle_slot(RankSession& session, const Schedule& s,
                                  DeadlineMap& deadlines, IdleSlot slot,
                                  const RankOptions& opts) {
  AIS_OBS_COUNT(obs::ctr::kIdleMoveAttempts);
  const RankScheduler& scheduler = session.scheduler();
  const NodeSet& active = s.active();
  AIS_CHECK(session.active() == active,
            "session active set must match the schedule");
  const std::vector<int> classes = ref_unit_classes(scheduler.machine());
  const int slot_class = classes[static_cast<std::size_t>(slot.unit)];
  const std::size_t index = s.idle_slot_index(slot);

  const MoveIdleResult failure{s, slot, false};

  // Prime the cache at the *uncapped* deadlines and snapshot it; the trial
  // below is speculative, and SessionRestore rolls the cache back to this
  // state on every failure path.
  session.compute_ranks(deadlines, opts);
  session.snapshot();
  RefSessionRestore restore(session);

  // Trial deadlines; committed into `deadlines` only on success.
  DeadlineMap trial = deadlines;

  // sigma: nodes currently scheduled before the slot on units of the slot's
  // class.  Capping their deadlines at the slot time guarantees no earlier
  // idle slot moves earlier (they must all still complete by slot.time).
  std::vector<NodeId> sigma;
  for (const NodeId y : session.active_ids()) {
    if (classes[static_cast<std::size_t>(s.unit_of(y))] != slot_class) continue;
    if (s.start(y) < slot.time) {
      sigma.push_back(y);
      if (trial[y] > slot.time) {
        trial[y] = slot.time;
        AIS_OBS_COUNT(obs::ctr::kDeadlinesTightened);
      }
    }
  }

  // Ranks under the capped deadlines, for the paper's failure guard.
  bool structurally_feasible = true;
  std::vector<Time> rank =
      session.compute_ranks(trial, opts, &structurally_feasible);
  if (!structurally_feasible) return failure;

  Schedule current = s;
  // Each iteration strictly reduces the tail node's deadline below
  // slot.time, and the guard below bounds how often the slot can stay put;
  // the explicit cap is belt-and-braces for the heuristic regimes.
  const std::size_t iteration_cap = 4 * active.size() + 8;
  for (std::size_t iter = 0; iter < iteration_cap; ++iter) {
    const NodeId tail = current.tail_node(slot.unit, slot.time);
    if (tail == kInvalidNode) return failure;  // slot preceded by idle time
    if (trial[tail] > slot.time - 1) {
      trial[tail] = slot.time - 1;
      AIS_OBS_COUNT(obs::ctr::kDeadlinesTightened);
    }

    // Paper guard: some sigma node must still be allowed to complete at
    // slot.time, otherwise the tail position can never be filled.
    bool refillable = false;
    for (const NodeId y : sigma) {
      if (rank[y] >= slot.time && trial[y] >= slot.time) {
        refillable = true;
        break;
      }
    }
    if (!refillable) return failure;

    RankResult result = session.run(trial, opts);
    if (!result.feasible) return failure;
    rank = std::move(result.rank);

    const auto& slots = result.schedule.idle_slots();
    IdleSlot new_slot;
    if (index >= slots.size()) {
      // The slot was eliminated outright (possible in heuristic regimes;
      // §4.2 calls this out as a desirable outcome).
      new_slot = IdleSlot{slot.unit, result.schedule.makespan()};
    } else {
      new_slot = slots[index];
    }
    if (new_slot.time > slot.time) {
      deadlines = std::move(trial);  // finalize all deadline modifications
      restore.commit();  // the trial state is the new base
      AIS_OBS_COUNT(obs::ctr::kIdleSlotsMoved);
      return MoveIdleResult{std::move(result.schedule), new_slot, true};
    }
    if (new_slot.time < slot.time) {
      // Cannot happen in the restricted case (the sigma caps pin every node
      // before the slot), but heuristic machines (typed units, long
      // execution times) can shuffle slots across units; treat as failure.
      return failure;
    }
    current = std::move(result.schedule);
  }
  return failure;
}

Schedule ref_delay_idle_slots(const RankScheduler& scheduler, Schedule s,
                              DeadlineMap& deadlines,
                              const RankOptions& opts) {
  AIS_OBS_SPAN("move_idle");
  // Every re-schedule below keeps the active set of `s`, so one session
  // serves the whole sweep.
  RankSession session(scheduler, s.active());
  std::size_t i = 0;
  while (true) {
    const auto& slots = s.idle_slots();
    if (i >= slots.size()) break;
    IdleSlot slot = slots[i];
    // Keep trying to move the i-th idle slot (paper Fig. 6 inner loop).
    while (true) {
      MoveIdleResult res =
          ref_move_idle_slot(session, s, deadlines, slot, opts);
      s = std::move(res.schedule);
      if (!res.moved || res.slot.time >= s.makespan()) break;
      slot = res.slot;
    }
    ++i;
  }
  return s;
}

/// Original Schedule::idle_slots(): collect every unit's idle times, then
/// sort by (time, unit).
std::vector<IdleSlot> ref_idle_slots(const Schedule& s) {
  std::vector<IdleSlot> slots;
  for (int u = 0; u < s.total_units(); ++u) {
    for (const Time t : s.idle_times(u)) slots.push_back(IdleSlot{u, t});
  }
  std::sort(slots.begin(), slots.end(),
            [](const IdleSlot& a, const IdleSlot& b) {
              return std::tie(a.time, a.unit) < std::tie(b.time, b.unit);
            });
  return slots;
}

// ---------------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------------

void expect_same_schedule(const Schedule& got, const Schedule& want,
                          const NodeSet& active) {
  EXPECT_EQ(got.makespan(), want.makespan());
  EXPECT_EQ(got.permutation(), want.permutation());
  for (const NodeId id : active.ids()) {
    ASSERT_TRUE(got.placed(id));
    ASSERT_TRUE(want.placed(id));
    EXPECT_EQ(got.start(id), want.start(id)) << "node " << id;
    EXPECT_EQ(got.unit_of(id), want.unit_of(id)) << "node " << id;
  }
}

void expect_same_ranks(const std::vector<Time>& got,
                       const std::vector<Time>& want, const NodeSet& active) {
  for (const NodeId id : active.ids()) {
    EXPECT_EQ(got[id], want[id]) << "rank of node " << id;
  }
}

/// Random deadline map: each active node gets a deadline in
/// [exec_time, huge], biased toward tight values so infeasible-ish regimes
/// get exercised too.
DeadlineMap random_deadlines(Prng& prng, const DepGraph& g,
                             const NodeSet& active, Time huge) {
  DeadlineMap d = uniform_deadlines(g, huge);
  for (const NodeId id : active.ids()) {
    if (prng.uniform(0, 3) == 0) continue;  // keep huge
    d[id] = prng.uniform(g.node(id).exec_time, huge);
  }
  return d;
}

struct Regime {
  const char* name;
  MachineModel machine;
  int max_latency;
};

std::vector<Regime> regimes() {
  return {
      {"scalar01", scalar01(), 1},
      {"scalar01-lat3", scalar01(), 3},
      {"deep_pipeline", deep_pipeline(), 3},
      {"vliw4", vliw4(), 2},
  };
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

/// compute_ranks and run must agree with the reference on random traces
/// across machines, latency regimes, tie-break vectors and the
/// split-long-ops switch.
TEST(Differential, RankAndRunMatchReference) {
  for (const Regime& regime : regimes()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Prng prng(0xd1ff + seed * 977);
      RandomTraceParams params;
      params.num_blocks = 3;
      params.block.num_nodes = 18;
      params.block.edge_prob = 0.3;
      params.block.max_latency = regime.max_latency;
      params.cross_edges = 2;
      const DepGraph g = random_trace(prng, params);
      const RankScheduler scheduler(g, regime.machine);
      const NodeSet all = NodeSet::all(g.num_nodes());
      const Time huge = huge_deadline(g, all);

      for (int variant = 0; variant < 3; ++variant) {
        const DeadlineMap d = variant == 0
                                  ? uniform_deadlines(g, huge)
                                  : random_deadlines(prng, g, all, huge);
        RankOptions opts;
        opts.split_long_ops = (variant == 2);
        if (variant == 2) {
          opts.tie_break.resize(g.num_nodes());
          for (auto& t : opts.tie_break) {
            t = static_cast<int>(prng.uniform(0, 5));
          }
        }

        bool got_ok = true;
        bool want_ok = true;
        const std::vector<Time> got_rank = scheduler.compute_ranks(
            all, d, opts, &got_ok);
        const std::vector<Time> want_rank =
            ref_compute_ranks(scheduler, all, d, opts, &want_ok);
        expect_same_ranks(got_rank, want_rank, all);
        EXPECT_EQ(got_ok, want_ok);

        const RankResult got = scheduler.run(all, d, opts);
        const RefRunResult want = ref_run(scheduler, all, d, opts);
        EXPECT_EQ(got.feasible, want.feasible)
            << regime.name << " seed " << seed << " variant " << variant;
        expect_same_ranks(got.rank, want.rank, all);
        expect_same_schedule(got.schedule, want.schedule, all);
        EXPECT_EQ(got.makespan, want.makespan);
      }
    }
  }
}

/// Same property on typed-machine graphs (realistic FU classes, non-unit
/// execution times drawn from the machine), both packing modes.
TEST(Differential, RankAndRunMatchReferenceTypedMachines) {
  for (const MachineModel& machine : {rs6000_like(), vliw4()}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Prng gen(0x7e9d + seed * 131);
      const DepGraph g = random_machine_trace(gen, machine, /*num_blocks=*/3,
                                              /*nodes_per_block=*/14,
                                              /*edge_prob=*/0.3,
                                              /*cross_edges=*/2);
      const RankScheduler scheduler(g, machine);
      const NodeSet all = NodeSet::all(g.num_nodes());
      const Time huge = huge_deadline(g, all);

      for (const bool split : {false, true}) {
        const DeadlineMap d = random_deadlines(gen, g, all, huge);
        RankOptions opts;
        opts.split_long_ops = split;

        const RankResult got = scheduler.run(all, d, opts);
        const RefRunResult want = ref_run(scheduler, all, d, opts);
        EXPECT_EQ(got.feasible, want.feasible);
        expect_same_ranks(got.rank, want.rank, all);
        expect_same_schedule(got.schedule, want.schedule, all);
      }
    }
  }
}

/// A long-lived session fed a random deadline mutation sequence must match
/// a fresh reference computation at every step — this drives the O(1)
/// deadline-only rerank path, reposition(), and the full incremental sweep.
TEST(Differential, SessionIncrementalMatchesFresh) {
  for (const Regime& regime : regimes()) {
    Prng prng(0x5e55 + static_cast<std::uint64_t>(regime.max_latency));
    RandomBlockParams params;
    params.num_nodes = 36;
    params.edge_prob = 0.15;
    params.max_latency = regime.max_latency;
    const DepGraph g = random_block(prng, params);
    const RankScheduler scheduler(g, regime.machine);
    const NodeSet all = NodeSet::all(g.num_nodes());
    const Time huge = huge_deadline(g, all);

    RankSession session(scheduler, all);
    DeadlineMap d = uniform_deadlines(g, huge);
    const RankOptions opts;

    for (int step = 0; step < 40; ++step) {
      // Mutate a random subset; sometimes a single node (the O(1) path),
      // sometimes a swath (the incremental sweep + repositioning).
      const int touched =
          step % 3 == 0 ? 1 : static_cast<int>(prng.uniform(2, 12));
      for (int k = 0; k < touched; ++k) {
        const NodeId id =
            static_cast<NodeId>(prng.uniform(0, g.num_nodes() - 1));
        d[id] = prng.uniform(g.node(id).exec_time, huge);
      }

      bool got_ok = true;
      bool want_ok = true;
      const std::vector<Time>& got = session.compute_ranks(d, opts, &got_ok);
      const std::vector<Time> want =
          ref_compute_ranks(scheduler, all, d, opts, &want_ok);
      expect_same_ranks(got, want, all);
      EXPECT_EQ(got_ok, want_ok) << regime.name << " step " << step;

      if (step % 4 == 1) {
        const RankResult got_run = session.run(d, opts);
        const RefRunResult want_run = ref_run(scheduler, all, d, opts);
        EXPECT_EQ(got_run.feasible, want_run.feasible);
        expect_same_schedule(got_run.schedule, want_run.schedule, all);
      }

      // Exercise snapshot/restore: take a snapshot, wander off to other
      // deadlines, restore, and verify the next computation still matches
      // the reference for *current* deadlines.
      if (step % 5 == 2) {
        session.snapshot();
        DeadlineMap detour = d;
        for (const NodeId id : all.ids()) {
          detour[id] = std::max<Time>(g.node(id).exec_time, d[id] / 2);
        }
        (void)session.compute_ranks(detour, opts);
        session.restore_snapshot();
        const std::vector<Time>& back = session.compute_ranks(d, opts);
        expect_same_ranks(back, want, all);
      }
    }
  }
}

/// Galloping + bisection in the restricted case must return exactly the
/// relax amount, deadlines and schedule of the +1 linear scan.
TEST(Differential, MergeMatchesLinearReferenceRestricted) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Prng prng(0x3a6e + seed * 53);
    RandomTraceParams params;
    params.num_blocks = 2;
    params.block.num_nodes = 16;
    params.block.edge_prob = 0.25;
    params.block.max_latency = 1;
    params.cross_edges = 3;
    const DepGraph g = random_trace(prng, params);
    const MachineModel machine = scalar01();
    const RankScheduler scheduler(g, machine);
    const std::vector<NodeSet> blocks = blocks_of(g);
    ASSERT_EQ(blocks.size(), 2u);
    const Time huge = huge_deadline(g, NodeSet::all(g.num_nodes()));
    DeadlineMap deadlines = uniform_deadlines(g, huge);
    const RankResult old_alone = scheduler.run(blocks[0], deadlines, {});
    ASSERT_TRUE(old_alone.feasible);
    // Two deadline setups: pinned-to-completions forces relax > 0, huge
    // leaves relax == 0 — both ends of the gallop.
    for (const bool pinned : {true, false}) {
      DeadlineMap d = deadlines;
      if (pinned) {
        for (const NodeId id : blocks[0].ids()) {
          d[id] = old_alone.schedule.completion(id);
        }
      }
      const NodeSet cur = set_union(blocks[0], blocks[1]);
      const MergeResult got = merge_blocks(scheduler, blocks[0], blocks[1], d,
                                           old_alone.makespan, huge, {});
      const RefMergeResult want = ref_merge_blocks(
          scheduler, blocks[0], blocks[1], d, old_alone.makespan, huge, {});
      EXPECT_EQ(got.relax, want.relax) << "seed " << seed;
      EXPECT_EQ(got.makespan, want.makespan);
      expect_same_schedule(got.schedule, want.schedule, cur);
      for (const NodeId id : cur.ids()) {
        EXPECT_EQ(got.deadlines[id], want.deadlines[id]) << "node " << id;
      }
    }
  }
}

/// In heuristic regimes (typed units, latencies > 1) the optimized merge
/// takes the legacy +1 scan — results must still match the reference.
TEST(Differential, MergeMatchesReferenceHeuristic) {
  struct Case {
    MachineModel machine;
    bool typed;
    int max_latency;
  };
  const std::vector<Case> cases = {
      {deep_pipeline(), false, 3},
      {rs6000_like(), true, 1},
  };
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Prng prng(0x8e07 + seed * 17);
      DepGraph g = [&] {
        if (c.typed) {
          return random_machine_trace(prng, c.machine, 2, 12, 0.3, 2);
        }
        RandomTraceParams params;
        params.num_blocks = 2;
        params.block.num_nodes = 12;
        params.block.edge_prob = 0.3;
        params.block.max_latency = c.max_latency;
        params.cross_edges = 2;
        return random_trace(prng, params);
      }();
      const RankScheduler scheduler(g, c.machine);
      const std::vector<NodeSet> blocks = blocks_of(g);
      ASSERT_EQ(blocks.size(), 2u);
      const NodeSet cur = set_union(blocks[0], blocks[1]);
      const Time huge = huge_deadline(g, NodeSet::all(g.num_nodes()));
      DeadlineMap d = uniform_deadlines(g, huge);
      const RankResult old_alone = scheduler.run(blocks[0], d, {});
      ASSERT_TRUE(old_alone.feasible);
      for (const NodeId id : blocks[0].ids()) {
        d[id] = old_alone.schedule.completion(id);
      }
      for (const bool split : {false, true}) {
        RankOptions opts;
        opts.split_long_ops = split;
        const MergeResult got = merge_blocks(scheduler, blocks[0], blocks[1],
                                             d, old_alone.makespan, huge,
                                             opts);
        const RefMergeResult want =
            ref_merge_blocks(scheduler, blocks[0], blocks[1], d,
                             old_alone.makespan, huge, opts);
        EXPECT_EQ(got.relax, want.relax);
        EXPECT_EQ(got.makespan, want.makespan);
        expect_same_schedule(got.schedule, want.schedule, cur);
        for (const NodeId id : cur.ids()) {
          EXPECT_EQ(got.deadlines[id], want.deadlines[id]);
        }
      }
    }
  }
}

/// The ready-queue greedy pass must place exactly like the front-rescan
/// formulation for *any* priority list, not just rank-sorted ones.
TEST(Differential, GreedyQueueMatchesFrontRescan) {
  for (const MachineModel& machine :
       {scalar01(), rs6000_like(), vliw4(), deep_pipeline()}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Prng prng(0x96ee + seed * 271);
      const DepGraph g =
          random_machine_block(prng, machine, /*num_nodes=*/30,
                               /*edge_prob=*/0.2);
      const RankScheduler scheduler(g, machine);
      const NodeSet all = NodeSet::all(g.num_nodes());

      // Random priority list: sort ids by a random key.
      std::vector<NodeId> list = all.ids();
      std::vector<std::uint64_t> key(list.size());
      for (auto& k : key) k = prng();
      std::sort(list.begin(), list.end(), [&](NodeId a, NodeId b) {
        return std::tie(key[a], a) < std::tie(key[b], b);
      });

      const Schedule got = scheduler.greedy_from_list(all, list);
      const Schedule want = ref_greedy_from_list(scheduler, all, list);
      expect_same_schedule(got, want, all);
      EXPECT_EQ(got.idle_slots(), ref_idle_slots(got));

      // The same kernel behind RankSession::run: the session's CSR and
      // predecessor counts, scratch reused run after run under changing
      // deadlines and tie-breaks.  Each schedule must be the front-rescan
      // greedy of the priority list the run's ranks define.
      RankSession session(scheduler, all);
      const Time huge = huge_deadline(g, all);
      for (int step = 0; step < 4; ++step) {
        const DeadlineMap d = step == 0 ? uniform_deadlines(g, huge)
                                        : random_deadlines(prng, g, all, huge);
        RankOptions opts;
        if (step == 3) {
          opts.tie_break.resize(g.num_nodes());
          for (auto& t : opts.tie_break) {
            t = static_cast<int>(prng.uniform(0, 5));
          }
        }
        const RankResult run = session.run(d, opts);
        std::vector<NodeId> by_rank = all.ids();
        std::sort(by_rank.begin(), by_rank.end(), [&](NodeId a, NodeId b) {
          const int ta = opts.tie_break.empty() ? 0 : opts.tie_break[a];
          const int tb = opts.tie_break.empty() ? 0 : opts.tie_break[b];
          return std::tie(run.rank[a], ta, a) < std::tie(run.rank[b], tb, b);
        });
        expect_same_schedule(run.schedule,
                             ref_greedy_from_list(scheduler, all, by_rank),
                             all);
        EXPECT_EQ(run.schedule.idle_slots(), ref_idle_slots(run.schedule))
            << machine.name() << " seed " << seed << " step " << step;
      }
    }
  }
}

/// The contiguous ClosureMatrix-backed closure must agree bit-for-bit with
/// the original per-row DynamicBitset closure on random graphs: every row
/// and every reachability query, over the whole trace and over one block's
/// active subset.
TEST(Differential, ClosureMatrixMatchesPerRowBitsets) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Prng prng(0xc105 + seed * 977);
    RandomTraceParams params;
    params.num_blocks = 3;
    params.block.num_nodes = 8 + static_cast<int>(seed) * 7;
    params.block.edge_prob = 0.15 + 0.05 * static_cast<double>(seed % 3);
    params.cross_edges = 3;
    const DepGraph g = random_trace(prng, params);
    const NodeSet all = NodeSet::all(g.num_nodes());

    const DescendantClosure got(g, all);
    const RefDescendantClosure want(g, all);
    for (NodeId x = 0; x < g.num_nodes(); ++x) {
      const ClosureRow row = got.descendants(x);
      const DynamicBitset& ref = want.descendants(x);
      ASSERT_EQ(row.count(), ref.count()) << "row " << x;
      for (NodeId y = 0; y < g.num_nodes(); ++y) {
        ASSERT_EQ(row.test(y), ref.test(y)) << x << " -> " << y;
        ASSERT_EQ(got.reaches(x, y), want.reaches(x, y)) << x << " -> " << y;
      }
      // for_each must visit exactly the set bits, ascending.
      std::vector<NodeId> via_words;
      row.for_each([&](std::size_t i) {
        via_words.push_back(static_cast<NodeId>(i));
      });
      std::vector<std::size_t> ref_ids = ref.to_indices();
      ASSERT_EQ(via_words.size(), ref_ids.size());
      for (std::size_t i = 0; i < ref_ids.size(); ++i) {
        EXPECT_EQ(via_words[i], static_cast<NodeId>(ref_ids[i]));
      }
    }

    // Active subset: a closure over one block must drop every edge that
    // leaves it, in both implementations alike.
    const NodeSet block = blocks_of(g)[0];
    const DescendantClosure got_block(g, block);
    const RefDescendantClosure want_block(g, block);
    for (const NodeId x : block.ids()) {
      const ClosureRow row = got_block.descendants(x);
      const DynamicBitset& ref = want_block.descendants(x);
      for (NodeId y = 0; y < g.num_nodes(); ++y) {
        ASSERT_EQ(row.test(y), ref.test(y)) << "block row " << x << " -> " << y;
      }
    }
  }
}

/// delay_idle_slots drives move_idle_slot's speculative snapshot/restore
/// machinery; its output must be independent of the session caching (the
/// one-shot move_idle_slot overload constructs a fresh session per call).
TEST(Differential, DelayIdleSlotsSessionIndependent) {
  Prng prng(0xde1a);
  RandomBlockParams params;
  params.num_nodes = 28;
  params.layers = 14;
  params.edge_prob = 0.8;
  params.max_latency = 3;
  const DepGraph g = random_block(prng, params);
  const MachineModel machine = deep_pipeline();
  const RankScheduler scheduler(g, machine);
  const NodeSet all = NodeSet::all(g.num_nodes());
  DeadlineMap base = uniform_deadlines(g, huge_deadline(g, all));
  const RankResult r = scheduler.run(all, base, {});
  ASSERT_TRUE(r.feasible);
  DeadlineMap d1 = base;
  for (const NodeId id : all.ids()) d1[id] = r.makespan;
  DeadlineMap d2 = d1;

  // Sweep once through the shared-session driver...
  Schedule via_driver = delay_idle_slots(scheduler, r.schedule, d1, {});

  // ...and once slot-by-slot through fresh sessions.
  Schedule s = r.schedule;
  std::size_t i = 0;
  while (true) {
    const auto& slots = s.idle_slots();
    if (i >= slots.size()) break;
    IdleSlot slot = slots[i];
    while (true) {
      MoveIdleResult res = move_idle_slot(scheduler, s, d2, slot, {});
      s = std::move(res.schedule);
      if (!res.moved || res.slot.time >= s.makespan()) break;
      slot = res.slot;
    }
    ++i;
  }

  expect_same_schedule(via_driver, s, all);
  EXPECT_EQ(d1, d2);
}

/// Summed counter deltas by id.
using DeltaTotals = std::map<obs::ctr::Id, std::uint64_t>;

/// `id`'s delta in a recorder's capture or in a DeltaTotals.
template <typename Deltas>
std::uint64_t count_of(const Deltas& deltas, obs::ctr::Id id) {
  for (const auto& [at, delta] : deltas) {
    if (at == id) return delta;
  }
  return 0;
}

template <typename Deltas>
void add_deltas(const Deltas& from, DeltaTotals& into) {
  for (const auto& [id, delta] : from) into[id] += delta;
}

/// Counter deltas of the optimized and the reference Move_Idle paths,
/// summed over every compared sweep.
struct MoveIdleTally {
  DeltaTotals got;
  DeltaTotals want;
};

/// Drives one Delay_Idle_Slots input — a schedule and its deadline map —
/// through the optimized path and the verbatim reference: every idle slot
/// alone through the one-shot move_idle_slot, then the whole sweep.
void expect_move_idle_matches_reference(const RankScheduler& scheduler,
                                        const Schedule& s,
                                        const DeadlineMap& d,
                                        const std::string& what,
                                        MoveIdleTally& tally) {
  const NodeSet& active = s.active();
  const std::vector<IdleSlot> slots = s.idle_slots();
  EXPECT_EQ(slots, ref_idle_slots(s)) << what;
  for (const IdleSlot slot : slots) {
    DeadlineMap got_d = d;
    DeadlineMap want_d = d;
    const MoveIdleResult got = move_idle_slot(scheduler, s, got_d, slot, {});
    RankSession session(scheduler, active);
    const MoveIdleResult want =
        ref_move_idle_slot(session, s, want_d, slot, {});
    const std::string at = what + " slot " + std::to_string(slot.unit) + "@" +
                           std::to_string(slot.time);
    EXPECT_EQ(got.moved, want.moved) << at;
    EXPECT_EQ(got.slot, want.slot) << at;
    expect_same_schedule(got.schedule, want.schedule, active);
    EXPECT_EQ(got_d, want_d) << at;
  }

  DeadlineMap got_d = d;
  DeadlineMap want_d = d;
  const auto recorded = [](DeltaTotals& into, auto&& sweep) {
    obs::CounterRecorder rec;
    Schedule out = sweep();
    add_deltas(rec.deltas(), into);
    return out;
  };
  const Schedule got = recorded(tally.got, [&] {
    return delay_idle_slots(scheduler, s, got_d, {});
  });
  const Schedule want = recorded(tally.want, [&] {
    return ref_delay_idle_slots(scheduler, s, want_d, {});
  });
  expect_same_schedule(got, want, active);
  EXPECT_EQ(got_d, want_d) << what;
}

/// Calls fn(scheduler, schedule, deadlines, what) on the Delay_Idle_Slots
/// inputs the Move_Idle differential tests share, for one machine: random
/// blocks scheduled with uniform deadlines normalized to the makespan (the
/// block-scheduler and loop entry points), and every merged state the
/// Lookahead chain (Merge, Delay_Idle_Slots, Chop at W = 2) reaches on
/// random-IR traces of two shapes: the 16-register, 10%-memory traces that
/// leave no chop point, and the generator defaults.
template <typename Fn>
void for_each_move_idle_input(const MachineModel& machine,
                              const std::string& name, Fn&& fn) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Prng prng(0x301e + seed * 409);
    for (const bool layered : {false, true}) {
      const DepGraph g = [&] {
        if (!layered) {
          return random_machine_block(prng, machine, /*num_nodes=*/24,
                                      /*edge_prob=*/0.2);
        }
        RandomBlockParams params;
        params.num_nodes = 24;
        params.layers = 12;
        params.edge_prob = 0.8;
        params.max_latency = 3;
        return random_block(prng, params);
      }();
      const RankScheduler scheduler(g, machine);
      const NodeSet all = NodeSet::all(g.num_nodes());
      DeadlineMap d = uniform_deadlines(g, huge_deadline(g, all));
      const RankResult r = scheduler.run(all, d, {});
      ASSERT_TRUE(r.feasible);
      for (const NodeId id : all.ids()) d[id] = r.makespan;
      fn(scheduler, r.schedule, d,
         name + " block seed " + std::to_string(seed) +
             (layered ? " layered" : ""));
    }
  }

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Prng prng(0x1e7a + seed * 613);
    for (const bool unchoppable : {true, false}) {
      RandomIrParams ir;
      ir.num_insts = 14;
      if (unchoppable) {
        ir.num_gprs = 16;
        ir.mem_frac = 0.1;
      }
      const DepGraph g =
          build_trace_graph(random_ir_trace(prng, ir, 3), machine);
      const RankScheduler scheduler(g, machine);
      const Time huge = huge_deadline(g, NodeSet::all(g.num_nodes()));
      NodeSet old(g.num_nodes());
      DeadlineMap deadlines = uniform_deadlines(g, huge);
      Time t_old = 0;
      const std::vector<NodeSet> blocks = blocks_of(g);
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        MergeResult m = merge_blocks(scheduler, old, blocks[b], deadlines,
                                     t_old, huge, {});
        deadlines = std::move(m.deadlines);
        fn(scheduler, m.schedule, deadlines,
           name + " trace seed " + std::to_string(seed) + " block " +
               std::to_string(b) + (unchoppable ? " unchoppable" : ""));
        const Schedule merged =
            delay_idle_slots(scheduler, std::move(m.schedule), deadlines, {});
        const ChopResult c = chop(merged, deadlines, /*window=*/2);
        old = c.suffix;
        t_old = c.suffix_makespan;
      }
    }
  }
}

std::uint64_t pruned_total(const DeltaTotals& deltas) {
  return count_of(deltas, obs::ctr::kIdleMovesPrunedSaturated) +
         count_of(deltas, obs::ctr::kIdleMovesPrunedNoTail) +
         count_of(deltas, obs::ctr::kIdleMovesPrunedNoRefill);
}

/// The machine half of guard (3)'s condition: more units than issue width.
/// Every preset's operations execute in one cycle, so among the presets
/// the guard is on exactly for rs6000.
bool issue_bound(const MachineModel& machine) {
  return machine.total_units() > machine.issue_width();
}

/// The failure guards, the copy-free failure path, the lazily built session
/// and the batched counters must leave Move_Idle_Slot and Delay_Idle_Slots
/// byte-identical to the verbatim reference on random blocks and on
/// Lookahead's merged states of random-IR traces, on all four presets
/// (guard (1) fires mostly on the multi-unit ones, whose extra units idle
/// nearly every cycle; guard (3) only on rs6000, which issues to one of
/// its three units per cycle).  Attempts and moves keep their counts, and so do
/// rank runs where guard (3) is off; the pruned attempts' deadline caps,
/// incremental rank passes and (on rs6000) rank runs disappear.
TEST(Differential, MoveIdleMatchesVerbatimReference) {
  struct Preset {
    const char* name;
    MachineModel machine;
  };
  const std::vector<Preset> presets = {
      {"scalar01", scalar01()},
      {"rs6000", rs6000_like()},
      {"deep", deep_pipeline()},
      {"vliw4", vliw4()},
  };
  MoveIdleTally total;
  for (const Preset& preset : presets) {
    MoveIdleTally tally;
    for_each_move_idle_input(
        preset.machine, preset.name,
        [&](const RankScheduler& scheduler, const Schedule& s,
            const DeadlineMap& d, const std::string& what) {
          expect_move_idle_matches_reference(scheduler, s, d, what, tally);
        });

    for (const obs::ctr::Id id :
         {obs::ctr::kIdleMoveAttempts, obs::ctr::kIdleSlotsMoved}) {
      EXPECT_EQ(count_of(tally.got, id), count_of(tally.want, id))
          << preset.name << " " << obs::ctr::kInfo[id].name;
    }
    for (const obs::ctr::Id id : {obs::ctr::kRankRuns,
                                  obs::ctr::kRankNodesRanked,
                                  obs::ctr::kRankInfeasible}) {
      if (issue_bound(preset.machine)) {
        EXPECT_LE(count_of(tally.got, id), count_of(tally.want, id))
            << preset.name << " " << obs::ctr::kInfo[id].name;
      } else {
        EXPECT_EQ(count_of(tally.got, id), count_of(tally.want, id))
            << preset.name << " " << obs::ctr::kInfo[id].name;
      }
    }
    for (const obs::ctr::Id id :
         {obs::ctr::kDeadlinesTightened, obs::ctr::kRankIncrementalPasses,
          obs::ctr::kRankNodesReranked}) {
      EXPECT_LE(count_of(tally.got, id), count_of(tally.want, id))
          << preset.name << " " << obs::ctr::kInfo[id].name;
    }
    EXPECT_EQ(pruned_total(tally.want), 0u);
    if (obs::kHooksCompiledIn && preset.machine.total_units() > 1) {
      EXPECT_GT(pruned_total(tally.got), 0u) << preset.name;
    }
    // Guard (3) fires exactly where its bound exists.
    if (obs::kHooksCompiledIn) {
      EXPECT_EQ(
          count_of(tally.got, obs::ctr::kIdleMovesPrunedSaturated) > 0,
          issue_bound(preset.machine))
          << preset.name;
    }
    add_deltas(tally.got, total.got);
    add_deltas(tally.want, total.want);
  }
  if (obs::kHooksCompiledIn) {
    // Every path was exercised: attempts pruned by each guard, attempts
    // that reach the rank runs, and moves.
    const std::uint64_t attempts =
        count_of(total.got, obs::ctr::kIdleMoveAttempts);
    for (const obs::ctr::Id id : {obs::ctr::kIdleMovesPrunedSaturated,
                                  obs::ctr::kIdleMovesPrunedNoTail,
                                  obs::ctr::kIdleMovesPrunedNoRefill}) {
      EXPECT_GT(count_of(total.got, id), 0u) << obs::ctr::kInfo[id].name;
    }
    EXPECT_LT(pruned_total(total.got), attempts);
    EXPECT_GT(count_of(total.got, obs::ctr::kIdleSlotsMoved), 0u);
  }
}

/// A unit-execution machine with 4 units and issue width 2 (U - w = 2):
/// three integer units and one FP unit, rs6000-like latencies.
MachineModel dual_issue_quad() {
  MachineModel m("dual-issue-quad", {{"int", 3}, {"fp", 1}},
                 /*issue_width=*/2, /*default_window=*/4);
  m.set_timing(OpClass::kIntMul, {0, 1, 4});
  m.set_timing(OpClass::kLoad, {0, 1, 1});
  m.set_timing(OpClass::kCompare, {0, 1, 1});
  m.set_timing(OpClass::kFpAdd, {1, 1, 2});
  m.set_timing(OpClass::kFpMul, {1, 1, 2});
  m.set_timing(OpClass::kFpDiv, {1, 1, 17});
  return m;
}

/// Guard (3)'s proof, checked against the verbatim reference.  On a machine
/// with U units, issue width w < U and unit execution times, every idle
/// slot at index i < (U - w)(t + 1) of idle_slots() lies in a prefix that
/// issue width forces into every schedule: ref_move_idle_slot returns "not
/// moved" with the deadlines unchanged, and the optimized path decides the
/// attempt as move_idle.pruned_saturated without a rank run.  Slots past
/// the bound are never counted as saturated.  On the 4-unit machine every
/// slot and sweep also matches the reference in full (rs6000's inputs are
/// compared by MoveIdleMatchesVerbatimReference).
TEST(Differential, SaturatedPrefixSlotsNeverMove) {
  struct Case {
    const char* name;
    MachineModel machine;
    bool compare_all;
  };
  for (const Case& c : {Case{"rs6000", rs6000_like(), false},
                        Case{"dual-issue-quad", dual_issue_quad(), true}}) {
    const std::size_t forced = static_cast<std::size_t>(
        c.machine.total_units() - c.machine.issue_width());
    std::size_t in_prefix = 0;
    std::size_t past_prefix = 0;
    MoveIdleTally tally;
    for_each_move_idle_input(
        c.machine, c.name,
        [&](const RankScheduler& scheduler, const Schedule& s,
            const DeadlineMap& d, const std::string& what) {
          ASSERT_EQ(scheduler.graph().max_exec_time(), 1) << what;
          const std::vector<IdleSlot> slots = s.idle_slots();
          for (std::size_t i = 0; i < slots.size(); ++i) {
            const IdleSlot slot = slots[i];
            const std::string at = what + " slot #" + std::to_string(i) +
                                   " " + std::to_string(slot.unit) + "@" +
                                   std::to_string(slot.time);
            DeadlineMap got_d = d;
            obs::CounterDeltas deltas;
            const MoveIdleResult got = [&] {
              obs::CounterRecorder rec;
              MoveIdleResult result =
                  move_idle_slot(scheduler, s, got_d, slot, {});
              deltas = rec.deltas();
              return result;
            }();
            const std::uint64_t saturated =
                count_of(deltas, obs::ctr::kIdleMovesPrunedSaturated);
            if (i >= forced * static_cast<std::size_t>(slot.time + 1)) {
              ++past_prefix;
              EXPECT_EQ(saturated, 0u) << at;
              continue;
            }
            ++in_prefix;
            DeadlineMap want_d = d;
            RankSession session(scheduler, s.active());
            const MoveIdleResult want =
                ref_move_idle_slot(session, s, want_d, slot, {});
            EXPECT_FALSE(want.moved) << at;
            EXPECT_EQ(want_d, d) << at;
            EXPECT_FALSE(got.moved) << at;
            EXPECT_EQ(got_d, d) << at;
            if (obs::kHooksCompiledIn) {
              EXPECT_EQ(saturated, 1u) << at;
              EXPECT_EQ(count_of(deltas, obs::ctr::kRankRuns), 0u) << at;
            }
          }
          if (c.compare_all) {
            expect_move_idle_matches_reference(scheduler, s, d, what, tally);
          }
        });
    EXPECT_GT(in_prefix, 0u) << c.name;
    EXPECT_GT(past_prefix, 0u) << c.name;
  }
}

/// Negative control: with one 2-cycle operation class a unit can be busy
/// at t without an instruction starting there, the per-cycle bound fails,
/// and guard (3) must stay off — on a 3-unit, single-issue machine whose
/// integer ALU ops take 2 cycles, no attempt is pruned as saturated, and
/// every result still matches the reference.
TEST(Differential, SaturatedGuardOffWithMultiCycleOps) {
  MachineModel machine = rs6000_like();
  machine.set_timing(OpClass::kIntAlu, {0, 2, 0});
  std::size_t multi_cycle_inputs = 0;
  MoveIdleTally tally;
  for_each_move_idle_input(
      machine, "rs6000-alu2",
      [&](const RankScheduler& scheduler, const Schedule& s,
          const DeadlineMap& d, const std::string& what) {
        if (scheduler.graph().max_exec_time() < 2) return;  // unit blocks
        ++multi_cycle_inputs;
        expect_move_idle_matches_reference(scheduler, s, d, what, tally);
      });
  EXPECT_GT(multi_cycle_inputs, 0u);
  EXPECT_EQ(count_of(tally.got, obs::ctr::kIdleMovesPrunedSaturated), 0u);
  if (obs::kHooksCompiledIn) {
    EXPECT_GT(count_of(tally.got, obs::ctr::kIdleMoveAttempts), 0u);
  }
}

void expect_same_lookahead(const LookaheadResult& got,
                           const LookaheadResult& want,
                           const std::string& what) {
  EXPECT_EQ(got.order, want.order) << what;
  EXPECT_EQ(got.per_block, want.per_block) << what;
  EXPECT_EQ(got.diag.merged_makespans, want.diag.merged_makespans) << what;
  EXPECT_EQ(got.diag.prefixes_emitted, want.diag.prefixes_emitted) << what;
  EXPECT_EQ(got.diag.max_inversion_span, want.diag.max_inversion_span) << what;
}

/// The schedule cache must be output-invisible: every trace compile with
/// the cache on — cold misses and warm trace hits — produces byte-identical
/// schedules, diagnostics and counter deltas (cache.* excluded by the
/// recorder) to a bypassed solve.  Seeds repeat so the sequence genuinely
/// contains trace-level hits.
TEST(Differential, CacheOnMatchesCacheOffSerial) {
  ScheduleCache& cache = ScheduleCache::global();
  const bool was_enabled = cache.enabled();
  cache.set_enabled(true);
  cache.clear();

  struct CacheRegime {
    const char* name;
    MachineModel machine;
    int max_latency;
    int window;
  };
  const std::vector<CacheRegime> cache_regimes = {
      {"scalar01-unit", scalar01(), 1, 4},
      {"deep-lat3", deep_pipeline(), 3, 6},
      {"vliw4-lat2", vliw4(), 2, 4},
  };

  for (const CacheRegime& regime : cache_regimes) {
    for (int round = 0; round < 8; ++round) {
      // Half the rounds replay an earlier seed: those traces must be
      // served from the cache, and still match the bypassed reference.
      Prng prng(0xcac4e + static_cast<std::uint64_t>(round % 4) * 769);
      RandomTraceParams params;
      params.num_blocks = 4;
      params.block.num_nodes = 12;
      params.block.edge_prob = 0.3;
      params.block.max_latency = regime.max_latency;
      params.cross_edges = 2;
      const DepGraph g = random_trace(prng, params);
      const RankScheduler scheduler(g, regime.machine);
      LookaheadOptions opts;
      opts.window = regime.window;

      LookaheadResult want;
      obs::CounterDeltas want_deltas;
      {
        ScheduleCache::ScopedBypass bypass;
        obs::CounterRecorder rec;
        want = schedule_trace(scheduler, opts);
        want_deltas = rec.deltas();
      }

      LookaheadResult got;
      obs::CounterDeltas got_deltas;
      {
        obs::CounterRecorder rec;
        got = schedule_trace(scheduler, opts);
        got_deltas = rec.deltas();
      }

      const std::string what =
          std::string(regime.name) + " round " + std::to_string(round);
      expect_same_lookahead(got, want, what);
      EXPECT_EQ(got_deltas, want_deltas) << what;
    }
  }
  cache.set_enabled(was_enabled);
}

/// Same property under parallel trace compilation: eight threads hammer
/// the shared sharded cache (duplicated traces force cross-thread hits)
/// and every result must equal its serial bypassed reference.
TEST(Differential, CacheOnMatchesCacheOffParallel) {
  ScheduleCache& cache = ScheduleCache::global();
  const bool was_enabled = cache.enabled();
  cache.set_enabled(true);
  cache.clear();

  const MachineModel machine = deep_pipeline();
  LookaheadOptions opts;
  opts.window = 6;

  constexpr std::size_t kUnique = 6;
  constexpr std::size_t kTotal = 24;
  std::vector<DepGraph> graphs;
  graphs.reserve(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    Prng prng(0xbeef + (i % kUnique) * 3571);
    RandomTraceParams params;
    params.num_blocks = 3;
    params.block.num_nodes = 14;
    params.block.edge_prob = 0.3;
    params.block.max_latency = 3;
    params.cross_edges = 2;
    graphs.push_back(random_trace(prng, params));
  }

  std::vector<LookaheadResult> want(kTotal);
  {
    ScheduleCache::ScopedBypass bypass;
    for (std::size_t i = 0; i < kTotal; ++i) {
      const RankScheduler scheduler(graphs[i], machine);
      want[i] = schedule_trace(scheduler, opts);
    }
  }

  std::vector<LookaheadResult> got(kTotal);
  parallel_for(8, kTotal, [&](std::size_t i) {
    const RankScheduler scheduler(graphs[i], machine);
    got[i] = schedule_trace(scheduler, opts);
  });

  for (std::size_t i = 0; i < kTotal; ++i) {
    expect_same_lookahead(got[i], want[i], "trace " + std::to_string(i));
  }
  cache.set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// The §5.2.3 loop candidate search: one solve per distinct surrogate, one
// evaluation per distinct order.
// ---------------------------------------------------------------------------

namespace ref_loop {

bool is_carried_target(const DepGraph& g, NodeId id) {
  for (const auto eidx : g.in_edges(id)) {
    if (g.edge(eidx).carried()) return true;
  }
  return false;
}

bool is_carried_source(const DepGraph& g, NodeId id) {
  for (const auto eidx : g.out_edges(id)) {
    if (g.edge(eidx).carried()) return true;
  }
  return false;
}

bool is_li_source(const DepGraph& g, NodeId id) {
  for (const auto eidx : g.in_edges(id)) {
    if (g.edge(eidx).distance == 0) return false;
  }
  return true;
}

bool is_li_sink(const DepGraph& g, NodeId id) {
  for (const auto eidx : g.out_edges(id)) {
    if (g.edge(eidx).distance == 0) return false;
  }
  return true;
}

/// The candidate enumeration verbatim from before surrogate sharing: every
/// admitted (pivot, form) gets its own build_loop_candidate.  A loop
/// without carried edges has no pivot; its one plain-block candidate comes
/// from the search itself, whose path for it is unchanged.  Returns an
/// empty list where the search would abort for lack of candidates.
std::vector<LoopCandidate> candidates(const DepGraph& g,
                                      const MachineModel& machine,
                                      const LoopSingleOptions& opts) {
  if (!g.has_carried_edges()) return loop_single_candidates(g, machine, opts);
  std::vector<LoopCandidate> out;
  const bool prune =
      opts.prune == LoopSingleOptions::Prune::kAlways ||
      (opts.prune == LoopSingleOptions::Prune::kAuto &&
       machine.is_restricted_case() && g.max_latency() <= 1);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    if (is_carried_target(g, id) && (!prune || is_li_source(g, id))) {
      out.push_back(build_loop_candidate(g, machine, id, /*source_form=*/true,
                                         opts.rank));
    }
    if (is_carried_source(g, id) && (!prune || is_li_sink(g, id))) {
      out.push_back(build_loop_candidate(g, machine, id,
                                         /*source_form=*/false, opts.rank));
    }
  }
  return out;
}

}  // namespace ref_loop

/// The search's selection verbatim from before memoization: every
/// candidate is evaluated, in index order.  Returns the winner with the
/// score it won with.
LoopCandidate ref_select_loop_candidate(
    const std::vector<LoopCandidate>& candidates,
    const std::function<double(const std::vector<NodeId>&)>& evaluate) {
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  Time best_makespan = std::numeric_limits<Time>::max();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double score = evaluate(candidates[i].order);
    if (score < best_score ||
        (score == best_score &&
         candidates[i].surrogate_makespan < best_makespan)) {
      best = i;
      best_score = score;
      best_makespan = candidates[i].surrogate_makespan;
    }
  }
  LoopCandidate winner = candidates[best];
  winner.score = best_score;
  return winner;
}

/// The memoized search must pick exactly what evaluating every candidate
/// of the per-pivot reference enumeration picks — same pivot, form, order,
/// surrogate makespan and score — on
/// random IR loops over all four presets and several windows, while its
/// evaluator runs once per distinct order, in first-occurrence order.  The
/// driver's reported period must equal a fresh simulation of the emitted
/// order.  The inputs are checked to contain both tie-break hazards of the
/// memo: two candidates with one order but different surrogate makespans
/// (the duplicate reuses a score yet must compete with its own makespan),
/// and a best score shared by candidates that the makespan tells apart.
TEST(Differential, LoopSearchMatchesVerbatimReference) {
  struct Preset {
    const char* name;
    MachineModel machine;
  };
  const std::vector<Preset> presets = {
      {"scalar01", scalar01()},
      {"rs6000", rs6000_like()},
      {"deep", deep_pipeline()},
      {"vliw4", vliw4()},
  };
  int duplicate_makespans = 0;
  int makespan_ties = 0;
  for (std::size_t m = 0; m < presets.size(); ++m) {
    const Preset& preset = presets[m];
    const MachineModel& machine = preset.machine;
    Prng prng(0x5e4c4 + m * 131);
    for (int trial = 0; trial < 24; ++trial) {
      RandomIrParams params;
      params.num_insts = static_cast<int>(prng.uniform(4, 24));
      params.num_gprs = std::array{3, 6, 12}[trial % 3];
      const Loop loop = random_ir_loop(prng, params);
      const DepGraph g = build_loop_graph(loop, machine);
      const std::vector<LoopCandidate> candidates =
          ref_loop::candidates(g, machine, {});

      std::vector<std::vector<NodeId>> distinct;
      bool duplicate_makespan = false;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (std::find(distinct.begin(), distinct.end(),
                      candidates[i].order) == distinct.end()) {
          distinct.push_back(candidates[i].order);
        }
        for (std::size_t j = 0; j < i; ++j) {
          duplicate_makespan |=
              candidates[j].order == candidates[i].order &&
              candidates[j].surrogate_makespan !=
                  candidates[i].surrogate_makespan;
        }
      }
      duplicate_makespans += duplicate_makespan;

      bool makespan_tie = false;
      for (const int window : {1, 2, 4, 8}) {
        const std::string what = std::string(preset.name) + " trial " +
                                 std::to_string(trial) + " W=" +
                                 std::to_string(window);
        const auto period = [&](const std::vector<NodeId>& order) {
          return steady_state_period(g, machine, order, window);
        };
        std::vector<std::vector<NodeId>> asked;
        std::vector<double> scores;
        const LoopCandidate got = schedule_single_block_loop(
            g, machine, [&](const std::vector<NodeId>& order) {
              asked.push_back(order);
              scores.push_back(period(order));
              return scores.back();
            });
        const LoopCandidate want =
            ref_select_loop_candidate(candidates, period);
        EXPECT_EQ(got.pivot, want.pivot) << what;
        EXPECT_EQ(got.source_form, want.source_form) << what;
        EXPECT_EQ(got.order, want.order) << what;
        EXPECT_EQ(got.surrogate_makespan, want.surrogate_makespan) << what;
        EXPECT_EQ(got.score, want.score) << what;
        ASSERT_EQ(asked, distinct) << what;

        for (const LoopCandidate& c : candidates) {
          const auto d = std::find(distinct.begin(), distinct.end(), c.order);
          makespan_tie |=
              scores[static_cast<std::size_t>(d - distinct.begin())] ==
                  want.score &&
              c.surrogate_makespan != want.surrogate_makespan;
        }

        const ScheduledLoop s = schedule(loop, machine, window);
        ASSERT_EQ(s.blocks.size(), 1u) << what;
        ASSERT_EQ(s.blocks[0].insts.size(), got.order.size()) << what;
        for (std::size_t k = 0; k < got.order.size(); ++k) {
          EXPECT_EQ(s.blocks[0].insts[k].to_string(),
                    loop.body.blocks[0].insts[got.order[k]].to_string())
              << what << " position " << k;
        }
        EXPECT_EQ(s.cycles_per_iteration,
                  steady_state_period(s.graph, machine, got.order, window))
            << what;
      }
      makespan_ties += makespan_tie;
    }
  }
  EXPECT_GT(duplicate_makespans, 0);
  EXPECT_GT(makespan_ties, 0);
}

/// Candidate enumeration must equal the per-pivot reference — pivot,
/// form, order and surrogate makespan of every candidate, in order — while
/// building one surrogate per distinct key.  The key is recomputed here
/// from the graph's edge list: form, the pivot's exec time, FU class and
/// block, and each carried neighbour's largest latency, zeros dropped.
/// `loop.surrogates` must count exactly those keys.  Inputs, on every
/// preset under every prune mode: random IR loops with small to large
/// register pools, no to mostly memory operations and up to 40
/// instructions; examples/fig3_loop.s; a loop whose divides execute for 4
/// cycles on deep and vliw4 (the only way exec times differ in IR); a
/// hand graph with parallel carried edges, which the dependence builder
/// merges away; and random loop graphs with mixed exec times and FU
/// classes and parallel carried edges.  Rank splits long operations into
/// unit pieces under one of the three prune modes.  They must contain a key shared by pivots whose carried-edge lists
/// differ, a neighbour whose carried latencies to one pivot differ (so the
/// largest is not the smallest), two pivots that differ only in exec time
/// and get different candidates, two that differ only in FU class (no
/// input here gives those different candidates, so only the surrogate
/// count tells them apart), a carried self-edge, and both forms.
TEST(Differential, LoopCandidatesMatchVerbatimReference) {
  const std::vector<std::pair<std::string, MachineModel>> presets = {
      {"scalar01", scalar01()},
      {"rs6000", rs6000_like()},
      {"deep", deep_pipeline()},
      {"vliw4", vliw4()},
  };
  std::vector<std::pair<std::string, Loop>> loops;
  {
    std::ifstream in(std::string(AIS_EXAMPLES_DIR) + "/fig3_loop.s");
    std::ostringstream text;
    text << in.rdbuf();
    loops.emplace_back("fig3_loop.s",
                       Loop{Trace{parse_program(text.str()).blocks}});
  }
  // r2 and r5 are written late and read early, so each reader is a carried
  // target of the same writer with the same latency: DIV and ADD share
  // their neighbour list but not their exec time.
  loops.emplace_back("divides", Loop{Trace{parse_program(
                                    "block L:\n"
                                    "  DIV r1, r2, r3\n"
                                    "  ADD r4, r2, r3\n"
                                    "  DIV r6, r5, r3\n"
                                    "  SUB r7, r5, r3\n"
                                    "  ADD r2, r1, r4\n"
                                    "  MUL r5, r6, r7\n"
                                    "  CMP c0, r2, 0\n"
                                    "  BT c0, L\n")
                                                   .blocks}});
  Prng prng(0x10a95);
  for (int i = 0; i < 48; ++i) {
    RandomIrParams params;
    params.num_insts = static_cast<int>(prng.uniform(4, 40));
    params.num_gprs = std::array{3, 6, 12}[i % 3];
    params.mem_frac = 0.2 * static_cast<double>(i % 4);
    loops.emplace_back("random " + std::to_string(i),
                       random_ir_loop(prng, params));
  }

  // p has carried edges from a at latencies 1 and 6, r at 1 only and q at
  // 6 and 0.  p and q share a key.  A key built from the smallest latency
  // would let p and r share one too, although p's surrogate is longer.
  DepGraph parallel;
  for (const char* name : {"a", "b", "p", "q", "r"}) {
    parallel.add_node(name, 1, 0, 0);
  }
  const auto node = [&](const char* name) { return parallel.find(name); };
  parallel.add_edge(node("b"), node("p"), 0, 0);
  parallel.add_edge(node("a"), node("p"), 1, 1);
  parallel.add_edge(node("a"), node("p"), 6, 1);
  parallel.add_edge(node("a"), node("r"), 1, 1);
  parallel.add_edge(node("a"), node("q"), 6, 1);
  parallel.add_edge(node("a"), node("q"), 0, 1);
  parallel.add_edge(node("r"), node("b"), 2, 1);

  using Key = std::tuple<bool, int, int, int, std::map<NodeId, int>>;
  int shared_despite_edges = 0;
  int mixed_latencies = 0;
  int exec_only = 0;
  int fu_only = 0;
  int self_edges = 0;
  int sources = 0;
  int sinks = 0;
  for (const auto& [machine_name, machine] : presets) {
    std::vector<std::pair<std::string, DepGraph>> graphs;
    for (const auto& [loop_name, loop] : loops) {
      graphs.emplace_back(loop_name, build_loop_graph(loop, machine));
    }
    graphs.emplace_back("parallel edges", parallel);
    // Random loop graphs with exec times up to 3 on every FU class, and
    // parallel copies of carried edges at random latencies.
    Prng graph_prng(0x9a7);
    for (int i = 0; i < 24; ++i) {
      RandomLoopParams params;
      params.block.num_nodes = static_cast<int>(graph_prng.uniform(3, 14));
      params.block.max_latency = static_cast<int>(graph_prng.uniform(1, 4));
      params.carried_edges = static_cast<int>(graph_prng.uniform(1, 8));
      const DepGraph base = random_loop(graph_prng, params);
      DepGraph g;
      for (NodeId id = 0; id < base.num_nodes(); ++id) {
        g.add_node(base.name(id).view(),
                   static_cast<int>(graph_prng.uniform(1, 3)),
                   static_cast<int>(
                       graph_prng.uniform(0, machine.num_fu_classes() - 1)),
                   0);
      }
      for (const DepEdge& e : base.edges()) {
        g.add_edge(e.from, e.to, e.latency, e.distance);
        if (e.carried() && graph_prng.chance(0.5)) {
          g.add_edge(e.from, e.to,
                     static_cast<int>(graph_prng.uniform(0, 5)), e.distance);
        }
      }
      graphs.emplace_back("random graph " + std::to_string(i), std::move(g));
    }
    for (const auto& [loop_name, g] : graphs) {
      for (const auto prune : {LoopSingleOptions::Prune::kAuto,
                               LoopSingleOptions::Prune::kNever,
                               LoopSingleOptions::Prune::kAlways}) {
        const std::string what = machine_name + " " + loop_name + " prune " +
                                 std::to_string(static_cast<int>(prune));
        LoopSingleOptions opts;
        opts.prune = prune;
        opts.rank.split_long_ops = prune == LoopSingleOptions::Prune::kNever;
        const std::vector<LoopCandidate> want =
            ref_loop::candidates(g, machine, opts);
        if (want.empty()) continue;  // the search aborts: nothing to compare
        obs::CounterRecorder rec;
        const std::vector<LoopCandidate> got =
            loop_single_candidates(g, machine, opts);
        ASSERT_EQ(got.size(), want.size()) << what;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].pivot, want[i].pivot) << what << " " << i;
          EXPECT_EQ(got[i].source_form, want[i].source_form)
              << what << " " << i;
          EXPECT_EQ(got[i].order, want[i].order) << what << " " << i;
          EXPECT_EQ(got[i].surrogate_makespan, want[i].surrogate_makespan)
              << what << " " << i;
        }

        std::vector<Key> keys;
        std::vector<std::vector<std::pair<NodeId, int>>> edge_lists;
        for (const LoopCandidate& c : want) {
          if (c.pivot == kInvalidNode) break;  // no carried edges
          std::map<NodeId, int> carried;
          std::vector<std::pair<NodeId, int>> edges;
          for (const DepEdge& e : g.edges()) {
            if (!e.carried()) continue;
            if (c.source_form ? e.to != c.pivot : e.from != c.pivot) continue;
            const NodeId other = c.source_form ? e.from : e.to;
            int& latency = carried[other];
            mixed_latencies += latency > 0 && e.latency > 0 &&
                               latency != e.latency;
            latency = std::max(latency, e.latency);
            edges.emplace_back(other, e.latency);
            self_edges += e.from == e.to;
          }
          std::erase_if(carried, [](const auto& kv) { return kv.second == 0; });
          std::sort(edges.begin(), edges.end());
          sources += c.source_form;
          sinks += !c.source_form;
          const NodeInfo& n = g.node(c.pivot);
          keys.emplace_back(c.source_form, n.exec_time, n.fu_class, n.block,
                            std::move(carried));
          edge_lists.push_back(std::move(edges));
        }
        for (std::size_t i = 0; i < keys.size(); ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            const auto& [form_i, exec_i, fu_i, block_i, nbrs_i] = keys[i];
            const auto& [form_j, exec_j, fu_j, block_j, nbrs_j] = keys[j];
            shared_despite_edges +=
                keys[i] == keys[j] && edge_lists[i] != edge_lists[j];
            const bool differ =
                want[i].order != want[j].order ||
                want[i].surrogate_makespan != want[j].surrogate_makespan;
            const bool same_rest =
                form_i == form_j && block_i == block_j && nbrs_i == nbrs_j;
            exec_only += same_rest && fu_i == fu_j && exec_i != exec_j &&
                         differ;
            fu_only += same_rest && exec_i == exec_j && fu_i != fu_j;
          }
        }
        if (obs::kHooksCompiledIn) {
          const std::set<Key> distinct(keys.begin(), keys.end());
          EXPECT_EQ(count_of(rec.deltas(), obs::ctr::kLoopCandidates),
                    want.size())
              << what;
          EXPECT_EQ(count_of(rec.deltas(), obs::ctr::kLoopSurrogates),
                    keys.empty() ? 1 : distinct.size())
              << what;
        }
      }
    }
  }
  EXPECT_GT(shared_despite_edges, 0);
  EXPECT_GT(mixed_latencies, 0);
  EXPECT_GT(exec_only, 0);
  EXPECT_GT(fu_only, 0);
  EXPECT_GT(self_edges, 0);
  EXPECT_GT(sources, 0);
  EXPECT_GT(sinks, 0);
}

// ---------------------------------------------------------------------------
// The loop simulator: the full simulation of every iteration.
// ---------------------------------------------------------------------------

namespace ref_loop_sim {

/// simulate_loop verbatim from before it skipped recurring periods (less
/// its span and counter): every iteration's every instance simulated, with
/// the per-instance arrays set up for the whole run.
LoopSimResult simulate_loop(const DepGraph& g, const MachineModel& machine,
                            const std::vector<NodeId>& per_iteration_list,
                            int window, int iterations) {
  AIS_CHECK(window >= 1, "window must be positive");
  AIS_CHECK(iterations >= 1, "need at least one iteration");
  const std::size_t body = per_iteration_list.size();
  AIS_CHECK(body == g.num_nodes(),
            "per-iteration list must cover every loop-body instruction");

  std::vector<std::size_t> pos(g.num_nodes(), static_cast<std::size_t>(-1));
  for (std::size_t p = 0; p < body; ++p) {
    AIS_CHECK(pos[per_iteration_list[p]] == static_cast<std::size_t>(-1),
              "node listed twice");
    pos[per_iteration_list[p]] = p;
  }

  const std::size_t total = body * static_cast<std::size_t>(iterations);

  std::vector<int> unit_base(
      static_cast<std::size_t>(machine.num_fu_classes()), 0);
  int total_units = 0;
  for (int c = 0; c < machine.num_fu_classes(); ++c) {
    unit_base[static_cast<std::size_t>(c)] = total_units;
    total_units += machine.fu_count(c);
  }
  std::vector<Time> unit_free(static_cast<std::size_t>(total_units), 0);

  // Per-list-position operand tables, built once per call: the per-cycle
  // window scans below read these instead of assembling a NodeInfo and
  // calling the out-of-line fu_count for every instance they visit.
  struct OpInfo {
    int exec_time;
    int first_unit;
    int units;
  };
  std::vector<OpInfo> ops(body);
  for (std::size_t p = 0; p < body; ++p) {
    const NodeInfo info = g.node(per_iteration_list[p]);
    const int units = machine.fu_count(info.fu_class);
    ops[p] = {info.exec_time,
              unit_base[static_cast<std::size_t>(info.fu_class)], units};
  }
  const int issue_width = machine.issue_width();

  std::vector<Time> issue(total, Time{-1});
  std::size_t head = 0;
  std::size_t remaining = total;

  const Time t_limit =
      (g.total_work() +
       static_cast<Time>(body + 1) * (g.max_latency() + g.max_exec_time()) +
       1) *
      iterations;

  // Incremental readiness: every dependence edge is touched exactly twice --
  // once here to seed the per-instance unresolved-dependence count, and once
  // when its source instance issues (out-edge propagation below).  The hot
  // per-cycle scan then runs in O(window) with no edge walks at all.
  //
  // deps_left[q]: dependences of instance q whose source has not issued yet
  //               (edges reaching before the first iteration are satisfied by
  //               pre-loop state and never counted).
  // ready[q]:     earliest issue cycle imposed by already-resolved
  //               dependences; authoritative once deps_left[q] == 0.
  std::vector<std::uint32_t> deps_left(total, 0);
  std::vector<Time> ready(total, 0);
  for (std::size_t p = 0; p < body; ++p) {
    const NodeId id = per_iteration_list[p];
    for (const auto eidx : g.in_edges(id)) {
      const DepEdge& e = g.edge(eidx);
      // Edge <latency, distance> constrains iteration i against iteration
      // i - distance, so it is live for every instance with iter >= distance.
      for (int iter = e.distance; iter < iterations; ++iter) {
        ++deps_left[static_cast<std::size_t>(iter) * body + p];
      }
    }
  }

  Time t = 0;
  while (remaining > 0) {
    AIS_CHECK(t <= t_limit, "loop simulator failed to make progress");
    // Dependences resolve no earlier than one cycle after an issue
    // (exec_time >= 1, latency >= 0), so issuing an instance can never make
    // another one ready within the same cycle: a single forward sweep visits
    // each candidate exactly once.  The window limit is re-evaluated every
    // step because advancing `head` exposes new instances at the tail.
    int issued_this_cycle = 0;
    for (std::size_t q = head;
         q < std::min(total, head + static_cast<std::size_t>(window)) &&
         issued_this_cycle < issue_width;
         ++q) {
      if (issue[q] >= 0) continue;
      if (deps_left[q] != 0 || ready[q] > t) continue;
      const std::size_t p = q % body;
      const OpInfo& op = ops[p];
      int chosen = -1;
      for (int u = op.first_unit; u < op.first_unit + op.units; ++u) {
        if (unit_free[static_cast<std::size_t>(u)] <= t) {
          chosen = u;
          break;
        }
      }
      if (chosen < 0) continue;
      issue[q] = t;
      const Time done = t + op.exec_time;
      unit_free[static_cast<std::size_t>(chosen)] = done;
      --remaining;
      ++issued_this_cycle;
      while (head < total && issue[head] >= 0) ++head;
      // Resolve the out-edges of the freshly issued instance.
      const int iter = static_cast<int>(q / body);
      for (const auto eidx : g.out_edges(per_iteration_list[p])) {
        const DepEdge& e = g.edge(eidx);
        const int dst_iter = iter + e.distance;
        if (dst_iter >= iterations) continue;
        const std::size_t dst_q =
            static_cast<std::size_t>(dst_iter) * body + pos[e.to];
        ready[dst_q] = std::max(ready[dst_q], done + e.latency);
        --deps_left[dst_q];
      }
    }
    // Event-driven time advance: machine state only changes when an
    // instruction issues, so instead of stepping one cycle at a time we jump
    // straight to the earliest cycle at which some window instance could
    // issue.  An instance whose dependences are all satisfied can issue no
    // earlier than max(its ready time, the earliest free unit of its class),
    // and instances with unissued dependences must wait for a future issue
    // event anyway.  Skipped cycles provably issue nothing, so the computed
    // issue times are identical to the one-cycle-at-a-time walk.
    Time next_t = t_limit + 1;
    const std::size_t limit =
        std::min(total, head + static_cast<std::size_t>(window));
    for (std::size_t q = head; q < limit && remaining > 0; ++q) {
      if (issue[q] >= 0 || deps_left[q] != 0) continue;
      const OpInfo& op = ops[q % body];
      Time unit_t = t_limit + 1;
      for (int u = op.first_unit; u < op.first_unit + op.units; ++u) {
        unit_t = std::min(unit_t, unit_free[static_cast<std::size_t>(u)]);
      }
      // t + 1 floor: this cycle's issue opportunities are already spent.
      next_t = std::min(next_t, std::max({ready[q], t + 1, unit_t}));
    }
    t = remaining > 0 ? next_t : t + 1;
  }

  LoopSimResult result;
  result.iteration_finish.assign(static_cast<std::size_t>(iterations), 0);
  for (std::size_t q = 0; q < total; ++q) {
    const Time finish = issue[q] + ops[q % body].exec_time;
    auto& slot = result.iteration_finish[q / body];
    slot = std::max(slot, finish);
    result.completion = std::max(result.completion, finish);
  }
  return result;
}

}  // namespace ref_loop_sim

/// A topological order of `g`'s loop-independent edges, drawn uniformly
/// among the ready nodes at each step: the kind of order the §5.2.3 search
/// simulates, without its bias towards a few candidates.
std::vector<NodeId> random_topological_order(const DepGraph& g, Prng& prng) {
  std::vector<int> preds(g.num_nodes(), 0);
  for (const DepEdge& e : g.edges()) preds[e.to] += e.distance == 0;
  std::vector<NodeId> ready, order;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    if (preds[id] == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    const std::size_t pick = prng.index(ready.size());
    const NodeId id = ready[pick];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));
    order.push_back(id);
    for (const auto eidx : g.out_edges(id)) {
      const DepEdge& e = g.edge(eidx);
      if (e.distance == 0 && --preds[e.to] == 0) ready.push_back(e.to);
    }
  }
  return order;
}

/// simulate_loop must give exactly what simulating every iteration gives:
/// the same completion and the same finish time for every iteration.  The
/// inputs are IR loops on all four presets (register pools of 3, 6 and 12,
/// memory shares 0, 0.3 and 0.6) in random topological orders, and
/// hand-built loops with exec times 1-4, latencies 0-6 and carried
/// distances 1-3 on every FU class of each preset, at W in {1, 2, 4, 8, 16}
/// and 1 to 200 iterations.  Both paths must be exercised: the simulator
/// must skip periods on most runs of 48 or more iterations, and on some of
/// them the last iteration must fall out of the period it skipped by, so
/// the simulated tail is what keeps the result exact.
TEST(Differential, LoopSimMatchesVerbatimReference) {
  struct Input {
    std::string what;
    const MachineModel* machine;
    DepGraph graph;
  };
  std::vector<Input> inputs;
  Prng prng(0x5111);
  for (const std::string& name : machine_preset_names()) {
    const MachineModel& machine = *machine_preset(name);
    for (const int gprs : {3, 6, 12}) {
      for (const double mem : {0.0, 0.3, 0.6}) {
        RandomIrParams ir;
        ir.num_insts = static_cast<int>(prng.uniform(4, 16));
        ir.num_gprs = gprs;
        ir.mem_frac = mem;
        inputs.push_back({name + " ir gprs=" + std::to_string(gprs), &machine,
                          build_loop_graph(random_ir_loop(prng, ir), machine)});
      }
    }
    for (int trial = 0; trial < 9; ++trial) {
      const int nodes = static_cast<int>(prng.uniform(2, 10));
      const int carried = static_cast<int>(prng.uniform(1, 4));
      inputs.push_back({name + " hand " + std::to_string(trial), &machine,
                        random_timed_loop(prng, machine, nodes, carried)});
    }
  }

  int long_runs = 0;
  int jumped = 0;
  int tail_left_period = 0;
  for (const Input& in : inputs) {
    for (int order_trial = 0; order_trial < 2; ++order_trial) {
      const std::vector<NodeId> order =
          random_topological_order(in.graph, prng);
      for (const int window : {1, 2, 4, 8, 16}) {
        for (const int iterations : {1, 2, 3, 7, 8, 13, 48, 64, 200}) {
          const LoopSimResult got =
              simulate_loop(in.graph, *in.machine, order, window, iterations);
          const LoopSimResult want = ref_loop_sim::simulate_loop(
              in.graph, *in.machine, order, window, iterations);
          ASSERT_EQ(got.completion, want.completion)
              << in.what << " W=" << window << " n=" << iterations;
          ASSERT_EQ(got.iteration_finish, want.iteration_finish)
              << in.what << " W=" << window << " n=" << iterations;
          if (iterations < 48) continue;
          ++long_runs;
          if (got.period_iterations == 0) continue;
          ++jumped;
          const std::size_t last = want.iteration_finish.size() - 1;
          const auto back = static_cast<std::size_t>(got.period_iterations);
          tail_left_period += want.iteration_finish[last] !=
                              want.iteration_finish[last - back] +
                                  got.period_cycles;
        }
      }
    }
  }
  EXPECT_GT(2 * jumped, long_runs);
  EXPECT_GT(tail_left_period, 0);
}

// ---------------------------------------------------------------------------
// The IR front end: renderer, dependence builder and asm parser.
// ---------------------------------------------------------------------------

namespace ref_frontend {

/// Instruction rendering verbatim from before the appending renderer.
std::string reg_to_string(const Reg& r) {
  const char prefix = r.cls == RegClass::kGpr ? 'r'
                      : r.cls == RegClass::kFpr ? 'f'
                                                : 'c';
  return prefix + std::to_string(r.idx);
}

std::string mem_to_string(const MemRef& m) {
  std::ostringstream os;
  if (!m.tag.empty()) os << m.tag;
  os << '[' << reg_to_string(m.base);
  if (m.offset >= 0) {
    os << '+' << m.offset;
  } else {
    os << m.offset;
  }
  os << ']';
  return os.str();
}

std::string to_string(const Instruction& inst) {
  std::ostringstream os;
  os << opcode_name(inst.op);
  if (inst.is_store()) {
    os << ' ' << mem_to_string(*inst.mem) << ", "
       << reg_to_string(inst.uses[0]);
    return os.str();
  }
  if (inst.is_load()) {
    os << ' ' << reg_to_string(inst.defs[0]) << ", "
       << mem_to_string(*inst.mem);
    return os.str();
  }
  if (inst.is_branch()) {
    os << ' ';
    if (!inst.uses.empty()) os << reg_to_string(inst.uses[0]) << ", ";
    os << inst.target;
    return os.str();
  }
  bool first = true;
  for (const Reg& d : inst.defs) {
    os << (first ? " " : ", ") << reg_to_string(d);
    first = false;
  }
  for (const Reg& u : inst.uses) {
    os << (first ? " " : ", ") << reg_to_string(u);
    first = false;
  }
  const Opcode op = inst.op;
  const bool imm_form =
      op == Opcode::kLi || op == Opcode::kCmp ||
      (inst.uses.size() == 1 && inst.defs.size() == 1 &&
       (op_class(op) == OpClass::kIntAlu || op_class(op) == OpClass::kIntMul ||
        op_class(op) == OpClass::kIntDiv || op_class(op) == OpClass::kFpAdd ||
        op_class(op) == OpClass::kFpMul || op_class(op) == OpClass::kFpDiv));
  if (imm_form) {
    os << (first ? " " : ", ") << inst.imm;
  }
  return os.str();
}

// The dependence builder verbatim from before the flat one-pass rebuild:
// std::map register state, std::map edge dedup, and control dependences
// found by rescanning every earlier occurrence for each branch.

int reg_key(const Reg& r) {
  return static_cast<int>(r.cls) * 256 + static_cast<int>(r.idx);
}

struct Occurrence {
  const Instruction* inst;
  int block;
  int copy;
  NodeId node;
};

class EdgeSink {
 public:
  explicit EdgeSink(DepGraph& g) : g_(g) {}

  void add(NodeId from, NodeId to, int latency, int distance) {
    if (distance == 0 && from == to) return;
    const auto key = std::make_tuple(from, to, distance);
    auto [it, inserted] = best_.emplace(key, latency);
    if (!inserted) it->second = std::max(it->second, latency);
  }

  void flush() {
    for (const auto& [key, latency] : best_) {
      const auto& [from, to, distance] = key;
      g_.add_edge(from, to, latency, distance);
    }
  }

 private:
  DepGraph& g_;
  std::map<std::tuple<NodeId, NodeId, int>, int> best_;
};

bool mem_conflict(const Instruction& a, const Instruction& b,
                  bool disambiguate) {
  if (!a.is_mem() || !b.is_mem()) return false;
  if (a.is_load() && b.is_load()) return false;
  if (!disambiguate) return true;
  const std::string& ta = a.mem->tag;
  const std::string& tb = b.mem->tag;
  if (ta.empty() || tb.empty()) return true;
  return ta == tb;
}

int producer_latency(const Instruction& inst, const MachineModel& machine) {
  return machine.timing(op_class(inst.op)).latency;
}

void scan(const std::vector<Occurrence>& seq, const MachineModel& machine,
          const DepBuildOptions& opts, EdgeSink& sink) {
  struct RegState {
    int last_def = -1;
    std::vector<int> uses_since_def;
  };
  std::map<int, RegState> regs;
  std::vector<int> mem_refs;

  auto emit = [&](int from_idx, int to_idx, int latency) {
    const Occurrence& a = seq[static_cast<std::size_t>(from_idx)];
    const Occurrence& b = seq[static_cast<std::size_t>(to_idx)];
    const int distance = b.copy - a.copy;
    AIS_CHECK(distance >= 0, "dependence cannot point backwards in copies");
    if (a.copy == 1 && b.copy == 1) return;
    sink.add(a.node, b.node, latency, distance);
  };

  for (int j = 0; j < static_cast<int>(seq.size()); ++j) {
    const Instruction& inst = *seq[static_cast<std::size_t>(j)].inst;

    for (const Reg& r : inst.uses) {
      RegState& st = regs[reg_key(r)];
      if (st.last_def >= 0) {
        const Instruction& def =
            *seq[static_cast<std::size_t>(st.last_def)].inst;
        emit(st.last_def, j, producer_latency(def, machine));
      }
      st.uses_since_def.push_back(j);
    }

    for (const Reg& r : inst.defs) {
      RegState& st = regs[reg_key(r)];
      if (st.last_def >= 0 && st.last_def != j) emit(st.last_def, j, 0);
      for (const int u : st.uses_since_def) {
        if (u != j) emit(u, j, 0);
      }
      st.last_def = j;
      st.uses_since_def.clear();
    }

    if (inst.is_mem()) {
      for (const int prior : mem_refs) {
        const Instruction& p = *seq[static_cast<std::size_t>(prior)].inst;
        if (!mem_conflict(p, inst, opts.disambiguate_memory)) continue;
        const int latency =
            (p.is_store() && inst.is_load()) ? producer_latency(p, machine) : 0;
        emit(prior, j, latency);
      }
      mem_refs.push_back(j);
    }
  }

  if (opts.control_deps) {
    for (std::size_t j = 0; j < seq.size(); ++j) {
      const Occurrence& br = seq[j];
      if (!br.inst->is_branch()) continue;
      for (std::size_t i = 0; i < j; ++i) {
        const Occurrence& prev = seq[i];
        if (prev.block == br.block && prev.copy == br.copy) {
          emit(static_cast<int>(i), static_cast<int>(j), 0);
        }
      }
    }
  }
}

DepGraph build(const Trace& trace, const MachineModel& machine,
               const DepBuildOptions& opts, bool loop_carried) {
  DepGraph g;
  std::size_t num_insts = 0;
  for (const BasicBlock& bb : trace.blocks) num_insts += bb.insts.size();
  g.reserve(num_insts);
  std::vector<Occurrence> seq;
  seq.reserve(loop_carried ? 2 * num_insts : num_insts);

  for (int b = 0; b < static_cast<int>(trace.blocks.size()); ++b) {
    const BasicBlock& bb = trace.blocks[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i < bb.insts.size(); ++i) {
      const Instruction& inst = bb.insts[i];
      const OpTiming& t = machine.timing(op_class(inst.op));
      const NodeId node =
          g.add_node(to_string(inst), t.exec_time, t.fu_class, /*block=*/b);
      seq.push_back(Occurrence{&inst, b, /*copy=*/0, node});
    }
  }

  if (loop_carried) {
    const std::size_t body_size = seq.size();
    for (std::size_t k = 0; k < body_size; ++k) {
      Occurrence occ = seq[k];
      occ.copy = 1;
      seq.push_back(occ);
    }
  }

  EdgeSink sink(g);
  scan(seq, machine, opts, sink);
  sink.flush();
  return g;
}

// The asm parser verbatim from before the string_view rebuild, with three
// changes.  fail() always throws: the copy is only driven the way
// parse_program_or_error drove it.  Where the original aborted the process
// — Instruction::cmp's and ::branch's AIS_CHECKs on a non-condition
// register — the copy throws Aborted.  And assemble() checks a factory's
// operands into locals from the last to the first: the original checked
// them inside the factory's argument list, whose evaluation order C++
// leaves open; GCC, which built every release, went last to first, so a
// line with several bad operands named the last one.

const std::map<std::string, Opcode>& opcode_table() {
  static const std::map<std::string, Opcode> table = {
      {"LI", Opcode::kLi},     {"MOV", Opcode::kMov},
      {"ADD", Opcode::kAdd},   {"SUB", Opcode::kSub},
      {"AND", Opcode::kAnd},   {"OR", Opcode::kOr},
      {"XOR", Opcode::kXor},   {"SHL", Opcode::kShl},
      {"SHR", Opcode::kShr},   {"MUL", Opcode::kMul},
      {"DIV", Opcode::kDiv},   {"LD", Opcode::kLoad},
      {"LDU", Opcode::kLoadU}, {"ST", Opcode::kStore},
      {"STU", Opcode::kStoreU},{"FADD", Opcode::kFAdd},
      {"FMUL", Opcode::kFMul}, {"FDIV", Opcode::kFDiv},
      {"FMA", Opcode::kFMa},   {"CMP", Opcode::kCmp},
      {"BT", Opcode::kBt},     {"BF", Opcode::kBf},
      {"B", Opcode::kB},       {"NOP", Opcode::kNop},
  };
  return table;
}

struct Operand {
  enum Kind { kReg, kImm, kMem, kLabel } kind;
  Reg reg{};
  MemRef mem{};
  std::string label;
  std::int64_t imm = 0;
};

struct ParseError {
  std::string message;
};
struct Aborted {};

[[noreturn]] void fail(int line_no, const std::string& why) {
  throw ParseError{"line " + std::to_string(line_no) + ": " + why};
}

std::optional<Reg> try_reg(const std::string& tok) {
  if (tok.size() < 2) return std::nullopt;
  RegClass cls;
  switch (tok[0]) {
    case 'r': cls = RegClass::kGpr; break;
    case 'f': cls = RegClass::kFpr; break;
    case 'c': cls = RegClass::kCr; break;
    default: return std::nullopt;
  }
  for (std::size_t i = 1; i < tok.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(tok[i]))) return std::nullopt;
  }
  const int idx = std::stoi(tok.substr(1));
  if (idx < 0 || idx > 255) return std::nullopt;
  return Reg{cls, static_cast<std::uint8_t>(idx)};
}

bool is_imm(const std::string& tok) {
  if (tok.empty()) return false;
  std::size_t i = (tok[0] == '-') ? 1 : 0;
  if (i == tok.size()) return false;
  for (; i < tok.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(tok[i]))) return false;
  }
  return true;
}

Operand parse_operand(const std::string& raw, int line_no) {
  const std::string tok = trim(raw);
  if (tok.empty()) fail(line_no, "empty operand");

  const std::size_t lb = tok.find('[');
  if (lb != std::string::npos) {
    if (tok.back() != ']') fail(line_no, "unterminated memory operand: " + tok);
    Operand op;
    op.kind = Operand::kMem;
    op.mem.tag = trim(tok.substr(0, lb));
    std::string inner = tok.substr(lb + 1, tok.size() - lb - 2);
    int offset = 0;
    const std::size_t plus = inner.find_first_of("+-");
    if (plus != std::string::npos && plus > 0) {
      offset = std::stoi(inner.substr(plus));
      inner = inner.substr(0, plus);
    }
    const auto base = try_reg(trim(inner));
    if (!base) fail(line_no, "bad memory base register: " + tok);
    op.mem.base = *base;
    op.mem.offset = offset;
    return op;
  }

  if (const auto reg = try_reg(tok)) {
    Operand op;
    op.kind = Operand::kReg;
    op.reg = *reg;
    return op;
  }
  if (is_imm(tok)) {
    Operand op;
    op.kind = Operand::kImm;
    op.imm = std::stoll(tok);
    return op;
  }
  Operand op;
  op.kind = Operand::kLabel;
  op.label = tok;
  return op;
}

Instruction checked_cmp(Reg crd, Reg a, std::int64_t imm) {
  if (crd.cls != RegClass::kCr) throw Aborted{};
  return Instruction::cmp(crd, a, imm);
}

Instruction checked_branch(Opcode op, Reg crs, std::string target) {
  if (crs.cls != RegClass::kCr) throw Aborted{};
  return Instruction::branch(op, crs, std::move(target));
}

Instruction assemble(Opcode op, const std::vector<Operand>& ops, int line_no) {
  auto want_reg = [&](std::size_t i) -> Reg {
    if (i >= ops.size() || ops[i].kind != Operand::kReg) {
      fail(line_no, "operand " + std::to_string(i) + " must be a register");
    }
    return ops[i].reg;
  };
  auto want_mem = [&](std::size_t i) -> MemRef {
    if (i >= ops.size() || ops[i].kind != Operand::kMem) {
      fail(line_no, "operand " + std::to_string(i) + " must be a memory ref");
    }
    return ops[i].mem;
  };
  auto want_label = [&](std::size_t i) -> std::string {
    if (i >= ops.size() || ops[i].kind != Operand::kLabel) {
      fail(line_no, "operand " + std::to_string(i) + " must be a label");
    }
    return ops[i].label;
  };

  auto imm_at = [&](std::size_t i) -> std::int64_t {
    return (i < ops.size() && ops[i].kind == Operand::kImm) ? ops[i].imm : 0;
  };

  switch (op) {
    case Opcode::kLi:
      return Instruction::li(want_reg(0), imm_at(1));
    case Opcode::kMov: {
      const Reg s = want_reg(1);
      return Instruction::mov(want_reg(0), s);
    }
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kFAdd:
    case Opcode::kFMul:
    case Opcode::kFDiv: {
      if (ops.size() >= 3 && ops[2].kind == Operand::kReg) {
        const Reg b = want_reg(2);
        const Reg a = want_reg(1);
        return Instruction::alu(op, want_reg(0), a, b);
      }
      const Reg a = want_reg(1);
      return Instruction::alu_imm(op, want_reg(0), a, imm_at(2));
    }
    case Opcode::kFMa: {
      const Reg c = want_reg(3);
      const Reg b = want_reg(2);
      const Reg a = want_reg(1);
      return Instruction::fma(want_reg(0), a, b, c);
    }
    case Opcode::kLoad:
    case Opcode::kLoadU: {
      MemRef m = want_mem(1);
      return Instruction::load(want_reg(0), std::move(m),
                               /*update=*/op == Opcode::kLoadU);
    }
    case Opcode::kStore:
    case Opcode::kStoreU: {
      const Reg v = want_reg(1);
      return Instruction::store(want_mem(0), v,
                                /*update=*/op == Opcode::kStoreU);
    }
    case Opcode::kCmp: {
      const Reg a = want_reg(1);
      return checked_cmp(want_reg(0), a, imm_at(2));
    }
    case Opcode::kBt:
    case Opcode::kBf: {
      std::string target = want_label(1);
      return checked_branch(op, want_reg(0), std::move(target));
    }
    case Opcode::kB:
      return Instruction::jump(want_label(0));
    case Opcode::kNop:
      return Instruction::nop();
  }
  fail(line_no, "unhandled opcode");
}

Program parse_program(const std::string& text) {
  Program prog;
  int line_no = 0;
  for (const std::string& raw_line : split(text, '\n')) {
    ++line_no;
    std::string line = raw_line;
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (starts_with(line, "block ")) {
      std::string label = trim(line.substr(6));
      if (!label.empty() && label.back() == ':') label.pop_back();
      if (label.empty()) fail(line_no, "block needs a label");
      prog.blocks.push_back(BasicBlock{label, {}});
      continue;
    }

    if (prog.blocks.empty()) prog.blocks.push_back(BasicBlock{"entry", {}});

    const std::size_t sp = line.find_first_of(" \t");
    const std::string mnemonic =
        sp == std::string::npos ? line : line.substr(0, sp);
    const auto it = opcode_table().find(mnemonic);
    if (it == opcode_table().end()) {
      fail(line_no, "unknown opcode: " + mnemonic);
    }
    std::vector<Operand> operands;
    if (sp != std::string::npos) {
      for (const std::string& part : split(line.substr(sp + 1), ',')) {
        const std::string t = trim(part);
        if (!t.empty()) operands.push_back(parse_operand(t, line_no));
      }
    }
    prog.blocks.back().insts.push_back(assemble(it->second, operands, line_no));
  }
  AIS_CHECK(!prog.blocks.empty(), "empty program");
  return prog;
}

/// What the old parse_program_or_error did with `text`.
struct Outcome {
  std::optional<Program> program;
  std::string error;     // its error reply, when it gave one
  bool aborted = false;  // it terminated the process instead
};

Outcome parse_program_or_error(const std::string& text) {
  bool has_content = false;
  for (const std::string& raw_line : split(text, '\n')) {
    std::string line = raw_line;
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = line.substr(0, comment);
    if (!trim(line).empty()) {
      has_content = true;
      break;
    }
  }
  Outcome out;
  if (!has_content) {
    out.error = "empty program";
    return out;
  }
  try {
    out.program = parse_program(text);
  } catch (const ParseError& e) {
    out.error = e.message;
  } catch (const Aborted&) {
    out.aborted = true;
  } catch (const std::exception& e) {
    out.error = std::string("parse error: ") + e.what();
  }
  return out;
}

}  // namespace ref_frontend

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The shipped assembly: examples/*.s and tests/analysis_corpus/*.s.
std::vector<std::pair<std::string, std::string>> shipped_asm() {
  std::vector<std::pair<std::string, std::string>> files;
  for (const char* dir : {AIS_EXAMPLES_DIR, AIS_ANALYSIS_CORPUS_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".s") continue;
      files.emplace_back(entry.path().filename().string(),
                         read_file(entry.path().string()));
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string render(const std::vector<BasicBlock>& blocks) {
  std::string text;
  for (const BasicBlock& bb : blocks) {
    text += "block " + bb.label + ":\n";
    for (const Instruction& inst : bb.insts) {
      text += "  " + ref_frontend::to_string(inst) + "\n";
    }
  }
  return text;
}

void expect_same_graph(const DepGraph& got, const DepGraph& want,
                       const std::string& what) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
  for (NodeId id = 0; id < want.num_nodes(); ++id) {
    EXPECT_EQ(got.name(id).view(), want.name(id).view()) << what << " " << id;
    EXPECT_EQ(got.exec_times()[id], want.exec_times()[id]) << what << " " << id;
    EXPECT_EQ(got.fu_classes()[id], want.fu_classes()[id]) << what << " " << id;
    EXPECT_EQ(got.blocks()[id], want.blocks()[id]) << what << " " << id;
  }
  ASSERT_EQ(got.num_edges(), want.num_edges()) << what;
  for (std::size_t k = 0; k < want.num_edges(); ++k) {
    const DepEdge& a = got.edge(k);
    const DepEdge& b = want.edge(k);
    EXPECT_TRUE(a.from == b.from && a.to == b.to && a.latency == b.latency &&
                a.distance == b.distance)
        << what << " edge " << k << ": got " << a.from << "->" << a.to
        << " <" << a.latency << "," << a.distance << ">, want " << b.from
        << "->" << b.to << " <" << b.latency << "," << b.distance << ">";
  }
}

/// The flat one-pass builder must produce exactly the graph the std::map
/// builder did — node names, columns and edges in order — for blocks,
/// traces and loops of random IR on every preset plus one whose stores
/// carry latency (so a store→load pair also reached by a latency-0 WAR
/// edge needs the max merge), under both DepBuildOptions switches, with
/// small to large register pools and no to mostly memory operations
/// (untagged references included), and for every shipped example.
TEST(Differential, DepBuildMatchesVerbatimReference) {
  std::vector<MachineModel> machines = {scalar01(), rs6000_like(),
                                        deep_pipeline(), vliw4()};
  MachineModel store_latency = rs6000_like();
  store_latency.set_timing(OpClass::kStore, {0, 1, 2});
  machines.push_back(store_latency);

  int graphs = 0;
  int carried = 0;
  const auto check = [&](const Trace& trace, const MachineModel& machine,
                         const DepBuildOptions& opts, const std::string& what) {
    expect_same_graph(build_trace_graph(trace, machine, opts),
                      ref_frontend::build(trace, machine, opts, false),
                      what + " trace");
    const Loop loop{trace};
    const DepGraph g = build_loop_graph(loop, machine, opts);
    carried += g.has_carried_edges();
    expect_same_graph(g, ref_frontend::build(trace, machine, opts, true),
                      what + " loop");
    for (std::size_t b = 0; b < trace.blocks.size(); ++b) {
      expect_same_graph(
          build_block_graph(trace.blocks[b], machine, opts),
          ref_frontend::build(Trace{{trace.blocks[b]}}, machine, opts, false),
          what + " block " + std::to_string(b));
    }
    graphs += 2 + static_cast<int>(trace.blocks.size());
  };

  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (const bool control : {true, false}) {
      for (const bool disambiguate : {true, false}) {
        DepBuildOptions opts;
        opts.control_deps = control;
        opts.disambiguate_memory = disambiguate;
        Prng prng(0xdeb1 + m * 97 + control * 13 + disambiguate * 7);
        for (const int pool : {3, 6, 16}) {
          for (const double mem_frac : {0.0, 0.3, 0.9}) {
            RandomIrParams params;
            params.num_gprs = pool;
            params.num_fprs = std::min(pool, 4);
            params.mem_frac = mem_frac;
            params.num_insts = static_cast<int>(prng.uniform(4, 16));
            const std::string what =
                machines[m].name() + " control=" + std::to_string(control) +
                " disambiguate=" + std::to_string(disambiguate) +
                " pool=" + std::to_string(pool) +
                " mem=" + std::to_string(mem_frac);
            check(random_ir_trace(prng, params,
                                  static_cast<int>(prng.uniform(1, 4))),
                  machines[m], opts, what);
          }
        }
        for (const auto& [name, text] : shipped_asm()) {
          check(Trace{parse_program(text).blocks}, machines[m], opts, name);
        }
      }
    }
  }
  EXPECT_GT(graphs, 1000);
  EXPECT_GT(carried, 0);
}

/// The appending renderer must print exactly what the ostringstream one
/// did: every opcode form, offsets and immediates at their extremes, empty
/// and non-empty tags, and every register of every file.
TEST(Differential, InstructionRenderMatchesVerbatimReference) {
  constexpr std::int64_t kImms[] = {0,
                                    -1,
                                    42,
                                    std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max()};
  constexpr int kOffsets[] = {0, -8, 4, std::numeric_limits<int>::min(),
                              std::numeric_limits<int>::max()};
  std::vector<Instruction> insts;
  for (const std::int64_t imm : kImms) {
    insts.push_back(Instruction::li(gpr(255), imm));
    insts.push_back(Instruction::cmp(cr(7), gpr(3), imm));
    for (const Opcode op :
         {Opcode::kAdd, Opcode::kSub, Opcode::kAnd, Opcode::kOr, Opcode::kXor,
          Opcode::kShl, Opcode::kShr, Opcode::kMul, Opcode::kDiv,
          Opcode::kFAdd, Opcode::kFMul, Opcode::kFDiv}) {
      insts.push_back(Instruction::alu(op, gpr(1), gpr(2), gpr(255)));
      insts.push_back(Instruction::alu_imm(op, fpr(1), fpr(0), imm));
    }
  }
  for (const int offset : kOffsets) {
    for (const char* tag : {"", "x", "region.7"}) {
      for (const bool update : {false, true}) {
        insts.push_back(
            Instruction::load(gpr(6), MemRef{gpr(255), offset, tag}, update));
        insts.push_back(
            Instruction::store(MemRef{gpr(5), offset, tag}, fpr(255), update));
      }
    }
  }
  insts.push_back(Instruction::mov(gpr(0), gpr(255)));
  insts.push_back(Instruction::fma(fpr(1), fpr(2), fpr(3), fpr(255)));
  insts.push_back(Instruction::branch(Opcode::kBt, cr(1), "CL.1"));
  insts.push_back(Instruction::branch(Opcode::kBf, cr(255), ""));
  insts.push_back(Instruction::jump("out"));
  insts.push_back(Instruction::jump(""));
  insts.push_back(Instruction::nop());

  std::string appended = "prefix";
  std::string want = "prefix";
  for (const Instruction& inst : insts) {
    EXPECT_EQ(inst.to_string(), ref_frontend::to_string(inst));
    inst.append_to(appended);
    want += ref_frontend::to_string(inst);
  }
  EXPECT_EQ(appended, want);

  for (const RegClass cls : {RegClass::kGpr, RegClass::kFpr, RegClass::kCr}) {
    for (int idx = 0; idx <= 255; ++idx) {
      const Reg r{cls, static_cast<std::uint8_t>(idx)};
      EXPECT_EQ(r.to_string(), ref_frontend::reg_to_string(r));
    }
  }
}

bool same_instruction(const Instruction& a, const Instruction& b) {
  const bool same_mem =
      a.mem.has_value() == b.mem.has_value() &&
      (!a.mem || (a.mem->base == b.mem->base &&
                  a.mem->offset == b.mem->offset && a.mem->tag == b.mem->tag));
  return a.op == b.op && a.defs == b.defs && a.uses == b.uses && same_mem &&
         a.imm == b.imm && a.target == b.target;
}

bool same_program(const Program& a, const Program& b) {
  if (a.blocks.size() != b.blocks.size()) return false;
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    const BasicBlock& x = a.blocks[i];
    const BasicBlock& y = b.blocks[i];
    if (x.label != y.label || x.insts.size() != y.insts.size()) return false;
    for (std::size_t k = 0; k < x.insts.size(); ++k) {
      if (!same_instruction(x.insts[k], y.insts[k])) return false;
    }
  }
  return true;
}

/// Line number of an error reply "line N: ...", or 0.
int error_line(const std::string& error) {
  int line = 0;
  if (std::sscanf(error.c_str(), "line %d: ", &line) != 1) return 0;
  return line;
}

/// True when `error` is one of the rejections the stricter grammar added.
/// `accepted_before`: the old parser took the input, so the message cannot
/// be one that replaced its exception or abort.
bool strict_rejection(const std::string& error, bool accepted_before) {
  const std::size_t colon = error.find(": ");
  if (error_line(error) == 0 || colon == std::string::npos) return false;
  const std::string why = error.substr(colon + 2);
  const auto starts = [&](const char* p) { return why.rfind(p, 0) == 0; };
  const auto ends = [&](const char* s) {
    const std::string suffix = s;
    return why.size() >= suffix.size() &&
           why.compare(why.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (starts("too many operands for ") || starts("bad memory offset: ") ||
      ends(" must be an immediate") ||
      ends(" must be a register or an immediate")) {
    return true;
  }
  return !accepted_before &&
         (starts("memory offset out of range: ") ||
          starts("immediate out of range: ") ||
          ends(" must be a condition register"));
}

/// A register-shaped token too large for a register file: a label now, a
/// libstdc++ range error before.
bool oversized_register(const std::string& tok) {
  return tok.size() > 10 && (tok[0] == 'r' || tok[0] == 'f' || tok[0] == 'c') &&
         std::all_of(tok.begin() + 1, tok.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

/// How the new parser's answer relates to the old one's; kMismatch fails.
enum class Verdict { kSame, kStricter, kWasException, kWasAbort, kMismatch };

Verdict compare_parse(const std::string& text) {
  const ref_frontend::Outcome want = ref_frontend::parse_program_or_error(text);
  std::string error;
  const std::optional<Program> got = parse_program_or_error(text, &error);
  if (want.aborted) {
    return !got && strict_rejection(error, false) ? Verdict::kWasAbort
                                                  : Verdict::kMismatch;
  }
  if (want.program) {
    if (got) return same_program(*got, *want.program) ? Verdict::kSame
                                                      : Verdict::kMismatch;
    return strict_rejection(error, true) ? Verdict::kStricter
                                         : Verdict::kMismatch;
  }
  if (want.error.rfind("parse error: ", 0) == 0) {  // a libstdc++ exception
    if (!got) {
      return error_line(error) > 0 ? Verdict::kWasException
                                   : Verdict::kMismatch;
    }
    for (const BasicBlock& bb : got->blocks) {
      for (const Instruction& inst : bb.insts) {
        if (oversized_register(inst.target)) return Verdict::kWasException;
      }
    }
    return Verdict::kMismatch;
  }
  if (!got && error == want.error) return Verdict::kSame;
  // A stricter rejection on an earlier line preempts the old error.
  return !got && error_line(error) < error_line(want.error) &&
                 strict_rejection(error, true)
             ? Verdict::kStricter
             : Verdict::kMismatch;
}

/// One seeded mutation: delete, duplicate or replace a byte, insert one of
/// the bytes that steer the grammar, or move a register operand to another
/// register file (which reaches the CMP and branch condition checks).
std::string mutate(std::string text, Prng& prng) {
  static constexpr std::string_view kInserts = ",[]+-#0123456789 \r";
  const auto pick_insert = [&]() -> char {
    const std::size_t k = prng.index(kInserts.size() + 1);
    return k == kInserts.size() ? '\0' : kInserts[k];
  };
  if (text.empty()) return std::string(1, pick_insert());
  const std::size_t at = prng.index(text.size());
  switch (prng.uniform(0, 4)) {
    case 0:
      text.erase(at, 1);
      break;
    case 1:
      text.insert(at, 1, text[at]);
      break;
    case 2:  // with another byte of the text, or an inserted one
      text[at] = prng.chance(0.5) ? text[prng.index(text.size())]
                                  : pick_insert();
      break;
    case 3:
      text.insert(at, 1, pick_insert());
      break;
    default: {
      static constexpr std::string_view kFiles = "rfc";
      std::vector<std::size_t> regs;  // where register operands start
      for (std::size_t k = 1; k + 1 < text.size(); ++k) {
        if ((text[k - 1] == ' ' || text[k - 1] == '[') &&
            kFiles.find(text[k]) != std::string_view::npos &&
            std::isdigit(static_cast<unsigned char>(text[k + 1]))) {
          regs.push_back(k);
        }
      }
      if (!regs.empty()) {
        text[regs[prng.index(regs.size())]] = kFiles[prng.index(3)];
      }
      break;
    }
  }
  return text;
}

/// The string_view parser must return what the old parser returned — the
/// same Program, or the same error reply — on the shipped assembly,
/// rendered random IR and seeded byte mutations of both.  The exceptions
/// are the inputs the stricter grammar rejects: a malformed number or
/// offset, an extra operand, a non-immediate in an immediate position, or
/// a CMP or branch condition outside the condition registers (which
/// aborted the process before), and the libstdc++ range errors, now an
/// error naming the line.  Every mutation gets a Program or an error.
TEST(Differential, AsmParserMatchesVerbatimReference) {
  std::vector<std::pair<std::string, std::string>> corpus = shipped_asm();
  for (const auto& [name, text] : corpus) {
    EXPECT_EQ(compare_parse(text), Verdict::kSame) << name;
  }
  Prng prng(0xa5a);
  for (int i = 0; i < 48; ++i) {
    RandomIrParams params;
    params.num_insts = static_cast<int>(prng.uniform(2, 14));
    params.mem_frac = std::array{0.0, 0.3, 0.9}[i % 3];
    const std::string what = "random " + std::to_string(i);
    if (i % 2 == 0) {
      corpus.emplace_back(
          what, render(random_ir_trace(prng, params,
                                       static_cast<int>(prng.uniform(1, 4)))
                           .blocks));
    } else {
      corpus.emplace_back(what,
                          render(random_ir_loop(prng, params).body.blocks));
    }
    EXPECT_EQ(compare_parse(corpus.back().second), Verdict::kSame) << what;
  }

  std::map<Verdict, int> verdicts;
  for (const auto& [name, text] : corpus) {
    for (int k = 0; k < 120; ++k) {
      std::string mutant = text;
      const int rounds = static_cast<int>(prng.uniform(1, 3));
      for (int r = 0; r < rounds; ++r) mutant = mutate(std::move(mutant), prng);
      const Verdict v = compare_parse(mutant);
      ++verdicts[v];
      EXPECT_NE(v, Verdict::kMismatch) << name << " mutant " << k << ":\n"
                                       << mutant;
    }
  }
  // The corpus reaches every kind of verdict.
  EXPECT_GT(verdicts[Verdict::kSame], 1000);
  EXPECT_GT(verdicts[Verdict::kStricter], 0);
  EXPECT_GT(verdicts[Verdict::kWasException], 0);
  EXPECT_GT(verdicts[Verdict::kWasAbort], 0);
}

// ---------------------------------------------------------------------------
// The schedule cache's trace key: one flat pass against the append builder.
// ---------------------------------------------------------------------------

/// build_trace_key verbatim from before the flat pass: every field appended
/// through put_raw, the edges sorted unconditionally, the structural hash
/// seeded with the appended prefix.  The helpers are the originals with
/// the step-key branches (dead for a trace key) dropped.
namespace ref_cache_key {

template <typename T>
void put_raw(std::string& b, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  b.append(buf, sizeof(T));
}

void put_u8(std::string& b, std::uint8_t v) { put_raw(b, v); }
void put_u32(std::string& b, std::uint32_t v) { put_raw(b, v); }
void put_i64(std::string& b, std::int64_t v) { put_raw(b, v); }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_bytes(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kInSalt = 0x8e2a4f7d9c1b3e55ULL;
constexpr std::uint64_t kOutSalt = 0x41c64e6da3b59f21ULL;
constexpr char kTraceKind = 'T';
constexpr std::uint32_t kNoBlock = 0xffffffffU;

constexpr std::uint8_t kFlagDelayIdle = 1U << 0U;
constexpr std::uint8_t kFlagMergeCaps = 1U << 1U;
constexpr std::uint8_t kFlagDoChop = 1U << 2U;
constexpr std::uint8_t kFlagSplitLongOps = 1U << 3U;
constexpr std::uint8_t kFlagHasTie = 1U << 4U;

struct DenseNode {
  std::uint32_t exec = 0;
  std::uint32_t fu = 0;
  std::uint32_t block_pos = 0;
  std::int64_t tie = 0;
};

struct DenseEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t latency = 0;
};

std::uint64_t wl_hash(std::uint64_t seed, bool has_tie, const DenseNode* nodes,
                      std::size_t n, const DenseEdge* edges, std::size_t m,
                      Arena& scratch) {
  std::uint64_t* cur = scratch.alloc_array<std::uint64_t>(n);
  std::uint64_t* nxt = scratch.alloc_array<std::uint64_t>(n);
  std::uint64_t* in_acc = scratch.alloc_array<std::uint64_t>(n);
  std::uint64_t* out_acc = scratch.alloc_array<std::uint64_t>(n);

  for (std::size_t v = 0; v < n; ++v) {
    const DenseNode& node = nodes[v];
    std::uint64_t h = mix64(seed ^ ((static_cast<std::uint64_t>(node.exec)
                                     << 32U) |
                                    node.fu));
    h = mix64(h ^ node.block_pos);
    if (has_tie) h = mix64(h ^ static_cast<std::uint64_t>(node.tie));
    cur[v] = h;
  }

  for (int round = 0; round < 2; ++round) {
    std::fill_n(in_acc, n, std::uint64_t{0});
    std::fill_n(out_acc, n, std::uint64_t{0});
    for (std::size_t e = 0; e < m; ++e) {
      const DenseEdge& edge = edges[e];
      const std::uint64_t lat = mix64(edge.latency);
      out_acc[edge.from] += mix64(cur[edge.to] ^ lat ^ kOutSalt);
      in_acc[edge.to] += mix64(cur[edge.from] ^ lat ^ kInSalt);
    }
    for (std::size_t v = 0; v < n; ++v) {
      nxt[v] = mix64(cur[v] + 3 * mix64(in_acc[v]) + 5 * mix64(out_acc[v]));
    }
    std::swap(cur, nxt);
  }

  std::uint64_t sum = 0;
  std::uint64_t xored = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t h = mix64(cur[v]);
    sum += h;
    xored ^= h;
  }
  return mix64(seed ^ sum) ^
         mix64(xored + (static_cast<std::uint64_t>(n) << 32U) + m);
}

std::uint8_t flags_of(const CacheInstanceParams& params, bool has_tie) {
  std::uint8_t flags = 0;
  if (params.delay_idle) flags |= kFlagDelayIdle;
  if (params.merge_deadline_caps) flags |= kFlagMergeCaps;
  if (params.do_chop) flags |= kFlagDoChop;
  if (params.split_long_ops) flags |= kFlagSplitLongOps;
  if (has_tie) flags |= kFlagHasTie;
  return flags;
}

void serialize_prefix(std::string& b, char kind,
                      const CacheInstanceParams& params, bool has_tie) {
  put_u8(b, static_cast<std::uint8_t>(kind));
  put_u32(b, kScheduleCacheFormatVersion);
  put_u32(b, kScheduleCacheAlgoVersion);
  const MachineModel& machine = *params.machine;
  put_u32(b, static_cast<std::uint32_t>(machine.issue_width()));
  put_u32(b, static_cast<std::uint32_t>(machine.num_fu_classes()));
  for (const FuClassInfo& fu : machine.fu_classes()) {
    put_u32(b, static_cast<std::uint32_t>(fu.count));
  }
  put_u32(b, static_cast<std::uint32_t>(kNumOpClasses));
  for (std::size_t cls = 0; cls < kNumOpClasses; ++cls) {
    const OpTiming& t = machine.timing(static_cast<OpClass>(cls));
    put_u32(b, static_cast<std::uint32_t>(t.fu_class));
    put_u32(b, static_cast<std::uint32_t>(t.exec_time));
    put_u32(b, static_cast<std::uint32_t>(t.latency));
  }
  put_i64(b, static_cast<std::int64_t>(params.window));
  put_i64(b, params.huge);
  put_u8(b, flags_of(params, has_tie));
}

bool params_have_tie(const CacheInstanceParams& params) {
  return params.tie_break != nullptr && !params.tie_break->empty();
}

std::int64_t tie_value(const CacheInstanceParams& params, NodeId id) {
  if (id < params.tie_break->size()) return (*params.tie_break)[id];
  return static_cast<std::int64_t>(id);
}

void sort_edges(DenseEdge* edges, std::size_t m) {
  std::sort(edges, edges + m, [](const DenseEdge& a, const DenseEdge& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.latency < b.latency;
  });
}

void finish_key(CacheKey& key, bool has_tie, const DenseNode* nodes,
                std::size_t n, DenseEdge* edges, std::size_t m,
                Arena& scratch) {
  std::string& b = key.bytes;
  const std::uint64_t seed = hash_bytes(std::string_view(b.data(), b.size()));

  sort_edges(edges, m);
  put_u32(b, static_cast<std::uint32_t>(n));
  for (std::size_t v = 0; v < n; ++v) {
    put_u32(b, nodes[v].exec);
    put_u32(b, nodes[v].fu);
    put_u32(b, nodes[v].block_pos);
  }
  if (has_tie) {
    for (std::size_t v = 0; v < n; ++v) put_i64(b, nodes[v].tie);
  }
  put_u32(b, static_cast<std::uint32_t>(m));
  for (std::size_t e = 0; e < m; ++e) {
    put_u32(b, edges[e].from);
    put_u32(b, edges[e].to);
    put_u32(b, edges[e].latency);
  }

  key.hash = wl_hash(seed, has_tie, nodes, n, edges, m, scratch);
}

CacheKey build_trace_key(const DepGraph& g, const std::vector<NodeSet>& blocks,
                         const CacheInstanceParams& params) {
  CacheKey key;
  Arena scratch;

  const std::size_t domain = g.num_nodes();
  std::uint32_t* block_pos = scratch.alloc_array<std::uint32_t>(domain);
  std::fill_n(block_pos, domain, kNoBlock);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (const NodeId id : blocks[b].ids()) {
      if (block_pos[id] == kNoBlock) {
        block_pos[id] = static_cast<std::uint32_t>(b);
      }
    }
  }
  std::uint32_t* dense_of = scratch.alloc_array<std::uint32_t>(domain);
  for (NodeId id = 0; id < domain; ++id) {
    if (block_pos[id] != kNoBlock) {
      dense_of[id] = static_cast<std::uint32_t>(key.ids.size());
      key.ids.push_back(id);
    }
  }
  const std::size_t n = key.ids.size();

  const bool has_tie = params_have_tie(params);
  DenseNode* nodes = scratch.alloc_array<DenseNode>(n);
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId id = key.ids[v];
    const NodeInfo& info = g.node(id);
    nodes[v] = DenseNode{};
    nodes[v].exec = static_cast<std::uint32_t>(info.exec_time);
    nodes[v].fu = static_cast<std::uint32_t>(info.fu_class);
    nodes[v].block_pos = block_pos[id];
    if (has_tie) nodes[v].tie = tie_value(params, id);
  }

  DenseEdge* edges = scratch.alloc_array<DenseEdge>(g.num_edges());
  std::size_t m = 0;
  for (const DepEdge& e : g.edges()) {
    if (e.distance != 0) continue;
    if (block_pos[e.from] == kNoBlock || block_pos[e.to] == kNoBlock) continue;
    edges[m++] = DenseEdge{dense_of[e.from], dense_of[e.to],
                           static_cast<std::uint32_t>(e.latency)};
  }

  key.bytes.reserve(256 + n * 12 + m * 12);
  serialize_prefix(key.bytes, kTraceKind, params, has_tie);
  put_u32(key.bytes, static_cast<std::uint32_t>(blocks.size()));
  finish_key(key, has_tie, nodes, n, edges, m, scratch);
  return key;
}

}  // namespace ref_cache_key

/// True when g's loop-independent edges are listed in (from, to) order.
bool edges_from_to_sorted(const DepGraph& g) {
  const DepEdge* prev = nullptr;
  for (const DepEdge& e : g.edges()) {
    if (e.distance != 0) continue;
    if (prev != nullptr &&
        std::tie(e.from, e.to) < std::tie(prev->from, prev->to)) {
      return false;
    }
    prev = &e;
  }
  return true;
}

/// The one-pass trace key must equal the append-and-sort builder's — key
/// bytes, structural hash and dense-to-caller ids — on random IR traces
/// (4 x 12 and 4 x 24) and their loop graphs, random_trace graphs, the
/// schedule_loop_trace graph (loop_trace_graph: the body plus its
/// wrap-around clone, whose edges are out of (from, to) order) of each,
/// and every shipped example, on
/// all four presets, with and without a tie-break vector (full length and
/// shorter than the graph), over all blocks or a prefix of them, and under
/// varied windows, horizons and algorithm switches.  The inputs must
/// include edge lists out of (from, to) order, where the sort does work.
TEST(Differential, CacheKeyMatchesVerbatimReference) {
  const std::vector<MachineModel> machines = {scalar01(), rs6000_like(),
                                              deep_pipeline(), vliw4()};
  Prng prng(0xcac4e7);
  int keys = 0;
  int unsorted = 0;
  int with_tie = 0;

  const auto check_graph = [&](const DepGraph& g, const MachineModel& machine,
                               const std::string& what) {
    if (g.num_nodes() == 0) return;
    unsorted += edges_from_to_sorted(g) ? 0 : 1;
    const std::vector<NodeSet> all = blocks_of(g);
    std::vector<std::vector<NodeSet>> block_lists = {all};
    if (all.size() > 1) {
      block_lists.emplace_back(all.begin(), all.end() - 1);
    }
    std::vector<int> full_tie(g.num_nodes());
    for (int& t : full_tie) t = static_cast<int>(prng.uniform(0, 8));
    std::vector<int> short_tie(full_tie.begin(),
                               full_tie.begin() + full_tie.size() / 2);
    const std::vector<int> no_tie;
    for (const std::vector<NodeSet>& blocks : block_lists) {
      for (const std::vector<int>* tie :
           std::array<const std::vector<int>*, 3>{&no_tie, &full_tie,
                                                  &short_tie}) {
        CacheInstanceParams params;
        params.machine = &machine;
        params.window = static_cast<int>(prng.uniform(1, 8));
        params.huge = static_cast<Time>(prng.uniform(1, 1 << 20));
        params.delay_idle = prng.uniform(0, 1) == 1;
        params.merge_deadline_caps = prng.uniform(0, 1) == 1;
        params.do_chop = prng.uniform(0, 1) == 1;
        params.split_long_ops = prng.uniform(0, 1) == 1;
        params.tie_break = tie;
        const CacheKey got = build_trace_key(g, blocks, params);
        const CacheKey want = ref_cache_key::build_trace_key(g, blocks, params);
        const std::string where = what + " blocks=" +
                                  std::to_string(blocks.size()) +
                                  " tie=" + std::to_string(tie->size());
        EXPECT_EQ(got.bytes, want.bytes) << where;
        EXPECT_EQ(got.hash, want.hash) << where;
        EXPECT_EQ(got.ids, want.ids) << where;
        EXPECT_EQ(structural_hash(got), got.hash) << where;
        ++keys;
        with_tie += tie->empty() ? 0 : 1;
      }
    }
  };
  const auto check_trace = [&](const Trace& trace, const MachineModel& machine,
                               const std::string& what) {
    const DepGraph g = build_trace_graph(trace, machine);
    check_graph(g, machine, what + " trace");
    check_graph(build_loop_graph(Loop{trace}, machine), machine,
                what + " loop");
    if (trace.blocks.size() >= 2) {
      check_graph(loop_trace_graph(build_loop_graph(Loop{trace}, machine)),
                  machine, what + " loop-trace clone");
    }
  };

  for (const MachineModel& machine : machines) {
    for (const int insts : {12, 24}) {
      for (int i = 0; i < 6; ++i) {
        RandomIrParams ir;
        ir.num_insts = insts;
        if (i % 2 == 1) {
          ir.num_gprs = 16;
          ir.mem_frac = 0.1;
        }
        check_trace(random_ir_trace(prng, ir, 4), machine,
                    machine.name() + " ir 4x" + std::to_string(insts) + " #" +
                        std::to_string(i));
      }
    }
    for (int i = 0; i < 6; ++i) {
      RandomTraceParams params;
      params.num_blocks = static_cast<int>(prng.uniform(2, 5));
      params.block.num_nodes = static_cast<int>(prng.uniform(4, 16));
      params.block.edge_prob = 0.3;
      params.block.max_latency = static_cast<int>(prng.uniform(1, 3));
      params.cross_edges = 2;
      const DepGraph g = random_trace(prng, params);
      check_graph(g, machine, machine.name() + " random_trace");
      check_graph(loop_trace_graph(g), machine,
                  machine.name() + " random_trace clone");
    }
    for (const auto& [name, text] : shipped_asm()) {
      check_trace(Trace{parse_program(text).blocks}, machine, name);
    }
  }
  EXPECT_GT(keys, 1000);
  EXPECT_GT(with_tie, 0);
  EXPECT_GT(unsorted, 0);
}

// ---- The verifier: dependence derivation and block matching -------------

namespace ref_verify {

// Verbatim copy of verify/ir_deps.cpp's derive_trace_deps before it walked
// per-register occurrence lists: every instruction pair, with an explicit
// no_write_between kill check per pair.

/// Flat view of one instruction: pointer plus its block index.
struct FlatInst {
  const Instruction* inst;
  int block;
};

std::vector<FlatInst> flatten(const Trace& trace) {
  std::vector<FlatInst> flat;
  for (int b = 0; b < static_cast<int>(trace.blocks.size()); ++b) {
    for (const Instruction& inst :
         trace.blocks[static_cast<std::size_t>(b)].insts) {
      flat.push_back(FlatInst{&inst, b});
    }
  }
  return flat;
}

bool writes(const Instruction& inst, const Reg& r) {
  for (const Reg& d : inst.defs) {
    if (d == r) return true;
  }
  return false;
}

bool reads(const Instruction& inst, const Reg& r) {
  for (const Reg& u : inst.uses) {
    if (u == r) return true;
  }
  return false;
}

/// True when no instruction strictly between `lo` and `hi` writes `r`.
bool no_write_between(const std::vector<FlatInst>& flat, int lo, int hi,
                      const Reg& r) {
  for (int k = lo + 1; k < hi; ++k) {
    if (writes(*flat[static_cast<std::size_t>(k)].inst, r)) return false;
  }
  return true;
}

bool may_alias(const MemRef& a, const MemRef& b, bool disambiguate) {
  if (!disambiguate) return true;
  if (a.tag.empty() || b.tag.empty()) return true;
  return a.tag == b.tag;
}

int result_latency(const Instruction& inst, const MachineModel& machine) {
  return machine.timing(op_class(inst.op)).latency;
}

using verify::DepKind;
using verify::IrDep;

std::vector<IrDep> derive_trace_deps(const Trace& trace,
                                     const MachineModel& machine,
                                     bool disambiguate_memory) {
  const std::vector<FlatInst> flat = flatten(trace);
  const int n = static_cast<int>(flat.size());
  std::vector<IrDep> deps;

  for (int j = 0; j < n; ++j) {
    const Instruction& b = *flat[static_cast<std::size_t>(j)].inst;
    for (int i = 0; i < j; ++i) {
      const Instruction& a = *flat[static_cast<std::size_t>(i)].inst;

      // True dependence: i is the last writer of a register j reads.
      for (const Reg& r : b.uses) {
        if (writes(a, r) && no_write_between(flat, i, j, r)) {
          deps.push_back(IrDep{i, j, DepKind::kTrue,
                               result_latency(a, machine)});
          break;  // one edge per pair suffices for this kind
        }
      }

      // Anti dependence: i reads a register j overwrites before any other
      // writer intervenes.  When i also writes the register the pair is
      // covered by the output rule below (the write supersedes the read).
      for (const Reg& r : b.defs) {
        if (reads(a, r) && !writes(a, r) && no_write_between(flat, i, j, r)) {
          deps.push_back(IrDep{i, j, DepKind::kAnti, 0});
          break;
        }
      }

      // Output dependence: consecutive writers of the same register.
      for (const Reg& r : b.defs) {
        if (writes(a, r) && no_write_between(flat, i, j, r)) {
          deps.push_back(IrDep{i, j, DepKind::kOutput, 0});
          break;
        }
      }

      // Memory ordering: all conflicting pairs, not just adjacent ones
      // (region tags are may-alias information, so no reference kills
      // earlier ones).
      if (a.is_mem() && b.is_mem() && !(a.is_load() && b.is_load()) &&
          may_alias(*a.mem, *b.mem, disambiguate_memory)) {
        const int latency =
            (a.is_store() && b.is_load()) ? result_latency(a, machine) : 0;
        deps.push_back(IrDep{i, j, DepKind::kMemory, latency});
      }

      // Control dependence: everything in a block precedes its branch.
      if (b.is_branch() &&
          flat[static_cast<std::size_t>(i)].block ==
              flat[static_cast<std::size_t>(j)].block) {
        deps.push_back(IrDep{i, j, DepKind::kControl, 0});
      }
    }
  }
  return deps;
}

// Verbatim copy of verify/verify.cpp's match_blocks and check_emitted
// before each instruction was rendered once into reused buffers (less the
// telemetry span): a std::map from rendering to free original slots per
// block, and a fresh rendering at every comparison.

using verify::Report;
using verify::VerifyOptions;

std::vector<const Instruction*> flatten_insts(const Trace& trace) {
  std::vector<const Instruction*> flat;
  for (const BasicBlock& bb : trace.blocks) {
    for (const Instruction& inst : bb.insts) flat.push_back(&inst);
  }
  return flat;
}

bool match_blocks(const Trace& original, const Trace& scheduled,
                  std::vector<int>& scheduled_to_original, Report& report) {
  int flat_base = 0;
  bool ok = true;
  for (int b = 0; b < static_cast<int>(original.blocks.size()); ++b) {
    const BasicBlock& obb = original.blocks[static_cast<std::size_t>(b)];
    const BasicBlock& sbb = scheduled.blocks[static_cast<std::size_t>(b)];
    if (obb.label != sbb.label) {
      report.error("block-structure",
                   "label changed from '" + obb.label + "' to '" + sbb.label +
                       "'",
                   b, sbb.label);
      ok = false;
    }
    // Unmatched original slots, by rendering, in block order.
    std::map<std::string, std::vector<int>> free_slots;
    for (int i = 0; i < static_cast<int>(obb.insts.size()); ++i) {
      free_slots[obb.insts[static_cast<std::size_t>(i)].to_string()]
          .push_back(flat_base + i);
    }
    for (const Instruction& inst : sbb.insts) {
      const std::string text = inst.to_string();
      auto it = free_slots.find(text);
      if (it == free_slots.end() || it->second.empty()) {
        // Does the instruction exist (unconsumed) in some other block?
        bool elsewhere = false;
        for (const BasicBlock& other : original.blocks) {
          if (&other == &obb) continue;
          for (const Instruction& cand : other.insts) {
            if (cand.to_string() == text) elsewhere = true;
          }
        }
        report.error(elsewhere ? "cross-block-motion" : "block-structure",
                     elsewhere
                         ? "instruction belongs to a different block of the "
                           "original trace"
                         : "instruction does not occur (often enough) in the "
                           "original block",
                     b, text);
        ok = false;
        scheduled_to_original.push_back(-1);
        continue;
      }
      scheduled_to_original.push_back(it->second.front());
      it->second.erase(it->second.begin());
    }
    for (const auto& [text, slots] : free_slots) {
      for (std::size_t k = 0; k < slots.size(); ++k) {
        report.error("block-structure",
                     "original instruction is missing from the scheduled "
                     "block",
                     b, text);
        ok = false;
      }
    }
    flat_base += static_cast<int>(obb.insts.size());
  }
  return ok;
}

Report check_emitted(const Trace& original, const Trace& scheduled,
                     const MachineModel& machine, const VerifyOptions& opts) {
  Report report;
  if (original.blocks.size() != scheduled.blocks.size()) {
    report.error("block-structure",
                 "trace has " + std::to_string(scheduled.blocks.size()) +
                     " blocks, original has " +
                     std::to_string(original.blocks.size()));
    return report;
  }

  // Branches must still terminate their blocks.
  for (int b = 0; b < static_cast<int>(scheduled.blocks.size()); ++b) {
    const BasicBlock& bb = scheduled.blocks[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i + 1 < bb.insts.size(); ++i) {
      if (bb.insts[i].is_branch()) {
        report.error("branch-position",
                     "branch was scheduled before the end of its block", b,
                     bb.insts[i].to_string());
      }
    }
  }

  std::vector<int> scheduled_to_original;
  if (!match_blocks(original, scheduled, scheduled_to_original, report)) {
    return report;  // dependence positions are meaningless without a bijection
  }

  // Every re-derived dependence must point forward in the emitted stream.
  const std::size_t n = scheduled_to_original.size();
  std::vector<int> position(n, -1);
  for (std::size_t p = 0; p < n; ++p) {
    position[static_cast<std::size_t>(scheduled_to_original[p])] =
        static_cast<int>(p);
  }
  const std::vector<const Instruction*> flat = flatten_insts(original);
  const std::vector<IrDep> deps =
      derive_trace_deps(original, machine, opts.disambiguate_memory);
  for (const IrDep& d : deps) {
    if (position[static_cast<std::size_t>(d.from)] >
        position[static_cast<std::size_t>(d.to)]) {
      report.error(
          "dep-order",
          std::string(dep_kind_name(d.kind)) + " dependence '" +
              flat[static_cast<std::size_t>(d.from)]->to_string() + "' -> '" +
              flat[static_cast<std::size_t>(d.to)]->to_string() +
              "' points backwards in the emitted code",
          -1, flat[static_cast<std::size_t>(d.to)]->to_string());
    }
  }
  if (!report.ok()) return report;

  if (opts.check_optimality) {
    // Simulate the emitted priority list on the verifier's own graph and
    // certify its completion time.
    const DepGraph g = verify::graph_from_ir(original, machine, deps);
    std::vector<NodeId> list;
    for (const int orig : scheduled_to_original) {
      list.push_back(static_cast<NodeId>(orig));
    }
    SimScratch scratch;
    const Time achieved =
        simulated_completion(g, machine, list, opts.window, scratch);
    report_certificate(report,
                       verify::certify_trace_completion(
                           g, machine, opts.window, achieved,
                           opts.enumeration_cap));
  }
  return report;
}

}  // namespace ref_verify

/// A cfg_program-shaped program: 32 blocks of 12 instructions.
RandomIrProgramParams cfg_program_shape(std::uint64_t seed) {
  RandomIrProgramParams params;
  params.block.num_insts = 12;
  params.num_blocks = 32;
  params.blocks_per_chunk = 32;
  params.seed = seed;
  return params;
}

/// The traces of a cfg_program-shaped program as select_traces forms them.
std::vector<Trace> program_traces(std::uint64_t seed) {
  std::vector<Trace> traces;
  const auto select = [&](Program&& prog, std::size_t) {
    const Cfg cfg(std::move(prog));
    for (const SelectedTrace& selected : select_traces(cfg)) {
      traces.push_back(materialize(cfg, selected));
    }
  };
  random_ir_program_chunks(cfg_program_shape(seed), select);
  return traces;
}

/// Counts, over the inputs, the shapes the occurrence-list derivation has
/// to get right.
struct DepShapes {
  int update_forms = 0;   // LDU / STU: the base is read and written
  int untagged = 0;       // memory references without a region tag
  int repeated_use = 0;   // a register read twice, as in ADD r1, r2, r2
  int wide = 0;           // traces touching more than 64 registers
  int rw_then_write = 0;  // an instruction reads and writes r, and a later
                          // one writes r: the anti rule must skip the pair

  void add(const Trace& trace) {
    const std::vector<ref_verify::FlatInst> flat = ref_verify::flatten(trace);
    std::set<std::pair<int, int>> regs;
    for (std::size_t k = 0; k < flat.size(); ++k) {
      const Instruction& inst = *flat[k].inst;
      update_forms += inst.op == Opcode::kLoadU || inst.op == Opcode::kStoreU;
      untagged += inst.is_mem() && inst.mem->tag.empty();
      for (std::size_t u = 0; u < inst.uses.size(); ++u) {
        for (std::size_t v = u + 1; v < inst.uses.size(); ++v) {
          repeated_use += inst.uses[u] == inst.uses[v];
        }
      }
      for (const std::vector<Reg>* list : {&inst.defs, &inst.uses}) {
        for (const Reg& r : *list) {
          regs.emplace(static_cast<int>(r.cls), r.idx);
        }
      }
      for (const Reg& r : inst.defs) {
        if (!ref_verify::reads(inst, r)) continue;
        for (std::size_t l = k + 1; l < flat.size(); ++l) {
          if (ref_verify::writes(*flat[l].inst, r)) {
            ++rw_then_write;
            break;
          }
        }
      }
    }
    wide += regs.size() > 64;
  }
};

/// The occurrence-list derivation must return exactly the pairwise scan's
/// vector — every (from, to, kind, latency) in the same order — on
/// cfg_program traces, random traces over small to large register pools
/// and no to many memory operations, a trace touching more than 64
/// registers and every shipped example, on every preset, with memory
/// disambiguation on and off.
TEST(Differential, IrDepsMatchVerbatimReference) {
  std::vector<std::pair<std::string, Trace>> inputs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (Trace& trace : program_traces(seed)) {
      inputs.emplace_back("program " + std::to_string(seed), std::move(trace));
    }
  }
  Prng prng(0x1de95);
  for (const int pool : {3, 6, 16}) {
    for (const double mem_frac : {0.0, 0.2, 0.4, 0.6}) {
      for (int rep = 0; rep < 3; ++rep) {
        RandomIrParams params;
        params.num_gprs = pool;
        params.num_fprs = std::min(pool, 4);
        params.mem_frac = mem_frac;
        params.num_insts = static_cast<int>(prng.uniform(4, 24));
        inputs.emplace_back(
            "random pool=" + std::to_string(pool) +
                " mem=" + std::to_string(mem_frac),
            random_ir_trace(prng, params,
                            static_cast<int>(prng.uniform(1, 4))));
      }
    }
  }
  RandomIrParams wide;
  wide.num_gprs = 160;
  wide.num_fprs = 64;
  wide.num_insts = 60;
  inputs.emplace_back("wide", random_ir_trace(prng, wide, 4));
  for (const auto& [name, text] : shipped_asm()) {
    inputs.emplace_back(name, Trace{parse_program(text).blocks});
  }

  DepShapes shapes;
  for (const auto& [name, trace] : inputs) shapes.add(trace);
  EXPECT_GT(shapes.update_forms, 0);
  EXPECT_GT(shapes.untagged, 0);
  EXPECT_GT(shapes.repeated_use, 0);
  EXPECT_GT(shapes.wide, 0);
  EXPECT_GT(shapes.rw_then_write, 0);

  std::size_t deps = 0;
  for (const MachineModel& machine :
       {scalar01(), rs6000_like(), deep_pipeline(), vliw4()}) {
    for (const bool disambiguate : {true, false}) {
      for (const auto& [name, trace] : inputs) {
        const std::vector<verify::IrDep> got =
            verify::derive_trace_deps(trace, machine, disambiguate);
        const std::vector<verify::IrDep> want =
            ref_verify::derive_trace_deps(trace, machine, disambiguate);
        const std::string where = machine.name() + " disambiguate=" +
                                  std::to_string(disambiguate) + " " + name;
        ASSERT_EQ(got.size(), want.size()) << where;
        for (std::size_t k = 0; k < want.size(); ++k) {
          const verify::IrDep& a = got[k];
          const verify::IrDep& b = want[k];
          ASSERT_TRUE(a.from == b.from && a.to == b.to && a.kind == b.kind &&
                      a.latency == b.latency)
              << where << " dep " << k << ": got " << a.from << "->" << a.to
              << " " << verify::dep_kind_name(a.kind) << " " << a.latency
              << ", want " << b.from << "->" << b.to << " "
              << verify::dep_kind_name(b.kind) << " " << b.latency;
        }
        deps += want.size();
      }
    }
  }
  EXPECT_GT(deps, 50000u);
}

/// A block whose identical instructions depend on one another (output,
/// true and memory), so matching equal renderings in any order but the
/// lowest index first reports a backward dependence.
const char* kRepeatedInstructions = R"(
block R:
  LI  r5, 1
  ADD r1, r1, r2
  LI  r5, 1
  ADD r1, r1, r2
  ST  a[r3+0], r4
  ADD r1, r1, r2
  ST  a[r3+0], r4
  CMP c1, r1, 0
  BT  c1, R
block S:
  ADD r1, r1, r2
  LI  r5, 1
  ADD r1, r1, r2
)";

/// check_emitted must report exactly what the std::map matcher did —
/// Report::to_string() byte for byte — on compile_ir's output for cfg
/// programs, traces, loops, repeated instructions and every shipped
/// example, on every preset, and on that output mutated by a
/// dependence-breaking swap, an instruction moved to another block, a
/// dropped plus a duplicated instruction, two dropped instructions, a
/// relabelled block and a hoisted branch.
TEST(Differential, CheckEmittedMatchesVerbatimReference) {
  struct Input {
    std::string name;
    std::string mode;
    std::string text;
  };
  std::vector<Input> inputs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto add = [&](Program&& prog, std::size_t) {
      inputs.push_back(
          {"program " + std::to_string(seed), "cfg", render(prog.blocks)});
    };
    random_ir_program_chunks(cfg_program_shape(seed), add);
  }
  Prng prng(0xc4ec);
  for (int i = 0; i < 6; ++i) {
    RandomIrParams params;
    params.num_gprs = i % 2 == 0 ? 6 : 16;
    params.num_insts = static_cast<int>(prng.uniform(4, 14));
    inputs.push_back({"trace " + std::to_string(i), "trace",
                      render(random_ir_trace(prng, params, 3).blocks)});
    inputs.push_back({"loop " + std::to_string(i), "loop",
                      render(random_ir_loop(prng, params).body.blocks)});
  }
  inputs.push_back({"repeated", "trace", kRepeatedInstructions});
  inputs.push_back({"repeated loop", "loop", kRepeatedInstructions});
  for (const auto& [name, text] : shipped_asm()) {
    const std::string mode = name == "fig3_loop.s"     ? "loop"
                             : name == "diamond_cfg.s" ? "cfg"
                                                       : "trace";
    inputs.push_back({name, mode, text});
  }

  std::map<std::string, int> codes;
  int checks = 0;
  int multi_missing = 0;
  const auto compare = [&](const Trace& original, const Trace& emitted,
                           const MachineModel& machine,
                           const verify::VerifyOptions& opts,
                           const std::string& what) {
    const std::string want =
        ref_verify::check_emitted(original, emitted, machine, opts)
            .to_string();
    EXPECT_EQ(verify::check_emitted(original, emitted.blocks, machine, opts)
                  .to_string(),
              want)
        << what;
    EXPECT_EQ(verify::check_emitted(original, emitted, machine, opts)
                  .to_string(),
              want)
        << what;
    ++checks;
    std::map<std::string, int> missing_per_block;
    std::istringstream lines(want);
    for (std::string line; std::getline(lines, line);) {
      const std::size_t open = line.find('[');
      const std::size_t close = line.find(']');
      if (open != std::string::npos && close != std::string::npos) {
        ++codes[line.substr(open + 1, close - open - 1)];
      }
      if (line.find("is missing") != std::string::npos) {
        ++missing_per_block[line.substr(0, line.find('('))];
      }
    }
    for (const auto& [block, count] : missing_per_block) {
      multi_missing += count >= 2;
    }
  };

  const auto non_branch = [](const BasicBlock& bb) {
    return bb.insts.size() - (!bb.insts.empty() && bb.insts.back().is_branch()
                                  ? 1
                                  : 0);
  };
  server::WorkerScratch scratch;
  for (const std::string& preset : machine_preset_names()) {
    const MachineModel& machine = *machine_preset(preset);
    for (const Input& input : inputs) {
      for (const int window : {0, 2}) {
        server::CompileOptions options;
        options.mode = input.mode;
        options.machine = preset;
        options.window = window;
        server::Response reply;
        server::compile_ir(input.text, options, scratch, &reply);
        ASSERT_TRUE(reply.ok) << input.name << ": " << reply.message;
        const Trace original{parse_program(input.text).blocks};
        const Trace emitted{parse_program(reply.asm_text).blocks};
        verify::VerifyOptions opts;
        opts.window = window == 0 ? machine.default_window() : window;
        opts.check_optimality = original.num_insts() <= 12;
        const std::string what =
            preset + " W=" + std::to_string(window) + " " + input.name;
        compare(original, emitted, machine, opts, what);
        opts.check_optimality = false;
        opts.disambiguate_memory = false;
        compare(original, emitted, machine, opts, what + " no-disambiguate");
        opts.disambiguate_memory = true;

        // Mutations, each on a fresh copy of the emitted blocks.
        const std::size_t nb = emitted.blocks.size();
        const std::size_t b = prng.index(nb);
        const BasicBlock& bb = emitted.blocks[b];
        for (std::size_t k = 0; k + 1 < non_branch(bb); ++k) {
          Trace m = emitted;
          std::swap(m.blocks[b].insts[k], m.blocks[b].insts[k + 1]);
          compare(original, m, machine, opts, what + " swap");
        }
        if (nb >= 2 && non_branch(bb) >= 1) {
          Trace m = emitted;
          const std::size_t c = (b + 1 + prng.index(nb - 1)) % nb;
          const std::size_t k = prng.index(non_branch(bb));
          m.blocks[c].insts.insert(m.blocks[c].insts.begin(),
                                   m.blocks[b].insts[k]);
          m.blocks[b].insts.erase(m.blocks[b].insts.begin() +
                                  static_cast<std::ptrdiff_t>(k));
          compare(original, m, machine, opts, what + " move");
        }
        if (non_branch(bb) >= 2) {
          Trace m = emitted;
          const std::size_t k = prng.index(non_branch(bb));
          const std::size_t dup = (k + 1) % non_branch(bb);
          const Instruction copy = m.blocks[b].insts[dup];
          m.blocks[b].insts.erase(m.blocks[b].insts.begin() +
                                  static_cast<std::ptrdiff_t>(k));
          m.blocks[b].insts.insert(m.blocks[b].insts.begin(), copy);
          compare(original, m, machine, opts, what + " drop+dup");

          Trace two = emitted;
          auto& insts = two.blocks[b].insts;
          insts.erase(insts.begin());
          insts.erase(insts.begin() + static_cast<std::ptrdiff_t>(
                                          prng.index(non_branch(bb) - 1)));
          compare(original, two, machine, opts, what + " drop two");
        }
        {
          Trace m = emitted;
          m.blocks[b].label += "_x";
          compare(original, m, machine, opts, what + " relabel");
        }
        if (bb.insts.size() >= 2 && bb.insts.back().is_branch()) {
          Trace m = emitted;
          auto& insts = m.blocks[b].insts;
          std::rotate(insts.begin(), insts.end() - 1, insts.end());
          compare(original, m, machine, opts, what + " hoist branch");
        }
      }
    }
  }
  EXPECT_GT(checks, 1000);
  EXPECT_GT(multi_missing, 0);
  for (const char* code :
       {"dep-order", "cross-block-motion", "block-structure",
        "branch-position", "optimality-certified"}) {
    EXPECT_GT(codes[code], 0) << code;
  }
}

}  // namespace
}  // namespace ais
