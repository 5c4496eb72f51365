// Differential properties for the optimized Rank/Merge/Move_Idle hot path
// and the memoized §5.2.3 loop candidate search.
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
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/chop.hpp"
#include "core/deadlines.hpp"
#include "core/lookahead.hpp"
#include "core/loop_single.hpp"
#include "core/merge.hpp"
#include "core/move_idle.hpp"
#include "core/rank.hpp"
#include "core/schedule_cache.hpp"
#include "driver/anticipatory.hpp"
#include "graph/closure.hpp"
#include "graph/topo.hpp"
#include "ir/depbuild.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"
#include "sim/loop_sim.hpp"
#include "support/assert.hpp"
#include "support/prng.hpp"
#include "support/thread_pool.hpp"
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

std::uint64_t count_of(const CounterDeltaMap& deltas, const char* name) {
  const auto it = deltas.find(name);
  return it == deltas.end() ? 0 : it->second;
}

void add_deltas(const CounterDeltaMap& from, CounterDeltaMap& into) {
  for (const auto& [name, delta] : from) into[name] += delta;
}

/// Counter deltas of the optimized and the reference Move_Idle paths,
/// summed over every compared sweep.
struct MoveIdleTally {
  CounterDeltaMap got;
  CounterDeltaMap want;
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
  const auto recorded = [](CounterDeltaMap& into, auto&& sweep) {
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

std::uint64_t pruned_total(const CounterDeltaMap& deltas) {
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

    for (const char* name :
         {obs::ctr::kIdleMoveAttempts, obs::ctr::kIdleSlotsMoved}) {
      EXPECT_EQ(count_of(tally.got, name), count_of(tally.want, name))
          << preset.name << " " << name;
    }
    for (const char* name : {obs::ctr::kRankRuns, obs::ctr::kRankNodesRanked,
                             obs::ctr::kRankInfeasible}) {
      if (issue_bound(preset.machine)) {
        EXPECT_LE(count_of(tally.got, name), count_of(tally.want, name))
            << preset.name << " " << name;
      } else {
        EXPECT_EQ(count_of(tally.got, name), count_of(tally.want, name))
            << preset.name << " " << name;
      }
    }
    for (const char* name :
         {obs::ctr::kDeadlinesTightened, obs::ctr::kRankIncrementalPasses,
          obs::ctr::kRankNodesReranked}) {
      EXPECT_LE(count_of(tally.got, name), count_of(tally.want, name))
          << preset.name << " " << name;
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
    for (const char* name : {obs::ctr::kIdleMovesPrunedSaturated,
                             obs::ctr::kIdleMovesPrunedNoTail,
                             obs::ctr::kIdleMovesPrunedNoRefill}) {
      EXPECT_GT(count_of(total.got, name), 0u) << name;
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
            CounterDeltaMap deltas;
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
/// the cache on — cold misses, warm trace hits, step hits inside cold
/// traces — produces byte-identical schedules, diagnostics and counter
/// deltas (cache.* excluded by the recorder) to a bypassed solve.  Seeds
/// repeat so the sequence genuinely contains trace- and step-level hits.
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
      CounterDeltaMap want_deltas;
      {
        ScheduleCache::ScopedBypass bypass;
        obs::CounterRecorder rec;
        want = schedule_trace(scheduler, opts);
        want_deltas = rec.deltas();
      }

      LookaheadResult got;
      CounterDeltaMap got_deltas;
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
// The §5.2.3 loop candidate search: one evaluation per distinct order.
// ---------------------------------------------------------------------------

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
/// picks — same pivot, form, order, surrogate makespan and score — on
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
          loop_single_candidates(g, machine);

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

}  // namespace
}  // namespace ais
