#include "core/move_idle.hpp"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace ais {
namespace {

/// Class-major unit -> FU class mapping (same layout as greedy_from_list).
std::vector<int> unit_classes(const MachineModel& machine) {
  std::vector<int> classes;
  for (int c = 0; c < machine.num_fu_classes(); ++c) {
    for (int k = 0; k < machine.fu_count(c); ++k) classes.push_back(c);
  }
  return classes;
}

/// Idle slots that issue width forces into every cycle below the makespan
/// of any schedule the rank runs produce: U - w when the machine has more
/// units than it issues to per cycle and every node executes in one cycle
/// (a unit is then busy at t only if an instruction starts on it at t, and
/// at most w start per cycle); 0 otherwise, which switches guard (3) off.
std::size_t forced_idle_per_cycle(const RankScheduler& scheduler) {
  const MachineModel& machine = scheduler.machine();
  const int spare = machine.total_units() - machine.issue_width();
  if (spare <= 0 || scheduler.graph().max_exec_time() > 1) return 0;
  return static_cast<std::size_t>(spare);
}

/// Restores the session's rank-cache snapshot on scope exit unless the
/// trial committed.  Failed deadline trials thereby never pollute the
/// session cache: the next trial diffs against the base deadlines instead
/// of paying a second incremental pass to undo this trial's caps.
class SessionRestore {
 public:
  explicit SessionRestore(RankSession& session) : session_(&session) {}
  SessionRestore(const SessionRestore&) = delete;
  SessionRestore& operator=(const SessionRestore&) = delete;
  ~SessionRestore() {
    if (session_ != nullptr) session_->restore_snapshot();
  }
  void commit() { session_ = nullptr; }

 private:
  RankSession* session_;
};

/// State shared by the attempts of one Delay_Idle_Slots sweep: the unit ->
/// class map, guard (3)'s bound, the rank session, buffers reused by every
/// attempt, and the Move_Idle counters, issued once by flush() instead of
/// once per event (recorders sum deltas per id, so batching leaves recorded
/// deltas and registry totals unchanged).
struct MoveIdleTrials {
  explicit MoveIdleTrials(const RankScheduler& scheduler)
      : scheduler(scheduler),
        classes(unit_classes(scheduler.machine())),
        forced_idle(forced_idle_per_cycle(scheduler)) {}

  void flush() const {
    if (attempts != 0) AIS_OBS_COUNT(obs::ctr::kIdleMoveAttempts, attempts);
    if (pruned_saturated != 0) {
      AIS_OBS_COUNT(obs::ctr::kIdleMovesPrunedSaturated, pruned_saturated);
    }
    if (pruned_no_tail != 0) {
      AIS_OBS_COUNT(obs::ctr::kIdleMovesPrunedNoTail, pruned_no_tail);
    }
    if (pruned_no_refill != 0) {
      AIS_OBS_COUNT(obs::ctr::kIdleMovesPrunedNoRefill, pruned_no_refill);
    }
    if (tightened != 0) AIS_OBS_COUNT(obs::ctr::kDeadlinesTightened, tightened);
    if (moved != 0) AIS_OBS_COUNT(obs::ctr::kIdleSlotsMoved, moved);
  }

  /// The session every rank run of the sweep goes through.  The first
  /// attempt that passes all three guards builds it (closure, topological
  /// order, edge CSR), so a sweep the guards decide entirely builds none.
  /// Every re-schedule keeps the active set, so one session serves them all.
  RankSession& session_for(const NodeSet& active) {
    if (!session.has_value()) session.emplace(scheduler, active);
    AIS_CHECK(session->active() == active,
              "session active set must match the schedule");
    return *session;
  }

  const RankScheduler& scheduler;
  const std::vector<int> classes;
  const std::size_t forced_idle;  // guard (3): idle slots in every cycle
  std::optional<RankSession> session;
  DeadlineMap trial;          // trial deadlines of the current attempt
  std::vector<NodeId> sigma;  // nodes before the slot on its FU class
  std::uint64_t attempts = 0;
  std::uint64_t pruned_saturated = 0;
  std::uint64_t pruned_no_tail = 0;
  std::uint64_t pruned_no_refill = 0;
  std::uint64_t tightened = 0;
  std::uint64_t moved = 0;
};

/// One Move_Idle_Slot attempt (paper Fig. 4).  Returns the new schedule and
/// advances `slot` to the processed slot's new position when the slot
/// moved later; returns nullopt ("not moved") otherwise, with `deadlines`
/// and the session's rank cache as on entry.  The failure path copies
/// nothing: it reads `s` until the first rank run.
std::optional<Schedule> try_move_idle_slot(const Schedule& s,
                                           DeadlineMap& deadlines,
                                           IdleSlot& slot,
                                           const RankOptions& opts,
                                           MoveIdleTrials& trials) {
  ++trials.attempts;
  const NodeSet& active = s.active();
  const int slot_class = trials.classes[static_cast<std::size_t>(slot.unit)];
  const std::size_t index = s.idle_slot_index(slot);

  // Guard (3): every cycle below the makespan of a schedule that a rank run
  // below produces holds at least forced_idle idle slots, and idle_slots()
  // is sorted by time.  So when index < forced_idle * (slot.time + 1), that
  // schedule's slot `index` lies at a time <= slot.time, or past the end of
  // its list, which reads the makespan, also <= slot.time.  The slot never
  // moves later, and every exit below is a failure.
  if (index < trials.forced_idle * (static_cast<std::size_t>(slot.time) + 1)) {
    ++trials.pruned_saturated;
    return std::nullopt;
  }

  // Guard (1): the loop below starts at the tail node of `s`; when the slot
  // is preceded by idle time there is none, and the first iteration fails
  // (every exit before it is a failure too).
  const NodeId first_tail = s.tail_node(slot.unit, slot.time);
  if (first_tail == kInvalidNode) {
    ++trials.pruned_no_tail;
    return std::nullopt;
  }

  // sigma: nodes currently scheduled before the slot on units of the slot's
  // class.  Capping their deadlines at the slot time guarantees no earlier
  // idle slot moves earlier (they must all still complete by slot.time).
  //
  // Guard (2): the first iteration's refill guard needs a sigma node with
  // trial deadline >= slot.time.  A sigma node's trial deadline is
  // min(d, slot.time) and the tail's is at most slot.time - 1, so without
  // another sigma node whose deadline is >= slot.time the guard fails.
  std::vector<NodeId>& sigma = trials.sigma;
  sigma.clear();
  bool refill_candidate = false;
  active.bits().for_each([&](std::size_t i) {
    const auto y = static_cast<NodeId>(i);
    if (trials.classes[static_cast<std::size_t>(s.unit_of(y))] != slot_class) {
      return;
    }
    if (s.start(y) < slot.time) {
      sigma.push_back(y);
      if (y != first_tail && deadlines[y] >= slot.time) refill_candidate = true;
    }
  });
  if (!refill_candidate) {
    ++trials.pruned_no_refill;
    return std::nullopt;
  }

  // Prime the cache at the *uncapped* deadlines and snapshot it; the trial
  // below is speculative, and SessionRestore rolls the cache back to this
  // state on every failure path.
  RankSession& session = trials.session_for(active);
  session.compute_ranks(deadlines, opts);
  session.snapshot();
  SessionRestore restore(session);

  // Trial deadlines; committed into `deadlines` only on success.
  DeadlineMap& trial = trials.trial;
  trial.assign(deadlines.begin(), deadlines.end());
  for (const NodeId y : sigma) {
    if (trial[y] > slot.time) {
      trial[y] = slot.time;
      ++trials.tightened;
    }
  }

  // Ranks under the capped deadlines, for the paper's failure guard.  The
  // reference stays valid until the first run() below.
  bool structurally_feasible = true;
  const std::vector<Time>* rank =
      &session.compute_ranks(trial, opts, &structurally_feasible);
  if (!structurally_feasible) return std::nullopt;

  // The schedule the loop reads: `s` until the first rank run, then that
  // run's result.
  const Schedule* current = &s;
  std::optional<RankResult> last;
  // Each iteration strictly reduces the tail node's deadline below
  // slot.time, and the guard below bounds how often the slot can stay put;
  // the explicit cap is belt-and-braces for the heuristic regimes.
  const std::size_t iteration_cap = 4 * active.size() + 8;
  for (std::size_t iter = 0; iter < iteration_cap; ++iter) {
    const NodeId tail = current->tail_node(slot.unit, slot.time);
    if (tail == kInvalidNode) return std::nullopt;  // slot preceded by idle
    if (trial[tail] > slot.time - 1) {
      trial[tail] = slot.time - 1;
      ++trials.tightened;
    }

    // Paper guard: some sigma node must still be allowed to complete at
    // slot.time, otherwise the tail position can never be filled.
    bool refillable = false;
    for (const NodeId y : sigma) {
      if ((*rank)[y] >= slot.time && trial[y] >= slot.time) {
        refillable = true;
        break;
      }
    }
    if (!refillable) return std::nullopt;

    RankResult result = session.run(trial, opts);
    if (!result.feasible) return std::nullopt;

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
      // Finalize all deadline modifications; the swap keeps the trial
      // buffer's storage for the next attempt.
      std::swap(deadlines, trial);
      restore.commit();  // the trial state is the new base
      ++trials.moved;
      slot = new_slot;
      return std::move(result.schedule);
    }
    if (new_slot.time < slot.time) {
      // Cannot happen in the restricted case (the sigma caps pin every node
      // before the slot), but heuristic machines (typed units, long
      // execution times) can shuffle slots across units; treat as failure.
      return std::nullopt;
    }
    last = std::move(result);
    rank = &last->rank;
    current = &last->schedule;
  }
  return std::nullopt;
}

}  // namespace

MoveIdleResult move_idle_slot(const RankScheduler& scheduler, const Schedule& s,
                              DeadlineMap& deadlines, IdleSlot slot,
                              const RankOptions& opts) {
  MoveIdleTrials trials(scheduler);
  std::optional<Schedule> moved =
      try_move_idle_slot(s, deadlines, slot, opts, trials);
  trials.flush();
  if (!moved.has_value()) return MoveIdleResult{s, slot, false};
  return MoveIdleResult{std::move(*moved), slot, true};
}

Schedule delay_idle_slots(const RankScheduler& scheduler, Schedule s,
                          DeadlineMap& deadlines, const RankOptions& opts) {
  AIS_OBS_SPAN("move_idle");
  MoveIdleTrials trials(scheduler);
  std::size_t i = 0;
  while (true) {
    const auto& slots = s.idle_slots();
    if (i >= slots.size()) break;
    IdleSlot slot = slots[i];
    // Keep trying to move the i-th idle slot (paper Fig. 6 inner loop); a
    // slot that stays put leaves `s` as it is.
    while (true) {
      std::optional<Schedule> moved =
          try_move_idle_slot(s, deadlines, slot, opts, trials);
      if (!moved.has_value()) break;
      s = std::move(*moved);
      if (slot.time >= s.makespan()) break;
    }
    ++i;
  }
  trials.flush();
  return s;
}

}  // namespace ais
