// Procedures Move_Idle_Slot and Delay_Idle_Slots (paper Figs. 4 and 6).
//
// The key idea of anticipatory scheduling: within a minimum-makespan block
// schedule, push every idle slot as late as possible so instructions of the
// *next* block can fill it through the hardware lookahead window.
//
// Move_Idle_Slot delays one idle slot by repeatedly tightening the deadline
// of the "tail node" (the node completing exactly at the slot) and
// re-running the Rank Algorithm; deadline reductions are committed only when
// the slot actually moved later.  Nodes scheduled before the slot first get
// their deadlines capped at the slot time so no earlier idle slot can move
// earlier.  Provably optimal in the restricted case (0/1 latencies, unit
// execution times, single FU); a heuristic otherwise, where the multi-unit
// variant follows §4.2: deadline reductions are restricted to nodes on units
// of the slot's FU class.
#pragma once

#include "core/deadlines.hpp"
#include "core/rank.hpp"
#include "core/schedule.hpp"

namespace ais {

struct MoveIdleResult {
  /// Schedule after the attempt (== input schedule on failure).
  Schedule schedule;
  /// The processed idle slot after the attempt: the input slot on failure, a
  /// strictly later slot on success.  A slot eliminated outright is reported
  /// with time == schedule.makespan().
  IdleSlot slot;
  bool moved = false;
};

/// Tries to delay the idle slot `slot` of `s`.  `deadlines` is updated in
/// place: committed on success, untouched on failure.  `s` must be a
/// feasible schedule for its active set under `deadlines`.  Attempts that
/// provably fail (no tail node precedes the slot, or no other node before
/// it may complete at slot.time) are decided before any rank work and
/// counted as move_idle.pruned.
MoveIdleResult move_idle_slot(const RankScheduler& scheduler, const Schedule& s,
                              DeadlineMap& deadlines, IdleSlot slot,
                              const RankOptions& opts = {});

/// Same, reusing a caller-owned session (its active set must equal
/// s.active()).  Delay_Idle_Slots drives all its attempts through one
/// session so topo order / closure are built once and rank updates stay
/// incremental across slots.
MoveIdleResult move_idle_slot(RankSession& session, const Schedule& s,
                              DeadlineMap& deadlines, IdleSlot slot,
                              const RankOptions& opts = {});

/// Delays every idle slot of `s` as late as possible, earliest slot first,
/// re-trying each slot until it no longer moves (paper Fig. 6).  Returns the
/// final schedule; `deadlines` accumulates all committed reductions.  A
/// failed attempt copies no schedule: the sweep keeps the one it has.
Schedule delay_idle_slots(const RankScheduler& scheduler, Schedule s,
                          DeadlineMap& deadlines, const RankOptions& opts = {});

}  // namespace ais
