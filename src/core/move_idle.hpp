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
/// provably fail are decided before any rank work and counted per reason:
/// move_idle.pruned_saturated when issue width forces the slot's whole
/// prefix of idle_slots() into every cycle (U - w idle slots per cycle on a
/// machine with U units, issue width w < U and unit execution times),
/// move_idle.pruned_no_tail when no tail node precedes the slot, and
/// move_idle.pruned_no_refill when no other node before it may complete at
/// slot.time.  Proofs in docs/PERFORMANCE.md.
MoveIdleResult move_idle_slot(const RankScheduler& scheduler, const Schedule& s,
                              DeadlineMap& deadlines, IdleSlot slot,
                              const RankOptions& opts = {});

/// Delays every idle slot of `s` as late as possible, earliest slot first,
/// re-trying each slot until it no longer moves (paper Fig. 6).  Returns the
/// final schedule; `deadlines` accumulates all committed reductions.  A
/// failed attempt copies no schedule: the sweep keeps the one it has.  All
/// attempts share one RankSession, built by the first attempt that passes
/// the guards above, so a sweep the guards decide entirely builds none.
Schedule delay_idle_slots(const RankScheduler& scheduler, Schedule s,
                          DeadlineMap& deadlines, const RankOptions& opts = {});

}  // namespace ais
