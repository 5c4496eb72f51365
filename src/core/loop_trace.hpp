// Anticipatory scheduling of a loop enclosing a trace of m > 1 blocks
// (§5.1).
//
// Algorithm Lookahead runs over BB1..BBm, followed by one extra step: BBm is
// scheduled with (a clone of) BB1 as its successor, the clone's incoming
// edges derived from the loop-carried dependences — so the tail of iteration
// k leaves its idle slots where the head of iteration k+1 can fill them.
// The clone's own order is discarded: the emitted per-block orders are the
// code, identical for every iteration.
#pragma once

#include "core/lookahead.hpp"
#include "graph/depgraph.hpp"

namespace ais {

/// The graph schedule_loop_trace runs Algorithm Lookahead on: `g`'s
/// loop-independent edges plus a clone of BB1 as block m, whose internal
/// edges follow their originals and which receives the distance-1 edges
/// into BB1 as loop-independent ones.  Node ids of `g` are unchanged.
DepGraph loop_trace_graph(const DepGraph& g);

/// Schedules the body of a loop whose trace has >= 2 blocks.  `g` must be a
/// loop graph (built by build_loop_graph): blocks 0..m-1 plus carried edges.
/// Carried edges with distance > 1 or targeting blocks other than BB1 are
/// conservatively ignored for the wrap-around step (their slack spans whole
/// iterations).  Single-block loops belong to loop_single.
LookaheadResult schedule_loop_trace(const DepGraph& g,
                                    const MachineModel& machine,
                                    const LookaheadOptions& opts);

}  // namespace ais
