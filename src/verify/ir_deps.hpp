// Independent dependence re-derivation from the IR.
//
// The scheduler consumes the DepGraph built by ir/depbuild.cpp; if that
// builder drops an edge, every downstream legality check silently agrees
// with the bug.  This module re-derives the loop-independent dependences of
// a trace with a deliberately different algorithm — backward walks over
// per-register occurrence lists with explicit kill checks, instead of
// depbuild's forward state machine — so the two implementations can
// cross-certify each other.
//
// For every ordered pair of flat instruction indices i < j it answers:
//  * true (RAW):   j reads a register whose last writer before j is i,
//  * anti (WAR):   i reads a register j writes, with no write in between,
//  * output (WAW): i and j write the same register, with no write in between,
//  * memory:       both touch memory, not both loads, and their region tags
//                  may alias (store->load carries the store's latency),
//  * control:      i precedes the branch that ends i's own block.
//
// How: each register of the trace gets a dense id, and every instruction
// that touches it is linked to the register's previous touch, so the
// touches of a register can be walked newest first.  For instruction j,
// the walk over each register j reads or writes stops at the first
// writer, which kills every older pair; the readers it passes on the way
// are j's anti sources.  Memory pairs come from the list of earlier memory
// operations (all pairs, since region tags are may-alias information and
// no reference kills another), control pairs from j's own block.  A
// write's walk visits exactly its anti and output sources, and a read's
// walk passes the other readers since the register's last write, so the
// register part costs O(n + pairs) per trace unless many instructions read
// one register that is not rewritten — against the pairwise scan's O(n^2)
// pairs with an O(n) kill check each.  The memory part stays quadratic in
// the number of memory operations.  Each j's pairs are listed by (i, kind),
// through a bitset over the earlier instructions, so the result is exactly
// the pairwise scan's sequence; tests/test_differential.cpp keeps that scan
// verbatim as the reference.
//
// The resulting (from, to, max latency) pair set is provably identical to
// the distance-0 edge set of build_trace_graph (tests/test_verify.cpp checks
// exact agreement on random programs), but no code is shared.
#pragma once

#include <vector>

#include "ir/instruction.hpp"
#include "machine/machine_model.hpp"

namespace ais::verify {

enum class DepKind { kTrue, kAnti, kOutput, kMemory, kControl };

const char* dep_kind_name(DepKind kind);

/// One required ordering between two instructions of a trace, identified by
/// their flat indices (blocks concatenated in trace order — the same
/// numbering ir/depbuild.cpp assigns to DepGraph nodes).
struct IrDep {
  int from = 0;
  int to = 0;
  DepKind kind = DepKind::kTrue;
  /// Cycles `to` must wait after `from` completes (0 = pure ordering).
  int latency = 0;
};

/// All loop-independent dependences of `trace`, from < to, ordered by
/// (to, from, kind).  `disambiguate_memory` mirrors DepBuildOptions: when
/// false, every load/store pair with a store conflicts regardless of
/// region tags.
std::vector<IrDep> derive_trace_deps(const Trace& trace,
                                     const MachineModel& machine,
                                     bool disambiguate_memory = true);

/// The same dependences into `deps` (replaced), so a caller that checks
/// trace after trace can reuse one buffer.
void derive_trace_deps(const Trace& trace, const MachineModel& machine,
                       bool disambiguate_memory, std::vector<IrDep>& deps);

}  // namespace ais::verify
