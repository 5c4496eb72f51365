// The correctness gate every benchmark output passes: the independent
// oracle (src/verify) on the emitted assembly, and byte identity between
// two replies.  The negative self-check proves the gate rejects corrupted
// replies, so a passing gate means it actually checked.
#pragma once

#include <string>

#include "machine/machine_model.hpp"
#include "server/protocol.hpp"

namespace perfbench {

/// Re-checks `asm_text` against the IR it was compiled from: the same
/// blocks under the same labels, each block a permutation of its original
/// instructions with the branch last, and every dependence the verifier
/// re-derives from the original IR honoured.  Blocks keep their layout
/// position, so checking block by block covers the cross-block order too.
/// Empty when legal, else the first finding.
std::string oracle_findings(const std::string& ir_text,
                            const std::string& asm_text,
                            const ais::MachineModel& machine, int window);

/// Field-wise equality of two decoded replies: the cheap repeat check the
/// timed phases run between requests.
bool same_reply(const ais::server::Response& a,
                const ais::server::Response& b);

/// Empty when the two replies encode to the same payload bytes, else where
/// they first differ.
std::string reply_difference(const ais::server::Response& got,
                             const ais::server::Response& expected);

/// Feeds three corrupted copies of a correct `reply` for `ir_text` through
/// the gate: two dependent instructions swapped and an instruction dropped
/// (the oracle must flag both) and one byte changed (the byte comparison
/// must flag it).  Prints one line per corruption; returns how many the
/// gate missed.
int self_check(const std::string& ir_text,
               const ais::server::Response& reply,
               const ais::MachineModel& machine, int window);

}  // namespace perfbench
