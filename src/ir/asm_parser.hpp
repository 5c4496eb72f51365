// Line-oriented parser for the toy assembly used by examples and tests.
//
// Grammar (one instruction per line; '#' or ';' start comments):
//
//   block CL.18:          -- starts a new basic block with that label
//     LDU r6, x[r7+4]     -- load with base-register update, region "x"
//     STU y[r5+4], r0     -- store with update
//     CMP c1, r6          -- compare; the immediate may be given
//                            ("CMP c1, r6, 0") or left off (it is 0)
//     MUL r0, r6, r0      -- or an immediate second source: "ADD r1, r2, 1"
//     BT  c1, CL.1        -- conditional branch on condition register c1
//
// Memory operands are  tag[rB+off]  or  [rB+off]  (empty tag = may alias
// anything; off is a sign and decimal digits, and may be left off).
// Registers are rN (general), fN (float), cN (condition), N <= 255; any
// other token that is not a decimal immediate is a label.  A line is
// rejected, naming it, when an operand is of the wrong kind, when it has
// more operands than its opcode takes, when an immediate or offset does not
// fit or has trailing characters, or when a CMP destination or branch
// condition is not a condition register.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/instruction.hpp"

namespace ais {

struct Program {
  std::vector<BasicBlock> blocks;
};

/// Parses a whole program.  Throws no exceptions; malformed input is a hard
/// error with the offending line number (assembly here is test fixture data,
/// not user input).
Program parse_program(const std::string& text);

/// Parses a single (possibly unlabelled) basic block.
BasicBlock parse_block(const std::string& text);

/// Non-aborting variant for untrusted input (the aisd request path): returns
/// nullopt with *error set instead of terminating the process on malformed
/// text.  Successful parses are identical to parse_program.
std::optional<Program> parse_program_or_error(const std::string& text,
                                              std::string* error);

/// The block-structure rules the compile pipeline relies on (the dependence
/// builder, Algorithm Lookahead and the emitter abort on a violation): every
/// block holds at least one instruction, and a branch may only end its
/// block.  Compile entry points run it on parsed input before building any
/// graph.  Returns an empty string when `prog` is well formed, else a
/// message naming the first offending block.  O(instructions).
std::string block_structure_error(const Program& prog);

}  // namespace ais
