// Line-oriented parser for the toy assembly used by examples and tests.
//
// Grammar (one instruction per line; '#' or ';' start comments):
//
//   block CL.18:          -- starts a new basic block with that label
//     LDU r6, x[r7+4]     -- load with base-register update, region "x"
//     STU y[r5+4], r0     -- store with update
//     CMP c1, r6          -- compare (immediate operands may be appended
//                            and are ignored: "CMP c1, r6, 0" also parses)
//     MUL r0, r6, r0
//     BT  c1, CL.1        -- conditional branch on condition register c1
//
// Memory operands are  tag[rB+off]  or  [rB+off]  (empty tag = may alias
// anything).  Registers are rN (general), fN (float), cN (condition).
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
