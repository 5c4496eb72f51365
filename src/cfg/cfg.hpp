// Control-flow graph over toy-IR programs, with edge execution profiles.
//
// The paper's unit of work is a *trace*: "a sequence of basic blocks
// obtained by following a simple path in the program's control flow graph"
// (footnote 2), selected by profiling as in Fisher's trace scheduling (§6).
// This module builds the CFG from a Program and carries the profile the
// trace selector consumes.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ir/asm_parser.hpp"
#include "ir/instruction.hpp"

namespace ais {

using BlockId = int;
inline constexpr BlockId kNoBlock = -1;

struct CfgEdge {
  BlockId from = kNoBlock;
  BlockId to = kNoBlock;
  /// Execution frequency (profile weight); defaults split conditional
  /// branches 50/50 until a profile is applied.
  double weight = 0;
  /// True for the branch-taken edge, false for fall-through.
  bool taken = false;
};

class Cfg {
 public:
  /// Builds the CFG of `prog`:
  ///  * a conditional branch adds a taken edge to its target label and a
  ///    fall-through edge to the next block,
  ///  * an unconditional branch adds only the taken edge,
  ///  * a block without a branch falls through.
  /// Entry is block 0 with weight `entry_weight`; edge weights propagate by
  /// splitting each block's weight across its successors (50/50 for
  /// conditionals) until overridden by set_branch_probability.  Takes the
  /// program by value: a caller done with its Program moves it in instead
  /// of paying for a copy of every instruction.
  explicit Cfg(Program prog, double entry_weight = 100.0);

  std::size_t num_blocks() const { return prog_.blocks.size(); }
  const BasicBlock& block(BlockId id) const;
  const Program& program() const { return prog_; }

  /// O(1) via the label index built at construction.
  BlockId find_label(const std::string& label) const;

  const std::vector<CfgEdge>& edges() const { return edges_; }
  std::vector<CfgEdge> out_edges(BlockId id) const;
  std::vector<CfgEdge> in_edges(BlockId id) const;

  /// Sets the probability of taking block `id`'s conditional branch and
  /// recomputes all edge weights by propagation from the entry.
  void set_branch_probability(BlockId id, double taken_probability);

  /// Total profile weight entering `id`; O(1) (cached whenever edge weights
  /// are recomputed).
  double block_weight(BlockId id) const;

 private:
  void build_edge_index();
  void recompute_weights();

  Program prog_;
  std::vector<CfgEdge> edges_;
  std::vector<double> taken_probability_;  // per block; NaN = no conditional
  double entry_weight_;

  // Structure indexes, built once (edge *structure* is fixed after
  // construction; only weights change).  The CSR arrays make per-block edge
  // queries O(degree) and keep trace selection linear — a million-block
  // corpus never survives the O(V * E) scans they replace.
  std::unordered_map<std::string, BlockId> label_index_;
  std::vector<std::uint32_t> out_begin_, out_idx_;  // CSR into edges_
  std::vector<std::uint32_t> in_begin_, in_idx_;
  std::vector<double> block_weight_;  // cached block_weight() per block
};

}  // namespace ais
