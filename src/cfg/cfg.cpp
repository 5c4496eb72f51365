#include "cfg/cfg.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "support/assert.hpp"

namespace ais {

Cfg::Cfg(Program prog, double entry_weight)
    : prog_(std::move(prog)),
      taken_probability_(prog_.blocks.size(),
                         std::numeric_limits<double>::quiet_NaN()),
      entry_weight_(entry_weight) {
  AIS_CHECK(!prog_.blocks.empty(), "CFG needs at least one block");
  label_index_.reserve(prog_.blocks.size());
  for (BlockId id = 0; id < static_cast<BlockId>(prog_.blocks.size()); ++id) {
    // First definition wins, matching the original linear search.
    label_index_.emplace(prog_.blocks[static_cast<std::size_t>(id)].label, id);
  }
  for (BlockId id = 0; id < static_cast<BlockId>(prog_.blocks.size()); ++id) {
    const BasicBlock& bb = prog_.blocks[static_cast<std::size_t>(id)];
    const Instruction* last = bb.insts.empty() ? nullptr : &bb.insts.back();
    const bool has_branch = last != nullptr && last->is_branch();
    const bool conditional =
        has_branch && (last->op == Opcode::kBt || last->op == Opcode::kBf);

    if (has_branch) {
      const BlockId target = find_label(last->target);
      if (target != kNoBlock) {
        edges_.push_back(CfgEdge{id, target, 0, /*taken=*/true});
      }
    }
    const bool falls_through =
        (!has_branch || conditional) &&
        id + 1 < static_cast<BlockId>(prog_.blocks.size());
    if (falls_through) {
      edges_.push_back(CfgEdge{id, id + 1, 0, /*taken=*/false});
    }
    if (conditional) taken_probability_[static_cast<std::size_t>(id)] = 0.5;
  }
  build_edge_index();
  recompute_weights();
}

void Cfg::build_edge_index() {
  const std::size_t n = prog_.blocks.size();
  out_begin_.assign(n + 1, 0);
  in_begin_.assign(n + 1, 0);
  for (const CfgEdge& e : edges_) {
    ++out_begin_[static_cast<std::size_t>(e.from) + 1];
    ++in_begin_[static_cast<std::size_t>(e.to) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    out_begin_[i + 1] += out_begin_[i];
    in_begin_[i + 1] += in_begin_[i];
  }
  out_idx_.resize(edges_.size());
  in_idx_.resize(edges_.size());
  std::vector<std::uint32_t> out_fill(out_begin_.begin(), out_begin_.end() - 1);
  std::vector<std::uint32_t> in_fill(in_begin_.begin(), in_begin_.end() - 1);
  for (std::uint32_t k = 0; k < static_cast<std::uint32_t>(edges_.size());
       ++k) {
    out_idx_[out_fill[static_cast<std::size_t>(edges_[k].from)]++] = k;
    in_idx_[in_fill[static_cast<std::size_t>(edges_[k].to)]++] = k;
  }
}

const BasicBlock& Cfg::block(BlockId id) const {
  AIS_CHECK(id >= 0 && id < static_cast<BlockId>(prog_.blocks.size()),
            "block id out of range");
  return prog_.blocks[static_cast<std::size_t>(id)];
}

BlockId Cfg::find_label(const std::string& label) const {
  const auto it = label_index_.find(label);
  return it == label_index_.end() ? kNoBlock : it->second;
}

std::vector<CfgEdge> Cfg::out_edges(BlockId id) const {
  AIS_CHECK(id >= 0 && id < static_cast<BlockId>(prog_.blocks.size()),
            "block id out of range");
  std::vector<CfgEdge> out;
  const std::size_t i = static_cast<std::size_t>(id);
  out.reserve(out_begin_[i + 1] - out_begin_[i]);
  for (std::uint32_t k = out_begin_[i]; k < out_begin_[i + 1]; ++k) {
    out.push_back(edges_[out_idx_[k]]);
  }
  return out;
}

std::vector<CfgEdge> Cfg::in_edges(BlockId id) const {
  AIS_CHECK(id >= 0 && id < static_cast<BlockId>(prog_.blocks.size()),
            "block id out of range");
  std::vector<CfgEdge> in;
  const std::size_t i = static_cast<std::size_t>(id);
  in.reserve(in_begin_[i + 1] - in_begin_[i]);
  for (std::uint32_t k = in_begin_[i]; k < in_begin_[i + 1]; ++k) {
    in.push_back(edges_[in_idx_[k]]);
  }
  return in;
}

void Cfg::set_branch_probability(BlockId id, double taken_probability) {
  AIS_CHECK(id >= 0 && id < static_cast<BlockId>(prog_.blocks.size()),
            "block id out of range");
  AIS_CHECK(taken_probability >= 0 && taken_probability <= 1,
            "probability out of range");
  AIS_CHECK(!std::isnan(taken_probability_[static_cast<std::size_t>(id)]),
            "block has no conditional branch");
  taken_probability_[static_cast<std::size_t>(id)] = taken_probability;
  recompute_weights();
}

double Cfg::block_weight(BlockId id) const {
  AIS_CHECK(id >= 0 && id < static_cast<BlockId>(prog_.blocks.size()),
            "block id out of range");
  return block_weight_[static_cast<std::size_t>(id)];
}

void Cfg::recompute_weights() {
  // Forward-only propagation: weights flow along forward edges in block
  // order; back edges receive weight but do not re-inject it (keeps the
  // estimate finite for loops — relative magnitudes are all the trace
  // selector needs).
  std::vector<double> in_weight(prog_.blocks.size(), 0);
  in_weight[0] = entry_weight_;
  for (BlockId id = 0; id < static_cast<BlockId>(prog_.blocks.size()); ++id) {
    const std::size_t i = static_cast<std::size_t>(id);
    const double w = in_weight[i];
    const std::uint32_t deg = out_begin_[i + 1] - out_begin_[i];
    const double p = taken_probability_[i];
    for (std::uint32_t k = out_begin_[i]; k < out_begin_[i + 1]; ++k) {
      CfgEdge& e = edges_[out_idx_[k]];
      double share = 1.0;
      if (deg > 1) {
        AIS_CHECK(!std::isnan(p), "multiple successors need a conditional");
        share = e.taken ? p : 1.0 - p;
      }
      e.weight = w * share;
      if (e.to > id) in_weight[static_cast<std::size_t>(e.to)] += e.weight;
    }
  }
  // Cache the per-block entry weight: entry weight for block 0 plus every
  // incoming edge, back edges included — the same sum the old O(E)
  // block_weight() scan produced, now one pass for all blocks.
  block_weight_.assign(prog_.blocks.size(), 0);
  block_weight_[0] = entry_weight_;
  for (const CfgEdge& e : edges_) {
    block_weight_[static_cast<std::size_t>(e.to)] += e.weight;
  }
}

}  // namespace ais
