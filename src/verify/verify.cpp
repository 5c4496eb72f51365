#include "verify/verify.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>

#include "obs/obs.hpp"
#include "sim/lookahead_sim.hpp"

namespace ais::verify {
namespace {

/// Instructions rendered once each, back to back in one reused buffer.
class Renderings {
 public:
  void clear() {
    text_.clear();
    ends_.clear();
  }
  void add(const Instruction& inst) {
    inst.append_to(text_);
    ends_.push_back(text_.size());
  }
  std::string_view operator[](std::size_t k) const {
    const std::size_t begin = k == 0 ? 0 : ends_[k - 1];
    return std::string_view(text_).substr(begin, ends_[k] - begin);
  }

 private:
  std::string text_;
  std::vector<std::size_t> ends_;
};

/// An original instruction of the block being matched.
struct Slot {
  std::string_view text;
  int index;  // flat index in the original trace
};

/// Buffers reused across calls on one thread; all but `deps` are linear
/// in the trace's size.
struct Scratch {
  Renderings original;   // by flat index in the original trace
  Renderings scheduled;  // by flat position in the scheduled blocks
  std::vector<int> block_first;  // original block b is [block_first[b],
                                 // block_first[b + 1]) in flat indices
  std::vector<Slot> slots;
  std::vector<int> taken;  // per run of equal slots, at its first: consumed
  std::vector<int> scheduled_to_original;
  std::vector<int> position;
  std::vector<IrDep> deps;  // released after a large trace, see below
};

/// The most dependences whose buffer check_emitted keeps for the next
/// call (1 MiB).  Memory pairs make a trace's dependence list quadratic in
/// its memory operations, so one large trace must not pin its buffer to
/// the thread for good; a cfg_program trace has a few hundred.
constexpr std::size_t kKeptDeps = std::size_t{1} << 16;

/// Matches each scheduled instruction to a distinct original flat index
/// within the same block (textual identity; equal renderings are matched in
/// order, which is sound because identical instructions are interchangeable
/// in any schedule).  Returns false and diagnoses when matching fails.
bool match_blocks(const Trace& original, std::span<const BasicBlock> scheduled,
                  Scratch& s, Report& report) {
  const int num_blocks = static_cast<int>(original.blocks.size());
  bool ok = true;
  std::size_t pos = 0;  // flat position of the scheduled instruction
  for (int b = 0; b < num_blocks; ++b) {
    const BasicBlock& obb = original.blocks[static_cast<std::size_t>(b)];
    const BasicBlock& sbb = scheduled[static_cast<std::size_t>(b)];
    if (obb.label != sbb.label) {
      report.error("block-structure",
                   "label changed from '" + obb.label + "' to '" + sbb.label +
                       "'",
                   b, sbb.label);
      ok = false;
    }
    // The block's original instructions by (rendering, index): equal
    // renderings are consumed lowest index first, and the unconsumed ones
    // are reported in rendering order.
    s.slots.clear();
    for (int i = s.block_first[static_cast<std::size_t>(b)];
         i < s.block_first[static_cast<std::size_t>(b) + 1]; ++i) {
      s.slots.push_back(Slot{s.original[static_cast<std::size_t>(i)], i});
    }
    std::sort(s.slots.begin(), s.slots.end(),
              [](const Slot& x, const Slot& y) {
                const int c = x.text.compare(y.text);
                return c != 0 ? c < 0 : x.index < y.index;
              });
    s.taken.assign(s.slots.size(), 0);
    std::size_t matched = 0;
    for (std::size_t k = 0; k < sbb.insts.size(); ++k, ++pos) {
      const std::string_view text = s.scheduled[pos];
      const std::size_t run = static_cast<std::size_t>(
          std::lower_bound(s.slots.begin(), s.slots.end(), text,
                           [](const Slot& slot, std::string_view t) {
                             return slot.text < t;
                           }) -
          s.slots.begin());
      const std::size_t next =
          run < s.slots.size() ? run + static_cast<std::size_t>(s.taken[run])
                               : run;
      if (next < s.slots.size() && s.slots[next].text == text) {
        s.scheduled_to_original.push_back(s.slots[next].index);
        ++s.taken[run];
        ++matched;
        continue;
      }
      // Does the instruction exist in some other block?
      bool elsewhere = false;
      for (int c = 0; c < num_blocks && !elsewhere; ++c) {
        if (c == b) continue;
        for (int i = s.block_first[static_cast<std::size_t>(c)];
             i < s.block_first[static_cast<std::size_t>(c) + 1]; ++i) {
          if (s.original[static_cast<std::size_t>(i)] == text) {
            elsewhere = true;
            break;
          }
        }
      }
      report.error(elsewhere ? "cross-block-motion" : "block-structure",
                   elsewhere
                       ? "instruction belongs to a different block of the "
                         "original trace"
                       : "instruction does not occur (often enough) in the "
                         "original block",
                   b, std::string(text));
      ok = false;
      s.scheduled_to_original.push_back(-1);
    }
    if (matched == s.slots.size()) continue;
    for (std::size_t run = 0; run < s.slots.size();) {
      std::size_t end = run + 1;
      while (end < s.slots.size() && s.slots[end].text == s.slots[run].text) {
        ++end;
      }
      for (std::size_t k = run + static_cast<std::size_t>(s.taken[run]);
           k < end; ++k) {
        report.error("block-structure",
                     "original instruction is missing from the scheduled "
                     "block",
                     b, std::string(s.slots[k].text));
        ok = false;
      }
      run = end;
    }
  }
  return ok;
}

}  // namespace

DepGraph graph_from_ir(const Trace& trace, const MachineModel& machine,
                       const std::vector<IrDep>& deps) {
  DepGraph g;
  std::size_t num_insts = 0;
  for (const BasicBlock& bb : trace.blocks) num_insts += bb.insts.size();
  g.reserve(num_insts);
  int b = 0;
  for (const BasicBlock& bb : trace.blocks) {
    for (const Instruction& inst : bb.insts) {
      const OpTiming& t = machine.timing(op_class(inst.op));
      g.add_node(inst.to_string(), t.exec_time, t.fu_class, b);
    }
    ++b;
  }
  // Collapse multiple dependence kinds per pair to the strictest latency.
  std::map<std::pair<int, int>, int> strongest;
  for (const IrDep& d : deps) {
    auto [it, inserted] = strongest.emplace(std::make_pair(d.from, d.to),
                                            d.latency);
    if (!inserted) it->second = std::max(it->second, d.latency);
  }
  for (const auto& [pair, latency] : strongest) {
    g.add_edge(static_cast<NodeId>(pair.first),
               static_cast<NodeId>(pair.second), latency, /*distance=*/0);
  }
  return g;
}

Report check_emitted(const Trace& original,
                     std::span<const BasicBlock> scheduled,
                     const MachineModel& machine, const VerifyOptions& opts) {
  AIS_OBS_SPAN("verify.emitted");
  Report report;
  if (original.blocks.size() != scheduled.size()) {
    report.error("block-structure",
                 "trace has " + std::to_string(scheduled.size()) +
                     " blocks, original has " +
                     std::to_string(original.blocks.size()));
    return report;
  }

  thread_local Scratch s;
  s.original.clear();
  s.block_first.clear();
  int flat = 0;
  for (const BasicBlock& bb : original.blocks) {
    s.block_first.push_back(flat);
    for (const Instruction& inst : bb.insts) s.original.add(inst);
    flat += static_cast<int>(bb.insts.size());
  }
  s.block_first.push_back(flat);
  s.scheduled.clear();
  for (const BasicBlock& bb : scheduled) {
    for (const Instruction& inst : bb.insts) s.scheduled.add(inst);
  }

  // Branches must still terminate their blocks.
  std::size_t pos = 0;
  for (int b = 0; b < static_cast<int>(scheduled.size()); ++b) {
    const BasicBlock& bb = scheduled[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i + 1 < bb.insts.size(); ++i) {
      if (bb.insts[i].is_branch()) {
        report.error("branch-position",
                     "branch was scheduled before the end of its block", b,
                     std::string(s.scheduled[pos + i]));
      }
    }
    pos += bb.insts.size();
  }

  s.scheduled_to_original.clear();
  if (!match_blocks(original, scheduled, s, report)) {
    return report;  // dependence positions are meaningless without a bijection
  }

  // Every re-derived dependence must point forward in the emitted stream.
  const std::size_t n = s.scheduled_to_original.size();
  s.position.assign(n, -1);
  for (std::size_t p = 0; p < n; ++p) {
    s.position[static_cast<std::size_t>(s.scheduled_to_original[p])] =
        static_cast<int>(p);
  }
  std::vector<IrDep>& deps = s.deps;
  derive_trace_deps(original, machine, opts.disambiguate_memory, deps);
  for (const IrDep& d : deps) {
    if (s.position[static_cast<std::size_t>(d.from)] >
        s.position[static_cast<std::size_t>(d.to)]) {
      const std::string_view to = s.original[static_cast<std::size_t>(d.to)];
      std::string message = dep_kind_name(d.kind);
      message += " dependence '";
      message += s.original[static_cast<std::size_t>(d.from)];
      message += "' -> '";
      message += to;
      message += "' points backwards in the emitted code";
      report.error("dep-order", std::move(message), -1, std::string(to));
    }
  }
  if (report.ok() && opts.check_optimality) {
    // Simulate the emitted priority list on the verifier's own graph and
    // certify its completion time.
    const DepGraph g = graph_from_ir(original, machine, deps);
    std::vector<NodeId> list;
    for (const int orig : s.scheduled_to_original) {
      list.push_back(static_cast<NodeId>(orig));
    }
    SimScratch scratch;
    const Time achieved =
        simulated_completion(g, machine, list, opts.window, scratch);
    report_certificate(report,
                       certify_trace_completion(g, machine, opts.window,
                                                achieved,
                                                opts.enumeration_cap));
  }
  if (deps.capacity() > kKeptDeps) std::vector<IrDep>().swap(deps);
  return report;
}

Report check_emitted(const Trace& original, const Trace& scheduled,
                     const MachineModel& machine, const VerifyOptions& opts) {
  return check_emitted(original, std::span(scheduled.blocks), machine, opts);
}

Report check_planning(const DepGraph& g, const std::vector<NodeId>& order,
                      const std::vector<std::vector<NodeId>>& per_block,
                      int window) {
  AIS_OBS_SPAN("verify.planning");
  Report report;
  report.merge(check_order(g, order));
  // Advisory severity: the planning order may promise more overlap than a
  // W-deep window can realize (see check_window's contract) — the emitted
  // per-block code stays legal either way.
  report.merge(check_window(g, order, window, Severity::kWarning));

  // per_block[b] must be exactly the block-b subsequence of `order`.
  std::vector<std::vector<NodeId>> expected(per_block.size());
  bool blocks_in_range = true;
  for (const NodeId id : order) {
    const int b = id < g.num_nodes() ? g.node(id).block : -1;
    if (b < 0 || b >= static_cast<int>(expected.size())) {
      report.error("subpermutation",
                   "node " + std::to_string(id) + " has block index " +
                       std::to_string(b) + ", outside the emitted blocks");
      blocks_in_range = false;
      continue;
    }
    expected[static_cast<std::size_t>(b)].push_back(id);
  }
  if (blocks_in_range) {
    for (std::size_t b = 0; b < per_block.size(); ++b) {
      if (per_block[b] != expected[b]) {
        report.error("subpermutation",
                     "emitted block order is not the planning order's "
                     "subpermutation",
                     static_cast<int>(b));
      }
    }
  }
  return report;
}

}  // namespace ais::verify
