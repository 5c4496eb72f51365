#include "ir/depbuild.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/assert.hpp"

namespace ais {
namespace {

/// Register slots across the three register files, 256 registers each.
constexpr std::size_t kRegSlots = 3 * 256;

std::size_t reg_slot(const Reg& r) {
  const std::size_t slot = static_cast<std::size_t>(r.cls) * 256 + r.idx;
  AIS_CHECK(slot < kRegSlots, "register class out of range");
  return slot;
}

/// One instruction of the trace, indexed by its node id.
struct Occurrence {
  const Instruction* inst;
  int latency;      // as a producer, on the machine
  int block_start;  // node id of its block's first instruction
};

/// True when references a and b may touch the same memory and at least one
/// writes.
bool mem_conflict(const Instruction& a, const Instruction& b,
                  bool disambiguate) {
  if (!a.is_mem() || !b.is_mem()) return false;
  if (a.is_load() && b.is_load()) return false;
  if (!disambiguate) return true;
  const std::string& ta = a.mem->tag;
  const std::string& tb = b.mem->tag;
  if (ta.empty() || tb.empty()) return true;  // unknown region aliases all
  return ta == tb;
}

/// Validates block structure: at most one branch, and only at the end.
void check_block(const BasicBlock& bb) {
  for (std::size_t i = 0; i < bb.insts.size(); ++i) {
    if (bb.insts[i].is_branch()) {
      AIS_CHECK(i + 1 == bb.insts.size(),
                "branch must be the final instruction of block " + bb.label);
    }
  }
}

/// Scans the trace once (twice for a loop: the second pass is the next
/// iteration, whose edges from the first pass become distance-1 edges) and
/// returns its register, memory and control dependences, one edge per
/// (from, to, distance) at the largest latency found, ordered by
/// (from, to, distance).
///
/// Scan position j is node j % n of copy j / n.  An edge between two
/// positions of the second copy repeats one of the first and is dropped.
std::vector<DepEdge> scan(const std::vector<Occurrence>& occ,
                          const DepBuildOptions& opts, bool loop_carried) {
  const int n = static_cast<int>(occ.size());
  const int positions = loop_carried ? 2 * n : n;

  // Per register: the position of its last def, and the reads since then
  // as a list threaded through `reads` (-1 ends a list).
  std::array<int, kRegSlots> last_def;
  std::array<int, kRegSlots> reads_head;
  last_def.fill(-1);
  reads_head.fill(-1);
  struct Read {
    int pos;
    int next;
  };
  std::vector<Read> reads;
  std::vector<int> mem_refs;  // positions of prior loads/stores
  std::size_t num_reads = 0;
  for (const Occurrence& o : occ) num_reads += o.inst->uses.size();
  reads.reserve(loop_carried ? 2 * num_reads : num_reads);
  mem_refs.reserve(occ.size());

  // A position's edges are found together.  While `seen_by[from]` names the
  // current position, `merged_at[from]` indexes its edge from `from`, so a
  // repeated pair keeps only its largest latency.
  std::vector<DepEdge> edges;
  // Random-IR traces keep about 3.4 edges per instruction.
  edges.reserve(4 * static_cast<std::size_t>(positions));
  std::vector<int> seen_by(occ.size(), -1);
  std::vector<std::size_t> merged_at(occ.size(), 0);
  std::size_t first_copy_edges = 0;

  for (int j = 0; j < positions; ++j) {
    if (j == n) first_copy_edges = edges.size();
    const Occurrence& here = occ[static_cast<std::size_t>(j % n)];
    const Instruction& inst = *here.inst;
    const auto to = static_cast<NodeId>(j % n);
    const int distance = j / n;
    const auto depend_on = [&](int pos, int latency) {
      if (pos >= n) return;  // second copy to second copy
      const auto from = static_cast<std::size_t>(pos);
      if (seen_by[from] == j) {
        int& kept = edges[merged_at[from]].latency;
        kept = std::max(kept, latency);
        return;
      }
      seen_by[from] = j;
      merged_at[from] = edges.size();
      edges.push_back(DepEdge{static_cast<NodeId>(pos), to, latency, distance});
    };

    // RAW: latest def of each used register.
    for (const Reg& r : inst.uses) {
      const std::size_t slot = reg_slot(r);
      if (last_def[slot] >= 0) {
        depend_on(last_def[slot],
                  occ[static_cast<std::size_t>(last_def[slot] % n)].latency);
      }
      reads.push_back(Read{j, reads_head[slot]});
      reads_head[slot] = static_cast<int>(reads.size()) - 1;
    }

    // WAW + WAR for each defined register.
    for (const Reg& r : inst.defs) {
      const std::size_t slot = reg_slot(r);
      if (last_def[slot] >= 0 && last_def[slot] != j) {
        depend_on(last_def[slot], 0);
      }
      for (int k = reads_head[slot]; k >= 0;
           k = reads[static_cast<std::size_t>(k)].next) {
        const int pos = reads[static_cast<std::size_t>(k)].pos;
        if (pos != j) depend_on(pos, 0);
      }
      last_def[slot] = j;
      reads_head[slot] = -1;
    }

    // Memory ordering.
    if (inst.is_mem()) {
      for (const int prior : mem_refs) {
        const Occurrence& p = occ[static_cast<std::size_t>(prior % n)];
        if (!mem_conflict(*p.inst, inst, opts.disambiguate_memory)) continue;
        // store→load is a true dependence through memory and carries the
        // store's forwarding latency; load→store / store→store order only.
        depend_on(prior,
                  p.inst->is_store() && inst.is_load() ? p.latency : 0);
      }
      // A second-copy reference would only order later second-copy ones.
      if (j < n) mem_refs.push_back(j);
    }

    // Control dependences: everything in the block precedes its final
    // branch.  They never cross copies, so the second copy's repeat the
    // first's.
    if (opts.control_deps && inst.is_branch() && j < n) {
      for (int i = here.block_start; i < j; ++i) depend_on(i, 0);
    }
  }

  // `edges` is sorted by (to, distance) within each copy, positions being
  // scanned in order.  Merging the copies sorts it by (to, distance)
  // throughout; a stable sort on `from` then gives (from, to, distance).
  const auto by_target = [](const DepEdge& a, const DepEdge& b) {
    return a.to != b.to ? a.to < b.to : a.distance < b.distance;
  };
  if (loop_carried) {
    std::inplace_merge(
        edges.begin(),
        edges.begin() + static_cast<std::ptrdiff_t>(first_copy_edges),
        edges.end(), by_target);
  }
  std::vector<std::uint32_t> next(occ.size() + 1, 0);
  for (const DepEdge& e : edges) ++next[e.from + 1];
  for (std::size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  std::vector<DepEdge> sorted(edges.size());
  for (const DepEdge& e : edges) sorted[next[e.from]++] = e;
  return sorted;
}

/// Dependence graph of `blocks` in order; node i of block b gets block b.
DepGraph build(std::span<const BasicBlock> blocks, const MachineModel& machine,
               const DepBuildOptions& opts, bool loop_carried) {
  std::size_t num_insts = 0;
  for (const BasicBlock& bb : blocks) num_insts += bb.insts.size();
  DepGraph g;
  g.reserve(num_insts);
  std::vector<Occurrence> occ;
  occ.reserve(num_insts);
  std::string name;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    check_block(blocks[b]);
    const auto block_start = static_cast<int>(occ.size());
    for (const Instruction& inst : blocks[b].insts) {
      const OpTiming& t = machine.timing(op_class(inst.op));
      name.clear();
      inst.append_to(name);
      g.add_node(name, t.exec_time, t.fu_class, static_cast<int>(b));
      occ.push_back(Occurrence{&inst, t.latency, block_start});
    }
  }

  const std::vector<DepEdge> edges = scan(occ, opts, loop_carried);
  g.reserve(num_insts, edges.size());
  for (const DepEdge& e : edges) {
    g.add_edge(e.from, e.to, e.latency, e.distance);
  }
  return g;
}

}  // namespace

DepGraph build_block_graph(const BasicBlock& bb, const MachineModel& machine,
                           const DepBuildOptions& opts) {
  return build({&bb, 1}, machine, opts, /*loop_carried=*/false);
}

DepGraph build_trace_graph(const Trace& trace, const MachineModel& machine,
                           const DepBuildOptions& opts) {
  return build(trace.blocks, machine, opts, /*loop_carried=*/false);
}

DepGraph build_loop_graph(const Loop& loop, const MachineModel& machine,
                          const DepBuildOptions& opts) {
  return build(loop.body.blocks, machine, opts, /*loop_carried=*/true);
}

}  // namespace ais
