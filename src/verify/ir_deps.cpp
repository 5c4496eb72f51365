#include "verify/ir_deps.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <utility>

namespace ais::verify {
namespace {

/// Registers are keyed by (class, index): three files of 256 registers.
constexpr std::size_t kRegKeys = 3 * 256;

/// One instruction's contact with one register, linked to the register's
/// previous touch: following `prev` from a register's newest touch walks
/// the instructions that touch it, newest first.
struct Touch {
  int inst;     // flat index
  int prev;     // index in Scratch::touches, -1 = none
  bool writes;  // false: the instruction only reads the register
};

/// One memory operation, with its region tag as a per-trace id.
struct MemOp {
  int inst;
  int tag;  // 0 = untagged: an unknown region that may overlap anything
  bool load;
  bool store;
};

/// Buffers reused across calls on one thread, so that a derivation
/// allocates nothing but its result; each is linear in the trace's size.
struct Scratch {
  Scratch() { dense.fill(-1); }

  std::array<int, kRegKeys> dense;  // register key -> dense id, -1 = unseen
  std::vector<std::size_t> keys;    // the keys `dense` maps, to reset it
  std::vector<int> newest;          // dense id -> its newest touch
  std::vector<Touch> touches;
  std::vector<int> latency;            // flat index -> result latency
  std::vector<std::string_view> tags;  // tag id - 1 -> tag
  std::vector<MemOp> mem;              // earlier memory operations
  // The dependences into the current instruction j, by source i: bit k of
  // kinds[i] is DepKind k, found has bit i set when kinds[i] is not 0,
  // and memory_latency[i] is the latency of a memory pair.
  std::vector<std::uint8_t> kinds;
  std::vector<std::uint64_t> found;
  std::vector<int> memory_latency;
};

/// Region-tag disambiguation, restated from first principles: references
/// conflict when at least one writes and their regions may overlap.  An
/// empty tag is an unknown region that may overlap anything; two distinct
/// non-empty tags are disjoint by definition.
bool may_alias(int a_tag, int b_tag, bool disambiguate) {
  if (!disambiguate) return true;
  if (a_tag == 0 || b_tag == 0) return true;
  return a_tag == b_tag;
}

/// Per-trace id of a memory reference's region tag.
int tag_id(Scratch& s, const MemRef& m) {
  if (m.tag.empty()) return 0;
  for (std::size_t t = 0; t < s.tags.size(); ++t) {
    if (s.tags[t] == m.tag) return static_cast<int>(t) + 1;
  }
  s.tags.push_back(m.tag);
  return static_cast<int>(s.tags.size());
}

/// The newest touch of register r, -1 = none; gives r a dense id when the
/// trace first names it.
int& newest_touch(Scratch& s, const Reg& r) {
  const std::size_t key = static_cast<std::size_t>(r.cls) * 256 + r.idx;
  int& id = s.dense[key];
  if (id < 0) {
    id = static_cast<int>(s.newest.size());
    s.keys.push_back(key);
    s.newest.push_back(-1);
  }
  return s.newest[static_cast<std::size_t>(id)];
}

/// Makes instruction j register r's newest touch.  j gets one touch per
/// register however often it names it, so an instruction that reads and
/// writes r is one writer, never a reader in front of its own write.
void record(Scratch& s, const Reg& r, int j, bool writes) {
  int& newest = newest_touch(s, r);
  if (newest >= 0) {
    Touch& last = s.touches[static_cast<std::size_t>(newest)];
    if (last.inst == j) {
      last.writes |= writes;
      return;
    }
  }
  s.touches.push_back(Touch{j, newest, writes});
  newest = static_cast<int>(s.touches.size()) - 1;
}

/// Notes a dependence of `kind` from instruction i into the current one.
void mark(Scratch& s, int i, DepKind kind) {
  const std::size_t at = static_cast<std::size_t>(i);
  s.kinds[at] |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(kind));
  s.found[at / 64] |= std::uint64_t{1} << (at % 64);
}

/// Appends the dependences into instruction j (flat index) to `deps`.
void derive_into(Scratch& s, const Instruction& b, int j, int block_start,
                 bool disambiguate_memory, std::vector<IrDep>& deps) {
  // True dependence: the newest earlier writer of each register j reads.
  // That write kills every older one, so the walk stops there.
  for (const Reg& r : b.uses) {
    for (int k = newest_touch(s, r); k >= 0;) {
      const Touch& t = s.touches[static_cast<std::size_t>(k)];
      if (t.writes) {
        mark(s, t.inst, DepKind::kTrue);
        break;
      }
      k = t.prev;
    }
  }

  // Anti and output dependences for each register j writes: every reader
  // since the newest earlier writer is an anti source, and that writer is
  // the output source.  A reader that also writes the register is a
  // writer (the write supersedes the read), and it ends the walk.
  for (const Reg& r : b.defs) {
    for (int k = newest_touch(s, r); k >= 0;) {
      const Touch& t = s.touches[static_cast<std::size_t>(k)];
      if (t.writes) {
        mark(s, t.inst, DepKind::kOutput);
        break;
      }
      mark(s, t.inst, DepKind::kAnti);
      k = t.prev;
    }
  }

  // Memory ordering: all conflicting pairs, not just adjacent ones
  // (region tags are may-alias information, so no reference kills
  // earlier ones).
  if (b.is_mem()) {
    const MemOp op{j, tag_id(s, *b.mem), b.is_load(), b.is_store()};
    for (const MemOp& a : s.mem) {
      if ((a.load && op.load) ||
          !may_alias(a.tag, op.tag, disambiguate_memory)) {
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(a.inst);
      s.memory_latency[i] = (a.store && op.load) ? s.latency[i] : 0;
      mark(s, a.inst, DepKind::kMemory);
    }
    s.mem.push_back(op);
  }

  // Control dependence: everything in a block precedes its branch.
  if (b.is_branch()) {
    for (int i = block_start; i < j; ++i) mark(s, i, DepKind::kControl);
  }

  // One dependence per (i, kind) found, listed by (i, kind): ascending i
  // through the bitset of marked instructions, then kinds in enum order.
  // A pair found through two registers carries the same latency both times.
  for (std::size_t w = 0; w <= static_cast<std::size_t>(j) / 64; ++w) {
    for (std::uint64_t bits = std::exchange(s.found[w], 0); bits != 0;
         bits &= bits - 1) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      for (unsigned kinds = std::exchange(s.kinds[i], 0); kinds != 0;
           kinds &= kinds - 1) {
        const auto kind = static_cast<DepKind>(std::countr_zero(kinds));
        const int latency = kind == DepKind::kTrue     ? s.latency[i]
                            : kind == DepKind::kMemory ? s.memory_latency[i]
                                                       : 0;
        deps.push_back(IrDep{static_cast<int>(i), j, kind, latency});
      }
    }
  }

  // j joins the touch lists only after its own walks.
  for (const Reg& r : b.defs) record(s, r, j, /*writes=*/true);
  for (const Reg& r : b.uses) record(s, r, j, /*writes=*/false);
}

thread_local Scratch t_scratch;

}  // namespace

const char* dep_kind_name(DepKind kind) {
  switch (kind) {
    case DepKind::kTrue: return "true";
    case DepKind::kAnti: return "anti";
    case DepKind::kOutput: return "output";
    case DepKind::kMemory: return "memory";
    case DepKind::kControl: return "control";
  }
  return "unknown";
}

std::vector<IrDep> derive_trace_deps(const Trace& trace,
                                     const MachineModel& machine,
                                     bool disambiguate_memory) {
  std::vector<IrDep> deps;
  derive_trace_deps(trace, machine, disambiguate_memory, deps);
  return deps;
}

void derive_trace_deps(const Trace& trace, const MachineModel& machine,
                       bool disambiguate_memory, std::vector<IrDep>& deps) {
  Scratch& s = t_scratch;
  const std::size_t n = trace.num_insts();
  s.newest.clear();
  s.touches.clear();
  s.latency.clear();
  s.kinds.assign(n, 0);
  s.memory_latency.resize(n);
  s.found.assign(n / 64 + 1, 0);
  s.tags.clear();
  s.mem.clear();
  deps.clear();
  int j = 0;
  for (const BasicBlock& bb : trace.blocks) {
    const int block_start = j;
    for (const Instruction& inst : bb.insts) {
      s.latency.push_back(machine.timing(op_class(inst.op)).latency);
      derive_into(s, inst, j++, block_start, disambiguate_memory, deps);
    }
  }
  for (const std::size_t key : s.keys) s.dense[key] = -1;
  s.keys.clear();
}

}  // namespace ais::verify
