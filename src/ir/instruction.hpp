// A small RS/6000-flavoured RISC IR.
//
// The paper evaluates on RS/6000 target instructions (Fig. 3); this IR is a
// toy rendition with enough structure for realistic dependence analysis:
// three register files (general, floating, condition), load/store with
// optional base-register update (L4U/ST4U in the paper), and symbolic
// memory region tags for disambiguation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "machine/machine_model.hpp"

namespace ais {

enum class RegClass : std::uint8_t { kGpr, kFpr, kCr };

struct Reg {
  RegClass cls = RegClass::kGpr;
  std::uint8_t idx = 0;

  bool operator==(const Reg&) const = default;
  /// "r5", "f2" or "c1".
  std::string to_string() const;
  /// Appends to_string()'s text to `out`.
  void append_to(std::string& out) const;
};

inline Reg gpr(std::uint8_t i) { return Reg{RegClass::kGpr, i}; }
inline Reg fpr(std::uint8_t i) { return Reg{RegClass::kFpr, i}; }
inline Reg cr(std::uint8_t i) { return Reg{RegClass::kCr, i}; }

enum class Opcode : std::uint8_t {
  kLi,    // load immediate
  kMov,
  kAdd, kSub, kAnd, kOr, kXor, kShl, kShr,
  kMul, kDiv,
  kLoad, kLoadU,     // LoadU updates the base register (L4U)
  kStore, kStoreU,   // StoreU updates the base register (ST4U)
  kFAdd, kFMul, kFDiv, kFMa,
  kCmp,              // writes a condition register
  kBt, kBf,          // conditional branches on a condition register
  kB,                // unconditional branch
  kNop,
};

const char* opcode_name(Opcode op);
OpClass op_class(Opcode op);
bool opcode_is_branch(Opcode op);

/// A memory operand: base register, constant displacement and a symbolic
/// region tag.  Two references conflict when at least one is a store and
/// their tags may alias (equal tags, or either tag empty = "may be
/// anything").  Distinct non-empty tags are disjoint regions by definition.
struct MemRef {
  Reg base;
  int offset = 0;
  std::string tag;  // empty = unknown region
};

class Instruction {
 public:
  Opcode op = Opcode::kNop;

  /// Registers written / read.  Update-form loads/stores list the base
  /// register in both defs and uses.
  std::vector<Reg> defs;
  std::vector<Reg> uses;

  std::optional<MemRef> mem;

  /// Immediate operand (LI value, second source of immediate-form ALU ops,
  /// comparison constant).  Irrelevant to scheduling; the interpreter uses
  /// it to give programs deterministic semantics.
  std::int64_t imm = 0;

  /// Branch target label (branches only; informational).
  std::string target;

  bool is_branch() const { return opcode_is_branch(op); }
  bool is_load() const { return op == Opcode::kLoad || op == Opcode::kLoadU; }
  bool is_store() const {
    return op == Opcode::kStore || op == Opcode::kStoreU;
  }
  bool is_mem() const { return mem.has_value(); }

  /// Assembly-ish rendering, e.g. "LDU r6, x[r7+4]".
  std::string to_string() const;
  /// Appends to_string()'s text to `out`, so the emitter and the dependence
  /// builder render into reused buffers.
  void append_to(std::string& out) const;

  // Factory helpers (keep examples and workload generators readable).
  static Instruction li(Reg d, std::int64_t imm = 0);
  static Instruction mov(Reg d, Reg s);
  static Instruction alu(Opcode op, Reg d, Reg a, Reg b);
  static Instruction alu_imm(Opcode op, Reg d, Reg a, std::int64_t imm = 0);
  static Instruction load(Reg d, MemRef m, bool update = false);
  static Instruction store(MemRef m, Reg s, bool update = false);
  static Instruction fma(Reg d, Reg a, Reg b, Reg c);
  static Instruction cmp(Reg crd, Reg a, std::int64_t imm = 0);
  static Instruction branch(Opcode op, Reg crs, std::string target);
  static Instruction jump(std::string target);
  static Instruction nop();
};

/// Single-entry single-exit instruction sequence.  At most one branch, and
/// only as the final instruction (checked by DependenceAnalyzer).
struct BasicBlock {
  std::string label;
  std::vector<Instruction> insts;
};

/// A sequence of basic blocks along one control-flow path (paper footnote 2).
struct Trace {
  std::vector<BasicBlock> blocks;

  std::size_t num_insts() const {
    std::size_t n = 0;
    for (const auto& bb : blocks) n += bb.insts.size();
    return n;
  }
};

/// A trace enclosed in a loop: the last block branches back to the first.
struct Loop {
  Trace body;
};

}  // namespace ais
