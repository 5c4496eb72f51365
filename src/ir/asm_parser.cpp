#include "ir/asm_parser.hpp"

#include <cctype>
#include <exception>
#include <map>
#include <optional>

#include "support/assert.hpp"
#include "support/str.hpp"

namespace ais {
namespace {

const std::map<std::string, Opcode>& opcode_table() {
  static const std::map<std::string, Opcode> table = {
      {"LI", Opcode::kLi},     {"MOV", Opcode::kMov},
      {"ADD", Opcode::kAdd},   {"SUB", Opcode::kSub},
      {"AND", Opcode::kAnd},   {"OR", Opcode::kOr},
      {"XOR", Opcode::kXor},   {"SHL", Opcode::kShl},
      {"SHR", Opcode::kShr},   {"MUL", Opcode::kMul},
      {"DIV", Opcode::kDiv},   {"LD", Opcode::kLoad},
      {"LDU", Opcode::kLoadU}, {"ST", Opcode::kStore},
      {"STU", Opcode::kStoreU},{"FADD", Opcode::kFAdd},
      {"FMUL", Opcode::kFMul}, {"FDIV", Opcode::kFDiv},
      {"FMA", Opcode::kFMa},   {"CMP", Opcode::kCmp},
      {"BT", Opcode::kBt},     {"BF", Opcode::kBf},
      {"B", Opcode::kB},       {"NOP", Opcode::kNop},
  };
  return table;
}

struct Operand {
  enum Kind { kReg, kImm, kMem, kLabel } kind;
  Reg reg{};
  MemRef mem{};
  std::string label;
  std::int64_t imm = 0;
};

/// Thrown instead of panicking while a parse_program_or_error call is on
/// the stack (daemon requests must not abort the process).
struct ParseError {
  std::string message;
};
thread_local bool g_recoverable = false;

[[noreturn]] void fail(int line_no, const std::string& why) {
  if (g_recoverable) {
    throw ParseError{"line " + std::to_string(line_no) + ": " + why};
  }
  panic("asm", line_no, "parse error: " + why);
}

std::optional<Reg> try_reg(const std::string& tok) {
  if (tok.size() < 2) return std::nullopt;
  RegClass cls;
  switch (tok[0]) {
    case 'r': cls = RegClass::kGpr; break;
    case 'f': cls = RegClass::kFpr; break;
    case 'c': cls = RegClass::kCr; break;
    default: return std::nullopt;
  }
  for (std::size_t i = 1; i < tok.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(tok[i]))) return std::nullopt;
  }
  const int idx = std::stoi(tok.substr(1));
  if (idx < 0 || idx > 255) return std::nullopt;
  return Reg{cls, static_cast<std::uint8_t>(idx)};
}

bool is_imm(const std::string& tok) {
  if (tok.empty()) return false;
  std::size_t i = (tok[0] == '-') ? 1 : 0;
  if (i == tok.size()) return false;
  for (; i < tok.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(tok[i]))) return false;
  }
  return true;
}

Operand parse_operand(const std::string& raw, int line_no) {
  const std::string tok = trim(raw);
  if (tok.empty()) fail(line_no, "empty operand");

  const std::size_t lb = tok.find('[');
  if (lb != std::string::npos) {
    if (tok.back() != ']') fail(line_no, "unterminated memory operand: " + tok);
    Operand op;
    op.kind = Operand::kMem;
    op.mem.tag = trim(tok.substr(0, lb));
    std::string inner = tok.substr(lb + 1, tok.size() - lb - 2);
    int offset = 0;
    const std::size_t plus = inner.find_first_of("+-");
    if (plus != std::string::npos && plus > 0) {
      offset = std::stoi(inner.substr(plus));
      inner = inner.substr(0, plus);
    }
    const auto base = try_reg(trim(inner));
    if (!base) fail(line_no, "bad memory base register: " + tok);
    op.mem.base = *base;
    op.mem.offset = offset;
    return op;
  }

  if (const auto reg = try_reg(tok)) {
    Operand op;
    op.kind = Operand::kReg;
    op.reg = *reg;
    return op;
  }
  if (is_imm(tok)) {
    Operand op;
    op.kind = Operand::kImm;
    op.imm = std::stoll(tok);
    return op;
  }
  Operand op;
  op.kind = Operand::kLabel;
  op.label = tok;
  return op;
}

Instruction assemble(Opcode op, const std::vector<Operand>& ops, int line_no) {
  auto want_reg = [&](std::size_t i) -> Reg {
    if (i >= ops.size() || ops[i].kind != Operand::kReg) {
      fail(line_no, "operand " + std::to_string(i) + " must be a register");
    }
    return ops[i].reg;
  };
  auto want_mem = [&](std::size_t i) -> MemRef {
    if (i >= ops.size() || ops[i].kind != Operand::kMem) {
      fail(line_no, "operand " + std::to_string(i) + " must be a memory ref");
    }
    return ops[i].mem;
  };
  auto want_label = [&](std::size_t i) -> std::string {
    if (i >= ops.size() || ops[i].kind != Operand::kLabel) {
      fail(line_no, "operand " + std::to_string(i) + " must be a label");
    }
    return ops[i].label;
  };

  auto imm_at = [&](std::size_t i) -> std::int64_t {
    return (i < ops.size() && ops[i].kind == Operand::kImm) ? ops[i].imm : 0;
  };

  switch (op) {
    case Opcode::kLi:
      return Instruction::li(want_reg(0), imm_at(1));
    case Opcode::kMov:
      return Instruction::mov(want_reg(0), want_reg(1));
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kFAdd:
    case Opcode::kFMul:
    case Opcode::kFDiv: {
      // Second source may be an immediate ("ADD r1, r2, 1").
      if (ops.size() >= 3 && ops[2].kind == Operand::kReg) {
        return Instruction::alu(op, want_reg(0), want_reg(1), want_reg(2));
      }
      return Instruction::alu_imm(op, want_reg(0), want_reg(1), imm_at(2));
    }
    case Opcode::kFMa:
      return Instruction::fma(want_reg(0), want_reg(1), want_reg(2),
                              want_reg(3));
    case Opcode::kLoad:
      return Instruction::load(want_reg(0), want_mem(1), /*update=*/false);
    case Opcode::kLoadU:
      return Instruction::load(want_reg(0), want_mem(1), /*update=*/true);
    case Opcode::kStore:
      return Instruction::store(want_mem(0), want_reg(1), /*update=*/false);
    case Opcode::kStoreU:
      return Instruction::store(want_mem(0), want_reg(1), /*update=*/true);
    case Opcode::kCmp:
      return Instruction::cmp(want_reg(0), want_reg(1), imm_at(2));
    case Opcode::kBt:
    case Opcode::kBf:
      return Instruction::branch(op, want_reg(0), want_label(1));
    case Opcode::kB:
      return Instruction::jump(want_label(0));
    case Opcode::kNop:
      return Instruction::nop();
  }
  fail(line_no, "unhandled opcode");
}

}  // namespace

Program parse_program(const std::string& text) {
  Program prog;
  int line_no = 0;
  for (const std::string& raw_line : split(text, '\n')) {
    ++line_no;
    std::string line = raw_line;
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (starts_with(line, "block ")) {
      std::string label = trim(line.substr(6));
      if (!label.empty() && label.back() == ':') label.pop_back();
      if (label.empty()) fail(line_no, "block needs a label");
      prog.blocks.push_back(BasicBlock{label, {}});
      continue;
    }

    if (prog.blocks.empty()) prog.blocks.push_back(BasicBlock{"entry", {}});

    // Mnemonic, then comma-separated operands.
    const std::size_t sp = line.find_first_of(" \t");
    const std::string mnemonic =
        sp == std::string::npos ? line : line.substr(0, sp);
    const auto it = opcode_table().find(mnemonic);
    if (it == opcode_table().end()) {
      fail(line_no, "unknown opcode: " + mnemonic);
    }
    std::vector<Operand> operands;
    if (sp != std::string::npos) {
      for (const std::string& part : split(line.substr(sp + 1), ',')) {
        const std::string t = trim(part);
        if (!t.empty()) operands.push_back(parse_operand(t, line_no));
      }
    }
    // Drop trailing immediates so "CMP c1, r6, 0" works uniformly.
    prog.blocks.back().insts.push_back(assemble(it->second, operands, line_no));
  }
  AIS_CHECK(!prog.blocks.empty(), "empty program");
  return prog;
}

BasicBlock parse_block(const std::string& text) {
  const Program prog = parse_program(text);
  AIS_CHECK(prog.blocks.size() == 1, "expected exactly one block");
  return prog.blocks[0];
}

std::optional<Program> parse_program_or_error(const std::string& text,
                                              std::string* error) {
  // Pre-check emptiness: parse_program's empty-program AIS_CHECK panics
  // outside fail()'s reach.
  bool has_content = false;
  for (const std::string& raw_line : split(text, '\n')) {
    std::string line = raw_line;
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = line.substr(0, comment);
    if (!trim(line).empty()) {
      has_content = true;
      break;
    }
  }
  if (!has_content) {
    *error = "empty program";
    return std::nullopt;
  }
  g_recoverable = true;
  try {
    Program prog = parse_program(text);
    g_recoverable = false;
    return prog;
  } catch (const ParseError& e) {
    g_recoverable = false;
    *error = e.message;
  } catch (const std::exception& e) {  // e.g. std::stoi range errors
    g_recoverable = false;
    *error = std::string("parse error: ") + e.what();
  }
  return std::nullopt;
}

std::string block_structure_error(const Program& prog) {
  for (std::size_t b = 0; b < prog.blocks.size(); ++b) {
    const BasicBlock& bb = prog.blocks[b];
    const auto name = [&] {
      return bb.label.empty() ? "#" + std::to_string(b) : bb.label;
    };
    if (bb.insts.empty()) {
      return "block " + name() + ": a block must hold at least one instruction";
    }
    for (std::size_t i = 0; i + 1 < bb.insts.size(); ++i) {
      if (!bb.insts[i].is_branch()) continue;
      return "block " + name() + ": branch '" + bb.insts[i].to_string() +
             "' must be the final instruction of its block";
    }
  }
  return {};
}

}  // namespace ais
