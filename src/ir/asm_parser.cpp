#include "ir/asm_parser.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <optional>
#include <string_view>
#include <utility>

#include "support/assert.hpp"

namespace ais {
namespace {

constexpr std::pair<std::string_view, Opcode> kOpcodes[] = {
    {"LI", Opcode::kLi},     {"MOV", Opcode::kMov},   {"ADD", Opcode::kAdd},
    {"SUB", Opcode::kSub},   {"AND", Opcode::kAnd},   {"OR", Opcode::kOr},
    {"XOR", Opcode::kXor},   {"SHL", Opcode::kShl},   {"SHR", Opcode::kShr},
    {"MUL", Opcode::kMul},   {"DIV", Opcode::kDiv},   {"LD", Opcode::kLoad},
    {"LDU", Opcode::kLoadU}, {"ST", Opcode::kStore},  {"STU", Opcode::kStoreU},
    {"FADD", Opcode::kFAdd}, {"FMUL", Opcode::kFMul}, {"FDIV", Opcode::kFDiv},
    {"FMA", Opcode::kFMa},   {"CMP", Opcode::kCmp},   {"BT", Opcode::kBt},
    {"BF", Opcode::kBf},     {"B", Opcode::kB},       {"NOP", Opcode::kNop},
};

/// `mnemonic` is non-empty: the first word of a trimmed, non-empty line.
std::optional<Opcode> find_opcode(std::string_view mnemonic) {
  for (const auto& [name, op] : kOpcodes) {
    if (name[0] == mnemonic[0] && name == mnemonic) return op;
  }
  return std::nullopt;
}

// The C locale's isspace and isdigit.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool all_digits(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!is_digit(c)) return false;
  }
  return true;
}

/// rN, fN or cN with N <= 255.  A larger N makes the token a label, as
/// `B r300` has always read.
std::optional<Reg> try_reg(std::string_view tok) {
  if (tok.size() < 2) return std::nullopt;
  RegClass cls;
  switch (tok[0]) {
    case 'r': cls = RegClass::kGpr; break;
    case 'f': cls = RegClass::kFpr; break;
    case 'c': cls = RegClass::kCr; break;
    default: return std::nullopt;
  }
  const std::string_view digits = tok.substr(1);
  if (!all_digits(digits)) return std::nullopt;
  unsigned idx = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), idx);
  if (ec != std::errc() || idx > 255) return std::nullopt;
  return Reg{cls, static_cast<std::uint8_t>(idx)};
}

struct Operand {
  enum Kind { kReg, kImm, kMem, kLabel };
  Kind kind = kLabel;
  Reg reg{};               // kReg, and the base register of kMem
  std::int64_t value = 0;  // kImm, and the offset of kMem
  std::string_view text;   // kLabel's label, kMem's tag
};

/// A line's diagnosis.  `error` is the first failure in the order the
/// grammar has always reported; `strict` is the first violation of the
/// rules that reject input once read leniently (a malformed number, an
/// extra operand, a non-immediate where an immediate goes, a CMP or branch
/// condition outside the condition registers).  A line is rejected with
/// `error` when it has one, else with `strict`, so every input rejected
/// before keeps its message.
struct Diagnosis {
  std::string error;
  std::string strict;

  void flag(std::string why) {
    if (strict.empty()) strict = std::move(why);
  }
};

/// Parses one trimmed, non-empty operand.
Operand parse_operand(std::string_view tok, Diagnosis& diag) {
  Operand op;
  const std::size_t lb = tok.find('[');
  if (lb != std::string_view::npos) {
    if (tok.back() != ']') {
      diag.error = "unterminated memory operand: " + std::string(tok);
      return op;
    }
    op.kind = Operand::kMem;
    op.text = trim(tok.substr(0, lb));
    std::string_view inner = tok.substr(lb + 1, tok.size() - lb - 2);
    // An offset is a sign and decimal digits, up to the closing bracket.
    const std::size_t sign = inner.find_first_of("+-");
    if (sign != std::string_view::npos && sign > 0) {
      const std::string_view number = trim(inner.substr(sign));
      const char* first = number.data() + (number[0] == '+' ? 1 : 0);
      const char* last = number.data() + number.size();
      int offset = 0;
      const auto [end, ec] = std::from_chars(first, last, offset);
      if (number.size() < 2 || !is_digit(number[1]) || end != last) {
        diag.flag("bad memory offset: " + std::string(tok));
      } else if (ec != std::errc()) {
        diag.flag("memory offset out of range: " + std::string(tok));
      }
      op.value = offset;
      inner = inner.substr(0, sign);
    }
    const std::optional<Reg> base = try_reg(trim(inner));
    if (!base) {
      diag.error = "bad memory base register: " + std::string(tok);
      return op;
    }
    op.reg = *base;
    return op;
  }

  if (const std::optional<Reg> reg = try_reg(tok)) {
    op.kind = Operand::kReg;
    op.reg = *reg;
    return op;
  }
  if (all_digits(tok[0] == '-' ? tok.substr(1) : tok)) {
    op.kind = Operand::kImm;
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), op.value);
    if (ec != std::errc()) {
      diag.flag("immediate out of range: " + std::string(tok));
    }
    return op;
  }
  op.text = tok;
  return op;
}

/// What an operand position takes.  The optional kinds may be left off
/// (an omitted immediate is 0).
enum class Want : std::uint8_t {
  kReg,
  kCondReg,
  kMem,
  kLabel,
  kImm,
  kRegOrImm,
};

struct Form {
  std::size_t required;   // leading positions that must be present
  std::size_t positions;  // all positions; those past `required` optional
  std::array<Want, 4> want;
};

Form form_of(Opcode op) {
  using W = Want;
  switch (op) {
    case Opcode::kLi: return {1, 2, {W::kReg, W::kImm}};
    case Opcode::kMov: return {2, 2, {W::kReg, W::kReg}};
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
    case Opcode::kFDiv:  // second source a register or an immediate
      return {2, 3, {W::kReg, W::kReg, W::kRegOrImm}};
    case Opcode::kFMa: return {4, 4, {W::kReg, W::kReg, W::kReg, W::kReg}};
    case Opcode::kLoad:
    case Opcode::kLoadU: return {2, 2, {W::kReg, W::kMem}};
    case Opcode::kStore:
    case Opcode::kStoreU: return {2, 2, {W::kMem, W::kReg}};
    case Opcode::kCmp: return {2, 3, {W::kCondReg, W::kReg, W::kImm}};
    case Opcode::kBt:
    case Opcode::kBf: return {2, 2, {W::kCondReg, W::kLabel}};
    case Opcode::kB: return {1, 1, {W::kLabel}};
    case Opcode::kNop: return {0, 0, {}};
  }
  return {0, 0, {}};
}

/// Checks `n` operands (the first ops.size() of them kept) against `op`'s
/// form and builds the instruction.  Required positions are checked from
/// the last to the first, so a line with several bad operands names the
/// last one, as the GCC-built parser always has.
std::optional<Instruction> assemble(Opcode op,
                                    const std::array<Operand, 4>& ops,
                                    std::size_t n, Diagnosis& diag) {
  const Form form = form_of(op);
  for (std::size_t i = form.required; i-- > 0;) {
    const Want want = form.want[i];
    const Operand::Kind need = want == Want::kMem     ? Operand::kMem
                               : want == Want::kLabel ? Operand::kLabel
                                                      : Operand::kReg;
    if (i < n && ops[i].kind == need) continue;
    const char* what = need == Operand::kMem     ? "a memory ref"
                       : need == Operand::kLabel ? "a label"
                                                 : "a register";
    diag.error = "operand " + std::to_string(i) + " must be " + what;
    return std::nullopt;
  }
  if (n > form.positions) {
    diag.flag("too many operands for " + std::string(opcode_name(op)) +
              ": got " + std::to_string(n) + ", at most " +
              std::to_string(form.positions));
  }
  for (std::size_t i = 0; i < std::min(n, form.positions); ++i) {
    const Operand::Kind kind = ops[i].kind;
    const char* what = nullptr;
    if (form.want[i] == Want::kImm && kind != Operand::kImm) {
      what = " must be an immediate";
    } else if (form.want[i] == Want::kRegOrImm && kind != Operand::kReg &&
               kind != Operand::kImm) {
      what = " must be a register or an immediate";
    } else if (form.want[i] == Want::kCondReg &&
               ops[i].reg.cls != RegClass::kCr) {
      what = " must be a condition register";
    }
    if (what != nullptr) diag.flag("operand " + std::to_string(i) + what);
  }
  if (!diag.strict.empty()) return std::nullopt;

  const auto reg = [&](std::size_t i) { return ops[i].reg; };
  const auto mem = [&](std::size_t i) {
    return MemRef{ops[i].reg, static_cast<int>(ops[i].value),
                  std::string(ops[i].text)};
  };
  const auto imm = [&](std::size_t i) { return i < n ? ops[i].value : 0; };
  switch (op) {
    case Opcode::kLi: return Instruction::li(reg(0), imm(1));
    case Opcode::kMov: return Instruction::mov(reg(0), reg(1));
    case Opcode::kFMa: return Instruction::fma(reg(0), reg(1), reg(2), reg(3));
    case Opcode::kLoad:
    case Opcode::kLoadU:
      return Instruction::load(reg(0), mem(1), op == Opcode::kLoadU);
    case Opcode::kStore:
    case Opcode::kStoreU:
      return Instruction::store(mem(0), reg(1), op == Opcode::kStoreU);
    case Opcode::kCmp: return Instruction::cmp(reg(0), reg(1), imm(2));
    case Opcode::kBt:
    case Opcode::kBf:
      return Instruction::branch(op, reg(0), std::string(ops[1].text));
    case Opcode::kB: return Instruction::jump(std::string(ops[0].text));
    case Opcode::kNop: return Instruction::nop();
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
    case Opcode::kFDiv:
      if (n >= 3 && ops[2].kind == Operand::kReg) {
        return Instruction::alu(op, reg(0), reg(1), reg(2));
      }
      return Instruction::alu_imm(op, reg(0), reg(1), imm(2));
  }
  diag.error = "unhandled opcode";
  return std::nullopt;
}

struct ParseFailure {
  int line = 0;  // 0: the program holds no instruction or block
  std::string why;
};

/// The parse core, one pass over `text`.  Fills `prog` or returns why not.
std::optional<ParseFailure> parse(std::string_view text, Program& prog) {
  int line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    line = trim(line.substr(0, std::min(line.find('#'), line.find(';'))));
    if (line.empty()) continue;

    if (line.substr(0, 6) == "block ") {
      std::string_view label = trim(line.substr(6));
      if (!label.empty() && label.back() == ':') label.remove_suffix(1);
      if (label.empty()) return ParseFailure{line_no, "block needs a label"};
      prog.blocks.push_back(BasicBlock{std::string(label), {}});
      continue;
    }
    if (prog.blocks.empty()) prog.blocks.push_back(BasicBlock{"entry", {}});

    // Mnemonic, then comma-separated operands; empty operands are skipped.
    const std::size_t sp = line.find_first_of(" \t");
    const std::string_view mnemonic = line.substr(0, sp);
    const std::optional<Opcode> op = find_opcode(mnemonic);
    if (!op) {
      return ParseFailure{line_no,
                          "unknown opcode: " + std::string(mnemonic)};
    }
    Diagnosis diag;
    std::array<Operand, 4> ops;  // no form reads past operand 3
    std::size_t n = 0;
    if (sp != std::string_view::npos) {
      for (std::string_view rest = line.substr(sp + 1);;) {
        const std::size_t comma = rest.find(',');
        const std::string_view tok = trim(rest.substr(0, comma));
        if (!tok.empty()) {
          const Operand operand = parse_operand(tok, diag);
          if (!diag.error.empty()) return ParseFailure{line_no, diag.error};
          if (n < ops.size()) ops[n] = operand;
          ++n;
        }
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
    }
    std::optional<Instruction> inst = assemble(*op, ops, n, diag);
    if (!inst) {
      return ParseFailure{line_no,
                          diag.error.empty() ? diag.strict : diag.error};
    }
    prog.blocks.back().insts.push_back(std::move(*inst));
  }
  if (prog.blocks.empty()) return ParseFailure{0, "empty program"};
  return std::nullopt;
}

}  // namespace

Program parse_program(const std::string& text) {
  Program prog;
  if (const std::optional<ParseFailure> failure = parse(text, prog)) {
    AIS_CHECK(failure->line > 0, failure->why);
    panic("asm", failure->line, "parse error: " + failure->why);
  }
  return prog;
}

BasicBlock parse_block(const std::string& text) {
  Program prog = parse_program(text);
  AIS_CHECK(prog.blocks.size() == 1, "expected exactly one block");
  return std::move(prog.blocks[0]);
}

std::optional<Program> parse_program_or_error(const std::string& text,
                                              std::string* error) {
  Program prog;
  if (const std::optional<ParseFailure> failure = parse(text, prog)) {
    *error = failure->line > 0
                 ? "line " + std::to_string(failure->line) + ": " + failure->why
                 : failure->why;
    return std::nullopt;
  }
  return prog;
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
