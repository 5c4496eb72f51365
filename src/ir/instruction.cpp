#include "ir/instruction.hpp"

#include <charconv>

#include "support/assert.hpp"

namespace ais {
namespace {

void append_int(std::string& out, std::int64_t value) {
  char buf[24];  // fits INT64_MIN, "-9223372036854775808"
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, end);
}

}  // namespace

void Reg::append_to(std::string& out) const {
  out += cls == RegClass::kGpr   ? 'r'
         : cls == RegClass::kFpr ? 'f'
                                 : 'c';
  append_int(out, idx);
}

std::string Reg::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kLi: return "LI";
    case Opcode::kMov: return "MOV";
    case Opcode::kAdd: return "ADD";
    case Opcode::kSub: return "SUB";
    case Opcode::kAnd: return "AND";
    case Opcode::kOr: return "OR";
    case Opcode::kXor: return "XOR";
    case Opcode::kShl: return "SHL";
    case Opcode::kShr: return "SHR";
    case Opcode::kMul: return "MUL";
    case Opcode::kDiv: return "DIV";
    case Opcode::kLoad: return "LD";
    case Opcode::kLoadU: return "LDU";
    case Opcode::kStore: return "ST";
    case Opcode::kStoreU: return "STU";
    case Opcode::kFAdd: return "FADD";
    case Opcode::kFMul: return "FMUL";
    case Opcode::kFDiv: return "FDIV";
    case Opcode::kFMa: return "FMA";
    case Opcode::kCmp: return "CMP";
    case Opcode::kBt: return "BT";
    case Opcode::kBf: return "BF";
    case Opcode::kB: return "B";
    case Opcode::kNop: return "NOP";
  }
  return "?";
}

OpClass op_class(Opcode op) {
  switch (op) {
    case Opcode::kLi:
    case Opcode::kMov: return OpClass::kMove;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr: return OpClass::kIntAlu;
    case Opcode::kMul: return OpClass::kIntMul;
    case Opcode::kDiv: return OpClass::kIntDiv;
    case Opcode::kLoad:
    case Opcode::kLoadU: return OpClass::kLoad;
    case Opcode::kStore:
    case Opcode::kStoreU: return OpClass::kStore;
    case Opcode::kFAdd: return OpClass::kFpAdd;
    case Opcode::kFMul:
    case Opcode::kFMa: return OpClass::kFpMul;
    case Opcode::kFDiv: return OpClass::kFpDiv;
    case Opcode::kCmp: return OpClass::kCompare;
    case Opcode::kBt:
    case Opcode::kBf:
    case Opcode::kB: return OpClass::kBranch;
    case Opcode::kNop: return OpClass::kNop;
  }
  return OpClass::kNop;
}

bool opcode_is_branch(Opcode op) {
  return op == Opcode::kBt || op == Opcode::kBf || op == Opcode::kB;
}

namespace {

void append_mem(std::string& out, const MemRef& m) {
  out += m.tag;
  out += '[';
  m.base.append_to(out);
  if (m.offset >= 0) out += '+';
  append_int(out, m.offset);
  out += ']';
}

}  // namespace

void Instruction::append_to(std::string& out) const {
  out += opcode_name(op);
  if (is_store()) {
    out += ' ';
    append_mem(out, *mem);
    out += ", ";
    uses[0].append_to(out);
    return;
  }
  if (is_load()) {
    out += ' ';
    defs[0].append_to(out);
    out += ", ";
    append_mem(out, *mem);
    return;
  }
  if (is_branch()) {
    out += ' ';
    if (!uses.empty()) {
      uses[0].append_to(out);
      out += ", ";
    }
    out += target;
    return;
  }
  const char* sep = " ";
  for (const Reg& d : defs) {
    out += sep;
    d.append_to(out);
    sep = ", ";
  }
  for (const Reg& u : uses) {
    out += sep;
    u.append_to(out);
    sep = ", ";
  }
  // Immediate-consuming forms print their constant so the rendering parses
  // back to the same instruction (aisc round-trips its own output).
  const bool imm_form =
      op == Opcode::kLi || op == Opcode::kCmp ||
      (uses.size() == 1 && defs.size() == 1 &&
       (op_class(op) == OpClass::kIntAlu || op_class(op) == OpClass::kIntMul ||
        op_class(op) == OpClass::kIntDiv || op_class(op) == OpClass::kFpAdd ||
        op_class(op) == OpClass::kFpMul || op_class(op) == OpClass::kFpDiv));
  if (imm_form) {
    out += sep;
    append_int(out, imm);
  }
}

std::string Instruction::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

Instruction Instruction::li(Reg d, std::int64_t imm) {
  Instruction i;
  i.op = Opcode::kLi;
  i.defs = {d};
  i.imm = imm;
  return i;
}

Instruction Instruction::mov(Reg d, Reg s) {
  Instruction i;
  i.op = Opcode::kMov;
  i.defs = {d};
  i.uses = {s};
  return i;
}

Instruction Instruction::alu(Opcode op, Reg d, Reg a, Reg b) {
  Instruction i;
  i.op = op;
  i.defs = {d};
  i.uses = {a, b};
  return i;
}

Instruction Instruction::alu_imm(Opcode op, Reg d, Reg a, std::int64_t imm) {
  Instruction i;
  i.op = op;
  i.defs = {d};
  i.uses = {a};
  i.imm = imm;
  return i;
}

Instruction Instruction::load(Reg d, MemRef m, bool update) {
  Instruction i;
  i.op = update ? Opcode::kLoadU : Opcode::kLoad;
  i.defs = {d};
  i.uses = {m.base};
  if (update) i.defs.push_back(m.base);
  i.mem = std::move(m);
  return i;
}

Instruction Instruction::store(MemRef m, Reg s, bool update) {
  Instruction i;
  i.op = update ? Opcode::kStoreU : Opcode::kStore;
  i.uses = {s, m.base};
  if (update) i.defs.push_back(m.base);
  i.mem = std::move(m);
  return i;
}

Instruction Instruction::fma(Reg d, Reg a, Reg b, Reg c) {
  Instruction i;
  i.op = Opcode::kFMa;
  i.defs = {d};
  i.uses = {a, b, c};
  return i;
}

Instruction Instruction::cmp(Reg crd, Reg a, std::int64_t imm) {
  AIS_CHECK(crd.cls == RegClass::kCr, "CMP destination must be a cr");
  Instruction i;
  i.op = Opcode::kCmp;
  i.defs = {crd};
  i.uses = {a};
  i.imm = imm;
  return i;
}

Instruction Instruction::branch(Opcode op, Reg crs, std::string target) {
  AIS_CHECK(op == Opcode::kBt || op == Opcode::kBf,
            "conditional branch opcode expected");
  AIS_CHECK(crs.cls == RegClass::kCr, "branch condition must be a cr");
  Instruction i;
  i.op = op;
  i.uses = {crs};
  i.target = std::move(target);
  return i;
}

Instruction Instruction::jump(std::string target) {
  Instruction i;
  i.op = Opcode::kB;
  i.target = std::move(target);
  return i;
}

Instruction Instruction::nop() { return Instruction{}; }

}  // namespace ais
