#include <array>
#include <initializer_list>
#include <string_view>

#include "machine/machine_model.hpp"

namespace ais {
namespace {

/// Applies the same timing to a list of op classes.
void set_all(MachineModel& m, std::initializer_list<OpClass> classes,
             OpTiming t) {
  for (const OpClass cls : classes) m.set_timing(cls, t);
}

/// One memoized preset: the canonical name, accepted aliases, and the
/// built model.
struct PresetEntry {
  std::string_view name;
  std::array<std::string_view, 2> aliases;
  MachineModel model;
};

/// The preset registry.  A single function-local static: [stmt.dcl]/4
/// guarantees exactly-once, race-free initialization even when the first
/// callers are concurrent pool workers (aisd workers, aisprof --jobs),
/// and after initialization every access is a read of const data — no lock
/// needed, nothing for TSan or the thread-safety analysis to flag.
const std::array<PresetEntry, 4>& preset_registry() {
  static const std::array<PresetEntry, 4> kPresets = {{
      {"scalar01", {"", ""}, scalar01()},
      {"rs6000", {"rs6000-like", ""}, rs6000_like()},
      {"deep", {"deep-pipeline", ""}, deep_pipeline()},
      {"vliw4", {"", ""}, vliw4()},
  }};
  return kPresets;
}

}  // namespace

MachineModel scalar01() {
  MachineModel m("scalar01", {{"u", 1}}, /*issue_width=*/1,
                 /*default_window=*/4);
  // Latency-1 producers: loads, compares and multiplies (capped at 1 to stay
  // inside the provably-optimal regime).  Everything else forwards in 0.
  set_all(m, {OpClass::kLoad, OpClass::kCompare, OpClass::kIntMul,
              OpClass::kFpAdd, OpClass::kFpMul},
          OpTiming{0, 1, 1});
  set_all(m, {OpClass::kIntAlu, OpClass::kIntDiv, OpClass::kStore,
              OpClass::kFpDiv, OpClass::kBranch, OpClass::kMove,
              OpClass::kNop},
          OpTiming{0, 1, 0});
  return m;
}

MachineModel rs6000_like() {
  // Fixed-point, floating-point and branch units; single-issue, as in the
  // Fig. 3 schedules (one instruction per cycle).
  MachineModel m("rs6000-like", {{"fxu", 1}, {"fpu", 1}, {"bu", 1}},
                 /*issue_width=*/1, /*default_window=*/6);
  const int kFxu = 0;
  const int kFpu = 1;
  const int kBu = 2;
  m.set_timing(OpClass::kIntAlu, {kFxu, 1, 0});
  m.set_timing(OpClass::kIntMul, {kFxu, 1, 4});  // Fig. 3: MULTIPLY latency 4
  m.set_timing(OpClass::kIntDiv, {kFxu, 1, 19});
  m.set_timing(OpClass::kLoad, {kFxu, 1, 1});    // Fig. 3: LOAD latency 1
  m.set_timing(OpClass::kStore, {kFxu, 1, 0});
  m.set_timing(OpClass::kCompare, {kFxu, 1, 1});  // Fig. 3: COMPARE latency 1
  m.set_timing(OpClass::kFpAdd, {kFpu, 1, 2});
  m.set_timing(OpClass::kFpMul, {kFpu, 1, 2});
  m.set_timing(OpClass::kFpDiv, {kFpu, 1, 17});
  m.set_timing(OpClass::kBranch, {kBu, 1, 0});
  m.set_timing(OpClass::kMove, {kFxu, 1, 0});
  m.set_timing(OpClass::kNop, {kFxu, 1, 0});
  return m;
}

MachineModel deep_pipeline() {
  MachineModel m("deep-pipeline", {{"u", 1}}, /*issue_width=*/1,
                 /*default_window=*/8);
  m.set_timing(OpClass::kIntAlu, {0, 1, 1});
  m.set_timing(OpClass::kIntMul, {0, 1, 4});
  m.set_timing(OpClass::kIntDiv, {0, 4, 4});
  m.set_timing(OpClass::kLoad, {0, 1, 3});
  m.set_timing(OpClass::kStore, {0, 1, 0});
  m.set_timing(OpClass::kCompare, {0, 1, 1});
  m.set_timing(OpClass::kFpAdd, {0, 1, 3});
  m.set_timing(OpClass::kFpMul, {0, 1, 4});
  m.set_timing(OpClass::kFpDiv, {0, 4, 4});
  m.set_timing(OpClass::kBranch, {0, 1, 0});
  m.set_timing(OpClass::kMove, {0, 1, 0});
  m.set_timing(OpClass::kNop, {0, 1, 0});
  return m;
}

MachineModel vliw4() {
  MachineModel m("vliw4", {{"int", 2}, {"mem", 1}, {"fp", 1}},
                 /*issue_width=*/4, /*default_window=*/8);
  const int kInt = 0;
  const int kMem = 1;
  const int kFp = 2;
  m.set_timing(OpClass::kIntAlu, {kInt, 1, 0});
  m.set_timing(OpClass::kIntMul, {kInt, 1, 2});
  m.set_timing(OpClass::kIntDiv, {kInt, 4, 4});
  m.set_timing(OpClass::kLoad, {kMem, 1, 2});
  m.set_timing(OpClass::kStore, {kMem, 1, 0});
  m.set_timing(OpClass::kCompare, {kInt, 1, 1});
  m.set_timing(OpClass::kFpAdd, {kFp, 1, 2});
  m.set_timing(OpClass::kFpMul, {kFp, 1, 3});
  m.set_timing(OpClass::kFpDiv, {kFp, 4, 4});
  m.set_timing(OpClass::kBranch, {kInt, 1, 0});
  m.set_timing(OpClass::kMove, {kInt, 1, 0});
  m.set_timing(OpClass::kNop, {kInt, 1, 0});
  return m;
}

const MachineModel* machine_preset(const std::string& name) {
  for (const PresetEntry& p : preset_registry()) {
    if (name == p.name) return &p.model;
    for (const std::string_view alias : p.aliases) {
      if (!alias.empty() && name == alias) return &p.model;
    }
  }
  return nullptr;
}

std::vector<std::string> machine_preset_names() {
  std::vector<std::string> names;
  for (const PresetEntry& p : preset_registry()) {
    names.emplace_back(p.name);
  }
  return names;
}

}  // namespace ais
