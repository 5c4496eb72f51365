// The independent verifier, tested three ways: cross-certification of the
// two dependence analyses (verify/ir_deps vs ir/depbuild) on random
// programs, unit tests of every lint rule, and mutation testing — corrupted
// schedules must be rejected with the *specific* diagnostic code for the
// invariant they break.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/bruteforce.hpp"
#include "core/deadlines.hpp"
#include "core/legality.hpp"
#include "core/lookahead.hpp"
#include "core/merge.hpp"
#include "core/rank.hpp"
#include "driver/anticipatory.hpp"
#include "ir/asm_parser.hpp"
#include "ir/depbuild.hpp"
#include "machine/machine_model.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/prng.hpp"
#include "verify/ir_deps.hpp"
#include "verify/lint.hpp"
#include "verify/schedule_check.hpp"
#include "verify/verify.hpp"
#include "workloads/random_ir.hpp"

namespace ais {
namespace {

using verify::Report;
using verify::derive_trace_deps;

// A two-block trace with true, anti, output, memory and control
// dependences: B2's ST -> LD pair (same tag) carries a memory dependence,
// and the final ADD overwrites r1 (read earlier -> anti, written by the
// LI -> output).
const char* kTwoBlock = R"(
block B1:
  LI  r1, 8
  ADD r2, r1, r1
  LD  r3, a[r2+0]
  CMP c1, r3, 0
  SHL r4, r3, 1
  BT  c1, B2
block B2:
  MUL r5, r4, r3
  ADD r6, r5, r1
  ST  a[r2+8], r6
  LD  r8, a[r2+16]
  SUB r7, r6, r4
  ADD r1, r7, r7
)";

Trace parse_trace(const char* text) { return Trace{parse_program(text).blocks}; }

using EdgeSet = std::set<std::tuple<int, int, int>>;

EdgeSet depbuild_edges(const DepGraph& g) {
  EdgeSet out;
  for (const DepEdge& e : g.edges()) {
    if (e.distance == 0) {
      out.insert({static_cast<int>(e.from), static_cast<int>(e.to), e.latency});
    }
  }
  return out;
}

EdgeSet derived_edges(const std::vector<verify::IrDep>& deps) {
  // depbuild dedups by (from, to) keeping the max latency; collapse the
  // per-kind dependences the same way before comparing.
  std::map<std::pair<int, int>, int> strongest;
  for (const verify::IrDep& d : deps) {
    auto [it, inserted] = strongest.emplace(std::make_pair(d.from, d.to),
                                            d.latency);
    if (!inserted) it->second = std::max(it->second, d.latency);
  }
  EdgeSet out;
  for (const auto& [pair, latency] : strongest) {
    out.insert({pair.first, pair.second, latency});
  }
  return out;
}

// ---- Cross-certification: two dependence analyses, one answer ------------

TEST(IrDeps, AgreesWithDepbuildOnRandomPrograms) {
  Prng prng(0xfee1);
  for (const auto make : {scalar01, rs6000_like, deep_pipeline, vliw4}) {
    const MachineModel machine = make();
    for (int trial = 0; trial < 12; ++trial) {
      RandomIrParams params;
      params.num_insts = static_cast<int>(prng.uniform(3, 12));
      const int blocks = static_cast<int>(prng.uniform(1, 4));
      const Trace trace = random_ir_trace(prng, params, blocks);
      const DepGraph g = build_trace_graph(trace, machine);
      EXPECT_EQ(depbuild_edges(g), derived_edges(derive_trace_deps(
                                       trace, machine)))
          << machine.name() << " trial " << trial;
    }
  }
}

TEST(IrDeps, AgreesWithDepbuildWithoutMemoryDisambiguation) {
  Prng prng(0xfee2);
  const MachineModel machine = rs6000_like();
  DepBuildOptions opts;
  opts.disambiguate_memory = false;
  for (int trial = 0; trial < 12; ++trial) {
    RandomIrParams params;
    params.num_insts = static_cast<int>(prng.uniform(4, 10));
    params.mem_frac = 0.6;
    const Trace trace = random_ir_trace(prng, params, 2);
    const DepGraph g = build_trace_graph(trace, machine, opts);
    EXPECT_EQ(depbuild_edges(g),
              derived_edges(derive_trace_deps(trace, machine, false)))
        << "trial " << trial;
  }
}

TEST(IrDeps, FixtureCarriesEveryDependenceKind) {
  const Trace trace = parse_trace(kTwoBlock);
  const auto deps = derive_trace_deps(trace, rs6000_like());
  std::set<verify::DepKind> kinds;
  for (const verify::IrDep& d : deps) kinds.insert(d.kind);
  EXPECT_TRUE(kinds.count(verify::DepKind::kTrue));
  EXPECT_TRUE(kinds.count(verify::DepKind::kAnti));
  EXPECT_TRUE(kinds.count(verify::DepKind::kOutput));
  EXPECT_TRUE(kinds.count(verify::DepKind::kMemory));
  EXPECT_TRUE(kinds.count(verify::DepKind::kControl));
}

TEST(IrDeps, GraphFromIrMatchesTraceShape) {
  const Trace trace = parse_trace(kTwoBlock);
  const MachineModel machine = rs6000_like();
  const DepGraph g =
      verify::graph_from_ir(trace, machine, derive_trace_deps(trace, machine));
  ASSERT_EQ(g.num_nodes(), trace.num_insts());
  EXPECT_EQ(g.node(0).block, 0);
  EXPECT_EQ(g.node(g.num_nodes() - 1).block, 1);
  // Same pair set as depbuild's graph (latencies collapse identically).
  EXPECT_EQ(depbuild_edges(g),
            depbuild_edges(build_trace_graph(trace, machine)));
}

// ---- Lint rules ----------------------------------------------------------

TEST(Report, MergedFindingIsCountedOnce) {
  obs::set_enabled(true);
  const obs::Counter* counter =
      obs::MetricRegistry::global().counter("verify.diag.merge-test");
  const std::uint64_t before = counter->value();
  Report check;
  check.warning("merge-test", "one finding");
  Report pass;
  pass.merge(check);
  Report whole;
  whole.error("other-test", "another finding");
  whole.merge(pass);
  obs::set_enabled(false);

  EXPECT_EQ(counter->value() - before, obs::kHooksCompiledIn ? 1u : 0u);
  ASSERT_EQ(whole.diagnostics().size(), 2u);
  EXPECT_EQ(whole.diagnostics()[1].code, "merge-test");
  EXPECT_EQ(whole.num_errors(), 1u);
  EXPECT_EQ(whole.num_warnings(), 1u);
  EXPECT_EQ(pass.num_warnings(), 1u);
  EXPECT_TRUE(pass.ok());
}

TEST(Lint, CleanProgramHasNoErrors) {
  const Report r = verify::lint_program(parse_program(kTwoBlock));
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Lint, BranchNotLastIsAnError) {
  Program prog;
  BasicBlock bb;
  bb.label = "e";
  bb.insts.push_back(Instruction::cmp(cr(1), gpr(1)));
  bb.insts.push_back(Instruction::branch(Opcode::kBt, cr(1), "e"));
  bb.insts.push_back(Instruction::alu(Opcode::kAdd, gpr(2), gpr(1), gpr(1)));
  prog.blocks.push_back(bb);
  const Report r = verify::lint_program(prog);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("branch-position")) << r.to_string();
}

TEST(Lint, ConditionalBranchWithoutConditionIsAnError) {
  Program prog;
  BasicBlock bb;
  bb.label = "e";
  Instruction bt;
  bt.op = Opcode::kBt;
  bt.target = "e";
  bb.insts.push_back(bt);
  prog.blocks.push_back(bb);
  const Report r = verify::lint_program(prog);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("branch-operand")) << r.to_string();
}

TEST(Lint, UnconditionalBranchWithOperandIsAnError) {
  Program prog;
  BasicBlock bb;
  bb.label = "e";
  Instruction b;
  b.op = Opcode::kB;
  b.uses.push_back(cr(0));
  b.target = "e";
  bb.insts.push_back(b);
  prog.blocks.push_back(bb);
  const Report r = verify::lint_program(prog);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("branch-operand")) << r.to_string();
}

TEST(Lint, BranchWithoutTargetIsAnError) {
  Program prog;
  BasicBlock bb;
  bb.label = "e";
  Instruction b;
  b.op = Opcode::kB;
  bb.insts.push_back(b);
  prog.blocks.push_back(bb);
  const Report r = verify::lint_program(prog);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("branch-no-target")) << r.to_string();
}

TEST(Lint, DuplicateLabelIsAnError) {
  const Report r = verify::lint_program(parse_program(R"(
block L:
  LI r1, 1
block L:
  LI r2, 2
)"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("duplicate-label")) << r.to_string();
}

TEST(Lint, UnknownBranchTargetIsOnlyAWarning) {
  const Report r = verify::lint_program(parse_program(R"(
block e:
  CMP c1, r1, 0
  BT  c1, elsewhere
)"));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(r.has("branch-target-unknown"));
}

TEST(Lint, UnreachableBlockIsAWarning) {
  // entry jumps unconditionally over `skipped`; unconditional branches do
  // not fall through.
  const Report r = verify::lint_program(parse_program(R"(
block entry:
  B join
block skipped:
  LI r1, 1
block join:
  LI r2, 2
)"));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(r.has("unreachable-block"));
}

TEST(Lint, UseBeforeDefIsAWarning) {
  const Report r = verify::lint_program(parse_program(R"(
block e:
  ADD r2, r1, r1
  LI  r1, 3
)"));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(r.has("use-before-def"));
}

TEST(Lint, DeadWriteIsAWarningWithinABlock) {
  const Report r = verify::lint_program(parse_program(R"(
block e:
  LI r1, 1
  LI r1, 2
  ADD r2, r1, r1
)"));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(r.has("dead-write"));
}

TEST(Lint, WritesOnDifferentBlocksAreNotDead) {
  // The two writes may sit on mutually exclusive paths — no warning.
  const Report r = verify::lint_program(parse_program(R"(
block a:
  LI r1, 1
block b:
  LI r1, 2
  ADD r2, r1, r1
)"));
  EXPECT_FALSE(r.has("dead-write")) << r.to_string();
}

TEST(Lint, EmptyBlockIsAWarning) {
  Program prog;
  prog.blocks.push_back(BasicBlock{"empty", {}});
  const Report r = verify::lint_program(prog);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.has("empty-block")) << r.to_string();
}

// ---- Mutation testing: emitted-code invariants ---------------------------
//
// Each mutation corrupts a correct compilation in one specific way; the
// verifier must reject it *with the code naming that invariant*.

class EmittedMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    original_ = parse_trace(kTwoBlock);
    mutated_ = original_;  // identity compilation is legal (source order)
  }

  Report check() const {
    return verify::check_emitted(original_, mutated_, rs6000_like());
  }

  void expect_rejected(const char* code) const {
    const Report r = check();
    EXPECT_FALSE(r.ok()) << "mutation was accepted";
    EXPECT_TRUE(r.has(code)) << "expected '" << code << "', got:\n"
                             << r.to_string();
  }

  Trace original_;
  Trace mutated_;
};

TEST_F(EmittedMutation, IdentityIsAccepted) {
  const Report r = check();
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST_F(EmittedMutation, SwappedTrueDependenceIsRejected) {
  // ADD r2 (producer) after LD r3, a[r2] (consumer).
  std::swap(mutated_.blocks[0].insts[1], mutated_.blocks[0].insts[2]);
  expect_rejected("dep-order");
}

TEST_F(EmittedMutation, ReversedBlockIsRejected) {
  auto& insts = mutated_.blocks[1].insts;
  std::reverse(insts.begin(), insts.end());
  expect_rejected("dep-order");
}

TEST_F(EmittedMutation, SwappedMemoryDependenceIsRejected) {
  // ST a[r2+8] and LD r8, a[r2+16] share tag `a`: store -> load ordering.
  std::swap(mutated_.blocks[1].insts[2], mutated_.blocks[1].insts[3]);
  expect_rejected("dep-order");
}

TEST_F(EmittedMutation, InstructionMovedToNextBlockIsRejected) {
  // SHL r4 hoisted out of B1 into B2: cross-block motion is exactly what
  // anticipatory scheduling exists to avoid.
  auto& b1 = mutated_.blocks[0].insts;
  auto& b2 = mutated_.blocks[1].insts;
  b2.insert(b2.begin(), b1[4]);
  b1.erase(b1.begin() + 4);
  expect_rejected("cross-block-motion");
}

TEST_F(EmittedMutation, InstructionMovedToPreviousBlockIsRejected) {
  // MUL r5 pulled up into B1 (before the branch).
  auto& b1 = mutated_.blocks[0].insts;
  auto& b2 = mutated_.blocks[1].insts;
  b1.insert(b1.begin() + 5, b2[0]);
  b2.erase(b2.begin());
  expect_rejected("cross-block-motion");
}

TEST_F(EmittedMutation, DroppedInstructionIsRejected) {
  mutated_.blocks[1].insts.pop_back();
  expect_rejected("block-structure");
}

TEST_F(EmittedMutation, DuplicatedInstructionIsRejected) {
  auto& insts = mutated_.blocks[1].insts;
  insts.push_back(insts[1]);
  expect_rejected("block-structure");
}

TEST_F(EmittedMutation, ForeignInstructionIsRejected) {
  mutated_.blocks[0].insts[0] =
      Instruction::alu(Opcode::kXor, gpr(9), gpr(9), gpr(9));
  expect_rejected("block-structure");
}

TEST_F(EmittedMutation, RenamedLabelIsRejected) {
  mutated_.blocks[1].label = "BX";
  expect_rejected("block-structure");
}

TEST_F(EmittedMutation, DroppedBlockIsRejected) {
  mutated_.blocks.pop_back();
  expect_rejected("block-structure");
}

TEST_F(EmittedMutation, BranchMovedOffTheEndIsRejected) {
  // BT hoisted to the top of B1.
  auto& insts = mutated_.blocks[0].insts;
  std::rotate(insts.begin(), insts.end() - 1, insts.end());
  expect_rejected("branch-position");
}

TEST_F(EmittedMutation, InstructionAfterBranchIsRejected) {
  std::swap(mutated_.blocks[0].insts[4], mutated_.blocks[0].insts[5]);
  expect_rejected("branch-position");
}

// ---- Mutation testing: planning-permutation invariants -------------------

class PlanningMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = parse_trace(kTwoBlock);
    scheduled_ = schedule(trace_, rs6000_like(), /*window=*/2);
  }

  const DepGraph& graph() const { return scheduled_.graph; }

  Trace trace_;
  ScheduledTrace scheduled_{};
};

TEST_F(PlanningMutation, ProductionOutputIsAccepted) {
  const Report r =
      verify::check_planning(graph(), scheduled_.detail.order,
                             scheduled_.detail.per_block, scheduled_.window);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST_F(PlanningMutation, MissingNodeIsRejected) {
  auto order = scheduled_.detail.order;
  order.pop_back();
  const Report r = verify::check_order(graph(), order);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("order-coverage")) << r.to_string();
}

TEST_F(PlanningMutation, DuplicatedNodeIsRejected) {
  auto order = scheduled_.detail.order;
  order[order.size() - 1] = order[0];
  const Report r = verify::check_order(graph(), order);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("order-coverage")) << r.to_string();
}

TEST_F(PlanningMutation, ReversedOrderIsRejected) {
  auto order = scheduled_.detail.order;
  std::reverse(order.begin(), order.end());
  const Report r = verify::check_order(graph(), order);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("dep-order")) << r.to_string();
}

TEST_F(PlanningMutation, WindowOverrunIsRejected) {
  // A block-1 node ahead of all six block-0 nodes: the inversion spans 7,
  // far beyond W = 2.  (Dependences are ignored here on purpose — the
  // window check is independent of them.)
  std::vector<NodeId> perm;
  perm.push_back(6);
  for (NodeId id = 0; id < graph().num_nodes(); ++id) {
    if (id != 6) perm.push_back(id);
  }
  const Report r = verify::check_window(graph(), perm, /*window=*/2);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("window-span")) << r.to_string();
}

TEST_F(PlanningMutation, SpanExactlyWindowIsAccepted) {
  // One block-1 node one slot early: span 2 fits W = 2 but not W = 1.
  std::vector<NodeId> perm;
  for (NodeId id = 0; id < graph().num_nodes(); ++id) perm.push_back(id);
  std::swap(perm[5], perm[6]);  // last B1 node after first B2 node
  EXPECT_TRUE(verify::check_window(graph(), perm, 2).ok());
  const Report r = verify::check_window(graph(), perm, 1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("window-span")) << r.to_string();
}

TEST_F(PlanningMutation, SwappedPerBlockListsAreRejected) {
  auto per_block = scheduled_.detail.per_block;
  std::swap(per_block[0], per_block[1]);
  const Report r = verify::check_planning(graph(), scheduled_.detail.order,
                                          per_block, scheduled_.window);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("subpermutation")) << r.to_string();
}

TEST_F(PlanningMutation, ReorderedSubpermutationIsRejected) {
  auto per_block = scheduled_.detail.per_block;
  ASSERT_GE(per_block[1].size(), 2u);
  std::swap(per_block[1][0], per_block[1][1]);
  const Report r = verify::check_planning(graph(), scheduled_.detail.order,
                                          per_block, scheduled_.window);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("subpermutation")) << r.to_string();
}

// ---- Mutation testing: timed-schedule invariants -------------------------

class ScheduleMutation : public ::testing::Test {
 protected:
  ScheduleMutation() {
    // A (int) -> B (int, latency 2); C is floating-point.
    a_ = g_.add_node("A", 1, /*fu_class=*/0, 0);
    b_ = g_.add_node("B", 1, /*fu_class=*/0, 0);
    c_ = g_.add_node("C", 1, /*fu_class=*/1, 0);
    g_.add_edge(a_, b_, /*latency=*/2, 0);
  }

  DepGraph g_;
  NodeId a_ = 0, b_ = 0, c_ = 0;
  MachineModel machine_ = rs6000_like();  // fxu + fpu + bu, issue width 1
};

TEST_F(ScheduleMutation, WellFormedScheduleIsAccepted) {
  Schedule s(&g_, NodeSet::all(3), machine_.total_units());
  s.place(a_, 0, 0);
  s.place(c_, 1, 1);
  s.place(b_, 3, 0);  // completion(A)=1, +2 latency
  const Report r = verify::check_schedule(s, machine_);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST_F(ScheduleMutation, UnplacedNodeIsRejected) {
  Schedule s(&g_, NodeSet::all(3), machine_.total_units());
  s.place(a_, 0, 0);
  const Report r = verify::check_schedule(s, machine_);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("incomplete")) << r.to_string();
}

TEST_F(ScheduleMutation, WrongUnitCountIsRejected) {
  Schedule s(&g_, NodeSet::all(3), machine_.total_units() + 1);
  s.place(a_, 0, 0);
  s.place(c_, 1, 1);
  s.place(b_, 3, 0);
  const Report r = verify::check_schedule(s, machine_);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("unit-count")) << r.to_string();
}

TEST_F(ScheduleMutation, WrongUnitClassIsRejected) {
  Schedule s(&g_, NodeSet::all(3), machine_.total_units());
  s.place(a_, 0, 1);  // integer op on the floating-point unit
  s.place(c_, 1, 1);
  s.place(b_, 3, 0);
  const Report r = verify::check_schedule(s, machine_);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("unit-class")) << r.to_string();
}

TEST_F(ScheduleMutation, IssueWidthOverrunIsRejected) {
  // Two instructions issued in cycle 0 on a single-issue machine.
  Schedule s(&g_, NodeSet::all(3), machine_.total_units());
  s.place(a_, 0, 0);
  s.place(c_, 0, 1);
  s.place(b_, 3, 0);
  const Report r = verify::check_schedule(s, machine_);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("issue-width")) << r.to_string();
}

TEST_F(ScheduleMutation, LatencyViolationIsRejected) {
  Schedule s(&g_, NodeSet::all(3), machine_.total_units());
  s.place(a_, 0, 0);
  s.place(b_, 1, 0);  // needs completion(A) + 2 = 3
  s.place(c_, 2, 1);
  const Report r = verify::check_schedule(s, machine_);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("dep-latency")) << r.to_string();
}

// ---- Mutation testing: Merge's idle-slot-fill invariant ------------------

TEST(MergeFill, DisplacedOldNodeIsRejected) {
  DepGraph g;
  g.add_node("old", 1, 0, 0);
  g.add_node("new", 1, 0, 1);
  Schedule s(&g, NodeSet::all(2), 1);
  // The new-block node takes cycle 0 and pushes the old node to cycle 1 —
  // it displaced the retained suffix instead of filling an idle slot.
  s.place(1, 0, 0);
  s.place(0, 1, 0);
  const NodeSet old_nodes(2, {0});
  const DeadlineMap deadlines = uniform_deadlines(g, 1);  // old cap: cycle 1
  const Report r = verify::check_merge_fill(s, old_nodes, deadlines,
                                            /*t_old=*/1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("merge-displaced")) << r.to_string();
}

TEST(MergeFill, UnplacedOldNodeIsRejected) {
  DepGraph g;
  g.add_node("old", 1, 0, 0);
  Schedule s(&g, NodeSet::all(1), 1);
  const NodeSet old_nodes(1, {0});
  const Report r = verify::check_merge_fill(s, old_nodes,
                                            uniform_deadlines(g, 5), 5);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("incomplete")) << r.to_string();
}

TEST(MergeFill, RealMergePreservesTheInvariant) {
  // Procedure Merge itself must never displace the retained suffix: run it
  // on random two-block traces and re-check with the independent oracle.
  Prng prng(0x4aa);
  const MachineModel machine = scalar01();
  for (int trial = 0; trial < 10; ++trial) {
    RandomIrParams params;
    params.num_insts = static_cast<int>(prng.uniform(4, 9));
    const Trace trace = random_ir_trace(prng, params, 2);
    const DepGraph g = build_trace_graph(trace, machine);
    const RankScheduler scheduler(g, machine);
    const auto blocks = blocks_of(g);
    ASSERT_EQ(blocks.size(), 2u);
    const Time huge = huge_deadline(g, NodeSet::all(g.num_nodes()));

    DeadlineMap d = uniform_deadlines(g, huge);
    const RankResult alone = scheduler.run(blocks[0], d, {});
    for (const NodeId id : blocks[0].ids()) d[id] = alone.makespan;
    const MergeResult m = merge_blocks(scheduler, blocks[0], blocks[1], d,
                                       alone.makespan, huge, {});
    const Report r =
        verify::check_merge_fill(m.schedule, blocks[0], d, alone.makespan);
    EXPECT_TRUE(r.ok()) << "trial " << trial << "\n" << r.to_string();
  }
}

// ---- Optimality certificates ---------------------------------------------

TEST(Optimality, ImpossiblyFastCompletionIsAnError) {
  const Trace trace = parse_trace(kTwoBlock);
  const MachineModel machine = scalar01();
  const DepGraph g =
      verify::graph_from_ir(trace, machine, derive_trace_deps(trace, machine));
  // 11 unit-time instructions on one unit cannot finish in 3 cycles.
  const auto cert = verify::certify_trace_completion(g, machine, 4, 3);
  EXPECT_EQ(cert.status,
            verify::OptimalityCertificate::Status::kViolated);
  Report r;
  verify::report_certificate(r, cert);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("optimality")) << r.to_string();
}

TEST(Optimality, BruteforceCertifiesAndBoundsTinyTraces) {
  Prng prng(0x0b7);
  const MachineModel machine = scalar01();
  for (int trial = 0; trial < 6; ++trial) {
    RandomIrParams params;
    params.num_insts = static_cast<int>(prng.uniform(3, 6));
    const Trace trace = random_ir_trace(prng, params, 2);
    const DepGraph g = verify::graph_from_ir(
        trace, machine, derive_trace_deps(trace, machine));
    const Time opt = optimal_trace_completion(g, machine, 3);
    ASSERT_GE(opt, 0);

    // Exactly optimal -> certified note, never an error.
    const auto certified = verify::certify_trace_completion(g, machine, 3, opt);
    EXPECT_EQ(certified.status,
              verify::OptimalityCertificate::Status::kCertified);

    // One cycle worse -> a provable gap: warning, not an error.
    const auto gap = verify::certify_trace_completion(g, machine, 3, opt + 1);
    EXPECT_NE(gap.status, verify::OptimalityCertificate::Status::kViolated);
    Report r;
    verify::report_certificate(r, gap);
    EXPECT_TRUE(r.ok()) << r.to_string();
    if (gap.status == verify::OptimalityCertificate::Status::kSuboptimal) {
      EXPECT_TRUE(r.has("optimality-gap"));
    }
  }
}

// ---- The fast window check against the enumerating one -------------------

TEST(Legality, MaxInversionSpanMatchesEnumeration) {
  Prng prng(0x11f);
  const MachineModel machine = scalar01();
  for (int trial = 0; trial < 20; ++trial) {
    RandomIrParams params;
    params.num_insts = static_cast<int>(prng.uniform(3, 8));
    params.end_with_branch = false;
    const Trace trace =
        random_ir_trace(prng, params, static_cast<int>(prng.uniform(2, 4)));
    const DepGraph g = build_trace_graph(trace, machine);

    // A random shuffle of all nodes (dependences are irrelevant to the
    // window definition).
    std::vector<NodeId> perm;
    for (NodeId id = 0; id < g.num_nodes(); ++id) perm.push_back(id);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[prng.index(i)]);
    }

    std::size_t worst = 0;
    for (const auto& [i, j] : inversions(g, perm)) {
      worst = std::max(worst, j - i + 1);
    }
    EXPECT_EQ(max_inversion_span(g, perm).span, worst) << "trial " << trial;
    if (worst > 0) {
      const int w = static_cast<int>(worst);
      EXPECT_TRUE(window_constraint_ok(g, perm, w));
      EXPECT_FALSE(window_constraint_ok(g, perm, w - 1));
    }
  }
}

// ---- Driver-level wiring -------------------------------------------------

TEST(Driver, VerifyScheduleAcceptsTheProductionCompiler) {
  const Trace trace = parse_trace(kTwoBlock);
  for (const auto make : {scalar01, rs6000_like, deep_pipeline, vliw4}) {
    const MachineModel machine = make();
    const ScheduledTrace scheduled = schedule(trace, machine, 0);
    const Report r = verify_schedule(trace, scheduled, machine,
                                     /*check_optimality=*/true);
    EXPECT_TRUE(r.ok()) << machine.name() << "\n" << r.to_string();
  }
}

TEST(Driver, VerifyScheduleRejectsTamperedOutput) {
  const Trace trace = parse_trace(kTwoBlock);
  const MachineModel machine = rs6000_like();
  ScheduledTrace scheduled = schedule(trace, machine, 0);
  // Tamper with the emitted blocks after the fact.
  std::swap(scheduled.blocks[1].insts[0], scheduled.blocks[1].insts[1]);
  const Report r = verify_schedule(trace, scheduled, machine);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace ais
