// Unit tests for the IR: instructions, the asm parser, and dependence
// analysis — including the Figure 3 graph built *from instructions* and
// checked against the hand-built paper graph.
#include <gtest/gtest.h>

#include <map>

#include "graph/topo.hpp"
#include "ir/asm_parser.hpp"
#include "ir/depbuild.hpp"
#include "ir/instruction.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"

namespace ais {
namespace {

TEST(Instruction, FactoriesSetDefsAndUses) {
  const Instruction add = Instruction::alu(Opcode::kAdd, gpr(1), gpr(2), gpr(3));
  EXPECT_EQ(add.defs, (std::vector<Reg>{gpr(1)}));
  EXPECT_EQ(add.uses, (std::vector<Reg>{gpr(2), gpr(3)}));
  EXPECT_FALSE(add.is_mem());
  EXPECT_EQ(add.to_string(), "ADD r1, r2, r3");

  const Instruction ldu = Instruction::load(gpr(6), {gpr(7), 4, "x"}, true);
  EXPECT_EQ(ldu.op, Opcode::kLoadU);
  EXPECT_TRUE(ldu.is_load());
  // Update form defines both the destination and the base register.
  EXPECT_EQ(ldu.defs, (std::vector<Reg>{gpr(6), gpr(7)}));
  EXPECT_EQ(ldu.to_string(), "LDU r6, x[r7+4]");

  const Instruction st = Instruction::store({gpr(5), 4, "y"}, gpr(0), true);
  EXPECT_TRUE(st.is_store());
  EXPECT_EQ(st.defs, (std::vector<Reg>{gpr(5)}));
  EXPECT_EQ(st.to_string(), "STU y[r5+4], r0");

  const Instruction bt = Instruction::branch(Opcode::kBt, cr(1), "CL.1");
  EXPECT_TRUE(bt.is_branch());
  EXPECT_EQ(bt.to_string(), "BT c1, CL.1");
}

TEST(Instruction, RegToString) {
  EXPECT_EQ(gpr(5).to_string(), "r5");
  EXPECT_EQ(fpr(2).to_string(), "f2");
  EXPECT_EQ(cr(1).to_string(), "c1");
}

TEST(AsmParser, RoundTripsFig3Kernel) {
  const Loop loop = partial_product_kernel();
  ASSERT_EQ(loop.body.blocks.size(), 1u);
  const BasicBlock& bb = loop.body.blocks[0];
  ASSERT_EQ(bb.insts.size(), 5u);
  EXPECT_EQ(bb.label, "CL.18");
  EXPECT_EQ(bb.insts[0].to_string(), "LDU r6, x[r7+4]");
  EXPECT_EQ(bb.insts[1].to_string(), "STU y[r5+4], r0");
  EXPECT_EQ(bb.insts[2].to_string(), "CMP c1, r6, 0");
  EXPECT_EQ(bb.insts[3].to_string(), "MUL r0, r6, r0");
  EXPECT_EQ(bb.insts[4].to_string(), "BT c1, CL.1");
}

TEST(AsmParser, ParsesMultipleBlocksAndComments) {
  const Program prog = parse_program(R"(
    # a comment
    block a:
      LI r1, 7      ; trailing comment
      ADD r2, r1, 1
    block b:
      MOV r3, r2
  )");
  ASSERT_EQ(prog.blocks.size(), 2u);
  EXPECT_EQ(prog.blocks[0].label, "a");
  EXPECT_EQ(prog.blocks[0].insts.size(), 2u);
  EXPECT_EQ(prog.blocks[1].insts.size(), 1u);
}

TEST(AsmParser, ImplicitEntryBlockAndMemoryOperands) {
  const BasicBlock bb = parse_block(R"(
    LD r1, [r2-8]
    ST zone[r3+0], r1
  )");
  EXPECT_EQ(bb.label, "entry");
  ASSERT_EQ(bb.insts.size(), 2u);
  EXPECT_TRUE(bb.insts[0].mem->tag.empty());
  EXPECT_EQ(bb.insts[0].mem->offset, -8);
  EXPECT_EQ(bb.insts[1].mem->tag, "zone");
}

TEST(AsmParser, RejectsMalformedInput) {
  EXPECT_DEATH(parse_program("FROB r1, r2"), "unknown opcode");
  EXPECT_DEATH(parse_program("ADD 5, r1, r2"), "must be a register");
  EXPECT_DEATH(parse_program("LD r1, x[r2+4"), "unterminated memory");
  EXPECT_DEATH(parse_program("BT c1"), "must be a label");
  EXPECT_DEATH(parse_program("block :"), "block needs a label");
  EXPECT_DEATH(parse_program("ST x[nope+0], r1"), "bad memory base");
  // Forms once read leniently: a non-immediate in an immediate position
  // read as 0, trailing junk after an offset, extra operands dropped.
  EXPECT_DEATH(parse_program("LI r1, foo"),
               "asm:1: parse error: operand 1 must be an immediate");
  EXPECT_DEATH(parse_program("CMP c1, r2, bar"),
               "operand 2 must be an immediate");
  EXPECT_DEATH(parse_program("ADD r1, r2, 5x"),
               "operand 2 must be a register or an immediate");
  EXPECT_DEATH(parse_program("LD r1, x[r2+4junk]"), "bad memory offset");
  EXPECT_DEATH(parse_program("ADD r1, r2, r3, r4"),
               "too many operands for ADD: got 4, at most 3");
  EXPECT_DEATH(parse_program("block a:\nNOP r1"),
               "asm:2: parse error: too many operands for NOP");
  // Out-of-range numbers (once a bare libstdc++ "stoi"/"stoll"), and a
  // CMP or branch condition outside the condition registers (once an
  // abort inside the instruction factory).
  EXPECT_DEATH(parse_program("ADD r99999999999, r1, r2"),
               "operand 0 must be a register");
  EXPECT_DEATH(parse_program("LD r1, x[r2+99999999999]"),
               "memory offset out of range");
  EXPECT_DEATH(parse_program("LI r1, 99999999999999999999"),
               "immediate out of range");
  EXPECT_DEATH(parse_program("CMP r1, r2"),
               "operand 0 must be a condition register");
  EXPECT_DEATH(parse_program("BT f1, out"),
               "operand 0 must be a condition register");
}

TEST(AsmParser, RoundTripsRenderedInstructions) {
  // to_string output must parse back to an identical instruction,
  // immediates included.
  const BasicBlock bb = parse_block(R"(
    LI  r1, -42
    SHL r2, r1, 3
    CMP c1, r2, 7
    ADD r3, r1, r2
    LDU r4, x[r7+8]
    STU y[r5+4], r3
  )");
  std::string rendered;
  for (const Instruction& inst : bb.insts) {
    rendered += inst.to_string() + "\n";
  }
  const BasicBlock reparsed = parse_block(rendered);
  ASSERT_EQ(reparsed.insts.size(), bb.insts.size());
  for (std::size_t i = 0; i < bb.insts.size(); ++i) {
    EXPECT_EQ(reparsed.insts[i].op, bb.insts[i].op) << i;
    EXPECT_EQ(reparsed.insts[i].defs, bb.insts[i].defs) << i;
    EXPECT_EQ(reparsed.insts[i].uses, bb.insts[i].uses) << i;
    EXPECT_EQ(reparsed.insts[i].imm, bb.insts[i].imm) << i;
    EXPECT_EQ(reparsed.insts[i].to_string(), bb.insts[i].to_string()) << i;
  }
}

TEST(DepBuild, RawWarWawWithinBlock) {
  const BasicBlock bb = parse_block(R"(
    LD  r1, x[r9+0]
    ADD r2, r1, r1
    ADD r1, r2, r2
  )");
  const DepGraph g = build_block_graph(bb, scalar01());
  ASSERT_EQ(g.num_nodes(), 3u);
  std::map<std::pair<NodeId, NodeId>, int> lat;
  for (const DepEdge& e : g.edges()) lat[{e.from, e.to}] = e.latency;
  // RAW load->add carries the load latency 1.
  ASSERT_TRUE(lat.count({0, 1}));
  EXPECT_EQ((lat[{0, 1}]), 1);
  // RAW add->add latency 0, plus WAR/WAW collapse into the same edge.
  ASSERT_TRUE(lat.count({1, 2}));
  EXPECT_EQ((lat[{1, 2}]), 0);
  // WAW ld->add (both define r1).
  ASSERT_TRUE(lat.count({0, 2}));
}

TEST(DepBuild, MemoryDisambiguationByTag) {
  const BasicBlock bb = parse_block(R"(
    ST a[r1+0], r2
    LD r3, b[r4+0]
    LD r5, a[r6+0]
  )");
  const DepGraph g = build_block_graph(bb, scalar01());
  bool st_to_b = false;
  bool st_to_a = false;
  for (const DepEdge& e : g.edges()) {
    if (e.from == 0 && e.to == 1) st_to_b = true;
    if (e.from == 0 && e.to == 2) st_to_a = true;
  }
  EXPECT_FALSE(st_to_b) << "distinct tags must not conflict";
  EXPECT_TRUE(st_to_a) << "same-tag store->load must conflict";

  DepBuildOptions opts;
  opts.disambiguate_memory = false;
  const DepGraph g2 = build_block_graph(bb, scalar01(), opts);
  EXPECT_GT(g2.num_edges(), g.num_edges());
}

TEST(DepBuild, UntaggedMemoryAliasesEverything) {
  const BasicBlock bb = parse_block(R"(
    ST [r1+0], r2
    LD r3, b[r4+0]
  )");
  const DepGraph g = build_block_graph(bb, scalar01());
  bool conflict = false;
  for (const DepEdge& e : g.edges()) {
    if (e.from == 0 && e.to == 1) conflict = true;
  }
  EXPECT_TRUE(conflict);
}

TEST(DepBuild, ControlDependencesTargetBranch) {
  const BasicBlock bb = parse_block(R"(
    ADD r1, r2, r3
    ADD r4, r5, r6
    CMP c1, r1
    BT  c1, out
  )");
  const DepGraph g = build_block_graph(bb, scalar01());
  // Every non-branch node must have an edge to the branch (node 3).
  for (NodeId id = 0; id < 3; ++id) {
    bool found = false;
    for (const auto eidx : g.out_edges(id)) {
      if (g.edge(eidx).to == 3 && g.edge(eidx).distance == 0) found = true;
    }
    EXPECT_TRUE(found) << "node " << id;
  }

  DepBuildOptions opts;
  opts.control_deps = false;
  const DepGraph g2 = build_block_graph(bb, scalar01(), opts);
  // Without control deps the independent ADD r4 has no path to the branch.
  bool add2_to_bt = false;
  for (const auto eidx : g2.out_edges(1)) {
    if (g2.edge(eidx).to == 3) add2_to_bt = true;
  }
  EXPECT_FALSE(add2_to_bt);
}

TEST(DepBuild, BranchMustBeLast) {
  BasicBlock bb;
  bb.label = "bad";
  bb.insts.push_back(Instruction::jump("x"));
  bb.insts.push_back(Instruction::nop());
  EXPECT_DEATH(build_block_graph(bb, scalar01()), "branch must be the final");
}

TEST(DepBuild, TraceCrossBlockRegisterDependence) {
  const Program prog = parse_program(R"(
    block one:
      LD r1, x[r9+0]
      ADD r2, r1, r1
    block two:
      ADD r3, r2, r2
  )");
  const DepGraph g = build_trace_graph(Trace{prog.blocks}, scalar01());
  EXPECT_EQ(g.node(2).block, 1);
  bool cross = false;
  for (const DepEdge& e : g.edges()) {
    if (g.node(e.from).block == 0 && g.node(e.to).block == 1) cross = true;
  }
  EXPECT_TRUE(cross);
}

TEST(DepBuild, Fig3LoopGraphMatchesPaperGraph) {
  // Build Figure 3 from its *instructions* on the RS/6000-like machine and
  // compare the dependence structure against the hand-reconstructed graph.
  const DepGraph from_ir =
      build_loop_graph(partial_product_kernel(), rs6000_like());
  const DepGraph reference = fig3_loop();

  ASSERT_EQ(from_ir.num_nodes(), reference.num_nodes());
  // Collect edges as (from, to, distance) -> latency maps.
  auto edge_map = [](const DepGraph& g) {
    std::map<std::tuple<NodeId, NodeId, int>, int> m;
    for (const DepEdge& e : g.edges()) {
      auto [it, inserted] = m.emplace(std::make_tuple(e.from, e.to, e.distance),
                                      e.latency);
      if (!inserted) it->second = std::max(it->second, e.latency);
    }
    return m;
  };
  const auto ir_edges = edge_map(from_ir);
  const auto ref_edges = edge_map(reference);

  // Every reference edge must exist with at least the reference latency
  // (the IR analysis may add a few more conservative ordering edges, and
  // derives ST->ST latency 0 where the reference uses the generic 1).
  for (const auto& [key, latency] : ref_edges) {
    const auto& [from, to, distance] = key;
    if (from == to && from == 1) continue;  // ST self-dep latency differs
    const auto it = ir_edges.find(key);
    ASSERT_TRUE(it != ir_edges.end())
        << "missing edge " << from << "->" << to << " d" << distance;
    EXPECT_GE(it->second, latency)
        << "edge " << from << "->" << to << " d" << distance;
  }
  // The critical carried dependences must match exactly.
  EXPECT_EQ((ir_edges.at({3, 1, 1})), 4);  // M -> ST <4,1>
  EXPECT_EQ((ir_edges.at({3, 3, 1})), 4);  // M -> M <4,1>
  EXPECT_EQ((ir_edges.at({0, 0, 1})), 1);  // L4 -> L4 <1,1>
}

TEST(DepBuild, LoopCarriedAccumulator) {
  const DepGraph g = build_loop_graph(dot_kernel(), rs6000_like());
  // FMA accumulates into f0: there must be a carried self-dependence on the
  // FMA node with the FP-multiply latency.
  const NodeId fma = g.find("FMA f0, f1, f2, f0");
  ASSERT_NE(fma, kInvalidNode);
  bool carried_self = false;
  for (const auto eidx : g.out_edges(fma)) {
    const DepEdge& e = g.edge(eidx);
    if (e.to == fma && e.distance == 1 && e.latency == 2) carried_self = true;
  }
  EXPECT_TRUE(carried_self);
}

TEST(DepBuild, AllKernelsProduceValidLoops) {
  for (const auto& [name, loop] : all_loop_kernels()) {
    const DepGraph g = build_loop_graph(loop, rs6000_like());
    EXPECT_GT(g.num_nodes(), 0u) << name;
    EXPECT_TRUE(is_acyclic(g, NodeSet::all(g.num_nodes()))) << name;
    EXPECT_TRUE(g.has_carried_edges()) << name;
  }
}

TEST(DepBuild, SampleTraceHasThreeBlocks) {
  const DepGraph g = build_trace_graph(sample_trace(), rs6000_like());
  int max_block = 0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    max_block = std::max(max_block, g.node(id).block);
  }
  EXPECT_EQ(max_block, 2);
  EXPECT_TRUE(is_acyclic(g, NodeSet::all(g.num_nodes())));
}

}  // namespace
}  // namespace ais
