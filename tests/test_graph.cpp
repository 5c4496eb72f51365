// Unit tests for the dependence-graph substrate.
#include <gtest/gtest.h>

#include "graph/closure.hpp"
#include "graph/critpath.hpp"
#include "graph/depgraph.hpp"
#include "graph/dot.hpp"
#include "graph/nodeset.hpp"
#include "graph/topo.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_graphs.hpp"

namespace ais {
namespace {

DepGraph diamond() {
  DepGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  const NodeId d = g.add_node("d");
  g.add_edge(a, b, 1);
  g.add_edge(a, c, 0);
  g.add_edge(b, d, 1);
  g.add_edge(c, d, 0);
  return g;
}

TEST(DepGraph, BasicAccessors) {
  DepGraph g = diamond();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.node(0).name, "a");
  EXPECT_EQ(g.find("d"), NodeId{3});
  EXPECT_EQ(g.find("zz"), kInvalidNode);
  EXPECT_FALSE(g.has_carried_edges());
  EXPECT_EQ(g.max_latency(), 1);
  EXPECT_EQ(g.total_work(), 4);
  EXPECT_EQ(g.out_edges(0).size(), 2u);
  EXPECT_EQ(g.in_edges(3).size(), 2u);
}

TEST(DepGraph, NameInterningAndIndex) {
  DepGraph g;
  const NodeId a0 = g.add_node("load_a");
  const NodeId b = g.add_node("store_b");
  const NodeId a1 = g.add_node("load_a");  // duplicate name, distinct node
  EXPECT_EQ(a0, NodeId{0});
  EXPECT_EQ(b, NodeId{1});
  EXPECT_EQ(a1, NodeId{2});

  // Duplicate names intern to the same pooled bytes; ids stay dense.
  EXPECT_EQ(g.name(a0).view(), g.name(a1).view());
  EXPECT_EQ(g.name(a0).c_str(), g.name(a1).c_str());

  // find() resolves through the hash index; duplicates yield the first id.
  EXPECT_EQ(g.find("load_a"), a0);
  EXPECT_EQ(g.find("store_b"), b);
  EXPECT_EQ(g.find("missing"), kInvalidNode);

  // Growth past the initial index capacity keeps every name findable, and
  // NameRef views stay valid (pool storage is stable under growth).
  const NameRef early = g.name(a0);
  for (int i = 0; i < 200; ++i) g.add_node("n" + std::to_string(i));
  EXPECT_EQ(g.find("n0"), NodeId{3});
  EXPECT_EQ(g.find("n199"), NodeId{202});
  EXPECT_EQ(g.find("load_a"), a0);
  EXPECT_EQ(early.view(), "load_a");

  // reserve() sizes the index ahead, rehashing the names already in it.
  g.reserve(1000);
  EXPECT_EQ(g.find("n199"), NodeId{202});
  EXPECT_EQ(g.find("load_a"), a0);
  EXPECT_EQ(g.find("missing"), kInvalidNode);

  // Copies re-intern: same names and find() results, independent storage.
  const DepGraph copy = g;
  EXPECT_EQ(copy.find("n123"), g.find("n123"));
  EXPECT_EQ(copy.name(a1).view(), "load_a");
  EXPECT_NE(copy.name(a0).c_str(), g.name(a0).c_str());
  EXPECT_EQ(copy.name(a0).c_str(), copy.name(a1).c_str());
}

TEST(DepGraph, SoAColumnsMirrorNodeInfo) {
  DepGraph g;
  g.add_node("a", /*exec_time=*/3, /*fu_class=*/1, /*block=*/2);
  g.add_node("b");
  ASSERT_EQ(g.exec_times().size(), 2u);
  EXPECT_EQ(g.exec_times()[0], 3);
  EXPECT_EQ(g.fu_classes()[0], 1);
  EXPECT_EQ(g.blocks()[0], 2);
  EXPECT_EQ(g.exec_times()[1], 1);
  EXPECT_EQ(g.node(0).exec_time, 3);
  EXPECT_EQ(g.node(0).fu_class, 1);
  EXPECT_EQ(g.node(0).block, 2);
}

TEST(DepGraph, CarriedEdgeBookkeeping) {
  DepGraph g = fig3_loop();
  EXPECT_TRUE(g.has_carried_edges());
  EXPECT_EQ(g.max_latency(), 4);
}

TEST(NodeSet, InsertEraseUnion) {
  NodeSet a(10, {1, 3});
  NodeSet b(10, {3, 7});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.contains(3));
  a.erase(3);
  EXPECT_FALSE(a.contains(3));
  const NodeSet u = set_union(a, b);
  EXPECT_EQ(u.ids(), (std::vector<NodeId>{1, 3, 7}));
  EXPECT_EQ(NodeSet::all(4).size(), 4u);
}

TEST(Topo, OrdersRespectEdges) {
  DepGraph g = diamond();
  const auto order = topo_order(g, NodeSet::all(4));
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  for (const DepEdge& e : g.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

TEST(Topo, DetectsCycle) {
  DepGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, 0);
  g.add_edge(b, a, 0);
  EXPECT_FALSE(is_acyclic(g, NodeSet::all(2)));
}

TEST(Topo, CarriedEdgesDoNotFormCycles) {
  DepGraph g = fig3_loop();  // has carried self-loops
  EXPECT_TRUE(is_acyclic(g, NodeSet::all(g.num_nodes())));
}

TEST(Topo, SubsetRestriction) {
  DepGraph g = diamond();
  const auto order = topo_order(g, NodeSet(4, {1, 3}));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<NodeId>{1, 3}));
}

TEST(Closure, DescendantsAreTransitive) {
  DepGraph g = diamond();
  const DescendantClosure closure(g, NodeSet::all(4));
  EXPECT_TRUE(closure.reaches(0, 3));
  EXPECT_TRUE(closure.reaches(0, 1));
  EXPECT_FALSE(closure.reaches(1, 2));
  EXPECT_EQ(closure.descendants(0).count(), 3u);
  EXPECT_EQ(closure.descendants(3).count(), 0u);
}

TEST(Closure, Fig1Descendants) {
  DepGraph g = fig1_bb1();
  const DescendantClosure closure(g, NodeSet::all(g.num_nodes()));
  // x reaches w, b, r, a; e reaches w, b, a (but not r).
  EXPECT_EQ(closure.descendants(g.find("x")).count(), 4u);
  EXPECT_EQ(closure.descendants(g.find("e")).count(), 3u);
  EXPECT_FALSE(closure.reaches(g.find("e"), g.find("r")));
}

TEST(CritPath, LatencyWeightedLongestPath) {
  DepGraph g = diamond();
  const auto len = critical_path_lengths(g, NodeSet::all(4));
  // a -> b (lat 1) -> d (lat 1): 1 + 1 + 1 + 1 + 1 = 5.
  EXPECT_EQ(len[0], 5);
  EXPECT_EQ(len[1], 3);
  EXPECT_EQ(len[2], 1 + 0 + 1);
  EXPECT_EQ(len[3], 1);
  EXPECT_EQ(critical_path(g, NodeSet::all(4)), 5);
}

TEST(Dot, MentionsNodesAndCarriedStyle) {
  const std::string dot = to_dot(fig3_loop(), "fig3");
  EXPECT_NE(dot.find("label=\"L4\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("<4,1>"), std::string::npos);
}

TEST(RandomGraphs, BlockIsAcyclicAndSized) {
  Prng prng(1234);
  RandomBlockParams params;
  params.num_nodes = 20;
  params.edge_prob = 0.3;
  const DepGraph g = random_block(prng, params);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_TRUE(is_acyclic(g, NodeSet::all(20)));
}

TEST(RandomGraphs, LayeredBlockOnlyAdjacentLayers) {
  Prng prng(99);
  RandomBlockParams params;
  params.num_nodes = 12;
  params.edge_prob = 1.0;
  params.layers = 3;
  const DepGraph g = random_block(prng, params);
  EXPECT_TRUE(is_acyclic(g, NodeSet::all(12)));
  EXPECT_GT(g.num_edges(), 0u);
}

TEST(RandomGraphs, TraceHasBlocksAndCrossEdges) {
  Prng prng(5);
  RandomTraceParams params;
  params.num_blocks = 3;
  params.block.num_nodes = 6;
  params.cross_edges = 2;
  const DepGraph g = random_trace(prng, params);
  EXPECT_EQ(g.num_nodes(), 18u);
  int cross = 0;
  for (const DepEdge& e : g.edges()) {
    EXPECT_LE(g.node(e.from).block, g.node(e.to).block);
    if (g.node(e.from).block != g.node(e.to).block) ++cross;
  }
  EXPECT_EQ(cross, 4);
}

TEST(RandomGraphs, LoopHasCarriedEdges) {
  Prng prng(6);
  RandomLoopParams params;
  params.block.num_nodes = 8;
  params.carried_edges = 3;
  const DepGraph g = random_loop(prng, params);
  EXPECT_TRUE(g.has_carried_edges());
  EXPECT_TRUE(is_acyclic(g, NodeSet::all(8)));
}

TEST(RandomGraphs, MachineBlockUsesMachineTimings) {
  Prng prng(77);
  const MachineModel m = vliw4();
  const DepGraph g = random_machine_block(prng, m, 30, 0.2);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    EXPECT_LT(g.node(id).fu_class, m.num_fu_classes());
    EXPECT_GE(g.node(id).exec_time, 1);
  }
  EXPECT_TRUE(is_acyclic(g, NodeSet::all(30)));
}

TEST(RandomGraphs, DeterministicAcrossRuns) {
  Prng p1(42);
  Prng p2(42);
  RandomBlockParams params;
  params.num_nodes = 15;
  const DepGraph a = random_block(p1, params);
  const DepGraph b = random_block(p2, params);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    EXPECT_EQ(a.edge(i).from, b.edge(i).from);
    EXPECT_EQ(a.edge(i).to, b.edge(i).to);
    EXPECT_EQ(a.edge(i).latency, b.edge(i).latency);
  }
}

}  // namespace
}  // namespace ais
