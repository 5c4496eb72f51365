#include "workloads/random_graphs.hpp"

#include <string>

#include "support/assert.hpp"

namespace ais {
namespace {

int random_latency(Prng& prng, const RandomBlockParams& p) {
  if (p.max_latency <= 1) {
    return prng.chance(p.latency1_prob) ? 1 : 0;
  }
  return static_cast<int>(prng.uniform(0, p.max_latency));
}

/// Adds `params.num_nodes` nodes for one block and its intra-block edges;
/// returns the ids added.
std::vector<NodeId> add_block(DepGraph& g, Prng& prng,
                              const RandomBlockParams& params, int block) {
  AIS_CHECK(params.num_nodes >= 1, "block needs at least one node");
  std::vector<NodeId> ids;
  std::vector<int> layer(static_cast<std::size_t>(params.num_nodes), 0);
  const std::string prefix = "b" + std::to_string(block) + "n";
  for (int i = 0; i < params.num_nodes; ++i) {
    ids.push_back(g.add_node(prefix + std::to_string(i), 1, 0, block));
    if (params.layers > 0) {
      layer[static_cast<std::size_t>(i)] =
          i * params.layers / params.num_nodes;
    }
  }
  for (int i = 0; i < params.num_nodes; ++i) {
    for (int j = i + 1; j < params.num_nodes; ++j) {
      if (params.layers > 0 &&
          layer[static_cast<std::size_t>(j)] !=
              layer[static_cast<std::size_t>(i)] + 1) {
        continue;
      }
      if (prng.chance(params.edge_prob)) {
        g.add_edge(ids[static_cast<std::size_t>(i)],
                   ids[static_cast<std::size_t>(j)],
                   random_latency(prng, params));
      }
    }
  }
  return ids;
}

}  // namespace

DepGraph random_block(Prng& prng, const RandomBlockParams& params, int block) {
  DepGraph g;
  g.reserve(static_cast<std::size_t>(params.num_nodes));
  add_block(g, prng, params, block);
  return g;
}

DepGraph random_trace(Prng& prng, const RandomTraceParams& params) {
  AIS_CHECK(params.num_blocks >= 1, "trace needs at least one block");
  DepGraph g;
  g.reserve(static_cast<std::size_t>(params.num_blocks) *
            static_cast<std::size_t>(params.block.num_nodes));
  std::vector<std::vector<NodeId>> blocks;
  for (int b = 0; b < params.num_blocks; ++b) {
    blocks.push_back(add_block(g, prng, params.block, b));
  }
  for (int b = 0; b + 1 < params.num_blocks; ++b) {
    for (int k = 0; k < params.cross_edges; ++k) {
      const NodeId from =
          blocks[static_cast<std::size_t>(b)]
                [prng.index(blocks[static_cast<std::size_t>(b)].size())];
      const NodeId to =
          blocks[static_cast<std::size_t>(b) + 1]
                [prng.index(blocks[static_cast<std::size_t>(b) + 1].size())];
      g.add_edge(from, to, random_latency(prng, params.block));
    }
  }
  return g;
}

DepGraph random_loop(Prng& prng, const RandomLoopParams& params) {
  DepGraph g;
  g.reserve(static_cast<std::size_t>(params.block.num_nodes));
  const std::vector<NodeId> ids = add_block(g, prng, params.block, 0);
  for (int k = 0; k < params.carried_edges; ++k) {
    const NodeId from = ids[prng.index(ids.size())];
    const NodeId to = ids[prng.index(ids.size())];
    g.add_edge(from, to, random_latency(prng, params.block), /*distance=*/1);
  }
  return g;
}

DepGraph random_timed_loop(Prng& prng, const MachineModel& machine,
                           int num_nodes, int carried_edges) {
  AIS_CHECK(num_nodes >= 1, "loop needs at least one node");
  DepGraph g;
  g.reserve(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    g.add_node("n" + std::to_string(i), static_cast<int>(prng.uniform(1, 4)),
               static_cast<int>(prng.index(
                   static_cast<std::size_t>(machine.num_fu_classes()))));
  }
  const auto n = static_cast<NodeId>(num_nodes);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (prng.chance(0.3)) {
        g.add_edge(i, j, static_cast<int>(prng.uniform(0, 6)));
      }
    }
  }
  for (int k = 0; k < carried_edges; ++k) {
    const auto from = static_cast<NodeId>(prng.index(n));
    const auto to = static_cast<NodeId>(prng.index(n));
    g.add_edge(from, to, static_cast<int>(prng.uniform(0, 6)),
               static_cast<int>(prng.uniform(1, 3)));
  }
  return g;
}

DepGraph random_machine_block(Prng& prng, const MachineModel& machine,
                              int num_nodes, double edge_prob, int block) {
  DepGraph g;
  g.reserve(static_cast<std::size_t>(num_nodes));
  // Realistic opcode mix: mostly ALU, a fair share of loads, some FP and
  // stores, occasional multiplies.
  static constexpr OpClass kMix[] = {
      OpClass::kIntAlu, OpClass::kIntAlu, OpClass::kIntAlu, OpClass::kIntAlu,
      OpClass::kLoad,   OpClass::kLoad,   OpClass::kStore,  OpClass::kFpAdd,
      OpClass::kFpMul,  OpClass::kIntMul, OpClass::kCompare, OpClass::kMove,
  };
  std::vector<NodeId> ids;
  std::vector<OpClass> cls;
  for (int i = 0; i < num_nodes; ++i) {
    const OpClass op = kMix[prng.index(std::size(kMix))];
    const OpTiming& t = machine.timing(op);
    ids.push_back(g.add_node(std::string(op_class_name(op)) + "#" +
                                 std::to_string(i),
                             t.exec_time, t.fu_class, block));
    cls.push_back(op);
  }
  for (int i = 0; i < num_nodes; ++i) {
    for (int j = i + 1; j < num_nodes; ++j) {
      if (prng.chance(edge_prob)) {
        // True dependence: the producer's forwarding latency.
        g.add_edge(ids[static_cast<std::size_t>(i)],
                   ids[static_cast<std::size_t>(j)],
                   machine.timing(cls[static_cast<std::size_t>(i)]).latency);
      }
    }
  }
  return g;
}

DepGraph random_machine_trace(Prng& prng, const MachineModel& machine,
                              int num_blocks, int nodes_per_block,
                              double edge_prob, int cross_edges) {
  DepGraph g;
  g.reserve(static_cast<std::size_t>(num_blocks) *
            static_cast<std::size_t>(nodes_per_block));
  std::vector<std::pair<NodeId, NodeId>> block_spans;
  for (int b = 0; b < num_blocks; ++b) {
    const NodeId first = static_cast<NodeId>(g.num_nodes());
    DepGraph piece =
        random_machine_block(prng, machine, nodes_per_block, edge_prob, b);
    for (NodeId id = 0; id < piece.num_nodes(); ++id) {
      const NodeInfo& n = piece.node(id);
      g.add_node(n.name, n.exec_time, n.fu_class, n.block);
    }
    for (const DepEdge& e : piece.edges()) {
      g.add_edge(first + e.from, first + e.to, e.latency, e.distance);
    }
    block_spans.emplace_back(first, static_cast<NodeId>(g.num_nodes()));
  }
  for (int b = 0; b + 1 < num_blocks; ++b) {
    const auto [f0, l0] = block_spans[static_cast<std::size_t>(b)];
    const auto [f1, l1] = block_spans[static_cast<std::size_t>(b) + 1];
    for (int k = 0; k < cross_edges; ++k) {
      const NodeId from =
          f0 + static_cast<NodeId>(prng.index(static_cast<std::size_t>(l0 - f0)));
      const NodeId to =
          f1 + static_cast<NodeId>(prng.index(static_cast<std::size_t>(l1 - f1)));
      // Latency of the producing node's class is not recoverable here; use
      // a representative load-to-use latency.
      g.add_edge(from, to, machine.timing(OpClass::kLoad).latency);
    }
  }
  return g;
}

DepGraph boundary_trace(Prng& prng, const BoundaryTraceParams& params) {
  AIS_CHECK(params.num_blocks >= 2, "boundary trace needs >= 2 blocks");
  DepGraph g;
  g.reserve(static_cast<std::size_t>(params.num_blocks) *
            static_cast<std::size_t>(2 + params.chain_len +
                                     params.independents));
  NodeId prev_producer = kInvalidNode;
  for (int b = 0; b < params.num_blocks; ++b) {
    const std::string tag = "b" + std::to_string(b);
    // Consumer of the previous block's producer, heading a dependent chain.
    const NodeId consumer = g.add_node(tag + ".c", 1, 0, b);
    if (prev_producer != kInvalidNode) {
      g.add_edge(prev_producer, consumer, params.boundary_latency);
    }
    NodeId chain = consumer;
    for (int k = 0; k < params.chain_len; ++k) {
      const NodeId next = g.add_node(tag + ".d" + std::to_string(k), 1, 0, b);
      g.add_edge(chain, next, 1);
      chain = next;
    }
    // Independent filler; a random subset feeds the block's producer so the
    // instances are not all isomorphic (program order stays topological).
    std::vector<NodeId> fillers;
    for (int k = 0; k < params.independents; ++k) {
      fillers.push_back(g.add_node(tag + ".u" + std::to_string(k), 1, 0, b));
    }
    // The long-latency producer feeding the next block.
    prev_producer = g.add_node(tag + ".p", 1, 0, b);
    for (const NodeId u : fillers) {
      if (prng.chance(0.3)) g.add_edge(u, prev_producer, 0);
    }
  }
  return g;
}

}  // namespace ais
