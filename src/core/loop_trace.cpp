#include "core/loop_trace.hpp"

#include "support/assert.hpp"

namespace ais {
namespace {

int num_blocks_of(const DepGraph& g) {
  int num_blocks = 0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    num_blocks = std::max(num_blocks, g.node(id).block + 1);
  }
  return num_blocks;
}

}  // namespace

DepGraph loop_trace_graph(const DepGraph& g) {
  const int num_blocks = num_blocks_of(g);
  DepGraph ext;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const NodeInfo& n = g.node(id);
    ext.add_node(n.name, n.exec_time, n.fu_class, n.block);
  }
  std::vector<NodeId> clone_of(g.num_nodes(), kInvalidNode);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const NodeInfo& n = g.node(id);
    if (n.block == 0) {
      clone_of[id] =
          ext.add_node(n.name + "'", n.exec_time, n.fu_class, num_blocks);
    }
  }
  for (const DepEdge& e : g.edges()) {
    if (e.distance == 0) {
      ext.add_edge(e.from, e.to, e.latency, 0);
      // BB1-internal structure repeats inside the clone.
      if (clone_of[e.from] != kInvalidNode && clone_of[e.to] != kInvalidNode) {
        ext.add_edge(clone_of[e.from], clone_of[e.to], e.latency, 0);
      }
    } else if (e.distance == 1 && clone_of[e.to] != kInvalidNode) {
      // Wrap-around: iteration k's `from` constrains iteration k+1's `to`.
      ext.add_edge(e.from, clone_of[e.to], e.latency, 0);
    }
    // distance > 1 or carried into a later block: conservatively ignored.
  }
  return ext;
}

LookaheadResult schedule_loop_trace(const DepGraph& g,
                                    const MachineModel& machine,
                                    const LookaheadOptions& opts) {
  const int num_blocks = num_blocks_of(g);
  AIS_CHECK(num_blocks >= 2,
            "loop-trace scheduling needs >= 2 blocks; use loop_single");

  const DepGraph ext = loop_trace_graph(g);
  const RankScheduler scheduler(ext, machine);
  LookaheadResult full = schedule_trace(scheduler, opts);

  // Strip the clone: drop block m from the result.  Node ids of real nodes
  // are unchanged by construction.
  LookaheadResult out;
  out.diag = full.diag;
  for (const NodeId id : full.order) {
    if (ext.node(id).block < num_blocks) out.order.push_back(id);
  }
  full.per_block.pop_back();
  out.per_block = std::move(full.per_block);
  return out;
}

}  // namespace ais
