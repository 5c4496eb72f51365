#include "graph/closure.hpp"

#include "graph/topo.hpp"
#include "support/assert.hpp"

namespace ais {

bool ClosureRow::intersects(const DynamicBitset& mask) const {
  const std::span<const std::uint64_t> m = mask.words();
  const std::size_t nwords = (bits_ + 63) / 64;
  for (std::size_t w = 0; w < nwords; ++w) {
    if ((words_[w] & m[w]) != 0) return true;
  }
  return false;
}

DescendantClosure::DescendantClosure(const DepGraph& g, const NodeSet& active,
                                     Arena* arena)
    : domain_(g.num_nodes()),
      matrix_(g.num_nodes(), g.num_nodes(), arena),
      member_(g.num_nodes(), false) {
  const auto order = topo_order(g, active);
  AIS_CHECK(order.has_value(),
            "descendant closure requires an acyclic loop-independent subgraph");
  for (const NodeId id : *order) member_[id] = true;

  // Reverse topological order: successors' closures are complete first.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const NodeId id = *it;
    for (const auto eidx : g.out_edges(id)) {
      const DepEdge& e = g.edge(eidx);
      if (e.distance != 0 || !active.contains(e.to)) continue;
      matrix_.set(id, e.to);
      matrix_.row_or(id, e.to);
    }
  }
}

ClosureRow DescendantClosure::descendants(NodeId id) const {
  AIS_CHECK(id < domain_ && member_[id], "node not in closure's active set");
  return matrix_.row(id);
}

bool DescendantClosure::reaches(NodeId ancestor, NodeId descendant) const {
  return descendants(ancestor).test(descendant);
}

}  // namespace ais
