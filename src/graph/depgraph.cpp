#include "graph/depgraph.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <ostream>
#include <utility>

#include "support/assert.hpp"

namespace ais {

std::ostream& operator<<(std::ostream& os, NameRef n) {
  return os << n.view();
}

DepGraph::DepGraph(const DepGraph& other)
    : exec_time_(other.exec_time_),
      fu_class_(other.fu_class_),
      block_(other.block_),
      edges_(other.edges_),
      out_(other.num_nodes()),
      in_(other.num_nodes()),
      carried_edge_count_(other.carried_edge_count_),
      max_latency_(other.max_latency_),
      max_exec_time_(other.max_exec_time_),
      total_work_(other.total_work_) {
  // Re-intern in id order so duplicate names keep resolving to the first id.
  names_.reserve(other.names_.size());
  for (NodeId id = 0; id < other.names_.size(); ++id) {
    names_.push_back(intern(other.names_[id].view(), id));
  }
  for (std::uint32_t idx = 0; idx < edges_.size(); ++idx) {
    adj_push(out_[edges_[idx].from], idx);
    adj_push(in_[edges_[idx].to], idx);
  }
}

DepGraph& DepGraph::operator=(const DepGraph& other) {
  if (this != &other) {
    DepGraph copy(other);
    *this = std::move(copy);
  }
  return *this;
}

void DepGraph::adj_push(AdjList& adj, std::uint32_t edge_idx) {
  if (adj.size == adj.cap) {
    const std::uint32_t new_cap = adj.cap == 0 ? 4 : 2 * adj.cap;
    auto* grown = adj_arena_.alloc_array<std::uint32_t>(new_cap);
    if (adj.size > 0) {
      std::memcpy(grown, adj.data, adj.size * sizeof(std::uint32_t));
    }
    adj.data = grown;
    adj.cap = new_cap;
  }
  adj.data[adj.size++] = edge_idx;
}

void DepGraph::index_insert(std::uint32_t slot_count, NodeId id) {
  const std::uint64_t mask = slot_count - 1;
  std::uint64_t slot = std::hash<std::string_view>{}(names_[id].view()) & mask;
  while (index_slots_[slot] != kInvalidNode) slot = (slot + 1) & mask;
  index_slots_[slot] = id;
}

void DepGraph::index_grow(std::size_t names) {
  std::size_t new_count = index_slots_.empty() ? 16 : 2 * index_slots_.size();
  while (new_count < 2 * names) new_count *= 2;
  std::vector<NodeId> old = std::move(index_slots_);
  index_slots_.assign(new_count, kInvalidNode);
  for (const NodeId id : old) {
    if (id != kInvalidNode) {
      index_insert(static_cast<std::uint32_t>(new_count), id);
    }
  }
}

NameRef DepGraph::intern(std::string_view name, NodeId id) {
  if (2 * (index_used_ + 1) > index_slots_.size()) index_grow(index_used_ + 1);
  const std::uint64_t mask = index_slots_.size() - 1;
  std::uint64_t slot = std::hash<std::string_view>{}(name) & mask;
  while (index_slots_[slot] != kInvalidNode) {
    const NodeId first = index_slots_[slot];
    if (names_[first].view() == name) return names_[first];  // first id wins
    slot = (slot + 1) & mask;
  }
  char* bytes = name_pool_.alloc_array<char>(name.size() + 1);
  std::memcpy(bytes, name.data(), name.size());
  bytes[name.size()] = '\0';
  index_slots_[slot] = id;
  ++index_used_;
  return NameRef(bytes, static_cast<std::uint32_t>(name.size()));
}

NodeId DepGraph::add_node(std::string_view name, int exec_time, int fu_class,
                          int block) {
  AIS_CHECK(exec_time >= 1, "exec_time must be positive");
  AIS_CHECK(fu_class >= 0, "fu_class must be nonnegative");
  const NodeId id = static_cast<NodeId>(exec_time_.size());
  names_.push_back(intern(name, id));
  exec_time_.push_back(exec_time);
  fu_class_.push_back(fu_class);
  block_.push_back(block);
  out_.emplace_back();
  in_.emplace_back();
  max_exec_time_ = std::max(max_exec_time_, exec_time);
  total_work_ += exec_time;
  return id;
}

void DepGraph::add_edge(NodeId from, NodeId to, int latency, int distance) {
  AIS_CHECK(from < num_nodes() && to < num_nodes(),
            "edge endpoint out of range");
  AIS_CHECK(latency >= 0, "latency must be nonnegative");
  AIS_CHECK(distance >= 0, "distance must be nonnegative");
  AIS_CHECK(from != to || distance > 0,
            "loop-independent self-dependence is a cycle");
  const auto idx = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back(DepEdge{from, to, latency, distance});
  adj_push(out_[from], idx);
  adj_push(in_[to], idx);
  if (distance > 0) ++carried_edge_count_;
  max_latency_ = std::max(max_latency_, latency);
}

void DepGraph::reserve(std::size_t nodes, std::size_t edges) {
  exec_time_.reserve(nodes);
  fu_class_.reserve(nodes);
  block_.reserve(nodes);
  names_.reserve(nodes);
  out_.reserve(nodes);
  in_.reserve(nodes);
  if (2 * nodes > index_slots_.size()) index_grow(nodes);
  if (edges > 0) edges_.reserve(edges);
}

NodeId DepGraph::find(std::string_view name) const {
  if (index_slots_.empty()) return kInvalidNode;
  const std::uint64_t mask = index_slots_.size() - 1;
  std::uint64_t slot = std::hash<std::string_view>{}(name) & mask;
  while (index_slots_[slot] != kInvalidNode) {
    const NodeId first = index_slots_[slot];
    if (names_[first].view() == name) return first;
    slot = (slot + 1) & mask;
  }
  return kInvalidNode;
}

std::size_t DepGraph::arena_bytes_reserved() const {
  return adj_arena_.bytes_reserved() + name_pool_.bytes_reserved();
}

}  // namespace ais
