// Dependence graph: the paper's program representation.
//
// Nodes are instructions; directed edges carry a <latency, distance> label
// (paper §5): an edge (x, y) with latency l and distance k means instance
// y[i + k] may start no earlier than l cycles after x[i] completes.
// distance == 0 is a loop-independent dependence; distance > 0 is
// loop-carried.  For straight-line (trace) scheduling only distance-0 edges
// exist and the graph restricted to them must be acyclic.
//
// Storage is structure-of-arrays: the per-node fields the schedulers touch
// (exec_time / fu_class / block) live in dense int32 columns with span
// accessors, node names are interned once in an arena-backed string pool
// (they are only needed for diagnostics and find()), and the in/out
// adjacency lists are doubling arrays carved from an arena.  node() stays
// as a thin accessor assembling a NodeInfo view by value, so existing call
// sites — including `const NodeInfo& n = g.node(id)` bindings, which C++
// lifetime extension keeps valid — compile unchanged.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/arena.hpp"
#include "support/assert.hpp"

namespace ais {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Integral cycle count.  Signed so deadline arithmetic can go negative
/// (a rank <= 0 signals infeasibility, per the Rank Algorithm).
using Time = std::int64_t;

struct DepEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  /// Cycles that must elapse between completion of `from` and start of `to`.
  /// 0 means `to` may start the cycle `from` completes.
  int latency = 0;
  /// Iteration distance; 0 for loop-independent dependences.
  int distance = 0;

  bool carried() const { return distance > 0; }
};

/// A node name interned in its graph's string pool: NUL-terminated, valid
/// for the life of the graph (and of moved-from graphs' successors — the
/// pool's chunks never move).  Converts to std::string_view / std::string
/// and concatenates with both, so the std::string-member call sites the
/// pre-SoA NodeInfo had keep compiling; basic_string's own templated
/// operators do not deduce through user conversions, hence the explicit
/// friend overloads.
class NameRef {
 public:
  NameRef() = default;
  NameRef(const char* data, std::uint32_t size) : data_(data), size_(size) {}

  const char* c_str() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::string_view view() const { return {data_, size_}; }
  std::string str() const { return {data_, size_}; }

  operator std::string_view() const { return view(); }
  operator std::string() const { return str(); }

  friend bool operator==(NameRef a, NameRef b) { return a.view() == b.view(); }
  friend bool operator==(NameRef a, std::string_view b) {
    return a.view() == b;
  }
  friend std::string operator+(NameRef a, const char* b) {
    return a.str() += b;
  }
  friend std::string operator+(const char* a, NameRef b) {
    return std::string(a) += b.view();
  }
  friend std::string operator+(std::string a, NameRef b) {
    return std::move(a) += b.view();
  }
  friend std::string operator+(NameRef a, const std::string& b) {
    return a.str() += b;
  }
  friend std::ostream& operator<<(std::ostream& os, NameRef n);

 private:
  const char* data_ = "";
  std::uint32_t size_ = 0;
};

/// Per-node view assembled by DepGraph::node() from the flat columns.
/// Cheap to copy; returned by value (the columns are the storage).
struct NodeInfo {
  NameRef name;
  /// Execution time in cycles (1 in the paper's exact model).
  int exec_time = 1;
  /// Functional-unit class index into the machine model (0 = default).
  int fu_class = 0;
  /// Basic-block index within the enclosing trace; kept on the node so the
  /// legality checkers (Definitions 2.1-2.3) can recover subpermutations.
  int block = 0;
};

class DepGraph {
 public:
  /// Adds a node and returns its id (ids are dense, starting at 0).  The
  /// name is interned: duplicate names share pool bytes, and find() resolves
  /// to the *first* node added under a name.
  NodeId add_node(std::string_view name, int exec_time = 1, int fu_class = 0,
                  int block = 0);

  /// Adds a dependence edge.  Self-edges are only meaningful when carried.
  void add_edge(NodeId from, NodeId to, int latency, int distance = 0);

  /// Pre-sizes the node columns, the name index (and edge list, when
  /// `edges` is given) so bulk builders grow without reallocation.
  void reserve(std::size_t nodes, std::size_t edges = 0);

  std::size_t num_nodes() const { return exec_time_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  /// Node view by value; `const NodeInfo& n = g.node(id)` stays valid via
  /// lifetime extension.
  NodeInfo node(NodeId id) const;
  const DepEdge& edge(std::size_t idx) const;

  /// Flat per-node columns, indexed by NodeId.  The hot paths (RankSession,
  /// greedy scheduling, simulators) read these directly instead of
  /// assembling NodeInfo views.
  std::span<const std::int32_t> exec_times() const { return exec_time_; }
  std::span<const std::int32_t> fu_classes() const { return fu_class_; }
  std::span<const std::int32_t> blocks() const { return block_; }
  NameRef name(NodeId id) const;

  /// Indices into edges() of edges leaving / entering `id`.  Views into
  /// arena-backed adjacency storage; invalidated by add_edge on that node.
  std::span<const std::uint32_t> out_edges(NodeId id) const;
  std::span<const std::uint32_t> in_edges(NodeId id) const;

  const std::vector<DepEdge>& edges() const { return edges_; }

  /// First node named `name`, or kInvalidNode.  O(1): backed by the interned
  /// name pool's hash index.
  NodeId find(std::string_view name) const;

  /// True iff any edge has distance > 0.
  bool has_carried_edges() const { return carried_edge_count_ > 0; }

  /// Largest latency over all edges (0 for an edge-free graph).
  int max_latency() const { return max_latency_; }

  /// Largest execution time over all nodes (1 for an empty graph).
  int max_exec_time() const { return max_exec_time_; }

  /// Sum of execution times; the serial lower bound on any 1-FU makespan.
  Time total_work() const { return total_work_; }

  /// Bytes of arena-backed storage held (adjacency + name pool); feeds the
  /// arena_high_water{arena="graph"} obs gauge.
  std::size_t arena_bytes_reserved() const;

  DepGraph() = default;
  DepGraph(DepGraph&&) noexcept = default;
  DepGraph& operator=(DepGraph&&) noexcept = default;
  /// Copies rebuild the adjacency lists and the name pool in the copy's own
  /// arenas (both are derived data — a replay of edges_ / names_ — so
  /// deep-copying chunks would only clone abandoned growth blocks).
  DepGraph(const DepGraph& other);
  DepGraph& operator=(const DepGraph& other);
  ~DepGraph() = default;

 private:
  /// One node's adjacency: a doubling array carved from adj_arena_.  Growth
  /// abandons the old block (bounded 2x waste), which turns the two heap
  /// allocations per node + realloc-per-few-edges of the vector-of-vectors
  /// representation into pointer bumps — the dominant malloc traffic of
  /// small-block compiles (see support/arena.hpp).
  struct AdjList {
    std::uint32_t* data = nullptr;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };
  void adj_push(AdjList& adj, std::uint32_t edge_idx);

  /// Interns `name`: returns the pooled ref (shared with earlier nodes of
  /// the same name) and records `id` in the hash index when the name is new.
  NameRef intern(std::string_view name, NodeId id);
  void index_insert(std::uint32_t slot_count, NodeId id);
  /// Rehashes into at least double the slots, and enough to hold `names`
  /// names at most half full.
  void index_grow(std::size_t names);

  // Per-node columns (SoA): dense, indexed by NodeId.
  std::vector<std::int32_t> exec_time_;
  std::vector<std::int32_t> fu_class_;
  std::vector<std::int32_t> block_;
  std::vector<NameRef> names_;

  // Interned-name pool + open-addressing index of first ids.  Slots hold a
  // NodeId or kInvalidNode; capacity is a power of two kept at most half
  // full.  string_view keys live in name_pool_, whose chunks never move.
  Arena name_pool_;
  std::vector<NodeId> index_slots_;
  std::size_t index_used_ = 0;

  std::vector<DepEdge> edges_;
  Arena adj_arena_;
  std::vector<AdjList> out_;
  std::vector<AdjList> in_;
  std::size_t carried_edge_count_ = 0;
  int max_latency_ = 0;
  int max_exec_time_ = 1;
  Time total_work_ = 0;
};

// Per-node / per-edge accessors, inline: the simulators and schedulers call
// these once per issued node and once per traversed edge, so an out-of-line
// definition puts a call boundary inside every hot loop.

inline NodeInfo DepGraph::node(NodeId id) const {
  AIS_CHECK(id < num_nodes(), "node id out of range");
  return NodeInfo{names_[id], exec_time_[id], fu_class_[id], block_[id]};
}

inline NameRef DepGraph::name(NodeId id) const {
  AIS_CHECK(id < num_nodes(), "node id out of range");
  return names_[id];
}

inline const DepEdge& DepGraph::edge(std::size_t idx) const {
  AIS_CHECK(idx < edges_.size(), "edge index out of range");
  return edges_[idx];
}

inline std::span<const std::uint32_t> DepGraph::out_edges(NodeId id) const {
  AIS_CHECK(id < num_nodes(), "node id out of range");
  return {out_[id].data, out_[id].size};
}

inline std::span<const std::uint32_t> DepGraph::in_edges(NodeId id) const {
  AIS_CHECK(id < num_nodes(), "node id out of range");
  return {in_[id].data, in_[id].size};
}

}  // namespace ais
