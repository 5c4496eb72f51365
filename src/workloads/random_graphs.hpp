// Reproducible random dependence-graph generators for the synthetic
// evaluation (experiments E5-E11 in DESIGN.md).
#pragma once

#include "graph/depgraph.hpp"
#include "machine/machine_model.hpp"
#include "support/prng.hpp"

namespace ais {

struct RandomBlockParams {
  int num_nodes = 8;
  /// Probability of an edge between each forward pair (Gilbert DAG); with
  /// layers > 0, applied between adjacent layers only.
  double edge_prob = 0.25;
  /// Number of layers; 0 = unlayered Gilbert DAG.
  int layers = 0;
  /// Probability that an edge carries latency 1 (vs 0) in restricted mode,
  /// or the maximum latency when max_latency > 1 (uniform in [0, max]).
  double latency1_prob = 0.5;
  int max_latency = 1;
};

/// Single-block graph with unit execution times on FU class 0.
DepGraph random_block(Prng& prng, const RandomBlockParams& params,
                      int block = 0);

struct RandomTraceParams {
  int num_blocks = 4;
  RandomBlockParams block;
  /// Cross-block edges per adjacent block pair (from a random node of block
  /// k to a random node of block k+1).
  int cross_edges = 2;
};

/// Trace graph: blocks with intra-block structure plus forward cross edges.
DepGraph random_trace(Prng& prng, const RandomTraceParams& params);

struct RandomLoopParams {
  RandomBlockParams block;
  /// Number of loop-carried (distance-1) edges added on top.
  int carried_edges = 2;
};

/// Single-block loop graph with carried edges (may include self-loops).
DepGraph random_loop(Prng& prng, const RandomLoopParams& params);

/// Single-block loop graph for the machine-level simulators, with node ids
/// in a topological order of its loop-independent edges.  Each node runs
/// 1-4 cycles on a uniformly drawn FU class of `machine`; each forward pair
/// of nodes gets an edge with probability 0.3; and `carried_edges` carried
/// edges join uniformly drawn endpoints (self-loops allowed).  Latencies
/// are uniform in [0, 6] and carried distances in [1, 3].
DepGraph random_timed_loop(Prng& prng, const MachineModel& machine,
                           int num_nodes, int carried_edges);

/// Block whose nodes draw realistic operation classes (loads, int/fp ops,
/// stores) with `machine`'s execution times, FU classes and producer
/// latencies — the workload for the general-machine heuristics (§4.2).
DepGraph random_machine_block(Prng& prng, const MachineModel& machine,
                              int num_nodes, double edge_prob, int block = 0);

/// Trace variant of random_machine_block.
DepGraph random_machine_trace(Prng& prng, const MachineModel& machine,
                              int num_blocks, int nodes_per_block,
                              double edge_prob, int cross_edges);

struct BoundaryTraceParams {
  int num_blocks = 4;
  /// Length of the dependent chain hanging off each block's consumer.
  int chain_len = 3;
  /// Independent (immediately ready) instructions per block.
  int independents = 3;
  /// Latency of the producer->consumer edge crossing each block boundary.
  int boundary_latency = 3;
};

/// Traces engineered around the paper's motivating pattern: each block ends
/// with a long-latency producer whose consumer heads the *next* block's
/// critical chain.  A lookahead-oblivious scheduler orders the consumer
/// first (it looks urgent), stalling the boundary; anticipatory scheduling
/// reorders the next block so its independent instructions hide the
/// latency.  `prng` only jitters which independents exist (sizes are
/// deterministic), keeping instances comparable across seeds.
DepGraph boundary_trace(Prng& prng, const BoundaryTraceParams& params);

}  // namespace ais
