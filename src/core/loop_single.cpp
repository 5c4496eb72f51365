#include "core/loop_single.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "core/move_idle.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace ais {
namespace {

/// Copies the loop-independent part of `g` (nodes + distance-0 edges).
DepGraph copy_loop_independent(const DepGraph& g) {
  DepGraph out;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const NodeInfo& n = g.node(id);
    out.add_node(n.name, n.exec_time, n.fu_class, n.block);
  }
  for (const DepEdge& e : g.edges()) {
    if (e.distance == 0) out.add_edge(e.from, e.to, e.latency, 0);
  }
  return out;
}

/// Schedules `surrogate` (acyclic) with Rank + Delay_Idle_Slots and returns
/// the permutation with `dummy` removed.
std::vector<NodeId> schedule_surrogate(const DepGraph& surrogate,
                                       const MachineModel& machine,
                                       NodeId dummy,
                                       const RankOptions& rank_opts,
                                       Time* makespan) {
  const RankScheduler scheduler(surrogate, machine);
  const NodeSet active = NodeSet::all(surrogate.num_nodes());
  DeadlineMap d = uniform_deadlines(surrogate, huge_deadline(surrogate, active));
  RankResult r = scheduler.run(active, d, rank_opts);
  AIS_CHECK(r.feasible, "surrogate loop schedule must be feasible");
  // Normalize deadlines to the achieved makespan, then push idle slots late
  // ("followed by repeated applications of Move_Idle_Slot", §5.2.1).
  for (const NodeId id : active.ids()) d[id] = r.makespan;
  Schedule s =
      delay_idle_slots(scheduler, std::move(r.schedule), d, rank_opts);
  *makespan = s.makespan();

  std::vector<NodeId> order;
  for (const NodeId id : s.permutation()) {
    if (id != dummy) order.push_back(id);
  }
  return order;
}

bool is_carried_target(const DepGraph& g, NodeId id) {
  for (const auto eidx : g.in_edges(id)) {
    if (g.edge(eidx).carried()) return true;
  }
  return false;
}

bool is_carried_source(const DepGraph& g, NodeId id) {
  for (const auto eidx : g.out_edges(id)) {
    if (g.edge(eidx).carried()) return true;
  }
  return false;
}

bool is_li_source(const DepGraph& g, NodeId id) {
  for (const auto eidx : g.in_edges(id)) {
    if (g.edge(eidx).distance == 0) return false;
  }
  return true;
}

bool is_li_sink(const DepGraph& g, NodeId id) {
  for (const auto eidx : g.out_edges(id)) {
    if (g.edge(eidx).distance == 0) return false;
  }
  return true;
}

/// What pivot's §5.2.1 (`source_form`) or §5.2.2 surrogate adds to the
/// loop-independent graph, up to what Rank and Delay_Idle_Slots can see:
/// the form, the dummy's exec time, FU class and block (the pivot's), and
/// each carried neighbour with its largest carried latency to (§5.2.1) or
/// from (§5.2.2) the dummy, by node id.  A neighbour whose largest latency
/// is 0 is dropped, because every node already has a 0-latency edge to or
/// from the dummy.  Two pivots with one key build surrogates that differ
/// only in the dummy's name, the edge order and parallel edges no longer
/// than the pair's largest, so they get the same order and makespan
/// (docs/PERFORMANCE.md, "Loop candidate search").
using SurrogateKey = std::tuple<bool, int, int, int,
                                std::vector<std::pair<NodeId, int>>>;

SurrogateKey surrogate_key(const DepGraph& g, NodeId pivot,
                           bool source_form) {
  std::vector<std::pair<NodeId, int>> carried;
  for (const auto eidx :
       source_form ? g.in_edges(pivot) : g.out_edges(pivot)) {
    const DepEdge& e = g.edge(eidx);
    if (e.carried() && e.latency > 0) {
      carried.emplace_back(source_form ? e.from : e.to, e.latency);
    }
  }
  // Ascending id, largest latency first within an id; unique keeps it.
  std::sort(carried.begin(), carried.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  });
  carried.erase(std::unique(carried.begin(), carried.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                carried.end());
  const NodeInfo& n = g.node(pivot);
  return {source_form, n.exec_time, n.fu_class, n.block, std::move(carried)};
}

}  // namespace

LoopCandidate build_loop_candidate(const DepGraph& g,
                                   const MachineModel& machine, NodeId pivot,
                                   bool source_form,
                                   const RankOptions& rank_opts) {
  AIS_CHECK(pivot < g.num_nodes(), "pivot out of range");
  DepGraph surrogate = copy_loop_independent(g);
  const NodeInfo& pivot_info = g.node(pivot);
  const NodeId dummy = surrogate.add_node(
      source_form ? pivot_info.name + "'" : pivot_info.name + "~",
      pivot_info.exec_time, pivot_info.fu_class, pivot_info.block);

  // Carried edges incident to the pivot are rewritten onto the dummy node;
  // carried edges not touching the pivot are dropped for this candidate (in
  // the exact §5.2.1/§5.2.2 settings every carried edge touches the pivot,
  // so nothing is lost; in the §5.2.3 general case the candidate search plus
  // steady-state evaluation compensates for the relaxation).
  if (source_form) {
    // §5.2.1: dummy sink = next iteration's pivot instance.
    for (NodeId id = 0; id < g.num_nodes(); ++id) {
      surrogate.add_edge(id, dummy, 0, 0);
    }
    for (const DepEdge& e : g.edges()) {
      if (e.carried() && e.to == pivot) {
        surrogate.add_edge(e.from, dummy, e.latency, 0);
      }
    }
  } else {
    // §5.2.2: dummy source = previous iteration's pivot instance.
    for (NodeId id = 0; id < g.num_nodes(); ++id) {
      surrogate.add_edge(dummy, id, 0, 0);
    }
    for (const DepEdge& e : g.edges()) {
      if (e.carried() && e.from == pivot) {
        surrogate.add_edge(dummy, e.to, e.latency, 0);
      }
    }
  }

  LoopCandidate cand;
  cand.pivot = pivot;
  cand.source_form = source_form;
  cand.order = schedule_surrogate(surrogate, machine, dummy, rank_opts,
                                  &cand.surrogate_makespan);
  return cand;
}

std::vector<LoopCandidate> loop_single_candidates(
    const DepGraph& g, const MachineModel& machine,
    const LoopSingleOptions& opts) {
  std::vector<LoopCandidate> candidates;

  if (!g.has_carried_edges()) {
    // Iterations are independent: the plain block schedule is the only
    // candidate (steady state equals back-to-back block issues).
    DepGraph surrogate = copy_loop_independent(g);
    const NodeId dummy = surrogate.add_node("(end)", 1, 0, 0);
    for (NodeId id = 0; id + 1 < surrogate.num_nodes(); ++id) {
      surrogate.add_edge(id, dummy, 0, 0);
    }
    LoopCandidate cand;
    cand.pivot = kInvalidNode;
    cand.order = schedule_surrogate(surrogate, machine, dummy, opts.rank,
                                    &cand.surrogate_makespan);
    candidates.push_back(std::move(cand));
    AIS_OBS_COUNT(obs::ctr::kLoopCandidates);
    AIS_OBS_COUNT(obs::ctr::kLoopSurrogates);
    return candidates;
  }

  // The paper's compile-time pruning is only valid for 0/1 latencies; kAuto
  // additionally checks the graph's actual latencies, not just the machine's
  // timing table.
  const bool prune =
      opts.prune == LoopSingleOptions::Prune::kAlways ||
      (opts.prune == LoopSingleOptions::Prune::kAuto &&
       machine.is_restricted_case() && g.max_latency() <= 1);

  // Pivots whose surrogates share a key share its solve: a repeated key
  // takes the first occurrence's order and makespan under its own pivot
  // and form.  `first` maps each key to its first candidate's index.
  std::map<SurrogateKey, std::size_t> first;
  const auto add = [&](NodeId pivot, bool source_form) {
    const auto [it, fresh] = first.try_emplace(
        surrogate_key(g, pivot, source_form), candidates.size());
    if (fresh) {
      candidates.push_back(build_loop_candidate(g, machine, pivot,
                                                source_form, opts.rank));
      return;
    }
    LoopCandidate cand = candidates[it->second];
    cand.pivot = pivot;
    cand.source_form = source_form;
    candidates.push_back(std::move(cand));
  };
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    if (is_carried_target(g, id) && (!prune || is_li_source(g, id))) {
      add(id, /*source_form=*/true);
    }
    if (is_carried_source(g, id) && (!prune || is_li_sink(g, id))) {
      add(id, /*source_form=*/false);
    }
  }
  AIS_CHECK(!candidates.empty(),
            "a loop with carried edges must yield at least one candidate");
  AIS_OBS_COUNT(obs::ctr::kLoopCandidates, candidates.size());
  AIS_OBS_COUNT(obs::ctr::kLoopSurrogates, first.size());
  return candidates;
}

LoopCandidate schedule_single_block_loop(
    const DepGraph& g, const MachineModel& machine,
    const std::function<double(const std::vector<NodeId>&)>& evaluate,
    const LoopSingleOptions& opts) {
  std::vector<LoopCandidate> candidates =
      loop_single_candidates(g, machine, opts);

  // Different pivots often settle on the same order, and a score depends
  // only on the order, so each distinct order is evaluated once.  `firsts`
  // holds the index of each distinct order's first candidate; a duplicate
  // takes that candidate's score but still competes with its own makespan
  // and index.
  std::vector<std::size_t> firsts;
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  Time best_makespan = std::numeric_limits<Time>::max();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    LoopCandidate& cand = candidates[i];
    const auto first =
        std::find_if(firsts.begin(), firsts.end(), [&](std::size_t j) {
          return candidates[j].order == cand.order;
        });
    if (first == firsts.end()) {
      cand.score = evaluate(cand.order);
      firsts.push_back(i);
    } else {
      cand.score = candidates[*first].score;
    }
    if (cand.score < best_score ||
        (cand.score == best_score &&
         cand.surrogate_makespan < best_makespan)) {
      best = i;
      best_score = cand.score;
      best_makespan = cand.surrogate_makespan;
    }
  }
  return std::move(candidates[best]);
}

}  // namespace ais
