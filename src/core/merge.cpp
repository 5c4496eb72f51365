#include "core/merge.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace ais {
namespace {

/// True when the instance is in the provably-monotone regime: the machine is
/// the paper's restricted case and the graph itself stays within unit
/// execution times and 0/1 latencies.  There the Rank Algorithm is exact, so
/// enlarging deadlines can only enlarge the feasible set and the minimal
/// relaxation is binary-searchable.
bool restricted_instance(const RankScheduler& scheduler) {
  const DepGraph& g = scheduler.graph();
  return scheduler.machine().is_restricted_case() && g.max_latency() <= 1 &&
         g.max_exec_time() <= 1;
}

MergeResult make_result(RankResult result, DeadlineMap d_cur, Time relax) {
  return MergeResult{
      .schedule = std::move(result.schedule),
      .makespan = result.makespan,
      .deadlines = std::move(d_cur),
      .rank = std::move(result.rank),
      .relax = relax,
  };
}

}  // namespace

MergeResult merge_blocks(const RankScheduler& scheduler,
                         const NodeSet& old_nodes, const NodeSet& new_nodes,
                         const DeadlineMap& deadlines, Time t_old, Time huge,
                         const RankOptions& opts) {
  AIS_OBS_SPAN("merge");
  AIS_OBS_COUNT(obs::ctr::kMergeCalls);
  const DepGraph& g = scheduler.graph();
  AIS_CHECK(deadlines.size() == g.num_nodes(), "deadline map size");
  const NodeSet cur = set_union(old_nodes, new_nodes);
  AIS_CHECK(!new_nodes.empty(), "merge needs at least one new node");
  const std::vector<NodeId> old_ids = old_nodes.ids();
  const std::vector<NodeId> new_ids = new_nodes.ids();

  // One session drives every Rank Algorithm run below: the active set is
  // fixed at old ∪ new, only deadlines move, so the topological order and
  // descendant closure are built once and rank updates are incremental.
  RankSession session(scheduler, cur);

  // Lower-bound pass: one huge uniform deadline.
  DeadlineMap d_cur = uniform_deadlines(g, huge);
  const RankResult lower = session.run(d_cur, opts);
  AIS_CHECK(lower.feasible, "unconstrained merge schedule must be feasible");
  const Time t_lower = lower.makespan;

  // Minimal relaxation of the new nodes' deadlines.  A feasible schedule
  // always exists with new entirely after old plus a worst-case latency gap
  // (paper footnote 8), which bounds the loop in the restricted case.  In
  // the heuristic regimes (latencies > 1, typed units) greedy-by-rank is
  // not minimum-tardiness, so the old caps themselves may be unreachable;
  // past the budget we relax *all* deadlines, trading the no-displacement
  // guarantee for progress (§4.2 heuristic territory).
  const Time new_only_limit =
      t_old + g.max_latency() + g.total_work() + 1 - t_lower;
  const Time hard_limit =
      new_only_limit + g.total_work() +
      static_cast<Time>(cur.size() + 1) * (g.max_latency() + 1);

  // Deadlines at relaxation r: old capped at min(d, t_old) and only pushed
  // out once r exceeds the new-only budget (which can start negative — then
  // old deadlines relax from round one, exactly as the +1 scan did), new at
  // the lower bound plus r.
  const auto apply_relax = [&](Time r) {
    const Time old_extra = std::max<Time>(r - std::max<Time>(new_only_limit, 0),
                                          0);
    for (const NodeId w : old_ids) {
      d_cur[w] = std::min(deadlines[w], t_old) + old_extra;
    }
    for (const NodeId w : new_ids) d_cur[w] = t_lower + r;
  };

  apply_relax(0);
  {
    RankResult result = session.run(d_cur, opts);
    if (result.feasible) return make_result(std::move(result), std::move(d_cur), 0);
  }

  if (restricted_instance(scheduler) && new_only_limit >= 1) {
    // Feasibility is monotone in r here, so gallop up to the first feasible
    // relaxation, then bisect down to the minimal one.  Every probe is one
    // full schedule, same as one round of the old scan.
    const auto probe = [&](Time r) -> std::optional<RankResult> {
      AIS_OBS_COUNT(obs::ctr::kMergeRelaxRounds);
      AIS_OBS_COUNT(obs::ctr::kMergeGallopProbes);
      apply_relax(r);
      RankResult result = session.run(d_cur, opts);
      if (result.feasible) return result;
      return std::nullopt;
    };

    Time lo = 0;  // infeasible
    Time hi = 1;
    std::optional<RankResult> best;
    while (true) {
      hi = std::min(hi, new_only_limit);
      best = probe(hi);
      if (best.has_value() || hi == new_only_limit) break;
      lo = hi;
      hi *= 2;
    }
    if (best.has_value()) {
      // Invariant: lo infeasible, hi feasible (result in `best`).
      while (hi - lo > 1) {
        const Time mid = lo + (hi - lo) / 2;
        if (auto mid_result = probe(mid)) {
          hi = mid;
          best = std::move(mid_result);
        } else {
          lo = mid;
        }
      }
      apply_relax(hi);
      return make_result(std::move(*best), std::move(d_cur), hi);
    }
    // Even the full new-only budget is infeasible (possible only when the
    // old caps clash with `deadlines` entries below t_old); continue with
    // the linear scan into full-relaxation territory.
    lo = new_only_limit;
    for (Time r = lo + 1;; ++r) {
      AIS_CHECK(r <= hard_limit, "merge failed to find a feasible schedule");
      AIS_OBS_COUNT(obs::ctr::kMergeRelaxRounds);
      AIS_OBS_COUNT(obs::ctr::kMergeFullRelaxRounds);
      apply_relax(r);
      RankResult result = session.run(d_cur, opts);
      if (result.feasible) {
        return make_result(std::move(result), std::move(d_cur), r);
      }
    }
  }

  // Heuristic regimes: feasibility need not be monotone in r, keep the
  // original +1 scan so the accepted relaxation is byte-identical to the
  // paper's formulation.
  for (Time r = 1;; ++r) {
    AIS_CHECK(r <= hard_limit, "merge failed to find a feasible schedule");
    AIS_OBS_COUNT(obs::ctr::kMergeRelaxRounds);
    if (r > new_only_limit) AIS_OBS_COUNT(obs::ctr::kMergeFullRelaxRounds);
    apply_relax(r);
    RankResult result = session.run(d_cur, opts);
    if (result.feasible) {
      return make_result(std::move(result), std::move(d_cur), r);
    }
  }
}

}  // namespace ais
