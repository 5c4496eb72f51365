#include "sim/loop_sim.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace ais {

LoopSimResult simulate_loop(const DepGraph& g, const MachineModel& machine,
                            const std::vector<NodeId>& per_iteration_list,
                            int window, int iterations) {
  AIS_OBS_SPAN("sim.loop");
  AIS_OBS_COUNT(obs::ctr::kSimLoopRuns);
  AIS_CHECK(window >= 1, "window must be positive");
  AIS_CHECK(iterations >= 1, "need at least one iteration");
  const std::size_t body = per_iteration_list.size();
  AIS_CHECK(body == g.num_nodes(),
            "per-iteration list must cover every loop-body instruction");

  std::vector<std::size_t> pos(g.num_nodes(), static_cast<std::size_t>(-1));
  for (std::size_t p = 0; p < body; ++p) {
    AIS_CHECK(pos[per_iteration_list[p]] == static_cast<std::size_t>(-1),
              "node listed twice");
    pos[per_iteration_list[p]] = p;
  }

  const std::size_t total = body * static_cast<std::size_t>(iterations);

  std::vector<int> unit_base(
      static_cast<std::size_t>(machine.num_fu_classes()), 0);
  int total_units = 0;
  for (int c = 0; c < machine.num_fu_classes(); ++c) {
    unit_base[static_cast<std::size_t>(c)] = total_units;
    total_units += machine.fu_count(c);
  }
  std::vector<Time> unit_free(static_cast<std::size_t>(total_units), 0);

  // Per-list-position operand tables, built once per call: the per-cycle
  // window scans below read these instead of assembling a NodeInfo and
  // calling the out-of-line fu_count for every instance they visit.
  struct OpInfo {
    int exec_time;
    int first_unit;
    int units;
  };
  std::vector<OpInfo> ops(body);
  for (std::size_t p = 0; p < body; ++p) {
    const NodeInfo info = g.node(per_iteration_list[p]);
    const int units = machine.fu_count(info.fu_class);
    ops[p] = {info.exec_time,
              unit_base[static_cast<std::size_t>(info.fu_class)], units};
  }
  const int issue_width = machine.issue_width();

  std::vector<Time> issue(total, Time{-1});
  std::size_t head = 0;
  std::size_t remaining = total;

  const Time t_limit =
      (g.total_work() +
       static_cast<Time>(body + 1) * (g.max_latency() + g.max_exec_time()) +
       1) *
      iterations;

  // Incremental readiness: every dependence edge is touched exactly twice --
  // once here to seed the per-instance unresolved-dependence count, and once
  // when its source instance issues (out-edge propagation below).  The hot
  // per-cycle scan then runs in O(window) with no edge walks at all.
  //
  // deps_left[q]: dependences of instance q whose source has not issued yet
  //               (edges reaching before the first iteration are satisfied by
  //               pre-loop state and never counted).
  // ready[q]:     earliest issue cycle imposed by already-resolved
  //               dependences; authoritative once deps_left[q] == 0.
  std::vector<std::uint32_t> deps_left(total, 0);
  std::vector<Time> ready(total, 0);
  for (std::size_t p = 0; p < body; ++p) {
    const NodeId id = per_iteration_list[p];
    for (const auto eidx : g.in_edges(id)) {
      const DepEdge& e = g.edge(eidx);
      // Edge <latency, distance> constrains iteration i against iteration
      // i - distance, so it is live for every instance with iter >= distance.
      for (int iter = e.distance; iter < iterations; ++iter) {
        ++deps_left[static_cast<std::size_t>(iter) * body + p];
      }
    }
  }

  Time t = 0;
  while (remaining > 0) {
    AIS_CHECK(t <= t_limit, "loop simulator failed to make progress");
    // Dependences resolve no earlier than one cycle after an issue
    // (exec_time >= 1, latency >= 0), so issuing an instance can never make
    // another one ready within the same cycle: a single forward sweep visits
    // each candidate exactly once.  The window limit is re-evaluated every
    // step because advancing `head` exposes new instances at the tail.
    int issued_this_cycle = 0;
    for (std::size_t q = head;
         q < std::min(total, head + static_cast<std::size_t>(window)) &&
         issued_this_cycle < issue_width;
         ++q) {
      if (issue[q] >= 0) continue;
      if (deps_left[q] != 0 || ready[q] > t) continue;
      const std::size_t p = q % body;
      const OpInfo& op = ops[p];
      int chosen = -1;
      for (int u = op.first_unit; u < op.first_unit + op.units; ++u) {
        if (unit_free[static_cast<std::size_t>(u)] <= t) {
          chosen = u;
          break;
        }
      }
      if (chosen < 0) continue;
      issue[q] = t;
      const Time done = t + op.exec_time;
      unit_free[static_cast<std::size_t>(chosen)] = done;
      --remaining;
      ++issued_this_cycle;
      while (head < total && issue[head] >= 0) ++head;
      // Resolve the out-edges of the freshly issued instance.
      const int iter = static_cast<int>(q / body);
      for (const auto eidx : g.out_edges(per_iteration_list[p])) {
        const DepEdge& e = g.edge(eidx);
        const int dst_iter = iter + e.distance;
        if (dst_iter >= iterations) continue;
        const std::size_t dst_q =
            static_cast<std::size_t>(dst_iter) * body + pos[e.to];
        ready[dst_q] = std::max(ready[dst_q], done + e.latency);
        --deps_left[dst_q];
      }
    }
    // Event-driven time advance: machine state only changes when an
    // instruction issues, so instead of stepping one cycle at a time we jump
    // straight to the earliest cycle at which some window instance could
    // issue.  An instance whose dependences are all satisfied can issue no
    // earlier than max(its ready time, the earliest free unit of its class),
    // and instances with unissued dependences must wait for a future issue
    // event anyway.  Skipped cycles provably issue nothing, so the computed
    // issue times are identical to the one-cycle-at-a-time walk.
    Time next_t = t_limit + 1;
    const std::size_t limit =
        std::min(total, head + static_cast<std::size_t>(window));
    for (std::size_t q = head; q < limit && remaining > 0; ++q) {
      if (issue[q] >= 0 || deps_left[q] != 0) continue;
      const OpInfo& op = ops[q % body];
      Time unit_t = t_limit + 1;
      for (int u = op.first_unit; u < op.first_unit + op.units; ++u) {
        unit_t = std::min(unit_t, unit_free[static_cast<std::size_t>(u)]);
      }
      // t + 1 floor: this cycle's issue opportunities are already spent.
      next_t = std::min(next_t, std::max({ready[q], t + 1, unit_t}));
    }
    t = remaining > 0 ? next_t : t + 1;
  }

  LoopSimResult result;
  result.iteration_finish.assign(static_cast<std::size_t>(iterations), 0);
  for (std::size_t q = 0; q < total; ++q) {
    const Time finish = issue[q] + ops[q % body].exec_time;
    auto& slot = result.iteration_finish[q / body];
    slot = std::max(slot, finish);
    result.completion = std::max(result.completion, finish);
  }
  return result;
}

double steady_state_period(const DepGraph& g, const MachineModel& machine,
                           const std::vector<NodeId>& per_iteration_list,
                           int window, int iterations) {
  AIS_CHECK(iterations >= 8, "steady-state measurement needs >= 8 iterations");
  const LoopSimResult r =
      simulate_loop(g, machine, per_iteration_list, window, iterations);
  const std::size_t hi = static_cast<std::size_t>(iterations) - 1;
  const std::size_t lo = hi / 2;
  return static_cast<double>(r.iteration_finish[hi] - r.iteration_finish[lo]) /
         static_cast<double>(hi - lo);
}

}  // namespace ais
