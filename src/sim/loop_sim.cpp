#include "sim/loop_sim.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

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
  // `deps` is the position's in-degree, which every instance from
  // iteration max_distance on starts with.
  struct OpInfo {
    int exec_time;
    int first_unit;
    int units;
    std::uint32_t deps;
  };
  std::vector<OpInfo> ops(body);
  for (std::size_t p = 0; p < body; ++p) {
    const NodeId id = per_iteration_list[p];
    const NodeInfo info = g.node(id);
    const int units = machine.fu_count(info.fu_class);
    ops[p] = {info.exec_time,
              unit_base[static_cast<std::size_t>(info.fu_class)], units,
              static_cast<std::uint32_t>(g.in_edges(id).size())};
  }
  int max_distance = 0;
  for (const DepEdge& e : g.edges()) {
    max_distance = std::max(max_distance, e.distance);
  }
  const int issue_width = machine.issue_width();

  const Time t_limit =
      (g.total_work() +
       static_cast<Time>(body + 1) * (g.max_latency() + g.max_exec_time()) +
       1) *
      iterations;

  // Incremental readiness: every dependence edge is touched at most twice
  // per instance -- once to seed the instance's unresolved-dependence count,
  // and once when its source instance issues (out-edge propagation below).
  // The hot per-cycle scan then runs in O(window) with no edge walks at all.
  //
  // issue[q]:     issue cycle of instance q, or -1 while it has not issued.
  // deps_left[q]: dependences of instance q whose source has not issued yet
  //               (edges reaching before the first iteration are satisfied by
  //               pre-loop state and never counted).
  // ready[q]:     earliest issue cycle imposed by already-resolved
  //               dependences; authoritative once deps_left[q] == 0.
  //
  // An issued instance lies below head + W, and its out-edges reach at most
  // max_distance iterations further, so nothing at or past
  // head + `span` has been touched.  The arrays are filled lazily up to
  // `init_end` >= head + span; past it every instance would still read its
  // initial state.
  const std::size_t span =
      (static_cast<std::size_t>(max_distance) + 1) * body +
      static_cast<std::size_t>(window);
  const auto issue = std::make_unique_for_overwrite<Time[]>(total);
  const auto deps_left = std::make_unique_for_overwrite<std::uint32_t[]>(total);
  const auto ready = std::make_unique_for_overwrite<Time[]>(total);
  std::size_t init_end = 0;
  const auto init_until = [&](std::size_t end) {
    end = std::min(end, total);
    if (init_end >= end) return;
    std::size_t iter = init_end / body;
    std::size_t p = init_end % body;
    for (; init_end < end; ++init_end) {
      issue[init_end] = -1;
      ready[init_end] = 0;
      // Edge <latency, distance> constrains iteration i against iteration
      // i - distance, so it is live for every instance with iter >= distance.
      std::uint32_t deps = ops[p].deps;
      if (iter < static_cast<std::size_t>(max_distance)) {
        deps = 0;
        for (const auto eidx : g.in_edges(per_iteration_list[p])) {
          deps += static_cast<std::size_t>(g.edge(eidx).distance) <= iter;
        }
      }
      deps_left[init_end] = deps;
      if (++p == body) {
        p = 0;
        ++iter;
      }
    }
  };

  // Recurrence detection.  At the top of the first cycle in which head has
  // entered a new iteration, the machine state is recorded relative to
  // (head, t): head's list position, each unit's remaining busy time, and
  // for each instance in [head, head + span) whether it has issued and, if
  // not, its unresolved count and remaining wait.  Everything past the span
  // is untouched, so when a state equals one recorded dq instances and dt
  // cycles earlier, the run from here is that run shifted by (dq, dt) for
  // as long as it stays clear of the end of the stream: whole periods are
  // copied instead of simulated, and the tail is simulated as usual
  // (docs/PERFORMANCE.md, "Steady state by recurrence").  A state is
  // compared while head + body + span <= total (a period is at least one
  // iteration) and kept for later states while head + 2 * body + span <=
  // total.
  const std::size_t stride = 1 + unit_free.size() + 2 * span;
  struct Mark {
    std::size_t head;
    Time t;
    std::uint64_t hash;
  };
  std::vector<Time> states;
  std::vector<Mark> marks;
  bool searching = true;
  std::size_t next_boundary = 0;

  LoopSimResult result;
  std::size_t head = 0;
  std::size_t remaining = total;
  init_until(span);
  Time t = 0;

  // Records the state at (head, t) and, when it equals an earlier one,
  // jumps over every whole period that fits.  Returns true when no later
  // state can lead to a jump any more.
  const auto recur = [&] {
    const std::size_t at = states.size();
    states.resize(at + stride);
    Time* const now = states.data() + at;
    Time* cell = now;
    *cell++ = static_cast<Time>(head % body);
    for (const Time free : unit_free) *cell++ = std::max<Time>(free - t, 0);
    for (std::size_t q = head; q < head + span; ++q) {
      const bool issued = issue[q] >= 0;
      *cell++ = issued ? Time{-1} : Time{deps_left[q]};
      *cell++ = issued ? Time{0} : std::max<Time>(ready[q] - t, 0);
    }
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const Time* v = now; v != cell; ++v) {
      hash = (hash ^ static_cast<std::uint64_t>(*v)) * 0x100000001b3ull;
    }
    std::size_t m = 0;
    while (m < marks.size() &&
           (marks[m].hash != hash ||
            !std::equal(now, cell, states.data() + m * stride))) {
      ++m;
    }
    if (m == marks.size()) {
      if (head + 2 * body + span <= total) {
        marks.push_back({head, t, hash});
      } else {
        states.resize(at);
      }
      return false;
    }

    // The run from marks[m] reached this state dq instances and dt cycles
    // later, so the true run repeats it: every instance that period
    // issued issues again dq later and dt later, period after period,
    // while the touched span stays below `total`.
    const std::size_t dq = head - marks[m].head;
    const Time dt = t - marks[m].t;
    const std::size_t periods = (total - span - head) / dq;
    if (periods == 0) return true;
    const std::size_t new_head = head + periods * dq;
    const Time new_t = t + static_cast<Time>(periods) * dt;
    const Time* const new_span = now + 1 + unit_free.size();
    // Instances issued by now keep their times.  Every other instance
    // below new_head, and each one the recorded state marks issued past
    // it, issued one period after its counterpart dq earlier (which is
    // final by the time the ascending walk reaches it).  The rest of the
    // span takes the recorded state shifted to new_t.
    const auto repeat = [&](std::size_t q) {
      if (q >= init_end || issue[q] < 0) issue[q] = issue[q - dq] + dt;
    };
    for (std::size_t q = head; q < new_head; ++q) repeat(q);
    remaining = total - new_head;
    for (std::size_t q = new_head; q < new_head + span; ++q) {
      const Time* rec = new_span + 2 * (q - new_head);
      if (rec[0] < 0) {
        repeat(q);
        --remaining;
      } else {
        issue[q] = -1;
        deps_left[q] = static_cast<std::uint32_t>(rec[0]);
        ready[q] = new_t + rec[1];
      }
    }
    for (Time& free : unit_free) free += new_t - t;
    init_end = std::max(init_end, new_head + span);
    head = new_head;
    t = new_t;
    result.period_iterations = static_cast<int>(dq / body);
    result.period_cycles = dt;
    return true;
  };

  while (remaining > 0) {
    AIS_CHECK(t <= t_limit, "loop simulator failed to make progress");
    if (searching && head >= next_boundary) {
      next_boundary = (head / body + 1) * body;
      searching = head + body + span <= total && !recur();
    }
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
      if (head + span > init_end) init_until(head + span + body);
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

  result.iteration_finish.assign(static_cast<std::size_t>(iterations), 0);
  std::size_t q = 0;
  for (Time& finish : result.iteration_finish) {
    for (std::size_t p = 0; p < body; ++p, ++q) {
      finish = std::max(finish, issue[q] + ops[p].exec_time);
    }
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
