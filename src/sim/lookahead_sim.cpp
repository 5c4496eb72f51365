// Event-driven implementation of the §2.3 lookahead machine.
//
// The original engine stepped the clock one cycle at a time and, per cycle,
// rescanned the window from the head and re-walked every in-edge of every
// candidate (ready_at) plus the unit table (free_unit_at) — O(cycles × W ×
// edges), which dominates every benchmark and survey run.  This engine keeps
// the machine model bit-for-bit (tests/test_differential.cpp holds it
// byte-exact against the original, retained there as an oracle) but does the
// work incrementally:
//
//  * deps_left[p] counts the unsatisfied listed distance-0 predecessors of
//    position p; issuing a producer decrements its consumers, so an edge is
//    walked exactly once over the whole simulation (at the producer's issue)
//    instead of once per candidate scan per cycle.
//  * ready[p] accumulates the max operand-arrival cycle; when deps_left hits
//    zero the position goes into a per-FU-class wake-time min-heap and is
//    not looked at again until that cycle arrives.
//  * per-class free-unit counts plus busy-until min-heaps replace the linear
//    unit scan; the lowest-index-unit choice of the original only matters
//    through the multiset of busy-until times, which the heap preserves.
//  * the clock jumps to the next event — the earliest cycle at which some
//    in-window position can possibly issue (operand arrival or unit release,
//    whichever is later).  Cycle-exactness survives because every jumped
//    cycle is provably issue-free, and neither window occupancy nor the
//    stall attribution can change during such a gap: occupancy moves only on
//    issues/head slides, readiness beyond the window only resolves further
//    (never regresses), and units only become free.  The occupancy histogram
//    and the stall split are therefore accumulated in bulk per gap.
//
// Attribution across a gap: a gap cycle u is a *window* stall iff some
// instruction beyond the window's reach could have issued at u, i.e. iff
// u >= T_w = min over classes c of max(first beyond-window ready of c,
// first free unit of c).  Both components are monotone during a gap (ready
// times are fixed, units only free up), so the gap splits at the single
// threshold T_w: cycles before it are latency stalls, cycles from it on are
// window stalls — exactly what the original per-cycle scan computed.
#include "sim/lookahead_sim.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace ais {

namespace {
constexpr std::size_t kUnlisted = static_cast<std::size_t>(-1);
constexpr Time kNever = std::numeric_limits<Time>::max() / 4;

// Min-heap orderings for std::push_heap/pop_heap (which build max-heaps).
inline bool wake_after(const SimScratch::WakeEntry& a,
                       const SimScratch::WakeEntry& b) {
  return a.ready > b.ready;
}
inline bool time_after(Time a, Time b) { return a > b; }
}  // namespace

SimScratch::SimScratch()
    : pos_(ArenaAllocator<std::size_t>(arena_)),
      deps_left_(ArenaAllocator<std::int32_t>(arena_)),
      ready_(ArenaAllocator<Time>(arena_)),
      issued_(ArenaAllocator<char>(arena_)),
      awake_(ArenaAllocator<char>(arena_)),
      klass_(ArenaAllocator<std::int32_t>(arena_)),
      free_count_(ArenaAllocator<std::int32_t>(arena_)),
      awake_in_(ArenaAllocator<std::int32_t>(arena_)),
      awake_beyond_(ArenaAllocator<std::int32_t>(arena_)) {}

SimResult simulate_list(const DepGraph& g, const MachineModel& machine,
                        const std::vector<NodeId>& list, int window,
                        SimScratch& s) {
  AIS_OBS_SPAN("sim");
  AIS_CHECK(window >= 1, "window must be positive");
  const std::size_t n = list.size();
  const int width = machine.issue_width();
  const std::size_t num_classes =
      static_cast<std::size_t>(machine.num_fu_classes());
  // Flat per-node columns; the issue sweep reads exec times and FU classes
  // once per issued node, so skip assembling NodeInfo views.
  const std::span<const std::int32_t> exec_times = g.exec_times();
  const std::span<const std::int32_t> fu_classes = g.fu_classes();

  // Position of each node in the list; also validates uniqueness.
  auto& pos = s.pos_;
  pos.assign(g.num_nodes(), kUnlisted);
  for (std::size_t p = 0; p < n; ++p) {
    AIS_CHECK(pos[list[p]] == kUnlisted, "node listed twice");
    pos[list[p]] = p;
  }

  auto& deps_left = s.deps_left_;
  auto& ready = s.ready_;
  auto& issued = s.issued_;
  auto& awake = s.awake_;
  auto& klass = s.klass_;
  deps_left.assign(n, 0);
  ready.assign(n, Time{0});
  issued.assign(n, 0);
  awake.assign(n, 0);
  klass.resize(n);

  // Compiled code lists producers before consumers; a violated order would
  // deadlock the window (head waiting on an instruction behind it).  The
  // same pass counts each position's unsatisfied predecessors.
  for (std::size_t p = 0; p < n; ++p) {
    const NodeId id = list[p];
    klass[p] = fu_classes[id];
    for (const auto eidx : g.in_edges(id)) {
      const DepEdge& e = g.edge(eidx);
      if (e.distance != 0 || pos[e.from] == kUnlisted) {
        continue;
      }
      AIS_CHECK(pos[e.from] < p,
                "priority list is not topological: " + g.node(e.from).name +
                    " must precede " + g.node(id).name);
      ++deps_left[p];
    }
  }

  auto& free_count = s.free_count_;
  auto& awake_in = s.awake_in_;
  auto& awake_beyond = s.awake_beyond_;
  free_count.resize(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    free_count[c] = machine.fu_count(static_cast<int>(c));
  }
  awake_in.assign(num_classes, 0);
  awake_beyond.assign(num_classes, 0);

  auto& busy = s.busy_;
  auto& sleep_in = s.sleep_in_;
  auto& sleep_beyond = s.sleep_beyond_;
  if (busy.size() < num_classes) {
    busy.resize(num_classes);
    sleep_in.resize(num_classes);
    sleep_beyond.resize(num_classes);
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    busy[c].clear();
    sleep_in[c].clear();
    sleep_beyond[c].clear();
  }

  SimResult result;
  result.issue_time.assign(g.num_nodes(), Time{-1});
  result.window_occupancy.assign(
      std::min(static_cast<std::size_t>(window), n) + 1, Time{0});

  std::size_t head = 0;  // first unissued position
  std::size_t limit = std::min(n, head + static_cast<std::size_t>(window));
  std::size_t remaining = n;
  // Unissued positions the window currently exposes.  Maintained
  // incrementally: -1 per issue (every issue is in-window), +1 per position
  // a head slide exposes (positions past the window are never issued).
  std::size_t occ = limit;

  // Sources sleep at ready == 0 and wake in the first event's drain.
  for (std::size_t p = 0; p < n; ++p) {
    if (deps_left[p] == 0) {
      auto& h = p < limit ? sleep_in[static_cast<std::size_t>(klass[p])]
                          : sleep_beyond[static_cast<std::size_t>(klass[p])];
      h.push_back({Time{0}, static_cast<std::uint32_t>(p)});
    }
  }
  // Equal keys: already a valid heap, but keep the invariant explicit.
  for (std::size_t c = 0; c < num_classes; ++c) {
    std::make_heap(sleep_in[c].begin(), sleep_in[c].end(), wake_after);
    std::make_heap(sleep_beyond[c].begin(), sleep_beyond[c].end(), wake_after);
  }

  const Time t_limit =
      g.total_work() +
      static_cast<Time>(n + 1) * (g.max_latency() + g.max_exec_time()) + 1;

  Time t = 0;
  // Read only by the telemetry hooks at the end, which an AIS_OBS=OFF
  // build compiles out.
  [[maybe_unused]] Time t_final = 0;
  [[maybe_unused]] std::uint64_t events = 0;
  while (remaining > 0) {
    AIS_CHECK(t <= t_limit, "simulator failed to make progress");
    ++events;

    // Release units whose busy interval elapsed.
    for (std::size_t c = 0; c < num_classes; ++c) {
      auto& h = busy[c];
      while (!h.empty() && h.front() <= t) {
        std::pop_heap(h.begin(), h.end(), time_after);
        h.pop_back();
        ++free_count[c];
      }
    }
    // Wake sleepers whose last operand has arrived.  sleep_beyond may hold
    // stale duplicates for positions a head slide moved into the window
    // (the live copy went to sleep_in); those are discarded here.
    for (std::size_t c = 0; c < num_classes; ++c) {
      auto& hi = sleep_in[c];
      while (!hi.empty() && hi.front().ready <= t) {
        const std::size_t p = hi.front().pos;
        std::pop_heap(hi.begin(), hi.end(), wake_after);
        hi.pop_back();
        if (issued[p] || awake[p]) continue;
        awake[p] = 1;
        ++awake_in[c];
      }
      auto& hb = sleep_beyond[c];
      while (!hb.empty() && hb.front().ready <= t) {
        const std::size_t p = hb.front().pos;
        std::pop_heap(hb.begin(), hb.end(), wake_after);
        hb.pop_back();
        if (p < limit || issued[p] || awake[p]) continue;
        awake[p] = 1;
        ++awake_beyond[c];
      }
    }

    // Window occupancy at cycle start.
    ++result.window_occupancy[occ];

    // Issue sweep, in list order from the head.  A single forward pass is
    // equivalent to the original rescan-from-head: issuing a position only
    // consumes units and resolves operands at >= t+1 (exec_time >= 1), so a
    // position already passed over can never become issuable within the
    // same cycle, and head slides only expose positions ahead of the sweep.
    int issued_this_event = 0;
    for (std::size_t p = head; p < limit && issued_this_event < width; ++p) {
      if (!awake[p]) continue;
      const std::size_t c = static_cast<std::size_t>(klass[p]);
      if (free_count[c] == 0) continue;

      const NodeId id = list[p];
      const Time exec = exec_times[id];
      result.issue_time[id] = t;
      --free_count[c];
      busy[c].push_back(t + exec);
      std::push_heap(busy[c].begin(), busy[c].end(), time_after);
      issued[p] = 1;
      awake[p] = 0;
      --awake_in[c];
      --remaining;
      ++issued_this_event;
      --occ;

      // Resolve this producer's consumers; a consumer whose last operand
      // this was goes to sleep until that operand arrives (always in the
      // future: exec >= 1).
      for (const auto eidx : g.out_edges(id)) {
        const DepEdge& e = g.edge(eidx);
        if (e.distance != 0) continue;
        const std::size_t q = pos[e.to];
        if (q == kUnlisted) continue;
        const Time r = t + exec + e.latency;
        if (r > ready[q]) ready[q] = r;
        if (--deps_left[q] == 0) {
          auto& h = q < limit
                        ? sleep_in[static_cast<std::size_t>(klass[q])]
                        : sleep_beyond[static_cast<std::size_t>(klass[q])];
          h.push_back({ready[q], static_cast<std::uint32_t>(q)});
          std::push_heap(h.begin(), h.end(), wake_after);
        }
      }

      if (p == head) {
        while (head < n && issued[head]) ++head;  // slide the window
        const std::size_t new_limit =
            std::min(n, head + static_cast<std::size_t>(window));
        for (std::size_t q = limit; q < new_limit; ++q) {
          ++occ;
          const std::size_t qc = static_cast<std::size_t>(klass[q]);
          if (awake[q]) {
            --awake_beyond[qc];
            ++awake_in[qc];
          } else if (deps_left[q] == 0) {
            // Sleeping (its sleep_beyond copy goes stale); ready > t here,
            // because anything ready by t was woken in this event's drain.
            sleep_in[qc].push_back({ready[q], static_cast<std::uint32_t>(q)});
            std::push_heap(sleep_in[qc].begin(), sleep_in[qc].end(),
                           wake_after);
          }
        }
        limit = new_limit;
      }
    }

    if (remaining == 0) {
      t_final = t + 1;
      break;
    }

    if (issued_this_event == 0) {
      // Safety net: event times are chosen so that at least one issue is
      // possible, so this branch is unreachable by construction — but keep
      // the original engine's per-cycle attribution in case that proof ever
      // rots, rather than silently desynchronizing the clock.
      ++result.stall_cycles;
      bool blocked_by_window = false;
      for (std::size_t c = 0; c < num_classes; ++c) {
        if (awake_beyond[c] > 0 && free_count[c] > 0) {
          blocked_by_window = true;
          break;
        }
      }
      if (blocked_by_window) {
        ++result.window_stall_cycles;
      } else {
        ++result.latency_stall_cycles;
      }
    }

    // Next event: the earliest cycle > t at which some in-window position
    // can issue — an awake position as soon as its class has a free unit, a
    // sleeping position at max(operand arrival, first unit release).
    // Beyond-window positions cannot issue without a head slide, and the
    // head cannot move without an in-window issue, so they never bound the
    // jump.  (The head itself always has deps_left == 0 — every earlier
    // position has issued — so a finite candidate exists whenever its class
    // has units at all.)
    Time next_t = kNever;
    for (std::size_t c = 0; c < num_classes; ++c) {
      Time eft;  // earliest cycle > t with a free unit of class c
      if (free_count[c] > 0) {
        eft = t + 1;
      } else if (!busy[c].empty()) {
        eft = std::max(busy[c].front(), t + 1);
      } else {
        continue;  // class has no units: nothing of it can ever issue
      }
      if (awake_in[c] > 0) {
        next_t = std::min(next_t, eft);
      }
      if (!sleep_in[c].empty()) {
        next_t = std::min(next_t, std::max(sleep_in[c].front().ready, eft));
      }
    }
    AIS_CHECK(next_t < kNever, "simulator failed to make progress");

    // Bulk-account the provably issue-free gap (t, next_t): occupancy is
    // frozen, every cycle is a stall, and the latency/window split falls at
    // the monotone threshold T_w (see the file comment).
    const Time gap = next_t - t - 1;
    if (gap > 0) {
      result.window_occupancy[occ] += gap;
      result.stall_cycles += gap;
      Time t_w = kNever;
      for (std::size_t c = 0; c < num_classes; ++c) {
        Time eft;
        if (free_count[c] > 0) {
          eft = t + 1;
        } else if (!busy[c].empty()) {
          eft = std::max(busy[c].front(), t + 1);
        } else {
          continue;
        }
        Time rc;  // first cycle some beyond-window position of c is ready
        if (awake_beyond[c] > 0) {
          rc = t + 1;
        } else {
          auto& hb = sleep_beyond[c];
          while (!hb.empty() &&
                 (hb.front().pos < limit || issued[hb.front().pos] ||
                  awake[hb.front().pos])) {
            std::pop_heap(hb.begin(), hb.end(), wake_after);  // stale dup
            hb.pop_back();
          }
          if (hb.empty()) continue;
          rc = hb.front().ready;
        }
        t_w = std::min(t_w, std::max(rc, eft));
      }
      const Time last = next_t - 1;
      const Time w_from = std::max(t_w, t + 1);
      const Time w_cycles = w_from <= last ? last - w_from + 1 : Time{0};
      result.window_stall_cycles += w_cycles;
      result.latency_stall_cycles += gap - w_cycles;
    }
    t = next_t;
  }

  for (const NodeId id : list) {
    result.completion = std::max(
        result.completion, result.issue_time[id] + exec_times[id]);
  }
  AIS_OBS_COUNT(obs::ctr::kSimRuns);
  AIS_OBS_COUNT(obs::ctr::kSimCycles, static_cast<std::uint64_t>(t_final));
  AIS_OBS_COUNT(obs::ctr::kSimStallLatency,
                static_cast<std::uint64_t>(result.latency_stall_cycles));
  AIS_OBS_COUNT(obs::ctr::kSimStallWindow,
                static_cast<std::uint64_t>(result.window_stall_cycles));
  AIS_OBS_COUNT(obs::ctr::kSimEvents, events);
  AIS_OBS_COUNT(obs::ctr::kSimCyclesJumped,
                static_cast<std::uint64_t>(t_final) - events);
  return result;
}

SimResult simulate_list(const DepGraph& g, const MachineModel& machine,
                        const std::vector<NodeId>& list, int window) {
  SimScratch scratch;
  return simulate_list(g, machine, list, window, scratch);
}

Time simulated_completion(const DepGraph& g, const MachineModel& machine,
                          const std::vector<NodeId>& list, int window) {
  return simulate_list(g, machine, list, window).completion;
}

Time simulated_completion(const DepGraph& g, const MachineModel& machine,
                          const std::vector<NodeId>& list, int window,
                          SimScratch& scratch) {
  return simulate_list(g, machine, list, window, scratch).completion;
}

std::vector<SimResult> simulate_many(const std::vector<SimJob>& jobs,
                                     int threads) {
  AIS_OBS_TIMER(obs::hist::kSimBatchUs);
  std::vector<SimResult> results(jobs.size());
  const auto run = [&](SimScratch& scratch, std::size_t i) {
    const SimJob& j = jobs[i];
    results[i] =
        simulate_list(*j.graph, *j.machine, *j.list, j.window, scratch);
  };
  if (threads <= 1 || jobs.size() <= 1) {
    SimScratch scratch;
    for (std::size_t i = 0; i < jobs.size(); ++i) run(scratch, i);
    return results;
  }
  const int workers = static_cast<int>(std::min(
      static_cast<std::size_t>(clamp_jobs(threads)), jobs.size()));
  ThreadPool pool(workers);
  std::atomic<std::size_t> next{0};
  for (int w = 0; w < workers; ++w) {
    pool.submit([&] {
      SimScratch scratch;  // one per worker: a scratch is single-threaded
      for (std::size_t i = next.fetch_add(1); i < jobs.size();
           i = next.fetch_add(1)) {
        run(scratch, i);
      }
    });
  }
  pool.wait_idle();
  return results;
}

}  // namespace ais
