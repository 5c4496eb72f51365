#include "obs/stats.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace ais::obs {

ScheduleStats ScheduleStats::capture() {
  ScheduleStats s;
  s.rank_runs = counter_value(ctr::kRankRuns);
  s.rank_infeasible = counter_value(ctr::kRankInfeasible);
  s.rank_nodes_ranked = counter_value(ctr::kRankNodesRanked);
  s.merge_calls = counter_value(ctr::kMergeCalls);
  s.merge_relax_rounds = counter_value(ctr::kMergeRelaxRounds);
  s.merge_full_relax_rounds = counter_value(ctr::kMergeFullRelaxRounds);
  s.idle_move_attempts = counter_value(ctr::kIdleMoveAttempts);
  s.idle_slots_moved = counter_value(ctr::kIdleSlotsMoved);
  s.deadlines_tightened = counter_value(ctr::kDeadlinesTightened);
  s.chop_calls = counter_value(ctr::kChopCalls);
  s.chop_points = counter_value(ctr::kChopPoints);
  s.lookahead_blocks = counter_value(ctr::kLookaheadBlocks);
  s.window_span_over_w = counter_value(ctr::kWindowSpanOverW);
  s.sim_runs = counter_value(ctr::kSimRuns);
  s.sim_cycles = counter_value(ctr::kSimCycles);
  s.sim_stall_latency = counter_value(ctr::kSimStallLatency);
  s.sim_stall_window = counter_value(ctr::kSimStallWindow);
  s.cache_hits = counter_value(ctr::kCacheHits);
  s.cache_misses = counter_value(ctr::kCacheMisses);
  s.cache_evictions = counter_value(ctr::kCacheEvictions);
  s.cache_bytes = counter_value(ctr::kCacheBytes);
  s.cache_disk_hits = counter_value(ctr::kCacheDiskHits);
  s.cache_disk_writes = counter_value(ctr::kCacheDiskWrites);
  return s;
}

ScheduleStats ScheduleStats::delta(const ScheduleStats& since) const {
  ScheduleStats d;
  d.rank_runs = rank_runs - since.rank_runs;
  d.rank_infeasible = rank_infeasible - since.rank_infeasible;
  d.rank_nodes_ranked = rank_nodes_ranked - since.rank_nodes_ranked;
  d.merge_calls = merge_calls - since.merge_calls;
  d.merge_relax_rounds = merge_relax_rounds - since.merge_relax_rounds;
  d.merge_full_relax_rounds =
      merge_full_relax_rounds - since.merge_full_relax_rounds;
  d.idle_move_attempts = idle_move_attempts - since.idle_move_attempts;
  d.idle_slots_moved = idle_slots_moved - since.idle_slots_moved;
  d.deadlines_tightened = deadlines_tightened - since.deadlines_tightened;
  d.chop_calls = chop_calls - since.chop_calls;
  d.chop_points = chop_points - since.chop_points;
  d.lookahead_blocks = lookahead_blocks - since.lookahead_blocks;
  d.window_span_over_w = window_span_over_w - since.window_span_over_w;
  d.sim_runs = sim_runs - since.sim_runs;
  d.sim_cycles = sim_cycles - since.sim_cycles;
  d.sim_stall_latency = sim_stall_latency - since.sim_stall_latency;
  d.sim_stall_window = sim_stall_window - since.sim_stall_window;
  d.cache_hits = cache_hits - since.cache_hits;
  d.cache_misses = cache_misses - since.cache_misses;
  d.cache_evictions = cache_evictions - since.cache_evictions;
  d.cache_bytes = cache_bytes - since.cache_bytes;
  d.cache_disk_hits = cache_disk_hits - since.cache_disk_hits;
  d.cache_disk_writes = cache_disk_writes - since.cache_disk_writes;
  return d;
}

std::string ScheduleStats::to_string() const {
  TextTable t({"stat", "value"});
  const auto row = [&t](const char* name, std::uint64_t v) {
    t.add_row({name, std::to_string(v)});
  };
  row(ctr::kRankRuns, rank_runs);
  row(ctr::kRankInfeasible, rank_infeasible);
  row(ctr::kRankNodesRanked, rank_nodes_ranked);
  row(ctr::kMergeCalls, merge_calls);
  row(ctr::kMergeRelaxRounds, merge_relax_rounds);
  row(ctr::kMergeFullRelaxRounds, merge_full_relax_rounds);
  row(ctr::kIdleMoveAttempts, idle_move_attempts);
  row(ctr::kIdleSlotsMoved, idle_slots_moved);
  row(ctr::kDeadlinesTightened, deadlines_tightened);
  row(ctr::kChopCalls, chop_calls);
  row(ctr::kChopPoints, chop_points);
  row(ctr::kLookaheadBlocks, lookahead_blocks);
  row(ctr::kWindowSpanOverW, window_span_over_w);
  row(ctr::kSimRuns, sim_runs);
  row(ctr::kSimCycles, sim_cycles);
  row(ctr::kSimStallLatency, sim_stall_latency);
  row(ctr::kSimStallWindow, sim_stall_window);
  row(ctr::kCacheHits, cache_hits);
  row(ctr::kCacheMisses, cache_misses);
  row(ctr::kCacheEvictions, cache_evictions);
  row(ctr::kCacheBytes, cache_bytes);
  row(ctr::kCacheDiskHits, cache_disk_hits);
  row(ctr::kCacheDiskWrites, cache_disk_writes);
  return t.to_string();
}

void register_builtin_counters() {
  for (const char* name :
       {ctr::kRankRuns, ctr::kRankInfeasible, ctr::kRankNodesRanked,
        ctr::kRankIncrementalPasses, ctr::kRankNodesReranked,
        ctr::kMergeCalls, ctr::kMergeRelaxRounds, ctr::kMergeFullRelaxRounds,
        ctr::kMergeGallopProbes,
        ctr::kIdleMoveAttempts, ctr::kIdleSlotsMoved, ctr::kIdleMovesPruned,
        ctr::kDeadlinesTightened,
        ctr::kChopCalls, ctr::kChopPoints, ctr::kLookaheadBlocks,
        ctr::kWindowSpanOverW, ctr::kSimRuns, ctr::kSimCycles,
        ctr::kSimStallLatency, ctr::kSimStallWindow, ctr::kSimEvents,
        ctr::kSimCyclesJumped,
        ctr::kCacheHits, ctr::kCacheMisses, ctr::kCacheEvictions,
        ctr::kCacheBytes, ctr::kCacheDiskHits, ctr::kCacheDiskWrites}) {
    count(name, 0);
  }
}

std::string profile_report() {
  std::ostringstream os;

  TextTable phases({"phase", "calls", "total ms", "mean ms"});
  for (const PhaseTotal& p : phase_totals()) {
    phases.add_row({p.name, std::to_string(p.calls),
                    fmt_double(p.total_ms, 3),
                    fmt_double(p.calls == 0
                                   ? 0.0
                                   : p.total_ms / static_cast<double>(p.calls),
                               4)});
  }
  os << phases.to_string();

  TextTable counters({"counter", "value"});
  for (const auto& [name, value] : counters_snapshot()) {
    counters.add_row({name, std::to_string(value)});
  }
  os << '\n' << counters.to_string();

  // Latency/size distributions, when any were recorded this run.
  TextTable hists({"histogram", "count", "p50", "p90", "p99", "max"});
  bool any_hist = false;
  for (const MetricSeries& s : MetricRegistry::global().snapshot()) {
    if (s.type != MetricType::kHistogram || s.hist.count == 0) continue;
    any_hist = true;
    std::string name = s.name;
    for (const auto& [k, v] : s.labels) {
      name += name.size() == s.name.size() ? "{" : ",";
      name += k + "=" + v;
    }
    if (!s.labels.empty()) name += "}";
    hists.add_row({name, std::to_string(s.hist.count),
                   std::to_string(s.hist.quantile(0.50)),
                   std::to_string(s.hist.quantile(0.90)),
                   std::to_string(s.hist.quantile(0.99)),
                   std::to_string(s.hist.max)});
  }
  if (any_hist) os << '\n' << hists.to_string();
  return os.str();
}

}  // namespace ais::obs
