#include "obs/stats.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace ais::obs {

void register_builtin_counters() {
  for (const char* name :
       {ctr::kRankRuns, ctr::kRankInfeasible, ctr::kRankNodesRanked,
        ctr::kRankIncrementalPasses, ctr::kRankNodesReranked,
        ctr::kMergeCalls, ctr::kMergeRelaxRounds, ctr::kMergeFullRelaxRounds,
        ctr::kMergeGallopProbes,
        ctr::kIdleMoveAttempts, ctr::kIdleSlotsMoved,
        ctr::kIdleMovesPrunedSaturated, ctr::kIdleMovesPrunedNoTail,
        ctr::kIdleMovesPrunedNoRefill, ctr::kDeadlinesTightened,
        ctr::kLoopCandidates, ctr::kLoopSurrogates,
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
