#include "obs/stats.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace ais::obs {

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

  // Latency/size distributions, when any were recorded this run (phase
  // spans are the table above).
  TextTable hists({"histogram", "count", "p50", "p90", "p99", "max"});
  bool any_hist = false;
  for (const MetricSeries& s : MetricRegistry::global().snapshot()) {
    if (s.type != MetricType::kHistogram || s.hist.count == 0 ||
        s.name == kPhaseMetric) {
      continue;
    }
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
