// Compiled with AIS_OBS_ENABLED=0 (see tests/CMakeLists.txt): proves the
// telemetry hook macros vanish at compile time — even with the runtime gate
// forced on, a TU built without hooks records nothing.  This is the
// zero-overhead-when-disabled contract of docs/OBSERVABILITY.md.
#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace ais {
namespace {

TEST(ObsOff, HooksAreCompiledOutOfThisTranslationUnit) {
  EXPECT_FALSE(obs::kHooksCompiledIn);
}

TEST(ObsOff, MacrosAreNoOpsEvenWhenRuntimeEnabled) {
  obs::reset();
  obs::set_trace_enabled(true);  // force both runtime gates on

  AIS_OBS_COUNT(obs::ctr::kRankRuns, 42);
  AIS_OBS_COUNT_DYN(std::string("off.") + "dyn", 1);
  AIS_OBS_VALUE(obs::hist::kChopPrefixLen, 7);
  {
    AIS_OBS_SPAN("off.span");
    AIS_OBS_SPAN_DETAIL("off.detail_span");
    AIS_OBS_TIMER(obs::hist::kSimBatchUs);
  }

  // The library (compiled with hooks) sees nothing from this TU.
  EXPECT_EQ(obs::counter_value(obs::ctr::kRankRuns), 0u);
  EXPECT_TRUE(obs::phase_totals().empty());
  EXPECT_TRUE(obs::trace_events().empty());
  for (const obs::MetricSeries& s : obs::MetricRegistry::global().snapshot()) {
    EXPECT_TRUE(s.name.rfind("off.", 0) != 0) << s.name;
    if (s.type == obs::MetricType::kHistogram) {
      EXPECT_EQ(s.hist.count, 0u) << s.name;
    }
  }

  // Direct API calls still work — only the macros are compiled out.
  obs::count(obs::ctr::kRankRuns, 3);
  EXPECT_EQ(obs::counter_value(obs::ctr::kRankRuns), 3u);

  obs::set_enabled(false);
  obs::reset();
}

TEST(ObsOff, MacrosExpandToExpressionsSafeInSingleStatementContexts) {
  // `if (...) AIS_OBS_COUNT(...); else ...` must stay legal when the macros
  // are stubbed out.
  obs::set_enabled(false);
  if (obs::kHooksCompiledIn)
    AIS_OBS_COUNT(obs::ctr::kRankRuns);
  else
    AIS_OBS_SPAN("off.branch_span");
  if (obs::kHooksCompiledIn)
    AIS_OBS_VALUE(obs::hist::kChopPrefixLen, 1);
  else
    AIS_OBS_TIMER(obs::hist::kSimBatchUs);
  SUCCEED();
}

}  // namespace
}  // namespace ais
