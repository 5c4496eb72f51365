// Tests for the telemetry subsystem (src/obs): runtime gating, counter
// monotonicity and thread safety, span aggregation and trace-event nesting,
// Chrome-trace JSON well-formedness, the built-in counter set of the
// profile report, and the simulator's stall attribution invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/depgraph.hpp"
#include "machine/machine_model.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/stats.hpp"
#include "sim/lookahead_sim.hpp"
#include "workloads/random_graphs.hpp"

namespace ais {
namespace {

/// Resets telemetry to a known state for one test: registry cleared, both
/// gates as requested.
void fresh(bool enabled, bool trace = false) {
  obs::set_trace_enabled(false);
  obs::set_enabled(false);
  obs::reset();
  if (enabled) obs::set_enabled(true);
  if (trace) obs::set_trace_enabled(true);
}

// --- a minimal JSON grammar checker -------------------------------------
//
// Enough of RFC 8259 to certify that write_chrome_trace emits a single
// well-formed value (the CI check runs the real `json` module on the same
// output; this keeps the guarantee inside ctest).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- gating -------------------------------------------------------------

TEST(Obs, HooksMatchTheConfiguredBuildOption) {
  // AIS_TEST_EXPECT_HOOKS mirrors the CMake AIS_OBS option (see
  // tests/CMakeLists.txt): the option must reach every translation unit.
  EXPECT_EQ(obs::kHooksCompiledIn, AIS_TEST_EXPECT_HOOKS != 0);
}

TEST(Obs, DisabledRuntimeRecordsNothing) {
  fresh(/*enabled=*/false);
  obs::count(obs::ctr::kRankRuns, 7);
  { AIS_OBS_SPAN("ghost"); }
  AIS_OBS_COUNT_DYN(std::string("dyn.") + "ghost", 1);
  EXPECT_EQ(obs::counter_value(obs::ctr::kRankRuns), 0u);
  for (const auto& [name, value] : obs::counters_snapshot()) {
    EXPECT_EQ(value, 0u) << name;
    EXPECT_NE(name, "dyn.ghost");
  }
  EXPECT_TRUE(obs::phase_totals().empty());
  EXPECT_TRUE(obs::trace_events().empty());
}

TEST(Obs, TraceImpliesEnabledAndDisableClearsBoth) {
  fresh(/*enabled=*/false);
  obs::set_trace_enabled(true);
  EXPECT_TRUE(obs::enabled());
  EXPECT_TRUE(obs::trace_enabled());
  obs::set_enabled(false);
  EXPECT_FALSE(obs::enabled());
  EXPECT_FALSE(obs::trace_enabled());
}

TEST(Obs, InitFromEnvHonoursAisTrace) {
  fresh(/*enabled=*/false);
  ::setenv("AIS_TRACE", "1", 1);
  obs::init_from_env();
  EXPECT_TRUE(obs::enabled());
  EXPECT_FALSE(obs::trace_enabled());

  fresh(/*enabled=*/false);
  ::setenv("AIS_TRACE", "trace", 1);
  obs::init_from_env();
  EXPECT_TRUE(obs::trace_enabled());

  fresh(/*enabled=*/false);
  ::setenv("AIS_TRACE", "0", 1);
  obs::init_from_env();
  EXPECT_FALSE(obs::enabled());
  ::unsetenv("AIS_TRACE");
}

// --- counters -----------------------------------------------------------

TEST(Obs, CountersAreMonotoneAndEveryIdIsListed) {
  fresh(/*enabled=*/true);
  obs::count(obs::ctr::kChopCalls, 0);  // touches without changing the value
  EXPECT_EQ(obs::counter_value(obs::ctr::kChopCalls), 0u);
  obs::count(obs::ctr::kChopPoints);
  obs::count(obs::ctr::kChopPoints, 4);
  EXPECT_EQ(obs::counter_value(obs::ctr::kChopPoints), 5u);
  EXPECT_EQ(obs::counter_value(obs::ctr::kMergeCalls), 0u);

  // Every built-in id is registered from the start, in name order.
  const auto snap = obs::counters_snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap) names.push_back(name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const obs::MetricInfo& info : obs::ctr::kInfo) {
    EXPECT_NE(std::find(names.begin(), names.end(), info.name), names.end())
        << info.name;
  }
}

TEST(Obs, NamedCountersAreRegistryCountersOfThatName) {
  fresh(/*enabled=*/true);
  obs::count_named("verify.diag.unit-test", 2);
  AIS_OBS_COUNT_DYN(std::string("verify.diag.") + "unit-test", 1);
  EXPECT_EQ(
      obs::MetricRegistry::global().counter("verify.diag.unit-test")->value(),
      obs::kHooksCompiledIn ? 3u : 2u);
}

TEST(Obs, CountersSumAcrossThreads) {
  fresh(/*enabled=*/true);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([] {
      for (int i = 0; i < kIncrements; ++i) obs::count(obs::ctr::kMergeCalls);
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(obs::counter_value(obs::ctr::kMergeCalls),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Obs, ResetZeroesCountersPhasesAndEvents) {
  fresh(/*enabled=*/true, /*trace=*/true);
  obs::count(obs::ctr::kSimRuns, 3);
  { obs::Span span("gone_phase"); }
  obs::reset();
  EXPECT_EQ(obs::counter_value(obs::ctr::kSimRuns), 0u);
  EXPECT_TRUE(obs::phase_totals().empty());
  EXPECT_TRUE(obs::trace_events().empty());
  // reset() unregisters nothing: the ids still count afterwards.
  obs::count(obs::ctr::kSimRuns, 2);
  EXPECT_EQ(obs::counter_value(obs::ctr::kSimRuns), 2u);
}

// --- spans and trace events ---------------------------------------------

// Span/trace tests drive obs::Span directly: the class (unlike the hook
// macros) is part of the library API and works in AIS_OBS=OFF builds too.
TEST(Obs, SpansAggregateIntoPhaseTotals) {
  fresh(/*enabled=*/true);
  { obs::Span span("phase_a"); }
  { obs::Span span("phase_a"); }
  { obs::Span span("phase_b"); }
  const auto totals = obs::phase_totals();
  ASSERT_EQ(totals.size(), 2u);
  std::uint64_t calls_a = 0;
  for (const obs::PhaseTotal& p : totals) {
    EXPECT_GE(p.total_ms, 0.0);
    if (p.name == "phase_a") calls_a = p.calls;
  }
  EXPECT_EQ(calls_a, 2u);
}

TEST(Obs, TraceEventsNestWithinTheirParent) {
  fresh(/*enabled=*/true, /*trace=*/true);
  {
    obs::Span outer_span("outer");
    {
      obs::Span inner_span("inner");
    }
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: the inner span closes first.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.tid, outer.tid);
  // The child interval is contained in the parent interval.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
}

TEST(Obs, SpansOnDistinctThreadsGetDistinctTids) {
  fresh(/*enabled=*/true, /*trace=*/true);
  { obs::Span span("main_thread"); }
  std::thread([] { obs::Span span("worker_thread"); }).join();
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(Obs, SpansRecordNoEventsWithoutTraceMode) {
  fresh(/*enabled=*/true, /*trace=*/false);
  { obs::Span span("counted_not_traced"); }
  EXPECT_EQ(obs::phase_totals().size(), 1u);
  EXPECT_TRUE(obs::trace_events().empty());
}

// --- Chrome trace output ------------------------------------------------

TEST(Obs, ChromeTraceIsWellFormedJson) {
  fresh(/*enabled=*/true, /*trace=*/true);
  {
    obs::Span compile_span("compile");
    obs::Span quoted_span("rank \"quoted\"\n");  // exercises escaping
    obs::count(obs::ctr::kRankRuns, 2);
  }
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
}

TEST(Obs, ChromeTraceWithNoEventsIsStillValid) {
  fresh(/*enabled=*/true, /*trace=*/true);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

// --- profile report -----------------------------------------------------

TEST(Obs, ProfileListsEveryBuiltinCounter) {
  fresh(/*enabled=*/true);
  EXPECT_GE(obs::counters_snapshot().size(), 8u);  // the `aisc --profile` bar
  EXPECT_EQ(obs::counter_value(obs::ctr::kChopPoints), 0u);
  const std::string report = obs::profile_report();
  EXPECT_NE(report.find("rank.runs"), std::string::npos);
  EXPECT_NE(report.find("sim.stall.window"), std::string::npos);
}

// --- simulator stall attribution ----------------------------------------

/// Chain head -> tail with a long latency, plus one independent node listed
/// after the tail: with W too small to see past the tail, the independent
/// node is ready with a free unit while the machine stalls.
DepGraph chain_plus_independent() {
  DepGraph g;
  const NodeId head = g.add_node("head", 1, 0, 0);
  const NodeId tail = g.add_node("tail", 1, 0, 0);
  g.add_node("indep", 1, 0, 0);
  g.add_edge(head, tail, /*latency=*/3);
  return g;
}

TEST(ObsSim, WindowStallWhenReadyWorkIsBeyondReach) {
  const DepGraph g = chain_plus_independent();
  const std::vector<NodeId> list = {0, 1, 2};
  const SimResult r = simulate_list(g, scalar01(), list, /*window=*/1);
  EXPECT_GT(r.window_stall_cycles, 0);
  EXPECT_EQ(r.latency_stall_cycles + r.window_stall_cycles, r.stall_cycles);
}

TEST(ObsSim, FullWindowAttributesEverythingToLatency) {
  const DepGraph g = chain_plus_independent();
  const std::vector<NodeId> list = {0, 1, 2};
  const SimResult r = simulate_list(g, scalar01(), list, /*window=*/3);
  // Everything is visible, so no stall can be the window's fault.
  EXPECT_EQ(r.window_stall_cycles, 0);
  EXPECT_EQ(r.latency_stall_cycles, r.stall_cycles);
}

TEST(ObsSim, OccupancyHistogramSumsToSimulatedCycles) {
  const DepGraph g = chain_plus_independent();
  const std::vector<NodeId> list = {0, 1, 2};
  const SimResult r = simulate_list(g, scalar01(), list, /*window=*/2);
  ASSERT_EQ(r.window_occupancy.size(), 3u);  // occupancy 0, 1, 2
  Time last_issue = 0;
  for (const NodeId id : list) {
    last_issue = std::max(last_issue, r.issue_time[id]);
  }
  const Time simulated = std::accumulate(r.window_occupancy.begin(),
                                         r.window_occupancy.end(), Time{0});
  EXPECT_EQ(simulated, last_issue + 1);
}

TEST(ObsSim, AttributionInvariantHoldsOnRandomTraces) {
  Prng prng(0x0b5);
  for (int trial = 0; trial < 20; ++trial) {
    RandomTraceParams params;
    params.num_blocks = 2;
    params.block.num_nodes = static_cast<int>(prng.uniform(4, 10));
    params.block.edge_prob = 0.35;
    params.block.max_latency = 3;
    params.cross_edges = 2;
    const DepGraph g = random_trace(prng, params);
    std::vector<NodeId> list(static_cast<std::size_t>(g.num_nodes()));
    std::iota(list.begin(), list.end(), NodeId{0});
    for (const int window : {1, 2, 4}) {
      const SimResult r = simulate_list(g, rs6000_like(), list, window);
      EXPECT_EQ(r.latency_stall_cycles + r.window_stall_cycles,
                r.stall_cycles);
      const Time cycles = std::accumulate(
          r.window_occupancy.begin(), r.window_occupancy.end(), Time{0});
      EXPECT_GE(cycles, r.completion - g.max_exec_time());
    }
  }
}

TEST(ObsSim, SimCountersAccumulateStallAttribution) {
  if (!obs::kHooksCompiledIn) {
    GTEST_SKIP() << "simulator instrumentation compiled out (AIS_OBS=OFF)";
  }
  fresh(/*enabled=*/true);
  const DepGraph g = chain_plus_independent();
  const std::vector<NodeId> list = {0, 1, 2};
  const SimResult r = simulate_list(g, scalar01(), list, /*window=*/1);
  EXPECT_EQ(obs::counter_value(obs::ctr::kSimRuns), 1u);
  EXPECT_EQ(obs::counter_value(obs::ctr::kSimStallWindow),
            static_cast<std::uint64_t>(r.window_stall_cycles));
  EXPECT_EQ(obs::counter_value(obs::ctr::kSimStallLatency),
            static_cast<std::uint64_t>(r.latency_stall_cycles));
  fresh(/*enabled=*/false);  // leave the process-global gate off for peers
}

}  // namespace
}  // namespace ais
