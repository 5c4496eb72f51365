// Tests for the metrics layer: log-bucketed histogram exactness against a
// sorted-vector oracle, snapshot merge algebra, the labeled registry and
// its Prometheus/JSON exposition, the telemetry hooks surviving reset(),
// CounterRecorder capture and replay, schedule byte-identity with
// metrics on/off, and the crash flight recorder (in-process dumps plus the
// deliberate-abort subprocess fixture).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/schedule_cache.hpp"
#include "driver/anticipatory.hpp"
#include "ir/asm_parser.hpp"
#include "machine/machine_model.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

#ifndef AIS_FLIGHT_ABORT_BINARY
#error "AIS_FLIGHT_ABORT_BINARY must point at the flight_abort fixture"
#endif

namespace ais {
namespace {

/// Resets the process-global telemetry state for one test (the registry
/// keeps its registrations — snapshot assertions search by name).
void fresh(bool enabled) {
  obs::set_flight_enabled(false);
  obs::set_trace_enabled(false);
  obs::set_enabled(false);
  obs::reset();
  obs::flight_reset();
  if (enabled) obs::set_enabled(true);
}

// --- histogram buckets and quantiles ------------------------------------

TEST(Histogram, BucketBoundsAreStrictlyIncreasing) {
  for (std::size_t i = 0; i + 1 < obs::kHistogramBuckets; ++i) {
    ASSERT_LT(obs::kHistogramBucketBounds[i],
              obs::kHistogramBucketBounds[i + 1])
        << "bucket " << i;
  }
  EXPECT_EQ(obs::kHistogramBucketBounds.back(), ~0ULL);
}

TEST(Histogram, BucketIndexAgreesWithTheBounds) {
  // Every value across the small-value table's edge, then large ones.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 4 * obs::detail::kSmallValues; ++v) {
    values.push_back(v);
  }
  for (const std::uint64_t v : {997ULL, 123456789ULL, ~0ULL}) {
    values.push_back(v);
  }
  for (const std::uint64_t v : values) {
    const std::size_t i = obs::histogram_bucket_index(v);
    EXPECT_LE(v, obs::kHistogramBucketBounds[i]) << v;
    if (i > 0) {
      EXPECT_GT(v, obs::kHistogramBucketBounds[i - 1]) << v;
    }
  }
}

TEST(Histogram, QuantilesBracketTheSortedVectorOracle) {
  std::mt19937_64 rng(0x5eed);
  std::vector<std::uint64_t> values;
  obs::Histogram h;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform spread exercises every bucket width class.
    const std::uint64_t v =
        rng() % (1ULL << (1 + rng() % 24));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::uint64_t oracle = values[std::max<std::size_t>(rank, 1) - 1];
    const obs::HistogramSnapshot::Bounds b = h.snapshot().quantile_bounds(q);
    EXPECT_LE(oracle, b.hi) << "q=" << q;
    if (b.lo > 0) {
      EXPECT_GT(oracle, b.lo) << "q=" << q;
    }
    EXPECT_EQ(snap.quantile(q), b.hi) << "q=" << q;
  }
  // The top quantile is clamped to the exact maximum.
  EXPECT_EQ(snap.quantile(1.0), values.back());
  EXPECT_EQ(snap.max, values.back());
}

TEST(Histogram, MergeIsAssociativeAndMatchesSingleRecorder) {
  obs::Histogram parts[3], whole;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = rng() % (1ULL << (i % 30));
    parts[i % 3].record(v);
    whole.record(v);
  }
  const obs::HistogramSnapshot a = parts[0].snapshot();
  const obs::HistogramSnapshot b = parts[1].snapshot();
  const obs::HistogramSnapshot c = parts[2].snapshot();
  obs::HistogramSnapshot ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  obs::HistogramSnapshot bc = b;
  bc.merge(c);
  obs::HistogramSnapshot a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, whole.snapshot());
}

TEST(Histogram, ConcurrentRecordsLoseNothing) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kRecords = 20000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&h, w] {
      for (int i = 0; i < kRecords; ++i) {
        h.record(static_cast<std::uint64_t>(w * kRecords + i) % 4096);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kRecords);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : snap.counts) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.max, 4095u);
}

// --- labeled registry and exposition ------------------------------------

TEST(Metrics, LabelPairsAreCanonicalizedBySortOrder) {
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  obs::Counter* ab = reg.counter("unit.canon", {"a", "1"}, {"b", "2"});
  obs::Counter* ba = reg.counter("unit.canon", {"b", "2"}, {"a", "1"});
  EXPECT_EQ(ab, ba);
  obs::Counter* other = reg.counter("unit.canon", {"a", "1"}, {"b", "9"});
  EXPECT_NE(ab, other);
}

TEST(Metrics, PrometheusExpositionFollowsTheConventions) {
  fresh(/*enabled=*/false);
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  reg.counter("unit.prom.requests", {"outcome", "hit"})->add(3);
  obs::Histogram* h = reg.histogram("unit.prom.lat_us", {"shard", "3"});
  h->record(1);
  h->record(900);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE unit_prom_requests counter"),
            std::string::npos) << text;
  EXPECT_NE(text.find("unit_prom_requests{outcome=\"hit\"} 3"),
            std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE unit_prom_lat_us histogram"),
            std::string::npos) << text;
  EXPECT_NE(text.find("unit_prom_lat_us_bucket{shard=\"3\",le=\"+Inf\"} 2"),
            std::string::npos) << text;
  EXPECT_NE(text.find("unit_prom_lat_us_sum{shard=\"3\"} 901"),
            std::string::npos) << text;
  EXPECT_NE(text.find("unit_prom_lat_us_count{shard=\"3\"} 2"),
            std::string::npos) << text;
}

TEST(Metrics, JsonSnapshotCarriesQuantilesAndBuckets) {
  fresh(/*enabled=*/false);
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  obs::Histogram* h = reg.histogram("unit.json.lat_us");
  for (int i = 1; i <= 100; ++i) h->record(static_cast<std::uint64_t>(i));
  const std::string text = reg.json_text();
  EXPECT_NE(text.find("\"schema\""), std::string::npos);
  EXPECT_NE(text.find("\"unit.json.lat_us\""), std::string::npos);
  EXPECT_NE(text.find("\"p50\""), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);
  EXPECT_NE(text.find("\"count\": 100"), std::string::npos) << text;
}

TEST(Metrics, AsciiReportDrawsBucketBars) {
  fresh(/*enabled=*/false);
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  obs::Histogram* h = reg.histogram("unit.ascii.lat_us");
  for (int i = 0; i < 64; ++i) h->record(5);
  const std::string report = reg.ascii_report();
  EXPECT_NE(report.find("unit.ascii.lat_us"), std::string::npos) << report;
  EXPECT_NE(report.find('#'), std::string::npos) << report;
}

TEST(Metrics, ResetValuesKeepsRegistrationsAndHandles) {
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  obs::Counter* c = reg.counter("unit.reset.survivor");
  c->add(7);
  reg.reset_values();
  EXPECT_EQ(c->value(), 0u);  // the handle is still the live series
  c->add(2);
  EXPECT_EQ(reg.counter("unit.reset.survivor")->value(), 2u);
}

TEST(Metrics, PrometheusNameSanitizesLegacyDottedNames) {
  EXPECT_EQ(obs::prometheus_name("cache.hits"), "cache_hits");
  EXPECT_EQ(obs::prometheus_name("time.pool_run_us"), "time_pool_run_us");
  EXPECT_EQ(obs::prometheus_name("9lives"), "ais_9lives");
}

// --- telemetry hooks across reset ---------------------------------------

TEST(MetricsObs, CountMacroSurvivesRegistryReset) {
  fresh(/*enabled=*/true);
  for (int round = 0; round < 3; ++round) {
    AIS_OBS_COUNT(obs::ctr::kChopCalls);
    AIS_OBS_COUNT(obs::ctr::kChopCalls, 2);
    // An AIS_OBS=OFF build compiles the macro out: nothing is counted.
    EXPECT_EQ(obs::counter_value(obs::ctr::kChopCalls),
              obs::kHooksCompiledIn ? 3u : 0u)
        << "round " << round;
    obs::reset();  // zeroes the value; the id's handle stays live
  }
}

TEST(MetricsObs, SpanMacroAggregatesAfterReset) {
  fresh(/*enabled=*/true);
  for (int round = 0; round < 2; ++round) {
    { AIS_OBS_SPAN("unit.fastpath.phase"); }
    { AIS_OBS_SPAN("unit.fastpath.phase"); }
    const auto totals = obs::phase_totals();
    const auto it = std::find_if(
        totals.begin(), totals.end(),
        [](const obs::PhaseTotal& p) {
          return p.name == "unit.fastpath.phase";
        });
    if (!obs::kHooksCompiledIn) {
      EXPECT_EQ(it, totals.end()) << "the macro is compiled out";
      continue;
    }
    ASSERT_NE(it, totals.end()) << "round " << round;
    EXPECT_EQ(it->calls, 2u) << "round " << round;
    obs::reset();
  }
}

TEST(MetricsObs, SpansRecordIntoLabeledPhaseHistograms) {
  fresh(/*enabled=*/true);
  { obs::Span span("unit.phase_hist"); }
  obs::Histogram* phase = obs::phase_histogram("unit.phase_hist");
  EXPECT_EQ(phase, obs::MetricRegistry::global().histogram(
                       "phase_us", {"phase", "unit.phase_hist"}));
  EXPECT_EQ(phase->snapshot().count, 1u);
}

TEST(MetricsObs, RecordValueLandsInTheGlobalRegistry) {
  fresh(/*enabled=*/true);
  obs::record_value(obs::hist::kSimBatchUs, 10);
  obs::record_value(obs::hist::kSimBatchUs, 20);
  bool found = false;
  for (const obs::MetricSeries& s :
       obs::MetricRegistry::global().snapshot()) {
    if (s.name == "time.sim_batch_us" && s.labels.empty()) {
      found = true;
      EXPECT_EQ(s.hist.count, 2u);
      EXPECT_EQ(s.hist.sum, 30u);
    }
  }
  EXPECT_TRUE(found);
}

// --- CounterRecorder histogram replay -----------------------------------

TEST(MetricsObs, RecorderCapturesAndReplaysValueSamplesInOrder) {
  fresh(/*enabled=*/false);
  obs::ValueSamples samples;
  {
    obs::CounterRecorder rec;
    obs::record_value(obs::hist::kChopPrefixLen, 4);
    obs::record_value(obs::hist::kChopPrefixLen, 9);
    samples = rec.value_samples();
  }
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].first, obs::hist::kChopPrefixLen);
  EXPECT_EQ(samples[0].second, (std::vector<std::uint64_t>{4, 9}));

  // Replaying with telemetry on must land the same stream in the registry
  // (this is what makes cache hits histogram-identical to fresh solves).
  obs::set_enabled(true);
  obs::CounterRecorder::replay_values(samples);
  for (const obs::MetricSeries& s :
       obs::MetricRegistry::global().snapshot()) {
    if (s.name == "chop.prefix_len") {
      EXPECT_EQ(s.hist.count, 2u);
      EXPECT_EQ(s.hist.sum, 13u);
    }
  }
}

TEST(MetricsObs, RecorderSkipsWallClockAndCacheDistributions) {
  fresh(/*enabled=*/false);
  obs::CounterRecorder rec;
  obs::record_value(obs::hist::kSimBatchUs, 123);
  obs::count(obs::ctr::kCacheHits, 4);
  EXPECT_TRUE(rec.value_samples().empty());
  EXPECT_TRUE(rec.deltas().empty());
}

TEST(MetricsObs, RecorderListsCountersTouchedWithZero) {
  fresh(/*enabled=*/false);
  obs::CounterDeltas inner;
  {
    obs::CounterRecorder rec;
    obs::count(obs::ctr::kWindowSpanOverW, 0);
    obs::count(obs::ctr::kRankRuns, 2);
    inner = rec.deltas();
  }
  EXPECT_EQ(inner, (obs::CounterDeltas{{obs::ctr::kWindowSpanOverW, 0},
                                       {obs::ctr::kRankRuns, 2}}));
  // A replay re-touches the zero, so an enclosing recorder lists it too.
  obs::CounterRecorder replayed;
  obs::CounterRecorder::replay(inner);
  EXPECT_EQ(replayed.deltas(), inner);
  obs::count_named("verify.diag.unit", 1);
  EXPECT_EQ(replayed.touched_counters(),
            (std::vector<std::pair<std::string, std::uint64_t>>{
                {"lookahead.window_span_gt_w", 0},
                {"rank.runs", 2},
                {"verify.diag.unit", 1}}));
}

// --- schedule byte-identity with metrics on/off -------------------------

const char* kTwoBlocks = R"(
block A:
  LDU r1, x[r2+0]
  ADD r3, r1, r1
  MUL r4, r3, r1
  STU y[r2+0], r4
  CMP c1, r4, 0
  BT  c1, B
block B:
  LDU r5, x[r2+4]
  ADD r6, r5, r4
  STU y[r2+4], r6
)";

std::string emitted_text(const ScheduledTrace& s) {
  std::ostringstream out;
  for (const BasicBlock& bb : s.blocks) {
    out << bb.label << ":\n";
    for (const Instruction& inst : bb.insts) out << inst.to_string() << "\n";
  }
  return out.str();
}

TEST(MetricsObs, SchedulesAreByteIdenticalWithMetricsOnOrOff) {
  ScheduleCache::ScopedBypass bypass;
  const Program prog = parse_program(kTwoBlocks);
  const MachineModel& machine = *machine_preset("rs6000");
  fresh(/*enabled=*/false);
  const std::string off = emitted_text(schedule(Trace{prog.blocks}, machine));
  fresh(/*enabled=*/true);
  obs::set_flight_enabled(true);
  const std::string on = emitted_text(schedule(Trace{prog.blocks}, machine));
  EXPECT_EQ(off, on);
  fresh(/*enabled=*/false);
}

// --- flight recorder ----------------------------------------------------

TEST(Flight, DumpContainsRecentSpansCountersAndHistograms) {
  fresh(/*enabled=*/true);
  obs::set_flight_enabled(true);
  obs::MetricRegistry::global().counter("unit.flight.beat")->add(5);
  obs::MetricRegistry::global().histogram("unit.flight.lat_us")->record(42);
  { AIS_OBS_SPAN("unit.flight.phase"); }
  obs::flight_record("unit.flight.point", 'P', 99);
  const std::string dump = obs::flight_dump_string();
  obs::set_flight_enabled(false);
  EXPECT_NE(dump.find("AIS-FLIGHT-DUMP v1"), std::string::npos) << dump;
  if (obs::kHooksCompiledIn) {  // AIS_OBS=OFF compiles the span out
    EXPECT_NE(dump.find("unit.flight.phase"), std::string::npos) << dump;
  }
  EXPECT_NE(dump.find("unit.flight.point"), std::string::npos) << dump;
  EXPECT_NE(dump.find("== counters =="), std::string::npos) << dump;
  EXPECT_NE(dump.find("unit.flight.beat"), std::string::npos) << dump;
  EXPECT_NE(dump.find("== histograms =="), std::string::npos) << dump;
  EXPECT_NE(dump.find("== end =="), std::string::npos) << dump;
}

TEST(Flight, RingsAreBoundedAndKeepTheNewestEvents) {
  fresh(/*enabled=*/false);
  obs::set_flight_enabled(true);
  obs::set_flight_ring_entries(16);
  std::thread([] {
    // A fresh thread gets a fresh (16-entry) ring; overflow it.
    for (int i = 0; i < 100; ++i) {
      obs::flight_record(i < 80 ? "unit.ring.old" : "unit.ring.new", 'P',
                         static_cast<std::uint64_t>(i));
    }
  }).join();
  const std::string dump = obs::flight_dump_string();
  obs::set_flight_enabled(false);
  obs::set_flight_ring_entries(obs::kFlightRingDefaultEntries);
  EXPECT_NE(dump.find("cap 16"), std::string::npos) << dump;
  EXPECT_NE(dump.find("unit.ring.new"), std::string::npos) << dump;
  // 80 old then 20 new events through a 16-deep ring: every survivor is
  // one of the newest 16, all of them "new".
  EXPECT_EQ(dump.find("unit.ring.old"), std::string::npos) << dump;
}

TEST(Flight, AbortFixtureLeavesAParseableDumpNamingTheCrashingPhase) {
  const std::string dir = ::testing::TempDir() + "/flight_abort";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  const std::string cmd = "AIS_FLIGHT_DIR=" + dir + " " +
                          AIS_FLIGHT_ABORT_BINARY + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, 0) << "the fixture must die by SIGABRT";

  std::string dump_path;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name.rfind("ais-crash-", 0) == 0 &&
          name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".dump") == 0) {
        dump_path = dir + "/" + name;
      }
    }
    closedir(d);
  }
  ASSERT_FALSE(dump_path.empty()) << "no ais-crash-*.dump under " << dir;

  std::ifstream in(dump_path);
  std::ostringstream text;
  text << in.rdbuf();
  const std::string dump = text.str();
  EXPECT_NE(dump.find("AIS-FLIGHT-DUMP v1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("signal: 6"), std::string::npos) << dump;
  if (obs::kHooksCompiledIn) {  // the fixture's spans are hook macros
    EXPECT_NE(dump.find("doomed.phase"), std::string::npos) << dump;
  }
  EXPECT_NE(dump.find("fixture.heartbeat"), std::string::npos) << dump;
  EXPECT_NE(dump.find("== end =="), std::string::npos) << dump;
}

}  // namespace
}  // namespace ais
