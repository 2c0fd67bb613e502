// Tests for closfair::obs — counter aggregation across threads, registry
// reset semantics, span nesting in the JSONL trace output, the determinism
// of algorithmic counters across worker-thread counts, histogram quantile
// estimation against known distributions, and the obs::rt request-tracing
// building blocks (stage accounting, flight-recorder rings, Chrome JSONL).
//
// With CLOSFAIR_OBS=OFF the same binary compiles against the inline stubs
// and the tests instead prove the layer is inert: snapshots stay empty,
// tracing cannot be activated, the request-trace structs are empty types,
// and the wire admin verbs answer with a well-formed "disabled" error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "io/json_export.hpp"
#include "obs/obs.hpp"
#include "obs/rt.hpp"
#include "obs/trace.hpp"
#include "routing/exhaustive.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "wire/client.hpp"
#include "wire/connection.hpp"
#include "wire/framing.hpp"
#include "wire/server.hpp"
#include "workload/stochastic.hpp"

using namespace closfair;

namespace {

[[maybe_unused]] std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot,
                                             const std::string& name) {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

FlowSet sample_flows(const ClosNetwork& net, std::size_t num_flows,
                     std::uint64_t seed) {
  Rng rng(seed);
  return instantiate(
      net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, num_flows, rng));
}

}  // namespace

#if CLOSFAIR_OBS_ENABLED

TEST(Obs, CounterAggregatesAcrossEightThreads) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Counter& counter = registry.counter("test.eight_threads");

  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 10000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : pool) t.join();

  // All worker threads have exited: totals must have been folded into the
  // retired slots, not lost with the thread-local slabs.
  EXPECT_EQ(counter.total(), kThreads * kAddsPerThread);
  EXPECT_EQ(counter_value(registry.snapshot(), "test.eight_threads"),
            kThreads * kAddsPerThread);
}

TEST(Obs, CounterReferenceIsStableAndFindOrCreate) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Counter& a = registry.counter("test.stable");
  obs::Counter& b = registry.counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.total(), 7u);
}

TEST(Obs, GaugeLastWriteWins) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Gauge& gauge = registry.gauge("test.gauge");
  gauge.set(42);
  gauge.set(-7);
  EXPECT_EQ(gauge.value(), -7);
  gauge.add(10);
  EXPECT_EQ(gauge.value(), 3);
}

TEST(Obs, HistogramTracksCountMinMax) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Histogram& hist = registry.histogram("test.hist");
  hist.record_ns(100);
  hist.record_ns(7);
  hist.record_ns(5000);
  EXPECT_EQ(hist.count(), 3u);

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  bool found = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name != "test.hist") continue;
    found = true;
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.total_ns, 5107u);
    EXPECT_EQ(h.min_ns, 7u);
    EXPECT_EQ(h.max_ns, 5000u);
    std::uint64_t bucket_sum = 0;
    for (std::uint64_t b : h.buckets) bucket_sum += b;
    EXPECT_EQ(bucket_sum, 3u);
  }
  EXPECT_TRUE(found);
}

TEST(Obs, ResetZeroesEverythingButKeepsReferencesValid) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Counter& counter = registry.counter("test.reset");
  obs::Gauge& gauge = registry.gauge("test.reset_gauge");
  obs::Histogram& hist = registry.histogram("test.reset_hist");
  counter.add(9);
  gauge.set(5);
  hist.record_ns(123);

  registry.reset();
  EXPECT_EQ(counter.total(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(counter_value(registry.snapshot(), "test.reset"), 0u);

  // A reset must not invalidate previously returned references.
  counter.add(2);
  EXPECT_EQ(counter.total(), 2u);
}

TEST(Obs, ResetAlsoClearsRetiredCounts) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Counter& counter = registry.counter("test.retired_reset");
  std::thread([&counter] { counter.add(1000); }).join();
  EXPECT_EQ(counter.total(), 1000u);
  registry.reset();
  EXPECT_EQ(counter.total(), 0u);
}

TEST(Obs, SnapshotIsNameSorted) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.counter("test.zzz").add(1);
  registry.counter("test.aaa").add(1);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
}

namespace {

// Extract the numeric value following `"key":` in a JSON line. The trace
// writer emits flat one-line objects, so plain string scanning suffices.
double json_number_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing " << key << " in: " << line;
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

void spin_for_ns(std::uint64_t ns) {
  const std::uint64_t start = obs::now_ns();
  while (obs::now_ns() - start < ns) {
  }
}

}  // namespace

TEST(ObsTrace, NestedSpansEmitOrderedJsonlEvents) {
  obs::Registry::instance().reset();
  const std::string path = "test_obs_trace.jsonl";
  ASSERT_TRUE(obs::start_trace(path));
  EXPECT_TRUE(obs::trace_active());
  // A second session cannot start while one is active.
  EXPECT_FALSE(obs::start_trace("test_obs_trace_second.jsonl"));

  {
    OBS_SPAN("test.outer");
    spin_for_ns(200000);
    {
      OBS_SPAN("test.inner");
      spin_for_ns(200000);
    }
    spin_for_ns(200000);
  }
  obs::stop_trace();
  EXPECT_FALSE(obs::trace_active());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::string inner_line;
  std::string outer_line;
  std::size_t inner_index = 0;
  std::size_t outer_index = 0;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    if (line.find("\"test.inner\"") != std::string::npos) {
      inner_line = line;
      inner_index = index;
    }
    if (line.find("\"test.outer\"") != std::string::npos) {
      outer_line = line;
      outer_index = index;
    }
    ++index;
  }
  ASSERT_FALSE(inner_line.empty());
  ASSERT_FALSE(outer_line.empty());

  // Spans complete inner-first, and a thread's ring preserves completion
  // order, so the inner event must precede the outer one in the file.
  EXPECT_LT(inner_index, outer_index);

  // Chrome-trace complete events with microsecond timestamps.
  EXPECT_NE(inner_line.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(outer_line.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(inner_line.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(inner_line.find("\"tid\":"), std::string::npos);

  const double inner_ts = json_number_field(inner_line, "ts");
  const double inner_dur = json_number_field(inner_line, "dur");
  const double outer_ts = json_number_field(outer_line, "ts");
  const double outer_dur = json_number_field(outer_line, "dur");
  // Nesting: the inner span lies strictly inside the outer interval.
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
  EXPECT_GE(inner_dur, 200000.0 / 1000.0);  // at least the 200 us spin
  EXPECT_GE(outer_dur, 3 * 200000.0 / 1000.0);

  // The span histograms recorded regardless of the sink.
  EXPECT_GE(obs::Registry::instance().histogram("test.inner").count(), 1u);
  EXPECT_GE(obs::Registry::instance().histogram("test.outer").count(), 1u);

  std::remove(path.c_str());
}

TEST(ObsTrace, SpansRecordHistogramsWithoutActiveSession) {
  obs::Registry::instance().reset();
  ASSERT_FALSE(obs::trace_active());
  {
    OBS_SPAN("test.no_sink");
    spin_for_ns(1000);
  }
  EXPECT_EQ(obs::Registry::instance().histogram("test.no_sink").count(), 1u);
}

// The acceptance bar of this layer: algorithmic counters must not depend on
// how many worker threads ran the search. Every thread count evaluates the
// same canonical candidate set (no early stop is configured), so per-call
// water-fill work aggregates to identical totals.
TEST(ObsDeterminism, AlgorithmicCountersInvariantAcrossThreadCounts) {
  const ClosNetwork net = ClosNetwork::paper(3);
  const FlowSet flows = sample_flows(net, 6, 77);

  const char* const kAlgorithmic[] = {
      "waterfill.calls",          "waterfill.rounds",
      "waterfill.saturated_links", "waterfill.links_touched",
      "search.candidates",        "search.routings_covered",
  };

  std::map<std::string, std::uint64_t> reference;
  for (unsigned threads : {1u, 2u, 8u}) {
    obs::Registry::instance().reset();
    ExhaustiveOptions options;
    options.num_threads = threads;
    const auto result = lex_max_min_exhaustive(net, flows, options);
    ASSERT_GT(result.waterfill_invocations, 0u);

    const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
    for (const char* name : kAlgorithmic) {
      const std::uint64_t value = counter_value(snapshot, name);
      if (threads == 1) {
        reference[name] = value;
        EXPECT_GT(value, 0u) << name;
      } else {
        EXPECT_EQ(value, reference[name]) << name << " at " << threads << " threads";
      }
    }
    // Sanity: the counter mirrors the engine's own statistic.
    EXPECT_EQ(counter_value(snapshot, "search.candidates"),
              result.waterfill_invocations);
  }
}

TEST(ObsDeterminism, SearchCountersMatchEngineStats) {
  obs::Registry::instance().reset();
  const ClosNetwork net = ClosNetwork::paper(3);
  const FlowSet flows = sample_flows(net, 5, 11);
  const auto result = lex_max_min_exhaustive(net, flows);

  const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  EXPECT_EQ(counter_value(snapshot, "search.candidates"), result.waterfill_invocations);
  EXPECT_EQ(counter_value(snapshot, "search.routings_covered"),
            result.routings_evaluated);
  EXPECT_EQ(counter_value(snapshot, "search.runs"), 1u);
  EXPECT_EQ(counter_value(snapshot, "waterfill.calls"), result.waterfill_invocations);
}

// ----------------------------------------------------------------- quantiles

namespace {

const obs::MetricsSnapshot::HistogramValue* find_hist(
    const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

TEST(ObsQuantiles, EmptyHistogramEstimatesZero) {
  obs::MetricsSnapshot::HistogramValue empty;
  EXPECT_EQ(obs::estimate_quantile_ns(empty, 0.5), 0.0);
}

TEST(ObsQuantiles, SingleValuedDistributionIsExact) {
  // Every sample is 1000 ns: the min/max clamp collapses the log-linear
  // bucket estimate onto the one observed value, for every quantile.
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Histogram& hist = registry.histogram("test.quant_single");
  for (int i = 0; i < 100; ++i) hist.record_ns(1000);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const auto* h = find_hist(snapshot, "test.quant_single");
  ASSERT_NE(h, nullptr);
  for (const double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(obs::estimate_quantile_ns(*h, q), 1000.0) << "q=" << q;
  }
}

TEST(ObsQuantiles, ZeroDurationsEstimateZero) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Histogram& hist = registry.histogram("test.quant_zero");
  for (int i = 0; i < 10; ++i) hist.record_ns(0);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const auto* h = find_hist(snapshot, "test.quant_zero");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(obs::estimate_quantile_ns(*h, 0.5), 0.0);
}

TEST(ObsQuantiles, UniformDistributionWithinBucketResolution) {
  // 1..1000 ns uniformly: the true p50 is 500 and sits in the [256, 512)
  // bucket; log-linear interpolation lands near 497. The relative error of
  // the estimator is bounded by one bucket (a factor of 2) before clamping.
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Histogram& hist = registry.histogram("test.quant_uniform");
  for (std::uint64_t v = 1; v <= 1000; ++v) hist.record_ns(v);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const auto* h = find_hist(snapshot, "test.quant_uniform");
  ASSERT_NE(h, nullptr);
  const double p50 = obs::estimate_quantile_ns(*h, 0.50);
  const double p99 = obs::estimate_quantile_ns(*h, 0.99);
  const double p999 = obs::estimate_quantile_ns(*h, 0.999);
  EXPECT_GE(p50, 300.0);
  EXPECT_LE(p50, 700.0);
  EXPECT_GE(p99, 800.0);   // true p99 = 990
  EXPECT_LE(p99, 1000.0);  // never past the observed max
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, 1000.0);
}

TEST(ObsQuantiles, BimodalTailIsSeparated) {
  // 90% fast (100 ns) / 10% slow (100 us): p50 must report the fast mode,
  // p99 the slow one — the failure mode a mean would hide.
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::Histogram& hist = registry.histogram("test.quant_bimodal");
  for (int i = 0; i < 90; ++i) hist.record_ns(100);
  for (int i = 0; i < 10; ++i) hist.record_ns(100000);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const auto* h = find_hist(snapshot, "test.quant_bimodal");
  ASSERT_NE(h, nullptr);
  const double p50 = obs::estimate_quantile_ns(*h, 0.50);
  const double p99 = obs::estimate_quantile_ns(*h, 0.99);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 200.0);
  EXPECT_GE(p99, 50000.0);
  EXPECT_LE(p99, 100000.0);
}

TEST(ObsQuantiles, MetricsJsonCarriesQuantileEstimates) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.histogram("test.quant_json").record_ns(1000);
  const Json exported = metrics_to_json(registry.snapshot());
  const Json* hists = exported.find("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* h = hists->find("test.quant_json");
  ASSERT_NE(h, nullptr);
  for (const char* key : {"p50_ns", "p99_ns", "p999_ns"}) {
    const Json* quantile = h->find(key);
    ASSERT_NE(quantile, nullptr) << key;
    EXPECT_DOUBLE_EQ(quantile->as_double(), 1000.0) << key;
  }
}

// ---------------------------------------------------------- request tracing

namespace {

obs::rt::RequestTrace finished_trace(std::uint64_t conn, std::uint64_t seq,
                                     std::uint64_t wall_ns,
                                     obs::rt::Outcome outcome) {
  obs::rt::RequestTrace trace;
  trace.begin(conn, seq, /*recv_ns=*/1000);
  trace.mark_at(obs::rt::Stage::kEvaluate, 1000 + wall_ns);
  trace.set_outcome(outcome);
  trace.finish();
  return trace;
}

}  // namespace

TEST(ObsRt, StageMarksPartitionWallTimeExactly) {
  using obs::rt::Stage;
  obs::rt::RequestTrace trace;
  trace.begin(7, 3, /*recv_ns=*/1000);
  trace.mark_at(Stage::kRead, 1500);
  trace.mark_at(Stage::kParse, 1500);      // zero-length stage
  trace.mark_at(Stage::kAdmit, 1400);      // backwards tick: clamped to 0
  trace.mark_at(Stage::kQueueWait, 2100);  // measured from the clamp point
  trace.mark_at(Stage::kEvaluate, 2600);
  trace.mark_at(Stage::kReorderWait, 2600);
  trace.mark_at(Stage::kWrite, 3000);
  trace.finish();

  EXPECT_EQ(trace.conn_id, 7u);
  EXPECT_EQ(trace.seq, 3u);
  EXPECT_EQ(trace.wall_ns(), 2000u);
  EXPECT_EQ(trace.stage_ns[static_cast<std::size_t>(Stage::kRead)], 500u);
  EXPECT_EQ(trace.stage_ns[static_cast<std::size_t>(Stage::kParse)], 0u);
  EXPECT_EQ(trace.stage_ns[static_cast<std::size_t>(Stage::kAdmit)], 0u);
  EXPECT_EQ(trace.stage_ns[static_cast<std::size_t>(Stage::kQueueWait)], 600u);
  EXPECT_EQ(trace.stage_ns[static_cast<std::size_t>(Stage::kEvaluate)], 500u);
  EXPECT_EQ(trace.stage_ns[static_cast<std::size_t>(Stage::kWrite)], 400u);
  std::uint64_t sum = 0;
  for (const std::uint64_t ns : trace.stage_ns) sum += ns;
  EXPECT_EQ(sum, trace.wall_ns());  // exact: the invariant of mark_at()

  // Marks after finish() are inert.
  trace.mark_at(Stage::kWrite, 9000);
  EXPECT_EQ(trace.wall_ns(), 2000u);
}

TEST(ObsRt, FlightRecorderRoutesToRecentAndShame) {
  auto& recorder = obs::rt::FlightRecorder::instance();
  recorder.reset();
  obs::Registry::instance().reset();
  recorder.set_slow_threshold_ns(1'000'000);

  recorder.record(finished_trace(1, 0, 500'000, obs::rt::Outcome::kEvaluated));
  recorder.record(finished_trace(1, 1, 1'000, obs::rt::Outcome::kParseError));
  recorder.record(finished_trace(1, 2, 2'000'000, obs::rt::Outcome::kEvaluated));
  recorder.record(finished_trace(1, 3, 100, obs::rt::Outcome::kAdmin));

  const auto recent = recorder.recent();
  ASSERT_EQ(recent.size(), 4u);  // everything, oldest first
  EXPECT_EQ(recent[0].seq, 0u);
  EXPECT_EQ(recent[3].seq, 3u);

  const auto shame = recorder.shame();  // errored + slow only
  ASSERT_EQ(shame.size(), 2u);
  EXPECT_EQ(shame[0].seq, 1u);
  EXPECT_EQ(shame[1].seq, 2u);

  // Non-admin traces feed the wire.request histogram; the admin one did not.
  EXPECT_EQ(obs::Registry::instance().histogram("wire.request").count(), 3u);

  recorder.reset();
  EXPECT_TRUE(recorder.recent().empty());
  EXPECT_TRUE(recorder.shame().empty());
  EXPECT_EQ(recorder.slow_threshold_ns(),
            obs::rt::FlightRecorder::kDefaultSlowThresholdNs);
}

TEST(ObsRt, FlightRecorderKeepsTheLastCapacityTraces) {
  auto& recorder = obs::rt::FlightRecorder::instance();
  recorder.reset();
  obs::Registry::instance().reset();
  constexpr std::size_t kTotal = obs::rt::FlightRecorder::kRecentCapacity + 44;
  for (std::size_t seq = 0; seq < kTotal; ++seq) {
    recorder.record(finished_trace(1, seq, 1'000, obs::rt::Outcome::kEvaluated));
  }
  const auto recent = recorder.recent();
  ASSERT_EQ(recent.size(), obs::rt::FlightRecorder::kRecentCapacity);
  EXPECT_EQ(recent.front().seq, 44u);  // the oldest surviving trace
  EXPECT_EQ(recent.back().seq, kTotal - 1);
  recorder.reset();
}

TEST(ObsRt, TraceJsonAndChromeJsonlShapes) {
  obs::rt::RequestTrace trace;
  trace.begin(5, 2, /*recv_ns=*/1000);
  trace.mark_at(obs::rt::Stage::kRead, 2000);
  trace.mark_at(obs::rt::Stage::kEvaluate, 4000);
  trace.finish();

  const Json j = obs::rt::trace_to_json(trace);
  EXPECT_EQ(j.find("conn")->as_int(), 5);
  EXPECT_EQ(j.find("seq")->as_int(), 2);
  EXPECT_EQ(j.find("wall_ns")->as_int(), 3000);
  EXPECT_EQ(j.find("outcome")->as_string(), "evaluated");
  EXPECT_EQ(j.find("stages_ns")->find("read")->as_int(), 1000);
  EXPECT_EQ(j.find("stages_ns")->find("evaluate")->as_int(), 2000);
  EXPECT_EQ(j.find("stages_ns")->find("write")->as_int(), 0);

  const std::string jsonl = obs::rt::dump_chrome_jsonl({trace});
  // One request event plus one per nonzero stage (read, evaluate).
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
  EXPECT_NE(jsonl.find("\"name\":\"wire.request/evaluated\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"wire.stage.read\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"wire.stage.evaluate\""), std::string::npos);
  EXPECT_EQ(jsonl.find("\"name\":\"wire.stage.write\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"tid\":5"), std::string::npos);
}

#else  // !CLOSFAIR_OBS_ENABLED

// OBS=OFF: instrumented code must leave no trace. The stubs return empty
// snapshots and tracing cannot activate.
TEST(ObsDisabled, SnapshotStaysEmptyAfterInstrumentedRun) {
  EXPECT_FALSE(obs::kEnabled);
  const ClosNetwork net = ClosNetwork::paper(3);
  const FlowSet flows = sample_flows(net, 5, 11);
  const auto result = lex_max_min_exhaustive(net, flows);
  EXPECT_GT(result.waterfill_invocations, 0u);
  EXPECT_TRUE(obs::Registry::instance().snapshot().empty());
}

// The scenario service's batch path is instrumented throughout (wire.*,
// svc.cache_hits, svc.evaluate spans); under OBS=OFF all of it must compile
// to the inert stubs — a full batch leaves the registry empty.
TEST(ObsDisabled, ServiceBatchLeavesNoMetrics) {
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  spec.workload.generator = "permutation";
  spec.workload.seed = 3;
  const std::string line = spec.to_json().dump();
  svc::ResultCache cache(8);
  std::ostringstream first;
  wire::answer_batch(cache, 2, {line, line}, first);  // second line: dedup path
  const std::string responses = first.str();
  EXPECT_NE(responses.find("\"cached\":false"), std::string::npos) << responses;
  EXPECT_NE(responses.find("\"cached\":true"), std::string::npos) << responses;
  std::ostringstream again;
  wire::answer_batch(cache, 2, {line}, again);  // cache-hit path
  EXPECT_NE(again.str().find("\"cached\":true"), std::string::npos) << again.str();
  EXPECT_TRUE(obs::Registry::instance().snapshot().empty());
}

// The wire layer bumps wire.* counters/gauges on every code path — framing
// rejection, pipeline admission, server accept/drain. Under OBS=OFF a full
// socket round trip (plus the poisoned-decoder path) must leave the registry
// empty.
TEST(ObsDisabled, WireServerRoundTripLeavesNoMetrics) {
  // wire.oversized_frames path.
  wire::FrameDecoder decoder(/*max_frame_bytes=*/8);
  const char bad_header[4] = {0x7f, 0, 0, 0};
  EXPECT_THROW(decoder.feed(bad_header, 4), wire::WireError);

  // wire.requests / wire.dedup_hits / wire.overload_sheds / wire.responses
  // plus the server-side conns/queue gauges, over a real socket.
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  spec.workload.generator = "permutation";
  spec.workload.seed = 3;
  svc::ResultCache cache(8);
  wire::ServerOptions options;
  options.workers = 2;
  wire::Server server(cache, options);
  server.start();
  wire::Client client;
  client.connect("127.0.0.1", server.port());
  const std::string line = spec.to_json().dump();
  EXPECT_NE(client.call(line).find("\"cached\":false"), std::string::npos);
  EXPECT_NE(client.call(line).find("\"cached\":true"), std::string::npos);
  client.close();
  server.drain();
  EXPECT_TRUE(obs::Registry::instance().snapshot().empty());
}

TEST(ObsDisabled, TraceCannotActivate) {
  EXPECT_FALSE(obs::start_trace("unused.jsonl"));
  EXPECT_FALSE(obs::trace_active());
  obs::stop_trace();
  std::ifstream in("unused.jsonl");
  EXPECT_FALSE(in.good());
}

TEST(ObsDisabled, MacrosAreInert) {
  std::uint64_t tally = 0;
  OBS_COUNTER_ADD("test.off", ++tally);  // unevaluated operand: no side effect
  EXPECT_EQ(tally, 0u);
  OBS_COUNTER_INC("test.off");
  OBS_GAUGE_SET("test.off_gauge", 3);
  OBS_SPAN("test.off_span");
  EXPECT_TRUE(obs::Registry::instance().snapshot().empty());
}

// The per-request overhead of tracing must be *structurally* zero under
// OBS=OFF: the trace and worker-stamp structs are empty types (so the
// [[no_unique_address]] member in the pipeline slot occupies no space), and
// the flight recorder swallows everything.
TEST(ObsDisabled, RequestTraceStructuresAreEmpty) {
  EXPECT_TRUE(std::is_empty_v<obs::rt::RequestTrace>);
  EXPECT_TRUE(std::is_empty_v<obs::rt::WorkerStamps>);

  obs::rt::RequestTrace trace;
  trace.begin(1, 2, 3);
  trace.mark(obs::rt::Stage::kRead);
  trace.set_outcome(obs::rt::Outcome::kParseError);
  trace.finish();
  EXPECT_EQ(trace.wall_ns(), 0u);

  auto& recorder = obs::rt::FlightRecorder::instance();
  recorder.record(trace);
  EXPECT_TRUE(recorder.recent().empty());
  EXPECT_TRUE(recorder.shame().empty());
  EXPECT_TRUE(obs::rt::trace_to_json(trace).is_null());
  EXPECT_TRUE(obs::rt::dump_chrome_jsonl({trace}).empty());
}

// The admin plane stays reachable with observability compiled out: every
// verb answers a well-formed self-describing error, the data plane is
// untouched, and the registry stays empty through it all.
TEST(ObsDisabled, AdminVerbsAnswerDisabledOverTheWire) {
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  spec.workload.generator = "permutation";
  spec.workload.seed = 3;
  svc::ResultCache cache(8);
  wire::Server server(cache, wire::ServerOptions{});
  server.start();

  wire::Client client;
  client.connect("127.0.0.1", server.port());
  for (const std::string verb : {"metricsz", "statusz", "tracez"}) {
    EXPECT_EQ(client.call(verb),
              "{\"admin\":\"" + verb +
                  "\",\"error\":\"observability disabled (CLOSFAIR_OBS=OFF)\"}");
  }
  // Data requests still work, interleaved after the scrapes.
  EXPECT_NE(client.call(spec.to_json().dump()).find("\"cached\":false"),
            std::string::npos);
  client.close();
  server.drain();
  EXPECT_TRUE(obs::Registry::instance().snapshot().empty());
}

#endif  // CLOSFAIR_OBS_ENABLED
