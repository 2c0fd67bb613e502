// serve_net — wire-protocol server benchmark (src/wire over src/svc).
//
//   $ ./serve_net [OUT.json]
//
// Gates the TCP front-end's production contracts over a real loopback
// socket:
//
//   1. Byte identity: a mixed pipelined request stream (bare specs,
//      envelopes, duplicates, a parse error, an evaluation error) returns
//      responses byte-identical to batch mode's (wire::answer_batch), from
//      fresh servers at 1, 2, and 8 workers.
//   2. Latency under load: three load points (two open-loop Poisson paced,
//      one unpaced pipeline blast) of a cold/warm/duplicate mix, reporting
//      p50/p99/p999 latency and achieved RPS.
//   3. Overload shedding: offered load at >= 2x the measured sustainable
//      rate against a watermark-1 server must produce explicit overload
//      responses — every request still answered, in order, with bounded
//      queueing — not unbounded buffering.
//   4. Graceful drain: drain() with evaluations in flight answers everything
//      admitted and closes cleanly.
//
// Emits BENCH_serve_net.json (path overridable) with the latency tables and
// an obs counter snapshot — scripts/bench.sh diffs the deterministic
// counters against the committed baseline. The snapshot is taken *before*
// the overload phase (sheds make svc.cache_misses timing-dependent), and the
// svc.cache_hits / wire.dedup_hits split — which depends on whether a repeat
// arrives while its first occurrence is still in flight — is folded into one
// deterministic svc.cache_hits_plus_dedup counter. Exits non-zero if any
// gate fails.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "io/json_export.hpp"
#include "obs/obs.hpp"
#include "obs/rt.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "wire/client.hpp"
#include "wire/protocol.hpp"
#include "wire/server.hpp"

using namespace closfair;
using Clock = std::chrono::steady_clock;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "CHECK FAILED: " << what << '\n';
    ++failures;
  }
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One evaluation cell, unique per `variant`: small enough that a load point
/// finishes in seconds, expensive enough that queueing is real.
std::string spec_body(std::uint64_t variant) {
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
  spec.workload.generator = "uniform";
  spec.workload.count = 12;
  spec.workload.seed = 5000 + variant;
  spec.routing.policy = variant % 2 == 0 ? "greedy" : "ecmp";
  return spec.canonical();
}

// ------------------------------------------------------- byte-identity gate

std::vector<std::string> mixed_request_lines() {
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < 6; ++i) {
    lines.push_back("{\"id\":" + std::to_string(i) + ",\"spec\":" + spec_body(i) + "}");
  }
  lines.push_back(spec_body(2));        // bare duplicate
  lines.push_back("{definitely not json");
  svc::ScenarioSpec bad;                // evaluation error: wrong start length
  bad.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  bad.workload.generator = "permutation";
  bad.routing.policy = "static";
  bad.routing.start = {1};
  lines.push_back(R"({"id":"boom","spec":)" + bad.to_json().dump() + "}");
  lines.push_back(lines[0]);            // envelope duplicate
  return lines;
}

// ------------------------------------------------------------- load points

struct LoadResult {
  double target_rps = 0.0;  ///< 0 = unpaced blast
  double achieved_rps = 0.0;
  double seconds = 0.0;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t cached = 0;
  std::size_t overloads = 0;
  std::size_t errors = 0;
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0, max_us = 0.0;
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Cold/warm/duplicate mix (60:30:10): cold = fresh spec, warm = re-request
/// a uniformly random earlier one, duplicate = repeat the previous line.
std::vector<std::string> mixed_traffic(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> lines;
  std::vector<std::string> history;
  std::uint64_t cold = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t draw = rng.next_below(100);
    std::string body;
    if (!history.empty() && draw >= 60) {
      body = draw < 90 ? history[rng.next_below(history.size())] : history.back();
    } else {
      body = spec_body(100 + cold++);
    }
    history.push_back(body);
    lines.push_back(body);
  }
  return lines;
}

/// One open-loop run against a fresh server: a sender thread paces arrivals
/// (Poisson at `target_rps`; unpaced when 0) while the main thread receives
/// and classifies, matching latencies FIFO (responses are in order).
LoadResult run_load_point(const std::vector<std::string>& lines, double target_rps,
                          unsigned workers, wire::ServerOptions options) {
  svc::ResultCache cache(4096);
  options.workers = workers;
  wire::Server server(cache, options);
  server.start();

  wire::Client client;
  client.connect("127.0.0.1", server.port());
  std::vector<std::atomic<std::int64_t>> send_ns(lines.size());

  std::thread sender([&] {
    Rng rng(99);
    const Clock::time_point start = Clock::now();
    double offset_s = 0.0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (target_rps > 0.0) {
        offset_s += rng.next_exponential(target_rps);
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset_s)));
      }
      send_ns[i].store(Clock::now().time_since_epoch().count(),
                       std::memory_order_release);
      client.send(lines[i]);
    }
    client.finish_sending();
  });

  LoadResult r;
  r.target_rps = target_rps;
  r.requests = lines.size();
  std::vector<double> latencies;
  const Clock::time_point t0 = Clock::now();
  while (auto response = client.recv()) {
    const std::int64_t now_ns = Clock::now().time_since_epoch().count();
    const std::int64_t sent = send_ns[r.completed].load(std::memory_order_acquire);
    latencies.push_back(static_cast<double>(now_ns - sent) / 1000.0);
    ++r.completed;
    if (response->find("\"overload\":true") != std::string::npos) {
      ++r.overloads;
    } else if (response->find("\"error\":") != std::string::npos) {
      ++r.errors;
    } else if (response->find("\"cached\":true") != std::string::npos) {
      ++r.cached;
    }
  }
  r.seconds = seconds_since(t0);
  sender.join();
  client.close();
  server.drain();

  std::sort(latencies.begin(), latencies.end());
  r.achieved_rps = r.seconds > 0.0 ? static_cast<double>(r.completed) / r.seconds : 0.0;
  r.p50_us = percentile(latencies, 0.50);
  r.p99_us = percentile(latencies, 0.99);
  r.p999_us = percentile(latencies, 0.999);
  r.max_us = latencies.empty() ? 0.0 : latencies.back();
  return r;
}

Json load_result_json(const LoadResult& r) {
  Json j = Json::object();
  j.set("target_rps", Json::number(r.target_rps));
  j.set("achieved_rps", Json::number(r.achieved_rps));
  j.set("seconds", Json::number(r.seconds));
  j.set("requests", Json::number(static_cast<std::int64_t>(r.requests)));
  j.set("completed", Json::number(static_cast<std::int64_t>(r.completed)));
  j.set("cached", Json::number(static_cast<std::int64_t>(r.cached)));
  j.set("overloads", Json::number(static_cast<std::int64_t>(r.overloads)));
  j.set("errors", Json::number(static_cast<std::int64_t>(r.errors)));
  Json latency = Json::object();
  latency.set("p50_us", Json::number(r.p50_us));
  latency.set("p99_us", Json::number(r.p99_us));
  latency.set("p999_us", Json::number(r.p999_us));
  latency.set("max_us", Json::number(r.max_us));
  j.set("latency", latency);
  return j;
}

// ---------------------------------------------------- stage-latency windows

/// Registry histogram snapshot by name (zeroed HistogramValue when absent).
obs::MetricsSnapshot::HistogramValue find_histogram(
    const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return h;
  }
  obs::MetricsSnapshot::HistogramValue empty;
  empty.name = name;
  empty.buckets.assign(obs::kHistogramBuckets, 0);
  return empty;
}

/// Bucket-wise difference after - before: isolates one phase's recordings
/// from a cumulative histogram. min/max are unknowable for a window, so
/// they are zeroed — estimate_quantile_ns then skips its range clamp.
obs::MetricsSnapshot::HistogramValue histogram_window(
    const obs::MetricsSnapshot::HistogramValue& before,
    const obs::MetricsSnapshot::HistogramValue& after) {
  obs::MetricsSnapshot::HistogramValue window;
  window.name = after.name;
  window.count = after.count - before.count;
  window.total_ns = after.total_ns - before.total_ns;
  window.buckets.assign(obs::kHistogramBuckets, 0);
  for (std::size_t i = 0; i < window.buckets.size(); ++i) {
    const std::uint64_t b = i < before.buckets.size() ? before.buckets[i] : 0;
    const std::uint64_t a = i < after.buckets.size() ? after.buckets[i] : 0;
    window.buckets[i] = a - b;
  }
  return window;
}

Json stage_window_json(const obs::MetricsSnapshot::HistogramValue& window) {
  Json j = Json::object();
  j.set("count", Json::number(static_cast<std::int64_t>(window.count)));
  j.set("total_ns", Json::number(static_cast<std::int64_t>(window.total_ns)));
  j.set("mean_ns",
        Json::number(window.count == 0
                         ? 0.0
                         : static_cast<double>(window.total_ns) /
                               static_cast<double>(window.count)));
  j.set("p50_ns", Json::number(obs::estimate_quantile_ns(window, 0.50)));
  j.set("p99_ns", Json::number(obs::estimate_quantile_ns(window, 0.99)));
  j.set("p999_ns", Json::number(obs::estimate_quantile_ns(window, 0.999)));
  return j;
}

/// The committed-baseline metrics view: every counter except the two whose
/// split is scheduling-dependent, replaced by their deterministic sum (for a
/// fixed request stream, repeat requests resolve as *either* an in-flight
/// dedup or a cache hit — which one depends on completion timing, but the
/// total never does).
obs::MetricsSnapshot filtered_snapshot() {
  obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  std::uint64_t folded = 0;
  std::vector<obs::MetricsSnapshot::CounterValue> kept;
  for (const auto& c : snapshot.counters) {
    if (c.name == "svc.cache_hits" || c.name == "wire.dedup_hits") {
      folded += c.value;
    } else {
      kept.push_back(c);
    }
  }
  kept.push_back({"svc.cache_hits_plus_dedup", folded});
  std::sort(kept.begin(), kept.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  snapshot.counters = std::move(kept);
  snapshot.gauges.clear();      // queue depths / drain times are load-dependent
  snapshot.histograms.clear();  // span durations are wall clock
  return snapshot;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve_net.json";
  if (argc > 1) out_path = argv[1];
  if (argc > 2 || (!out_path.empty() && out_path[0] == '-')) {
    std::cerr << "usage: serve_net [OUT.json]\n";
    return 2;
  }
  // The batch-mode reference is computed before the registry reset: the
  // gated snapshot counts the servers' work only.
  const std::vector<std::string> lines = mixed_request_lines();
  svc::ResultCache reference_cache(512);
  const std::vector<std::string> expected = wire::answer_batch(reference_cache, 1, lines);
  obs::Registry::instance().reset();

  Json report = Json::object();
  report.set("bench", Json::string("serve_net"));

  // ------------------------------------------------------- 1. byte identity
  std::cout << "=== wire server benchmark ===\n\n"
            << "--- byte identity vs batch mode (+ concurrent admin scraper) ---\n";
  TextTable table_id({"workers", "responses", "identical", "scrapes"});
  for (const unsigned workers : {1u, 2u, 8u}) {
    svc::ResultCache cache(512);
    wire::ServerOptions options;
    options.workers = workers;
    wire::Server server(cache, options);
    server.start();

    // Concurrent admin client on its own connection: a fixed number of
    // scrapes (so wire.admin_requests stays deterministic for the counter
    // baseline) racing the data-plane replay below. The gate: scraping must
    // not perturb data-plane bytes, and every scrape must answer
    // well-formed.
    std::size_t scrapes_ok = 0;
    std::thread scraper([&] {
      wire::Client admin;
      admin.connect("127.0.0.1", server.port());
      const char* verbs[] = {"metricsz", "tracez", "statusz",
                             "metricsz", "tracez", "statusz"};
      for (const char* verb : verbs) {
        const std::string response = admin.call(verb);
        if (response.rfind(std::string("{\"admin\":\"") + verb + "\"", 0) == 0) {
          ++scrapes_ok;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      admin.close();
    });

    wire::Client client;
    client.connect("127.0.0.1", server.port());
    for (const std::string& line : lines) client.send(line);
    client.finish_sending();
    bool identical = true;
    std::size_t received = 0;
    while (auto response = client.recv()) {
      if (received >= expected.size() || *response != expected[received]) {
        identical = false;
      }
      ++received;
    }
    identical = identical && received == expected.size();
    check(identical, "socket responses byte-identical to batch at " +
                         std::to_string(workers) + " workers");
    scraper.join();
    check(scrapes_ok == 6, "all 6 concurrent admin scrapes answered well-formed at " +
                               std::to_string(workers) + " workers");
    table_id.add_row({std::to_string(workers), std::to_string(received),
                      identical ? "yes" : "NO",
                      std::to_string(scrapes_ok) + "/6"});
    client.close();
    server.drain();
  }
  std::cout << table_id << '\n';

  // Stage-window boundary: everything up to here is the (near-)unloaded
  // identity replay; the blast load point below queues deeply.
  const obs::MetricsSnapshot snapshot_after_identity =
      obs::Registry::instance().snapshot();

  // --------------------------------------------------------- 2. load points
  std::cout << "--- load points (cold/warm/duplicate 60:30:10, 1 connection) ---\n";
  const std::size_t kRequests = 400;
  const std::vector<std::string> traffic = mixed_traffic(kRequests, 7);
  // One worker, like the overload server below: the blast's ~240 cold
  // evaluations then queue behind a single evaluator however the scheduler
  // interleaves the reader and the pool. With four workers the pool could
  // keep pace with the single reader thread on a CPU-contended machine, so
  // the blast window saw almost no queue-wait.
  const unsigned kWorkers = 1;
  Json points = Json::array();
  TextTable table_load({"target_rps", "achieved_rps", "completed", "cached",
                        "p50_us", "p99_us", "p999_us"});
  double sustainable_rps = 0.0;
  obs::MetricsSnapshot snapshot_after_blast;
  // Unpaced blast first: its achieved rate is the sustainable ceiling the
  // overload phase doubles. Admission limits sit above the request count so
  // the load points measure queueing latency, not shedding (and the counter
  // snapshot below stays deterministic — a shed evaluates nothing).
  wire::ServerOptions load_options;
  load_options.max_inflight_per_conn = kRequests;
  load_options.queue_high_watermark = kRequests;
  for (const double target : {0.0, 400.0, 800.0}) {
    const LoadResult r = run_load_point(traffic, target, kWorkers, load_options);
    if (target == 0.0) {
      sustainable_rps = r.achieved_rps;
      snapshot_after_blast = obs::Registry::instance().snapshot();
    }
    check(r.completed == r.requests,
          "load point answered every request (target " + fmt_double(target, 0) + ")");
    check(r.overloads == 0, "no sheds below the watermark (target " +
                                fmt_double(target, 0) + ")");
    check(r.errors == 0,
          "no errors in the load mix (target " + fmt_double(target, 0) + ")");
    check(r.cached > 0, "warm/duplicate traffic hit the cache (target " +
                            fmt_double(target, 0) + ")");
    table_load.add_row({target == 0.0 ? "blast" : fmt_double(target, 0),
                        fmt_double(r.achieved_rps, 1), std::to_string(r.completed),
                        std::to_string(r.cached), fmt_double(r.p50_us, 1),
                        fmt_double(r.p99_us, 1), fmt_double(r.p999_us, 1)});
    points.push_back(load_result_json(r));
  }
  std::cout << table_load << '\n';
  report.set("load_points", std::move(points));
  report.set("sustainable_rps", Json::number(sustainable_rps));

  // -------------------------------------------- 2b. stage-latency windows
  std::cout << "--- stage latency (wire.stage.queue_wait windows) ---\n";
  {
    // Unloaded window: the identity replays (a handful of pipelined
    // requests against idle workers). Loaded window: the unpaced blast (400
    // requests dumped onto 1 worker → deep evaluation queue). Queue-wait
    // must be ~0 in the former and clearly nonzero — and larger — in the
    // latter.
    const auto unloaded = find_histogram(snapshot_after_identity,
                                         "wire.stage.queue_wait");
    const auto loaded = histogram_window(
        unloaded, find_histogram(snapshot_after_blast, "wire.stage.queue_wait"));
    const double unloaded_mean =
        unloaded.count == 0 ? 0.0
                            : static_cast<double>(unloaded.total_ns) /
                                  static_cast<double>(unloaded.count);
    const double loaded_mean =
        loaded.count == 0 ? 0.0
                          : static_cast<double>(loaded.total_ns) /
                                static_cast<double>(loaded.count);
    check(unloaded.count > 0, "identity phase recorded queue-wait stages");
    check(loaded.count > 0, "blast load point recorded queue-wait stages");
    check(unloaded_mean < 20e6,
          "unloaded queue-wait mean stays ~0 (< 20 ms; got " +
              fmt_double(unloaded_mean / 1e6, 2) + " ms)");
    check(loaded_mean > 0.0, "blast queue-wait is nonzero");
    check(loaded_mean > unloaded_mean,
          "blast queue-wait mean exceeds the unloaded mean");
    std::cout << "unloaded mean " << fmt_double(unloaded_mean / 1e3, 1)
              << " us (" << unloaded.count << " reqs), blast mean "
              << fmt_double(loaded_mean / 1e3, 1) << " us (" << loaded.count
              << " reqs), blast p99 "
              << fmt_double(obs::estimate_quantile_ns(loaded, 0.99) / 1e3, 1)
              << " us\n\n";
    Json stage_latency = Json::object();
    stage_latency.set("unloaded_queue_wait", stage_window_json(unloaded));
    stage_latency.set("blast_queue_wait", stage_window_json(loaded));
    report.set("stage_latency", std::move(stage_latency));
  }

  // Every flight-recorder entry must account for its wall time exactly:
  // the stage marks partition [arrival, finish] by construction, so the
  // stage durations sum to wall_ns with zero tolerance.
  {
    const std::vector<obs::rt::RequestTrace> recent =
        obs::rt::FlightRecorder::instance().recent();
    check(!recent.empty(), "flight recorder holds completed traces");
    std::size_t exact = 0;
    for (const obs::rt::RequestTrace& trace : recent) {
      std::uint64_t stage_sum = 0;
      for (const std::uint64_t ns : trace.stage_ns) stage_sum += ns;
      if (stage_sum == trace.wall_ns()) ++exact;
    }
    check(exact == recent.size(),
          "stage durations sum to wall time for every recorded trace");

    // Embed a tracez sample (the last few recent + shame entries) so the
    // committed baseline shows a real stage breakdown. Wall-clock values
    // are non-gating — scripts/bench.sh diffs only metrics.counters.
    Json sample = Json::object();
    Json recent_json = Json::array();
    const std::size_t first = recent.size() > 5 ? recent.size() - 5 : 0;
    for (std::size_t i = first; i < recent.size(); ++i) {
      recent_json.push_back(obs::rt::trace_to_json(recent[i]));
    }
    sample.set("recent", std::move(recent_json));
    Json shame_json = Json::array();
    const std::vector<obs::rt::RequestTrace> shame =
        obs::rt::FlightRecorder::instance().shame();
    const std::size_t shame_first = shame.size() > 5 ? shame.size() - 5 : 0;
    for (std::size_t i = shame_first; i < shame.size(); ++i) {
      shame_json.push_back(obs::rt::trace_to_json(shame[i]));
    }
    sample.set("shame", std::move(shame_json));
    report.set("tracez_sample", std::move(sample));
  }

  // Counter snapshot now: everything so far is a fixed request stream, while
  // the overload phase below sheds (and therefore evaluates) a
  // timing-dependent subset.
  report.set("metrics", metrics_to_json(filtered_snapshot()));

  // ------------------------------------------------------------ 3. overload
  std::cout << "--- overload: >= 2x sustainable against watermark 1 ---\n";
  {
    const double offered = std::max(2.0 * sustainable_rps, 1000.0);
    std::vector<std::string> cold;
    for (std::uint64_t i = 0; i < 300; ++i) cold.push_back(spec_body(10000 + i));
    wire::ServerOptions options;
    options.queue_high_watermark = 1;
    const LoadResult r = run_load_point(cold, offered, 1, options);
    check(r.completed == r.requests, "overload phase answered every request");
    check(r.overloads > 0, "overload phase shed explicitly");
    check(r.overloads < r.requests, "overload phase still evaluated some requests");
    check(r.errors == 0, "sheds are overloads, not errors");
    std::cout << "offered " << fmt_double(offered, 0) << " rps -> "
              << r.overloads << "/" << r.requests << " shed, "
              << (r.requests - r.overloads - r.cached) << " evaluated, p99 "
              << fmt_double(r.p99_us, 1) << " us\n\n";
    Json j = load_result_json(r);
    j.set("offered_rps", Json::number(offered));
    report.set("overload", std::move(j));
  }

  // --------------------------------------------------------------- 4. drain
  std::cout << "--- drain with evaluations in flight ---\n";
  {
    svc::ResultCache cache(512);
    wire::ServerOptions options;
    options.workers = 2;
    wire::Server server(cache, options);
    server.start();
    wire::Client client;
    client.connect("127.0.0.1", server.port());
    const std::size_t kInFlight = 12;
    for (std::uint64_t i = 0; i < kInFlight; ++i) client.send(spec_body(20000 + i));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const auto drain_start = Clock::now();
    server.drain();
    const double drain_secs = seconds_since(drain_start);
    std::size_t answered = 0;
    bool clean_eof = false;
    try {
      while (client.recv().has_value()) ++answered;
      clean_eof = true;
    } catch (const wire::WireError&) {
    }
    check(clean_eof, "drain closes the stream cleanly (no truncated frame)");
    check(answered <= kInFlight, "drain answers at most what was sent");
    check(server.queue_depth() == 0, "drain leaves no queued evaluations");
    std::cout << "drained in " << fmt_double(drain_secs * 1000.0, 1) << " ms, "
              << answered << "/" << kInFlight << " admitted requests answered\n\n";
    Json j = Json::object();
    j.set("sent", Json::number(static_cast<std::int64_t>(kInFlight)));
    j.set("answered", Json::number(static_cast<std::int64_t>(answered)));
    j.set("drain_seconds", Json::number(drain_secs));
    j.set("clean_eof", Json::boolean(clean_eof));
    report.set("drain", std::move(j));
  }

  Json checks = Json::object();
  checks.set("failed", Json::number(static_cast<std::int64_t>(failures)));
  report.set("checks", std::move(checks));

  std::ofstream out(out_path);
  out << report.dump(2) << '\n';
  out.close();
  if (!out) {
    std::cerr << "error: could not write report to " << out_path << '\n';
    return 1;
  }
  std::cout << "report written to " << out_path << '\n';

  if (failures > 0) {
    std::cerr << failures << " check(s) FAILED\n";
    return 1;
  }
  std::cout << "all checks passed\n";
  return 0;
}
