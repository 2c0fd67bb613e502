#include "replay.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"
#include "svc/cache.hpp"
#include "svc/service.hpp"
#include "wire/framing.hpp"
#include "wire/protocol.hpp"

namespace e2ebench {

using namespace closfair;

const std::vector<std::string> kSpanNames = {
    "bench.request",    "wire.frame",        "wire.parse_request", "svc.canonical",
    "svc.cache_lookup", "svc.resolve_delta", "svc.evaluate",       "svc.evaluate_warm",
    "svc.cache_insert", "wire.render",       "net.build",          "workload.generate",
    "fault.apply",      "fairness.macro",    "routing.heuristic",  "routing.search",
    "fairness.final",   "lp.final"};

namespace {

/// A cold evaluation the traced pass decomposes once the request is done.
struct Cold {
  int span = -1;
  svc::ScenarioSpec spec;
  svc::ScenarioResult result;
};

std::string reframe(const std::string& payload, Tracer& tracer, std::uint32_t rid, int root) {
  const ScopedSpan span(tracer, "wire.frame", rid, root);
  wire::FrameDecoder decoder;
  decoder.feed(wire::encode_frame(payload));
  return *decoder.next();
}

/// One request through the steps the server takes for it: framing (socket
/// workloads), parse, canonicalize, cache lookup, evaluation on a miss
/// (delta resolution and the warm path for deltas), cache insert, render.
void run_one(const ReplayRequest& request, svc::ResultCache& cache, Tracer& tracer,
             std::uint32_t rid, const ReplayOptions& options, std::optional<Cold>& cold) {
  const ScopedSpan root(tracer, "bench.request", rid, -1);
  const int r = root.id();
  const std::string payload =
      options.framed ? reframe(request.line, tracer, rid, r) : request.line;
  wire::Request parsed = [&] {
    const ScopedSpan span(tracer, "wire.parse_request", rid, r);
    return wire::parse_request(payload);
  }();
  if (!parsed.ok()) throw std::runtime_error("replayed request does not parse: " + parsed.error);

  std::optional<svc::DeltaResolution> resolution;
  if (parsed.is_delta()) {
    const ScopedSpan span(tracer, "svc.resolve_delta", rid, r);
    resolution = svc::resolve_delta(cache, *parsed.delta);
    if (!resolution->ok()) throw std::runtime_error("replayed delta: " + resolution->error);
  }
  const svc::ScenarioSpec& spec = parsed.is_delta() ? resolution->spec : *parsed.spec;
  std::string canonical;
  std::uint64_t hash = 0;
  {
    const ScopedSpan span(tracer, "svc.canonical", rid, r);
    canonical = spec.canonical();
    hash = svc::fnv1a64(canonical);
  }
  std::optional<svc::ScenarioResult> result;
  {
    const ScopedSpan span(tracer, "svc.cache_lookup", rid, r);
    result = cache.lookup(canonical);
  }
  const bool cached = result.has_value();
  if (!cached) {
    if (resolution.has_value() && resolution->base.has_value()) {
      const ScopedSpan span(tracer, "svc.evaluate_warm", rid, r);
      result = svc::evaluate_scenario_warm(spec, *resolution->base_spec,
                                           resolution->base->result());
    } else {
      const ScopedSpan span(tracer, "svc.evaluate", rid, r);
      result = svc::evaluate_scenario(spec);
      if (tracer.enabled()) cold = Cold{span.id(), spec, *result};
    }
    const ScopedSpan span(tracer, "svc.cache_insert", rid, r);
    cache.insert(canonical, *result);
  }
  const std::string response = [&] {
    const ScopedSpan span(tracer, "wire.render", rid, r);
    return wire::render_result(parsed.id, hash, cached, *result);
  }();
  if (options.framed) (void)reframe(response, tracer, rid, r);
}

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : obs::Registry::instance().snapshot().counters) out[c.name] = c.value;
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// The obs-counter ratios, over the untraced pass's measured requests.
void counter_metrics(const std::map<std::string, std::uint64_t>& before,
                     const std::map<std::string, std::uint64_t>& after, double requests,
                     std::map<std::string, double>& m) {
  const auto d = [&](const char* name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  const double calls = d("waterfill.calls") + d("waterfill.generic_calls");
  m["svc.cache_hit_ratio"] = ratio(d("svc.cache_hits"), d("svc.cache_hits") + d("svc.cache_misses"));
  m["svc.cache_evictions"] = d("svc.cache_evictions");
  m["svc.delta_result_reuse_ratio"] = ratio(d("svc.delta_result_reuses"), d("svc.delta_requests"));
  m["waterfill.seed_hit_ratio"] =
      ratio(d("waterfill.seed_hits"), d("waterfill.seed_hits") + d("waterfill.seed_misses"));
  m["lp.seed_hit_ratio"] = ratio(d("lp.seed_hits"), d("lp.seed_hits") + d("lp.seed_misses"));
  m["waterfill.calls_per_req"] = ratio(calls, requests);
  m["waterfill.rounds_per_call"] =
      ratio(d("waterfill.rounds") + d("waterfill.generic_rounds"), calls);
  m["waterfill.fast_share"] = ratio(d("waterfill.fast_calls"), d("waterfill.calls"));
  m["waterfill.fallback_calls"] = d("waterfill.fallback_calls");
  m["search.candidates_per_req"] = ratio(d("search.candidates"), requests);
  m["search.routings_per_candidate"] = ratio(d("search.routings_covered"), d("search.candidates"));
  m["lp.pivots_per_solve"] = ratio(d("lp.pivots"), d("lp.solves") + d("lp.two_phase_solves"));
}

}  // namespace

ReplayReport replay(const std::vector<ReplayRequest>& requests, const ReplayOptions& options) {
  ReplayReport report;
  std::optional<Cold> cold;

  // Untraced pass: the work counters over the measured requests, and their
  // wall time (the overhead baseline once caches and allocator are warm).
  std::map<std::string, std::uint64_t> before;
  std::map<std::string, std::uint64_t> after;
  const auto untraced = [&] {
    svc::ResultCache cache(options.cache_capacity);
    Tracer off(false);
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].measured && (i == 0 || !requests[i - 1].measured)) before = counters();
      const std::int64_t t0 = now_ns();
      run_one(requests[i], cache, off, static_cast<std::uint32_t>(i), options, cold);
      if (requests[i].measured) ns += now_ns() - t0;
    }
    after = counters();
    return ns;
  };
  (void)untraced();
  for (const ReplayRequest& r : requests) report.requests += r.measured ? 1 : 0;
  counter_metrics(before, after, static_cast<double>(report.requests), report.metrics);

  // Traced pass, with the layer-by-layer second pass after each cold
  // evaluation charged to that evaluation's span.
  Tracer tracer(true);
  {
    svc::ResultCache cache(options.cache_capacity);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto rid = static_cast<std::uint32_t>(i);
      cold.reset();
      run_one(requests[i], cache, tracer, rid, options, cold);
      if (!cold.has_value()) continue;
      ++report.decomposed;
      try {
        const svc::ScenarioResult again = evaluate_decomposed(cold->spec, tracer, cold->span, rid);
        if (again.to_json().dump() != cold->result.to_json().dump()) {
          report.errors.push_back("decomposed pass differs from evaluate_scenario on " +
                                  cold->spec.canonical());
        }
      } catch (const std::exception& e) {
        report.errors.push_back(std::string{e.what()} + " in " + cold->spec.canonical());
      }
    }
  }
  const std::int64_t untraced_ns = untraced();
  const std::vector<Span>& spans = tracer.spans();

  // Self time = duration minus the children's durations. The first-pass
  // children must lie inside their parent's interval; then each request's
  // self times sum exactly to its root span.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns();
    if (s.rid != p.rid || (!s.second_pass && (s.start_ns < p.start_ns || s.end_ns > p.end_ns))) {
      report.errors.push_back(std::string{"span "} + s.name + " escapes its parent " + p.name);
    }
  }
  std::vector<std::int64_t> root_ns(requests.size(), 0);
  std::vector<std::int64_t> self_sum(requests.size(), 0);
  std::vector<std::int64_t> front_ns(requests.size(), 0);
  std::map<std::string, std::int64_t> self_by_name;
  std::map<std::string, std::vector<double>> per_request_us;  // name -> per-request totals
  std::map<std::string, std::int64_t> this_request;
  std::vector<double> residual_us;
  std::uint32_t current = UINT32_MAX;
  const auto flush = [&] {
    if (current != UINT32_MAX && requests[current].measured) {
      for (const auto& [name, ns] : this_request) {
        per_request_us[name].push_back(static_cast<double>(ns) / 1e3);
      }
    }
    this_request.clear();
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.rid != current) {
      flush();
      current = s.rid;
    }
    const std::int64_t self = s.duration_ns() - child_ns[i];
    self_sum[s.rid] += self;
    if (s.parent < 0) root_ns[s.rid] += s.duration_ns();
    if (!requests[s.rid].measured) continue;
    this_request[s.name] += s.duration_ns();
    self_by_name[s.name] += self;
    const std::string name = s.name;
    if (name == "svc.evaluate") residual_us.push_back(static_cast<double>(self) / 1e3);
    if (name == "wire.parse_request" || name == "svc.canonical" || name == "wire.render") {
      front_ns[s.rid] += s.duration_ns();
    }
  }
  flush();

  std::int64_t traced_ns = 0;
  std::int64_t front_total = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (self_sum[i] != root_ns[i]) {
      report.errors.push_back("request " + std::to_string(i) +
                              ": self times do not sum to the root span");
    }
    if (!requests[i].measured) continue;
    traced_ns += root_ns[i];
    front_total += front_ns[i];
  }
  for (const std::string& name : kSpanNames) {
    report.metrics[name + ".p50_us"] = median(per_request_us[name]);
    report.metrics[name + ".share"] =
        ratio(static_cast<double>(self_by_name[name]), static_cast<double>(traced_ns));
  }
  report.metrics["svc.evaluate.residual_us"] = median(residual_us);
  report.metrics["bench.trace_overhead_frac"] =
      ratio(static_cast<double>(traced_ns - untraced_ns), static_cast<double>(untraced_ns));
  report.front_end_s =
      ratio(static_cast<double>(front_total) / 1e9, static_cast<double>(report.requests));
  report.spans = spans;
  return report;
}

}  // namespace e2ebench
