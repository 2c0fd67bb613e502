// service — batch-evaluation service benchmark (src/svc through batch mode).
//
//   $ ./service [OUT.json]
//
// Sends a mixed batch of 100+ ScenarioSpec request lines (stochastic Clos
// sweeps, fat-tree cells, macro-only references, inline adversarial
// instances with worst-case outages, replication feasibility, and exact
// exhaustive-search cells) through the service's batch request path,
// wire::answer_batch, and gates its contracts:
//
//   1. Determinism: the full batch returns byte-identical response lines
//      from fresh services at 1, 2, and 8 workers, and in-batch duplicates
//      resolve as dedup hits.
//   2. Cache efficacy: re-submitting a batch hits the content-addressed
//      cache at >= 99%, and on the exhaustive-search subset warm requests
//      cost <= 1/10 of cold ones.
//   3. Deltas: every delta class (add-flow, remove-flow, fail-middle,
//      derate-link, objective-switch) answers with the bytes of the patched
//      spec's cold response at 1/2/8 workers, and the objective switch over
//      an exhaustive-search base is >= 5x cheaper than cold.
//
// Both timing gates compare interleaved best-of-N windows of process CPU
// time, request line in to response line out. Emits BENCH_service.json
// (path overridable): cold vs warm cost, hit rates, the determinism digest,
// and the obs registry snapshot of the scripted request phases (svc.* /
// wire.* / waterfill.* / search.* counters) under a "metrics" key —
// scripts/bench.sh diffs the deterministic counters against the committed
// baseline. Exits non-zero if any gate fails.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/adversarial.hpp"
#include "io/json_export.hpp"
#include "io/text_format.hpp"
#include "obs/obs.hpp"
#include "svc/service.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "wire/server.hpp"

using namespace closfair;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "CHECK FAILED: " << what << '\n';
    ++failures;
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string inline_instance(int n, const AdversarialInstance& inst, bool with_rates) {
  InstanceSpec is;
  is.params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
  is.flows = inst.flows;
  if (with_rates) is.rates.assign(inst.macro_rates.begin(), inst.macro_rates.end());
  return format_instance(is);
}

svc::ScenarioSpec clos3_cell(const char* generator, std::uint64_t seed,
                             const char* policy) {
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
  spec.workload.generator = generator;
  spec.workload.seed = seed;
  if (std::string(generator) != "permutation") spec.workload.count = 24;
  if (std::string(generator) == "zipf") spec.workload.skew = 1.2;
  if (std::string(generator) == "hotspot") {
    spec.workload.hot_tor = 1;
    spec.workload.hot_fraction = 0.5;
  }
  if (std::string(generator) == "incast") {
    spec.workload.count = 8;
    spec.workload.dst_tor = 1;
    spec.workload.dst_server = 1;
  }
  spec.routing.policy = policy;
  if (std::string(policy) == "lex_climb") spec.routing.max_moves = 200;
  return spec;
}

/// The full mixed request set. The final `duplicates` entries repeat the
/// head of the batch verbatim, exercising in-batch dedup.
std::vector<svc::ScenarioSpec> build_batch(std::size_t duplicates) {
  std::vector<svc::ScenarioSpec> specs;

  // Stochastic Clos sweep: 5 seeded generators x 4 policies x 4 seeds.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const char* wl : {"uniform", "permutation", "zipf", "hotspot", "incast"}) {
      for (const char* policy : {"ecmp", "greedy", "local_search", "lex_climb"}) {
        specs.push_back(clos3_cell(wl, seed, policy));
      }
    }
  }

  // Deterministic generators under demand-aware and LP-guided policies.
  for (const char* wl : {"stride", "all_to_all"}) {
    for (const char* policy : {"greedy", "doom", "lp_round"}) {
      svc::ScenarioSpec spec;
      spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
      spec.workload.generator = wl;
      if (std::string(wl) == "stride") spec.workload.stride = 3;
      spec.routing.policy = policy;
      if (std::string(policy) == "lp_round") {
        spec.routing.seed = 7;
        spec.routing.attempts = 4;
      }
      specs.push_back(spec);
    }
  }

  // Macro-only references under both objectives.
  for (const char* objective : {"maxmin", "maxmin_lp"}) {
    svc::ScenarioSpec spec;
    spec.topology.kind = "macro";
    spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
    spec.workload.generator = "permutation";
    spec.workload.seed = 11;
    spec.routing.policy = "none";
    spec.objective = objective;
    specs.push_back(spec);
  }

  // Fat-tree cells through the topology-generic routing layer.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const char* policy : {"ecmp", "greedy", "local_search"}) {
      svc::ScenarioSpec spec;
      spec.topology.kind = "fattree";
      spec.topology.fattree_k = 4;
      spec.workload.generator = "uniform";
      spec.workload.count = 24;
      spec.workload.seed = seed;
      spec.routing.policy = policy;
      specs.push_back(spec);
    }
  }

  // Inline adversarial instance + witness start + worst-case outages.
  {
    const AdversarialInstance inst = theorem_4_3_instance(3);
    for (int f : {0, 1}) {
      svc::ScenarioSpec spec;
      spec.workload.instance = inline_instance(3, inst, false);
      spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
      spec.routing.policy = "lex_climb";
      spec.routing.start = *inst.witness;
      spec.routing.reroute_dead = true;
      spec.fault.worst_case_outage = f;
      specs.push_back(spec);
    }
  }

  // Replication feasibility (the §4.1 question) on the Theorem 4.2 gadget.
  {
    const AdversarialInstance inst = theorem_4_2_instance(3);
    svc::ScenarioSpec spec;
    spec.workload.instance = inline_instance(3, inst, true);
    spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
    spec.routing.policy = "replicate";
    specs.push_back(spec);
  }

  // Exact exhaustive-search cells — the expensive subset the cold/warm
  // throughput gate times separately (see exhaustive_subset()).
  for (const auto& [n, k] : {std::pair{3, 1}, std::pair{5, 2}}) {
    const AdversarialInstance inst = theorem_5_4_instance(n, k);
    const std::string instance = inline_instance(n, inst, false);
    for (int f : {0, 1}) {
      for (const char* policy : {"exhaustive_lex", "exhaustive_tput"}) {
        svc::ScenarioSpec spec;
        spec.workload.instance = instance;
        spec.topology.params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
        spec.routing.policy = policy;
        // The prune is a throughput-search option; lex specs do not take it.
        spec.routing.prune_throughput_bound = std::string(policy) == "exhaustive_lex";
        spec.fault.worst_case_outage = f;
        specs.push_back(spec);
      }
    }
  }

  for (std::size_t i = 0; i < duplicates; ++i) specs.push_back(specs[i]);
  return specs;
}

std::vector<svc::ScenarioSpec> exhaustive_subset(const std::vector<svc::ScenarioSpec>& all) {
  std::vector<svc::ScenarioSpec> subset;
  for (const svc::ScenarioSpec& spec : all) {
    if (spec.routing.policy.rfind("exhaustive_", 0) == 0) subset.push_back(spec);
  }
  return subset;
}

std::vector<std::string> as_lines(const std::vector<svc::ScenarioSpec>& specs) {
  std::vector<std::string> lines;
  for (const svc::ScenarioSpec& spec : specs) lines.push_back(spec.to_json().dump());
  return lines;
}

bool has_result(const std::string& response) {
  return response.find("\"result\":") != std::string::npos;
}

bool is_cached(const std::string& response) {
  return response.find("\"cached\":true") != std::string::npos;
}

/// CPU time of the whole process: answer_batch evaluates on worker threads,
/// and unlike wall time this does not grow while a thread is preempted.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The timing gates' windows: kTimingReps of each side, alternating, best
/// of each kept (the way perf_report times its water-fill gate). A hiccup
/// inflates one window, not the minimum, and a change in machine load hits
/// both sides alike. Each side returns the CPU seconds of its own timed
/// section, so per-window set-up (a fresh or primed service) is not charged.
constexpr int kTimingReps = 5;

template <class Cold, class Warm>
std::pair<double, double> best_interleaved(Cold cold, Warm warm) {
  double cold_best = std::numeric_limits<double>::infinity();
  double warm_best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kTimingReps; ++rep) {
    cold_best = std::min(cold_best, cold());
    warm_best = std::min(warm_best, warm());
  }
  return {cold_best, warm_best};
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_service.json";
  if (argc > 1) out_path = argv[1];
  if (argc > 2 || (!out_path.empty() && out_path[0] == '-')) {
    std::cerr << "usage: service [OUT.json]\n";
    return 2;
  }
  obs::Registry::instance().reset();

  const std::size_t kDuplicates = 8;
  const std::vector<svc::ScenarioSpec> batch_specs = build_batch(kDuplicates);
  const std::vector<std::string> batch = as_lines(batch_specs);
  const std::vector<std::string> exhaustive = as_lines(exhaustive_subset(batch_specs));
  std::cout << "=== svc benchmark: " << batch.size() << " mixed requests ("
            << kDuplicates << " in-batch duplicates, " << exhaustive.size()
            << " exhaustive cells) ===\n\n";

  Json report = Json::object();
  report.set("bench", Json::string("service"));
  report.set("requests", Json::number(static_cast<std::int64_t>(batch.size())));
  report.set("duplicates", Json::number(static_cast<std::int64_t>(kDuplicates)));

  // ------------------------------------------------- determinism across workers
  std::cout << "--- determinism: fresh service per worker count ---\n";
  TextTable table_d({"workers", "seconds", "scenarios/sec", "identical"});
  std::string reference;
  double cold_1worker = 0.0;
  for (const unsigned workers : {1u, 2u, 8u}) {
    svc::ResultCache cache(512);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<std::string> responses = wire::answer_batch(cache, workers, batch);
    const double secs = seconds_since(start);
    if (workers == 1u) cold_1worker = secs;

    std::string transcript;
    for (const std::string& response : responses) transcript += response + '\n';
    const bool identical = reference.empty() || transcript == reference;
    if (reference.empty()) reference = transcript;
    check(identical, "determinism: " + std::to_string(workers) +
                         "-worker batch is byte-identical to the 1-worker batch");
    check(responses.size() == batch.size(), "one response per request");
    for (std::size_t i = 0; i < responses.size(); ++i) {
      check(has_result(responses[i]), "request " + std::to_string(i) + " succeeds: " +
                                          responses[i]);
    }
    for (std::size_t i = batch.size() - kDuplicates; i < responses.size(); ++i) {
      check(is_cached(responses[i]), "duplicate request " + std::to_string(i) + " is a dedup hit");
    }
    table_d.add_row({std::to_string(workers), fmt_double(secs, 3),
                     fmt_double(static_cast<double>(batch.size()) / secs, 1),
                     identical ? "yes" : "NO"});
  }
  std::cout << table_d << '\n';
  report.set("determinism_digest_fnv", Json::string(svc::hash_hex(svc::fnv1a64(reference))));
  report.set("cold_seconds_1worker", Json::number(cold_1worker));

  // ------------------------------------------------- full-batch repeat hit rate
  std::cout << "--- cache: full-batch resubmission ---\n";
  double repeat_hit_rate = 0.0;
  {
    svc::ResultCache cache(512);
    (void)wire::answer_batch(cache, 2, batch);
    const std::vector<std::string> warm = wire::answer_batch(cache, 2, batch);
    std::size_t hits = 0;
    for (const std::string& response : warm) hits += is_cached(response) ? 1 : 0;
    repeat_hit_rate = static_cast<double>(hits) / static_cast<double>(warm.size());
    check(repeat_hit_rate >= 0.99, "repeat hit rate >= 99%");
    std::cout << "hit rate on resubmission: " << fmt_double(repeat_hit_rate * 100.0, 1)
              << "% (" << hits << '/' << warm.size() << ")\n\n";
  }
  report.set("repeat_hit_rate", Json::number(repeat_hit_rate));

  // ------------------------------------- exhaustive cells: cold, then warm
  const int kWarmRounds = 10;
  double warm_hit_rate = 0.0;
  {
    svc::ResultCache cache(512);
    (void)wire::answer_batch(cache, 2, exhaustive);
    std::size_t warm_hits = 0;
    for (int round = 0; round < kWarmRounds; ++round) {
      for (const std::string& response : wire::answer_batch(cache, 2, exhaustive)) {
        warm_hits += is_cached(response) ? 1 : 0;
      }
    }
    warm_hit_rate = static_cast<double>(warm_hits) /
                    static_cast<double>(exhaustive.size() * kWarmRounds);
    check(warm_hit_rate >= 0.99, "warm hit rate >= 99% on exhaustive cells");
  }

  // ------------------------------------------ deltas: warm == cold per class
  struct DeltaClass {
    const char* name;
    std::string base;   ///< request line
    std::string delta;  ///< request line
    std::string patched;  ///< the patched spec spelled directly
  };
  std::vector<DeltaClass> classes;
  {
    // Flow-edit bases need an inline instance (and no witness start).
    const AdversarialInstance gadget = theorem_4_3_instance(3);
    svc::ScenarioSpec flows_base;
    flows_base.workload.instance = inline_instance(3, gadget, false);
    flows_base.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
    flows_base.routing.policy = "greedy";

    // The objective switch rides on an exhaustive-search base: the patched
    // spec's routing is objective-independent and the two objectives agree
    // exactly, so the warm path returns the base result without re-running
    // the search — the class the >= 5x gate targets.
    const AdversarialInstance hard = theorem_5_4_instance(5, 2);
    svc::ScenarioSpec exhaustive_base;
    exhaustive_base.workload.instance = inline_instance(5, hard, false);
    exhaustive_base.topology.params = ClosNetwork::Params{5, 10, 5, Rational{1}};
    exhaustive_base.routing.policy = "exhaustive_lex";

    const std::pair<const char*, svc::ScenarioSpec> bases[] = {
        {"add_flow", flows_base},
        {"remove_flow", flows_base},
        {"fail_middle", clos3_cell("uniform", 1, "greedy")},
        {"derate_link", clos3_cell("uniform", 2, "greedy")},
        {"objective_switch", exhaustive_base},
    };
    const char* patches[] = {
        R"({"add_flows":[{"src_tor":1,"src_server":1,"dst_tor":2,"dst_server":2}]})",
        R"({"remove_flows":[0]})",
        R"({"fail_middles":[1]})",
        R"({"derate_links":[{"stage":"uplink","tor":1,"middle":1,"factor":"1/2"}]})",
        R"({"objective":"maxmin_lp"})",
    };
    for (std::size_t c = 0; c < std::size(bases); ++c) {
      const svc::ScenarioSpec& base = bases[c].second;
      classes.push_back(
          {bases[c].first, base.to_json().dump(),
           "{\"base\":\"" + svc::hash_hex(base.content_hash()) + "\",\"patch\":" + patches[c] +
               "}",
           svc::SpecPatch::from_json(Json::parse(patches[c])).apply(base).to_json().dump()});
    }
  }

  std::cout << "--- deltas: warm == cold bytes per class at 1/2/8 workers ---\n";
  std::vector<bool> delta_identical;
  for (const DeltaClass& dc : classes) {
    bool identical = true;
    for (const unsigned workers : {1u, 2u, 8u}) {
      // Three calls: the base, the delta (resolved warm against the
      // committed base), and the delta again — now a cache hit on the
      // patched spec (svc.delta_hits). scripts/bench.sh holds those
      // scripted warm starts and hits exactly.
      svc::ResultCache warm_cache(64);
      const std::string base = wire::answer_batch(warm_cache, workers, {dc.base}).at(0);
      check(has_result(base), std::string("delta base (") + dc.name + ") evaluates: " + base);
      const std::string warm = wire::answer_batch(warm_cache, workers, {dc.delta}).at(0);
      check(is_cached(wire::answer_batch(warm_cache, workers, {dc.delta}).at(0)),
            std::string("delta ") + dc.name + " resubmission served from cache");

      svc::ResultCache cold_cache(64);
      const std::string cold = wire::answer_batch(cold_cache, workers, {dc.patched}).at(0);
      check(has_result(cold), std::string("delta ") + dc.name + " cold evaluation: " + cold);
      identical = identical && warm == cold;
      check(warm == cold, std::string("delta ") + dc.name + " warm == cold bytes at " +
                              std::to_string(workers) + " workers");
    }
    delta_identical.push_back(identical);
  }
  std::cout << "checked " << classes.size() << " classes\n\n";

  // The counter snapshot covers the scripted request phases above. The
  // timing windows below repeat work purely to take a minimum, so they
  // stay out of the gated counters.
  report.set("metrics", metrics_to_json(obs::Registry::instance().snapshot()));

  // ----------------------------------------- cold vs warm on exhaustive cells
  std::cout << "--- cache: cold vs warm (exhaustive cells; best of " << kTimingReps
            << " interleaved windows of process CPU time) ---\n";
  {
    svc::ResultCache primed(512);
    (void)wire::answer_batch(primed, 1, exhaustive);
    const auto [cold_secs, warm_secs] = best_interleaved(
        [&] {
          svc::ResultCache fresh(512);
          const double t0 = process_cpu_seconds();
          (void)wire::answer_batch(fresh, 1, exhaustive);
          return process_cpu_seconds() - t0;
        },
        [&] {
          const double t0 = process_cpu_seconds();
          for (int round = 0; round < kWarmRounds; ++round) {
            (void)wire::answer_batch(primed, 1, exhaustive);
          }
          return (process_cpu_seconds() - t0) / kWarmRounds;
        });

    const double cold_rate = static_cast<double>(exhaustive.size()) / cold_secs;
    const double warm_rate = static_cast<double>(exhaustive.size()) / warm_secs;
    const double speedup = warm_rate / cold_rate;
    check(speedup >= 10.0, "warm throughput >= 10x cold on exhaustive cells");

    TextTable table_w({"phase", "cpu seconds/batch", "scenarios/cpu-sec"});
    table_w.add_row({"cold", fmt_double(cold_secs, 4), fmt_double(cold_rate, 1)});
    table_w.add_row({"warm", fmt_double(warm_secs, 6), fmt_double(warm_rate, 1)});
    std::cout << table_w << "warm/cold speedup: " << fmt_double(speedup, 1) << "x\n\n";

    Json cw = Json::object();
    cw.set("cells", Json::number(static_cast<std::int64_t>(exhaustive.size())));
    cw.set("cold_seconds", Json::number(cold_secs));
    cw.set("warm_seconds", Json::number(warm_secs));
    cw.set("cold_scenarios_per_sec", Json::number(cold_rate));
    cw.set("warm_scenarios_per_sec", Json::number(warm_rate));
    cw.set("warm_speedup", Json::number(speedup));
    cw.set("warm_hit_rate", Json::number(warm_hit_rate));
    report.set("cold_warm", std::move(cw));
  }

  // ----------------------------------------------- delta warm vs cold timing
  std::cout << "--- deltas: warm/cold speedup per class (1 worker, best of " << kTimingReps
            << " interleaved windows of process CPU time) ---\n";
  {
    TextTable table_delta({"class", "warm_ms", "cold_ms", "speedup", "identical"});
    Json delta_report = Json::object();
    double objective_speedup = 0.0;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const DeltaClass& dc = classes[c];
      // Both sides answer one request line: the delta against a committed
      // base, or the patched spec spelled directly.
      const auto [cold_secs, warm_secs] = best_interleaved(
          [&] {
            svc::ResultCache fresh(64);
            const double t0 = process_cpu_seconds();
            (void)wire::answer_batch(fresh, 1, {dc.patched});
            return process_cpu_seconds() - t0;
          },
          [&] {
            svc::ResultCache with_base(64);
            (void)wire::answer_batch(with_base, 1, {dc.base});
            const double t0 = process_cpu_seconds();
            (void)wire::answer_batch(with_base, 1, {dc.delta});
            return process_cpu_seconds() - t0;
          });
      const double speedup = cold_secs / warm_secs;
      if (std::string(dc.name) == "objective_switch") objective_speedup = speedup;
      table_delta.add_row({dc.name, fmt_double(warm_secs * 1e3, 3),
                           fmt_double(cold_secs * 1e3, 3), fmt_double(speedup, 1),
                           delta_identical[c] ? "yes" : "NO"});
      Json cls = Json::object();
      cls.set("warm_seconds", Json::number(warm_secs));
      cls.set("cold_seconds", Json::number(cold_secs));
      cls.set("warm_speedup", Json::number(speedup));
      cls.set("identical", Json::boolean(delta_identical[c]));
      delta_report.set(dc.name, std::move(cls));
    }
    check(objective_speedup >= 5.0,
          "objective_switch delta warm >= 5x cold over the exhaustive base");
    std::cout << table_delta << '\n';
    report.set("delta", std::move(delta_report));
  }
  report.set("timing", Json::string("best of " + std::to_string(kTimingReps) +
                                    " interleaved windows of process CPU time"));

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
