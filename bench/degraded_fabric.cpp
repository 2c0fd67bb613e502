// degraded_fabric — R2/R3 re-measured on fabrics with failed middle switches.
//
//   $ ./degraded_fabric [OUT.json]
//
// The paper's impossibility results are proven on pristine Clos fabrics; this
// harness asks how the same adversarial instances behave as middles die
// (fault/fault.hpp worst-case outages). Parts A-C issue every cell as a
// declarative ScenarioSpec evaluated by svc::evaluate_scenario (the
// adversarial flow sets ride inline as text-format instances, the outages as
// fault.worst_case_outage), so the service's evaluation path is pinned to
// the same exact rational anchors as driving the library directly. Four parts:
//
//   A. R2 starvation (Theorem 4.3): the type 3 flow's lex-max-min rate ratio
//      vs its macro rate, for f = 0..n-2 failed middles. f = 0 must
//      reproduce the pristine 1/n of EXPERIMENTS.md E4.
//   B. R2 replication (Theorem 4.2): the macro rates stay unroutable on the
//      pristine fabric — the E3 anchors (730 / 527,324 search nodes) pin the
//      exact-search trajectory.
//   C. R3 throughput gap (Theorem 5.4 gadgets): exact lex- and
//      throughput-max-min by exhaustive search at 1, 2, and 8 threads, for
//      f = 0..n-2 failed middles. Every thread count must return identical
//      rational outputs AND identical work counters (waterfill invocations,
//      routings covered) — the determinism gate. f = 0 reproduces the E17
//      frontier endpoints: (5,2) lex (8/3, min 1/3) vs throughput (3, 1/4).
//   D. RCP under a transient mid-run link failure: the rate-control loop
//      must re-converge to the degraded fabric's exact water-fill rates and
//      report a positive recovery-round count (direct, not via svc — the
//      rate-control simulator is not a scenario policy).
//
// Emits BENCH_degraded.json (path overridable) with every measured table and
// the obs registry snapshot (fault.* / rate_control.* / svc.* counters)
// under a "metrics" key; exits non-zero if any check fails.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/adversarial.hpp"
#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "io/json_export.hpp"
#include "io/text_format.hpp"
#include "obs/obs.hpp"
#include "sim/rate_control.hpp"
#include "svc/service.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace closfair;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "CHECK FAILED: " << what << '\n';
    ++failures;
  }
}

/// The adversarial flow set as canonical inline instance text (the one way a
/// ScenarioSpec carries an arbitrary flow list). `with_rates` attaches the
/// instance's macro rates as declared @rate targets (Part B's replication
/// question).
std::string inline_instance(int n, const AdversarialInstance& inst, bool with_rates) {
  InstanceSpec is;
  is.params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
  is.flows = inst.flows;
  if (with_rates) {
    is.rates.assign(inst.macro_rates.begin(), inst.macro_rates.end());
  }
  return format_instance(is);
}

std::vector<Rational> sorted_rates(const svc::ScenarioResult& r) {
  std::vector<Rational> s = r.rates;
  std::sort(s.begin(), s.end());
  return s;
}

/// Evaluate one spec; a failed cell is a harness bug.
svc::ScenarioResult run(const svc::ScenarioSpec& spec, const std::string& what) {
  try {
    return svc::evaluate_scenario(spec);
  } catch (const std::exception& e) {
    check(false, what + ": " + e.what());
    return {};
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_degraded.json";
  if (argc > 1) out_path = argv[1];
  if (argc > 2 || (!out_path.empty() && out_path[0] == '-')) {
    std::cerr << "usage: degraded_fabric [OUT.json]\n";
    return 2;
  }
  obs::Registry::instance().reset();

  Json report = Json::object();
  report.set("bench", Json::string("degraded_fabric"));

  // ---------------------------------------------------------------- Part A
  std::cout << "=== degraded fabric A: R2 starvation vs failed middles ===\n\n";
  Json part_a = Json::array();
  TextTable table_a({"n", "failed", "surviving", "rerouted", "type3 lex rate",
                     "ratio vs macro", "pristine 1/n"});
  for (int n : {3, 4}) {
    const AdversarialInstance inst = theorem_4_3_instance(n);
    const std::string instance = inline_instance(n, inst, /*with_rates=*/false);

    for (int f = 0; f <= n - 2; ++f) {
      svc::ScenarioSpec spec;
      spec.workload.instance = instance;
      spec.topology.params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
      spec.routing.policy = "lex_climb";
      spec.routing.start = *inst.witness;
      spec.routing.reroute_dead = true;
      spec.fault.worst_case_outage = f;
      const svc::ScenarioResult r =
          run(spec, "A: cell (n=" + std::to_string(n) + ", f=" + std::to_string(f) + ")");

      const FlowIndex type3 = r.num_flows - 1;
      const std::size_t rerouted = r.rerouted.value_or(0);
      const Rational ratio = r.rates[type3] / r.macro_rates[type3];

      if (f == 0) {
        check(rerouted == 0, "A: pristine witness needs no reroute (n=" + std::to_string(n) + ")");
        check(ratio == Rational{1, n},
              "A: pristine starvation ratio is 1/n (n=" + std::to_string(n) + ")");
      }
      table_a.add_row({std::to_string(n), std::to_string(f),
                       std::to_string(r.surviving_middles.value_or(0)),
                       std::to_string(rerouted), r.rates[type3].to_string(),
                       ratio.to_string(), Rational{1, n}.to_string()});
      Json row = Json::object();
      row.set("n", Json::number(static_cast<std::int64_t>(n)));
      row.set("failed_middles", Json::number(static_cast<std::int64_t>(f)));
      row.set("rerouted_flows", Json::number(static_cast<std::int64_t>(rerouted)));
      row.set("type3_lex_rate", Json::string(r.rates[type3].to_string()));
      row.set("ratio_vs_macro", Json::string(ratio.to_string()));
      part_a.push_back(std::move(row));
    }
  }
  std::cout << table_a << '\n';
  report.set("starvation", std::move(part_a));

  // ---------------------------------------------------------------- Part B
  std::cout << "=== degraded fabric B: R2 replication anchors (pristine) ===\n\n";
  Json part_b = Json::array();
  {
    const std::uint64_t expected_nodes[] = {730, 527324};
    int idx = 0;
    for (int n : {3, 4}) {
      const AdversarialInstance inst = theorem_4_2_instance(n);
      svc::ScenarioSpec spec;
      spec.workload.instance = inline_instance(n, inst, /*with_rates=*/true);
      spec.topology.params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
      spec.routing.policy = "replicate";
      const svc::ScenarioResult r =
          run(spec, "B: cell n=" + std::to_string(n));

      check(r.replication.has_value() && !r.replication->feasible,
            "B: macro rates unroutable on pristine C_" + std::to_string(n));
      const std::uint64_t nodes = r.replication ? r.replication->nodes_explored : 0;
      check(nodes == expected_nodes[idx],
            "B: E3 search-node anchor for n=" + std::to_string(n));
      std::cout << "n=" << n << ": "
                << (r.replication && r.replication->feasible ? "FEASIBLE (bug)" : "infeasible")
                << ", " << nodes << " nodes (anchor " << expected_nodes[idx] << ")\n";
      Json row = Json::object();
      row.set("n", Json::number(static_cast<std::int64_t>(n)));
      row.set("feasible", Json::boolean(r.replication && r.replication->feasible));
      row.set("nodes_explored", Json::number(static_cast<std::int64_t>(nodes)));
      part_b.push_back(std::move(row));
      ++idx;
    }
  }
  std::cout << '\n';
  report.set("replication", std::move(part_b));

  // ---------------------------------------------------------------- Part C
  std::cout << "=== degraded fabric C: R3 throughput gap vs failed middles ===\n\n";
  Json part_c = Json::array();
  TextTable table_c({"(n,k)", "failed", "lex T", "lex min", "tput T", "tput min",
                     "waterfills", "threads agree"});
  struct Gadget {
    int n;
    int k;
  };
  for (const Gadget g : {Gadget{3, 1}, Gadget{5, 2}}) {
    const AdversarialInstance inst = theorem_5_4_instance(g.n, g.k);
    const std::string instance = inline_instance(g.n, inst, /*with_rates=*/false);

    for (int f = 0; f <= g.n - 2; ++f) {
      // The determinism gate: identical rational outputs and identical work
      // counters at every thread count. prune_throughput_bound is off —
      // early-exit overshoot is the one legitimately thread-dependent
      // counter, so the gate excludes it by construction. Each thread count
      // evaluates afresh; no cache sits between the gate and the search.
      bool threads_agree = true;
      svc::ScenarioResult lex_ref;
      svc::ScenarioResult tput_ref;
      for (const unsigned threads : {1u, 2u, 8u}) {
        svc::ScenarioSpec spec;
        spec.workload.instance = instance;
        spec.topology.params = ClosNetwork::Params{g.n, 2 * g.n, g.n, Rational{1}};
        spec.routing.threads = threads;
        spec.routing.prune_throughput_bound = false;
        spec.fault.worst_case_outage = f;
        const std::string where = " ((n,k)=(" + std::to_string(g.n) + "," +
                                  std::to_string(g.k) + "), f=" + std::to_string(f) +
                                  ", threads=" + std::to_string(threads) + ")";
        spec.routing.policy = "exhaustive_lex";
        const svc::ScenarioResult lex = run(spec, "C: lex cell" + where);
        spec.routing.policy = "exhaustive_tput";
        const svc::ScenarioResult tput = run(spec, "C: tput cell" + where);
        if (threads == 1u) {
          lex_ref = lex;
          tput_ref = tput;
          continue;
        }
        threads_agree = threads_agree && sorted_rates(lex) == sorted_rates(lex_ref) &&
                        lex.middles == lex_ref.middles && lex.search == lex_ref.search &&
                        sorted_rates(tput) == sorted_rates(tput_ref) &&
                        tput.middles == tput_ref.middles && tput.search == tput_ref.search;
      }
      check(threads_agree, "C: thread counts 1/2/8 agree ((n,k)=(" +
                               std::to_string(g.n) + "," + std::to_string(g.k) +
                               "), f=" + std::to_string(f) + ")");

      const Rational lex_t = lex_ref.throughput;
      const Rational lex_min = sorted_rates(lex_ref).front();
      const Rational tput_t = tput_ref.throughput;
      const Rational tput_min = sorted_rates(tput_ref).front();
      if (f == 0 && g.n == 3) {
        // Single gadget: one-point frontier (E17) at the macro T^MmF = 3/2.
        check(lex_t == Rational{3, 2} && tput_t == Rational{3, 2},
              "C: (3,1) pristine one-point frontier at 3/2");
      }
      if (f == 0 && g.n == 5) {
        check(lex_t == Rational{8, 3} && lex_min == Rational{1, 3},
              "C: (5,2) pristine lex endpoint (8/3, 1/3)");
        check(tput_t == Rational{3} && tput_min == Rational{1, 4},
              "C: (5,2) pristine throughput endpoint (3, 1/4)");
      }

      const std::uint64_t waterfills = lex_ref.search ? lex_ref.search->waterfill_invocations : 0;
      table_c.add_row({"(" + std::to_string(g.n) + "," + std::to_string(g.k) + ")",
                       std::to_string(f), lex_t.to_string(), lex_min.to_string(),
                       tput_t.to_string(), tput_min.to_string(),
                       std::to_string(waterfills), threads_agree ? "yes" : "NO"});
      Json row = Json::object();
      row.set("n", Json::number(static_cast<std::int64_t>(g.n)));
      row.set("k", Json::number(static_cast<std::int64_t>(g.k)));
      row.set("failed_middles", Json::number(static_cast<std::int64_t>(f)));
      row.set("lex_throughput", Json::string(lex_t.to_string()));
      row.set("lex_min_rate", Json::string(lex_min.to_string()));
      row.set("tput_throughput", Json::string(tput_t.to_string()));
      row.set("tput_min_rate", Json::string(tput_min.to_string()));
      row.set("waterfill_invocations",
              Json::number(static_cast<std::int64_t>(waterfills)));
      row.set("threads_agree", Json::boolean(threads_agree));
      part_c.push_back(std::move(row));
    }
  }
  std::cout << table_c << '\n';
  report.set("throughput_gap", std::move(part_c));

  // ---------------------------------------------------------------- Part D
  std::cout << "=== degraded fabric D: RCP recovery from a transient failure ===\n\n";
  Json part_d = Json::object();
  {
    const AdversarialInstance inst = theorem_4_3_instance(3);
    const ClosNetwork net = ClosNetwork::paper(3);
    const FlowSet flows = instantiate(net, inst.flows);
    const Routing routing = expand_routing(net, flows, *inst.witness);

    RcpParams params;
    params.failures.push_back(LinkFailureEvent{40, net.uplink(1, 1), 0.5});
    const auto rcp = rcp_rate_control(net.topology(), flows, routing, params);
    check(rcp.converged, "D: RCP re-converges after the transient failure");
    check(rcp.recovery_rounds > 0, "D: recovery-round count is positive");

    // Final rates must be the degraded fabric's exact water-fill rates.
    fault::FailureScenario half;
    half.derated_links.push_back(
        fault::LinkDeration{fault::LinkStage::kUplink, 1, 1, Rational{1, 2}});
    const ClosNetwork degraded = fault::degrade(net, half);
    const auto oracle = max_min_fair<Rational>(degraded, flows, *inst.witness);
    double max_err = 0.0;
    for (FlowIndex fl = 0; fl < flows.size(); ++fl) {
      max_err = std::max(max_err,
                         std::abs(rcp.rates.rate(fl) - oracle.rate(fl).to_double()));
    }
    check(max_err < 1e-6, "D: RCP rates match the degraded water-fill oracle");
    std::cout << "converged in " << rcp.iterations << " rounds, recovery "
              << rcp.recovery_rounds << " rounds after the failure, max |rcp - oracle| = "
              << max_err << "\n\n";
    part_d.set("iterations", Json::number(static_cast<std::int64_t>(rcp.iterations)));
    part_d.set("recovery_rounds",
               Json::number(static_cast<std::int64_t>(rcp.recovery_rounds)));
    part_d.set("max_error_vs_waterfill", Json::number(max_err));
  }
  report.set("rcp_recovery", std::move(part_d));

  Json checks = Json::object();
  checks.set("failed", Json::number(static_cast<std::int64_t>(failures)));
  report.set("checks", std::move(checks));
  const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  report.set("metrics", metrics_to_json(snapshot));

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
