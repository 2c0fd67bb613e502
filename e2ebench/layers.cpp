#include "layers.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "io/text_format.hpp"
#include "lp/maxmin_lp.hpp"
#include "net/fattree.hpp"
#include "net/macroswitch.hpp"
#include "routing/doom_switch.hpp"
#include "routing/ecmp.hpp"
#include "routing/exhaustive.hpp"
#include "routing/generic.hpp"
#include "routing/greedy.hpp"
#include "routing/local_search.hpp"
#include "routing/replication.hpp"
#include "util/rng.hpp"
#include "workload/stochastic.hpp"

namespace e2ebench {

using namespace closfair;
using svc::ScenarioResult;
using svc::ScenarioSpec;

int Tracer::begin(const char* name, std::uint32_t rid, int parent, bool second_pass) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.rid = rid;
  span.second_pass = second_pass;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

namespace {

[[noreturn]] void unsupported(const std::string& what) {
  throw std::runtime_error("decomposed pass: unsupported " + what);
}

/// The generator dispatch of svc's make_workload, restricted to the
/// generators the benchmark emits.
FlowCollection make_workload(const svc::WorkloadSpec& wl, const Fabric& fabric, Rng& rng,
                             std::vector<std::optional<Rational>>& targets) {
  targets.clear();
  if (!wl.instance.empty()) {
    const InstanceSpec inst = parse_instance(wl.instance);
    targets = inst.rates;
    return inst.flows;
  }
  if (wl.generator == "uniform") return uniform_random(fabric, wl.count, rng);
  if (wl.generator == "permutation") return random_permutation(fabric, rng);
  if (wl.generator == "zipf") return zipf_destinations(fabric, wl.count, wl.skew, rng);
  if (wl.generator == "hotspot") {
    return hotspot(fabric, wl.count, wl.hot_tor, wl.hot_fraction, rng);
  }
  if (wl.generator == "incast") {
    return incast(fabric, wl.count, wl.dst_tor, wl.dst_server, rng);
  }
  unsupported("generator '" + wl.generator + "'");
}

std::vector<double> as_demands(const Allocation<Rational>& macro) {
  std::vector<double> demands;
  demands.reserve(macro.size());
  for (FlowIndex f = 0; f < macro.size(); ++f) demands.push_back(macro.rate(f).to_double());
  return demands;
}

void fill_routed(ScenarioResult& result, const Allocation<Rational>& alloc) {
  result.routed = true;
  result.rates = alloc.rates();
  result.throughput = alloc.throughput();
  result.throughput_ratio = result.macro_throughput.is_zero()
                                ? Rational{1}
                                : result.throughput / result.macro_throughput;
  Rational min_ratio{1};
  bool any = false;
  for (FlowIndex f = 0; f < result.rates.size(); ++f) {
    if (result.macro_rates[f].is_zero()) continue;
    const Rational ratio = result.rates[f] / result.macro_rates[f];
    min_ratio = !any || ratio < min_ratio ? ratio : min_ratio;
    any = true;
  }
  result.min_rate_ratio = min_ratio;
}

struct Pass {
  Tracer& tracer;
  int parent;
  std::uint32_t rid;

  template <typename F>
  auto operator()(const char* name, F&& body) {
    const ScopedSpan span(tracer, name, rid, parent, true);
    return body();
  }
};

ScenarioResult fattree(const ScenarioSpec& spec, Pass& span) {
  if (spec.routing.policy != "ecmp") unsupported("fat-tree policy " + spec.routing.policy);
  const FatTree ft = span("net.build", [&] { return FatTree(spec.topology.fattree_k); });
  const Fabric fabric{ft.num_edge_switches(), ft.servers_per_edge()};
  Rng rng(spec.workload.seed);
  std::vector<std::optional<Rational>> targets;
  const FlowCollection specs = span(
      "workload.generate", [&] { return make_workload(spec.workload, fabric, rng, targets); });
  const MacroSwitch ms = span("net.build", [&] {
    return MacroSwitch(MacroSwitch::Params{fabric.num_tors, fabric.servers_per_tor, Rational{1}});
  });
  const auto macro =
      span("fairness.macro", [&] { return max_min_fair<Rational>(ms, instantiate(ms, specs)); });

  ScenarioResult result;
  result.num_flows = specs.size();
  result.macro_rates = macro.rates();
  result.macro_throughput = macro.throughput();

  const FlowSet flows = span("workload.generate", [&] { return instantiate(ft, specs); });
  Rng policy_rng = spec.routing.seed.has_value() ? Rng(*spec.routing.seed) : std::move(rng);
  const Routing routing = span("routing.heuristic", [&] {
    PathCandidates candidates;
    candidates.reserve(flows.size());
    for (const Flow& flow : flows) candidates.push_back(ft.paths(flow.src, flow.dst));
    return ecmp_paths(candidates, policy_rng);
  });
  const bool lp = spec.objective == "maxmin_lp";
  span(lp ? "lp.final" : "fairness.final", [&] {
    fill_routed(result, lp ? max_min_fair_lp<Rational>(ft.topology(), flows, routing)
                           : max_min_fair<Rational>(ft.topology(), flows, routing));
    return 0;
  });
  return result;
}

ScenarioResult clos(const ScenarioSpec& spec, Pass& span) {
  if (spec.topology.kind != "clos") unsupported("topology " + spec.topology.kind);
  const std::string& policy = spec.routing.policy;
  if (policy == "none" || !spec.routing.start.empty()) unsupported("routing group");
  const Fabric fabric{spec.topology.params.num_tors, spec.topology.params.servers_per_tor};
  Rng rng(spec.workload.seed);
  std::vector<std::optional<Rational>> targets;
  const FlowCollection specs = span(
      "workload.generate", [&] { return make_workload(spec.workload, fabric, rng, targets); });
  const MacroSwitch ms = span("net.build", [&] {
    return MacroSwitch(MacroSwitch::Params{spec.topology.params.num_tors,
                                           spec.topology.params.servers_per_tor,
                                           spec.topology.params.link_capacity});
  });
  const auto macro =
      span("fairness.macro", [&] { return max_min_fair<Rational>(ms, instantiate(ms, specs)); });

  ScenarioResult result;
  result.num_flows = specs.size();
  result.macro_rates = macro.rates();
  result.macro_throughput = macro.throughput();

  ClosNetwork net = span("net.build", [&] { return ClosNetwork(spec.topology.params); });
  span("fault.apply", [&] {
    if (!spec.fault.empty()) {
      if (!spec.fault.scenario.empty()) fault::apply(net, spec.fault.scenario);
      if (spec.fault.sample_middles > 0 || spec.fault.link_failure_p > 0.0) {
        Rng fault_rng(spec.fault.seed);
        if (spec.fault.sample_middles > 0) {
          fault::apply(net, fault::sample_middle_outage(net, spec.fault.sample_middles, fault_rng));
        }
        if (spec.fault.link_failure_p > 0.0) {
          fault::apply(net, fault::sample_link_failures(net, spec.fault.link_failure_p, fault_rng));
        }
      }
      if (spec.fault.worst_case_outage > 0) {
        fault::apply(net, fault::worst_case_outage(net, spec.fault.worst_case_outage));
      }
    }
    result.surviving_middles = static_cast<int>(fault::surviving_middles(net).size());
    return 0;
  });

  const FlowSet flows = span("workload.generate", [&] { return instantiate(net, specs); });

  if (policy == "replicate") {
    span("routing.search", [&] {
      std::vector<Rational> rates;
      rates.reserve(flows.size());
      for (FlowIndex f = 0; f < flows.size(); ++f) {
        const bool declared = f < targets.size() && targets[f].has_value();
        rates.push_back(declared ? *targets[f] : macro.rate(f));
      }
      const ReplicationResult rep = find_feasible_routing(net, flows, rates);
      svc::ReplicationStats stats;
      stats.feasible = rep.feasible;
      stats.nodes_explored = rep.nodes_explored;
      if (rep.routing.has_value()) stats.witness = *rep.routing;
      result.replication = stats;
      return 0;
    });
    return result;
  }

  Rng policy_rng = spec.routing.seed.has_value() ? Rng(*spec.routing.seed) : std::move(rng);
  const bool exhaustive = policy == "exhaustive_lex" || policy == "exhaustive_tput";
  MiddleAssignment middles = span(exhaustive ? "routing.search" : "routing.heuristic", [&] {
    if (policy == "ecmp") return ecmp_routing(net, flows, policy_rng);
    if (policy == "greedy") return greedy_routing(net, flows, as_demands(macro));
    if (policy == "local_search") {
      LocalSearchOptions options;
      options.max_moves = spec.routing.max_moves;
      return congestion_local_search(net, flows, as_demands(macro),
                                     greedy_routing(net, flows, as_demands(macro)), options);
    }
    if (policy == "doom") return doom_switch(net, flows).middles;
    if (!exhaustive) unsupported("policy " + policy);
    ExhaustiveOptions options;
    if (spec.routing.max_routings != 0) options.max_routings = spec.routing.max_routings;
    options.fix_first_flow = spec.routing.fix_first_flow;
    options.num_threads = spec.routing.threads;
    options.prune_throughput_bound = spec.routing.prune_throughput_bound;
    const ExactRoutingResult exact = policy == "exhaustive_lex"
                                         ? lex_max_min_exhaustive(net, flows, options)
                                         : throughput_max_min_exhaustive(net, flows, options);
    result.search = svc::SearchStats{exact.routings_evaluated, exact.waterfill_invocations};
    return exact.middles;
  });

  const bool lp = spec.objective == "maxmin_lp";
  span(lp ? "lp.final" : "fairness.final", [&] {
    const Routing paths = expand_routing(net, flows, middles);
    fill_routed(result, lp ? max_min_fair_lp<Rational>(net.topology(), flows, paths)
                           : max_min_fair<Rational>(net.topology(), flows, paths));
    return 0;
  });
  result.middles = std::move(middles);
  return result;
}

}  // namespace

FlowCollection workload_flows(const ScenarioSpec& spec) {
  Rng rng(spec.workload.seed);
  std::vector<std::optional<Rational>> targets;
  return make_workload(spec.workload,
                       Fabric{spec.topology.params.num_tors, spec.topology.params.servers_per_tor},
                       rng, targets);
}

ScenarioResult evaluate_decomposed(const ScenarioSpec& spec, Tracer& tracer, int parent,
                                   std::uint32_t rid) {
  Pass pass{tracer, parent, rid};
  return spec.topology.kind == "fattree" ? fattree(spec, pass) : clos(spec, pass);
}

}  // namespace e2ebench
