#include "svc/service.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "io/text_format.hpp"
#include "lp/maxmin_lp.hpp"
#include "lp/splittable.hpp"
#include "net/fattree.hpp"
#include "net/macroswitch.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "routing/doom_switch.hpp"
#include "routing/ecmp.hpp"
#include "routing/exhaustive.hpp"
#include "routing/generic.hpp"
#include "routing/greedy.hpp"
#include "routing/local_search.hpp"
#include "routing/lp_rounding.hpp"
#include "routing/replication.hpp"
#include "svc/policy.hpp"
#include "util/rng.hpp"
#include "workload/stochastic.hpp"

namespace closfair::svc {
namespace {

[[noreturn]] void fail(const std::string& message) { throw SpecError(message); }

/// Generate the coordinate-level collection (and declared target rates, for
/// inline instances). Generator draws consume `rng`; a subsequent seedless
/// seeded policy continues the same stream — the sweep-bench convention.
FlowCollection make_workload(const WorkloadSpec& wl, const Fabric& fabric, Rng& rng,
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
  if (wl.generator == "stride") return stride(fabric, wl.stride);
  if (wl.generator == "all_to_all") return tor_all_to_all(fabric);
  fail("unknown workload generator '" + wl.generator + "'");
}

std::vector<double> as_demands(const Allocation<Rational>& macro) {
  std::vector<double> demands;
  demands.reserve(macro.size());
  for (FlowIndex f = 0; f < macro.size(); ++f) {
    demands.push_back(macro.rate(f).to_double());
  }
  return demands;
}

/// Per-thread reuse of pristine topologies, keyed by their params. A sweep
/// evaluates many cells over a handful of fabric shapes, and building one
/// (node names, link and index tables) costs about as much as the rest of a
/// small cell. Each evaluating thread keeps its own entries, so lookups take
/// no lock. Entries are immutable and handed out as shared pointers: an
/// eviction never invalidates a topology in use, and a faulted cell degrades
/// a copy. Bounds are compile-time constants, not knobs: kEntries per
/// topology kind, least recently used out first, and a topology with more
/// than kMaxLinks links is built for its one cell and never kept.
template <typename Key, typename Net>
class TopologyCache {
 public:
  static constexpr std::size_t kEntries = 8;
  static constexpr std::size_t kMaxLinks = 4096;

  template <typename Build>
  std::shared_ptr<const Net> get(const Key& key, Build build) {
    ++clock_;
    for (Entry& entry : entries_) {
      if (entry.key == key) {
        entry.used = clock_;
        OBS_COUNTER_INC("topo_cache.hits");
        return entry.net;
      }
    }
    OBS_COUNTER_INC("topo_cache.misses");
    auto net = std::make_shared<const Net>(build());
    if (net->topology().num_links() > kMaxLinks) return net;
    Entry entry{key, net, clock_};
    if (entries_.size() < kEntries) {
      entries_.push_back(std::move(entry));
    } else {
      *std::min_element(entries_.begin(), entries_.end(),
                        [](const Entry& a, const Entry& b) { return a.used < b.used; }) =
          std::move(entry);
    }
    return net;
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Net> net;
    std::uint64_t used = 0;  ///< clock_ at the last hit or insert
  };
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
};

std::shared_ptr<const ClosNetwork> pristine_clos(const ClosNetwork::Params& params) {
  thread_local TopologyCache<ClosNetwork::Params, ClosNetwork> cache;
  return cache.get(params, [&] { return ClosNetwork(params); });
}

std::shared_ptr<const FatTree> pristine_fattree(int k) {
  thread_local TopologyCache<int, FatTree> cache;
  return cache.get(k, [&] { return FatTree(k); });
}

MacroSwitch::Params macro_params(const ClosNetwork::Params& params) {
  return {params.num_tors, params.servers_per_tor, params.link_capacity};
}

/// The macro-switch reference: the unique max-min fair allocation of `specs`
/// in the macro-switch of `params`. Its middle stage is unbounded, so the
/// water-fill runs over the server links alone and no topology is built.
Allocation<Rational> macro_reference(const MacroSwitch::Params& params,
                                     const FlowCollection& specs) {
  WaterfillWorkspace workspace;
  workspace.bind_server_links(params, specs);
  return Allocation<Rational>(workspace.max_min_rates({}));
}

/// The "maxmin_lp" objective's macro answer, on a built macro-switch.
Allocation<Rational> macro_lp(const MacroSwitch::Params& params, const FlowCollection& specs) {
  const MacroSwitch ms(params);
  const FlowSet flows = instantiate(ms, specs);
  return max_min_fair_lp<Rational>(ms.topology(), flows, macro_routing(ms, flows));
}

/// Shared tail: ratios of the routed allocation against the macro reference.
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

}  // namespace

/// What a Clos policy run reads. `rng` is the policy's stream: Rng(seed) when
/// the routing names a seed, otherwise the workload generator's stream,
/// continued.
struct ClosRun {
  const ScenarioSpec& spec;
  const ClosNetwork& net;
  const FlowCollection& specs;
  const std::vector<std::optional<Rational>>& targets;
  const Allocation<Rational>& macro;
  const FlowSet& flows;
  MiddleAssignment start;
  Rng rng;
  ScenarioResult& result;  ///< for the side outputs: search stats, replication
  /// The max-min fair allocation of the returned routing, set by policies
  /// that compute it anyway (the exhaustive searches, lex_climb, tput_climb); the
  /// "maxmin" objective then answers with it instead of filling again.
  std::optional<Allocation<Rational>> alloc;
};

/// What a fat-tree policy run reads; `rng` as for ClosRun.
struct FatTreeRun {
  const ScenarioSpec& spec;
  const FatTree& ft;
  const FlowSet& flows;
  const Allocation<Rational>& macro;
  Rng rng;
};

namespace {

using ClosRouting = std::optional<MiddleAssignment>;
using FatTreeRouting = std::optional<Routing>;

ClosRouting route_none(ClosRun&) { return std::nullopt; }

ClosRouting route_static(ClosRun& run) { return std::move(run.start); }

ClosRouting route_ecmp(ClosRun& run) { return ecmp_routing(run.net, run.flows, run.rng); }

ClosRouting route_greedy(ClosRun& run) {
  return greedy_routing(run.net, run.flows, as_demands(run.macro));
}

/// The hill climbers start from the given assignment, or from greedy.
MiddleAssignment climb_start(ClosRun& run) {
  return run.start.empty() ? *route_greedy(run) : std::move(run.start);
}

ClosRouting route_local_search(ClosRun& run) {
  const std::vector<double> demands = as_demands(run.macro);
  MiddleAssignment start = run.start.empty() ? greedy_routing(run.net, run.flows, demands)
                                             : std::move(run.start);
  return congestion_local_search(run.net, run.flows, demands, std::move(start),
                                 {run.spec.routing.max_moves});
}

template <LexSearchResult (*Climb)(const ClosNetwork&, const FlowSet&, MiddleAssignment,
                                   const LocalSearchOptions&)>
ClosRouting route_climb(ClosRun& run) {
  LexSearchResult climb =
      Climb(run.net, run.flows, climb_start(run), {run.spec.routing.max_moves});
  run.alloc = std::move(climb.alloc);
  return std::move(climb.middles);
}

ClosRouting route_doom(ClosRun& run) { return doom_switch(run.net, run.flows).middles; }

ClosRouting route_lp_round(ClosRun& run) {
  const MacroSwitch ms(macro_params(run.spec.topology.params));
  const SplittableMaxMin splittable = splittable_max_min(run.net, ms, run.specs);
  return round_splittable_best_of(run.net, run.flows, splittable, run.rng,
                                  run.spec.routing.attempts)
      .middles;
}

template <ExactRoutingResult (*Search)(const ClosNetwork&, const FlowSet&,
                                       const ExhaustiveOptions&)>
ClosRouting route_exhaustive(ClosRun& run) {
  const RoutingSpec& routing = run.spec.routing;
  ExhaustiveOptions options;
  if (routing.max_routings != 0) options.max_routings = routing.max_routings;
  options.fix_first_flow = routing.fix_first_flow;
  options.num_threads = routing.threads;
  options.prune_throughput_bound = routing.prune_throughput_bound;
  ExactRoutingResult exact = Search(run.net, run.flows, options);
  run.result.search = SearchStats{exact.routings_evaluated, exact.waterfill_invocations};
  run.alloc = std::move(exact.alloc);
  return std::move(exact.middles);
}

/// Feasibility of the instance's declared target rates (§4.1); flows without
/// a declared rate target their macro-switch rate.
ClosRouting route_replicate(ClosRun& run) {
  std::vector<Rational> rates;
  rates.reserve(run.flows.size());
  for (FlowIndex f = 0; f < run.flows.size(); ++f) {
    const bool declared = f < run.targets.size() && run.targets[f].has_value();
    rates.push_back(declared ? *run.targets[f] : run.macro.rate(f));
  }
  const ReplicationResult rep = find_feasible_routing(run.net, run.flows, rates);
  ReplicationStats stats;
  stats.feasible = rep.feasible;
  stats.nodes_explored = rep.nodes_explored;
  if (rep.routing.has_value()) stats.witness = *rep.routing;
  run.result.replication = stats;
  return std::nullopt;
}

FatTreeRouting fattree_none(FatTreeRun&) { return std::nullopt; }

FatTreeRouting fattree_ecmp(FatTreeRun& run) {
  return ecmp_paths(candidate_paths(run.ft, run.flows), run.rng);
}

FatTreeRouting fattree_greedy(FatTreeRun& run) {
  return greedy_paths(run.ft.topology(), candidate_paths(run.ft, run.flows),
                      as_demands(run.macro));
}

FatTreeRouting fattree_local_search(FatTreeRun& run) {
  const PathCandidates candidates = candidate_paths(run.ft, run.flows);
  const std::vector<double> demands = as_demands(run.macro);
  return congestion_local_search_paths(run.ft.topology(), candidates, demands,
                                       greedy_paths(run.ft.topology(), candidates, demands),
                                       run.spec.routing.max_moves);
}

// The one list of routing policies. Keys are checked in the spec parser;
// values are range-checked there for every policy alike.
constexpr Policy kPolicies[] = {
    {"none", {"policy"}, false, route_none, fattree_none},
    {"static", {"policy", "start", "reroute_dead"}, true, route_static, nullptr},
    {"ecmp", {"policy", "seed"}, false, route_ecmp, fattree_ecmp},
    {"greedy", {"policy"}, false, route_greedy, fattree_greedy},
    {"local_search", {"policy", "max_moves", "start", "reroute_dead"}, false,
     route_local_search, fattree_local_search},
    {"lex_climb", {"policy", "max_moves", "start", "reroute_dead"}, false,
     route_climb<lex_max_min_local_search>, nullptr},
    {"tput_climb", {"policy", "max_moves", "start", "reroute_dead"}, false,
     route_climb<throughput_max_min_local_search>, nullptr},
    {"doom", {"policy"}, false, route_doom, nullptr},
    {"lp_round", {"policy", "seed", "attempts"}, false, route_lp_round, nullptr},
    {"exhaustive_lex", {"policy", "threads", "fix_first_flow", "max_routings"}, false,
     route_exhaustive<lex_max_min_exhaustive>, nullptr},
    {"exhaustive_tput",
     {"policy", "threads", "prune_throughput_bound", "fix_first_flow", "max_routings"},
     false, route_exhaustive<throughput_max_min_exhaustive>, nullptr},
    {"replicate", {"policy"}, false, route_replicate, nullptr},
};

/// The policy an evaluation runs. Parsed specs always name a row; a spec
/// built in code may not.
const Policy& policy_of(const ScenarioSpec& spec) {
  const Policy* policy = find_policy(spec.routing.policy);
  if (policy == nullptr) fail("unknown routing policy '" + spec.routing.policy + "'");
  return *policy;
}

/// The routing policy's Rng: a seed of its own, or the workload's stream.
Rng policy_rng(const ScenarioSpec& spec, Rng& workload_rng) {
  return spec.routing.seed.has_value() ? Rng(*spec.routing.seed) : std::move(workload_rng);
}

Allocation<Rational> allocate(const ScenarioSpec& spec, const Topology& topo,
                              const FlowSet& flows, const Routing& routing) {
  return spec.objective == "maxmin_lp" ? max_min_fair_lp<Rational>(topo, flows, routing)
                                       : max_min_fair<Rational>(topo, flows, routing);
}

/// `allocate` for a Clos middle assignment: "maxmin" runs the workspace's
/// int64 fill, byte-identical to the generic engine (the allocation of a
/// fixed routing is unique, Lemma 2.2).
Allocation<Rational> allocate(const ScenarioSpec& spec, const ClosNetwork& net,
                              const FlowSet& flows, const MiddleAssignment& middles) {
  if (spec.objective == "maxmin_lp") {
    return max_min_fair_lp<Rational>(net.topology(), flows, expand_routing(net, flows, middles));
  }
  WaterfillWorkspace workspace;
  workspace.bind(net, flows);
  return Allocation<Rational>(workspace.max_min_rates(middles));
}

ScenarioResult evaluate_fattree(const ScenarioSpec& spec) {
  const Policy& policy = policy_of(spec);
  if (policy.fattree == nullptr) {
    fail("policy '" + spec.routing.policy + "' is not evaluable on a fat-tree topology");
  }
  const std::shared_ptr<const FatTree> shared = pristine_fattree(spec.topology.fattree_k);
  const FatTree& ft = *shared;
  const Fabric fabric{ft.num_edge_switches(), ft.servers_per_edge()};
  Rng rng(spec.workload.seed);
  std::vector<std::optional<Rational>> targets;
  const FlowCollection specs = make_workload(spec.workload, fabric, rng, targets);

  const auto macro = macro_reference(
      MacroSwitch::Params{fabric.num_tors, fabric.servers_per_tor, Rational{1}}, specs);

  ScenarioResult result;
  result.num_flows = specs.size();
  result.macro_rates = macro.rates();
  result.macro_throughput = macro.throughput();

  const FlowSet flows = instantiate(ft, specs);
  FatTreeRun run{spec, ft, flows, macro, policy_rng(spec, rng)};
  const std::optional<Routing> routing = policy.fattree(run);
  if (routing.has_value()) fill_routed(result, allocate(spec, ft.topology(), flows, *routing));
  return result;
}

ScenarioResult evaluate_clos(const ScenarioSpec& spec) {
  const Policy& policy = policy_of(spec);
  const Fabric fabric{spec.topology.params.num_tors, spec.topology.params.servers_per_tor};
  Rng rng(spec.workload.seed);
  std::vector<std::optional<Rational>> targets;
  const FlowCollection specs = make_workload(spec.workload, fabric, rng, targets);

  // The macro reference is always the *pristine* macro-switch: degraded-vs-
  // ideal ratios are the whole point of the fault studies. Under "none" it is
  // the answer itself, so the objective picks its solver.
  const MacroSwitch::Params ms_params = macro_params(spec.topology.params);
  const auto macro = policy.clos == route_none && spec.objective == "maxmin_lp"
                         ? macro_lp(ms_params, specs)
                         : macro_reference(ms_params, specs);

  ScenarioResult result;
  result.num_flows = specs.size();
  result.macro_rates = macro.rates();
  result.macro_throughput = macro.throughput();
  if (spec.topology.kind == "macro") return result;

  const std::shared_ptr<const ClosNetwork> pristine = pristine_clos(spec.topology.params);
  std::optional<ClosNetwork> degraded;
  if (!spec.fault.empty()) {
    OBS_SPAN("svc.degrade");
    ClosNetwork& copy = degraded.emplace(*pristine);
    // Order per svc/spec.hpp: explicit scenario, then the two samplers off
    // one stream (middles first), then the targeted worst-case outage
    // against the already-degraded fabric.
    if (!spec.fault.scenario.empty()) fault::apply(copy, spec.fault.scenario);
    if (spec.fault.sample_middles > 0 || spec.fault.link_failure_p > 0.0) {
      Rng fault_rng(spec.fault.seed);
      if (spec.fault.sample_middles > 0) {
        fault::apply(copy, fault::sample_middle_outage(copy, spec.fault.sample_middles,
                                                       fault_rng));
      }
      if (spec.fault.link_failure_p > 0.0) {
        fault::apply(copy, fault::sample_link_failures(copy, spec.fault.link_failure_p,
                                                       fault_rng));
      }
    }
    if (spec.fault.worst_case_outage > 0) {
      fault::apply(copy, fault::worst_case_outage(copy, spec.fault.worst_case_outage));
    }
  }
  const ClosNetwork& net = degraded.has_value() ? *degraded : *pristine;
  result.surviving_middles = static_cast<int>(fault::surviving_middles(net).size());

  const FlowSet flows = instantiate(net, specs);
  MiddleAssignment start = spec.routing.start;
  if (!start.empty()) {
    if (start.size() != flows.size()) {
      fail("routing.start has " + std::to_string(start.size()) + " entries for " +
           std::to_string(flows.size()) + " flows");
    }
    for (const int m : start) {
      if (m > net.num_middles()) fail("routing.start names middle beyond the fabric");
    }
    if (spec.routing.reroute_dead) {
      result.rerouted = fault::reroute_dead_paths(net, flows, start);
    }
  }

  ClosRun run{spec, net, specs, targets, macro, flows, std::move(start),
              policy_rng(spec, rng), result, std::nullopt};
  std::optional<MiddleAssignment> middles = policy.clos(run);
  if (!middles.has_value()) return result;
  if (!run.alloc.has_value() || spec.objective != "maxmin") {
    run.alloc = allocate(spec, net, flows, *middles);
  }
  fill_routed(result, *run.alloc);
  result.middles = std::move(*middles);
  return result;
}

}  // namespace

std::span<const Policy> policies() { return kPolicies; }

const Policy* find_policy(std::string_view name) {
  for (const Policy& policy : kPolicies) {
    if (policy.name == name) return &policy;
  }
  return nullptr;
}

ScenarioResult evaluate_scenario(const ScenarioSpec& spec) {
  OBS_SPAN("svc.evaluate");
  OBS_COUNTER_INC("svc.evaluations");
  if (spec.topology.kind == "fattree") return evaluate_fattree(spec);
  return evaluate_clos(spec);
}

bool reuses_base_result(const ScenarioSpec& spec, std::string_view base_canonical) {
  // The objective is "maxmin" or "maxmin_lp". A delta that is not its base
  // differs from it in the objective alone iff switching to the other one
  // reproduces the base's bytes.
  ScenarioSpec probe = spec;
  probe.objective = spec.objective == "maxmin" ? "maxmin_lp" : "maxmin";
  if (probe.canonical() == base_canonical) {
    OBS_COUNTER_INC("svc.delta_result_reuses");
    return true;
  }
  OBS_COUNTER_INC("svc.delta_warm_starts");
  return false;
}

ScenarioResult evaluate_scenario_warm(const ScenarioSpec& spec,
                                      const ScenarioSpec& base_spec,
                                      const ScenarioResult& base_result) {
  if (reuses_base_result(spec, base_spec.canonical())) return base_result;
  return evaluate_scenario(spec);
}

DeltaResolution resolve_delta(
    ResultCache& cache, const DeltaRequest& delta,
    const std::function<std::optional<std::string>(std::uint64_t)>& inflight) {
  OBS_COUNTER_INC("svc.delta_requests");
  DeltaResolution res;
  std::optional<std::string> base_canonical;
  res.base = cache.pin_base(delta.base);
  if (res.base.has_value()) {
    base_canonical = res.base->canonical();
  } else if (inflight) {
    base_canonical = inflight(delta.base);
  }
  if (!base_canonical.has_value()) {
    OBS_COUNTER_INC("svc.delta_base_misses");
    res.error = "unknown base " + hash_hex(delta.base) + ": not in the result cache";
    return res;
  }
  try {
    ScenarioSpec base_spec = ScenarioSpec::from_json(Json::parse(*base_canonical));
    res.spec = delta.patch.apply(base_spec);
    if (res.base.has_value()) res.base_spec = std::move(base_spec);
  } catch (const std::exception& e) {
    OBS_COUNTER_INC("svc.delta_patch_errors");
    res.base.reset();
    res.base_spec.reset();
    res.error = e.what();
  }
  return res;
}

}  // namespace closfair::svc
