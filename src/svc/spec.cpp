#include "svc/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "io/text_format.hpp"
#include "svc/policy.hpp"

namespace closfair::svc {
namespace {

[[noreturn]] void fail(const std::string& message) { throw SpecError(message); }

/// Strictness guard: every object's keys must come from the allowed set, so
/// misspelled options fail loudly instead of silently canonicalizing away.
void check_keys(const Json& obj, std::initializer_list<const char*> allowed,
                const char* where) {
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) fail(std::string{"unknown key '"} + key + "' in " + where);
  }
}

const Json& require(const Json& obj, const char* key, const char* where) {
  const Json* found = obj.find(key);
  if (found == nullptr) fail(std::string{where} + " requires '" + key + "'");
  return *found;
}

std::int64_t get_int(const Json& value, const char* what) {
  if (!value.is_int()) fail(std::string{"'"} + what + "' must be an integer");
  return value.as_int();
}

/// An int-typed field: a JSON integer no less than `lo`. A value an int
/// cannot hold is rejected with a reason naming `key`, never truncated
/// (4294967297 would alias 1).
int get_int_field(const Json& value, const char* where, const char* key, int lo) {
  const std::int64_t v = get_int(value, key);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    fail(std::string{where} + ": " + key + " does not fit in int");
  }
  if (v < lo) fail(std::string{where} + ": " + key + " must be >= " + std::to_string(lo));
  return static_cast<int>(v);
}

/// A count field: a JSON integer >= 0, rejected with a reason naming `key`
/// when negative, never cast to a huge unsigned value.
std::uint64_t get_count(const Json& value, const char* where, const char* key) {
  const std::int64_t v = get_int(value, key);
  if (v < 0) fail(std::string{where} + ": " + key + " must be >= 0");
  return static_cast<std::uint64_t>(v);
}

std::int64_t get_int_or(const Json& obj, const char* key, std::int64_t fallback) {
  const Json* found = obj.find(key);
  return found == nullptr ? fallback : get_int(*found, key);
}

std::uint64_t get_u64_or(const Json& obj, const char* key, std::uint64_t fallback) {
  const Json* found = obj.find(key);
  if (found == nullptr) return fallback;
  const std::int64_t v = get_int(*found, key);
  if (v < 0) fail(std::string{"'"} + key + "' must be non-negative");
  return static_cast<std::uint64_t>(v);
}

double get_double_or(const Json& obj, const char* key, double fallback) {
  const Json* found = obj.find(key);
  if (found == nullptr) return fallback;
  if (!found->is_number()) fail(std::string{"'"} + key + "' must be a number");
  return found->as_double();
}

bool get_bool_or(const Json& obj, const char* key, bool fallback) {
  const Json* found = obj.find(key);
  if (found == nullptr) return fallback;
  if (!found->is_bool()) fail(std::string{"'"} + key + "' must be a boolean");
  return found->as_bool();
}

std::string get_string(const Json& value, const char* what) {
  if (!value.is_string()) fail(std::string{"'"} + what + "' must be a string");
  return value.as_string();
}

/// Rationals travel as "p/q" strings or bare integers — never doubles, which
/// could not round-trip exactly.
Rational get_rational(const Json& value, const char* what) {
  if (value.is_int()) return Rational{value.as_int()};
  if (value.is_string()) {
    try {
      return rational_from_string(value.as_string());
    } catch (const std::invalid_argument& e) {
      fail(std::string{"'"} + what + "': " + e.what());
    }
  }
  fail(std::string{"'"} + what + "' must be an integer or a \"p/q\" string");
}

Json rational_json(const Rational& r) {
  return r.is_integer() ? Json::number(r.num()) : Json::string(r.to_string());
}

/// An array of 1-based middle indices.
MiddleAssignment get_middles(const Json& value, const char* where, const char* key) {
  if (!value.is_array()) fail(std::string{where} + ": " + key + " must be an array");
  MiddleAssignment middles;
  middles.reserve(value.size());
  for (const Json& item : value.items()) middles.push_back(get_int_field(item, where, key, 1));
  return middles;
}

Json middles_json(const MiddleAssignment& middles) {
  Json arr = Json::array();
  for (int m : middles) arr.push_back(Json::number(static_cast<std::int64_t>(m)));
  return arr;
}

std::vector<Rational> get_rates(const Json& value, const char* what) {
  if (!value.is_array()) fail(std::string{"'"} + what + "' must be an array");
  std::vector<Rational> rates;
  rates.reserve(value.size());
  for (const Json& item : value.items()) rates.push_back(get_rational(item, what));
  return rates;
}

Json rates_json(const std::vector<Rational>& rates) {
  Json arr = Json::array();
  for (const Rational& r : rates) arr.push_back(Json::string(r.to_string()));
  return arr;
}

// ------------------------------------------------------------------ topology

// The tors/servers/capacity fields the clos and macro kinds share.
void parse_fabric(const Json& obj, ClosNetwork::Params& params) {
  params.num_tors = get_int_field(require(obj, "tors", "topology"), "topology", "tors", 1);
  params.servers_per_tor =
      get_int_field(require(obj, "servers", "topology"), "topology", "servers", 1);
  const Json* cap = obj.find("capacity");
  params.link_capacity = cap == nullptr ? Rational{1} : get_rational(*cap, "capacity");
  if (params.link_capacity.is_negative() || params.link_capacity.is_zero()) {
    fail("topology: capacity must be positive");
  }
}

TopologySpec parse_topology(const Json& obj) {
  TopologySpec topo;
  const Json* kind = obj.find("kind");
  topo.kind = kind == nullptr ? "clos" : get_string(*kind, "kind");

  if (topo.kind == "clos") {
    check_keys(obj, {"kind", "n", "middles", "tors", "servers", "capacity"}, "topology");
    const Json* n = obj.find("n");
    if (n != nullptr) {
      if (obj.find("middles") != nullptr || obj.find("tors") != nullptr ||
          obj.find("servers") != nullptr || obj.find("capacity") != nullptr) {
        fail("topology: use either n or middles/tors/servers, not both");
      }
      const std::int64_t paper_n = get_int(*n, "n");
      if (paper_n < 1) fail("topology: n must be >= 1");
      if (paper_n > std::numeric_limits<int>::max() / 2) {
        fail("topology: n must be <= " +
             std::to_string(std::numeric_limits<int>::max() / 2) +
             " (2n tors must fit in int)");
      }
      const int nn = static_cast<int>(paper_n);
      topo.params = ClosNetwork::Params{nn, 2 * nn, nn, Rational{1}};
    } else {
      topo.params.num_middles =
          get_int_field(require(obj, "middles", "topology"), "topology", "middles", 1);
      parse_fabric(obj, topo.params);
    }
  } else if (topo.kind == "macro") {
    check_keys(obj, {"kind", "tors", "servers", "capacity"}, "topology");
    topo.params.num_middles = 1;
    parse_fabric(obj, topo.params);
  } else if (topo.kind == "fattree") {
    check_keys(obj, {"kind", "k"}, "topology");
    const std::int64_t k = get_int(require(obj, "k", "topology"), "k");
    if (k < 2 || k % 2 != 0) fail("topology: fattree k must be even and >= 2");
    if (k > std::numeric_limits<int>::max()) fail("topology: k does not fit in int");
    topo.fattree_k = static_cast<int>(k);
  } else {
    fail("topology: unknown kind '" + topo.kind + "'");
  }
  return topo;
}

Json topology_json(const TopologySpec& topo) {
  Json obj = Json::object();
  obj.set("kind", Json::string(topo.kind));
  if (topo.kind == "clos") {
    const auto& p = topo.params;
    if (p.num_tors == 2 * p.num_middles && p.servers_per_tor == p.num_middles &&
        p.link_capacity == Rational{1}) {
      obj.set("n", Json::number(static_cast<std::int64_t>(p.num_middles)));
    } else {
      obj.set("middles", Json::number(static_cast<std::int64_t>(p.num_middles)));
      obj.set("tors", Json::number(static_cast<std::int64_t>(p.num_tors)));
      obj.set("servers", Json::number(static_cast<std::int64_t>(p.servers_per_tor)));
      if (!(p.link_capacity == Rational{1})) {
        obj.set("capacity", rational_json(p.link_capacity));
      }
    }
  } else if (topo.kind == "macro") {
    obj.set("tors", Json::number(static_cast<std::int64_t>(topo.params.num_tors)));
    obj.set("servers", Json::number(static_cast<std::int64_t>(topo.params.servers_per_tor)));
    if (!(topo.params.link_capacity == Rational{1})) {
      obj.set("capacity", rational_json(topo.params.link_capacity));
    }
  } else {
    obj.set("k", Json::number(static_cast<std::int64_t>(topo.fattree_k)));
  }
  return obj;
}

// ------------------------------------------------------------------ workload

/// For an inline instance, `instance_params` receives the params of its
/// `clos` line (they define the topology).
WorkloadSpec parse_workload(const Json& obj, ClosNetwork::Params& instance_params) {
  WorkloadSpec wl;
  const Json* instance = obj.find("instance");
  const Json* generator = obj.find("generator");
  if ((instance != nullptr) == (generator != nullptr)) {
    fail("workload: exactly one of 'generator' or 'instance' is required");
  }

  if (instance != nullptr) {
    check_keys(obj, {"instance", "seed"}, "workload");
    const std::string text = get_string(*instance, "instance");
    try {
      // Canonicalize immediately: the stored text is format_instance's
      // output, the io-layer serialize→parse→serialize fixed point.
      const InstanceSpec parsed = parse_instance(text);
      wl.instance = format_instance(parsed);
      instance_params = parsed.params;
    } catch (const std::exception& e) {
      fail(std::string{"workload.instance: "} + e.what());
    }
    wl.seed = get_u64_or(obj, "seed", 1);
    return wl;
  }

  wl.generator = get_string(*generator, "generator");
  const auto require_count = [&]() {
    const std::int64_t count = get_int(require(obj, "count", "workload"), "count");
    if (count < 1) fail("workload: count must be >= 1");
    wl.count = static_cast<std::size_t>(count);
  };
  if (wl.generator == "uniform") {
    check_keys(obj, {"generator", "count", "seed"}, "workload");
    require_count();
  } else if (wl.generator == "permutation") {
    check_keys(obj, {"generator", "seed"}, "workload");
  } else if (wl.generator == "zipf") {
    check_keys(obj, {"generator", "count", "skew", "seed"}, "workload");
    require_count();
    const Json& skew = require(obj, "skew", "workload");
    if (!skew.is_number()) fail("workload: skew must be a number");
    wl.skew = skew.as_double();
    if (wl.skew < 0.0) fail("workload: skew must be >= 0");
  } else if (wl.generator == "hotspot") {
    check_keys(obj, {"generator", "count", "hot_tor", "hot_fraction", "seed"}, "workload");
    require_count();
    wl.hot_tor = get_int_field(require(obj, "hot_tor", "workload"), "workload", "hot_tor", 1);
    const Json& fraction = require(obj, "hot_fraction", "workload");
    if (!fraction.is_number()) fail("workload: hot_fraction must be a number");
    wl.hot_fraction = fraction.as_double();
    if (wl.hot_fraction < 0.0 || wl.hot_fraction > 1.0) {
      fail("workload: hot_fraction must lie in [0, 1]");
    }
  } else if (wl.generator == "incast") {
    check_keys(obj, {"generator", "count", "dst_tor", "dst_server", "seed"}, "workload");
    require_count();
    wl.dst_tor = get_int_field(require(obj, "dst_tor", "workload"), "workload", "dst_tor", 1);
    wl.dst_server =
        get_int_field(require(obj, "dst_server", "workload"), "workload", "dst_server", 1);
  } else if (wl.generator == "stride") {
    check_keys(obj, {"generator", "stride"}, "workload");
    wl.stride = get_int_field(require(obj, "stride", "workload"), "workload", "stride",
                              std::numeric_limits<int>::min());
  } else if (wl.generator == "all_to_all") {
    check_keys(obj, {"generator"}, "workload");
  } else {
    fail("workload: unknown generator '" + wl.generator + "'");
  }
  if (wl.generator != "stride" && wl.generator != "all_to_all") {
    wl.seed = get_u64_or(obj, "seed", 1);
  }
  return wl;
}

Json workload_json(const WorkloadSpec& wl) {
  Json obj = Json::object();
  if (!wl.instance.empty()) {
    obj.set("instance", Json::string(wl.instance));
    if (wl.seed != 1) obj.set("seed", Json::number(static_cast<std::int64_t>(wl.seed)));
    return obj;
  }
  obj.set("generator", Json::string(wl.generator));
  if (wl.generator == "uniform" || wl.generator == "zipf" || wl.generator == "hotspot" ||
      wl.generator == "incast") {
    obj.set("count", Json::number(static_cast<std::int64_t>(wl.count)));
  }
  if (wl.generator == "zipf") obj.set("skew", Json::number(wl.skew));
  if (wl.generator == "hotspot") {
    obj.set("hot_tor", Json::number(static_cast<std::int64_t>(wl.hot_tor)));
    obj.set("hot_fraction", Json::number(wl.hot_fraction));
  }
  if (wl.generator == "incast") {
    obj.set("dst_tor", Json::number(static_cast<std::int64_t>(wl.dst_tor)));
    obj.set("dst_server", Json::number(static_cast<std::int64_t>(wl.dst_server)));
  }
  if (wl.generator == "stride") {
    obj.set("stride", Json::number(static_cast<std::int64_t>(wl.stride)));
  }
  if (wl.generator != "stride" && wl.generator != "all_to_all" && wl.seed != 1) {
    obj.set("seed", Json::number(static_cast<std::int64_t>(wl.seed)));
  }
  return obj;
}

// ------------------------------------------------------------------- routing

RoutingSpec parse_routing(const Json& obj) {
  RoutingSpec routing;
  const Json* policy_name = obj.find("policy");
  routing.policy = policy_name == nullptr ? "greedy" : get_string(*policy_name, "policy");
  const Policy* policy = find_policy(routing.policy);
  if (policy == nullptr) fail("routing: unknown policy '" + routing.policy + "'");
  check_keys(obj, policy->keys, "routing");

  if (policy->requires_start) {
    routing.start = get_middles(require(obj, "start", "routing"), "routing", "start");
  } else if (const Json* start = obj.find("start"); start != nullptr) {
    routing.start = get_middles(*start, "routing", "start");
  }
  const std::int64_t attempts = get_int_or(obj, "attempts", 8);
  if (attempts < 1) fail("routing: attempts must be >= 1");
  routing.attempts = static_cast<std::size_t>(attempts);
  if (obj.find("seed") != nullptr) routing.seed = get_u64_or(obj, "seed", 0);
  const std::int64_t max_moves = get_int_or(obj, "max_moves", 10'000);
  if (max_moves < 1) fail("routing: max_moves must be >= 1");
  routing.max_moves = static_cast<std::size_t>(max_moves);
  const std::int64_t threads = get_int_or(obj, "threads", 1);
  if (threads < 1 || threads > 256) fail("routing: threads must lie in [1, 256]");
  routing.threads = static_cast<unsigned>(threads);
  routing.prune_throughput_bound = get_bool_or(obj, "prune_throughput_bound", true);
  routing.fix_first_flow = get_bool_or(obj, "fix_first_flow", true);
  routing.max_routings = get_u64_or(obj, "max_routings", 0);
  routing.reroute_dead = get_bool_or(obj, "reroute_dead", false);
  // Without a start the flag would be ignored yet still split the content
  // address of an otherwise identical scenario.
  if (routing.reroute_dead && routing.start.empty()) {
    fail("routing: reroute_dead requires 'start'");
  }
  return routing;
}

Json routing_json(const RoutingSpec& routing) {
  Json obj = Json::object();
  obj.set("policy", Json::string(routing.policy));
  if (routing.seed.has_value()) {
    obj.set("seed", Json::number(static_cast<std::int64_t>(*routing.seed)));
  }
  if (routing.max_moves != 10'000) {
    obj.set("max_moves", Json::number(static_cast<std::int64_t>(routing.max_moves)));
  }
  if (routing.threads != 1) {
    obj.set("threads", Json::number(static_cast<std::int64_t>(routing.threads)));
  }
  if (!routing.prune_throughput_bound) {
    obj.set("prune_throughput_bound", Json::boolean(false));
  }
  if (!routing.fix_first_flow) obj.set("fix_first_flow", Json::boolean(false));
  if (routing.max_routings != 0) {
    obj.set("max_routings", Json::number(static_cast<std::int64_t>(routing.max_routings)));
  }
  if (routing.attempts != 8) {
    obj.set("attempts", Json::number(static_cast<std::int64_t>(routing.attempts)));
  }
  if (!routing.start.empty()) obj.set("start", middles_json(routing.start));
  if (routing.reroute_dead) obj.set("reroute_dead", Json::boolean(true));
  return obj;
}

// --------------------------------------------------------------------- fault

/// One {"stage","tor","middle","factor"} deration entry — shared between the
/// fault group and the delta patch grammar (patch.derate_links).
fault::LinkDeration parse_derated_link(const Json& item, const char* where) {
  if (!item.is_object()) {
    fail(std::string{where} + ": derated link entries must be objects");
  }
  check_keys(item, {"stage", "tor", "middle", "factor"}, "derated link");
  fault::LinkDeration d;
  const std::string stage = get_string(require(item, "stage", "derated link"), "stage");
  if (stage == "uplink") {
    d.stage = fault::LinkStage::kUplink;
  } else if (stage == "downlink") {
    d.stage = fault::LinkStage::kDownlink;
  } else {
    fail(std::string{where} + ": stage must be 'uplink' or 'downlink'");
  }
  d.tor = get_int_field(require(item, "tor", "derated link"), where, "tor", 1);
  d.middle = get_int_field(require(item, "middle", "derated link"), where, "middle", 1);
  d.factor = get_rational(require(item, "factor", "derated link"), "factor");
  if (d.factor.is_negative() || Rational{1} < d.factor) {
    fail(std::string{where} + ": factor must lie in [0, 1]");
  }
  return d;
}

FaultSpec parse_fault(const Json& obj) {
  check_keys(obj,
             {"failed_middles", "derated_links", "degraded_pods", "sample_middles",
              "link_failure_p", "worst_case_outage", "seed"},
             "fault");
  FaultSpec fs;
  if (const Json* failed = obj.find("failed_middles"); failed != nullptr) {
    fs.scenario.failed_middles = get_middles(*failed, "fault", "failed_middles");
    // Canonical: ascending, duplicates removed (the mask is idempotent).
    std::sort(fs.scenario.failed_middles.begin(), fs.scenario.failed_middles.end());
    fs.scenario.failed_middles.erase(std::unique(fs.scenario.failed_middles.begin(),
                                                 fs.scenario.failed_middles.end()),
                                     fs.scenario.failed_middles.end());
  }
  if (const Json* derated = obj.find("derated_links"); derated != nullptr) {
    if (!derated->is_array()) fail("fault: derated_links must be an array");
    for (const Json& item : derated->items()) {
      fs.scenario.derated_links.push_back(parse_derated_link(item, "fault"));
    }
  }
  if (const Json* pods = obj.find("degraded_pods"); pods != nullptr) {
    if (!pods->is_array()) fail("fault: degraded_pods must be an array");
    for (const Json& item : pods->items()) {
      if (!item.is_object()) fail("fault: degraded_pods entries must be objects");
      check_keys(item, {"tor", "factor"}, "fault.degraded_pods");
      fault::PodDegradation pd;
      pd.tor = get_int_field(require(item, "tor", "degraded_pods"), "fault", "tor", 1);
      pd.factor = get_rational(require(item, "factor", "degraded_pods"), "factor");
      if (pd.factor.is_negative() || Rational{1} < pd.factor) {
        fail("fault: factor must lie in [0, 1]");
      }
      fs.scenario.degraded_pods.push_back(pd);
    }
  }
  if (const Json* sample = obj.find("sample_middles"); sample != nullptr) {
    fs.sample_middles = get_int_field(*sample, "fault", "sample_middles", 0);
  }
  fs.link_failure_p = get_double_or(obj, "link_failure_p", 0.0);
  if (fs.link_failure_p < 0.0 || fs.link_failure_p > 1.0) {
    fail("fault: link_failure_p must lie in [0, 1]");
  }
  if (const Json* worst = obj.find("worst_case_outage"); worst != nullptr) {
    fs.worst_case_outage = get_int_field(*worst, "fault", "worst_case_outage", 0);
  }
  fs.seed = get_u64_or(obj, "seed", 1);
  if (fs.seed != 1 && fs.sample_middles == 0 && fs.link_failure_p == 0.0) {
    fail("fault: seed without a sampler has no effect");
  }
  return fs;
}

Json fault_json(const FaultSpec& fs) {
  Json obj = Json::object();
  if (!fs.scenario.failed_middles.empty()) {
    Json arr = Json::array();
    for (int m : fs.scenario.failed_middles) {
      arr.push_back(Json::number(static_cast<std::int64_t>(m)));
    }
    obj.set("failed_middles", std::move(arr));
  }
  if (!fs.scenario.derated_links.empty()) {
    Json arr = Json::array();
    for (const fault::LinkDeration& d : fs.scenario.derated_links) {
      Json item = Json::object();
      item.set("stage", Json::string(d.stage == fault::LinkStage::kUplink ? "uplink"
                                                                          : "downlink"));
      item.set("tor", Json::number(static_cast<std::int64_t>(d.tor)));
      item.set("middle", Json::number(static_cast<std::int64_t>(d.middle)));
      item.set("factor", rational_json(d.factor));
      arr.push_back(std::move(item));
    }
    obj.set("derated_links", std::move(arr));
  }
  if (!fs.scenario.degraded_pods.empty()) {
    Json arr = Json::array();
    for (const fault::PodDegradation& pd : fs.scenario.degraded_pods) {
      Json item = Json::object();
      item.set("tor", Json::number(static_cast<std::int64_t>(pd.tor)));
      item.set("factor", rational_json(pd.factor));
      arr.push_back(std::move(item));
    }
    obj.set("degraded_pods", std::move(arr));
  }
  if (fs.sample_middles != 0) {
    obj.set("sample_middles", Json::number(static_cast<std::int64_t>(fs.sample_middles)));
  }
  if (fs.link_failure_p != 0.0) obj.set("link_failure_p", Json::number(fs.link_failure_p));
  if (fs.worst_case_outage != 0) {
    obj.set("worst_case_outage", Json::number(static_cast<std::int64_t>(fs.worst_case_outage)));
  }
  if (fs.seed != 1) obj.set("seed", Json::number(static_cast<std::int64_t>(fs.seed)));
  return obj;
}

}  // namespace

// ---------------------------------------------------------------------------

ScenarioSpec ScenarioSpec::from_json(const Json& json) {
  if (!json.is_object()) fail("scenario spec must be a JSON object");
  check_keys(json, {"topology", "workload", "routing", "objective", "fault"}, "spec");

  ScenarioSpec spec;
  const Json& workload = require(json, "workload", "spec");
  if (!workload.is_object()) fail("'workload' must be an object");
  spec.workload = parse_workload(workload, spec.topology.params);

  const Json* topology = json.find("topology");
  if (!spec.workload.instance.empty()) {
    if (topology != nullptr) {
      fail("an inline workload.instance defines the topology; drop the 'topology' group");
    }
    spec.topology.kind = "clos";
  } else {
    if (topology == nullptr) fail("spec requires 'topology'");
    if (!topology->is_object()) fail("'topology' must be an object");
    spec.topology = parse_topology(*topology);
  }

  const Json* routing = json.find("routing");
  if (routing != nullptr) {
    if (!routing->is_object()) fail("'routing' must be an object");
    spec.routing = parse_routing(*routing);
  }
  if (spec.topology.kind == "macro") {
    if (routing != nullptr && spec.routing.policy != "none") {
      fail("macro topologies have a unique routing; use policy 'none' or drop 'routing'");
    }
    spec.routing = RoutingSpec{};
    spec.routing.policy = "none";
  }
  if (spec.topology.kind == "fattree") {
    if (find_policy(spec.routing.policy)->fattree == nullptr) {
      std::string names;
      for (const Policy& p : policies()) {
        if (p.fattree != nullptr) names += (names.empty() ? "" : "/") + std::string{p.name};
      }
      fail("fattree topologies support policies " + names);
    }
    if (!spec.routing.start.empty()) fail("fattree routing takes no 'start'");
  }
  if (const Json* objective = json.find("objective"); objective != nullptr) {
    spec.objective = get_string(*objective, "objective");
    if (spec.objective != "maxmin" && spec.objective != "maxmin_lp") {
      fail("objective must be 'maxmin' or 'maxmin_lp'");
    }
  }

  if (const Json* fault_obj = json.find("fault"); fault_obj != nullptr) {
    if (!fault_obj->is_object()) fail("'fault' must be an object");
    spec.fault = parse_fault(*fault_obj);
    if (spec.fault.empty()) fail("'fault' present but empty; drop the group instead");
    if (spec.topology.kind != "clos") fail("fault scenarios apply to Clos topologies only");
  }
  return spec;
}

Json ScenarioSpec::to_json() const {
  Json obj = Json::object();
  if (workload.instance.empty()) obj.set("topology", topology_json(topology));
  obj.set("workload", workload_json(workload));
  // Omit the routing group when reparsing without it reproduces the spec:
  // macro topologies force policy "none" regardless, and a group that
  // serializes to just {"policy":"greedy"} is the all-default RoutingSpec.
  const Json routing_obj = routing_json(routing);
  if (topology.kind != "macro" && routing_obj.dump() != R"({"policy":"greedy"})") {
    obj.set("routing", routing_obj);
  }
  if (objective != "maxmin") obj.set("objective", Json::string(objective));
  if (!fault.empty()) obj.set("fault", fault_json(fault));
  return obj;
}

std::string ScenarioSpec::canonical() const { return to_json().dump(); }

std::uint64_t ScenarioSpec::content_hash() const { return fnv1a64(canonical()); }

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return std::string{buf};
}

// ------------------------------------------------------------------- deltas

SpecPatch SpecPatch::from_json(const Json& json) {
  if (!json.is_object()) fail("delta patch must be a JSON object");
  check_keys(json, {"add_flows", "remove_flows", "fail_middles", "derate_links", "objective"},
             "patch");
  SpecPatch patch;
  if (const Json* add = json.find("add_flows"); add != nullptr) {
    if (!add->is_array()) fail("patch: add_flows must be an array");
    for (const Json& item : add->items()) {
      if (!item.is_object()) fail("patch: add_flows entries must be objects");
      check_keys(item, {"src_tor", "src_server", "dst_tor", "dst_server", "rate"},
                 "patch.add_flows");
      FlowPatch fp;
      const auto coordinate = [&item](const char* key) {
        return get_int_field(require(item, key, "add_flows"), "patch", key, 1);
      };
      fp.src_tor = coordinate("src_tor");
      fp.src_server = coordinate("src_server");
      fp.dst_tor = coordinate("dst_tor");
      fp.dst_server = coordinate("dst_server");
      if (const Json* rate = item.find("rate"); rate != nullptr) {
        fp.rate = get_rational(*rate, "rate");
        if (fp.rate->is_negative()) fail("patch: rate must be non-negative");
      }
      patch.add_flows.push_back(fp);
    }
  }
  if (const Json* remove = json.find("remove_flows"); remove != nullptr) {
    if (!remove->is_array()) fail("patch: remove_flows must be an array");
    for (const Json& item : remove->items()) {
      const std::int64_t idx = get_int(item, "remove_flows");
      if (idx < 0) fail("patch: remove_flows entries must be >= 0");
      patch.remove_flows.push_back(static_cast<std::size_t>(idx));
    }
    auto sorted = patch.remove_flows;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      fail("patch: remove_flows entries must be distinct");
    }
  }
  if (const Json* failed = json.find("fail_middles"); failed != nullptr) {
    patch.fail_middles = get_middles(*failed, "patch", "fail_middles");
  }
  if (const Json* derated = json.find("derate_links"); derated != nullptr) {
    if (!derated->is_array()) fail("patch: derate_links must be an array");
    for (const Json& item : derated->items()) {
      patch.derate_links.push_back(parse_derated_link(item, "patch"));
    }
  }
  if (const Json* objective = json.find("objective"); objective != nullptr) {
    patch.objective = get_string(*objective, "objective");
    if (*patch.objective != "maxmin" && *patch.objective != "maxmin_lp") {
      fail("patch: objective must be 'maxmin' or 'maxmin_lp'");
    }
  }
  return patch;
}

ScenarioSpec SpecPatch::apply(const ScenarioSpec& base) const {
  ScenarioSpec patched = base;

  if (!add_flows.empty() || !remove_flows.empty()) {
    if (patched.workload.instance.empty()) {
      fail("patch: flow edits require the base workload to be an inline instance");
    }
    if (!patched.routing.start.empty()) {
      fail("patch: flow edits invalidate the base routing.start; restate the scenario");
    }
    InstanceSpec inst = parse_instance(patched.workload.instance);
    // Remove first — indices address the *base* flow list — in descending
    // order so earlier erasures don't shift later indices.
    std::vector<std::size_t> removals = remove_flows;
    std::sort(removals.begin(), removals.end(),
              [](std::size_t a, std::size_t b) { return a > b; });
    for (std::size_t idx : removals) {
      if (idx >= inst.flows.size()) {
        fail("patch: remove_flows index " + std::to_string(idx) + " out of range (base has " +
             std::to_string(inst.flows.size()) + " flows)");
      }
      inst.flows.erase(inst.flows.begin() + static_cast<std::ptrdiff_t>(idx));
      if (!inst.rates.empty()) {
        inst.rates.erase(inst.rates.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    for (const FlowPatch& fp : add_flows) {
      if (inst.rates.empty() && fp.rate.has_value()) {
        inst.rates.assign(inst.flows.size(), std::nullopt);
      }
      inst.flows.push_back(FlowSpec{fp.src_tor, fp.src_server, fp.dst_tor, fp.dst_server});
      if (!inst.rates.empty()) inst.rates.push_back(fp.rate);
    }
    if (inst.flows.empty()) fail("patch: removing every flow leaves an empty instance");
    patched.workload.instance = format_instance(inst);
  }

  if (!fail_middles.empty()) {
    auto& failed = patched.fault.scenario.failed_middles;
    failed.insert(failed.end(), fail_middles.begin(), fail_middles.end());
    std::sort(failed.begin(), failed.end());
    failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
  }
  for (const fault::LinkDeration& d : derate_links) {
    patched.fault.scenario.derated_links.push_back(d);
  }
  if (objective.has_value()) patched.objective = *objective;

  // Normalize through the exact round trip a cold request takes, so the
  // patched spec — and with it the canonical bytes and content address — is
  // indistinguishable from a client spelling the scenario directly. This
  // also re-runs the full strict validation (instance coordinates, fault on
  // non-Clos bases, flow-count/start mismatches, ...).
  try {
    return ScenarioSpec::from_json(patched.to_json());
  } catch (const SpecError& e) {
    fail(std::string{"patch does not apply: "} + e.what());
  }
}

DeltaRequest DeltaRequest::from_json(const Json& json) {
  if (!json.is_object()) fail("delta request must be a JSON object");
  check_keys(json, {"base", "patch"}, "delta");
  DeltaRequest delta;
  const std::string hex = get_string(require(json, "base", "delta"), "base");
  if (hex.size() != 16) {
    fail("delta: base must be a 16-digit lowercase hex content address");
  }
  for (const char c : hex) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      fail("delta: base must be a 16-digit lowercase hex content address");
    }
    delta.base = (delta.base << 4) | digit;
  }
  if (const Json* patch = json.find("patch"); patch != nullptr) {
    delta.patch = SpecPatch::from_json(*patch);
  }
  return delta;
}

// ---------------------------------------------------------------------------

Json ScenarioResult::to_json() const {
  Json obj = Json::object();
  obj.set("flows", Json::number(static_cast<std::int64_t>(num_flows)));
  obj.set("macro_rates", rates_json(macro_rates));
  obj.set("macro_throughput", Json::string(macro_throughput.to_string()));
  if (routed) {
    obj.set("rates", rates_json(rates));
    obj.set("throughput", Json::string(throughput.to_string()));
    obj.set("throughput_ratio", Json::string(throughput_ratio.to_string()));
    obj.set("min_rate_ratio", Json::string(min_rate_ratio.to_string()));
    if (!middles.empty()) obj.set("middles", middles_json(middles));
  }
  if (surviving_middles.has_value()) {
    obj.set("surviving_middles", Json::number(static_cast<std::int64_t>(*surviving_middles)));
  }
  if (rerouted.has_value()) {
    obj.set("rerouted", Json::number(static_cast<std::int64_t>(*rerouted)));
  }
  if (search.has_value()) {
    Json stats = Json::object();
    stats.set("routings_evaluated",
              Json::number(static_cast<std::int64_t>(search->routings_evaluated)));
    stats.set("waterfill_invocations",
              Json::number(static_cast<std::int64_t>(search->waterfill_invocations)));
    obj.set("search", std::move(stats));
  }
  if (replication.has_value()) {
    Json stats = Json::object();
    stats.set("feasible", Json::boolean(replication->feasible));
    stats.set("nodes_explored",
              Json::number(static_cast<std::int64_t>(replication->nodes_explored)));
    if (!replication->witness.empty()) {
      stats.set("witness", middles_json(replication->witness));
    }
    obj.set("replication", std::move(stats));
  }
  return obj;
}

ScenarioResult ScenarioResult::from_json(const Json& json) {
  if (!json.is_object()) fail("scenario result must be a JSON object");
  check_keys(json,
             {"flows", "macro_rates", "macro_throughput", "rates", "throughput",
              "throughput_ratio", "min_rate_ratio", "middles", "surviving_middles",
              "rerouted", "search", "replication"},
             "result");
  ScenarioResult result;
  result.num_flows = get_count(require(json, "flows", "result"), "result", "flows");
  result.macro_rates = get_rates(require(json, "macro_rates", "result"), "macro_rates");
  result.macro_throughput =
      get_rational(require(json, "macro_throughput", "result"), "macro_throughput");
  if (const Json* rates = json.find("rates"); rates != nullptr) {
    result.routed = true;
    result.rates = get_rates(*rates, "rates");
    result.throughput = get_rational(require(json, "throughput", "result"), "throughput");
    result.throughput_ratio =
        get_rational(require(json, "throughput_ratio", "result"), "throughput_ratio");
    result.min_rate_ratio =
        get_rational(require(json, "min_rate_ratio", "result"), "min_rate_ratio");
    if (const Json* middles = json.find("middles"); middles != nullptr) {
      result.middles = get_middles(*middles, "result", "middles");
    }
  }
  if (const Json* surviving = json.find("surviving_middles"); surviving != nullptr) {
    result.surviving_middles = get_int_field(*surviving, "result", "surviving_middles", 0);
  }
  if (const Json* rerouted = json.find("rerouted"); rerouted != nullptr) {
    result.rerouted = get_count(*rerouted, "result", "rerouted");
  }
  if (const Json* stats = json.find("search"); stats != nullptr) {
    check_keys(*stats, {"routings_evaluated", "waterfill_invocations"}, "result.search");
    SearchStats s;
    s.routings_evaluated = get_count(require(*stats, "routings_evaluated", "search"),
                                     "result.search", "routings_evaluated");
    s.waterfill_invocations = get_count(require(*stats, "waterfill_invocations", "search"),
                                        "result.search", "waterfill_invocations");
    result.search = s;
  }
  if (const Json* stats = json.find("replication"); stats != nullptr) {
    check_keys(*stats, {"feasible", "nodes_explored", "witness"}, "result.replication");
    ReplicationStats s;
    const Json& feasible = require(*stats, "feasible", "replication");
    if (!feasible.is_bool()) fail("replication.feasible must be a boolean");
    s.feasible = feasible.as_bool();
    s.nodes_explored = get_count(require(*stats, "nodes_explored", "replication"),
                                 "result.replication", "nodes_explored");
    if (const Json* witness = stats->find("witness"); witness != nullptr) {
      s.witness = get_middles(*witness, "replication", "witness");
    }
    result.replication = s;
  }
  return result;
}

}  // namespace closfair::svc
