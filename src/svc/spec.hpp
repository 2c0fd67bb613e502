// closfair::svc — declarative scenario specifications.
//
// A ScenarioSpec names one evaluation cell of the §6-style studies: a
// topology (Clos / fat-tree / macro-switch), a workload (named stochastic
// generator + seed, or an inline io/text_format instance), a routing policy,
// a fairness objective, and an optional failure scenario. Specs parse from
// JSON (util/json) and serialize back to a *canonical* form: fixed key
// order, defaults omitted, inline instances normalized through
// parse_instance/format_instance. Two spellings of the same scenario
// therefore canonicalize to the same bytes, and the canonical bytes are the
// content address (FNV-1a 64) the result cache (svc/cache.hpp) keys on.
//
// docs/SERVICE.md documents the full request schema with examples.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "flow/routing.hpp"
#include "net/clos.hpp"
#include "util/json.hpp"
#include "util/rational.hpp"

namespace closfair::svc {

/// Thrown on a structurally valid JSON document that is not a valid
/// ScenarioSpec (unknown key, bad discriminator, out-of-range value).
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& what) : std::runtime_error(what) {}
};

/// Where the flows run. For "clos" the generalized ClosNetwork::Params apply
/// (the paper's C_n when tors == 2n, servers == n, capacity == 1, emitted
/// canonically as {"kind":"clos","n":N}); "macro" evaluates the macro-switch
/// reference only; "fattree" drives FatTree(k) through the topology-generic
/// routing layer.
struct TopologySpec {
  std::string kind = "clos";  ///< "clos" | "macro" | "fattree"
  ClosNetwork::Params params;
  int fattree_k = 4;
};

/// Either a named stochastic generator (workload/stochastic.hpp; the seed
/// feeds the deterministic Rng stream) or an inline text-format instance
/// (io/text_format.hpp; its `clos` line then *defines* the topology and the
/// spec must not carry a "topology" group).
struct WorkloadSpec {
  std::string generator;  ///< empty when `instance` is used
  std::uint64_t seed = 1;
  std::size_t count = 0;   ///< uniform/zipf/hotspot/incast flow count
  double skew = 1.0;       ///< zipf
  int hot_tor = 1;         ///< hotspot
  double hot_fraction = 0.5;
  int dst_tor = 1;         ///< incast sink
  int dst_server = 1;
  int stride = 1;          ///< stride offset
  std::string instance;    ///< canonicalized text-format instance, or empty
};

/// How flows are routed. `policy` names a row of the routing-policy table
/// (svc/policy.hpp, rows in svc/service.cpp), which fixes the keys the
/// routing group accepts and the algorithm each fabric runs; docs/SERVICE.md
/// lists the policies. `reroute_dead` requires a `start`.
///
/// When `seed` is absent, seeded policies continue the workload generator's
/// Rng stream — the convention of the sweep benches, which draw the workload
/// and the routing from one stream.
struct RoutingSpec {
  std::string policy = "greedy";
  std::optional<std::uint64_t> seed;
  std::size_t max_moves = 10'000;        ///< local_search / lex_climb / tput_climb
  unsigned threads = 1;                  ///< exhaustive engine workers
  bool prune_throughput_bound = true;    ///< exhaustive_tput early exit
  bool fix_first_flow = true;            ///< exhaustive count convention
  std::uint64_t max_routings = 0;        ///< 0 = engine default
  std::size_t attempts = 8;              ///< lp_round draws
  MiddleAssignment start;                ///< explicit start/static assignment
  bool reroute_dead = false;             ///< fault::reroute_dead_paths on the start
};

/// Declarative failure scenario: explicit fault::FailureScenario components
/// plus the deterministic samplers. Application order (all multiplicative,
/// never reviving): explicit components, then `sample_middles` and
/// `link_failure_p` drawn from one Rng(seed) stream (middles first), then
/// `worst_case_outage` targeting the already-degraded fabric's most valuable
/// survivors. Clos topologies only.
struct FaultSpec {
  fault::FailureScenario scenario;
  int sample_middles = 0;
  double link_failure_p = 0.0;
  int worst_case_outage = 0;
  std::uint64_t seed = 1;

  [[nodiscard]] bool empty() const {
    return scenario.empty() && sample_middles == 0 && link_failure_p == 0.0 &&
           worst_case_outage == 0;
  }
};

/// One declarative scenario request.
struct ScenarioSpec {
  TopologySpec topology;
  WorkloadSpec workload;
  RoutingSpec routing;
  std::string objective = "maxmin";  ///< "maxmin" (water-fill) | "maxmin_lp" (LP oracle)
  FaultSpec fault;

  /// Parse from a JSON object. Strict: unknown keys, conflicting groups
  /// (e.g. "topology" next to an inline instance), and invalid values throw
  /// SpecError; malformed embedded instances throw with the ParseError text.
  static ScenarioSpec from_json(const Json& json);

  /// Canonical JSON: fixed key order, defaults omitted, instance text
  /// normalized. parse(to_json()) reproduces the spec exactly, and
  /// to_json() is a fixed point of that round trip.
  [[nodiscard]] Json to_json() const;

  /// to_json().dump() — the bytes the content address is computed over.
  [[nodiscard]] std::string canonical() const;

  /// FNV-1a 64-bit hash of canonical().
  [[nodiscard]] std::uint64_t content_hash() const;
};

/// FNV-1a 64 over arbitrary bytes (the service's content-address function).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// 16-digit lowercase hex of a content hash: the spelling of a content
/// address in responses, delta requests, and cache spills.
[[nodiscard]] std::string hash_hex(std::uint64_t hash);

/// One flow to add via a delta patch (1-based coordinates, like the text
/// format's `flow a b -> c d [@R]` line).
struct FlowPatch {
  int src_tor = 1;
  int src_server = 1;
  int dst_tor = 1;
  int dst_server = 1;
  std::optional<Rational> rate;  ///< declared target rate (replication runs)
};

/// A declarative edit of a base ScenarioSpec — the "patch" half of a delta
/// request (docs/SERVICE.md "Delta requests"). Application order: flows
/// (remove, then add), faults (fail_middles merged sorted-unique,
/// derate_links appended), then the objective switch. Flow edits require the
/// base workload to be an inline instance and are rejected when the base
/// carries an explicit routing.start (the start indexes the old flow list).
struct SpecPatch {
  std::vector<FlowPatch> add_flows;
  std::vector<std::size_t> remove_flows;  ///< 0-based indices into the base flows
  std::vector<int> fail_middles;
  std::vector<fault::LinkDeration> derate_links;
  std::optional<std::string> objective;

  static SpecPatch from_json(const Json& json);

  [[nodiscard]] bool empty() const {
    return add_flows.empty() && remove_flows.empty() && fail_middles.empty() &&
           derate_links.empty() && !objective.has_value();
  }

  /// The patched spec, normalized through the same from_json(to_json())
  /// round trip a cold request takes — so the patched spec's canonical bytes
  /// (and with them its content address) are exactly what a client spelling
  /// the scenario directly would get. Throws SpecError when the patch does
  /// not apply (flow edits without an inline instance, index out of range,
  /// fault on a non-Clos base, ...).
  [[nodiscard]] ScenarioSpec apply(const ScenarioSpec& base) const;
};

/// A delta request: patch the scenario addressed by `base` (the FNV-1a 64
/// content hash a previous response reported) with `patch`.
struct DeltaRequest {
  std::uint64_t base = 0;
  SpecPatch patch;

  /// Parse {"base":"<16-digit hex>", "patch":{...}}; "patch" may be omitted
  /// (an empty patch re-addresses the base spec itself).
  static DeltaRequest from_json(const Json& json);
};

/// Exhaustive-search work stats, reported for exhaustive_* policies so
/// sweeps can gate engine determinism through the service.
struct SearchStats {
  std::uint64_t routings_evaluated = 0;
  std::uint64_t waterfill_invocations = 0;

  friend bool operator==(const SearchStats&, const SearchStats&) = default;
};

/// Replication-feasibility outcome ("replicate" policy).
struct ReplicationStats {
  bool feasible = false;
  std::uint64_t nodes_explored = 0;
  MiddleAssignment witness;  ///< empty when infeasible

  friend bool operator==(const ReplicationStats&, const ReplicationStats&) = default;
};

/// The evaluated scenario: the pristine macro-switch reference always, plus
/// the routed allocation on the (possibly degraded) fabric when the policy
/// routes. All rates are exact rationals.
struct ScenarioResult {
  std::size_t num_flows = 0;
  std::vector<Rational> macro_rates;
  Rational macro_throughput{0};

  bool routed = false;  ///< false for "none" and "replicate"
  std::vector<Rational> rates;
  Rational throughput{0};
  Rational throughput_ratio{1};  ///< clos/macro (1 when macro throughput is 0)
  Rational min_rate_ratio{1};    ///< min over flows with positive macro rate

  MiddleAssignment middles;                    ///< Clos policies only
  std::optional<int> surviving_middles;        ///< Clos topologies only
  std::optional<std::size_t> rerouted;         ///< when routing.reroute_dead
  std::optional<SearchStats> search;
  std::optional<ReplicationStats> replication;

  [[nodiscard]] Json to_json() const;
  static ScenarioResult from_json(const Json& json);

  friend bool operator==(const ScenarioResult&, const ScenarioResult&) = default;
};

}  // namespace closfair::svc
