// Fault injection for degraded-fabric evaluation.
//
// The paper's results R1-R3 are proven on pristine Clos fabrics; production
// fabrics run with failed links and dead middle switches (cf. Bankhamer et
// al., randomized local fast rerouting, and the authors' follow-up work on
// minimum-congestion routing against degraded capacity). This module models
// failures as a *capacity mask*: a FailureScenario maps each fabric link to a
// factor in [0, 1], applied multiplicatively on top of the current capacity.
// Masks only ever shrink capacities — applying a scenario can never revive a
// link — so the fairness machinery (water-filling, bottleneck certificates,
// the LP path) consumes the masked topology completely unchanged, while the
// routing layers (ecmp, greedy, local_search, search_engine) learn to skip
// dead middles and respect derated capacities.
//
// Samplers are deterministic per Rng state: independent per-link failure with
// probability p, k-random-middle outage, and a targeted worst-case outage
// that removes the middles carrying the most surviving capacity.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/clos.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

namespace closfair::fault {

/// Which stage of the Clos fabric a deration targets.
enum class LinkStage : std::uint8_t {
  kUplink,    ///< I_tor -> M_middle
  kDownlink,  ///< M_middle -> O_tor
};

/// One fabric-link deration: new capacity = old capacity * factor.
/// factor = 0 kills the link; factor must lie in [0, 1] (masks never revive).
struct LinkDeration {
  LinkStage stage = LinkStage::kUplink;
  int tor = 1;     ///< 1-based ToR index i
  int middle = 1;  ///< 1-based middle index m
  Rational factor{0};
};

/// Whole-pod degradation: every uplink and downlink of `tor` is scaled.
struct PodDegradation {
  int tor = 1;
  Rational factor{1};
};

/// A failure scenario over a Clos fabric: failed middle switches (all their
/// uplinks and downlinks go to zero), individually derated or failed links,
/// and degraded pods. Application order is middles, then links, then pods;
/// since every entry only multiplies by a factor in [0, 1], the composition
/// is order-insensitive for which links end up dead.
struct FailureScenario {
  std::vector<int> failed_middles;  ///< 1-based middle indices
  std::vector<LinkDeration> derated_links;
  std::vector<PodDegradation> degraded_pods;

  [[nodiscard]] bool empty() const {
    return failed_middles.empty() && derated_links.empty() && degraded_pods.empty();
  }
};

/// One-line human summary ("2 middles failed, 3 links derated, 1 pod degraded").
[[nodiscard]] std::string summary(const FailureScenario& scenario);

/// Applies the scenario to `net` in place as a capacity mask (new capacity =
/// old * factor; factors must be in [0, 1] — ContractViolation otherwise).
/// Returns the number of fabric links whose capacity changed. Bumps the obs
/// counters fault.scenarios, fault.links_failed (capacity reached zero),
/// fault.links_derated (reduced but positive), fault.middles_failed.
std::size_t apply(ClosNetwork& net, const FailureScenario& scenario);

/// Copying convenience: returns a degraded copy, leaving the original intact.
[[nodiscard]] ClosNetwork degrade(ClosNetwork net, const FailureScenario& scenario);

/// A middle switch is dead when every one of its uplinks AND every one of its
/// downlinks has zero capacity — exactly the mask a failed middle leaves
/// behind. Partially-reachable middles (some links derated or dead) are
/// alive; the capacity-aware layers handle them via ordinary capacities.
[[nodiscard]] bool middle_alive(const ClosNetwork& net, int m);

/// The alive middles, ascending. Empty iff every middle is dead.
[[nodiscard]] std::vector<int> surviving_middles(const ClosNetwork& net);

/// True when the *surviving* middles are capacity-interchangeable: for every
/// input ToR all surviving uplink capacities are equal, and for every output
/// ToR all surviving downlink capacities are equal. Failed middles break the
/// full-label symmetry (`ClosNetwork::middles_symmetric()`), but permuting
/// the surviving labels among themselves is still a capacity-preserving
/// automorphism — this predicate licenses canonical enumeration quotiented
/// over the surviving middles only (routing/search_engine.hpp). Trivially
/// true with at most one survivor.
[[nodiscard]] bool surviving_middles_symmetric(const ClosNetwork& net);

/// True when middle m is usable by a src_tor -> dst_tor flow: both the uplink
/// I_src_tor -> M_m and the downlink M_m -> O_dst_tor have positive capacity.
[[nodiscard]] bool middle_usable(const ClosNetwork& net, int src_tor, int dst_tor, int m);

/// True when any uplink or downlink of the fabric has zero capacity — the
/// cheap gate routing heuristics use to skip per-flow usability filtering on
/// pristine fabrics.
[[nodiscard]] bool has_dead_fabric_links(const ClosNetwork& net);

/// Independent link failures: every uplink and downlink dies with probability
/// p (uplinks first, ToR-major; then downlinks, middle-major — the draw order
/// is part of the deterministic contract). Factors are all zero.
[[nodiscard]] FailureScenario sample_link_failures(const ClosNetwork& net, double p,
                                                   Rng& rng);

/// k-random-middle outage: k distinct middles chosen uniformly, listed
/// ascending. k in [0, num_middles].
[[nodiscard]] FailureScenario sample_middle_outage(const ClosNetwork& net, int k, Rng& rng);

/// Targeted worst-case outage: fails the k middles carrying the most
/// surviving fabric capacity (sum of their uplink + downlink capacities),
/// ties broken toward the lowest index. On a pristine symmetric fabric this
/// is middles 1..k — the adversary gains nothing from the choice, but on an
/// already-degraded fabric it removes the most valuable survivors.
[[nodiscard]] FailureScenario worst_case_outage(const ClosNetwork& net, int k);

/// Moves every flow whose current 4-link path crosses a zero-capacity link,
/// in index order, to the middle the least-congested engine's greedy rule
/// picks under unit loads of all flows (routing/generic.hpp): the least
/// congested live middle, ties toward the lowest index. Flows with no usable
/// middle — dead source/destination link, or every middle unusable for their
/// ToR pair — keep their assignment and stay starved. Returns the number of
/// flows moved; bumps fault.reroutes.
std::size_t reroute_dead_paths(const ClosNetwork& net, const FlowSet& flows,
                               MiddleAssignment& middles);

}  // namespace closfair::fault
