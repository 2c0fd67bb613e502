// Splittable flows: the classic network-flow regime the paper contrasts
// against (§1, "Demand satisfaction").
//
// When a flow may be divided across its n middle-switch paths, any rates
// that satisfy the edge links can be routed inside a Clos network — so the
// splittable max-min fair allocation in C_n *equals* the macro-switch
// max-min allocation. This module witnesses that folklore computationally:
// given a collection, it returns the macro-switch rates together with a
// fractional routing (per-flow middle shares) found by the general-form
// exact LP, certified feasible. The unsplittable machinery elsewhere then
// quantifies exactly how much the single-path restriction costs — which is
// the whole subject of the paper.
#pragma once

#include <stdexcept>
#include <vector>

#include "flow/allocation.hpp"
#include "flow/flow.hpp"
#include "net/clos.hpp"
#include "net/macroswitch.hpp"
#include "util/rational.hpp"

namespace closfair {

struct SplittableMaxMin {
  /// Per-flow rates (equal to the macro-switch max-min rates).
  Allocation<Rational> rates;
  /// shares[f][m-1] = rate of flow f sent via middle m; rows sum to rates.
  std::vector<std::vector<Rational>> shares;
};

/// Thrown by splittable_max_min when the fabric cannot carry the macro-switch
/// rates even splittably — possible only outside the folklore's hypothesis.
class SplittableInfeasible : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The splittable max-min fair allocation in `net`, with a witness
/// fractional routing. The companion macro-switch must have matching
/// dimensions. The demand-satisfaction folklore guarantees a witness when no
/// ToR has more servers than there are middles and every uplink and downlink
/// is at least as wide as the server links (the paper's pristine C_n): there
/// an infeasible witness LP throws ContractViolation, a library bug. On any
/// other fabric — a degraded one (fault/fault.hpp), say — it throws
/// SplittableInfeasible.
[[nodiscard]] SplittableMaxMin splittable_max_min(const ClosNetwork& net,
                                                  const MacroSwitch& ms,
                                                  const FlowCollection& specs);

/// Check that a fractional routing carries the given rates within all link
/// capacities (exact).
[[nodiscard]] bool fractional_routing_feasible(const ClosNetwork& net, const FlowSet& flows,
                                               const std::vector<std::vector<Rational>>& shares);

}  // namespace closfair
