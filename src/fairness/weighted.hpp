// Weighted max-min fairness: progressive filling where flow f's rate grows
// as weight_f * level, freezing at saturated links.
//
// This generalization is the natural mechanism probe for the paper's §7
// discussion of R2: lex-max-min fairness starves high-macro-rate flows
// because all flows rise at the *same* speed. If congestion control instead
// weights each flow by its macro-switch rate, the allocation maximizes (per
// routing) the minimum of a(f)/macro(f) — the relative-max-min objective the
// paper proposes as an open question. The ext_weighted bench measures how
// much of the Theorem 4.3 starvation this recovers.
//
// The filling loop stays separate from max_min_fair's: run at unit weights it
// gives the same bytes but measured slower on fat-tree sweep cells
// (docs/ALGORITHMS.md). The certifier is the bottleneck scan of
// fairness/bottleneck.hpp on normalized rates, and the independent oracle is
// weighted_max_min_fair_lp (lp/maxmin_lp.hpp).
#pragma once

#include <vector>

#include "flow/allocation.hpp"
#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/topology.hpp"

namespace closfair {

/// Weighted max-min fair allocation for a fixed routing: the vector of
/// a(f)/w(f) is lexicographically maximal (when sorted ascending) over
/// feasible allocations. Weights must be strictly positive. Preconditions
/// otherwise as max_min_fair.
template <typename R>
[[nodiscard]] Allocation<R> weighted_max_min_fair(const Topology& topo, const FlowSet& flows,
                                                  const Routing& routing,
                                                  const std::vector<R>& weights);

/// The weighted analogue of the bottleneck property: every flow has a
/// saturated link on which its *normalized* rate a(f)/w(f) is maximal.
/// Certifies the output of weighted_max_min_fair independently.
template <typename R>
[[nodiscard]] bool is_weighted_max_min_fair(const Topology& topo, const Routing& routing,
                                            const Allocation<R>& alloc,
                                            const std::vector<R>& weights,
                                            R tolerance = R{0});

}  // namespace closfair
