// Max-min fair allocation by iterative linear programming.
//
// The classical LP formulation of Definition 2.1: repeatedly maximize a
// common rate floor t over the still-unfixed flows subject to residual link
// capacities, then freeze exactly the flows whose rate cannot exceed t while
// every other unfixed flow keeps at least t. With R = Rational and the exact
// simplex (lp/simplex.hpp) this is a fully independent oracle for the
// water-filling algorithm — the two implementations share no code beyond the
// topology types, and the test suite demands exact equality of their outputs.
#pragma once

#include "flow/allocation.hpp"
#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/topology.hpp"

namespace closfair {

/// Max-min fair allocation for a fixed routing, via iterative LP.
/// Same preconditions as max_min_fair (every flow crosses a bounded link).
template <typename R>
[[nodiscard]] Allocation<R> max_min_fair_lp(const Topology& topo, const FlowSet& flows,
                                            const Routing& routing);

/// Weighted variant: maximize the common normalized floor t with
/// x_f >= w_f * t, freezing flows whose normalized rate cannot exceed t.
/// The independent oracle for fairness/weighted.hpp; weights must be
/// strictly positive.
[[nodiscard]] Allocation<Rational> weighted_max_min_fair_lp(
    const Topology& topo, const FlowSet& flows, const Routing& routing,
    const std::vector<Rational>& weights);

}  // namespace closfair
