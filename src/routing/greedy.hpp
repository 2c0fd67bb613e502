// Greedy congestion-aware routing (§6): state-of-the-art data-center routing
// algorithms assume flows arrive with their macro-switch rates as demands and
// greedily place each flow on the path minimizing the resulting maximum link
// congestion (congestion = total demand on link / capacity). This models the
// Hedera/CONGA family the paper's related-work section describes. It is a
// Clos adapter over the least-congested engine (routing/generic.hpp), which
// holds the placement rule and its dead-link rules.
#pragma once

#include <vector>

#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/clos.hpp"

namespace closfair {

/// Greedily assign each flow, largest demand first (equal demands in
/// collection order), to the middle switch minimizing the maximum congestion
/// over its path links, given per-flow demands (typically the macro-switch
/// max-min rates; unit demands minimize the maximum number of flows per
/// link). Ties prefer the lowest middle index; a middle whose path crosses a
/// dead link is chosen only when every middle's is, and then middle 1 is.
[[nodiscard]] MiddleAssignment greedy_routing(const ClosNetwork& net, const FlowSet& flows,
                                              const std::vector<double>& demands);

}  // namespace closfair
