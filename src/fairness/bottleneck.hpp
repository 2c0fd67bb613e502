// The bottleneck property (Lemma 2.2): a feasible allocation is max-min fair
// iff every flow has a bottleneck link — a saturated link on which the flow's
// rate is maximal.
//
// This is an *independent* certifier for allocations produced by water-filling
// (fairness/waterfill.hpp) or by the LP path (lp/maxmin_lp.hpp): it inspects
// only the allocation, never the algorithm that made it. One scan serves both
// this certifier and the weighted one (fairness/weighted.hpp), which compares
// normalized rates a(f)/w(f) instead; here every weight is 1.
#pragma once

#include <optional>
#include <vector>

#include "flow/allocation.hpp"
#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/topology.hpp"

namespace closfair {
namespace detail {

/// The shared scan: for each flow, a saturated link (within `tolerance`) on
/// which its normalized rate a(f)/w(f) is maximal (within `tolerance`), or
/// nullopt. Every weight is 1 when `weights` is null, and no division is
/// then done.
template <typename R>
[[nodiscard]] std::vector<std::optional<LinkId>> normalized_bottleneck_links(
    const Topology& topo, const Routing& routing, const Allocation<R>& alloc,
    const std::vector<R>* weights, R tolerance) {
  CF_CHECK(routing.size() == alloc.size());
  const auto normalized = [&](FlowIndex f) {
    return weights == nullptr ? alloc.rate(f) : alloc.rate(f) / (*weights)[f];
  };
  const std::vector<R> load = link_loads(topo, routing, alloc);
  const std::vector<std::vector<FlowIndex>> on_link = flows_per_link(topo, routing);

  // Precompute per-link saturation and max normalized rate.
  std::vector<bool> saturated(topo.num_links(), false);
  std::vector<R> max_rate(topo.num_links(), R{0});
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const Link& link = topo.link(static_cast<LinkId>(l));
    if (link.unbounded) continue;  // an unbounded link can never saturate
    saturated[l] = load[l] + tolerance >= capacity_as<R>(link);
    for (FlowIndex f : on_link[l]) {
      R rate = normalized(f);
      if (rate > max_rate[l]) max_rate[l] = std::move(rate);
    }
  }

  std::vector<std::optional<LinkId>> result(alloc.size());
  for (FlowIndex f = 0; f < alloc.size(); ++f) {
    const R rate = normalized(f);
    for (LinkId l : routing.path(f)) {
      const auto idx = static_cast<std::size_t>(l);
      if (topo.link(l).unbounded) continue;
      if (saturated[idx] && rate + tolerance >= max_rate[idx]) {
        result[f] = l;
        break;
      }
    }
  }
  return result;
}

/// Lemma 2.2's test: feasible, and every flow has a bottleneck link under
/// normalized_bottleneck_links.
template <typename R>
[[nodiscard]] bool certify_bottlenecks(const Topology& topo, const Routing& routing,
                                       const Allocation<R>& alloc,
                                       const std::vector<R>* weights, R tolerance) {
  if (!is_feasible(topo, routing, alloc, tolerance)) return false;
  for (const auto& bn : normalized_bottleneck_links(topo, routing, alloc, weights, tolerance)) {
    if (!bn.has_value()) return false;
  }
  return true;
}

}  // namespace detail

/// For each flow, some bottleneck link under (routing, alloc), or nullopt if
/// the flow has none. A link (u,v) is a bottleneck for flow f when its total
/// rate equals its capacity (within `tolerance`) and f's rate is maximal
/// (within `tolerance`) among flows traversing it.
template <typename R>
[[nodiscard]] std::vector<std::optional<LinkId>> bottleneck_links(
    const Topology& topo, const Routing& routing, const Allocation<R>& alloc,
    R tolerance = R{0}) {
  return detail::normalized_bottleneck_links<R>(topo, routing, alloc, nullptr, tolerance);
}

/// Certify max-min fairness via Lemma 2.2: feasible and every flow has a
/// bottleneck link.
template <typename R>
[[nodiscard]] bool is_max_min_fair(const Topology& topo, const Routing& routing,
                                   const Allocation<R>& alloc, R tolerance = R{0}) {
  return detail::certify_bottlenecks<R>(topo, routing, alloc, nullptr, tolerance);
}

}  // namespace closfair
