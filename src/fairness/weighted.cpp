#include "fairness/weighted.hpp"

#include <optional>

#include "fairness/bottleneck.hpp"
#include "fairness/waterfill.hpp"

namespace closfair {

template <typename R>
Allocation<R> weighted_max_min_fair(const Topology& topo, const FlowSet& flows,
                                    const Routing& routing, const std::vector<R>& weights) {
  CF_CHECK(routing.size() == flows.size());
  CF_CHECK_MSG(weights.size() == flows.size(),
               "weights cover " << weights.size() << " flows, expected " << flows.size());
  for (const R& w : weights) {
    CF_CHECK_MSG(R{0} < w, "weighted max-min requires strictly positive weights");
  }
  const std::size_t num_flows = flows.size();

  // Same bind-time bounded-link index as the unweighted engine: rounds run
  // over dense slots, never re-checking topo.link(l).unbounded.
  detail::FillIndex<R> index;
  index.bind(topo, routing);
  const std::size_t num_slots = index.num_slots();

  // residual[s] = capacity - consumption of frozen flows - (active weight on
  // s) * current level. active_weight[s] = total weight of unfrozen flows.
  std::vector<R> residual = index.capacity;
  std::vector<R> active_weight(num_slots, R{0});
  for (std::size_t s = 0; s < num_slots; ++s) {
    for (std::size_t idx = index.slot_off[s]; idx < index.slot_off[s + 1]; ++idx) {
      active_weight[s] += weights[index.slot_flows[idx]];
    }
  }

  Allocation<R> alloc(num_flows);
  std::vector<bool> frozen(num_flows, false);
  std::size_t num_frozen = 0;
  std::vector<std::uint32_t> saturated;  // slots attaining the round's level
  std::vector<FlowIndex> to_freeze;      // both reused across rounds
  saturated.reserve(num_slots);

  while (num_frozen < num_flows) {
    // Next level increment: the smallest residual / active-weight over slots
    // still carrying active flows. Each share is computed exactly once;
    // slots attaining the minimum are collected during the same scan.
    std::optional<R> level;
    saturated.clear();
    for (std::size_t s = 0; s < num_slots; ++s) {
      if (active_weight[s] == R{0}) continue;
      R share = residual[s] / active_weight[s];
      if (!level || share < *level) {
        level = std::move(share);
        saturated.clear();
        saturated.push_back(static_cast<std::uint32_t>(s));
      } else if (share == *level) {
        saturated.push_back(static_cast<std::uint32_t>(s));
      }
    }
    CF_CHECK_MSG(level.has_value(),
                 "flow with no bounded link: weighted max-min rate would be unbounded");

    to_freeze.clear();
    for (std::uint32_t s : saturated) {
      for (std::size_t idx = index.slot_off[s]; idx < index.slot_off[s + 1]; ++idx) {
        const FlowIndex f = index.slot_flows[idx];
        if (!frozen[f]) to_freeze.push_back(f);
      }
    }
    CF_CHECK(!to_freeze.empty());

    for (std::size_t s = 0; s < num_slots; ++s) {
      if (active_weight[s] == R{0}) continue;
      residual[s] -= *level * active_weight[s];
    }
    for (FlowIndex f = 0; f < num_flows; ++f) {
      if (!frozen[f]) alloc.set_rate(f, alloc.rate(f) + *level * weights[f]);
    }
    for (FlowIndex f : to_freeze) {
      if (frozen[f]) continue;
      frozen[f] = true;
      ++num_frozen;
      for (std::size_t idx = index.flow_off[f]; idx < index.flow_off[f + 1]; ++idx) {
        active_weight[index.flow_slots[idx]] -= weights[f];
      }
    }
  }
  return alloc;
}

template <typename R>
bool is_weighted_max_min_fair(const Topology& topo, const Routing& routing,
                              const Allocation<R>& alloc, const std::vector<R>& weights,
                              R tolerance) {
  CF_CHECK(weights.size() == alloc.size());
  return detail::certify_bottlenecks(topo, routing, alloc, &weights, tolerance);
}

template Allocation<Rational> weighted_max_min_fair<Rational>(const Topology&,
                                                              const FlowSet&, const Routing&,
                                                              const std::vector<Rational>&);
template Allocation<double> weighted_max_min_fair<double>(const Topology&, const FlowSet&,
                                                          const Routing&,
                                                          const std::vector<double>&);
template bool is_weighted_max_min_fair<Rational>(const Topology&, const Routing&,
                                                 const Allocation<Rational>&,
                                                 const std::vector<Rational>&, Rational);
template bool is_weighted_max_min_fair<double>(const Topology&, const Routing&,
                                               const Allocation<double>&,
                                               const std::vector<double>&, double);

}  // namespace closfair
