// Rate allocations (§2.2): an assignment of a non-negative rate to each flow,
// plus the derived quantities the paper's theorems are stated over —
// throughput t(a), the sorted vector a↑, lexicographic order on sorted
// vectors, and feasibility against link capacities.
//
// Allocation is templated on the rate domain: Rational for exact theory-path
// computations, double for large-scale simulation.
#pragma once

#include <algorithm>
#include <compare>
#include <type_traits>
#include <vector>

#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/topology.hpp"
#include "util/rational.hpp"

namespace closfair {

template <typename R>
class Allocation {
 public:
  Allocation() = default;
  explicit Allocation(std::size_t num_flows) : rates_(num_flows, R{0}) {}
  explicit Allocation(std::vector<R> rates) : rates_(std::move(rates)) {}

  [[nodiscard]] std::size_t size() const { return rates_.size(); }

  [[nodiscard]] const R& rate(FlowIndex f) const {
    CF_CHECK_MSG(f < rates_.size(), "flow index " << f << " out of range");
    return rates_[f];
  }

  void set_rate(FlowIndex f, R rate) {
    CF_CHECK_MSG(f < rates_.size(), "flow index " << f << " out of range");
    rates_[f] = std::move(rate);
  }

  [[nodiscard]] const std::vector<R>& rates() const { return rates_; }

  /// Throughput t(a): the total rate over all flows.
  [[nodiscard]] R throughput() const {
    R total{0};
    for (const R& r : rates_) total += r;
    return total;
  }

  /// The sorted vector a↑ (rates ascending).
  [[nodiscard]] std::vector<R> sorted() const {
    std::vector<R> v = rates_;
    std::sort(v.begin(), v.end());
    return v;
  }

  friend bool operator==(const Allocation&, const Allocation&) = default;

 private:
  std::vector<R> rates_;
};

/// Lexicographic comparison of two equally-long rate vectors (used on sorted
/// vectors: a↑ ⪰ a'↑ in the paper's notation).
template <typename R>
[[nodiscard]] std::strong_ordering lex_compare(const std::vector<R>& a,
                                               const std::vector<R>& b) {
  CF_CHECK_MSG(a.size() == b.size(),
               "lexicographic comparison of vectors with different lengths");
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return std::strong_ordering::less;
    if (b[i] < a[i]) return std::strong_ordering::greater;
  }
  return std::strong_ordering::equal;
}

/// Lexicographic comparison of the *sorted* vectors of two allocations.
template <typename R>
[[nodiscard]] std::strong_ordering lex_compare_sorted(const Allocation<R>& a,
                                                      const Allocation<R>& b) {
  return lex_compare(a.sorted(), b.sorted());
}

/// The key the lexicographic routing objectives sort: `rates` ascending, or
/// the ratios rates[f] / divisors[f] ascending when `divisors` is given
/// (relative max-min's key, with the macro-switch rates as divisors). Writes
/// into `out`, reusing its storage.
void sorted_key(const std::vector<Rational>& rates, const std::vector<Rational>* divisors,
                std::vector<Rational>& out);

/// Total rate crossing each link under (routing, allocation).
template <typename R>
[[nodiscard]] std::vector<R> link_loads(const Topology& topo, const Routing& routing,
                                        const Allocation<R>& alloc) {
  CF_CHECK(routing.size() == alloc.size());
  std::vector<R> load(topo.num_links(), R{0});
  for (FlowIndex f = 0; f < routing.size(); ++f) {
    for (LinkId l : routing.path(f)) {
      load[static_cast<std::size_t>(l)] += alloc.rate(f);
    }
  }
  return load;
}

/// Feasibility (§2.2): all rates non-negative and every bounded link's total
/// rate at most its capacity. `tolerance` absorbs floating-point error when
/// R = double; leave it zero for Rational.
template <typename R>
[[nodiscard]] bool is_feasible(const Topology& topo, const Routing& routing,
                               const Allocation<R>& alloc, R tolerance = R{0}) {
  for (FlowIndex f = 0; f < alloc.size(); ++f) {
    if (alloc.rate(f) < R{0}) return false;
  }
  const std::vector<R> load = link_loads(topo, routing, alloc);
  for (std::size_t l = 0; l < load.size(); ++l) {
    const Link& link = topo.link(static_cast<LinkId>(l));
    if (link.unbounded) continue;
    if (load[l] > capacity_as<R>(link) + tolerance) return false;
  }
  return true;
}

/// Render an exact allocation's sorted vector, e.g. "[1/3, 1/3, 2/3, 1]".
[[nodiscard]] std::string format_sorted(const Allocation<Rational>& alloc);

/// Render a rate vector in flow order.
[[nodiscard]] std::string format_rates(const Allocation<Rational>& alloc);

}  // namespace closfair
