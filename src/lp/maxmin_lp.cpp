#include "lp/maxmin_lp.hpp"

#include <vector>

#include "lp/simplex.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace closfair {

namespace {

// The iterative LP at the given strictly positive weights: maximize the
// common normalized floor t with x_f >= w_f * t, then freeze exactly the
// flows whose normalized rate cannot exceed t. Unit weights give Definition
// 2.1's max-min fair allocation.
template <typename R>
Allocation<R> iterative_max_min_lp(const Topology& topo, const FlowSet& flows,
                                   const Routing& routing, const std::vector<R>& weights) {
  OBS_SPAN("lp.maxmin.solve");
  CF_CHECK(routing.size() == flows.size());
  const std::size_t num_flows = flows.size();
  const std::vector<std::vector<FlowIndex>> on_link = flows_per_link(topo, routing);

  Allocation<R> alloc(num_flows);
  std::vector<bool> fixed(num_flows, false);
  std::size_t num_fixed = 0;

  // Residual capacity of each bounded link after subtracting fixed flows.
  std::vector<R> residual(topo.num_links(), R{0});
  std::vector<bool> bounded(topo.num_links(), false);
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const Link& link = topo.link(static_cast<LinkId>(l));
    if (link.unbounded) continue;
    bounded[l] = true;
    residual[l] = capacity_as<R>(link);
  }

  while (num_fixed < num_flows) {
    // Active flows and their dense positions.
    std::vector<FlowIndex> active;
    std::vector<std::size_t> pos(num_flows, static_cast<std::size_t>(-1));
    for (FlowIndex f = 0; f < num_flows; ++f) {
      if (!fixed[f]) {
        pos[f] = active.size();
        active.push_back(f);
      }
    }
    const std::size_t k = active.size();

    // Bounded links carrying at least one active flow.
    std::vector<std::size_t> lp_links;
    for (std::size_t l = 0; l < topo.num_links(); ++l) {
      if (!bounded[l]) continue;
      for (FlowIndex f : on_link[l]) {
        if (!fixed[f]) {
          lp_links.push_back(l);
          break;
        }
      }
    }

    // LP 1: maximize t s.t. sum of active x_f on link <= residual,
    // w_f t - x_f <= 0. Variables: x_0..x_{k-1}, then t.
    const std::size_t num_vars = k + 1;
    std::vector<std::vector<R>> A;
    std::vector<R> b;
    for (std::size_t l : lp_links) {
      std::vector<R> row(num_vars, R{0});
      for (FlowIndex f : on_link[l]) {
        if (!fixed[f]) row[pos[f]] += R{1};
      }
      A.push_back(std::move(row));
      b.push_back(residual[l]);
    }
    for (std::size_t i = 0; i < k; ++i) {
      std::vector<R> row(num_vars, R{0});
      row[i] = R{-1};
      row[k] = weights[active[i]];
      A.push_back(std::move(row));
      b.push_back(R{0});
    }
    std::vector<R> c(num_vars, R{0});
    c[k] = R{1};
    OBS_COUNTER_INC("lp.maxmin.rounds");
    OBS_COUNTER_INC("lp.maxmin.level_lps");
    const LpResult<R> level_lp = solve_lp<R>(A, b, c);
    CF_CHECK_MSG(level_lp.status == LpStatus::kOptimal,
                 "max-min level LP unbounded: some flow crosses no bounded link");
    const R level = level_lp.objective;

    // LP 2 (per active flow): with x_g = w_g * level + y_g, can y_f exceed 0?
    // Constraints: sum of y_g on link <= residual - (active weight on link) * level.
    std::vector<std::vector<R>> A2;
    std::vector<R> b2;
    for (std::size_t l : lp_links) {
      std::vector<R> row(k, R{0});
      R active_weight{0};
      for (FlowIndex f : on_link[l]) {
        if (!fixed[f]) {
          row[pos[f]] += R{1};
          active_weight += weights[f];
        }
      }
      A2.push_back(std::move(row));
      R slack = residual[l] - active_weight * level;
      // Exact arithmetic keeps slack >= 0; with doubles, clamp roundoff.
      if (slack < R{0}) slack = R{0};
      b2.push_back(std::move(slack));
    }

    std::vector<FlowIndex> to_fix;
    for (std::size_t i = 0; i < k; ++i) {
      std::vector<R> c2(k, R{0});
      c2[i] = R{1};
      OBS_COUNTER_INC("lp.maxmin.improve_lps");
      const LpResult<R> improve = solve_lp<R>(A2, b2, c2);
      CF_CHECK(improve.status == LpStatus::kOptimal);
      if (improve.objective == R{0}) to_fix.push_back(active[i]);
    }
    CF_CHECK_MSG(!to_fix.empty(), "max-min LP made no progress");
    OBS_COUNTER_ADD("lp.maxmin.flows_frozen", to_fix.size());

    for (FlowIndex f : to_fix) {
      fixed[f] = true;
      ++num_fixed;
      const R rate = weights[f] * level;
      alloc.set_rate(f, rate);
      for (LinkId l : routing.path(f)) {
        const auto idx = static_cast<std::size_t>(l);
        if (bounded[idx]) residual[idx] -= rate;
      }
    }
  }
  return alloc;
}

}  // namespace

template <typename R>
Allocation<R> max_min_fair_lp(const Topology& topo, const FlowSet& flows,
                              const Routing& routing) {
  return iterative_max_min_lp<R>(topo, flows, routing, std::vector<R>(flows.size(), R{1}));
}

template Allocation<Rational> max_min_fair_lp<Rational>(const Topology&, const FlowSet&,
                                                        const Routing&);

Allocation<Rational> weighted_max_min_fair_lp(const Topology& topo, const FlowSet& flows,
                                              const Routing& routing,
                                              const std::vector<Rational>& weights) {
  CF_CHECK_MSG(weights.size() == flows.size(),
               "weights cover " << weights.size() << " flows, expected " << flows.size());
  for (const Rational& w : weights) {
    CF_CHECK_MSG(Rational{0} < w, "weights must be strictly positive");
  }
  return iterative_max_min_lp<Rational>(topo, flows, routing, weights);
}

}  // namespace closfair
