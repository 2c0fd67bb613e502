#include "lp/splittable.hpp"

#include "fairness/waterfill.hpp"
#include "lp/simplex.hpp"

namespace closfair {
namespace {

// The folklore's hypothesis: with at most n servers per ToR and every fabric
// link at least as wide as a server link, splitting each flow evenly over
// the n middles loads no uplink or downlink beyond its capacity.
bool folklore_applies(const ClosNetwork& net) {
  if (net.servers_per_tor() > net.num_middles()) return false;
  const Topology& topo = net.topology();
  const Rational& edge = topo.link(net.source_link(1, 1)).capacity;
  for (int i = 1; i <= net.num_tors(); ++i) {
    for (int m = 1; m <= net.num_middles(); ++m) {
      if (topo.link(net.uplink(i, m)).capacity < edge) return false;
      if (topo.link(net.downlink(m, i)).capacity < edge) return false;
    }
  }
  return true;
}

}  // namespace

SplittableMaxMin splittable_max_min(const ClosNetwork& net, const MacroSwitch& ms,
                                    const FlowCollection& specs) {
  CF_CHECK_MSG(net.num_tors() == ms.num_tors() &&
                   net.servers_per_tor() == ms.servers_per_tor(),
               "Clos network and macro-switch have mismatched dimensions");
  const FlowSet flows = instantiate(net, specs);
  const int n = net.num_middles();
  const std::size_t num_flows = flows.size();

  // The optimum: macro-switch max-min rates. Any feasible Clos allocation is
  // macro-feasible, so nothing can lexicographically exceed these; the LP
  // below witnesses they are attainable with splitting.
  const Allocation<Rational> macro = max_min_fair<Rational>(ms, instantiate(ms, specs));

  SplittableMaxMin result;
  result.rates = macro;
  result.shares.assign(num_flows, std::vector<Rational>(static_cast<std::size_t>(n)));
  if (num_flows == 0) return result;

  // Feasibility LP over x_{f,m} >= 0:
  //   sum_m x_{f,m} = rate_f                       (flow conservation)
  //   sum_{f from ToR i} x_{f,m} <= cap(I_i M_m)   (uplinks)
  //   sum_{f to ToR j}  x_{f,m} <= cap(M_m O_j)    (downlinks)
  // Edge links carry rate_f regardless of the split and are feasible by
  // macro-switch feasibility.
  const auto var = [n](FlowIndex f, int m) {
    return f * static_cast<std::size_t>(n) + static_cast<std::size_t>(m - 1);
  };
  const std::size_t num_vars = num_flows * static_cast<std::size_t>(n);

  GeneralLp<Rational> lp;
  lp.c.assign(num_vars, Rational{0});
  for (FlowIndex f = 0; f < num_flows; ++f) {
    std::vector<Rational> row(num_vars, Rational{0});
    for (int m = 1; m <= n; ++m) row[var(f, m)] = Rational{1};
    lp.A_eq.push_back(std::move(row));
    lp.b_eq.push_back(macro.rate(f));
  }
  for (int i = 1; i <= net.num_tors(); ++i) {
    for (int m = 1; m <= n; ++m) {
      std::vector<Rational> up(num_vars, Rational{0});
      std::vector<Rational> down(num_vars, Rational{0});
      bool up_used = false;
      bool down_used = false;
      for (FlowIndex f = 0; f < num_flows; ++f) {
        if (net.source_coord(flows[f].src).tor == i) {
          up[var(f, m)] = Rational{1};
          up_used = true;
        }
        if (net.dest_coord(flows[f].dst).tor == i) {
          down[var(f, m)] = Rational{1};
          down_used = true;
        }
      }
      if (up_used) {
        lp.A_ub.push_back(std::move(up));
        lp.b_ub.push_back(net.topology().link(net.uplink(i, m)).capacity);
      }
      if (down_used) {
        lp.A_ub.push_back(std::move(down));
        lp.b_ub.push_back(net.topology().link(net.downlink(m, i)).capacity);
      }
    }
  }

  const GeneralLpResult<Rational> witness = solve_lp_general(lp);
  if (witness.status != GeneralLpStatus::kOptimal) {
    CF_CHECK_MSG(!folklore_applies(net),
                 "splittable routing LP infeasible: demand-satisfaction folklore violated "
                 "(library bug)");
    throw SplittableInfeasible("the fabric cannot carry the macro-switch rates splittably");
  }
  for (FlowIndex f = 0; f < num_flows; ++f) {
    for (int m = 1; m <= n; ++m) {
      result.shares[f][static_cast<std::size_t>(m - 1)] = witness.x[var(f, m)];
    }
  }
  return result;
}

bool fractional_routing_feasible(const ClosNetwork& net, const FlowSet& flows,
                                 const std::vector<std::vector<Rational>>& shares) {
  CF_CHECK(shares.size() == flows.size());
  const int n = net.num_middles();
  std::vector<Rational> load(net.topology().num_links(), Rational{0});
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    CF_CHECK_MSG(shares[f].size() == static_cast<std::size_t>(n),
                 "flow " << f << " has " << shares[f].size() << " middle shares, expected "
                         << n);
    for (int m = 1; m <= n; ++m) {
      const Rational& share = shares[f][static_cast<std::size_t>(m - 1)];
      if (share.is_negative()) return false;
      if (share.is_zero()) continue;
      for (LinkId l : net.path(flows[f].src, flows[f].dst, m)) {
        load[static_cast<std::size_t>(l)] += share;
      }
    }
  }
  for (std::size_t l = 0; l < load.size(); ++l) {
    const Link& link = net.topology().link(static_cast<LinkId>(l));
    if (link.unbounded) continue;
    if (link.capacity < load[l]) return false;
  }
  return true;
}

}  // namespace closfair
