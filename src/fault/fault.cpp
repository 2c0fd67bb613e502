#include "fault/fault.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "obs/obs.hpp"
#include "routing/generic.hpp"

namespace closfair::fault {
namespace {

const Rational kZero{0};
const Rational kOne{1};

void check_middle(const ClosNetwork& net, int m) {
  CF_CHECK_MSG(m >= 1 && m <= net.num_middles(),
               "middle index " << m << " out of range [1, " << net.num_middles() << "]");
}

void check_tor(const ClosNetwork& net, int i) {
  CF_CHECK_MSG(i >= 1 && i <= net.num_tors(),
               "ToR index " << i << " out of range [1, " << net.num_tors() << "]");
}

void check_factor(const Rational& factor) {
  CF_CHECK_MSG(!(factor < kZero) && !(kOne < factor),
               "deration factor " << factor.to_string()
                                  << " outside [0, 1]: masks never revive capacity");
}

// Applies new = old * factor to one fabric link, counting kills/derations.
// Already-dead links are untouched (0 * factor == 0 anyway).
void scale_link(ClosNetwork& net, LinkStage stage, int tor, int middle,
                const Rational& factor, std::size_t& killed, std::size_t& derated) {
  const LinkId id = stage == LinkStage::kUplink ? net.uplink(tor, middle)
                                                : net.downlink(middle, tor);
  const Rational before = net.topology().link(id).capacity;
  const Rational after = before * factor;
  if (after == before) return;
  if (stage == LinkStage::kUplink) {
    net.set_uplink_capacity(tor, middle, after);
  } else {
    net.set_downlink_capacity(middle, tor, after);
  }
  if (after == kZero) {
    ++killed;
  } else {
    ++derated;
  }
}

}  // namespace

std::string summary(const FailureScenario& scenario) {
  std::ostringstream out;
  out << scenario.failed_middles.size() << " middle(s) failed, "
      << scenario.derated_links.size() << " link(s) derated, "
      << scenario.degraded_pods.size() << " pod(s) degraded";
  return out.str();
}

std::size_t apply(ClosNetwork& net, const FailureScenario& scenario) {
  std::size_t killed = 0;
  std::size_t derated = 0;

  for (int m : scenario.failed_middles) {
    check_middle(net, m);
    for (int i = 1; i <= net.num_tors(); ++i) {
      scale_link(net, LinkStage::kUplink, i, m, kZero, killed, derated);
      scale_link(net, LinkStage::kDownlink, i, m, kZero, killed, derated);
    }
  }
  for (const LinkDeration& d : scenario.derated_links) {
    check_middle(net, d.middle);
    check_tor(net, d.tor);
    check_factor(d.factor);
    scale_link(net, d.stage, d.tor, d.middle, d.factor, killed, derated);
  }
  for (const PodDegradation& pod : scenario.degraded_pods) {
    check_tor(net, pod.tor);
    check_factor(pod.factor);
    for (int m = 1; m <= net.num_middles(); ++m) {
      scale_link(net, LinkStage::kUplink, pod.tor, m, pod.factor, killed, derated);
      scale_link(net, LinkStage::kDownlink, pod.tor, m, pod.factor, killed, derated);
    }
  }

  std::vector<int> distinct = scenario.failed_middles;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());

  OBS_COUNTER_INC("fault.scenarios");
  OBS_COUNTER_ADD("fault.links_failed", killed);
  OBS_COUNTER_ADD("fault.links_derated", derated);
  OBS_COUNTER_ADD("fault.middles_failed", distinct.size());
  return killed + derated;
}

ClosNetwork degrade(ClosNetwork net, const FailureScenario& scenario) {
  apply(net, scenario);
  return net;
}

bool middle_alive(const ClosNetwork& net, int m) {
  check_middle(net, m);
  const Topology& topo = net.topology();
  for (int i = 1; i <= net.num_tors(); ++i) {
    if (!(topo.link(net.uplink(i, m)).capacity == kZero)) return true;
    if (!(topo.link(net.downlink(m, i)).capacity == kZero)) return true;
  }
  return false;
}

std::vector<int> surviving_middles(const ClosNetwork& net) {
  std::vector<int> alive;
  alive.reserve(static_cast<std::size_t>(net.num_middles()));
  for (int m = 1; m <= net.num_middles(); ++m) {
    if (middle_alive(net, m)) alive.push_back(m);
  }
  return alive;
}

bool surviving_middles_symmetric(const ClosNetwork& net) {
  const std::vector<int> alive = surviving_middles(net);
  if (alive.size() <= 1) return true;
  const Topology& topo = net.topology();
  for (int i = 1; i <= net.num_tors(); ++i) {
    const Rational up = topo.link(net.uplink(i, alive.front())).capacity;
    const Rational down = topo.link(net.downlink(alive.front(), i)).capacity;
    for (std::size_t a = 1; a < alive.size(); ++a) {
      if (!(topo.link(net.uplink(i, alive[a])).capacity == up)) return false;
      if (!(topo.link(net.downlink(alive[a], i)).capacity == down)) return false;
    }
  }
  return true;
}

bool middle_usable(const ClosNetwork& net, int src_tor, int dst_tor, int m) {
  check_middle(net, m);
  check_tor(net, src_tor);
  check_tor(net, dst_tor);
  const Topology& topo = net.topology();
  return kZero < topo.link(net.uplink(src_tor, m)).capacity &&
         kZero < topo.link(net.downlink(m, dst_tor)).capacity;
}

bool has_dead_fabric_links(const ClosNetwork& net) {
  const Topology& topo = net.topology();
  for (int i = 1; i <= net.num_tors(); ++i) {
    for (int m = 1; m <= net.num_middles(); ++m) {
      if (topo.link(net.uplink(i, m)).capacity == kZero) return true;
      if (topo.link(net.downlink(m, i)).capacity == kZero) return true;
    }
  }
  return false;
}

FailureScenario sample_link_failures(const ClosNetwork& net, double p, Rng& rng) {
  CF_CHECK_MSG(p >= 0.0 && p <= 1.0, "failure probability " << p << " outside [0, 1]");
  FailureScenario scenario;
  for (int i = 1; i <= net.num_tors(); ++i) {
    for (int m = 1; m <= net.num_middles(); ++m) {
      if (rng.next_bool(p)) {
        scenario.derated_links.push_back(LinkDeration{LinkStage::kUplink, i, m, kZero});
      }
    }
  }
  for (int m = 1; m <= net.num_middles(); ++m) {
    for (int i = 1; i <= net.num_tors(); ++i) {
      if (rng.next_bool(p)) {
        scenario.derated_links.push_back(LinkDeration{LinkStage::kDownlink, i, m, kZero});
      }
    }
  }
  return scenario;
}

FailureScenario sample_middle_outage(const ClosNetwork& net, int k, Rng& rng) {
  CF_CHECK_MSG(k >= 0 && k <= net.num_middles(),
               "outage size " << k << " outside [0, " << net.num_middles() << "]");
  const std::vector<std::size_t> perm =
      rng.permutation(static_cast<std::size_t>(net.num_middles()));
  FailureScenario scenario;
  scenario.failed_middles.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    scenario.failed_middles.push_back(static_cast<int>(perm[static_cast<std::size_t>(i)]) + 1);
  }
  std::sort(scenario.failed_middles.begin(), scenario.failed_middles.end());
  return scenario;
}

FailureScenario worst_case_outage(const ClosNetwork& net, int k) {
  CF_CHECK_MSG(k >= 0 && k <= net.num_middles(),
               "outage size " << k << " outside [0, " << net.num_middles() << "]");
  const Topology& topo = net.topology();
  std::vector<Rational> weight(static_cast<std::size_t>(net.num_middles()), Rational{0});
  for (int m = 1; m <= net.num_middles(); ++m) {
    Rational total{0};
    for (int i = 1; i <= net.num_tors(); ++i) {
      total += topo.link(net.uplink(i, m)).capacity;
      total += topo.link(net.downlink(m, i)).capacity;
    }
    weight[static_cast<std::size_t>(m - 1)] = total;
  }
  std::vector<int> order(static_cast<std::size_t>(net.num_middles()));
  std::iota(order.begin(), order.end(), 1);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const Rational& wa = weight[static_cast<std::size_t>(a - 1)];
    const Rational& wb = weight[static_cast<std::size_t>(b - 1)];
    if (wa == wb) return a < b;
    return wb < wa;
  });
  FailureScenario scenario;
  scenario.failed_middles.assign(order.begin(), order.begin() + k);
  std::sort(scenario.failed_middles.begin(), scenario.failed_middles.end());
  return scenario;
}

std::size_t reroute_dead_paths(const ClosNetwork& net, const FlowSet& flows,
                               MiddleAssignment& middles) {
  CandidateChoice choice = clos_choice(middles);
  const std::size_t rerouted =
      reroute_dead_choice(net.topology(), candidate_paths(net, flows), choice);
  middles = clos_middles(choice);
  OBS_COUNTER_ADD("fault.reroutes", rerouted);
  return rerouted;
}

}  // namespace closfair::fault
