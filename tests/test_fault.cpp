#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fairness/waterfill.hpp"
#include "obs/obs.hpp"
#include "routing/ecmp.hpp"
#include "routing/exhaustive.hpp"
#include "routing/greedy.hpp"
#include "routing/local_search.hpp"
#include "util/rng.hpp"
#include "workload/stochastic.hpp"

namespace closfair {
namespace {

FlowSet cross_tor_flows(const ClosNetwork& net) {
  // One flow per (source ToR, dest ToR) pair exercises every fabric link.
  FlowCollection specs;
  for (int i = 1; i <= net.num_tors(); ++i) {
    for (int k = 1; k <= net.num_tors(); ++k) {
      specs.push_back(FlowSpec{i, 1, k, 1});
    }
  }
  return instantiate(net, specs);
}

TEST(Fault, FailedMiddleKillsAllItsLinks) {
  ClosNetwork net = ClosNetwork::paper(3);
  fault::FailureScenario scenario;
  scenario.failed_middles.push_back(2);
  const std::size_t changed = fault::apply(net, scenario);
  EXPECT_EQ(changed, 2u * static_cast<std::size_t>(net.num_tors()));

  const Topology& topo = net.topology();
  for (int i = 1; i <= net.num_tors(); ++i) {
    EXPECT_EQ(topo.link(net.uplink(i, 2)).capacity, Rational{0});
    EXPECT_EQ(topo.link(net.downlink(2, i)).capacity, Rational{0});
    EXPECT_EQ(topo.link(net.uplink(i, 1)).capacity, Rational{1});
    EXPECT_EQ(topo.link(net.uplink(i, 3)).capacity, Rational{1});
  }
  EXPECT_FALSE(fault::middle_alive(net, 2));
  EXPECT_TRUE(fault::middle_alive(net, 1));
  EXPECT_EQ(fault::surviving_middles(net), (std::vector<int>{1, 3}));
  EXPECT_TRUE(fault::has_dead_fabric_links(net));
}

TEST(Fault, ApplyIsIdempotentOnDeadLinks) {
  ClosNetwork net = ClosNetwork::paper(3);
  fault::FailureScenario scenario;
  scenario.failed_middles.push_back(1);
  EXPECT_GT(fault::apply(net, scenario), 0u);
  // Re-applying the same mask changes nothing: 0 * 0 == 0.
  EXPECT_EQ(fault::apply(net, scenario), 0u);
}

TEST(Fault, DerationScalesNotReplaces) {
  ClosNetwork net = ClosNetwork::paper(2);
  fault::FailureScenario scenario;
  scenario.derated_links.push_back(
      fault::LinkDeration{fault::LinkStage::kUplink, 1, 2, Rational{1, 2}});
  fault::apply(net, scenario);
  EXPECT_EQ(net.topology().link(net.uplink(1, 2)).capacity, (Rational{1, 2}));
  // Second application multiplies again: masks compose multiplicatively.
  fault::apply(net, scenario);
  EXPECT_EQ(net.topology().link(net.uplink(1, 2)).capacity, (Rational{1, 4}));
  // A derated (but positive) link leaves its middle alive.
  EXPECT_TRUE(fault::middle_alive(net, 2));
  EXPECT_FALSE(fault::has_dead_fabric_links(net));
}

TEST(Fault, MaskNeverRevives) {
  ClosNetwork net = ClosNetwork::paper(2);
  fault::FailureScenario grow;
  grow.derated_links.push_back(
      fault::LinkDeration{fault::LinkStage::kUplink, 1, 1, Rational{2}});
  EXPECT_THROW(fault::apply(net, grow), ContractViolation);

  fault::FailureScenario negative;
  negative.derated_links.push_back(
      fault::LinkDeration{fault::LinkStage::kDownlink, 1, 1, Rational{-1, 2}});
  EXPECT_THROW(fault::apply(net, negative), ContractViolation);

  fault::FailureScenario bad_pod;
  bad_pod.degraded_pods.push_back(fault::PodDegradation{1, Rational{3, 2}});
  EXPECT_THROW(fault::apply(net, bad_pod), ContractViolation);

  // Nothing was changed by the throwing applications.
  EXPECT_FALSE(fault::has_dead_fabric_links(net));
  EXPECT_EQ(net.topology().link(net.uplink(1, 1)).capacity, Rational{1});
}

TEST(Fault, PodDegradationScalesEveryPodLink) {
  ClosNetwork net = ClosNetwork::paper(3);
  fault::FailureScenario scenario;
  scenario.degraded_pods.push_back(fault::PodDegradation{2, Rational{1, 3}});
  const std::size_t changed = fault::apply(net, scenario);
  EXPECT_EQ(changed, 2u * static_cast<std::size_t>(net.num_middles()));
  for (int m = 1; m <= net.num_middles(); ++m) {
    EXPECT_EQ(net.topology().link(net.uplink(2, m)).capacity, (Rational{1, 3}));
    EXPECT_EQ(net.topology().link(net.downlink(m, 2)).capacity, (Rational{1, 3}));
    EXPECT_EQ(net.topology().link(net.uplink(1, m)).capacity, Rational{1});
  }
}

TEST(Fault, DegradeReturnsCopyLeavingOriginalIntact) {
  const ClosNetwork pristine = ClosNetwork::paper(3);
  fault::FailureScenario scenario;
  scenario.failed_middles.push_back(1);
  const ClosNetwork degraded = fault::degrade(pristine, scenario);
  EXPECT_FALSE(fault::middle_alive(degraded, 1));
  EXPECT_TRUE(fault::middle_alive(pristine, 1));
  EXPECT_FALSE(fault::has_dead_fabric_links(pristine));
}

TEST(Fault, SurvivorsStaySymmetricUnderMiddleFailures) {
  ClosNetwork net = ClosNetwork::paper(4);
  EXPECT_TRUE(fault::surviving_middles_symmetric(net));

  fault::FailureScenario outage;
  outage.failed_middles = {2, 4};
  fault::apply(net, outage);
  // Whole-middle failures leave the survivors interchangeable...
  EXPECT_TRUE(fault::surviving_middles_symmetric(net));

  // ...but a single-link kill breaks the symmetry between survivors.
  fault::FailureScenario nick;
  nick.derated_links.push_back(
      fault::LinkDeration{fault::LinkStage::kUplink, 1, 3, Rational{0}});
  fault::apply(net, nick);
  EXPECT_FALSE(fault::surviving_middles_symmetric(net));
}

TEST(Fault, MiddleUsableIsDirectional) {
  ClosNetwork net = ClosNetwork::paper(3);
  fault::FailureScenario scenario;
  scenario.derated_links.push_back(
      fault::LinkDeration{fault::LinkStage::kUplink, 1, 2, Rational{0}});
  fault::apply(net, scenario);
  for (int dst = 1; dst <= net.num_tors(); ++dst) {
    EXPECT_FALSE(fault::middle_usable(net, 1, dst, 2));
    EXPECT_TRUE(fault::middle_usable(net, 2, dst, 2));
    EXPECT_TRUE(fault::middle_usable(net, 1, dst, 1));
  }
}

TEST(Fault, LinkFailureSamplerIsDeterministicAndExactAtExtremes) {
  const ClosNetwork net = ClosNetwork::paper(3);
  const std::size_t fabric_links =
      2u * static_cast<std::size_t>(net.num_tors()) *
      static_cast<std::size_t>(net.num_middles());

  Rng zero(7);
  EXPECT_TRUE(fault::sample_link_failures(net, 0.0, zero).empty());
  Rng one(7);
  EXPECT_EQ(fault::sample_link_failures(net, 1.0, one).derated_links.size(), fabric_links);

  Rng a(42);
  Rng b(42);
  const auto sa = fault::sample_link_failures(net, 0.3, a);
  const auto sb = fault::sample_link_failures(net, 0.3, b);
  ASSERT_EQ(sa.derated_links.size(), sb.derated_links.size());
  for (std::size_t i = 0; i < sa.derated_links.size(); ++i) {
    EXPECT_EQ(sa.derated_links[i].stage, sb.derated_links[i].stage);
    EXPECT_EQ(sa.derated_links[i].tor, sb.derated_links[i].tor);
    EXPECT_EQ(sa.derated_links[i].middle, sb.derated_links[i].middle);
    EXPECT_EQ(sa.derated_links[i].factor, Rational{0});
  }
}

TEST(Fault, MiddleOutageSamplerDrawsExactlyKDistinct) {
  const ClosNetwork net = ClosNetwork::paper(5);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (int k = 0; k <= net.num_middles(); ++k) {
      Rng rng(seed);
      auto scenario = fault::sample_middle_outage(net, k, rng);
      ASSERT_EQ(scenario.failed_middles.size(), static_cast<std::size_t>(k));
      EXPECT_TRUE(std::is_sorted(scenario.failed_middles.begin(),
                                 scenario.failed_middles.end()));
      EXPECT_EQ(std::unique(scenario.failed_middles.begin(),
                            scenario.failed_middles.end()) -
                    scenario.failed_middles.begin(),
                k);
      for (int m : scenario.failed_middles) {
        EXPECT_GE(m, 1);
        EXPECT_LE(m, net.num_middles());
      }
      Rng again(seed);
      EXPECT_EQ(fault::sample_middle_outage(net, k, again).failed_middles,
                scenario.failed_middles);
    }
  }
  Rng rng(1);
  EXPECT_THROW(fault::sample_middle_outage(net, net.num_middles() + 1, rng),
               ContractViolation);
}

TEST(Fault, WorstCaseOutageTargetsRemainingCapacity) {
  // Pristine symmetric fabric: the adversary gains nothing, ties resolve to
  // the lowest indices.
  const ClosNetwork pristine = ClosNetwork::paper(4);
  EXPECT_EQ(fault::worst_case_outage(pristine, 2).failed_middles,
            (std::vector<int>{1, 2}));

  // After halving every link of middle 1, the most valuable survivor is 2.
  ClosNetwork net = ClosNetwork::paper(4);
  fault::FailureScenario weaken;
  for (int i = 1; i <= net.num_tors(); ++i) {
    weaken.derated_links.push_back(
        fault::LinkDeration{fault::LinkStage::kUplink, i, 1, Rational{1, 2}});
    weaken.derated_links.push_back(
        fault::LinkDeration{fault::LinkStage::kDownlink, i, 1, Rational{1, 2}});
  }
  fault::apply(net, weaken);
  EXPECT_EQ(fault::worst_case_outage(net, 1).failed_middles, (std::vector<int>{2}));
}

TEST(Fault, RerouteMovesDeadPathFlowsOnly) {
  ClosNetwork net = ClosNetwork::paper(3);
  const FlowSet flows = cross_tor_flows(net);
  MiddleAssignment middles(flows.size(), 2);

  fault::FailureScenario scenario;
  scenario.failed_middles.push_back(2);
  fault::apply(net, scenario);

  const std::size_t moved = fault::reroute_dead_paths(net, flows, middles);
  EXPECT_EQ(moved, flows.size());  // every flow sat on the dead middle
  for (int m : middles) EXPECT_NE(m, 2);

  // Second pass: nothing left to move.
  EXPECT_EQ(fault::reroute_dead_paths(net, flows, middles), 0u);
}

TEST(Fault, RerouteLeavesStrandedFlowsInPlace) {
  ClosNetwork net = ClosNetwork::paper(2);
  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 3, 1}});
  MiddleAssignment middles{1};

  // Kill every uplink of ToR 1: the flow has no usable middle at all.
  fault::FailureScenario scenario;
  for (int m = 1; m <= net.num_middles(); ++m) {
    scenario.derated_links.push_back(
        fault::LinkDeration{fault::LinkStage::kUplink, 1, m, Rational{0}});
  }
  fault::apply(net, scenario);
  EXPECT_EQ(fault::reroute_dead_paths(net, flows, middles), 0u);
  EXPECT_EQ(middles[0], 1);

  // Water-filling the stranded routing is still well-defined: rate 0.
  const auto alloc = max_min_fair<Rational>(net, flows, middles);
  EXPECT_EQ(alloc.rate(0), Rational{0});
}

TEST(Fault, EcmpNeverPicksDeadMiddles) {
  ClosNetwork net = ClosNetwork::paper(4);
  fault::FailureScenario scenario;
  scenario.failed_middles = {1, 3};
  fault::apply(net, scenario);

  Rng rng(11);
  const FlowSet flows = instantiate(
      net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 40, rng));
  const MiddleAssignment middles = ecmp_routing(net, flows, rng);
  for (int m : middles) {
    EXPECT_TRUE(m == 2 || m == 4) << "ECMP routed via dead middle " << m;
  }
}

TEST(Fault, GreedyAvoidsDeadMiddles) {
  ClosNetwork net = ClosNetwork::paper(3);
  fault::FailureScenario scenario;
  scenario.failed_middles.push_back(3);
  fault::apply(net, scenario);

  Rng rng(5);
  const FlowSet flows = instantiate(
      net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 20, rng));
  const std::vector<double> unit(flows.size(), 1.0);
  const MiddleAssignment middles = greedy_routing(net, flows, unit);
  for (int m : middles) EXPECT_NE(m, 3);
}

TEST(Fault, LocalSearchClimbsOffDeadMiddles) {
  ClosNetwork net = ClosNetwork::paper(3);
  fault::FailureScenario scenario;
  scenario.failed_middles.push_back(1);
  fault::apply(net, scenario);

  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 4, 1}, FlowSpec{2, 1, 5, 1}});
  const MiddleAssignment start(flows.size(), 1);  // everyone on the dead middle
  const auto result = lex_max_min_local_search(net, flows, start);
  for (int m : result.middles) EXPECT_NE(m, 1);
  EXPECT_EQ(result.alloc.rate(0), Rational{1});
  EXPECT_EQ(result.alloc.rate(1), Rational{1});
}

TEST(Fault, ExhaustiveSearchesAgreeAcrossEnumerationModes) {
  // Canonical enumeration over the surviving pool must match the odometer
  // over the same degraded fabric — outputs and middles restricted to
  // survivors.
  ClosNetwork net = ClosNetwork::paper(4);
  fault::FailureScenario scenario;
  scenario.failed_middles.push_back(2);
  fault::apply(net, scenario);

  Rng rng(9);
  const FlowSet flows = instantiate(
      net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 6, rng));

  ExhaustiveOptions canonical;
  ExhaustiveOptions odometer;
  odometer.exploit_middle_symmetry = false;
  const auto a = lex_max_min_exhaustive(net, flows, canonical);
  const auto b = lex_max_min_exhaustive(net, flows, odometer);
  EXPECT_EQ(a.alloc.sorted(), b.alloc.sorted());
  for (int m : a.middles) EXPECT_NE(m, 2);
  for (int m : b.middles) EXPECT_NE(m, 2);
  // Canonical does strictly less water-filling work on the 3-survivor pool
  // (restricted-growth classes vs the pinned 3^5 odometer).
  EXPECT_LT(a.waterfill_invocations, b.waterfill_invocations);

  const auto ta = throughput_max_min_exhaustive(net, flows, canonical);
  const auto tb = throughput_max_min_exhaustive(net, flows, odometer);
  EXPECT_EQ(ta.alloc.throughput(), tb.alloc.throughput());
}

TEST(Fault, ObsCountersTrackScenarioApplication) {
  if (!obs::kEnabled) GTEST_SKIP() << "library built with CLOSFAIR_OBS=OFF";
  obs::Registry& registry = obs::Registry::instance();
  const std::uint64_t failed_before = registry.counter("fault.links_failed").total();
  const std::uint64_t derated_before = registry.counter("fault.links_derated").total();
  const std::uint64_t middles_before = registry.counter("fault.middles_failed").total();

  ClosNetwork net = ClosNetwork::paper(3);
  fault::FailureScenario scenario;
  scenario.failed_middles.push_back(1);
  scenario.derated_links.push_back(
      fault::LinkDeration{fault::LinkStage::kUplink, 2, 2, Rational{1, 2}});
  fault::apply(net, scenario);

  EXPECT_EQ(registry.counter("fault.links_failed").total() - failed_before,
            2u * static_cast<std::uint64_t>(net.num_tors()));
  EXPECT_EQ(registry.counter("fault.links_derated").total() - derated_before, 1u);
  EXPECT_EQ(registry.counter("fault.middles_failed").total() - middles_before, 1u);
}

}  // namespace
}  // namespace closfair
