#include "routing/ecmp.hpp"
#include "routing/greedy.hpp"
#include "routing/local_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "svc/spec.hpp"
#include "workload/stochastic.hpp"

namespace closfair {
namespace {

double max_congestion(const ClosNetwork& net, const FlowSet& flows,
                      const MiddleAssignment& middles, const std::vector<double>& demands) {
  std::vector<double> load(net.topology().num_links(), 0.0);
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    for (LinkId l : net.path(flows[f].src, flows[f].dst, middles[f])) {
      load[static_cast<std::size_t>(l)] += demands[f];
    }
  }
  double worst = 0.0;
  for (std::size_t l = 0; l < load.size(); ++l) {
    const Link& link = net.topology().link(static_cast<LinkId>(l));
    if (link.unbounded) continue;
    worst = std::max(worst, load[l] / link.capacity.to_double());
  }
  return worst;
}

TEST(Ecmp, AssignmentsInRange) {
  const ClosNetwork net = ClosNetwork::paper(4);
  Rng rng(1);
  const FlowSet flows =
      instantiate(net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 50, rng));
  const MiddleAssignment m = ecmp_routing(net, flows, rng);
  ASSERT_EQ(m.size(), flows.size());
  for (int middle : m) {
    EXPECT_GE(middle, 1);
    EXPECT_LE(middle, 4);
  }
}

TEST(Ecmp, UsesAllMiddlesEventually) {
  const ClosNetwork net = ClosNetwork::paper(3);
  Rng rng(2);
  const FlowSet flows =
      instantiate(net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 60, rng));
  const MiddleAssignment m = ecmp_routing(net, flows, rng);
  std::vector<int> seen(4, 0);
  for (int middle : m) ++seen[static_cast<std::size_t>(middle)];
  for (int middle = 1; middle <= 3; ++middle) EXPECT_GT(seen[static_cast<std::size_t>(middle)], 0);
}

TEST(Greedy, SpreadsEqualFlowsAcrossMiddles) {
  // n parallel unit-demand flows between the same ToR pair must go to n
  // different middles.
  const int n = 4;
  const ClosNetwork net = ClosNetwork::paper(n);
  FlowCollection specs;
  for (int j = 1; j <= n; ++j) specs.push_back(FlowSpec{1, j, 2, j});
  const FlowSet flows = instantiate(net, specs);
  const std::vector<double> unit(flows.size(), 1.0);
  const MiddleAssignment m = greedy_routing(net, flows, unit);
  std::vector<int> sorted = m;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (MiddleAssignment{1, 2, 3, 4}));
}

TEST(Greedy, DemandAwarePlacesElephantsApart) {
  const ClosNetwork net = ClosNetwork::paper(2);
  // Two elephants (demand 1) and two mice (demand 0.1), all I_1 -> O_3.
  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 3, 1}, FlowSpec{1, 2, 3, 2},
                                          FlowSpec{1, 1, 3, 2}, FlowSpec{1, 2, 3, 1}});
  const std::vector<double> demands = {1.0, 1.0, 0.1, 0.1};
  const MiddleAssignment m = greedy_routing(net, flows, demands);
  EXPECT_NE(m[0], m[1]);  // elephants on different middles
}

TEST(Greedy, DemandSizeMismatchThrows) {
  const ClosNetwork net = ClosNetwork::paper(2);
  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 3, 1}});
  EXPECT_THROW(greedy_routing(net, flows, {1.0, 2.0}), ContractViolation);
}

TEST(LocalSearch, ImprovesCongestionOverWorstStart) {
  const int n = 3;
  const ClosNetwork net = ClosNetwork::paper(n);
  FlowCollection specs;
  for (int j = 1; j <= n; ++j) specs.push_back(FlowSpec{1, j, 2, j});
  const FlowSet flows = instantiate(net, specs);
  const std::vector<double> demands(flows.size(), 1.0);

  const MiddleAssignment all_one(flows.size(), 1);
  EXPECT_DOUBLE_EQ(max_congestion(net, flows, all_one, demands), 3.0);
  const MiddleAssignment improved = congestion_local_search(net, flows, demands, all_one);
  EXPECT_DOUBLE_EQ(max_congestion(net, flows, improved, demands), 1.0);
}

TEST(LocalSearch, LexHillClimbImprovesButMayStall) {
  // Single-flow moves are not complete for lex-max-min: from the all-ones
  // start the climb improves on its start but stalls in a local optimum
  // below the paper's routing A (found by exhaustive search) — evidence that
  // lex-max-min routing needs more than greedy rerouting.
  const ClosNetwork net = ClosNetwork::paper(2);
  const FlowSet flows = instantiate(
      net, {FlowSpec{1, 2, 1, 2}, FlowSpec{1, 2, 2, 1}, FlowSpec{1, 2, 2, 2},
            FlowSpec{2, 1, 2, 1}, FlowSpec{2, 2, 2, 2}, FlowSpec{1, 1, 1, 1}});
  const auto start_alloc = max_min_fair<Rational>(net, flows, MiddleAssignment(6, 1));
  const auto result = lex_max_min_local_search(net, flows, MiddleAssignment(6, 1));

  EXPECT_NE(lex_compare_sorted(result.alloc, start_alloc), std::strong_ordering::less);
  const auto routing_a = max_min_fair<Rational>(net, flows, {2, 1, 2, 1, 2, 1});
  EXPECT_NE(lex_compare_sorted(result.alloc, routing_a), std::strong_ordering::greater);
}

TEST(LocalSearch, MultistartNotWorseThanSinglestart) {
  const ClosNetwork net = ClosNetwork::paper(2);
  Rng rng(7);
  const FlowSet flows = instantiate(
      net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 10, rng));
  const auto single = lex_max_min_local_search(net, flows, MiddleAssignment(10, 1));
  Rng rng2(7);
  const auto multi = lex_max_min_multistart(net, flows, rng2, 4);
  EXPECT_NE(lex_compare_sorted(multi.alloc, single.alloc), std::strong_ordering::less);
}

TEST(LocalSearch, ThroughputClimbEscapesCongestedStart) {
  // One Example 3.3 gadget in C_3, all flows initially jammed onto M_1
  // (throughput 1). A single gadget cannot *beat* the macro-switch max-min
  // throughput 3/2 (the type 2 flow always shares an edge link with each
  // type 1 flow), but the climb must reach exactly 3/2.
  const ClosNetwork net = ClosNetwork::paper(3);
  const FlowSet flows = instantiate(
      net, {FlowSpec{1, 1, 1, 1}, FlowSpec{1, 2, 1, 2}, FlowSpec{1, 2, 1, 1}});
  const MiddleAssignment start(3, 1);
  const auto base = max_min_fair<Rational>(net, flows, start);
  EXPECT_EQ(base.throughput(), Rational(1));
  const auto result = throughput_max_min_local_search(net, flows, start);
  EXPECT_EQ(result.alloc.throughput(), Rational(3, 2));
}

TEST(LocalSearch, RespectsMoveBudget) {
  const ClosNetwork net = ClosNetwork::paper(2);
  Rng rng(11);
  const FlowSet flows = instantiate(
      net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 12, rng));
  LocalSearchOptions options;
  options.max_moves = 1;
  const auto result = lex_max_min_local_search(net, flows, MiddleAssignment(12, 1), options);
  EXPECT_LE(result.moves, 1u);
}

// Golden for the three Clos congestion heuristics (greedy, congestion descent
// at 64 moves, dead-path reroute) over seeded pristine and degraded C_3-C_5
// cells: an FNV-1a digest of every middle they return and every reroute
// count. Degraded cells sample middle outages and link failures, demands mix
// zero, fractional and unit values, and the descent also starts from a random
// assignment so it must climb off dead paths. Any change to placement order,
// tie-breaking or the dead-link rules moves the digest.
TEST(RoutingEngine, ClosHeuristicsMatchSeededDigest) {
  const double kDemands[] = {0.0, 0.25, 1.0 / 3.0, 0.5, 1.0};
  Rng rng(20240618);
  std::string trace;
  auto record = [&](const MiddleAssignment& middles) {
    for (int m : middles) trace += std::to_string(m) + ',';
    trace += ';';
  };
  std::size_t cells = 0;
  std::size_t dead_cells = 0;
  std::size_t reroutes = 0;
  for (int n = 3; n <= 5; ++n) {
    for (int cell = 0; cell < 400; ++cell) {
      ClosNetwork net = ClosNetwork::paper(n);
      if (cell % 4 == 1 || cell % 4 == 3) {
        fault::apply(net, fault::sample_middle_outage(
                              net, 1 + static_cast<int>(rng.next_below(n - 1)), rng));
      }
      if (cell % 4 >= 2) fault::apply(net, fault::sample_link_failures(net, 0.15, rng));
      if (fault::has_dead_fabric_links(net)) ++dead_cells;

      const std::size_t count = 8 + rng.next_below(33);
      const FlowSet flows = instantiate(
          net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, count, rng));
      std::vector<double> demands(flows.size(), 1.0);
      if (cell % 3 != 0) {
        for (double& d : demands) d = kDemands[rng.next_below(std::size(kDemands))];
      }
      MiddleAssignment random_start(flows.size());
      for (int& m : random_start) m = 1 + static_cast<int>(rng.next_below(n));

      const MiddleAssignment greedy = greedy_routing(net, flows, demands);
      record(greedy);
      record(congestion_local_search(net, flows, demands, greedy, {64}));
      record(congestion_local_search(net, flows, demands, random_start, {64}));
      const std::size_t moved = fault::reroute_dead_paths(net, flows, random_start);
      record(random_start);
      trace += std::to_string(moved) + '|';
      reroutes += moved;
      ++cells;
    }
  }
  EXPECT_GE(cells, 1000u);
  EXPECT_GE(dead_cells, 800u);
  EXPECT_GT(reroutes, 1000u);
  EXPECT_EQ(svc::fnv1a64(trace), 0xd79984b204b6b39fULL);
}

}  // namespace
}  // namespace closfair
