#include "routing/generic.hpp"

#include <gtest/gtest.h>

#include "fairness/waterfill.hpp"
#include "net/fattree.hpp"

namespace closfair {
namespace {

// Fixture: k=4 fat-tree with four cross-pod flows from the same edge switch,
// which have 4 candidate paths each and collide unless spread.
struct FatTreeFixture {
  FatTree ft{4};
  FlowSet flows;
  PathCandidates candidates;

  FatTreeFixture() {
    // Two flows per source server of edge (1,1), to distinct remote servers.
    flows = {Flow{ft.source(1, 1, 1), ft.destination(3, 1, 1)},
             Flow{ft.source(1, 1, 2), ft.destination(3, 1, 2)},
             Flow{ft.source(1, 2, 1), ft.destination(4, 1, 1)},
             Flow{ft.source(1, 2, 2), ft.destination(4, 1, 2)}};
    for (const Flow& f : flows) candidates.push_back(ft.paths(f.src, f.dst));
  }
};

TEST(GenericRouting, EcmpPathsPicksValidCandidates) {
  FatTreeFixture fx;
  Rng rng(1);
  const Routing routing = ecmp_paths(fx.candidates, rng);
  routing.validate(fx.ft.topology(), fx.flows);
  for (FlowIndex f = 0; f < fx.flows.size(); ++f) {
    bool found = false;
    for (const Path& p : fx.candidates[f]) found |= p == routing.path(f);
    EXPECT_TRUE(found);
  }
}

TEST(GenericRouting, EcmpRejectsEmptyCandidates) {
  Rng rng(2);
  PathCandidates candidates(1);
  EXPECT_THROW(ecmp_paths(candidates, rng), ContractViolation);
}

TEST(GenericRouting, GreedySpreadsCollidingFlows) {
  FatTreeFixture fx;
  const std::vector<double> unit(fx.flows.size(), 1.0);
  const Routing routing = greedy_paths(fx.ft.topology(), fx.candidates, unit);
  routing.validate(fx.ft.topology(), fx.flows);
  // With unit demands the greedy must achieve full rate for all four flows
  // (there is a collision-free assignment: distinct (agg, core) pairs).
  const auto alloc = max_min_fair<Rational>(fx.ft.topology(), fx.flows, routing);
  for (FlowIndex f = 0; f < fx.flows.size(); ++f) {
    EXPECT_EQ(alloc.rate(f), Rational(1)) << "flow " << f;
  }
}

TEST(GenericRouting, GreedyDemandMismatchThrows) {
  FatTreeFixture fx;
  EXPECT_THROW(greedy_paths(fx.ft.topology(), fx.candidates, {1.0}), ContractViolation);
}

TEST(GenericRouting, LocalSearchFixesCollisions) {
  FatTreeFixture fx;
  const std::vector<double> unit(fx.flows.size(), 1.0);
  // Adversarial start: every flow on its first candidate (same agg+core).
  std::vector<Path> first;
  for (const auto& c : fx.candidates) first.push_back(c[0]);
  Routing start{std::move(first)};
  const auto before = max_min_fair<Rational>(fx.ft.topology(), fx.flows, start);

  const Routing improved =
      congestion_local_search_paths(fx.ft.topology(), fx.candidates, unit, start);
  const auto after = max_min_fair<Rational>(fx.ft.topology(), fx.flows, improved);
  EXPECT_GE(after.throughput(), before.throughput());
  EXPECT_EQ(after.throughput(), Rational(4));  // collision-free exists
}

TEST(GenericRouting, LocalSearchRespectsBudget) {
  FatTreeFixture fx;
  const std::vector<double> unit(fx.flows.size(), 1.0);
  std::vector<Path> first;
  for (const auto& c : fx.candidates) first.push_back(c[0]);
  const Routing improved = congestion_local_search_paths(
      fx.ft.topology(), fx.candidates, unit, Routing{std::move(first)}, /*max_moves=*/0);
  // Zero budget: unchanged.
  for (FlowIndex f = 0; f < fx.flows.size(); ++f) {
    EXPECT_EQ(improved.path(f), fx.candidates[f][0]);
  }
}

TEST(GenericRouting, SingleCandidateIsForced) {
  FatTreeFixture fx;
  // Intra-edge flow: exactly one candidate everywhere.
  const FlowSet flows = {Flow{fx.ft.source(2, 1, 1), fx.ft.destination(2, 1, 2)}};
  const PathCandidates candidates = {fx.ft.paths(flows[0].src, flows[0].dst)};
  ASSERT_EQ(candidates[0].size(), 1u);
  Rng rng(3);
  EXPECT_EQ(ecmp_paths(candidates, rng).path(0), candidates[0][0]);
  EXPECT_EQ(greedy_paths(fx.ft.topology(), candidates, {1.0}).path(0), candidates[0][0]);
}

// A zero-capacity link is dead: s -> y below. Flow 0 has only the dead path
// s-z-t, so the load score's max congestion is +inf from the start; flows 1
// and 2 share s-x-t, and moving either onto s-y-t would spread load (lower
// sum of squares) at the same +inf max, yet local search must never enter a
// dead candidate. A zero-demand flow whose first candidate is dead scores it
// +inf, not (0 + 0) / 0 = NaN, so greedy takes the live one.
TEST(GenericRouting, ZeroCapacityLinkIsDead) {
  Topology topo;
  const NodeId s = topo.add_node("s", NodeKind::kSource);
  const NodeId x = topo.add_node("x", NodeKind::kOther);
  const NodeId y = topo.add_node("y", NodeKind::kOther);
  const NodeId z = topo.add_node("z", NodeKind::kOther);
  const NodeId t = topo.add_node("t", NodeKind::kDestination);
  const Path live = {topo.add_link(s, x, Rational{1}), topo.add_link(x, t, Rational{1})};
  const Path dead = {topo.add_link(s, y, Rational{0}), topo.add_link(y, t, Rational{1})};
  const Path stranded = {topo.add_link(s, z, Rational{0}), topo.add_link(z, t, Rational{1})};

  const Routing greedy = greedy_paths(topo, {{dead, live}}, {0.0});
  EXPECT_EQ(greedy.path(0), live);

  const PathCandidates candidates = {{stranded}, {live, dead}, {live, dead}};
  const Routing start{{stranded, live, live}};
  const Routing searched =
      congestion_local_search_paths(topo, candidates, {1.0, 1.0, 1.0}, start);
  EXPECT_EQ(searched.path(1), live);
  EXPECT_EQ(searched.path(2), live);
}

}  // namespace
}  // namespace closfair
