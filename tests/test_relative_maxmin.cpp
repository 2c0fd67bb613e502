#include "routing/relative_maxmin.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/adversarial.hpp"
#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "workload/stochastic.hpp"

namespace closfair {
namespace {

TEST(RelativeMaxMin, PerfectReplicationGivesRatioOne) {
  // A permutation workload replicates macro rates exactly: worst ratio 1.
  const ClosNetwork net = ClosNetwork::paper(2);
  const MacroSwitch ms = MacroSwitch::paper(2);
  Rng rng(5);
  const FlowCollection specs =
      random_permutation(Fabric{net.num_tors(), net.servers_per_tor()}, rng);
  const FlowSet flows = instantiate(net, specs);
  const auto macro = max_min_fair<Rational>(ms, instantiate(ms, specs));

  const auto result = relative_max_min_exhaustive(net, flows, macro.rates());
  EXPECT_EQ(result.worst_ratio, Rational(1));
}

TEST(RelativeMaxMin, SearchMatchesExhaustiveOnExample23) {
  const ClosNetwork net = ClosNetwork::paper(2);
  const MacroSwitch ms = MacroSwitch::paper(2);
  const Example23 ex = example_2_3();
  const FlowSet flows = instantiate(net, ex.instance.flows);
  const auto macro = max_min_fair<Rational>(ms, instantiate(ms, ex.instance.flows));

  const auto exact = relative_max_min_exhaustive(net, flows, macro.rates());
  Rng rng(7);
  const auto heuristic = relative_max_min_search(net, flows, macro.rates(), rng, 6);
  // The heuristic cannot beat the exhaustive optimum lexicographically.
  EXPECT_NE(lex_compare(heuristic.ratios, exact.ratios), std::strong_ordering::greater);
  // For Example 2.3, the best worst-ratio is 3/4 — strictly better than the
  // 2/3 the lex-max-min routing A guarantees. A small data point on the
  // paper's §7 open question: relative max-min fairness and lex-max-min
  // fairness pick different routings.
  EXPECT_EQ(exact.worst_ratio, Rational(3, 4));
}

TEST(RelativeMaxMin, RatiosSortedAscending) {
  const ClosNetwork net = ClosNetwork::paper(2);
  const MacroSwitch ms = MacroSwitch::paper(2);
  Rng rng(11);
  const FlowCollection specs =
      uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 6, rng);
  const FlowSet flows = instantiate(net, specs);
  const auto macro = max_min_fair<Rational>(ms, instantiate(ms, specs));

  const auto result = relative_max_min_search(net, flows, macro.rates(), rng, 2);
  for (std::size_t i = 1; i < result.ratios.size(); ++i) {
    EXPECT_LE(result.ratios[i - 1], result.ratios[i]);
  }
  EXPECT_EQ(result.worst_ratio, result.ratios.front());
}

TEST(RelativeMaxMin, RejectsZeroMacroRates) {
  const ClosNetwork net = ClosNetwork::paper(2);
  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 3, 1}});
  Rng rng(1);
  EXPECT_THROW(relative_max_min_search(net, flows, {Rational{0}}, rng),
               ContractViolation);
  EXPECT_THROW(relative_max_min_exhaustive(net, flows, {}), ContractViolation);
}

TEST(RelativeMaxMin, StarvationInstanceRatioOneOverN) {
  // On the Theorem 4.3 instance, even optimizing for relative max-min cannot
  // save the type 3 flow: the best achievable worst-ratio stays 1/n-ish
  // because the macro rates themselves are not replicable. Heuristic run.
  const int n = 3;
  const ClosNetwork net = ClosNetwork::paper(n);
  const AdversarialInstance inst = theorem_4_3_instance(n);
  const FlowSet flows = instantiate(net, inst.flows);
  Rng rng(13);
  const auto result = relative_max_min_search(net, flows, inst.macro_rates, rng, 2, 2000);
  // No routing replicates everything (Theorem 4.2 reasoning), so the worst
  // ratio is strictly below 1; and it can't be worse than 1/(n+1) here
  // because the trivial all-one routing achieves at least that.
  EXPECT_LT(result.worst_ratio, Rational(1));
  EXPECT_GT(result.worst_ratio, Rational(0));
}

TEST(RelativeMaxMin, DeadUplinkIsRoutedAround) {
  // Uplink (ToR 1, M_1) is dead, so flow 0 must leave through M_2. Both flows
  // then get their macro rate 1: worst ratio 1, which only a search that does
  // not pin flow 0 to middle 1 can find.
  ClosNetwork net = ClosNetwork::paper(2);
  fault::apply(net, fault::FailureScenario{
                        {}, {fault::LinkDeration{fault::LinkStage::kUplink, 1, 1, Rational{0}}}, {}});
  const MacroSwitch ms = MacroSwitch::paper(2);
  const FlowCollection specs = {FlowSpec{1, 1, 3, 1}, FlowSpec{2, 1, 4, 1}};
  const FlowSet flows = instantiate(net, specs);
  const auto macro = max_min_fair<Rational>(ms, instantiate(ms, specs));

  const auto exact = relative_max_min_exhaustive(net, flows, macro.rates());
  EXPECT_EQ(exact.worst_ratio, Rational(1));
  EXPECT_EQ(exact.middles[0], 2);
  Rng rng(3);
  EXPECT_EQ(relative_max_min_search(net, flows, macro.rates(), rng).worst_ratio, Rational(1));
}

// Seeded cells for the search-vs-exhaustive checks: C_2 and C_3 with 2..6
// uniform random flows; odd cells are degraded by a failed middle, a
// fractional derated link, or a dead link, in turn.
struct RatioCell {
  ClosNetwork net;
  FlowSet flows;
  std::vector<Rational> macro_rates;
};

RatioCell ratio_cell(int i) {
  Rng rng(0xAB5ULL + static_cast<std::uint64_t>(i));
  const int n = 2 + (i / 2) % 2;
  ClosNetwork net = ClosNetwork::paper(n);
  if (i % 2 == 1) {
    fault::FailureScenario scenario;
    const auto pick = [&rng](int hi) { return static_cast<int>(rng.next_int(1, hi)); };
    const int kind = (i / 4) % 3;
    if (kind == 0) {
      scenario.failed_middles.push_back(pick(n));
    } else {
      const fault::LinkStage stage =
          rng.next_int(0, 1) == 0 ? fault::LinkStage::kUplink : fault::LinkStage::kDownlink;
      scenario.derated_links.push_back(fault::LinkDeration{
          stage, pick(2 * n), pick(n), kind == 1 ? Rational{1, 2} : Rational{0}});
    }
    fault::apply(net, scenario);
  }
  const MacroSwitch ms = MacroSwitch::paper(n);
  const FlowCollection specs =
      uniform_random(Fabric{2 * n, n}, static_cast<std::size_t>(rng.next_int(2, 6)), rng);
  const FlowSet flows = instantiate(net, specs);
  return RatioCell{std::move(net), flows,
                   max_min_fair<Rational>(ms, instantiate(ms, specs)).rates()};
}

constexpr int kRatioCells = 60;

TEST(RelativeMaxMin, SearchResultsMatchPinnedDigest) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto add = [&hash](const std::string& bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  };
  for (int i = 0; i < kRatioCells; ++i) {
    const RatioCell cell = ratio_cell(i);
    Rng rng(0x5EA7ULL + static_cast<std::uint64_t>(i));
    const auto result = relative_max_min_search(cell.net, cell.flows, cell.macro_rates, rng, 3);
    for (const int m : result.middles) add(std::to_string(m) + ' ');
    for (const Rational& r : result.ratios) add(r.to_string() + ' ');
    add("\n");
  }
  EXPECT_EQ(hash, 0xce575810c01150c9ULL) << std::hex << hash;
}

TEST(RelativeMaxMin, SearchNeverBeatsExhaustive) {
  for (int i = 0; i < kRatioCells; ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const RatioCell cell = ratio_cell(i);
    Rng rng(0x5EA7ULL + static_cast<std::uint64_t>(i));
    const auto search = relative_max_min_search(cell.net, cell.flows, cell.macro_rates, rng, 3);
    const auto exact = relative_max_min_exhaustive(cell.net, cell.flows, cell.macro_rates);
    EXPECT_NE(lex_compare(search.ratios, exact.ratios), std::strong_ordering::greater);
  }
}

}  // namespace
}  // namespace closfair
