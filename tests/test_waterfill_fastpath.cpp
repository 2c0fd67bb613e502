// Differential gate for the WaterfillWorkspace int64 fixed-denominator fast
// path: on every instance the fast engine, the forced Rational fallback, and
// the generic max_min_fair<Rational> reference must produce byte-identical
// rate vectors — including instances engineered to overflow the fast path at
// bind time or mid-round.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "fairness/bottleneck.hpp"
#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "routing/exhaustive.hpp"
#include "util/rng.hpp"
#include "workload/stochastic.hpp"

namespace closfair {
namespace {

FlowSet random_flows(const ClosNetwork& net, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  return instantiate(
      net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, count, rng));
}

MiddleAssignment random_assignment(int num_middles, std::size_t num_flows, Rng& rng) {
  MiddleAssignment middles(num_flows);
  for (std::size_t f = 0; f < num_flows; ++f) {
    middles[f] = static_cast<int>(rng.next_int(1, num_middles));
  }
  return middles;
}

/// Evaluates `middles` through a fast-path workspace, a forced-fallback
/// workspace, and the generic Rational reference, and requires exact
/// (num/den byte-level) equality everywhere.
void expect_all_engines_identical(const ClosNetwork& net, const FlowSet& flows,
                                  WaterfillWorkspace& fast, WaterfillWorkspace& fallback,
                                  const MiddleAssignment& middles) {
  const std::vector<Rational>& fast_rates = fast.max_min_rates(middles);
  const std::vector<Rational>& fallback_rates = fallback.max_min_rates(middles);
  const Allocation<Rational> reference = max_min_fair<Rational>(net, flows, middles);
  ASSERT_EQ(fast_rates.size(), flows.size());
  ASSERT_EQ(fallback_rates.size(), flows.size());
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    EXPECT_EQ(fast_rates[f].num(), reference.rate(f).num());
    EXPECT_EQ(fast_rates[f].den(), reference.rate(f).den());
    EXPECT_EQ(fallback_rates[f].num(), reference.rate(f).num());
    EXPECT_EQ(fallback_rates[f].den(), reference.rate(f).den());
  }
}

TEST(WaterfillFastpath, FastPathAvailableAndTakenOnPaperInstances) {
  const ClosNetwork net = ClosNetwork::paper(4);
  const FlowSet flows = random_flows(net, 8, 101);
  WaterfillWorkspace workspace;
  workspace.bind(net, flows);
  EXPECT_TRUE(workspace.fast_path_available());
  Rng rng(7);
  const MiddleAssignment middles = random_assignment(4, flows.size(), rng);
  (void)workspace.max_min_rates(middles);
  EXPECT_TRUE(workspace.last_call_was_fast());
  EXPECT_EQ(workspace.steady_state_allocs(), 0u);
}

TEST(WaterfillFastpath, ForceFallbackRoutesOntoRationalEngine) {
  const ClosNetwork net = ClosNetwork::paper(3);
  const FlowSet flows = random_flows(net, 6, 11);
  WaterfillWorkspace workspace;
  workspace.bind(net, flows);
  workspace.set_force_fallback(true);
  Rng rng(8);
  (void)workspace.max_min_rates(random_assignment(3, flows.size(), rng));
  EXPECT_FALSE(workspace.last_call_was_fast());
}

TEST(WaterfillFastpath, DifferentialRandomClosInstances) {
  // Randomized sweep over fabric sizes, flow counts, and candidates: every
  // engine must agree exactly on every instance.
  for (const auto& [n, num_flows, seed] :
       {std::tuple{2, 4, 1u}, std::tuple{3, 6, 2u}, std::tuple{4, 8, 3u},
        std::tuple{4, 12, 4u}, std::tuple{5, 10, 5u}, std::tuple{6, 9, 6u}}) {
    const ClosNetwork net = ClosNetwork::paper(n);
    const FlowSet flows = random_flows(net, static_cast<std::size_t>(num_flows), seed);
    WaterfillWorkspace fast;
    WaterfillWorkspace fallback;
    fast.bind(net, flows);
    fallback.bind(net, flows);
    fallback.set_force_fallback(true);
    ASSERT_TRUE(fast.fast_path_available());
    Rng rng(seed * 1000 + 17);
    for (int trial = 0; trial < 25; ++trial) {
      expect_all_engines_identical(net, flows, fast, fallback,
                                   random_assignment(n, flows.size(), rng));
    }
    EXPECT_EQ(fast.steady_state_allocs(), 0u);
    EXPECT_EQ(fallback.steady_state_allocs(), 0u);
  }
}

TEST(WaterfillFastpath, DifferentialFractionalCapacities) {
  // Non-integer uniform capacity: the common denominator is no longer 1.
  const ClosNetwork net = ClosNetwork(
      ClosNetwork::Params{3, 4, 2, Rational{2, 3}});
  const FlowSet flows = random_flows(net, 7, 23);
  WaterfillWorkspace fast;
  WaterfillWorkspace fallback;
  fast.bind(net, flows);
  fallback.bind(net, flows);
  fallback.set_force_fallback(true);
  ASSERT_TRUE(fast.fast_path_available());
  Rng rng(29);
  for (int trial = 0; trial < 25; ++trial) {
    expect_all_engines_identical(net, flows, fast, fallback,
                                 random_assignment(3, flows.size(), rng));
  }
}

TEST(WaterfillFastpath, DifferentialDeratedFabric) {
  // Capacities produced by the fault layer: mixed denominators from
  // deration factors, some dead links, one degraded pod. The fast path must
  // agree with the exact engines on the degraded fabric, and the fast
  // result must still satisfy the bottleneck property (Lemma 2.2) on it.
  ClosNetwork net = ClosNetwork::paper(4);
  fault::FailureScenario scenario;
  scenario.failed_middles = {2};
  scenario.derated_links = {
      fault::LinkDeration{fault::LinkStage::kUplink, 1, 1, Rational{1, 3}},
      fault::LinkDeration{fault::LinkStage::kDownlink, 3, 3, Rational{5, 7}},
      fault::LinkDeration{fault::LinkStage::kUplink, 2, 4, Rational{0}},
  };
  scenario.degraded_pods = {fault::PodDegradation{4, Rational{9, 11}}};
  fault::apply(net, scenario);

  const FlowSet flows = random_flows(net, 8, 31);
  WaterfillWorkspace fast;
  WaterfillWorkspace fallback;
  fast.bind(net, flows);
  fallback.bind(net, flows);
  fallback.set_force_fallback(true);
  ASSERT_TRUE(fast.fast_path_available());
  Rng rng(37);
  for (int trial = 0; trial < 25; ++trial) {
    const MiddleAssignment middles = random_assignment(4, flows.size(), rng);
    expect_all_engines_identical(net, flows, fast, fallback, middles);
    const Routing routing = expand_routing(net, flows, middles);
    const Allocation<Rational> alloc{fast.max_min_rates(middles)};
    EXPECT_TRUE(is_max_min_fair(net.topology(), routing, alloc));
  }
}

TEST(WaterfillFastpath, ServerLinkModeMatchesTheMacroSwitch) {
  // bind_server_links fills over the macro-switch's server links without
  // building it: single- and multi-word flow sets, fractional capacities,
  // and both engines, against the generic engine on the built MacroSwitch.
  for (const auto& [tors, servers, capacity, count] :
       {std::tuple{4, 2, Rational{1}, std::size_t{0}},
        std::tuple{4, 2, Rational{1}, std::size_t{9}},
        std::tuple{6, 3, Rational{2, 3}, std::size_t{40}},
        std::tuple{8, 6, Rational{5, 4}, std::size_t{150}},
        std::tuple{10, 10, Rational{1}, std::size_t{260}}}) {
    const MacroSwitch::Params params{tors, servers, capacity};
    const MacroSwitch ms(params);
    Rng rng(count + 3);
    const FlowCollection specs = uniform_random(Fabric{tors, servers}, count, rng);
    const Allocation<Rational> reference = max_min_fair<Rational>(ms, instantiate(ms, specs));
    for (const bool force : {false, true}) {
      WaterfillWorkspace workspace;
      workspace.bind_server_links(params, specs);
      workspace.set_force_fallback(force);
      ASSERT_TRUE(workspace.fast_path_available());
      for (int rep = 0; rep < 2; ++rep) {
        EXPECT_EQ(workspace.max_min_rates({}), reference.rates()) << count << " flows";
        EXPECT_EQ(workspace.last_call_was_fast(), !force);
      }
      EXPECT_EQ(workspace.steady_state_allocs(), 0u);
      EXPECT_THROW((void)workspace.max_min_rates(MiddleAssignment(count + 1, 1)),
                   ContractViolation);
    }
  }
}

TEST(WaterfillFastpath, BindLevelOverflowFallsBackToRational) {
  // The workspace's common denominator is the lcm over ALL links, so four
  // distinct ~2^31-scale prime denominators on the uplinks of ToRs 3 and 4
  // kill the fast path at bind time (p1*p2 fits int64, *p3 does not). The
  // flows all originate at ToRs 1 and 2, so no candidate ever touches a
  // poisoned link: the Rational engines only meet unit capacities and every
  // call must still succeed, on the fallback.
  ClosNetwork net = ClosNetwork::paper(2);
  const std::int64_t primes[] = {2147483647, 2147483629, 2147483587, 2147483579};
  int next = 0;
  for (int i : {3, 4}) {
    for (int m = 1; m <= net.num_middles(); ++m) {
      net.set_uplink_capacity(i, m, Rational{1, primes[next++]});
    }
  }
  const FlowSet flows = instantiate(
      net, {FlowSpec{1, 1, 3, 1}, FlowSpec{1, 2, 3, 2}, FlowSpec{2, 1, 4, 1},
            FlowSpec{2, 2, 4, 2}, FlowSpec{1, 1, 2, 1}});
  WaterfillWorkspace workspace;
  workspace.bind(net, flows);
  EXPECT_FALSE(workspace.fast_path_available());
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    const MiddleAssignment middles = random_assignment(2, flows.size(), rng);
    const std::vector<Rational>& rates = workspace.max_min_rates(middles);
    EXPECT_FALSE(workspace.last_call_was_fast());
    const Allocation<Rational> reference = max_min_fair<Rational>(net, flows, middles);
    for (FlowIndex f = 0; f < flows.size(); ++f) {
      EXPECT_EQ(rates[f], reference.rate(f));
    }
  }
}

TEST(WaterfillFastpath, MidRoundOverflowFallsBackToRational) {
  // Adversarial mid-round overflow with all-unit capacities: 16 flow groups
  // of distinct *prime* sizes, each group alone on its own uplink. Groups
  // freeze largest-first (share 1/53 < 1/47 < ...), and every round
  // multiplies the fast path's running denominator by the freezing group's
  // prime, so the denominator marches through 53*47*43*... and overflows
  // int64 around the 15th round. The state is irreducible (frozen rate
  // numerators den/k_g over distinct primes have gcd 1 with the
  // denominator), so the gcd-reduction retry cannot rescue it and the call
  // must transparently complete on the Rational engine — whose own
  // intermediates telescope to tiny pairwise denominators (every rate is
  // exactly 1/k_g). This is exactly the regime where the fast path's single
  // global denominator loses to per-value normalization.
  const int primes[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53};
  const int n = 16;
  int total = 0;
  for (int p : primes) total += p;  // 381 flows

  ClosNetwork net = ClosNetwork(ClosNetwork::Params{n, 2, total, Rational{1}});
  FlowCollection specs;
  MiddleAssignment middles;
  int src = 0;
  for (int g = 0; g < n; ++g) {
    for (int i = 0; i < primes[g]; ++i) {
      specs.push_back(FlowSpec{1, src + 1, src % 2 + 1, src / 2 + 1});
      middles.push_back(g + 1);
      ++src;
    }
  }
  const FlowSet flows = instantiate(net, specs);
  WaterfillWorkspace workspace;
  workspace.bind(net, flows);
  ASSERT_TRUE(workspace.fast_path_available());

  const std::vector<Rational>& rates = workspace.max_min_rates(middles);
  EXPECT_FALSE(workspace.last_call_was_fast());

  std::size_t f = 0;
  for (int g = 0; g < n; ++g) {
    for (int i = 0; i < primes[g]; ++i, ++f) {
      EXPECT_EQ(rates[f], Rational(1, primes[g]));
    }
  }
  const Allocation<Rational> reference = max_min_fair<Rational>(net, flows, middles);
  for (FlowIndex fl = 0; fl < flows.size(); ++fl) {
    EXPECT_EQ(rates[fl].num(), reference.rate(fl).num());
    EXPECT_EQ(rates[fl].den(), reference.rate(fl).den());
  }
}

TEST(WaterfillFastpath, EngineSplitCountersAreConsistent) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "CLOSFAIR_OBS=OFF";
  obs::Registry::instance().reset();
  const ClosNetwork net = ClosNetwork::paper(3);
  const FlowSet flows = random_flows(net, 6, 53);
  WaterfillWorkspace workspace;
  workspace.bind(net, flows);
  Rng rng(59);
  for (int trial = 0; trial < 10; ++trial) {
    (void)workspace.max_min_rates(random_assignment(3, flows.size(), rng));
  }
  workspace.set_force_fallback(true);
  for (int trial = 0; trial < 4; ++trial) {
    (void)workspace.max_min_rates(random_assignment(3, flows.size(), rng));
  }
  auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("waterfill.fast_calls").total(), 10u);
  EXPECT_EQ(reg.counter("waterfill.fallback_calls").total(), 4u);
  EXPECT_EQ(reg.counter("waterfill.fast_calls").total() +
                reg.counter("waterfill.fallback_calls").total(),
            reg.counter("waterfill.calls").total());
}

TEST(WaterfillFastpath, SearchWithForcedFallbackMatchesFastSearch) {
  // End-to-end: the exhaustive lex search with force_waterfill_fallback must
  // return bit-identical results to the default fast-path search.
  const ClosNetwork net = ClosNetwork::paper(3);
  const FlowSet flows = random_flows(net, 6, 61);
  ExhaustiveOptions fast_opts;
  ExhaustiveOptions fallback_opts;
  fallback_opts.force_waterfill_fallback = true;
  const ExactRoutingResult fast = lex_max_min_exhaustive(net, flows, fast_opts);
  const ExactRoutingResult slow = lex_max_min_exhaustive(net, flows, fallback_opts);
  EXPECT_EQ(fast.middles, slow.middles);
  EXPECT_EQ(fast.alloc, slow.alloc);
  EXPECT_EQ(fast.waterfill_invocations, slow.waterfill_invocations);
}

}  // namespace
}  // namespace closfair
