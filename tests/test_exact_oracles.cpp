// Seeded differential check of the exact oracles behind Definition 2.1 and
// Lemma 2.2 on generated cells: the generic Rational water-fill, the
// workspace fast path and its forced fallback, the iterative max-min LP, the
// weighted water-fill against the weighted LP, and both bottleneck
// certifiers. An FNV-1a digest of every rate (and, with observability on,
// the totals of the LP work counters) is pinned, so a refactor of any
// oracle that changes one rate or one LP pivot fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fairness/bottleneck.hpp"
#include "fairness/waterfill.hpp"
#include "fairness/weighted.hpp"
#include "fault/fault.hpp"
#include "flow/routing.hpp"
#include "lp/maxmin_lp.hpp"
#include "net/fattree.hpp"
#include "net/macroswitch.hpp"
#include "obs/obs.hpp"
#include "routing/generic.hpp"
#include "util/rng.hpp"
#include "workload/stochastic.hpp"

namespace closfair {
namespace {

constexpr int kCells = 300;

struct Digest {
  std::uint64_t hash = 14695981039346656037ULL;

  void add(const std::string& bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  }
  void add(const std::vector<Rational>& rates) {
    for (const Rational& r : rates) add(r.to_string() + ' ');
    add("\n");
  }
};

// One generated cell: a topology, its flows and one routing of them.
struct Cell {
  std::string kind;
  std::optional<ClosNetwork> net;  ///< set on Clos cells
  MiddleAssignment middles;        ///< Clos cells only
  Topology topo;
  FlowSet flows;
  Routing routing;
};

fault::FailureScenario degradation(int kind, int n, Rng& rng) {
  fault::FailureScenario scenario;
  const auto pick = [&rng](int hi) { return static_cast<int>(rng.next_int(1, hi)); };
  if (kind == 1) {
    scenario.failed_middles.push_back(pick(n));
  } else {
    const fault::LinkStage stage =
        rng.next_int(0, 1) == 0 ? fault::LinkStage::kUplink : fault::LinkStage::kDownlink;
    const Rational factor = kind == 2 ? Rational{pick(3), 4} : Rational{0};
    scenario.derated_links.push_back(fault::LinkDeration{stage, pick(2 * n), pick(n), factor});
  }
  return scenario;
}

// Cell i: kind i % 6 (pristine Clos; a failed middle; a fractional derated
// link; a zero derated link; a macro-switch; fat-tree k=4), n = 2..5, and
// 2..10 flows with a uniformly random routing.
Cell make_cell(int i) {
  Rng rng(0xC0FFEEULL + static_cast<std::uint64_t>(i));
  const int kind = i % 6;
  const int n = 2 + (i / 6) % 4;
  const auto num_flows = static_cast<std::size_t>(rng.next_int(2, 10));
  Cell cell;
  if (kind == 5) {
    const FatTree ft(4);
    const FlowCollection specs =
        uniform_random(Fabric{ft.num_edge_switches(), ft.servers_per_edge()}, num_flows, rng);
    cell.kind = "fattree";
    cell.topo = ft.topology();
    cell.flows = instantiate(ft, specs);
    cell.routing = ecmp_paths(candidate_paths(ft, cell.flows), rng);
    return cell;
  }
  const FlowCollection specs = uniform_random(Fabric{2 * n, n}, num_flows, rng);
  if (kind == 4) {
    const MacroSwitch ms = MacroSwitch::paper(n);
    cell.kind = "macro";
    cell.topo = ms.topology();
    cell.flows = instantiate(ms, specs);
    cell.routing = macro_routing(ms, cell.flows);
    return cell;
  }
  ClosNetwork net = ClosNetwork::paper(n);
  if (kind != 0) fault::apply(net, degradation(kind, n, rng));
  cell.kind = kind == 0 ? "clos" : "degraded";
  cell.flows = instantiate(net, specs);
  cell.middles.resize(num_flows);
  for (int& m : cell.middles) m = static_cast<int>(rng.next_int(1, n));
  cell.routing = expand_routing(net, cell.flows, cell.middles);
  cell.topo = net.topology();
  cell.net = std::move(net);
  return cell;
}

std::vector<Rational> random_weights(std::size_t count, Rng& rng) {
  std::vector<Rational> weights;
  for (std::size_t f = 0; f < count; ++f) {
    weights.emplace_back(rng.next_int(1, 6), rng.next_int(1, 3));
  }
  return weights;
}

// A copy of `alloc` with one rate changed: no longer max-min fair under the
// same routing. Lowering a positive rate unsaturates every link of that
// flow, so it loses its bottleneck; raising a rate overloads its bottleneck.
Allocation<Rational> perturbed(const Allocation<Rational>& alloc) {
  Allocation<Rational> changed = alloc;
  for (FlowIndex f = 0; f < alloc.size(); ++f) {
    if (Rational{0} < alloc.rate(f)) {
      changed.set_rate(f, alloc.rate(f) / Rational{2});
      return changed;
    }
  }
  changed.set_rate(0, alloc.rate(0) + Rational{1, 7});
  return changed;
}

std::uint64_t counter(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(ExactOracles, GeneratedCellsAgreeAndMatchPinnedDigest) {
  const std::vector<std::string> lp_counters = {
      "lp.solves",           "lp.pivots",          "lp.degenerate_pivots",
      "lp.maxmin.level_lps", "lp.maxmin.improve_lps", "lp.maxmin.flows_frozen"};
  const obs::MetricsSnapshot before = obs::Registry::instance().snapshot();

  Digest digest;
  int clos_cells = 0;
  for (int i = 0; i < kCells; ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const Cell cell = make_cell(i);
    const Allocation<Rational> reference =
        max_min_fair<Rational>(cell.topo, cell.flows, cell.routing);
    EXPECT_EQ(max_min_fair_lp<Rational>(cell.topo, cell.flows, cell.routing).rates(),
              reference.rates());
    if (cell.net.has_value()) {
      ++clos_cells;
      WaterfillWorkspace fast;
      WaterfillWorkspace fallback;
      fast.bind(*cell.net, cell.flows);
      fallback.bind(*cell.net, cell.flows);
      fallback.set_force_fallback(true);
      EXPECT_EQ(fast.max_min_rates(cell.middles), reference.rates());
      EXPECT_EQ(fallback.max_min_rates(cell.middles), reference.rates());
    }
    EXPECT_TRUE(is_max_min_fair(cell.topo, cell.routing, reference));
    EXPECT_FALSE(is_max_min_fair(cell.topo, cell.routing, perturbed(reference)));

    Rng weight_rng(0x5EEDULL + static_cast<std::uint64_t>(i));
    const std::vector<Rational> weights = random_weights(cell.flows.size(), weight_rng);
    const Allocation<Rational> weighted =
        weighted_max_min_fair<Rational>(cell.topo, cell.flows, cell.routing, weights);
    EXPECT_EQ(weighted_max_min_fair_lp(cell.topo, cell.flows, cell.routing, weights).rates(),
              weighted.rates());
    EXPECT_TRUE(is_weighted_max_min_fair(cell.topo, cell.routing, weighted, weights));
    EXPECT_FALSE(
        is_weighted_max_min_fair(cell.topo, cell.routing, perturbed(weighted), weights));

    digest.add(cell.kind);
    digest.add(reference.rates());
    digest.add(weighted.rates());
  }
  EXPECT_EQ(clos_cells, 200);
  EXPECT_EQ(digest.hash, 0x0e279c5d75bb0130ULL) << std::hex << digest.hash;

  if constexpr (obs::kEnabled) {
    const obs::MetricsSnapshot after = obs::Registry::instance().snapshot();
    std::string totals;
    for (const std::string& name : lp_counters) {
      totals += name + '=' + std::to_string(counter(after, name) - counter(before, name)) + ' ';
    }
    EXPECT_EQ(totals,
              "lp.solves=8440 lp.pivots=14787 lp.degenerate_pivots=9879 "
              "lp.maxmin.level_lps=1709 lp.maxmin.improve_lps=6731 "
              "lp.maxmin.flows_frozen=3430 ");
  }
}

}  // namespace
}  // namespace closfair
