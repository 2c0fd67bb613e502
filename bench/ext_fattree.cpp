// E12 (extension) — do the paper's Clos results carry to deployed fat-trees?
//
// A k-ary fat-tree is the folded multi-stage Clos of real data centers
// (Al-Fares et al. [2]). This bench ports the evaluation to FatTree(k):
// stochastic workloads under generic-path ECMP / greedy / local-search vs
// the fat-tree's macro-switch, plus the Theorem 3.4 gadget (R1 is
// topology-independent, so its price of fairness must appear verbatim).
#include <iostream>

#include "core/metrics.hpp"
#include "fairness/waterfill.hpp"
#include "net/fattree.hpp"
#include "net/macroswitch.hpp"
#include "routing/generic.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/stochastic.hpp"

using namespace closfair;

int main() {
  const int k = 4;
  const FatTree ft(k);
  const int tors = ft.num_edge_switches();
  const int servers = ft.servers_per_edge();
  const MacroSwitch ms(MacroSwitch::Params{tors, servers, Rational{1}});
  const Fabric fabric{tors, servers};

  std::cout << "=== E12: fat-tree (k = " << k << ", " << ft.num_servers()
            << " servers) vs its macro-switch ===\n\n";

  std::cout << "stochastic workloads (5 seeds per cell):\n";
  TextTable table({"workload", "algorithm", "min rate ratio", "mean rate ratio",
                   "tput ratio", "jain (fat-tree)"});
  struct Wl {
    const char* name;
    int kind;
  };
  struct Algo {
    const char* name;
    int kind;  // 0 ecmp, 1 greedy, 2 local-search
  };
  for (const Wl& wl : {Wl{"uniform-32", 0}, Wl{"permutation", 1}, Wl{"zipf1.1-32", 2}}) {
    for (const Algo& algo : {Algo{"ecmp", 0}, Algo{"greedy", 1}, Algo{"local-search", 2}}) {
      double min_ratio = 1.0;
      double mean_sum = 0.0;
      double tput_sum = 0.0;
      double jain_sum = 0.0;
      const int seeds = 5;
      for (int seed = 0; seed < seeds; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 307 + wl.kind * 13 + 5);
        FlowCollection specs;
        switch (wl.kind) {
          case 0: specs = uniform_random(fabric, 32, rng); break;
          case 1: specs = random_permutation(fabric, rng); break;
          default: specs = zipf_destinations(fabric, 32, 1.1, rng); break;
        }
        const FlowSet flows = instantiate(ft, specs);
        const auto macro = max_min_fair<Rational>(ms, instantiate(ms, specs));

        const PathCandidates candidates = candidate_paths(ft, flows);
        std::vector<double> demands;
        for (FlowIndex f = 0; f < flows.size(); ++f) {
          demands.push_back(macro.rate(f).to_double());
        }

        Routing routing;
        switch (algo.kind) {
          case 0: routing = ecmp_paths(candidates, rng); break;
          case 1: routing = greedy_paths(ft.topology(), candidates, demands); break;
          default:
            routing = congestion_local_search_paths(
                ft.topology(), candidates, demands,
                greedy_paths(ft.topology(), candidates, demands));
            break;
        }
        const auto alloc = max_min_fair<Rational>(ft.topology(), flows, routing);

        double worst = 1.0;
        double mean = 0.0;
        std::size_t counted = 0;
        for (FlowIndex f = 0; f < flows.size(); ++f) {
          if (macro.rate(f).is_zero()) continue;
          const double ratio = (alloc.rate(f) / macro.rate(f)).to_double();
          worst = std::min(worst, ratio);
          mean += ratio;
          ++counted;
        }
        min_ratio = std::min(min_ratio, worst);
        mean_sum += counted ? mean / static_cast<double>(counted) : 1.0;
        tput_sum += (alloc.throughput() / macro.throughput()).to_double();
        jain_sum += jain_index(alloc);
      }
      table.add_row({wl.name, algo.name, fmt_double(min_ratio, 3),
                     fmt_double(mean_sum / seeds, 3), fmt_double(tput_sum / seeds, 3),
                     fmt_double(jain_sum / seeds, 3)});
    }
  }
  std::cout << table << '\n';

  std::cout << "Theorem 3.4 gadget on the fat-tree (R1 is topology-independent):\n";
  {
    TextTable gadget({"k (type2 flows)", "T^MmF meas", "1 + 1/(k+1)", "T^MT", "ratio"});
    for (int kk : {1, 8, 64}) {
      // Gadget between two edge switches of different pods.
      FlowCollection specs = {FlowSpec{1, 1, 1, 1}, FlowSpec{3, 1, 3, 1}};
      for (int c = 0; c < kk; ++c) specs.push_back(FlowSpec{3, 1, 1, 1});
      const FlowSet flows = instantiate(ft, specs);
      const std::vector<double> unit(flows.size(), 1.0);
      const Routing routing = greedy_paths(ft.topology(), candidate_paths(ft, flows), unit);
      const auto alloc = max_min_fair<Rational>(ft.topology(), flows, routing);
      const Rational expected = Rational{1} + Rational{1, kk + 1};
      gadget.add_row({std::to_string(kk), alloc.throughput().to_string(),
                      expected.to_string(), "2",
                      fmt_double(alloc.throughput().to_double() / 2.0, 4)});
    }
    std::cout << gadget << '\n';
  }

  std::cout << "reading: the fat-tree behaves exactly like C_n through the macro lens —\n"
               "congestion-aware routing tracks the macro rates on stochastic loads, and\n"
               "R1's price of fairness (edge-link phenomenon) reproduces verbatim since\n"
               "it never involves the core.\n";
  return 0;
}
