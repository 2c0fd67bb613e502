// Fat-tree explorer: the paper's analysis applied to the deployed topology.
//
//   $ ./fattree_explorer [k] [workload: uniform|perm|zipf] [flows] [seed]
//
// Builds FatTree(k), routes a workload three ways (ECMP, greedy,
// local-search over the full equal-cost path sets), and scores each routing
// against the fat-tree's macro-switch on the paper's axes.
#include <cstdlib>
#include <iostream>
#include <string>

#include "arg_parse.hpp"
#include "core/metrics.hpp"
#include "fairness/waterfill.hpp"
#include "net/fattree.hpp"
#include "net/macroswitch.hpp"
#include "routing/generic.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/stochastic.hpp"

using namespace closfair;

int main(int argc, char** argv) {
  constexpr std::string_view kUsage =
      "fattree_explorer [k] [workload: uniform|perm|zipf] [flows] [seed]";
  using namespace closfair::examples;
  const int k = argc > 1 ? checked_int(argv[1], "k", 2, 16, kUsage) : 4;
  const std::string workload = argc > 2 ? argv[2] : "uniform";
  const std::size_t num_flows =
      argc > 3 ? checked_size(argv[3], "flows", 1'000'000, kUsage) : 32;
  const std::uint64_t seed = argc > 4 ? checked_u64(argv[4], "seed", kUsage) : 11;
  if (k < 2 || k % 2 != 0) {
    std::cerr << "fat-tree arity k must be even and >= 2\n";
    return 1;
  }

  const FatTree ft(k);
  const MacroSwitch ms(
      MacroSwitch::Params{ft.num_edge_switches(), ft.servers_per_edge(), Rational{1}});
  const Fabric fabric{ft.num_edge_switches(), ft.servers_per_edge()};
  std::cout << "FatTree(k=" << k << "): " << ft.num_servers() << " servers, "
            << ft.topology().num_links() << " links, up to "
            << (k / 2) * (k / 2) << " equal-cost paths per cross-pod pair\n\n";

  Rng rng(seed);
  FlowCollection specs;
  if (workload == "perm") {
    specs = random_permutation(fabric, rng);
  } else if (workload == "zipf") {
    specs = zipf_destinations(fabric, num_flows, 1.2, rng);
  } else {
    specs = uniform_random(fabric, num_flows, rng);
  }
  const FlowSet flows = instantiate(ft, specs);
  const auto macro = max_min_fair<Rational>(ms, instantiate(ms, specs));
  std::cout << "macro-switch T^MmF = " << macro.throughput() << " over " << flows.size()
            << " flows\n\n";

  const PathCandidates candidates = candidate_paths(ft, flows);
  std::vector<double> demands;
  for (FlowIndex f = 0; f < flows.size(); ++f) demands.push_back(macro.rate(f).to_double());

  TextTable table({"policy", "throughput", "tput ratio", "min rate ratio", "jain index"});
  auto score = [&](const std::string& name, const Routing& routing) {
    const auto alloc = max_min_fair<Rational>(ft.topology(), flows, routing);
    Rational worst{1};
    for (FlowIndex f = 0; f < flows.size(); ++f) {
      if (macro.rate(f).is_zero()) continue;
      worst = min(worst, alloc.rate(f) / macro.rate(f));
    }
    table.add_row({name, alloc.throughput().to_string(),
                   fmt_double((alloc.throughput() / macro.throughput()).to_double(), 3),
                   fmt_double(worst.to_double(), 3), fmt_double(jain_index(alloc), 3)});
  };

  score("ecmp", ecmp_paths(candidates, rng));
  const Routing greedy = greedy_paths(ft.topology(), candidates, demands);
  score("greedy", greedy);
  score("local-search",
        congestion_local_search_paths(ft.topology(), candidates, demands, greedy));
  std::cout << table << '\n';

  std::cout << "The macro-switch lens of §2 applies to any full-bisection fabric; a\n"
               "fat-tree is 'just' a folded Clos, so every impossibility result in the\n"
               "paper constrains it too.\n";
  return 0;
}
