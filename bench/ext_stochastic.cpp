// E6 — extended-version stochastic evaluation (§6): on stochastic inputs,
// congestion-aware routing approximates the macro-switch rates well.
//
// For each workload x routing algorithm: the worst and mean per-flow rate
// ratio (Clos max-min rate / macro-switch max-min rate) and the throughput
// ratio, averaged over seeds. ECMP, greedy (macro demands), congestion local
// search, and the lex hill-climbing heuristic are compared.
//
// Every cell is issued as a declarative ScenarioSpec evaluated by
// closfair::svc (evaluate_scenario) — the numbers are identical to driving
// the routing stack directly, because seedless seeded policies continue the
// workload generator's Rng stream exactly as this bench historically did.
#include <algorithm>
#include <iostream>
#include <vector>

#include "svc/service.hpp"
#include "util/table.hpp"

using namespace closfair;

namespace {

struct Workload {
  const char* name;
  int kind;  // 0 uniform, 1 permutation, 2 zipf, 3 hotspot
};

struct Algo {
  const char* name;
  int kind;  // 0 ecmp, 1 greedy, 2 local search, 3 lex climb
};

svc::ScenarioSpec make_cell(const Workload& wl, const Algo& algo, int n, int seed) {
  svc::ScenarioSpec spec;
  spec.topology.kind = "clos";
  spec.topology.params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
  spec.workload.seed = static_cast<std::uint64_t>(seed) * 1009 + wl.kind * 31 + 7;
  switch (wl.kind) {
    case 0:
      spec.workload.generator = "uniform";
      spec.workload.count = 64;
      break;
    case 1:
      spec.workload.generator = "permutation";
      break;
    case 2:
      spec.workload.generator = "zipf";
      spec.workload.count = 64;
      spec.workload.skew = 1.1;
      break;
    default:
      spec.workload.generator = "hotspot";
      spec.workload.count = 64;
      spec.workload.hot_tor = 1;
      spec.workload.hot_fraction = 0.5;
      break;
  }
  switch (algo.kind) {
    case 0:
      spec.routing.policy = "ecmp";  // no seed: continues the workload stream
      break;
    case 1:
      spec.routing.policy = "greedy";
      break;
    case 2:
      spec.routing.policy = "local_search";
      break;
    default:
      spec.routing.policy = "lex_climb";
      spec.routing.max_moves = 400;
      break;
  }
  return spec;
}

}  // namespace

int main() {
  std::cout << "=== E6: stochastic inputs — Clos rates vs macro-switch rates ===\n";
  std::cout << "(C_4: 8 ToRs x 4 servers, 5 seeds per cell, via closfair::svc)\n\n";

  const int n = 4;
  const int seeds = 5;
  const Workload workloads[] = {{"uniform-64", 0}, {"permutation", 1},
                                {"zipf1.1-64", 2}, {"hotspot50-64", 3}};
  const Algo algos[] = {{"ecmp", 0}, {"greedy", 1}, {"local-search", 2}, {"lex-climb", 3}};

  TextTable table({"workload", "algorithm", "min rate ratio", "mean rate ratio",
                   "throughput ratio"});
  for (const auto& wl : workloads) {
    for (const auto& algo : algos) {
      double min_ratio = 1.0;
      double sum_mean = 0.0;
      double sum_tput = 0.0;
      for (int seed = 0; seed < seeds; ++seed) {
        svc::ScenarioResult r;
        try {
          r = svc::evaluate_scenario(make_cell(wl, algo, n, seed));
        } catch (const std::exception& e) {
          std::cerr << "cell failed: " << e.what() << '\n';
          return 1;
        }
        double worst = 1.0;
        double mean = 0.0;
        std::size_t counted = 0;
        for (std::size_t f = 0; f < r.num_flows; ++f) {
          if (r.macro_rates[f].is_zero()) continue;
          const double ratio = (r.rates[f] / r.macro_rates[f]).to_double();
          worst = std::min(worst, ratio);
          mean += ratio;
          ++counted;
        }
        min_ratio = std::min(min_ratio, worst);
        sum_mean += counted > 0 ? mean / static_cast<double>(counted) : 1.0;
        sum_tput += (r.throughput / r.macro_throughput).to_double();
      }
      table.add_row({wl.name, algo.name, fmt_double(min_ratio, 3),
                     fmt_double(sum_mean / seeds, 3), fmt_double(sum_tput / seeds, 3)});
    }
  }
  std::cout << table << '\n';

  std::cout << "paper shape (§6): algorithms that borrow macro-switch rates and route\n"
               "by path congestion (greedy/local-search) track the macro rates closely\n"
               "on stochastic inputs; ECMP trails; nothing collapses to the 1/n worst\n"
               "case seen in E7.\n";
  return 0;
}
