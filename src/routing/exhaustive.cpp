#include "routing/exhaustive.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "routing/search_engine.hpp"

namespace closfair {
namespace {

// Per-worker state of the lex search (sorted rates or sorted ratios).
// `scratch` is the reused sort buffer, so steady-state candidates allocate
// nothing.
struct LexLocal {
  bool have = false;
  MiddleAssignment middles;
  std::vector<Rational> rates;
  std::vector<Rational> sorted;
  SearchOrder order;
  std::vector<Rational> scratch;
};

// Per-worker state of the throughput-max-min search.
struct TputLocal {
  bool have = false;
  Rational throughput{0};
  MiddleAssignment middles;
  std::vector<Rational> rates;
  std::vector<Rational> sorted;
  SearchOrder order;
  std::vector<Rational> scratch;
};

// Per-worker state of the frontier sweep: per throughput value seen, the
// best (min rate, earliest order) candidate. Keyed on the hashable Rational
// so dedup is O(1) per candidate instead of a linear scan.
struct FrontierCandidate {
  Rational min_rate{0};
  MiddleAssignment middles;
  SearchOrder order;
};
struct FrontierLocal {
  std::unordered_map<Rational, FrontierCandidate> by_throughput;
};

}  // namespace

ExactRoutingResult lex_key_exhaustive(const ClosNetwork& net, const FlowSet& flows,
                                      const ExhaustiveOptions& options,
                                      const std::vector<Rational>* divisors) {
  const SearchEngine engine(net, flows, options);
  std::vector<LexLocal> locals(engine.num_workers());
  const SearchStats stats = engine.run(
      locals, [&options, divisors](LexLocal& local, const MiddleAssignment& middles,
                                   const std::vector<Rational>& rates, SearchOrder order) {
        sorted_key(rates, divisors, local.scratch);
        if (!local.have ||
            lex_compare(local.scratch, local.sorted) == std::strong_ordering::greater) {
          local.have = true;
          local.middles = middles;
          local.rates.assign(rates.begin(), rates.end());
          local.sorted.swap(local.scratch);
          local.order = order;
          OBS_COUNTER_INC("search.lex_improvements");
          if (options.stop_at_sorted &&
              lex_compare(local.sorted, *options.stop_at_sorted) !=
                  std::strong_ordering::less) {
            OBS_COUNTER_INC("search.lex_early_stops");
            return false;  // provably optimal
          }
        }
        return true;
      });

  // Deterministic merge: greatest sorted key, ties broken by earliest
  // enumeration order — the candidate a serial scan would have kept.
  OBS_SPAN("search.merge");
  LexLocal* best = nullptr;
  for (LexLocal& local : locals) {
    if (!local.have) continue;
    if (best == nullptr) {
      best = &local;
      continue;
    }
    const auto cmp = lex_compare(local.sorted, best->sorted);
    if (cmp == std::strong_ordering::greater ||
        (cmp == std::strong_ordering::equal && local.order < best->order)) {
      best = &local;
    }
  }
  CF_CHECK_MSG(best != nullptr, "empty flow collection has no lex-max-min routing");

  ExactRoutingResult result;
  result.middles = std::move(best->middles);
  result.alloc = Allocation<Rational>(std::move(best->rates));
  result.routings_evaluated = stats.routings_covered;
  result.waterfill_invocations = stats.waterfill_invocations;
  return result;
}

ExactRoutingResult lex_max_min_exhaustive(const ClosNetwork& net, const FlowSet& flows,
                                          const ExhaustiveOptions& options) {
  return lex_key_exhaustive(net, flows, options, nullptr);
}

ExactRoutingResult throughput_max_min_exhaustive(const ClosNetwork& net,
                                                 const FlowSet& flows,
                                                 const ExhaustiveOptions& options) {
  const SearchEngine engine(net, flows, options);
  const Rational bound = options.prune_throughput_bound
                             ? throughput_capacity_bound(net, flows)
                             : Rational{0};
  std::vector<TputLocal> locals(engine.num_workers());
  const SearchStats stats = engine.run(
      locals, [&options, &bound](TputLocal& local, const MiddleAssignment& middles,
                                 const std::vector<Rational>& rates, SearchOrder order) {
        Rational throughput{0};
        for (const Rational& r : rates) throughput += r;
        bool take = !local.have || local.throughput < throughput;
        if (!take && local.have && throughput == local.throughput) {
          sorted_key(rates, nullptr, local.scratch);
          take = lex_compare(local.scratch, local.sorted) == std::strong_ordering::greater;
          if (take) {
            local.middles = middles;
            local.rates.assign(rates.begin(), rates.end());
            local.sorted.swap(local.scratch);
            local.order = order;
          }
          return true;
        }
        if (take) {
          local.have = true;
          local.throughput = throughput;
          local.middles = middles;
          local.rates.assign(rates.begin(), rates.end());
          sorted_key(rates, nullptr, local.scratch);
          local.sorted.swap(local.scratch);
          local.order = order;
          // Sum-of-capacities prune: nothing can beat the bound, so attaining
          // it proves throughput optimality (the lex tie-break then settles
          // for this witness).
          if (options.prune_throughput_bound && throughput == bound) {
            OBS_COUNTER_INC("search.prune_bound_hits");
            return false;
          }
        }
        return true;
      });

  // Deterministic merge: highest throughput, then greatest sorted vector,
  // then earliest enumeration order.
  OBS_SPAN("search.merge");
  TputLocal* best = nullptr;
  for (TputLocal& local : locals) {
    if (!local.have) continue;
    if (best == nullptr) {
      best = &local;
      continue;
    }
    bool take = best->throughput < local.throughput;
    if (!take && local.throughput == best->throughput) {
      const auto cmp = lex_compare(local.sorted, best->sorted);
      take = cmp == std::strong_ordering::greater ||
             (cmp == std::strong_ordering::equal && local.order < best->order);
    }
    if (take) best = &local;
  }
  CF_CHECK_MSG(best != nullptr, "empty flow collection has no throughput-max-min routing");

  ExactRoutingResult result;
  result.middles = std::move(best->middles);
  result.alloc = Allocation<Rational>(std::move(best->rates));
  result.routings_evaluated = stats.routings_covered;
  result.waterfill_invocations = stats.waterfill_invocations;
  return result;
}

std::vector<ParetoPoint> throughput_fairness_frontier(const ClosNetwork& net,
                                                      const FlowSet& flows,
                                                      const ExhaustiveOptions& options) {
  const SearchEngine engine(net, flows, options);
  std::vector<FrontierLocal> locals(engine.num_workers());
  engine.run(locals, [](FrontierLocal& local, const MiddleAssignment& middles,
                        const std::vector<Rational>& rates, SearchOrder order) {
    Rational throughput{0};
    bool first = true;
    Rational min_rate{0};
    for (const Rational& r : rates) {
      throughput += r;
      if (first || r < min_rate) min_rate = r;
      first = false;
    }
    auto [it, inserted] =
        local.by_throughput.try_emplace(throughput, FrontierCandidate{min_rate, middles, order});
    if (!inserted && (it->second.min_rate < min_rate ||
                      (it->second.min_rate == min_rate && order < it->second.order))) {
      it->second = FrontierCandidate{min_rate, middles, order};
    }
    return true;
  });

  // Merge the per-worker candidate maps with the same (min rate, order) rule.
  OBS_SPAN("search.merge");
  std::unordered_map<Rational, FrontierCandidate> merged;
  for (FrontierLocal& local : locals) {
    for (auto& [throughput, cand] : local.by_throughput) {
      auto [it, inserted] = merged.try_emplace(throughput, cand);
      if (!inserted && (it->second.min_rate < cand.min_rate ||
                        (it->second.min_rate == cand.min_rate &&
                         cand.order < it->second.order))) {
        it->second = cand;
      }
    }
  }

  std::vector<ParetoPoint> candidates;
  candidates.reserve(merged.size());
  for (auto& [throughput, cand] : merged) {
    candidates.push_back(ParetoPoint{throughput, cand.min_rate, std::move(cand.middles)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              return a.throughput < b.throughput;
            });
  // Sweep from the high-throughput end: keep points whose min rate strictly
  // exceeds everything to their right.
  std::vector<ParetoPoint> frontier;
  Rational best_min{-1};
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    if (best_min < it->min_rate) {
      best_min = it->min_rate;
      frontier.push_back(std::move(*it));
    }
  }
  std::reverse(frontier.begin(), frontier.end());
  return frontier;
}

}  // namespace closfair
