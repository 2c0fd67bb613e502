#include "routing/local_search.hpp"

#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "routing/ecmp.hpp"
#include "routing/generic.hpp"

namespace closfair {

MiddleAssignment congestion_local_search(const ClosNetwork& net, const FlowSet& flows,
                                         const std::vector<double>& demands,
                                         MiddleAssignment start,
                                         const LocalSearchOptions& options) {
  return clos_middles(local_search_choice(net.topology(), candidate_paths(net, flows), demands,
                                          clos_choice(start), options.max_moves));
}

namespace {

// Per-flow usable-middle mask (flat |F| x n, 1 = usable) for degraded
// fabrics; empty when the fabric has no dead fabric link, in which case the
// climbers scan all middles exactly as before.
std::vector<char> usable_mask(const ClosNetwork& net, const FlowSet& flows) {
  if (!fault::has_dead_fabric_links(net)) return {};
  const std::size_t n = static_cast<std::size_t>(net.num_middles());
  std::vector<char> mask(flows.size() * n, 0);
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    const ClosNetwork::ServerCoord s = net.source_coord(flows[f].src);
    const ClosNetwork::ServerCoord t = net.dest_coord(flows[f].dst);
    for (int m = 1; m <= net.num_middles(); ++m) {
      mask[f * n + static_cast<std::size_t>(m - 1)] =
          fault::middle_usable(net, s.tor, t.tor, m) ? 1 : 0;
    }
  }
  return mask;
}

// Shared skeleton for the two exact hill climbers: `better(candidate,
// incumbent)` decides acceptance on (sorted rates, throughput).
template <typename Better>
LexSearchResult hill_climb(const ClosNetwork& net, const FlowSet& flows,
                           MiddleAssignment start, const LocalSearchOptions& options,
                           Better better) {
  CF_CHECK(start.size() == flows.size());
  Allocation<Rational> current = max_min_fair<Rational>(net, flows, start);
  const std::vector<char> usable = usable_mask(net, flows);
  const std::size_t num_middles = static_cast<std::size_t>(net.num_middles());
  std::size_t moves = 0;

  bool improved = true;
  while (improved && moves < options.max_moves) {
    improved = false;
    for (FlowIndex f = 0; f < flows.size() && moves < options.max_moves; ++f) {
      const int old_m = start[f];
      for (int m = 1; m <= net.num_middles(); ++m) {
        if (m == old_m) continue;
        // Skip dead middles: routing into one can only zero this flow's rate,
        // so the candidate is never a strict improvement — not evaluating it
        // saves a water-fill per dead middle per scan on degraded fabrics.
        if (!usable.empty() && !usable[f * num_middles + static_cast<std::size_t>(m - 1)]) {
          continue;
        }
        start[f] = m;
        Allocation<Rational> candidate = max_min_fair<Rational>(net, flows, start);
        if (better(candidate, current)) {
          current = std::move(candidate);
          ++moves;
          improved = true;
          break;
        }
        start[f] = old_m;
      }
    }
  }
  return LexSearchResult{std::move(start), std::move(current), moves};
}

}  // namespace

LexSearchResult lex_max_min_local_search(const ClosNetwork& net, const FlowSet& flows,
                                         MiddleAssignment start,
                                         const LocalSearchOptions& options) {
  return hill_climb(net, flows, std::move(start), options,
                    [](const Allocation<Rational>& cand, const Allocation<Rational>& cur) {
                      return lex_compare_sorted(cand, cur) == std::strong_ordering::greater;
                    });
}

LexSearchResult lex_max_min_multistart(const ClosNetwork& net, const FlowSet& flows,
                                       Rng& rng, std::size_t restarts,
                                       const LocalSearchOptions& options) {
  CF_CHECK(restarts >= 1);
  LexSearchResult best;
  bool have_best = false;
  for (std::size_t r = 0; r < restarts; ++r) {
    MiddleAssignment start =
        r == 0 ? MiddleAssignment(flows.size(), 1) : ecmp_routing(net, flows, rng);
    LexSearchResult result = lex_max_min_local_search(net, flows, std::move(start), options);
    if (!have_best ||
        lex_compare_sorted(result.alloc, best.alloc) == std::strong_ordering::greater) {
      best = std::move(result);
      have_best = true;
    }
  }
  return best;
}

LexSearchResult throughput_max_min_local_search(const ClosNetwork& net, const FlowSet& flows,
                                                MiddleAssignment start,
                                                const LocalSearchOptions& options) {
  return hill_climb(net, flows, std::move(start), options,
                    [](const Allocation<Rational>& cand, const Allocation<Rational>& cur) {
                      const Rational ct = cand.throughput();
                      const Rational it = cur.throughput();
                      if (it < ct) return true;
                      if (ct < it) return false;
                      return lex_compare_sorted(cand, cur) == std::strong_ordering::greater;
                    });
}

}  // namespace closfair
