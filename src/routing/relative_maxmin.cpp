#include "routing/relative_maxmin.hpp"

#include "routing/exhaustive.hpp"
#include "routing/local_search.hpp"

namespace closfair {
namespace {

void check_macro_rates(const FlowSet& flows, const std::vector<Rational>& macro_rates) {
  CF_CHECK_MSG(macro_rates.size() == flows.size(),
               "macro rates cover " << macro_rates.size() << " flows, expected "
                                    << flows.size());
  for (const Rational& r : macro_rates) {
    CF_CHECK_MSG(Rational{0} < r, "relative max-min needs strictly positive macro rates");
  }
}

RelativeMaxMinResult package(MiddleAssignment middles, Allocation<Rational> alloc,
                             const std::vector<Rational>& macro_rates) {
  RelativeMaxMinResult result;
  sorted_key(alloc.rates(), &macro_rates, result.ratios);
  result.worst_ratio = result.ratios.empty() ? Rational{0} : result.ratios.front();
  result.middles = std::move(middles);
  result.alloc = std::move(alloc);
  return result;
}

}  // namespace

RelativeMaxMinResult relative_max_min_search(const ClosNetwork& net, const FlowSet& flows,
                                             const std::vector<Rational>& macro_rates,
                                             Rng& rng, std::size_t restarts,
                                             std::size_t max_moves) {
  check_macro_rates(flows, macro_rates);
  LexSearchResult best = lex_key_multistart(net, flows, rng, restarts,
                                            LocalSearchOptions{max_moves}, &macro_rates);
  return package(std::move(best.middles), std::move(best.alloc), macro_rates);
}

RelativeMaxMinResult relative_max_min_exhaustive(const ClosNetwork& net, const FlowSet& flows,
                                                 const std::vector<Rational>& macro_rates,
                                                 std::uint64_t max_routings) {
  check_macro_rates(flows, macro_rates);
  ExhaustiveOptions options;
  options.max_routings = max_routings;
  ExactRoutingResult best = lex_key_exhaustive(net, flows, options, &macro_rates);
  return package(std::move(best.middles), std::move(best.alloc), macro_rates);
}

}  // namespace closfair
