// Relative max-min fairness (§7, discussion of R2) — the paper's proposed
// alternative routing objective, left open: ensure each flow's network rate
// is at least some constant fraction of its macro-switch rate, i.e. maximize
// (in lexicographic order) the sorted vector of per-flow ratios
// a(f)/a^MmF_MS(f).
//
// Whether relative max-min fairness can closely implement the macro-switch
// abstraction is an open question; this module contributes the two tools an
// investigation needs: a hill-climbing heuristic over routings, and an exact
// exhaustive optimizer for small instances. Both are the lexicographic
// max-min tools run on the ratio key instead of the rate key: the heuristic
// is lex_max_min_multistart's restart loop and climber
// (routing/local_search.hpp), the optimizer lex_max_min_exhaustive's
// SearchEngine run (routing/search_engine.hpp), with its symmetry reduction
// and its surviving-middle pool on degraded fabrics.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/allocation.hpp"
#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/clos.hpp"
#include "util/rng.hpp"

namespace closfair {

struct RelativeMaxMinResult {
  MiddleAssignment middles;
  Allocation<Rational> alloc;         ///< max-min fair allocation for `middles`
  std::vector<Rational> ratios;       ///< sorted a(f) / macro_rate(f), ascending
  Rational worst_ratio{0};            ///< ratios.front() (1 means full replication)
};

/// Hill-climbing heuristic with `restarts` climbs (all-ones start, then
/// ecmp_routing draws from `rng`): accepts single-flow moves that
/// lexicographically improve the sorted ratio vector, never onto a dead
/// middle, and keeps the first best climb. Macro rates must be strictly
/// positive (a zero-rate flow has no meaningful ratio).
[[nodiscard]] RelativeMaxMinResult relative_max_min_search(
    const ClosNetwork& net, const FlowSet& flows, const std::vector<Rational>& macro_rates,
    Rng& rng, std::size_t restarts = 4, std::size_t max_moves = 10'000);

/// Exact optimum by enumeration (exponential; guarded by max_routings, which
/// bounds the canonical candidates water-filled). Among tied optima the
/// witness is the earliest canonical routing in SearchEngine's enumeration
/// order — the same rule lex_max_min_exhaustive uses.
[[nodiscard]] RelativeMaxMinResult relative_max_min_exhaustive(
    const ClosNetwork& net, const FlowSet& flows, const std::vector<Rational>& macro_rates,
    std::uint64_t max_routings = 50'000'000);

}  // namespace closfair
