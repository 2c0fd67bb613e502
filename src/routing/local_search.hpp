// Local-search routing (§6): starting from an initial assignment, repeatedly
// move single flows between middle switches while the move improves an
// objective. Two objectives are provided:
//
//  * congestion descent — minimize the maximum link congestion given demands
//    (the classic traffic-engineering objective the paper's related work
//    optimizes); a Clos adapter over the least-congested engine
//    (routing/generic.hpp), which holds the score and its dead-link rules;
//  * lexicographic max-min ascent — move flows while the *sorted vector of
//    the resulting max-min fair allocation* improves lexicographically; this
//    is a practical hill-climbing heuristic toward a lex-max-min fair
//    allocation (Definition 2.4), usable where exhaustive search
//    (routing/exhaustive.hpp) is out of reach.
#pragma once

#include <vector>

#include "flow/allocation.hpp"
#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/clos.hpp"
#include "util/rng.hpp"

namespace closfair {

struct LocalSearchOptions {
  /// Maximum single-flow moves before giving up on convergence.
  std::size_t max_moves = 10'000;
};

/// Congestion descent: returns a locally optimal assignment under "minimize
/// max link congestion, then total squared link load" for the given demands.
/// Flows are scanned in index order and middles ascending, and the first
/// improving move is taken; a flow never moves onto a middle whose path
/// crosses a dead link, and load on a dead link scores +inf congestion.
[[nodiscard]] MiddleAssignment congestion_local_search(const ClosNetwork& net,
                                                       const FlowSet& flows,
                                                       const std::vector<double>& demands,
                                                       MiddleAssignment start,
                                                       const LocalSearchOptions& options = {});

struct LexSearchResult {
  MiddleAssignment middles;
  Allocation<Rational> alloc;  ///< max-min fair allocation for `middles`
  std::size_t moves = 0;       ///< accepted moves
};

/// Lexicographic max-min hill climbing: accepts any single-flow move whose
/// max-min fair allocation is lexicographically greater. Exact (Rational).
[[nodiscard]] LexSearchResult lex_max_min_local_search(const ClosNetwork& net,
                                                       const FlowSet& flows,
                                                       MiddleAssignment start,
                                                       const LocalSearchOptions& options = {});

/// Multi-restart wrapper: `restarts` random initial assignments, keeping the
/// lexicographically best local optimum.
[[nodiscard]] LexSearchResult lex_max_min_multistart(const ClosNetwork& net,
                                                     const FlowSet& flows, Rng& rng,
                                                     std::size_t restarts,
                                                     const LocalSearchOptions& options = {});

/// Throughput hill climbing: accepts single-flow moves that increase the
/// throughput of the max-min fair allocation (toward Definition 2.5); ties
/// broken lexicographically.
[[nodiscard]] LexSearchResult throughput_max_min_local_search(
    const ClosNetwork& net, const FlowSet& flows, MiddleAssignment start,
    const LocalSearchOptions& options = {});

}  // namespace closfair
