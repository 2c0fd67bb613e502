// The least-congested routing engine, over explicit candidate path sets.
//
// Every congestion-aware heuristic in the library runs this code: fat-tree
// policies pass each flow's equal-cost paths, and the Clos adapters
// (greedy_routing, congestion_local_search, fault::reroute_dead_paths) pass
// each flow's paths through middles 1..n, so Clos candidate index i is
// middle i + 1. The engine works on one chosen candidate index per flow.
//
// Dead links: a bounded link of capacity zero (a fault/fault.hpp mask) is
// dead, and so is every candidate that crosses one. The rules below hold for
// every caller:
//  * greedy costs a dead candidate +inf congestion, so it is chosen only
//    when every candidate is dead, and then the first one is;
//  * local search never moves a flow onto a dead candidate;
//  * the local-search score charges +inf max congestion for any load on a
//    dead link, and still adds that load to the sum of squared loads;
//  * dead-path reroute moves a flow off a dead candidate to the greedy
//    choice under unit loads, and leaves it in place when that is dead too.
#pragma once

#include <vector>

#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace closfair {

/// Per-flow candidate path sets; candidates[f] must be non-empty and each
/// path valid for flow f.
using PathCandidates = std::vector<std::vector<Path>>;

/// One chosen candidate per flow: choice[f] indexes candidates[f].
using CandidateChoice = std::vector<std::size_t>;

/// Every flow's candidates, from the network's `paths(src, dst)` (all
/// equal-cost paths; for a Clos network, the paths through middles 1..n).
template <typename Network>
[[nodiscard]] PathCandidates candidate_paths(const Network& net, const FlowSet& flows) {
  PathCandidates candidates;
  candidates.reserve(flows.size());
  for (const Flow& flow : flows) candidates.push_back(net.paths(flow.src, flow.dst));
  return candidates;
}

/// Clos middles (1-based) to candidate indices, and back.
[[nodiscard]] CandidateChoice clos_choice(const MiddleAssignment& middles);
[[nodiscard]] MiddleAssignment clos_middles(const CandidateChoice& choice);

/// ECMP over explicit candidates: uniform random choice per flow.
[[nodiscard]] Routing ecmp_paths(const PathCandidates& candidates, Rng& rng);

/// Greedy least-congested: place flows (largest demand first, a stable sort,
/// so equal demands keep collection order) on the candidate minimizing the
/// resulting maximum link congestion. Ties prefer the earliest candidate.
[[nodiscard]] CandidateChoice greedy_choice(const Topology& topo,
                                            const PathCandidates& candidates,
                                            const std::vector<double>& demands);
[[nodiscard]] Routing greedy_paths(const Topology& topo, const PathCandidates& candidates,
                                   const std::vector<double>& demands);

/// Congestion descent: from `start`, accept single-flow moves (flows in
/// index order, candidates in order, first improvement) that reduce (max
/// link congestion, sum of squared link loads), until none improves or
/// `max_moves` moves were made.
[[nodiscard]] CandidateChoice local_search_choice(const Topology& topo,
                                                  const PathCandidates& candidates,
                                                  const std::vector<double>& demands,
                                                  CandidateChoice start,
                                                  std::size_t max_moves);
/// As above from a path routing; every start path must be one of its flow's
/// candidates.
[[nodiscard]] Routing congestion_local_search_paths(const Topology& topo,
                                                    const PathCandidates& candidates,
                                                    const std::vector<double>& demands,
                                                    const Routing& start,
                                                    std::size_t max_moves = 10'000);

/// Moves every flow whose chosen candidate is dead, in index order, to its
/// greedy choice under unit loads of all flows; a flow whose greedy choice is
/// dead too stays. Returns the number of flows moved.
std::size_t reroute_dead_choice(const Topology& topo, const PathCandidates& candidates,
                                CandidateChoice& choice);

}  // namespace closfair
