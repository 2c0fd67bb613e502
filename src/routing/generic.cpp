#include "routing/generic.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace closfair {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

void check_candidates(const PathCandidates& candidates) {
  for (std::size_t f = 0; f < candidates.size(); ++f) {
    CF_CHECK_MSG(!candidates[f].empty(), "flow " << f << " has no candidate paths");
  }
}

void check_demands(const PathCandidates& candidates, const std::vector<double>& demands) {
  check_candidates(candidates);
  CF_CHECK_MSG(demands.size() == candidates.size(),
               "demands cover " << demands.size() << " flows, expected "
                                << candidates.size());
}

void check_choice(const PathCandidates& candidates, const CandidateChoice& choice) {
  check_candidates(candidates);
  CF_CHECK(choice.size() == candidates.size());
  for (std::size_t f = 0; f < choice.size(); ++f) {
    CF_CHECK_MSG(choice[f] < candidates[f].size(),
                 "flow " << f << " is on candidate " << choice[f] << " of "
                         << candidates[f].size());
  }
}

// Objective of congestion descent: (max link congestion, sum of squared
// loads). The quadratic tie-breaker spreads load even when the max is fixed.
struct Score {
  double max_congestion = 0.0;
  double sum_sq = 0.0;
  friend bool operator<(const Score& a, const Score& b) {
    if (a.max_congestion != b.max_congestion) return a.max_congestion < b.max_congestion;
    return a.sum_sq < b.sum_sq;
  }
};

// Per-link loads beside the link capacities as doubles (+inf for unbounded
// links), with the dead-link rules of the header.
class Loads {
 public:
  explicit Loads(const Topology& topo) : load_(topo.num_links(), 0.0), cap_(topo.num_links()) {
    for (std::size_t l = 0; l < cap_.size(); ++l) {
      const Link& link = topo.link(static_cast<LinkId>(l));
      cap_[l] = link.unbounded ? kInfinity : link.capacity.to_double();
    }
  }

  void add(const Path& path, double demand) {
    for (LinkId l : path) load_[static_cast<std::size_t>(l)] += demand;
  }
  void remove(const Path& path, double demand) {
    for (LinkId l : path) load_[static_cast<std::size_t>(l)] -= demand;
  }
  void move(const Path& from, const Path& to, double demand) {
    remove(from, demand);
    add(to, demand);
  }

  [[nodiscard]] bool dead(const Path& path) const {
    return std::any_of(path.begin(), path.end(),
                       [&](LinkId l) { return cap_[static_cast<std::size_t>(l)] == 0.0; });
  }

  // The earliest candidate minimizing the max congestion after adding
  // `demand` to its links; a dead candidate costs +inf, never a 0/0 NaN.
  [[nodiscard]] std::size_t least_congested(const std::vector<Path>& options,
                                            double demand) const {
    std::size_t best = 0;
    double best_congestion = kInfinity;
    for (std::size_t i = 0; i < options.size(); ++i) {
      double congestion = 0.0;
      for (LinkId l : options[i]) {
        const double cap = cap_[static_cast<std::size_t>(l)];
        if (cap == kInfinity) continue;
        if (cap == 0.0) {
          congestion = kInfinity;
          break;
        }
        congestion = std::max(congestion, (load_[static_cast<std::size_t>(l)] + demand) / cap);
      }
      if (i == 0 || congestion < best_congestion) {
        best_congestion = congestion;
        best = i;
      }
    }
    return best;
  }

  [[nodiscard]] Score score() const {
    Score s;
    for (std::size_t l = 0; l < load_.size(); ++l) {
      const double cap = cap_[l];
      if (cap == kInfinity) continue;
      if (cap == 0.0) {
        // Load on a dead link is infinitely congested; an idle one costs
        // nothing rather than a 0/0 NaN that would poison every comparison.
        if (load_[l] > 0.0) s.max_congestion = kInfinity;
      } else {
        s.max_congestion = std::max(s.max_congestion, load_[l] / cap);
      }
      s.sum_sq += load_[l] * load_[l];
    }
    return s;
  }

 private:
  std::vector<double> load_;
  std::vector<double> cap_;
};

Routing chosen_paths(const PathCandidates& candidates, const CandidateChoice& choice) {
  std::vector<Path> paths;
  paths.reserve(choice.size());
  for (std::size_t f = 0; f < choice.size(); ++f) paths.push_back(candidates[f][choice[f]]);
  return Routing{std::move(paths)};
}

}  // namespace

CandidateChoice clos_choice(const MiddleAssignment& middles) {
  CandidateChoice choice(middles.size());
  for (std::size_t f = 0; f < middles.size(); ++f) {
    CF_CHECK_MSG(middles[f] >= 1, "flow " << f << " names middle " << middles[f]);
    choice[f] = static_cast<std::size_t>(middles[f] - 1);
  }
  return choice;
}

MiddleAssignment clos_middles(const CandidateChoice& choice) {
  MiddleAssignment middles(choice.size());
  for (std::size_t f = 0; f < choice.size(); ++f) middles[f] = static_cast<int>(choice[f]) + 1;
  return middles;
}

Routing ecmp_paths(const PathCandidates& candidates, Rng& rng) {
  check_candidates(candidates);
  std::vector<Path> paths;
  paths.reserve(candidates.size());
  for (const auto& options : candidates) {
    paths.push_back(options[rng.next_below(options.size())]);
  }
  return Routing{std::move(paths)};
}

CandidateChoice greedy_choice(const Topology& topo, const PathCandidates& candidates,
                              const std::vector<double>& demands) {
  check_demands(candidates, demands);
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return demands[a] > demands[b]; });

  Loads loads(topo);
  CandidateChoice choice(candidates.size(), 0);
  for (std::size_t f : order) {
    choice[f] = loads.least_congested(candidates[f], demands[f]);
    loads.add(candidates[f][choice[f]], demands[f]);
  }
  return choice;
}

Routing greedy_paths(const Topology& topo, const PathCandidates& candidates,
                     const std::vector<double>& demands) {
  return chosen_paths(candidates, greedy_choice(topo, candidates, demands));
}

CandidateChoice local_search_choice(const Topology& topo, const PathCandidates& candidates,
                                    const std::vector<double>& demands, CandidateChoice start,
                                    std::size_t max_moves) {
  check_demands(candidates, demands);
  check_choice(candidates, start);

  Loads loads(topo);
  for (std::size_t f = 0; f < start.size(); ++f) loads.add(candidates[f][start[f]], demands[f]);
  Score current = loads.score();

  std::size_t moves = 0;
  bool improved = true;
  while (improved && moves < max_moves) {
    improved = false;
    for (std::size_t f = 0; f < start.size() && moves < max_moves; ++f) {
      const Path& old_path = candidates[f][start[f]];
      for (std::size_t i = 0; i < candidates[f].size(); ++i) {
        const Path& path = candidates[f][i];
        if (i == start[f] || loads.dead(path)) continue;
        loads.move(old_path, path, demands[f]);
        const Score score = loads.score();
        if (score < current) {
          current = score;
          start[f] = i;
          ++moves;
          improved = true;
          break;  // re-scan this flow's new neighborhood later
        }
        loads.move(path, old_path, demands[f]);
      }
    }
  }
  return start;
}

Routing congestion_local_search_paths(const Topology& topo, const PathCandidates& candidates,
                                      const std::vector<double>& demands,
                                      const Routing& start, std::size_t max_moves) {
  CF_CHECK(start.size() == candidates.size());
  CandidateChoice choice(start.size());
  for (FlowIndex f = 0; f < start.size(); ++f) {
    const auto it = std::find(candidates[f].begin(), candidates[f].end(), start.path(f));
    CF_CHECK_MSG(it != candidates[f].end(), "flow " << f << " starts off its candidates");
    choice[f] = static_cast<std::size_t>(it - candidates[f].begin());
  }
  return chosen_paths(candidates,
                      local_search_choice(topo, candidates, demands, choice, max_moves));
}

std::size_t reroute_dead_choice(const Topology& topo, const PathCandidates& candidates,
                                CandidateChoice& choice) {
  check_choice(candidates, choice);
  Loads loads(topo);
  for (std::size_t f = 0; f < choice.size(); ++f) loads.add(candidates[f][choice[f]], 1.0);

  std::size_t moved = 0;
  for (std::size_t f = 0; f < choice.size(); ++f) {
    const Path& current = candidates[f][choice[f]];
    if (!loads.dead(current)) continue;
    loads.remove(current, 1.0);
    const std::size_t best = loads.least_congested(candidates[f], 1.0);
    if (!loads.dead(candidates[f][best])) {  // else stranded: every candidate is dead
      choice[f] = best;
      ++moved;
    }
    loads.add(candidates[f][choice[f]], 1.0);
  }
  return moved;
}

}  // namespace closfair
