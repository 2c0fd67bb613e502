// Exact routing-objective optimizers by exhaustive enumeration.
//
// A Clos routing is a middle assignment in [n]^|F|, so for small instances we
// can find true lex-max-min fair (Definition 2.4) and throughput-max-min fair
// (Definition 2.5) allocations by enumerating every routing and water-filling
// each one. This is how the test suite verifies the paper's optimality claims
// (Lemma 4.6 step 2, Example 2.3) *by search* rather than by trusting the
// constructions.
//
// Middle switches are interchangeable (any permutation of middles is a
// topology automorphism), so assignments only need enumerating up to middle
// relabeling: the search engine (routing/search_engine.hpp) visits one
// canonical representative per equivalence class — a restricted-growth
// string — and reconstructs full-space counts from orbit sizes. The legacy
// odometer with its `fix_first_flow` pin remains as the fallback for
// capacity-asymmetric middles.
#pragma once

#include <cstdint>
#include <optional>

#include "flow/allocation.hpp"
#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/clos.hpp"

namespace closfair {

struct ExhaustiveOptions {
  /// Abort (throw ContractViolation) if the enumeration would water-fill
  /// more than this many candidates. Guards against accidentally launching
  /// an n^|F| blow-up; with canonical enumeration the bound applies to the
  /// (much smaller) canonical class count.
  std::uint64_t max_routings = 50'000'000;

  /// Pin flow 0 to the first surviving middle in odometer mode. Sound only
  /// when the surviving pool is capacity-interchangeable, so — like the
  /// canonical quotient — the pin is ignored whenever
  /// `fault::surviving_middles_symmetric` is false (e.g. a single dead
  /// uplink with its middle otherwise alive): the engine then enumerates
  /// flow 0 over the whole pool. In canonical mode the pin is implied by the
  /// enumeration; the flag then only selects whether `routings_evaluated`
  /// reports the pinned (n^(|F|-1)-scale) or the full (n^|F|-scale) space,
  /// keeping counts comparable with odometer runs under the same setting.
  bool fix_first_flow = true;

  /// Enumerate one canonical representative per middle-relabeling class
  /// (restricted-growth strings) instead of the full odometer. Requires
  /// capacity-symmetric middles over the *surviving* pool: dead middles
  /// (fault/fault.hpp) are excluded from enumeration entirely, and the
  /// quotient is taken over surviving labels only. Automatically falls back
  /// to the odometer (still over the surviving pool) when
  /// `fault::surviving_middles_symmetric` is false — on pristine fabrics
  /// this is exactly the old `ClosNetwork::middles_symmetric()` gate.
  bool exploit_middle_symmetry = true;

  /// Worker threads (1 = serial) for all three searches. Work is distributed
  /// over enumeration prefixes; each worker keeps a local best and results
  /// merge with deterministic tie-breaking (enumeration order), so parallel
  /// results are bitwise-identical to serial ones. Early-exit options are
  /// honored via an atomic flag (workers may overshoot slightly;
  /// routings_evaluated counts all visits across workers).
  unsigned num_threads = 1;

  /// Stop early if this sorted vector is reached: no feasible Clos allocation
  /// can lexicographically exceed the macro-switch max-min sorted vector
  /// (§2.3), so reaching it proves optimality. Applies to lex search only.
  std::optional<std::vector<Rational>> stop_at_sorted;

  /// Route every candidate evaluation onto the exact Rational water-fill
  /// engine, bypassing the int64 fixed-denominator fast path even when it is
  /// available. Results are byte-identical either way (the fast path falls
  /// back on overflow and is differential-tested against the Rational
  /// engine); this flag exists for those differential tests and for
  /// fallback-engine benchmarks, not for production use.
  bool force_waterfill_fallback = false;

  /// Throughput search only: stop once a routing attains the sum-of-
  /// capacities upper bound (min over the distinct source / destination
  /// links' capacity sums — no routing can exceed either). The returned
  /// throughput is still exact; among equal-throughput optima the witness
  /// may then be any bound-attaining routing rather than the first in
  /// enumeration order.
  bool prune_throughput_bound = true;
};

struct ExactRoutingResult {
  MiddleAssignment middles;
  Allocation<Rational> alloc;           ///< max-min fair allocation for `middles`

  /// Routings covered, reported in full-space-equivalent terms: canonical
  /// searches multiply each visited class by its orbit size (divided by the
  /// pool size under fix_first_flow), so the count matches what an odometer
  /// run with the same fix_first_flow setting would report. On degraded
  /// fabrics the space is the surviving-middle pool's |pool|^|F|, not
  /// n^|F| — dead middles are never enumerated.
  std::uint64_t routings_evaluated = 0;

  /// Candidates actually water-filled — the real work done. With canonical
  /// enumeration this is the visited class count, orders of magnitude below
  /// routings_evaluated.
  std::uint64_t waterfill_invocations = 0;
};

/// True lex-max-min fair allocation by enumeration (exact, exponential).
[[nodiscard]] ExactRoutingResult lex_max_min_exhaustive(const ClosNetwork& net,
                                                        const FlowSet& flows,
                                                        const ExhaustiveOptions& options = {});

/// The lex search behind lex_max_min_exhaustive and
/// relative_max_min_exhaustive (routing/relative_maxmin.hpp): the routing
/// whose sorted_key (flow/allocation.hpp) — sorted rates, or sorted
/// rate / divisors[f] ratios when `divisors` is given — is lexicographically
/// greatest, the earliest in enumeration order among ties.
/// options.stop_at_sorted, if set, is compared with that key.
[[nodiscard]] ExactRoutingResult lex_key_exhaustive(const ClosNetwork& net,
                                                    const FlowSet& flows,
                                                    const ExhaustiveOptions& options,
                                                    const std::vector<Rational>* divisors);

/// True throughput-max-min fair allocation by enumeration (exact,
/// exponential). Lexicographic tie-break among equal-throughput routings.
[[nodiscard]] ExactRoutingResult throughput_max_min_exhaustive(
    const ClosNetwork& net, const FlowSet& flows, const ExhaustiveOptions& options = {});

/// One Pareto-optimal point of the routing space under the paper's two
/// competing objectives (Q3): total throughput vs the worst-off flow's rate.
struct ParetoPoint {
  Rational throughput{0};
  Rational min_rate{0};
  MiddleAssignment middles;  ///< a witness routing achieving this point
};

/// The exact throughput-vs-min-rate Pareto frontier over ALL routings
/// (exponential; guarded by options.max_routings). Points are returned
/// sorted by increasing throughput (hence non-increasing min rate), each
/// non-dominated: no routing is at least as good on both axes and better on
/// one. The frontier's two endpoints relate to the paper's objectives: the
/// max-min-rate end contains the lex-max-min routing's point, the
/// max-throughput end the throughput-max-min routing's.
[[nodiscard]] std::vector<ParetoPoint> throughput_fairness_frontier(
    const ClosNetwork& net, const FlowSet& flows, const ExhaustiveOptions& options = {});

}  // namespace closfair
