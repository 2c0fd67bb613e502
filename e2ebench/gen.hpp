// Request generators for the end-to-end benchmark.
//
// Every workload is a deterministic function of the run seed: the same seed
// yields the same request bytes, a different seed different cells. The
// program under test only ever sees these bytes. Streams are per connection
// (sweep_cold has one) so the bytes a connection sends do not depend on how
// fast the other connection consumed its own stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace e2ebench {

/// One flow of an inline instance: src_tor, src_server, dst_tor, dst_server.
using Flow4 = std::array<int, 4>;

/// One generated request.
struct Request {
  std::string line;   ///< the bytes sent (one JSONL line / one frame payload)
  std::string klass;  ///< request class, for the run record's per-class counts
  /// interactive only: the working-set index a resubmission or delta targets.
  std::size_t base = 0;
  bool delta = false;
  /// interactive deltas only: the patched scenario spelled directly as a
  /// bare spec — its cold response is what the delta response must equal.
  std::string direct;
};

/// sweep_cold: the §6 sweep user. Every cell is distinct (unique workload
/// seeds), small, and cheap: C_3–C_5 generated workloads under heuristic
/// policies, ~10% fat-tree k=8 ECMP, ~10% Thm 4.2 n=3 inline instances,
/// ~20% of the Clos cells with a fault group.
class SweepGen {
 public:
  explicit SweepGen(std::uint64_t seed);
  [[nodiscard]] Request next();

 private:
  closfair::Rng rng_;
  std::uint64_t seed_base_;
  std::uint64_t count_ = 0;
};

/// exact_search: the proof-checking user. Distinct exhaustive_lex /
/// exhaustive_tput cells on C_3–C_5 with 8–11 flows (~20% under the LP
/// objective) and replicate cells on Thm 4.2 n=3 variants.
class ExactGen {
 public:
  ExactGen(std::uint64_t seed, unsigned stream);
  [[nodiscard]] Request next();

 private:
  closfair::Rng rng_;
  std::uint64_t seed_base_;
  std::uint64_t count_ = 0;
  std::uint64_t exhaustive_ = 0;
  std::vector<std::size_t> block_;  ///< unsent slots of the current block
};

/// interactive: the what-if user. A fixed working set of Clos cells and
/// inline-instance bases, then per-connection streams of ~80% respelled
/// resubmissions and ~20% deltas split over five patch classes.
struct WorkingSet {
  std::vector<std::string> specs;         ///< bare spec lines, as primed
  std::vector<std::uint64_t> hashes;      ///< their content addresses
  std::vector<std::vector<Flow4>> flows;  ///< inline bases' flows; empty for generated cells
  std::vector<int> n;                     ///< Clos parameter of each base
};

inline constexpr std::size_t kWorkingSetSize = 256;
inline constexpr const char* kDeltaClasses[] = {"add_flow", "remove_flow", "fail_middle",
                                                "derate_link", "objective_switch"};

[[nodiscard]] WorkingSet make_working_set(std::uint64_t seed);

class InteractiveGen {
 public:
  InteractiveGen(const WorkingSet& ws, std::uint64_t seed, unsigned stream);
  [[nodiscard]] Request next();

 private:
  /// {patch object, directly spelled patched spec} of one delta class.
  std::pair<closfair::Json, closfair::Json> make_patch(const std::string& klass,
                                                       std::size_t base);

  const WorkingSet& ws_;
  closfair::Rng rng_;
  std::vector<closfair::Json> base_json_;
  std::vector<std::size_t> inline_bases_;
  std::set<std::string> seen_;
};

/// Share of each class in the generated streams (the self-tests hold the
/// generators to these).
inline constexpr double kSweepFattreeShare = 0.10;
inline constexpr double kSweepThm42Share = 0.10;
inline constexpr double kSweepFaultShare = 0.20;
inline constexpr double kExactReplicateShare = 0.10;  // one slot per block of 10
inline constexpr double kExactLpShare = 0.20;         // of the exhaustive cells
inline constexpr double kInteractiveDeltaShare = 0.20;

}  // namespace e2ebench
