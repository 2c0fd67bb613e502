// Plain-text instance format and result serialization.
//
// Instances (a Clos network plus a flow collection) can be written by hand:
//
//   # Example 3.3 (k = 1)
//   clos n=1
//   flow 1 1 -> 1 1
//   flow 2 1 -> 2 1
//   flow 2 1 -> 1 1
//
// or with explicit dimensions and multiplicities:
//
//   clos middles=4 tors=6 servers=2 capacity=1/2
//   flow 1 2 -> 2 1 x3
//   flow 2 1 -> 1 1 @2/3
//
// `flow a b -> c d [xK] [@R]` adds K copies of (s_a^b, t_c^d) (K defaults
// to 1), each carrying an optional target rate R — used by replication
// feasibility tooling (`closfair_cli --replicate`). Dimensions must be >= 1,
// the capacity must be positive, `clos n=N` needs 2N to fit in an int, and
// flow coordinates must lie within the declared dimensions. Blank lines and `#` comments are
// ignored. Errors carry line numbers.
//
// Results are serialized as CSV (one row per flow) for plotting pipelines.
#pragma once

#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "flow/allocation.hpp"
#include "flow/flow.hpp"
#include "net/clos.hpp"
#include "util/rational.hpp"

namespace closfair {

/// Thrown on malformed instance text; what() includes the line number.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// A parsed instance: network parameters + flow collection (+ optional
/// per-flow target rates, index-aligned with `flows`).
struct InstanceSpec {
  ClosNetwork::Params params;
  FlowCollection flows;
  std::vector<std::optional<Rational>> rates;  ///< empty or flows.size() long

  /// Build the Clos network (the macro-switch takes {num_tors,
  /// servers_per_tor, link_capacity} from the same params).
  [[nodiscard]] ClosNetwork build_clos() const { return ClosNetwork(params); }

  /// True if at least one flow declared a target rate.
  [[nodiscard]] bool has_rates() const {
    for (const auto& r : rates) {
      if (r.has_value()) return true;
    }
    return false;
  }
};

/// Parse an instance from text. Throws ParseError on malformed input,
/// including out-of-range coordinates (reported at the first such flow line).
[[nodiscard]] InstanceSpec parse_instance(std::string_view text);
/// Read the whole stream, then parse_instance() it.
[[nodiscard]] InstanceSpec parse_instance_stream(std::istream& in);

/// Render an InstanceSpec back to the text format (round-trips through
/// parse_instance). Builds one string, no stream.
[[nodiscard]] std::string format_instance(const InstanceSpec& spec);

/// CSV with one row per flow: index, endpoints, optional label, and one
/// column per named allocation. All allocations must cover every flow.
struct NamedAllocation {
  std::string name;
  const Allocation<Rational>* alloc = nullptr;
};
void write_rates_csv(std::ostream& out, const FlowCollection& flows,
                     const std::vector<std::string>& labels,
                     const std::vector<NamedAllocation>& allocations);

}  // namespace closfair
