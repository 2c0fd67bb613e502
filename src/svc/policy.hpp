// closfair::svc — the routing-policy table.
//
// Every routing policy a scenario spec may name is one row: the routing keys
// it accepts (a policy takes a `start`, and with it `reroute_dead`, exactly
// when its keys list them), whether the `start` is mandatory, and how it
// runs on a Clos fabric and (when supported) on a fat-tree. svc/spec.cpp
// validates routing groups against the table and svc/service.cpp dispatches
// through it, so a new policy is one row in service.cpp.
#pragma once

#include <initializer_list>
#include <optional>
#include <span>
#include <string_view>

#include "flow/routing.hpp"

namespace closfair::svc {

struct ClosRun;     // a Clos evaluation's inputs, defined in service.cpp
struct FatTreeRun;  // a fat-tree evaluation's inputs, defined in service.cpp

/// A run returns the routing the objective then allocates over, or nullopt
/// when the policy answers without one ("none": the macro reference is the
/// answer; "replicate": a feasibility verdict in the result).
struct Policy {
  std::string_view name;
  std::initializer_list<const char*> keys;  ///< accepted routing keys, "policy" included
  bool requires_start;  ///< `start` is mandatory ("static" routes it verbatim)
  std::optional<MiddleAssignment> (*clos)(ClosRun&);
  std::optional<Routing> (*fattree)(FatTreeRun&);  ///< nullptr: Clos only
};

/// Every row, in table order.
[[nodiscard]] std::span<const Policy> policies();

/// The row named `name`, or nullptr when no policy has that name.
[[nodiscard]] const Policy* find_policy(std::string_view name);

}  // namespace closfair::svc
