// Scenario evaluation over the routing / fairness / fault stack, and delta
// resolution against the content-addressed result cache (svc/cache.hpp).
// Turning request lines into response lines — dedup, cache lookup, worker
// dispatch, seq-order commit — is the wire Pipeline's job
// (wire/connection.hpp), for batch mode and sockets alike; the determinism
// contract (docs/SERVICE.md) is kept there.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "svc/cache.hpp"
#include "svc/spec.hpp"

namespace closfair::svc {

/// Evaluate one scenario directly (no cache, no workers): build the
/// topology, generate or parse the workload, degrade the fabric, route, and
/// allocate. Throws SpecError (and lets library ContractViolation /
/// ParseError escape) on specs that are well-formed but unevaluable — e.g. a
/// "static" start of the wrong length. Wrapped in the svc.evaluate span.
[[nodiscard]] ScenarioResult evaluate_scenario(const ScenarioSpec& spec);

/// Decide how a delta of a base scenario whose result is known gets its
/// answer; `base_canonical` is the base's canonical bytes (the pinned cache
/// key). True when only the objective changed: routing search never reads
/// the objective, and the exact LP and water-fill compute the same unique
/// allocation, so the base result *is* the cold result of `spec` (counted as
/// svc.delta_result_reuses). False for any other patch, which must be
/// evaluated cold (counted as svc.delta_warm_starts). `spec` is a delta that
/// missed the cache, so it is never the base itself. Call it once per
/// warm-started delta.
[[nodiscard]] bool reuses_base_result(const ScenarioSpec& spec, std::string_view base_canonical);

/// Evaluate `spec`, a delta of a base scenario whose result is known: the
/// base result when reuses_base_result(), else evaluate_scenario(spec).
/// Either way the bytes equal a cold evaluation's.
/// Survives only for e2ebench/replay.cpp (ROADMAP item 6).
[[nodiscard]] ScenarioResult evaluate_scenario_warm(const ScenarioSpec& spec,
                                                    const ScenarioSpec& base_spec,
                                                    const ScenarioResult& base_result);

/// Outcome of resolving a DeltaRequest: the patched spec, plus — when the
/// base was found in the cache — a pinned handle on the base entry and the
/// parsed base spec for evaluate_scenario_warm. A non-empty `error` means
/// resolution failed (unknown base address, or a patch that does not apply).
struct DeltaResolution {
  ScenarioSpec spec;
  std::optional<ResultCache::BasePin> base;  ///< pin held across the warm evaluation
  /// Set iff `base` is. Survives only for e2ebench/replay.cpp (ROADMAP item 6).
  std::optional<ScenarioSpec> base_spec;
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Resolve a delta request against `cache` (svc.delta_requests): pin the
/// base entry by content hash and apply the patch to its canonical spec.
/// When the cache has no such entry, `inflight` (if provided) may map the
/// hash to the canonical bytes of a base currently being evaluated — the
/// patch then still resolves, only without a warm result (the wire pipeline
/// uses this so a delta racing its own base on one connection never
/// spuriously misses). Bumps svc.delta_base_misses / svc.delta_patch_errors
/// on the two failure modes.
[[nodiscard]] DeltaResolution resolve_delta(
    ResultCache& cache, const DeltaRequest& delta,
    const std::function<std::optional<std::string>(std::uint64_t)>& inflight = nullptr);

}  // namespace closfair::svc
