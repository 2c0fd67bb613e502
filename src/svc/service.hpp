// Batch scenario-evaluation service: sharded workers over the routing /
// fairness / fault stack, fronted by the content-addressed result cache.
//
// Determinism contract (docs/SERVICE.md): a batch's responses are
// byte-identical for every worker count. The queue is built *before* any
// worker starts — cache lookups and duplicate detection happen in input
// order on the submitting thread — so workers only ever run disjoint,
// pre-assigned evaluations into dedicated result slots, and cache
// insertions replay in input order after the pool joins. Worker scheduling
// can therefore change wall-clock time but never a byte of output, a hit
// flag, or the cache's eviction order.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "svc/cache.hpp"
#include "svc/spec.hpp"

namespace closfair::svc {

/// Evaluate one scenario directly (no cache, no workers): build the
/// topology, generate or parse the workload, degrade the fabric, route, and
/// allocate. Throws SpecError (and lets library ContractViolation /
/// ParseError escape) on specs that are well-formed but unevaluable — e.g. a
/// "static" start of the wrong length. Wrapped in the svc.evaluate span.
[[nodiscard]] ScenarioResult evaluate_scenario(const ScenarioSpec& spec);

/// Evaluate `spec`, a delta of a base scenario whose result is known. When
/// only the objective changed, the base result is returned wholesale:
/// routing search never reads the objective, and the exact LP and
/// water-fill compute the same unique allocation (svc.delta_result_reuses).
/// Any other patch is evaluate_scenario(spec), counted as
/// svc.delta_warm_starts. Either way the bytes equal a cold evaluation's.
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
  std::optional<ScenarioSpec> base_spec;     ///< set iff `base` is
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

/// One batch response: the result (or an error), plus cache provenance.
struct BatchEntry {
  ScenarioResult result;
  std::uint64_t hash = 0;  ///< content hash of the canonical spec
  bool cached = false;     ///< served from cache, or duplicate of an earlier line
  std::string error;       ///< non-empty: evaluation failed, `result` is empty

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct ServiceOptions {
  unsigned workers = 1;          ///< evaluation threads per batch (>= 1)
  std::size_t cache_capacity = 1024;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Evaluate one spec through the cache.
  [[nodiscard]] BatchEntry evaluate(const ScenarioSpec& spec);

  /// Resolve and evaluate one delta request through the cache. On
  /// resolution failure the entry carries the error with hash == 0 (no spec
  /// ever existed to address); otherwise the entry is exactly what
  /// evaluate() would return for the patched spec — byte-identical to a
  /// cold request — with svc.delta_hits counting patched specs served
  /// straight from the cache.
  [[nodiscard]] BatchEntry evaluate_delta(const DeltaRequest& delta);

  /// Evaluate a batch with the worker pool; responses align with `specs` by
  /// index. Within the batch, duplicate canonical specs evaluate once (the
  /// first occurrence; later ones report cached = true), and failures are
  /// per-entry — one bad spec never poisons the batch.
  [[nodiscard]] std::vector<BatchEntry> evaluate_batch(
      const std::vector<ScenarioSpec>& specs);

  [[nodiscard]] ResultCache& cache() { return cache_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  ServiceOptions options_;
  ResultCache cache_;
};

}  // namespace closfair::svc
