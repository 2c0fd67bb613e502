// Traced in-process replay: the same request bytes a workload sent, run on
// one thread through the public functions the server calls, with the
// benchmark's spans around each layer (layers.hpp).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"

namespace e2ebench {

struct ReplayRequest {
  std::string line;
  bool measured = true;  ///< false: set-up traffic (interactive priming)
};

struct ReplayOptions {
  bool framed = false;  ///< socket workloads frame requests and responses
  std::size_t cache_capacity = 1024;
};

struct ReplayReport {
  /// Per-layer metrics: <span>.p50_us, <span>.share, svc.evaluate.residual_us,
  /// the obs-counter ratios, and bench.trace_overhead_frac.
  std::map<std::string, double> metrics;
  /// Mean front-end time per measured request (parse + canonical + render).
  double front_end_s = 0.0;
  std::size_t requests = 0;      ///< measured requests replayed
  std::size_t decomposed = 0;    ///< cold evaluations checked by the second pass
  std::vector<std::string> errors;  ///< fidelity-gate failures
  std::vector<Span> spans;          ///< the traced pass, for the span dump
};

/// Every span name the traced pass can record, in report order.
extern const std::vector<std::string> kSpanNames;

/// Replay `requests` three times, each on a fresh cache: untraced (the
/// obs-counter deltas), traced with the decomposed second pass after every
/// cold evaluation, and untraced again (the overhead baseline). Fills `errors` on a
/// decomposition byte mismatch, a request whose self times do not sum to its
/// root span, or a child span outside its parent's interval.
[[nodiscard]] ReplayReport replay(const std::vector<ReplayRequest>& requests,
                                  const ReplayOptions& options);

}  // namespace e2ebench
