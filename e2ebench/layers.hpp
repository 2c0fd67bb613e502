// The benchmark's own spans, and a layer-by-layer second pass over
// svc::evaluate_scenario.
//
// Spans are recorded by the benchmark around calls into each module's public
// functions; nothing inside the program is instrumented. A span holds its
// name, start, end, parent and request id, lives in memory, and is written
// out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/spec.hpp"

namespace e2ebench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         ///< index into the tracer's span list, -1 for a root
  std::uint32_t rid = 0;   ///< request id shared by every span of one request
  /// True for the layer spans of the second pass: they are charged to their
  /// svc.evaluate parent but were timed after it, outside its interval.
  bool second_pass = false;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span recorder. A disabled tracer reads no clock and records
/// nothing, so the same replay code times the untraced pass.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  int begin(const char* name, std::uint32_t rid, int parent, bool second_pass = false);
  void end(int id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t rid, int parent,
             bool second_pass = false)
      : tracer_(tracer), id_(tracer.begin(name, rid, parent, second_pass)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Evaluate `spec` by calling the public functions evaluate_scenario's Clos
/// and fat-tree paths call, in the same order, with one span per layer
/// (net.build, workload.generate, fault.apply, fairness.macro,
/// routing.heuristic / routing.search, fairness.final / lp.final) charged to
/// `parent`. The result must equal evaluate_scenario(spec) byte for byte;
/// the caller checks. Throws std::runtime_error on a spec shape the
/// benchmark's generators never produce.
[[nodiscard]] closfair::svc::ScenarioResult evaluate_decomposed(
    const closfair::svc::ScenarioSpec& spec, Tracer& tracer, int parent, std::uint32_t rid);

/// The flow collection a Clos spec's workload group generates (the
/// workload.generate step alone), for verifying responses.
[[nodiscard]] closfair::FlowCollection workload_flows(const closfair::svc::ScenarioSpec& spec);

}  // namespace e2ebench
