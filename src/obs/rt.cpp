#include "obs/rt.hpp"

#if CLOSFAIR_OBS_ENABLED

#include <algorithm>
#include <atomic>
#include <utility>

namespace closfair::obs::rt {
namespace {

/// Seqlock slot: version 0 = empty or mid-write; version v = a consistent
/// copy of global trace number v - 1.
struct TraceSlot {
  std::atomic<std::uint64_t> version{0};
  RequestTrace trace;
};

template <std::size_t N>
struct TraceRing {
  std::atomic<std::uint64_t> head{0};  ///< next global index to claim
  std::array<TraceSlot, N> slots;

  void push(const RequestTrace& trace) noexcept {
    const std::uint64_t index = head.fetch_add(1, std::memory_order_relaxed);
    TraceSlot& slot = slots[index % N];
    // Tear the slot before copying so a concurrent reader sees version 0
    // (or a mismatch) instead of a half-written trace. Two writers landing
    // on the same slot (a full wrap mid-copy) leave whichever copy wrote
    // its version last — stale data is acceptable, torn data is not.
    slot.version.store(0, std::memory_order_release);
    slot.trace = trace;
    slot.version.store(index + 1, std::memory_order_release);
  }

  [[nodiscard]] std::vector<RequestTrace> copy_out() const {
    std::vector<std::pair<std::uint64_t, RequestTrace>> keyed;
    keyed.reserve(N);
    for (const TraceSlot& slot : slots) {
      const std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 == 0) continue;
      RequestTrace copy = slot.trace;
      const std::uint64_t v2 = slot.version.load(std::memory_order_acquire);
      if (v1 != v2) continue;  // torn by a concurrent writer; skip
      keyed.emplace_back(v1, copy);
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<RequestTrace> out;
    out.reserve(keyed.size());
    for (auto& [version, trace] : keyed) out.push_back(trace);
    return out;
  }

  void reset() noexcept {
    head.store(0, std::memory_order_relaxed);
    for (TraceSlot& slot : slots) slot.version.store(0, std::memory_order_relaxed);
  }
};

struct RecorderState {
  TraceRing<FlightRecorder::kRecentCapacity> recent;
  TraceRing<FlightRecorder::kShameCapacity> shame;
  std::atomic<std::uint64_t> slow_threshold_ns{
      FlightRecorder::kDefaultSlowThresholdNs};
};

RecorderState& state() {
  // Leaked like the Registry: traces may still be recorded by connection
  // threads that outlive main()'s statics.
  static RecorderState* recorder_state = new RecorderState();
  return *recorder_state;
}

/// Registry histograms fed by record(); index == Stage value.
Histogram& stage_histogram(std::size_t stage) {
  static Histogram* hists[kStageCount] = {
      &Registry::instance().histogram("wire.stage.read"),
      &Registry::instance().histogram("wire.stage.parse"),
      &Registry::instance().histogram("wire.stage.admit"),
      &Registry::instance().histogram("wire.stage.queue_wait"),
      &Registry::instance().histogram("wire.stage.evaluate"),
      &Registry::instance().histogram("wire.stage.reorder_wait"),
      &Registry::instance().histogram("wire.stage.write"),
  };
  return *hists[stage];
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::record(const RequestTrace& trace) noexcept {
  RecorderState& s = state();
  s.recent.push(trace);
  const bool errored = trace.outcome == Outcome::kOverload ||
                       trace.outcome == Outcome::kParseError ||
                       trace.outcome == Outcome::kEvalError;
  if (errored ||
      trace.wall_ns() >= s.slow_threshold_ns.load(std::memory_order_relaxed)) {
    s.shame.push(trace);
  }
  if (trace.outcome != Outcome::kAdmin) {
    static Histogram& request_hist =
        Registry::instance().histogram("wire.request");
    request_hist.record_ns(trace.wall_ns());
    for (std::size_t i = 0; i < kStageCount; ++i) {
      stage_histogram(i).record_ns(trace.stage_ns[i]);
    }
  }
}

std::vector<RequestTrace> FlightRecorder::recent() const {
  return state().recent.copy_out();
}

std::vector<RequestTrace> FlightRecorder::shame() const {
  return state().shame.copy_out();
}

void FlightRecorder::set_slow_threshold_ns(std::uint64_t ns) noexcept {
  state().slow_threshold_ns.store(ns, std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::slow_threshold_ns() const noexcept {
  return state().slow_threshold_ns.load(std::memory_order_relaxed);
}

void FlightRecorder::reset() noexcept {
  state().recent.reset();
  state().shame.reset();
  state().slow_threshold_ns.store(kDefaultSlowThresholdNs,
                                  std::memory_order_relaxed);
}

Json trace_to_json(const RequestTrace& trace) {
  Json j = Json::object();
  j.set("conn", Json::number(static_cast<std::int64_t>(trace.conn_id)));
  j.set("seq", Json::number(static_cast<std::int64_t>(trace.seq)));
  j.set("arrival_ns", Json::number(static_cast<std::int64_t>(trace.arrival_ns)));
  j.set("wall_ns", Json::number(static_cast<std::int64_t>(trace.wall_ns())));
  j.set("outcome", Json::string(outcome_name(trace.outcome)));
  Json stages = Json::object();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stages.set(stage_name(static_cast<Stage>(i)),
               Json::number(static_cast<std::int64_t>(trace.stage_ns[i])));
  }
  j.set("stages_ns", std::move(stages));
  return j;
}

std::string dump_chrome_jsonl(const std::vector<RequestTrace>& traces) {
  // One request event plus one event per nonzero stage, tid = connection id,
  // ts = the steady-clock arrival time the stages are laid out from.
  std::string out;
  for (const RequestTrace& trace : traces) {
    append_chrome_event(out, std::string{"wire.request/"} + outcome_name(trace.outcome),
                        trace.arrival_ns, trace.wall_ns(), trace.conn_id);
    std::uint64_t offset_ns = trace.arrival_ns;
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const std::uint64_t duration_ns = trace.stage_ns[i];
      if (duration_ns == 0) continue;
      append_chrome_event(out, std::string{"wire.stage."} + stage_name(static_cast<Stage>(i)),
                          offset_ns, duration_ns, trace.conn_id);
      offset_ns += duration_ns;
    }
  }
  return out;
}

}  // namespace closfair::obs::rt

#endif  // CLOSFAIR_OBS_ENABLED
