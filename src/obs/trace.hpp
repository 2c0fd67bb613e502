// closfair::obs — scoped wall-time spans and JSONL trace export.
//
// OBS_SPAN("waterfill.round") opens a RAII span: on scope exit its duration
// lands in the registry histogram of the same name (obs/obs.hpp), and — when
// a trace sink is attached via start_trace() — a Chrome-trace "complete"
// event {"name", "ph":"X", "ts", "dur", "pid", "tid"} is enqueued on the
// calling thread's lock-free SPSC ring buffer. Rings drain to the sink file
// (one JSON object per line) when full, on thread exit, and at stop_trace().
// docs/OBSERVABILITY.md explains how to open the output in about:tracing or
// Perfetto.
//
// Span names must be string literals (or otherwise outlive the trace
// session): the ring stores pointers, not copies.
//
// With CLOSFAIR_OBS=OFF everything here is an inline no-op and OBS_SPAN
// expands to nothing.
#pragma once

#include <cstdint>
#include <string>

#include "obs/obs.hpp"

namespace closfair {
namespace obs {

#if CLOSFAIR_OBS_ENABLED

/// Attach a JSONL trace sink. Returns false (and stays inactive) if `path`
/// cannot be opened, or if a session is already active.
[[nodiscard]] bool start_trace(const std::string& path);

/// Flush every thread's ring buffer and close the sink. No-op when inactive.
void stop_trace();

/// Whether a trace session is currently attached.
[[nodiscard]] bool trace_active() noexcept;

/// Monotonic nanoseconds (steady clock) — the time base of all spans.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Append one Chrome-trace complete event as a JSONL line:
/// {"name","ph":"X","ts","dur","pid":1,"tid"}, with ts/dur in microseconds.
/// The one event writer behind both the span stream and
/// obs::rt::dump_chrome_jsonl; each caller picks its own time base and tid.
void append_chrome_event(std::string& out, const std::string& name, std::uint64_t ts_ns,
                         std::uint64_t dur_ns, std::uint64_t tid);

/// RAII scope: records wall time into `hist` on destruction and, when a
/// trace session is active, emits a trace event named `name`. Use through
/// OBS_SPAN, which wires up the magic-static histogram.
class Span {
 public:
  Span(const char* name, Histogram& hist) noexcept
      : name_(name), hist_(&hist), start_ns_(now_ns()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

 private:
  void finish() noexcept;

  const char* name_;
  Histogram* hist_;
  std::uint64_t start_ns_;
};

#else  // !CLOSFAIR_OBS_ENABLED

inline bool start_trace(const std::string&) { return false; }
inline void stop_trace() {}
inline bool trace_active() noexcept { return false; }
inline std::uint64_t now_ns() noexcept { return 0; }

#endif  // CLOSFAIR_OBS_ENABLED

}  // namespace obs
}  // namespace closfair

#if CLOSFAIR_OBS_ENABLED

#define CF_OBS_CONCAT_INNER(a, b) a##b
#define CF_OBS_CONCAT(a, b) CF_OBS_CONCAT_INNER(a, b)

/// Scoped timer + trace span. Declares block-scope locals; `name` must be a
/// string literal.
#define OBS_SPAN(name)                                                       \
  static ::closfair::obs::Histogram& CF_OBS_CONCAT(cf_obs_span_hist_,        \
                                                   __LINE__) =               \
      ::closfair::obs::Registry::instance().histogram(name);                 \
  const ::closfair::obs::Span CF_OBS_CONCAT(cf_obs_span_, __LINE__)(         \
      name, CF_OBS_CONCAT(cf_obs_span_hist_, __LINE__))

#else

#define OBS_SPAN(name) static_assert(true, "")

#endif  // CLOSFAIR_OBS_ENABLED
