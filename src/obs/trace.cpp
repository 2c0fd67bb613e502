#include "obs/trace.hpp"

#if CLOSFAIR_OBS_ENABLED

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "util/json.hpp"

namespace closfair {
namespace obs {
namespace {

constexpr std::size_t kRingCapacity = 4096;  // power of two
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0);

struct TraceEvent {
  const char* name;
  std::uint64_t start_ns;  // absolute steady-clock time
  std::uint64_t dur_ns;
  std::uint32_t tid;
};

// SPSC ring: the owning thread enqueues and bumps `head` (release); whoever
// holds the sink mutex drains [tail, head) and bumps `tail` (release). The
// owner never reuses a slot before observing `tail` past it, so slot
// accesses are ordered by the head/tail handshake alone — the enqueue path
// takes no lock.
struct TraceRing {
  TraceEvent events[kRingCapacity];
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::uint32_t tid = 0;
};

struct TraceState {
  std::atomic<bool> active{false};
  std::atomic<std::uint64_t> session_start_ns{0};
  std::atomic<std::uint32_t> next_tid{0};

  std::mutex sink_mu;  // guards sink + all ring drains
  std::ofstream sink;

  std::mutex rings_mu;  // guards the ring list
  std::vector<TraceRing*> rings;
};

TraceState& state() {
  static TraceState* instance = new TraceState();
  return *instance;
}

// Drain [tail, head) of one ring into the sink. Caller holds sink_mu.
void drain_ring_locked(TraceRing& ring) {
  TraceState& s = state();
  const std::uint64_t start = s.session_start_ns.load(std::memory_order_relaxed);
  std::uint64_t tail = ring.tail.load(std::memory_order_relaxed);
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  std::string out;
  for (; tail != head; ++tail) {
    const TraceEvent& e = ring.events[tail & (kRingCapacity - 1)];
    if (e.start_ns < start) continue;  // stale event from a previous session
    append_chrome_event(out, e.name, e.start_ns - start, e.dur_ns, e.tid);
  }
  s.sink << out;
  ring.tail.store(tail, std::memory_order_release);
}

struct RingHolder {
  TraceRing ring;
  RingHolder() {
    TraceState& s = state();
    ring.tid = s.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(s.rings_mu);
    s.rings.push_back(&ring);
  }
  ~RingHolder() {
    TraceState& s = state();
    {
      std::lock_guard<std::mutex> lock(s.sink_mu);
      if (s.sink.is_open()) drain_ring_locked(ring);
    }
    std::lock_guard<std::mutex> lock(s.rings_mu);
    s.rings.erase(std::remove(s.rings.begin(), s.rings.end(), &ring), s.rings.end());
  }
};

TraceRing& local_ring() {
  thread_local RingHolder holder;
  return holder.ring;
}

}  // namespace

void append_chrome_event(std::string& out, const std::string& name, std::uint64_t ts_ns,
                         std::uint64_t dur_ns, std::uint64_t tid) {
  char fields[128];
  std::snprintf(fields, sizeof fields,
                "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu}\n",
                static_cast<double>(ts_ns) / 1000.0, static_cast<double>(dur_ns) / 1000.0,
                static_cast<unsigned long long>(tid));
  out += "{\"name\":\"";
  out += json_escape(name);
  out += fields;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool trace_active() noexcept {
  return state().active.load(std::memory_order_relaxed);
}

bool start_trace(const std::string& path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.sink_mu);
  if (s.active.load(std::memory_order_relaxed)) return false;
  s.sink.open(path, std::ios::trunc);
  if (!s.sink) return false;
  s.session_start_ns.store(now_ns(), std::memory_order_relaxed);
  s.active.store(true, std::memory_order_release);
  return true;
}

void stop_trace() {
  TraceState& s = state();
  // Stop accepting events first; in-flight emits that already passed the
  // active check either land before the drain below or wait for the next
  // flush (thread exit) and are dropped as stale by the session-start guard.
  s.active.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> rings_lock(s.rings_mu);
  std::lock_guard<std::mutex> sink_lock(s.sink_mu);
  if (!s.sink.is_open()) return;
  for (TraceRing* ring : s.rings) drain_ring_locked(*ring);
  s.sink.close();
}

void Span::finish() noexcept {
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end - start_ns_;
  hist_->record_ns(dur);
  TraceState& s = state();
  if (!s.active.load(std::memory_order_relaxed)) return;
  TraceRing& ring = local_ring();
  std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  if (head - ring.tail.load(std::memory_order_acquire) == kRingCapacity) {
    // Ring full: the owner drains its own backlog to the sink.
    std::lock_guard<std::mutex> lock(s.sink_mu);
    if (s.sink.is_open()) {
      drain_ring_locked(ring);
    } else {
      ring.tail.store(head, std::memory_order_release);  // sink gone; drop
    }
  }
  ring.events[head & (kRingCapacity - 1)] =
      TraceEvent{name_, start_ns_, dur, ring.tid};
  ring.head.store(head + 1, std::memory_order_release);
}

}  // namespace obs
}  // namespace closfair

#endif  // CLOSFAIR_OBS_ENABLED
