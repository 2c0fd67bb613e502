#include "wire/connection.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "svc/service.hpp"
#include "util/check.hpp"
#include "wire/protocol.hpp"

namespace closfair::wire {

Pipeline::Pipeline(svc::ResultCache& cache, PipelineLimits limits,
                   std::uint64_t conn_id)
    : cache_(cache), limits_(limits), conn_id_(conn_id) {
  CF_CHECK_MSG(limits_.max_inflight >= 1, "Pipeline max_inflight must be >= 1");
}

Pipeline::Admission Pipeline::admit(std::string_view line, bool shed,
                                    std::uint64_t recv_ns) {
  // Parse outside the lock: admit() is only ever called from the
  // connection's reader thread, so arrival order is the call order either
  // way, and workers completing into other slots are not held up by spec
  // canonicalization.
  [[maybe_unused]] const std::uint64_t entry_ns = obs::now_ns();
  Request request = parse_request(line);
  [[maybe_unused]] const std::uint64_t parsed_ns = obs::now_ns();
  std::string canonical;
  std::uint64_t hash = 0;
  if (request.spec.has_value()) {
    canonical = request.spec->canonical();
    hash = svc::fnv1a64(canonical);
  }

  std::lock_guard<std::mutex> lock(mu_);
  OBS_COUNTER_INC("wire.requests");
  Admission admission;
  admission.seq = next_seq_++;
  Slot slot;
  slot.id = request.id;
  slot.trace.begin(conn_id_, admission.seq, recv_ns != 0 ? recv_ns : entry_ns);
  slot.trace.mark_at(obs::rt::Stage::kRead, entry_ns);
  slot.trace.mark_at(obs::rt::Stage::kParse, parsed_ns);

  // Delta resolution runs under the pipeline lock, in arrival order — the
  // pending set IS this connection's in-flight view, so a delta pipelined
  // behind its own base always finds it: either committed (pinned, warm) or
  // still pending (cold evaluation of the patched spec; byte-identical).
  std::optional<svc::ResultCache::BasePin> base;
  if (request.is_delta()) {
    const auto inflight_base = [this](std::uint64_t want) -> std::optional<std::string> {
      // Pending first occurrences are exactly the slots holding a canonical.
      for (const auto& [seq, pending] : slots_) {
        if (!pending.canonical.empty() && pending.hash == want) return pending.canonical;
      }
      return std::nullopt;
    };
    svc::DeltaResolution res = svc::resolve_delta(cache_, *request.delta, inflight_base);
    if (res.ok()) {
      canonical = res.spec.canonical();
      hash = svc::fnv1a64(canonical);
      request.spec = std::move(res.spec);
      base = std::move(res.base);
    } else {
      // Resolution failed before a patched spec existed: answer like a
      // parse error (no hash).
      request.spec.reset();
      request.error = std::move(res.error);
    }
  }
  slot.hash = hash;

  if (!request.spec.has_value()) {
    OBS_COUNTER_INC("wire.parse_errors");
    slot.trace.set_outcome(obs::rt::Outcome::kParseError);
    slot.payload = render_parse_error(slot.id, request.error);
  } else if (const auto it = pending_.find(canonical); it != pending_.end()) {
    // Duplicate of an in-flight (or completed-but-uncommitted) evaluation:
    // never re-evaluates.
    OBS_COUNTER_INC("wire.dedup_hits");
    if (request.is_delta()) OBS_COUNTER_INC("svc.delta_hits");
    slot.trace.set_outcome(obs::rt::Outcome::kDeduped);
    Slot& first = slots_.at(it->second);
    if (first.state == State::kEvaluating) {
      slot.state = State::kAwaitingDup;
      first.waiters.push_back(admission.seq);
    } else if (first.ok) {
      slot.payload = render_result(slot.id, hash, /*cached=*/true, first.result);
    } else {
      // First occurrence already completed with an error but has not been
      // committed (written) yet; render the same error for this seq now.
      slot.payload = render_eval_error(slot.id, hash, first.error);
    }
  } else if (const auto hit = cache_.find(canonical); hit.has_value()) {
    if (request.is_delta()) OBS_COUNTER_INC("svc.delta_hits");
    slot.trace.set_outcome(obs::rt::Outcome::kCached);
    slot.payload = render_result(slot.id, hash, /*cached=*/true, *hit);
  } else if (shed || inflight_ >= limits_.max_inflight) {
    OBS_COUNTER_INC("wire.overload_sheds");
    slot.trace.set_outcome(obs::rt::Outcome::kOverload);
    ++overloads_;
    slot.payload = render_overload(
        slot.id, shed ? "server overloaded: evaluation queue is over its watermark"
                      : "server overloaded: connection in-flight budget exhausted");
  } else {
    slot.state = State::kEvaluating;
    slot.canonical = canonical;
    pending_.emplace(std::move(canonical), admission.seq);
    ++inflight_;
    admission.evaluate = true;
    admission.spec = std::move(*request.spec);
    admission.base = std::move(base);
  }
  slot.trace.mark(obs::rt::Stage::kAdmit);

  slots_.emplace(admission.seq, std::move(slot));
  OBS_GAUGE_SET("wire.pipeline_depth", slots_.size());
  return admission;
}

void Pipeline::admit_ready(std::string payload) {
  [[maybe_unused]] const std::uint64_t entry_ns = obs::now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t seq = next_seq_++;
  Slot slot;
  slot.admin = true;
  slot.trace.begin(conn_id_, seq, entry_ns);
  slot.trace.set_outcome(obs::rt::Outcome::kAdmin);
  slot.trace.mark(obs::rt::Stage::kAdmit);
  slot.payload = std::move(payload);
  slots_.emplace(seq, std::move(slot));
  OBS_GAUGE_SET("wire.pipeline_depth", slots_.size());
}

void Pipeline::evaluate(Admission admission) {
  obs::rt::WorkerStamps stamps = obs::rt::begin_work();
  std::string result;
  std::string error;
  try {
    // Reusing the base's bytes is byte-identical to a cold evaluation by
    // construction, so the response stream cannot tell which one ran.
    if (admission.base.has_value() &&
        svc::reuses_base_result(admission.spec, admission.base->canonical())) {
      result = admission.base->bytes();
    } else {
      result = svc::evaluate_scenario(admission.spec).to_json().dump();
    }
  } catch (const std::exception& e) {
    OBS_COUNTER_INC("svc.errors");
    error = e.what();
  }
  admission.base.reset();  // release the base pin as soon as the result exists
  obs::rt::end_work(stamps);
  OBS_COUNTER_INC("wire.evaluations");
  complete(admission.seq, std::move(result), std::move(error), stamps);
}

void Pipeline::complete(std::uint64_t seq, std::string result, std::string error,
                        obs::rt::WorkerStamps stamps) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_.at(seq);
  CF_CHECK_MSG(slot.state == State::kEvaluating, "complete() on a non-evaluating seq");
  // Queue-wait ends at the worker's dequeue tick, evaluation at its done
  // tick; the remaining gap up to the writer's drain falls into
  // reorder-wait (mark_at clamps, so a stale stamp can never go backwards).
  slot.trace.mark_at(obs::rt::Stage::kQueueWait, stamps.dequeue_ns);
  slot.trace.mark_at(obs::rt::Stage::kEvaluate, stamps.eval_done_ns);
  if (!error.empty()) slot.trace.set_outcome(obs::rt::Outcome::kEvalError);
  slot.ok = error.empty();
  slot.result = std::move(result);
  slot.error = std::move(error);
  slot.payload = slot.ok
                     ? render_result(slot.id, slot.hash, /*cached=*/false, slot.result)
                     : render_eval_error(slot.id, slot.hash, slot.error);
  slot.state = State::kReady;
  --inflight_;
  for (const std::uint64_t waiter_seq : slot.waiters) {
    Slot& waiter = slots_.at(waiter_seq);
    waiter.payload =
        slot.ok ? render_result(waiter.id, waiter.hash, /*cached=*/true, slot.result)
                : render_eval_error(waiter.id, waiter.hash, slot.error);
    waiter.state = State::kReady;
  }
  slot.waiters.clear();
}

std::vector<std::string> Pipeline::take_ready() {
  [[maybe_unused]] const std::uint64_t drain_ns = obs::now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  while (true) {
    const auto it = slots_.find(next_write_);
    if (it == slots_.end() || it->second.state != State::kReady) break;
    Slot& slot = it->second;
    if (!slot.canonical.empty()) {
      // Seq-order commit: cache insertion (and with it LRU recency and any
      // eviction) happens in response order, not completion order.
      if (slot.ok) cache_.insert(slot.canonical, std::move(slot.result));
      pending_.erase(slot.canonical);
    }
    if (!slot.admin) OBS_COUNTER_INC("wire.responses");
    if constexpr (obs::kEnabled) {
      slot.trace.mark_at(obs::rt::Stage::kReorderWait, drain_ns);
      pending_write_.push_back(slot.trace);
    }
    out.push_back(std::move(slot.payload));
    slots_.erase(it);
    ++next_write_;
  }
  OBS_GAUGE_SET("wire.pipeline_depth", slots_.size());
  return out;
}

void Pipeline::commit_written() {
  if constexpr (obs::kEnabled) {
    std::vector<obs::rt::RequestTrace> written;
    {
      std::lock_guard<std::mutex> lock(mu_);
      written.swap(pending_write_);
    }
    const std::uint64_t now = obs::now_ns();
    for (obs::rt::RequestTrace& trace : written) {
      trace.mark_at(obs::rt::Stage::kWrite, now);
      trace.finish();
      obs::rt::FlightRecorder::instance().record(trace);
    }
  }
}

std::size_t Pipeline::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

bool Pipeline::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.empty();
}

std::uint64_t Pipeline::overloads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overloads_;
}

}  // namespace closfair::wire
