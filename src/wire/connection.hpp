// closfair::wire — the per-connection request pipeline.
//
// A Pipeline owns everything about one request stream except its transport:
// sequence numbering, the deterministic admission pre-pass (parse → overload
// shed → in-flight dedup → cache lookup → in-flight budget), the reorder
// buffer that turns out-of-order worker completions back into in-order
// responses, and the seq-order cache commit. It is the only engine that
// turns request lines into response lines: wire::Server runs one per
// connection, and wire::answer_batch (server.hpp) runs one per batch.
//
// Determinism contract (docs/SERVICE.md): for a fixed request stream, the
// response byte stream is identical for every worker count. All cache/dedup
// decisions happen in arrival order on the admitting thread, workers only
// fill pre-assigned slots, and results commit to the cache in sequence order
// when their response becomes writable. Worker scheduling can change *when*
// a response is ready, never its bytes or the cache's eviction order. Batch
// mode admits every line before its first take_ready(), so every lookup
// precedes every commit; over a socket the reader admits as frames arrive.
// (Across concurrent connections sharing one cache the interleaving is the
// arrival order the kernel delivered — each stream still sees coherent
// results, but cached-flag provenance is then genuinely load-dependent.)
//
// Thread-safety: all methods lock one internal mutex. The intended callers
// are the admitting thread (admit), any worker thread (evaluate / complete),
// and the draining thread (take_ready).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/rt.hpp"
#include "svc/cache.hpp"
#include "svc/spec.hpp"
#include "util/json.hpp"

namespace closfair::wire {

struct PipelineLimits {
  /// Evaluations admitted but not yet completed before admit() sheds with an
  /// overload response. Cache hits, duplicates, and parse errors never count
  /// against the budget — they consume no worker.
  std::size_t max_inflight = 64;
};

class Pipeline {
 public:
  /// `conn_id` labels this pipeline's request traces (flight recorder /
  /// tracez); 0 is fine for batch or test use.
  Pipeline(svc::ResultCache& cache, PipelineLimits limits = {},
           std::uint64_t conn_id = 0);

  /// What admit() decided for one request line.
  struct Admission {
    std::uint64_t seq = 0;
    bool evaluate = false;    ///< caller must evaluate `spec`, then complete(seq)
    svc::ScenarioSpec spec;   ///< valid only when `evaluate`
    /// A delta's pinned base entry: its canonical and result bytes stay
    /// valid, and the entry unevictable, until evaluate() releases the pin.
    std::optional<svc::ResultCache::BasePin> base;
  };

  /// Admit the next request line, in arrival order. `shed` additionally
  /// forces an overload response (the server passes its global queue-depth
  /// watermark verdict). When the returned Admission has evaluate == false
  /// the response is already queued for take_ready(). `recv_ns` is the
  /// recv() tick that delivered the line (the trace's arrival time; 0 =
  /// stamp on entry).
  ///
  /// Delta request lines ({"base","patch"}) resolve here, in arrival order:
  /// the base is pinned from the shared cache, or — when it is still in
  /// flight *on this pipeline* (admitted but not yet taken; in batch mode,
  /// any earlier line) — its canonical bytes are read from the pending slot
  /// whose recorded hash matches (the patch then applies but evaluation
  /// runs cold; warm and cold are byte-identical, so the response stream
  /// cannot tell the difference). The patched spec then walks the same
  /// dedup → cache → budget ladder as a direct spec, so delta traffic never
  /// perturbs data-plane byte identity. Resolution failures (unknown base,
  /// patch does not apply) respond like parse errors: no hash existed to
  /// report.
  [[nodiscard]] Admission admit(std::string_view line, bool shed = false,
                                std::uint64_t recv_ns = 0);

  /// Queue an already-rendered response payload (the admin plane's
  /// metricsz/statusz/tracez answers) at the next seq, so it interleaves
  /// into the response stream in arrival order like any data-plane request.
  void admit_ready(std::string payload);

  /// Run an admitted evaluation on the calling worker thread and complete()
  /// its seq with the rendered result bytes or the error. A delta whose
  /// base is pinned and whose patch only switched the objective
  /// (svc::reuses_base_result) copies the base's bytes; anything else is
  /// evaluated cold and rendered here, outside the pipeline lock — the only
  /// place the pipeline renders a result. A failure counts as svc.errors;
  /// every run counts as wire.evaluations.
  void evaluate(Admission admission);

  /// Deliver an evaluation outcome for an admitted seq (evaluate() calls
  /// this; tests may call it directly). `result` is the rendered result
  /// (ScenarioResult::to_json().dump()); `error` non-empty means the
  /// evaluation failed. Duplicates waiting on this seq are fulfilled either
  /// way, each by splicing the same bytes into its own envelope. `stamps`
  /// carries the worker's dequeue / evaluation-done ticks for the stage
  /// breakdown (empty under OBS=OFF).
  void complete(std::uint64_t seq, std::string result, std::string error,
                obs::rt::WorkerStamps stamps = {});

  /// Drain every response that is ready *and* next in sequence order,
  /// moving first-occurrence result bytes into the cache as they pass.
  /// Returns unframed response payloads, oldest first.
  [[nodiscard]] std::vector<std::string> take_ready();

  /// Tell the pipeline the payloads from the last take_ready() batch have
  /// been written out: their traces get the write stage charged and are
  /// published to the flight recorder. No-op under OBS=OFF.
  void commit_written();

  /// Evaluations admitted but not yet completed.
  [[nodiscard]] std::size_t inflight() const;

  /// True when every admitted request has been returned by take_ready().
  [[nodiscard]] bool idle() const;

  /// Overload responses issued so far (budget or shed).
  [[nodiscard]] std::uint64_t overloads() const;

 private:
  enum class State {
    kReady,        ///< payload rendered, waiting for its turn in seq order
    kEvaluating,   ///< handed to a worker; complete() pending
    kAwaitingDup,  ///< duplicate of an earlier in-flight seq
  };

  struct Slot {
    Json id;
    std::uint64_t hash = 0;
    State state = State::kReady;
    std::string payload;          ///< rendered response (kReady)
    std::string canonical;        ///< non-empty for first-occurrence evaluations
    std::string result;           ///< completed result bytes awaiting seq-order commit
    std::string error;            ///< completed error (for late duplicates)
    bool ok = false;              ///< result valid (vs. error) after complete()
    bool admin = false;           ///< admin-plane response (admit_ready); kept
                                  ///< out of the wire.requests/responses counters
    std::vector<std::uint64_t> waiters;  ///< duplicate seqs fulfilled on complete
    [[no_unique_address]] obs::rt::RequestTrace trace;  ///< empty under OBS=OFF
  };

  mutable std::mutex mu_;
  svc::ResultCache& cache_;
  PipelineLimits limits_;
  std::uint64_t conn_id_ = 0;
  /// Traces drained by take_ready(), awaiting commit_written(). Never
  /// touched under OBS=OFF (no per-request work or allocation).
  std::vector<obs::rt::RequestTrace> pending_write_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_write_ = 0;
  std::uint64_t inflight_ = 0;
  std::uint64_t overloads_ = 0;
  std::map<std::uint64_t, Slot> slots_;  ///< ordered: take_ready walks from next_write_
  std::unordered_map<std::string, std::uint64_t> pending_;  ///< canonical -> first seq
};

}  // namespace closfair::wire
