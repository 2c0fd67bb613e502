// closfair::wire — the two front ends of the request Pipeline over a shared
// svc::ResultCache: answer_batch (in process, batch mode) and the persistent
// TCP server.
//
// Both hand their admitted evaluations to one evaluation pool (EvalPool,
// server.cpp): a FIFO of (Pipeline, Admission) jobs whose threads start as
// evaluations arrive, up to the worker count, and which runs every queued
// job before it joins. A front end supplies only the step after
// Pipeline::evaluate — batch mode signals its draining loop, the server
// wakes the connection's writer.
//
// The server: one acceptor thread hands long-lived connections to a
// reader/writer thread pair each; evaluations from every connection funnel
// into the one pool. Each connection's Pipeline (connection.hpp) keeps the
// deterministic admission order and reorders out-of-order completions back
// into sequence-order responses, so a socket client gets the bytes
// answer_batch writes for the same lines.
//
// Admission control is two-level: a per-connection in-flight budget
// (PipelineLimits) and a global high watermark on the pool's depth (pending
// plus executing evaluations). Either trips an explicit {"overload":true,...}
// response instead of unbounded buffering — memory is bounded by
// (connections x budget) regardless of offered load.
//
// Graceful drain (SIGTERM via run_until_signal(), or drain() directly):
// stop accepting, half-close every connection's read side so no new
// requests are admitted, let the pool finish everything already admitted,
// flush every response, then join. Drain wall time lands in the
// wire.drain_ns gauge.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/cache.hpp"
#include "wire/connection.hpp"
#include "wire/framing.hpp"

namespace closfair::wire {

class EvalPool;

/// Batch mode: answer `lines` (one request line each, blank lines already
/// dropped) through one Pipeline over `cache`, writing one response line per
/// request to `out`, in order. Every line is admitted before the first
/// response is taken, so every cache lookup and delta resolution precedes
/// every commit; admitted evaluations run on up to `workers` pool threads,
/// which start while admission is still going. The in-flight budget is the
/// line count, so nothing is ever shed. While the cache does not evict, the
/// bytes equal what a socket client sending the same lines on one
/// connection receives.
void answer_batch(svc::ResultCache& cache, unsigned workers,
                  const std::vector<std::string>& lines, std::ostream& out);

/// answer_batch collected in memory: the response lines, in request order.
[[nodiscard]] std::vector<std::string> answer_batch(svc::ResultCache& cache, unsigned workers,
                                                    const std::vector<std::string>& lines);

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the choice via port()
  unsigned workers = 1;    ///< evaluation threads (>= 1)
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::size_t max_inflight_per_conn = 64;   ///< per-connection admission budget
  std::size_t queue_high_watermark = 256;   ///< global pending-eval shed threshold
};

class Server {
 public:
  /// The cache outlives the server; it is shared across every connection
  /// (and with any batch-mode use of the same cache).
  Server(svc::ResultCache& cache, ServerOptions options = {});
  ~Server();  ///< drains if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the acceptor; pool workers start as
  /// evaluations arrive. Throws WireError when the address cannot be bound.
  void start();

  /// The bound port (valid after start(); resolves port 0 choices).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Graceful drain; idempotent, safe from any non-signal thread.
  void drain();

  /// Install SIGTERM/SIGINT handlers and block until one arrives (or
  /// drain() is called from elsewhere), then drain. One server per process.
  void run_until_signal();

  [[nodiscard]] bool draining() const { return draining_.load(); }

  /// Pending + executing evaluations across all connections (the watermark
  /// input).
  [[nodiscard]] std::size_t queue_depth() const;

  [[nodiscard]] std::uint64_t connections_accepted() const {
    return conns_accepted_.load();
  }

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void writer_loop(const std::shared_ptr<Connection>& conn);
  void reap_finished_locked();

  /// Render the response payload for an admin verb (metricsz / statusz /
  /// tracez). Under OBS=OFF every verb answers a well-formed
  /// "observability disabled" error object instead.
  [[nodiscard]] std::string admin_response(std::string_view verb);

  svc::ResultCache& cache_;
  ServerOptions options_;
  std::uint16_t port_ = 0;
  std::uint64_t start_ns_ = 0;  ///< start() tick; statusz uptime base
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: drain() wakes the acceptor
  std::thread acceptor_;
  std::unique_ptr<EvalPool> pool_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool drained_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> conns_accepted_{0};
};

}  // namespace closfair::wire
