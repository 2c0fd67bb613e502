#include "wire/server.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <deque>
#include <functional>
#include <ostream>
#include <sstream>
#include <utility>

#include "io/json_export.hpp"
#include "obs/obs.hpp"
#include "obs/rt.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "wire/protocol.hpp"

namespace closfair::wire {
namespace {

void set_tcp_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// send() the whole buffer; false on a dead peer. MSG_NOSIGNAL: a client
/// that vanished mid-response must not SIGPIPE the server.
bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// run_until_signal() plumbing: the handler may only touch async-signal-safe
// state, so it writes one byte into a static pipe the waiting thread reads.
int g_signal_pipe[2] = {-1, -1};

void drain_signal_handler(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

/// The one evaluation pool behind both front ends: a FIFO of admitted
/// evaluations, each run by Pipeline::evaluate on one of at most `workers`
/// threads. A thread starts with each submitted job until the count is
/// reached, so a batch of only hits or parse errors spawns none and workers
/// start while admission still runs. depth() — the watermark input — counts
/// jobs pending or executing: it rises at submit and falls once evaluate
/// returns, before the job's `done` step. finish() runs every queued job,
/// then joins; nothing may be submitted after it.
class EvalPool {
 public:
  explicit EvalPool(unsigned workers) : workers_(std::max(workers, 1u)) {}
  ~EvalPool() { finish(); }

  /// Queue `admission` for `pipeline`. `done` runs on the worker after
  /// evaluate returns, and must keep `pipeline` alive until then.
  void submit(Pipeline& pipeline, Pipeline::Admission admission,
              std::function<void()> done) {
    const std::size_t depth = depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    OBS_GAUGE_SET("wire.eval_queue_depth", depth);
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(Job{&pipeline, std::move(admission), std::move(done)});
      if (threads_.size() < workers_) threads_.emplace_back([this] { work(); });
    }
    cv_.notify_one();
  }

  [[nodiscard]] std::size_t depth() const { return depth_.load(std::memory_order_relaxed); }

  void finish() {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      finishing_ = true;
      threads.swap(threads_);
    }
    cv_.notify_all();
    for (std::thread& thread : threads) thread.join();
  }

 private:
  struct Job {
    Pipeline* pipeline;
    Pipeline::Admission admission;
    std::function<void()> done;
  };

  void work() {
    while (true) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !jobs_.empty() || finishing_; });
      if (jobs_.empty()) return;  // finishing, and nothing left to run
      Job job = std::move(jobs_.front());
      jobs_.pop_front();
      lock.unlock();
      job.pipeline->evaluate(std::move(job.admission));
      const std::size_t depth = depth_.fetch_sub(1, std::memory_order_relaxed) - 1;
      OBS_GAUGE_SET("wire.eval_queue_depth", depth);
      job.done();
    }
  }

  const unsigned workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  std::vector<std::thread> threads_;
  bool finishing_ = false;
  std::atomic<std::size_t> depth_{0};
};

void answer_batch(svc::ResultCache& cache, unsigned workers,
                  const std::vector<std::string>& lines, std::ostream& out) {
  Pipeline pipeline(cache, PipelineLimits{std::max<std::size_t>(lines.size(), 1)});
  struct Progress {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t completed = 0;
  } progress;
  EvalPool pool(workers);  // joined before `pipeline` and `progress` go
  for (const std::string& line : lines) {
    Pipeline::Admission admission = pipeline.admit(line);
    if (!admission.evaluate) continue;
    pool.submit(pipeline, std::move(admission), [&progress] {
      {
        std::lock_guard<std::mutex> lock(progress.mu);
        ++progress.completed;
      }
      progress.cv.notify_one();
    });
  }

  // Stream responses as their seq prefix becomes ready.
  std::uint64_t seen = 0;
  while (true) {
    for (const std::string& payload : pipeline.take_ready()) out << payload << '\n';
    pipeline.commit_written();
    if (pipeline.idle()) break;
    std::unique_lock<std::mutex> lock(progress.mu);
    progress.cv.wait(lock, [&] { return progress.completed != seen; });
    seen = progress.completed;
  }
}

std::vector<std::string> answer_batch(svc::ResultCache& cache, unsigned workers,
                                      const std::vector<std::string>& lines) {
  std::ostringstream out;
  answer_batch(cache, workers, lines, out);
  std::vector<std::string> responses;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) responses.push_back(line);
  return responses;
}

/// Per-connection state: the socket, the deterministic pipeline, and the
/// reader/writer thread pair. Each pool job's `done` step holds a
/// shared_ptr, so a completion can always deliver, even into a connection
/// that is tearing down.
struct Server::Connection {
  int fd = -1;
  Pipeline pipeline;
  std::thread reader;
  std::thread writer;

  std::mutex mu;                 ///< guards wakeups + flags below
  std::condition_variable cv;    ///< writer wakeups
  std::uint64_t wakeups = 0;
  bool reading_done = false;
  bool dead = false;             ///< write side failed; discard instead of send
  std::string protocol_error;    ///< oversized frame: final response, then close
  std::atomic<bool> finished{false};

  Connection(int fd_in, svc::ResultCache& cache, PipelineLimits limits,
             std::uint64_t conn_id)
      : fd(fd_in), pipeline(cache, limits, conn_id) {}

  void wake(bool done_reading = false) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++wakeups;
      if (done_reading) reading_done = true;
    }
    cv.notify_one();
  }
};

Server::Server(svc::ResultCache& cache, ServerOptions options)
    : cache_(cache), options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  pool_ = std::make_unique<EvalPool>(options_.workers);
}

Server::~Server() { drain(); }

std::size_t Server::queue_depth() const { return pool_->depth(); }

void Server::start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    CF_CHECK_MSG(!started_, "Server::start() called twice");
    started_ = true;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw WireError("socket(): " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    throw WireError("not an IPv4 address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw WireError("bind(" + options_.host + ":" + std::to_string(options_.port) +
                    "): " + std::string(strerror(errno)));
  }
  if (::listen(listen_fd_, 128) < 0) {
    throw WireError("listen(): " + std::string(strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  start_ns_ = obs::now_ns();

  if (::pipe(wake_fds_) < 0) {
    throw WireError("pipe(): " + std::string(strerror(errno)));
  }

  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // drain() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    set_tcp_nodelay(fd);
    const std::uint64_t conn_id =
        conns_accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
    OBS_COUNTER_INC("wire.conns_accepted");

    auto conn = std::make_shared<Connection>(
        fd, cache_, PipelineLimits{options_.max_inflight_per_conn},
        conn_id);
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    conn->writer = std::thread([this, conn] { writer_loop(conn); });
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      reap_finished_locked();
      conns_.push_back(std::move(conn));
      obs::Registry::instance().gauge("wire.conns_active").set(
          static_cast<std::int64_t>(conns_.size()));
    }
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  FrameDecoder decoder(options_.max_frame_bytes);
  std::vector<char> buf(64 * 1024);
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, peer reset, or drain()'s SHUT_RD
    // One arrival stamp per recv() batch: every frame it delivered was on
    // the wire by this tick, so the gap to its admit() entry is read time.
    const std::uint64_t recv_ns = obs::now_ns();
    try {
      decoder.feed(buf.data(), static_cast<std::size_t>(n));
      while (auto frame = decoder.next()) {
        if (is_admin_verb(*frame)) {
          // Admin verbs bypass parse/shed entirely — they must answer even
          // (especially) when the data plane is overloaded — but flow
          // through the pipeline's seq order like any response.
          OBS_COUNTER_INC("wire.admin_requests");
          conn->pipeline.admit_ready(admin_response(*frame));
          conn->wake();
          continue;
        }
        const bool shed = pool_->depth() >= options_.queue_high_watermark;
        Pipeline::Admission admission =
            conn->pipeline.admit(*frame, shed, recv_ns);
        if (admission.evaluate) {
          pool_->submit(conn->pipeline, std::move(admission), [conn] { conn->wake(); });
        }
        conn->wake();  // non-evaluate admissions are ready immediately
      }
    } catch (const WireError& e) {
      // Oversized frame: the stream is unrecoverable. Flush what was
      // admitted, append one final error response, close.
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->protocol_error = e.what();
      }
      break;
    }
  }
  conn->wake(/*done_reading=*/true);
}

void Server::writer_loop(const std::shared_ptr<Connection>& conn) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      // Every state change (admission, completion, EOF, write failure)
      // bumps wakeups, so waiting on the counter alone cannot miss an event
      // or busy-spin on a level-triggered flag.
      conn->cv.wait(lock, [&] { return conn->wakeups != seen; });
      seen = conn->wakeups;
    }
    const std::vector<std::string> payloads = conn->pipeline.take_ready();
    if (!payloads.empty()) {
      std::string frames;
      bool oversized = false;
      for (const std::string& payload : payloads) {
        try {
          append_frame(frames, payload, options_.max_frame_bytes);
        } catch (const WireError&) {
          // The throw happens before any header byte lands, so every frame
          // already in `frames` is complete: flush those, then give up on
          // the connection — the peer could never decode this response.
          oversized = true;
          break;
        }
      }
      bool dead;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (oversized) conn->dead = true;
        dead = conn->dead && !oversized;
      }
      if (!dead && !send_all(conn->fd, frames)) {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->dead = true;
        // Kick the reader out of recv(): a peer we cannot write to is gone.
        ::shutdown(conn->fd, SHUT_RD);
      }
      // Seal the drained traces (write stage ends here) and publish them to
      // the flight recorder — even for a dead peer, where the write is the
      // failed attempt.
      conn->pipeline.commit_written();
    }
    std::unique_lock<std::mutex> lock(conn->mu);
    if ((conn->reading_done && conn->pipeline.idle()) || conn->dead) {
      if (!conn->protocol_error.empty() && !conn->dead) {
        send_all(conn->fd,
                 encode_frame(render_parse_error(Json::null(), conn->protocol_error)));
      }
      break;
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->finished.store(true);
}

void Server::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = **it;
    if (conn.finished.load()) {
      if (conn.reader.joinable()) conn.reader.join();
      if (conn.writer.joinable()) conn.writer.join();
      ::close(conn.fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  obs::Registry::instance().gauge("wire.conns_active").set(
      static_cast<std::int64_t>(conns_.size()));
}

void Server::drain() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!started_ || drained_) return;
  drained_ = true;
  draining_.store(true);
  OBS_SPAN("wire.drain");
  const std::uint64_t t0 = obs::now_ns();

  // 1. Stop accepting: wake the acceptor and close the listen socket.
  {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);

  // 2. Half-close every connection's read side: readers see EOF, so nothing
  // new is admitted, but every admitted request still gets its response.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  for (const auto& conn : conns) ::shutdown(conn->fd, SHUT_RD);
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }

  // 3. Let the pool run every queued evaluation, then retire its workers.
  pool_->finish();

  // 4. Writers flush the last responses and exit on pipeline idle.
  for (const auto& conn : conns) {
    if (conn->writer.joinable()) conn->writer.join();
    ::close(conn->fd);
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  obs::Registry::instance().gauge("wire.conns_active").set(0);
  obs::Registry::instance().gauge("wire.drain_ns").set(
      static_cast<std::int64_t>(obs::now_ns() - t0));
}

std::string Server::admin_response(std::string_view verb) {
  Json response = Json::object();
  response.set("admin", Json::string(std::string(verb)));
  if constexpr (!obs::kEnabled) {
    // Well-formed, self-describing refusal: the admin plane stays reachable
    // in OBS=OFF builds, it just has nothing to report.
    response.set("error",
                 Json::string("observability disabled (CLOSFAIR_OBS=OFF)"));
    return response.dump();
  } else {
    if (verb == "metricsz") {
      response.set("metrics",
                   metrics_to_json(obs::Registry::instance().snapshot()));
    } else if (verb == "statusz") {
      std::size_t active = 0;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        active = conns_.size();
      }
      response.set("uptime_ns", Json::number(static_cast<std::int64_t>(
                                    obs::now_ns() - start_ns_)));
      response.set("workers", Json::number(static_cast<std::int64_t>(options_.workers)));
      response.set("draining", Json::boolean(draining_.load()));
      response.set("conns_active",
                   Json::number(static_cast<std::int64_t>(active)));
      response.set("conns_accepted", Json::number(static_cast<std::int64_t>(
                                         conns_accepted_.load())));
      response.set("queue_depth", Json::number(static_cast<std::int64_t>(
                                      pool_->depth())));
      response.set("queue_high_watermark",
                   Json::number(static_cast<std::int64_t>(
                       options_.queue_high_watermark)));
      response.set("max_inflight_per_conn",
                   Json::number(static_cast<std::int64_t>(
                       options_.max_inflight_per_conn)));
      response.set("overload_sheds",
                   Json::number(static_cast<std::int64_t>(
                       obs::Registry::instance()
                           .counter("wire.overload_sheds")
                           .total())));
      response.set("cache_size", Json::number(static_cast<std::int64_t>(
                                     cache_.size())));
      response.set("cache_capacity", Json::number(static_cast<std::int64_t>(
                                         cache_.capacity())));
    } else {  // tracez (is_admin_verb gated the dispatch)
      const obs::rt::FlightRecorder& recorder =
          obs::rt::FlightRecorder::instance();
      response.set("slow_threshold_ns", Json::number(static_cast<std::int64_t>(
                                            recorder.slow_threshold_ns())));
      Json recent = Json::array();
      for (const obs::rt::RequestTrace& trace : recorder.recent()) {
        recent.push_back(obs::rt::trace_to_json(trace));
      }
      response.set("recent", std::move(recent));
      Json shame = Json::array();
      for (const obs::rt::RequestTrace& trace : recorder.shame()) {
        shame.push_back(obs::rt::trace_to_json(trace));
      }
      response.set("shame", std::move(shame));
    }
    return response.dump();
  }
}

void Server::run_until_signal() {
  if (g_signal_pipe[0] < 0) {
    CF_CHECK_MSG(::pipe(g_signal_pipe) == 0, "signal pipe creation failed");
  }
  struct sigaction action {};
  action.sa_handler = drain_signal_handler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  drain();
}

}  // namespace closfair::wire
