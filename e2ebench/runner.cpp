// e2ebench runner: runs one workload against the closfair_serve binary and
// prints one JSON result line (the last line of stdout).
//
//   e2ebench_runner --serve PATH --results DIR --workload NAME --seed N
//                   --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 also replays the
// requests in-process with spans and reports the per-layer metrics instead.
// Every response is verified against a reference computed in-process after
// the timed window; any mismatch fails the run. e2ebench/README.md lists the
// workloads, the metrics, and which layer metric should move which
// end-to-end metric.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fairness/bottleneck.hpp"
#include "flow/allocation.hpp"
#include "flow/routing.hpp"
#include "gen.hpp"
#include "io/text_format.hpp"
#include "layers.hpp"
#include "net/clos.hpp"
#include "replay.hpp"
#include "svc/service.hpp"
#include "wire/client.hpp"
#include "wire/protocol.hpp"

extern char** environ;

namespace e2ebench {
namespace {

using closfair::Json;
namespace fs = std::filesystem;

// ------------------------------------------------------------------ settings

constexpr unsigned kServerWorkers = 2;
constexpr unsigned kConnections = 2;
constexpr unsigned kReferenceThreads = 3;  // with the main thread, <= nproc
constexpr int kSocketSetups = 9;
constexpr int kBatchSetups = 15;
/// sweep_cold: lines per batch invocation, and a cache smaller than that so
/// every invocation inserts past capacity and evicts.
constexpr std::size_t kSweepBatchLines = 600;
constexpr std::size_t kSweepCache = 512;
/// interactive: a cache large enough that no working-set base can age out
/// between two touches, so every delta's base stays resolvable.
constexpr std::size_t kInteractiveCache = 2048;
/// interactive: one request in flight per connection. With more, the server
/// and runner threads saturate the 4 CPUs and the latencies follow the
/// scheduler rather than the server.
constexpr std::size_t kInteractiveWindow = 1;
constexpr std::size_t kPrimeWindow = 32;
constexpr std::size_t kExactSampleCompared = 8;  // per connection, byte-compared
constexpr std::size_t kReplaySweep = 2000;
constexpr std::size_t kReplayExact = 12;
constexpr std::size_t kReplayInteractive = 3000;
/// A measured phase during which the hypervisor stole more than this share
/// of the machine's CPU time is measured again, up to kMaxAttempts times in
/// all (the attempt with the least steal is kept). On this shared machine
/// such episodes last tens of seconds and slow every workload by 40–500%.
constexpr double kMaxStealFrac = 0.05;
constexpr int kMaxAttempts = 3;

struct Args {
  std::string serve;
  std::string results;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// --------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

Json json_array(const std::vector<double>& v) {
  Json a = Json::array();
  for (const double x : v) a.push_back(Json::number(x));
  return a;
}

/// Cumulative CPU ticks of the machine (the first 8 fields of /proc/stat's
/// cpu line; the 8th is steal).
std::vector<double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::vector<double> ticks;
  for (double t = 0; ticks.size() < 8 && stat >> t;) ticks.push_back(t);
  return ticks;
}

/// Fraction of CPU time the hypervisor stole from this machine since
/// `since`, recorded so that noisy runs can be told apart.
double steal_frac(const std::vector<double>& since) {
  const std::vector<double> now = cpu_ticks();
  if (since.size() < 8 || now.size() < 8) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < 8; ++i) total += now[i] - since[i];
  return total > 0 ? (now[7] - since[7]) / total : 0.0;
}

// ------------------------------------------------------------------ process

struct Exit {
  int status = -1;
  double max_rss_mb = 0.0;  ///< the child's VmHWM, from wait4's rusage
};

class Process {
 public:
  Process(const std::vector<std::string>& argv, const std::string& log) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, argv[0].c_str(), &actions, nullptr, cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  }
  ~Process() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait();
    }
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  void terminate() const { ::kill(pid_, SIGTERM); }
  Exit wait() {
    Exit exit;
    rusage usage{};
    int status = 0;
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    exit.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    exit.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
    return exit;
  }

 private:
  pid_t pid_ = -1;
};

/// Peak resident size of a live process (VmHWM of its own address space).
double vm_hwm_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) throw std::runtime_error("launcher pipe broke");
    p += put;
    n -= static_cast<std::size_t>(put);
  }
}

/// Runs batch invocations of closfair_serve from a small process forked
/// before the runner holds any workload. A child's rusage maxrss starts at
/// its parent's resident size when it execs, so spawning from the runner
/// itself would report the runner's memory as the server's peak.
class Launcher {
 public:
  struct Result {
    int status = -1;
    double wall_s = 0.0;  ///< spawn to exit, timed inside the launcher
    double max_rss_mb = 0.0;
  };

  Launcher() {
    int down[2];
    int up[2];
    if (::pipe(down) != 0 || ::pipe(up) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::close(down[1]);
      ::close(up[0]);
      serve(down[0], up[1]);
      ::_exit(0);
    }
    ::close(down[0]);
    ::close(up[1]);
    to_ = down[1];
    from_ = up[0];
  }
  ~Launcher() {
    ::close(to_);
    ::close(from_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  /// argv[0] is the log file for the child's stdout and stderr.
  Result run(const std::vector<std::string>& log_and_argv) {
    std::string message;
    for (const std::string& a : log_and_argv) message += a + '\0';
    const std::uint32_t size = static_cast<std::uint32_t>(message.size());
    write_all(to_, &size, sizeof(size));
    write_all(to_, message.data(), message.size());
    Result result;
    if (!read_all(from_, &result, sizeof(result))) throw std::runtime_error("launcher died");
    return result;
  }

 private:
  [[noreturn]] static void serve(int in, int out) {
    for (std::uint32_t size = 0; read_all(in, &size, sizeof(size));) {
      std::string message(size, '\0');
      if (!read_all(in, message.data(), size)) break;
      std::vector<std::string> args;
      for (std::size_t pos = 0; pos < message.size();) {
        const std::size_t end = message.find('\0', pos);
        args.push_back(message.substr(pos, end - pos));
        pos = end + 1;
      }
      Result result;
      try {
        const std::int64_t t0 = now_ns();
        Process p(std::vector<std::string>(args.begin() + 1, args.end()), args[0]);
        const Exit exit = p.wait();
        result = {exit.status, seconds_since(t0), exit.max_rss_mb};
      } catch (const std::exception&) {
        result.status = 127;
      }
      write_all(out, &result, sizeof(result));
    }
    ::_exit(0);
  }

  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
};

void write_file(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : lines) out << l << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  return lines;
}

// ---------------------------------------------------------------- reference

/// Run fn(i) for i in [0, n) on kReferenceThreads threads.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kReferenceThreads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

/// The response the in-process library gives for a direct spec request
/// evaluated cold.
std::string reference_response(const std::string& line) {
  const closfair::wire::Request r = closfair::wire::parse_request(line);
  if (!r.spec.has_value()) return "reference: request does not parse: " + r.error;
  const std::string canonical = r.spec->canonical();
  return closfair::wire::render_result(r.id, closfair::svc::fnv1a64(canonical), false,
                                       closfair::svc::evaluate_scenario(*r.spec));
}

// -------------------------------------------------------------------- run

struct Outcome {
  std::map<std::string, double> e2e;
  std::map<std::string, double> extra;  ///< reported in the record, not gated
  std::map<std::string, double> layers;
  std::map<std::string, std::size_t> classes;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<ReplayRequest> replay;
  ReplayOptions replay_options;
  double wall_per_request_s = 0.0;
  std::string metricsz;
  Json config = Json::object();
  Json windows = Json::object();  ///< per-window (or per-invocation) figures

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 10) failures.push_back(what.substr(0, 400));
  }
};

struct Context {
  Args args;
  std::string tmp;
  std::string log;
  Launcher* launcher = nullptr;
};

// ------------------------------------------------------------- sweep_cold

void run_sweep(const Context& ctx, Outcome& out) {
  const std::string empty = ctx.tmp + "/empty.jsonl";
  write_file(empty, {});
  const auto batch_argv = [&](const std::string& in, const std::string& result) {
    return std::vector<std::string>{ctx.args.serve, "--workers", std::to_string(kServerWorkers),
                                    "--cache", std::to_string(kSweepCache),
                                    "--in",      in,          "--out", result};
  };
  const auto launch = [&](const std::string& in, const std::string& result) {
    std::vector<std::string> argv = batch_argv(in, result);
    argv.insert(argv.begin(), ctx.log);
    const Launcher::Result r = ctx.launcher->run(argv);
    if (r.status != 0) throw std::runtime_error("closfair_serve batch run failed");
    return r;
  };
  std::vector<double> setup;
  for (int i = 0; i < kBatchSetups; ++i) setup.push_back(launch(empty, ctx.tmp + "/empty.out").wall_s);

  SweepGen gen(ctx.args.seed);
  std::vector<std::vector<Request>> batches;
  std::vector<double> walls;
  double total = 0.0;
  std::vector<double> rss;
  double kept_steal = 0.0;
  int attempt = 1;
  for (;; ++attempt) {
    const std::vector<double> ticks = cpu_ticks();
    std::vector<std::vector<Request>> try_batches;
    std::vector<double> try_walls;
    std::vector<double> try_rss;
    double try_total = 0.0;
    while (try_total < ctx.args.seconds) {
      std::vector<Request> batch(kSweepBatchLines);
      std::vector<std::string> lines;
      for (Request& r : batch) {
        r = gen.next();
        lines.push_back(r.line);
      }
      const std::string in = ctx.tmp + "/batch" + std::to_string(try_batches.size()) + ".jsonl";
      write_file(in, lines);
      const Launcher::Result r = launch(in, in + ".out");
      try_walls.push_back(r.wall_s);
      try_total += r.wall_s;
      try_rss.push_back(r.max_rss_mb);
      try_batches.push_back(std::move(batch));
    }
    const double steal = steal_frac(ticks);
    if (attempt == 1 || steal < kept_steal) {
      kept_steal = steal;
      batches = std::move(try_batches);
      walls = std::move(try_walls);
      rss = std::move(try_rss);
      total = try_total;
      // Keep the responses of this attempt; a later one reuses the names.
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const std::string in = ctx.tmp + "/batch" + std::to_string(b) + ".jsonl";
        fs::rename(in + ".out", in + ".kept");
      }
    }
    if (steal <= kMaxStealFrac || attempt == kMaxAttempts) break;
  }
  out.extra["cpu_steal_frac"] = kept_steal;
  out.extra["attempts"] = attempt;
  for (const auto& batch : batches) {
    for (const Request& r : batch) ++out.classes[r.klass];
  }

  // Verify every response against the in-process reference.
  std::vector<const Request*> all;
  std::vector<std::string> got;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::vector<std::string> responses =
        read_lines(ctx.tmp + "/batch" + std::to_string(b) + ".jsonl.kept");
    responses.resize(batches[b].size(), "<missing response>");
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      all.push_back(&batches[b][i]);
      got.push_back(std::move(responses[i]));
    }
  }
  std::vector<std::string> expected(all.size());
  parallel_for(all.size(), [&](std::size_t i) { expected[i] = reference_response(all[i]->line); });
  out.attempted = all.size();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (got[i] != expected[i]) out.fail("sweep_cold line " + std::to_string(i) + ": got " + got[i]);
  }
  for (std::size_t i = 0; i < std::min(kReplaySweep, all.size()); ++i) {
    out.replay.push_back({all[i]->line, true});
  }
  out.replay_options = {false, kSweepCache};

  std::vector<double> batch_us;
  for (const double w : walls) batch_us.push_back(w * 1e6);
  out.windows.set("batch_us", json_array(batch_us));
  out.e2e["setup_s"] = quantile(setup, 0.5);
  out.windows.set("setup_s", json_array(setup));
  // Per-invocation throughput, median over invocations (see windowed()).
  std::vector<double> rps;
  for (const double w : walls) rps.push_back(static_cast<double>(kSweepBatchLines) / w);
  out.e2e["throughput_rps"] = quantile(rps, 0.5);
  out.e2e["latency_p50_us"] = quantile(batch_us, 0.5);
  out.e2e["latency_p90_us"] = quantile(batch_us, 0.9);
  out.e2e["peak_rss_mb"] = quantile(rss, 0.5);
  out.extra["batches"] = static_cast<double>(batches.size());
  out.wall_per_request_s = total / static_cast<double>(all.size());

  Json server = Json::array();
  for (const std::string& a : batch_argv("BATCH.jsonl", "BATCH.out")) server.push_back(Json::string(a));
  out.config.set("server_argv", std::move(server));
  out.config.set("batch_lines", Json::number(static_cast<std::int64_t>(kSweepBatchLines)));
  out.config.set("cache_capacity", Json::number(static_cast<std::int64_t>(kSweepCache)));
  out.config.set("latency_unit", Json::string("one batch invocation of batch_lines cells"));
}

// ------------------------------------------------------------ socket runs

struct Sent {
  std::size_t index;  ///< position in the connection's stream
  std::int64_t t_send;
};

struct Received {
  std::size_t index;
  double latency_us;
  std::int64_t done_ns;
  std::string response;
};

class Server {
 public:
  Server(const Context& ctx, const std::vector<std::string>& flags)
      : port_file_(ctx.tmp + "/port") {
    fs::remove(port_file_);
    std::vector<std::string> argv{ctx.args.serve, "--listen", "127.0.0.1:0", "--port-file",
                                  port_file_};
    argv.insert(argv.end(), flags.begin(), flags.end());
    process_.emplace(argv, ctx.log);
    const std::int64_t t0 = now_ns();
    while (true) {
      std::ifstream in(port_file_);
      std::string text;
      if (in && std::getline(in, text) && !in.eof() && !text.empty()) {
        port_ = static_cast<std::uint16_t>(std::stoi(text));
        break;
      }
      if (seconds_since(t0) > 10) throw std::runtime_error("closfair_serve never bound a port");
      ::usleep(100);
    }
  }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double vm_hwm_mb() const { return e2ebench::vm_hwm_mb(process_->pid()); }
  Exit stop() {
    process_->terminate();
    return process_->wait();
  }

 private:
  std::string port_file_;
  std::optional<Process> process_;
  std::uint16_t port_ = 0;
};

/// Next request line of a connection's stream; nullopt when it is exhausted.
using Source = std::function<std::optional<std::string>()>;

Source from_list(const std::vector<std::string>& lines) {
  return [&lines, i = std::size_t{0}]() mutable -> std::optional<std::string> {
    if (i == lines.size()) return std::nullopt;
    return lines[i++];
  };
}

/// Pipelined closed loop on one connection: keep `window` requests in
/// flight, send the next only after a response arrives, stop sending at
/// `deadline` (0 = when the source runs dry), and return every response in
/// order. Requests are drawn from the source between a receive and the next
/// send, outside the send-to-response latency; `drawn` counts the source's
/// lines across calls and numbers the responses.
std::vector<Received> closed_loop(closfair::wire::Client& client, const Source& source,
                                  std::size_t window, std::int64_t deadline,
                                  std::size_t& drawn) {
  std::vector<Received> received;
  std::vector<Sent> inflight;
  std::size_t head = 0;
  bool dry = false;
  const auto send = [&] {
    std::optional<std::string> line = source();
    if (!line.has_value()) {
      dry = true;
      return;
    }
    inflight.push_back({drawn++, now_ns()});
    client.send(*line);
  };
  while (!dry && inflight.size() < window) send();
  while (head < inflight.size()) {
    std::optional<std::string> response = client.recv();
    const std::int64_t t = now_ns();
    if (!response.has_value()) throw std::runtime_error("server closed the connection");
    const Sent& s = inflight[head++];
    received.push_back(
        {s.index, static_cast<double>(t - s.t_send) / 1e3, t, std::move(*response)});
    if (!dry && (deadline == 0 || t < deadline)) send();
  }
  return received;
}

/// Runs one closed loop per connection, each on its own thread.
std::vector<std::vector<Received>> run_connections(std::vector<closfair::wire::Client>& clients,
                                                   const std::vector<Source>& sources,
                                                   std::size_t window, std::int64_t deadline,
                                                   std::vector<std::size_t>& drawn) {
  std::vector<std::vector<Received>> results(clients.size());
  std::vector<std::string> errors(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        results[c] = closed_loop(clients[c], sources[c], window, deadline, drawn[c]);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("connection failed: " + e);
  }
  return results;
}

struct SocketPlan {
  std::vector<std::string> flags;
  std::size_t window = 1;
  std::vector<std::string> prime;  ///< sent during set-up
  std::vector<Source> streams;     ///< per connection
};

struct SocketRun {
  std::vector<std::vector<Received>> received;  ///< measured phase
  std::vector<std::vector<Received>> primed;    ///< last set-up's priming
  double setup_s = 0.0;
  std::vector<double> setups;  ///< every set-up of the run
  std::int64_t start_ns = 0;
  double phase_s = 0.0;
  double rss_mb = 0.0;
  double steal_frac = 0.0;  ///< over the measured phase
  int attempts = 0;
  std::string metricsz;
};

SocketRun run_socket(const Context& ctx, const SocketPlan& plan) {
  SocketRun run;
  std::vector<double> setup;
  std::optional<Server> server;
  std::vector<closfair::wire::Client> clients(kConnections);
  // Priming goes out over the same connections, split round-robin.
  std::vector<std::vector<std::string>> prime(kConnections);
  for (std::size_t i = 0; i < plan.prime.size(); ++i) prime[i % kConnections].push_back(plan.prime[i]);
  for (int s = 0; s < kSocketSetups; ++s) {
    if (server.has_value()) {
      for (auto& c : clients) c.close();
      (void)server->stop();
      server.reset();
    }
    const std::int64_t t0 = now_ns();
    server.emplace(ctx, plan.flags);
    for (auto& c : clients) c.connect("127.0.0.1", server->port());
    if (!plan.prime.empty()) {
      std::vector<Source> sources;
      for (const auto& lines : prime) sources.push_back(from_list(lines));
      std::vector<std::size_t> drawn(kConnections, 0);
      run.primed = run_connections(clients, sources, kPrimeWindow, 0, drawn);
    }
    setup.push_back(seconds_since(t0));
  }
  run.setup_s = quantile(setup, 0.5);
  run.setups = setup;

  std::vector<std::size_t> drawn(kConnections, 0);
  for (run.attempts = 1;; ++run.attempts) {
    const std::vector<double> ticks = cpu_ticks();
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(ctx.args.seconds * 1e9);
    std::vector<std::vector<Received>> received =
        run_connections(clients, plan.streams, plan.window, deadline, drawn);
    const double steal = steal_frac(ticks);
    if (run.attempts == 1 || steal < run.steal_frac) {
      run.received = std::move(received);
      run.start_ns = start;
      run.phase_s = seconds_since(start);
      run.steal_frac = steal;
    }
    if (steal <= kMaxStealFrac || run.attempts == kMaxAttempts) break;
  }

  closfair::wire::Client admin;
  admin.connect("127.0.0.1", server->port());
  run.metricsz = admin.call("metricsz");
  admin.close();
  run.rss_mb = server->vm_hwm_mb();
  for (auto& c : clients) c.close();
  if (server->stop().status != 0) throw std::runtime_error("closfair_serve did not drain cleanly");
  return run;
}

void record_socket_config(Outcome& out, const SocketPlan& plan) {
  Json flags = Json::array();
  for (const std::string& f : plan.flags) flags.push_back(Json::string(f));
  out.config.set("server_flags", std::move(flags));
  out.config.set("connections", Json::number(static_cast<std::int64_t>(kConnections)));
  out.config.set("window", Json::number(static_cast<std::int64_t>(plan.window)));
}

/// Throughput is the median over kWindows equal windows of the measured
/// phase, so an episode of outside load on this shared machine moves the
/// windows it covers rather than the whole figure.
constexpr int kWindows = 10;

std::vector<double> window_rps(const SocketRun& run, double seconds) {
  const double width = seconds / kWindows;
  std::vector<double> rps(kWindows, 0.0);
  for (const auto& conn : run.received) {
    for (const Received& r : conn) {
      const auto w = static_cast<int>(static_cast<double>(r.done_ns - run.start_ns) / 1e9 / width);
      if (w < kWindows) rps[static_cast<std::size_t>(w)] += 1.0 / width;
    }
  }
  return rps;
}

std::vector<double> latencies(const SocketRun& run) {
  std::vector<double> v;
  for (const auto& conn : run.received) {
    for (const Received& r : conn) v.push_back(r.latency_us);
  }
  return v;
}

// ------------------------------------------------------------ exact_search

/// Lemma 2.2 on an exhaustive response: the reported middles and rates must
/// form a feasible allocation in which every flow has a bottleneck link.
/// Replicate responses: a feasible witness must carry the target rates.
std::string check_exact(const std::string& request, const std::string& response) {
  using namespace closfair;
  const wire::Request r = wire::parse_request(request);
  const Json parsed = Json::parse(response);
  const Json* result = parsed.find("result");
  if (result == nullptr) return "no result";
  if (parsed.at("hash").as_string() != wire::hash_hex(r.spec->content_hash())) return "wrong hash";
  ClosNetwork net(r.spec->topology.params);
  const FlowSet flows = instantiate(net, workload_flows(*r.spec));
  const auto middles_of = [](const Json& arr) {
    MiddleAssignment m;
    for (const Json& x : arr.items()) m.push_back(static_cast<int>(x.as_int()));
    return m;
  };
  if (r.spec->routing.policy == "replicate") {
    const Json& rep = result->at("replication");
    if (!rep.at("feasible").as_bool()) return "";
    std::vector<Rational> targets;
    for (const auto& t : parse_instance(r.spec->workload.instance).rates) targets.push_back(*t);
    const Routing routing = expand_routing(net, flows, middles_of(rep.at("witness")));
    return is_feasible(net.topology(), routing, Allocation<Rational>(targets))
               ? ""
               : "replication witness overloads a link";
  }
  std::vector<Rational> rates;
  for (const Json& x : result->at("rates").items()) rates.push_back(rational_from_string(x.as_string()));
  const Routing routing = expand_routing(net, flows, middles_of(result->at("middles")));
  return is_max_min_fair(net.topology(), routing, Allocation<Rational>(rates))
             ? ""
             : "allocation is not max-min fair (Lemma 2.2)";
}

void run_exact(const Context& ctx, Outcome& out) {
  SocketPlan plan;
  plan.flags = {"--workers", std::to_string(kServerWorkers)};
  plan.window = 1;
  std::vector<std::vector<Request>> requests(kConnections);
  std::vector<ExactGen> gens;
  for (unsigned c = 0; c < kConnections; ++c) gens.emplace_back(ctx.args.seed, c);
  for (unsigned c = 0; c < kConnections; ++c) {
    plan.streams.push_back([&requests, &gens, c]() -> std::optional<std::string> {
      requests[c].push_back(gens[c].next());
      return requests[c].back().line;
    });
  }
  const SocketRun run = run_socket(ctx, plan);

  struct Check {
    unsigned conn;
    std::size_t i;
  };
  std::vector<Check> checks;
  for (unsigned c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < run.received[c].size(); ++i) checks.push_back({c, i});
  }
  std::vector<std::string> errors(checks.size());
  parallel_for(checks.size(), [&](std::size_t k) {
    const Received& got = run.received[checks[k].conn][checks[k].i];
    const Request& req = requests[checks[k].conn][got.index];
    try {
      errors[k] = check_exact(req.line, got.response);
      if (errors[k].empty() && checks[k].i < kExactSampleCompared &&
          got.response != reference_response(req.line)) {
        errors[k] = "differs from the in-process reference";
      }
    } catch (const std::exception& e) {
      errors[k] = e.what();
    }
  });
  for (std::size_t k = 0; k < checks.size(); ++k) {
    const Received& got = run.received[checks[k].conn][checks[k].i];
    ++out.classes[requests[checks[k].conn][got.index].klass];
    if (!errors[k].empty()) out.fail("exact_search: " + errors[k] + ": " + got.response);
  }
  out.attempted = checks.size();
  for (std::size_t i = 0; i < kReplayExact; ++i) {
    ExactGen& gen = gens[i % kConnections];
    std::vector<Request>& stream = requests[i % kConnections];
    while (stream.size() <= i / kConnections) stream.push_back(gen.next());
    out.replay.push_back({stream[i / kConnections].line, true});
  }
  out.replay_options = {true, 1024};

  const std::vector<double> lat = latencies(run);
  const std::vector<double> rps = window_rps(run, ctx.args.seconds);
  out.e2e["setup_s"] = run.setup_s;
  out.e2e["throughput_rps"] = quantile(rps, 0.5);
  out.e2e["latency_p50_us"] = quantile(lat, 0.5);
  out.e2e["latency_p90_us"] = quantile(lat, 0.9);
  out.windows.set("rps", json_array(rps));
  out.windows.set("setup_s", json_array(run.setups));
  out.e2e["peak_rss_mb"] = run.rss_mb;
  out.extra["latency_p99_us"] = quantile(lat, 0.99);
  out.extra["cpu_steal_frac"] = run.steal_frac;
  out.extra["attempts"] = run.attempts;
  out.metricsz = run.metricsz;
  out.wall_per_request_s = run.phase_s / static_cast<double>(checks.size());
  record_socket_config(out, plan);
  out.config.set("cache_capacity", Json::number(std::int64_t{1024}));
  out.config.set("byte_compared_per_connection",
                 Json::number(static_cast<std::int64_t>(kExactSampleCompared)));
}

// ------------------------------------------------------------- interactive

/// The delta response must equal the cold response of the directly spelled
/// patched spec; only the cache-provenance flag may differ (a patched spec
/// another delta already produced is answered from the cache).
std::string uncached(std::string response) {
  const std::string key = "\"cached\":true";
  if (const std::size_t pos = response.find(key); pos != std::string::npos) {
    response.replace(pos, key.size(), "\"cached\":false");
  }
  return response;
}

void run_interactive(const Context& ctx, Outcome& out) {
  const WorkingSet ws = make_working_set(ctx.args.seed);
  SocketPlan plan;
  plan.flags = {"--workers", std::to_string(kServerWorkers), "--cache",
                std::to_string(kInteractiveCache)};
  plan.window = kInteractiveWindow;
  plan.prime = ws.specs;
  std::vector<std::vector<Request>> requests(kConnections);
  std::vector<InteractiveGen> gens;
  for (unsigned c = 0; c < kConnections; ++c) gens.emplace_back(ws, ctx.args.seed, c);
  for (unsigned c = 0; c < kConnections; ++c) {
    plan.streams.push_back([&requests, &gens, c]() -> std::optional<std::string> {
      requests[c].push_back(gens[c].next());
      return requests[c].back().line;
    });
  }
  const SocketRun run = run_socket(ctx, plan);

  // References: the working set cold, and each distinct directly spelled
  // patched spec cold.
  std::vector<closfair::svc::ScenarioResult> base(ws.specs.size());
  parallel_for(ws.specs.size(), [&](std::size_t b) {
    base[b] = closfair::svc::evaluate_scenario(*closfair::wire::parse_request(ws.specs[b]).spec);
  });
  std::vector<std::string> directs;
  std::unordered_map<std::string, std::size_t> direct_index;
  for (unsigned c = 0; c < kConnections; ++c) {
    for (const Received& r : run.received[c]) {
      const Request& req = requests[c][r.index];
      if (req.delta && direct_index.emplace(req.direct, directs.size()).second) {
        directs.push_back(req.direct);
      }
    }
  }
  std::vector<std::string> direct_response(directs.size());
  parallel_for(directs.size(), [&](std::size_t i) {
    direct_response[i] = reference_response(directs[i]);
  });

  for (std::size_t p = 0; p < run.primed.size(); ++p) {
    for (const Received& r : run.primed[p]) {
      const std::size_t b = r.index * kConnections + p;
      const std::string want = closfair::wire::render_result(
          Json(), ws.hashes[b], false, base[b]);
      if (r.response != want) out.fail("priming base " + std::to_string(b) + ": " + r.response);
    }
  }
  std::vector<double> hit_us;
  std::vector<double> delta_us;
  std::map<std::string, std::vector<double>> class_us;
  for (unsigned c = 0; c < kConnections; ++c) {
    for (const Received& r : run.received[c]) {
      const Request& req = requests[c][r.index];
      ++out.attempted;
      ++out.classes[req.klass];
      class_us[req.klass].push_back(r.latency_us);
      const closfair::wire::Request parsed = closfair::wire::parse_request(req.line);
      std::string want;
      std::string got = r.response;
      if (req.delta) {
        delta_us.push_back(r.latency_us);
        // Re-render the direct reference with this request's envelope id.
        const Json ref = Json::parse(direct_response[direct_index.at(req.direct)]);
        want = closfair::wire::render_result(
            parsed.id, std::stoull(ref.at("hash").as_string(), nullptr, 16), false,
            closfair::svc::ScenarioResult::from_json(ref.at("result")));
        got = uncached(got);
      } else {
        hit_us.push_back(r.latency_us);
        want = closfair::wire::render_result(parsed.id, ws.hashes[req.base], true, base[req.base]);
      }
      if (got != want) out.fail("interactive " + req.klass + ": got " + r.response);
    }
  }

  // Replay: the priming, then the first requests of both streams interleaved.
  for (const std::string& s : ws.specs) out.replay.push_back({s, false});
  for (std::size_t i = 0; i < kReplayInteractive; ++i) {
    InteractiveGen& gen = gens[i % kConnections];
    std::vector<Request>& stream = requests[i % kConnections];
    while (stream.size() <= i / kConnections) stream.push_back(gen.next());
    out.replay.push_back({stream[i / kConnections].line, true});
  }
  out.replay_options = {true, kInteractiveCache};

  const std::vector<double> lat = latencies(run);
  const std::vector<double> rps = window_rps(run, ctx.args.seconds);
  out.e2e["setup_s"] = run.setup_s;
  out.e2e["throughput_rps"] = quantile(rps, 0.5);
  out.e2e["latency_p50_us"] = quantile(lat, 0.5);
  out.e2e["latency_p90_us"] = quantile(lat, 0.9);
  out.windows.set("rps", json_array(rps));
  out.windows.set("setup_s", json_array(run.setups));
  out.e2e["peak_rss_mb"] = run.rss_mb;
  out.extra["cpu_steal_frac"] = run.steal_frac;
  out.extra["attempts"] = run.attempts;
  out.extra["latency_p99_us"] = quantile(lat, 0.99);
  out.extra["hit_latency_p50_us"] = quantile(hit_us, 0.5);
  out.extra["delta_latency_p50_us"] = quantile(delta_us, 0.5);
  for (const auto& [klass, us] : class_us) out.extra[klass + ".latency_p50_us"] = quantile(us, 0.5);
  out.metricsz = run.metricsz;
  out.wall_per_request_s = run.phase_s / static_cast<double>(out.attempted);
  record_socket_config(out, plan);
  out.config.set("cache_capacity", Json::number(static_cast<std::int64_t>(kInteractiveCache)));
  out.config.set("working_set", Json::number(static_cast<std::int64_t>(ws.specs.size())));
}

// ------------------------------------------------------------------ traced

void run_traced(Outcome& out, std::vector<Span>& spans) {
  ReplayReport report = replay(out.replay, out.replay_options);
  for (const std::string& e : report.errors) out.fail("traced replay: " + e);
  out.layers = report.metrics;
  // Share of the untraced per-request wall that the serial front-end steps
  // take: the Amdahl cap on adding workers (batch mode runs them serially).
  out.layers["batch.serial_share"] = report.front_end_s / out.wall_per_request_s;
  static const char* kStages[] = {"parse", "admit", "queue_wait", "evaluate", "reorder_wait",
                                  "write"};
  const Json scrape = out.metricsz.empty() ? Json::object() : Json::parse(out.metricsz);
  const Json* metrics = scrape.find("metrics");
  const Json* histograms = metrics == nullptr ? nullptr : metrics->find("histograms");
  for (const char* stage : kStages) {
    const std::string name = std::string{"wire.stage."} + stage;
    const Json* h = histograms == nullptr ? nullptr : histograms->find(name);
    out.layers[name + ".p50_us"] = h == nullptr ? 0.0 : h->at("p50_ns").as_double() / 1e3;
  }
  out.extra["replayed_requests"] = static_cast<double>(report.requests);
  out.extra["decomposed_evaluations"] = static_cast<double>(report.decomposed);
  spans = std::move(report.spans);
}

// ------------------------------------------------------------------ output

const std::map<std::string, std::string> kUnits = {
    {"setup_s", "s"},          {"throughput_rps", "1/s"}, {"latency_p50_us", "us"},
    {"latency_p90_us", "us"}, {"peak_rss_mb", "MB"}};

std::string layer_unit(const std::string& name) {
  if (name.ends_with("_us")) return "us";
  if (name == "svc.cache_evictions" || name == "waterfill.fallback_calls") return "count";
  return "ratio";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metric_object(const std::map<std::string, double>& metrics, bool layers) {
  std::string s = "{";
  for (const auto& [name, v] : metrics) {
    if (s.size() > 1) s += ", ";
    s += "\"" + name + "\": {\"value\": " + number(v) + ", \"unit\": \"" +
         (layers ? layer_unit(name) : kUnits.at(name)) + "\"}";
  }
  return s + "}";
}

Json numbers(const std::map<std::string, double>& m) {
  Json j = Json::object();
  for (const auto& [k, v] : m) j.set(k, Json::number(std::isfinite(v) ? v : 0.0));
  return j;
}

void write_record(const Context& ctx, Outcome& out, const std::vector<Span>& spans) {
  const std::string stem = ctx.args.results + "/" + ctx.args.workload + "-seed" +
                           std::to_string(ctx.args.seed) + "-trace" +
                           (ctx.args.trace ? "1" : "0");
  const auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return Json::string(v == nullptr ? "unknown" : v);
  };
  Json config = std::move(out.config);
  config.set("workload", Json::string(ctx.args.workload));
  config.set("seed", Json::number(static_cast<std::int64_t>(ctx.args.seed)));
  config.set("seconds", Json::number(ctx.args.seconds));
  config.set("trace", Json::boolean(ctx.args.trace));
  config.set("git_commit", env("E2EBENCH_COMMIT"));
  config.set("build_type", env("E2EBENCH_BUILD_TYPE"));
  config.set("compiler", Json::string(std::string{"g++ "} + __VERSION__));
  config.set("nproc", Json::number(static_cast<std::int64_t>(std::thread::hardware_concurrency())));
  config.set("server_workers", Json::number(static_cast<std::int64_t>(kServerWorkers)));
  Json classes = Json::object();
  for (const auto& [k, v] : out.classes) classes.set(k, Json::number(static_cast<std::int64_t>(v)));
  config.set("requests_per_class", std::move(classes));

  Json record = Json::object();
  record.set("config", std::move(config));
  record.set("attempted", Json::number(static_cast<std::int64_t>(out.attempted)));
  record.set("failed", Json::number(static_cast<std::int64_t>(out.failed)));
  record.set("failed_frac", Json::number(out.attempted == 0 ? 1.0
                                             : static_cast<double>(out.failed) /
                                                   static_cast<double>(out.attempted)));
  record.set("end_to_end", numbers(out.e2e));
  record.set("extra", numbers(out.extra));
  record.set("per_layer", numbers(out.layers));
  record.set("windows", std::move(out.windows));
  Json failures = Json::array();
  for (const std::string& f : out.failures) failures.push_back(Json::string(f));
  record.set("failures", std::move(failures));
  std::ofstream(stem + ".json", std::ios::trunc) << record.dump(2) << '\n';

  if (!spans.empty()) {
    std::ofstream dump(stem + "-spans.jsonl", std::ios::trunc);
    for (const Span& s : spans) {
      dump << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
           << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid
           << ",\"second_pass\":" << (s.second_pass ? "true" : "false") << "}\n";
    }
  }
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--serve") {
      args.serve = value;
    } else if (key == "--results") {
      args.results = value;
    } else if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || !have_workload || args.serve.empty() || args.results.empty() ||
      args.seconds <= 0) {
    throw std::runtime_error(
        "usage: e2ebench_runner --serve PATH --results DIR --workload NAME --seed N "
        "--seconds S --trace 0|1");
  }
  if (args.workload != "sweep_cold" && args.workload != "exact_search" &&
      args.workload != "interactive") {
    throw std::runtime_error("unknown workload " + args.workload);
  }
  return args;
}

int run(int argc, char** argv) {
  Context ctx;
  ctx.args = parse_args(argc, argv);
  Launcher launcher;
  ctx.launcher = &launcher;
  ctx.tmp = ctx.args.results + "/tmp-" + std::to_string(::getpid());
  fs::create_directories(ctx.tmp);
  ctx.log = ctx.tmp + "/serve.log";

  Outcome out;
  if (ctx.args.workload == "sweep_cold") {
    run_sweep(ctx, out);
  } else if (ctx.args.workload == "exact_search") {
    run_exact(ctx, out);
  } else {
    run_interactive(ctx, out);
  }
  std::vector<Span> spans;
  if (ctx.args.trace) run_traced(out, spans);
  write_record(ctx, out, spans);
  fs::remove_all(ctx.tmp);

  const double failed_frac =
      static_cast<double>(out.failed) / static_cast<double>(std::max<std::size_t>(out.attempted, 1));
  for (const std::string& f : out.failures) std::cerr << "FAIL " << f << '\n';
  for (const auto& [k, v] : out.e2e) std::cout << ctx.args.workload << ' ' << k << ' ' << number(v) << ' ' << kUnits.at(k) << '\n';
  for (const auto& [k, v] : out.extra) std::cout << ctx.args.workload << ' ' << k << ' ' << number(v) << '\n';
  std::cout << ctx.args.workload << " failed_frac " << number(failed_frac) << " ratio\n";
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metric_object(ctx.args.trace ? out.layers : out.e2e, ctx.args.trace)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << '\n';
    return 1;
  }
}
