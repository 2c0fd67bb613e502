// closfair_serve — scenario-evaluation service (src/svc + src/wire).
//
// Batch mode (default):
//
//   $ ./closfair_serve [--workers N] [--cache N] [--cache-file PATH]
//                      [--in FILE] [--out FILE] [--metrics OUT.json]
//
// Reads one request per line (stdin, or --in FILE), answers them through
// the same request pipeline the server runs (wire::answer_batch), and writes
// one response per line (stdout, or --out FILE), aligned with the requests.
// A request line is a bare ScenarioSpec object (docs/SERVICE.md), a delta
// request {"base":"<hash>","patch":{...}} against an earlier line's result,
// or an envelope {"id": ..., "spec": {...}} / {"id": ..., "delta": {...}}
// whose id (any JSON scalar) is echoed back. Responses:
//
//   {"id":..., "hash":"<fnv1a64 hex>", "cached":false, "result":{...}}
//   {"id":..., "hash":"<fnv1a64 hex>", "error":"..."}  (failed cell)
//   {"id":..., "error":"..."}                          (bad line)
//
// Responses are byte-identical for every --workers value and to what a
// socket client sending the same lines receives (the determinism contract
// in docs/SERVICE.md). --cache-file loads a JSONL cache spill before the
// batch and rewrites it afterwards, so repeated invocations warm each other.
//
// Server mode:
//
//   $ ./closfair_serve --listen HOST:PORT [--workers N] [--cache N]
//                      [--cache-file PATH] [--port-file PATH] [--inflight N]
//                      [--watermark N] [--max-frame BYTES] [--metrics OUT.json]
//                      [--flight-recorder OUT.jsonl]
//
// Runs the persistent TCP front-end (docs/SERVICE.md "Wire protocol"):
// length-prefixed frames carrying the same request/response lines, pipelined
// over long-lived connections, with per-connection in-order responses,
// admission control (overload responses instead of unbounded buffering), and
// graceful drain on SIGTERM/SIGINT. PORT 0 binds an ephemeral port;
// --port-file writes the bound port for scripts to discover. The cache spill
// and metrics are written after the drain completes.
//
// While the server runs, the admin verbs metricsz / statusz / tracez answer
// on the same port (send the bare verb as a frame; closfair_loadgen --admin
// or --watch wraps this). --flight-recorder dumps the recorder's recent ring
// as Chrome-trace JSONL after the drain (empty under CLOSFAIR_OBS=OFF).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arg_parse.hpp"
#include "io/json_export.hpp"
#include "obs/obs.hpp"
#include "obs/rt.hpp"
#include "svc/cache.hpp"
#include "wire/server.hpp"

using namespace closfair;

namespace {

constexpr std::string_view kUsage =
    "closfair_serve [--listen HOST:PORT] [--workers N] [--cache N] "
    "[--cache-file PATH] [--in FILE] [--out FILE] [--metrics OUT.json] "
    "[--port-file PATH] [--inflight N] [--watermark N] [--max-frame BYTES] "
    "[--flight-recorder OUT.jsonl]";

int usage() {
  std::cerr << "usage: " << kUsage << '\n';
  return 2;
}

int run_batch(svc::ResultCache& cache, unsigned workers, const std::string& in_path,
              const std::string& out_path) {
  std::ifstream in_file;
  if (!in_path.empty()) {
    in_file.open(in_path);
    if (!in_file) {
      std::cerr << "cannot open " << in_path << '\n';
      return 1;
    }
  }
  std::istream& in = in_path.empty() ? std::cin : in_file;

  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::cerr << "cannot open " << out_path << '\n';
      return 1;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") != std::string::npos) lines.push_back(line);
  }
  wire::answer_batch(cache, workers, lines, out);
  out.flush();
  return 0;
}

int run_listen(svc::ResultCache& cache, const std::string& listen,
               const wire::ServerOptions& base, const std::string& port_file) {
  wire::ServerOptions options = base;
  const std::size_t colon = listen.rfind(':');
  if (colon == std::string::npos) {
    std::cerr << "--listen expects HOST:PORT, got '" << listen << "'\n";
    return 2;
  }
  options.host = listen.substr(0, colon);
  options.port = static_cast<std::uint16_t>(examples::checked_int(
      listen.substr(colon + 1), "--listen port", 0, 65535, kUsage));

  wire::Server server(cache, options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "cannot start server: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "listening on " << options.host << ":" << server.port() << '\n';
  if (!port_file.empty()) {
    std::ofstream pf(port_file, std::ios::trunc);
    if (!pf) {
      std::cerr << "cannot write " << port_file << '\n';
      return 1;
    }
    pf << server.port() << '\n';
  }
  server.run_until_signal();
  std::cerr << "drained " << server.connections_accepted()
            << " connection(s) worth of traffic; exiting\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cache_capacity = 1024;
  std::string cache_file;
  std::string in_path;
  std::string out_path;
  std::string metrics_path;
  std::string listen;
  std::string port_file;
  std::string flight_recorder_path;
  wire::ServerOptions server_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << '\n';
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workers") {
      server_options.workers = static_cast<unsigned>(
          examples::checked_int(next(), "--workers", 1, 256, kUsage));
    } else if (arg == "--cache") {
      cache_capacity = examples::checked_size(next(), "--cache", 1 << 24, kUsage);
      if (cache_capacity == 0) cache_capacity = 1;
    } else if (arg == "--cache-file") {
      cache_file = next();
    } else if (arg == "--in") {
      in_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--listen") {
      listen = next();
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--flight-recorder") {
      flight_recorder_path = next();
    } else if (arg == "--inflight") {
      server_options.max_inflight_per_conn =
          examples::checked_size(next(), "--inflight", 1 << 20, kUsage);
      if (server_options.max_inflight_per_conn == 0) {
        server_options.max_inflight_per_conn = 1;
      }
    } else if (arg == "--watermark") {
      server_options.queue_high_watermark =
          examples::checked_size(next(), "--watermark", 1 << 24, kUsage);
      if (server_options.queue_high_watermark == 0) {
        server_options.queue_high_watermark = 1;
      }
    } else if (arg == "--max-frame") {
      server_options.max_frame_bytes =
          examples::checked_size(next(), "--max-frame", 1 << 30, kUsage);
      if (server_options.max_frame_bytes < wire::kFrameHeaderBytes) {
        server_options.max_frame_bytes = wire::kDefaultMaxFrameBytes;
      }
    } else {
      return usage();
    }
  }
  if (!listen.empty() && (!in_path.empty() || !out_path.empty())) {
    std::cerr << "--listen is exclusive with --in/--out\n";
    return usage();
  }

  svc::ResultCache cache(cache_capacity);
  if (!cache_file.empty()) {
    std::ifstream spill(cache_file);
    if (spill) {
      try {
        cache.load(spill);
      } catch (const std::exception& e) {
        std::cerr << "cannot load cache spill " << cache_file << ": " << e.what() << '\n';
        return 1;
      }
    }
  }

  int status;
  if (listen.empty()) {
    status = run_batch(cache, server_options.workers, in_path, out_path);
  } else {
    status = run_listen(cache, listen, server_options, port_file);
  }
  if (status != 0) return status;

  if (!cache_file.empty()) {
    std::ofstream spill(cache_file, std::ios::trunc);
    if (!spill) {
      std::cerr << "cannot write cache spill " << cache_file << '\n';
      return 1;
    }
    cache.save(spill);
  }
  if (!metrics_path.empty()) {
    std::ofstream metrics(metrics_path);
    metrics << metrics_to_json(obs::Registry::instance().snapshot()).dump(2) << '\n';
  }
  if (!flight_recorder_path.empty()) {
    std::ofstream recorder_out(flight_recorder_path, std::ios::trunc);
    if (!recorder_out) {
      std::cerr << "cannot write " << flight_recorder_path << '\n';
      return 1;
    }
    recorder_out << obs::rt::dump_chrome_jsonl(
        obs::rt::FlightRecorder::instance().recent());
  }
  return 0;
}
