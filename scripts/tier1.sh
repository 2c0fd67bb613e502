#!/usr/bin/env bash
# Tier-1 verification: a metric-name docs drift check
# (scripts/check_metrics_docs.sh), full build + test suite, a closfair_serve
# smoke run diffed against a committed golden transcript, a sweep golden
# (generated Clos, faulted, fat-tree, Thm 4.2, exhaustive and climb cells)
# diffed at 1 and at 4 batch workers, a cache-spill
# smoke (the same run twice over one --cache-file: the spill must equal its
# committed golden and the second run must answer every line from the
# reloaded cache with the golden's hash and result bytes), a wire-server
# smoke (start closfair_serve --listen, replay 20 mixed requests through
# closfair_loadgen, scrape the metricsz/statusz admin verbs and diff the
# stable counter subset against tests/golden/serve_net_admin_counters.json,
# diff the data responses against the batch-mode golden, SIGTERM-drain), a
# delta smoke (replay the golden base+delta request file through batch mode
# AND the wire server, diff both against the one committed response golden —
# warm-started delta evaluation must be byte-identical on every path), a
# Release water-fill perf smoke gated against the committed
# bench/waterfill_floor.json, the search engine's serial-vs-parallel
# equivalence tests, the water-fill fast-path differential suite and the
# wire / service tests (result bytes cross the reader, worker and writer
# threads) under ThreadSanitizer, the fault / workload / rate-control / search /
# routing-heuristic / wire-socket tests and the instance-text and spec parser
# tests under ASan+UBSan, and the CLOSFAIR_OBS=OFF
# configuration (instrumentation compiled out) with its unit tests, a
# link-level check that the obs TUs are empty and a batch-mode closfair_serve
# run diffed against the smoke and delta goldens, and a build of the end-to-end
# benchmark (e2ebench/, its own CMake project compiled against the library's
# API) with its generator self-test.
#
# Usage: scripts/tier1.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Every temp file goes on one list that one EXIT trap removes.
TMP_FILES=()
trap 'rm -f "${TMP_FILES[@]}"' EXIT
new_tmp() {
  local file
  file="$(mktemp)"
  TMP_FILES+=("$file")
  printf -v "$1" '%s' "$file"
}

echo "== tier 1: metric names vs docs/OBSERVABILITY.md =="
scripts/check_metrics_docs.sh

echo
echo "== tier 1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo
echo "== tier 1: closfair_serve smoke vs golden transcript =="
new_tmp SMOKE_OUT
build/examples/closfair_serve --workers 2 \
    --in tests/golden/serve_smoke_requests.jsonl --out "$SMOKE_OUT"
if ! diff -u tests/golden/serve_smoke_responses.jsonl "$SMOKE_OUT"; then
  echo "FAIL: closfair_serve output diverged from the committed golden"
  exit 1
fi
if ! grep -q '"cached":true' "$SMOKE_OUT"; then
  echo "FAIL: the duplicate request did not hit the result cache"
  exit 1
fi
echo "3 requests answered, duplicate served from cache, golden matched"

echo
echo "== tier 1: sweep golden at 1 and 4 workers =="
new_tmp SWEEP_OUT
for workers in 1 4; do
  build/examples/closfair_serve --workers "$workers" \
      --in tests/golden/sweep_requests.jsonl --out "$SWEEP_OUT"
  if ! diff -u tests/golden/sweep_responses.jsonl "$SWEEP_OUT"; then
    echo "FAIL: sweep responses at --workers $workers diverged from the committed golden"
    exit 1
  fi
done
echo "$(wc -l < tests/golden/sweep_requests.jsonl) sweep cells matched the golden at 1 and 4 workers"

echo
echo "== tier 1: cache spill smoke (--cache-file written, reloaded, served) =="
new_tmp SPILL
new_tmp SPILL_OUT
rm -f "$SPILL"
for run in 1 2; do
  build/examples/closfair_serve --workers 2 --cache-file "$SPILL" \
      --in tests/golden/serve_smoke_requests.jsonl --out "$SPILL_OUT"
  if [ "$run" = 1 ] && ! cmp -s tests/golden/serve_smoke_spill.jsonl "$SPILL"; then
    diff -u tests/golden/serve_smoke_spill.jsonl "$SPILL" || true
    echo "FAIL: the cache spill diverged from the committed golden"
    exit 1
  fi
done
python3 - tests/golden/serve_smoke_responses.jsonl "$SPILL_OUT" \
    tests/golden/serve_smoke_spill.jsonl "$SPILL" <<'EOF'
import sys


def lines(path):
    with open(path) as f:
        return f.read().splitlines()


def split(line):
    # (bytes before "cached", bytes from "result" on), compared raw.
    cached = line.find(',"cached":')
    result = line.find(',"result":')
    assert 0 < cached < result, line
    return line[:cached], line[result:]


golden, second = lines(sys.argv[1]), lines(sys.argv[2])
if len(golden) != len(second):
    sys.exit(f"FAIL: the second run answered {len(second)} of {len(golden)} lines")
for want, got in zip(golden, second):
    if ',"cached":true,' not in got:
        sys.exit("FAIL: the second run missed the reloaded cache: " + got)
    if split(want) != split(got):
        sys.exit("FAIL: the second run's id, hash or result bytes diverged: " + got)
# Hits refresh recency, so the rewritten spill may order its lines differently.
if sorted(lines(sys.argv[3])) != sorted(lines(sys.argv[4])):
    sys.exit("FAIL: the rewritten spill holds other entries than the golden")
EOF
echo "spill matched its golden; a second run served every line from it byte-identically"

echo
echo "== tier 1: wire server smoke (closfair_serve --listen + closfair_loadgen) =="
new_tmp PORT_FILE
new_tmp WIRE_OUT
: > "$PORT_FILE"
build/examples/closfair_serve --listen 127.0.0.1:0 --workers 2 \
    --port-file "$PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$PORT_FILE" ]; then
  echo "FAIL: closfair_serve never wrote its bound port"
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
build/examples/closfair_loadgen --host 127.0.0.1 --port "$(cat "$PORT_FILE")" \
    --replay tests/golden/serve_net_requests.jsonl --out "$WIRE_OUT" --quiet
METRICSZ="$(build/examples/closfair_loadgen --host 127.0.0.1 \
    --port "$(cat "$PORT_FILE")" --admin metricsz)"
STATUSZ="$(build/examples/closfair_loadgen --host 127.0.0.1 \
    --port "$(cat "$PORT_FILE")" --admin statusz)"
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "FAIL: closfair_serve did not drain cleanly on SIGTERM"
  exit 1
fi
if ! diff -u tests/golden/serve_net_responses.jsonl "$WIRE_OUT"; then
  echo "FAIL: socket responses diverged from the batch-mode golden"
  exit 1
fi
python3 - "$METRICSZ" "$STATUSZ" \
    tests/golden/serve_net_admin_counters.json <<'EOF'
import json
import sys

metricsz = json.loads(sys.argv[1])
statusz = json.loads(sys.argv[2])

# Shape: metricsz is a full registry snapshot, statusz a server status line.
assert metricsz.get("admin") == "metricsz", metricsz
counters = metricsz["metrics"]["counters"]
hists = metricsz["metrics"]["histograms"]
assert "wire.request" in hists, sorted(hists)
for key in ("p50_ns", "p99_ns", "p999_ns"):
    assert hists["wire.request"][key] > 0, hists["wire.request"]
assert statusz.get("admin") == "statusz", statusz
for key in ("uptime_ns", "workers", "draining", "conns_active",
            "conns_accepted", "queue_depth", "queue_high_watermark",
            "max_inflight_per_conn", "overload_sheds", "cache_size",
            "cache_capacity"):
    assert key in statusz, f"statusz missing {key}: {statusz}"
assert statusz["workers"] == 2 and statusz["draining"] is False, statusz

# The replayed request stream and the scrape count are fixed, so this
# counter subset is exactly reproducible (scheduling-dependent splits like
# wire.dedup_hits / svc.cache_hits stay out).
with open(sys.argv[3]) as f:
    golden = json.load(f)
subset = {name: counters.get(name, 0) for name in golden}
if subset != golden:
    print("FAIL: admin-scrape counters diverged from the committed golden")
    for name in sorted(golden):
        marker = "" if subset[name] == golden[name] else "   <-- drift"
        print(f"  {name}: golden {golden[name]}, scraped {subset[name]}{marker}")
    sys.exit(1)
print("admin plane: metricsz/statusz well-formed, "
      f"{len(golden)} stable counters matched the golden")
EOF
echo "20 pipelined requests answered byte-identically over the socket, SIGTERM drained"

echo
echo "== tier 1: delta smoke (base+delta replay, batch and wire vs one golden) =="
new_tmp DELTA_OUT
build/examples/closfair_serve --workers 2 \
    --in tests/golden/serve_delta_requests.jsonl --out "$DELTA_OUT"
if ! diff -u tests/golden/serve_delta_responses.jsonl "$DELTA_OUT"; then
  echo "FAIL: batch-mode delta responses diverged from the committed golden"
  exit 1
fi
: > "$PORT_FILE"
build/examples/closfair_serve --listen 127.0.0.1:0 --workers 2 \
    --port-file "$PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$PORT_FILE" ]; then
  echo "FAIL: closfair_serve never wrote its bound port (delta smoke)"
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
build/examples/closfair_loadgen --host 127.0.0.1 --port "$(cat "$PORT_FILE")" \
    --replay tests/golden/serve_delta_requests.jsonl --out "$DELTA_OUT" --quiet
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "FAIL: closfair_serve did not drain cleanly on SIGTERM (delta smoke)"
  exit 1
fi
if ! diff -u tests/golden/serve_delta_responses.jsonl "$DELTA_OUT"; then
  echo "FAIL: wire delta responses diverged from the committed golden"
  exit 1
fi
echo "5 delta classes + dup/unknown-base/bad-patch answered byte-identically on both paths"

echo
echo "== tier 1: Release water-fill perf smoke vs committed floor =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS" --target perf_micro >/dev/null
new_tmp PERF_JSON
build-release/bench/perf_micro --benchmark_filter='^BM_WaterfillWorkspaceFast$' \
    --benchmark_min_time=0.5 --benchmark_out="$PERF_JSON" \
    --benchmark_out_format=json >/dev/null
python3 - "$PERF_JSON" bench/waterfill_floor.json <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    run = json.load(f)
with open(sys.argv[2]) as f:
    floor = json.load(f)

name = floor["benchmark"]
rates = [b["items_per_second"] for b in run["benchmarks"] if b["name"] == name]
if not rates:
    print(f"FAIL: benchmark {name} missing from perf_micro output")
    sys.exit(1)
measured = max(rates)
minimum = 0.8 * floor["floor_items_per_second"]
verdict = "OK" if measured >= minimum else "FAIL"
print(f"{name}: {measured / 1e6:.2f}M calls/s "
      f"(floor {floor['floor_items_per_second'] / 1e6:.2f}M, "
      f"fail below {minimum / 1e6:.2f}M): {verdict}")
if measured < minimum:
    print("FAIL: water-fill fast path regressed >20% below the committed floor")
    sys.exit(1)
EOF

echo
echo "== tier 1: SearchEngine, water-fill fast-path, wire + svc tests under ThreadSanitizer =="
cmake -B build-tsan -S . -DCLOSFAIR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_search_engine test_waterfill_fastpath \
    test_wire test_svc
(cd build-tsan && ctest --output-on-failure -j "$JOBS" \
    -R 'SearchEngine|WaterfillFastpath|^Wire|^Svc')

echo
echo "== tier 1: fault/workload/rate-control/routing/wire/parser/exact-oracle tests under ASan+UBSan =="
cmake -B build-asan -S . -DCLOSFAIR_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS" --target \
    test_fault test_workload test_rate_control test_search_engine test_wire \
    test_waterfill_fastpath test_text_format test_svc test_routing_algos test_generic_routing \
    test_maxmin_lp test_weighted test_bottleneck test_relative_maxmin test_exact_oracles
ASAN_TESTS='Fault|Workload|Trace|Rcp|Aimd|SearchEngine|Wire|WaterfillFastpath|TextFormat|Svc'
ASAN_TESTS+='|Greedy|LocalSearch|GenericRouting|RoutingEngine'
ASAN_TESTS+='|MaxMinLp|Weighted|Bottleneck|RelativeMaxMin|ExactOracles'
(cd build-asan && ctest --output-on-failure -j "$JOBS" -R "$ASAN_TESTS")

echo
echo "== tier 1: CLOSFAIR_OBS=OFF build (instrumentation compiled out) =="
cmake -B build-noobs -S . -DCLOSFAIR_OBS=OFF >/dev/null
cmake --build build-noobs -j "$JOBS" --target \
    test_obs test_search_engine test_waterfill test_waterfill_fastpath \
    test_simplex test_maxmin_lp test_exhaustive closfair_serve
for tu in obs/obs.cpp.o obs/trace.cpp.o obs/rt.cpp.o; do
  defined=$(nm "build-noobs/src/CMakeFiles/closfair.dir/$tu" | grep -c ' T ' || true)
  if [ "$defined" -ne 0 ]; then
    echo "FAIL: $tu defines $defined symbols in an OBS=OFF build"
    exit 1
  fi
done
echo "obs TUs are empty under OBS=OFF (no defined symbols)"
(cd build-noobs && ctest --output-on-failure -j "$JOBS" \
    -R 'Obs|SearchEngine|Waterfill|Simplex|MaxMin|Exhaustive')
# The request path with the stub RequestTrace / WorkerStamps: batch mode
# through the evaluation pool must still answer the committed goldens.
for smoke in serve_smoke serve_delta; do
  build-noobs/examples/closfair_serve --workers 2 \
      --in "tests/golden/${smoke}_requests.jsonl" --out "$SMOKE_OUT"
  if ! diff -u "tests/golden/${smoke}_responses.jsonl" "$SMOKE_OUT"; then
    echo "FAIL: OBS=OFF batch-mode $smoke responses diverged from the golden"
    exit 1
  fi
done
echo "OBS=OFF closfair_serve answered the smoke and delta goldens byte-identically"

echo
echo "== tier 1: e2ebench builds against the library and passes its self-test =="
cmake -S e2ebench -B build-e2ebench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-e2ebench -j "$JOBS" --target e2ebench_runner e2ebench_selftest
(cd build-e2ebench && ctest --output-on-failure -R e2ebench_selftest)

echo
echo "tier 1: OK"
