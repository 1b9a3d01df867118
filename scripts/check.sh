#!/usr/bin/env bash
# Sanitizer + analysis matrix — the CI entry point for correctness builds.
#
# Runs the full test suite under three configurations, each in its own
# build tree (the options are mutually exclusive per tree):
#
#   asan-ubsan — AddressSanitizer + UndefinedBehaviorSanitizer
#                (memory errors, UB in the numeric kernels)
#   tsan       — ThreadSanitizer
#                (physical data races across the thread pool / mini-MPI)
#   analysis   — -DPEACHY_ANALYSIS=ON grading build: every mpi::run()
#                executes at CheckLevel::full, proving the checker raises
#                zero false positives on the whole suite
#
# plus two perf-infrastructure smokes:
#
#   bench-smoke — Release build of the bench tree only; runs bench_kernels
#                 at tiny sizes and validates the emitted JSON against the
#                 "peachy-bench/1" schema (wiring check, not a perf gate)
#   obs-smoke   — Release build of examples + bench; runs kmeans_cluster
#                 under PEACHY_TRACE and validates the "peachy-trace/1"
#                 document (>=4 substrate categories, well-formed per-thread
#                 span nesting), then runs the kernels gate
#                 (scripts/gates.sh) with tracing *disabled* — the obs
#                 overhead contract
#   faults-smoke
#               — Release build of tests + examples + bench; runs the
#                 fault-injection test matrix (test_faults), proves seeded
#                 replay determinism (fault_demo --print-events twice,
#                 fired-event logs must be byte-identical), runs both
#                 fault_demo recovery modes end to end, then runs the
#                 kernels gate with faults *disabled* — the
#                 zero-cost-when-off contract
#   transport-smoke
#               — Release tests + examples tree; runs the cross-backend
#                 conformance suite (test_transport) and the shm-ring
#                 stress suite (test_transport_stress: wraparound +
#                 spill exhaustion under concurrent posters, a
#                 66-process world, crashed producer mid-slot, truncated
#                 and mutated segments at attach), forces the full
#                 mpi/faults test matrix onto the shm and socket wires
#                 via PEACHY_TRANSPORT, re-runs both suites under ASan, and
#                 drives the genuinely multi-process fault demo (a real
#                 SIGKILL of a rank process over each wire transport,
#                 plus a peachy-launch end-to-end run)
#   transport-bench-smoke
#               — Release bench tree; schema-validates the committed
#                 BENCH_transport.json baseline, runs bench_transport at
#                 tiny sizes over all three backends (wiring check),
#                 then the transport gate on the *inproc* rows — the
#                 wire fast paths must not tax the in-process backend
#   chaos-smoke — chaos-hardened wires (DESIGN.md §17): the conformance
#                 suite stays green under a seeded wire-fault plan
#                 (Release + ASan), fault_demo survives corruption +
#                 drops + a real SIGKILL over both wires with durable-
#                 checkpoint restore, a wedged (SIGSTOPped) rank is
#                 detected by the heartbeat layer, the seeded wire plan
#                 replays byte-identically, and the injection-disabled
#                 CRC+heartbeat cost passes the transport gate on every
#                 bench_transport row
#   lint-smoke  — Release build of peachy-lint + test_lint; runs the rule
#                 engine tests, requires the fixture corpus to produce
#                 findings (the rules demonstrably fire), requires *zero*
#                 findings over src/ + examples/ (the clean-tree gate),
#                 and validates the peachy-lint/1 JSON document
#   werror      — Release build of every target (library, tools, tests,
#                 bench, examples) with -Werror: a new compiler warning
#                 fails the build instead of scrolling past
#
# Every perf gate is defined once, in scripts/gates.sh, which
# scripts/bench.sh runs too.
#
# Usage: scripts/check.sh [config ...]     (default: all eleven)

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
# shellcheck source=scripts/gates.sh
source "$ROOT/scripts/gates.sh"

# configure <dir> <build-type> <bench> <tests> <examples> [extra cmake args...]
# — one build tree; <bench>/<tests>/<examples> are ON or OFF.
configure() {
  local dir="$1" type="$2" bench="$3" tests="$4" examples="$5"
  shift 5
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE="$type" \
    -DPEACHY_BUILD_BENCH="$bench" -DPEACHY_BUILD_TESTS="$tests" \
    -DPEACHY_BUILD_EXAMPLES="$examples" "$@"
}

run_config() {
  local name="$1"
  shift
  local dir="$ROOT/build-check-$name"
  echo "==== [$name] configure ===="
  configure "$dir" RelWithDebInfo OFF ON OFF "$@"
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$JOBS"
  echo "==== [$name] test ===="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  echo "==== [$name] OK ===="
}

# The "peachy-bench/1" checks every bench JSON must pass: schema and
# harness name, a non-empty row list, the six row keys, positive timings.
# An optional third argument is python run afterwards with `doc` and the
# set of row `names` in scope, for the harness's own checks.
validate_bench_json() {
  python3 - "$@" <<'EOF'
import json, sys
path, harness = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
assert doc["schema"] == "peachy-bench/1", doc.get("schema")
assert doc["harness"] == harness, doc.get("harness")
assert isinstance(doc["isa"], str) and doc["isa"]
assert isinstance(doc["benchmarks"], list) and doc["benchmarks"]
for row in doc["benchmarks"]:
    for key in ("name", "shape", "items", "scalar_ns", "kernel_ns", "speedup"):
        assert key in row, (row, key)
    assert row["scalar_ns"] > 0 and row["kernel_ns"] > 0
names = {row["name"] for row in doc["benchmarks"]}
exec(sys.argv[3] if len(sys.argv) > 3 else "")
print(f"schema OK: {path}: {len(doc['benchmarks'])} benchmarks, isa={doc['isa']}")
EOF
}

run_bench_smoke() {
  local dir="$ROOT/build-check-bench-smoke"
  echo "==== [bench-smoke] configure ===="
  configure "$dir" Release ON OFF OFF
  echo "==== [bench-smoke] build ===="
  cmake --build "$dir" --target bench_kernels -j "$JOBS"
  echo "==== [bench-smoke] run ===="
  local json="$dir/bench/BENCH_kernels_smoke.json"
  "$dir/bench/bench_kernels" --tiny --out "$json"
  echo "==== [bench-smoke] validate JSON ===="
  validate_bench_json "$json" bench_kernels
  echo "==== [bench-smoke] OK ===="
}

run_obs_smoke() {
  local dir="$ROOT/build-check-obs-smoke"
  echo "==== [obs-smoke] configure ===="
  configure "$dir" Release ON OFF ON
  echo "==== [obs-smoke] build ===="
  cmake --build "$dir" --target kmeans_cluster bench_kernels -j "$JOBS"
  echo "==== [obs-smoke] trace run ===="
  local trace="$dir/trace.json"
  PEACHY_TRACE="$trace" "$dir/examples/kmeans_cluster" --ppm='' >/dev/null
  echo "==== [obs-smoke] validate trace ===="
  python3 - "$trace" <<'EOF'
import collections, json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "peachy-trace/1", doc.get("schema")
events = doc["traceEvents"]
assert events, "empty traceEvents"
cats = {e["cat"] for e in events if e["ph"] == "X"}
# The kmeans example drives the pool, parallel_for, mini-MPI, and
# MapReduce substrates at minimum.
assert len(cats) >= 4, f"expected spans from >=4 substrates, got {cats}"
# Per-thread span nesting must be well formed: sorted by start (ties:
# longer first), every span either nests inside or starts after the
# innermost open span on its thread.
by_tid = collections.defaultdict(list)
for e in events:
    if e["ph"] == "X":
        by_tid[e["tid"]].append((e["ts"], -e["dur"], e))
for tid, spans in by_tid.items():
    spans.sort(key=lambda t: (t[0], t[1]))
    stack = []
    for ts, negdur, e in spans:
        end = ts + e["dur"]
        while stack and ts >= stack[-1]:
            stack.pop()
        assert not stack or end <= stack[-1] + 1e-6, \
            f"tid {tid}: span {e['name']} overlaps its parent"
        stack.append(end)
assert doc["counters"], "no counters recorded"
print(f"trace OK: {len(events)} events, substrates={sorted(cats)}, "
      f"{len(doc['counters'])} counters")
EOF
  echo "==== [obs-smoke] disabled-mode overhead gate ===="
  gate_sweep kernels "$dir" BENCH_kernels_obs
  gate_compare kernels
  echo "==== [obs-smoke] OK ===="
}

run_faults_smoke() {
  local dir="$ROOT/build-check-faults-smoke"
  echo "==== [faults-smoke] configure ===="
  configure "$dir" Release ON ON ON
  echo "==== [faults-smoke] build ===="
  cmake --build "$dir" --target test_faults fault_demo bench_kernels -j "$JOBS"
  echo "==== [faults-smoke] fault-injection test matrix ===="
  "$dir/tests/test_faults"
  echo "==== [faults-smoke] seeded replay determinism ===="
  local run_a="$dir/fault_events_a.txt" run_b="$dir/fault_events_b.txt"
  "$dir/examples/fault_demo" --mode=traffic --seed=7 --print-events \
    | sed -n '/^fault events:$/,/^end events$/p' > "$run_a"
  "$dir/examples/fault_demo" --mode=traffic --seed=7 --print-events \
    | sed -n '/^fault events:$/,/^end events$/p' > "$run_b"
  # The extracted block must be non-trivial (markers + at least one event)
  # and byte-identical across the two runs.
  [ "$(wc -l < "$run_a")" -ge 3 ] || { echo "replay check: no fault events fired" >&2; exit 1; }
  diff -u "$run_a" "$run_b"
  echo "replay OK: $(($(wc -l < "$run_a") - 2)) events, logs byte-identical"
  echo "==== [faults-smoke] recovery end-to-end (kmeans) ===="
  "$dir/examples/fault_demo" --mode=kmeans
  echo "==== [faults-smoke] disabled-mode overhead gate ===="
  gate_sweep kernels "$dir" BENCH_kernels_faults
  gate_compare kernels
  echo "==== [faults-smoke] OK ===="
}

run_transport_smoke() {
  # The transport matrix: the cross-backend conformance suite, the full
  # mpi + faults test binaries forced onto each wire backend via
  # PEACHY_TRANSPORT, the conformance suite under ASan (the shm ring and
  # socket reassembly are the repo's only hand-rolled binary protocols),
  # and the genuinely multi-process fault demo — a real SIGKILL of a rank
  # process over each wire, recovered state verified bit-identical to the
  # same serial reference the in-process run is held to.
  local dir="$ROOT/build-check-transport-smoke"
  echo "==== [transport-smoke] configure ===="
  configure "$dir" Release OFF ON ON
  echo "==== [transport-smoke] build ===="
  cmake --build "$dir" --target test_transport test_transport_stress test_mpi test_faults \
    fault_demo peachy-launch -j "$JOBS"
  echo "==== [transport-smoke] cross-backend conformance suite ===="
  "$dir/tests/test_transport"
  echo "==== [transport-smoke] shm ring stress suite ===="
  "$dir/tests/test_transport_stress"
  echo "==== [transport-smoke] full mpi + faults matrix on each wire backend ===="
  for transport in shm socket; do
    echo "---- PEACHY_TRANSPORT=$transport ----"
    PEACHY_TRANSPORT="$transport" "$dir/tests/test_mpi"
    PEACHY_TRANSPORT="$transport" "$dir/tests/test_faults"
  done
  echo "==== [transport-smoke] conformance suite under ASan ===="
  local asan="$ROOT/build-check-transport-asan"
  configure "$asan" RelWithDebInfo OFF ON OFF -DPEACHY_SANITIZE=ON
  cmake --build "$asan" --target test_transport test_transport_stress -j "$JOBS"
  "$asan/tests/test_transport"
  "$asan/tests/test_transport_stress"
  echo "==== [transport-smoke] multi-process SIGKILL recovery (shm + socket) ===="
  # The in-process run and each wire run verify against the same serial
  # reference (same seed), so three green verdicts == same final answer.
  "$dir/examples/fault_demo" --mode=traffic --seed=11
  for transport in shm socket; do
    "$dir/examples/fault_demo" --mode=traffic --seed=11 --transport="$transport"
  done
  echo "==== [transport-smoke] peachy-launch end-to-end ===="
  # Exit 1 is the expected verdict: one rank died to the injected SIGKILL
  # (that is the demo working); the launched survivors must all exit 0.
  local launch_out="$dir/launch_out.txt"
  if "$dir/tools/peachy-launch" -n 4 --transport=socket -- \
       "$dir/examples/fault_demo" --mode=traffic --transport=socket > "$launch_out" 2>&1; then
    echo "transport-smoke: peachy-launch reported all-clean, but one rank must die" >&2
    cat "$launch_out" >&2
    exit 1
  fi
  grep -q "killed by signal 9" "$launch_out"
  [ "$(grep -c "bit-identical to serial reference" "$launch_out")" -eq 3 ]
  echo "launch OK: 3/4 survivors recovered bit-identically"
  echo "==== [transport-smoke] OK ===="
}

run_transport_bench_smoke() {
  local dir="$ROOT/build-check-bench-smoke"
  echo "==== [transport-bench-smoke] validate committed baseline schema ===="
  validate_bench_json "$ROOT/BENCH_transport.json" bench_transport '
assert doc["tiny"] is False, "committed baseline must be a full-size run"
for backend in ("inproc", "shm", "socket"):
    assert f"pp_{backend}_8" in names, (backend, names)
    assert f"bw_{backend}_8" in names, (backend, names)
    for op in ("allreduce", "allgather", "alltoall"):
        assert f"coll_{op}_{backend}_256" in names, (op, backend, names)
for row in doc["benchmarks"]:
    if row["name"].startswith("bw_"):
        assert row.get("mb_s", 0) > 0, row'
  echo "==== [transport-bench-smoke] configure ===="
  configure "$dir" Release ON OFF OFF
  echo "==== [transport-bench-smoke] build ===="
  cmake --build "$dir" --target bench_transport -j "$JOBS"
  echo "==== [transport-bench-smoke] tiny sweep on all three backends ===="
  local json="$dir/bench/BENCH_transport_smoke.json"
  "$dir/bench/bench_transport" --tiny --out "$json"
  python3 - "$json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "peachy-bench/1" and doc["harness"] == "bench_transport"
assert doc["tiny"] is True
backends = {n.split("_")[1] for n in (row["name"] for row in doc["benchmarks"])
            if n.startswith(("pp_", "bw_"))}
assert backends == {"inproc", "shm", "socket"}, backends
names = {row["name"] for row in doc["benchmarks"]}
for backend in backends:
    assert f"coll_alltoall_{backend}_32" in names, (backend, names)
print(f"tiny sweep OK: {len(doc['benchmarks'])} benchmarks over {sorted(backends)}")
EOF
  echo "==== [transport-bench-smoke] inproc regression gate ===="
  gate_sweep transport "$dir" BENCH_transport_fresh
  gate_compare transport "$GATE_INPROC_ROWS"
  echo "==== [transport-bench-smoke] OK ===="
}

run_chaos_smoke() {
  # Chaos-hardened wires (DESIGN.md §17).  Four gates: (1) the
  # cross-backend conformance suite must stay green while a seeded wire
  # plan delays frames under every test, in Release and under ASan;
  # (2) fault_demo must survive real chaos — frame corruption + drops +
  # one SIGKILL — over both wires and restore the dead rank's snapshot
  # from the durable checkpoint store, bit-identical to the serial
  # reference; (3) a delay-only plan must replay byte-identically
  # (drop/corrupt recovery points are timing-dependent; delay is the
  # determinism gate); (4) a wedged rank — SIGSTOPped, so the launcher
  # sees no exit — must be confirmed dead by the heartbeat layer alone.
  # Then the payoff contract: with no plan armed, the always-on header
  # CRC + heartbeat machinery must cost <2% geomean on bench_transport.
  local dir="$ROOT/build-check-transport-smoke"
  local plan='seed=11; wire_delay@prob=0.05,ns=200000'
  echo "==== [chaos-smoke] configure ===="
  configure "$dir" Release OFF ON ON
  echo "==== [chaos-smoke] build ===="
  cmake --build "$dir" --target test_transport fault_demo peachy-launch -j "$JOBS"
  echo "==== [chaos-smoke] conformance under a seeded wire plan ===="
  PEACHY_FAULTS="$plan" "$dir/tests/test_transport"
  echo "==== [chaos-smoke] conformance under the plan, ASan ===="
  local asan="$ROOT/build-check-transport-asan"
  configure "$asan" RelWithDebInfo OFF ON OFF -DPEACHY_SANITIZE=ON
  cmake --build "$asan" --target test_transport -j "$JOBS"
  PEACHY_FAULTS="$plan" "$asan/tests/test_transport"
  echo "==== [chaos-smoke] chaos survival + durable restore (shm + socket) ===="
  # Three seeds per wire: each seed loses different frames, and a correct
  # build must recover bit-identically whichever ones the plan drops.
  for transport in shm socket; do
    for seed in 11 12 13; do
      "$dir/examples/fault_demo" --mode=traffic --transport="$transport" \
        --chaos=full --durable --seed="$seed" --timeout-ms=1500
    done
  done
  echo "==== [chaos-smoke] byte-identical replay of the seeded wire plan ===="
  local ev="$dir/chaos_events"
  rm -f "$ev".a.* "$ev".b.*
  "$dir/examples/fault_demo" --mode=traffic --transport=shm --chaos=delay \
    --seed=11 --events-out="$ev.a"
  "$dir/examples/fault_demo" --mode=traffic --transport=shm --chaos=delay \
    --seed=11 --events-out="$ev.b"
  local nrank=0 fired=0
  for a in "$ev".a.*; do
    diff -u "$a" "${a/.a./.b.}"
    nrank=$((nrank + 1))
    [ -s "$a" ] && fired=$((fired + 1))
  done
  [ "$fired" -ge 1 ] || { echo "chaos-smoke: no wire events fired" >&2; exit 1; }
  echo "replay OK: $nrank per-rank event logs byte-identical ($fired non-empty)"
  echo "==== [chaos-smoke] wedged-rank heartbeat detection (shm + socket) ===="
  # SIGSTOP, not SIGKILL: the launcher sees no exit, so only peer-to-peer
  # heartbeats can notice.  fault_demo expects exactly the wedged rank to
  # be confirmed dead and the survivors to recover bit-identically.
  for transport in shm socket; do
    "$dir/examples/fault_demo" --mode=traffic --transport="$transport" \
      --wedge-rank=2 --steps=20000 --seed=5
  done
  echo "==== [chaos-smoke] injection-disabled CRC+heartbeat overhead gate ===="
  local bdir="$ROOT/build-check-bench-smoke"
  configure "$bdir" Release ON OFF OFF
  cmake --build "$bdir" --target bench_transport -j "$JOBS"
  gate_sweep transport "$bdir" BENCH_transport_chaos
  gate_compare transport
  echo "==== [chaos-smoke] OK ===="
}

run_lint_smoke() {
  local dir="$ROOT/build-check-lint-smoke"
  echo "==== [lint-smoke] configure ===="
  configure "$dir" Release OFF ON OFF
  echo "==== [lint-smoke] build ===="
  cmake --build "$dir" --target peachy-lint test_lint -j "$JOBS"
  echo "==== [lint-smoke] rule-engine tests ===="
  "$dir/tests/test_lint"
  echo "==== [lint-smoke] fixture corpus must produce findings ===="
  if "$dir/tools/peachy-lint" --quiet "$ROOT/tests/lint_fixtures" >/dev/null; then
    echo "lint-smoke: fixture corpus produced no findings — the rules are dead" >&2
    exit 1
  fi
  echo "==== [lint-smoke] zero-findings gate on src/ + examples/ ===="
  "$dir/tools/peachy-lint" "$ROOT/src" "$ROOT/examples"
  echo "==== [lint-smoke] validate peachy-lint/1 JSON ===="
  local lint_json="$dir/lint_clean.json"
  "$dir/tools/peachy-lint" --json "$ROOT/src" "$ROOT/examples" > "$lint_json"
  python3 - "$lint_json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "peachy-lint/1", doc.get("schema")
assert doc["findings"] == [], doc["findings"]
assert doc["files_scanned"] > 50, doc["files_scanned"]
print(f"lint JSON OK: {doc['files_scanned']} files scanned, clean")
EOF
  echo "==== [lint-smoke] OK ===="
}

run_werror() {
  local dir="$ROOT/build-check-werror"
  echo "==== [werror] configure ===="
  configure "$dir" Release ON ON ON -DCMAKE_CXX_FLAGS=-Werror
  echo "==== [werror] build ===="
  cmake --build "$dir" -j "$JOBS"
  echo "==== [werror] OK ===="
}

configs=("$@")
if [ "${#configs[@]}" -eq 0 ]; then
  configs=(asan-ubsan tsan analysis bench-smoke obs-smoke faults-smoke lint-smoke transport-smoke transport-bench-smoke chaos-smoke werror)
fi

for cfg in "${configs[@]}"; do
  case "$cfg" in
    asan-ubsan)  run_config asan-ubsan -DPEACHY_SANITIZE=ON ;;
    tsan)        run_config tsan -DPEACHY_TSAN=ON ;;
    analysis)    run_config analysis -DPEACHY_ANALYSIS=ON ;;
    bench-smoke) run_bench_smoke ;;
    obs-smoke)   run_obs_smoke ;;
    faults-smoke) run_faults_smoke ;;
    lint-smoke)  run_lint_smoke ;;
    transport-smoke) run_transport_smoke ;;
    transport-bench-smoke) run_transport_bench_smoke ;;
    chaos-smoke) run_chaos_smoke ;;
    werror)      run_werror ;;
    *) echo "unknown config '$cfg' (expected: asan-ubsan, tsan, analysis, bench-smoke, obs-smoke, faults-smoke, lint-smoke, transport-smoke, transport-bench-smoke, chaos-smoke, werror)" >&2; exit 2 ;;
  esac
done

echo "all configurations passed"
