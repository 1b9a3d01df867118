#!/usr/bin/env bash
# Benchmark runner — builds the Release bench tree and runs each JSON
# regression harness through its perf gate, as defined in
# scripts/gates.sh and run by scripts/check.sh: the same sweeps, the same
# 2% geomean tolerance, the same row sets.  Two suites:
#
#   kernels    bench_kernels   vs BENCH_kernels.json    (the obs-smoke and
#                                                        faults-smoke gate)
#   transport  bench_transport vs BENCH_transport.json  (every row: the
#                                                        chaos-smoke gate;
#                                                        inproc rows: the
#                                                        transport-bench-smoke
#                                                        gate)
#
# Usage: scripts/bench.sh                      # both suites: run + compare
#        scripts/bench.sh --suite transport    # one suite only
#        scripts/bench.sh --update             # refresh the committed baseline(s)
#                                              # from the gate's own sweeps
#        scripts/bench.sh -- [args...]         # raw passthrough to the harness(es)
#   e.g. scripts/bench.sh --suite kernels -- --tiny   # smoke sizes, no comparison

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
DIR="$ROOT/build-bench"
# shellcheck source=scripts/gates.sh
source "$ROOT/scripts/gates.sh"

SUITE=all
UPDATE=0
PASSTHROUGH=()
HAVE_PASSTHROUGH=0
while [ "$#" -gt 0 ]; do
  case "$1" in
    --suite) SUITE="$2"; shift 2 ;;
    --update) UPDATE=1; shift ;;
    --) shift; PASSTHROUGH=("$@"); HAVE_PASSTHROUGH=1; break ;;
    *) echo "unknown arg '$1' (use -- to pass args to the harness)" >&2; exit 2 ;;
  esac
done

case "$SUITE" in
  kernels | transport) SUITES=("$SUITE") ;;
  all) SUITES=(kernels transport) ;;
  *) echo "unknown suite '$SUITE' (expected: kernels, transport, all)" >&2; exit 2 ;;
esac

cmake -B "$DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DPEACHY_BUILD_BENCH=ON -DPEACHY_BUILD_TESTS=OFF -DPEACHY_BUILD_EXAMPLES=OFF
for s in "${SUITES[@]}"; do
  cmake --build "$DIR" --target "bench_$s" -j "$JOBS"
done

status=0
for s in "${SUITES[@]}"; do
  if [ "$HAVE_PASSTHROUGH" -eq 1 ]; then
    echo "==== [$s] passthrough ===="
    "$DIR/bench/bench_$s" "${PASSTHROUGH[@]}" || status=$?
    continue
  fi
  gate_sweep "$s" "$DIR" "BENCH_${s}_fresh"
  if [ "$UPDATE" -eq 1 ]; then
    gate_update "$s"
    continue
  fi
  echo "==== [$s] gate: every row ===="
  gate_compare "$s" || status=$?
  if [ "$s" = transport ]; then
    echo "==== [$s] gate: inproc rows ===="
    gate_compare "$s" "$GATE_INPROC_ROWS" || status=$?
  fi
done
exit "$status"
