# Perf gates — sourced by scripts/check.sh and scripts/bench.sh, so each
# JSON regression harness is gated one way wherever it runs.  A gate runs
# the harness's sweeps from <build-dir>/bench, min-merges them per row
# (scripts/bench_compare.py), and fails when the geomean of fresh over
# committed kernel_ns (BENCH_<harness>.json at the repo root) exceeds
# 1.02.
#
#   kernels    one bench_kernels pass at --repeat 5 (the pass min-merges
#              its own repeats per row)
#   transport  three bench_transport sweeps at --repeat 9.  On a busy
#              1-core host the floor of a SINGLE sweep drifts ±10-20% per
#              row on minutes timescales (measured: no inproc row stays
#              within ±2% across five back-to-back best-of-9 sweeps, but
#              the per-row min of any three consecutive sweeps does), so
#              the min-merge spans whole runs.  A real regression shifts
#              every sweep's floor and still trips the gate.
#
# Usage (after `source scripts/gates.sh`; ROOT is the repo root):
#   gate_sweep <harness> <build-dir> <name>   run the sweeps; sets GATE_SWEEPS
#   gate_compare <harness> [row-regex]        gate GATE_SWEEPS vs the baseline
#   gate_update <harness>                     write their min-merge as the baseline

# The row set of the transport-bench-smoke gate: the wire fast paths ride
# the seam the in-process backend does, and must cost it nothing.  (The
# shm/socket rows are gated only as part of the whole table.)
GATE_INPROC_ROWS='_inproc'

gate_sweep() {
  local harness="$1" dir="$2" name="$3" sweeps repeat i
  case "$harness" in
    kernels) sweeps=1 repeat=5 ;;
    transport) sweeps=3 repeat=9 ;;
    *) echo "unknown gate '$harness' (expected: kernels, transport)" >&2; return 2 ;;
  esac
  GATE_SWEEPS=()
  for ((i = 1; i <= sweeps; i++)); do
    GATE_SWEEPS+=("$dir/bench/$name.$i.json")
    "$dir/bench/bench_$harness" --repeat "$repeat" --out "${GATE_SWEEPS[-1]}"
  done
}

gate_compare() {
  python3 "$ROOT/scripts/bench_compare.py" "$ROOT/BENCH_$1.json" "${GATE_SWEEPS[@]}" \
    ${2:+--filter "$2"} --tolerance 0.02
}

gate_update() {
  python3 - "$ROOT/scripts" "$ROOT/BENCH_$1.json" "${GATE_SWEEPS[@]}" <<'EOF'
import json, sys
sys.path.insert(0, sys.argv[1])
from bench_compare import min_merge
doc, rows = min_merge(sys.argv[3:])
# The harness's own layout: header keys, then one row per line.
head = "".join(f'  "{k}": {json.dumps(v)},\n' for k, v in doc.items() if k != "benchmarks")
body = ",\n".join("    " + json.dumps(row) for row in rows.values())
with open(sys.argv[2], "w") as f:
    f.write("{\n" + head + '  "benchmarks": [\n' + body + "\n  ]\n}\n")
print(f"baseline refreshed: {sys.argv[2]} ({len(rows)} rows)")
EOF
}
