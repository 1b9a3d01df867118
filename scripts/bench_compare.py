#!/usr/bin/env python3
"""Compare a fresh bench run against the committed baseline.

All inputs are "peachy-bench/1" JSON documents.  Given several fresh
files (consecutive sweeps of the same harness), each (name, shape) row
takes the minimum kernel_ns across them first: a single sweep's floor
drifts on a busy host, the per-row min of a few sweeps does not.  A row
missing from any one sweep is an input error.  Rows are then matched
against the baseline by (name, shape); for each match the ratio
fresh_kernel_ns / base_kernel_ns is computed, and the gate is the
*geometric mean* of those ratios — individual rows are noisy at small
sizes, but the geomean over the whole suite is stable, so a real
regression (e.g. a hook that stopped being branch-predicted away) moves
it while scheduler jitter does not.

Exit codes: 0 pass, 1 regression beyond tolerance, 2 usage/input error.
"""

import argparse
import json
import math
import re
import sys


def fail(msg):
    """Input/usage error: named message on stderr, exit 2 (never a traceback)."""
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        fail(f"{path}: no such file — run the bench harness first, or check "
             "that the committed baseline path is right")
    except IsADirectoryError:
        fail(f"{path}: is a directory, expected a peachy-bench/1 JSON file")
    except json.JSONDecodeError as e:
        fail(f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    except OSError as e:
        fail(f"{path}: {e.strerror or e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value is {type(doc).__name__}, expected an object")
    if doc.get("schema") != "peachy-bench/1":
        fail(f"{path}: schema is {doc.get('schema')!r}, expected 'peachy-bench/1'")
    rows = {}
    for row in doc.get("benchmarks", []):
        if not isinstance(row, dict) or "name" not in row or "shape" not in row:
            fail(f"{path}: benchmark row missing name/shape: {row!r}")
        rows[(row["name"], row["shape"])] = row
    if not rows:
        fail(f"{path}: no benchmark rows")
    return doc, rows


def min_merge(paths):
    """Load every fresh sweep and keep the per-row minimum kernel_ns."""
    docs = [load(p) for p in paths]
    first_doc, merged = docs[0]
    for path, (doc, rows) in zip(paths[1:], docs[1:]):
        if doc.get("tiny") != first_doc.get("tiny"):
            fail(f"{path}: tiny={doc.get('tiny')}, but {paths[0]} has "
                 f"tiny={first_doc.get('tiny')}; sweeps must use the same sizes")
        missing = sorted(merged.keys() ^ rows.keys())
        if missing:
            key = missing[0]
            where = path if key in merged else paths[0]
            fail(f"row {key} is missing from {where}; every fresh sweep "
                 "must produce the same rows")
        for key, row in rows.items():
            a, b = merged[key].get("kernel_ns"), row.get("kernel_ns")
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                fail(f"missing kernel_ns for {key} in {paths[0]} or {path}")
            merged[key] = dict(merged[key], kernel_ns=min(a, b))
    return first_doc, merged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("fresh", nargs="+",
                    help="freshly produced JSON; several sweeps are "
                         "min-merged per row before the comparison")
    ap.add_argument("--tolerance", type=float, default=0.02,
                    help="allowed geomean slowdown, fractional "
                         "(default 0.02 = 2%%)")
    ap.add_argument("--row-tolerance", type=float, default=0.25,
                    help="per-row slowdown that triggers a warning, "
                         "fractional (default 0.25); informational only")
    ap.add_argument("--filter", default=None,
                    help="only compare rows whose name matches this "
                         "regex (e.g. '_inproc' for bench_transport's "
                         "in-process rows)")
    args = ap.parse_args()

    base_doc, base = load(args.baseline)
    fresh_doc, fresh = min_merge(args.fresh)
    if len(args.fresh) > 1:
        print(f"min-merged {len(args.fresh)} sweeps per (name, shape) row")

    if base_doc.get("tiny") != fresh_doc.get("tiny"):
        fail("baseline and fresh runs used different sizes "
             f"(tiny={base_doc.get('tiny')} vs {fresh_doc.get('tiny')}); "
             "ratios would be meaningless")
    if base_doc.get("isa") != fresh_doc.get("isa"):
        print(f"warning: ISA differs (baseline={base_doc.get('isa')}, "
              f"fresh={fresh_doc.get('isa')}); comparing anyway",
              file=sys.stderr)

    common = sorted(base.keys() & fresh.keys())
    if args.filter is not None:
        try:
            pattern = re.compile(args.filter)
        except re.error as e:
            fail(f"--filter {args.filter!r} is not a valid regex: {e}")
        common = [key for key in common if pattern.search(key[0])]
        if not common:
            fail(f"no common rows match --filter {args.filter!r}")
    if not common:
        fail("no common (name, shape) rows between the two runs")
    for key in sorted(base.keys() - fresh.keys()):
        print(f"warning: baseline-only row skipped: {key}", file=sys.stderr)
    for key in sorted(fresh.keys() - base.keys()):
        print(f"warning: fresh-only row skipped: {key}", file=sys.stderr)

    log_sum = 0.0
    worst = (1.0, None)
    print(f"{'benchmark':<28} {'base ns':>12} {'fresh ns':>12} {'ratio':>7}")
    for key in common:
        b, f = base[key].get("kernel_ns"), fresh[key].get("kernel_ns")
        if not isinstance(b, (int, float)) or not isinstance(f, (int, float)) \
                or b <= 0 or f <= 0:
            fail(f"missing or non-positive kernel_ns for {key}")
        ratio = f / b
        log_sum += math.log(ratio)
        if ratio > worst[0]:
            worst = (ratio, key)
        flag = ""
        if ratio > 1.0 + args.row_tolerance:
            flag = "  <-- slow (informational)"
        print(f"{key[0]:<28} {b:>12.0f} {f:>12.0f} {ratio:>7.3f}{flag}")

    geomean = math.exp(log_sum / len(common))
    limit = 1.0 + args.tolerance
    print(f"\ngeomean ratio over {len(common)} rows: {geomean:.4f} "
          f"(limit {limit:.4f})")
    if worst[1] is not None:
        print(f"worst row: {worst[1][0]} at {worst[0]:.3f}x")

    if geomean > limit:
        print(f"FAIL: geomean slowdown {100 * (geomean - 1):.1f}% exceeds "
              f"{100 * args.tolerance:.1f}% tolerance", file=sys.stderr)
        return 1
    print("PASS: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
