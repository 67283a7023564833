#!/usr/bin/env python3
"""Diff two puschpool benchmark summaries and flag metric regressions.

Usage:
    python3 scripts/bench_compare.py BASELINE.json CURRENT.json
        [--threshold 0.02] [--show-all]

Inputs are either merged summaries ("pp-bench-summary-v1", the output of
bench_all.sh / bench_merge) or single bench reports ("pp-bench-report-v1",
the --json output of one bench binary).

Gating rule (docs/DETERMINISM.md §4): a metric is compared only when BOTH
sides mark it deterministic and its "better" direction is not "info".
Wall-clock metrics are host-dependent and never gate.  Directions:

    lower   regression = value increased by more than --threshold (relative)
    higher  regression = value decreased by more than --threshold (relative)
    exact   regression = any difference beyond --exact-epsilon (default
            1e-12 relative, absolute near zero) - golden values, with just
            enough slack to absorb last-ULP libm differences between hosts
            (std::sin/cos are not correctly rounded everywhere)

Each changed metric prints its signed relative change (cur - base)/|base|.
An exact metric that moved is listed as "MOVED (exact)": it fails like a
regression, whichever way it went.  Improvements and benign changes are
listed but do not fail; metrics or rows present on only one side are
warnings.  Exit status: 0 = no regressions or exact moves, 1 = at least
one, 2 = usage/parse error.
"""

import argparse
import json
import sys


def usage_error(msg):
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        usage_error(f"cannot load {path}: {e}")
    schema = doc.get("schema", "")
    if schema == "pp-bench-summary-v1":
        reports = doc.get("reports", [])
    elif schema == "pp-bench-report-v1":
        reports = [doc]
    else:
        usage_error(f"{path}: unknown schema {schema!r}")
    return doc, reports


def index_metrics(reports):
    """(report id, row, metric) -> metric dict.

    The report id prefers the merge-time "source" tag (unique per input
    file) over the "bench" name: one binary run under different flags
    contributes several reports to a --full summary, and keying on the
    bench name alone would silently collapse them.  Duplicate keys are a
    summary defect, not something to hide - collect them for a warning.
    """
    out, dups = {}, []
    for rep in reports:
        rep_id = rep.get("source") or rep.get("bench", "?")
        for row in rep.get("rows", []):
            for m in row.get("metrics", []):
                key = (rep_id, row.get("name", "?"), m.get("name", "?"))
                if key in out:
                    dups.append(" / ".join(key))
                out[key] = m
    return out, dups


def gated(metric):
    return bool(metric.get("deterministic")) and metric.get("better") in (
        "lower",
        "higher",
        "exact",
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.02,
        help="relative change tolerated for lower/higher metrics "
        "(default 0.02 = 2%%)",
    )
    ap.add_argument(
        "--exact-epsilon",
        type=float,
        default=1e-12,
        help="tolerance for 'exact' metrics: |cur - base| <= eps * "
        "max(|base|, |cur|, 1) passes (absorbs cross-libm ULP noise)",
    )
    ap.add_argument(
        "--show-all",
        action="store_true",
        help="also list unchanged gated metrics",
    )
    args = ap.parse_args()

    _, base_reports = load(args.baseline)
    _, cur_reports = load(args.current)
    base, base_dups = index_metrics(base_reports)
    cur, cur_dups = index_metrics(cur_reports)

    regressions, moved, improvements, warnings = [], [], [], []
    unchanged = 0
    for d in base_dups:
        warnings.append(f"duplicate metric key in baseline: {d}")
    for d in cur_dups:
        warnings.append(f"duplicate metric key in current: {d}")

    for key in sorted(base.keys() | cur.keys()):
        label = " / ".join(key)
        b, c = base.get(key), cur.get(key)
        if b is None or c is None:
            warnings.append(
                f"only in {'current' if b is None else 'baseline'}: {label}")
            continue
        if not (gated(b) and gated(c)):
            continue
        bv, cv = b.get("value", 0.0), c.get("value", 0.0)
        if not isinstance(bv, (int, float)) or not isinstance(cv, (int, float)):
            # The JSON writer emits null for NaN/inf; a gated metric must
            # never be non-numeric - that's a report defect, not a perf diff.
            usage_error(f"non-numeric value for gated metric {label}: "
                        f"{bv!r} vs {cv!r}")
        better = c.get("better")
        if bv == cv:
            unchanged += 1
            if args.show_all:
                print(f"  same       {label} = {cv}")
            continue
        if bv != 0:
            rel = (cv - bv) / abs(bv)
        else:
            rel = float("inf") if cv > 0 else float("-inf")
        desc = f"{label}: {bv} -> {cv} ({rel:+.1%})"
        if better == "exact":
            if abs(cv - bv) <= args.exact_epsilon * max(abs(bv), abs(cv), 1.0):
                unchanged += 1
                if args.show_all:
                    print(f"  ulp-noise  {desc}")
            else:
                moved.append(desc)
        elif abs(rel) <= args.threshold:
            unchanged += 1
            if args.show_all:
                print(f"  within tol {desc}")
        elif (better == "lower") == (cv > bv):
            regressions.append(desc)
        else:
            improvements.append(desc)

    for w in warnings:
        print(f"  warning    {w}")
    for i in improvements:
        print(f"  improved   {i}")
    for m in moved:
        print(f"  MOVED (exact) {m}")
    for r in regressions:
        print(f"  REGRESSED  {r}")
    print(
        f"bench_compare: {unchanged} unchanged, {len(improvements)} improved, "
        f"{len(regressions)} regressed, {len(moved)} exact moved, "
        f"{len(warnings)} warning(s) (threshold {args.threshold:.1%})"
    )
    return 1 if regressions or moved else 0


if __name__ == "__main__":
    sys.exit(main())
