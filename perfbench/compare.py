#!/usr/bin/env python3
"""Compare two sets of benchmark records.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines ``perfbench/run.py --out`` appends.  For
every workload and end-to-end metric this prints both medians with
their spread (quartile distance over median) and the change, flagged
``worse`` beyond the metric's bound in ``BENCHMARK.json`` and
``unresolved`` when either side's own spread exceeds the bound.

Records whose environment fingerprints differ are not compared: the
script exits with status 2.  Otherwise it exits 1 when any metric got
worse and 0 when none did.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values: list[float]) -> float:
    """Quartile distance over the median (0 for fewer than 2 values)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def fingerprints(records: list[dict]) -> set[str]:
    return {json.dumps(r["fingerprint"], sort_keys=True) for r in records}


def compare(base: list[dict], new: list[dict], declared: list[dict]):
    """Rows of ``(workload, metric, base_median, base_spread,
    new_median, new_spread, change, verdict)``; ``change`` is signed so
    that positive is better."""
    rows = []
    workloads = sorted({r["workload"] for r in base + new if not r["trace"]})
    for workload in workloads:
        for metric in declared:
            name, sign = metric["name"], (
                1 if metric["better"] == "higher" else -1
            )
            sides = [
                [r["metrics"][name]["value"] for r in records
                 if r["workload"] == workload and not r["trace"]]
                for records in (base, new)
            ]
            if not all(sides):
                continue
            (b_med, n_med) = (statistics.median(v) for v in sides)
            (b_spr, n_spr) = (spread(v) for v in sides)
            change = sign * (n_med - b_med) / b_med if b_med else 0.0
            if max(b_spr, n_spr) > metric["bound"]:
                verdict = "unresolved"
            elif change < -metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append((workload, name, b_med, b_spr, n_med, n_spr,
                         change, verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl",
              file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    prints = fingerprints(base + new)
    if len(prints) > 1:
        print("perfbench: refusing to compare results from different "
              "environments:", file=sys.stderr)
        for p in sorted(prints):
            print(f"  {p}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["end_to_end"]
    worse = False
    for (workload, name, b_med, b_spr, n_med, n_spr, change,
         verdict) in compare(base, new, declared):
        worse |= verdict == "worse"
        print(f"{workload:<22} {name:<18} {b_med:>12.6g} ({b_spr:5.1%}) -> "
              f"{n_med:>12.6g} ({n_spr:5.1%})  {change:+7.2%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
