#!/usr/bin/env python3
"""Repeat benchmark runs, measure their spread, and compare two commits.

    # ten runs of one workload, one seed each, appended to a JSON-lines file
    python3 perfbench/compare.py sweep --workload weyl_sweep --seeds 1-10 \\
        --out runs.jsonl

    # median, quartiles and (q3 - q1) / median of every metric, also as JSON
    python3 perfbench/compare.py spread runs.jsonl --json summary.json

    # alternating pairs of a parent and a change checkout, then the verdict
    python3 perfbench/compare.py pairs --parent ../parent --change . \\
        --workload weyl_sweep --seeds 1-10 --out pairs.jsonl

The verdict follows the rule in README.md: a metric improved only if
the change wins at least 9 of every 10 pairs (ties count for neither)
and the medians differ by more than the parent's interquartile range; it
regressed if the change's median is worse than the parent's by more
than the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"run failed in {checkout}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    run_dir = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}"
    provenance = json.loads((run_dir / "provenance.json").read_text())
    return {"checkout": str(checkout), "workload": workload, "seed": seed,
            "trace": trace, "result": result, "provenance": provenance}


def quartiles(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(records: List[dict]) -> Dict[tuple, tuple]:
    """(checkout, workload, metric) -> (median, q1, q3, iqr/median, n).

    iqr/median is None for a metric whose median is 0.
    """
    groups: Dict[tuple, List[float]] = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            key = (r["checkout"], r["workload"], name)
            groups.setdefault(key, []).append(m["value"])
    out = {}
    for key, values in groups.items():
        if len(values) < 2:
            continue
        q1, q2, q3 = quartiles(values)
        out[key] = (statistics.median(values), q1, q3,
                    (q3 - q1) / abs(q2) if q2 else None, len(values))
    return out


def summary(records: List[dict], table: Dict[tuple, tuple]) -> dict:
    """Provenance of the first run plus every metric's spread by workload."""
    provenance = dict(records[0]["provenance"])
    for key in ("seed", "workload", "why", "oqmap_file"):
        provenance.pop(key, None)
    # traced runs of a workload are listed apart, as "<workload>/trace"
    workloads: Dict[str, dict] = {}
    for r in records:
        key = r["workload"] + ("/trace" if r["trace"] else "")
        w = workloads.setdefault(key, {"why": r["provenance"]["why"],
                                       "seeds": [], "metrics": {}})
        w["seeds"].append(r["seed"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for (_, workload, name), (med, q1, q3, rel, n) in sorted(table.items()):
        key = workload if name in end_to_end else workload + "/trace"
        workloads[key]["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3, "iqr_over_median": rel, "n": n}
    return {"provenance": provenance,
            "run_seconds": SPEC["run_seconds"], "workloads": workloads}


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = min(len(parent), len(change))
    if pairs < 10:
        return f"no verdict: {pairs} pairs, the rule needs at least 10"
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    if wins >= 0.9 * pairs and sign * (mp - mc) > q3 - q1:
        return f"improved ({wins}/{pairs} wins)"
    if sign * (mc - mp) > bound * abs(mp):
        return f"REGRESSED beyond bound {bound:g}"
    if (q3 - q1) > bound * abs(mp):
        return "unresolved (parent spread wider than the bound)"
    return f"no change beyond bound ({wins}/{pairs} wins)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("spread")
    p.add_argument("files", nargs="+")
    p.add_argument("--json", help="also write the summary to this file")
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.mode == "sweep":
        with open(args.out, "a") as fh:
            for seed in seeds(args.seeds):
                record = run_once(HERE.parent, args.workload, seed, args.trace)
                fh.write(json.dumps(record) + "\n")
                fh.flush()
        return 0

    if args.mode == "spread":
        records = [json.loads(line) for f in args.files
                   for line in Path(f).read_text().splitlines() if line]
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        table = spread(records)
        if args.json:
            Path(args.json).write_text(json.dumps(summary(records, table),
                                                  indent=2) + "\n")
        for (checkout, workload, name), (med, q1, q3, rel, n) in sorted(
                table.items()):
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"  bound {bound:g}" + ("  WIDE" if rel is not None and rel > bound / 3 else ""))
            rel_text = "n/a" if rel is None else f"{rel:.4f}"
            print(f"{workload:<16} {name:<40} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} iqr/median {rel_text} "
                  f"n={n}{flag}")
        return 0

    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    records = []
    with open(args.out, "a") as fh:
        for i, seed in enumerate(seeds(args.seeds)):
            order = (parent, change) if i % 2 == 0 else (change, parent)
            for checkout in order:
                record = run_once(checkout, args.workload, seed, 0)
                records.append(record)
                fh.write(json.dumps(record) + "\n")
                fh.flush()
    for m in SPEC["end_to_end"]:
        side = {c: [r["result"]["metrics"][m["name"]]["value"] for r in records
                    if r["checkout"] == str(c)] for c in (parent, change)}
        print(f"{args.workload:<16} {m['name']:<14} "
              f"{verdict(side[parent], side[change], m['better'], m['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
