"""Compare two result sets of the benchmark, workload by workload.

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are result records written by ``bench/run.py`` (files, or
directories such as ``.bench_out/results``), one set per commit.  Runs of a
workload are paired in the order they were made (i-th base run with i-th
change run), which is the alternating order when the two commits were run
turn about.

For every workload and metric it prints each side's median and quartiles,
the share of pairs the change wins (ties count for neither side) and a
verdict, judged with the bounds in BENCHMARK.json:

* improved:   the change wins at least 9 of 10 pairs and the medians differ
              by more than the base's own quartile spread;
* worse:      the same with the change losing, or the change's median worse
              than the base's by more than the bound;
* unresolved: the run-to-run spread is wider than the bound, unless every
              change run beats every base run;
* unchanged:  otherwise.

Per-layer metrics have no bound; they get "improved" or "worse" by the
pair rule, else "-".  The exit code is 1 when any end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """workload -> [record, ...] in the order the runs were made."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("metrics") and "workload" in rec:
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r.get("stamp", 0))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, lower_better, bound):
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    better = (lambda c, b: c < b) if lower_better else (lambda c, b: c > b)
    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs) / len(pairs) if pairs else 0.0
    losses = sum(better(b, c) for b, c in pairs) / len(pairs) if pairs else 0.0
    clear = abs(cmed - bmed) > bq3 - bq1
    if wins >= 0.9 and clear:
        return wins, "improved"
    if losses >= 0.9 and clear:
        return wins, "worse"
    if bound is None:
        return wins, "-"
    scale = abs(bmed) or 1.0
    worse_by = ((cmed - bmed) if lower_better else (bmed - cmed)) / scale
    if worse_by > bound:
        return wins, "worse"
    spread = max((bq3 - bq1) / scale, (cq3 - cq1) / (abs(cmed) or 1.0))
    every_better = all(better(c, b) for c in change for b in base)
    if spread > bound and not every_better:
        return wins, "unresolved"
    return wins, "unchanged"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    spec = json.loads(args.bench.read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    worse = 0
    print(f"{'workload':12s} {'metric':38s} {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>5s}  verdict")
    for key in sorted(set(base) & set(change)):
        b_runs, c_runs = base[key], change[key]
        names = [n for n in b_runs[0]["metrics"] if n in meta]
        for name in names:
            m = meta[name]
            bv = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not bv or not cv:
                continue
            wins, word = verdict(bv, cv, m["better"] == "lower", m.get("bound"))
            worse += word == "worse" and "bound" in m
            bq1, bmed, bq3 = quartiles(bv)
            cq1, cmed, cq3 = quartiles(cv)
            base_col = f"{bmed:.5g} [{bq1:.4g}, {bq3:.4g}]"
            change_col = f"{cmed:.5g} [{cq1:.4g}, {cq3:.4g}]"
            print(f"{key[0]:12s} {name:38s} {base_col:34s} {change_col:34s} {wins:5.2f}  {word}")
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"runs on one side only: {missing}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
