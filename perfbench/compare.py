"""Compare two sets of benchmark results, metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --out DIR``.  For
every workload and end-to-end metric in ``BENCHMARK.json`` this prints
both sides' median and quartiles, the share of pairs the change wins, and
a verdict:

- ``improved``: the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ by more than the base's own
  quartile spread;
- ``worse``: the change's median is worse than the base's by more than
  the metric's bound;
- ``no worse``: within the bound, and the base's spread is within it too;
- ``unresolved``: within the bound, but the base's runs spread wider than
  the bound, so the data cannot tell.

Runs are paired by seed when both sides ran the same seeds, else in the
order they started.  The exit code is 1 when any metric is ``worse``.

``--change-trace 1`` takes the change side from traced runs (each saves
its end-to-end figures too), so ``compare.py DIR DIR --change-trace 1``
shows what tracing costs the same code on the same seeds.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str, trace: int = 0) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("trace") == trace:
            runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["started"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {d["seed"]: d for d in change}
    if {d["seed"] for d in base} == set(by_seed):
        return [(d, by_seed[d["seed"]]) for d in base]
    return list(zip(base, change))


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def verdict(metric: dict, base: list[float], change: list[float], wins: float) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    worse_by = sign * (cmed - bmed) / bmed if bmed else 0.0
    if wins >= 0.9 and sign * (cmed - bmed) < 0 and abs(cmed - bmed) > (b3 - b1):
        return "improved"
    if worse_by > metric["bound"]:
        return "worse"
    spread = (b3 - b1) / bmed if bmed else 0.0
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    return "no worse"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--change-trace", type=int, choices=(0, 1), default=0,
                    help="take the change side from traced runs")
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    base, change = load(args.base), load(args.change, args.change_trace)
    worst = 0
    header = f"{'workload':13} {'metric':12} {'base q1/med/q3':>30} {'change q1/med/q3':>30} {'won':>5}  verdict"
    print(header)
    for workload in sorted(set(base) & set(change)):
        paired = pairs(base[workload], change[workload])
        for side, docs in (("base", base[workload]), ("change", change[workload])):
            shares = {(d["failed"], d["attempted"]) for d in docs}
            bad = [d["seed"] for d in docs if not d["correct"]]
            if bad:
                print(f"{workload}: {side} runs with failed checks, seeds {bad}")
            if len({f / a for f, a in shares}) > 1:
                print(f"{workload}: {side} failed share differs between runs: {sorted(shares)}")
        for m in metrics:
            name = m["name"]
            b = [d["end_to_end"][name] for d in base[workload]]
            c = [d["end_to_end"][name] for d in change[workload]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            # Ties count for neither side.
            won = sum(
                1 for x, y in paired
                if sign * (y["end_to_end"][name] - x["end_to_end"][name]) < 0
            )
            wins = won / len(paired) if paired else 0.0
            v = verdict(m, b, c, wins)
            worst = max(worst, v == "worse")
            print(f"{workload:13} {name:12} {_fmt(quartiles(b)):>30} {_fmt(quartiles(c)):>30} "
                  f"{wins:5.0%}  {v}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
