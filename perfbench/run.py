"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload imm-ic --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's public entry points (see ``layers.py``), prints the per-layer
metrics and writes every span to ``perfbench/results/``.  ``--out DIR``
also saves the whole result, with its provenance, for ``compare.py``.
The last line of standard output is the result; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "spread": "vertices",
    "peak_rss_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory to save the full result in")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # Wrap before the workload module binds any program callables.
        layers.install(tracer)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    run = workloads.Run(args.workload, args.seed, args.seconds, tracer)
    started = time.time()
    outcome = workloads.WORKLOADS[args.workload](run)

    if tracer is None:
        metrics = {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        tracer.uninstall()
        facts = dict(outcome.facts, rounds=outcome.rounds, setups=outcome.setups,
                     unclocked_s=tracer.unclocked_cost())
        values = layers.compute(tracer, facts)
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in layers.PER_LAYER
        }
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        tracer.write(
            os.path.join(HERE, "results", f"spans-{args.workload}-s{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed},
        )
        for layer, why in tracer.unmeasured.items():
            print(f"unmeasured layer {layer}: {'; '.join(why)}", file=sys.stderr)

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        saved = dict(
            result,
            workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
            started=started, wall_s=time.time() - started,
            rounds=outcome.rounds, setups=outcome.setups,
            end_to_end=outcome.metrics,
            facts={k: v for k, v in outcome.facts.items() if k != "reads"},
            provenance=provenance(),
        )
        name = f"{args.workload}-s{args.seed}-t{args.trace}-{int(started * 1000)}.json"
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, default=float)
    print(json.dumps(result))
    return 0


def provenance() -> dict[str, str | int]:
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    return {
        "git_sha": sha,
        "nproc": os.cpu_count() or 0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    sys.exit(main())
