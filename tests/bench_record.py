"""Record perfbench runs of this checkout, and of a base tree beside it.

    python tests/bench_record.py --pr N [--base DIR] [--runs R]

Runs the unmodified ``perfbench/run.py`` ``R`` times (default 10) on each
workload of ``BENCHMARK.json``, at its declared run length and default
seed, each run a child process whose environment alone gets glibc's mmap
and trim thresholds at 256 MiB.  With ``--base DIR`` (a ``git archive``
tree of the base commit at a path as long as this checkout's; a longer
path has read slower) the trees run in pairs, base first in even pairs.
``BENCH_<N>.json`` at the repository root then holds the children's
environment, each workload's first context line, and per workload and
tree the failed ops and the runs that failed perfbench's check
(``failed``, ``incorrect_runs``), each run's wall time, and per
end-to-end metric the median, quartile distance and every run's value.
With ``--base`` each metric also gets the ratio change/base of the
medians, the per-pair ratios, their median with ``ab.py``'s bootstrap
interval (``interval95``), the share of pairs the change read lower, and
a verdict: ``worse`` past the metric's bound, ``unresolved`` when either
side's quartile distance over its median is wider than the bound, else
``within``.  The verdict is the gate.  Each interval is taken at
``1 - 0.05 / 15``, one share of the 5% for each of the 15 timed ones (5
metrics on each of 3 workloads; ``ok_frac`` reads 1 in a run without
failures), so on an unchanged tree all 15 hold 1.0 together in about 95%
of records; at 95% each, they would all hold it in about 46%.  The key
keeps its name.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from ab import bootstrap_interval

ROOT = Path(__file__).resolve().parents[1]
MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(256 << 20), "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}
# the timed intervals of a record, which share one 5% chance of a miss
INTERVALS = 15
REPORTED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")


def run_once(tree: Path, workload: str, seconds: float, env: dict) -> tuple[dict, dict, float]:
    """One perfbench run in ``tree``: its context line, its result and its wall time."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    t0 = perf_counter()
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    context, result = map(json.loads, out.splitlines()[-2:])
    return context, result, perf_counter() - t0


def summary(values: list[float]) -> dict:
    """One metric's runs with their median and quartile distance; one run is its own quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "iqr": q3 - q1, "values": values}


def spread(side: dict) -> float:
    """The quartile distance over the median; a spread about a median of 0 is infinite."""
    if side["median"]:
        return side["iqr"] / abs(side["median"])
    return math.inf if side["iqr"] else 0.0


def compare(base: dict, change: dict, spec: dict) -> dict:
    """The change's runs of one metric against the base's, run in pairs."""
    ratios = [c / b if b else 1.0 for b, c in zip(base["values"], change["values"])]
    lower = sum(c < b for b, c in zip(base["values"], change["values"]))
    ratio = change["median"] / base["median"] if base["median"] else 1.0
    worse = ratio > 1 + spec["bound"] if spec["better"] == "lower" else ratio < 1 - spec["bound"]
    unresolved = max(spread(base), spread(change)) > spec["bound"]
    return {"median_ratio": ratio, "pair_ratios": ratios, "pair_median": statistics.median(ratios),
            "interval95": bootstrap_interval(ratios, 0.05 / INTERVALS), "lower_share": lower / len(ratios),
            "verdict": "worse" if worse else "unresolved" if unresolved else "within"}


def record(pr: int, base: Path | None, runs: int, workloads=None, seconds=None) -> dict:
    """The runs as ``BENCH_<pr>.json`` holds them.  The tests narrow a run:
    ``workloads`` replaces every declared workload and ``seconds`` the
    declared run length (``perfbench/run.py`` runs at least 101 ops)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if seconds is None else seconds
    specs = {m["name"]: m for m in bench["end_to_end"]}
    env = {**os.environ, **MALLOC}
    trees = {"change": ROOT} if base is None else {"base": base, "change": ROOT}
    doc = {"pr": pr, "base": None if base is None else base.name, "runs": runs,
           "environment": {v: env.get(v) for v in (*REPORTED_ENV, *MALLOC)}, "workloads": {}}
    for wl in workloads or [w["name"] for w in bench["workloads"]]:
        got = {side: {"wall_s": [], "failed": 0, "incorrect_runs": 0, "metrics": {}} for side in trees}
        for r in range(runs):
            for side in list(trees) if r % 2 == 0 else list(trees)[::-1]:
                context, result, wall = run_once(trees[side], wl, seconds, env)
                doc["workloads"].setdefault(wl, {"context": context})
                got[side]["wall_s"].append(wall)
                got[side]["failed"] += result["failed"]
                got[side]["incorrect_runs"] += not result["correct"]
                for name in specs:
                    got[side]["metrics"].setdefault(name, []).append(result["metrics"][name]["value"])
        for side in got.values():
            side["metrics"] = {name: summary(v) for name, v in side["metrics"].items()}
        doc["workloads"][wl].update(got)
        if base is not None:
            doc["workloads"][wl]["compare"] = {
                name: compare(got["base"]["metrics"][name], got["change"]["metrics"][name], spec)
                for name, spec in specs.items()
            }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the file BENCH_<N>.json")
    parser.add_argument("--base", type=Path, help="a tree of the base commit, run in pairs")
    parser.add_argument("--runs", type=int, default=10, help="runs (pairs with --base) per workload")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.base is not None and len(str(args.base.resolve())) != len(str(ROOT)):
        print(f"warning: {args.base} and {ROOT} differ in path length", file=sys.stderr)
    doc = record(args.pr, args.base and args.base.resolve(), args.runs)
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
