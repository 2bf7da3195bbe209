"""Time two source trees of qwsim against each other in one process.

    python tests/ab.py A B --workload W [--rounds R] [--json PATH]

``A`` and ``B`` are checkouts (say ``git archive`` of two commits,
unpacked); each tree's ``src/qwsim`` is loaded as its own package,
``qwsim_a`` and ``qwsim_b``, which works because ``qwsim`` imports itself
only relatively.  ``W`` is one of perfbench's workloads, its seeded
inputs and op from ``perfbench/workloads.py``, made as
``perfbench/run.py`` makes them at its default seed, or one of the
in-process sets of ``ab_sets.py`` (``wide-20q``, ``fresh-12q``,
``simulate-20q``), which reach the big state or never replay an input.
An untimed first pass runs every input once on each side, which fills
the memos, and compares the two sides' records; on the first input whose
records differ it names that input on stderr and exits 1, before any
timed round.  Then each round runs every input once on each side, A
first in even rounds and B first in odd ones.  It prints each side's
median, the median of the per-op ratios B/A with a bootstrap 95%
interval, and the share of ops that B ran faster; ``--json PATH`` also
writes those figures and every ratio to ``PATH``.
:func:`main` imports perfbench's runner, which sets BLAS to one thread
before numpy loads, as in a benchmark run; importing this file does
neither.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BOOTSTRAP = 2000


def load(tree: str, name: str):
    """The package under ``tree/src/qwsim``, imported as ``name``."""
    root = Path(tree).resolve() / "src" / "qwsim"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module(f"{name}.cli")


def bootstrap_interval(ratios: list[float], alpha: float = 0.05) -> tuple[float, float]:
    """The ``1 - alpha`` interval of the median of resampled ``ratios``: its
    ``alpha / 2`` and ``1 - alpha / 2`` quantiles, the 2.5th and 97.5th
    percentiles by default."""
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP))
    return medians[int(alpha / 2 * BOOTSTRAP)], medians[int((1 - alpha / 2) * BOOTSTRAP) - 1]


def first_difference(sides, wset, inputs) -> int | None:
    """The index of the first input whose records differ between the sides."""
    for k, inp in enumerate(inputs):
        a, b = (wset.op(qw, cli, inp) for qw, cli in sides)
        if not wset.same(a, b):
            return k
    return None


def timed_rounds(sides, wset, rounds: int, workdir: Path) -> list[list[float]]:
    """Each side's op times, input by input and round by round."""
    times: list[list[float]] = [[], []]
    for r in range(rounds):
        for inp in wset.inputs(r, workdir):
            for side in (0, 1) if r % 2 == 0 else (1, 0):
                qw, cli = sides[side]
                t0 = perf_counter()
                wset.op(qw, cli, inp)
                times[side].append(perf_counter() - t0)
    return times


def main(argv=None) -> int:
    sys.path.insert(0, str(PERFBENCH))
    import ab_sets
    import run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout timed as A")
    parser.add_argument("b", help="checkout timed as B")
    parser.add_argument("--workload", required=True, choices=sorted({*ab_sets.WORKLOADS, *ab_sets.SETS}))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--json", type=Path, help="also write the figures and every ratio here")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.workload in ab_sets.WORKLOADS:
        wset = ab_sets.Perfbench(args.workload, run.input_rng(ab_sets.DEFAULT_SEED, args.workload))
    else:
        wset = ab_sets.SETS[args.workload]()
    sides = [load(args.a, "qwsim_a"), load(args.b, "qwsim_b")]
    with tempfile.TemporaryDirectory() as workdir:
        inputs = wset.inputs(-1, Path(workdir))
        differ = first_difference(sides, wset, inputs)
        if differ is not None:
            print(f"error: B's records differ from A's at input {differ} of {wset.name}", file=sys.stderr)
            return 1
        times = timed_rounds(sides, wset, args.rounds, Path(workdir))
    ratios = [b / a for a, b in zip(*times)]
    lo, hi = bootstrap_interval(ratios)
    faster = sum(b < a for a, b in zip(*times))
    medians = [statistics.median(t) * 1e6 for t in times]
    print(f"{wset.name}: {len(inputs)} inputs x {args.rounds} rounds, timing op")
    for label, tree, median in (("A", args.a, medians[0]), ("B", args.b, medians[1])):
        print(f"{label} {tree}: median {median:.1f} us")
    print(f"B/A per op: median {statistics.median(ratios):.4f}, 95% interval [{lo:.4f}, {hi:.4f}]; "
          f"B faster in {faster} of {len(ratios)} ({faster / len(ratios):.0%})")
    if args.json is not None:
        doc = {"workload": wset.name, "inputs": len(inputs), "rounds": args.rounds, "a": args.a, "b": args.b,
               "median_us": medians, "ratio_median": statistics.median(ratios), "interval95": [lo, hi],
               "b_faster": faster, "ratios": ratios}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
