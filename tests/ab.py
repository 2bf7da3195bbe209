"""Time two source trees of qwsim against each other in one process.

    python tests/ab.py A B --workload W [--rounds R]

``A`` and ``B`` are checkouts (say ``git archive`` of two commits,
unpacked); each tree's ``src/qwsim`` is loaded as its own package,
``qwsim_a`` and ``qwsim_b``, which works because ``qwsim`` imports itself
only relatively.  The workload's seeded inputs and its op come from
``perfbench/workloads.py``, made as ``perfbench/run.py`` makes them at
its default seed.
After one untimed pass per side, which fills the memos and checks that
both sides print the same records, each round runs every input once on
each side, A first in even rounds and B first in odd ones.  It prints
each side's median, the median of the per-op ratios B/A with a bootstrap
95% interval, and the share of ops that B ran faster.
Importing perfbench's runner sets BLAS to one thread before numpy loads,
as in a benchmark run.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, compare  # noqa: E402

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


def bootstrap_interval(ratios: list[float]) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of the median of resampled ``ratios``."""
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP))
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout timed as A")
    parser.add_argument("b", help="checkout timed as B")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    wl = WORKLOADS[args.workload]
    sides = [load(args.a, "qwsim_a"), load(args.b, "qwsim_b")]
    with tempfile.TemporaryDirectory() as workdir:
        inputs = wl.make_inputs(run.input_rng(DEFAULT_SEED, wl.name), Path(workdir))
        firsts = [[wl.op(qw, cli, inp) for inp in inputs] for qw, cli in sides]
        differ = sum(bool(compare(wl.golden(b), wl.golden(a))) for a, b in zip(*firsts))
        times: list[list[float]] = [[], []]
        for r in range(args.rounds):
            for inp in inputs:
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    qw, cli = sides[side]
                    t0 = perf_counter()
                    wl.op(qw, cli, inp)
                    times[side].append(perf_counter() - t0)
    ratios = [b / a for a, b in zip(*times)]
    lo, hi = bootstrap_interval(ratios)
    faster = sum(b < a for a, b in zip(*times))
    print(f"{wl.name}: {len(inputs)} inputs x {args.rounds} rounds, timing op")
    for label, tree, t in (("A", args.a, times[0]), ("B", args.b, times[1])):
        print(f"{label} {tree}: median {statistics.median(t) * 1e6:.1f} us")
    print(f"B/A per op: median {statistics.median(ratios):.4f}, 95% interval [{lo:.4f}, {hi:.4f}]; "
          f"B faster in {faster} of {len(ratios)} ({faster / len(ratios):.0%})")
    if differ:
        print(f"warning: B's records differ from A's on {differ} of {len(inputs)} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
