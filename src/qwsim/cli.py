"""Command-line front end.

Subcommands: ``simulate`` (amplitudes / probabilities / branch tree),
``stats`` (per-qubit and pair statistics) and ``sample`` (seeded shot
histogram).

Numbers are printed with 12 significant digits; values smaller than 1e-12
in magnitude print as plain 0, and basis entries whose amplitude or
probability is below 1e-12 are omitted from listings.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import analysis, engine, measurement
from .circuit import load_circuit
from .errors import SimulationError

PRINT_EPS = 1e-12


def _fmt(value: float) -> str:
    v = float(value)
    if abs(v) < PRINT_EPS:
        v = 0.0  # also normalizes -0
    return f"{v:.12g}"


def _fmt_amplitude(z: complex) -> str:
    re = 0.0 if abs(z.real) < PRINT_EPS else z.real
    im = 0.0 if abs(z.imag) < PRINT_EPS else z.imag
    if im == 0.0:
        return _fmt(re)
    if re == 0.0:
        return f"{_fmt(im)}i"
    sign = "+" if im > 0 else "-"
    return f"{_fmt(re)}{sign}{_fmt(abs(im))}i"


def _bits(index: int, width: int) -> str:
    return format(index, f"0{width}b") if width else "(empty)"


def _print_state(psi: np.ndarray, width: int, probs: bool, indent: str = "") -> None:
    if probs:
        values = size = np.abs(psi) ** 2
    else:
        # hypot rounds as the scalar abs(z) does; numpy's vector complex abs
        # can differ in the last bit and flip an entry at PRINT_EPS
        values, size = psi, np.hypot(psi.real, psi.imag)
    fmt = _fmt if probs else _fmt_amplitude
    for i in np.flatnonzero(size >= PRINT_EPS).tolist():
        print(f"{indent}{_bits(i, width)}: {fmt(values[i])}")


def _cmd_simulate(args) -> int:
    circ = load_circuit(args.circuit)
    if circ.has_measurements or args.branches:
        tree = measurement.run_with_branches(circ)
        kept = [w for w in range(circ.n) if tree.wire_map[w] is not None]
        print(f"measured wires: {' '.join(map(str, tree.measured_wires)) or 'none'}")
        print(
            "kept wires: "
            + (", ".join(f"{w}->{tree.wire_map[w]}" for w in kept) or "none")
        )
        width = len(kept)
        for leaf in tree.leaves:
            label = "".join(map(str, leaf.outcomes)) or "-"
            print(f"branch {label}: p={_fmt(leaf.probability)}")
            _print_state(leaf.state, width, args.probs, indent="  ")
        return 0
    psi = engine.run_circuit(circ)
    _print_state(psi, circ.n, args.probs)
    return 0


_STATS_COLUMNS = (
    "qubit", "prob1", "x", "y", "z", "r", "theta", "phi", "purity", "lin_entropy"
)


def _cmd_stats(args) -> int:
    circ = load_circuit(args.circuit)
    psi = engine.run_circuit(circ)
    # computed before any row is printed, so that a refusal prints nothing
    if args.pair is not None:
        pair = sorted(args.pair)
        p = analysis.pair_stats(analysis.partial_trace_state(circ.n, psi, pair, keep=True))
    m2 = analysis.stabilizer_renyi_entropy(psi, circ.n) if args.magic else None

    rows = [
        (
            str(q),
            _fmt(s.prob1), _fmt(s.x), _fmt(s.y), _fmt(s.z), _fmt(s.r),
            _fmt(s.theta), _fmt(s.phi), _fmt(s.purity), _fmt(s.linear_entropy),
        )
        for q, s in enumerate(analysis.all_qubit_stats(psi, circ.n))
    ]
    if args.format == "records":
        for row in rows:
            pairs = " ".join(f"{k}={v}" for k, v in zip(_STATS_COLUMNS, row))
            print(pairs)
    else:
        widths = [
            max(len(_STATS_COLUMNS[c]), *(len(r[c]) for r in rows))
            for c in range(len(_STATS_COLUMNS))
        ]
        print("  ".join(h.ljust(w) for h, w in zip(_STATS_COLUMNS, widths)).rstrip())
        for row in rows:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())

    if args.pair is not None:
        print(f"pair ({pair[0]},{pair[1]}): purity={_fmt(p.purity)} "
              f"lin_entropy={_fmt(p.linear_entropy)} "
              f"concurrence={_fmt(p.concurrence)} "
              f"von_neumann={_fmt(p.von_neumann_entropy)}")
    if m2 is not None:
        print(f"stabilizer_renyi_2: {_fmt(m2)}")
    return 0


def _cmd_sample(args) -> int:
    circ = load_circuit(args.circuit)
    histogram = measurement.sample_shots(circ, args.shots, args.seed)
    for key in sorted(histogram):
        print(f"{key}: {histogram[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwsim",
        description="State-vector quantum circuit simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a circuit file and print the state")
    p.add_argument("circuit", help="path to a circuit file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--probs", action="store_true", help="print probabilities")
    group.add_argument(
        "--amplitudes", action="store_true", help="print amplitudes (default)"
    )
    p.add_argument(
        "--branches",
        action="store_true",
        help="print the full branch tree even without measurements",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stats", help="per-qubit statistics of the final state")
    p.add_argument("circuit", help="path to a circuit file")
    p.add_argument(
        "--pair",
        nargs=2,
        type=int,
        metavar=("I", "J"),
        help="also report two-qubit statistics for wires I and J",
    )
    p.add_argument(
        "--magic",
        action="store_true",
        help="also report the order-2 stabilizer Renyi entropy",
    )
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("sample", help="sample measurement records")
    p.add_argument("circuit", help="path to a circuit file")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call only."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
