"""Command-line front end.

Subcommands: ``simulate`` (amplitudes / probabilities / branch tree),
``stats`` (per-qubit and pair statistics), ``sample`` (seeded shot
histogram), and two micro-benchmarks (``bench``, ``bench-trace``).

Numbers are printed with 12 significant digits; values smaller than 1e-12
in magnitude print as plain 0, and basis entries whose amplitude or
probability is below 1e-12 are omitted from listings.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import analysis, engine, measurement, oracle
from .circuit import Circuit, load_circuit, random_circuit
from .errors import SimulationError
from .linalg import check_wires, make_rng, random_state

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
        for i, p in enumerate(np.abs(psi) ** 2):
            if p >= PRINT_EPS:
                print(f"{indent}{_bits(i, width)}: {_fmt(p)}")
    else:
        for i, z in enumerate(psi):
            if abs(z) >= PRINT_EPS:
                print(f"{indent}{_bits(i, width)}: {_fmt_amplitude(z)}")


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
    if args.pair is not None:
        lo, hi = sorted(check_wires(circ.n, args.pair))
        if lo == hi:
            raise SimulationError("--pair needs two distinct wires")
    psi = engine.run_circuit(circ)

    rows = []
    for q in range(circ.n):
        rho = analysis.partial_trace_state(circ.n, psi, [q], keep=True)
        s = analysis.qubit_stats(rho)
        rows.append(
            (
                str(q),
                _fmt(s.prob1), _fmt(s.x), _fmt(s.y), _fmt(s.z), _fmt(s.r),
                _fmt(s.theta), _fmt(s.phi), _fmt(s.purity), _fmt(s.linear_entropy),
            )
        )
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
        rho2 = analysis.partial_trace_state(circ.n, psi, [lo, hi], keep=True)
        p = analysis.pair_stats(rho2)
        print(f"pair ({lo},{hi}): purity={_fmt(p.purity)} "
              f"lin_entropy={_fmt(p.linear_entropy)} "
              f"concurrence={_fmt(p.concurrence)} "
              f"von_neumann={_fmt(p.von_neumann_entropy)}")
    if args.magic:
        m2 = analysis.stabilizer_renyi_entropy(psi, circ.n)
        print(f"stabilizer_renyi_2: {_fmt(m2)}")
    return 0


def _cmd_sample(args) -> int:
    circ = load_circuit(args.circuit)
    histogram = measurement.sample_shots(circ, args.shots, args.seed)
    for key in sorted(histogram):
        print(f"{key}: {histogram[key]}")
    return 0


def _cmd_bench(args) -> int:
    rng = make_rng(args.seed)
    single = args.qubits > oracle.NAIVE_QUBIT_GUARD
    circ = random_circuit(args.qubits, args.depth, rng, single_qubit_only=single)
    start = time.perf_counter()
    if args.method == "naive":
        oracle.simulate_naive(circ)
    else:
        engine.run_circuit(circ)
    elapsed = time.perf_counter() - start
    print(
        f"method={args.method} qubits={args.qubits} depth={args.depth} "
        f"seconds={elapsed:.6f}"
    )
    return 0


def _cmd_bench_trace(args) -> int:
    if not 0 < args.keep < args.qubits:
        raise SimulationError("--keep must be between 1 and qubits-1")
    rng = make_rng(args.seed)
    psi = random_state(args.qubits, rng)
    kept = list(range(args.keep))
    start = time.perf_counter()
    if args.method == "matrix":
        rho_full = np.outer(psi, psi.conj())
        analysis.partial_trace_matrix(args.qubits, rho_full, kept, keep=True)
    else:
        analysis.partial_trace_state(args.qubits, psi, kept, keep=True)
    elapsed = time.perf_counter() - start
    print(
        f"method={args.method} qubits={args.qubits} keep={args.keep} "
        f"seconds={elapsed:.6f}"
    )
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

    p = sub.add_parser("bench", help="time a random circuit")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--depth", type=int, default=100)
    p.add_argument("--method", choices=("qubitwise", "naive"), default="qubitwise")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("bench-trace", help="time a partial trace")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--keep", type=int, required=True)
    p.add_argument("--method", choices=("statevector", "matrix"), default="statevector")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench_trace)

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
