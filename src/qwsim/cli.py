"""Command-line front end.

Subcommands: ``simulate`` (amplitudes / probabilities / branch tree),
``stats`` (per-qubit and pair statistics) and ``sample`` (seeded shot
histogram).

Numbers are printed with 12 significant digits; values smaller than 1e-12
in magnitude print as plain 0, and basis entries whose amplitude or
probability is below 1e-12 are omitted from listings.

A measurement-free circuit's result is read off its register, the
``2**K`` amplitudes of the K wires its gates move, as walked
(``engine._walk_register``): in first-move slot order, never copied into
wire order nor scattered into ``2**n``, as every other wire stays |0> to
the end.  Bit ``s`` of a register index is the wire in slot ``s``.
``simulate`` prints each listed register entry at its ``n``-wire index,
in index order.  ``stats`` runs ``all_qubit_stats`` on the register, keys
each slot's row by its wire, and prints the constant |0> row for every
other wire; ``--pair`` traces the pair's slots and takes a wire off the
register as |0><0|; ``--magic`` is the magic of the register, since the
order-2 stabilizer Renyi entropy does not change when the qubits are
relabelled, adds up over a tensor product and is 0 on |0>, so its qubit
cap bounds K, not n.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import analysis, measurement
from .circuit import load_circuit
from .engine import _walk_register
from .errors import ResourceError, SimulationError
from .linalg import check_wires

PRINT_EPS = 1e-12


def _fmt(value: float) -> str:
    v = float(value)
    if abs(v) < PRINT_EPS:
        v = 0.0  # also normalizes -0
    return f"{v:.12g}"


def _fmt_amplitude(z: complex) -> str:
    re = 0.0 if abs(z.real) < PRINT_EPS else z.real
    im = 0.0 if abs(z.imag) < PRINT_EPS else z.imag
    # each part is 0.0 or at least PRINT_EPS, so it prints as _fmt prints it
    if im == 0.0:
        return f"{re:.12g}"
    if re == 0.0:
        return f"{im:.12g}i"
    return f"{re:.12g}{'+' if im > 0 else '-'}{abs(im):.12g}i"


# Entries formatted and printed at a time: each holds a few Python objects
# until it is printed, so this bounds the listing's memory on a big state.
_CHUNK = 1 << 12


def _print_state(psi: np.ndarray, width: int, probs: bool, heads=None, wires=None) -> None:
    """List the entries of a state ``psi``, or of each row of a ``(B, 2**k)``
    stack of them, at or above ``PRINT_EPS`` as ``width``-bit indices, in
    index order.  With ``heads`` given, each row's entries are indented
    under its line ``heads[r]``.  With ``wires`` given, ``psi`` is one
    register row, and bit ``s`` of its index is wire ``wires[s]``.

    One numpy pass over every row finds the entries.  They are formatted
    and printed ``_CHUNK`` at a time, a row's first chunk in one ``print``
    with its head, so the text of one chunk is held at a time.
    """
    states = psi.reshape(-1, psi.shape[-1])
    if probs:
        values = size = np.abs(states) ** 2
    else:
        # hypot rounds as the scalar abs(z) does; numpy's vector complex abs
        # can differ in the last bit and flip an entry at PRINT_EPS
        values, size = states, np.hypot(states.real, states.imag)
    listed = np.flatnonzero(size >= PRINT_EPS)  # row by row, each in index order
    del size
    row_size = states.shape[1]
    if wires is None:
        at, order = listed & (row_size - 1), None
        ends = np.searchsorted(listed, row_size * np.arange(1, len(states) + 1)).tolist()
    else:
        at = np.zeros_like(listed)
        for s, w in enumerate(wires):
            at |= ((listed >> s) & 1) << w
        order = np.argsort(at)  # slots need not follow wire order
        at.sort()
        ends = [len(listed)]
    values = values.reshape(-1)
    fmt = _fmt if probs else _fmt_amplitude
    indent = "" if heads is None else "  "
    spec = f"0{width}b"
    start = 0
    for r, end in enumerate(ends):
        lines = [] if heads is None else [heads[r]]
        for lo in range(start, end, _CHUNK):
            hi = min(lo + _CHUNK, end)
            picked = values[listed[lo:hi] if order is None else listed[order[lo:hi]]]
            lines += [
                f"{indent}{format(k, spec) if width else '(empty)'}: {fmt(v)}"
                for k, v in zip(at[lo:hi].tolist(), picked.tolist())
            ]
            print("\n".join(lines))
            lines = []
        if lines:  # a head with no entry under it
            print(lines[0])
        start = end


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
        heads = [
            f"branch {''.join(map(str, leaf.outcomes)) or '-'}: p={_fmt(leaf.probability)}"
            for leaf in tree.leaves
        ]
        states = np.stack([leaf.state for leaf in tree.leaves])
        _print_state(states, len(kept), args.probs, heads)
        return 0
    psi, wire_map = _walk_register(circ)
    _print_state(psi, circ.n, args.probs, wires=_register_wires(wire_map))
    return 0


def _register_wires(wire_map: dict) -> list[int]:
    """The register's wires by slot: bit ``s`` of a register index is wire ``wires[s]``."""
    return sorted((w for w, slot in wire_map.items() if slot is not None), key=wire_map.get)


_STATS_COLUMNS = (
    "qubit", "prob1", "x", "y", "z", "r", "theta", "phi", "purity", "lin_entropy"
)


# The printed row of a wire that stays |0>: prob1 0, Bloch vector (0, 0, 1),
# r 1, both angles 0, purity 1 and linear entropy 0.
_ZERO_ROW = tuple(map(_fmt, (0, 0, 0, 1, 1, 0, 0, 1, 0)))
# |0><0| of one wire, and |00><00| of a pair
_ZERO_1 = np.diag([1.0, 0.0]).astype(complex)
_ZERO_2 = np.kron(_ZERO_1, _ZERO_1)
# the two-bit indices 0..3 with their bits swapped
_BIT_SWAP = [0, 2, 1, 3]


def _pair_matrix(psi: np.ndarray, k: int, slots: list) -> np.ndarray:
    """The reduced matrix of two wires, from the register ``psi`` of ``k``
    wires: ``slots`` holds each wire's slot, lower wire first, or None for a
    wire off the register, which is |0>.  Bit 0 of its index is the lower
    wire, as in ``partial_trace_state``."""
    on = [s for s in slots if s is not None]
    if not on:
        return _ZERO_2
    rho = analysis.partial_trace_state(k, psi, sorted(on), keep=True)
    if len(on) == 2:
        # bit 0 is the lower slot: swap the two bits when it is the higher wire
        return rho if on[0] < on[1] else rho[np.ix_(_BIT_SWAP, _BIT_SWAP)]
    # the higher wire takes the high bit, so it is the first factor
    return np.kron(_ZERO_1, rho) if slots[1] is None else np.kron(rho, _ZERO_1)


def _cmd_stats(args) -> int:
    circ = load_circuit(args.circuit)
    psi, wire_map = _walk_register(circ)
    wires = _register_wires(wire_map)
    k = len(wires)
    # computed before any row is printed, so that a refusal prints nothing
    if args.pair is not None:
        pair = check_wires(circ.n, sorted(args.pair))
        p = analysis.pair_stats(_pair_matrix(psi, k, [wire_map[w] for w in pair]))
    m2 = None
    if args.magic:
        try:
            m2 = analysis.stabilizer_renyi_entropy(psi, k) if k else 0.0
        except ResourceError as exc:
            message = f"{exc}; the circuit's gates move {k} of its {circ.n} wires"
            raise ResourceError(message) from None

    stats = dict(zip(wires, analysis.all_qubit_stats(psi, k))) if k else {}
    rows = []
    for q in range(circ.n):
        s = stats.get(q)
        values = _ZERO_ROW if s is None else map(_fmt, (
            s.prob1, s.x, s.y, s.z, s.r, s.theta, s.phi, s.purity, s.linear_entropy,
        ))
        rows.append((str(q), *values))
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
