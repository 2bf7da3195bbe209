"""Command-line front end.

Subcommands: ``simulate`` (amplitudes / probabilities / branch tree),
``stats`` (per-qubit and pair statistics) and ``sample`` (seeded shot
histogram).

Numbers are printed with 12 significant digits; values smaller than 1e-12
in magnitude print as plain 0, and basis entries whose amplitude or
probability is below 1e-12 are omitted from listings.

A result is read off the walk's rows as walked (``engine._lower`` and
``engine._walk``): each row is the register of the K wires the gates
moved and did not measure, in first-move slot order, never copied into
wire order nor scattered into ``2**n``, as every other wire stays |0> to
the end.  Bit ``s`` of a register index is the wire in slot ``s``.
``simulate`` lists every circuit this one way: under the ``measured
wires`` / ``kept wires`` / ``branch`` heads when the circuit measures or
``--branches`` is given, it prints each listed entry of each row at its
index over the unmeasured wires, bit ``s`` at the rank of the wire in
slot ``s`` among them (the wire itself when nothing is measured), in
index order.  ``stats``, which refuses a MEASURE, runs
``all_qubit_stats`` on the one row of ``engine._walk_register``, keys
each slot's row by its wire, and prints the constant |0> row for every
other wire; ``--pair`` traces the pair's slots and takes a wire off the
register as |0><0|; ``--magic`` is the magic of the register, since the
order-2 stabilizer Renyi entropy does not change when the qubits are
relabelled, adds up over a tensor product and is 0 on |0>, so its qubit
cap bounds K, not n.

Each subcommand imports, when it runs, the layers that only it uses:
``stats`` imports ``analysis`` and ``sample`` imports ``measurement``, so
``simulate`` loads neither, and no subcommand loads the ``oracle``.
Ctrl-C ends a run with one ``error: interrupted`` line and exit status
130.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .circuit import load_circuit
from .engine import _kept_ranks, _lower, _walk, _walk_register
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


def _print_state(rows: np.ndarray, width: int, probs: bool, heads, bits) -> None:
    """List the entries of each row of a ``(B, 2**k)`` stack of the walk's
    rows at or above ``PRINT_EPS``, as ``width``-bit indices in index order.
    Bit ``s`` of a row index prints at bit ``bits[s]``.  With ``heads``
    given, each row's entries are indented under its line ``heads[r]``.

    One numpy pass over every row finds the entries.  They are formatted
    and printed ``_CHUNK`` at a time, a row's first chunk in one ``print``
    with its head, so the text of one chunk is held at a time.
    """
    if probs:
        values = size = np.abs(rows) ** 2
    else:
        # hypot rounds as the scalar abs(z) does; numpy's vector complex abs
        # can differ in the last bit and flip an entry at PRINT_EPS
        values, size = rows, np.hypot(rows.real, rows.imag)
    listed = np.flatnonzero(size >= PRINT_EPS)  # row by row, each in slot order
    del size
    row_size = rows.shape[1]
    ends = np.searchsorted(listed, row_size * np.arange(1, len(rows) + 1)).tolist()
    # each row's listed entries at their printed index, above the row's
    # number, so one sort orders them within each row
    at = (listed >> len(bits)) << width
    for s, b in enumerate(bits):
        at |= ((listed >> s) & 1) << b
    # the stable sort was no slower on these keys, and a process's first
    # quicksort and sort fault in 0.5 MB more of numpy's code
    order = np.argsort(at, kind="stable")
    listed = listed[order]
    at = at[order]
    at &= (1 << width) - 1
    del order
    values = values.reshape(-1)
    fmt = _fmt if probs else _fmt_amplitude
    indent = "" if heads is None else "  "
    spec = f"0{width}b"
    start = 0
    for r, end in enumerate(ends):
        lines = [] if heads is None else [heads[r]]
        for lo in range(start, end, _CHUNK):
            hi = min(lo + _CHUNK, end)
            picked = values[listed[lo:hi]]
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
    steps, measured, wire_map, _, width = _lower(circ, circ.ops)
    outcomes, probs, rows, _ = _walk(steps, width)
    rank = _kept_ranks(circ.n, measured)
    heads = None
    if measured or args.branches:
        print(f"measured wires: {' '.join(map(str, measured)) or 'none'}")
        print("kept wires: " + (", ".join(f"{w}->{r}" for w, r in rank.items()) or "none"))
        heads = [
            f"branch {''.join(map(str, record)) or '-'}: p={_fmt(p)}"
            for record, p in zip(outcomes.tolist(), probs.tolist())
        ]
    _print_state(rows, len(rank), args.probs, heads, [rank[w] for w in _register_wires(wire_map)])
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
    from . import analysis

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
    from . import analysis

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
    from . import measurement

    circ = load_circuit(args.circuit)
    histogram = measurement.sample_shots(circ, args.shots, args.seed)
    for key, count in histogram.items():  # in sorted key order
        print(f"{key}: {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwsim",
        description="State-vector quantum circuit simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a circuit file and print the state")
    p.add_argument("circuit", help="path to a circuit file")
    p.add_argument("--probs", action="store_true", help="print probabilities, not amplitudes")
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
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it


if __name__ == "__main__":
    sys.exit(main())
