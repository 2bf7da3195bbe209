"""Circuit representation, text format, and random circuit generation.

The text format is line-oriented::

    qubits 3          # header, required first
    H 1 ; X 2         # ';' separates gates applied in the same line
    CX 1 0            # sugar: controlled X
    Z 0
    MEASURE 0         # measurement on one wire

``#`` starts a comment, names are case-insensitive, ``c=w`` / ``a=w``
tokens attach control / anticontrol wires to any gate.  ``CX``, ``CCX``
and ``CSWAP`` expand to X and SWAP with controls.  A ';' between gates is
purely cosmetic grouping: ops run in file order either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CatalogError, ContractError, ParseError
from .gates import MEASURE, gate_def, gate_names
from .engine import ControlSpec, coerce_controls
from .linalg import MAX_QUBITS


@dataclass(frozen=True)
class GateOp:
    """One gate (or measurement) with its targets and controls."""

    gate: str
    targets: tuple[int, ...]
    controls: ControlSpec = field(default_factory=ControlSpec)

    def __post_init__(self):
        object.__setattr__(self, "gate", str(self.gate).upper())
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "controls", coerce_controls(self.controls))
        if self.gate == MEASURE:
            if len(self.targets) != 1:
                raise ContractError("MEASURE takes exactly one wire")
            if self.controls.entries:
                raise ContractError("MEASURE cannot carry controls")
        else:
            g = gate_def(self.gate)  # raises CatalogError for unknown names
            if len(self.targets) != g.arity:
                raise ContractError(
                    f"{g.name} acts on {g.arity} wires, got {len(self.targets)}"
                )
        if len(set(self.targets)) != len(self.targets):
            raise ContractError(f"duplicate target wires in {self.targets}")
        overlap = set(self.targets) & set(self.controls.wires)
        if overlap:
            raise ContractError(
                f"wire {min(overlap)} is both a control and a target"
            )

    @property
    def wires(self) -> tuple[int, ...]:
        return self.targets + self.controls.wires


@dataclass(frozen=True)
class Circuit:
    """An ``n``-qubit register plus an ordered tuple of operations."""

    n: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ContractError(f"circuit needs at least 1 qubit, got {n}")
        if n > MAX_QUBITS:
            raise ContractError(f"circuit size {n} exceeds the cap of {MAX_QUBITS}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            for w in op.wires:
                if w >= n:
                    raise ContractError(
                        f"op {op.gate} touches wire {w}, register has {n} qubits"
                    )

    @property
    def has_measurements(self) -> bool:
        return any(op.gate == MEASURE for op in self.ops)


# ---------------------------------------------------------------------------
# parsing

_SUGAR_CONTROL_COUNT = {"CX": 1, "CCX": 2, "CSWAP": 1}
_SUGAR_BASE = {"CX": "X", "CCX": "X", "CSWAP": "SWAP"}


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ParseError(line_no, f"{what} {token!r} is not an integer") from None


def _parse_gate(chunk: str, n: int, line_no: int) -> GateOp:
    tokens = chunk.split()
    name = tokens[0].upper()
    plain: list[int] = []
    controls: list[tuple[int, bool]] = []
    for token in tokens[1:]:
        lowered = token.lower()
        if lowered.startswith(("c=", "a=")):
            wire = _parse_int(token[2:], line_no, "control wire")
            controls.append((wire, lowered.startswith("c=")))
        else:
            plain.append(_parse_int(token, line_no, "wire"))

    if name in _SUGAR_CONTROL_COUNT:
        k = _SUGAR_CONTROL_COUNT[name]
        base = _SUGAR_BASE[name]
        expected = k + gate_def(base).arity
        if len(plain) != expected:
            raise ParseError(line_no, f"{name} takes {expected} wires, got {len(plain)}")
        controls = [(w, True) for w in plain[:k]] + controls
        targets = plain[k:]
        name = base
    elif name == MEASURE:
        if controls:
            raise ParseError(line_no, "MEASURE cannot carry controls")
        if len(plain) != 1:
            raise ParseError(line_no, f"MEASURE takes one wire, got {len(plain)}")
        targets = plain
    else:
        try:
            g = gate_def(name)
        except CatalogError:
            raise ParseError(line_no, f"unknown gate {tokens[0]!r}") from None
        if len(plain) != g.arity:
            raise ParseError(
                line_no, f"{g.name} takes {g.arity} wire(s), got {len(plain)}"
            )
        targets = plain

    for w in targets + [w for w, _ in controls]:
        if not 0 <= w < n:
            raise ParseError(line_no, f"wire {w} out of range (register has {n})")
    try:
        return GateOp(name, tuple(targets), ControlSpec(tuple(controls)))
    except ContractError as exc:
        raise ParseError(line_no, str(exc)) from None


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; every failure names the offending line."""
    n: int | None = None
    ops: list[GateOp] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            tokens = line.split()
            if len(tokens) != 2 or tokens[0].lower() != "qubits":
                raise ParseError(line_no, "expected 'qubits <n>' header")
            n = _parse_int(tokens[1], line_no, "qubit count")
            if not 1 <= n <= MAX_QUBITS:
                raise ParseError(
                    line_no, f"qubit count must be in 1..{MAX_QUBITS}, got {n}"
                )
            continue
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if chunk:
                ops.append(_parse_gate(chunk, n, line_no))
    if n is None:
        raise ParseError(1, "missing 'qubits <n>' header")
    return Circuit(n, tuple(ops))


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit back to text.  ``parse_circuit`` round-trips it."""
    lines = [f"qubits {circuit.n}"]
    for op in circuit.ops:
        parts = [op.gate, *(str(t) for t in op.targets)]
        parts += [f"{'c' if is_c else 'a'}={w}" for w, is_c in op.controls.entries]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_circuit(path) -> Circuit:
    """Read and parse a UTF-8 circuit file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"not UTF-8 text (byte {exc.start})") from None
    return parse_circuit(text)


# ---------------------------------------------------------------------------
# random circuits (test and benchmark workloads)

_RANDOM_1Q = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG")
_RANDOM_2Q = ("SWAP", "ISWAP", "SQRTSWAP")


def random_circuit(
    n: int,
    depth: int,
    rng: np.random.Generator,
    *,
    single_qubit_only: bool = False,
    control_probability: float = 0.3,
) -> Circuit:
    """Draw a random measurement-free circuit of ``depth`` gates.

    Each gate picks a catalog name, distinct target wires, and then turns
    each remaining wire into a control or anticontrol with probability
    ``control_probability`` (split evenly between the two flavors).
    ``single_qubit_only`` restricts to 1-wire gates with no controls,
    which is the shape large-register benchmarks want.
    """
    if depth < 0:
        raise ContractError(f"depth must be non-negative, got {depth}")
    names = _RANDOM_1Q if (single_qubit_only or n < 2) else _RANDOM_1Q + _RANDOM_2Q
    ops = []
    for _ in range(depth):
        name = names[int(rng.integers(len(names)))]
        arity = gate_def(name).arity
        targets = tuple(int(t) for t in rng.choice(n, size=arity, replace=False))
        controls: list[tuple[int, bool]] = []
        if not single_qubit_only and control_probability > 0:
            for w in range(n):
                if w in targets:
                    continue
                u = rng.random()
                if u < control_probability / 2:
                    controls.append((w, True))
                elif u < control_probability:
                    controls.append((w, False))
        ops.append(GateOp(name, targets, ControlSpec(tuple(controls))))
    return Circuit(n, tuple(ops))
