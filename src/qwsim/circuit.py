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
purely cosmetic grouping: ops run in file order either way.  Wires and
the qubit count are ASCII digits ``0-9`` only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError, SimulationError
from .gates import MEASURE, gate_def
from .engine import NO_CONTROLS, ControlSpec, _check_distinct, coerce_controls
from .linalg import check_int, check_qubit_count, check_wires


@dataclass(frozen=True)
class GateOp:
    """One gate (or measurement) with its targets and controls."""

    gate: str
    targets: tuple[int, ...]
    controls: ControlSpec = NO_CONTROLS

    def __post_init__(self):
        object.__setattr__(self, "gate", str(self.gate).upper())
        object.__setattr__(self, "targets", tuple(check_int(t, "wire") for t in self.targets))
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
                    f"{g.name} takes {g.arity} wire(s), got {len(self.targets)}"
                )
        _check_distinct(self.targets, self.controls)

    @property
    def wires(self) -> tuple[int, ...]:
        return self.targets + self.controls.wires

    def __str__(self) -> str:
        """The op in the circuit text format, e.g. ``X 0 c=1 a=2``."""
        parts = [self.gate, *(str(t) for t in self.targets)]
        parts += [f"{'c' if is_c else 'a'}={w}" for w, is_c in self.controls.entries]
        return " ".join(parts)


@dataclass(frozen=True)
class Circuit:
    """An ``n``-qubit register plus an ordered tuple of operations."""

    n: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self):
        n = check_qubit_count(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ops", tuple(self.ops))
        for k, op in enumerate(self.ops):
            try:
                check_wires(n, op.wires)
            except ContractError as exc:
                err = ContractError(f"{op} touches wire {exc.wire}, out of range for {n} qubits")
                err.op_index = k  # lets parse_circuit name the op's line
                raise err from None

    @property
    def has_measurements(self) -> bool:
        return any(op.gate == MEASURE for op in self.ops)


# ---------------------------------------------------------------------------
# parsing

# sugar name -> (base gate, number of leading wires that become controls)
_SUGAR = {"CX": ("X", 1), "CCX": ("X", 2), "CSWAP": ("SWAP", 1)}


def _parse_int(token: str, line_no: int, what: str) -> int:
    """A wire or qubit count: ASCII digits 0-9 only, no sign, no ``_``."""
    try:
        if token.isascii() and token.isdigit():
            return int(token)
    except ValueError:  # more digits than int() reads
        pass
    raise ParseError(line_no, f"{what} {token!r} is not an integer of digits 0-9")


def _parse_gate(chunk: str, line_no: int) -> GateOp:
    """Tokenise one gate and expand its sugar.

    ``GateOp`` makes every check but the wire range, which the circuit
    makes; a failure becomes a ``ParseError`` naming ``line_no``.
    """
    tokens = chunk.split()
    name = tokens[0].upper()
    targets: list[int] = []
    controls: list[tuple[int, bool]] = []
    for token in tokens[1:]:
        lowered = token.lower()
        if lowered.startswith(("c=", "a=")):
            wire = _parse_int(token[2:], line_no, "control wire")
            controls.append((wire, lowered.startswith("c=")))
        else:
            targets.append(_parse_int(token, line_no, "wire"))

    if name in _SUGAR:
        name, k = _SUGAR[name]
        expected = k + gate_def(name).arity
        if len(targets) != expected:
            raise ParseError(line_no, f"{tokens[0]} takes {expected} wires, got {len(targets)}")
        controls = [(w, True) for w in targets[:k]] + controls
        targets = targets[k:]
    try:
        return GateOp(name, tuple(targets), controls)
    except SimulationError as exc:
        raise ParseError(line_no, str(exc)) from None


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; every failure names the offending line."""
    n: int | None = None
    ops: list[GateOp] = []
    op_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            tokens = line.split()
            if len(tokens) != 2 or tokens[0].lower() != "qubits":
                raise ParseError(line_no, "expected 'qubits <n>' header")
            try:
                n = check_qubit_count(_parse_int(tokens[1], line_no, "qubit count"))
            except SimulationError as exc:
                raise ParseError(line_no, str(exc)) from None
            continue
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if chunk:
                ops.append(_parse_gate(chunk, line_no))
                op_lines.append(line_no)
    if n is None:
        raise ParseError(1, "missing 'qubits <n>' header")
    try:
        return Circuit(n, tuple(ops))
    except ContractError as exc:  # a wire out of range
        raise ParseError(op_lines[exc.op_index], str(exc)) from None


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit back to text.  ``parse_circuit`` round-trips it."""
    return "\n".join([f"qubits {circuit.n}", *map(str, circuit.ops)]) + "\n"


def load_circuit(path) -> Circuit:
    """Read and parse a UTF-8 circuit file; one leading BOM is skipped."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(b"\xef\xbb\xbf")
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
    n = check_qubit_count(n)
    depth = check_int(depth, "depth")
    if depth < 0:
        raise ContractError(f"depth must be non-negative, got {depth}")
    names = _RANDOM_1Q if (single_qubit_only or n < 2) else _RANDOM_1Q + _RANDOM_2Q
    ops = []
    for _ in range(depth):
        name = names[int(rng.integers(len(names)))]
        arity = gate_def(name).arity
        targets = tuple(rng.choice(n, size=arity, replace=False))
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
        ops.append(GateOp(name, targets, controls))
    return Circuit(n, tuple(ops))
