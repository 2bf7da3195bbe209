"""Ops and circuits, with their control bitmasks; text format; random circuits.

The text format is line-oriented::

    qubits 3          # header, required first
    H 1 ; X 2         # ';' separates gates applied in the same line
    CX 1 0            # sugar: controlled X
    Z 0
    MEASURE 0         # measurement on one wire

A line ends at CR LF, CR or LF and nowhere else, and ``#`` starts a
comment up to it.  Names are case-insensitive ASCII, ``c=w`` / ``a=w``
tokens attach control / anticontrol wires to any gate.  ``CX``, ``CCX``
and ``CSWAP`` expand to X and SWAP with controls.  A ';' between gates is
purely cosmetic grouping: ops run in file order either way.  Wires and
the qubit count are ASCII digits ``0-9`` only.

The parser reads each distinct gate once per process: a gate's op (one
``;``-separated piece of a line, comment stripped) comes from a memo of
the last 1024 distinct gates that parsed, keyed by its tokens joined by
single spaces, so spacing takes no entry of its own.  The bound counts
entries, not bytes: about 1.1 MB at the bound for gates of a few short
tokens, more for longer ones.  A refused gate is never stored; it
is read again, and refused naming its own line, each time it is met.
A wire token is looked up in a table of ``"0"`` to ``"25"``, built at
import, and only a miss is read or refused digit by digit.  A gate that
passes every check of ``GateOp`` on sight is built directly, masks and
all; any other goes through ``GateOp``, whose one ``check_wires`` over
targets and controls names the fault.  The ``Circuit`` checks each op
against the register once, after every line is read.

Every public entry checks its arguments with the one check of each kind
in ``linalg``.  A gate's targets and controls go through
:func:`check_targets` as one list, one ``check_wires``, so each wire is
in range and none twice; ``ControlSpec`` pairs are checked on their own
only to name a fault of theirs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ContractError, ParseError, SimulationError
from .gates import MEASURE, gate_def, gate_names
from .linalg import MAX_QUBITS, check_bool, check_int, check_qubit_count, check_rng, check_wires


@dataclass(frozen=True, init=False)
class ControlSpec:
    """Control and anticontrol wires compiled to a pair of bitmasks.

    ``entries`` holds ``(wire, is_control)`` pairs; ``is_control=False``
    marks an anticontrol (wire must read 0).  An amplitude index ``k``
    passes the spec iff ``(k & inclusion_mask) == desired_value_mask``.
    """

    entries: tuple[tuple[int, bool], ...] = ()
    inclusion_mask: int = field(init=False, default=0)
    desired_value_mask: int = field(init=False, default=0)
    # the wires of ``entries``, in order; derived, so not compared or shown
    wires: tuple[int, ...] = field(init=False, default=(), compare=False, repr=False)

    def __new__(cls, entries=()):
        # no register holds a wire past the cap; refuse it before 1 << wire
        return check_targets(MAX_QUBITS, (), entries)[1]

    def passes(self, k: int) -> bool:
        """Whether amplitude index ``k``, a non-negative int, passes the spec."""
        return (check_int(k, "index", 0) & self.inclusion_mask) == self.desired_value_mask


def check_targets(n: int, targets, controls) -> tuple[tuple[int, ...], ControlSpec]:
    """``targets`` as ints and ``controls`` (a ``ControlSpec``, None or
    ``(wire, is_control)`` pairs) as a ``ControlSpec``, checked as one list
    of wires.  Pairs are checked alone, against the cap, only once that
    check fails, so that a fault of theirs is named a control's."""
    if isinstance(controls, ControlSpec):
        wires, flags = controls.wires, None
    else:
        wires, flags = [], []
        try:
            for wire, is_control in () if controls is None else controls:
                wires.append(wire)
                flags.append(check_bool(is_control, "is_control"))
        except (TypeError, ValueError):
            message = f"controls must be (wire, is_control) pairs, got {controls!r}"
            raise ContractError(message) from None
    try:
        checked = check_wires(n, chain(targets, wires))
    except ContractError:
        if flags is not None:
            try:
                check_wires(MAX_QUBITS, wires)
            except ContractError as exc:
                raise ContractError(f"control {exc}") from None
        raise
    cut = len(checked) - len(wires)
    if flags is None:
        return checked[:cut], controls
    return checked[:cut], _checked_spec(checked[cut:], flags)


def _checked_spec(wires: tuple[int, ...], flags) -> ControlSpec:
    """The ``ControlSpec`` of control ``wires`` that are already checked,
    distinct plain ints below the cap, and their bool ``flags``; built
    without ``__new__``, so without checking them again."""
    inclusion = desired = 0
    for wire, is_control in zip(wires, flags):
        inclusion |= 1 << wire
        desired |= is_control << wire
    spec = object.__new__(ControlSpec)
    spec.__dict__.update(entries=tuple(zip(wires, flags)), inclusion_mask=inclusion,
                         desired_value_mask=desired, wires=wires)
    return spec


NO_CONTROLS = ControlSpec()


def swap_bits(k: int, i: int, j: int) -> int:
    """Return ``k``, a non-negative int, with bits ``i`` and ``j``
    exchanged; each position is a wire, so ``0..MAX_QUBITS - 1``."""
    k = check_int(k, "index", 0)
    i, j = (check_int(b, "bit position", 0, MAX_QUBITS - 1) for b in (i, j))
    bi = (k >> i) & 1
    bj = (k >> j) & 1
    if bi != bj:
        k ^= (1 << i) | (1 << j)
    return k


@dataclass(frozen=True, init=False)
class GateOp:
    """One gate (or measurement) with its targets and controls (a
    ``ControlSpec``, None or pairs), all checked as one list of wires."""

    gate: str
    targets: tuple[int, ...]
    controls: ControlSpec = NO_CONTROLS
    # the targets as a bitmask, beside ``controls.inclusion_mask``; derived,
    # so not compared or shown
    target_mask: int = field(init=False, default=0, compare=False, repr=False)

    def __init__(self, gate, targets, controls=NO_CONTROLS):
        gate = str(gate)
        if gate.isascii():  # Unicode upper() reads the long s as S (see gate_def)
            gate = gate.upper()
        # no register holds a wire past the cap; the circuit checks its own range
        targets, controls = check_targets(MAX_QUBITS, targets, controls)
        if gate == MEASURE:
            if len(targets) != 1:
                raise ContractError("MEASURE takes exactly one wire")
            if controls.entries:
                raise ContractError("MEASURE cannot carry controls")
        else:
            g = gate_def(gate)  # raises CatalogError for unknown names
            if len(targets) != g.arity:
                raise ContractError(f"{g.name} takes {g.arity} wire(s), got {len(targets)}")
        mask = 0
        for w in targets:
            mask |= 1 << w
        self.__dict__.update(gate=gate, targets=targets, controls=controls, target_mask=mask)

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
    """An ``n``-qubit register plus an ordered tuple of operations.

    Every wire of every op is below ``n``, and no op touches a wire once a
    MEASURE has taken it out of the state.  A violation raises
    ``ContractError`` with ``op_index`` set to the offending op.
    """

    n: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self):
        n = check_qubit_count(self.n)
        object.__setattr__(self, "n", n)
        try:
            object.__setattr__(self, "ops", tuple(self.ops))
        except TypeError:
            raise ContractError(f"ops must be a sequence of GateOp, got {self.ops!r}") from None
        # a bit per wire: those a MEASURE took, and those outside the register
        measured = 0
        refused = -1 << n
        for k, op in enumerate(self.ops):
            if not isinstance(op, GateOp):
                raise ContractError(f"op {k} is {op!r}, not a GateOp")
            wires = op.target_mask | op.controls.inclusion_mask
            if wires & refused:
                raise self._refusal(k, op, measured)
            if op.gate == MEASURE:
                measured |= wires
                refused |= wires

    def _refusal(self, k: int, op: GateOp, measured: int) -> ContractError:
        """The error of op ``k``, the first to touch a wire out of range or
        ``measured`` (a bit per wire), named at its first such wire."""
        for w in op.wires:
            if w >= self.n:
                message = f"op {k} ({op}) touches wire {w}, out of range for {self.n} qubits"
                break
            if measured >> w & 1:
                if op.gate == MEASURE:
                    message = f"op {k} ({op}): wire {w} measured twice"
                else:
                    message = f"op {k} ({op}) touches wire {w}, which was measured"
                break
        err = ContractError(message)
        err.op_index = k  # lets parse_circuit name the op's line
        return err

    @property
    def has_measurements(self) -> bool:
        return any(op.gate == MEASURE for op in self.ops)


def check_circuit(circuit) -> Circuit:
    """``circuit`` itself if it is a ``Circuit``; else ``ContractError``."""
    if not isinstance(circuit, Circuit):
        raise ContractError(f"expected a Circuit, got {type(circuit).__name__}")
    return circuit


# ---------------------------------------------------------------------------
# parsing


def _lines(text: str) -> list[str]:
    """``text`` split at CR LF, CR or LF only, not at FF, NEL or U+2028 as by splitlines()."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


# sugar name -> (base gate, number of leading wires that become controls)
_SUGAR = {"CX": ("X", 1), "CCX": ("X", 2), "CSWAP": ("SWAP", 1)}

# every wire token below the cap in its plain form, read without _parse_int
_WIRES = {str(w): w for w in range(MAX_QUBITS)}

# the number of targets of each name a gate's line may carry once its sugar
# is expanded
_ARITY = {**{name: gate_def(name).arity for name in gate_names()}, MEASURE: 1}


def _parse_int(token: str, line_no: int, what: str) -> int:
    """A wire or qubit count: ASCII digits 0-9 only, no sign, no ``_``."""
    try:
        if token.isascii() and token.isdigit():
            return int(token)
    except ValueError:  # more digits than int() reads
        pass
    raise ParseError(line_no, f"{what} {token!r} is not an integer of digits 0-9")


def _accept(name: str, targets: list[int], wires: list[int], flags: list[bool]) -> GateOp | None:
    """The op of a line that passes every check of ``GateOp``, built
    without repeating them, or None; ``wires`` and ``flags`` are its
    controls' wires and their ``is_control`` flags.

    A line passes when its name is a catalog gate, or MEASURE without
    controls, with as many targets as the gate's arity, and its wires are
    below the cap and none is named twice.  This raises nothing, so that
    every refusal is made, and worded, by ``GateOp`` alone.
    """
    if _ARITY.get(name) != len(targets) or wires and name == MEASURE:
        return None
    named = 0  # a bit per wire so far; each is below the cap before it shifts
    for wire in targets + wires:
        if wire >= MAX_QUBITS or named >> wire & 1:
            return None
        named |= 1 << wire
    op = object.__new__(GateOp)
    spec = _checked_spec(tuple(wires), flags) if wires else NO_CONTROLS
    op.__dict__.update(gate=name, targets=tuple(targets), controls=spec,
                       target_mask=named & ~spec.inclusion_mask)
    return op


def _parse_gate(tokens: list[str], line_no: int) -> GateOp:
    """Read one gate's tokens and expand its sugar.

    A wire token is looked up in ``_WIRES`` and, on a miss, read or refused
    by :func:`_parse_int`.  A line :func:`_accept` takes is built there;
    any other goes through ``GateOp``, which makes every check but those of
    the register, its wire range and its measured wires, which the circuit
    makes.  A failure becomes a ``ParseError`` naming ``line_no``.
    """
    head = tokens[0]
    name = head.upper() if head.isascii() else head  # as gates.gate_def reads it
    targets: list[int] = []
    wires: list[int] = []  # the control and anticontrol wires
    flags: list[bool] = []  # whether each is a control
    for token in tokens[1:]:
        wire = _WIRES.get(token)
        if wire is not None:
            targets.append(wire)
            continue
        kind = token[:2].lower()
        if kind == "c=" or kind == "a=":
            wire = _WIRES.get(token[2:])
            wires.append(_parse_int(token[2:], line_no, "control wire") if wire is None else wire)
            flags.append(kind == "c=")
        else:
            targets.append(_parse_int(token, line_no, "wire"))

    if name in _SUGAR:
        name, k = _SUGAR[name]
        expected = k + _ARITY[name]
        if len(targets) != expected:
            raise ParseError(line_no, f"{tokens[0]} takes {expected} wires, got {len(targets)}")
        wires = targets[:k] + wires
        flags = [True] * k + flags
        targets = targets[k:]
    op = _accept(name, targets, wires, flags)
    if op is not None:
        return op
    try:
        return GateOp(name, targets, list(zip(wires, flags)) or NO_CONTROLS)
    except SimulationError as exc:
        raise ParseError(line_no, str(exc)) from None


@lru_cache(maxsize=1024)
def _chunk_op(gate: str) -> GateOp:
    """The op of one gate, its tokens joined by single spaces, from a memo
    of the last 1024 distinct gates that parsed.  A refusal raises naming
    line 0 and is not stored; the caller names the line."""
    return _parse_gate(gate.split(), 0)


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; every failure names the offending line."""
    if not isinstance(text, str):
        raise ContractError(f"expected circuit text as a str, got {type(text).__name__}")
    n: int | None = None
    ops: list[GateOp] = []
    op_lines: list[int] = []
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0]
        if n is not None:
            for chunk in line.split(";"):
                tokens = chunk.split()
                if tokens:
                    try:
                        ops.append(_chunk_op(" ".join(tokens)))
                    except ParseError as exc:
                        raise ParseError(line_no, exc.message) from None
                    op_lines.append(line_no)
            continue
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2 or tokens[0].lower() != "qubits":
            raise ParseError(line_no, "expected 'qubits <n>' header")
        count = _parse_int(tokens[1], line_no, "qubit count")  # names its line itself
        try:
            n = check_qubit_count(count)
        except SimulationError as exc:
            raise ParseError(line_no, str(exc)) from None
    if n is None:
        raise ParseError(1, "missing 'qubits <n>' header")
    try:
        return Circuit(n, tuple(ops))
    except ContractError as exc:  # a wire out of range or already measured
        raise ParseError(op_lines[exc.op_index], str(exc)) from None


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit back to text.  ``parse_circuit`` round-trips it."""
    circuit = check_circuit(circuit)
    return "\n".join([f"qubits {circuit.n}", *map(str, circuit.ops)]) + "\n"


def load_circuit(path) -> Circuit:
    """Read and parse the UTF-8 circuit file at ``path``; one leading BOM is skipped."""
    if not isinstance(path, (str, bytes, os.PathLike)):  # open() reads an int as an fd
        raise ContractError(f"expected a path to a circuit file, got {path!r}")
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # every byte before exc.start decodes
        line_no = len(_lines(raw[: exc.start].decode("utf-8")))
        raise ParseError(line_no, f"not UTF-8 text (byte {exc.start})") from None
    return parse_circuit(text)


# ---------------------------------------------------------------------------
# random circuits (test workloads)

_RANDOM_1Q = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG")
_RANDOM_2Q = ("SWAP", "ISWAP", "SQRTSWAP")
# chance that a wire off a random gate's targets becomes a control or anticontrol
_CONTROL_PROBABILITY = 0.3


def random_circuit(
    n: int,
    depth: int,
    rng: np.random.Generator,
    *,
    single_qubit_only: bool = False,
) -> Circuit:
    """Draw a random measurement-free circuit of ``depth`` gates.

    Each gate picks a catalog name, distinct target wires, and then turns
    each remaining wire into a control or anticontrol with probability
    ``_CONTROL_PROBABILITY`` (split evenly between the two flavors).
    ``single_qubit_only`` restricts to 1-wire gates with no controls,
    the shape of the 20-qubit timing budget in the acceptance tests.
    """
    n = check_qubit_count(n)
    depth = check_int(depth, "depth", 0)
    rng = check_rng(rng)
    single_qubit_only = check_bool(single_qubit_only, "single_qubit_only")
    names = _RANDOM_1Q if (single_qubit_only or n < 2) else _RANDOM_1Q + _RANDOM_2Q
    ops = []
    for _ in range(depth):
        name = names[int(rng.integers(len(names)))]
        arity = gate_def(name).arity
        targets = tuple(rng.choice(n, size=arity, replace=False))
        controls: list[tuple[int, bool]] = []
        if not single_qubit_only:
            for w in range(n):
                if w in targets:
                    continue
                u = rng.random()
                if u < _CONTROL_PROBABILITY / 2:
                    controls.append((w, True))
                elif u < _CONTROL_PROBABILITY:
                    controls.append((w, False))
        ops.append(GateOp(name, targets, controls))
    return Circuit(n, tuple(ops))
