"""The state-vector gate kernel.

A gate on wire ``t`` of an ``n``-qubit register pairs every amplitude
index with bit ``t`` clear against the index with bit ``t`` set and mixes
each pair through the 2x2 gate matrix; a gate on ``m`` wires mixes groups
of ``2**m`` amplitudes the same way.  That touches each amplitude once,
so a gate costs O(2**n) work and no operator matrix is ever built.

:func:`apply_multi_qubit_gate` is the one kernel, for every gate.  It
reads the state as a tensor with one length-2 axis per target or control
wire, so each group member is a strided view of the state and the
per-amplitude work stays inside numpy, with no index arrays.

Controls never enlarge the gate matrix: a control (or anticontrol) wire
contributes a bit to an inclusion mask, and a group is mixed only when its
index carries the desired value on every masked bit.  The kernel applies
the mask by fixing the control's axis to that bit.

A gate's plan (view shape, block indices, row writes, blocks to copy)
depends only on its matrix and wires.  :func:`compile_circuit` checks a
circuit once and builds each gate's plan once; :func:`run_circuit` and
the measurement walker run the plans in their own working state, and
:func:`apply_multi_qubit_gate` is the checked entry point for one gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError
from .gates import MEASURE, gate_def
from .linalg import MAX_QUBITS, STATE_ATOL, check_qubit_count, initial_state


@dataclass(frozen=True)
class ControlSpec:
    """Control and anticontrol wires compiled to a pair of bitmasks.

    ``entries`` holds ``(wire, is_control)`` pairs; ``is_control=False``
    marks an anticontrol (wire must read 0).  An amplitude index ``k``
    passes the spec iff ``(k & inclusion_mask) == desired_value_mask``.
    """

    entries: tuple[tuple[int, bool], ...] = ()
    inclusion_mask: int = field(init=False, default=0)
    desired_value_mask: int = field(init=False, default=0)

    def __post_init__(self):
        entries = tuple((int(w), bool(f)) for w, f in self.entries)
        object.__setattr__(self, "entries", entries)
        inclusion = 0
        desired = 0
        for wire, is_control in entries:
            if not 0 <= wire < MAX_QUBITS:  # no register holds it; before 1 << wire
                raise ContractError(f"control wire {wire} is outside 0..{MAX_QUBITS - 1}")
            bit = 1 << wire
            if inclusion & bit:
                raise ContractError(
                    f"wire {wire} appears more than once in the control spec"
                )
            inclusion |= bit
            if is_control:
                desired |= bit
        object.__setattr__(self, "inclusion_mask", inclusion)
        object.__setattr__(self, "desired_value_mask", desired)

    @property
    def wires(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.entries)

    def passes(self, k: int) -> bool:
        return (k & self.inclusion_mask) == self.desired_value_mask


NO_CONTROLS = ControlSpec()


def coerce_controls(controls) -> ControlSpec:
    """Accept a ControlSpec, None, or an iterable of (wire, is_control)."""
    if controls is None:
        return NO_CONTROLS
    if isinstance(controls, ControlSpec):
        return controls
    return ControlSpec(tuple((w, f) for w, f in controls))


def _check_distinct(targets, spec: ControlSpec) -> None:
    """No target repeats and no wire is both a control and a target."""
    if len(set(targets)) != len(targets):
        raise ContractError(f"duplicate target wires in {targets}")
    overlap = set(targets) & set(spec.wires)
    if overlap:
        raise ContractError(f"wire {min(overlap)} is both a control and a target")


def _check_wires(n: int, targets, spec: ControlSpec) -> None:
    _check_distinct(targets, spec)
    for w in (*targets, *spec.wires):
        if not 0 <= w < n:
            raise ContractError(f"wire {w} out of range for {n} qubits")


def swap_bits(k: int, i: int, j: int) -> int:
    """Return ``k`` with bits ``i`` and ``j`` exchanged."""
    if i < 0 or j < 0:
        raise ContractError("bit positions must be non-negative")
    bi = (k >> i) & 1
    bj = (k >> j) & 1
    if bi != bj:
        k ^= (1 << i) | (1 << j)
    return k


def _build_plan(n: int, u: np.ndarray, targets, entries) -> tuple:
    """Work out, unchecked, how the kernel applies ``u`` to ``targets``.

    ``entries`` are the controls' ``(wire, is_control)`` pairs.  The plan
    is ``(shape, keys, copies, steps)``: the view shape of an ``n``-wire
    state, the ``(c, index)`` of each block ``block_c`` read or written,
    the blocks to copy before any write, and per written row ``r`` its
    ``(r, ((c, u[r, c]), ...))`` terms, own block first.
    """
    rows = u.tolist()
    reads = [[c for c, x in enumerate(row) if x] for row in rows]
    writes = [r for r in range(len(rows)) if reads[r] != [r] or rows[r][r] != 1]

    # C order puts the highest wire on axis 0.
    shape: list[int] = []
    axis_of: dict[int, int] = {}
    above = n
    for w in sorted([*targets, *(w for w, _ in entries)], reverse=True):
        if above - w > 1:
            shape.append(1 << (above - w - 1))
        axis_of[w] = len(shape)
        shape.append(2)
        above = w
    if above:
        shape.append(1 << above)
    index: list = [slice(None)] * len(shape)
    for w, is_control in entries:
        index[axis_of[w]] = int(is_control)
    target_axes = [axis_of[t] for t in sorted(targets)]
    keys = []
    for c in {*writes, *(c for r in writes for c in reads[r])}:
        for k, axis in enumerate(target_axes):
            index[axis] = (c >> k) & 1
        # the trailing ... keeps a block a 0-d view when every axis is fixed
        keys.append((c, (*index, ...)))

    copies = tuple(c for c in writes if any(c in reads[r] for r in writes if r > c))
    # own block first; a zero row scales its own block by 0
    steps = tuple(
        (r, tuple((c, rows[r][c]) for c in sorted(reads[r], key=lambda c: c != r) or [r]))
        for r in writes
    )
    return tuple(shape), tuple(keys), copies, steps


def _run_plan(plan: tuple, state: np.ndarray) -> np.ndarray:
    """Run a plan of :func:`_build_plan` in ``state``, a contiguous vector."""
    shape, keys, copies, steps = plan
    view = state.reshape(shape)
    blocks = {c: view[key] for c, key in keys}
    sources = dict(blocks)
    for c in copies:
        sources[c] = blocks[c].copy()
    for r, ((first, scale), *rest) in steps:
        dst = blocks[r]
        if scale != 1:
            np.multiply(sources[first], scale, out=dst)
        elif first != r:
            np.copyto(dst, sources[first])
        for c, x in rest:
            dst += x * sources[c]
    return state


def apply_multi_qubit_gate(n: int, u, targets, a, controls=None) -> np.ndarray:
    """Apply a ``2**m x 2**m`` matrix ``u`` to ``m`` target wires.

    Bit ``k`` of a row/column index of ``u`` addresses the ``k``-th
    smallest target wire.  The state is viewed with one length-2 axis per
    target or control wire and one merged axis per run of other wires.
    Fixing each control axis to its wanted bit and the target axes to a
    pattern ``c`` gives ``block_c``, a strided view of every amplitude
    whose target bits read ``c`` and that passes the controls.  Row ``r``
    then writes ``block_r = sum_c u[r, c] * block_c``, skipping zero
    entries and identity rows; only the blocks a later row still reads
    are copied first.

    The checked entry point: it validates its arguments, then builds and
    runs the plan on a fresh copy of ``a``.  ``u`` is applied as given,
    unitary or not: catalog gates are checked once at import and
    ``run_circuit`` checks the norm of its result.
    """
    n = check_qubit_count(n)
    spec = coerce_controls(controls)
    targets = tuple(int(t) for t in targets)
    _check_wires(n, targets, spec)
    m = len(targets)
    if m == 0:
        raise ContractError("multi-qubit gate needs at least one target")
    dim = 1 << m
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise DimensionError(
            f"gate on {m} wires must be {dim}x{dim}, got {u.shape}"
        )
    out = np.array(a, dtype=np.complex128)
    if out.shape != (1 << n,):
        raise DimensionError(
            f"state must have length {1 << n} for {n} qubits, got shape {out.shape}"
        )
    return _run_plan(_build_plan(n, u, targets, spec.entries), out)


def apply_op(n: int, op, a) -> np.ndarray:
    """Apply one circuit operation (anything except a measurement)."""
    if op.gate == MEASURE:
        raise ContractError(f"{op} is a measurement; use the measurement module")
    return apply_multi_qubit_gate(n, gate_def(op.gate).matrix, op.targets, a, op.controls)


def compile_circuit(circuit) -> tuple[list, tuple[int, ...], dict[int, int | None]]:
    """Check every op of ``circuit`` once and lower its gates to kernel plans.

    Returns ``(steps, measured, wire_map)``.  A measured wire leaves the
    state and the live wires keep their order, so each step is fixed in
    advance: ``(n_live, plan, None)`` runs a gate's plan on the ``n_live``
    wires still live, ``(n_live, None, slot)`` measures live wire ``slot``.
    ``measured`` lists the measured wires in op order; ``wire_map`` sends
    each wire to its final slot, or None.  Reusing a measured wire raises
    ``ContractError`` naming the op.
    """
    live = list(range(circuit.n))
    steps: list[tuple[int, tuple | None, int | None]] = []
    measured: list[int] = []
    for k, op in enumerate(circuit.ops):
        gone = [w for w in op.wires if w not in live]
        if gone and op.gate == MEASURE:
            raise ContractError(f"op {k} ({op}): wire {gone[0]} measured twice")
        if gone:
            raise ContractError(f"op {k} ({op}) touches wire {gone[0]}, which was measured")
        slots = [live.index(w) for w in op.wires]
        if op.gate == MEASURE:
            steps.append((len(live), None, slots[0]))
            measured.append(live.pop(slots[0]))
            continue
        m = len(op.targets)
        entries = [(s, f) for s, (_, f) in zip(slots[m:], op.controls.entries)]
        plan = _build_plan(len(live), gate_def(op.gate).matrix, slots[:m], entries)
        steps.append((len(live), plan, None))
    wire_map = {w: live.index(w) if w in live else None for w in range(circuit.n)}
    return steps, tuple(measured), wire_map


def run_circuit(circuit, psi0=None) -> np.ndarray:
    """Run every gate of a measurement-free circuit over ``psi0``.

    ``psi0`` defaults to |00...0>.  The compiled plans run in one working
    copy.  The returned vector stays normalized; a drift beyond
    ``STATE_ATOL`` would indicate a kernel bug and raises.
    """
    steps, _, _ = compile_circuit(circuit)
    for k, (_, plan, _) in enumerate(steps):
        if plan is None:
            op = circuit.ops[k]
            raise ContractError(f"op {k} ({op}) is a measurement; use the measurement module")
    state = initial_state(circuit.n, psi0)
    for _, plan, _ in steps:
        _run_plan(plan, state)
    drift = abs(np.vdot(state, state).real - 1.0)
    if not drift <= STATE_ATOL:
        raise ContractError(f"norm drifted by {drift:.3e} during simulation")
    return state
