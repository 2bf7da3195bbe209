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

A gate's plan has two parts.  Its template (which rows are written,
which blocks each row reads, which blocks are copied first, and each
row's terms) comes from the matrix alone, so the template of every
catalog gate is derived once, at import.  Its placement (the view shape
and each block's index) comes from the wires alone.
:func:`compile_circuit` checks a circuit once and places each gate's
template once; :func:`run_circuit` and the measurement walker run the
plans in their own working state and check nothing per gate.
:func:`apply_multi_qubit_gate` is the checked entry point for one gate of
any matrix, and :func:`apply_op` for one catalog gate; like every public
entry, they check the qubit count, the wires, the state and the matrix
with the one check of each kind in ``linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .gates import MEASURE, gate_def, gate_names
from .linalg import (
    MAX_QUBITS,
    STATE_ATOL,
    check_int,
    check_matrix,
    check_state,
    check_wires,
    initial_state,
)


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
    # the wires of ``entries``, in order; derived, so not compared or shown
    wires: tuple[int, ...] = field(init=False, default=(), compare=False, repr=False)

    def __post_init__(self):
        pairs = tuple(self.entries)
        try:  # no register holds a wire past the cap; refuse it before 1 << wire
            wires = check_wires(MAX_QUBITS, [w for w, _ in pairs])
        except ContractError as exc:
            raise ContractError(f"control {exc}") from None
        entries = tuple((w, bool(f)) for w, (_, f) in zip(wires, pairs))
        object.__setattr__(self, "entries", entries)
        inclusion = 0
        desired = 0
        for wire, is_control in entries:
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
        object.__setattr__(self, "wires", wires)

    def passes(self, k: int) -> bool:
        return (k & self.inclusion_mask) == self.desired_value_mask


NO_CONTROLS = ControlSpec()


def coerce_controls(controls) -> ControlSpec:
    """Accept a ControlSpec, None, or an iterable of (wire, is_control)."""
    if isinstance(controls, ControlSpec):
        return controls
    entries = () if controls is None else tuple(controls)
    return ControlSpec(entries) if entries else NO_CONTROLS


def _check_distinct(targets, spec: ControlSpec) -> None:
    """No target repeats and no wire is both a control and a target."""
    if len(set(targets)) != len(targets):
        raise ContractError(f"duplicate target wires in {targets}")
    overlap = set(targets) & set(spec.wires)
    if overlap:
        raise ContractError(f"wire {min(overlap)} is both a control and a target")


def _check_wires(n: int, targets, spec: ControlSpec) -> tuple[int, ...]:
    """The targets as ints; every wire in range, and none named twice."""
    targets = check_wires(n, targets)
    check_wires(n, spec.wires)
    _check_distinct(targets, spec)
    return targets


def swap_bits(k: int, i: int, j: int) -> int:
    """Return ``k`` with bits ``i`` and ``j`` exchanged."""
    k = check_int(k, "index")
    i, j = check_int(i, "bit position"), check_int(j, "bit position")
    if i < 0 or j < 0:
        raise ContractError("bit positions must be non-negative")
    bi = (k >> i) & 1
    bj = (k >> j) & 1
    if bi != bj:
        k ^= (1 << i) | (1 << j)
    return k


def _template(u: np.ndarray) -> tuple:
    """Work out, unchecked, what the kernel does with the matrix ``u``.

    The template is ``(used, copies, steps)``: the block labels ``c`` a
    row write reads or writes, the blocks to copy before any write, and
    per written row ``r`` its ``(r, ((c, u[r, c]), ...))`` terms, own
    block first.  Rows equal to the identity's are not written.
    """
    rows = u.tolist()
    reads = [[c for c, x in enumerate(row) if x] for row in rows]
    writes = [r for r in range(len(rows)) if reads[r] != [r] or rows[r][r] != 1]
    used = tuple({*writes, *(c for r in writes for c in reads[r])})
    copies = tuple(c for c in writes if any(c in reads[r] for r in writes if r > c))
    # own block first; a zero row scales its own block by 0
    steps = tuple(
        (r, tuple((c, rows[r][c]) for c in sorted(reads[r], key=lambda c: c != r) or [r]))
        for r in writes
    )
    return used, copies, steps


# Every catalog gate's template, derived once here rather than per gate applied.
_TEMPLATES = {name: _template(gate_def(name).matrix) for name in gate_names()}


def _place(n: int, template: tuple, targets, entries) -> tuple:
    """Place, unchecked, a template of :func:`_template` on wires of ``n``.

    ``entries`` are the controls' ``(wire, is_control)`` pairs.  The plan
    is ``(shape, keys, copies, steps)``: the view shape of an ``n``-wire
    state, the ``(c, index)`` of each block ``block_c`` the template uses,
    and the template's copies and steps.
    """
    used, copies, steps = template
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
    for c in used:
        for k, axis in enumerate(target_axes):
            index[axis] = (c >> k) & 1
        # the trailing ... keeps a block a 0-d view when every axis is fixed
        keys.append((c, (*index, ...)))
    return tuple(shape), tuple(keys), copies, steps


def _run_plan(plan: tuple, state: np.ndarray) -> np.ndarray:
    """Run a plan of :func:`_place` in ``state``, a contiguous vector."""
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


def _check_gate(n: int, targets, a, controls) -> tuple:
    """Check one gate's wires and state; return ``(n, targets, spec, state)``.

    ``state`` is a fresh complex copy of ``a`` for the kernel to write.
    """
    out, n = check_state(a, n)
    spec = coerce_controls(controls)
    targets = _check_wires(n, targets, spec)
    if not targets:
        raise ContractError("multi-qubit gate needs at least one target")
    return n, targets, spec, out.copy()


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

    The checked entry point for any matrix: it validates its arguments,
    derives the template of ``u``, places it and runs the plan on a fresh
    copy of ``a``.  ``u`` is applied as given, unitary or not: catalog
    gates are checked once at import and ``run_circuit`` checks the norm
    of its result.
    """
    n, targets, spec, out = _check_gate(n, targets, a, controls)
    u = check_matrix(u, 1 << len(targets))
    return _run_plan(_place(n, _template(u), targets, spec.entries), out)


def apply_op(n: int, op, a) -> np.ndarray:
    """Apply one circuit operation (anything except a measurement).

    Checked like :func:`apply_multi_qubit_gate`, but the gate's template
    comes from the catalog table.
    """
    if op.gate == MEASURE:
        raise ContractError(f"{op} is a measurement; use the measurement module")
    g = gate_def(op.gate)
    n, targets, spec, out = _check_gate(n, op.targets, a, op.controls)
    return _run_plan(_place(n, _TEMPLATES[g.name], targets, spec.entries), out)


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
    slot_of = {w: w for w in live}
    steps: list[tuple[int, tuple | None, int | None]] = []
    measured: list[int] = []
    for k, op in enumerate(circuit.ops):
        wires = op.wires
        slots = [slot_of.get(w) for w in wires]
        if None in slots:
            gone = wires[slots.index(None)]
            if op.gate == MEASURE:
                raise ContractError(f"op {k} ({op}): wire {gone} measured twice")
            raise ContractError(f"op {k} ({op}) touches wire {gone}, which was measured")
        if op.gate == MEASURE:
            steps.append((len(live), None, slots[0]))
            measured.append(live.pop(slots[0]))
            slot_of = {w: s for s, w in enumerate(live)}
            continue
        m = len(op.targets)
        entries = [(s, f) for s, (_, f) in zip(slots[m:], op.controls.entries)]
        plan = _place(len(live), _TEMPLATES[op.gate], slots[:m], entries)
        steps.append((len(live), plan, None))
    wire_map = {w: slot_of.get(w) for w in range(circuit.n)}
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
