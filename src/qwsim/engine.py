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
:func:`compile_circuit` places each gate's template once, on the wires
still live when it runs (the ``Circuit`` has already refused any reuse
of a measured wire); :func:`run_circuit` and the measurement walker run
the plans in their own working state and check nothing per gate.  A plan
accepts leading batch axes: on a ``(B, 2**n)`` stack of states it runs
each numpy row write once for all ``B`` rows, with the same arithmetic
per amplitude as on one state.

A plan that makes more than one pass over its blocks (it copies a block,
writes more than one row, or writes a row of more than one term, as H, X,
Y and the three swaps do) runs slice by slice once a block, counted over
all stacked rows, holds more than ``_SLICE`` amplitudes: every step runs
on one slice of the outermost free axis, one that no target or control
fixes, before the next slice.  A slice is ``_SLICE`` = 2**15 amplitudes
(512 KiB), or one index of that axis when that holds more.  So a slice,
its block copies and its term temporaries stay in a core's L2 cache over
all the passes, and no temporary outgrows a slice.  Every step is
elementwise and the slices are disjoint, so each amplitude meets the same
numpy operations on the same operands as in one piece, and the result is
bit-identical.  A single-pass plan, a plan whose targets and controls
name every wire, and any state of at most ``2 * _SLICE`` amplitudes run
in one piece.

A state of more than ``2 * _SLICE`` amplitudes, counted over all stacked
rows, takes two more rules, so that a gate costs about the same on every
wire.  First, its steps run with numpy's ufunc buffer at ``_BUFSIZE`` =
256 elements, and the caller's size is restored on the way out, also when
a step raises.  A block on a mid wire ``w`` is made of contiguous runs of
``2**w`` amplitudes; numpy copies runs shorter than its buffer (8192
elements by default) through the buffer and back, about three passes
where one would do, and a small buffer lets it work on them in place.
Second, a plan whose lowest named wire is 1, with wire 0 free and another
axis free, runs each piece (the whole view or a slice) as its two wire-0
halves.  Its blocks would otherwise be runs of 2 amplitudes, and numpy
would call its inner loop once per run; a half puts the inner loop on a
longer axis.  Without the other free axis, a half of one state would be
a block of one amplitude, which numpy rounds unlike a stack's rows (see
:func:`_place`), so such a plan keeps its pieces whole.  Buffering only
moves data and the halves are disjoint, elementwise pieces, so these
results are bit-identical too; no reduction runs under the small buffer.

:func:`apply_multi_qubit_gate` is the checked entry point for one gate of
any matrix; like every public entry, it checks the qubit count, the
wires, the state and the matrix with the one check of each kind in
``linalg``.  Its targets and controls, like every gate's, go through
:func:`check_targets` as one list, so each wire is in range and none twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .gates import MEASURE, gate_def, gate_names
from .linalg import (
    MAX_QUBITS,
    check_int,
    check_matrix,
    check_state,
    check_unit_state,
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
        try:
            pairs = [(w, bool(f)) for w, f in self.entries]
        except (TypeError, ValueError):
            raise ContractError(
                f"controls must be (wire, is_control) pairs, got {self.entries!r}"
            ) from None
        try:  # no register holds a wire past the cap; refuse it before 1 << wire
            wires = check_wires(MAX_QUBITS, [w for w, _ in pairs])
        except ContractError as exc:
            raise ContractError(f"control {exc}") from None
        entries = tuple((w, f) for w, (_, f) in zip(wires, pairs))
        object.__setattr__(self, "entries", entries)
        inclusion = 0
        desired = 0
        for wire, is_control in entries:
            inclusion |= 1 << wire
            if is_control:
                desired |= 1 << wire
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
    if controls is None or isinstance(controls, (list, tuple)) and not controls:
        return NO_CONTROLS  # most gates have no controls; build no spec for them
    return ControlSpec(controls)


def check_targets(n: int, targets, controls) -> tuple[tuple[int, ...], ControlSpec]:
    """``targets`` as ints and ``controls`` as a ``ControlSpec``, checked as one list of wires."""
    spec = coerce_controls(controls)
    wires = check_wires(n, chain(targets, spec.wires))
    return wires[: len(wires) - len(spec.wires)], spec


def swap_bits(k: int, i: int, j: int) -> int:
    """Return ``k`` with bits ``i`` and ``j`` exchanged; each position is a
    wire, so ``0..MAX_QUBITS - 1``."""
    k = check_int(k, "index")
    i, j = (check_int(b, "bit position", 0, MAX_QUBITS - 1) for b in (i, j))
    bi = (k >> i) & 1
    bj = (k >> j) & 1
    if bi != bj:
        k ^= (1 << i) | (1 << j)
    return k


def _template(u: np.ndarray) -> tuple:
    """Work out, unchecked, what the kernel does with the matrix ``u``.

    The template is ``(used, copies, steps, multi_pass)``: the block
    labels ``c`` a row write reads or writes, the blocks to copy before
    any write, per written row ``r`` its ``(r, ((c, u[r, c]), ...))``
    terms, own block first, and whether the plan makes more than one pass
    over its blocks (it copies a block, writes more than one row, or
    writes a row of more than one term).  Rows equal to the identity's are
    not written.
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
    multi_pass = bool(copies) or len(steps) > 1 or any(len(terms) > 1 for _, terms in steps)
    return used, copies, steps, multi_pass


# Amplitudes, over all stacked rows, in one slice of a sliced plan: its
# blocks, their copies and term temporaries then stay in a core's L2.
_SLICE = 1 << 15

# numpy's ufunc buffer, in elements, while a big state runs a plan: below
# numpy's default of 8192, contiguous runs shorter than the buffer are no
# longer copied through it and back.  Of 64 to 1024, 256 ran 18-qubit
# circuits fastest.
_BUFSIZE = 256

# Every catalog gate's template, derived once here rather than per gate applied.
_TEMPLATES = {name: _template(gate_def(name).matrix) for name in gate_names()}


class Plan(NamedTuple):
    """A template of :func:`_template` placed on the wires of one state."""

    shape: tuple[int, ...]  # the view shape of one state, highest wire first
    keys: tuple  # ``(c, index)`` of each block ``block_c`` the template uses
    copies: tuple  # the blocks to copy before any write
    steps: tuple  # the template's row writes
    # (outermost free axis, number of fixed axes) of a multi-pass template
    # placed with a free axis, else None
    cut: tuple[int, int] | None
    # whether a big state runs the plan as its two wire-0 halves: wire 0 is
    # the only wire below the lowest named wire, and another axis is free
    halves: bool


def _place(n: int, template: tuple, targets, entries) -> Plan:
    """Place, unchecked, a template of :func:`_template` on wires of ``n``.

    ``entries`` are the controls' ``(wire, is_control)`` pairs.  The plan
    holds the view shape of an ``n``-wire state, each block's key, the
    blocks to copy (the template's, or all of them when every axis is
    fixed), the template's steps, the ``cut`` a big state slices at, and
    whether a big state runs it as two wire-0 ``halves`` (see :class:`Plan`).
    """
    used, copies, steps, multi_pass = template
    # C order puts the highest wire on axis 0.
    shape: list[int] = []
    axis_of: dict[int, int] = {}
    free: list[int] = []  # the axes of runs of other wires, which no key fixes
    above = n
    for w in sorted([*targets, *(w for w, _ in entries)], reverse=True):
        if above - w > 1:
            free.append(len(shape))
            shape.append(1 << (above - w - 1))
        axis_of[w] = len(shape)
        shape.append(2)
        above = w
    if above:
        free.append(len(shape))
        shape.append(1 << above)
    index: list = [slice(None)] * len(shape)
    for w, is_control in entries:
        index[axis_of[w]] = int(is_control)
    target_axes = [axis_of[t] for t in sorted(targets)]
    keys = []
    for c in used:
        for k, axis in enumerate(target_axes):
            index[axis] = (c >> k) & 1
        # the ... keeps a block a view (0-d when every axis is fixed) and takes
        # any leading batch axes of a stack of states
        keys.append((c, (..., *index)))
    if len(axis_of) == n:
        # Every axis is fixed, so a block of one state is one amplitude.
        # numpy scales a one-element block in place in a scalar loop that
        # rounds a complex product unlike its vector loop, which the rows of
        # a stack take; reading from copies keeps a stack's rows bit-equal
        # to the same states run one by one.
        copies = used
    cut = (free[0], len(axis_of)) if multi_pass and free else None
    # a half keeps another free axis, so its blocks never shrink to one
    # amplitude (see above)
    halves = above == 1 and len(free) > 1
    return Plan(tuple(shape), tuple(keys), copies, steps, cut, halves)


def _run_plan(plan: Plan, state: np.ndarray) -> np.ndarray:
    """Run a plan of :func:`_place` in ``state``, a contiguous vector or a
    contiguous stack of them along leading axes, every row alike.

    A state of at most ``2 * _SLICE`` amplitudes, over all rows, runs the
    steps once on the whole view.  A bigger one runs them with numpy's
    ufunc buffer at ``_BUFSIZE`` elements, restored on the way out; a plan
    with a ``cut`` whose blocks hold more than ``_SLICE`` amplitudes runs
    them on successive slices of its outermost free axis, each about
    ``_SLICE`` amplitudes of the view; and a plan with ``halves`` runs them
    on the two wire-0 halves of each piece.
    """
    shape, keys, copies, steps, cut, halves = plan
    view = state.reshape(state.shape[:-1] + shape)
    parts = (view,)
    bufsize = None
    if state.size > 2 * _SLICE:
        if cut is not None and state.size >> cut[1] > _SLICE:  # a block outgrows a slice
            axis, length = cut[0], shape[cut[0]]
            width = max(1, _SLICE // (state.size // length))
            head = (slice(None),) * (view.ndim - len(shape) + axis)
            parts = (view[(*head, slice(lo, lo + width))] for lo in range(0, length, width))
        if halves:  # wire 0 is the last axis, so drop its index from the keys
            keys = [(c, key[:-1]) for c, key in keys]
            parts = (part[..., bit] for part in parts for bit in (0, 1))
        bufsize = np.setbufsize(_BUFSIZE)
    try:
        for part in parts:
            blocks = {c: part[key] for c, key in keys}
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
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)
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

    The checked entry point for any matrix: it validates its arguments,
    derives the template of ``u``, places it and runs the plan on a fresh
    copy of ``a``.  ``u`` is applied as given, unitary or not: catalog
    gates are checked once at import and ``run_circuit`` checks the norm
    of its result.
    """
    out, n = check_state(a, n)
    targets, spec = check_targets(n, targets, controls)
    if not targets:
        raise ContractError("multi-qubit gate needs at least one target")
    u = check_matrix(u, 1 << len(targets))
    return _run_plan(_place(n, _template(u), targets, spec.entries), out.copy())


def compile_circuit(circuit) -> tuple[list, tuple[int, ...], dict[int, int | None]]:
    """Lower the ops of ``circuit`` to kernel plans over the live wires.

    Returns ``(steps, measured, wire_map)``.  A measured wire leaves the
    state and the live wires keep their order, so each step is fixed in
    advance: ``(plan, None)`` runs a gate's plan on the wires still live,
    ``(None, slot)`` measures live wire ``slot``.  ``measured`` lists the
    measured wires in op order; ``wire_map`` sends each wire to its final
    slot, or None.  ``Circuit`` refuses any reuse of a measured wire, so a
    compile only places templates and cannot fail.
    """
    live = list(range(circuit.n))
    slot_of = {w: w for w in live}
    steps: list[tuple[tuple | None, int | None]] = []
    measured: list[int] = []
    for op in circuit.ops:
        slots = [slot_of[t] for t in op.targets]
        if op.gate == MEASURE:
            steps.append((None, slots[0]))
            measured.append(live.pop(slots[0]))
            slot_of = {w: s for s, w in enumerate(live)}
            continue
        entries = [(slot_of[w], f) for w, f in op.controls.entries]
        steps.append((_place(len(live), _TEMPLATES[op.gate], slots, entries), None))
    wire_map = {w: slot_of.get(w) for w in range(circuit.n)}
    return steps, tuple(measured), wire_map


def run_circuit(circuit, psi0=None) -> np.ndarray:
    """Run every gate of a measurement-free circuit over ``psi0``.

    ``psi0`` defaults to |00...0>.  The compiled plans run in one working
    copy.  The result passes ``check_unit_state`` again, so a norm drift
    beyond ``STATE_ATOL``, which would mean a kernel bug, raises.
    """
    for k, op in enumerate(circuit.ops):
        if op.gate == MEASURE:
            raise ContractError(f"op {k} ({op}) is a measurement; use the measurement module")
    state = initial_state(circuit.n, psi0)
    for plan, _ in compile_circuit(circuit)[0]:
        _run_plan(plan, state)
    return check_unit_state(state, circuit.n)[0]
