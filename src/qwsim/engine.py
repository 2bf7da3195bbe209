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

The kernel returns a fresh vector by default; pass ``in_place=True`` to
mutate the input (it must then be a writeable, contiguous complex128
array).  Results are identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError
from .gates import MEASURE, gate_def
from .linalg import STATE_ATOL, check_qubit_count, initial_state, is_normalized


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
            if wire < 0:
                raise ContractError(f"control wire {wire} is negative")
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


def _check_wires(n: int, targets, spec: ControlSpec) -> None:
    tset = set(targets)
    if len(tset) != len(targets):
        raise ContractError(f"duplicate target wires in {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ContractError(f"target wire {t} out of range for {n} qubits")
    for w in spec.wires:
        if not 0 <= w < n:
            raise ContractError(f"control wire {w} out of range for {n} qubits")
        if w in tset:
            raise ContractError(f"wire {w} is both a control and a target")


def _working_copy(a, n: int, in_place: bool) -> np.ndarray:
    size = 1 << n
    if in_place:
        if not isinstance(a, np.ndarray) or a.dtype != np.complex128:
            raise ContractError("in_place requires a complex128 ndarray")
        if not (a.flags.writeable and a.flags.c_contiguous):
            raise ContractError("in_place requires a writeable contiguous array")
        out = a
    else:
        out = np.array(a, dtype=np.complex128)
    if out.ndim != 1 or out.shape[0] != size:
        raise DimensionError(
            f"state must have length {size} for {n} qubits, got shape {out.shape}"
        )
    return out


def swap_bits(k: int, i: int, j: int) -> int:
    """Return ``k`` with bits ``i`` and ``j`` exchanged."""
    if i < 0 or j < 0:
        raise ContractError("bit positions must be non-negative")
    bi = (k >> i) & 1
    bj = (k >> j) & 1
    if bi != bj:
        k ^= (1 << i) | (1 << j)
    return k


def apply_multi_qubit_gate(
    n: int,
    u,
    targets,
    a,
    controls=None,
    *,
    in_place: bool = False,
) -> np.ndarray:
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

    ``u`` is applied as given, unitary or not: catalog gates are checked
    once at import and ``run_circuit`` checks the norm of its result.
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
    rows = u.tolist()
    reads = [[c for c, x in enumerate(row) if x] for row in rows]
    writes = [r for r in range(dim) if reads[r] != [r] or rows[r][r] != 1]
    out = _working_copy(a, n, in_place)
    if not writes:
        return out

    # C order puts the highest wire on axis 0.
    shape: list[int] = []
    axis_of: dict[int, int] = {}
    above = n
    for w in sorted(targets + spec.wires, reverse=True):
        if above - w > 1:
            shape.append(1 << (above - w - 1))
        axis_of[w] = len(shape)
        shape.append(2)
        above = w
    if above:
        shape.append(1 << above)
    view = out.reshape(shape)
    index: list = [slice(None)] * len(shape)
    for w, is_control in spec.entries:
        index[axis_of[w]] = int(is_control)
    target_axes = [axis_of[t] for t in sorted(targets)]
    blocks = {}
    for c in {*writes, *(c for r in writes for c in reads[r])}:
        for k, axis in enumerate(target_axes):
            index[axis] = (c >> k) & 1
        # the trailing ... keeps a block a 0-d view when every axis is fixed
        blocks[c] = view[(*index, ...)]

    sources = dict(blocks)
    for c in writes:
        if any(c in reads[r] for r in writes if r > c):
            sources[c] = blocks[c].copy()
    for r in writes:
        dst, row = blocks[r], rows[r]
        # own block first; a zero row scales its own block by 0
        terms = sorted(reads[r], key=lambda c: c != r) or [r]
        first = terms[0]
        if row[first] != 1:
            np.multiply(sources[first], row[first], out=dst)
        elif first != r:
            np.copyto(dst, sources[first])
        for c in terms[1:]:
            dst += row[c] * sources[c]
    return out


def apply_op(n: int, op, a, *, in_place: bool = False) -> np.ndarray:
    """Apply one circuit operation (anything except a measurement)."""
    if op.gate == MEASURE:
        raise ContractError(
            "measurement ops are handled by the measurement module, not the engine"
        )
    return apply_multi_qubit_gate(
        n, gate_def(op.gate).matrix, op.targets, a, op.controls, in_place=in_place
    )


def run_circuit(circuit, psi0=None, *, in_place: bool = False) -> np.ndarray:
    """Run every gate of a measurement-free circuit over ``psi0``.

    ``psi0`` defaults to |00...0>.  The returned vector stays normalized;
    a drift beyond ``STATE_ATOL`` would indicate a kernel bug and raises.
    """
    n = circuit.n
    if in_place and psi0 is not None:
        state = _working_copy(psi0, n, True)
        if not is_normalized(state):
            raise ContractError("initial state is not normalized")
    else:
        state = initial_state(n, psi0)
    for op in circuit.ops:
        state = apply_op(n, op, state, in_place=True)
    drift = abs(np.vdot(state, state).real - 1.0)
    if not drift <= STATE_ATOL:
        raise ContractError(f"norm drifted by {drift:.3e} during simulation")
    return state
