"""Projective measurement: branch trees and repeated-shot sampling.

Measuring wire ``q`` of an ``n``-qubit state splits it into (up to) two
residual states, one per outcome ``b``: keep the amplitudes whose bit ``q``
equals ``b``, delete that bit from the index, and renormalize by
``sqrt(Pr[b])``.  Residuals therefore live on ``n - 1`` qubits; wires above
``q`` shift down by one.  Branches with probability below ``PRUNE_EPS``
carry no residual (there is nothing meaningful to renormalize).

Two consumers are built on that primitive:

* :func:`run_with_branches` follows *every* outcome, producing a tree whose
  leaves carry the outcome history, its probability, and the final residual
  state.  Exact, deterministic, exponential in the number of measurements.
* :func:`sample_shots` replays the circuit once per shot, choosing each
  outcome with a seeded generator.  Linear in shots, statistical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .gates import MEASURE
from .analysis import probability_of_one
from .circuit import Circuit, GateOp
from .engine import ControlSpec, apply_op
from .linalg import initial_state, make_rng

PRUNE_EPS = 1e-14


@dataclass(frozen=True)
class MeasurementBranch:
    """One outcome of measuring a single wire.

    ``residual`` is the renormalized post-measurement state with the
    measured bit removed, or ``None`` when ``probability < PRUNE_EPS``.
    """

    outcome: int
    probability: float
    residual: np.ndarray | None


def measure_qubit(psi, n: int, qubit: int) -> tuple[MeasurementBranch, MeasurementBranch]:
    """Split a state on the outcome of measuring ``qubit``.

    Returns the ``(outcome 0, outcome 1)`` branch pair.  Probabilities
    always sum to 1 (up to the pruning threshold); residuals are unit
    vectors of length ``2**(n-1)``.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (1 << n,):
        raise DimensionError(
            f"state must have length {1 << n} for {n} qubits, got shape {psi.shape}"
        )
    if n < 1:
        raise ContractError("cannot measure an empty register")
    qubit = int(qubit)
    if not 0 <= qubit < n:
        raise ContractError(f"qubit {qubit} out of range for {n} qubits")

    p1 = probability_of_one(psi, qubit)
    p0 = max(0.0, 1.0 - p1)

    half = np.arange(1 << (n - 1), dtype=np.int64)
    low = (1 << qubit) - 1
    cleared = ((half >> qubit) << (qubit + 1)) | (half & low)

    def branch(bit: int, p: float) -> MeasurementBranch:
        if p < PRUNE_EPS:
            return MeasurementBranch(bit, 0.0, None)
        residual = psi[cleared | (bit << qubit)] / np.sqrt(p)
        return MeasurementBranch(bit, float(p), residual)

    return branch(0, p0), branch(1, p1)


@dataclass(frozen=True)
class BranchLeaf:
    """A complete outcome history with its probability and final state.

    ``outcomes[k]`` is the result of the ``k``-th MEASURE op in circuit
    order.  ``state`` has one qubit per unmeasured wire.
    """

    outcomes: tuple[int, ...]
    probability: float
    state: np.ndarray


@dataclass(frozen=True)
class BranchTree:
    """Every surviving outcome path of a circuit with measurements.

    ``wire_map`` sends each original wire either to its index in the leaf
    states or to ``None`` if it was measured away.  Leaf probabilities sum
    to 1 up to pruning.
    """

    n: int
    measured_wires: tuple[int, ...]
    wire_map: dict[int, int | None]
    leaves: tuple[BranchLeaf, ...]


def _remap_op(op: GateOp, wire_map: dict[int, int | None]) -> GateOp:
    """Rewrite an op's wires to post-measurement positions."""
    for w in op.wires:
        if wire_map[w] is None:
            raise ContractError(f"op {op.gate} touches wire {w}, which was measured")
    return GateOp(
        op.gate,
        tuple(wire_map[t] for t in op.targets),
        ControlSpec(tuple((wire_map[w], f) for w, f in op.controls.entries)),
    )


def _measure_and_shift(wire_map: dict[int, int | None], wire: int) -> None:
    """Mark ``wire`` measured; wires above its current slot shift down."""
    slot = wire_map[wire]
    for k, v in wire_map.items():
        if v is not None and v > slot:
            wire_map[k] = v - 1
    wire_map[wire] = None


def run_with_branches(circuit: Circuit, psi0=None) -> BranchTree:
    """Follow every measurement outcome of ``circuit`` exhaustively.

    A circuit without measurements yields a single leaf of probability 1
    whose state equals the plain simulation result.
    """
    n = circuit.n
    state0 = initial_state(n, psi0)

    wire_map: dict[int, int | None] = {w: w for w in range(n)}
    measured: list[int] = []
    live: list[tuple[tuple[int, ...], float, np.ndarray]] = [((), 1.0, state0)]
    n_live = n

    for op in circuit.ops:
        if op.gate == MEASURE:
            wire = op.targets[0]
            slot = wire_map[wire]
            if slot is None:
                raise ContractError(f"wire {wire} measured twice")
            grown: list[tuple[tuple[int, ...], float, np.ndarray]] = []
            for outcomes, prob, state in live:
                for br in measure_qubit(state, n_live, slot):
                    if br.residual is None:
                        continue
                    grown.append(
                        (outcomes + (br.outcome,), prob * br.probability, br.residual)
                    )
            live = grown
            measured.append(wire)
            _measure_and_shift(wire_map, wire)
            n_live -= 1
        else:
            mapped = _remap_op(op, wire_map)
            live = [
                (outcomes, prob, apply_op(n_live, mapped, state, in_place=True))
                for outcomes, prob, state in live
            ]

    leaves = tuple(BranchLeaf(o, p, s) for o, p, s in live)
    return BranchTree(n, tuple(measured), dict(wire_map), leaves)


def sample_shots(circuit: Circuit, shots: int, seed, psi0=None) -> dict[str, int]:
    """Sample measurement records by replaying the circuit per shot.

    Returns a histogram mapping outcome strings (one character per MEASURE
    op, in circuit order) to counts.  A single ``numpy`` generator seeded
    with ``seed`` drives every outcome, so results are reproducible.
    ``psi0``, like in :func:`run_with_branches`, must be normalized.
    """
    shots = int(shots)
    if shots < 1:
        raise ContractError(f"shots must be at least 1, got {shots}")
    if not circuit.has_measurements:
        raise ContractError("circuit has no MEASURE ops to sample")
    n = circuit.n
    base = initial_state(n, psi0)
    rng = make_rng(seed)
    histogram: dict[str, int] = {}
    for _ in range(shots):
        state = base.copy()
        wire_map: dict[int, int | None] = {w: w for w in range(n)}
        n_live = n
        record: list[str] = []
        for op in circuit.ops:
            if op.gate == MEASURE:
                slot = wire_map[op.targets[0]]
                if slot is None:
                    raise ContractError(f"wire {op.targets[0]} measured twice")
                branches = measure_qubit(state, n_live, slot)
                picked = branches[1] if rng.random() < branches[1].probability else branches[0]
                if picked.residual is None:  # vanishing branch drawn at the boundary
                    picked = branches[1 - picked.outcome]
                state = picked.residual
                record.append(str(picked.outcome))
                _measure_and_shift(wire_map, op.targets[0])
                n_live -= 1
            else:
                state = apply_op(n_live, _remap_op(op, wire_map), state, in_place=True)
        key = "".join(record)
        histogram[key] = histogram.get(key, 0) + 1
    return histogram
