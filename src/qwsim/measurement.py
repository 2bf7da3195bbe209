"""Projective measurement: branch trees and seeded shot sampling.

Measuring wire ``q`` of an ``n``-qubit unit state splits it into (up to)
two residual states, one per outcome ``b``: keep the amplitudes whose bit
``q`` equals ``b``, delete that bit from the index, and renormalize by
``sqrt(Pr[b])``.  ``Pr[b]`` is the sum of ``|psi|**2`` over that same half
of the amplitudes, for each outcome on its own, so every residual is a
unit vector to rounding, however rare its outcome, and passes the unit
check of the next split.  Residuals live on ``n - 1`` qubits; wires above
``q`` shift down by one.  Branches with probability below ``PRUNE_EPS``
carry no residual (there is nothing meaningful to renormalize).

Which wire sits where after each measurement does not depend on outcomes,
so ``engine.compile_circuit`` places each gate's kernel plan once, on the
live wires.  One breadth-first walker then serves both consumers.  It
holds every live outcome prefix as one row of a ``(B, 2**n_live)`` stack
of residuals: each gate plan runs once on the whole stack, and each
MEASURE splits every row at once into a stack of children ordered by
``2 * row + outcome``, so rows stay in sorted outcome order.  A split is
a fixed handful of numpy calls whatever the rows: ``|stack|**2``, one sum
per outcome into one ``(2, B)`` table, the norm test, one batched division.

* :func:`run_with_branches` follows *every* non-pruned outcome, producing a
  tree whose leaves carry the outcome history, its probability, and the
  final residual state, in sorted outcome order.  Exact, deterministic,
  exponential in the number of measurements.
* :func:`sample_shots` draws every shot's outcomes from one seeded
  generator and sends the shots that reached an outcome prefix down the
  branches they drew.  Each distinct prefix is one row however many shots
  share it, so the cost is distinct prefixes x circuit, not
  shots x circuit.  Statistical.

Residuals halve at each level and the rows at most double, so a stack
never holds more amplitudes than one state.  A split holds the stack and
then either its ``|stack|**2`` (half a state, in float64) or the next
stack, never both, so a level peaks near two states plus the gate
kernel's temporaries.  Those are at most one slice each (see ``engine``),
unless the gate names every live wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .circuit import Circuit
from .engine import _run_plan, _start, compile_circuit, run_circuit
from .gates import MEASURE
from .linalg import (
    check_int,
    check_unit_norms,
    check_unit_state,
    check_wires,
    make_rng,
)

PRUNE_EPS = 1e-14
# Shots drawn and walked together; bounds the draw table at a few MiB.
_SHOT_CHUNK = 1 << 14


@dataclass(frozen=True)
class MeasurementBranch:
    """One outcome of measuring a single wire.

    ``residual`` is the renormalized post-measurement state with the
    measured bit removed, or ``None`` when ``probability < PRUNE_EPS``.
    """

    outcome: int
    probability: float
    residual: np.ndarray | None


def _split(stack: np.ndarray, slot: int, rows=None, draws=None) -> tuple:
    """Split each row of a ``(B, 2**n)`` stack of states on live wire ``slot``.

    Each row's ``Pr[0]`` and ``Pr[1]`` are the sums of ``|row|**2`` over
    their own halves, and must add up to 1 (``check_unit_norms``); an
    outcome below ``PRUNE_EPS`` is pruned.  Returns ``(nodes, bits, p,
    children, rows)``: child ``k`` is outcome ``bits[k]`` of row
    ``nodes[k]``, of probability ``p[k]``, with the renormalized residual
    ``children[k]``, in order of ``2 * node + bit``.

    With ``rows`` given, shot ``s`` sits at row ``rows[s]`` and takes
    outcome 1 when ``draws[s]`` is below that row's ``Pr[1]``.  A pruned
    outcome takes no shot and its sibling takes them all; only children
    that some shot takes are kept, and the returned ``rows`` index them.
    """
    b = stack.shape[0]
    halves = stack.reshape(b, -1, 2, 1 << slot)  # axis 2 is bit ``slot``
    p = np.empty((2, b))  # row ``bit`` holds each stacked row's Pr[bit]
    probs = np.abs(halves)  # rows are unit vectors, so no square overflows
    np.square(probs, out=probs)
    # one sum per outcome adds up each row exactly as on a lone state
    np.add.reduce(probs[:, :, 0, :], axis=(1, 2), out=p[0])
    np.add.reduce(probs[:, :, 1, :], axis=(1, 2), out=p[1])
    norms = p[0] + p[1]
    del probs
    check_unit_norms(stack, norms)
    p[p < PRUNE_EPS] = 0.0
    if rows is None:
        kept = p.T > 0.0
    else:
        # a pruned Pr[1] is 0 and takes no draw; every draw is below 1.0
        child = rows * 2
        child += draws < np.where(p[0] > 0.0, p[1], 1.0)[rows]
        kept = np.bincount(child, minlength=2 * b).reshape(b, 2) > 0
        rows = np.cumsum(kept)[child]
        rows -= 1
    nodes, bits = kept.nonzero()
    p = p[bits, nodes]
    children = halves[nodes, :, bits, :].reshape(len(nodes), -1)  # a fresh array
    np.divide(children, np.sqrt(p)[:, None], out=children)
    return nodes, bits, p, children, rows


def measure_qubit(psi, n: int, qubit: int) -> tuple[MeasurementBranch, MeasurementBranch]:
    """Split a state on the outcome of measuring ``qubit``.

    Returns the ``(outcome 0, outcome 1)`` branch pair.  ``psi`` passes
    ``check_unit_state``.  Each probability is the sum of ``|psi|**2`` over
    its own half of the amplitudes, so the two sum to the squared norm of
    ``psi``, and each residual is a unit vector of length ``2**(n-1)`` to
    rounding.  The checked entry to the walker's split, on a stack of one.
    """
    psi, n = check_unit_state(psi, n)  # before the split squares any amplitude
    (qubit,) = check_wires(n, (qubit,))
    branches = [MeasurementBranch(0, 0.0, None), MeasurementBranch(1, 0.0, None)]
    _, bits, p, children, _ = _split(psi[None], qubit)
    for bit, prob, residual in zip(bits.tolist(), p.tolist(), children):
        branches[bit] = MeasurementBranch(bit, prob, residual)
    return branches[0], branches[1]


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


def _walk(steps, stack, draws=None) -> tuple:
    """Walk the outcome tree of ``steps`` breadth-first from ``stack``.

    The walk holds one ``(B, 2**n_live)`` stack with a row per live outcome
    prefix, starting from ``stack``, the start state as a stack of one,
    which the walk takes over (pass it as a temporary, so that it is freed
    at the first split).  Each gate plan runs once on the whole stack, in
    place.  Each MEASURE splits every row at once (:func:`_split`) into the
    next stack, whose rows stay in sorted outcome order.

    Returns ``(outcomes, probs, stack, rows)``: leaf ``k`` has the outcome
    record ``outcomes[k]``, probability ``probs[k]`` and state ``stack[k]``.

    With ``draws`` None every non-pruned branch is followed and ``rows`` is
    None.  Otherwise shot ``s`` takes outcome 1 at the ``d``-th MEASURE
    when ``draws[s, d]`` is below its probability, a child that no shot
    takes is dropped, and ``rows[s]`` is the leaf that shot ``s`` reached.
    """
    outcomes = np.zeros((1, 0), dtype=np.intp)
    probs = np.ones(1)
    rows = None if draws is None else np.zeros(len(draws), dtype=np.intp)
    for plan, slot in steps:
        if plan is not None:
            _run_plan(plan, stack)
            continue
        d = outcomes.shape[1]
        column = None if draws is None else draws[:, d]
        nodes, bits, p, stack, rows = _split(stack, slot, rows, column)
        outcomes = np.concatenate((outcomes[nodes], bits[:, None]), axis=1)
        probs = probs[nodes] * p
    return outcomes, probs, stack, rows


def run_with_branches(circuit: Circuit, psi0=None) -> BranchTree:
    """Follow every measurement outcome of ``circuit`` exhaustively.

    Leaves come in sorted outcome order.  A circuit without measurements
    goes to :func:`~qwsim.engine.run_circuit` and yields a single leaf of
    probability 1 holding its result.
    """
    if not isinstance(circuit, Circuit):
        raise ContractError(f"expected a Circuit, got {type(circuit).__name__}")
    if all(op.gate != MEASURE for op in circuit.ops):
        leaf = BranchLeaf((), 1.0, run_circuit(circuit, psi0))
        return BranchTree(circuit.n, (), {w: w for w in range(circuit.n)}, (leaf,))
    steps, measured, wire_map = compile_circuit(circuit.n, circuit.ops, psi0)
    if psi0 is not None:
        psi0 = check_unit_state(psi0, circuit.n)[0]
    outcomes, probs, states, _ = _walk(steps, _start(circuit.n, psi0))
    leaves = tuple(
        BranchLeaf(tuple(record), prob, state)
        for record, prob, state in zip(outcomes.tolist(), probs.tolist(), states)
    )
    return BranchTree(circuit.n, measured, wire_map, leaves)


def sample_shots(circuit: Circuit, shots: int, seed, psi0=None) -> dict[str, int]:
    """Sample measurement records of ``circuit``, ``shots`` times.

    Returns a histogram mapping outcome strings (one character per MEASURE
    op, in circuit order) to counts, in sorted key order.  A single
    ``numpy`` generator seeded with ``seed`` drives every outcome: shot
    ``s`` takes outcome 1 at its ``d``-th MEASURE when its ``d``-th uniform
    draw, made shot by shot, is below that outcome's probability.  The
    shots of a chunk are walked together, so each distinct outcome prefix
    is one stacked row per chunk, not one simulation per shot.  ``psi0``,
    like in :func:`run_with_branches`, must be normalized; it is checked
    once, before the seed, and each chunk starts from a copy of it.
    """
    shots = check_int(shots, "shots", 1)
    if not isinstance(circuit, Circuit):
        raise ContractError(f"expected a Circuit, got {type(circuit).__name__}")
    ends = [k + 1 for k, op in enumerate(circuit.ops) if op.gate == MEASURE]
    if not ends:
        raise ContractError("circuit has no MEASURE ops to sample")
    # Gates after the last MEASURE cannot change a record, so none is placed.
    steps, measured, _ = compile_circuit(circuit.n, circuit.ops[: ends[-1]], psi0)
    if psi0 is not None:  # once, before the seed, not per chunk
        psi0 = check_unit_state(psi0, circuit.n)[0]
    rng = make_rng(seed)

    histogram: dict[str, int] = {}
    for first in range(0, shots, _SHOT_CHUNK):
        chunk = min(_SHOT_CHUNK, shots - first)
        # rows of one table read the generator exactly as shot-by-shot draws would
        draws = rng.random((chunk, len(measured)))
        # a fresh start, freed at the walk's first split; the leaf stack is
        # not kept, so nothing of one chunk's states lives into the next
        outcomes, rows = _walk(steps, _start(circuit.n, psi0), draws)[::3]
        counts = np.bincount(rows, minlength=len(outcomes))
        for record, count in zip(outcomes.tolist(), counts.tolist()):
            key = "".join(map(str, record))
            histogram[key] = histogram.get(key, 0) + count
    return dict(sorted(histogram.items()))
