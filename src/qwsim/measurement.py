"""Projective measurement: branch trees and seeded shot sampling.

Measuring wire ``q`` of an ``n``-qubit state splits it into (up to) two
residual states, one per outcome ``b``: keep the amplitudes whose bit ``q``
equals ``b``, delete that bit from the index, and renormalize by
``sqrt(Pr[b])``.  Residuals therefore live on ``n - 1`` qubits; wires above
``q`` shift down by one.  Branches with probability below ``PRUNE_EPS``
carry no residual (there is nothing meaningful to renormalize).

Which wire sits where after each measurement does not depend on outcomes,
so ``engine.compile_circuit`` checks a circuit once and lowers its gates
to kernel plans over the live wires.  One depth-first walker then serves
both consumers: it runs the plans in place until the next MEASURE,
splits the state there, and goes on into each child with that child's
own fresh residual, outcome 0 first.

* :func:`run_with_branches` follows *every* non-pruned outcome, producing a
  tree whose leaves carry the outcome history, its probability, and the
  final residual state, in sorted outcome order.  Exact, deterministic,
  exponential in the number of measurements.
* :func:`sample_shots` draws every shot's outcomes from one seeded
  generator and sends the shots that reached an outcome prefix down the
  branches they drew.  Each distinct prefix is simulated once however many
  shots share it, so the cost is distinct prefixes x circuit, not
  shots x circuit.  Statistical.

Besides the state being walked, the walk holds at most one pending sibling
residual per level.  Residuals halve at each level, so these add up to
less than one more state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .analysis import _probability_of_one
from .circuit import Circuit
from .engine import _run_plan, compile_circuit
from .linalg import check_int, check_state, check_wires, initial_state, make_rng

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


def measure_qubit(psi, n: int, qubit: int) -> tuple[MeasurementBranch, MeasurementBranch]:
    """Split a state on the outcome of measuring ``qubit``.

    Returns the ``(outcome 0, outcome 1)`` branch pair.  Probabilities
    always sum to 1 (up to the pruning threshold); residuals are unit
    vectors of length ``2**(n-1)``.
    """
    psi, n = check_state(psi, n)
    (qubit,) = check_wires(n, (qubit,))
    p1 = _probability_of_one(psi, qubit)
    p0 = max(0.0, 1.0 - p1)

    halves = psi.reshape(-1, 2, 1 << qubit)  # axis 1 is bit ``qubit``

    def branch(bit: int, p: float) -> MeasurementBranch:
        if p < PRUNE_EPS:
            return MeasurementBranch(bit, 0.0, None)
        residual = (halves[:, bit, :] / np.sqrt(p)).reshape(-1)
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


def _walk(steps, state, draws, shots, visit) -> None:
    """Walk the outcome tree of ``steps`` depth-first from ``state``.

    Gate plans run in place until the next MEASURE, where
    :func:`measure_qubit` splits the state; each child goes on with its own
    fresh residual, outcome 0 first, so leaves come in sorted outcome
    order.  ``visit(outcomes, probability, state, shots)`` is called at
    every leaf.

    With ``draws`` None every non-pruned branch is followed.  Otherwise
    ``shots`` holds the indices of the shots that reached this prefix: at
    the ``d``-th MEASURE shot ``s`` takes outcome 1 when ``draws[s, d]`` is
    below its probability, and a child that no shot takes is skipped.  A
    pruned branch takes no shot; its sibling takes them all.

    Pending children wait on an explicit stack rather than in recursive
    frames, so a split state is released once its first child is taken up.
    """
    stack = [(0, state, (), 1.0, shots)]
    while stack:
        start, state, outcomes, prob, shots = stack.pop()
        for k in range(start, len(steps)):
            n_live, plan, slot = steps[k]
            if plan is not None:
                _run_plan(plan, state)
                continue
            b0, b1 = measure_qubit(state, n_live, slot)
            split = (shots, shots)
            if draws is not None and b0.residual is not None and b1.residual is not None:
                ones = draws[shots, len(outcomes)] < b1.probability
                split = (shots[~ones], shots[ones])
            for br, sub in ((b1, split[1]), (b0, split[0])):  # outcome 0 pops first
                if br.residual is not None and (sub is None or sub.size):
                    stack.append(
                        (k + 1, br.residual, outcomes + (br.outcome,), prob * br.probability, sub)
                    )
            break
        else:
            visit(outcomes, prob, state, shots)


def run_with_branches(circuit: Circuit, psi0=None) -> BranchTree:
    """Follow every measurement outcome of ``circuit`` exhaustively.

    Leaves come in sorted outcome order.  A circuit without measurements
    yields a single leaf of probability 1 whose state equals the plain
    simulation result.
    """
    steps, measured, wire_map = compile_circuit(circuit)
    leaves: list[BranchLeaf] = []
    _walk(
        steps,
        initial_state(circuit.n, psi0),
        None,
        None,
        lambda outcomes, prob, state, _: leaves.append(BranchLeaf(outcomes, prob, state)),
    )
    return BranchTree(circuit.n, measured, wire_map, tuple(leaves))


def _shot_count(shots) -> int:
    """``shots`` as a positive int; a bool, float or string is refused."""
    count = check_int(shots, "shots")
    if count < 1:
        raise ContractError(f"shots must be at least 1, got {count}")
    return count


def sample_shots(circuit: Circuit, shots: int, seed, psi0=None) -> dict[str, int]:
    """Sample measurement records of ``circuit``, ``shots`` times.

    Returns a histogram mapping outcome strings (one character per MEASURE
    op, in circuit order) to counts, in sorted key order.  A single
    ``numpy`` generator seeded with ``seed`` drives every outcome: shot
    ``s`` takes outcome 1 at its ``d``-th MEASURE when its ``d``-th uniform
    draw, made shot by shot, is below that outcome's probability.  The
    shots of a chunk are walked together, so each distinct outcome prefix
    is simulated once per chunk, not once per shot.  ``psi0``, like in
    :func:`run_with_branches`, must be normalized.
    """
    shots = _shot_count(shots)
    if not circuit.has_measurements:
        raise ContractError("circuit has no MEASURE ops to sample")
    base = initial_state(circuit.n, psi0)
    rng = make_rng(seed)
    steps, measured, _ = compile_circuit(circuit)
    last = max(k for k, (_, plan, _) in enumerate(steps) if plan is None)
    del steps[last + 1:]  # gates after the last MEASURE cannot change a record

    histogram: dict[str, int] = {}

    def count(outcomes, _prob, _state, reached) -> None:
        key = "".join(map(str, outcomes))
        histogram[key] = histogram.get(key, 0) + reached.size

    for first in range(0, shots, _SHOT_CHUNK):
        chunk = min(_SHOT_CHUNK, shots - first)
        # rows of one table read the generator exactly as shot-by-shot draws would
        draws = rng.random((chunk, len(measured)))
        _walk(steps, base.copy(), draws, np.arange(chunk), count)
    return dict(sorted(histogram.items()))
