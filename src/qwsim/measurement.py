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
so one lowering, ``engine._lower``, places each gate's kernel plan once
and checks a start state once, for both consumers as for ``run_circuit``,
into one ``engine.Lowered`` record that each reads by field name.
The one breadth-first walker, ``engine._walk``, then serves them all.
It holds every live outcome prefix as one row of a ``(B, W)`` stack of
residuals: each gate plan runs once on the whole stack, and each MEASURE
splits every row at once into a stack of children ordered by ``2 * row +
outcome``, so rows stay in sorted outcome order.  A split is a fixed
handful of numpy calls whatever the rows: ``|stack|**2``, one sum per
outcome into one ``(2, B)`` table, the norm test, one batched division.
A walk whose last step is a gate tests the norm of each leaf row.  This
module holds the checked entry points and the results' types.

The layout rule is ``engine``'s: a run from |00...0> grows its register
in first-move order unless it moves every wire with ``2**n`` past ``2 *
engine._SLICE``, and a ``psi0`` run starts in wire order.
:func:`run_with_branches` scatters a grown walk's leaves once into wire
order over the unmeasured wires, measured or not, each slot at the bit
that the lowering's ``bits`` give it, and builds ``BranchTree.wire_map``
from its ``kept`` wires; :func:`sample_shots` and ``qwsim simulate``
read only the rows.  A grown split sums each
outcome over the live register alone, so a leaf may differ from a
``psi0`` run's in the last bit.

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
never holds more amplitudes than one state; a grown row holds at most
the wires not yet measured.  A split holds the stack and then either its
``|stack|**2`` (half a state, in float64) or the next stack, never both,
so a level peaks near two states plus the gate kernel's temporaries,
which are at most one slice each (see ``engine``), unless the gate names
every live wire.  A split into wider rows also holds its residuals until
they are written into those rows.  The sampler's last split builds no
next stack, since only its shots' rows are read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .circuit import Circuit, check_circuit
# PRUNE_EPS is the split's; ``oracle`` and callers read it here
from .engine import PRUNE_EPS, _lower, _scatter, _split, _walk
from .gates import MEASURE
from .linalg import check_int, check_unit_state, check_wires, make_rng

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

    Returns the ``(outcome 0, outcome 1)`` branch pair.  ``psi`` passes
    ``check_unit_state``.  Each probability is the sum of ``|psi|**2`` over
    its own half of the amplitudes, so the two sum to the squared norm of
    ``psi`` to within ``PRUNE_EPS``: an outcome below it is pruned, and
    reads probability 0.0 and residual None.  Each kept residual is a unit
    vector of length ``2**(n-1)`` to rounding.  The checked entry to the
    walker's split, on a stack of one.
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


def run_with_branches(circuit: Circuit, psi0=None) -> BranchTree:
    """Follow every measurement outcome of ``circuit`` exhaustively.

    Leaves come in sorted outcome order, and a leaf that a gate after the
    last MEASURE wrote passes the norm test.  A leaf's state holds the
    unmeasured wires in wire order, scattered once from the walk's rows
    when the walk grew its register.  A circuit without measurements
    yields a single leaf of probability 1, equal to the result of
    :func:`~qwsim.engine.run_circuit`.
    """
    circuit = check_circuit(circuit)
    low = _lower(circuit, circuit.ops, psi0)
    outcomes, probs, states, _ = _walk(low)
    states = _scatter(states, low.bits, len(low.kept))
    leaves = tuple(
        BranchLeaf(tuple(record), prob, state)
        for record, prob, state in zip(outcomes.tolist(), probs.tolist(), states)
    )
    leaf_bits = dict.fromkeys(range(circuit.n)) | {w: r for r, w in enumerate(low.kept)}
    return BranchTree(circuit.n, low.measured, leaf_bits, leaves)


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
    circuit = check_circuit(circuit)
    ends = [k + 1 for k, op in enumerate(circuit.ops) if op.gate == MEASURE]
    if not ends:
        raise ContractError("circuit has no MEASURE ops to sample")
    # Gates after the last MEASURE cannot change a record, so none is placed.
    low = _lower(circuit, circuit.ops[: ends[-1]], psi0)
    rng = make_rng(seed)  # after psi0 is checked, once for every chunk

    histogram: dict[str, int] = {}
    for first in range(0, shots, _SHOT_CHUNK):
        chunk = min(_SHOT_CHUNK, shots - first)
        # rows of one table read the generator exactly as shot-by-shot draws would
        draws = rng.random((chunk, len(low.measured)))
        # each walk builds its own start and frees it at its first split; the
        # leaf stack is not kept, so nothing of one chunk lives into the next
        outcomes, rows = _walk(low, draws)[::3]
        counts = np.bincount(rows, minlength=len(outcomes))
        for record, count in zip(outcomes.tolist(), counts.tolist()):
            key = "".join(map(str, record))
            histogram[key] = histogram.get(key, 0) + count
    return dict(sorted(histogram.items()))
