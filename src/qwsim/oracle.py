"""Naive full-matrix reference simulation.

Everything here is deliberately direct and slow: gates become explicit
``2**n x 2**n`` matrices built column by column from the basis-state
mapping, circuits are simulated by dense matrix-vector products, and the
partial trace follows its textbook definition with explicit permutation
and embedding matrices, built one index at a time with the bit-scatter
helper :func:`rearrange_bits`.  None of the fast kernels are used, so
agreement between this module and the engine checks both against each
other.

Capped at ``NAIVE_QUBIT_GUARD`` qubits; a dense operator on more would be
pointlessly large for a reference path.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, ResourceError
from .gates import MEASURE, GateDef, gate_def
from .engine import ControlSpec, coerce_controls

NAIVE_QUBIT_GUARD = 12


def _check_guard(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ContractError(f"qubit count must be at least 1, got {n}")
    if n > NAIVE_QUBIT_GUARD:
        raise ResourceError(
            f"naive path refuses {n} qubits (guard is {NAIVE_QUBIT_GUARD})"
        )
    return n


def build_gate_full_matrix(n: int, gate, targets, controls=None) -> np.ndarray:
    """Dense ``2**n x 2**n`` matrix for a (controlled) gate on ``targets``.

    ``gate`` is a catalog name or a ``GateDef``.  Column ``c`` of the
    result is the image of basis state ``|c>``: if ``c`` fails the control
    masks the column is ``|c>`` itself, otherwise the target bits of ``c``
    are routed through the gate matrix and every output pattern
    contributes its amplitude at the corresponding basis index.  Bit ``k``
    of a gate-matrix index addresses the ``k``-th smallest target wire,
    matching the kernel convention.
    """
    n = _check_guard(n)
    g: GateDef = gate if isinstance(gate, GateDef) else gate_def(gate)
    spec: ControlSpec = coerce_controls(controls)
    targets = sorted(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ContractError(f"duplicate target wires in {targets}")
    if len(targets) != g.arity:
        raise ContractError(
            f"gate {g.name} acts on {g.arity} wires, got {len(targets)} targets"
        )
    for t in targets:
        if not 0 <= t < n:
            raise ContractError(f"target wire {t} out of range for {n} qubits")
    for w in spec.wires:
        if not 0 <= w < n:
            raise ContractError(f"control wire {w} out of range for {n} qubits")
        if w in targets:
            raise ContractError(f"wire {w} is both a control and a target")

    dim = 1 << n
    u = g.matrix
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if (col & spec.inclusion_mask) != spec.desired_value_mask:
            out[col, col] = 1.0
            continue
        vin = 0
        for k, t in enumerate(targets):
            vin |= ((col >> t) & 1) << k
        for vout in range(1 << g.arity):
            amp = u[vout, vin]
            if amp == 0:
                continue
            row = col
            for k, t in enumerate(targets):
                bit = (vout >> k) & 1
                row = (row & ~(1 << t)) | (bit << t)
            out[row, col] += amp
    return out


def simulate_naive(circuit, psi0=None) -> np.ndarray:
    """Dense reference run: one full operator matrix per gate."""
    n = _check_guard(circuit.n)
    if psi0 is None:
        psi = np.zeros(1 << n, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.array(psi0, dtype=complex)
        if psi.shape != (1 << n,):
            raise DimensionError(
                f"state must have length {1 << n}, got shape {psi.shape}"
            )
    for op in circuit.ops:
        if op.gate == MEASURE:
            raise ContractError("naive simulation does not handle measurements")
        layer = build_gate_full_matrix(n, op.gate, op.targets, op.controls)
        psi = layer @ psi
    return psi


def rearrange_bits(i: int, positions) -> int:
    """Scatter the low bits of ``i`` to new positions.

    Bit ``k`` of ``i`` moves to bit ``positions[k]`` of the result; a
    negative entry drops that bit.  Bits of ``i`` beyond ``len(positions)``
    are dropped as well.  E.g. ``rearrange_bits(0b01, [1, 0]) == 0b10``.
    """
    out = 0
    for k, pos in enumerate(positions):
        if pos < 0:
            continue
        out |= ((i >> k) & 1) << int(pos)
    return out


def _permutation_matrix(n: int, new_pos: dict[int, int]) -> np.ndarray:
    """Permutation sending bit ``q`` of an index to position ``new_pos[q]``."""
    dim = 1 << n
    positions = [new_pos[q] for q in range(n)]
    p = np.zeros((dim, dim), dtype=complex)
    for old in range(dim):
        p[rearrange_bits(old, positions), old] = 1.0
    return p


def partial_trace_by_definition(rho, n: int, qubits_to_trace_out) -> np.ndarray:
    """Textbook partial trace: sum over an explicit basis of the traced part.

    The traced qubits are first permuted to the low bit positions with an
    explicit permutation matrix ``P`` (so the state factorizes as
    kept (x) traced in index order), then

        Tr_B(rho) = sum_t (I_A (x) <t|) P rho P^H (I_A (x) |t>)

    Kept qubits keep their relative order: bit ``k`` of the result indexes
    the ``k``-th smallest kept qubit.
    """
    n = _check_guard(n)
    traced = [int(q) for q in qubits_to_trace_out]
    if sorted(set(traced)) != traced:
        raise ContractError("qubit list must be strictly ascending, no duplicates")
    for q in traced:
        if not 0 <= q < n:
            raise ContractError(f"qubit {q} out of range for {n} qubits")
    rho = np.asarray(rho, dtype=complex)
    dim = 1 << n
    if rho.shape != (dim, dim):
        raise DimensionError(f"density matrix must be {dim}x{dim}, got {rho.shape}")

    kept = [q for q in range(n) if q not in set(traced)]
    t_count = len(traced)
    new_pos = {q: i for i, q in enumerate(traced)}
    new_pos.update({q: t_count + i for i, q in enumerate(kept)})
    perm = _permutation_matrix(n, new_pos)
    rho_p = perm @ rho @ perm.conj().T

    dim_keep = 1 << len(kept)
    dim_traced = 1 << t_count
    eye_keep = np.eye(dim_keep, dtype=complex)
    acc = np.zeros((dim_keep, dim_keep), dtype=complex)
    for t in range(dim_traced):
        bra = np.zeros((1, dim_traced), dtype=complex)
        bra[0, t] = 1.0
        embed = np.kron(eye_keep, bra)  # kept bits are high after the permutation
        acc += embed @ rho_p @ embed.conj().T
    return acc
