"""Naive full-matrix reference simulation.

Everything here is deliberately direct and slow: gates become explicit
``2**n x 2**n`` matrices built column by column from the basis-state
mapping, circuits are simulated by dense matrix-vector products, and the
partial trace follows its textbook definition with explicit permutation
and embedding matrices, built one index at a time with the bit-scatter
helper :func:`rearrange_bits`.  :func:`swap_wires` exchanges two wires
by walking every amplitude index.  None of the fast kernels are used, so
agreement between this module and the engine checks both against each
other.  Shot sampling defers every MEASURE to the end (Nielsen & Chuang,
section 4.4), which is exact because ``Circuit`` refuses any op on a
measured wire: :func:`sample_shots_deferred` draws from the marginals of
:func:`measured_distribution`, taken from :func:`simulate_naive`, and
shares nothing with the walker (``engine._walk``) but ``PRUNE_EPS``.
The Hermitian eigensolver :func:`jacobi_eig` is the reference for the
spectra of the density gate in ``analysis`` (LAPACK): cyclic Jacobi
rotations written out in Python loops.

Capped at ``NAIVE_QUBIT_GUARD`` qubits; a dense operator on more would be
pointlessly large for a reference path.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .gates import MEASURE, GateDef, gate_def
from .analysis import _split_kept
from .circuit import Circuit, check_circuit, check_targets, swap_bits
from .linalg import (
    _check_table,
    _hermitian_part,
    check_int,
    check_matrix,
    check_qubit_count,
    check_state,
    check_unit_state,
    make_rng,
    zero_state,
)
from .measurement import PRUNE_EPS

NAIVE_QUBIT_GUARD = 12

_JACOBI_MAX_SWEEPS = 100


def _check_guard(n: int) -> int:
    n = check_qubit_count(n)
    _check_table(n, NAIVE_QUBIT_GUARD, "naive path refuses {k} qubits: its 4**{k} matrix", "guard")
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
    targets, spec = check_targets(n, targets, controls)
    targets = sorted(targets)
    if len(targets) != g.arity:
        raise ContractError(
            f"gate {g.name} acts on {g.arity} wires, got {len(targets)} targets"
        )

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
    n = _check_guard(check_circuit(circuit).n)
    psi = zero_state(n) if psi0 is None else check_unit_state(psi0, n)[0].copy()
    for op in circuit.ops:
        if op.gate == MEASURE:
            raise ContractError("naive simulation does not handle measurements")
        layer = build_gate_full_matrix(n, op.gate, op.targets, op.controls)
        psi = layer @ psi
    return psi


def swap_wires(n: int, wire_i: int, wire_j: int, psi, controls=None) -> np.ndarray:
    """Exchange two wires of ``psi`` one amplitude index at a time.

    Every index ``k`` that passes the controls trades amplitudes with its
    partner ``swap_bits(k, wire_i, wire_j)`` when the partner is larger, so
    each pair moves exactly once.  The reference for SWAP in the engine.
    """
    n = _check_guard(n)
    (wire_i, wire_j), spec = check_targets(n, (wire_i, wire_j), controls)
    out = check_state(psi, n)[0].copy()
    for k in range(1 << n):
        if spec.passes(k):
            k2 = swap_bits(k, wire_i, wire_j)
            if k2 > k:
                out[k], out[k2] = out[k2], out[k]
    return out


def measured_distribution(circuit, psi0=None) -> np.ndarray:
    """Joint distribution of the outcomes of the MEASURE ops of ``circuit``.

    Axis ``d`` is the ``d``-th MEASURE in circuit order.  The MEASURE-free
    circuit runs through :func:`simulate_naive`, and each basis index adds
    its ``|psi|**2`` at its bits on the measured wires.
    """
    circuit = check_circuit(circuit)
    measured = [op.targets[0] for op in circuit.ops if op.gate == MEASURE]
    gates = Circuit(circuit.n, tuple(op for op in circuit.ops if op.gate != MEASURE))
    probs = np.abs(simulate_naive(gates, psi0)) ** 2
    joint = np.zeros((2,) * len(measured))
    for k, p in enumerate(probs):
        joint[tuple((k >> w) & 1 for w in measured)] += p
    return joint


def sample_shots_deferred(circuit, shots: int, seed, psi0=None) -> dict[str, int]:
    """Sample measurement records from :func:`measured_distribution`.

    Shot by shot, the ``d``-th outcome is drawn from its probability given
    the earlier outcomes, read off the joint marginals, with an outcome
    below ``PRUNE_EPS`` zeroed: one ``rng.random()`` per MEASURE, outcome
    1 when it is below ``Pr[1]`` or when ``Pr[0]`` is pruned.  The
    reference for ``measurement.sample_shots``, whose histogram must equal
    this one for every seed.
    """
    count = check_int(shots, "shots", 1)
    if not check_circuit(circuit).has_measurements:
        raise ContractError("circuit has no MEASURE ops to sample")
    joint = measured_distribution(circuit, psi0)
    # marginals[d][prefix] holds Pr[prefix, 0] and Pr[prefix, 1]
    marginals = [joint.sum(axis=tuple(range(d + 1, joint.ndim))) for d in range(joint.ndim)]
    rng = make_rng(seed)
    histogram: dict[str, int] = {}
    for _ in range(count):
        record: list[int] = []
        for marginal in marginals:
            pair = marginal[tuple(record)]
            pr = pair / pair.sum()
            pr[pr < PRUNE_EPS] = 0.0
            # the draw comes first: a pruned Pr[0] still uses up its number
            record.append(int(rng.random() < pr[1] or pr[0] == 0.0))
        key = "".join(map(str, record))
        histogram[key] = histogram.get(key, 0) + 1
    return dict(sorted(histogram.items()))


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
    traced, kept = _split_kept(n, qubits_to_trace_out, keep=False)
    rho = check_matrix(rho, 1 << n)

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


def jacobi_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary
    ``v`` whose columns are the matching eigenvectors (``a @ v = v @ diag(w)``),
    behind ``linalg.check_matrix`` and the one Hermitian test.

    Each sweep visits every off-diagonal pair ``(p, q)`` and applies a
    complex plane rotation chosen to zero ``a[p, q]``: with
    ``a[p, q] = r * exp(i*phi)`` the rotation angle is
    ``theta = atan2(2r, a[q,q] - a[p,p]) / 2`` and the rotation matrix acts
    on rows/columns ``p`` and ``q`` only.  Off-diagonal mass is strictly
    non-increasing, so the loop terminates; a hundred sweeps is far beyond
    what any matrix in this package needs (4x4 typically converges in ~6).
    """
    # symmetrized, so the iteration preserves Hermiticity exactly
    work = _hermitian_part(check_matrix(a))
    n = work.shape[0]
    vecs = np.eye(n, dtype=complex)
    if n == 1:
        return work.real.diagonal().copy(), vecs

    scale = max(float(np.max(np.abs(work))), 1.0)
    stop = 1e-14 * scale
    skip = 1e-18 * scale

    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.abs(work - np.diag(work.diagonal()))
        if float(off.max()) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phi = np.angle(apq)
                theta = 0.5 * np.arctan2(2.0 * r, (work[q, q] - work[p, p]).real)
                c = np.cos(theta)
                s = np.sin(theta)
                e = np.exp(1j * phi)
                # work <- R^H work R, applied as a column update then a row
                # update; R differs from identity only in the (p, q) plane:
                # R[p,p]=c, R[p,q]=s*e, R[q,p]=-s*conj(e), R[q,q]=c.
                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                work[:, p] = c * col_p - s * np.conj(e) * col_q
                work[:, q] = s * e * col_p + c * col_q
                row_p = work[p, :].copy()
                row_q = work[q, :].copy()
                work[p, :] = c * row_p - s * e * row_q
                work[q, :] = s * np.conj(e) * row_p + c * row_q
                col_p = vecs[:, p].copy()
                col_q = vecs[:, q].copy()
                vecs[:, p] = c * col_p - s * np.conj(e) * col_q
                vecs[:, q] = s * e * col_p + c * col_q
    else:
        off = np.abs(work - np.diag(work.diagonal()))
        if float(off.max()) > stop:
            raise ContractError("Jacobi eigensolver did not converge")

    w = work.diagonal().real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], vecs[:, order]
