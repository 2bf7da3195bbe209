"""Reduced density matrices and single-/two-qubit statistics.

The partial traces avoid the textbook construction (permutation and
embedding matrices, kept in ``oracle`` as the reference) and loop over
nothing in Python.  An ``n``-qubit amplitude index is read as a
``(2,)*n`` tensor whose axis ``a`` is wire ``n-1-a``, so regrouping wires
is a transpose and a reshape.  For a pure state the kept axes go to the
front and the state becomes a ``2**K x 2**T`` matrix ``M`` (``K`` kept,
``T`` traced qubits); the reduced matrix is ``M @ M^H``, one BLAS call,
and the full density matrix is never formed.  For a density matrix an
``einsum`` sums the diagonal of each traced wire's row/column axis pair
on a ``(2,)*2n`` view of the input, O(2**T * 4**K) work and no copy.

Every density-matrix statistic passes one gate, the checks of
``_density_gate``, which hands on the spectrum it solved for:
purity, entropy and the per-qubit and pair statistics refuse the same
matrices, and :func:`pair_stats` solves for the spectrum of ``rho`` once.
The gate takes one matrix or a ``(k, d, d)`` stack of them, with one
eigensolve for the whole stack: a 2x2 whose eigenvectors are not needed
is solved in closed form, and anything larger by one LAPACK call.

:func:`all_qubit_stats` reports every wire of a pure state in one sweep:
each wire's 2x2 reduced matrix is read off strided views of the state,
with no transpose and no ``M @ M^H``, and the ``(n, 2, 2)`` stack passes
the gate once.  Its fields come from ``_qubit_rows``, one ``(n, 9)``
float array in :class:`QubitStats` field order, which ``qwsim stats``
prints from directly.
:func:`qubit_stats` is the same computation on a stack of one.

A pure state passes ``linalg.check_unit_state`` before any work, once,
at the public entry it comes in by.
:func:`probability_of_one` sums ``|psi|**2`` over the half where the bit
is 1, as ``measure_qubit`` sums each outcome over its own half.

The stabilizer Renyi entropy is computed from all ``4**n`` Pauli
expectations at once with a Walsh-Hadamard transform; see
:func:`stabilizer_renyi_entropy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResourceError
from .gates import gate_matrix
from .linalg import (
    EIGEN_ATOL,
    MAX_QUBITS,
    STATE_ATOL,
    _hermitian_part,
    _state_size,
    check_bool,
    check_matrix,
    check_qubit_count,
    check_state,
    check_unit_norms,
    check_unit_state,
    check_wires,
)

# Bloch vectors shorter than this are treated as the maximally mixed point,
# where polar/azimuthal angles are reported as 0 by convention; the
# azimuth is also 0 when only the vector's x-y part is this short.
BLOCH_DEGENERATE_EPS = 1e-12

STABILIZER_ENTROPY_MAX_QUBITS = 10


def _split_kept(n: int, qubits, keep: bool) -> tuple[list[int], list[int]]:
    keep = check_bool(keep, "keep")
    qs = list(check_wires(n, qubits))
    if sorted(qs) != qs:
        raise ContractError(f"qubit list {qs} must be strictly ascending")
    rest = [q for q in range(n) if q not in qs]
    return (rest, qs) if keep else (qs, rest)


def partial_trace_matrix(n: int, rho, qubits, *, keep: bool = False) -> np.ndarray:
    """Trace qubits out of a density matrix.

    ``qubits`` lists the wires to trace out, or, with ``keep=True``, the
    wires to keep (the complement is traced).  The list must be strictly
    ascending.  Bit ``k`` of the reduced index addresses the ``k``-th
    smallest kept qubit.

    ``rho`` is viewed, without a copy, as a ``(2,)*2n`` tensor: the first
    ``n`` axes index the row and the last ``n`` the column, axis ``a`` of
    each half holding wire ``n-1-a``.  One ``einsum`` gives each traced
    wire the same label on its row and its column axis, which sums that
    diagonal, and lists the kept axes highest wire first.  Nothing assumes
    Hermitian input, so the operation stays a plain linear map; but
    ``rho`` passes ``check_matrix``, so a NaN or inf entry is refused.
    """
    n = check_qubit_count(n)
    traced, kept = _split_kept(n, qubits, keep)
    rho = check_matrix(rho, 1 << n)
    if not traced:
        return rho.copy()  # einsum would hand back a view of the input

    # label each row axis by its wire and each column axis by wire + n,
    # except that a traced wire's column axis shares its row label
    rows = list(range(n - 1, -1, -1))
    cols = [w if w in traced else w + n for w in rows]
    out = kept[::-1] + [w + n for w in kept[::-1]]
    rd = 1 << len(kept)
    return np.einsum(rho.reshape((2,) * (2 * n)), rows + cols, out).reshape(rd, rd)


def partial_trace_state(n: int, psi, qubits, *, keep: bool = False) -> np.ndarray:
    """Reduced density matrix straight from a pure state.

    Same qubit-list conventions as :func:`partial_trace_matrix`, but the
    full ``2**n x 2**n`` density matrix is never materialized.  ``psi`` is
    viewed as a ``(2,)*n`` tensor (axis ``a`` holds wire ``n-1-a``), the
    kept axes are moved to the front, highest wire first, and the result
    is reshaped to ``M`` of shape ``2**K x 2**T`` for ``K`` kept and ``T``
    traced qubits.  Then ``rho[r, c] = sum_t M[r, t] conj(M[c, t])`` is the
    single product ``M @ M^H``: one reordered copy of ``psi`` and
    O(4**K * 2**T) work in BLAS.  ``psi`` passes ``check_unit_state``.
    The ``2**K x 2**K`` result is refused (``ResourceError``) before any
    copy when it would outgrow a state of ``MAX_QUBITS`` qubits.
    """
    psi, n = check_unit_state(psi, n)
    traced, kept = _split_kept(n, qubits, keep)
    if 2 * len(kept) > MAX_QUBITS:
        k, cap = len(kept), MAX_QUBITS // 2
        raise ResourceError(f"partial trace refuses {k} kept qubits: its 4**{k} matrix takes "
                            f"{_state_size(2 * k)} (cap {cap}, {_state_size(2 * cap)})")
    # highest kept wire first; the order of the traced axes is immaterial
    axes = [n - 1 - w for w in kept[::-1] + traced]
    m = psi.reshape((2,) * n).transpose(axes).reshape(1 << len(kept), -1)
    return m @ m.conj().T


def probability_of_one(psi, qubit: int) -> float:
    """Probability that measuring ``qubit`` yields 1: ``|psi|**2`` over that half."""
    psi, n = check_unit_state(psi, None)
    (qubit,) = check_wires(n, (qubit,))
    return float((np.abs(psi) ** 2).reshape(-1, 2, 1 << qubit)[:, 1, :].sum())


# ---------------------------------------------------------------------------
# density-matrix validation and statistics


def _density_gate(rho, qubits=None, *, vectors=False) -> tuple:
    """The one density-matrix check; returns ``(rho, w, v)`` from one solve.

    ``rho`` is one matrix or a ``(k, d, d)`` stack of them, already
    finite: a public matrix passes ``check_matrix`` first, and the stack of
    :func:`all_qubit_stats` is built from a checked unit state.  Each
    matrix must pass the Hermitian test, and have a power-of-two side
    (``2**qubits`` when ``qubits`` is given), unit trace and no eigenvalue
    below ``-EIGEN_ATOL`` (``ContractError``).  Returned are ``rho``, the
    ascending eigenvalues ``w`` of each matrix and, when ``vectors``, the
    matching eigenvectors ``v`` (else None).  A 2x2 without eigenvectors
    is solved in closed form: the Hermitian part ``[[a, b], [b*, d]]`` has
    eigenvalues ``(a + d -+ hypot(a - d, 2|b|)) / 2``.  Anything else is
    solved by one LAPACK call for the whole stack.
    """
    herm = _hermitian_part(rho)
    dim = rho.shape[-1]
    if dim & (dim - 1):
        raise ContractError(f"density matrix dimension {dim} is not a power of two")
    if qubits is not None and dim != 1 << qubits:
        raise ContractError(f"expected a {qubits}-qubit density matrix, got {rho.shape[-2:]}")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if not ((abs(trace.real - 1.0) <= STATE_ATOL) & (abs(trace.imag) <= STATE_ATOL)).all():
        raise ContractError("density matrix trace is not 1")
    if dim == 2 and not vectors:
        a, d = herm[..., 0, 0].real, herm[..., 1, 1].real
        s, h = a + d, np.hypot(a - d, 2.0 * abs(herm[..., 0, 1]))
        w, v = np.stack((s - h, s + h), axis=-1) / 2.0, None
    else:
        w, v = np.linalg.eigh(herm) if vectors else (np.linalg.eigvalsh(herm), None)
    if (w[..., 0] < -EIGEN_ATOL).any():
        raise ContractError("density matrix has a negative eigenvalue")
    return rho, w, v


def _trace_of_square(rho: np.ndarray):
    """``Tr(rho^2)`` of one matrix, or of each in a stack."""
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


def purity(rho) -> float:
    """``Tr(rho^2)`` as a real number; 1 for pure states, 1/2**k at minimum.

    ``rho`` must pass ``check_matrix`` and the rules of ``_density_gate``.
    """
    return float(_trace_of_square(_density_gate(check_matrix(rho))[0]))


def _entropy(w: np.ndarray) -> float:
    """``-sum(lam * log2(lam))`` over the spectrum ``w``, clamped to [0, 1]."""
    lams = np.clip(w, 0.0, 1.0)
    positive = lams[lams > 0.0]
    # 0.0 minus, not unary minus, so a pure state gives +0.0 and not -0.0
    return 0.0 - float(np.sum(positive * np.log2(positive)))


def von_neumann_entropy(rho) -> float:
    """Entropy ``-sum(lam * log2(lam))`` over the spectrum, in bits.

    ``rho`` must pass ``check_matrix`` and the rules of ``_density_gate``.
    Eigenvalues are clamped to [0, 1] before the logarithm so the tiny
    negative values a finite eigensolver produces for rank-deficient
    matrices do not turn into NaNs; ``0 * log(0)`` counts as 0.
    """
    return _entropy(_density_gate(check_matrix(rho))[1])


@dataclass(frozen=True)
class QubitStats:
    """Everything reported about one reduced qubit.

    ``(x, y, z)`` is the Bloch vector, ``r`` its length, ``theta``/``phi``
    the polar/azimuthal angles (both 0 at the degenerate center; ``phi``
    is 0 anywhere on the z-axis).
    """

    prob1: float
    x: float
    y: float
    z: float
    r: float
    theta: float
    phi: float
    purity: float
    linear_entropy: float


def _bloch_rows(rho: np.ndarray) -> np.ndarray:
    """The :class:`QubitStats` fields of each matrix in a gated ``(k, 2, 2)``
    stack, as a ``(k, 9)`` float array in field order.

    The Bloch components are read off the matrix entries: for
    ``rho = [[a, b+ic], [b-ic, 1-a]]`` they are ``x=2b, y=-2c, z=2a-1``,
    which equal ``Tr(rho P)`` for the Paulis ``P`` on any Hermitian
    unit-trace input; the tests hold them to the trace form.  Each field
    is computed over the whole stack into its own contiguous row of one
    ``(9, k)`` array, whose transpose is returned.  The angles are
    selected, not divided, where the vector is shorter than
    ``BLOCH_DEGENERATE_EPS``.
    """
    fields = np.empty((9, len(rho)))
    prob1, x, y, z, r, theta, phi, p, lin = fields
    prob1[:] = rho[:, 1, 1].real
    np.multiply(rho[:, 0, 1].real, 2.0, out=x)
    np.multiply(rho[:, 0, 1].imag, -2.0, out=y)
    np.subtract(2.0 * rho[:, 0, 0].real, 1.0, out=z)
    np.sqrt(x * x + y * y + z * z, out=r)
    theta[:] = 1.0
    np.divide(z, r, out=theta, where=r >= BLOCH_DEGENERATE_EPS)
    np.arccos(np.minimum(np.maximum(theta, -1.0, out=theta), 1.0, out=theta), out=theta)
    # on the z-axis x and y are roundoff, and so would be their arctan2;
    # on the negative x half-axis a y of -0.0 gives phi = -pi
    np.arctan2(y, x, out=phi)
    phi[np.hypot(x, y) < BLOCH_DEGENERATE_EPS] = 0.0
    p[:] = _trace_of_square(rho)
    np.subtract(1.0, p, out=lin)
    fields += 0.0  # turns -0.0 into +0.0 and moves no other value
    return fields.T


def qubit_stats(rho) -> QubitStats:
    """Bloch vector, angles, purity and linear entropy of a 1-qubit state.

    ``rho`` passes ``check_matrix``, then the gate and the statistics of
    :func:`all_qubit_stats` as a stack of one.
    """
    return QubitStats(*_bloch_rows(_density_gate(check_matrix(rho)[None], 1)[0])[0].tolist())


def _qubit_rows(psi, n) -> np.ndarray:
    """The rows of :func:`all_qubit_stats` as one ``(n, 9)`` float array,
    wire 0 first, each in :class:`QubitStats` field order, of a complex
    unit vector ``psi`` of ``2**n`` amplitudes that is already checked:
    ``all_qubit_stats`` checks it, and ``qwsim stats`` passes the walk's
    register, whose norm the walk has tested."""
    p, conj = np.abs(psi) ** 2, psi.conj()
    rho = np.empty((n, 2, 2), dtype=complex)
    for q in range(n):
        halves, probs = psi.reshape(-1, 2, 1 << q), p.reshape(-1, 2, 1 << q)
        rho[q, 0, 0] = np.add.reduce(probs[:, 0], None)
        rho[q, 1, 1] = np.add.reduce(probs[:, 1], None)
        # einsum sums in its own loops, where a BLAS vdot would split the
        # sum across threads and so make its bits follow the thread count
        rho[q, 0, 1] = np.einsum("ij,ij->", conj.reshape(-1, 2, 1 << q)[:, 1], halves[:, 0])
    rho[:, 1, 0] = rho[:, 0, 1].conj()
    return _bloch_rows(_density_gate(rho, 1)[0])


def all_qubit_stats(psi, n) -> list[QubitStats]:
    """:func:`qubit_stats` of every wire of a pure state, wire 0 first.

    With ``psi`` and ``p = |psi|**2`` viewed as ``(-1, 2, 2**q)``, axis 1
    is bit ``q``, as ``measure_qubit`` splits a measurement.  Wire ``q``'s
    ``rho[b, b]`` sums ``p`` over half ``b`` and ``rho[0, 1]`` is
    ``sum(psi_0 * conj(psi_1))`` over the two halves: the matrix of
    ``partial_trace_state(n, psi, [q], keep=True)`` without its transposed
    copy of ``psi``.  The ``(n, 2, 2)`` stack then passes the density gate
    once, in closed form.  ``psi`` passes ``check_unit_state``, which
    refuses a non-finite amplitude, so the stack needs no finiteness test.
    """
    psi, n = check_unit_state(psi, n)
    return [QubitStats(*row) for row in _qubit_rows(psi, n).tolist()]


def concurrence(rho) -> float:
    """Two-qubit entanglement monotone (0 separable, 1 maximally entangled).

    Uses the spin-flipped matrix ``rho~ = (Y(x)Y) conj(rho) (Y(x)Y)`` and
    the square roots of the eigenvalues of ``sqrt(rho) rho~ sqrt(rho)``
    (a Hermitian PSD product), sorted descending:
    ``C = max(0, l1 - l2 - l3 - l4)``.  ``rho`` must pass
    ``check_matrix`` and the rules of ``_density_gate``, and be 4x4.

    Eigenvalues of the triple product below the solver's noise floor are
    zeroed before the square root: ``sqrt`` turns O(1e-15) roundoff on an
    exactly singular product into O(1e-8) phantom contributions otherwise.
    """
    return _concurrence(*_density_gate(check_matrix(rho), 2, vectors=True))


# Y (x) Y, the spin flip of Wootters' concurrence
_YY = np.kron(gate_matrix("Y"), gate_matrix("Y"))
_YY.flags.writeable = False


def _concurrence(rho: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """:func:`concurrence` of a checked ``rho`` with eigenpairs ``(w, v)``."""
    flipped = _YY @ rho.conj() @ _YY
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    product = sqrt_rho @ flipped @ sqrt_rho
    # product is PSD up to roundoff but only approximately Hermitian in
    # floating point; LAPACK reads one triangle, so average both.
    product = (product + product.conj().T) / 2.0
    # ascending, so the square roots come out ascending too
    mus = [max(mu, 0.0) for mu in np.linalg.eigvalsh(product).tolist()]
    floor = 1e-13 * max(1.0, mus[-1])
    l4, l3, l2, l1 = (math.sqrt(mu) if mu >= floor else 0.0 for mu in mus)
    return max(0.0, l1 - l2 - l3 - l4)


@dataclass(frozen=True)
class PairStats:
    """Purity, linear entropy, concurrence and entropy of a 2-qubit state."""

    purity: float
    linear_entropy: float
    concurrence: float
    von_neumann_entropy: float


def pair_stats(rho) -> PairStats:
    """:class:`PairStats` of a 4x4 density matrix, from one eigensolve of ``rho``."""
    rho, w, v = _density_gate(check_matrix(rho), 2, vectors=True)
    p = float(_trace_of_square(rho))
    return PairStats(
        purity=p,
        linear_entropy=1.0 - p,
        concurrence=_concurrence(rho, w, v),
        von_neumann_entropy=_entropy(w),
    )


def stabilizer_renyi_entropy(psi, n: int) -> float:
    """Order-2 stabilizer Renyi entropy ("magic") of a pure state.

    ``M2 = -log2( sum_P |<psi|P|psi>|**4 / 2**n )`` over all ``4**n`` Pauli
    strings ``P``, as defined by Leone, Oliviero & Hamma, PRL 128, 050402
    (2022).  Zero (within tolerance) exactly for stabilizer states;
    positive otherwise.

    Up to a phase every string is ``X^x Z^z`` for bit masks ``x, z``, and

        <psi|X^x Z^z|psi> = sum_k conj(psi[k ^ x]) psi[k] (-1)**popcount(k & z),

    so for fixed ``x`` the expectations over all ``z`` are the
    Walsh-Hadamard transform (WHT) over ``k`` of
    ``v_x[k] = conj(psi[k ^ x]) psi[k]``.  All ``2**n`` rows are transformed
    together by ``n`` in-place butterfly passes, O(n * 4**n) work.  When
    ``x & z`` has odd parity the value is ``i`` times a real number, hence
    ``abs(.)**4`` rather than ``real**4``.

    Memory sets the cap ``STABILIZER_ENTROPY_MAX_QUBITS``: the transform
    holds ``4**n`` complex128 values, 16 MiB per buffer at n = 10, and
    building and reducing it takes a few temporaries of that order.
    """
    psi, n = check_state(psi, n)
    if n > STABILIZER_ENTROPY_MAX_QUBITS:
        cap = STABILIZER_ENTROPY_MAX_QUBITS
        raise ResourceError(
            f"stabilizer entropy refuses {n} qubits: its 4**{n} table takes "
            f"{_state_size(2 * n)} (cap {cap}, {_state_size(2 * cap)})"
        )
    check_unit_norms(psi, np.vdot(psi, psi).real)

    dim = 1 << n
    k = np.arange(dim)
    v = psi.conj()[np.bitwise_xor.outer(k, k)]
    v *= psi  # v[x, k] = v_x[k]
    for bit in range(n):
        pairs = v.reshape(dim, -1, 2, 1 << bit)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]  # k with ``bit`` clear / set
        diff = lo - hi
        lo += hi
        hi[...] = diff
    total = float(np.sum(np.abs(v) ** 4))
    # 0.0 minus, as in _entropy, so a stabilizer state gives +0.0 and not -0.0
    return 0.0 - float(np.log2(total / dim))
