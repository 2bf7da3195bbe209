"""Dense linear algebra helpers and state-vector constructors.

The Hermitian eigensolver is written here as an explicit cyclic
Jacobi iteration so the package does not depend on an opaque routine for
the one numerically delicate primitive; tests cross-check it against an
independent implementation.

Conventions used throughout the package:

* qubit ``i`` is bit ``i`` of the amplitude index (qubit 0 is least
  significant), so an ``n``-qubit basis label reads ``q_{n-1} ... q_1 q_0``;
* a state vector is a 1-D complex array of length ``2**n``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, ResourceError

# Absolute tolerances used across modules: state-vector comparisons,
# eigenvalue comparisons, and unitarity checks respectively.
STATE_ATOL = 1e-10
EIGEN_ATOL = 1e-9
UNITARY_ATOL = 1e-12

# Largest supported register.  2**26 complex128 amplitudes occupy 1 GiB;
# one working copy doubles that.  Raise at your own risk.
MAX_QUBITS = 26

_JACOBI_MAX_SWEEPS = 100


def check_qubit_count(n: int, *, cap: int | None = None) -> int:
    """Validate a register size and return it as a plain int."""
    n = int(n)
    limit = MAX_QUBITS if cap is None else cap
    if n < 1:
        raise ContractError(f"qubit count must be at least 1, got {n}")
    if n > limit:
        raise ResourceError(f"qubit count {n} exceeds the cap of {limit}")
    return n


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def is_unitary(m, atol: float = UNITARY_ATOL) -> bool:
    """True when ``m^H m = I`` entrywise within ``atol``."""
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    eye = np.eye(a.shape[0])
    return bool(np.max(np.abs(a.conj().T @ a - eye)) <= atol)


# ---------------------------------------------------------------------------
# state constructors


def zero_state(n: int) -> np.ndarray:
    """|00...0> on ``n`` qubits."""
    n = check_qubit_count(n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def basis_state(n: int, index: int) -> np.ndarray:
    """Computational basis state ``|index>`` on ``n`` qubits."""
    n = check_qubit_count(n)
    index = int(index)
    if not 0 <= index < (1 << n):
        raise ContractError(f"basis index {index} out of range for {n} qubits")
    psi = np.zeros(1 << n, dtype=complex)
    psi[index] = 1.0
    return psi


def initial_state(n: int, psi0=None) -> np.ndarray:
    """A fresh starting state: a copy of ``psi0``, or |00...0> if it is None.

    Raises ``DimensionError`` for a wrong length and ``ContractError`` when
    ``psi0`` is not normalized (a NaN norm counts as not normalized).
    """
    if psi0 is None:
        return zero_state(n)
    psi = np.array(psi0, dtype=complex)
    if psi.shape != (1 << n,):
        raise DimensionError(f"state must have length {1 << n}, got shape {psi.shape}")
    if not is_normalized(psi):
        raise ContractError("initial state is not normalized")
    return psi


def make_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, raising ``ContractError`` on a bad seed."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"invalid seed {seed!r}: {exc}") from None


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random normalized state (Gaussian components, normalized)."""
    n = check_qubit_count(n)
    size = 1 << n
    psi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return psi / np.linalg.norm(psi)


def is_normalized(psi, atol: float = STATE_ATOL) -> bool:
    psi = np.asarray(psi)
    return bool(abs(np.vdot(psi, psi).real - 1.0) <= atol)


# ---------------------------------------------------------------------------
# Hermitian eigensolver (cyclic Jacobi with complex rotations)


def _check_hermitian(a: np.ndarray, atol: float) -> np.ndarray:
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"eigensolver needs a square matrix, got {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > atol:
        raise ContractError("matrix is not Hermitian within tolerance")
    # Symmetrize away representation roundoff so the iteration preserves
    # Hermiticity exactly.
    return (a + a.conj().T) / 2.0


def hermitian_eig(a, atol: float = EIGEN_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary
    ``v`` whose columns are the matching eigenvectors (``a @ v = v @ diag(w)``).

    Each sweep visits every off-diagonal pair ``(p, q)`` and applies a
    complex plane rotation chosen to zero ``a[p, q]``: with
    ``a[p, q] = r * exp(i*phi)`` the rotation angle is
    ``theta = atan2(2r, a[q,q] - a[p,p]) / 2`` and the rotation matrix acts
    on rows/columns ``p`` and ``q`` only.  Off-diagonal mass is strictly
    non-increasing, so the loop terminates; a hundred sweeps is far beyond
    what any matrix in this package needs (4x4 typically converges in ~6).
    """
    work = _check_hermitian(a, atol)
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


def hermitian_eigenvalues(a, atol: float = EIGEN_ATOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    w, _ = hermitian_eig(a, atol)
    return w
