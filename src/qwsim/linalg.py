"""Dense linear algebra helpers and state-vector constructors.

The Hermitian eigensolver is LAPACK's, through ``np.linalg.eigh``, behind a
check that the input is square, finite and Hermitian.  It was once a
cyclic Jacobi iteration written out here, so that the one numerically
delicate primitive rested on no opaque routine.  That independence is
what a test needs, not production: the iteration is kept as
``oracle.jacobi_eig`` and the tests hold the two solvers to each other at
1e-9, as the naive oracle checks the gate kernel.  Run in production, its
Python loops cost about 1 ms on a 4x4 and 30 ms on a 16x16, against 15
and 73 microseconds for ``eigh`` (2-core Xeon, numpy 2.4.6, one thread);
and numpy, the package's one dependency, ships LAPACK already.

Every public entry point checks its arguments here, one function per
kind: :func:`check_int`, :func:`check_qubit_count`, :func:`check_state`,
:func:`check_matrix` and :func:`check_wires`.  Each raises a
``SimulationError`` subclass: a float is refused rather than truncated,
and an array numpy cannot read as numbers is a ``ContractError``.  A
matrix is also refused for a non-finite entry (a state is not: the
statistics refuse a NaN where it reaches their result, and a gate would
pay a pass over every amplitude).  One Hermitian test, at ``STATE_ATOL``,
stands in front of every eigensolve.

Conventions used throughout the package:

* qubit ``i`` is bit ``i`` of the amplitude index (qubit 0 is least
  significant), so an ``n``-qubit basis label reads ``q_{n-1} ... q_1 q_0``;
* a state vector is a 1-D complex array of length ``2**n``.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ContractError, DimensionError, ResourceError, SimulationError

# Absolute tolerances used across modules: state-vector comparisons (and
# the Hermitian and unit-trace tests of a matrix), eigenvalue comparisons,
# and unitarity checks respectively.
STATE_ATOL = 1e-10
EIGEN_ATOL = 1e-9
UNITARY_ATOL = 1e-12

# Largest supported register.  2**26 complex128 amplitudes occupy 1 GiB;
# one working copy doubles that.  Raise at your own risk.
MAX_QUBITS = 26


def _state_size(n: int) -> str:
    """Memory of one ``n``-qubit complex128 state, e.g. ``'1 GiB'``."""
    bits = n + 4  # 16 bytes per amplitude
    units = ("bytes", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB")
    return f"{1 << bits % 10} {units[bits // 10]}" if bits < 70 else f"2**{bits} bytes"


def check_int(value, what: str) -> int:
    """``value`` as a plain int; a bool, float or string raises ``ContractError``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ContractError(f"{what} must be an integer, got {value!r}")


def check_qubit_count(n) -> int:
    """Validate a register size and return it as a plain int."""
    n = check_int(n, "qubit count")
    if n < 1:
        raise ContractError(f"qubit count must be at least 1, got {n}")
    if n > MAX_QUBITS:
        raise ResourceError(
            f"{n} qubits need {_state_size(n)} per state; "
            f"cap {MAX_QUBITS} ({_state_size(MAX_QUBITS)})"
        )
    return n


def _as_complex(x) -> np.ndarray:
    """``x`` as a complex array; what numpy cannot convert raises ``ContractError``."""
    try:
        return np.asarray(x, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"expected an array of numbers: {exc}") from None


def check_state(psi, n) -> tuple[np.ndarray, int]:
    """``psi`` as a complex vector of length ``2**n``, and ``n`` checked.

    With ``n`` None the qubit count is read off the length, which must be
    a power of two, at least 2.  A wrong length raises ``DimensionError``.
    """
    psi = _as_complex(psi)
    if n is None:  # any other length fails the test below
        n = max(psi.size, 2).bit_length() - 1
    n = check_qubit_count(n)
    if psi.shape != (1 << n,):
        raise DimensionError(
            f"state must have length {1 << n} for {n} qubits, got shape {psi.shape}"
        )
    return psi, n


def check_wires(n: int, wires) -> tuple[int, ...]:
    """``wires`` as plain ints, each in ``0..n-1`` for a checked count ``n``.

    Raises ``ContractError``.  The error for a wire out of range carries it
    as ``wire``, so a caller can restate the error in its own terms.
    """
    wires = [check_int(w, "wire") for w in wires]
    for w in wires:
        if not 0 <= w < n:
            exc = ContractError(f"wire {w} is outside 0..{n - 1}")
            exc.wire = w
            raise exc
    return tuple(wires)


def check_matrix(m, dim=None) -> np.ndarray:
    """``m`` as a finite, non-empty, square complex array, ``dim x dim`` if given.

    A wrong shape raises ``DimensionError``; a non-finite or non-numeric
    entry raises ``ContractError``.
    """
    a = _as_complex(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionError(f"matrix must be square and non-empty, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionError(f"matrix must be {dim}x{dim}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ContractError("matrix has a non-finite entry")
    return a


def is_unitary(m) -> bool:
    """True for a matrix with ``m^H m = I`` entrywise within ``UNITARY_ATOL``."""
    try:
        a = check_matrix(m)
    except SimulationError:
        return False
    eye = np.eye(a.shape[0])
    return bool(np.max(np.abs(a.conj().T @ a - eye)) <= UNITARY_ATOL)


# ---------------------------------------------------------------------------
# state constructors


def zero_state(n: int) -> np.ndarray:
    """|00...0> on ``n`` qubits."""
    return basis_state(n, 0)


def basis_state(n: int, index: int) -> np.ndarray:
    """Computational basis state ``|index>`` on ``n`` qubits."""
    n = check_qubit_count(n)
    index = check_int(index, "basis index")
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
    psi = check_state(psi0, n)[0].copy()
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


def is_normalized(psi) -> bool:
    """True when the squared norm of ``psi`` is 1 within ``STATE_ATOL``."""
    psi = np.asarray(psi)
    return bool(abs(np.vdot(psi, psi).real - 1.0) <= STATE_ATOL)


# ---------------------------------------------------------------------------
# Hermitian eigensolver (LAPACK through numpy, checked)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(a + a^H) / 2`` of a checked matrix; the one Hermitian test.

    A matrix further than ``STATE_ATOL`` from Hermitian raises
    ``ContractError``.  LAPACK reads one triangle only; averaging both
    keeps the roundoff of the other in the answer.
    """
    ah = a.conj().T
    if np.abs(a - ah).max() > STATE_ATOL:
        raise ContractError("matrix is not Hermitian within tolerance")
    return (a + ah) / 2.0


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (``np.linalg.eigh``).

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary
    ``v`` whose columns are the matching eigenvectors (``a @ v = v @ diag(w)``).
    Raises ``DimensionError`` for an empty or non-square input and
    ``ContractError`` for a non-finite or non-Hermitian one.
    """
    w, v = np.linalg.eigh(_hermitian_part(check_matrix(a)))
    return w, v
