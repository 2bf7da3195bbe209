"""Dense linear algebra helpers and state-vector constructors.

No eigensolver lives here.  The one place that computes a spectrum is
the density gate of ``analysis``, which calls LAPACK (``np.linalg.eigh``
or ``eigvalsh``) behind :func:`check_matrix` and the one Hermitian test
below.  A cyclic Jacobi iteration written out in Python loops is kept
as ``oracle.jacobi_eig``, and the tests hold the two to each other at
1e-9, as the naive oracle checks the gate kernel.

Every public entry point checks its arguments here, one function per
kind: :func:`check_int` (and any bound on it), :func:`check_bool`,
:func:`check_qubit_count`, :func:`check_state`, :func:`check_unit_state`,
:func:`check_matrix`, :func:`check_wires` and :func:`check_rng` (a
``Circuit`` is checked by ``circuit.check_circuit``); :func:`check_unit_norms`
is the norm test of :func:`check_unit_state`, also applied to each row of
a walker's stack.
Each raises a ``SimulationError`` subclass: a float is refused rather
than truncated, and an array numpy cannot read as numbers is a
``ContractError``.  A matrix is also refused for a non-finite entry.  A
state read as probabilities passes :func:`check_unit_state`; a vector a
gate maps passes :func:`check_state` only, as a gate is linear.  A
measurement takes each outcome's probability from its own half of
``|psi|**2``, so its residuals are unit and pass the check at every split.
One Hermitian test, at ``STATE_ATOL``, stands in front of every eigensolve.

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


def check_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a plain int, within ``lo`` (and ``hi``) if given; else ``ContractError``."""
    try:
        if not isinstance(value, bool):
            k = operator.index(value)
            if lo is None or lo <= k and (hi is None or k <= hi):
                return k
            if hi is None:
                raise ContractError(f"{what} must be at least {lo}, got {k}")
            raise ContractError(f"{what} {k} is outside {lo}..{hi}")
    except TypeError:
        pass
    raise ContractError(f"{what} must be an integer, got {value!r}")


def check_bool(value, what: str) -> bool:
    """``value`` as a plain bool: a Python or numpy bool, or the integer 0
    or 1; else ``ContractError``.  Nothing is read by its truth, so
    ``"False"``, ``None``, ``[]`` and ``1.0`` are refused."""
    if isinstance(value, (int, np.integer, np.bool_)) and value in (0, 1):
        return bool(value)
    raise ContractError(f"{what} must be a bool, got {value!r}")


def check_qubit_count(n) -> int:
    """Validate a register size and return it as a plain int."""
    n = check_int(n, "qubit count", 1)
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


def check_unit_state(psi, n) -> tuple[np.ndarray, int]:
    """:func:`check_state`, and ``|psi|**2`` within ``STATE_ATOL`` of 1
    (:func:`check_unit_norms`)."""
    psi, n = check_state(psi, n)
    check_unit_norms(psi, np.vdot(psi, psi).real)
    return psi, n


def check_unit_norms(states, norms) -> None:
    """Each squared norm in ``norms`` within ``STATE_ATOL`` of 1.

    ``norms`` holds the squared norm of ``states``, one state, or of each
    row of a ``(B, 2**n)`` stack of them.  A NaN or infinite amplitude, or
    a norm that is off, is a ``ContractError``.  A state's amplitudes are
    tested for finiteness only when its norm is not finite, so a finite
    state whose squared norm overflows is "not normalized".
    """
    if (abs(norms - 1.0) <= STATE_ATOL).all():  # false for a NaN or inf
        return
    bad = ~np.isfinite(norms)
    if bad.any() and not np.isfinite(states[bad]).all():
        raise ContractError("state has a non-finite amplitude")
    raise ContractError("state is not normalized")


def check_wires(n: int, wires) -> tuple[int, ...]:
    """``wires`` as distinct plain ints, each in ``0..n-1`` for a checked count ``n``.

    The one check of a list of wires.  Raises ``ContractError`` for a
    ``wires`` that is not iterable, a wire that is not an integer, a wire
    out of range, or a wire named more than once.
    """
    checked = []
    try:
        for w in wires:
            checked.append(check_int(w, "wire", 0, n - 1))
    except TypeError as exc:  # ``wires`` itself is not iterable
        raise ContractError(f"expected a list of wires: {exc}") from None
    wires = tuple(checked)
    if len(set(wires)) < len(wires):
        w = next(w for k, w in enumerate(wires) if w in wires[:k])
        raise ContractError(f"wire {w} is named more than once")
    return wires


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
    index = check_int(index, "basis index", 0, (1 << n) - 1)
    psi = np.zeros(1 << n, dtype=complex)
    psi[index] = 1.0
    return psi


def make_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, raising ``ContractError`` on a bad seed."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"invalid seed {seed!r}: {exc}") from None


def check_rng(rng) -> np.random.Generator:
    """``rng`` itself if it is a numpy ``Generator``; else ``ContractError``."""
    if not isinstance(rng, np.random.Generator):
        raise ContractError(f"expected a numpy Generator as rng, got {type(rng).__name__}")
    return rng


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random normalized state (Gaussian components, normalized)."""
    n = check_qubit_count(n)
    rng = check_rng(rng)
    size = 1 << n
    psi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    # numpy's own sum, not BLAS's, so the bits do not follow the thread count
    return psi / np.sqrt(np.add.reduce(psi.real**2 + psi.imag**2))


# ---------------------------------------------------------------------------
# Hermitian test


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(a + a^H) / 2`` of a checked matrix or stack of them; the one Hermitian test.

    A matrix further than ``STATE_ATOL`` from Hermitian raises
    ``ContractError``.  LAPACK reads one triangle only; averaging both
    keeps the roundoff of the other in the answer.
    """
    ah = a.conj().swapaxes(-1, -2)
    if np.abs(a - ah).max() > STATE_ATOL:
        raise ContractError("matrix is not Hermitian within tolerance")
    return (a + ah) / 2.0

