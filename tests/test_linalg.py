import numpy as np
import pytest

from qwsim import linalg, oracle
from qwsim.errors import ContractError, DimensionError, ResourceError


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


def random_unitary(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBasicOps:
    def test_is_unitary(self):
        rng = np.random.default_rng(4)
        assert linalg.is_unitary(random_unitary(8, rng))
        assert not linalg.is_unitary(np.array([[1, 0], [0, 0]]))
        assert not linalg.is_unitary(np.zeros((2, 3)))


class TestStates:
    def test_zero_state(self):
        psi = linalg.zero_state(4)
        assert psi.shape == (16,)
        assert psi[0] == 1.0
        assert np.count_nonzero(psi) == 1

    def test_basis_state_range(self):
        with pytest.raises(ContractError):
            linalg.basis_state(2, 4)

    def test_qubit_count_caps(self):
        with pytest.raises(ContractError):
            linalg.zero_state(0)
        with pytest.raises(ResourceError):
            linalg.zero_state(linalg.MAX_QUBITS + 1)

    def test_cap_is_stated_in_bytes(self):
        with pytest.raises(ResourceError) as err:
            linalg.check_qubit_count(27)
        assert str(err.value) == "27 qubits need 2 GiB per state; cap 26 (1 GiB)"
        with pytest.raises(ResourceError, match=r"^40 qubits need 16 TiB per state;"):
            linalg.check_qubit_count(40)
        # too large to print as a number of units, still one clean message
        with pytest.raises(ResourceError, match=r"^100000 qubits need 2\*\*100004 bytes"):
            linalg.check_qubit_count(100000)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_random_state_normalized(self, n):
        rng = np.random.default_rng(100 + n)
        psi = linalg.random_state(n, rng)
        assert linalg.is_normalized(psi)

    def test_random_state_seeded(self):
        a = linalg.random_state(4, np.random.default_rng(9))
        b = linalg.random_state(4, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestHermitianEig:
    def test_diagonal_passthrough(self):
        w = linalg.hermitian_eigenvalues(np.diag([0.5, 0.5]).astype(complex))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_pauli_x_spectrum(self):
        w = linalg.hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_frozen_rank_two_projector_spectrum(self):
        # reduced state of a Bell pair plus a |+> spectator, worked by hand
        rho = np.array(
            [
                [0.25, 0, 0.25, 0],
                [0, 0.25, 0, 0.25],
                [0.25, 0, 0.25, 0],
                [0, 0.25, 0, 0.25],
            ],
            dtype=complex,
        )
        w = linalg.hermitian_eigenvalues(rho)
        np.testing.assert_allclose(w, [0.0, 0.0, 0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
    def test_matches_independent_solver(self, dim):
        # the Python-loop Jacobi reference shares no code with LAPACK
        rng = np.random.default_rng(dim)
        for _ in range(20):
            m = random_hermitian(dim, rng)
            np.testing.assert_allclose(
                linalg.hermitian_eigenvalues(m),
                oracle.jacobi_eig(m)[0],
                atol=1e-9,
            )

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_eigenvectors_reconstruct(self, dim):
        rng = np.random.default_rng(40 + dim)
        m = random_hermitian(dim, rng)
        w, v = linalg.hermitian_eig(m)
        np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-9)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-9)

    def test_eigenvalues_ascending_and_sum_to_trace(self):
        rng = np.random.default_rng(77)
        m = random_hermitian(6, rng)
        w = linalg.hermitian_eigenvalues(m)
        assert np.all(np.diff(w) >= 0)
        assert abs(w.sum() - np.trace(m).real) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            linalg.hermitian_eigenvalues(np.zeros((2, 3)))

    def test_rejects_empty(self):
        for solve in (linalg.hermitian_eig, linalg.hermitian_eigenvalues):
            with pytest.raises(DimensionError):
                solve(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # symmetric placement, so a NaN-blind Hermitian check would pass it
        m = np.array([[0.5, bad], [bad, 0.5]], dtype=complex)
        for solve in (linalg.hermitian_eig, linalg.hermitian_eigenvalues):
            with pytest.raises(ContractError, match="non-finite"):
                solve(m)
        with pytest.raises(ContractError, match="non-finite"):
            linalg.hermitian_eigenvalues(np.diag([bad, 1.0]).astype(complex))

    def test_one_by_one(self):
        w, v = linalg.hermitian_eig(np.array([[2.5]], dtype=complex))
        assert w[0] == 2.5
        assert v[0, 0] == 1.0
