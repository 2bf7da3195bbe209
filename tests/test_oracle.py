import numpy as np
import pytest

from qwsim import analysis, gates, linalg, oracle
from qwsim.circuit import parse_circuit, random_circuit
from qwsim.errors import ContractError, DimensionError, ResourceError

_SQ2 = 1.0 / np.sqrt(2.0)


class TestBuildGateFullMatrix:
    def test_single_qubit_on_middle_wire_is_kron_sandwich(self):
        h = gates.gate_matrix("H")
        eye = np.eye(2)
        expect = np.kron(np.kron(eye, h), eye)  # wire 1 of 3 lives mid-kron
        got = oracle.build_gate_full_matrix(3, "H", [1])
        np.testing.assert_allclose(got, expect, atol=1e-15)

    def test_controlled_x_on_two_wires(self):
        got = oracle.build_gate_full_matrix(2, "X", [0], [(1, True)])
        expect = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=complex,
        )
        np.testing.assert_array_equal(got, expect)

    def test_controlled_x_other_direction(self):
        got = oracle.build_gate_full_matrix(2, "X", [1], [(0, True)])
        expect = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
            dtype=complex,
        )
        np.testing.assert_array_equal(got, expect)

    def test_identity_gate_gives_identity_matrix(self):
        np.testing.assert_array_equal(
            oracle.build_gate_full_matrix(3, "I", [2]), np.eye(8)
        )

    def test_results_are_unitary(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            name = ("H", "X", "Y", "Z", "S", "T", "SWAP", "ISWAP")[
                int(rng.integers(8))
            ]
            arity = gates.gate_def(name).arity
            if arity > n:
                continue
            targets = [int(t) for t in rng.choice(n, size=arity, replace=False)]
            free = [w for w in range(n) if w not in targets]
            controls = [(w, bool(rng.integers(2))) for w in free if rng.random() < 0.4]
            m = oracle.build_gate_full_matrix(n, name, targets, controls)
            assert linalg.is_unitary(m)

    def test_wire_validation(self):
        with pytest.raises(ContractError):
            oracle.build_gate_full_matrix(2, "X", [2])
        with pytest.raises(ContractError):
            oracle.build_gate_full_matrix(2, "X", [0], [(0, True)])
        with pytest.raises(ContractError):
            oracle.build_gate_full_matrix(2, "SWAP", [0, 0])
        with pytest.raises(ContractError, match="^gate H acts on 1 wires, got 2 targets$"):
            oracle.build_gate_full_matrix(2, "H", (0, 1))


class TestSimulateNaive:
    def test_flip_phase_pair_circuit(self):
        circ = parse_circuit("qubits 3\nH 1 ; X 2\nCX 1 0\nZ 0\nCX 1 2\n")
        psi = oracle.simulate_naive(circ)
        expect = np.zeros(8, dtype=complex)
        expect[0b100] = _SQ2
        expect[0b011] = -_SQ2
        np.testing.assert_allclose(psi, expect, atol=1e-12)

    def test_empty_circuit(self):
        circ = parse_circuit("qubits 2\n")
        np.testing.assert_array_equal(oracle.simulate_naive(circ), linalg.zero_state(2))

    def test_rejects_unnormalized_initial_state(self):
        circ = parse_circuit("qubits 1\nH 0\n")
        with pytest.raises(ContractError):
            oracle.simulate_naive(circ, np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize(
        "psi0, error, message",
        [
            ([1, 1], ContractError, "not normalized"),
            ([0.1, 0.1], ContractError, "not normalized"),
            ([1e200, 0], ContractError, "not normalized"),  # finite, but its norm overflows
            ([1, np.nan], ContractError, "non-finite"),
            ([np.inf, 0], ContractError, "non-finite"),
            (["a", "b"], ContractError, "array of numbers"),
            ([1, 0, 0, 0], DimensionError, "state must have length 2 for 1 qubits"),
        ],
        ids=["norm 2", "norm 0.02", "overflow", "nan", "inf", "non-numeric", "length"],
    )
    def test_each_bad_initial_state_is_refused(self, psi0, error, message):
        circ = parse_circuit("qubits 1\nH 0\n")
        with pytest.raises(error, match=message):
            oracle.simulate_naive(circ, psi0)

    def test_runs_from_a_copy_of_the_initial_state(self):
        # a gate-free run returns its start, which must not be the caller's array
        psi0 = linalg.basis_state(2, 0b10)
        out = oracle.simulate_naive(parse_circuit("qubits 2\n"), psi0)
        assert np.array_equal(out, psi0) and not np.shares_memory(out, psi0)

    def test_guard_rejects_large_registers(self):
        circ = parse_circuit(f"qubits {oracle.NAIVE_QUBIT_GUARD + 1}\nMEASURE 0\n")
        with pytest.raises(ResourceError):
            oracle.sample_shots_deferred(circ, 10, 0)
        circ = parse_circuit(f"qubits {oracle.NAIVE_QUBIT_GUARD + 1}\n")
        with pytest.raises(ResourceError) as err:
            oracle.simulate_naive(circ)
        # stated in bytes: the 2**13 x 2**13 operator of complex128
        assert str(err.value) == (
            "naive path refuses 13 qubits: its 4**13 matrix takes 1 GiB (guard 12, 256 MiB)"
        )

    def test_rejects_measurements(self):
        circ = parse_circuit("qubits 1\nMEASURE 0\n")
        with pytest.raises(ContractError):
            oracle.simulate_naive(circ)

    def test_layer_order_is_right_to_left_products(self):
        # X then H on one wire: H X |0> = (|0> - |1>)/sqrt(2)
        circ = parse_circuit("qubits 1\nX 0\nH 0\n")
        np.testing.assert_allclose(
            oracle.simulate_naive(circ), [_SQ2, -_SQ2], atol=1e-15
        )


class TestPartialTraceByDefinition:
    def test_trace_everything_returns_total_trace(self):
        rng = np.random.default_rng(2)
        psi = linalg.random_state(3, rng)
        rho = np.outer(psi, psi.conj())
        out = oracle.partial_trace_by_definition(rho, 3, [0, 1, 2])
        np.testing.assert_allclose(out, [[1.0]], atol=1e-12)

    def test_trace_nothing_is_identity_map(self):
        rng = np.random.default_rng(3)
        psi = linalg.random_state(2, rng)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(
            oracle.partial_trace_by_definition(rho, 2, []), rho, atol=1e-12
        )

    def test_product_state_factors_recovered(self):
        def random_mixed(k, rng):
            weights = rng.random(3)
            weights /= weights.sum()
            rho = np.zeros((1 << k, 1 << k), dtype=complex)
            for w in weights:
                psi = linalg.random_state(k, rng)
                rho += w * np.outer(psi, psi.conj())
            return rho

        rng = np.random.default_rng(4)
        rho_a = random_mixed(2, rng)  # owns high wires 2,3
        rho_b = random_mixed(2, rng)  # owns low wires 0,1
        rho = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(
            oracle.partial_trace_by_definition(rho, 4, [0, 1]), rho_a, atol=1e-12
        )
        np.testing.assert_allclose(
            oracle.partial_trace_by_definition(rho, 4, [2, 3]), rho_b, atol=1e-12
        )

    def test_unsorted_list_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ContractError):
            oracle.partial_trace_by_definition(rho, 2, [1, 0])
        with pytest.raises(ContractError):
            oracle.partial_trace_by_definition(rho, 2, [0, 0])
        with pytest.raises(ContractError):
            oracle.partial_trace_by_definition(rho, 2, [2])

    def test_result_trace_is_preserved(self):
        rng = np.random.default_rng(5)
        psi = linalg.random_state(4, rng)
        rho = np.outer(psi, psi.conj())
        out = oracle.partial_trace_by_definition(rho, 4, [1, 3])
        assert abs(np.trace(out) - 1.0) < 1e-12


class TestNaiveAgainstEngine:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits_agree(self, seed):
        from qwsim import engine

        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 7))
        circ = random_circuit(n, 15, rng)
        np.testing.assert_allclose(
            engine.run_circuit(circ), oracle.simulate_naive(circ), atol=1e-10
        )


def _random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


class TestJacobiEig:
    """The Python-loop Jacobi solver against LAPACK and the density gate."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
    def test_matches_lapack_on_random_hermitian(self, dim):
        rng = np.random.default_rng(500 + dim)
        for _ in range(10):
            m = _random_hermitian(dim, rng)
            w, v = oracle.jacobi_eig(m)
            w_ref, v_ref = np.linalg.eigh(m)
            np.testing.assert_allclose(w, w_ref, atol=1e-9)
            # random spectra are simple, so each eigenvector is fixed up to
            # a phase and its projector is comparable
            for k in range(dim):
                np.testing.assert_allclose(
                    np.outer(v[:, k], v[:, k].conj()),
                    np.outer(v_ref[:, k], v_ref[:, k].conj()),
                    atol=1e-9,
                )

    @pytest.mark.parametrize("k, n", [(1, 1), (2, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    def test_rank_deficient_density_matrices(self, k, n):
        # k kept qubits of an n-qubit pure state have rank at most
        # 2**(n-k), so 2**k - 2**(n-k) eigenvalues are exactly zero
        rng = np.random.default_rng(600 + 10 * k + n)
        for _ in range(5):
            psi = linalg.random_state(n, rng)
            rho = analysis.partial_trace_state(n, psi, list(range(k)), keep=True)
            w = oracle.jacobi_eig(rho)[0]
            np.testing.assert_allclose(w, analysis._density_gate(rho)[1], atol=1e-9)
            zeros = (1 << k) - (1 << (n - k))
            np.testing.assert_allclose(w[:zeros], 0.0, atol=1e-9)
            assert abs(w.sum() - 1.0) < 1e-9

    def test_concurrence_from_jacobi_eigenpairs(self):
        # the concurrence built on Jacobi's eigenpairs equals the one built
        # on the density gate's, over random 2-qubit reduced states
        rng = np.random.default_rng(650)
        for _ in range(10):
            n = int(rng.integers(2, 6))  # n = 2 gives a pure, rank-one rho
            psi = linalg.random_state(n, rng)
            sub = sorted(int(q) for q in rng.choice(n, size=2, replace=False))
            rho = analysis.partial_trace_state(n, psi, sub, keep=True)
            c = analysis._concurrence(rho, *oracle.jacobi_eig(rho))
            assert abs(c - analysis.concurrence(rho)) < 1e-9

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_eigenvectors_reconstruct(self, dim):
        rng = np.random.default_rng(700 + dim)
        m = _random_hermitian(dim, rng)
        w, v = oracle.jacobi_eig(m)
        np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-9)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-9)
        assert np.all(np.diff(w) >= 0)

    def test_refuses_a_matrix_left_unconverged(self, monkeypatch):
        monkeypatch.setattr(oracle, "_JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(ContractError, match="^Jacobi eigensolver did not converge$"):
            oracle.jacobi_eig(np.array([[0, 1], [1, 0]], dtype=complex))

    def test_one_by_one(self):
        w, v = oracle.jacobi_eig(np.array([[2.5]], dtype=complex))
        assert w[0] == 2.5 and v[0, 0] == 1.0
