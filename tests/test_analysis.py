import dataclasses
import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from helpers import check_density_matrix, stdout_at_one_and_two_blas_threads

from qwsim import analysis, engine, gates, linalg, oracle
from qwsim.circuit import format_circuit, parse_circuit, random_circuit
from qwsim.errors import ContractError, DimensionError, ResourceError
from qwsim.measurement import measure_qubit

_SQ2 = 1.0 / np.sqrt(2.0)

MIXED_PAIR_TEXT = "qubits 3\nH 0\nCX 0 1\nH 2\n"  # Bell on 0,1 plus |+> on 2


def mixed_pair_state():
    return engine.run_circuit(parse_circuit(MIXED_PAIR_TEXT))


def dense_pauli_string(labels):
    """Big-endian label tuple -> dense matrix with label[k] acting on wire k."""
    out = np.array([[1.0]], dtype=complex)
    for name in reversed(labels):  # highest wire first so wire 0 lands low
        out = np.kron(out, gates.gate_matrix(name))
    return out


class TestPartialTraceMatrix:
    def test_mixed_pair_reduced_states(self):
        psi = mixed_pair_state()
        rho = np.outer(psi, psi.conj())
        # spectator |+> on wire 2
        np.testing.assert_allclose(
            analysis.partial_trace_matrix(3, rho, [0, 1]),
            np.full((2, 2), 0.5),
            atol=1e-12,
        )
        # Bell pair on wires 0,1 is pure
        bell = np.zeros((4, 4), dtype=complex)
        bell[0b00, 0b00] = bell[0b00, 0b11] = 0.5
        bell[0b11, 0b00] = bell[0b11, 0b11] = 0.5
        np.testing.assert_allclose(
            analysis.partial_trace_matrix(3, rho, [2]), bell, atol=1e-12
        )
        # each Bell wire alone is maximally mixed
        np.testing.assert_allclose(
            analysis.partial_trace_matrix(3, rho, [1, 2]), np.eye(2) / 2, atol=1e-12
        )

    def test_keep_flag_complements_the_list(self):
        psi = mixed_pair_state()
        rho = np.outer(psi, psi.conj())
        np.testing.assert_array_equal(
            analysis.partial_trace_matrix(3, rho, [2], keep=True),
            analysis.partial_trace_matrix(3, rho, [0, 1]),
        )
        np.testing.assert_array_equal(
            analysis.partial_trace_matrix(3, rho, [0, 1], keep=True),
            analysis.partial_trace_matrix(3, rho, [2]),
        )

    def test_empty_trace_list_copies_input(self):
        rng = np.random.default_rng(0)
        psi = linalg.random_state(2, rng)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(
            analysis.partial_trace_matrix(2, rho, []), rho, atol=1e-15
        )

    def test_unsorted_or_duplicate_list_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ContractError):
            analysis.partial_trace_matrix(2, rho, [1, 0])
        with pytest.raises(ContractError):
            analysis.partial_trace_matrix(2, rho, [0, 0])
        with pytest.raises(ContractError):
            analysis.partial_trace_matrix(2, rho, [5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            analysis.partial_trace_matrix(3, np.eye(4), [0])

    def test_non_hermitian_input_is_still_linear(self):
        # the Hermitian fast path must not be applied to general matrices
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        got = analysis.partial_trace_matrix(3, m, [1])
        expect = np.zeros((4, 4), dtype=complex)
        # direct index arithmetic: keep wires 0 and 2, sum wire 1
        for r in range(4):
            for c in range(4):
                for t in range(2):
                    row = (r & 1) | (t << 1) | ((r >> 1) << 2)
                    col = (c & 1) | (t << 1) | ((c >> 1) << 2)
                    expect[r, c] += m[row, col]
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_agrees_with_definition_oracle(self):
        rng = np.random.default_rng(2)
        for n in range(2, 6):
            psi = linalg.random_state(n, rng)
            rho = np.outer(psi, psi.conj())
            for k in range(n + 1):
                for sub in combinations(range(n), k):
                    np.testing.assert_allclose(
                        analysis.partial_trace_matrix(n, rho, list(sub)),
                        oracle.partial_trace_by_definition(rho, n, list(sub)),
                        atol=1e-12,
                    )


class TestPartialTraceState:
    def test_matches_matrix_path_on_random_states(self):
        rng = np.random.default_rng(3)
        for n in range(2, 7):
            psi = linalg.random_state(n, rng)
            rho = np.outer(psi, psi.conj())
            for k in range(n + 1):
                for sub in combinations(range(n), k):
                    np.testing.assert_allclose(
                        analysis.partial_trace_state(n, psi, list(sub)),
                        analysis.partial_trace_matrix(n, rho, list(sub)),
                        atol=1e-12,
                    )

    def test_single_qubit_keep_is_projector_free(self):
        psi = np.array([_SQ2, 1j * _SQ2], dtype=complex)
        rho = analysis.partial_trace_state(1, psi, [0], keep=True)
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-15)

    def test_mixed_pair_spectator(self):
        psi = mixed_pair_state()
        np.testing.assert_allclose(
            analysis.partial_trace_state(3, psi, [2], keep=True),
            np.full((2, 2), 0.5),
            atol=1e-12,
        )

    def test_reduced_matrices_are_valid_density_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            circ = random_circuit(n, 12, rng)
            psi = engine.run_circuit(circ)
            k = int(rng.integers(1, n))
            sub = sorted(int(q) for q in rng.choice(n, size=k, replace=False))
            rho = analysis.partial_trace_state(n, psi, sub, keep=True)
            assert check_density_matrix(rho) == k

    def test_bad_state_length(self):
        with pytest.raises(DimensionError):
            analysis.partial_trace_state(3, np.zeros(4, dtype=complex), [0])

    def test_a_matrix_past_the_largest_state_is_refused_before_any_copy(self):
        # 2**22 x 2**22 entries would take 256 TiB
        with pytest.raises(ResourceError) as err:
            analysis.partial_trace_state(22, linalg.zero_state(22), range(22), keep=True)
        assert str(err.value) == (
            "partial trace refuses 22 kept qubits: its 4**22 matrix takes 256 TiB (cap 13, 1 GiB)"
        )

    @pytest.mark.parametrize("max_qubits", [6, 7])
    def test_the_cap_is_a_state_of_max_qubits(self, monkeypatch, max_qubits):
        # an odd cap rounds down: 2 * 4 kept qubits outgrow 7 as they do 6
        monkeypatch.setattr(analysis, "MAX_QUBITS", max_qubits)
        psi = linalg.random_state(5, np.random.default_rng(5))
        rho = np.outer(psi, psi.conj())
        # 3 kept qubits make a matrix of 2 * 3 qubits' amplitudes, under the cap
        np.testing.assert_allclose(
            analysis.partial_trace_state(5, psi, [0, 2, 4], keep=True),
            analysis.partial_trace_matrix(5, rho, [0, 2, 4], keep=True),
            atol=1e-12,
        )
        with pytest.raises(ResourceError) as err:
            analysis.partial_trace_state(5, psi, [0, 1, 2, 3], keep=True)
        assert str(err.value) == (
            "partial trace refuses 4 kept qubits: its 4**4 matrix takes 4 KiB (cap 3, 1 KiB)"
        )
        with pytest.raises(ResourceError, match="refuses 4 kept qubits"):
            analysis.partial_trace_state(5, psi, [4])

    def test_twenty_qubit_single_keep_diagonal_matches_probability_of_one(self):
        n = 20
        psi = linalg.random_state(n, np.random.default_rng(13))
        for q in (0, 7, 19):
            rho = analysis.partial_trace_state(n, psi, [q], keep=True)
            p1 = analysis.probability_of_one(psi, q)
            assert abs(rho[1, 1].real - p1) < 1e-12
            assert abs(rho[0, 0].real - (1.0 - p1)) < 1e-12


class TestProbabilityOfOne:
    def test_flip_phase_pair_top_wire(self):
        psi = engine.run_circuit(
            parse_circuit("qubits 3\nH 1 ; X 2\nCX 1 0\nZ 0\nCX 1 2\n")
        )
        assert abs(analysis.probability_of_one(psi, 2) - 0.5) < 1e-12

    def test_basis_states(self):
        assert analysis.probability_of_one(linalg.zero_state(3), 1) == 0.0
        assert analysis.probability_of_one(linalg.basis_state(3, 0b111), 1) == 1.0

    def test_consistent_with_reduced_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            psi = linalg.random_state(n, rng)
            q = int(rng.integers(n))
            rho = analysis.partial_trace_state(n, psi, [q], keep=True)
            assert abs(
                analysis.probability_of_one(psi, q) - (1.0 - rho[0, 0].real)
            ) < 1e-10

    def test_bad_inputs(self):
        with pytest.raises(ContractError):
            analysis.probability_of_one(linalg.zero_state(2), 2)
        with pytest.raises(DimensionError):
            analysis.probability_of_one(np.zeros(3, dtype=complex), 0)


class TestQubitStats:
    def test_computational_basis_poles(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        s = analysis.qubit_stats(zero)
        assert (s.x, s.y, s.z) == (0.0, 0.0, 1.0)
        assert s.prob1 == 0.0
        assert s.theta == 0.0
        one = np.diag([0.0, 1.0]).astype(complex)
        s = analysis.qubit_stats(one)
        assert s.z == -1.0
        assert abs(s.theta - np.pi) < 1e-12
        assert s.prob1 == 1.0

    def test_plus_state_points_along_x(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        s = analysis.qubit_stats(plus)
        assert abs(s.x - 1.0) < 1e-12
        assert abs(s.y) < 1e-12 and abs(s.z) < 1e-12
        assert abs(s.theta - np.pi / 2) < 1e-12
        assert abs(s.phi) < 1e-12
        assert abs(s.purity - 1.0) < 1e-12

    def test_y_eigenstate_phase(self):
        psi = np.array([_SQ2, 1j * _SQ2])
        s = analysis.qubit_stats(np.outer(psi, psi.conj()))
        assert abs(s.y - 1.0) < 1e-12
        assert abs(s.phi - np.pi / 2) < 1e-12

    def test_maximally_mixed_center(self):
        s = analysis.qubit_stats(np.eye(2, dtype=complex) / 2)
        assert s.r == 0.0 and s.theta == 0.0 and s.phi == 0.0
        assert abs(s.purity - 0.5) < 1e-12
        assert abs(s.linear_entropy - 0.5) < 1e-12

    def test_bloch_round_trip(self):
        x, y, z = (m.astype(complex) for m in (
            gates.gate_matrix("X"), gates.gate_matrix("Y"), gates.gate_matrix("Z")
        ))
        rng = np.random.default_rng(6)
        for _ in range(25):
            psi = linalg.random_state(1, rng)
            rho = np.outer(psi, psi.conj())
            s = analysis.qubit_stats(rho)
            rebuilt = (np.eye(2) + s.x * x + s.y * y + s.z * z) / 2.0
            np.testing.assert_allclose(rebuilt, rho, atol=1e-12)

    def test_purity_relation_to_bloch_length(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            psi = linalg.random_state(n, rng)
            rho = analysis.partial_trace_state(n, psi, [0], keep=True)
            s = analysis.qubit_stats(rho)
            assert abs(s.purity - (1.0 + s.r**2) / 2.0) < 1e-10
            assert abs(s.prob1 - (1.0 - s.z) / 2.0) < 1e-10

    def test_azimuth_is_zero_on_the_z_axis(self):
        # x and y here are roundoff; their arctan2 would be -pi
        s = analysis.qubit_stats(np.array([[1, -1e-17], [-1e-17, 0]], dtype=complex))
        assert abs(s.x) < 1e-12 and abs(s.y) < 1e-12
        assert s.phi == 0.0 and s.theta == 0.0
        s = analysis.qubit_stats(np.array([[0, 1e-17j], [-1e-17j, 1]], dtype=complex))
        assert s.phi == 0.0 and abs(s.theta - np.pi) < 1e-12

    def test_fields_are_plain_floats(self):
        psi = np.array([0.6, 0.8j])
        s = analysis.qubit_stats(np.outer(psi, psi.conj()))
        assert all(type(v) is float for v in dataclasses.astuple(s))

    def test_bloch_components_equal_pauli_traces(self):
        # the entries-based x, y, z against Tr(rho P) on every wire, from
        # one wire's matrix and from the sweep over all of them
        pauli = {p: gates.gate_matrix(p) for p in "XYZ"}
        rng = np.random.default_rng(14)
        for n in range(1, 7):
            for _ in range(3):
                psi = linalg.random_state(n, rng)
                swept = analysis.all_qubit_stats(psi, n)
                for q in range(n):
                    rho = analysis.partial_trace_state(n, psi, [q], keep=True)
                    for s in (analysis.qubit_stats(rho), swept[q]):
                        for value, p in ((s.x, "X"), (s.y, "Y"), (s.z, "Z")):
                            assert abs(value - np.trace(rho @ pauli[p]).real) < 1e-12

    def test_rejects_invalid_density_matrices(self):
        with pytest.raises(ContractError):
            analysis.qubit_stats(np.eye(2).astype(complex))  # trace 2
        with pytest.raises(ContractError):
            analysis.qubit_stats(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))
        with pytest.raises(ContractError):
            analysis.qubit_stats(np.diag([1.5, -0.5]).astype(complex))  # not PSD
        with pytest.raises(ContractError):
            analysis.qubit_stats(np.eye(4, dtype=complex) / 4)  # wrong size


class TestAllQubitStats:
    """Every wire's statistics from one sweep over the state."""

    def test_equals_the_per_wire_path(self):
        rng = np.random.default_rng(16)
        for n in range(1, 13):
            for _ in range(3):
                psi = linalg.random_state(n, rng)
                swept = analysis.all_qubit_stats(psi, n)
                assert len(swept) == n
                for q, s in enumerate(swept):
                    rho = analysis.partial_trace_state(n, psi, [q], keep=True)
                    want = dataclasses.astuple(analysis.qubit_stats(rho))
                    got = dataclasses.astuple(s)
                    assert all(type(v) is float for v in got)
                    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_implied_matrices_match_the_definition_oracle(self):
        # (I + x X + y Y + z Z) / 2 against the textbook partial trace
        eye, x, y, z = (gates.gate_matrix(p) for p in "IXYZ")
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            psi = linalg.random_state(n, rng)
            rho = np.outer(psi, psi.conj())
            for q, s in enumerate(analysis.all_qubit_stats(psi, n)):
                want = oracle.partial_trace_by_definition(
                    rho, n, [w for w in range(n) if w != q]
                )
                implied = (eye + s.x * x + s.y * y + s.z * z) / 2.0
                np.testing.assert_allclose(implied, want, atol=1e-10, rtol=0)
                assert abs(s.prob1 - want[1, 1].real) < 1e-10
                assert abs(s.purity - np.trace(want @ want).real) < 1e-10

    def test_degenerate_points(self):
        # wires 0 and 1 hold a Bell pair, each at the Bloch centre; wire 2
        # is |1> and wire 3 is |0>, on the z-axis
        psi = engine.run_circuit(parse_circuit("qubits 4\nH 0\nCX 0 1\nX 2\n"))
        eps = analysis.BLOCH_DEGENERATE_EPS
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a bare z / r at r = 0 would warn
            swept = analysis.all_qubit_stats(psi, 4)
            single = [
                analysis.qubit_stats(analysis.partial_trace_state(4, psi, [q], keep=True))
                for q in range(4)
            ]
        for stats in (swept, single):
            assert [s.r < eps for s in stats] == [True, True, False, False]
            assert [math.hypot(s.x, s.y) < eps for s in stats] == [True] * 4
            for s in stats:
                assert s.phi == 0.0
                if s.r < eps:
                    assert s.theta == 0.0
                zeros = [v for v in dataclasses.astuple(s) if v == 0.0]
                assert all(math.copysign(1.0, v) == 1.0 for v in zeros)  # no -0.0
            assert stats[2].theta == math.pi and stats[3].theta == 0.0

    def test_bits_do_not_follow_the_blas_thread_count(self):
        # each child makes the state itself: random_state's bits follow no
        # thread count either
        code = (
            "import dataclasses, sys, numpy as np\n"
            "from qwsim import analysis, linalg\n"
            "psi = linalg.random_state(17, np.random.default_rng(19))\n"
            "rows = analysis.all_qubit_stats(psi, 17)\n"
            "sys.stdout.write(np.array([dataclasses.astuple(r) for r in rows]).tobytes().hex())\n"
        )
        bits = stdout_at_one_and_two_blas_threads(code)
        assert len(bits[0]) == 17 * 9 * 16 and bits[0] == bits[1]


class TestNonFiniteInputs:
    """A NaN or inf entry is refused, never turned into NaN statistics."""

    def test_qubit_stats_of_all_nan(self):
        with pytest.raises(ContractError, match="non-finite"):
            analysis.qubit_stats(np.full((2, 2), np.nan))

    def test_pair_stats_with_one_nan_diagonal_entry(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[2, 2] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            analysis.pair_stats(rho)

    def test_von_neumann_entropy_of_nan_matrix(self):
        with pytest.raises(ContractError, match="non-finite"):
            analysis.von_neumann_entropy(np.full((4, 4), np.nan))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_entry(self, bad):
        # symmetric off-diagonal placement: Hermitian in form, trace 1
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 1] = rho[1, 0] = bad
        with pytest.raises(ContractError, match="non-finite"):
            check_density_matrix(rho)
        with pytest.raises(ContractError, match="non-finite"):
            analysis.qubit_stats(rho)
        pair = np.eye(4, dtype=complex) / 4
        pair[0, 3] = pair[3, 0] = bad
        with pytest.raises(ContractError, match="non-finite"):
            analysis.concurrence(pair)

    def test_purity_of_nan_matrix(self):
        with pytest.raises(ContractError, match="non-finite"):
            analysis.purity(np.full((2, 2), np.nan))

    def test_nan_state(self):
        psi = np.full(4, np.nan)
        with pytest.raises(ContractError, match="non-finite"):
            analysis.probability_of_one(psi, 0)
        with pytest.raises(ContractError, match="non-finite"):
            analysis.partial_trace_state(2, psi, [0])
        with pytest.raises(ContractError, match="non-finite"):
            measure_qubit(psi, 2, 1)

    def test_inf_on_the_outcome_zero_side(self):
        # the outcome-1 sum alone is finite, and M @ M^H makes a NaN of the inf
        psi = np.array([np.inf, 0, 0, 0], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="non-finite"):
                analysis.probability_of_one(psi, 0)
            with pytest.raises(ContractError, match="non-finite"):
                measure_qubit(psi, 2, 0)
            with pytest.raises(ContractError, match="non-finite"):
                analysis.partial_trace_state(2, psi, [0])


class TestDensityGate:
    """Entropy and concurrence refuse every matrix the density check refuses."""

    def test_side_not_a_power_of_two_is_refused(self):
        with pytest.raises(ContractError, match="^density matrix dimension 3 is not a power of two$"):
            check_density_matrix(np.eye(3) / 3)

    def test_trace_two_is_refused(self):
        for rho in (np.eye(2), np.eye(4) / 2):
            with pytest.raises(ContractError, match="trace is not 1"):
                analysis.von_neumann_entropy(rho)
        with pytest.raises(ContractError, match="trace is not 1"):
            analysis.concurrence(2 * np.eye(4))

    def test_negative_eigenvalue_is_refused(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0])  # Hermitian, trace 1
        for stat in (analysis.von_neumann_entropy, analysis.concurrence):
            with pytest.raises(ContractError, match="negative eigenvalue"):
                stat(rho)

    def test_pair_stats_solves_for_the_spectrum_once(self, monkeypatch):
        # one eigensolve of rho, plus one of the concurrence product
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda a, real=real, name=name: calls.append(name) or real(a)
            )
        rho = analysis.partial_trace_state(3, mixed_pair_state(), [0, 1], keep=True)
        p = analysis.pair_stats(rho)
        assert calls == ["eigh", "eigvalsh"]
        assert abs(p.concurrence - 1.0) < 1e-9
        calls.clear()
        analysis.qubit_stats(np.eye(2) / 2)
        assert calls == ["eigvalsh"]  # one call for a stack of one
        calls.clear()
        analysis.all_qubit_stats(linalg.random_state(6, np.random.default_rng(9)), 6)
        assert calls == ["eigvalsh"]  # and one for the stack of all six wires


def _spectrum_2x2(lo: float, hi: float) -> np.ndarray:
    """A Hermitian 2x2 with eigenvalues ``lo`` and ``hi`` and complex off-diagonals."""
    u = np.array([[np.cos(0.3), -np.exp(-0.7j) * np.sin(0.3)],
                  [np.exp(0.7j) * np.sin(0.3), np.cos(0.3)]])
    return (u * [lo, hi]) @ u.conj().T


class TestClosedFormGate:
    """The gate refuses the same 2x2s by every entry point that reads one,
    and its spectrum of a 2x2 is LAPACK's, also on a stack."""

    ENTRY_POINTS = {
        "qubit_stats": analysis.qubit_stats,
        "purity": analysis.purity,
        "von_neumann_entropy": analysis.von_neumann_entropy,
        "check_density_matrix": check_density_matrix,
        # the stack the per-qubit sweep hands the gate, the matrix in the middle
        "all_qubit_stats stack": lambda rho: analysis._density_gate(
            np.stack([np.eye(2) / 2, rho, np.eye(2) / 2]).astype(complex), 1
        ),
    }

    @pytest.mark.parametrize("rho, message", [
        (_spectrum_2x2(-2e-9, 1 + 2e-9), "^density matrix has a negative eigenvalue$"),
        (np.array([[0.5, 0.25], [0.25 + 2e-10j, 0.5]]), "^matrix is not Hermitian within tolerance$"),
        (np.diag([0.5 + 2e-10, 0.5]), "^density matrix trace is not 1$"),
    ], ids=["eigenvalue -2e-9", "not Hermitian", "trace 1+2e-10"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_refused(self, entry, rho, message):
        with pytest.raises(ContractError, match=message):
            self.ENTRY_POINTS[entry](rho)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_eigenvalue_within_tolerance_is_accepted(self, entry):
        rho = _spectrum_2x2(-5e-10, 1 + 5e-10)
        assert analysis._density_gate(rho)[1][0] == pytest.approx(-5e-10, abs=1e-15)
        self.ENTRY_POINTS[entry](rho)

    def test_closed_form_equals_lapack(self):
        rng = np.random.default_rng(44)
        pure = linalg.random_state(1, rng)
        rhos = [np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.outer(pure, pure.conj())]
        for k in range(996):
            m = rng.standard_normal((2, 1 + k % 2)) + 1j * rng.standard_normal((2, 1 + k % 2))
            rho = m @ m.conj().T  # rank 1 for even k
            rhos.append(rho / np.trace(rho).real)
        stack = np.array(rhos, dtype=complex)
        w = analysis._density_gate(stack, 1)[1]
        lapack = np.linalg.eigvalsh(linalg._hermitian_part(stack))
        np.testing.assert_allclose(w, lapack, rtol=0, atol=1e-15)
        for rho, want in zip(rhos[:50], lapack):
            np.testing.assert_allclose(analysis._density_gate(rho)[1], want, rtol=0, atol=1e-15)


class TestPurityEntropy:
    def test_purity_checks_its_matrix(self):
        with pytest.raises(ContractError, match="trace is not 1"):
            analysis.purity(3 * np.eye(2))
        with pytest.raises(DimensionError, match="must be square"):
            analysis.purity(np.full((2, 3), 0.5))

    def test_pure_state_extremes(self):
        psi = mixed_pair_state()
        bell = analysis.partial_trace_state(3, psi, [0, 1], keep=True)
        assert abs(analysis.purity(bell) - 1.0) < 1e-10
        assert abs(analysis.von_neumann_entropy(bell)) < 1e-9

    def test_maximally_mixed_extremes(self):
        for k in (1, 2):
            rho = np.eye(1 << k, dtype=complex) / (1 << k)
            assert abs(analysis.purity(rho) - 1.0 / (1 << k)) < 1e-12
            assert abs(analysis.von_neumann_entropy(rho) - k) < 1e-9

    def test_mixed_pair_cross_cut(self):
        # tracing out wire 0 of the Bell+spectator state leaves purity 1/2
        psi = mixed_pair_state()
        rho = analysis.partial_trace_state(3, psi, [1, 2], keep=True)
        assert abs(analysis.purity(rho) - 0.5) < 1e-10
        assert abs(analysis.von_neumann_entropy(rho) - 1.0) < 1e-9

    def test_cut_respecting_circuits_leave_both_halves_pure(self):
        # gates confined to one side of a bipartition never entangle across
        # it, so both reduced matrices must stay pure
        rng = np.random.default_rng(12)
        for _ in range(5):
            low = random_circuit(2, 8, rng)  # wires 0,1
            high = random_circuit(2, 8, rng)  # relabeled onto wires 2,3
            lines = ["qubits 4"]
            lines += format_circuit(low).splitlines()[1:]
            for op in high.ops:
                controls = " ".join(
                    f"{'c' if v else 'a'}={w + 2}" for w, v in op.controls.entries
                )
                targets = " ".join(str(t + 2) for t in op.targets)
                lines.append(f"{op.gate} {targets} {controls}".strip())
            psi = engine.run_circuit(parse_circuit("\n".join(lines) + "\n"))
            for sub in ([0, 1], [2, 3]):
                rho = analysis.partial_trace_state(4, psi, sub, keep=True)
                assert abs(analysis.purity(rho) - 1.0) < 1e-10

    def test_frozen_rank_two_projector_entropy(self):
        # reduced state of a Bell pair plus a |+> spectator, worked by hand:
        # spectrum [0, 0, 1/2, 1/2], so exactly one bit
        rho = np.array(
            [
                [0.25, 0, 0.25, 0],
                [0, 0.25, 0, 0.25],
                [0.25, 0, 0.25, 0],
                [0, 0.25, 0, 0.25],
            ],
            dtype=complex,
        )
        assert abs(analysis.von_neumann_entropy(rho) - 1.0) < 1e-9

    def test_pure_state_entropy_is_positive_zero(self):
        # the sum over a spectrum of ones and zeros is 0.0; its negation
        # must not leak out as -0.0
        s = analysis.von_neumann_entropy(np.diag([1.0, 0.0]))
        pair = analysis.pair_stats(np.diag([1.0, 0, 0, 0])).von_neumann_entropy
        assert s == 0.0 and math.copysign(1.0, s) == 1.0
        assert pair == 0.0 and math.copysign(1.0, pair) == 1.0

    def test_entropy_bounds_on_random_reduced_states(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            psi = linalg.random_state(n, rng)
            k = int(rng.integers(1, 3))
            sub = sorted(int(q) for q in rng.choice(n, size=k, replace=False))
            rho = analysis.partial_trace_state(n, psi, sub, keep=True)
            p = analysis.purity(rho)
            s = analysis.von_neumann_entropy(rho)
            assert 1.0 / (1 << k) - 1e-9 <= p <= 1.0 + 1e-9
            assert -1e-9 <= s <= k + 1e-9


class TestConcurrence:
    def test_bell_state_is_maximal(self):
        bell = engine.run_circuit(parse_circuit("qubits 2\nH 0\nCX 0 1\n"))
        assert abs(analysis.concurrence(np.outer(bell, bell.conj())) - 1.0) < 1e-9

    def test_product_states_are_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = linalg.random_state(1, rng)
            b = linalg.random_state(1, rng)
            psi = np.kron(a, b)
            assert analysis.concurrence(np.outer(psi, psi.conj())) < 1e-9

    def test_maximally_mixed_is_zero(self):
        assert analysis.concurrence(np.eye(4, dtype=complex) / 4) == 0.0

    def test_werner_family_closed_form(self):
        bell = engine.run_circuit(parse_circuit("qubits 2\nH 0\nCX 0 1\n"))
        pure = np.outer(bell, bell.conj())
        for p in (0.1, 1 / 3, 0.5, 0.9):
            rho = p * pure + (1 - p) * np.eye(4) / 4
            expect = max(0.0, (3 * p - 1) / 2)
            assert abs(analysis.concurrence(rho) - expect) < 1e-9

    def test_range_on_random_reduced_states(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            psi = linalg.random_state(n, rng)
            sub = sorted(int(q) for q in rng.choice(n, size=2, replace=False))
            rho = analysis.partial_trace_state(n, psi, sub, keep=True)
            c = analysis.concurrence(rho)
            assert -1e-12 <= c <= 1.0 + 1e-9

    def test_pair_stats_bundle(self):
        psi = mixed_pair_state()
        rho = analysis.partial_trace_state(3, psi, [0, 1], keep=True)
        s = analysis.pair_stats(rho)
        assert abs(s.purity - 1.0) < 1e-10
        assert abs(s.concurrence - 1.0) < 1e-9
        assert abs(s.von_neumann_entropy) < 1e-9
        assert abs(s.linear_entropy) < 1e-10


class TestStabilizerRenyiEntropy:
    def test_zero_for_basis_states(self):
        assert abs(analysis.stabilizer_renyi_entropy(linalg.zero_state(3), 3)) < 1e-9

    def test_stabilizer_state_gives_positive_zero(self):
        # the log of an exact 1.0 is 0.0; its negation must not leak out as -0.0
        for psi, n in (([1, 0], 1), (linalg.zero_state(3), 3)):
            m = analysis.stabilizer_renyi_entropy(psi, n)
            assert m == 0.0 and math.copysign(1.0, m) == 1.0

    @pytest.mark.parametrize(
        "text",
        [
            "qubits 2\nH 0\nCX 0 1\n",
            "qubits 3\nH 0\nCX 0 1\nS 1\nH 2\nCX 2 1\nZ 0\n",
            "qubits 2\nH 0\nS 0\nH 1\nCX 1 0\nSDG 1\n",
        ],
    )
    def test_zero_for_stabilizer_circuits(self, text):
        circ = parse_circuit(text)
        psi = engine.run_circuit(circ)
        assert abs(analysis.stabilizer_renyi_entropy(psi, circ.n)) < 1e-9

    def test_t_gate_injects_known_magic(self):
        psi = engine.run_circuit(parse_circuit("qubits 1\nH 0\nT 0\n"))
        expect = np.log2(4.0 / 3.0)
        got = analysis.stabilizer_renyi_entropy(psi, 1)
        assert abs(got - expect) < 1e-10
        assert abs(got - 0.4150374992788438) < 1e-12  # frozen regression value

    def test_matches_dense_pauli_enumeration(self):
        rng = np.random.default_rng(11)
        states = [engine.run_circuit(random_circuit(n, 8, rng)) for n in (1, 2, 3)]
        states += [linalg.random_state(n, rng) for n in (4, 5)]
        for psi in states:
            n = psi.shape[0].bit_length() - 1
            total = 0.0
            for labels in np.ndindex(*(4,) * n):
                names = tuple("IXYZ"[k] for k in labels)
                p = dense_pauli_string(names)
                total += float(np.vdot(psi, p @ psi).real) ** 4
            expect = -np.log2(total / (1 << n))
            got = analysis.stabilizer_renyi_entropy(psi, n)
            assert abs(got - expect) < 1e-10

    def test_qubit_cap(self):
        # the cap itself is accepted: |0...0> is a stabilizer state
        n = analysis.STABILIZER_ENTROPY_MAX_QUBITS
        assert analysis.stabilizer_renyi_entropy(linalg.zero_state(n), n) == 0.0
        n += 1
        with pytest.raises(ResourceError) as err:
            analysis.stabilizer_renyi_entropy(np.zeros(1 << n, dtype=complex), n)
        # stated in bytes: the 4**n complex128 transform
        assert str(err.value) == (
            "stabilizer entropy refuses 11 qubits: its 4**11 table takes 64 MiB (cap 10, 16 MiB)"
        )

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ContractError):
            analysis.stabilizer_renyi_entropy(np.ones(2, dtype=complex), 1)


class TestGlobalPhaseInvariance:
    def test_all_statistics_ignore_global_phase(self):
        rng = np.random.default_rng(12)
        psi = engine.run_circuit(random_circuit(4, 12, rng))
        phase = np.exp(1j * 1.234)
        shifted = phase * psi
        for q in range(4):
            a = analysis.partial_trace_state(4, psi, [q], keep=True)
            b = analysis.partial_trace_state(4, shifted, [q], keep=True)
            np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(
            analysis.partial_trace_state(4, psi, [0, 2], keep=True),
            analysis.partial_trace_state(4, shifted, [0, 2], keep=True),
            atol=1e-12,
        )
        assert (
            abs(
                analysis.stabilizer_renyi_entropy(psi, 4)
                - analysis.stabilizer_renyi_entropy(shifted, 4)
            )
            < 1e-10
        )
        for q in range(4):
            assert (
                abs(
                    analysis.probability_of_one(psi, q)
                    - analysis.probability_of_one(shifted, q)
                )
                < 1e-12
            )
