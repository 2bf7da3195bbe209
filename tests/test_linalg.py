import numpy as np
import pytest

from qwsim import analysis, engine, gates, linalg, measurement, oracle
from qwsim.circuit import Circuit, GateOp
from qwsim.engine import ControlSpec
from qwsim.errors import ContractError, DimensionError, ResourceError, SimulationError


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
        w = linalg.hermitian_eig(np.diag([0.5, 0.5]).astype(complex))[0]
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_pauli_x_spectrum(self):
        w = linalg.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))[0]
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
        w = linalg.hermitian_eig(rho)[0]
        np.testing.assert_allclose(w, [0.0, 0.0, 0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
    def test_matches_independent_solver(self, dim):
        # the Python-loop Jacobi reference shares no code with LAPACK
        rng = np.random.default_rng(dim)
        for _ in range(20):
            m = random_hermitian(dim, rng)
            np.testing.assert_allclose(
                linalg.hermitian_eig(m)[0],
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
        w = linalg.hermitian_eig(m)[0]
        assert np.all(np.diff(w) >= 0)
        assert abs(w.sum() - np.trace(m).real) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))[0]

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            linalg.hermitian_eig(np.zeros((2, 3)))[0]

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            linalg.hermitian_eig(np.zeros((0, 0)))[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # symmetric placement, so a NaN-blind Hermitian check would pass it
        m = np.array([[0.5, bad], [bad, 0.5]], dtype=complex)
        with pytest.raises(ContractError, match="non-finite"):
            linalg.hermitian_eig(m)[0]
        with pytest.raises(ContractError, match="non-finite"):
            linalg.hermitian_eig(np.diag([bad, 1.0]).astype(complex))[0]

    def test_one_by_one(self):
        w, v = linalg.hermitian_eig(np.array([[2.5]], dtype=complex))
        assert w[0] == 2.5
        assert v[0, 0] == 1.0


_PSI = linalg.zero_state(2)
_RHO = np.eye(4, dtype=complex) / 4
_X = gates.gate_matrix("X")

# every public entry point, called with a bad value in place of one qubit
# count or one wire
_TAKES_A_COUNT = {
    "Circuit": lambda v: Circuit(v),
    "apply_multi_qubit_gate": lambda v: engine.apply_multi_qubit_gate(v, _X, (0,), _PSI),
    "apply_op": lambda v: engine.apply_op(v, GateOp("X", (0,)), _PSI),
    "measure_qubit": lambda v: measurement.measure_qubit(_PSI, v, 0),
    "partial_trace_state": lambda v: analysis.partial_trace_state(v, _PSI, [0]),
    "partial_trace_matrix": lambda v: analysis.partial_trace_matrix(v, _RHO, [0]),
    "basis_state": lambda v: linalg.basis_state(v, 0),
    "initial_state": lambda v: linalg.initial_state(v, _PSI),
    "stabilizer_renyi_entropy": lambda v: analysis.stabilizer_renyi_entropy(_PSI, v),
}
_TAKES_A_WIRE = {
    "GateOp": lambda v: GateOp("H", (v,)),
    "ControlSpec": lambda v: ControlSpec(((v, True),)),
    "apply_multi_qubit_gate": lambda v: engine.apply_multi_qubit_gate(2, _X, (v,), _PSI),
    "measure_qubit": lambda v: measurement.measure_qubit(_PSI, 2, v),
    "probability_of_one": lambda v: analysis.probability_of_one(_PSI, v),
    "partial_trace_state": lambda v: analysis.partial_trace_state(2, _PSI, [v]),
    "partial_trace_matrix": lambda v: analysis.partial_trace_matrix(2, _RHO, [v]),
    "basis_state": lambda v: linalg.basis_state(2, v),  # a basis index
}


class TestArgumentContract:
    """A bad count or wire raises a SimulationError, never a bare
    ValueError, and a float is refused rather than truncated."""

    @pytest.mark.parametrize("bad", [-1, "a", 1.7, 2.5])
    @pytest.mark.parametrize("entry", sorted(_TAKES_A_COUNT))
    def test_bad_qubit_count(self, entry, bad):
        with pytest.raises(SimulationError):
            _TAKES_A_COUNT[entry](bad)

    @pytest.mark.parametrize("bad", ["a", 1.7, 2.5])
    @pytest.mark.parametrize("entry", sorted(_TAKES_A_WIRE))
    def test_bad_wire(self, entry, bad):
        with pytest.raises(SimulationError):
            _TAKES_A_WIRE[entry](bad)

    def test_numpy_integers_are_accepted(self):
        two, one = np.int64(2), np.int32(1)
        op = GateOp("H", (one,), ControlSpec(((np.uint8(0), True),)))
        assert op.wires == (1, 0) and all(type(w) is int for w in op.wires)
        assert Circuit(two, (op,)).n == 2
        flipped = engine.apply_multi_qubit_gate(two, _X, (one,), _PSI)
        assert np.array_equal(flipped, linalg.basis_state(two, np.int64(2)))
        assert np.array_equal(engine.apply_op(two, GateOp("X", (one,)), _PSI), flipped)
        assert measurement.measure_qubit(flipped, two, one)[1].probability == 1.0
        assert analysis.probability_of_one(flipped, one) == 1.0
        assert analysis.partial_trace_state(two, flipped, [one], keep=True)[1, 1] == 1.0
        assert analysis.partial_trace_matrix(two, _RHO, [one]).shape == (2, 2)
        assert np.array_equal(linalg.initial_state(two, flipped), flipped)
        assert abs(analysis.stabilizer_renyi_entropy(flipped, two)) < 1e-12

    def test_float_wire_is_not_truncated(self):
        # before the one wire check these acted on wires 1 and 0
        with pytest.raises(ContractError, match="must be an integer"):
            GateOp("H", (1.7,))
        with pytest.raises(ContractError, match="must be an integer"):
            engine.apply_multi_qubit_gate(2, np.eye(2), [0.9], _PSI)
        with pytest.raises(ContractError, match="control wire must be an integer"):
            ControlSpec(((0.5, True),))

    def test_state_length_is_checked_once_for_every_caller(self):
        short = np.zeros(2, dtype=complex)
        for call in (
            lambda: linalg.initial_state(2, short),
            lambda: engine.apply_multi_qubit_gate(2, _X, (0,), short),
            lambda: measurement.measure_qubit(short, 2, 0),
            lambda: analysis.partial_trace_state(2, short, [0]),
            lambda: analysis.stabilizer_renyi_entropy(short, 2),
            lambda: oracle.swap_wires(2, 0, 1, short),
        ):
            with pytest.raises(DimensionError, match="state must have length 4 for 2 qubits"):
                call()
        for length in (0, 1, 3, 6):
            with pytest.raises(DimensionError):
                analysis.probability_of_one(np.zeros(length, dtype=complex), 0)


_PSI1 = linalg.zero_state(1)
# symmetric, so a Hermitian test alone would pass it
_NAN = np.array([[0.5, np.nan], [np.nan, 0.5]])

# every public entry point that takes a matrix, called with a bad one
_TAKES_A_MATRIX = {
    "check_matrix": linalg.check_matrix,
    "hermitian_eig": linalg.hermitian_eig,
    "jacobi_eig": oracle.jacobi_eig,
    "apply_multi_qubit_gate": lambda m: engine.apply_multi_qubit_gate(1, m, (0,), _PSI1),
    "partial_trace_matrix": lambda m: analysis.partial_trace_matrix(1, m, [0]),
    "partial_trace_by_definition": lambda m: oracle.partial_trace_by_definition(m, 1, [0]),
    "check_density_matrix": analysis.check_density_matrix,
    "purity": analysis.purity,
    "von_neumann_entropy": analysis.von_neumann_entropy,
    "qubit_stats": analysis.qubit_stats,
    "concurrence": analysis.concurrence,
    "pair_stats": analysis.pair_stats,
}


class TestMatrixContract:
    """Every matrix argument goes through the one matrix check."""

    def test_non_square_matrix_is_a_dimension_error(self):
        for call in _TAKES_A_MATRIX.values():
            with pytest.raises(DimensionError, match="square"):
                call(np.full((2, 3), 0.5))

    def test_non_numeric_matrix_is_a_contract_error(self):
        for call in _TAKES_A_MATRIX.values():
            with pytest.raises(ContractError, match="array of numbers"):
                call([["a", 0], [0, 1]])

    def test_non_finite_matrix_is_a_contract_error(self):
        for call in _TAKES_A_MATRIX.values():
            with pytest.raises(ContractError, match="non-finite"):
                call(_NAN)

    def test_is_unitary_stays_a_predicate(self):
        for bad in (np.full((2, 3), 0.5), [["a", 0], [0, 1]], _NAN, np.zeros((0, 0))):
            assert not linalg.is_unitary(bad)

    def test_wrong_side_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match="must be 4x4"):
            linalg.check_matrix(np.eye(2), 4)
        with pytest.raises(DimensionError, match="must be 2x2"):
            engine.apply_multi_qubit_gate(1, np.eye(4), (0,), _PSI1)
        with pytest.raises(DimensionError, match="must be 4x4"):
            analysis.partial_trace_matrix(2, np.eye(2), [0])

    def test_non_numeric_state_is_a_contract_error(self):
        for call in (
            lambda: linalg.initial_state(1, ["a", "b"]),
            lambda: engine.apply_multi_qubit_gate(1, np.eye(2), (0,), ["a", "b"]),
            lambda: analysis.probability_of_one(["a", "b"], 0),
            lambda: oracle.swap_wires(2, 0, 1, ["a", "b", "c", "d"]),
        ):
            with pytest.raises(ContractError, match="array of numbers"):
                call()

    def test_hermitian_bound_is_the_state_tolerance(self):
        off = np.array([[0.5, 0.0], [5e-10, 0.5]])  # within 1e-9, beyond 1e-10
        for call in (linalg.hermitian_eig, oracle.jacobi_eig, analysis.check_density_matrix):
            with pytest.raises(ContractError, match="not Hermitian"):
                call(off)
        off[1, 0] = 5e-11
        assert analysis.check_density_matrix(off) == 1
