import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qwsim import analysis, engine, gates, linalg, measurement, oracle
from qwsim.circuit import (
    Circuit, ControlSpec, GateOp, format_circuit, parse_circuit, random_circuit, swap_bits,
)
from qwsim.errors import ContractError, DimensionError, ResourceError, SimulationError


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
        assert linalg.check_unit_state(psi, n)[1] == n
        with pytest.raises(ContractError, match="not normalized"):
            linalg.check_unit_state(1.001 * psi, n)

    def test_random_state_seeded(self):
        a = linalg.random_state(4, np.random.default_rng(9))
        b = linalg.random_state(4, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_random_state_bits_do_not_follow_the_blas_thread_count(self):
        # BLAS reads its thread count once, when numpy loads it, so each count
        # gets its own child process; both are set here, since collecting
        # perfbench sets them to 1 in this process's environment
        code = (
            "import sys, numpy as np\n"
            "from qwsim import linalg\n"
            "sys.stdout.write(linalg.random_state(17, np.random.default_rng(5)).tobytes().hex())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        bits = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src,
                     "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(bits[0]) == (1 << 17) * 16 * 2 and bits[0] == bits[1]


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


def random_density_matrix(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestHermitianEig:
    """The one Hermitian eigensolve: LAPACK behind ``check_matrix`` and
    ``_hermitian_part``, as the density gate of ``analysis`` runs it."""

    def test_diagonal_passthrough(self):
        w = analysis._density_gate(np.diag([0.5, 0.5]))[1]
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
    def test_matches_independent_solver(self, dim):
        # a skew below STATE_ATOL passes the Hermitian test, whose exactly
        # Hermitian average has the spectrum of the Python-loop Jacobi
        # reference, which shares no code with LAPACK
        rng = np.random.default_rng(dim)
        skew = np.triu(np.full((dim, dim), 1e-11j), 1)
        for _ in range(20):
            m = random_hermitian(dim, rng)
            herm = linalg._hermitian_part(linalg.check_matrix(m + skew))
            np.testing.assert_array_equal(herm, herm.conj().T)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(herm),
                oracle.jacobi_eig(m)[0],
                atol=1e-9,
            )

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_eigenvectors_reconstruct(self, dim):
        rng = np.random.default_rng(40 + dim)
        rho = random_density_matrix(dim, rng)
        _, w, v = analysis._density_gate(rho, vectors=True)
        np.testing.assert_allclose((v * w) @ v.conj().T, rho, atol=1e-9)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-9)

    def test_eigenvalues_ascending_and_sum_to_trace(self):
        rng = np.random.default_rng(77)
        w = analysis._density_gate(random_density_matrix(8, rng))[1]
        assert np.all(np.diff(w) >= 0)
        assert abs(w.sum() - 1.0) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError, match="not Hermitian"):
            analysis.check_density_matrix(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            analysis.check_density_matrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            analysis.check_density_matrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # symmetric placement, so a NaN-blind Hermitian test would pass it
        m = np.array([[0.5, bad], [bad, 0.5]], dtype=complex)
        with pytest.raises(ContractError, match="non-finite"):
            analysis.check_density_matrix(m)
        with pytest.raises(ContractError, match="non-finite"):
            analysis.check_density_matrix(np.diag([bad, 1.0]).astype(complex))


_PSI = linalg.zero_state(2)
_RHO = np.eye(4, dtype=complex) / 4
_X = gates.gate_matrix("X")

# every public entry point, called with a bad value in place of one qubit
# count or one wire
_TAKES_A_COUNT = {
    "Circuit": lambda v: Circuit(v),
    "apply_multi_qubit_gate": lambda v: engine.apply_multi_qubit_gate(v, _X, (0,), _PSI),
    "measure_qubit": lambda v: measurement.measure_qubit(_PSI, v, 0),
    "partial_trace_state": lambda v: analysis.partial_trace_state(v, _PSI, [0]),
    "partial_trace_matrix": lambda v: analysis.partial_trace_matrix(v, _RHO, [0]),
    "basis_state": lambda v: linalg.basis_state(v, 0),
    "stabilizer_renyi_entropy": lambda v: analysis.stabilizer_renyi_entropy(_PSI, v),
    "all_qubit_stats": lambda v: analysis.all_qubit_stats(_PSI, v),
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
_SWAP = gates.gate_matrix("SWAP")
_MEASURE_0 = parse_circuit("qubits 1\nMEASURE 0\n")

# every integer bound of a public entry point, one past each end: the call
# and the one message of linalg.check_int
_PAST_A_BOUND = {
    "check_qubit_count": (
        lambda: linalg.check_qubit_count(0), "qubit count must be at least 1, got 0"
    ),
    "check_wires below": (lambda: linalg.check_wires(2, (-1,)), "wire -1 is outside 0..1"),
    "check_wires above": (lambda: linalg.check_wires(2, (2,)), "wire 2 is outside 0..1"),
    "basis_state below": (
        lambda: linalg.basis_state(2, -1), "basis index -1 is outside 0..3"
    ),
    "basis_state above": (lambda: linalg.basis_state(2, 4), "basis index 4 is outside 0..3"),
    # a negative index had its bits exchanged in two's complement: -2 gave -3
    "swap_bits index": (lambda: swap_bits(-2, 0, 1), "index must be at least 0, got -2"),
    "swap_bits index -1": (lambda: swap_bits(-1, 0, 1), "index must be at least 0, got -1"),
    "swap_bits i": (lambda: swap_bits(5, -1, 0), "bit position -1 is outside 0..25"),
    "swap_bits j": (lambda: swap_bits(5, 0, -1), "bit position -1 is outside 0..25"),
    # a position is a wire; past the cap it used to build an int of that many bits
    "swap_bits i above": (
        lambda: swap_bits(5, 26, 0), "bit position 26 is outside 0..25"
    ),
    "swap_bits j above": (
        lambda: swap_bits(5, 0, 26), "bit position 26 is outside 0..25"
    ),
    "sample_shots": (
        lambda: measurement.sample_shots(_MEASURE_0, 0, 0), "shots must be at least 1, got 0"
    ),
    "sample_shots_deferred": (
        lambda: oracle.sample_shots_deferred(_MEASURE_0, 0, 0),
        "shots must be at least 1, got 0",
    ),
    "random_circuit": (
        lambda: random_circuit(2, -1, np.random.default_rng(0)),
        "depth must be at least 0, got -1",
    ),
    "ControlSpec.passes": (lambda: ControlSpec().passes(-1), "index must be at least 0, got -1"),
}

# every public entry point that takes a Circuit, called with something else
_TAKES_A_CIRCUIT = {
    "run_circuit": lambda v: engine.run_circuit(v),
    "run_with_branches": lambda v: measurement.run_with_branches(v),
    "sample_shots": lambda v: measurement.sample_shots(v, 10, 1),
    "format_circuit": lambda v: format_circuit(v),
    "simulate_naive": lambda v: oracle.simulate_naive(v),
    "measured_distribution": lambda v: oracle.measured_distribution(v),
    "sample_shots_deferred": lambda v: oracle.sample_shots_deferred(v, 10, 1),
}


def _controls(v):
    """A list of wires as control pairs; anything else stands as one entry."""
    return [(w, True) for w in v] if isinstance(v, list) else [v]


# every public entry point that takes a list of wires, called with a bad
# one: a non-list or a list that names a wire twice
_TAKES_WIRES = {
    "GateOp targets": lambda v: GateOp("SWAP", v),
    "GateOp controls": lambda v: GateOp("H", (0,), _controls(v)),
    "ControlSpec": lambda v: ControlSpec(_controls(v)),
    "apply_multi_qubit_gate targets": lambda v: engine.apply_multi_qubit_gate(2, _SWAP, v, _PSI),
    "apply_multi_qubit_gate controls": lambda v: engine.apply_multi_qubit_gate(
        2, _X, (0,), _PSI, _controls(v)
    ),
    "partial_trace_state": lambda v: analysis.partial_trace_state(2, _PSI, v),
    "partial_trace_matrix": lambda v: analysis.partial_trace_matrix(2, _RHO, v),
    "build_gate_full_matrix targets": lambda v: oracle.build_gate_full_matrix(2, "SWAP", v),
    "build_gate_full_matrix controls": lambda v: oracle.build_gate_full_matrix(
        2, "X", (0,), _controls(v)
    ),
    "swap_wires controls": lambda v: oracle.swap_wires(2, 0, 1, _PSI, _controls(v)),
}


def _assert_equal_results(a, b):
    """Two results of one entry point: arrays entry for entry, else by ``==``."""
    if isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


# every public entry point that takes a bool, called with a value for it:
# each used to read the value by its truth, so ``"False"`` meant True
_TAKES_A_BOOL = {
    "ControlSpec": (lambda v: ControlSpec([(1, v)]), "is_control"),
    "GateOp controls": (lambda v: GateOp("H", (0,), [(1, v)]), "is_control"),
    "apply_multi_qubit_gate controls": (
        lambda v: engine.apply_multi_qubit_gate(2, _X, (0,), _PSI, [(1, v)]), "is_control"
    ),
    "build_gate_full_matrix controls": (
        lambda v: oracle.build_gate_full_matrix(2, "X", (0,), [(1, v)]), "is_control"
    ),
    "partial_trace_state": (
        lambda v: analysis.partial_trace_state(2, _PSI, [0], keep=v), "keep"
    ),
    "partial_trace_matrix": (
        lambda v: analysis.partial_trace_matrix(2, _RHO, [0], keep=v), "keep"
    ),
    "random_circuit": (
        lambda v: random_circuit(3, 4, np.random.default_rng(0), single_qubit_only=v),
        "single_qubit_only",
    ),
}


class TestArgumentContract:
    """A bad count or wire raises a SimulationError, never a bare
    ValueError, and a float is refused rather than truncated."""

    @pytest.mark.parametrize("bad", ["False", "no", None, [], 1.0, 0.0, 2, -1, np.float64(1)])
    @pytest.mark.parametrize("entry", sorted(_TAKES_A_BOOL))
    def test_a_non_bool_flag_is_refused(self, entry, bad):
        call, what = _TAKES_A_BOOL[entry]
        with pytest.raises(ContractError) as err:
            call(bad)
        assert str(err.value) == f"{what} must be a bool, got {bad!r}"

    @pytest.mark.parametrize("entry", sorted(_TAKES_A_BOOL))
    def test_a_bool_flag_is_read_as_given(self, entry):
        call, _ = _TAKES_A_BOOL[entry]
        for flag in (True, np.True_, 1, np.int64(1)):
            _assert_equal_results(call(flag), call(True))
        for flag in (False, np.False_, 0, np.int8(0)):
            _assert_equal_results(call(flag), call(False))

    def test_check_bool_returns_a_plain_bool(self):
        for value, want in ((np.True_, True), (np.int64(0), False), (1, True), (False, False)):
            got = linalg.check_bool(value, "flag")
            assert type(got) is bool and got is want

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

    @pytest.mark.parametrize("entry", sorted(_PAST_A_BOUND))
    def test_every_bound_has_the_one_message(self, entry):
        call, message = _PAST_A_BOUND[entry]
        with pytest.raises(ContractError) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize("entry", sorted(_TAKES_A_CIRCUIT))
    def test_a_non_circuit_is_refused(self, entry):
        # circuit.check_circuit, the one check at each of these entries
        with pytest.raises(ContractError, match="^expected a Circuit, got str$"):
            _TAKES_A_CIRCUIT[entry]("x")

    @pytest.mark.parametrize("bad", [0, None])
    @pytest.mark.parametrize("entry", sorted(_TAKES_WIRES))
    def test_non_list_of_wires(self, entry, bad):
        with pytest.raises(ContractError):
            _TAKES_WIRES[entry](bad)

    @pytest.mark.parametrize("entry", sorted(_TAKES_WIRES))
    def test_repeated_wire(self, entry):
        with pytest.raises(ContractError, match="wire 1 is named more than once$"):
            _TAKES_WIRES[entry]([1, 1])

    def test_a_wire_named_as_target_and_control_has_the_one_message(self):
        for call in (
            lambda: GateOp("X", (1,), [(1, False)]),
            lambda: engine.apply_multi_qubit_gate(2, _X, (1,), _PSI, [(1, True)]),
            lambda: oracle.build_gate_full_matrix(2, "X", (1,), [(1, True)]),
            lambda: oracle.swap_wires(2, 0, 1, _PSI, [(1, True)]),
            lambda: oracle.swap_wires(2, 1, 1, _PSI),
            lambda: linalg.check_wires(2, (1, 0, 1)),
        ):
            with pytest.raises(ContractError) as err:
                call()
            assert str(err.value) == "wire 1 is named more than once"

    def test_malformed_arguments_are_simulation_errors(self):
        # a malformed list of wires, controls or ops is a ContractError,
        # never a bare TypeError or ValueError
        for call in (
            lambda: GateOp("H", 0),
            lambda: GateOp("H", (0,), [1]),
            lambda: ControlSpec(5),
            lambda: ControlSpec([(1,)]),
            lambda: engine.apply_multi_qubit_gate(2, np.eye(2), 0, _PSI),
            lambda: analysis.partial_trace_state(2, _PSI, 0),
            lambda: oracle.build_gate_full_matrix(2, "H", 0),
            lambda: linalg.check_wires(2, None),
            lambda: Circuit(2, 5),
            lambda: Circuit(2, None),
            lambda: Circuit(2, ["H 0"]),
        ):
            with pytest.raises(ContractError):
                call()
        # a public entry given the wrong type names the type it got, where
        # each of these raised a bare TypeError or AttributeError
        for call, name in (
            (lambda: parse_circuit(b"qubits 1\n"), "bytes"),
            (lambda: parse_circuit(None), "NoneType"),
            (lambda: parse_circuit(5), "int"),
            (lambda: random_circuit(2, 3, None), "NoneType"),
            (lambda: random_circuit(2, 3, np.random.RandomState(0)), "RandomState"),
            (lambda: linalg.random_state(2, None), "NoneType"),
            (lambda: linalg.random_state(2, np.random.RandomState(0)), "RandomState"),
        ):
            with pytest.raises(ContractError, match=f"got {name}$"):
                call()

    def test_numpy_integers_are_accepted(self):
        two, one = np.int64(2), np.int32(1)
        op = GateOp("H", (one,), ControlSpec(((np.uint8(0), True),)))
        assert op.wires == (1, 0) and all(type(w) is int for w in op.wires)
        assert Circuit(two, (op,)).n == 2
        flipped = engine.apply_multi_qubit_gate(two, _X, (one,), _PSI)
        assert np.array_equal(flipped, linalg.basis_state(two, np.int64(2)))
        assert measurement.measure_qubit(flipped, two, one)[1].probability == 1.0
        assert analysis.probability_of_one(flipped, one) == 1.0
        assert analysis.partial_trace_state(two, flipped, [one], keep=True)[1, 1] == 1.0
        assert analysis.partial_trace_matrix(two, _RHO, [one]).shape == (2, 2)
        assert np.array_equal(oracle.simulate_naive(Circuit(two), flipped), flipped)
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
            lambda: oracle.simulate_naive(Circuit(2), short),
            lambda: engine.apply_multi_qubit_gate(2, _X, (0,), short),
            lambda: measurement.measure_qubit(short, 2, 0),
            lambda: analysis.partial_trace_state(2, short, [0]),
            lambda: analysis.all_qubit_stats(short, 2),
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
            for bad in (np.full((2, 3), 0.5), np.zeros((0, 0))):
                with pytest.raises(DimensionError, match="square and non-empty"):
                    call(bad)

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
            lambda: oracle.simulate_naive(Circuit(1), ["a", "b"]),
            lambda: engine.apply_multi_qubit_gate(1, np.eye(2), (0,), ["a", "b"]),
            lambda: analysis.probability_of_one(["a", "b"], 0),
            lambda: oracle.swap_wires(2, 0, 1, ["a", "b", "c", "d"]),
        ):
            with pytest.raises(ContractError, match="array of numbers"):
                call()

    def test_hermitian_bound_is_the_state_tolerance(self):
        off = np.array([[0.5, 0.0], [5e-10, 0.5]])  # within 1e-9, beyond 1e-10
        for call in (oracle.jacobi_eig, analysis.check_density_matrix):
            with pytest.raises(ContractError, match="not Hermitian"):
                call(off)
        off[1, 0] = 5e-11
        assert analysis.check_density_matrix(off) == 1


class TestStackedDensityGate:
    """The density gate checks each matrix of a ``(k, d, d)`` stack."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.eye(2), "trace is not 1"),
            (np.array([[0.5, 0.5], [-0.5, 0.5]]), "not Hermitian"),
            (np.diag([1.5, -0.5]), "negative eigenvalue"),
        ],
    )
    def test_one_bad_matrix_in_a_stack_fails_the_gate(self, bad, message):
        # the stack the per-qubit sweep hands the gate, with only its middle
        # matrix bad, is refused as that matrix alone is
        good = np.eye(2, dtype=complex) / 2
        with pytest.raises(ContractError) as alone:
            analysis.qubit_stats(bad)
        with pytest.raises(ContractError, match=message) as stacked:
            analysis._density_gate(np.stack([good, bad, good]).astype(complex), 1)
        assert str(stacked.value) == str(alone.value)


_PURE = parse_circuit("qubits 2\nH 0\n")
_MEASURED = parse_circuit("qubits 2\nH 0\nMEASURE 0\n")

# every public entry point that reads a state as probabilities, called
# with a bad 2-qubit state
_TAKES_A_UNIT_STATE = {
    "measure_qubit": lambda psi: measurement.measure_qubit(psi, 2, 1),
    "probability_of_one": lambda psi: analysis.probability_of_one(psi, 1),
    "partial_trace_state": lambda psi: analysis.partial_trace_state(2, psi, [0]),
    "stabilizer_renyi_entropy": lambda psi: analysis.stabilizer_renyi_entropy(psi, 2),
    "all_qubit_stats": lambda psi: analysis.all_qubit_stats(psi, 2),
    "run_circuit": lambda psi: engine.run_circuit(_PURE, psi),
    "run_with_branches": lambda psi: measurement.run_with_branches(_MEASURED, psi),
    "sample_shots": lambda psi: measurement.sample_shots(_MEASURED, 10, 0, psi),
    "simulate_naive": lambda psi: oracle.simulate_naive(_PURE, psi),
    "sample_shots_deferred": lambda psi: oracle.sample_shots_deferred(_MEASURED, 10, 0, psi),
}
_BAD_STATES = {
    "norm 2": ([1, 1, 0, 0], "not normalized"),
    "norm 0.02": ([0.1, 0.1, 0, 0], "not normalized"),
    "nan": ([1, 0, 0, np.nan], "non-finite"),
    "inf": ([0, 0, np.inf, 0], "non-finite"),
    # finite amplitudes whose squared norm overflows
    "overflow": ([1e200, 0, 0, 0], "not normalized"),
}


class TestStateContract:
    """A state read as probabilities passes the one unit-state check; a
    vector that a gate maps passes the length check only."""

    @pytest.mark.parametrize("bad", sorted(_BAD_STATES))
    @pytest.mark.parametrize("entry", sorted(_TAKES_A_UNIT_STATE))
    def test_bad_state_is_a_contract_error(self, entry, bad):
        psi, message = _BAD_STATES[bad]
        with pytest.raises(ContractError, match=message):
            _TAKES_A_UNIT_STATE[entry](np.array(psi, dtype=complex))

    def test_gates_map_any_vector(self):
        ones = np.array([1, 1], dtype=complex)
        expect = [np.sqrt(2), 0]
        out = engine.apply_multi_qubit_gate(1, gates.gate_matrix("H"), (0,), ones)
        np.testing.assert_allclose(out, expect, atol=1e-15)
