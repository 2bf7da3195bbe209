import itertools
import tracemalloc

import numpy as np
import pytest

from qwsim import analysis, engine, linalg, measurement, oracle
from qwsim.circuit import Circuit, ControlSpec, GateOp, format_circuit, parse_circuit, random_circuit
from qwsim.errors import ContractError, DimensionError, ParseError
from qwsim.gates import MEASURE, gate_def, gate_names

_SQ2 = 1.0 / np.sqrt(2.0)


def measured_circuit(rng, n):
    """Random catalog gates on the live wires, with MEASUREs between them.

    Every gate draws its targets, controls and anticontrols from the wires
    not yet measured, so measuring at the end instead gives the same joint
    distribution.  Wires left untouched measure deterministically and prune.
    """
    live = list(range(n))
    ops = []
    for _ in range(int(rng.integers(2, 3 * n))):
        if rng.random() < 0.3:
            ops.append(GateOp(MEASURE, (live.pop(int(rng.integers(len(live)))),)))
            if not live:
                break
            continue
        names = [g for g in gate_names() if gate_def(g).arity <= len(live)]
        name = names[int(rng.integers(len(names)))]
        targets = tuple(int(t) for t in rng.choice(live, gate_def(name).arity, replace=False))
        controls = tuple(
            (w, bool(rng.random() < 0.5))
            for w in live
            if w not in targets and rng.random() < 0.2
        )
        ops.append(GateOp(name, targets, ControlSpec(controls)))
    if live and not any(op.gate == MEASURE for op in ops):
        ops.append(GateOp(MEASURE, (live[0],)))
    return Circuit(n, tuple(ops))


# circuits that reuse a measured wire, and the parser's refusal of each
_REUSE = {
    "qubits 3\nH 0\nMEASURE 0\nH 1\nMEASURE 1\nSWAP 0 2\n":
        "line 6: op 4 (SWAP 0 2) touches wire 0, which was measured",
    "qubits 3\nH 0\nMEASURE 2\nMEASURE 0\nX 1 a=2\n":
        "line 5: op 3 (X 1 a=2) touches wire 2, which was measured",
    "qubits 2\nH 0\nMEASURE 1\nMEASURE 0\nMEASURE 1\n":
        "line 5: op 3 (MEASURE 1): wire 1 measured twice",
}


def traced_peak(call) -> int:
    """tracemalloc's peak in bytes while ``call()`` runs, after a first,
    untraced call (which may import numpy.random)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_same_up_to_phase(a, b, atol=1e-12):
    """States may differ by a global phase; compare via the overlap."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.vdot(b, a)
    assert abs(abs(overlap) - 1.0) < atol, f"overlap magnitude {abs(overlap)}"
    np.testing.assert_allclose(a, overlap * b, atol=atol)


class TestMeasureQubit:
    def test_flip_phase_pair_top_wire(self):
        psi = engine.run_circuit(
            parse_circuit("qubits 3\nH 1 ; X 2\nCX 1 0\nZ 0\nCX 1 2\n")
        )
        b0, b1 = measurement.measure_qubit(psi, 3, 2)
        assert abs(b0.probability - 0.5) < 1e-12
        assert abs(b1.probability - 0.5) < 1e-12
        # outcome 0 leaves -|11> on the remaining wires, outcome 1 leaves |00>
        assert_same_up_to_phase(b0.residual, linalg.basis_state(2, 0b11))
        np.testing.assert_allclose(b0.residual, -linalg.basis_state(2, 0b11), atol=1e-12)
        np.testing.assert_allclose(b1.residual, linalg.basis_state(2, 0b00), atol=1e-12)

    def test_deterministic_outcome_prunes_other_branch(self):
        b0, b1 = measurement.measure_qubit(linalg.zero_state(2), 2, 0)
        assert b0.probability == 1.0
        assert b1.probability == 0.0
        assert b1.residual is None
        np.testing.assert_allclose(b0.residual, linalg.zero_state(1), atol=1e-15)

    def test_single_qubit_register_leaves_scalar_state(self):
        psi = np.array([_SQ2, -_SQ2], dtype=complex)
        b0, b1 = measurement.measure_qubit(psi, 1, 0)
        assert abs(b0.probability - 0.5) < 1e-12
        assert b0.residual.shape == (1,)
        assert abs(abs(b1.residual[0]) - 1.0) < 1e-12

    def test_residuals_are_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            psi = linalg.random_state(n, rng)
            q = int(rng.integers(n))
            for br in measurement.measure_qubit(psi, n, q):
                if br.residual is not None:
                    assert abs(np.vdot(br.residual, br.residual).real - 1.0) < 1e-10

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            psi = linalg.random_state(n, rng)
            q = int(rng.integers(n))
            b0, b1 = measurement.measure_qubit(psi, n, q)
            assert abs(b0.probability + b1.probability - 1.0) < 1e-10

    def test_bit_removal_reindexes_higher_wires(self):
        # measure wire 1 of |q2 q1 q0> = |101>: outcome 0 certain,
        # remaining state is |q2 q0> = |11>
        psi = linalg.basis_state(3, 0b101)
        b0, _ = measurement.measure_qubit(psi, 3, 1)
        assert b0.probability == 1.0
        np.testing.assert_allclose(b0.residual, linalg.basis_state(2, 0b11), atol=1e-15)

    def test_residuals_equal_explicit_index_gather(self):
        rng = np.random.default_rng(4)
        for n in range(1, 7):
            psi = linalg.random_state(n, rng)
            for q in range(n):
                branches = measurement.measure_qubit(psi, n, q)
                for bit, br in enumerate(branches):
                    index = [k for k in range(1 << n) if (k >> q) & 1 == bit]
                    assert br.outcome == bit
                    assert np.array_equal(br.residual, psi[index] / np.sqrt(br.probability))
                    assert br.residual.flags.c_contiguous
                assert branches[1].probability == analysis.probability_of_one(psi, q)
                joint = oracle.measured_distribution(Circuit(n, (GateOp(MEASURE, (q,)),)), psi)
                for bit, br in enumerate(branches):
                    assert abs(br.probability - joint[bit]) < 1e-12

    @pytest.mark.parametrize("p0", [1e-13, 1e-12])
    def test_rare_outcome_keeps_a_unit_residual(self, p0):
        # Pr[0] taken as 1 - Pr[1] would be 3e-4 off here, and so would |r|**2
        a, b = np.sqrt(p0 / 2), np.sqrt((1 - p0) / 2)
        psi0 = np.array([a, b, 1j * a, -b])
        b0, _ = measurement.measure_qubit(psi0, 2, 0)
        assert abs(np.vdot(b0.residual, b0.residual).real - 1.0) < 1e-12
        direct = abs(psi0[0]) ** 2 + abs(psi0[2]) ** 2
        assert abs(b0.probability - direct) < 1e-12 * direct
        circ = parse_circuit("qubits 2\nMEASURE 0\nH 1\nMEASURE 1\n")
        leaves = measurement.run_with_branches(circ, psi0).leaves
        assert {(0, 0), (0, 1)} <= {leaf.outcomes for leaf in leaves}
        for leaf in leaves:
            assert abs(np.vdot(leaf.state, leaf.state).real - 1.0) < 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ContractError):
            measurement.measure_qubit(linalg.zero_state(2), 2, 2)
        with pytest.raises(DimensionError):
            measurement.measure_qubit(np.zeros(3, dtype=complex), 2, 0)


class TestRunWithBranches:
    def test_bell_measure_splits_evenly(self):
        tree = measurement.run_with_branches(
            parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\n")
        )
        assert tree.measured_wires == (0,)
        assert tree.wire_map == {0: None, 1: 0}
        assert len(tree.leaves) == 2
        by_outcome = {leaf.outcomes: leaf for leaf in tree.leaves}
        leaf0 = by_outcome[(0,)]
        leaf1 = by_outcome[(1,)]
        assert abs(leaf0.probability - 0.5) < 1e-12
        assert abs(leaf1.probability - 0.5) < 1e-12
        assert_same_up_to_phase(leaf0.state, linalg.basis_state(1, 0))
        assert_same_up_to_phase(leaf1.state, linalg.basis_state(1, 1))

    def test_no_measurements_gives_single_leaf(self):
        circ = parse_circuit("qubits 2\nH 0\nCX 0 1\n")
        tree = measurement.run_with_branches(circ)
        assert len(tree.leaves) == 1
        leaf = tree.leaves[0]
        assert leaf.outcomes == ()
        assert leaf.probability == 1.0
        np.testing.assert_allclose(leaf.state, engine.run_circuit(circ), atol=1e-12)

    def test_deterministic_measurement_prunes_to_one_leaf(self):
        tree = measurement.run_with_branches(parse_circuit("qubits 1\nX 0\nMEASURE 0\n"))
        assert len(tree.leaves) == 1
        assert tree.leaves[0].outcomes == (1,)
        assert abs(tree.leaves[0].probability - 1.0) < 1e-12

    def test_gates_after_measurement_use_shifted_wires(self):
        # after measuring wire 0, wire 1 occupies slot 0 of the residual;
        # the X on wire 1 must land there
        tree = measurement.run_with_branches(
            parse_circuit("qubits 2\nH 0\nMEASURE 0\nX 1\n")
        )
        assert len(tree.leaves) == 2
        for leaf in tree.leaves:
            np.testing.assert_allclose(leaf.state, linalg.basis_state(1, 1), atol=1e-12)

    def test_two_measurements_expand_to_four_leaves(self):
        tree = measurement.run_with_branches(
            parse_circuit("qubits 2\nH 0\nH 1\nMEASURE 0\nMEASURE 1\n")
        )
        assert sorted(leaf.outcomes for leaf in tree.leaves) == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        for leaf in tree.leaves:
            assert abs(leaf.probability - 0.25) < 1e-12
            assert leaf.state.shape == (1,)

    def test_correlated_measurements_prune_disagreeing_paths(self):
        tree = measurement.run_with_branches(
            parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\nMEASURE 1\n")
        )
        assert sorted(leaf.outcomes for leaf in tree.leaves) == [(0, 0), (1, 1)]

    def test_leaf_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        text = "qubits 3\nH 0\nT 1\nCX 0 1\nMEASURE 1\nH 2\nSQRTSWAP 0 2\nMEASURE 0\n"
        tree = measurement.run_with_branches(parse_circuit(text), linalg.random_state(3, rng))
        total = sum(leaf.probability for leaf in tree.leaves)
        assert abs(total - 1.0) < 1e-9

    # The circuit refuses a measured wire's reuse, so neither entry point
    # below can be handed such a circuit.
    def test_measuring_a_wire_twice_rejected(self):
        with pytest.raises(ParseError) as err:
            measurement.run_with_branches(parse_circuit("qubits 2\nH 0\nMEASURE 0\nMEASURE 0\n"))
        assert str(err.value) == "line 4: op 2 (MEASURE 0): wire 0 measured twice"

    def test_gate_on_measured_wire_rejected(self):
        with pytest.raises(ContractError) as err:
            Circuit(2, (GateOp(MEASURE, (0,)), GateOp("X", (0,))))
        assert str(err.value) == "op 1 (X 0) touches wire 0, which was measured"

    def test_control_on_measured_wire_rejected(self):
        with pytest.raises(ParseError) as err:
            measurement.run_with_branches(parse_circuit("qubits 2\nMEASURE 0\nX 1 c=0\n"))
        assert str(err.value) == "line 3: op 1 (X 1 c=0) touches wire 0, which was measured"

    @pytest.mark.parametrize("text", list(_REUSE))
    @pytest.mark.parametrize("entry", ["branches", "sample"])
    def test_measured_wire_reuse_rejected_by_both_entry_points(self, text, entry):
        with pytest.raises(ParseError) as err:
            circ = parse_circuit(text)
            if entry == "branches":
                measurement.run_with_branches(circ)
            else:
                measurement.sample_shots(circ, 10, 0)
        assert str(err.value) == _REUSE[text]

    def test_leaves_sorted_and_match_deferred_measurement(self):
        # No gate touches a wire once it is measured, so each leaf must be
        # the naive final state projected on its outcomes and renormalized.
        rng = np.random.default_rng(17)
        pruned = 0
        for k in range(30):
            n = int(rng.integers(2, 8))
            circ = measured_circuit(rng, n)
            psi0 = linalg.random_state(n, rng) if k % 4 == 0 else None
            plain = Circuit(n, tuple(op for op in circ.ops if op.gate != MEASURE))
            final = oracle.simulate_naive(plain, psi0).reshape([2] * n)  # axis a is wire n-1-a
            joint = oracle.measured_distribution(circ, psi0)
            tree = measurement.run_with_branches(circ, psi0)
            outcomes = [leaf.outcomes for leaf in tree.leaves]
            assert outcomes == sorted(outcomes)
            pruned += len(outcomes) < 2 ** len(tree.measured_wires)
            for leaf in tree.leaves:
                index = [slice(None)] * n
                for wire, bit in zip(tree.measured_wires, leaf.outcomes):
                    index[n - 1 - wire] = bit
                part = final[tuple(index)].reshape(-1)
                p = joint[leaf.outcomes]
                assert abs(leaf.probability - p) < 1e-10
                np.testing.assert_allclose(leaf.state, part / np.sqrt(p), rtol=0, atol=1e-10)
            assert abs(sum(leaf.probability for leaf in tree.leaves) - 1.0) < 1e-10
        assert pruned >= 5

    def test_branch_probabilities_match_outcome_chain(self):
        # P(outcomes) should equal the product of single-measure probabilities
        text = "qubits 2\nH 0\nT 0\nCX 0 1\nH 1\nMEASURE 0\nMEASURE 1\n"
        circ = parse_circuit(text)
        tree = measurement.run_with_branches(circ)
        prefix = parse_circuit("qubits 2\nH 0\nT 0\nCX 0 1\nH 1\n")
        psi = engine.run_circuit(prefix)
        b0, b1 = measurement.measure_qubit(psi, 2, 0)
        for first in (b0, b1):
            c0, c1 = measurement.measure_qubit(first.residual, 1, 0)
            for second in (c0, c1):
                if second.probability == 0.0:
                    continue
                want = first.probability * second.probability
                leaf = next(
                    l for l in tree.leaves
                    if l.outcomes == (first.outcome, second.outcome)
                )
                assert abs(leaf.probability - want) < 1e-12


class TestMeasuredCircuitText:
    """The constructor and the parser accept exactly the same circuits."""

    def test_format_round_trips(self):
        for seed in (64, 65, 66):
            rng = np.random.default_rng(seed)
            for n in range(2, 9):
                circ = measured_circuit(rng, n)
                assert parse_circuit(format_circuit(circ)) == circ

    @pytest.mark.parametrize(
        "reuse, message",
        [
            (GateOp(MEASURE, (0,)), "op 2 (MEASURE 0): wire 0 measured twice"),
            (GateOp("X", (1,), ((0, True),)), "op 2 (X 1 c=0) touches wire 0, which was measured"),
        ],
    )
    def test_reuse_refused_by_constructor_and_parser(self, reuse, message):
        ops = (GateOp("H", (0,)), GateOp(MEASURE, (0,)), reuse)
        with pytest.raises(ContractError) as err:
            Circuit(2, ops)
        assert str(err.value) == message
        assert err.value.op_index == 2
        text = format_circuit(Circuit(2, ops[:2])) + "# comment\n" + f"{reuse}\n"
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert str(err.value) == f"line 5: {message}"


class TestSampleShots:
    def test_same_seed_reproduces_history(self):
        circ = parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\nMEASURE 1\n")
        a = measurement.sample_shots(circ, 500, 42)
        b = measurement.sample_shots(circ, 500, 42)
        assert a == b

    def test_different_seeds_differ(self):
        circ = parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\nMEASURE 1\n")
        a = measurement.sample_shots(circ, 500, 1)
        b = measurement.sample_shots(circ, 500, 2)
        assert a != b  # 2^-500-ish chance of collision

    def test_deterministic_circuit_gives_single_key(self):
        circ = parse_circuit("qubits 2\nX 0\nMEASURE 0\nMEASURE 1\n")
        assert measurement.sample_shots(circ, 100, 0) == {"10": 100}

    def test_record_order_follows_measure_ops(self):
        # wire 1 measured first, then wire 0: record string is "<m1><m0>"
        circ = parse_circuit("qubits 2\nX 1\nMEASURE 1\nMEASURE 0\n")
        assert measurement.sample_shots(circ, 10, 0) == {"10": 10}

    def test_counts_total_equals_shots(self):
        circ = parse_circuit("qubits 3\nH 0\nH 1\nCX 1 2\nMEASURE 0\nMEASURE 2\n")
        hist = measurement.sample_shots(circ, 777, 9)
        assert sum(hist.values()) == 777

    def test_correlated_outcomes_only(self):
        circ = parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\nMEASURE 1\n")
        hist = measurement.sample_shots(circ, 400, 5)
        assert set(hist) <= {"00", "11"}

    def test_binomial_agreement_with_branch_tree(self):
        # 1000 shots of a fair coin: expect 500 +- 3*sqrt(250) ~ [452, 548]
        circ = parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\n")
        tree = measurement.run_with_branches(circ)
        probs = {leaf.outcomes[0]: leaf.probability for leaf in tree.leaves}
        shots = 1000
        hist = measurement.sample_shots(circ, shots, 2024)
        for outcome, p in probs.items():
            count = hist.get(str(outcome), 0)
            sigma = np.sqrt(shots * p * (1 - p))
            assert abs(count - shots * p) <= 3 * sigma

    def test_gates_after_measurement_are_applied(self):
        circ = parse_circuit("qubits 2\nMEASURE 0\nX 1\nMEASURE 1\n")
        assert measurement.sample_shots(circ, 50, 3) == {"01": 50}

    def test_rejects_measurement_free_circuit(self):
        circ = parse_circuit("qubits 1\nH 0\n")
        with pytest.raises(ContractError):
            measurement.sample_shots(circ, 10, 0)

    def test_rejects_non_positive_shots(self):
        circ = parse_circuit("qubits 1\nMEASURE 0\n")
        with pytest.raises(ContractError):
            measurement.sample_shots(circ, 0, 0)

    def test_rejects_a_circuit_without_measurements(self):
        circ = parse_circuit("qubits 1\nH 0\n")
        for sample in (measurement.sample_shots, oracle.sample_shots_deferred):
            with pytest.raises(ContractError, match="^circuit has no MEASURE ops to sample$"):
                sample(circ, 10, 0)

    @pytest.mark.parametrize("shots", [2.7, 3.0, "3", True, np.bool_(True), None])
    def test_rejects_non_integral_shot_counts(self, shots):
        circ = parse_circuit("qubits 1\nH 0\nMEASURE 0\n")
        with pytest.raises(ContractError, match="shots"):
            measurement.sample_shots(circ, shots, 0)
        with pytest.raises(ContractError, match="shots"):
            oracle.sample_shots_deferred(circ, shots, 0)

    def test_accepts_numpy_integer_shot_counts(self):
        circ = parse_circuit("qubits 1\nX 0\nMEASURE 0\n")
        assert measurement.sample_shots(circ, np.int64(3), 0) == {"1": 3}

    def test_histogram_keys_in_sorted_order(self):
        circ = parse_circuit("qubits 3\nH 0\nH 1\nH 2\nMEASURE 2\nMEASURE 0\nMEASURE 1\n")
        hist = measurement.sample_shots(circ, 200, 8)
        assert list(hist) == sorted(hist) and len(hist) == 8

    def test_fixed_seed_histogram_is_pinned(self):
        # wire 3 is measured in a basis state, so its outcome 0 is pruned
        circ = parse_circuit(
            "qubits 4\nH 0\nT 0\nH 0\nX 3\nMEASURE 3\nH 1\nCX 1 2\nMEASURE 0\n"
            "T 2\nH 2\nMEASURE 2\n"
        )
        hist = measurement.sample_shots(circ, 1000, 7)
        assert hist == {"100": 432, "101": 422, "110": 63, "111": 83}
        leaves = measurement.run_with_branches(circ).leaves
        assert [leaf.outcomes for leaf in leaves] == [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        assert all(leaf.probability > 0 for leaf in leaves)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            # the stack's total norm stays B; each row is off on its own
            ((np.sqrt(1.5), np.sqrt(0.5)), "state is not normalized"),
            ((1.0, np.nan), "state has a non-finite amplitude"),
        ],
    )
    def test_split_checks_every_stacked_row(self, monkeypatch, spoil, message):
        real = engine._run_plan

        def run_and_spoil(plan, stack):
            real(plan, stack)
            if len(stack) > 1:
                stack[0] *= spoil[0]
                stack[1] *= spoil[1]
            return stack

        monkeypatch.setattr(engine, "_run_plan", run_and_spoil)
        circ = parse_circuit("qubits 3\nH 0\nH 1\nMEASURE 0\nH 2\nMEASURE 1\n")
        with pytest.raises(ContractError, match=message):
            measurement.run_with_branches(circ)
        with pytest.raises(ContractError, match=message):
            measurement.sample_shots(circ, 100, 1)

    def test_equals_per_shot_replay(self):
        rng = np.random.default_rng(29)
        pruned = 0
        for k in range(30):
            n = int(rng.integers(2, 9))
            circ = measured_circuit(rng, n)
            psi0 = linalg.random_state(n, rng) if k % 5 == 0 else None
            shots = (1, 40, 997)[k % 3]
            seed = int(rng.integers(1 << 31))
            got = measurement.sample_shots(circ, shots, seed, psi0)
            assert got == oracle.sample_shots_deferred(circ, shots, seed, psi0)
            tree = measurement.run_with_branches(circ, psi0)
            pruned += len(tree.leaves) < 2 ** len(tree.measured_wires)
        assert pruned >= 5

    def test_equals_per_shot_replay_across_chunks(self, monkeypatch):
        monkeypatch.setattr(measurement, "_SHOT_CHUNK", 7)
        circ = parse_circuit(
            "qubits 4\nH 0\nCX 0 1\nMEASURE 1\nH 2\nT 2\nH 2\nMEASURE 2\n"
            "SQRTSWAP 0 3\nMEASURE 3\nH 0\nMEASURE 0\n"
        )
        for shots, seed in ((40, 3), (997, 4)):
            got = measurement.sample_shots(circ, shots, seed)
            assert got == oracle.sample_shots_deferred(circ, shots, seed)

    @pytest.mark.parametrize(
        "shots, chunk", [(1, 1 << 14), (1000, 1 << 14), (65, 64), (200, 64)],
        ids=["1", "1000", "65", "200"],
    )
    def test_one_chunk_walks_the_start_state_itself(self, monkeypatch, shots, chunk):
        # each chunk's walk takes a fresh start state over and frees it at
        # the first split, and no state of one chunk lives into the next, so
        # a 16-qubit walk peaks near two states, not three, in any chunk
        monkeypatch.setattr(measurement, "_SHOT_CHUNK", chunk)
        n = 16
        text = "".join(f"H {w}\n" for w in range(n))
        circ = parse_circuit(f"qubits {n}\n{text}MEASURE 3\nH 0\nMEASURE 5\n")
        peak = traced_peak(lambda: measurement.sample_shots(circ, shots, 1))
        assert peak < 2.5 * linalg.zero_state(n).nbytes

    def test_the_last_split_builds_no_residuals(self):
        # only the shots' rows leave the walk, so the final MEASURE holds the
        # state and its |state|**2, not a second state of residuals; on 17
        # qubits the H layer's plans run slice by slice, within that peak
        n = 17
        text = "".join(f"H {w}\n" for w in range(n))
        circ = parse_circuit(f"qubits {n}\n{text}MEASURE 3\n")
        peak = traced_peak(lambda: measurement.sample_shots(circ, 1000, 1))
        assert peak < 1.75 * linalg.zero_state(n).nbytes

    def test_oracle_does_not_share_the_split(self, monkeypatch):
        # a split that conjugates its residuals keeps every probability of
        # the first level but moves the second; the oracle must not follow
        circ = parse_circuit("qubits 2\nH 1\nS 1\nH 0\nMEASURE 0\nS 1\nH 1\nMEASURE 1\n")
        want = oracle.sample_shots_deferred(circ, 100, 3)
        assert measurement.sample_shots(circ, 100, 3) == want
        real = engine._split

        def conjugated(*args):
            nodes, bits, p, children, rows = real(*args)
            # a sampler's last split builds no residuals
            return nodes, bits, p, None if children is None else children.conj(), rows

        monkeypatch.setattr(engine, "_split", conjugated)
        assert measurement.sample_shots(circ, 100, 3) != want
        assert oracle.sample_shots_deferred(circ, 100, 3) == want

    def test_rejects_unnormalized_or_misshapen_start_state(self):
        bell = parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\n")
        with pytest.raises(ContractError):
            measurement.sample_shots(bell, 10, 0, psi0=np.ones(4))
        with pytest.raises(ContractError):
            measurement.sample_shots(bell, 10, 0, psi0=np.full(4, np.nan))
        with pytest.raises(DimensionError):
            measurement.sample_shots(bell, 10, 0, psi0=np.ones(2) * _SQ2)

    def test_a_start_state_is_checked_once_for_every_chunk(self, monkeypatch):
        # 40000 shots walk three chunks, each from a copy of the checked psi0
        circ = parse_circuit("qubits 3\nH 0\nCX 0 1\nMEASURE 1\nH 2\nMEASURE 2\n")
        psi0 = linalg.basis_state(3, 0b100)
        want = measurement.sample_shots(circ, 40000, 7, psi0=psi0)
        sizes = []
        real = linalg.check_unit_norms  # the norm test of check_unit_state
        monkeypatch.setattr(
            linalg, "check_unit_norms", lambda states, norms: sizes.append(states.shape) or real(states, norms)
        )
        assert measurement.sample_shots(circ, 40000, 7, psi0=psi0) == want
        assert sizes == [(8,)]

    def test_a_bad_start_state_is_named_before_a_bad_seed(self):
        circ = parse_circuit("qubits 1\nH 0\nMEASURE 0\n")
        with pytest.raises(ContractError, match="not normalized"):
            measurement.sample_shots(circ, 10, -1, psi0=np.ones(2))

    def test_normalized_start_state_is_used(self):
        circ = parse_circuit("qubits 2\nMEASURE 0\nMEASURE 1\n")
        psi0 = linalg.basis_state(2, 0b10)
        assert measurement.sample_shots(circ, 20, 0, psi0=psi0) == {"01": 20}

    def test_rejects_negative_seed(self):
        circ = parse_circuit("qubits 1\nH 0\nMEASURE 0\n")
        with pytest.raises(ContractError, match="seed"):
            measurement.sample_shots(circ, 10, -1)


class TestMemoryLedger:
    """Each entry point's tracemalloc peak on 17 qubits, in states of
    ``2**17`` amplitudes: the run's one start state, the split's stacks and
    the kernel's temporaries, which stay within a slice on a state this big."""

    N = 17
    GATES = "".join(f"H {w}\n" for w in range(N)) + "CX 3 7\nT 5\nSWAP 1 12\nH 9 c=2\n"
    PLAIN = parse_circuit(f"qubits {N}\n{GATES}")
    MEASURED = parse_circuit(f"qubits {N}\n{GATES}MEASURE 3\nH 0\nMEASURE 5\nX 1\n")
    TAIL = GATES[GATES.index("CX"):]
    # 16 wires first moved in a shuffled order: a register grown in that
    # order, then put back into wire order by the scatter
    ORDER = (9, 3, 14, 0, 7, 12, 5, 1, 15, 10, 2, 8, 13, 6, 11, 4)
    SHUFFLED = parse_circuit("qubits 16\n" + "".join(f"H {w}\n" for w in ORDER) + TAIL)
    # every one of 17 wires, past 2**16 amplitudes: wire order, in descending order
    DESCENDING = parse_circuit(f"qubits {N}\n" + "".join(f"H {w}\n" for w in range(N - 1, -1, -1)) + TAIL)
    # 17 of 18 wires: a register grown in a shuffled order, which run_circuit
    # scatters into its 2**18 result (two states) and the CLI reads as walked
    GROWN = parse_circuit("qubits 18\n" + "".join(f"H {w}\n" for w in ORDER + (16,)) + TAIL)
    # the same, measured: a grown walk, whose leaves run_with_branches
    # scatters into wire order over the 16 unmeasured wires (two states)
    GROWN_MEASURED = parse_circuit(
        "qubits 18\n" + "".join(f"H {w}\n" for w in ORDER + (16,)) + TAIL + "MEASURE 3\nH 0\nMEASURE 5\nX 1\n"
    )
    # all_qubit_stats holds |psi|**2 and the two strided halves np.vdot copies
    PLAIN_STATE = engine.run_circuit(PLAIN)
    RANDOM_STATE = linalg.random_state(N, np.random.default_rng(17))

    @pytest.mark.parametrize(
        "call, bound",
        [
            (lambda: engine.run_circuit(TestMemoryLedger.PLAIN), 1.75),
            (lambda: measurement.run_with_branches(TestMemoryLedger.PLAIN), 1.75),
            (lambda: measurement.run_with_branches(TestMemoryLedger.MEASURED), 2.25),
            (lambda: measurement.sample_shots(TestMemoryLedger.MEASURED, 1000, 1), 2.25),
            (lambda: engine.run_circuit(TestMemoryLedger.SHUFFLED), 1.75),
            (lambda: engine.run_circuit(TestMemoryLedger.DESCENDING), 1.75),
            (lambda: engine.run_circuit(TestMemoryLedger.GROWN), 3.25),  # measured 3.00
            (lambda: engine._walk_register(TestMemoryLedger.GROWN), 1.75),  # measured 1.50
            (lambda: measurement.run_with_branches(TestMemoryLedger.GROWN_MEASURED), 3.25),  # measured 3.00
            (lambda: measurement.sample_shots(TestMemoryLedger.GROWN_MEASURED, 1000, 1), 2.25),  # measured 2.09
            (lambda: analysis.all_qubit_stats(TestMemoryLedger.PLAIN_STATE, 17), 1.75),  # measured 1.50
            (lambda: analysis.all_qubit_stats(TestMemoryLedger.RANDOM_STATE, 17), 1.75),  # measured 1.50
        ],
        ids=["run_circuit", "run_with_branches-plain", "run_with_branches", "sample_shots",
             "run_circuit-first-move-16", "run_circuit-descending-17",
             "run_circuit-grown-17-of-18", "_walk_register-grown-17-of-18",
             "run_with_branches-grown-17-of-18", "sample_shots-grown-17-of-18",
             "all_qubit_stats-plain", "all_qubit_stats-random"],
    )
    def test_peak_in_states(self, call, bound):
        assert traced_peak(call) < bound * linalg.zero_state(self.N).nbytes


class TestZeroWires:
    """Started at |00...0>, a compile skips the work on wires that no gate
    has yet moved off 0, and every result stays equal to a run that takes
    no wire as known: a fold of the checked kernel for ``run_circuit``, and
    the same circuit started from an explicit ``psi0`` for the walker."""

    @pytest.mark.parametrize("width", [None, 1 << 6])  # 1 << 6 slices and halves plans
    def test_results_equal_runs_without_zero_knowledge(self, monkeypatch, width):
        if width is not None:
            monkeypatch.setattr(engine, "_SLICE", width)
        skipped = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 13))
            plain = random_circuit(n, int(rng.integers(1, 3 * n)), rng)
            want = linalg.zero_state(n)
            for op in plain.ops:
                matrix = gate_def(op.gate).matrix
                want = engine.apply_multi_qubit_gate(n, matrix, op.targets, want, op.controls)
            assert np.array_equal(engine.run_circuit(plain), want), seed

            circ = measured_circuit(rng, n)
            start = linalg.basis_state(n, 0)
            tree = measurement.run_with_branches(circ)
            ref = measurement.run_with_branches(circ, start)
            assert [(leaf.outcomes, leaf.probability) for leaf in tree.leaves] == [
                (leaf.outcomes, leaf.probability) for leaf in ref.leaves
            ], seed
            assert all(np.array_equal(a.state, b.state) for a, b in zip(tree.leaves, ref.leaves))
            want = measurement.sample_shots(circ, 300, seed, start)
            assert measurement.sample_shots(circ, 300, seed) == want, seed
            for c in (plain, circ):
                skipped += len(engine.compile_circuit(c.n, c.ops, start)[0]) - len(engine.compile_circuit(c.n, c.ops)[0])
        assert skipped > 300  # the rule is not vacuous on these circuits


def deferred_leaves(circ):
    """Each outcome record of ``circ``'s MEASUREs with its probability and
    residual, from the oracle's run of its gates alone: no gate touches a
    measured wire, so measuring at the end gives the same branches.  A
    residual's bit ``i`` is the ``i``-th lowest unmeasured wire."""
    n = circ.n
    plain = Circuit(n, tuple(op for op in circ.ops if op.gate != MEASURE))
    psi = oracle.simulate_naive(plain).reshape((2,) * n)  # axis a is wire n - 1 - a
    measured = [op.targets[0] for op in circ.ops if op.gate == MEASURE]
    want = {}
    for record in itertools.product((0, 1), repeat=len(measured)):
        index = [slice(None)] * n
        for w, bit in zip(measured, record):
            index[n - 1 - w] = bit
        part = psi[tuple(index)].reshape(-1)
        p = float(np.vdot(part, part).real)
        if p >= measurement.PRUNE_EPS:
            want[record] = p, part / np.sqrt(p)
    return want


class TestGrownWalk:
    """A run from |00...0> with a MEASURE grows its register too.  A MEASURE
    of a wire that no gate moved gives it the next slot and splits it as
    outcome 0 with p = 1, and a split writes its children into rows as wide
    as the register before the next split.  The leaves are put back into
    wire order over the unmeasured wires, as a psi0 run, which keeps wire
    order, holds them; the two add a split's terms in their own orders."""

    # each circuit, and the (slot, register, children's row) of each split
    CASES = {
        # an idle wire measured first, from a register of one slot
        "idle-first": ("qubits 3\nMEASURE 1\nH 0\nCX 0 2\nMEASURE 0\n", [(0, 2, 4), (0, 4, 2)]),
        # an idle wire measured between two splits: after MEASURE 0 the
        # register is empty, but the next split needs a row of one slot
        "idle-between": (
            "qubits 4\nH 0\nMEASURE 0\nMEASURE 2\nH 1\nCX 1 3\nMEASURE 3\n",
            [(0, 2, 2), (0, 2, 4), (1, 4, 2)],
        ),
        "idle-last": ("qubits 3\nH 0\nCX 0 1\nMEASURE 0\nMEASURE 2\n", [(0, 4, 4), (1, 4, 2)]),
        # every wire measured: the leaves hold one amplitude each
        "every-wire": (
            "qubits 3\nH 0\nH 1\nCX 1 2\nMEASURE 2\nMEASURE 0\nMEASURE 1\n",
            [(2, 8, 4), (0, 4, 2), (0, 2, 1)],
        ),
        # gates after a split slot three new wires, so its rows have room for them
        "new-wires": ("qubits 4\nH 0\nMEASURE 0\nH 2\nCX 2 3\nH 1 c=2\n", [(0, 2, 8)]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_leaves_and_shots_equal_the_wire_order_walk_and_the_oracle(self, name):
        text, splits = self.CASES[name]
        circ = parse_circuit(text)
        steps = engine.compile_circuit(circ.n, circ.ops)[0]
        assert [at for plan, at in steps if plan is None] == splits
        assert all(size is not None for plan, size in steps if plan is not None)
        tree = measurement.run_with_branches(circ)
        ref = measurement.run_with_branches(circ, linalg.zero_state(circ.n))
        # each unmeasured wire at its rank in wire order
        kept = [w for w in range(circ.n) if w not in tree.measured_wires]
        assert tree.wire_map == {w: kept.index(w) if w in kept else None for w in range(circ.n)}
        assert tree.wire_map == ref.wire_map
        want = deferred_leaves(circ)
        assert [leaf.outcomes for leaf in tree.leaves] == [leaf.outcomes for leaf in ref.leaves] == sorted(want)
        for leaf, other in zip(tree.leaves, ref.leaves):
            assert leaf.state.shape == (1 << len(kept),)
            assert abs(leaf.probability - other.probability) <= 1e-15
            np.testing.assert_allclose(leaf.state, other.state, rtol=0, atol=1e-15)
            p, state = want[leaf.outcomes]
            assert abs(leaf.probability - p) < 1e-12
            np.testing.assert_allclose(leaf.state, state, rtol=0, atol=1e-12)
        hist = measurement.sample_shots(circ, 500, 5)
        assert hist == measurement.sample_shots(circ, 500, 5, linalg.zero_state(circ.n))
        assert hist == oracle.sample_shots_deferred(circ, 500, 5)

    def test_an_idle_wire_splits_as_zero_with_certainty(self):
        # wires 2 and 1 are never moved: their outcomes are 0 on every branch
        circ = parse_circuit("qubits 4\nH 0\nMEASURE 0\nMEASURE 2\nMEASURE 1\nH 3\nMEASURE 3\n")
        tree = measurement.run_with_branches(circ)
        assert [leaf.outcomes for leaf in tree.leaves] == [(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1)]
        assert all(abs(leaf.probability - 0.25) < 1e-15 for leaf in tree.leaves)
        assert measurement.sample_shots(circ, 100, 3).keys() == {"0000", "0001", "1000", "1001"}

    def test_random_measured_circuits_equal_the_wire_order_walk(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            circ = measured_circuit(rng, n)
            tree = measurement.run_with_branches(circ)
            ref = measurement.run_with_branches(circ, linalg.zero_state(n))
            assert tree.wire_map == ref.wire_map
            assert [leaf.outcomes for leaf in tree.leaves] == [leaf.outcomes for leaf in ref.leaves]
            for leaf, other in zip(tree.leaves, ref.leaves):
                assert abs(leaf.probability - other.probability) <= 1e-15
                np.testing.assert_allclose(leaf.state, other.state, rtol=0, atol=1e-15)
