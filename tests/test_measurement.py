import numpy as np
import pytest

from qwsim import analysis, engine, linalg, measurement, oracle
from qwsim.circuit import Circuit, GateOp, parse_circuit
from qwsim.errors import ContractError, DimensionError
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
        ops.append(GateOp(name, targets, engine.ControlSpec(controls)))
    if live and not any(op.gate == MEASURE for op in ops):
        ops.append(GateOp(MEASURE, (live[0],)))
    return Circuit(n, tuple(ops))


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

    def test_measuring_a_wire_twice_rejected(self):
        circ = parse_circuit("qubits 2\nH 0\nMEASURE 0\nMEASURE 0\n")
        with pytest.raises(ContractError):
            measurement.run_with_branches(circ)

    def test_gate_on_measured_wire_rejected(self):
        circ = parse_circuit("qubits 2\nMEASURE 0\nX 0\n")
        with pytest.raises(ContractError):
            measurement.run_with_branches(circ)

    def test_control_on_measured_wire_rejected(self):
        circ = parse_circuit("qubits 2\nMEASURE 0\nX 1 c=0\n")
        with pytest.raises(ContractError):
            measurement.run_with_branches(circ)

    @pytest.mark.parametrize(
        "text",
        [
            "qubits 3\nH 0\nMEASURE 0\nH 1\nMEASURE 1\nSWAP 0 2\n",
            "qubits 3\nH 0\nMEASURE 2\nMEASURE 0\nX 1 a=2\n",
            "qubits 2\nH 0\nMEASURE 1\nMEASURE 0\nMEASURE 1\n",
        ],
    )
    @pytest.mark.parametrize("entry", ["branches", "sample"])
    def test_measured_wire_reuse_rejected_by_both_entry_points(self, text, entry):
        circ = parse_circuit(text)
        with pytest.raises(ContractError, match="measured"):
            if entry == "branches":
                measurement.run_with_branches(circ)
            else:
                measurement.sample_shots(circ, 10, 0)

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
            tree = measurement.run_with_branches(circ, psi0)
            outcomes = [leaf.outcomes for leaf in tree.leaves]
            assert outcomes == sorted(outcomes)
            pruned += len(outcomes) < 2 ** len(tree.measured_wires)
            for leaf in tree.leaves:
                index = [slice(None)] * n
                for wire, bit in zip(tree.measured_wires, leaf.outcomes):
                    index[n - 1 - wire] = bit
                part = final[tuple(index)].reshape(-1)
                p = float(np.vdot(part, part).real)
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

    @pytest.mark.parametrize("shots", [2.7, 3.0, "3", True, np.bool_(True), None])
    def test_rejects_non_integral_shot_counts(self, shots):
        circ = parse_circuit("qubits 1\nH 0\nMEASURE 0\n")
        with pytest.raises(ContractError, match="shots"):
            measurement.sample_shots(circ, shots, 0)
        with pytest.raises(ContractError, match="shots"):
            oracle.sample_shots_replay(circ, shots, 0)

    def test_accepts_numpy_integer_shot_counts(self):
        circ = parse_circuit("qubits 1\nX 0\nMEASURE 0\n")
        assert measurement.sample_shots(circ, np.int64(3), 0) == {"1": 3}

    def test_histogram_keys_in_sorted_order(self):
        circ = parse_circuit("qubits 3\nH 0\nH 1\nH 2\nMEASURE 2\nMEASURE 0\nMEASURE 1\n")
        hist = measurement.sample_shots(circ, 200, 8)
        assert list(hist) == sorted(hist) and len(hist) == 8

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
            assert got == oracle.sample_shots_replay(circ, shots, seed, psi0)
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
            assert got == oracle.sample_shots_replay(circ, shots, seed)

    def test_rejects_unnormalized_or_misshapen_start_state(self):
        bell = parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\n")
        with pytest.raises(ContractError):
            measurement.sample_shots(bell, 10, 0, psi0=np.ones(4))
        with pytest.raises(ContractError):
            measurement.sample_shots(bell, 10, 0, psi0=np.full(4, np.nan))
        with pytest.raises(DimensionError):
            measurement.sample_shots(bell, 10, 0, psi0=np.ones(2) * _SQ2)

    def test_normalized_start_state_is_used(self):
        circ = parse_circuit("qubits 2\nMEASURE 0\nMEASURE 1\n")
        psi0 = linalg.basis_state(2, 0b10)
        assert measurement.sample_shots(circ, 20, 0, psi0=psi0) == {"01": 20}

    def test_rejects_negative_seed(self):
        circ = parse_circuit("qubits 1\nH 0\nMEASURE 0\n")
        with pytest.raises(ContractError, match="seed"):
            measurement.sample_shots(circ, 10, -1)
