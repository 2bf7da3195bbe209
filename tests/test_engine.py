import itertools

import numpy as np
import pytest

from qwsim import engine, gates, linalg, measurement, oracle
from qwsim.circuit import Circuit, GateOp, parse_circuit, random_circuit
from qwsim.engine import ControlSpec, NO_CONTROLS
from qwsim.errors import ContractError, DimensionError

_SQ2 = 1.0 / np.sqrt(2.0)
SWAP = gates.gate_matrix("SWAP")


def random_unitary(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestControlSpec:
    def test_masks(self):
        spec = ControlSpec(((0, True), (3, False), (2, True)))
        assert spec.inclusion_mask == 0b1101
        assert spec.desired_value_mask == 0b0101
        assert spec.passes(0b0101)
        assert spec.passes(0b0111)  # untested bit may be anything
        assert not spec.passes(0b1101)
        assert not spec.passes(0b0100)

    def test_empty_spec_passes_everything(self):
        assert NO_CONTROLS.inclusion_mask == 0
        assert all(NO_CONTROLS.passes(k) for k in range(16))

    def test_duplicate_wire_rejected(self):
        with pytest.raises(ContractError):
            ControlSpec(((1, True), (1, True)))
        with pytest.raises(ContractError):
            ControlSpec(((1, True), (1, False)))

    def test_negative_wire_rejected(self):
        with pytest.raises(ContractError):
            ControlSpec(((-1, True),))

    def test_wire_past_the_qubit_cap_rejected(self):
        assert ControlSpec(((linalg.MAX_QUBITS - 1, True),)).inclusion_mask == 1 << 25
        for wire in (linalg.MAX_QUBITS, 10**18, 10**4000):
            with pytest.raises(ContractError, match="is outside 0..25"):
                ControlSpec(((wire, False),))

    def test_wires_are_derived_once_and_change_no_comparison(self):
        spec = ControlSpec(((0, True), (3, False)))
        assert spec.wires == (0, 3)
        assert spec.wires is spec.wires
        assert NO_CONTROLS.wires == ()
        assert spec == ControlSpec([(0, 1), (3, 0)])
        assert spec != ControlSpec(((3, False), (0, True)))
        assert hash(spec) == hash((((0, True), (3, False)), 0b1001, 0b0001))
        assert repr(spec) == (
            "ControlSpec(entries=((0, True), (3, False)), "
            "inclusion_mask=9, desired_value_mask=1)"
        )

    def test_coerce_from_pairs(self):
        spec = engine.coerce_controls([(2, True)])
        assert spec.entries == ((2, True),)
        assert engine.coerce_controls(None) is NO_CONTROLS
        assert engine.coerce_controls(spec) is spec


class TestQubitWiseMultiply:
    """The kernel on one target wire: the paper's qubit-wise multiply."""

    def test_hadamard_on_zero(self):
        psi = engine.apply_multi_qubit_gate(1, gates.gate_matrix("H"), (0,), [1, 0])
        np.testing.assert_allclose(psi, [_SQ2, _SQ2], atol=1e-15)

    def test_controlled_x_flips_bit_when_control_set(self):
        psi = linalg.basis_state(2, 0b10)  # wire 1 set
        out = engine.apply_multi_qubit_gate(
            2, gates.gate_matrix("X"), (0,), psi, [(1, True)]
        )
        np.testing.assert_allclose(out, linalg.basis_state(2, 0b11), atol=1e-15)

    def test_controlled_x_idles_when_control_clear(self):
        psi = linalg.basis_state(2, 0b00)
        out = engine.apply_multi_qubit_gate(
            2, gates.gate_matrix("X"), (0,), psi, [(1, True)]
        )
        np.testing.assert_array_equal(out, psi)

    def test_anticontrol_fires_on_zero(self):
        psi = linalg.basis_state(2, 0b00)
        out = engine.apply_multi_qubit_gate(
            2, gates.gate_matrix("X"), (0,), psi, [(1, False)]
        )
        np.testing.assert_allclose(out, linalg.basis_state(2, 0b01), atol=1e-15)

    def test_hand_worked_three_qubit_sequence(self):
        # H on 1, X on 2, controlled X 1->0, Z on 0, controlled X 1->2
        # takes |000> to (|100> - |011>)/sqrt(2)
        h, x, z = (gates.gate_matrix(g) for g in "HXZ")
        psi = linalg.zero_state(3)
        psi = engine.apply_multi_qubit_gate(3, h, (1,), psi)
        psi = engine.apply_multi_qubit_gate(3, x, (2,), psi)
        psi = engine.apply_multi_qubit_gate(3, x, (0,), psi, [(1, True)])
        psi = engine.apply_multi_qubit_gate(3, z, (0,), psi)
        psi = engine.apply_multi_qubit_gate(3, x, (2,), psi, [(1, True)])
        expect = np.zeros(8, dtype=complex)
        expect[0b100] = _SQ2
        expect[0b011] = -_SQ2
        np.testing.assert_allclose(psi, expect, atol=1e-12)

    def test_amplitudes_failing_mask_are_bit_identical(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            psi = linalg.random_state(n, rng)
            target = int(rng.integers(n))
            free = [w for w in range(n) if w != target]
            rng.shuffle(free)
            picks = free[: int(rng.integers(1, len(free) + 1))]
            spec = ControlSpec(tuple((w, bool(rng.integers(2))) for w in picks))
            out = engine.apply_multi_qubit_gate(
                n, random_unitary(2, rng), (target,), psi, spec
            )
            untouched = [k for k in range(1 << n) if not spec.passes(k)]
            assert untouched, "control draw should leave some indices out"
            np.testing.assert_array_equal(out[untouched], psi[untouched])

    def test_identity_gate_with_controls_is_noop(self):
        rng = np.random.default_rng(22)
        psi = linalg.random_state(3, rng)
        out = engine.apply_multi_qubit_gate(
            3, gates.gate_matrix("I"), (1,), psi, [(0, True), (2, False)]
        )
        np.testing.assert_array_equal(out, psi)

    def test_norm_conserved(self):
        rng = np.random.default_rng(8)
        psi = linalg.random_state(5, rng)
        out = engine.apply_multi_qubit_gate(5, random_unitary(2, rng), (3,), psi)
        assert abs(np.vdot(out, out).real - 1.0) < 1e-12

    def test_wire_collision_rejected(self):
        with pytest.raises(ContractError):
            engine.apply_multi_qubit_gate(
                2, gates.gate_matrix("X"), (0,), linalg.zero_state(2), [(0, True)]
            )

    def test_bad_shapes_rejected(self):
        with pytest.raises(DimensionError):
            engine.apply_multi_qubit_gate(2, np.eye(4), (0,), linalg.zero_state(2))
        with pytest.raises(DimensionError):
            engine.apply_multi_qubit_gate(2, np.eye(2), (0,), np.zeros(5))
        with pytest.raises(ContractError):
            engine.apply_multi_qubit_gate(2, np.eye(2), (2,), linalg.zero_state(2))


class TestSwapBits:
    @pytest.mark.parametrize(
        "k,i,j,expected",
        [(14, 0, 3, 7), (10, 0, 3, 3), (13, 1, 2, 11), (10, 1, 2, 12)],
    )
    def test_worked_pairs(self, k, i, j, expected):
        assert engine.swap_bits(k, i, j) == expected

    def test_equal_bits_are_fixed_points(self):
        assert engine.swap_bits(0b1001, 0, 3) == 0b1001
        assert engine.swap_bits(0b0110, 0, 3) == 0b0110

    def test_involution_and_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1 << 10))
            i, j = rng.choice(10, size=2, replace=False)
            once = engine.swap_bits(k, int(i), int(j))
            assert engine.swap_bits(once, int(i), int(j)) == k
            assert engine.swap_bits(k, int(j), int(i)) == once

    def test_matches_arithmetic_shuffle(self):
        for k in range(64):
            for i in range(6):
                for j in range(6):
                    bi = (k >> i) & 1
                    bj = (k >> j) & 1
                    rebuilt = k & ~(1 << i) & ~(1 << j) | (bj << i) | (bi << j)
                    assert engine.swap_bits(k, i, j) == rebuilt

    def test_arguments_must_be_integers(self):
        # a float used to escape as a bare TypeError from the shift
        for args in ((3, 1.5, 0), (3, 0, "1"), (3.0, 0, 1), (True, 0, 1)):
            with pytest.raises(ContractError, match="must be an integer"):
                engine.swap_bits(*args)
        assert engine.swap_bits(np.int64(2), np.int32(1), np.uint8(0)) == 1


class TestApplySwap:
    """SWAP is the kernel with the SWAP matrix: view copies, no arithmetic."""

    def test_swaps_basis_state(self):
        out = engine.apply_multi_qubit_gate(2, SWAP, (0, 1), linalg.basis_state(2, 0b01))
        np.testing.assert_array_equal(out, linalg.basis_state(2, 0b10))

    def test_hand_worked_swap_sequence(self):
        # H 0; SWAP 0 2; X 1 anticontrolled on 2; X 0 controlled on 1;
        # Y 0; SWAP 1 2 controlled on 0; Z 1
        # takes |000> to (i|010> - i|011>)/sqrt(2)
        h, x, y, z = (gates.gate_matrix(g) for g in "HXYZ")
        psi = linalg.zero_state(3)
        psi = engine.apply_multi_qubit_gate(3, h, (0,), psi)
        psi = engine.apply_multi_qubit_gate(3, SWAP, (0, 2), psi)
        psi = engine.apply_multi_qubit_gate(3, x, (1,), psi, [(2, False)])
        psi = engine.apply_multi_qubit_gate(3, x, (0,), psi, [(1, True)])
        psi = engine.apply_multi_qubit_gate(3, y, (0,), psi)
        psi = engine.apply_multi_qubit_gate(3, SWAP, (1, 2), psi, [(0, True)])
        psi = engine.apply_multi_qubit_gate(3, z, (1,), psi)
        expect = np.zeros(8, dtype=complex)
        expect[0b010] = 1j * _SQ2
        expect[0b011] = -1j * _SQ2
        np.testing.assert_allclose(psi, expect, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(14)
        psi = linalg.random_state(5, rng)
        once = engine.apply_multi_qubit_gate(5, SWAP, (1, 4), psi)
        out = engine.apply_multi_qubit_gate(5, SWAP, (1, 4), once)
        np.testing.assert_array_equal(out, psi)

    def test_wire_order_does_not_matter(self):
        rng = np.random.default_rng(15)
        psi = linalg.random_state(4, rng)
        np.testing.assert_array_equal(
            engine.apply_multi_qubit_gate(4, SWAP, (0, 3), psi),
            engine.apply_multi_qubit_gate(4, SWAP, (3, 0), psi),
        )

    def test_fast_path_matches_reference_loop(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            i, j = (int(w) for w in rng.choice(n, size=2, replace=False))
            psi = linalg.random_state(n, rng)
            controls = []
            for w in range(n):
                if w in (i, j):
                    continue
                u = rng.random()
                if u < 0.2:
                    controls.append((w, True))
                elif u < 0.4:
                    controls.append((w, False))
            fast = engine.apply_multi_qubit_gate(n, SWAP, (i, j), psi, controls)
            slow = oracle.swap_wires(n, i, j, psi, controls)
            np.testing.assert_array_equal(fast, slow)

    def test_controlled_swap_leaves_other_block_alone(self):
        rng = np.random.default_rng(17)
        psi = linalg.random_state(3, rng)
        out = engine.apply_multi_qubit_gate(3, SWAP, (0, 1), psi, [(2, True)])
        low = [k for k in range(8) if not k & 0b100]
        np.testing.assert_array_equal(out[low], psi[low])

    def test_swap_equals_three_alternating_controlled_x(self):
        rng = np.random.default_rng(18)
        x = gates.gate_matrix("X")
        for n, i, j in ((2, 0, 1), (4, 1, 3), (5, 4, 0)):
            psi = linalg.random_state(n, rng)
            via_swap = engine.apply_multi_qubit_gate(n, SWAP, (i, j), psi)
            via_cx = engine.apply_multi_qubit_gate(n, x, (i,), psi, [(j, True)])
            via_cx = engine.apply_multi_qubit_gate(n, x, (j,), via_cx, [(i, True)])
            via_cx = engine.apply_multi_qubit_gate(n, x, (i,), via_cx, [(j, True)])
            np.testing.assert_allclose(via_swap, via_cx, atol=1e-12)


class TestMultiQubitGate:
    def test_swap_matrix_matches_apply_swap(self):
        # the reference swap loop, with the wires named in either order
        rng = np.random.default_rng(30)
        for n, targets in ((2, (0, 1)), (4, (1, 3)), (5, (4, 2))):
            psi = linalg.random_state(n, rng)
            a = engine.apply_multi_qubit_gate(n, SWAP, targets, psi)
            b = oracle.swap_wires(n, targets[0], targets[1], psi)
            np.testing.assert_array_equal(a, b)

    def test_iswap_on_spread_wires(self):
        # ISWAP on wires (0, 2) of |001>: wire 0 is gate bit 0, so the
        # excitation moves to wire 2 and picks up the i phase.
        psi = linalg.basis_state(3, 0b001)
        out = engine.apply_multi_qubit_gate(
            3, gates.gate_matrix("ISWAP"), (0, 2), psi
        )
        expect = np.zeros(8, dtype=complex)
        expect[0b100] = 1j
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_controlled_x_as_two_wire_matrix(self):
        # CX expressed as a 4x4 acting on wires (0, 1) -- gate bit 1 is the
        # control -- must agree with X on wire 0 controlled by wire 1
        cx = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=complex,
        )
        rng = np.random.default_rng(34)
        psi = linalg.random_state(2, rng)
        via_matrix = engine.apply_multi_qubit_gate(2, cx, (0, 1), psi)
        via_control = engine.apply_multi_qubit_gate(
            2, gates.gate_matrix("X"), (0,), psi, [(1, True)]
        )
        np.testing.assert_allclose(via_matrix, via_control, atol=1e-14)

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(n, 3) + 1))
            targets = tuple(int(t) for t in rng.choice(n, size=m, replace=False))
            u = random_unitary(1 << m, rng)
            free = [w for w in range(n) if w not in targets]
            controls = [(w, bool(rng.integers(2))) for w in free if rng.random() < 0.3]
            psi = linalg.random_state(n, rng)
            fast = engine.apply_multi_qubit_gate(n, u, targets, psi, controls)
            # same unitary as an explicit big matrix, built without kernels
            big = oracle.build_gate_full_matrix(
                n, gates.GateDef("U", m, u), targets, controls
            )
            np.testing.assert_allclose(fast, big @ psi, atol=1e-10)

    def test_every_catalog_gate_through_apply_op_matches_oracle(self):
        rng = np.random.default_rng(35)
        for name in gates.gate_names():
            arity = gates.gate_def(name).arity
            for n in range(arity, 6):
                for _ in range(4):
                    wires = [int(w) for w in rng.permutation(n)]
                    targets = tuple(wires[:arity])
                    controls = [(w, bool(rng.integers(2))) for w in wires[arity:]]
                    if rng.random() < 0.5:  # else every wire is named
                        controls = controls[: int(rng.integers(len(controls) + 1))]
                    op = GateOp(name, targets, ControlSpec(tuple(controls)))
                    psi = linalg.random_state(n, rng)
                    big = oracle.build_gate_full_matrix(n, name, targets, controls)
                    np.testing.assert_allclose(
                        engine.apply_op(n, op, psi), big @ psi, atol=1e-12, rtol=0
                    )

    def test_gate_bit_order_follows_sorted_targets(self):
        rng = np.random.default_rng(32)
        u = random_unitary(4, rng)
        psi = linalg.random_state(3, rng)
        np.testing.assert_allclose(
            engine.apply_multi_qubit_gate(3, u, (2, 0), psi),
            engine.apply_multi_qubit_gate(3, u, (0, 2), psi),
            atol=1e-14,
        )

    def test_non_unitary_applied_as_linear_map(self):
        rng = np.random.default_rng(36)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m[1] = 0.0  # a zero row, as well as non-unitary ones
        psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        controls = [(0, False), (3, True)]
        out = engine.apply_multi_qubit_gate(5, m, (4, 2), psi, controls)
        big = oracle.build_gate_full_matrix(
            5, gates.GateDef("M", 2, m), (4, 2), controls
        )
        np.testing.assert_allclose(out, big @ psi, atol=1e-12, rtol=0)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ContractError):
            engine.apply_multi_qubit_gate(
                3, np.eye(4), (1, 1), linalg.zero_state(3)
            )

    def test_control_overlapping_target_rejected(self):
        with pytest.raises(ContractError):
            engine.apply_multi_qubit_gate(
                3, SWAP, (0, 1), linalg.zero_state(3), [(1, True)]
            )

    def test_three_wire_permutation_restores_layout(self):
        # applying U then its inverse through scrambled wires is an identity,
        # which fails if the target bits are mapped to the wrong axes
        rng = np.random.default_rng(33)
        u = random_unitary(8, rng)
        psi = linalg.random_state(5, rng)
        out = engine.apply_multi_qubit_gate(5, u, (4, 0, 2), psi)
        out = engine.apply_multi_qubit_gate(5, u.conj().T, (4, 0, 2), out)
        np.testing.assert_allclose(out, psi, atol=1e-12)


class TestRunCircuit:
    def test_flip_phase_pair_circuit(self):
        circ = parse_circuit("qubits 3\nH 1 ; X 2\nCX 1 0\nZ 0\nCX 1 2\n")
        psi = engine.run_circuit(circ)
        expect = np.zeros(8, dtype=complex)
        expect[0b100] = _SQ2
        expect[0b011] = -_SQ2
        np.testing.assert_allclose(psi, expect, atol=1e-12)

    def test_mixed_pair_circuit(self):
        # H 0; CX 0 1; H 2 builds an even superposition of 000, 011, 100, 111
        circ = parse_circuit("qubits 3\nH 0\nCX 0 1\nH 2\n")
        psi = engine.run_circuit(circ)
        expect = np.zeros(8, dtype=complex)
        expect[[0b000, 0b011, 0b100, 0b111]] = 0.5
        np.testing.assert_allclose(psi, expect, atol=1e-12)

    def test_default_initial_state_is_zero(self):
        circ = parse_circuit("qubits 2\nI 0\n")
        np.testing.assert_array_equal(engine.run_circuit(circ), linalg.zero_state(2))

    def test_gate_free_circuit_returns_initial_state(self):
        rng = np.random.default_rng(57)
        psi0 = linalg.random_state(2, rng)
        out = engine.run_circuit(parse_circuit("qubits 2\n"), psi0)
        np.testing.assert_array_equal(out, psi0)
        assert out is not psi0

    def test_explicit_initial_state(self):
        circ = parse_circuit("qubits 1\nX 0\n")
        out = engine.run_circuit(circ, linalg.basis_state(1, 1))
        np.testing.assert_allclose(out, linalg.basis_state(1, 0), atol=1e-15)

    def test_inverse_run_restores_state(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            circ = random_circuit(n, 15, rng)
            psi0 = linalg.random_state(n, rng)
            psi = engine.run_circuit(circ, psi0)
            for op in reversed(circ.ops):
                u = gates.gate_matrix(op.gate).conj().T
                psi = engine.apply_multi_qubit_gate(n, u, op.targets, psi, op.controls)
            np.testing.assert_allclose(psi, psi0, atol=1e-10)

    def test_norm_conserved_over_deep_circuit(self):
        rng = np.random.default_rng(56)
        circ = random_circuit(6, 200, rng)
        psi = engine.run_circuit(circ)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-10

    def test_rejects_measurement_ops(self):
        circ = parse_circuit("qubits 1\nH 0\nMEASURE 0\n")
        with pytest.raises(ContractError):
            engine.run_circuit(circ)

    def test_rejects_unnormalized_initial_state(self):
        circ = parse_circuit("qubits 1\nH 0\n")
        with pytest.raises(ContractError):
            engine.run_circuit(circ, np.array([1.0, 1.0], dtype=complex))

    def test_matches_gate_by_gate_application(self):
        # compiled plans must give exactly what the checked entry point gives
        rng = np.random.default_rng(58)
        seen = set()
        for k in range(40):
            n = int(rng.integers(2, 9))
            circ = random_circuit(n, 25, rng, control_probability=0.4)
            psi0 = linalg.random_state(n, rng) if k % 2 else None
            want = linalg.zero_state(n) if psi0 is None else psi0
            for op in circ.ops:
                want = engine.apply_multi_qubit_gate(
                    n, gates.gate_matrix(op.gate), op.targets, want, op.controls
                )
                seen.update(f for _, f in op.controls.entries)
                seen.add(len(op.targets))
            assert np.array_equal(engine.run_circuit(circ, psi0), want)
        assert seen == {True, False, 1, 2}

    def test_measurement_error_names_the_op(self):
        circ = parse_circuit("qubits 2\nH 0\nMEASURE 1\n")
        with pytest.raises(ContractError, match=r"^op 1 \(MEASURE 1\) is a measurement"):
            engine.run_circuit(circ)

    def test_compile_errors_come_before_the_measurement_error(self):
        # run_circuit compiles first, so a wire measured twice is named as such
        circ = parse_circuit("qubits 2\nMEASURE 0\nMEASURE 0\n")
        with pytest.raises(ContractError) as err:
            engine.run_circuit(circ)
        assert str(err.value) == "op 1 (MEASURE 0): wire 0 measured twice"


class TestCompileCircuit:
    def test_steps_slots_and_wire_map(self):
        circ = parse_circuit("qubits 3\nH 2\nMEASURE 1\nX 2 c=0\nMEASURE 0\n")
        steps, measured, wire_map = engine.compile_circuit(circ)
        assert [(n_live, plan is None, slot) for n_live, plan, slot in steps] == [
            (3, False, None), (3, True, 1), (2, False, None), (2, True, 0)
        ]
        assert measured == (1, 0)
        assert wire_map == {0: None, 1: None, 2: 0}

    def test_plan_runs_like_the_checked_entry_point(self):
        # X on live slot 1 controlled by slot 0, once wire 1 is measured away
        circ = parse_circuit("qubits 3\nMEASURE 1\nX 2 c=0\n")
        (_, _, _), (n_live, plan, _) = engine.compile_circuit(circ)[0]
        psi = linalg.random_state(2, np.random.default_rng(59))
        want = engine.apply_multi_qubit_gate(2, gates.gate_matrix("X"), (1,), psi, [(0, True)])
        assert n_live == 2
        assert np.array_equal(engine._run_plan(plan, psi.copy()), want)

    def test_wire_measured_twice_names_the_op(self):
        circ = parse_circuit("qubits 2\nH 0\nMEASURE 0\nMEASURE 0\n")
        with pytest.raises(ContractError) as err:
            engine.compile_circuit(circ)
        assert str(err.value) == "op 2 (MEASURE 0): wire 0 measured twice"

    def test_gate_on_measured_wire_names_the_op(self):
        circ = parse_circuit("qubits 2\nMEASURE 0\nH 1\nX 1 a=0\n")
        with pytest.raises(ContractError) as err:
            engine.compile_circuit(circ)
        assert str(err.value) == "op 2 (X 1 a=0) touches wire 0, which was measured"

    def test_plans_are_built_once_per_compile(self, monkeypatch):
        built = []
        real = engine._place
        monkeypatch.setattr(
            engine, "_place", lambda *args: built.append(args) or real(*args)
        )
        circ = parse_circuit("qubits 3\nH 0\nH 1\nMEASURE 0\nX 2 c=1\nMEASURE 1\nH 2\n")
        measurement.sample_shots(circ, 500, 3)
        assert len(built) == 4
        measurement.run_with_branches(circ)
        assert len(built) == 8


class TestTemplates:
    """Each catalog gate's template is derived once, at import."""

    def test_table_plans_match_derived_plans_and_the_oracle(self):
        rng = np.random.default_rng(60)
        n = 4
        for name in gates.gate_names():
            arity = gates.gate_def(name).arity
            derived = engine._template(gates.gate_def(name).matrix)
            for wires in itertools.permutations(range(n), arity + 2):
                targets = wires[:arity]
                for controls in ((), ((wires[arity], True), (wires[arity + 1], False))):
                    circ = Circuit(n, (GateOp(name, targets, ControlSpec(controls)),))
                    (_, plan, _), = engine.compile_circuit(circ)[0]
                    assert plan == engine._place(n, derived, targets, controls)
                    psi = linalg.random_state(n, rng)
                    np.testing.assert_allclose(
                        engine.run_circuit(circ, psi),
                        oracle.simulate_naive(circ, psi),
                        atol=1e-12,
                        rtol=0,
                    )

    def test_catalog_gates_derive_no_template(self, monkeypatch):
        derived = []
        real = engine._template
        monkeypatch.setattr(
            engine, "_template", lambda u: derived.append(u) or real(u)
        )
        rng = np.random.default_rng(61)
        circ = random_circuit(6, 40, rng, control_probability=0.4)
        engine.compile_circuit(circ)
        engine.run_circuit(circ)
        psi = linalg.zero_state(6)
        for op in circ.ops:
            psi = engine.apply_op(6, op, psi)
        measured = parse_circuit("qubits 2\nH 0\nX 1 c=0\nMEASURE 1\nH 0\nMEASURE 0\n")
        oracle.sample_shots_replay(measured, 20, 1)
        measurement.sample_shots(measured, 20, 1)
        assert derived == []
        # any other matrix derives its own template, once per call
        engine.apply_multi_qubit_gate(1, gates.gate_matrix("H"), (0,), [1, 0])
        assert len(derived) == 1
