import hashlib
import itertools
import os
from pathlib import Path

import differential
import numpy as np
import pytest

from qwsim import analysis, cli, engine, gates, linalg, measurement, oracle
from qwsim.circuit import (
    Circuit, ControlSpec, GateOp, _chunk_op, load_circuit, parse_circuit, random_circuit,
)
from qwsim.errors import ContractError, DimensionError, ParseError

_SQ2 = 1.0 / np.sqrt(2.0)
SWAP = gates.gate_matrix("SWAP")
CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"


def clear_memos():
    """Empty the process's memos of parsed gate chunks and placed plans."""
    _chunk_op.cache_clear()
    engine._placed.cache_clear()


def random_unitary(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
    def test_swap_matrix_matches_oracle_swap_wires(self):
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

    def test_every_catalog_gate_as_a_one_op_circuit_matches_oracle(self):
        # each gate runs as a one-op circuit, so its plan is placed from
        # the catalog template in _TEMPLATES, including I's empty one
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
                        engine.run_circuit(Circuit(n, (op,)), psi),
                        big @ psi,
                        atol=1e-12,
                        rtol=0,
                    )

    def test_no_target_is_refused(self):
        with pytest.raises(ContractError, match="^multi-qubit gate needs at least one target$"):
            engine.apply_multi_qubit_gate(2, [[1]], (), linalg.zero_state(2))

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
            circ = random_circuit(n, 25, rng)
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

    def test_reuse_is_refused_before_the_measurement_error(self):
        # the circuit refuses a wire measured twice, so run_circuit never sees it
        ops = (GateOp("MEASURE", (0,)), GateOp("MEASURE", (0,)))
        with pytest.raises(ContractError) as err:
            engine.run_circuit(Circuit(2, ops))
        assert str(err.value) == "op 1 (MEASURE 0): wire 0 measured twice"
        with pytest.raises(ParseError) as err:
            engine.run_circuit(parse_circuit("qubits 2\nMEASURE 0\nMEASURE 0\n"))
        assert str(err.value) == "line 3: op 1 (MEASURE 0): wire 0 measured twice"


class TestCompileCircuit:
    def test_steps_slots_and_wire_map(self):
        circ = parse_circuit("qubits 3\nH 2\nMEASURE 1\nX 2 c=0\nMEASURE 0\n")
        # a given start, so that no wire is known to be 0 and every gate is placed
        steps, measured, wire_map = engine.compile_circuit(circ.n, circ.ops, linalg.zero_state(3))
        # a split names its slot, the register it splits and its children's rows
        assert [(plan is None, at) for plan, at in steps] == [
            (False, None), (True, (1, 8, 4)), (False, None), (True, (0, 4, 2))
        ]
        # each plan views a state of the wires still live: 3, then 2
        assert [int(np.prod(plan[0])) for plan, _ in steps if plan is not None] == [8, 4]
        assert measured == (1, 0)
        assert wire_map == {0: None, 1: None, 2: 0}

    def test_plan_runs_like_the_checked_entry_point(self):
        # X on live slot 1 controlled by slot 0, once wire 1 is measured away
        circ = parse_circuit("qubits 3\nMEASURE 1\nX 2 c=0\n")
        (_, _), (plan, _) = engine.compile_circuit(circ.n, circ.ops, linalg.zero_state(3))[0]
        psi = linalg.random_state(2, np.random.default_rng(59))
        want = engine.apply_multi_qubit_gate(2, gates.gate_matrix("X"), (1,), psi, [(0, True)])
        assert np.array_equal(engine._run_plan(plan, psi.copy()), want)

    def test_plan_on_a_stack_equals_each_row_alone(self):
        # the measurement walker runs one plan on a (B, 2**n) stack of states
        rng = np.random.default_rng(62)
        for name in gates.gate_names():
            arity = gates.gate_def(name).arity
            for n_controls in range(3):
                for n in range(arity + n_controls, 7):
                    wires = [int(w) for w in rng.permutation(n)[: arity + n_controls]]
                    entries = [(w, bool(rng.random() < 0.5)) for w in wires[arity:]]
                    plan = engine._place(n, engine._TEMPLATES[name], wires[:arity], entries)
                    for b in (1, 3):
                        stack = np.stack([linalg.random_state(n, rng) for _ in range(b)])
                        rows = [engine._run_plan(plan, row.copy()) for row in stack]
                        assert np.array_equal(engine._run_plan(plan, stack), np.stack(rows))

    # The circuit refuses a measured wire's reuse, so a compile cannot fail.
    def test_wire_measured_twice_names_the_op(self):
        ops = (GateOp("H", (0,)), GateOp("MEASURE", (0,)), GateOp("MEASURE", (0,)))
        with pytest.raises(ContractError) as err:
            Circuit(2, ops)
        assert str(err.value) == "op 2 (MEASURE 0): wire 0 measured twice"
        assert err.value.op_index == 2

    def test_gate_on_measured_wire_names_the_op(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 2\nMEASURE 0\nH 1\nX 1 a=0\n")
        assert str(err.value) == "line 4: op 2 (X 1 a=0) touches wire 0, which was measured"

    @staticmethod
    def placements(monkeypatch):
        """A list of the args of each plan ``_place`` builds.  A placement the
        memo holds is not built, so each count starts from an empty memo, and
        a memo hit on gates that are all distinct means a second compile."""
        built = []
        real = engine._place
        monkeypatch.setattr(
            engine, "_place", lambda *args: built.append(args) or real(*args)
        )
        return built

    def test_plans_are_built_once_per_compile(self, monkeypatch):
        built = self.placements(monkeypatch)
        # Y 2 runs on the one slot that H 0 ran on, so it must differ from H
        circ = parse_circuit("qubits 3\nH 0\nH 1\nMEASURE 0\nX 2 c=1\nMEASURE 1\nY 2\n")
        engine._placed.cache_clear()
        measurement.sample_shots(circ, 500, 3)
        assert len(built) == 3  # Y 2, after the last MEASURE, is not placed
        assert engine._placed.cache_info().hits == 0
        engine._placed.cache_clear()
        measurement.run_with_branches(circ)
        assert len(built) == 7
        assert engine._placed.cache_info().hits == 0
        # a repeat compile of the same ops places nothing new
        measurement.sample_shots(circ, 500, 3)
        measurement.run_with_branches(circ)
        assert len(built) == 7

    def test_the_runners_compile_once_and_only_what_they_run(self, monkeypatch):
        built = self.placements(monkeypatch)
        measured = parse_circuit("qubits 2\nH 0\nCX 0 1\nMEASURE 0\n")
        engine._placed.cache_clear()
        with pytest.raises(ContractError, match="is a measurement"):
            engine.run_circuit(measured)
        assert built == []  # refused before any plan is placed
        # a measurement-free circuit places its three plans, and nothing else
        free = parse_circuit("qubits 3\nH 0\nCX 0 1\nH 2\n")
        measurement.run_with_branches(free)
        assert len(built) == 3
        assert engine._placed.cache_info().hits == 0
        # a repeat compile of the same ops places nothing new
        measurement.run_with_branches(free)
        engine.run_circuit(free)
        assert len(built) == 3


    @staticmethod
    def plan_digests():
        """sha256 of the compiles of every circuit file, with and without a
        given start, and of seeded random circuits, also with a MEASURE
        mid-way and cut short as the sampler cuts them: one over the compiles
        given a start, which keep wire order, or a MEASURE, and one over the
        MEASURE-free rest.  Without a start, a run grows its register in
        first-move order unless it is every wire past 16."""
        kept, prefix = hashlib.sha256(), hashlib.sha256()

        def add(n, ops, psi0=None):
            grows = psi0 is None and all(op.gate != "MEASURE" for op in ops)
            (prefix if grows else kept).update(repr(engine.compile_circuit(n, ops, psi0)).encode())

        for path in sorted(CIRCUITS.glob("*.qc")):
            circ = load_circuit(path)
            add(circ.n, circ.ops)
            if circ.n <= 20:
                add(circ.n, circ.ops, linalg.zero_state(circ.n))
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = 1 + seed % 12
            circ = random_circuit(n, 2 * n + 2, rng, single_qubit_only=seed % 6 == 5)
            add(n, circ.ops)
            add(n, circ.ops, linalg.zero_state(n))
            w, k = int(rng.integers(n)), len(circ.ops) // 2
            rest = tuple(op for op in circ.ops[k:] if w not in op.wires)
            measured = Circuit(n, circ.ops[:k] + (GateOp("MEASURE", (w,)),) + rest)
            add(n, measured.ops)
            add(n, measured.ops[: k + 1])
        return kept.hexdigest(), prefix.hexdigest()

    def test_compiled_plans_are_pinned(self):
        # a rewrite of the compile places the same plans given a start or a
        # MEASURE, from empty memos of parsed chunks and placed plans, and
        # again once both memos hold every chunk and plan
        want = "bd459a587314dbb7393ae5fc215fcc75ab9dc28ed4c846a6323b4807f5294fd6"
        clear_memos()
        assert self.plan_digests()[0] == want
        assert self.plan_digests()[0] == want

    def test_first_move_plans_are_pinned(self):
        # and the same plans, in first-move order, for the MEASURE-free rest,
        # cold and warm
        want = "ed808755d8b0d5446e0b8dff0859a400e91751ad2a3f484df38119b6e432b1d7"
        clear_memos()
        assert self.plan_digests()[1] == want
        assert self.plan_digests()[1] == want


class TestZeroWires:
    """Started at |00...0>, a compile places no plan for a gate that cannot
    change the state while some wires are still 0, and an anticontrol on
    each such wire for any other gate.  Results are held to runs without
    that knowledge in ``test_measurement.TestZeroWires``."""

    def test_the_gates_that_fix_block_0_are_derived_from_their_templates(self):
        want = {"I", "Z", "S", "SDG", "T", "TDG", "SWAP", "ISWAP", "SQRTSWAP"}
        assert engine._FIXES_ZERO == want

    def test_which_ops_place_no_plan_and_which_gain_anticontrols(self, monkeypatch):
        circ = parse_circuit(
            "qubits 4\n"
            "Z 0\n"  # diagonal on a wire still 0: no plan
            "X 1 c=2\n"  # wants 1 on wire 2, still 0: no plan
            "SWAP 2 3\n"  # both targets still 0: no plan
            "H 0\n"  # wire 0 leaves the set; in wire order, anticontrols on 1, 2, 3
            "X 1 a=2\n"  # its own anticontrol on 2, an implicit one on 3
            "CX 0 3\n"  # target 3 is still 0, but X moves block 0
            "T 2 c=0\n"  # T fixes block 0 and wire 2 is still 0: no plan
            "MEASURE 2\n"  # splits as ever; wire 2 leaves the set
            "H 3 c=1\n"  # live wires 0, 1, 3 as slots 0, 1, 2, none still 0
        )
        t = engine._TEMPLATES
        # grown: each gate runs on the wires slotted so far, with no
        # anticontrol; wire 2, moved by no gate, takes slot 3 to split
        want = [
            (engine._place(1, t["H"], (0,), ()), 2),
            (engine._place(2, t["X"], (1,), ()), 4),
            (engine._place(3, t["X"], (2,), ((0, True),)), 8),
            (None, (3, 16, 8)),
            (engine._place(3, t["H"], (2,), ((1, True),)), 8),
        ]
        steps, measured, wire_map = engine.compile_circuit(circ.n, circ.ops)
        assert steps == want
        assert (measured, wire_map) == ((2,), {0: 0, 1: 1, 2: None, 3: 2})
        # given a start, no wire is known to be 0: every gate is placed as written
        assert len(engine.compile_circuit(circ.n, circ.ops, linalg.zero_state(4))[0]) == len(circ.ops)
        # every wire moves or is measured, so past 2 * _SLICE amplitudes the
        # run keeps wire order, where a gate anticontrols each wire still 0
        monkeypatch.setattr(engine, "_SLICE", 4)
        want = [
            (engine._place(4, t["H"], (0,), ((1, False), (2, False), (3, False))), None),
            (engine._place(4, t["X"], (1,), ((2, False), (3, False))), None),
            (engine._place(4, t["X"], (3,), ((0, True), (2, False))), None),
            (None, (2, 16, 8)),
            (engine._place(3, t["H"], (2,), ((1, True),)), None),
        ]
        steps, measured, wire_map = engine.compile_circuit(circ.n, circ.ops)
        assert steps == want
        assert (measured, wire_map) == ((2,), {0: 0, 1: 1, 2: None, 3: 2})

    def test_a_plan_at_the_qubit_cap_stays_under_numpys_rank_limit(self):
        n = linalg.MAX_QUBITS
        # every odd wire leaves the set, so each even wire is an anticontrol;
        # the even wires move after the SWAP, so every wire moves and stays
        # on the register the walker runs
        text = "".join(f"H {w}\n" for w in range(1, n, 2))
        evens = "".join(f"H {w}\n" for w in range(0, n, 2))
        circ = parse_circuit(f"qubits {n}\n{text}SWAP {n - 1} {n - 3} c=1\n{evens}")
        plan = engine.compile_circuit(circ.n, circ.ops)[0][n // 2][0]
        named = 3 + n // 2  # the SWAP's targets, its control and 13 anticontrols
        # named wires and the single wires between them: an axis per wire
        assert len(plan.shape) == n <= 2 * named + 1
        # a stack of states adds one axis, and numpy takes each key on it;
        # zero strides make the view of 2**n amplitudes without memory
        stack = np.lib.stride_tricks.as_strided(
            np.zeros(1, dtype=complex), (3, *plan.shape), (0,) * (1 + len(plan.shape))
        )
        assert stack.ndim < 64
        for _, key in plan.keys:
            assert stack[key].shape[0] == 3

    def test_without_a_measure_the_plan_at_the_cap_sits_on_the_moved_wires(self):
        n = linalg.MAX_QUBITS
        text = "".join(f"H {w}\n" for w in range(1, n, 2))
        circ = parse_circuit(f"qubits {n}\n{text}SWAP {n - 1} {n - 3} c=1\n")
        steps, _, wire_map = engine.compile_circuit(circ.n, circ.ops)
        # the 13 odd wires, first moved in wire order, as slots 0..12: the SWAP
        # on slots 12 and 11, its control on slot 0, and no wire left to
        # anticontrol, run on all 2**13 amplitudes of the register
        assert [w for w, slot in wire_map.items() if slot is not None] == list(range(1, n, 2))
        want = engine._place(n // 2, engine._TEMPLATES["SWAP"], (12, 11), ((0, True),))
        assert steps[-1] == (want, 1 << 13)
        assert int(np.prod(want.shape)) == 1 << 13


class TestRegister:
    """A circuit with no MEASURE, started at |00...0>, runs on the register
    of the wires that its placed gates target; ``run_circuit`` scatters the
    result once into a state of every wire."""

    SPREAD = (
        "qubits 20\n"
        "H 7\n"  # anticontrols on 2, 13 and 19, still 0; none on the rest
        "X 2 c=7 a=5\n"  # wire 5 never moves, so its anticontrol always passes
        "Z 11\n"  # diagonal on a wire still 0: no plan
        "SWAP 7 13 a=2\n"
        "H 19 a=13\n"
        "ISWAP 13 2 c=19\n"
        "T 19 c=4\n"  # wants 1 on wire 4, which never moves: no plan
    )
    ZERO = "qubits 20\nZ 3\nX 1 c=2\nSWAP 4 5\n"

    @staticmethod
    def sizes(monkeypatch):
        sizes = []
        real = engine._run_plan
        monkeypatch.setattr(
            engine, "_run_plan", lambda plan, state: sizes.append(state.size) or real(plan, state)
        )
        return sizes

    def test_plans_sit_on_the_moved_wires_in_first_move_order(self):
        # wire 7 takes slot 0, then 2, 13 and 19; each plan names only the
        # wires moved so far, and no wire still 0 takes an anticontrol
        t = engine._TEMPLATES
        want = [
            (engine._place(1, t["H"], (0,), ()), 2),
            (engine._place(2, t["X"], (1,), ((0, True),)), 4),
            (engine._place(3, t["SWAP"], (0, 2), ((1, False),)), 8),
            (engine._place(4, t["H"], (3,), ((2, False),)), 16),
            (engine._place(4, t["ISWAP"], (2, 1), ((3, True),)), 16),
        ]
        steps, measured, wire_map = engine.compile_circuit(20, parse_circuit(self.SPREAD).ops)
        assert (steps, measured) == (want, ())
        slots = {7: 0, 2: 1, 13: 2, 19: 3}
        assert wire_map == {w: slots.get(w) for w in range(20)}
        # the CLI reads the walked row, whose bit s is the wire in slot s
        state, walked = engine._walk_register(parse_circuit(self.SPREAD))
        assert walked == sorted(slots, key=slots.get)
        full = engine.run_circuit(parse_circuit(self.SPREAD)).reshape((2,) * 20)
        index = tuple(slice(None) if w in slots else 0 for w in range(19, -1, -1))
        # axes highest wire first (19, 13, 7, 2) to highest slot first (19, 13, 2, 7)
        assert state.tobytes() == full[index].transpose(0, 1, 3, 2).tobytes()

    def test_every_plan_run_sees_two_to_the_k_amplitudes(self, monkeypatch):
        # k, the wires moved so far: a prefix of the register's one row
        circ = parse_circuit(self.SPREAD)
        sizes = self.sizes(monkeypatch)
        psi = engine.run_circuit(circ)
        assert sizes == [2, 4, 8, 16, 16]
        # given a start, every plan is placed on all 20 wires and runs on them
        sizes.clear()
        assert np.array_equal(psi, engine.run_circuit(circ, linalg.zero_state(20)))
        assert sizes == [1 << 20] * 7
        steps, _, wire_map = engine.compile_circuit(circ.n, circ.ops, linalg.zero_state(20))
        assert {(int(np.prod(plan.shape)), size) for plan, size in steps} == {(1 << 20, None)}
        assert wire_map == {w: w for w in range(20)}

    def test_every_prefix_is_a_view_of_the_walks_row(self, monkeypatch):
        # a plan writes through its prefix into the row: a prefix or a reshape
        # that copied would take the writes and drop them without an error
        bases = []
        real = engine._run_plan

        def spy(plan, state):
            bases.append(state.base)
            assert np.shares_memory(state.reshape(state.shape[:-1] + plan.shape), state)
            return real(plan, state)

        monkeypatch.setattr(engine, "_run_plan", spy)
        for name in ("shuffle16.qc", "descend18.qc", "slice17.qc", "grow18.qc"):
            circ = load_circuit(CIRCUITS / name)
            steps, _, wire_map = engine.compile_circuit(circ.n, circ.ops)
            k = sum(slot is not None for slot in wire_map.values())
            bases.clear()
            stack = engine._walk(engine._lower(circ, circ.ops))[2]
            assert len(bases) == len(steps) and all(base is stack for base in bases)
            assert [size for _, size in steps] == sorted(size for _, size in steps)
            assert steps[-1][1] == stack.size == 1 << k
            # so the row, in wire order, holds the run from a psi0, which
            # places every plan on all n wires; axis a holds slot k - 1 - a
            on = [w for w in range(circ.n) if wire_map[w] is not None]
            row = stack[0].reshape((2,) * k).transpose([k - 1 - wire_map[w] for w in reversed(on)])
            full = engine.run_circuit(circ, linalg.zero_state(circ.n)).reshape((2,) * circ.n)
            index = tuple(slice(None) if wire_map[w] is not None else 0 for w in range(circ.n - 1, -1, -1))
            assert np.array_equal(row, full[index])

        # a measured walk: after a split, each plan runs on the prefix of
        # every row of the stack that split made, wider rows than the plan's
        # register included
        stacks = []
        real_split = engine._split

        def split_spy(*args):
            out = real_split(*args)
            stacks.append(out[3])
            return out

        monkeypatch.setattr(engine, "_split", split_spy)
        monkeypatch.setattr(engine, "_run_plan", lambda plan, state: bases.append((state, len(stacks))) or real(plan, state))
        narrower = False  # some plan's prefix is narrower than a stack of rows
        for name in ("sample10.qc", "measure17.qc", "fresh12.qc"):
            circ = load_circuit(CIRCUITS / name)
            bases.clear()
            stacks.clear()
            tree = measurement.run_with_branches(circ)
            after = [(state, stacks[d - 1]) for state, d in bases if d]
            narrower |= any(len(state) > 1 and state.shape[1] < rows.shape[1] for state, rows in after)
            for state, rows in after:
                assert state.shape[0] == rows.shape[0] and state.shape[1] <= rows.shape[1]
                assert np.shares_memory(state, rows)
            # so the plans' writes reach the leaves: they are those of a psi0
            # run, which walks every wire in wire order
            ref = measurement.run_with_branches(circ, linalg.zero_state(circ.n))
            assert [leaf.outcomes for leaf in tree.leaves] == [leaf.outcomes for leaf in ref.leaves]
            for leaf, want in zip(tree.leaves, ref.leaves):
                assert abs(leaf.probability - want.probability) <= 1e-15
                np.testing.assert_allclose(leaf.state, want.state, rtol=0, atol=1e-15)
        assert narrower

    def test_the_register_grows_unless_it_is_every_wire_past_sixteen(self):
        # every wire, with 2**n beyond 2 * _SLICE, keeps wire order
        text = "".join(f"H {w}\n" for w in range(16, -1, -1))
        steps, _, wire_map = engine.compile_circuit(17, parse_circuit(f"qubits 17\n{text}").ops)
        assert wire_map == {w: w for w in range(17)}
        assert {(int(np.prod(plan.shape)), size) for plan, size in steps} == {(1 << 17, None)}
        steps, _, wire_map = engine.compile_circuit(16, parse_circuit(f"qubits 16\n{text[5:]}").ops)
        assert wire_map == {w: 15 - w for w in range(16)}
        assert [size for _, size in steps] == [2 << k for k in range(16)]
        # 17 of 18 wires, past 2 * _SLICE but not every wire: the register grows
        order = (9, 3, 14, 0, 7, 12, 5, 1, 15, 10, 2, 8, 13, 6, 11, 4, 16)
        circ = parse_circuit("qubits 18\n" + "".join(f"H {w}\n" for w in order) + "CX 3 7 a=17\nT 5\n")
        steps, _, wire_map = engine.compile_circuit(18, circ.ops)
        assert wire_map == {w: order.index(w) if w in order else None for w in range(18)}
        assert [size for _, size in steps] == [2 << k for k in range(17)] + [1 << 17] * 2
        assert all(int(np.prod(plan.shape)) == size for plan, size in steps)
        # the same bytes as a run that places every plan on all 18 wires
        psi = engine.run_circuit(circ)
        assert np.array_equal(psi, engine.run_circuit(circ, linalg.zero_state(18)))
        # the walked row holds wire 17 = 0 of it, with slots in first-move order
        state, walked = engine._walk_register(circ)
        assert walked == list(order)
        by_slot = psi.reshape((2,) * 18)[0].transpose([16 - w for w in reversed(order)])
        assert state.tobytes() == by_slot.tobytes()

    def test_a_circuit_that_moves_no_wire_runs_no_plan(self, monkeypatch):
        circ = parse_circuit(self.ZERO)
        assert engine.compile_circuit(circ.n, circ.ops) == ([], (), dict.fromkeys(range(20)))
        sizes = self.sizes(monkeypatch)
        psi = engine.run_circuit(circ)
        assert sizes == []
        assert psi.tobytes() == linalg.zero_state(20).tobytes()
        # a psi0 run places each of its three gates on all 20 wires
        steps = engine.compile_circuit(circ.n, circ.ops, linalg.zero_state(20))[0]
        assert [int(np.prod(plan.shape)) for plan, _ in steps] == [1 << 20] * 3

    @pytest.mark.parametrize("text", [SPREAD, ZERO, "qubits 3\nH 0\nCX 0 1\nH 2\n"])
    def test_branches_of_a_measure_free_circuit_are_the_plain_run(self, text):
        circ = parse_circuit(text)
        tree = measurement.run_with_branches(circ)
        (leaf,) = tree.leaves
        assert (leaf.outcomes, leaf.probability) == ((), 1.0)
        assert leaf.state.tobytes() == engine.run_circuit(circ).tobytes()
        # every wire keeps its own index in the leaf state
        assert tree.measured_wires == ()
        assert tree.wire_map == {w: w for w in range(circ.n)}

    @pytest.mark.parametrize(
        "text, psi0, runner",
        [
            ("qubits 6\nH 2\n", None, engine.run_circuit),  # a register of 1 wire
            ("qubits 3\nH 0\nH 1\nH 2\n", None, engine.run_circuit),  # K = n
            ("qubits 6\nH 2\n", linalg.zero_state(6), engine.run_circuit),
            ("qubits 6\nH 2\n", None, measurement.run_with_branches),
            # a gate after the last MEASURE writes the leaves the walk ends on
            ("qubits 2\nX 0\nMEASURE 0\nH 1\n", None, measurement.run_with_branches),
            # the trailing gate writes one leaf of two, the last or the first;
            # SQRTSWAP, not H, splits the state, so every split reads unit rows
            ("qubits 3\nX 0\nSQRTSWAP 0 1\nMEASURE 0\nH 2 a=1\n", None, measurement.run_with_branches),
            ("qubits 3\nX 0\nSQRTSWAP 0 1\nMEASURE 0\nH 2 c=1\n", None, measurement.run_with_branches),
        ],
        ids=["register", "every-wire", "psi0", "branches", "measured-trailing", "last-leaf", "first-leaf"],
    )
    def test_a_result_off_the_unit_norm_raises(self, monkeypatch, text, psi0, runner):
        # a kernel bug stand-in: an H that doubles every amplitude it writes
        bad = engine._template(2 * gates.gate_def("H").matrix)
        monkeypatch.setitem(engine._TEMPLATES, "H", bad)
        with pytest.raises(ContractError, match="not normalized"):
            runner(parse_circuit(text), psi0)

    def test_a_walk_of_1024_unit_leaves_passes_the_norm_test(self):
        # 10 MEASUREs, then a gate, so the walk ends on 1024 rows it tests
        text = "qubits 11\n" + "".join(f"H {w}\nMEASURE {w}\n" for w in range(10)) + "H 10\n"
        tree = measurement.run_with_branches(parse_circuit(text))
        assert len(tree.leaves) == 1024
        plus = gates.gate_def("H").matrix[:, 0]
        for leaf in tree.leaves:
            assert leaf.state.tobytes() == plus.astype(complex).tobytes()

    def test_the_norm_test_reads_the_register_alone(self, monkeypatch):
        sizes = []

        def spy(real):
            return lambda states, norms: sizes.append(np.size(states)) or real(states, norms)

        # engine's own name for the test, and the one check_unit_state calls
        monkeypatch.setattr(engine, "check_unit_norms", spy(engine.check_unit_norms))
        monkeypatch.setattr(linalg, "check_unit_norms", spy(linalg.check_unit_norms))
        circ = parse_circuit(self.SPREAD)
        engine.run_circuit(circ)
        assert sizes == [1 << 4]
        # a psi0 is checked at the start, and the run of all 20 wires at the end
        sizes.clear()
        engine.run_circuit(circ, linalg.zero_state(20))
        assert sizes == [1 << 20, 1 << 20]

    def test_the_lowering_places_each_slot_by_the_one_rule(self, monkeypatch):
        # each slot's bit is the rank of its wire among the unmeasured wires,
        # worked out here from the compile's wire_map; the walk starts on the
        # register of the first split, or else on 2**len(bits) amplitudes
        starts = []
        real = engine._split
        monkeypatch.setattr(engine, "_split", lambda stack, *a: starts.append(stack.base.shape[1]) or real(stack, *a))
        rng = np.random.default_rng(11)
        seen = {"measured, ranks not wires": 0, "slots out of order": 0, "split": 0}
        for c in range(100):
            kind = differential.KINDS[c % len(differential.KINDS)]
            circ = parse_circuit(differential.random_text(rng, kind))
            psi0 = None
            if kind == "psi0":
                psi0 = rng.normal(size=(2, 1 << circ.n)).T @ [1, 1j]
                psi0 /= np.linalg.norm(psi0)
            steps, measured, wire_map = engine.compile_circuit(circ.n, circ.ops, psi0)
            kept = [w for w in range(circ.n) if w not in measured]
            wires = sorted((w for w in kept if wire_map[w] is not None), key=wire_map.get)
            bits = [kept.index(w) for w in wires]
            if not measured:
                assert bits == wires
            seen["measured, ranks not wires"] += bits != wires
            seen["slots out of order"] += bits != sorted(bits)
            low = engine._lower(circ, circ.ops, psi0)
            assert (low.steps, low.measured, low.kept, low.bits) == (steps, measured, kept, bits)
            assert (psi0 is None) == (low.psi0 is None)
            starts.clear()
            stack = engine._walk(low)[2]
            sizes = [at[1] for plan, at in steps if plan is None]
            seen["split"] += bool(sizes)
            assert (starts or [stack.shape[1]])[0] == (sizes or [1 << len(bits)])[0], (kind, circ)
        assert all(count >= 10 for count in seen.values()), seen


MEASURED_12Q ="""qubits 12
H 11 ; H 3 ; H 6
SQRTSWAP 11 2
Y 7 c=3
MEASURE 3
H 0
ISWAP 10 4 a=11
X 6 c=0 a=2
MEASURE 11
SWAP 9 1
H 8
Y 10
MEASURE 0
H 5
"""


class TestSlicing:
    """A state of more than ``2 * _SLICE`` amplitudes runs its plans with a
    small ufunc buffer, multi-pass plans on blocks bigger than one slice run
    slice by slice, and plans on wire 1 with wire 0 free run as two wire-0
    halves; none of that changes a bit of any result."""

    UNSLICED = engine._SLICE  # a 12-qubit state is too small to slice
    FORCED = 1 << 6  # slices every multi-pass plan below
    MULTI_PASS = ("H", "X", "Y", "SWAP", "ISWAP", "SQRTSWAP")

    @staticmethod
    def run(monkeypatch, width, plan, states):
        monkeypatch.setattr(engine, "_SLICE", width)
        return engine._run_plan(plan, states.copy())

    @pytest.mark.parametrize("shape", [(1 << 12,), (3, 1 << 11)])
    def test_every_catalog_gate_is_bit_identical(self, monkeypatch, shape):
        rng = np.random.default_rng(63)
        n = shape[-1].bit_length() - 1
        # the first pattern targets the top wire, which fixes axis 0, so a
        # later axis is sliced; the last names wire 1 but not wire 0, so each
        # piece runs as two wire-0 halves
        patterns = ([n - 1, 0, 5, 3], [0, 1, 2, 3], [5, 2, 9, 4], [3, 7, n - 1, 0], [1, 6, 3, 9])
        for wires in patterns:
            for name in gates.gate_names():
                arity = gates.gate_def(name).arity
                for controls in ((), ((wires[arity], True), (wires[arity + 1], False))):
                    plan = engine._place(n, engine._TEMPLATES[name], wires[:arity], controls)
                    assert (plan.cut is not None) == (name in self.MULTI_PASS)
                    assert plan.halves == (min(wires[: arity + len(controls)]) == 1)
                    states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    want = self.run(monkeypatch, self.UNSLICED, plan, states)
                    got = self.run(monkeypatch, self.FORCED, plan, states)
                    assert np.array_equal(got, want), (name, wires, controls)

    def test_a_plan_on_every_wire_is_never_sliced(self, monkeypatch):
        # every axis is fixed, so none is free to slice, however many rows
        plan = engine._place(3, engine._TEMPLATES["SWAP"], (0, 2), ((1, False),))
        assert plan.cut is None
        rng = np.random.default_rng(64)
        states = rng.standard_normal((1 << 10, 8)) + 1j * rng.standard_normal((1 << 10, 8))
        want = self.run(monkeypatch, self.UNSLICED, plan, states)
        assert np.array_equal(self.run(monkeypatch, 1, plan, states), want)

    def test_a_plan_on_every_wire_but_0_is_never_halved(self, monkeypatch):
        # wire 0 is the only free axis, so a half of one state would be a
        # block of one amplitude, which numpy rounds unlike a stack's rows
        rng = np.random.default_rng(65)
        for name in gates.gate_names():
            arity = gates.gate_def(name).arity
            for n_controls in range(3):
                n = arity + n_controls + 1
                wires = [int(w) for w in rng.permutation(range(1, n))]
                entries = [(w, bool(k % 2)) for k, w in enumerate(wires[arity:])]
                plan = engine._place(n, engine._TEMPLATES[name], wires[:arity], entries)
                assert not plan.halves
                stack = np.stack([linalg.random_state(n, rng) for _ in range(3)])
                want = self.run(monkeypatch, self.UNSLICED, plan, stack)
                # every run, one row or three, takes the big-state path
                rows = [self.run(monkeypatch, 1, plan, row) for row in stack]
                assert np.array_equal(np.stack(rows), want), (name, wires)
                assert np.array_equal(self.run(monkeypatch, 1, plan, stack), want), (name, wires)

    def test_the_callers_buffer_size_is_restored(self, monkeypatch):
        root = Path(__file__).resolve().parents[1] / "circuits"
        plain = load_circuit(root / "wide17.qc")
        measured = load_circuit(root / "measure17.qc")
        seen = []  # the buffer size and the slice shape each step run sees
        real = engine._run_steps
        monkeypatch.setattr(
            engine,
            "_run_steps",
            lambda view, *args: seen.append((np.getbufsize(), view.shape)) or real(view, *args),
        )
        old = np.setbufsize(4096)
        try:
            engine.run_circuit(plain)
            assert np.getbufsize() == 4096
            # every wire leaves |0>, so every plan runs on 2**17 amplitudes the
            # big-state way, and H 5, on a view of shape (1, 2048, 2, 32) (the
            # walk's stack of one row), runs slice by slice, _SLICE amplitudes
            # at a time
            assert {bufsize for bufsize, _ in seen} == {engine._BUFSIZE}
            assert (1, engine._SLICE // 64, 2, 32) in [shape for _, shape in seen]
            measurement.run_with_branches(measured)
            assert np.getbufsize() == 4096
            measurement.sample_shots(measured, 50, 7)
            assert np.getbufsize() == 4096
            # every wire moves: stacks of 2**17 amplitudes, the big-state way
            seen.clear()
            every = load_circuit(root / "measure17all.qc")
            measurement.run_with_branches(every)
            measurement.sample_shots(every, 50, 7)
            assert np.getbufsize() == 4096
            assert {bufsize for bufsize, _ in seen} == {engine._BUFSIZE}
        finally:
            np.setbufsize(old)

    # a state of 2**12 amplitudes is big once it holds more than 2 * _SLICE
    @pytest.mark.parametrize("width, bufsize", [(1 << 11, 4096), ((1 << 11) - 1, engine._BUFSIZE)])
    def test_a_step_that_raises_restores_the_buffer_size(self, monkeypatch, width, bufsize):
        seen = []

        class Scale(complex):  # a step's scale that fails once it is read
            def __ne__(self, other):
                seen.append(np.getbufsize())
                raise ArithmeticError("step failed")

        plan = engine._place(12, engine._TEMPLATES["T"], (1,), ())
        (r, ((c, x),)), = plan.steps
        plan = plan._replace(steps=((r, ((c, Scale(x)),)),))
        monkeypatch.setattr(engine, "_SLICE", width)
        old = np.setbufsize(4096)
        try:
            with pytest.raises(ArithmeticError):
                engine._run_plan(plan, np.ones(1 << 12, dtype=complex))
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)
        # the step ran under the buffer of its path: the caller's on a small
        # state, ``_BUFSIZE`` on a big one
        assert seen == [bufsize]

    def test_branches_and_shots_are_bit_identical(self, monkeypatch):
        circ = parse_circuit(MEASURED_12Q)

        def outputs():
            tree = measurement.run_with_branches(circ)
            leaves = [(leaf.outcomes, leaf.probability) for leaf in tree.leaves]
            return leaves, [leaf.state for leaf in tree.leaves], measurement.sample_shots(circ, 3000, 9)

        leaves, states, histogram = outputs()
        monkeypatch.setattr(engine, "_SLICE", self.FORCED)
        sliced_leaves, sliced_states, sliced_histogram = outputs()
        assert len(leaves) == 8
        assert sliced_leaves == leaves
        assert all(map(np.array_equal, sliced_states, states))
        assert sliced_histogram == histogram

    def test_grown_branches_and_shots_are_bit_identical(self, monkeypatch):
        # wire 12 stays idle, so the walk grows its register under either
        # _SLICE; forced, its plans run slice by slice and as wire-0 halves on
        # the prefixes of stacks of several rows, which H 11 then widens
        circ = parse_circuit(
            "qubits 13\n" + "".join(f"H {w}\n" for w in range(10))
            + "T 9\nCX 9 4\nMEASURE 9\nH 1\nSWAP 2 5 c=8\nISWAP 4 6 a=0\nCX 3 1\nT 8\nH 11 c=2\n"
            "H 1\nCX 8 3\nMEASURE 8\nH 1 c=3\nSQRTSWAP 1 7\nY 6 a=11\nCX 5 11\nMEASURE 5\nX 1 c=11\n"
        )
        runs = []
        real = engine._run_plan
        monkeypatch.setattr(
            engine, "_run_plan", lambda plan, state: runs.append((plan, state)) or real(plan, state)
        )

        def outputs():
            tree = measurement.run_with_branches(circ)
            leaves = [(leaf.outcomes, leaf.probability) for leaf in tree.leaves]
            return leaves, [leaf.state for leaf in tree.leaves], measurement.sample_shots(circ, 3000, 9)

        leaves, states, histogram = outputs()
        monkeypatch.setattr(engine, "_SLICE", self.FORCED)
        runs.clear()
        sliced_leaves, sliced_states, sliced_histogram = outputs()
        steps = engine.compile_circuit(circ.n, circ.ops)[0]
        assert all(size is not None for plan, size in steps if plan is not None)
        assert len(leaves) == 8
        assert sliced_leaves == leaves
        assert all(map(np.array_equal, sliced_states, states))
        assert sliced_histogram == histogram
        # plans on strided prefixes of stacks, each past 2 * _SLICE amplitudes
        prefixes = [
            plan for plan, state in runs
            if len(state) > 1 and not state.flags.c_contiguous and state.size > 2 * self.FORCED
        ]
        assert any(plan.halves for plan in prefixes)
        assert any(plan.cut is not None for plan in prefixes)


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
                    psi = linalg.random_state(n, rng)
                    (plan, _), = engine.compile_circuit(circ.n, circ.ops, psi)[0]
                    assert plan == engine._place(n, derived, targets, controls)
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
        circ = random_circuit(6, 40, rng)
        engine.compile_circuit(circ.n, circ.ops)
        engine.run_circuit(circ)
        measured = parse_circuit("qubits 2\nH 0\nX 1 c=0\nMEASURE 1\nH 0\nMEASURE 0\n")
        measurement.sample_shots(measured, 20, 1)
        assert derived == []
        # any other matrix derives its own template, once per call
        engine.apply_multi_qubit_gate(1, gates.gate_matrix("H"), (0,), [1, 0])
        assert len(derived) == 1


class TestPlacementMemo:
    """``compile_circuit`` takes each plan from a memo of ``_place``, bounded
    at 1024 placements and keyed by ``(k, template, slots, entries)``."""

    def test_a_repeat_compile_returns_the_same_plans(self):
        clear_memos()
        for text, psi0 in (
            (MEASURED_12Q, None),  # a measured register grown in first-move order
            # every wire moved past 2 * _SLICE: wire order, with zero-wire anticontrols
            ((CIRCUITS / "measure17all.qc").read_text(), None),
            (TestRegister.SPREAD, None),  # a register grown in first-move order
            (TestRegister.SPREAD, linalg.zero_state(20)),
        ):
            circ = parse_circuit(text)
            first = engine.compile_circuit(circ.n, circ.ops, psi0)
            misses = engine._placed.cache_info().misses
            again = engine.compile_circuit(circ.n, circ.ops, psi0)
            assert engine._placed.cache_info().misses == misses
            assert again == first
            assert all(p is q for (p, _), (q, _) in zip(first[0], again[0]))

    def test_a_template_swapped_in_gets_a_plan_of_its_own(self, monkeypatch):
        # the key holds the template itself, not the gate's name
        circ = parse_circuit("qubits 2\nH 0\nX 1 c=0\n")
        (real, _), _ = engine.compile_circuit(circ.n, circ.ops)[0]
        bad = engine._template(2 * gates.gate_def("H").matrix)
        monkeypatch.setitem(engine._TEMPLATES, "H", bad)
        (swapped, _), _ = engine.compile_circuit(circ.n, circ.ops)[0]
        assert swapped == engine._place(1, bad, (0,), ())
        assert swapped.steps != real.steps
        monkeypatch.undo()
        assert engine.compile_circuit(circ.n, circ.ops)[0][0][0] is real

    def test_the_memo_stays_at_its_bound(self):
        clear_memos()
        # 3 * (1 + ... + 26) = 1053 distinct placements: a given start keeps
        # every wire in wire order, so each gate is placed on its own wire of
        # n; the compile reads no amplitude of it, so zero strides make it
        for n in range(1, linalg.MAX_QUBITS + 1):
            psi0 = np.broadcast_to(np.zeros(1, dtype=complex), (1 << n,))
            for w in range(n):
                for name in ("H", "X", "Y"):
                    ops = (GateOp(name, (w,)), GateOp("MEASURE", (w,)))
                    engine.compile_circuit(n, ops, psi0)
        info = engine._placed.cache_info()
        assert info.misses == 1053
        assert info.currsize == info.maxsize == 1024


def _inverse_check_lines(n, rng):
    """An H on every wire, then ``3 * n`` gates in perfbench's mix, then the
    inverse of all of it, as circuit lines.

    Half the mix is plain 1-qubit gates, a quarter 1-qubit gates with one
    or two controls or anticontrols, alternating, and the rest the 2-qubit
    gates in turn, every other one with a control or anticontrol.  A gate's
    inverse keeps its wires: S and SDG, and T and TDG, swap; H, X, Y, Z and
    SWAP are their own; ISWAP and SQRTSWAP, whose fourth powers are I, take
    three copies.
    """
    one, two = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG"), ("SWAP", "ISWAP", "SQRTSWAP")
    count = 3 * n
    plain, controlled = count - count // 2, count // 4
    mix = []
    for k in range(count):
        if k < plain + controlled:
            name, arity = one[int(rng.integers(len(one)))], 1
            n_controls = 0 if k < plain else 1 + k % 2
        else:
            name, arity, n_controls = two[k % 3], 2, k % 2
        wires = [int(w) for w in rng.choice(n, arity + n_controls, replace=False)]
        tokens = [name, *map(str, wires[:arity])]
        tokens += [f"{'ca'[int(rng.integers(2))]}={w}" for w in wires[arity:]]
        mix.append(tokens)
    mix = [mix[i] for i in rng.permutation(count)]
    forward = [["H", str(w)] for w in range(n)] + mix
    inverse = {"S": "SDG", "SDG": "S", "T": "TDG", "TDG": "T"}
    backward = []
    for name, *rest in reversed(forward):
        copies = 3 if name in ("ISWAP", "SQRTSWAP") else 1
        backward += [[inverse.get(name, name), *rest]] * copies
    return [" ".join(tokens) for tokens in forward + backward]


# 22 qubits take about 2 s and a few 64 MiB states; set this to run them
WIDE = os.environ.get("QWSIM_TEST_WIDE") == "1"


class TestInverseAtFullWidth:
    """A circuit followed by its inverse returns |00...0>: an answer that
    the engine does not produce, checked on states past ``2 * _SLICE``
    amplitudes, where plans run sliced, under ``_BUFSIZE`` and as wire-0
    halves, at their real sizes."""

    @pytest.mark.parametrize(
        "n", [20, pytest.param(22, marks=pytest.mark.skipif(not WIDE, reason="QWSIM_TEST_WIDE=1"))]
    )
    def test_a_circuit_then_its_inverse_returns_to_zero(self, n):
        text = "\n".join([f"qubits {n}", *_inverse_check_lines(n, np.random.default_rng(n))])
        zero = linalg.zero_state(n)
        runs = []
        clear_memos()
        for _ in ("cold", "warm"):
            circ = parse_circuit(text)
            steps = engine.compile_circuit(circ.n, circ.ops)[0]
            runs.append(engine.run_circuit(circ))
            assert np.max(np.abs(runs[-1] - zero)) < 1e-12
        assert runs[0].tobytes() == runs[1].tobytes()
        # every wire in wire order, so every plan runs on all 2**n amplitudes;
        # the inverse half shares the plans of the forward half
        plans = [plan for plan, _ in steps]
        assert all(size is None for _, size in steps)
        assert any(plan.cut is not None for plan in plans)
        assert any(plan.halves for plan in plans)
        assert len({id(plan) for plan in plans}) < len(plans)


def _product_blocks(n, idle, rng):
    """Three interleaved blocks of an ``n``-wire circuit, wire ``w`` in block
    ``w % 3`` and ``idle`` in none, as ``(wires, gates)`` per block.

    A gate is ``(name, targets, controls)`` on the block's own wires 0 to
    m - 1, each control a ``(flag, wire)`` pair.  Each block has an H on
    each of its wires, in a shuffled order, then three catalog gates per
    wire with up to two controls or anticontrols, all inside the block.
    """
    names = gates.gate_names()
    blocks = []
    for b in range(3):
        wires = [w for w in range(b, n, 3) if w != idle]
        m = len(wires)
        ops = [("H", (int(w),), ()) for w in rng.permutation(m)]
        for _ in range(3 * m):
            name = names[int(rng.integers(len(names)))]
            arity = gates.gate_def(name).arity
            picked = [int(w) for w in rng.choice(m, arity + int(rng.integers(3)), replace=False)]
            controls = tuple(("ca"[int(rng.integers(2))], w) for w in picked[arity:])
            ops.append((name, tuple(picked[:arity]), controls))
        blocks.append((wires, ops))
    return blocks


def _gate_line(gate, wire):
    """A circuit line of ``(name, targets, controls)``, each wire mapped by ``wire``."""
    name, targets, controls = gate
    return " ".join([name, *(str(wire(t)) for t in targets), *(f"{f}={wire(w)}" for f, w in controls)])


class TestProductAtFullWidth:
    """A circuit of three blocks that no gate crosses ends in the tensor
    product of each block's state, which the dense oracle gives on at most
    seven wires: an answer the engine does not produce, checked at 20 wires,
    on every wire in wire order and on a grown register of 19 in a shuffled
    order, as ``run_circuit`` returns it and as ``qwsim stats`` reads it."""

    N = 20

    @classmethod
    def build(cls, idle, seed):
        """The circuit's text, with the blocks' gates interleaved at random,
        and each block's wires and oracle state."""
        rng = np.random.default_rng(seed)
        blocks = _product_blocks(cls.N, idle, rng)
        pending = [iter(ops) for _, ops in blocks]
        turns = rng.permutation([b for b, (_, ops) in enumerate(blocks) for _ in ops])
        lines = [f"qubits {cls.N}"]
        lines += [_gate_line(next(pending[b]), blocks[b][0].__getitem__) for b in turns]
        states = []
        for wires, ops in blocks:
            local = "\n".join([f"qubits {len(wires)}", *(_gate_line(op, int) for op in ops)])
            states.append((wires, oracle.simulate_naive(parse_circuit(local))))
        return "\n".join(lines) + "\n", states

    @staticmethod
    def product(states, idle):
        """The blocks' states as one state of every wire, in wire order; the
        idle wire, if any, is |0>."""
        tensor, axis_of = np.ones(()), {}
        for wires, psi in states + ([([idle], linalg.zero_state(1))] if idle is not None else []):
            m = len(wires)
            axis_of.update((w, tensor.ndim + m - 1 - i) for i, w in enumerate(wires))
            tensor = np.multiply.outer(tensor, psi.reshape((2,) * m))
        return tensor.transpose([axis_of[w] for w in range(len(axis_of) - 1, -1, -1)]).reshape(-1)

    @pytest.mark.parametrize("idle", [None, 11], ids=["every-wire", "one-idle"])
    def test_run_circuit_is_the_product_of_the_blocks(self, idle):
        text, states = self.build(idle, 3)
        circ = parse_circuit(text)
        steps, _, wire_map = engine.compile_circuit(circ.n, circ.ops)
        if idle is None:  # every wire past 2 * _SLICE: wire order, whole-state plans
            assert all(size is None for _, size in steps)
        else:  # 19 wires grown in a shuffled first-move order
            slots = [wire_map[w] for w in range(self.N) if w != idle]
            assert wire_map[idle] is None and slots != sorted(slots)
            assert steps[-1][1] == 1 << (self.N - 1)
        assert np.max(np.abs(engine.run_circuit(circ) - self.product(states, idle))) < 1e-10

    def test_stats_of_the_grown_register_are_the_blocks(self, capsys, tmp_path, monkeypatch):
        idle = 11
        text, states = self.build(idle, 3)
        path = tmp_path / "product.qc"
        path.write_text(text)
        wire_map = engine.compile_circuit(self.N, parse_circuit(text).ops)[2]
        # a pair inside block 0 whose lower wire holds the higher slot
        block, block_psi = states[0]
        lo, hi = next((a, b) for a, b in itertools.combinations(block, 2) if wire_map[a] > wire_map[b])
        rhos = []
        real_pair_stats = analysis.pair_stats
        monkeypatch.setattr(analysis, "pair_stats", lambda rho: rhos.append(rho) or real_pair_stats(rho))
        code = cli.main(["stats", str(path), "--pair", str(hi), str(lo), "--format", "records"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        *rows, pair_line = out.splitlines()
        assert pair_line.startswith(f"pair ({lo},{hi}): ")
        records = [dict(field.split("=") for field in row.split()) for row in rows]
        assert [int(r["qubit"]) for r in records] == list(range(self.N))
        assert rows[idle] == (f"qubit={idle} prob1=0 x=0 y=0 z=1 r=1 theta=0 phi=0 "
                              "purity=1 lin_entropy=0")
        for wires, psi in states:
            m = len(wires)
            rho = np.outer(psi, psi.conj())
            for i, w in enumerate(wires):
                want = analysis.qubit_stats(oracle.partial_trace_by_definition(rho, m, [j for j in range(m) if j != i]))
                got = [float(v) for k, v in records[w].items() if k != "qubit"]
                np.testing.assert_allclose(got, list(vars(want).values()), rtol=0, atol=1e-10)
        # bit 0 of the pair's matrix is the lower wire, as in the oracle's
        traced = [j for j, w in enumerate(block) if w not in (lo, hi)]
        want = oracle.partial_trace_by_definition(np.outer(block_psi, block_psi.conj()), len(block), traced)
        (got,) = rhos
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @classmethod
    def build_measured(cls, seed, count, idle=None):
        """The circuit of :meth:`build` with ``count`` wires of block 0
        measured, those whose last gate comes first, each right after that
        gate; block 0's own circuit with the same MEASUREs on its local wires
        ``w // 3``; and each block's wires and oracle state."""
        text, states = cls.build(idle, seed)
        ops = parse_circuit(text).ops
        last = {w: k for k, op in enumerate(ops) for w in op.wires if w % 3 == 0}
        picked = sorted(last, key=last.get)[:count]
        lines, local = [f"qubits {cls.N}"], [f"qubits {len(states[0][0])}"]
        for k, op in enumerate(ops):
            lines.append(str(op))
            if op.targets[0] % 3 == 0:
                entries = [(w // 3, f) for w, f in op.controls.entries]
                local.append(str(GateOp(op.gate, [w // 3 for w in op.targets], entries)))
            for w in (w for w in picked if last[w] == k):
                lines.append(f"MEASURE {w}")
                local.append(f"MEASURE {w // 3}")
        return parse_circuit("\n".join(lines)), parse_circuit("\n".join(local)), states

    def test_branches_and_shots_of_a_measured_block_are_the_oracles(self):
        circ, local, states = self.build_measured(7, 3)
        # gates run in wire order, after each MEASURE on a stack of its rows
        steps = engine.compile_circuit(circ.n, circ.ops)[0]
        splits = [k for k, (plan, _) in enumerate(steps) if plan is None]
        assert len(splits) == 3 and splits[-1] < len(steps) - 1
        assert all(size is None for plan, size in steps if plan is not None)
        assert all(steps[k + 1][0] is not None for k in splits[:-1])
        self.check_measured_block(circ, local, states, None)

    def test_branches_and_shots_of_a_grown_measured_block_are_the_oracles(self):
        idle = 11
        circ, local, states = self.build_measured(7, 3, idle)
        # the walk grows its register over the other wires in first-move
        # order and splits it three times: plans after each MEASURE run on
        # the prefixes of stacks of 2, 4 and then 8 rows
        steps = engine.compile_circuit(circ.n, circ.ops)[0]
        splits = [at for plan, at in steps if plan is None]
        sizes = [size for plan, size in steps if plan is not None]
        assert None not in sizes and max(sizes) <= 1 << (self.N - 1)
        assert len(splits) == 3 and splits[-1][1] < 1 << (self.N - 1)
        self.check_measured_block(circ, local, states, idle)

    def check_measured_block(self, circ, local, states, idle):
        """The leaves and shots of ``circ``, from :meth:`build_measured`,
        against block 0's oracle state and its own circuit ``local``."""
        tree = measurement.run_with_branches(circ)
        (block, psi), rest = states[0], states[1:]
        m, measured = len(block), tree.measured_wires
        kept = [w for w in block if w not in measured]
        # each outcome record of block 0's oracle state: its probability, and
        # the residual on the block's other wires, tensored with the other
        # blocks, each wire at its index in the leaf states
        want = {}
        for record in itertools.product((0, 1), repeat=len(measured)):
            index = [slice(None)] * m  # axis a holds the block's local wire m - 1 - a
            for w, bit in zip(measured, record):
                index[m - 1 - w // 3] = bit
            part = psi.reshape((2,) * m)[tuple(index)].reshape(-1)
            p = float(np.vdot(part, part).real)
            if p >= measurement.PRUNE_EPS:
                parts = [(kept, part / np.sqrt(p))] + rest
                relabelled = [([tree.wire_map[w] for w in wires], s) for wires, s in parts]
                want[record] = p, self.product(relabelled, None if idle is None else tree.wire_map[idle])
        assert [leaf.outcomes for leaf in tree.leaves] == sorted(want)
        for leaf in tree.leaves:
            p, state = want[leaf.outcomes]
            assert abs(leaf.probability - p) < 1e-10
            assert np.max(np.abs(leaf.state - state)) < 1e-10
        # the other blocks cannot move a record: block 0 alone samples the same
        got = measurement.sample_shots(circ, 300, 11)
        assert got == oracle.sample_shots_deferred(local, 300, 11)
        assert len(got) > 1


@pytest.mark.skipif(not WIDE, reason="QWSIM_TEST_WIDE=1")
class TestProductAt22Wires(TestProductAtFullWidth):
    """The product checks at 22 wires: plans on 2**22 amplitudes, a grown
    register of 21 wires, and stacks of 2**21 and fewer per row."""

    N = 22
