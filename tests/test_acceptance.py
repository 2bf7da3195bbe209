"""Acceptance suite: every release criterion, one test and one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines;
a failed criterion shows up as an ordinary pytest failure.  Tolerances are
pinned here on purpose: do not loosen them to make a regression pass.
"""

import time
from itertools import combinations

import numpy as np

from qwsim import analysis, engine, gates, linalg, measurement, oracle
from qwsim.circuit import ControlSpec, parse_circuit, random_circuit, swap_bits

_SQ2 = 1.0 / np.sqrt(2.0)

FLIP_PHASE_PAIR = "qubits 3\nH 1 ; X 2\nCX 1 0\nZ 0\nCX 1 2\n"
SWAP_CONTROLS = (
    "qubits 3\nH 0\nSWAP 0 2\nX 1 a=2\nCX 1 0\nY 0\nCSWAP 0 1 2\nZ 1\n"
)
MIXED_PAIR = "qubits 3\nH 0\nCX 0 1\nH 2\n"
BELL_MEASURE = "qubits 2\nH 0\nCX 0 1\nMEASURE 0\n"


def _report(number, text):
    print(f"criterion {number}: PASS  {text}")


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_flip_phase_pair_golden_state():
    circ = parse_circuit(FLIP_PHASE_PAIR)
    psi = engine.run_circuit(circ)
    expect = np.zeros(8, dtype=complex)
    expect[0b100] = _SQ2
    expect[0b011] = -_SQ2
    np.testing.assert_allclose(psi, expect, atol=1e-12, rtol=0)
    elapsed = _best_time(lambda: engine.run_circuit(circ))
    assert elapsed < 1e-3, f"simulation took {elapsed * 1e3:.3f} ms, budget 1 ms"
    _report(1, f"3-qubit golden state exact to 1e-12, {elapsed * 1e6:.0f} us per run")


def test_criterion_2_swap_controls_golden_state():
    psi = engine.run_circuit(parse_circuit(SWAP_CONTROLS))
    expect = np.zeros(8, dtype=complex)
    expect[0b010] = 1j * _SQ2
    expect[0b011] = -1j * _SQ2
    np.testing.assert_allclose(psi, expect, atol=1e-12, rtol=0)
    _report(2, "swap/anticontrol golden state exact to 1e-12")


def test_criterion_3_mixed_pair_reduced_matrices():
    circ = parse_circuit(MIXED_PAIR)
    psi = engine.run_circuit(circ)
    rho = np.outer(psi, psi.conj())

    plus = np.full((2, 2), 0.5, dtype=complex)
    bell = np.zeros((4, 4), dtype=complex)
    bell[0b00, 0b00] = bell[0b00, 0b11] = 0.5
    bell[0b11, 0b00] = bell[0b11, 0b11] = 0.5
    mixed1 = np.eye(2, dtype=complex) / 2
    comb = np.array(
        [
            [0.25, 0, 0.25, 0],
            [0, 0.25, 0, 0.25],
            [0.25, 0, 0.25, 0],
            [0, 0.25, 0, 0.25],
        ],
        dtype=complex,
    )
    cases = [
        ([0, 1], plus, 1.0),   # spectator |+| on wire 2
        ([2], bell, 1.0),      # Bell pair on wires 0,1
        ([1, 2], mixed1, 0.5), # one Bell wire alone
        ([0], comb, 0.5),      # wires 1,2 across the entangling cut
    ]
    for traced, expect, pur in cases:
        via_state = analysis.partial_trace_state(3, psi, traced)
        via_matrix = analysis.partial_trace_matrix(3, rho, traced)
        np.testing.assert_allclose(via_state, expect, atol=1e-12, rtol=0)
        np.testing.assert_allclose(via_matrix, expect, atol=1e-12, rtol=0)
        assert abs(analysis.purity(via_state) - pur) < 1e-10
    _report(3, "four reduced matrices match to 1e-12 with purities 1,1,0.5,0.5")


def test_criterion_4_bit_swap_worked_pairs():
    cases = [(14, 0, 3, 7), (10, 0, 3, 3), (13, 1, 2, 11), (10, 1, 2, 12)]
    for k, i, j, expected in cases:
        assert swap_bits(k, i, j) == expected
    _report(4, "all four worked bit-swap pairs exact")


def test_criterion_5_engine_matches_naive_on_200_random_circuits():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 21))
        circ = random_circuit(n, depth, rng)
        fast = engine.run_circuit(circ)
        slow = oracle.simulate_naive(circ)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
        assert worst <= 1e-10, f"deviation {worst:.3e} on {n}-qubit circuit"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"sweep took {elapsed:.1f} s, budget 30 s"
    _report(5, f"200 circuits, worst |engine - naive| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_6_partial_trace_paths_agree_on_every_subset():
    rng = np.random.default_rng(20240818)
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        psi = linalg.random_state(n, rng)
        rho = np.outer(psi, psi.conj())
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                traced = list(subset)
                a = analysis.partial_trace_state(n, psi, traced)
                b = analysis.partial_trace_matrix(n, rho, traced)
                worst = max(worst, float(np.max(np.abs(a - b))))
                if n <= 5:
                    c = oracle.partial_trace_by_definition(rho, n, traced)
                    worst = max(worst, float(np.max(np.abs(a - c))))
                assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s, budget 60 s"
    _report(6, f"all subsets n=2..8, worst path disagreement {worst:.2e}, {elapsed:.1f} s")


def test_criterion_7_scaling_budgets():
    rng = np.random.default_rng(20240819)
    circ = random_circuit(20, 100, rng, single_qubit_only=True)
    t0 = time.perf_counter()
    psi = engine.run_circuit(circ)
    big_elapsed = time.perf_counter() - t0
    assert big_elapsed < 10.0, f"20-qubit run took {big_elapsed:.1f} s, budget 10 s"
    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-10

    n = 10  # the density matrix takes 16 MiB here (256 MiB at n = 12)
    psi = linalg.random_state(n, rng)
    t0 = time.perf_counter()
    direct = analysis.partial_trace_state(n, psi, [0], keep=True)
    state_path = time.perf_counter() - t0
    t0 = time.perf_counter()
    rho = np.outer(psi, psi.conj())
    via_matrix = analysis.partial_trace_matrix(n, rho, [0], keep=True)
    matrix_path = time.perf_counter() - t0
    np.testing.assert_allclose(direct, via_matrix, atol=1e-12, rtol=0)
    ratio = matrix_path / state_path
    assert ratio > 2.0, f"statevector trace only {ratio:.2f}x faster, need > 2x"
    _report(
        7,
        f"20 qubits x 100 gates in {big_elapsed:.2f} s; "
        f"keep-1 trace {ratio:.0f}x faster without the density matrix",
    )


def test_criterion_8_invariant_bundle():
    rng = np.random.default_rng(20240820)

    # norm conservation over random circuits
    for _ in range(20):
        n = int(rng.integers(2, 7))
        psi = engine.run_circuit(random_circuit(n, 20, rng))
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-10

    # control masks leave non-selected amplitudes bit-identical
    for _ in range(20):
        n = int(rng.integers(2, 6))
        psi = linalg.random_state(n, rng)
        target = int(rng.integers(n))
        free = [w for w in range(n) if w != target]
        spec = ControlSpec(
            tuple((w, bool(rng.integers(2))) for w in free[: 1 + int(rng.integers(len(free)))])
        )
        out = engine.apply_multi_qubit_gate(n, gates.gate_matrix("H"), (target,), psi, spec)
        skipped = [k for k in range(1 << n) if not spec.passes(k)]
        np.testing.assert_array_equal(out[skipped], psi[skipped])

    # a swap equals three alternating controlled NOTs
    x = gates.gate_matrix("X")
    for n, i, j in ((2, 0, 1), (4, 3, 1), (6, 0, 5)):
        psi = linalg.random_state(n, rng)
        via_swap = engine.apply_multi_qubit_gate(n, gates.gate_matrix("SWAP"), (i, j), psi)
        via_cx = engine.apply_multi_qubit_gate(n, x, (i,), psi, [(j, True)])
        via_cx = engine.apply_multi_qubit_gate(n, x, (j,), via_cx, [(i, True)])
        via_cx = engine.apply_multi_qubit_gate(n, x, (i,), via_cx, [(j, True)])
        np.testing.assert_allclose(via_swap, via_cx, atol=1e-12, rtol=0)

    # reduced matrices ignore global phase and are valid density matrices
    psi = engine.run_circuit(random_circuit(5, 15, rng))
    shifted = np.exp(0.77j) * psi
    for k in (1, 2):
        for subset in combinations(range(5), k):
            a = analysis.partial_trace_state(5, psi, list(subset), keep=True)
            b = analysis.partial_trace_state(5, shifted, list(subset), keep=True)
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)
            assert analysis.check_density_matrix(a) == k

    # Bloch round trip reconstructs every single-qubit reduced state, from
    # one wire's matrix and from the sweep over all wires
    pauli = {p: gates.gate_matrix(p) for p in "XYZ"}
    swept = analysis.all_qubit_stats(psi, 5)
    for q in range(5):
        rho = analysis.partial_trace_state(5, psi, [q], keep=True)
        for s in (analysis.qubit_stats(rho), swept[q]):
            rebuilt = (
                np.eye(2) + s.x * pauli["X"] + s.y * pauli["Y"] + s.z * pauli["Z"]
            ) / 2.0
            np.testing.assert_allclose(rebuilt, rho, atol=1e-12, rtol=0)

    # stabilizer circuits carry no magic
    cliff = engine.run_circuit(
        parse_circuit("qubits 3\nH 0\nCX 0 1\nS 1\nH 2\nCX 2 1\nZ 0\nSDG 2\n")
    )
    assert abs(analysis.stabilizer_renyi_entropy(cliff, 3)) <= 1e-9

    # maximal entanglement measures on the Bell pair
    bell = engine.run_circuit(parse_circuit("qubits 2\nH 0\nCX 0 1\n"))
    assert abs(analysis.concurrence(np.outer(bell, bell.conj())) - 1.0) <= 1e-9
    mixed = engine.run_circuit(parse_circuit(MIXED_PAIR))
    cross_cut = analysis.partial_trace_state(3, mixed, [1, 2], keep=True)
    assert abs(analysis.von_neumann_entropy(cross_cut) - 1.0) <= 1e-9

    _report(8, "norm/control/swap/phase/density/Bloch/magic/entanglement invariants")


def test_criterion_9_measurement_semantics():
    # branch tree of a measured Bell pair
    tree = measurement.run_with_branches(parse_circuit(BELL_MEASURE))
    assert len(tree.leaves) == 2
    by_outcome = {leaf.outcomes: leaf for leaf in tree.leaves}
    for bit in (0, 1):
        leaf = by_outcome[(bit,)]
        assert abs(leaf.probability - 0.5) <= 1e-12
        overlap = np.vdot(linalg.basis_state(1, bit), leaf.state)
        assert abs(abs(overlap) - 1.0) <= 1e-12  # equal up to global phase

    # seeded sampling is reproducible and binomially consistent
    circ = parse_circuit(BELL_MEASURE)
    first = measurement.sample_shots(circ, 1000, 1234)
    second = measurement.sample_shots(circ, 1000, 1234)
    assert first == second
    assert sum(first.values()) == 1000
    assert set(first) <= {"0", "1"}
    sigma = np.sqrt(1000 * 0.5 * 0.5)
    count1 = first.get("1", 0)
    assert abs(count1 - 500) <= 3 * sigma, f"count {count1} outside 3 sigma"
    _report(9, f"branch tree exact; seeded shots reproducible ({count1}/1000 ones)")
