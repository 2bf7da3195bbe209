"""Seeded inputs, operations and output checks for the three workloads.

Nothing here imports qwsim.  The runner passes the imported package in as
``qw`` (and its CLI module as ``cli``), so that set-up can time a fresh
import and so that qwsim only ever sees the text and files made here.

Every workload cycles through ``DISTINCT_INPUTS`` seeded inputs.  Each input
has the same gate mix, so op latencies form one mode.  References that the
per-op checks need are computed once per input, before timing.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
DISTINCT_INPUTS = 8
# Printed numbers and goldens are compared at this absolute tolerance; the
# engine-vs-oracle cross-check uses the acceptance suite's 1e-10.
NUMBER_TOL = 1e-9
ORACLE_TOL = 1e-10
NORM_TOL = 1e-10
ORACLE_QUBITS = 8
ORACLE_INSTANCES = 3

ONE_Q = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG")
TWO_Q = ("SWAP", "ISWAP", "SQRTSWAP")

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def gate_lines(rng: np.random.Generator, wires, count: int) -> list[str]:
    """``count`` gates on ``wires`` in a fixed mix, shuffled.

    Half are plain 1-qubit gates.  A quarter are 1-qubit gates with one or
    two controls or anticontrols, alternating.  The rest cycle through the
    2-qubit gates, every other one with a control.  Within each kind the
    first targets walk through shuffled rounds of all wires, because a
    kernel's cost depends on its target's stride.  So every call with the
    same ``count`` does the same work, up to the 1-qubit gate names and the
    other wires' positions.
    """
    wires = list(wires)
    plain = count - count // 2
    ctrl_1q = count // 4
    groups = [
        [(None, 0)] * plain,
        [(None, 1 + k % 2) for k in range(ctrl_1q)],
        [(TWO_Q[k % 3], k % 2) for k in range(count - plain - ctrl_1q)],
    ]
    gates = []
    for group in groups:
        rounds = -(-len(group) // len(wires))
        firsts = np.concatenate([rng.permutation(wires) for _ in range(rounds)])
        for (name, n_ctrl), first in zip(group, firsts):
            arity = 1 if name is None else 2
            others = [w for w in wires if w != first]
            picked = [int(first)] + [int(w) for w in rng.choice(others, size=arity - 1 + n_ctrl, replace=False)]
            name = name or ONE_Q[int(rng.integers(len(ONE_Q)))]
            tokens = [name, *map(str, picked[:arity])]
            tokens += [f"{'ca'[int(rng.integers(2))]}={w}" for w in picked[arity:]]
            gates.append(" ".join(tokens))
    return [gates[i] for i in rng.permutation(len(gates))]


def circuit_text(n: int, lines: list[str]) -> str:
    return "\n".join([f"qubits {n}", *lines]) + "\n"


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``qwsim`` in-process with stdout captured; returns (exit code, text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def number_record(text: str) -> dict:
    """Split printed output into its text with numbers blanked, and the numbers."""
    return {
        "skeleton": _NUMBER.sub("#", text),
        "numbers": [float(x) for x in _NUMBER.findall(text)],
    }


def compare(got, want, path: str = "") -> list[str]:
    """Differences between two JSON-like records; floats within NUMBER_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in want for p in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]")
            if len(out) > 3:
                break
        return out
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = abs(got - want) <= NUMBER_TOL
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} != {want!r}"]


def _oracle_state_problems(qw, circ, label: str) -> list[str]:
    psi = qw.run_circuit(circ)
    ref = qw.simulate_naive(circ)
    err = float(np.max(np.abs(psi - ref)))
    return [] if err <= ORACLE_TOL else [f"{label}: engine vs oracle {err:.3e}"]


# Frequencies of the phase vectors that digest an 18-qubit state.
DIGEST_FREQUENCIES = (0.6180339887, 0.4142135624, 0.7320508076, 0.2360679775)


def state_digest(psi: np.ndarray) -> dict:
    """Overlaps of ``psi`` with unit-modulus phase vectors ``exp(2 pi i f k)``,
    so an error in any one amplitude moves them by as much; plus the sum of
    squared probabilities and the mean index.  Made on the fly, so the
    check holds no state-sized arrays between ops."""
    k = np.arange(psi.size)
    probs = np.abs(psi) ** 2
    overlaps = [np.vdot(np.exp(2j * np.pi * ((k * f) % 1.0)), psi) for f in DIGEST_FREQUENCIES]
    return {
        "overlaps": [[float(z.real), float(z.imag)] for z in overlaps],
        "sum_p2": float(np.sum(probs**2)),
        "mean_index": float(np.dot(k, probs)),
    }


class CircuitWorkload:
    """``parse_circuit`` then ``run_circuit`` on an 18-qubit circuit."""

    name = "circuit-18q"
    qubits = 18
    gates = 2 * qubits

    def make_inputs(self, rng, workdir: Path) -> list[str]:
        return [
            circuit_text(self.qubits, gate_lines(rng, range(self.qubits), self.gates))
            for _ in range(DISTINCT_INPUTS)
        ]

    def op(self, qw, cli, text):
        return qw.run_circuit(qw.parse_circuit(text))

    def oracle_problems(self, qw, rng) -> list[str]:
        problems = []
        for k in range(ORACLE_INSTANCES):
            n = ORACLE_QUBITS
            text = circuit_text(n, gate_lines(rng, range(n), 2 * n))
            problems += _oracle_state_problems(qw, qw.parse_circuit(text), f"oracle[{k}]")
        return problems

    def reference(self, qw, text):
        return None

    def golden(self, psi) -> dict:
        return state_digest(psi)

    def problems(self, psi, text, ref) -> list[str]:
        drift = abs(float(np.vdot(psi, psi).real) - 1.0)
        return [] if drift <= NORM_TOL else [f"norm drift {drift:.3e}"]

    def distinct_frac(self, out):
        return None


class StatsWorkload:
    """``qwsim stats`` with a pair on 12 qubits, then ``--magic`` on 5."""

    name = "stats-12q"
    qubits = 12
    magic_qubits = 5

    def make_inputs(self, rng, workdir: Path) -> list[tuple]:
        inputs = []
        for k in range(DISTINCT_INPUTS):
            big = workdir / f"stats{k}.qc"
            small = workdir / f"magic{k}.qc"
            big.write_text(circuit_text(self.qubits, gate_lines(rng, range(self.qubits), 2 * self.qubits)))
            small.write_text(
                circuit_text(self.magic_qubits, gate_lines(rng, range(self.magic_qubits), 2 * self.magic_qubits))
            )
            i, j = (int(w) for w in rng.choice(self.qubits, size=2, replace=False))
            inputs.append((str(big), str(small), i, j))
        return inputs

    def op(self, qw, cli, inp):
        big, small, i, j = inp
        return (
            run_cli(cli, ["stats", big, "--pair", str(i), str(j), "--format", "records"]),
            run_cli(cli, ["stats", small, "--magic", "--format", "records"]),
        )

    def oracle_problems(self, qw, rng) -> list[str]:
        problems = []
        for k in range(ORACLE_INSTANCES):
            n = ORACLE_QUBITS if k % 2 == 0 else self.magic_qubits
            circ = qw.parse_circuit(circuit_text(n, gate_lines(rng, range(n), 2 * n)))
            problems += _oracle_state_problems(qw, circ, f"oracle[{k}]")
            psi = qw.run_circuit(circ)
            rho = np.outer(psi, psi.conj())
            i, j = sorted(int(w) for w in rng.choice(n, size=2, replace=False))
            for kept in [[q] for q in range(n)] + [[i, j]]:
                traced = [q for q in range(n) if q not in kept]
                got = qw.partial_trace_state(n, psi, kept, keep=True)
                want = qw.partial_trace_by_definition(rho, n, traced)
                err = float(np.max(np.abs(got - want)))
                if err > ORACLE_TOL:
                    problems.append(f"oracle[{k}] trace keep {kept}: {err:.3e}")
        return problems

    def reference(self, qw, inp):
        """prob1 of every wire of both circuits, by the marginal-sum path."""
        return [
            [qw.probability_of_one(psi, q) for q in range(circ.n)]
            for circ in (qw.load_circuit(inp[0]), qw.load_circuit(inp[1]))
            for psi in [qw.run_circuit(circ)]
        ]

    def golden(self, out) -> dict:
        return {"outputs": [number_record(text) for _, text in out]}

    def problems(self, out, inp, ref) -> list[str]:
        problems = []
        for (code, text), prob1 in zip(out, ref):
            if code != 0:
                problems.append(f"stats exited {code}")
                continue
            printed = [float(v) for v in re.findall(r"prob1=(\S+)", text)]
            if len(printed) != len(prob1):
                problems.append(f"{len(printed)} prob1 values for {len(prob1)} wires")
                continue
            for q, (got, want) in enumerate(zip(printed, prob1)):
                if abs(got - want) > NUMBER_TOL:
                    problems.append(f"prob1 of wire {q}: printed {got!r}, marginal {want!r}")
        return problems

    def distinct_frac(self, out):
        return None


class SampleWorkload:
    """``qwsim sample`` then ``qwsim simulate`` on a 10-qubit circuit with
    three mid-circuit measurements."""

    name = "sample-10q"
    qubits = 10
    shots = 40
    segment = 6

    def measured_text(self, rng, n: int) -> str:
        """Gates on ``n - 3`` wires, with three measurements between them.

        A measured wire takes no gate before ``H``, then ``CX`` onto a live
        wire, then ``MEASURE``, so each measurement splits every branch in
        two halves: every op has 8 leaves and spreads its records.
        """
        order = [int(w) for w in rng.permutation(n)]
        measured, live = order[:3], order[3:]
        lines = []
        for wire in measured:
            lines += gate_lines(rng, live, self.segment)
            partner = live[int(rng.integers(len(live)))]
            lines += [f"H {wire}", f"CX {wire} {partner}", f"MEASURE {wire}"]
        lines += gate_lines(rng, live, self.segment)
        return circuit_text(n, lines)

    def make_inputs(self, rng, workdir: Path) -> list[tuple]:
        inputs = []
        for k in range(DISTINCT_INPUTS):
            path = workdir / f"sample{k}.qc"
            path.write_text(self.measured_text(rng, self.qubits))
            inputs.append((str(path), int(rng.integers(1 << 31))))
        return inputs

    def op(self, qw, cli, inp):
        path, shot_seed = inp
        return (
            run_cli(cli, ["sample", path, "--shots", str(self.shots), "--seed", str(shot_seed)]),
            run_cli(cli, ["simulate", path]),
        )

    def oracle_problems(self, qw, rng) -> list[str]:
        """Engine and branch tree against the oracle on small instances.

        No gate touches a wire after it is measured, so measuring at the end
        gives the same joint distribution (deferred measurement): every leaf
        must be the oracle's final state projected on its outcomes.
        """
        problems = []
        for k in range(ORACLE_INSTANCES):
            n = ORACLE_QUBITS
            circ = qw.parse_circuit(self.measured_text(rng, n))
            plain = qw.Circuit(n, tuple(op for op in circ.ops if op.gate != "MEASURE"))
            problems += _oracle_state_problems(qw, plain, f"oracle[{k}]")
            psi = qw.simulate_naive(plain).reshape([2] * n)  # axis a is wire n-1-a
            tree = qw.run_with_branches(circ)
            total = 0.0
            for leaf in tree.leaves:
                index = [slice(None)] * n
                for wire, bit in zip(tree.measured_wires, leaf.outcomes):
                    index[n - 1 - wire] = bit
                part = psi[tuple(index)].reshape(-1)
                p = float(np.vdot(part, part).real)
                total += leaf.probability
                err = max(abs(p - leaf.probability), float(np.max(np.abs(part / np.sqrt(p) - leaf.state))))
                if err > ORACLE_TOL:
                    problems.append(f"oracle[{k}] leaf {leaf.outcomes}: {err:.3e}")
            if abs(total - 1.0) > ORACLE_TOL:
                problems.append(f"oracle[{k}] leaf probabilities sum to {total!r}")
        return problems

    def reference(self, qw, inp):
        """Outcome string -> probability of every non-pruned branch-tree leaf."""
        tree = qw.run_with_branches(qw.load_circuit(inp[0]))
        return {"".join(map(str, leaf.outcomes)): leaf.probability for leaf in tree.leaves}

    def golden(self, out) -> dict:
        (_, hist), (_, tree) = out
        return {"histogram": hist, "tree": number_record(tree)}

    def problems(self, out, inp, leaves) -> list[str]:
        (code_s, hist), (code_t, tree) = out
        if code_s or code_t:
            return [f"sample exited {code_s}, simulate exited {code_t}"]
        problems = []
        counts = {}
        for line in hist.splitlines():
            record, _, count = line.partition(": ")
            if not count.isdigit():
                return [f"unreadable histogram line {line!r}"]
            counts[record] = int(count)
            if record not in leaves:
                problems.append(f"sampled record {record!r} is no branch-tree leaf")
        if sum(counts.values()) != self.shots:
            problems.append(f"counts sum to {sum(counts.values())}, not {self.shots}")
        printed = dict(re.findall(r"^branch (\S+): p=(\S+)$", tree, re.MULTILINE))
        if set(printed) != set(leaves):
            problems.append(f"simulate printed branches {sorted(printed)}, tree has {sorted(leaves)}")
        else:
            for label, p in printed.items():
                if abs(float(p) - leaves[label]) > NUMBER_TOL:
                    problems.append(f"branch {label}: printed p={p}, tree {leaves[label]!r}")
        return problems

    def distinct_frac(self, out):
        (_, hist), _ = out
        return len(hist.splitlines()) / self.shots


WORKLOADS = {w.name: w for w in (CircuitWorkload(), StatsWorkload(), SampleWorkload())}
