"""A differential of ``qwsim``'s outputs, to hold two trees to the same text.

For each circuit it records a sha256 digest of every CLI text (exit code,
stdout and stderr) of ``simulate`` with and without ``--probs`` and
``--branches``, of ``stats`` in table format, with ``--magic`` (which
refuses a register of more than 10 wires) and as ``--format records``
with a seeded ``--pair``, and of ``sample`` at a fixed seed, and of the
float bits of ``run_circuit``'s state, of ``run_with_branches``'s leaves
and of ``all_qubit_stats`` of that state.  A refused call records its
error text.  The circuits are ``circuits/*.qc`` and seeded random ones of
five kinds, in turn: grown (gates on some of the wires), wire order (an H
on every wire first, in order), measured, measured in a shuffled
first-move order, and psi0 (grown, and run from a seeded random state by
the three calls whose bits are kept; the CLI runs it from |0>).

Run from the repository root, with the tree under test on ``PYTHONPATH``,
then compare two digest files::

    PYTHONPATH=src python tests/differential.py --out new.json [--random 300] [--seed 0]
    python tests/differential.py --diff old.json new.json

``--diff`` prints each entry that changed or that only one file holds,
then the counts, with the changed CLI texts and float bits counted apart,
and exits 1 when any entry differs.  In one command, against another
checkout (say ``git archive`` of the parent, unpacked into ``DIR``)::

    PYTHONPATH=src python tests/differential.py --base DIR [--random 300] [--seed 0]

digests the tree that ``qwsim`` is found in from here (the one on
``PYTHONPATH``) and the tree under ``DIR/src``, each in a child process of
this same script that differs from this one only in ``PYTHONPATH``, then
prints the ``--diff`` report of the two, base first.  So the two trees
never share a process, and both run under one environment.  The float
bits do not follow the BLAS thread count: digests made with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` at 1 and at 2 read 0
changed entries.

Standard library and numpy only; pytest collects no ``test_*`` name here.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# qwsim is imported where it is used, so that --diff runs without it on the path

KINDS = ("grown", "wire-order", "measured", "shuffled-measured", "psi0")
SIMULATE_FLAGS = ((), ("--probs",), ("--branches",), ("--branches", "--probs"))


def random_text(rng: np.random.Generator, kind: str) -> str:
    """A random circuit file of ``kind`` (one of ``KINDS``) on 2 to 10 wires."""
    from qwsim.gates import gate_def, gate_names

    n = int(rng.integers(2, 11))
    lines = [f"qubits {n}"]
    if kind == "wire-order":
        lines += [f"H {w}" for w in range(n)]
    elif kind == "shuffled-measured":
        lines += [f"H {int(w)}" for w in rng.permutation(n)[: int(rng.integers(2, n + 1))]]
    # the grown kinds move only some wires, so the others keep their start state
    used = list(range(n)) if kind not in ("grown", "psi0") else sorted(
        int(w) for w in rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
    )
    measured: set[int] = set()
    for _ in range(int(rng.integers(1, 3 * n))):
        live = [w for w in used if w not in measured]
        if kind.endswith("measured") and len(measured) < 3 and rng.random() < 0.15:
            wire = int(rng.integers(n))  # an idle wire may be measured too
            if wire not in measured:
                measured.add(wire)
                lines.append(f"MEASURE {wire}")
            continue
        names = [g for g in gate_names() if gate_def(g).arity <= len(live)]
        if not names:
            break
        name = names[int(rng.integers(len(names)))]
        targets = [int(w) for w in rng.choice(live, gate_def(name).arity, replace=False)]
        others = [w for w in range(n) if w not in targets and w not in measured]
        controls = [f"{'ca'[int(rng.integers(2))]}={w}" for w in others if rng.random() < 0.15]
        lines.append(" ".join([name, *map(str, targets), *controls]))
    return "\n".join(lines) + "\n"


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _cli(argv) -> str:
    from qwsim import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return _digest(code, out.getvalue(), err.getvalue())


def _bits(run) -> str:
    from qwsim.errors import SimulationError

    try:
        return run()
    except SimulationError as exc:
        return _digest(type(exc).__name__, str(exc))


def circuit_digests(name: str, path: str, rng: np.random.Generator, psi0=None) -> dict[str, str]:
    """The digest of every output of the circuit file at ``path``, keyed
    ``"<name> | <output>"``; ``rng`` picks the ``--pair``, and ``psi0`` is
    the start state of the calls whose bits are kept."""
    from qwsim import measurement
    from qwsim.analysis import all_qubit_stats
    from qwsim.circuit import load_circuit
    from qwsim.engine import run_circuit

    circ = load_circuit(path)
    pair = [str(int(w)) for w in rng.choice(circ.n, 2, replace=False)] if circ.n > 1 else []
    argvs = [("simulate", path, *flags) for flags in SIMULATE_FLAGS]
    argvs += [("stats", path), ("stats", path, "--magic")]
    argvs.append(("stats", path, "--format", "records", *(["--pair", *pair] if pair else [])))
    argvs.append(("sample", path, "--shots", "100", "--seed", "7"))
    entries = {f"{name} | {' '.join(a for a in argv if a != path)}": _cli(argv) for argv in argvs}

    def leaves():
        tree = measurement.run_with_branches(circ, psi0)
        return _digest(tree.measured_wires, sorted(tree.wire_map.items()), *(
            part for leaf in tree.leaves
            for part in (leaf.outcomes, np.float64(leaf.probability).tobytes(), leaf.state.tobytes())
        ))

    def stats():
        rows = [dataclasses.astuple(s) for s in all_qubit_stats(run_circuit(circ, psi0), circ.n)]
        return _digest(np.array(rows, dtype=float).tobytes())

    entries[f"{name} | run_circuit bits"] = _bits(lambda: _digest(run_circuit(circ, psi0).tobytes()))
    entries[f"{name} | run_with_branches bits"] = _bits(leaves)
    entries[f"{name} | all_qubit_stats bits"] = _bits(stats)
    return entries


def digests(count: int, seed: int = 0, files: bool = True) -> dict[str, str]:
    """Every entry of ``circuits/*.qc`` (when ``files``) and of ``count``
    seeded random circuits, each written to a temporary file."""
    entries: dict[str, str] = {}
    rng = np.random.default_rng(seed)
    if files:
        for path in sorted((Path(__file__).resolve().parents[1] / "circuits").glob("*.qc")):
            entries.update(circuit_digests(f"circuits/{path.name}", str(path), rng))
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(count):
            kind = KINDS[i % len(KINDS)]
            path = Path(tmp) / f"r{i}.qc"
            text = random_text(rng, kind)
            path.write_text(text, encoding="utf-8")
            psi0 = None
            if kind == "psi0":
                psi0 = rng.normal(size=(2, 1 << int(text.split()[1]))).T @ [1, 1j]
                psi0 /= np.linalg.norm(psi0)
            name = f"random/{i}-{kind}"
            entries[f"{name} | text"] = _digest(text, b"" if psi0 is None else psi0.tobytes())
            entries.update(circuit_digests(name, str(path), rng, psi0))
    return entries


def diff(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """A line per entry that changed, or that only one of the two holds.
    An entry whose key ends in ``bits`` holds float bits; any other, a text."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"only in the first: {key}")
        elif key not in old:
            lines.append(f"only in the second: {key}")
        elif old[key] != new[key]:
            lines.append(f"changed: {key}")
    return lines


def report(old: dict[str, str], new: dict[str, str]) -> int:
    """Print the :func:`diff` of two digest sets and their counts; 1 when
    any entry differs, else 0."""
    lines = diff(old, new)
    changed = [line for line in lines if line.startswith("changed")]
    bits = sum(line.endswith(" bits") for line in changed)
    print("\n".join(lines + [
        f"{len(old)} and {len(new)} entries, "
        f"{len(changed) - bits} text and {bits} bits changed, "
        f"{len(lines) - len(changed)} in one file only"
    ]))
    return 1 if lines else 0


def child_digests(src: Path, count: int, seed: int) -> dict[str, str]:
    """:func:`digests` of the tree whose package directory is in ``src``,
    made by this script in a child process with ``src`` alone on
    ``PYTHONPATH`` and this process's environment otherwise."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "digests.json"
        env = {**os.environ, "PYTHONPATH": str(src.resolve())}
        argv = [sys.executable, __file__, "--out", str(out), "--random", str(count), "--seed", str(seed)]
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the digest file here")
    parser.add_argument("--random", type=int, default=300, help="random circuits (default 300)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two digest files")
    parser.add_argument("--base", metavar="DIR", help="compare with the tree under DIR/src")
    args = parser.parse_args(argv)
    if args.diff:
        return report(*(json.loads(Path(p).read_text(encoding="utf-8")) for p in args.diff))
    if args.base:
        here = Path(importlib.util.find_spec("qwsim").origin).parents[1]
        return report(*(child_digests(src, args.random, args.seed) for src in (Path(args.base, "src"), here)))
    if not args.out:
        parser.error("give --out FILE, --diff A B or --base DIR")
    entries = digests(args.random, args.seed)
    Path(args.out).write_text(json.dumps(entries, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
