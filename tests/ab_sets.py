"""The input sets that ``tests/ab.py`` times, each with its op and its
rule for comparing the two sides' records.

Every set hands out a list of inputs per round (``inputs(r, workdir)``,
``r = -1`` for the untimed first pass), runs one input on one side
(``op(qw, cli, inp)``, with that side's package and its CLI module) and
says whether two records are the same (``same(a, b)``).

* :class:`Perfbench` wraps one of perfbench's three workloads: the same 8
  seeded inputs every round, compared by their goldens at perfbench's
  tolerance.  These replay their inputs and never exceed 2**12
  amplitudes per plan run.
* :class:`Wide` (``wide-20q``): an ``H`` on each of 20 wires plus 80 gates
  of perfbench's mix, seeds 1-3.  The op parses the text (a warm memo),
  then runs ``run_circuit`` and ``all_qubit_stats``; every wire moves and
  ``2**20`` is past ``2 * engine._SLICE``, so every plan takes the
  big-state branch.
* :class:`Fresh` (``fresh-12q``): 8 circuits of 48 gates of the mix on 12
  wires, drawn anew from text each round, the same texts for both sides.
  The op is parse, compile and run, so no memo hit comes from an input
  replayed across rounds.
* :class:`Simulate` (``simulate-20q``): ``qwsim simulate`` in process on
  wide-20q's seed-1 circuit, with and without ``--probs``, into a sink
  that keeps only a hash of the text.

The three sets compare records by value: arrays by ``np.array_equal``,
dataclasses field by field (each side's ``QubitStats`` is its own
class, so ``==`` between them is always false) and text by its hash.
Importing this module puts ``perfbench`` on ``sys.path`` for its
``workloads`` module, which sets no thread variable; pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from workloads import DEFAULT_SEED, WORKLOADS, circuit_text, compare, gate_lines  # noqa: E402


def same(a, b) -> bool:
    """Whether two records are equal by value, whichever package made them."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a).__name__ == type(b).__name__ and same(dataclasses.astuple(a), dataclasses.astuple(b))
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(same, a, b))
    return a == b


class Perfbench:
    """One of perfbench's workloads, its inputs made once by ``rng``."""

    def __init__(self, name: str, rng):
        self.wl, self.name, self.rng, self.made = WORKLOADS[name], name, rng, None

    def inputs(self, r: int, workdir: Path) -> list:
        if self.made is None:
            self.made = self.wl.make_inputs(self.rng, workdir)
        return self.made

    def op(self, qw, cli, inp):
        return self.wl.op(qw, cli, inp)

    def same(self, a, b) -> bool:
        return not compare(self.wl.golden(b), self.wl.golden(a))


def wide_text(n: int, seed: int) -> str:
    """An ``H`` on each of ``n`` wires, then ``4 n`` gates of the mix."""
    rng = np.random.default_rng(seed)
    return circuit_text(n, [f"H {w}" for w in range(n)] + gate_lines(rng, range(n), 4 * n))


class Wide:
    name = "wide-20q"
    seeds = (1, 2, 3)

    def __init__(self, n: int = 20):
        self.texts = [wide_text(n, seed) for seed in self.seeds]

    def inputs(self, r: int, workdir: Path) -> list[str]:
        return self.texts

    def op(self, qw, cli, text):
        circ = qw.parse_circuit(text)
        psi = qw.run_circuit(circ)
        return psi, qw.all_qubit_stats(psi, circ.n)

    same = staticmethod(same)


class Fresh:
    name = "fresh-12q"
    circuits = 8

    def __init__(self, n: int = 12):
        self.n = n

    def inputs(self, r: int, workdir: Path) -> list[str]:
        rng = np.random.default_rng([DEFAULT_SEED, r + 1])
        return [circuit_text(self.n, gate_lines(rng, range(self.n), 4 * self.n)) for _ in range(self.circuits)]

    def op(self, qw, cli, text):
        return qw.run_circuit(qw.parse_circuit(text))

    same = staticmethod(same)


class TextHash(io.TextIOBase):
    """A text sink that keeps only the BLAKE2b hash of what it is sent."""

    def __init__(self):
        super().__init__()
        self.hash = hashlib.blake2b()

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        return len(text)


class Simulate:
    name = "simulate-20q"

    def __init__(self, n: int = 20):
        self.text = wide_text(n, Wide.seeds[0])

    def inputs(self, r: int, workdir: Path) -> list[tuple]:
        path = Path(workdir) / "simulate.qc"
        path.write_text(self.text)
        return [(str(path), ()), (str(path), ("--probs",))]

    def op(self, qw, cli, inp):
        path, flags = inp
        sink = TextHash()
        with contextlib.redirect_stdout(sink):
            code = cli.main(["simulate", path, *flags])
        return code, sink.hash.hexdigest()

    same = staticmethod(same)


SETS = {s.name: s for s in (Wide, Fresh, Simulate)}
