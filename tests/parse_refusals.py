"""The parser's refusals as data: a fixed table plus a seeded sweep.

``python tests/parse_refusals.py`` (with ``src`` on ``PYTHONPATH``) writes
``tests/parse_refusals.json``: what ``parse_circuit`` makes of each text
of a fixed table and of ~2000 single-token mutations of 10-qubit texts
shaped like perfbench's sample-10q inputs.  Each outcome is
``[exception class, line, message]``, or ``["accepted", None, digest]``
with the first 16 hex digits of the sha256 of ``format_circuit`` of the
parsed circuit.  ``test_circuit`` requires every outcome to stay equal,
so a rewrite of the parser keeps each refusal's class and message.

Only the stdlib's ``random`` drives the sweep, and the JSON stores each
mutation, not the seed alone, so the check does not depend on how a
generator draws.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from qwsim.circuit import format_circuit, parse_circuit

PATH = Path(__file__).with_name("parse_refusals.json")
SEED = 20260
BASES = 4
MUTATIONS = 2000
QUBITS = 10

_ONE_Q = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG")
_TWO_Q = ("SWAP", "ISWAP", "SQRTSWAP")

# tokens a mutation may put in; wires of the line are added per mutation
_POOL = (
    "0", "9", "10", "11", "25", "26", "27", "1.5", "-1", "+3", "1_0", "0x3",
    "٣", "99999999999999999999999", "H", "X", "cx", "CX", "CCX", "CSWAP",
    "SWAP", "ISWAP", "MEASURE", "measure", "FOO", "qubits", "c=", "a=", "c=1.5",
    "c=-1", "C=26", "A=10", "a=x", "b=3", "c=c=1", "#", ";", "; H 0",
    "c=99999999999999999999",
)

FIXED = (
    "qubits 2\nH 1.5\n",
    "qubits 2\nH -1\n",
    "qubits 2\nH 99999999999999999999999999\n",
    "qubits 2\nH " + "9" * 5000 + "\n",
    "qubits 2\nX 0 c=" + "9" * 5000 + "\n",
    "qubits 2\nH 26\n",
    "qubits 2\nH 27\n",
    "qubits 2\nX 0 c=26\n",
    "qubits 2\nX 0 a=40\n",
    "qubits 2\nH 2\n",
    "qubits 3\nX 0 c=3\n",
    "qubits 3\nX 1 c=1\n",
    "qubits 3\nX 1 a=1\n",
    "qubits 3\nX 0 c=1 a=1\n",
    "qubits 3\nSWAP 0 1 c=1\n",
    "qubits 3\nSWAP 1 1\n",
    "qubits 3\nCX 1 1\n",
    "qubits 3\nCCX 0 1 c=0\n",
    "qubits 3\nMEASURE 0 c=1\n",
    "qubits 3\nMEASURE 0 a=1\n",
    "qubits 3\nMEASURE 0 1\n",
    "qubits 3\nMEASURE\n",
    "qubits 3\nCX 0\n",
    "qubits 3\nCX 0 1 2\n",
    "qubits 3\nCCX 0 1\n",
    "qubits 3\nCSWAP 0 1\n",
    "qubits 3\nCSWAP 0 1 2 c=2\n",
    "qubits 3\nH 0 1\n",
    "qubits 3\nSWAP 0\n",
    "qubits 3\nFOO 0\n",
    "qubits 3\nC=1 0\n",
    "qubits 3\nX 0 c=\n",
    "qubits 3\nX 0 c=x\n",
    "qubits 3\nX 0 b=1\n",
    "",
    "# only a comment\n",
    "H 0\n",
    "qubits\n",
    "qubits 0\n",
    "qubits -1\n",
    "qubits 2.0\n",
    "qubits 27\n",
    "qubits 2 3\n",
    "qubit 2\n",
    "qubits 2\nqubits 2\n",
    "qubits 3\nMEASURE 0\nX 0\n",
    "qubits 3\nMEASURE 0\nMEASURE 0\n",
    "qubits 3\nMEASURE 1\nX 0 c=1\n",
    "qubits 3\nMEASURE 1\nSWAP 0 2 ; X 2 a=1\n",
    "qubits 3\nH 0 ; ; X 1 # two\rX 2\r\nCX 0 1\n",
    "qubits 3\nH 0\fX 1\n",
)


def outcome(text: str) -> list:
    """``[class, line, message]`` of the refusal of ``text``, or its digest."""
    try:
        circ = parse_circuit(text)
    except Exception as exc:  # a bare exception is recorded too, to be seen
        return [type(exc).__name__, getattr(exc, "line_no", None), str(exc)]
    digest = hashlib.sha256(format_circuit(circ).encode()).hexdigest()[:16]
    return ["accepted", None, digest]


def mutate(base: str, line: int, token: int, kind: str, new: str) -> str:
    """``base`` with token ``token`` of line ``line`` replaced by, preceded by
    ``new``, or deleted (``kind`` ``"replace"``, ``"insert"``, ``"delete"``)."""
    lines = base.split("\n")
    tokens = lines[line].split(" ")
    if kind == "replace":
        tokens[token] = new
    elif kind == "insert":
        tokens.insert(token, new)
    else:
        del tokens[token]
    lines[line] = " ".join(tokens)
    return "\n".join(lines)


def _base(rng: random.Random) -> str:
    """A 10-qubit text of the sample-10q kind: three wires each take H, CX
    onto a live wire and MEASURE, between runs of plain, controlled and
    2-qubit gates on the live wires."""
    order = rng.sample(range(QUBITS), QUBITS)
    measured, live = order[:3], order[3:]

    def run():
        out = []
        for k in range(6):
            if k % 3 == 2:
                a, b, *ctrl = rng.sample(live, 2 + k % 2)
                tokens = [rng.choice(_TWO_Q), str(a), str(b)] + [f"c={w}" for w in ctrl]
            else:
                t, *ctrl = rng.sample(live, 1 + k % 3)
                tokens = [rng.choice(_ONE_Q), str(t)] + [f"{rng.choice('ca')}={w}" for w in ctrl]
            out.append(" ".join(tokens))
        return out

    lines = [f"qubits {QUBITS}"]
    for wire in measured:
        lines += run()
        lines += [f"H {wire}", f"CX {wire} {rng.choice(live)}", f"MEASURE {wire}"]
    lines += run()
    return "\n".join(lines) + "\n"


def build() -> dict:
    rng = random.Random(SEED)
    bases = [_base(rng) for _ in range(BASES)]
    sweep = []
    for _ in range(MUTATIONS):
        b = rng.randrange(BASES)
        lines = bases[b].split("\n")
        line = rng.randrange(len(lines) - 1)  # the last is the empty tail
        tokens = lines[line].split(" ")
        kind = rng.choice(("replace", "replace", "insert", "delete"))
        token = rng.randrange(len(tokens) + (kind == "insert"))
        wires = [t.split("=")[-1] for t in tokens[1:]] or ["0"]
        new = rng.choice(_POOL + tuple(wires) + tuple(f"{rng.choice('ca')}={w}" for w in wires))
        if kind == "delete":
            new = ""
        text = mutate(bases[b], line, token, kind, new)
        sweep.append([b, line, token, kind, new, outcome(text)])
    return {
        "fixed": [[text, outcome(text)] for text in FIXED],
        "bases": bases,
        "sweep": sweep,
    }


def _dump(table: dict) -> str:
    """``table`` as JSON with one text, base or mutation per line."""
    parts = []
    for key, rows in table.items():
        body = ",\n".join(json.dumps(row) for row in rows)
        parts.append(f"{json.dumps(key)}: [\n{body}\n]")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    PATH.write_text(_dump(build()))
