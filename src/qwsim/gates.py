"""Gate catalog: named unitaries plus the measurement pseudo-gate name.

Two-qubit matrices are indexed little-endian: bit ``k`` of a row/column
label refers to the ``k``-th smallest target wire the gate is applied to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CatalogError

MEASURE = "MEASURE"

_H = 1.0 / np.sqrt(2.0)
_T = np.exp(1j * np.pi / 4.0)


def _mat(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class GateDef:
    """A named unitary acting on ``arity`` qubits."""

    name: str
    arity: int
    matrix: np.ndarray


_CATALOG: dict[str, GateDef] = {
    g.name: g
    for g in (
        GateDef("I", 1, _mat([[1, 0], [0, 1]])),
        GateDef("H", 1, _mat([[_H, _H], [_H, -_H]])),
        GateDef("X", 1, _mat([[0, 1], [1, 0]])),
        GateDef("Y", 1, _mat([[0, -1j], [1j, 0]])),
        GateDef("Z", 1, _mat([[1, 0], [0, -1]])),
        GateDef("S", 1, _mat([[1, 0], [0, 1j]])),
        GateDef("SDG", 1, _mat([[1, 0], [0, -1j]])),
        GateDef("T", 1, _mat([[1, 0], [0, _T]])),
        GateDef("TDG", 1, _mat([[1, 0], [0, np.conj(_T)]])),
        GateDef(
            "SWAP",
            2,
            _mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        ),
        GateDef(
            "ISWAP",
            2,
            _mat([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
        ),
        GateDef(
            "SQRTSWAP",
            2,
            _mat(
                [
                    [1, 0, 0, 0],
                    [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
                    [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
                    [0, 0, 0, 1],
                ]
            ),
        ),
    )
}


def gate_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def gate_key(name: str) -> str:
    """The str ``name`` as a gate is named: upper-cased only if it is ASCII,
    since Unicode ``upper()`` would read the long s as S and the dotless i
    as I."""
    return name.upper() if name.isascii() else name


def gate_def(name: str) -> GateDef:
    """Look up a gate by case-insensitive ASCII name (:func:`gate_key`)."""
    gate = _CATALOG.get(gate_key(str(name)))
    if gate is None:
        raise CatalogError(f"unknown gate {name!r}")
    return gate


def gate_matrix(name: str) -> np.ndarray:
    return gate_def(name).matrix
