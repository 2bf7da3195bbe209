"""Gate catalog: named unitaries plus the measurement pseudo-gate name.

Two-qubit matrices are indexed little-endian: bit ``k`` of a row/column
label refers to the ``k``-th smallest target wire the gate is applied to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CatalogError
from .linalg import is_unitary

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


def gate_def(name: str) -> GateDef:
    """Look up a gate by (case-insensitive) name."""
    try:
        return _CATALOG[str(name).upper()]
    except KeyError:
        raise CatalogError(f"unknown gate {name!r}") from None


def gate_matrix(name: str) -> np.ndarray:
    return gate_def(name).matrix


def check_catalog_unitarity() -> None:
    """Assert every catalog entry is unitary; import-time sanity hook."""
    for g in _CATALOG.values():
        if g.matrix.shape != (1 << g.arity, 1 << g.arity):
            raise CatalogError(f"gate {g.name} has wrong shape {g.matrix.shape}")
        if not is_unitary(g.matrix):
            raise CatalogError(f"gate {g.name} is not unitary")


check_catalog_unitarity()
