"""Checks and runners the test files share; pytest does not collect this file.

``is_unitary`` and ``check_density_matrix`` are test-side predicates
over the package's own checks: no package code needs either.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qwsim.analysis import _density_gate
from qwsim.errors import SimulationError
from qwsim.linalg import UNITARY_ATOL, check_matrix

SRC = str(Path(__file__).resolve().parents[1] / "src")


def is_unitary(m) -> bool:
    """True for a matrix with ``m^H m = I`` entrywise within ``UNITARY_ATOL``."""
    try:
        a = check_matrix(m)
    except SimulationError:
        return False
    eye = np.eye(a.shape[0])
    return bool(np.max(np.abs(a.conj().T @ a - eye)) <= UNITARY_ATOL)


def check_density_matrix(rho) -> int:
    """The qubit count of ``rho``, once it passes ``check_matrix`` and the
    density gate, whose errors it raises: ``DimensionError`` for an empty
    or non-square matrix, ``ContractError`` for any other violation."""
    return _density_gate(check_matrix(rho))[0].shape[0].bit_length() - 1


def stdout_at_one_and_two_blas_threads(code: str) -> list[str]:
    """The stdout of ``code`` run by two child interpreters, with BLAS at 1
    and at 2 threads, in that order.

    BLAS reads its thread count once, when numpy loads it, so each count
    gets its own child process.  Both variables are set here, since
    collecting perfbench sets them to 1 in this process's environment.
    """
    return [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": SRC,
                 "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
