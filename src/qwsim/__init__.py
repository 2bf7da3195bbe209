"""State-vector quantum circuit simulator with one strided-view gate kernel.

Quick start::

    from qwsim import parse_circuit, run_circuit

    circ = parse_circuit("qubits 2\\nH 0\\nCX 0 1\\n")
    psi = run_circuit(circ)          # Bell state amplitudes

See the individual modules for the full API: ``engine`` (the gate kernel),
``analysis`` (partial traces and statistics, every wire's in one sweep),
``measurement`` (branch trees and sampling), ``oracle`` (naive reference
path), ``circuit`` (parsing), and ``cli``.
"""

from .errors import (
    CatalogError,
    ContractError,
    DimensionError,
    ParseError,
    ResourceError,
    SimulationError,
)
from .linalg import (
    EIGEN_ATOL,
    MAX_QUBITS,
    STATE_ATOL,
    UNITARY_ATOL,
    basis_state,
    random_state,
    zero_state,
)
from .gates import GateDef, gate_def, gate_matrix, gate_names
from .engine import (
    ControlSpec,
    apply_multi_qubit_gate,
    run_circuit,
    swap_bits,
)
from .oracle import (
    NAIVE_QUBIT_GUARD,
    build_gate_full_matrix,
    partial_trace_by_definition,
    rearrange_bits,
    simulate_naive,
)
from .analysis import (
    PairStats,
    QubitStats,
    all_qubit_stats,
    concurrence,
    pair_stats,
    partial_trace_matrix,
    partial_trace_state,
    probability_of_one,
    purity,
    qubit_stats,
    stabilizer_renyi_entropy,
    von_neumann_entropy,
)
from .measurement import (
    BranchLeaf,
    BranchTree,
    MeasurementBranch,
    measure_qubit,
    run_with_branches,
    sample_shots,
)
from .circuit import (
    Circuit,
    GateOp,
    format_circuit,
    load_circuit,
    parse_circuit,
    random_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "BranchLeaf",
    "BranchTree",
    "CatalogError",
    "Circuit",
    "ContractError",
    "ControlSpec",
    "DimensionError",
    "EIGEN_ATOL",
    "GateDef",
    "GateOp",
    "MAX_QUBITS",
    "MeasurementBranch",
    "NAIVE_QUBIT_GUARD",
    "PairStats",
    "ParseError",
    "QubitStats",
    "ResourceError",
    "STATE_ATOL",
    "SimulationError",
    "UNITARY_ATOL",
    "all_qubit_stats",
    "apply_multi_qubit_gate",
    "basis_state",
    "build_gate_full_matrix",
    "concurrence",
    "format_circuit",
    "gate_def",
    "gate_matrix",
    "gate_names",
    "load_circuit",
    "measure_qubit",
    "pair_stats",
    "parse_circuit",
    "partial_trace_by_definition",
    "partial_trace_matrix",
    "partial_trace_state",
    "probability_of_one",
    "purity",
    "qubit_stats",
    "random_circuit",
    "random_state",
    "rearrange_bits",
    "run_circuit",
    "run_with_branches",
    "sample_shots",
    "simulate_naive",
    "stabilizer_renyi_entropy",
    "swap_bits",
    "von_neumann_entropy",
    "zero_state",
]
