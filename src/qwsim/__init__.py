"""State-vector quantum circuit simulator with one strided-view gate kernel.

Quick start::

    from qwsim import parse_circuit, run_circuit

    circ = parse_circuit("qubits 2\\nH 0\\nCX 0 1\\n")
    psi = run_circuit(circ)          # Bell state amplitudes

See the individual modules for the full API: ``engine`` (the gate kernel),
``analysis`` (partial traces and statistics, every wire's in one sweep),
``measurement`` (branch trees and sampling), ``oracle`` (naive reference
path), ``circuit`` (ops, their ``ControlSpec`` bitmasks, and parsing), and
``cli``.

``import qwsim`` loads no other module.  Each public name below, and each
module that ``_EXPORTS`` names (``qwsim.oracle``), is imported on its first
use (PEP 562) and the name is then kept here, so a run loads only the
layers it uses: ``qwsim simulate`` never loads ``analysis``,
``measurement`` or the ``oracle``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Every public name, by the module that defines it.
_EXPORTS = {
    "errors": (
        "CatalogError", "ContractError", "DimensionError", "ParseError", "ResourceError",
        "SimulationError",
    ),
    "linalg": (
        "EIGEN_ATOL", "MAX_QUBITS", "STATE_ATOL", "UNITARY_ATOL", "basis_state", "random_state",
        "zero_state",
    ),
    "gates": ("GateDef", "gate_def", "gate_matrix", "gate_names"),
    "engine": ("apply_multi_qubit_gate", "run_circuit"),
    "oracle": (
        "NAIVE_QUBIT_GUARD", "build_gate_full_matrix", "partial_trace_by_definition",
        "rearrange_bits", "simulate_naive",
    ),
    "analysis": (
        "PairStats", "QubitStats", "all_qubit_stats", "concurrence", "pair_stats",
        "partial_trace_matrix", "partial_trace_state", "probability_of_one", "purity",
        "qubit_stats", "stabilizer_renyi_entropy", "von_neumann_entropy",
    ),
    "measurement": (
        "BranchLeaf", "BranchTree", "MeasurementBranch", "measure_qubit", "run_with_branches",
        "sample_shots",
    ),
    "circuit": (
        "Circuit", "ControlSpec", "GateOp", "format_circuit", "load_circuit", "parse_circuit",
        "random_circuit", "swap_bits",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it here too
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
