"""Outside-in span tracer for qwsim.

qwsim has no spans of its own, so this module wraps every public function
of each layer module, in every qwsim namespace that holds it.  Modules bind
many of them by name (``from .engine import apply_op``), so patching only
the defining module would miss those calls.

Spans of one op are kept in memory while the op runs and reduced after it,
outside the timed region.  A span's self time is its duration minus the
durations of its child spans.  Self time is charged to a bucket: a call to
a function in ``BUCKETS`` opens an instance of its bucket, and every other
wrapped call (validation helpers, ``rearrange_bits``, ...) is charged to
the bucket of its caller.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("circuit", "engine", "analysis", "linalg", "measurement", "cli")

BUCKETS = {
    "circuit.parse_circuit": "circuit.parse",
    "circuit.load_circuit": "circuit.parse",
    "engine.run_circuit": "engine.run",
    "engine.apply_op": "engine.run",
    "engine.qubit_wise_multiply": "engine.kernel_1q",
    "engine.apply_swap": "engine.kernel_swap",
    "engine.apply_multi_qubit_gate": "engine.kernel_multi",
    "analysis.partial_trace_state": "analysis.ptrace",
    "analysis.partial_trace_matrix": "analysis.ptrace",
    "analysis.qubit_stats": "analysis.qubit_stats",
    "analysis.pair_stats": "analysis.pair_stats",
    "analysis.stabilizer_renyi_entropy": "analysis.magic",
    "linalg.hermitian_eig": "linalg.eig",
    "linalg.hermitian_eigenvalues": "linalg.eig",
    "measurement.sample_shots": "measurement.sample",
    "measurement.run_with_branches": "measurement.branches",
    "cli.main": "cli.self",
}
# A kernel called by another kernel (the swaps inside apply_multi_qubit_gate)
# is charged to the outer one, so each kernel bucket is one kind of gate.
KERNELS = {"engine.kernel_1q", "engine.kernel_swap", "engine.kernel_multi"}


def _n_controls(controls) -> int:
    if controls is None:
        return 0
    entries = getattr(controls, "entries", controls)
    return len(tuple(entries))


def _kernel_info(target_at: int | None):
    """Reads (qubits, controls, target) off a kernel call.

    The kernels take ``(n, _, target(s), state, controls=None)`` and qwsim
    calls them positionally.  The target is kept for 1-qubit calls only.
    """

    def info(args, kwargs):
        controls = args[4] if len(args) > 4 else kwargs.get("controls")
        target = None if target_at is None else int(args[target_at])
        return int(args[0]), _n_controls(controls), target

    return info


INFO = {
    "engine.qubit_wise_multiply": _kernel_info(2),
    "engine.apply_swap": _kernel_info(None),
    "engine.apply_multi_qubit_gate": _kernel_info(None),
}


def amps_touched(name: str, info) -> int:
    """Amplitudes a kernel call reads and writes, computed from its shape."""
    n, n_ctrl, _ = info
    if name == "engine.apply_swap":
        return 1 << (n - 1 - n_ctrl)  # half the register moves
    return 1 << (n - n_ctrl)


class Tracer:
    """Wraps qwsim's public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qwsim.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qwsim" and not mod_name.startswith("qwsim."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        info = INFO.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)  # reserve the slot so parents precede children
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra = info(args, kwargs) if info else None
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (fid, parent, t0, t1, extra)

        return traced

    def take(self) -> list:
        """Spans recorded since the last call; call between ops."""
        spans, self.spans = self.spans, []
        return spans

    def reduce(self, spans) -> "OpTrace":
        """Self time per bucket, bucket instances and call counts of one op."""
        out = OpTrace()
        count = len(spans)
        bucket = [""] * count
        instance = [0] * count
        child_ns = [0] * count
        for i, (fid, parent, t0, t1, _) in enumerate(spans):
            name = self.names[fid]
            own = BUCKETS.get(name)
            outer = bucket[parent] if parent >= 0 else None
            opens = own is not None and own != outer and not (own in KERNELS and outer in KERNELS)
            if opens:
                bucket[i], instance[i] = own, i
                out.instances[own] += 1
            elif outer is not None:
                bucket[i], instance[i] = outer, instance[parent]
            else:
                bucket[i], instance[i] = name.split(".")[0] + ".other", i
            if parent >= 0:
                child_ns[parent] += t1 - t0
                if name == "engine.apply_op" and outer.startswith("measurement."):
                    out.replayed_gates += 1
            out.calls[name] += 1
        instance_ns = defaultdict(int)
        for i, (fid, parent, t0, t1, extra) in enumerate(spans):
            self_ns = t1 - t0 - child_ns[i]
            out.self_ns[bucket[i]] += self_ns
            instance_ns[instance[i]] += self_ns
            if extra is not None:
                out.amps += amps_touched(self.names[fid], extra)
        for i, (fid, parent, t0, t1, extra) in enumerate(spans):
            if instance[i] == i and bucket[i] == "engine.kernel_1q":
                n, n_ctrl, target = extra
                out.ctrl_1q += n_ctrl > 0
                if 2 * target >= n:
                    out.high_1q_ns += instance_ns[i]
        return out


class OpTrace:
    """What one traced op did, summed over its spans."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.instances: Counter = Counter()
        self.calls: Counter = Counter()
        self.replayed_gates = 0
        self.amps = 0
        self.ctrl_1q = 0
        self.high_1q_ns = 0

    def add(self, other: "OpTrace") -> None:
        self.self_ns.update(other.self_ns)
        self.instances.update(other.instances)
        self.calls.update(other.calls)
        self.replayed_gates += other.replayed_gates
        self.amps += other.amps
        self.ctrl_1q += other.ctrl_1q
        self.high_1q_ns += other.high_1q_ns
