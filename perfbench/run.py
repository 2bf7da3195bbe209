"""qwsim benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload circuit-18q --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; qwsim is imported from its ``src``
directory.  One single-threaded process runs a fixed op count (set by
``--seconds`` and the workload's nominal rate on the reference box) over a
seeded input sequence, checks every output, and prints a context line and
then, as its last line, one JSON result.  ``--trace 0`` reports the
end-to-end metrics, with op times in units of a reference probe timed
between the ops, and the raw wall-clock timings on the context line;
``--trace 1`` reports the per-layer metrics of ``tracer.py``.  See
``README.md`` for the metric definitions.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy loads them.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, compare  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDENS = HERE / "goldens"

# Ops per second of each workload on the reference box (2 cores, numpy
# 2.4.6, OpenBLAS).  The op count of a run is this times --seconds, so a
# run replays the same inputs however fast the code under test is.
NOMINAL_OPS_PER_S = {"circuit-18q": 3.4, "stats-12q": 3.7, "sample-10q": 10.5}
# Probe passes after each op, so that the probe is about 2% of an op.
PROBE_PASSES = {"circuit-18q": 2, "stats-12q": 12, "sample-10q": 3}
# At least 10 ops must lie beyond p90.
MIN_OPS = 101
SMOKE_OPS = 3
SETUP_REPEATS = 6


_SQRT_HALF = 0.5**0.5


class Probe:
    """Fixed work that never touches qwsim, timed before the first op and
    after every op.

    ``passes`` times: a pure-Python loop, small numpy calls like qwsim's
    per-gate overhead, and a butterfly over half of a state the size of the
    workload's, with index arrays like a kernel pass.  The butterfly is
    unitary, so values neither grow nor decay into subnormals.
    """

    def __init__(self, qubits: int, passes: int):
        self.passes = passes
        size = 1 << qubits
        self.state = np.ones(size, dtype=complex)
        self.lo = np.arange(0, size // 2, 2, dtype=np.int64)
        self.hi = self.lo + size // 2
        self.small = np.zeros(64, dtype=complex)

    def __call__(self) -> float:
        """Runs the probe; returns its wall time in seconds."""
        t0 = perf_counter()
        for _ in range(self.passes):
            acc = 0
            for i in range(4000):
                acc += i * i % 7
            for _ in range(60):
                pick = np.arange(32) * 2
                self.small[pick] = np.asarray(self.small, dtype=complex)[pick]
            a = self.state[self.lo]
            b = self.state[self.hi]
            self.state[self.lo] = (a + b) * _SQRT_HALF
            self.state[self.hi] = (a - b) * _SQRT_HALF
        return perf_counter() - t0


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def fresh_import():
    """Import qwsim and its CLI afresh, as a new process would."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "qwsim" or m.startswith("qwsim.")]:
        del sys.modules[name]
    qw = importlib.import_module("qwsim")
    cli = importlib.import_module("qwsim.cli")
    if Path(qw.__file__).resolve().parent != SRC / "qwsim":
        raise SystemExit(f"qwsim was imported from {qw.__file__}, not from {SRC}")
    return qw, cli


def input_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sorted(WORKLOADS).index(name)])


def setup(wl, first_input):
    """Fresh import of qwsim plus one warm-up op; returns qw, cli, seconds."""
    t0 = perf_counter()
    qw, cli = fresh_import()
    wl.op(qw, cli, first_input)
    return qw, cli, perf_counter() - t0


def quartile_spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class Checker:
    """Counts ops whose output fails a check; reports the first few."""

    def __init__(self, wl, refs, goldens):
        self.wl, self.refs, self.goldens = wl, refs, goldens
        self.failed = 0
        self.reported = 0

    def check(self, k: int, out, inp) -> None:
        slot = k % len(self.refs)
        problems = self.wl.problems(out, inp, self.refs[slot])
        if self.goldens is not None:
            problems += compare(self.wl.golden(out), self.goldens[slot], f"golden[{slot}]")
        self.fail(k, problems)

    def fail(self, k: int, problems) -> None:
        if not problems:
            return
        self.failed += 1
        if self.reported < 5:
            self.reported += 1
            print(f"op {k}: " + "; ".join(problems[:3]), file=sys.stderr)


def run_op(wl, qw, cli, inp, checker, k):
    """One timed op; an exception counts as a failed op."""
    t0 = perf_counter()
    try:
        out = wl.op(qw, cli, inp)
    except Exception:  # noqa: BLE001 - the loop must go on and count it
        elapsed = perf_counter() - t0
        checker.fail(k, [traceback.format_exc(limit=3)])
        return elapsed, None
    return perf_counter() - t0, out


def timed_loop(wl, qw, cli, inputs, checker, n_ops, setup_samples):
    # Set-up is sampled again across the run, not only at its start, so that
    # its median sees the same drift of the box's speed as the ops do.
    again = {n_ops * j // SETUP_REPEATS for j in range(1, SETUP_REPEATS)}
    probe = Probe(wl.qubits, PROBE_PASSES[wl.name])
    # probe_s[k] follows op k - 1, so op k lies between probe_s[k] and probe_s[k + 1].
    op_s, probe_s = [], [probe()]
    for k in range(n_ops):
        if k in again:
            qw, cli, seconds = setup(wl, inputs[0])
            setup_samples.append(seconds)
        inp = inputs[k % len(inputs)]
        elapsed, out = run_op(wl, qw, cli, inp, checker, k)
        probe_s.append(probe())
        op_s.append(elapsed)
        if out is not None:
            checker.check(k, out, inp)
    return op_s, probe_s


def traced_loop(wl, qw, cli, inputs, checker, n_ops):
    """Runs each op untraced and traced, alternating which goes first."""
    tr = tracing.Tracer()
    total = tracing.OpTrace()
    plain_s = traced_s = 0.0
    distinct = []
    try:
        for k in range(n_ops):
            inp = inputs[k % len(inputs)]
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tr.install()
                elapsed, out = run_op(wl, qw, cli, inp, checker, k)
                if traced:
                    tr.uninstall()
                    total.add(tr.reduce(tr.take()))
                    traced_s += elapsed
                    if out is not None and wl.distinct_frac(out) is not None:
                        distinct.append(wl.distinct_frac(out))
                else:
                    plain_s += elapsed
                if out is not None:
                    checker.check(k, out, inp)
    finally:
        tr.uninstall()
    return total, layer_metrics(total, n_ops, plain_s, traced_s, distinct)


def layer_metrics(t: tracing.OpTrace, n_ops, plain_s, traced_s, distinct) -> dict:
    def ms(bucket):
        return t.self_ns[bucket] / 1e6 / n_ops

    def per_op(x):
        return x / n_ops

    kernel_ns = sum(t.self_ns[b] for b in tracing.KERNELS)
    n_1q = t.instances["engine.kernel_1q"]
    return {
        "circuit.parse_ms": (ms("circuit.parse"), "ms"),
        "engine.run_ms": (ms("engine.run"), "ms"),
        "engine.kernel_1q_ms": (ms("engine.kernel_1q"), "ms"),
        "engine.kernel_1q_calls": (per_op(n_1q), "count"),
        "engine.kernel_1q_ctrl_share": (t.ctrl_1q / n_1q if n_1q else 0.0, "ratio"),
        "engine.kernel_1q_high_ms": (t.high_1q_ns / 1e6 / n_ops, "ms"),
        "engine.kernel_swap_ms": (ms("engine.kernel_swap"), "ms"),
        "engine.kernel_swap_calls": (per_op(t.instances["engine.kernel_swap"]), "count"),
        "engine.kernel_multi_ms": (ms("engine.kernel_multi"), "ms"),
        "engine.kernel_multi_calls": (per_op(t.instances["engine.kernel_multi"]), "count"),
        "engine.amps_touched": (per_op(t.amps), "count"),
        "engine.gbytes_per_s": (2 * 16 * t.amps / kernel_ns if kernel_ns else 0.0, "GB/s-computed"),
        "analysis.ptrace_ms": (ms("analysis.ptrace"), "ms"),
        "analysis.ptrace_calls": (per_op(t.instances["analysis.ptrace"]), "count"),
        "analysis.qubit_stats_ms": (ms("analysis.qubit_stats"), "ms"),
        "analysis.pair_stats_ms": (ms("analysis.pair_stats"), "ms"),
        "analysis.magic_ms": (ms("analysis.magic"), "ms"),
        "linalg.eig_ms": (ms("linalg.eig"), "ms"),
        "linalg.eig_calls": (per_op(t.instances["linalg.eig"]), "count"),
        "measurement.sample_ms": (ms("measurement.sample"), "ms"),
        "measurement.branches_ms": (ms("measurement.branches"), "ms"),
        "measurement.measure_calls": (per_op(t.calls["measurement.measure_qubit"]), "count"),
        "measurement.replayed_gates": (per_op(t.replayed_gates), "count"),
        "measurement.distinct_frac": (statistics.fmean(distinct) if distinct else 0.0, "ratio"),
        "cli.self_ms": (ms("cli.self"), "ms"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "ratio"),
        "trace.accounted_frac": (sum(t.self_ns.values()) / 1e9 / traced_s, "ratio"),
    }


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(op_s, probe_s, setup_samples, checker, n_ops) -> dict:
    # Each op in units of the mean of the probes just before and after it,
    # so that a change of the box's speed during a run cancels op by op.
    cost = [op / ((before + after) / 2) for op, before, after in zip(op_s, probe_s, probe_s[1:])]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_cost_ref": (sum(op_s) / sum(probe_s[1:]), "ratio"),
        "op_p50_ref": (statistics.median(cost), "ratio"),
        "op_p90_ref": (p90(cost), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((n_ops - checker.failed) / n_ops, "ratio"),
    }


def raw_timings(op_s) -> dict:
    """Wall-clock timings as measured; they follow the box's speed."""
    op_ms = [s * 1e3 for s in op_s]
    return {
        "ops_per_s": len(op_s) / sum(op_s),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": p90(op_ms),
    }


def load_goldens(name: str):
    path = GOLDENS / f"{name}.json"
    return json.loads(path.read_text())["inputs"]


def run(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False, goldens=None):
    """Runs one workload; returns (context, result) as JSON-ready dicts.

    ``smoke`` runs ``SMOKE_OPS`` ops, for the benchmark's own tests.
    ``goldens`` replaces the committed goldens; they apply at
    ``DEFAULT_SEED`` only.
    """
    wl = WORKLOADS[name]
    if smoke:
        n_ops = SMOKE_OPS
    else:
        n_ops = max(MIN_OPS, round(NOMINAL_OPS_PER_S[name] * seconds))
        if trace:
            n_ops = max(1, n_ops // 2)
    rng = input_rng(seed, name)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        inputs = wl.make_inputs(rng, Path(workdir))
        qw, cli, seconds = setup(wl, inputs[0])
        setup_samples = [seconds]
        pre = wl.oracle_problems(qw, rng)
        for problem in pre:
            print(f"pre-check: {problem}", file=sys.stderr)
        refs = [wl.reference(qw, inp) for inp in inputs]
        if seed == DEFAULT_SEED and goldens is None:
            goldens = load_goldens(name)
        checker = Checker(wl, refs, goldens if seed == DEFAULT_SEED else None)
        context = {
            "workload": name,
            "seed": seed,
            "ops": n_ops,
            "trace": trace,
            "machine": machine(),
            "setup_samples_s": setup_samples,
            "goldens_checked": checker.goldens is not None,
        }
        if trace:
            total, values = traced_loop(wl, qw, cli, inputs, checker, n_ops)
            attempted = n_ops * 2
            context["spans_per_op"] = {
                "calls": {f: c / n_ops for f, c in sorted(total.calls.items())},
                "self_ms": {b: ns / 1e6 / n_ops for b, ns in sorted(total.self_ns.items())},
            }
        else:
            op_s, probe_s = timed_loop(wl, qw, cli, inputs, checker, n_ops, setup_samples)
            values = end_to_end_metrics(op_s, probe_s, setup_samples, checker, n_ops)
            attempted = n_ops
            probe_ms = [s * 1e3 for s in probe_s]
            context["raw"] = raw_timings(op_s)
            context["probe"] = {
                "median_ms": statistics.median(probe_ms),
                "quartile_spread": quartile_spread(probe_ms),
                "share_of_op": sum(probe_s[1:]) / sum(op_s),
            }
    result = {
        "correct": not pre and checker.failed == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return context, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qwsim" / "__init__.py").is_file():
        print(f"error: qwsim sources not found under {SRC}", file=sys.stderr)
        return 2
    context, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
