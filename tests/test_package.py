"""The package's surface: the export table, the modules each entry point
loads, the order of its layers, no name that only tests call, the tools
beside the tests, and a CI workflow that pins no output."""

import ast
import dataclasses
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import ab
import ab_sets
import bench_record
import line_trace
import numpy as np
import pytest

import qwsim
from qwsim import cli

ROOT = Path(__file__).resolve().parents[1]
BELL_MEASURE = str(ROOT / "circuits" / "bell_measure.qc")
MIXED_PAIR = str(ROOT / "circuits" / "mixed_pair.qc")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def loaded_after(code: str) -> set[str]:
    """The ``qwsim`` modules loaded after ``code`` runs in a fresh interpreter."""
    report = "import sys; print(*sorted(m for m in sys.modules if m.startswith('qwsim')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(out.splitlines()[-1].split())


RUN_CLI = "from qwsim import cli; cli.main({argv!r})"
# qwsim and the layers every subcommand uses
FRONT = {f"qwsim.{m}" for m in ("cli", "circuit", "engine", "errors", "gates", "linalg")} | {"qwsim"}


class TestLoadedModules:
    def test_import_loads_only_the_package(self):
        assert loaded_after("import qwsim") == {"qwsim"}

    @pytest.mark.parametrize("argv, extra", [
        (["simulate", MIXED_PAIR], set()),
        (["simulate", BELL_MEASURE, "--probs"], set()),
        (["stats", MIXED_PAIR, "--pair", "0", "1", "--magic"], {"qwsim.analysis"}),
        (["sample", BELL_MEASURE, "--shots", "10"], {"qwsim.measurement"}),
    ])
    def test_each_subcommand_loads_its_own_layers(self, argv, extra):
        assert loaded_after(RUN_CLI.format(argv=argv)) == FRONT | extra

    def test_a_reference_name_loads_the_oracle(self):
        assert "qwsim.oracle" in loaded_after("import qwsim; qwsim.simulate_naive")

    def test_the_op_model_loads_no_kernel(self):
        expected = {"qwsim"} | {f"qwsim.{m}" for m in ("circuit", "errors", "gates", "linalg")}
        assert loaded_after("import qwsim.circuit") == expected


# The package's modules, each importing only those before it.
LAYERS = ("errors", "linalg", "gates", "circuit", "engine", "analysis", "measurement", "oracle", "cli")


class TestLayers:
    def test_each_module_imports_only_earlier_layers(self):
        modules = {path.stem: path for path in (ROOT / "src" / "qwsim").glob("*.py")}
        assert set(modules) - {"__init__"} == set(LAYERS)
        wrong = []
        for rank, name in enumerate(LAYERS):
            tree = ast.parse(modules[name].read_text(encoding="utf-8"))
            for node in ast.walk(tree):  # function-local imports too
                if not isinstance(node, ast.ImportFrom) or not node.level:
                    continue
                # ``from .x import y`` names x; ``from . import x, y`` names x and y
                named = [node.module] if node.module else [alias.name for alias in node.names]
                wrong += [(name, node.lineno, m) for m in named if m not in LAYERS[:rank]]
        assert wrong == []


def _defined(stmt) -> list[str]:
    """The names a top-level ``def``, ``class`` or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced(stmt) -> set[str]:
    """The names ``stmt`` reads: each loaded ``Name``, attribute and imported alias."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


class TestSurface:
    def test_every_private_name_has_a_package_caller(self):
        # a name that only tests call belongs in the tests; the oracle is
        # the independent reference, reached from the tests on purpose
        stmts = [
            (path.stem, stmt)
            for path in sorted((ROOT / "src" / "qwsim").glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        ]
        reads = [_referenced(stmt) for _, stmt in stmts]
        uncalled = [
            f"{module}.{name}"
            for k, (module, stmt) in enumerate(stmts)
            if module not in ("oracle", "__init__")
            for name in _defined(stmt)
            if qwsim._HOME.get(name) != module and not (name.startswith("__") and name.endswith("__"))
            and not any(name in r for j, r in enumerate(reads) if j != k)
        ]
        assert uncalled == []


class TestExports:
    def test_every_name_is_its_home_modules_object(self):
        star: dict = {}
        exec("from qwsim import *", star)
        for module, names in qwsim._EXPORTS.items():
            home = importlib.import_module(f"qwsim.{module}")
            for name in names:
                assert getattr(qwsim, name) is getattr(home, name), name
                assert star[name] is getattr(home, name), name
        assert set(star) - {"__builtins__"} == set(qwsim.__all__)

    def test_dir_lists_every_name_and_module(self):
        assert set(qwsim.__all__) | set(qwsim._EXPORTS) <= set(dir(qwsim))

    def test_a_module_resolves_after_a_bare_import(self):
        code = "import qwsim; assert qwsim.oracle is sys.modules['qwsim.oracle']"
        assert "qwsim.oracle" in loaded_after(f"import sys; {code}")

    def test_an_unknown_name_raises_naming_it(self):
        with pytest.raises(AttributeError, match="'qwsim' has no attribute 'no_such_name'"):
            qwsim.no_such_name  # noqa: B018
        assert not hasattr(qwsim, "cli_main")


class TestLineTrace:
    def test_statements_leave_out_docstrings_defs_imports_and_the_main_guard(self):
        source = "\n".join([
            '"""doc"""',
            "import os",
            "X = (1,",
            "     2)",
            "def f(a):",
            '    """doc"""',
            "    if a:",
            "        return 1",
            "    try:",
            "        pass",
            "    except ValueError:",
            "        raise",
            '    "not a docstring"',
            "if __name__ == '__main__':",
            "    f(0)",
        ])
        # each statement by its first line, with the lines that mean it ran
        assert line_trace.statements(source) == {
            3: range(3, 5), 7: range(7, 8), 8: range(8, 9), 9: range(9, 10),
            10: range(10, 11), 12: range(12, 13), 13: range(13, 14),
        }


class TestABTimer:
    def test_one_round_of_a_tree_against_itself(self):
        out = subprocess.run(
            [sys.executable, str(ROOT / "tests" / "ab.py"), str(ROOT), str(ROOT),
             "--workload", "sample-10q", "--rounds", "1"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert out[0] == "sample-10q: 8 inputs x 1 rounds, timing op"
        assert [line.split(":")[0] for line in out[1:3]] == [f"A {ROOT}", f"B {ROOT}"]
        assert re.fullmatch(r"B/A per op: median [\d.]+, 95% interval \[[\d.]+, [\d.]+\]; "
                            r"B faster in \d of 8 \(\d+%\)", out[3])
        assert len(out) == 4  # both sides printed the same records

    def test_a_tree_that_prints_other_records_is_refused_before_timing(self, tmp_path):
        shutil.copytree(ROOT / "src", tmp_path / "src")
        source = tmp_path / "src" / "qwsim" / "cli.py"
        text = source.read_text(encoding="utf-8")
        assert "\nPRINT_EPS = 1e-12\n" in text
        source.write_text(text.replace("\nPRINT_EPS = 1e-12\n", "\nPRINT_EPS = 0.5\n"), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, str(ROOT / "tests" / "ab.py"), str(ROOT), str(tmp_path),
             "--workload", "sample-10q", "--rounds", "1"],
            capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stdout == ""  # no ratio line, nor any other
        assert done.stderr == "error: B's records differ from A's at input 0 of sample-10q\n"

    @pytest.mark.parametrize("name", sorted(ab_sets.SETS))
    def test_one_round_of_each_set_at_10_wires(self, name, tmp_path):
        wset = ab_sets.SETS[name](10)
        sides = [(qwsim, cli)] * 2
        inputs = wset.inputs(-1, tmp_path)
        assert ab.first_difference(sides, wset, inputs) is None
        times = ab.timed_rounds(sides, wset, 1, tmp_path)
        assert [len(t) for t in times] == [len(inputs)] * 2
        if name == "fresh-12q":  # a round draws texts of its own
            assert wset.inputs(0, tmp_path) != inputs
            assert wset.inputs(0, tmp_path) == wset.inputs(0, tmp_path)

    def test_records_compare_by_value_across_packages(self):
        @dataclasses.dataclass(frozen=True)
        class QubitStats:  # as each loaded package has its own class
            x: float

        other = dataclasses.make_dataclass("QubitStats", ["x"], frozen=True)
        a = np.array([0.5, -0.0])
        assert ab_sets.same((a, [QubitStats(1.0)]), (a.copy(), [other(1.0)]))
        assert not ab_sets.same(a, np.nextafter(a, 1.0))
        assert not ab_sets.same([QubitStats(1.0)], [other(2.0)])
        assert not ab_sets.same((0, "ab12"), (0, "ab13"))


class TestBenchRecord:
    def test_one_run_of_the_tree(self):
        before = os.environ.get("MALLOC_MMAP_THRESHOLD_")
        doc = bench_record.record(0, None, 1, ["sample-10q"], seconds=0)
        got = doc["workloads"]["sample-10q"]
        change = got["change"]
        assert (got["context"]["ops"], change["failed"], change["incorrect_runs"], len(change["wall_s"])) == (101, 0, 0, 1)
        assert set(got["change"]["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
        assert set(got["context"]["machine"]["threads"].values()) == {"1"}
        assert doc["environment"]["MALLOC_MMAP_THRESHOLD_"] == str(256 << 20)
        assert os.environ.get("MALLOC_MMAP_THRESHOLD_") == before  # set in the child only

    def test_pairs_alternate_and_compare_each_metric(self, monkeypatch):
        trees = []

        def run_once(tree, workload, seconds, env):
            # the change reads 0.5 of the base on every metric and every
            # run; each base run fails its check and 2 of its ops
            trees.append(tree)
            value = 1.0 if tree == ROOT else 2.0
            metrics = {m["name"]: {"value": value} for m in BENCHMARK["end_to_end"]}
            result = {"correct": tree == ROOT, "failed": 0 if tree == ROOT else 2, "metrics": metrics}
            return {"workload": workload}, result, 0.1

        monkeypatch.setattr(bench_record, "run_once", run_once)
        doc = bench_record.record(0, ROOT / "base", 3, ["stats-12q"])
        assert trees == [ROOT / "base", ROOT, ROOT, ROOT / "base", ROOT / "base", ROOT]
        got = doc["workloads"]["stats-12q"]
        # failed ops and failed runs are counted apart
        assert [(got[side]["failed"], got[side]["incorrect_runs"]) for side in ("base", "change")] == [(6, 3), (0, 0)]
        compare = got["compare"]
        assert compare["setup_s"] == {
            "median_ratio": 0.5, "pair_ratios": [0.5] * 3, "pair_median": 0.5,
            "interval95": (0.5, 0.5), "lower_share": 1.0, "verdict": "within",
        }
        assert compare["ok_frac"]["verdict"] == "worse"  # higher is better


class TestWorkflow:
    def test_ci_pins_no_output(self):
        # every output pin lives in tier-1, once; the CI's console step
        # checks only what a real process shows
        text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
        assert re.findall(r"\b[0-9a-f]{64}\b", text) == []
        assert "sha256sum" not in text
