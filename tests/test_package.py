"""The package's surface: the export table, the modules each entry point
loads, and a CI workflow that pins no output."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qwsim

ROOT = Path(__file__).resolve().parents[1]
BELL_MEASURE = str(ROOT / "circuits" / "bell_measure.qc")
MIXED_PAIR = str(ROOT / "circuits" / "mixed_pair.qc")


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


class TestWorkflow:
    def test_ci_pins_no_output(self):
        # every output pin lives in tier-1, once; the CI's console step
        # checks only what a real process shows
        text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
        assert re.findall(r"\b[0-9a-f]{64}\b", text) == []
        assert "sha256sum" not in text
