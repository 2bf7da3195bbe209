"""Rewrite goldens/<workload>.json from the qwsim in this checkout.

    python3 perfbench/make_goldens.py

A golden holds the outputs of each distinct input of a workload at
DEFAULT_SEED.  Runs at that seed must reproduce them: sampled histograms
exactly, every other number to 1e-9.  Regenerate only for an intended
change of outputs, after checking the new ones by other means.
"""

import json
import tempfile
from pathlib import Path

import run  # sets the thread variables before numpy loads
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    qw, cli = run.fresh_import()
    run.GOLDENS.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=".work-", dir=run.HERE) as workdir:
            inputs = wl.make_inputs(run.input_rng(DEFAULT_SEED, name), Path(workdir))
            records = [wl.golden(wl.op(qw, cli, inp)) for inp in inputs]
        path = run.GOLDENS / f"{name}.json"
        path.write_text(json.dumps({"seed": DEFAULT_SEED, "inputs": records}) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
