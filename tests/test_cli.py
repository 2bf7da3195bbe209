import contextlib
import hashlib
import json
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import differential
import numpy as np
import pytest

from qwsim import analysis, circuit, cli, engine, measurement
from qwsim.circuit import parse_circuit
from qwsim.gates import gate_def, gate_names

FLIP_PHASE_PAIR = "qubits 3\nH 1 ; X 2\nCX 1 0\nZ 0\nCX 1 2\n"
MIXED_PAIR = "qubits 3\nH 0\nCX 0 1\nH 2\n"
BELL_MEASURE = "qubits 2\nH 0\nCX 0 1\nMEASURE 0\n"
SLICE17 = str(Path(__file__).resolve().parents[1] / "circuits" / "slice17.qc")
# the stats --format records text of circuits/slice17.qc
SLICE17_RECORDS = (
    "qubit=0 prob1=0.8125 x=0.25 y=0.5 z=-0.625 r=0.838525491562 theta=2.41186499736 phi=1.10714871779 purity=0.8515625 lin_entropy=0.1484375\n"
    "qubit=1 prob1=0.90625 x=0.125 y=-0.375 z=-0.8125 r=0.903552018425 theta=2.68879981349 phi=-1.2490457724 purity=0.908203125 lin_entropy=0.091796875\n"
    "qubit=2 prob1=1 x=0 y=0 z=-1 r=1 theta=3.14159265359 phi=0 purity=1 lin_entropy=0\n"
    "qubit=3 prob1=0.90625 x=0.375 y=0.125 z=-0.8125 r=0.903552018425 theta=2.68879981349 phi=0.321750554397 purity=0.908203125 lin_entropy=0.091796875\n"
    "qubit=4 prob1=0 x=0 y=0 z=1 r=1 theta=0 phi=0 purity=1 lin_entropy=0\n"
    "qubit=5 prob1=0 x=0 y=0 z=1 r=1 theta=0 phi=0 purity=1 lin_entropy=0\n"
    "qubit=6 prob1=0.5 x=0.5 y=0.5 z=0 r=0.707106781187 theta=1.57079632679 phi=0.785398163397 purity=0.75 lin_entropy=0.25\n"
    "qubit=7 prob1=0.375 x=0.75 y=0.25 z=0.25 r=0.829156197589 theta=1.26451895763 phi=0.321750554397 purity=0.84375 lin_entropy=0.15625\n"
    "qubit=8 prob1=0 x=0 y=0 z=1 r=1 theta=0 phi=0 purity=1 lin_entropy=0\n"
    "qubit=9 prob1=0.5 x=1 y=0 z=0 r=1 theta=1.57079632679 phi=0 purity=1 lin_entropy=0\n"
    "qubit=10 prob1=1 x=0 y=0 z=-1 r=1 theta=3.14159265359 phi=0 purity=1 lin_entropy=0\n"
    "qubit=11 prob1=0 x=0 y=0 z=1 r=1 theta=0 phi=0 purity=1 lin_entropy=0\n"
    "qubit=12 prob1=0 x=0 y=0 z=1 r=1 theta=0 phi=0 purity=1 lin_entropy=0\n"
    "qubit=13 prob1=0.5 x=1 y=0 z=0 r=1 theta=1.57079632679 phi=0 purity=1 lin_entropy=0\n"
    "qubit=14 prob1=0 x=0 y=0 z=1 r=1 theta=0 phi=0 purity=1 lin_entropy=0\n"
    "qubit=15 prob1=0 x=0 y=0 z=1 r=1 theta=0 phi=0 purity=1 lin_entropy=0\n"
    "qubit=16 prob1=0.5 x=1 y=0 z=0 r=1 theta=1.57079632679 phi=0 purity=1 lin_entropy=0\n"
)


@pytest.fixture
def circuit_file(tmp_path):
    def write(text, name="circuit.qc"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert cli._fmt(1 / np.sqrt(2)) == "0.707106781187"

    def test_negative_zero_normalized(self):
        assert cli._fmt(-0.0) == "0"
        assert cli._fmt(-1e-15) == "0"

    def test_tiny_magnitudes_collapse_to_zero(self):
        assert cli._fmt(9.9e-13) == "0"
        assert cli._fmt(2e-12) == "2e-12"

    # both sides of PRINT_EPS, -0.0, and values the rule must leave alone
    EDGES = (1e-12, -1e-12, 9.999999999999e-13, -9.9e-13, -0.0,
             0.5, 1.0, -3.14159265358979, 2.5e-5, 1e-300)

    def test_the_array_rule_prints_as_fmt(self):
        # stats clears its rows as one array, then prints each value with .12g
        want = [cli._fmt(v) for v in self.EDGES]
        assert want[:5] == ["1e-12", "-1e-12", "0", "0", "0"]
        assert [format(v, ".12g") for v in cli._printable(np.array(self.EDGES))] == want
        rows = cli._printable(np.array(self.EDGES).reshape(2, 5))
        assert [format(v, ".12g") for row in rows for v in row] == want

    def test_rows_on_and_off_the_register(self, capsys, circuit_file):
        # wire 1 is the register; its z and linear entropy are roundoff of
        # 1e-16, and wires 0 and 2 stay |0>
        path = circuit_file("qubits 3\nH 1\nT 1\n")
        code, out, err = run_cli(capsys, "stats", path, "--format", "records")
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == [
            "qubit=0 prob1=0 x=0 y=0 z=1 r=1 theta=0 phi=0 purity=1 lin_entropy=0",
            "qubit=1 prob1=0.5 x=0.707106781187 y=0.707106781187 z=0 r=1 "
            "theta=1.57079632679 phi=0.785398163397 purity=1 lin_entropy=0",
        ]
        code, out, err = run_cli(capsys, "stats", path)
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == [
            "qubit  prob1  x               y               z  r  theta          phi             purity  lin_entropy",
            "0      0      0               0               1  1  0              0               1       0",
            "1      0.5    0.707106781187  0.707106781187  0  1  1.57079632679  0.785398163397  1       0",
        ]

    def test_amplitude_rendering(self):
        assert cli._fmt_amplitude(complex(1, 0)) == "1"
        assert cli._fmt_amplitude(complex(0, -0.5)) == "-0.5i"
        assert cli._fmt_amplitude(complex(0.5, 0.5)) == "0.5+0.5i"
        assert cli._fmt_amplitude(complex(0.5, -0.5)) == "0.5-0.5i"
        assert cli._fmt_amplitude(complex(-0.0, 1e-14)) == "0"


class TestSimulate:
    def test_amplitudes_listing(self, capsys, circuit_file):
        code, out, err = run_cli(
            capsys, "simulate", circuit_file(FLIP_PHASE_PAIR)
        )
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "011: -0.707106781187",
            "100: 0.707106781187",
        ]

    def test_probability_listing(self, capsys, circuit_file):
        code, out, _ = run_cli(
            capsys, "simulate", circuit_file(FLIP_PHASE_PAIR), "--probs"
        )
        assert code == 0
        assert out.splitlines() == ["011: 0.5", "100: 0.5"]

    def test_gate_free_circuit_prints_ground_state(self, capsys, circuit_file):
        code, out, _ = run_cli(
            capsys, "simulate", circuit_file("qubits 2\n")
        )
        assert code == 0
        assert out.splitlines() == ["00: 1"]

    def test_help_lists_two_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) == {
            "--help", "--probs", "--branches"
        }

    def test_amplitudes_flag_is_refused(self, capsys, circuit_file):
        # it selected the default and changed nothing; argparse refuses it
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", circuit_file("qubits 1\n"), "--amplitudes"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1].endswith(
            "error: unrecognized arguments: --amplitudes"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, usage", [
        (["simulate", "--amplitudes"], "usage: qwsim simulate [-h] [--probs] [--branches] circuit"),
        (["stats", "--pairs", "0", "1"], "usage: qwsim stats [-h] [--pair I J] [--magic]"),
    ], ids=["simulate", "stats"])
    def test_an_unknown_option_prints_its_subcommands_usage(self, capsys, circuit_file, argv, usage):
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], circuit_file("qubits 1\n"), *argv[1:]])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(usage)
        refused = " ".join(argv[1:])
        assert err.splitlines()[-1] == f"qwsim {argv[0]}: error: unrecognized arguments: {refused}"

    def test_imaginary_amplitudes(self, capsys, circuit_file):
        text = "qubits 1\nH 0\nS 0\n"
        code, out, _ = run_cli(capsys, "simulate", circuit_file(text))
        assert code == 0
        assert out.splitlines() == ["0: 0.707106781187", "1: 0.707106781187i"]

    def test_measurement_circuit_prints_branches(self, capsys, circuit_file):
        code, out, _ = run_cli(capsys, "simulate", circuit_file(BELL_MEASURE))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "measured wires: 0"
        assert lines[1] == "kept wires: 1->0"
        assert "branch 0: p=0.5" in lines
        assert "branch 1: p=0.5" in lines
        assert "  0: 1" in lines
        assert "  1: 1" in lines

    def test_bell_measure_listing_is_pinned(self, capsys):
        path = Path(__file__).resolve().parents[1] / "circuits" / "bell_measure.qc"
        code, out, err = run_cli(capsys, "simulate", str(path))
        want = "measured wires: 0\nkept wires: 1->0\nbranch 0: p=0.5\n  0: 1\nbranch 1: p=0.5\n  1: 1\n"
        assert (code, out, err) == (0, want, "")

    def test_a_comment_ends_at_a_line_end_not_at_a_form_feed(self, capsys, circuit_file):
        code, out, err = run_cli(capsys, "simulate", circuit_file("qubits 1\n# no gate here\fX 0\n"))
        assert (code, out, err) == (0, "0: 1\n", "")

    def test_branches_flag_on_pure_circuit(self, capsys, circuit_file):
        code, out, _ = run_cli(
            capsys, "simulate", circuit_file("qubits 1\nX 0\n"), "--branches"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "measured wires: none"
        assert "branch -: p=1" in lines
        assert "  1: 1" in lines

    @pytest.mark.parametrize(
        "name, flags, lines, digest",
        [
            # the leaves of a walk grown to at most 10 wires, in wire order
            ("measure17.qc", (), 42, "2344347dcad2c0b886e973b55668434daa562d56c59ee4cbffbf8574c9518ae8"),
            # the walk's leaves, in wire order, on stacks of 2**17 amplitudes
            ("measure17all.qc", (), 970, "0df264d4744ddcfb073eb2ebb66ce1acaa556a9c0be8e0a0ae04e15e5146de4c"),
            # a MEASURE-free branch listing whose slots are every wire in wire
            # order, so the listing neither relabels nor sorts
            ("wide17.qc", ("--branches",), 43, "a4a32b6497149722824a94bf2a6815e38139be1e40c18f98a41798ba36e412d7"),
            # MEASURE-free branch listings of registers walked in shuffled
            # first-move order: 17 of 18 wires, and all 16
            ("grow18.qc", ("--branches",), 11, "cf4de3c93790bee7d3151c9835759110167e9098a44f9bec414103ec8bcfc5b2"),
            ("shuffle16.qc", ("--branches", "--probs"), 123, "20cada57f844223750c25683ba9c17983ab2ee1bbe223a02d46057c181ff3b3d"),
            # the measured leaves' probabilities, relabelled to wire order
            ("measure17.qc", ("--probs",), 42, "2368ffc33e4e62b6cb255a6e6e0403503679ad5edfd8cbdf71727fbddd1ad15a"),
        ],
        ids=["measure17", "measure17all", "wide17-branches", "grow18-branches",
             "shuffle16-branches-probs", "measure17-probs"],
    )
    def test_walked_17_qubit_outputs_are_pinned(self, capsys, name, flags, lines, digest):
        path = Path(__file__).resolve().parents[1] / "circuits" / name
        code, out, err = run_cli(capsys, "simulate", str(path), *flags)
        assert (code, err, out.count("\n")) == (0, "", lines)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_listing_threshold(self, capsys, circuit_file, monkeypatch):
        # entries just above and just below 1e-12: |z| for amplitudes, |z|**2
        # for probabilities; a listed amplitude may still print as 0
        edge = np.array(
            [0.8, 1.01e-12, 0.99e-12, 1.01e-6, 0.99e-6j, 0.8e-12 + 0.8e-12j, 0.0, -0.6]
        )
        # the walk's one row, with no outcome record, in place of the H layer's
        no_record = np.zeros((1, 0), dtype=np.intp)
        monkeypatch.setattr(cli, "_walk", lambda low: (no_record, np.ones(1), edge[None], None))
        amplitudes = {0: "0.8", 1: "1.01e-12", 3: "1.01e-06", 4: "9.9e-07i", 5: "0", 7: "-0.6"}
        probs = {0: "0.64", 3: "1.0201e-12", 7: "0.36"}
        for order in ((0, 1, 2), (1, 2, 0)):
            # bit s of a row index is the wire in slot s, the s-th wire moved
            path = circuit_file("qubits 3\n" + "".join(f"H {w}\n" for w in order))

            def listing(entries):
                at = {sum(((k >> s) & 1) << w for s, w in enumerate(order)): v
                      for k, v in entries.items()}
                return [f"{k:03b}: {at[k]}" for k in sorted(at)]

            header = ["measured wires: none", "kept wires: 0->0, 1->1, 2->2", "branch -: p=1"]
            for args, want in (
                ((), listing(amplitudes)),
                (("--probs",), listing(probs)),
                (("--branches",), header + ["  " + line for line in listing(amplitudes)]),
                (("--branches", "--probs"), header + ["  " + line for line in listing(probs)]),
            ):
                code, out, err = run_cli(capsys, "simulate", path, *args)
                assert (code, err) == (0, "")
                assert out.splitlines() == want, (order, args)

    def test_listing_threshold_is_the_scalar_abs(self, capsys):
        # each |z| is within an ulp of 1e-12, where numpy's vector complex abs
        # and the scalar abs(z) round to opposite sides of the threshold
        psi = np.array([
            1.0,
            -9.13017231083978e-13 + 4.0792099203613656e-13j,
            5.372111492017122e-13 + 8.43447793982162e-13j,
            9.861287376072356e-13 - 1.6598226671894655e-13j,
        ])
        cli._print_state(psi[None], 2, False, None, [0, 1])
        listed = [int(line.split(":")[0], 2) for line in capsys.readouterr().out.splitlines()]
        assert listed == [i for i, z in enumerate(psi) if abs(z) >= cli.PRINT_EPS]

    def test_parse_error_exits_nonzero(self, capsys, circuit_file):
        code, out, err = run_cli(
            capsys, "simulate", circuit_file("qubits 2\nFOO 0\n")
        )
        assert code == 1
        assert out == ""
        assert "error: line 2" in err

    def test_missing_file_reports_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", str(tmp_path / "nope.qc"))
        assert code == 1
        assert err.startswith("error:")


class TestStats:
    def test_table_shape_and_values(self, capsys, circuit_file):
        code, out, _ = run_cli(capsys, "stats", circuit_file(MIXED_PAIR))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "qubit", "prob1", "x", "y", "z", "r", "theta", "phi",
            "purity", "lin_entropy",
        ]
        assert len(lines) == 4  # header + one row per qubit
        row0 = lines[1].split()
        assert row0[0] == "0" and row0[1] == "0.5" and row0[8] == "0.5"
        row2 = lines[3].split()
        assert row2[2] == "1"  # |+> points along +x
        assert row2[8] == "1"  # and is pure

    def test_records_format(self, capsys, circuit_file):
        code, out, _ = run_cli(
            capsys, "stats", circuit_file(MIXED_PAIR), "--format", "records"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("qubit=0 prob1=0.5")
        assert "purity=0.5" in lines[0]

    @pytest.mark.parametrize(
        "fmt, rows",
        [
            (
                "table",
                "qubit  prob1  x  y  z  r  theta          phi  purity  lin_entropy\n"
                "0      0.5    0  0  0  0  0              0    0.5     0.5\n"
                "1      0.5    0  0  0  0  0              0    0.5     0.5\n"
                "2      0.5    1  0  0  1  1.57079632679  0    1       0\n",
            ),
            (
                "records",
                "qubit=0 prob1=0.5 x=0 y=0 z=0 r=0 theta=0 phi=0 purity=0.5 lin_entropy=0.5\n"
                "qubit=1 prob1=0.5 x=0 y=0 z=0 r=0 theta=0 phi=0 purity=0.5 lin_entropy=0.5\n"
                "qubit=2 prob1=0.5 x=1 y=0 z=0 r=1 theta=1.57079632679 phi=0 purity=1 "
                "lin_entropy=0\n",
            ),
        ],
    )
    def test_mixed_pair_output_is_pinned(self, capsys, fmt, rows):
        path = Path(__file__).resolve().parents[1] / "circuits" / "mixed_pair.qc"
        code, out, err = run_cli(
            capsys, "stats", str(path), "--pair", "0", "1", "--magic", "--format", fmt
        )
        tail = (
            "pair (0,1): purity=1 lin_entropy=0 concurrence=1 von_neumann=0\n"
            "stabilizer_renyi_2: 0\n"
        )
        assert (code, out, err) == (0, rows + tail, "")

    def test_register_walked_in_shuffled_order(self, capsys, circuit_file):
        # 8 of 10 wires take slots in the order 7, 2, 9, 4, 0, 5, 6, 1, so wire 1
        # holds a higher slot than wire 6: --pair swaps the matrix's two bits,
        # and --magic reads the register as walked
        text = (
            "qubits 10\nH 7\nT 7\nH 2\nCX 7 2\nT 2\nH 9\nSQRTSWAP 9 4 c=2\nT 4\n"
            "H 0\nISWAP 0 5 a=7\nTDG 5\nH 6\nCX 6 1\nS 1\nT 6\n"
        )
        code, out, err = run_cli(
            capsys, "stats", circuit_file(text), "--pair", "1", "6", "--magic",
            "--format", "records",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "stabilizer_renyi_2: 3.4701424596"
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "0c0cadf07c39764c708d1686d16db2790a9374808b8fdefef2d9cc8b6319ec88"

    def test_sliced_circuit_output_is_pinned(self, capsys):
        # 17 qubits, of which 14 leave |0>: a register of 14 wires, run in one piece
        path = Path(__file__).resolve().parents[1] / "circuits" / "slice17.qc"
        code, out, err = run_cli(capsys, "stats", str(path), "--format", "records")
        assert (code, out, err) == (0, SLICE17_RECORDS, "")
        # its amplitudes, read off the 14-wire register at their 17-wire indices
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, err, out.count("\n")) == (0, "", 104)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "df3c7facb860bf31c30884c729ca18559465ece65f862fc4613154dbed1c9a68"

    @pytest.mark.parametrize(
        "pair, line",
        [
            # 4, 5 and 6 are register wires; 8, 11 and 12 never leave |0>
            (("4", "6"), "pair (4,6): purity=0.75 lin_entropy=0.25 concurrence=0 "
                         "von_neumann=0.600876036693"),
            (("4", "5"), "pair (4,5): purity=1 lin_entropy=0 concurrence=0 von_neumann=0"),
            (("8", "7"), "pair (7,8): purity=0.84375 lin_entropy=0.15625 concurrence=0 "
                         "von_neumann=0.421001225112"),
            (("11", "12"), "pair (11,12): purity=1 lin_entropy=0 concurrence=0 von_neumann=0"),
        ],
        ids=["4-6", "4-5", "7-8-one-off", "11-12-both-off"],
    )
    def test_sliced_circuit_pair_lines_are_pinned(self, capsys, pair, line):
        code, out, err = run_cli(capsys, "stats", SLICE17, "--pair", *pair, "--format", "records")
        assert (code, out, err) == (0, f"{SLICE17_RECORDS}{line}\n", "")

    def test_sliced_circuit_probabilities_are_pinned(self, capsys):
        code, out, err = run_cli(capsys, "simulate", SLICE17, "--probs")
        assert (code, err, out.count("\n")) == (0, "", 104)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "5418248a9d32792f1e6ce74f6241c25aa46821149f2b55ce9d2ec379840a49f8"

    def test_wide_circuit_output_digest_is_pinned(self, capsys):
        # every one of 17 wires leaves |0>, so the kernel runs its multi-pass
        # plans slice by slice
        path = Path(__file__).resolve().parents[1] / "circuits" / "wide17.qc"
        code, out, err = run_cli(capsys, "stats", str(path), "--format", "records")
        assert (code, err, out.count("\n")) == (0, "", 17)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "f7b69d8fdf6efc8f0054ab8f35b2d38ec94dd42f1b5676f559f11f4282d51c4e"

    def test_one_partial_trace_per_run(self, capsys, circuit_file, monkeypatch):
        # every wire's row comes from one sweep; only the pair takes a trace
        # stats imports the analysis module when it runs, so the spy goes there
        calls = []
        real = analysis.partial_trace_state
        monkeypatch.setattr(
            analysis, "partial_trace_state", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        path = circuit_file(MIXED_PAIR)
        assert run_cli(capsys, "stats", path)[0] == 0
        assert calls == []
        assert run_cli(capsys, "stats", path, "--pair", "0", "2")[0] == 0
        assert calls == [1]

    def test_one_norm_test_per_run(self, capsys, circuit_file, monkeypatch):
        # the walk tests the register it ends on; the rows read it unchecked.
        # A norm test is check_unit_norms, which check_unit_state calls in
        # linalg and which engine and analysis import by name
        from qwsim import linalg

        calls = []
        real = linalg.check_unit_norms
        for module in (linalg, engine, analysis):
            monkeypatch.setattr(module, "check_unit_norms", lambda *a: calls.append(1) or real(*a))
        path = circuit_file(MIXED_PAIR)
        assert run_cli(capsys, "stats", path, "--format", "records")[0] == 0
        assert calls == [1]

    def test_pair_block(self, capsys, circuit_file):
        code, out, _ = run_cli(
            capsys, "stats", circuit_file(MIXED_PAIR), "--pair", "0", "1"
        )
        assert code == 0
        pair_line = [l for l in out.splitlines() if l.startswith("pair (0,1):")]
        assert pair_line == [
            "pair (0,1): purity=1 lin_entropy=0 concurrence=1 von_neumann=0"
        ]

    def test_pair_order_is_normalized(self, capsys, circuit_file):
        _, out_a, _ = run_cli(
            capsys, "stats", circuit_file(MIXED_PAIR), "--pair", "1", "0"
        )
        assert "pair (0,1):" in out_a

    def test_pair_needs_distinct_wires(self, capsys, circuit_file):
        code, _, err = run_cli(
            capsys, "stats", circuit_file(MIXED_PAIR), "--pair", "1", "1"
        )
        assert code == 1
        assert err == "error: wire 1 is named more than once\n"

    def test_bad_pair_fails_before_any_output(self, capsys, circuit_file):
        path = circuit_file(MIXED_PAIR)
        for pair in (("0", "9"), ("1", "1"), ("-1", "0")):
            code, out, err = run_cli(capsys, "stats", path, "--pair", *pair)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_magic_line(self, capsys, circuit_file):
        code, out, _ = run_cli(
            capsys, "stats", circuit_file("qubits 1\nH 0\nT 0\n"), "--magic"
        )
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("stabilizer_renyi_2:")][0]
        assert line == "stabilizer_renyi_2: 0.415037499279"

    def test_magic_over_the_cap_fails_before_any_output(self, capsys, circuit_file):
        # the cap lives in analysis and bounds the register, here all 11 wires;
        # no stats row may be printed before it
        text = "qubits 11\n" + "".join(f"H {w}\n" for w in range(11))
        code, out, err = run_cli(capsys, "stats", circuit_file(text), "--magic")
        assert (code, out) == (1, "")
        assert err.startswith("error: stabilizer entropy refuses 11 qubits")
        assert err.endswith("; the circuit's gates move 11 of its 11 wires\n")
        assert err.count("\n") == 1

    def test_magic_cap_bounds_the_register_not_the_circuit(self, capsys, circuit_file):
        # M2 adds up over a tensor product and is 0 on |0>, so 10 idle wires
        # change nothing: the value is the 1-qubit circuit's
        code, out, err = run_cli(capsys, "stats", circuit_file("qubits 11\nH 0\nT 0\n"), "--magic")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "stabilizer_renyi_2: 0.415037499279"

    def test_stats_rejects_measurement_circuits(self, capsys, circuit_file):
        code, _, err = run_cli(capsys, "stats", circuit_file(BELL_MEASURE))
        assert code == 1
        assert "measurement" in err

    def test_measurement_error_names_the_op(self, capsys, circuit_file):
        code, out, err = run_cli(capsys, "stats", circuit_file(BELL_MEASURE))
        assert (code, out) == (1, "")
        assert err.startswith("error: op 2 (MEASURE 0) is a measurement")
        assert err.count("\n") == 1


def register_circuit(rng, n: int, used, spread: bool = False) -> str:
    """Random catalog gates, with controls and anticontrols on any wire,
    whose targets are drawn from ``used`` only: every other wire stays |0>.
    With ``spread``, an H on each wire of ``used`` comes first."""
    names = [g for g in gate_names() if gate_def(g).arity <= len(used)]
    lines = [f"qubits {n}", *(f"H {w}" for w in used if spread)]
    for _ in range(int(rng.integers(1, 3 * n)) if used else 3):
        if not used:  # a control that wants 1 on a wire still 0: no plan
            lines.append(f"X {n - 1} c=0")
            continue
        name = names[int(rng.integers(len(names)))]
        targets = [int(w) for w in rng.choice(used, gate_def(name).arity, replace=False)]
        others = [w for w in range(n) if w not in targets]
        controls = [f"{'ca'[int(rng.integers(2))]}={w}" for w in others if rng.random() < 0.1]
        lines.append(" ".join([name, *map(str, targets), *controls]))
    return "\n".join(lines) + "\n"


def scattered_listing(circ, probs: bool, branches: bool) -> str:
    """The ``simulate`` text, built entry by entry from the scattered
    result: the state of every wire from ``run_circuit``, or each leaf of
    ``run_with_branches``, whose bit i is the i-th unmeasured wire."""
    fmt = cli._fmt if probs else cli._fmt_amplitude
    lines = []
    if circ.has_measurements or branches:
        tree = measurement.run_with_branches(circ)
        kept = [w for w in range(circ.n) if tree.wire_map[w] is not None]
        lines += [
            f"measured wires: {' '.join(map(str, tree.measured_wires)) or 'none'}",
            "kept wires: " + (", ".join(f"{w}->{tree.wire_map[w]}" for w in kept) or "none"),
        ]
        leaves = [
            (f"branch {''.join(map(str, leaf.outcomes)) or '-'}: p={cli._fmt(leaf.probability)}",
             leaf.state)
            for leaf in tree.leaves
        ]
        width, indent = len(kept), "  "
    else:
        leaves, width, indent = [(None, engine.run_circuit(circ))], circ.n, ""
    for head, state in leaves:
        if head is not None:
            lines.append(head)
        values = np.abs(state) ** 2 if probs else state
        size = values if probs else np.hypot(state.real, state.imag)
        for k in np.flatnonzero(size >= cli.PRINT_EPS).tolist():
            lines.append(f"{indent}{format(k, f'0{width}b') if width else '(empty)'}: {fmt(values[k])}")
    return "".join(line + "\n" for line in lines)


class TestRegisterReadout:
    """``stats`` and ``simulate`` read a run off the walk's rows, the
    register of the K wires its gates move, and print what they print from
    the scattered state of all n wires, or of the unmeasured wires."""

    def test_register_text_equals_full_state_text(self, capsys, tmp_path, monkeypatch):
        def full_state(circ):
            return engine.run_circuit(circ), list(range(circ.n))

        # the matrix --pair passes on, held to the full state's; its printed
        # statistics are all symmetric in the two wires
        rhos = []
        real_pair_stats = analysis.pair_stats
        monkeypatch.setattr(
            analysis, "pair_stats", lambda rho: rhos.append(rho) or real_pair_stats(rho)
        )
        rng = np.random.default_rng(26)
        seen = Counter()
        for c in range(100):
            n = int(rng.integers(2, 13))
            used = [] if c == 0 else list(range(n)) if c % 4 == 1 else sorted(
                int(w) for w in rng.choice(n, int(rng.integers(1, n)), replace=False)
            )
            text = register_circuit(rng, n, used, spread=c % 4 == 1)
            path = tmp_path / f"c{c}.qc"
            path.write_text(text)
            wire_map = engine.compile_circuit(n, parse_circuit(text).ops)[2]
            on = [w for w in range(n) if wire_map[w] is not None]
            off = [w for w in range(n) if wire_map[w] is None]
            seen["K=0" if not on else "K=n" if not off else "0<K<n"] += 1
            listing = ("simulate", "--probs")[: 1 + c % 2]
            argvs = [listing]
            for pair in (on[-2:], [*on[:1], *off[:1]], off[:2]):
                if len(pair) == 2:
                    seen[f"pair with {len(set(pair) & set(on))} on"] += 1
                    fmt = ("table", "records")[len(argvs) % 2]
                    argvs.append(("stats", "--pair", *map(str, pair[::-1]), "--format", fmt))
            if n <= 8 or n <= 10 and c % 3 == 0:  # a 10-wire table takes ~0.1 s
                seen[f"magic at {n}"] += 1
                argvs[-1] += ("--magic",)
            if c % 4 > 1:  # half the circuits list as a branch too
                argvs.append(listing + ("--branches",))
            for cmd, *rest in argvs:
                rhos.clear()
                got = run_cli(capsys, cmd, str(path), *rest)
                if cmd == "simulate":
                    circ = parse_circuit(text)
                    want = (0, scattered_listing(circ, "--probs" in rest, "--branches" in rest), "")
                else:
                    with monkeypatch.context() as m:
                        m.setattr(cli, "_walk_register", full_state)
                        want = run_cli(capsys, cmd, str(path), *rest)
                assert got == want and got[0] == 0, (text, cmd, rest)
                if rhos:
                    np.testing.assert_allclose(rhos[0], rhos[1], rtol=0, atol=1e-12)
        assert {"K=0", "K=n", "0<K<n", "magic at 10"} <= set(seen), seen
        assert all(seen[f"pair with {k} on"] >= 10 for k in range(3)), seen
        # measured circuits grown in shuffled first-move order: each leaf row
        # prints each slot's bit at its wire's rank among the unmeasured wires
        for c in range(80):
            text = differential.random_text(rng, "shuffled-measured")
            path = tmp_path / f"m{c}.qc"
            path.write_text(text)
            circ = parse_circuit(text)
            _, measured, wire_map = engine.compile_circuit(circ.n, circ.ops)
            kept = [w for w in range(circ.n) if w not in measured]
            wires = sorted((w for w in wire_map if wire_map[w] is not None), key=wire_map.get)
            ranks = [kept.index(w) for w in wires]
            seen["slots out of order"] += ranks != sorted(ranks)
            seen["ranks not wires"] += ranks != wires  # a measured wire below a kept one
            flags = ("--probs", "--branches")
            rest = [f for i, f in enumerate(flags) if c >> i & 1]
            got = run_cli(capsys, "simulate", str(path), *rest)
            want = (0, scattered_listing(circ, "--probs" in rest, "--branches" in rest), "")
            assert got == want, (text, rest)
        assert seen["slots out of order"] >= 40 and seen["ranks not wires"] >= 20, seen

    def test_slice17_is_read_off_its_14_wire_register(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("run_circuit scatters 2**17 amplitudes")

        monkeypatch.setattr(engine, "run_circuit", refuse)
        sizes = []
        for name in ("_qubit_rows", "partial_trace_state"):
            real = getattr(analysis, name)
            monkeypatch.setattr(analysis, name, lambda *a, real=real, name=name, **k: (
                sizes.append((name, max(map(np.size, a)))) or real(*a, **k)
            ))
        code, out, err = run_cli(capsys, "stats", SLICE17, "--pair", "0", "3", "--format", "records")
        assert (code, err, out.startswith(SLICE17_RECORDS)) == (0, "", True)
        assert sorted(sizes) == [("_qubit_rows", 1 << 14), ("partial_trace_state", 1 << 14)]
        code, _, err = run_cli(capsys, "simulate", SLICE17)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "name, lines, simulate, pair, stats, pair_line",
        [
            # all 16 wires, first moved in a shuffled order (K = n)
            ("shuffle16.qc", 120, "b86717f65404e66f2d572552efcd9e8199bc5835428fb02eede82c04ab873162",
             ("3", "12"), "91bdf48ad6d22d1a948f10b379aac7edbfed61c44e1694fb859005d5b1e5f644",
             "pair (3,12): purity=0.3984375 lin_entropy=0.6015625 concurrence=0 "
             "von_neumann=1.55531003962"),
            # 12 of 18 wires, first moved in descending order (K < n)
            ("descend18.qc", 96, "17a3773dca8c26ea89e0f9b60a8a386647a91ec82f5c1e4a0dd6f36e0d052fcf",
             ("13", "4"), "638bfcc4573fe9857f67766cecaf29d9a64add62496c0b9d3d35ca4e71ef5422",
             "pair (4,13): purity=0.4375 lin_entropy=0.5625 concurrence=0 "
             "von_neumann=1.5487949407"),
            # 17 of 18 wires, first moved in a shuffled order: more than 2**16
            # amplitudes, not every wire (17 <= K < n)
            ("grow18.qc", 8, "b03588ec7546a58bddbecffd86979e0f821d04fb9b923b8c763da038d861309a",
             ("14", "3"), "a15670928f2b001e042f5f016aec063dcbc3a0940766c2a572a885d8a5bf9ebf",
             "pair (3,14): purity=0.625 lin_entropy=0.375 concurrence=0 "
             "von_neumann=0.811278124459"),
        ],
        ids=["shuffle16", "descend18", "grow18"],
    )
    def test_first_move_order_outputs_are_pinned(self, capsys, name, lines, simulate, pair, stats, pair_line):
        # the register is walked in first-move order and printed in wire order
        path = str(Path(__file__).resolve().parents[1] / "circuits" / name)
        code, out, err = run_cli(capsys, "simulate", path)
        assert (code, err, out.count("\n")) == (0, "", lines)
        assert hashlib.sha256(out.encode()).hexdigest() == simulate
        code, out, err = run_cli(capsys, "stats", path, "--pair", *pair, "--format", "records")
        assert (code, err, out.splitlines()[-1]) == (0, "", pair_line)
        assert hashlib.sha256(out.encode()).hexdigest() == stats


    def test_a_dense_register_lists_in_bounded_memory(self, tmp_path):
        # an H on 15 of 16 wires lists all 2**15 register entries; the text
        # goes out in chunks, so the peak is the walked row, the listing's
        # arrays and one chunk's text: measured 3.88 states of 2**15
        # amplitudes, against 8.01 when every line was built before any print.
        # The same listed as a branch, and measured twice, read the walk's
        # rows too: 3.86 and 3.33 states, against 7.36 and 6.83 when the
        # leaves were scattered into wire order and stacked again.
        order = (9, 3, 14, 0, 7, 12, 5, 1, 10, 2, 8, 13, 6, 11, 4)
        layer = "qubits 16\n" + "".join(f"H {w}\n" for w in order) + "T 3\nCX 3 7\n"
        warm = tmp_path / "h1.qc"  # imports and builds the parser, untraced
        warm.write_text("qubits 1\nH 0\n")
        writes = []

        class Sink:  # keeps each write's line count, not its text
            def write(self, text):
                writes.append(text.count("\n"))
                return len(text)

            def flush(self):
                pass

        for text, flags, lines in (
            (layer, (), 1 << 15),
            # 3 head lines, then every entry of the one branch
            (layer, ("--branches",), 3 + (1 << 15)),
            # 2 head lines, then 4 branches of 2**12 entries: wire 0 is back
            # to |0>, and wires 3 and 5 are measured away
            (layer + "MEASURE 3\nH 0\nMEASURE 5\n", (), 2 + 4 * (1 + (1 << 12))),
        ):
            path = tmp_path / "h15.qc"
            path.write_text(text)
            with contextlib.redirect_stdout(Sink()):
                cli.main(["simulate", str(warm), "--probs"])
                writes.clear()
                tracemalloc.start()
                try:
                    assert cli.main(["simulate", str(path), "--probs", *flags]) == 0
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert sum(writes) == lines and max(writes) <= cli._CHUNK, flags
            assert peak < 4.75 * (16 << 15), (flags, peak / (16 << 15))


class TestSample:
    def test_histogram_is_deterministic_per_seed(self, capsys, circuit_file):
        path = circuit_file(BELL_MEASURE)
        code, out_a, _ = run_cli(capsys, "sample", path, "--shots", "200", "--seed", "11")
        _, out_b, _ = run_cli(capsys, "sample", path, "--shots", "200", "--seed", "11")
        assert code == 0
        assert out_a == out_b
        counts = dict(line.split(": ") for line in out_a.splitlines())
        assert sum(int(v) for v in counts.values()) == 200
        assert set(counts) <= {"0", "1"}

    def test_bell_measure_histogram_is_pinned(self, capsys):
        # a fixed seed keeps its histogram across changes to the sampler
        path = Path(__file__).resolve().parents[1] / "circuits" / "bell_measure.qc"
        code, out, err = run_cli(capsys, "sample", str(path), "--shots", "1000", "--seed", "7")
        assert (code, out, err) == (0, "0: 498\n1: 502\n", "")

    def test_measured_17_qubit_histogram_is_pinned(self, capsys):
        # a walk grown to at most 10 of the 17 wires
        path = Path(__file__).resolve().parents[1] / "circuits" / "measure17.qc"
        code, out, err = run_cli(capsys, "sample", str(path), "--shots", "1000", "--seed", "7")
        want = "000: 212\n001: 225\n010: 210\n011: 220\n100: 37\n101: 32\n110: 36\n111: 28\n"
        assert (code, out, err) == (0, want, "")

    def test_measured_17_qubit_wire_order_histogram_is_pinned(self, capsys):
        # every wire moves, so the walk keeps wire order on stacks of 2**17
        # amplitudes, the big-state way
        path = Path(__file__).resolve().parents[1] / "circuits" / "measure17all.qc"
        code, out, err = run_cli(capsys, "sample", str(path), "--shots", "1000", "--seed", "7")
        want = "000: 325\n001: 337\n010: 97\n011: 108\n100: 54\n101: 48\n110: 19\n111: 12\n"
        assert (code, out, err) == (0, want, "")

    def test_measured_10_qubit_outputs_are_pinned(self, capsys):
        # every plan runs in one piece, with controls, anticontrols and 2-qubit
        # gates whose lowest named wire is each of 0..9
        path = str(Path(__file__).resolve().parents[1] / "circuits" / "sample10.qc")
        code, out, err = run_cli(capsys, "sample", path, "--shots", "1000", "--seed", "7")
        want = "000: 131\n001: 137\n010: 109\n011: 126\n100: 118\n101: 120\n110: 137\n111: 122\n"
        assert (code, out, err) == (0, want, "")
        # three chunks of shots (16384 + 16384 + 7232), each from its own start
        code, out, err = run_cli(capsys, "sample", path, "--shots", "40000", "--seed", "7")
        assert (code, err, out.count("\n")) == (0, "", 8)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "68265740d0624e38e96561f7892562ae252ee58ff24f0f92fe3f0d7af566d69d"
        code, out, err = run_cli(capsys, "simulate", path)
        assert (code, err, out.count("\n")) == (0, "", 278)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "44558024574adc4c864f6eb1b0eb6069aab4b76c7019721b846ad827c3e86f65"

    def test_fresh_wire_outputs_are_pinned(self, capsys):
        # texts that a run which takes no wire as still in |0> prints too:
        # diagonal, controlled and swap gates on never-touched wires, an
        # anticontrol on one, and a MEASURE on a never-touched and on a
        # touched wire
        path = str(Path(__file__).resolve().parents[1] / "circuits" / "fresh12.qc")
        code, out, err = run_cli(capsys, "sample", path, "--shots", "1000", "--seed", "7")
        assert (code, out, err) == (0, "00: 497\n01: 503\n", "")
        code, out, err = run_cli(capsys, "simulate", path)
        assert (code, err, out.count("\n")) == (0, "", 31)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "61aa4df6d2b76a0503798d88f68d498d5012b5067aade8b2f9af128d709a7211"

    def test_no_measurement_is_an_error(self, capsys, circuit_file):
        code, _, err = run_cli(
            capsys, "sample", circuit_file("qubits 1\nH 0\n"), "--shots", "10"
        )
        assert code == 1
        assert "MEASURE" in err

    def test_huge_control_wire_is_one_error_line(self, capsys, circuit_file):
        code, out, err = run_cli(capsys, "simulate", circuit_file("qubits 2\nX 0 c=99999999999\n"))
        assert (code, out) == (1, "")
        assert err == "error: line 2: control wire 99999999999 is outside 0..25\n"

    def test_negative_seed_is_one_error_line(self, capsys, circuit_file):
        code, out, err = run_cli(
            capsys, "sample", circuit_file(BELL_MEASURE), "--shots", "5", "--seed", "-1"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err

    def test_zero_shots_is_one_error_line(self, capsys):
        path = Path(__file__).resolve().parents[1] / "circuits" / "bell_measure.qc"
        code, out, err = run_cli(capsys, "sample", str(path), "--shots", "0")
        assert (code, out, err) == (1, "", "error: shots must be at least 1, got 0\n")


class TestBadInput:
    def test_non_utf8_file_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.qc"
        path.write_bytes("qubits 1\n# caf\u00e9\nH 0\n".encode("latin-1"))
        for command in ("simulate", "stats"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 1 and out == ""
            assert err.startswith("error: line 2: ") and err.count("\n") == 1
            assert "UTF-8" in err


    @pytest.mark.parametrize("line", ["X 0 c=0", "H 26", "CX 0", "H 5", "\u017fwap 0 1", "SWAP 1 1"])
    def test_a_refused_gate_line_is_one_error_line(self, capsys, circuit_file, line):
        code, out, err = run_cli(capsys, "simulate", circuit_file(f"qubits 2\n{line}\n"))
        assert code == 1 and out == ""
        assert err.startswith("error: line 2: ") and err.count("\n") == 1

    def test_a_gate_on_a_measured_wire_names_its_line(self, capsys, circuit_file):
        code, out, err = run_cli(capsys, "simulate", circuit_file("qubits 2\nMEASURE 0\nX 0\n"))
        assert code == 1 and out == ""
        assert err.startswith("error: line 3: ") and err.count("\n") == 1

    def test_both_ways_of_reading_a_wire_print_the_pinned_state(self, capsys, circuit_file):
        # wires from the wire table and read digit by digit (003, 02); names in
        # any case, sugar, a comment and a trailing ';'
        text = (
            "qubits 4\nh 0 ; h 2 ; cx 0 1\nCCX 0 1 3 ; cswap 2 0 3   # sugar\ny 003 a=1\n"
            "sdg 2 c=0 A=3\nsqrtswap 1 3 C=0\nISWAP 02 0 a=1\nt 3;\n"
        )
        code, out, _ = run_cli(capsys, "simulate", circuit_file(text))
        assert code == 0 and out.count("\n") == 4
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "5356a8c6788fb3a041597880c17de30d1b563c21aefaf2daf07b9a8555920d8d"

    def test_an_interrupt_is_one_error_line(self, capsys, monkeypatch):
        # Ctrl-C during a long sample stops it without a traceback
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(measurement, "sample_shots", interrupted)
        path = Path(__file__).resolve().parents[1] / "circuits" / "bell_measure.qc"
        code, out, err = run_cli(capsys, "sample", str(path), "--shots", "10")
        assert (code, out, err) == (130, "", "error: interrupted\n")


class TestMemos:
    def test_sample_then_simulate_print_what_each_prints_cold(self, capsys):
        # the second command of a process finds every chunk in the memo, and
        # shares the first one's plans; each prints what it prints alone
        path = str(Path(__file__).resolve().parents[1] / "circuits" / "sample10.qc")
        commands = (("sample", path, "--shots", "1000", "--seed", "7"), ("simulate", path))
        cold = []
        for argv in commands:
            circuit._chunk_op.cache_clear()
            engine._placed.cache_clear()
            cold.append(run_cli(capsys, *argv))
        warm = [run_cli(capsys, *commands[0])]
        misses = circuit._chunk_op.cache_info().misses
        warm.append(run_cli(capsys, *commands[1]))
        assert circuit._chunk_op.cache_info().misses == misses
        assert warm == cold


class TestDifferential:
    def test_twenty_circuits_digest_alike_twice_in_one_process(self, capsys, tmp_path):
        # the first pass starts from empty memos, the second finds every
        # chunk and plan in them
        circuit._chunk_op.cache_clear()
        engine._placed.cache_clear()
        first = differential.digests(20, seed=3, files=False)
        assert differential.digests(20, seed=3, files=False) == first
        # each circuit's text, 4 simulate texts, 3 stats texts, sample and 3 results' bits
        assert len(first) == 20 * 12
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(first))
        text = "random/7-measured | simulate --branches"
        bits = "random/7-measured | run_with_branches bits"
        new.write_text(json.dumps({**first, text: "0" * 64, bits: "0" * 64}))
        assert differential.main(["--diff", str(old), str(old)]) == 0
        summary = "240 and 240 entries, {} text and {} bits changed, 0 in one file only"
        assert capsys.readouterr().out == summary.format(0, 0) + "\n"
        assert differential.main(["--diff", str(old), str(new)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"changed: {bits}", f"changed: {text}", summary.format(1, 1)
        ]

    def test_a_base_run_against_this_tree_changes_nothing(self, capsys):
        # this tree twice, each time in a child process under the same
        # environment, which need not be the one this process started under:
        # collecting perfbench sets the BLAS thread variables to 1
        root = Path(__file__).resolve().parents[1]
        assert differential.main(["--base", str(root), "--random", "5"]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"(\d+) and \1 entries, 0 text and 0 bits changed, 0 in one file only\n", out), out


class TestParserReuse:
    def test_main_builds_its_parser_at_most_once(self, capsys, circuit_file, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            path = circuit_file(MIXED_PAIR)
            assert run_cli(capsys, "simulate", path, "--probs")[0] == 0
            assert run_cli(capsys, "stats", path, "--pair", "0", "1")[0] == 0
            assert len(built) <= 1
        finally:
            cli._parser.cache_clear()


_TOP_USAGE = "usage: qwsim [-h] {simulate,stats,sample} ...\n"
_STATS_USAGE = (
    "usage: qwsim stats [-h] [--pair I J] [--magic] [--format {table,records}]\n"
    "                   circuit\n"
)
# newer argparse prints the choices without quotes
_CHOICES = r"\(choose from '?simulate'?, '?stats'?, '?sample'?\)"


class TestDispatch:
    """What ``main`` prints for argument lists that argparse answers itself,
    with a subcommand named first, none, or an option first."""

    @pytest.mark.parametrize("argv, code, out, err", [
        ([], 2, "", _TOP_USAGE + "qwsim: error: the following arguments are required: command\n"),
        (["-h"], 0, _TOP_USAGE + (
            "\nState-vector quantum circuit simulator.\n\n"
            "positional arguments:\n"
            "  {simulate,stats,sample}\n"
            "    simulate            run a circuit file and print the state\n"
            "    stats               per-qubit statistics of the final state\n"
            "    sample              sample measurement records\n\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ), ""),
        (["bogus", "x.qc"], 2, "", re.escape(_TOP_USAGE)
         + "qwsim: error: argument command: invalid choice: 'bogus' " + _CHOICES + "\n"),
        (["stats"], 2, "", _STATS_USAGE + "qwsim stats: error: the following arguments are required: circuit\n"),
        (["stats", "-h"], 0, _STATS_USAGE + (
            "\npositional arguments:\n"
            "  circuit               path to a circuit file\n\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --pair I J            also report two-qubit statistics for wires I and J\n"
            "  --magic               also report the order-2 stabilizer Renyi entropy\n"
            "  --format {table,records}\n"
        ), ""),
        (["sample", "x.qc"], 2, "", "usage: qwsim sample [-h] --shots SHOTS [--seed SEED] circuit\n"
         "qwsim sample: error: the following arguments are required: --shots\n"),
        (["stats", "x.qc", "--pair", "1"], 2, "", _STATS_USAGE + "qwsim stats: error: argument --pair: expected 2 arguments\n"),
        (["--pair", "1", "2", "stats", "x.qc"], 2, "", re.escape(_TOP_USAGE)
         + "qwsim: error: argument command: invalid choice: '1' " + _CHOICES + "\n"),
        (["simulate", "x.qc", "--amplitudes"], 2, "", "usage: qwsim simulate [-h] [--probs] [--branches] circuit\n"
         "qwsim simulate: error: unrecognized arguments: --amplitudes\n"),
        (["--probs", "simulate", "x.qc"], 2, "", _TOP_USAGE + "qwsim: error: unrecognized arguments: --probs\n"),
    ], ids=["none", "help", "bogus", "stats", "stats-help", "sample-no-shots", "one-pair-wire",
            "option-first", "amplitudes", "unknown-option-first"])
    def test_argparse_answers_are_pinned(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help at the terminal width
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        got_out, got_err = capsys.readouterr()
        assert (exc.value.code, got_out) == (code, out)
        if "invalid choice" in err:
            assert re.fullmatch(err, got_err), got_err
        else:
            assert got_err == err
