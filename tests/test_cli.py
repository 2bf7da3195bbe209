from pathlib import Path

import numpy as np
import pytest

from qwsim import cli

FLIP_PHASE_PAIR = "qubits 3\nH 1 ; X 2\nCX 1 0\nZ 0\nCX 1 2\n"
MIXED_PAIR = "qubits 3\nH 0\nCX 0 1\nH 2\n"
BELL_MEASURE = "qubits 2\nH 0\nCX 0 1\nMEASURE 0\n"


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
            capsys, "simulate", circuit_file("qubits 2\n"), "--amplitudes"
        )
        assert code == 0
        assert out.splitlines() == ["00: 1"]

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

    def test_branches_flag_on_pure_circuit(self, capsys, circuit_file):
        code, out, _ = run_cli(
            capsys, "simulate", circuit_file("qubits 1\nX 0\n"), "--branches"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "measured wires: none"
        assert "branch -: p=1" in lines
        assert "  1: 1" in lines

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
        assert "distinct" in err

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

    def test_stats_rejects_measurement_circuits(self, capsys, circuit_file):
        code, _, err = run_cli(capsys, "stats", circuit_file(BELL_MEASURE))
        assert code == 1
        assert "measurement" in err

    def test_measurement_error_names_the_op(self, capsys, circuit_file):
        code, out, err = run_cli(capsys, "stats", circuit_file(BELL_MEASURE))
        assert (code, out) == (1, "")
        assert err.startswith("error: op 2 (MEASURE 0) is a measurement")
        assert err.count("\n") == 1


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


class TestBadInput:
    def test_non_utf8_file_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.qc"
        path.write_bytes("qubits 1\n# caf\u00e9\nH 0\n".encode("latin-1"))
        for command in ("simulate", "stats"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 1 and out == ""
            assert err.startswith("error: line 2: ") and err.count("\n") == 1
            assert "UTF-8" in err


class TestBench:
    def test_bench_reports_timing_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--qubits", "6", "--depth", "10", "--seed", "3"
        )
        assert code == 0
        assert out.startswith("method=qubitwise qubits=6 depth=10 seconds=")

    def test_bench_naive_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--qubits", "4", "--depth", "5", "--method", "naive"
        )
        assert code == 0
        assert out.startswith("method=naive qubits=4 depth=5")

    def test_bench_naive_respects_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--qubits", "14", "--depth", "2", "--method", "naive"
        )
        assert code == 1
        assert "guard" in err

    def test_bench_trace_both_methods(self, capsys):
        for method in ("statevector", "matrix"):
            code, out, _ = run_cli(
                capsys,
                "bench-trace", "--qubits", "6", "--keep", "2", "--method", method,
            )
            assert code == 0
            assert out.startswith(f"method={method} qubits=6 keep=2")

    def test_bench_trace_keep_bounds(self, capsys):
        code, _, err = run_cli(
            capsys, "bench-trace", "--qubits", "4", "--keep", "4"
        )
        assert code == 1
        assert "--keep" in err

    @pytest.mark.parametrize("qubits", ["0", "-2"])
    def test_bench_bad_qubit_count_is_one_error_line(self, capsys, qubits):
        code, out, err = run_cli(capsys, "bench", "--qubits", qubits)
        assert code == 1 and out == ""
        assert err == f"error: qubit count must be at least 1, got {int(qubits)}\n"

    def test_bench_negative_seed_is_one_error_line(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--qubits", "2", "--seed", "-3")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


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
