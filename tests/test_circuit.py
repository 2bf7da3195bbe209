import numpy as np
import pytest

from qwsim import circuit as circ_mod
from qwsim import engine, gates, linalg
from qwsim.circuit import Circuit, GateOp, format_circuit, parse_circuit, random_circuit
from qwsim.engine import ControlSpec
from qwsim.errors import ContractError, ParseError, ResourceError


class TestGateOp:
    def test_normalizes_name_case(self):
        op = GateOp("h", (0,))
        assert op.gate == "H"

    def test_arity_mismatch(self):
        with pytest.raises(ContractError):
            GateOp("H", (0, 1))
        with pytest.raises(ContractError):
            GateOp("SWAP", (0,))

    def test_control_target_overlap(self):
        with pytest.raises(ContractError):
            GateOp("X", (0,), ControlSpec(((0, True),)))

    def test_measure_shape(self):
        with pytest.raises(ContractError):
            GateOp("MEASURE", (0, 1))
        with pytest.raises(ContractError):
            GateOp("MEASURE", (0,), ControlSpec(((1, True),)))

    def test_circuit_rejects_out_of_range_wires(self):
        with pytest.raises(ContractError):
            Circuit(2, (GateOp("X", (2,)),))
        with pytest.raises(ContractError):
            Circuit(2, (GateOp("X", (0,), ControlSpec(((5, True),))),))

    def test_circuit_rejects_negative_target(self):
        with pytest.raises(ContractError):
            Circuit(2, (GateOp("X", (-1,)),))

    def test_over_cap_circuit_raises_resource_error(self):
        with pytest.raises(ResourceError):
            Circuit(linalg.MAX_QUBITS + 1)


class TestParser:
    def test_simple_program(self):
        circ = parse_circuit("qubits 2\nH 0\nCX 0 1\n")
        assert circ.n == 2
        assert [op.gate for op in circ.ops] == ["H", "X"]
        assert circ.ops[1].controls.entries == ((0, True),)
        assert circ.ops[1].targets == (1,)

    def test_layer_splitting_preserves_order(self):
        circ = parse_circuit("qubits 3\nH 1 ; X 2\nZ 0\n")
        assert [(op.gate, op.targets) for op in circ.ops] == [
            ("H", (1,)), ("X", (2,)), ("Z", (0,))
        ]

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\nqubits 1   # inline\n\nH 0  # gate\n#tail\n"
        circ = parse_circuit(text)
        assert circ.n == 1
        assert len(circ.ops) == 1

    def test_case_insensitive(self):
        circ = parse_circuit("QUBITS 2\nh 0\ncx 0 1\nMeAsUrE 1\n")
        assert [op.gate for op in circ.ops] == ["H", "X", "MEASURE"]

    def test_control_anticontrol_tokens(self):
        circ = parse_circuit("qubits 3\nX 0 c=1 a=2\n")
        assert circ.ops[0].controls.entries == ((1, True), (2, False))

    def test_sugar_matches_explicit_forms(self):
        sugar = parse_circuit("qubits 3\nCX 0 1\nCCX 0 1 2\nCSWAP 0 1 2\n")
        explicit = parse_circuit(
            "qubits 3\nX 1 c=0\nX 2 c=0 c=1\nSWAP 1 2 c=0\n"
        )
        assert sugar.ops == explicit.ops

    def test_trailing_semicolons_tolerated(self):
        circ = parse_circuit("qubits 1\nH 0 ;\n")
        assert len(circ.ops) == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("H 0\n", "header"),
            ("qubits\nH 0\n", "header"),
            ("qubits two\n", "not an integer"),
            ("qubits 0\n", "qubit count"),
            ("qubits 2\nFOO 0\n", "unknown gate"),
            ("qubits 2\nH 5\n", "out of range"),
            ("qubits 2\nH 0 1\n", "takes 1 wire"),
            ("qubits 2\nSWAP 1 1\n", "duplicate"),
            ("qubits 2\nX 0 c=0\n", "control"),
            ("qubits 2\nX 0 c=1 a=1\n", "more than once"),
            ("qubits 2\nMEASURE 0 c=1\n", "MEASURE"),
            ("qubits 2\nCX 0\n", "takes 2 wires"),
            ("qubits 2\nX zero\n", "not an integer"),
            # wires and qubit counts are ASCII digits only
            ("qubits 2\nH 1_0\n", "not an integer"),
            ("qubits 2\nH +1\n", "not an integer"),
            ("qubits 2\nH \u0661\n", "not an integer"),
            ("qubits 2\nX 0 c=+1\n", "not an integer"),
            ("qubits +2\nH 0\n", "not an integer"),
            ("qubits 2\nH -1\n", "not an integer"),
            ("qubits 2\nH " + "9" * 5000 + "\n", "not an integer"),
            # a control wire past the qubit cap is refused before it becomes a bit mask
            ("qubits 2\nX 0 c=99999999999\n", "control wire 99999999999 is outside 0..25"),
            ("qubits 2\nX 0 a=1000000000000000000\n", "is outside 0..25"),
            ("qubits 2\nX 0 c=" + "9" * 4000 + "\n", "is outside 0..25"),
            ("qubits 27\n", "27 qubits need 2 GiB"),
        ],
    )
    def test_rejects_malformed_programs(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert fragment in str(err.value)

    def test_checks_of_gateop_and_circuit_name_the_line(self):
        # the parser leaves wire range, arity and MEASURE shape to GateOp
        # and Circuit, and reports their errors against the line
        for text, message in [
            ("qubits 2\nH 0\nX 9\n", "line 3: X 9 touches wire 9, out of range for 2 qubits"),
            ("qubits 2\nH 0\n\nH 0 1\n", "line 4: H takes 1 wire(s), got 2"),
            ("qubits 2\nMEASURE 0 1\n", "line 2: MEASURE takes exactly one wire"),
            ("qubits 2\nH 0 ; foo 1\n", "line 2: unknown gate 'FOO'"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_circuit(text)
            assert str(err.value) == message

    def test_wire_range_is_checked_after_every_line_is_read(self):
        # the range check runs once, over the whole circuit, and still names
        # the line of the first op out of range
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 2\nH 0 ; X 1 c=0\nX 0 c=7\nH 9\n")
        assert str(err.value) == "line 3: X 0 c=7 touches wire 7, out of range for 2 qubits"

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 2\nH 0\nX 9\n")
        assert err.value.line_no == 3
        assert "line 3" in str(err.value)

    def test_missing_header_reported(self):
        with pytest.raises(ParseError):
            parse_circuit("# only comments\n")

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse_circuit("")


class TestFormatter:
    def test_round_trip_simple(self):
        text = "qubits 3\nH 1\nX 2\nX 0 c=1\nZ 0\nX 2 c=1\n"
        circ = parse_circuit(text)
        assert format_circuit(circ) == text
        assert parse_circuit(format_circuit(circ)) == circ

    def test_round_trip_random_circuits(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            circ = random_circuit(n, 10, rng)
            again = parse_circuit(format_circuit(circ))
            assert again == circ

    def test_round_trip_preserves_anticontrols(self):
        circ = parse_circuit("qubits 3\nSWAP 0 2 a=1\nMEASURE 1\n")
        printed = format_circuit(circ)
        assert "a=1" in printed
        assert parse_circuit(printed) == circ


class TestRandomCircuit:
    def test_seeded_generation_is_reproducible(self):
        a = random_circuit(4, 20, np.random.default_rng(7))
        b = random_circuit(4, 20, np.random.default_rng(7))
        assert a == b

    def test_depth_and_register_size(self):
        circ = random_circuit(5, 30, np.random.default_rng(1))
        assert circ.n == 5
        assert len(circ.ops) == 30
        assert not circ.has_measurements

    def test_single_qubit_only_mode(self):
        circ = random_circuit(6, 50, np.random.default_rng(2), single_qubit_only=True)
        for op in circ.ops:
            assert gates.gate_def(op.gate).arity == 1
            assert op.controls.entries == ()

    def test_generated_circuits_simulate(self):
        rng = np.random.default_rng(3)
        circ = random_circuit(3, 25, rng)
        psi = engine.run_circuit(circ)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-10

    def test_single_wire_register(self):
        circ = random_circuit(1, 10, np.random.default_rng(4))
        assert all(op.targets == (0,) for op in circ.ops)

    def test_checks_its_count_and_depth(self):
        # each used to escape from numpy as a bare ValueError or TypeError
        rng = np.random.default_rng(5)
        for n, depth in ((0, 3), (-1, 3), (2.5, 3), ("2", 3), (2, 2.5), (2, -1)):
            with pytest.raises(ContractError):
                random_circuit(n, depth, rng)
        with pytest.raises(ResourceError):
            random_circuit(linalg.MAX_QUBITS + 1, 1, rng)
        assert random_circuit(np.int64(2), np.int32(3), rng).n == 2


class TestLoadCircuit:
    def test_loads_from_file(self, tmp_path):
        path = tmp_path / "c.qc"
        path.write_text("qubits 1\nH 0\n", encoding="utf-8")
        circ = circ_mod.load_circuit(path)
        assert circ.n == 1

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "c.qc"
        path.write_bytes(b"\xef\xbb\xbfqubits 2\nH 0\nCX 0 1\n")
        assert circ_mod.load_circuit(path) == parse_circuit("qubits 2\nH 0\nCX 0 1\n")

    def test_only_one_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "c.qc"
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfqubits 2\n")
        with pytest.raises(ParseError, match="header"):
            circ_mod.load_circuit(path)

    def test_non_utf8_after_bom_names_the_line(self, tmp_path):
        path = tmp_path / "c.qc"
        path.write_bytes(b"\xef\xbb\xbfqubits 2\nH 0\nX 1 \xff\n")
        with pytest.raises(ParseError) as info:
            circ_mod.load_circuit(path)
        assert info.value.line_no == 3

    def test_non_utf8_file_names_the_line(self, tmp_path):
        path = tmp_path / "c.qc"
        path.write_bytes(b"qubits 2\nH 0\nX 1 \xff\n")
        with pytest.raises(ParseError, match="line 3") as info:
            circ_mod.load_circuit(path)
        assert info.value.line_no == 3
