import contextlib
import json
import os
from pathlib import Path

import numpy as np
import parse_refusals
import pytest

from qwsim import circuit as circ_mod
from qwsim import engine, gates, linalg
from qwsim.circuit import Circuit, GateOp, format_circuit, parse_circuit, random_circuit
from qwsim.circuit import NO_CONTROLS, ControlSpec, swap_bits
from qwsim.errors import CatalogError, ContractError, ParseError, ResourceError

CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"


class TestControlSpec:
    def test_masks(self):
        spec = ControlSpec(((0, True), (3, False), (2, True)))
        assert spec.inclusion_mask == 0b1101
        assert spec.desired_value_mask == 0b0101
        assert spec.passes(0b0101)
        assert spec.passes(0b0111)  # untested bit may be anything
        assert not spec.passes(0b1101)
        assert not spec.passes(0b0100)

    @pytest.mark.parametrize("bad", ["x", 1.5, -1, True])
    def test_passes_checks_its_index(self, bad):
        # "x" and 1.5 raised a bare TypeError, and -1 passed every spec
        spec = ControlSpec(((0, False),))
        with pytest.raises(ContractError, match="^index must be"):
            spec.passes(bad)
        assert spec.passes(np.int64(2)) and not spec.passes(3)

    def test_empty_spec_passes_everything(self):
        assert NO_CONTROLS.inclusion_mask == 0
        assert all(NO_CONTROLS.passes(k) for k in range(16))

    def test_duplicate_wire_rejected(self):
        with pytest.raises(ContractError):
            ControlSpec(((1, True), (1, True)))
        with pytest.raises(ContractError):
            ControlSpec(((1, True), (1, False)))

    def test_negative_wire_rejected(self):
        with pytest.raises(ContractError):
            ControlSpec(((-1, True),))

    def test_wire_past_the_qubit_cap_rejected(self):
        assert ControlSpec(((linalg.MAX_QUBITS - 1, True),)).inclusion_mask == 1 << 25
        for wire in (linalg.MAX_QUBITS, 10**18, 10**4000):
            with pytest.raises(ContractError, match="is outside 0..25"):
                ControlSpec(((wire, False),))

    def test_wires_are_derived_once_and_change_no_comparison(self):
        spec = ControlSpec(((0, True), (3, False)))
        assert spec.wires == (0, 3)
        assert spec.wires is spec.wires
        assert NO_CONTROLS.wires == ()
        assert spec == ControlSpec([(0, 1), (3, 0)])
        assert spec != ControlSpec(((3, False), (0, True)))
        assert hash(spec) == hash((((0, True), (3, False)), 0b1001, 0b0001))
        assert repr(spec) == (
            "ControlSpec(entries=((0, True), (3, False)), "
            "inclusion_mask=9, desired_value_mask=1)"
        )


class TestSwapBits:
    @pytest.mark.parametrize(
        "k,i,j,expected",
        [(14, 0, 3, 7), (10, 0, 3, 3), (13, 1, 2, 11), (10, 1, 2, 12)],
    )
    def test_worked_pairs(self, k, i, j, expected):
        assert swap_bits(k, i, j) == expected

    def test_equal_bits_are_fixed_points(self):
        assert swap_bits(0b1001, 0, 3) == 0b1001
        assert swap_bits(0b0110, 0, 3) == 0b0110

    def test_involution_and_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1 << 10))
            i, j = rng.choice(10, size=2, replace=False)
            once = swap_bits(k, int(i), int(j))
            assert swap_bits(once, int(i), int(j)) == k
            assert swap_bits(k, int(j), int(i)) == once

    def test_matches_arithmetic_shuffle(self):
        for k in range(64):
            for i in range(6):
                for j in range(6):
                    bi = (k >> i) & 1
                    bj = (k >> j) & 1
                    rebuilt = k & ~(1 << i) & ~(1 << j) | (bj << i) | (bi << j)
                    assert swap_bits(k, i, j) == rebuilt

    def test_arguments_must_be_integers(self):
        # a float used to escape as a bare TypeError from the shift
        for args in ((3, 1.5, 0), (3, 0, "1"), (3.0, 0, 1), (True, 0, 1)):
            with pytest.raises(ContractError, match="must be an integer"):
                swap_bits(*args)
        assert swap_bits(np.int64(2), np.int32(1), np.uint8(0)) == 1


class TestGateOp:
    def test_normalizes_name_case(self):
        op = GateOp("h", (0,))
        assert op.gate == "H"

    @pytest.mark.parametrize("name", ["\u017fwap", "\u0131", "c\u017fwap", "mea\u017fure"])
    def test_a_name_is_read_as_ascii_only(self, name):
        with pytest.raises(CatalogError, match="unknown gate"):
            GateOp(name, (0, 1) if "wap" in name else (0,))

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

    def test_out_of_range_refusal_names_the_op(self):
        with pytest.raises(ContractError) as err:
            Circuit(2, (GateOp("X", (0,)), GateOp("X", (5,))))
        assert str(err.value) == "op 1 (X 5) touches wire 5, out of range for 2 qubits"
        assert err.value.op_index == 1

    def test_circuit_rejects_negative_target(self):
        with pytest.raises(ContractError):
            Circuit(2, (GateOp("X", (-1,)),))

    def test_circuit_rejects_ops_that_are_not_gate_ops(self):
        for ops, message in [
            (5, "ops must be a sequence of GateOp, got 5"),
            (None, "ops must be a sequence of GateOp, got None"),
            (["H 0"], "op 0 is 'H 0', not a GateOp"),
            ((GateOp("H", (0,)), ("X", 1)), "op 1 is ('X', 1), not a GateOp"),
        ]:
            with pytest.raises(ContractError) as err:
                Circuit(2, ops)
            assert str(err.value) == message

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
            # a target past the qubit cap is refused by GateOp, as a control wire is
            ("qubits 2\nH 30\n", "line 2: wire 30 is outside 0..25"),
            ("qubits 2\nH 0 1\n", "takes 1 wire"),
            ("qubits 2\nSWAP 1 1\n", "line 2: wire 1 is named more than once"),
            ("qubits 2\nX 0 c=0\n", "line 2: wire 0 is named more than once"),
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

    # every line break of str.splitlines() that is not CR or LF
    @pytest.mark.parametrize(
        "c", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_a_comment_ends_at_a_line_end_only(self, c):
        assert parse_circuit(f"qubits 2\nH 0  # a{c}X 1\n").ops == (GateOp("H", (0,)),)
        with pytest.raises(ParseError) as err:
            parse_circuit(f"qubits 2\n# a{c}b\nH 9\n")
        assert err.value.line_no == 3 and "wire 9" in str(err.value)

    def test_crlf_and_cr_only_lines_parse(self):
        want = parse_circuit("qubits 2\nH 0 # a\nX 1\n")
        assert parse_circuit("qubits 2\r\nH 0 # a\r\nX 1\r\n") == want
        assert parse_circuit("qubits 2\rH 0 # a\rX 1\r") == want
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 2\r\rH 9")
        assert err.value.line_no == 3

    def test_checks_of_gateop_and_circuit_name_the_line(self):
        # the parser leaves wire range, arity and MEASURE shape to GateOp
        # and Circuit, and reports their errors against the line
        for text, message in [
            ("qubits 2\nH 0\nX 9\n", "line 3: op 1 (X 9) touches wire 9, out of range for 2 qubits"),
            ("qubits 2\nX 0 c=5\n", "line 2: op 0 (X 0 c=5) touches wire 5, out of range for 2 qubits"),
            # an op with a measured wire and one out of range is named at
            # its first, targets before controls
            ("qubits 2\nMEASURE 0\nX 0 c=5\n", "line 3: op 1 (X 0 c=5) touches wire 0, which was measured"),
            ("qubits 2\nMEASURE 0\nX 5 c=0\n", "line 3: op 1 (X 5 c=0) touches wire 5, out of range for 2 qubits"),
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
        assert str(err.value) == "line 3: op 2 (X 0 c=7) touches wire 7, out of range for 2 qubits"

    @pytest.mark.parametrize("count", ["-1", "2.0", "qubits"])
    def test_a_header_refusal_names_its_line_once(self, count):
        with pytest.raises(ParseError) as err:
            parse_circuit(f"\nqubits {count}\n")
        want = f"line 2: qubit count {count!r} is not an integer of digits 0-9"
        assert (err.value.line_no, str(err.value)) == (2, want)

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

    def test_every_refusal_keeps_its_class_line_and_message(self):
        # parse_refusals.json was written by parse_refusals.py before the
        # parser was last rewritten; each text must still end the same way
        table = json.loads(parse_refusals.PATH.read_text())
        for text, want in table["fixed"]:
            assert parse_refusals.outcome(text) == want, text
        assert len(table["sweep"]) == parse_refusals.MUTATIONS
        for base, line, token, kind, new, want in table["sweep"]:
            text = parse_refusals.mutate(table["bases"][base], line, token, kind, new)
            assert parse_refusals.outcome(text) == want, text

    def test_parsed_ops_equal_checked_ops(self):
        # every accepted text of the table and every circuit file: each op the
        # parser builds equals GateOp's, in the fields equality skips and in type
        table = json.loads(parse_refusals.PATH.read_text())
        texts = [text for text, (kind, _, _) in table["fixed"] if kind == "accepted"]
        for base, line, token, kind, new, (outcome, _, _) in table["sweep"]:
            if outcome == "accepted":
                texts.append(parse_refusals.mutate(table["bases"][base], line, token, kind, new))
        circuits = [circ_mod.load_circuit(path) for path in sorted(CIRCUITS.glob("*.qc"))]
        ops = [op for text in texts for op in parse_circuit(text).ops]
        ops += [op for circ in circuits for op in circ.ops]
        assert len(ops) > 4000
        for op in ops:
            want = GateOp(op.gate, op.targets, op.controls.entries)
            got, spec = op.controls, want.controls
            assert op == want
            assert (got.wires, got.inclusion_mask, got.desired_value_mask) == (
                spec.wires, spec.inclusion_mask, spec.desired_value_mask
            )
            # and the masks by their definition, which no builder shares
            assert got.wires == tuple(w for w, _ in got.entries)
            assert got.inclusion_mask == sum(1 << w for w, _ in got.entries)
            assert got.desired_value_mask == sum(f << w for w, f in got.entries)
            assert type(op.gate) is str
            assert type(op.targets) is type(got.entries) is type(got.wires) is tuple
            assert {type(w) for w in op.targets + got.wires} <= {int}
            assert {type(f) for _, f in got.entries} <= {bool}

    @pytest.mark.parametrize(
        "text", ["\u017fwap 0 1", "\u0131 0", "c\u017fwap 0 1 2", "mea\u017fure 0", "X 0 ; \u0131 1"]
    )
    def test_a_name_is_read_as_ascii_only(self, text):
        # Unicode upper() maps the long s to S and the dotless i to I; no
        # such name is a catalog gate, sugar or MEASURE
        with pytest.raises(ParseError, match="unknown gate"):
            parse_circuit(f"qubits 3\n{text}\n")


class TestChunkMemo:
    """``parse_circuit`` takes each gate's op from a memo of the gates that
    parsed, bounded at 1024 and keyed by its tokens joined by single spaces."""

    def test_a_refused_chunk_is_refused_again_at_its_own_line(self):
        circ_mod._chunk_op.cache_clear()
        for text, line_no in (
            ("qubits 2\nH 0\nX 1 ; FOO 0\n", 3),
            ("qubits 2\nFOO 0\n", 2),  # the same gate, alone on its line
            ("qubits 2\nH 0 # FOO 0\n\nY 1\nX 1 ; FOO 0\n", 5),
        ):
            with pytest.raises(ParseError) as err:
                parse_circuit(text)
            assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: unknown gate 'FOO'")
            # the line-0 refusal of the memo is not chained to the one raised
            assert err.value.__suppress_context__ and err.value.__cause__ is None
        # "FOO 0" missed all three times it was met; only the gates that
        # parsed are stored, "H 0 " and " X 1" sharing the entries of "H 0"
        # and "X 1 ", and the blank line takes none
        info = circ_mod._chunk_op.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 6, 3)
        # a good chunk gives the same op on any line of any text
        first = parse_circuit("qubits 3\nH 0\nX 2 c=1\n")
        again = parse_circuit("qubits 3\nX 2  c=1\nZ 1\n\n H 0;\n")
        assert again.ops[0] is first.ops[1] and again.ops[2] is first.ops[0]

    def test_the_memo_stays_at_its_bound(self):
        circ_mod._chunk_op.cache_clear()
        # 2 * 26 * 25 = 1300 distinct chunks
        lines = [f"X {t} {kind}={w}" for t in range(26) for w in range(26) if w != t for kind in "ca"]
        assert len(parse_circuit("qubits 26\n" + "\n".join(lines)).ops) == 1300
        info = circ_mod._chunk_op.cache_info()
        assert info.misses == 1300
        assert info.currsize == info.maxsize == 1024


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

    def test_non_utf8_line_is_counted_as_the_parser_counts(self, tmp_path):
        path = tmp_path / "c.qc"
        path.write_bytes(b"qubits 2\r# a\x0cb\r\nX 1 \xff\n")
        with pytest.raises(ParseError) as info:
            circ_mod.load_circuit(path)
        assert info.value.line_no == 3

    def test_refuses_anything_but_a_path(self):
        # open() would read an int as a file descriptor, and close it
        read_fd, write_fd = os.pipe()
        os.write(write_fd, b"qubits 1\n")
        os.close(write_fd)
        try:
            with pytest.raises(ContractError):
                circ_mod.load_circuit(read_fd)
            os.fstat(read_fd)  # still open
        finally:
            with contextlib.suppress(OSError):
                os.close(read_fd)
        for bad in (None, 1.5):
            with pytest.raises(ContractError):
                circ_mod.load_circuit(bad)

    def test_non_utf8_file_names_the_line(self, tmp_path):
        path = tmp_path / "c.qc"
        path.write_bytes(b"qubits 2\nH 0\nX 1 \xff\n")
        with pytest.raises(ParseError, match="line 3") as info:
            circ_mod.load_circuit(path)
        assert info.value.line_no == 3
