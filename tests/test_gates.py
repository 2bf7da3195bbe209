import numpy as np
import pytest
from helpers import is_unitary

from qwsim import gates
from qwsim.errors import CatalogError

_SQ2 = 1.0 / np.sqrt(2.0)


class TestCatalog:
    def test_pauli_matrices(self):
        np.testing.assert_array_equal(gates.gate_matrix("X"), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(gates.gate_matrix("Y"), [[0, -1j], [1j, 0]])
        np.testing.assert_array_equal(gates.gate_matrix("Z"), [[1, 0], [0, -1]])
        np.testing.assert_array_equal(gates.gate_matrix("I"), np.eye(2))

    def test_hadamard(self):
        np.testing.assert_allclose(
            gates.gate_matrix("H"), [[_SQ2, _SQ2], [_SQ2, -_SQ2]], atol=1e-15
        )

    def test_phase_gate_tower(self):
        t = gates.gate_matrix("T")
        s = gates.gate_matrix("S")
        z = gates.gate_matrix("Z")
        np.testing.assert_allclose(t @ t, s, atol=1e-15)
        np.testing.assert_allclose(s @ s, z, atol=1e-15)
        np.testing.assert_allclose(t @ gates.gate_matrix("TDG"), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(s @ gates.gate_matrix("SDG"), np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("name", ["H", "X", "Y", "Z"])
    def test_involutions(self, name):
        m = gates.gate_matrix(name)
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-15)

    def test_swap_matrix(self):
        np.testing.assert_array_equal(
            gates.gate_matrix("SWAP"),
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        )

    def test_sqrtswap_squares_to_swap(self):
        r = gates.gate_matrix("SQRTSWAP")
        np.testing.assert_allclose(r @ r, gates.gate_matrix("SWAP"), atol=1e-15)

    def test_iswap_phases(self):
        m = gates.gate_matrix("ISWAP")
        assert m[1, 2] == 1j and m[2, 1] == 1j
        assert m[0, 0] == 1 and m[3, 3] == 1

    @pytest.mark.parametrize("name", gates.gate_names())
    def test_every_entry_is_unitary(self, name):
        g = gates.gate_def(name)
        assert g.matrix.shape == (1 << g.arity, 1 << g.arity)
        assert is_unitary(g.matrix)

    def test_lookup_is_case_insensitive(self):
        assert gates.gate_def("h") is gates.gate_def("H")
        assert gates.gate_def("sqrtswap").name == "SQRTSWAP"

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            gates.gate_def("RX")

    @pytest.mark.parametrize("name", ["\u017fwap", "\u0131", "\u017fqrt\u017fwap"])
    def test_a_name_is_case_insensitive_ascii(self, name):
        # Unicode upper() maps the long s to S and the dotless i to I
        assert name.upper() in gates.gate_names()
        with pytest.raises(CatalogError, match="unknown gate"):
            gates.gate_def(name)

    def test_matrices_are_read_only(self):
        with pytest.raises(ValueError):
            gates.gate_matrix("X")[0, 0] = 5.0
