import json
import os
from fractions import Fraction

import pytest

from thermo_ops import FormatError, StochasticMatrix, decompose, \
    gibbs_context_from_weights, thermo_transposition
from thermo_ops.io import (context_from_json, context_to_json, decode_number,
                           decomposition_from_json, decomposition_to_json,
                           encode_number, matrix_from_json, matrix_to_json,
                           population_from_json, population_to_json,
                           read_json, write_json_atomic, write_text_atomic)

F = Fraction


class TestNumberCodec:
    def test_rational_round_trip(self):
        for v in (F(0), F(1), F(-3, 7), F(10**12, 17)):
            assert decode_number(encode_number(v)) == v

    def test_int_stays_exact(self):
        assert decode_number(3) == F(3)
        assert not isinstance(decode_number(3), float)

    def test_float_passthrough(self):
        assert decode_number(0.25) == 0.25
        assert isinstance(encode_number(0.25), float)

    def test_bad_pairs_rejected(self):
        for bad in (["1"], ["a", "b"], ["1", "0"], {"num": 1}, None, True):
            with pytest.raises(FormatError):
                decode_number(bad)


class TestContextFiles:
    def test_round_trip(self):
        ctx = gibbs_context_from_weights([F(4, 7), F(2, 7), F(1, 7)])
        again = context_from_json(context_to_json(ctx))
        assert again.g == ctx.g and again.d == ctx.d and again.D == ctx.D

    def test_energies_only(self):
        import math
        ctx = context_from_json({"energies": [0.0, math.log(2)]})
        assert ctx.d == (2, 1)

    def test_inconsistent_split_rejected(self):
        with pytest.raises(FormatError):
            context_from_json({"g": [["2", "3"], ["1", "3"]],
                               "d": [3, 1], "D": 4})

    def test_float_weights_rejected(self):
        with pytest.raises(FormatError):
            context_from_json({"g": [0.5, 0.5]})

    @pytest.mark.parametrize("split", [{"d": [5, 1], "D": 6}, {"d": [5, 1]},
                                       {"D": 6}])
    def test_split_without_weights_rejected(self, split):
        """A slot split is read only beside g; without g the energies
        would be fitted as if it were not there."""
        with pytest.raises(FormatError, match="beside the weights g"):
            context_from_json({"energies": [0.0, 1.0], **split})


class TestPopulationAndMatrix:
    def test_population_round_trip(self):
        p = (F(1, 3), F(2, 3))
        assert population_from_json(population_to_json(p)).x == p

    def test_matrix_round_trip(self):
        ctx = gibbs_context_from_weights([F(2, 3), F(1, 3)])
        t = thermo_transposition(ctx, 0, 1).as_matrix(ctx)
        assert matrix_from_json(matrix_to_json(t)).cols == t.cols

    def test_matrix_shape_checked(self):
        with pytest.raises(FormatError):
            matrix_from_json({"n": 2, "cols": [[1, 0]]})

    def test_decomposition_round_trip(self):
        ctx = gibbs_context_from_weights([F(2, 3), F(1, 3)])
        dec = decompose(StochasticMatrix.identity(2), ctx)
        again = decomposition_from_json(decomposition_to_json(dec))
        assert again == dec
        assert again.reconstruct().cols == dec.reconstruct().cols


class TestAtomicWrites:
    def test_write_and_read(self, tmp_path):
        path = tmp_path / "x.json"
        write_json_atomic(str(path), {"a": 1})
        assert read_json(str(path)) == {"a": 1}

    def test_no_temp_litter(self, tmp_path):
        path = tmp_path / "y.txt"
        write_text_atomic(str(path), "hello\n")
        assert sorted(os.listdir(tmp_path)) == ["y.txt"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            read_json(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        with pytest.raises(FormatError):
            read_json(str(bad))
