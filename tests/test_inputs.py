import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confan.arith import Fp, Matrix, MultiPoly
from confan.errors import ParseError
from confan.inputs import (
    bases_from_json,
    detect_format,
    load_configuration,
    load_matroid,
    matrix_from_json,
    parse_graph_text,
    parse_scalar,
)

from .oracles import matrix_to_json, parse_poly


class TestScalars:
    def test_rational(self):
        assert parse_scalar("3") == 3
        assert parse_scalar("-7/2") == Fraction(-7, 2)
        assert isinstance(parse_scalar("4/2"), int)

    def test_fp(self):
        x = parse_scalar("3/2", field="Fp", p=5)
        assert isinstance(x, Fp) and x.val == 4  # 3 * inverse(2) = 3*3 = 9 = 4

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("one half")

    def test_decimal(self):
        assert parse_scalar("0.25") == Fraction(1, 4)
        assert parse_scalar("-1.50") == Fraction(-3, 2)
        assert isinstance(parse_scalar("2.0"), int)

    @pytest.mark.parametrize("number", [0.1, 2.0, 1e-07, 12345678901234567891.5])
    def test_json_non_integer_number_refused(self, number):
        # a float has lost digits already: the entry is written as a string
        with pytest.raises(ParseError, match='write it as a string, as "0.1" or "1/10"'):
            parse_scalar(number)

    def test_literal_bound(self):
        assert parse_scalar("1" + "0" * 4299) == 10**4299
        assert parse_scalar(-(10**4298)) == -(10**4298)
        with pytest.raises(ParseError) as err:
            parse_scalar("1" + "0" * 4300)
        assert str(err.value) == "literal %r... is longer than 4300 characters" % (
            "1" + "0" * 39
        )

    @pytest.mark.parametrize("text", ["1e5", "1E5", "2.5e-3", "1e10000000"])
    def test_exponent_notation_refused(self, text):
        # "1e10000000" would be a ten-million-digit value from a ten-byte literal
        with pytest.raises(ParseError, match="^bad scalar %r$" % text):
            parse_scalar(text)

    def test_long_literal_quoted_short(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("9" * 4000 + "x")
        assert str(err.value) == "bad scalar %r..." % ("9" * 40)
        with pytest.raises(ParseError) as err:
            parse_scalar("1/" + "5" * 4000, field="Fp", p=5)
        assert str(err.value) == "scalar %r... undefined mod 5" % ("1/" + "5" * 38)


class TestMatrixJson:
    def test_round_trip_q(self):
        m = Matrix(((1, Fraction(1, 2)), (0, 1)))
        data = matrix_to_json(m)
        clone = matrix_from_json(json.loads(json.dumps(data)))
        assert clone == m

    def test_round_trip_fp(self):
        m = Matrix(((Fp(1, 7), Fp(3, 7)),))
        data = matrix_to_json(m, field="Fp", p=7)
        assert matrix_from_json(data) == m

    def test_rejects_p_without_fp(self):
        rows = [["1", "0", "1"], ["0", "1", "1"]]
        for data in ({"rows": rows, "field": "Q", "p": "junk"}, {"rows": rows, "p": 7}):
            with pytest.raises(ParseError, match="'p' needs field 'Fp'"):
                matrix_from_json(data)

    def test_rejects_nonprime_p(self):
        with pytest.raises(ParseError):
            matrix_from_json({"rows": [["1"]], "field": "Fp", "p": 6})

    def test_rejects_ragged(self):
        with pytest.raises(ParseError):
            matrix_from_json({"rows": [["1", "2"], ["3"]], "field": "Q"})

    def test_rejects_missing_rows(self):
        with pytest.raises(ParseError):
            matrix_from_json({"field": "Q"})

    def test_error_order_around_the_cap(self):
        # the shape is checked before the cap, the entries after it
        with pytest.raises(ParseError, match="ragged matrix rows"):
            matrix_from_json({"rows": [["1"] * 13, ["1"]]}, max_n=12)
        with pytest.raises(ParseError, match="nonempty list of lists"):
            matrix_from_json({"rows": [["1"] * 13, "1"]}, max_n=12)
        with pytest.raises(ParseError, match="exceeds the cap 12"):
            matrix_from_json({"rows": [["x"] * 13]}, max_n=12)
        with pytest.raises(ParseError, match="bad scalar 'x'"):
            matrix_from_json({"rows": [["x"] * 12]}, max_n=12)


class TestGraph:
    def test_parse_with_comments(self):
        text = "# square with chord\na c\na b\n\nc d\nb c\nd a\n"
        edges = parse_graph_text(text)
        assert edges == [("a", "c"), ("a", "b"), ("c", "d"), ("b", "c"), ("d", "a")]

    def test_rejects_bad_line(self):
        with pytest.raises(ParseError):
            parse_graph_text("a b c\n")


class TestBasesJson:
    def test_u25(self):
        data = {
            "n": 5,
            "bases": [[i, j] for i in range(1, 6) for j in range(i + 1, 6)],
        }
        m = bases_from_json(data)
        assert m.r == 2 and len(m.bases) == 10

    def test_non_matroid_rejected(self):
        with pytest.raises(ParseError):
            bases_from_json({"n": 4, "bases": [[1, 2], [3, 4]]})

    def test_repeated_element_rejected(self):
        # read as sets, these would be the rank-1 matroid on {1, 2}
        with pytest.raises(ParseError, match="basis repeats an element"):
            bases_from_json({"n": 3, "bases": [[1, 1], [2, 2]]})
        with pytest.raises(ParseError, match="basis repeats an element"):
            bases_from_json({"n": 3, "bases": [[1, 2], [3, 3]]})

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 4.9, "bases": [[1.5, 2], [1, 3.2], [2, 3]]},
            {"n": "4", "bases": [[True, 2], [1, 3], [2, 3]]},
            {"n": 4, "bases": [[1, 2], [1, 3.0], [2, 3]]},
            {"n": True, "bases": [[1]]},
            {"n": 4, "bases": ["12", "13"]},
        ],
        ids=["floats", "string-n-and-bool", "integral-float", "bool-n", "strings"],
    )
    def test_non_integers_rejected(self, data):
        # int() would read each of these as n = 4 (or 1) and go on
        with pytest.raises(ParseError, match="is not an integer"):
            bases_from_json(data)

    def test_error_order_around_the_cap(self):
        # unequal sizes are found before the cap, exchange failures after it
        with pytest.raises(ParseError, match="not a matroid: bases of unequal size"):
            bases_from_json({"n": 20, "bases": [[1], [2, 3]]}, max_n=12)
        with pytest.raises(ParseError, match="exceeds the cap 12"):
            bases_from_json({"n": 20, "bases": [[1, 2], [3, 4]]}, max_n=12)
        with pytest.raises(ParseError, match="not a matroid: rank is not submodular"):
            bases_from_json({"n": 12, "bases": [[1, 2], [3, 4]]}, max_n=12)

    def test_cap_message_cuts_a_long_n(self):
        with pytest.raises(ParseError) as err:
            bases_from_json({"n": 10**4000, "bases": [[1]]}, max_n=12)
        assert str(err.value) == (
            "ground set size %s... exceeds the cap 12 (CONFIG_RESOLVE_MAX_N)" % ("1" + "0" * 39)
        )


class TestDetectAndLoad:
    def test_detection(self):
        assert detect_format("x/y.graph") == "graph"
        assert detect_format("x/y.bases.json") == "bases"
        assert detect_format("x/y.json") == "matrix"
        with pytest.raises(ParseError):
            detect_format("x/y.txt")

    def test_load_matroid_from_each(self, data_dir):
        g = load_matroid(str(data_dir / "square_chord.graph"))
        mtx = load_matroid(str(data_dir / "square_chord.mat.json"))
        assert g.bases == mtx.bases
        b = load_matroid(str(data_dir / "u25.bases.json"))
        assert b.r == 2 and b.n == 5

    def test_bases_carry_no_realization(self, data_dir):
        with pytest.raises(ParseError):
            load_configuration(str(data_dir / "u25.bases.json"))

    def test_ground_set_cap(self, data_dir):
        with pytest.raises(ParseError) as err:
            load_matroid(str(data_dir / "square_chord.mat.json"), max_n=3)
        assert "CONFIG_RESOLVE_MAX_N" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_matroid("/nonexistent/path.graph")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_matroid(str(bad))


class TestParsePoly:
    def test_simple(self):
        vs = ("x1", "x2")
        p = parse_poly("16*x1*x2-x1+x2^2", vs)
        x1, x2 = MultiPoly.var(vs, 0), MultiPoly.var(vs, 1)
        assert p == 16 * x1 * x2 - x1 + x2 ** 2

    def test_constant_and_fraction(self):
        vs = ("x",)
        assert not parse_poly("0", vs)
        p = parse_poly("1/2*x+3", vs)
        assert p.evaluate((2,)) == 4

    def test_rejects_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly("x1+y", ("x1",))

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9).filter(bool),
        min_size=1,
        max_size=6,
    ))
    def test_round_trip_printer(self, terms):
        vs = ("x1", "x2", "x3")
        p = MultiPoly(vs, terms)
        assert parse_poly(str(p), vs) == p
