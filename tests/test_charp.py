import json
from fractions import Fraction

import pytest

from confan.arith import Fp, Matrix, MultiPoly, poly_lead_term
from confan.charp import (
    ORDER_NAME,
    certificates,
    divide_remainder,
    linkage_generators,
    row_reduce_to_standard,
    spair_reduction_check,
)
from confan.config import config_new, lambda_system, psi_basis_expansion, xu_variables
from confan.errors import HasLoops

from .conftest import random_config


def leads(c):
    """The lead monomial of each form of config.lambda_system under the
    x-then-u lex order, printed: the computation `certificates` derives
    instead, kept here as a guard of lambda_system."""
    variables = xu_variables(c.n, c.r)
    return [str(MultiPoly(variables, {poly_lead_term(q)[0]: 1})) for q in lambda_system(c)]


def standard_leads(r):
    return ["x%d*u%d" % (i, i) for i in range(1, r + 1)]


def random_config_f7(rng, max_n=6):
    """A random full-rank loopless configuration over F_7."""
    while True:
        n = rng.randint(2, max_n)
        r = rng.randint(1, n - 1)
        rows = [[Fp(rng.randrange(7), 7) for _ in range(n)] for _ in range(r)]
        try:
            return config_new(Matrix(rows))
        except Exception:
            continue


class TestBlockOrder:
    def test_name(self):
        assert ORDER_NAME == "x-lex,u-lex"

    def test_is_plain_lex_on_joint_exponents(self):
        a = (1, 0, 0, 0, 2)
        b = (0, 5, 0, 3, 0)
        assert a > b
        q = MultiPoly(("x1", "x2", "x3", "u1", "u2"), {a: 1, b: 2})
        assert poly_lead_term(q) == (a, 1)


class TestRowReduce:
    def test_square_chord_already_standard(self, square_chord_config):
        std, perm = row_reduce_to_standard(square_chord_config)
        assert perm == (0, 1, 2, 3, 4)
        assert std.a == square_chord_config.a

    def test_permuted_columns(self, square_chord_config):
        # move the identity block to the back; reduction must recover it
        cols = [3, 4, 0, 1, 2]
        shuffled = config_new(square_chord_config.a.column_submatrix(cols))
        std, perm = row_reduce_to_standard(shuffled)
        for i in range(3):
            col = [std.a[k, i] for k in range(3)]
            assert col == [1 if k == i else 0 for k in range(3)]
        # permutation indexes the shuffled matrix's columns
        reordered = shuffled.a.column_submatrix(list(perm))
        assert matrix_rank_of_first_block(reordered) == 3

    def test_psi_invariant_under_relabel(self, square_chord_config):
        # psi of the standardized configuration is psi with columns renamed
        cols = [1, 3, 0, 4, 2]
        shuffled = config_new(square_chord_config.a.column_submatrix(cols))
        std, perm = row_reduce_to_standard(shuffled)
        psi_std = psi_basis_expansion(std)
        psi_orig = psi_basis_expansion(shuffled)
        remapped = {}
        for mono, coeff in psi_orig.terms.items():
            new = [0] * 5
            for pos, e in enumerate(mono):
                new[perm.index(pos)] = e
            remapped[tuple(new)] = coeff
        # row reduction rescales rows, so compare up to a global square
        ratio = None
        for mono, coeff in psi_std.terms.items():
            assert mono in remapped
            r = Fraction(coeff) / Fraction(remapped[mono])
            ratio = r if ratio is None else ratio
            assert r == ratio
        assert ratio > 0


def matrix_rank_of_first_block(m):
    from .incidence import matrix_rank

    return matrix_rank(m.column_submatrix(list(range(m.nrows))))


class TestLeadTerms:
    def test_square_chord_certificate(self, square_chord_config):
        std, _, cert, _ = certificates(square_chord_config, 2)
        assert cert["kind"] == "InitialIdeal"
        assert cert["verdict"] == "pass"
        assert cert["order"] == "x-lex,u-lex"
        assert cert["leads"] == leads(std) == ["x1*u1", "x2*u2", "x3*u3"]

    def test_random_standard_forms(self, rng):
        # over Q and over F_7, the leads of lambda_system on a standard form
        # are those certificates derives
        for _ in range(10):
            std, _ = row_reduce_to_standard(random_config(rng, max_n=6))
            assert leads(std) == standard_leads(std.r)
        for _ in range(10):
            std, _, cert, _ = certificates(random_config_f7(rng), 7)
            assert leads(std) == cert["leads"] == standard_leads(std.r)

    def test_non_standard_form_violates(self, square_chord_config):
        # off standard form the leads of lambda_system are not x_i*u_i;
        # certificates reads them from the standard form it builds
        shuffled = config_new(square_chord_config.a.column_submatrix([3, 4, 0, 1, 2]))
        cases = [
            (config_new(Matrix(((0, 1, 1), (1, 1, 0)))), ["x2*u1", "x1*u2"]),
            (shuffled, ["x1*u1", "x1*u1", "x2*u1"]),
        ]
        for c, found in cases:
            assert leads(c) == found != standard_leads(c.r)
            std, _, cert, _ = certificates(c, 3)
            assert cert["leads"] == leads(std) == standard_leads(c.r)


class TestFedder:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_square_chord_witness(self, square_chord_config, p):
        cert = certificates(square_chord_config, p)[3]
        assert cert["verdict"] == "pass"
        assert cert["p"] == p
        assert cert["witness_exponent"] == p - 1
        if p == 2:
            assert cert["witness"] == "x1*x2*x3*u1*u2*u3"

    def test_u23_witness_p3(self):
        c = config_new(Matrix(((1, 0, 1), (0, 1, 1))))
        cert = certificates(c, 3)[3]
        assert cert["witness"] == "x1^2*x2^2*u1^2*u2^2"
        assert cert["verdict"] == "pass"

    def test_fails_off_standard_form(self, square_chord_config):
        # the identity block moved to the back: the input's own leads are
        # not x_i*u_i, and certificates brings the block to the front again
        shuffled = config_new(square_chord_config.a.column_submatrix([3, 4, 0, 1, 2]))
        assert leads(shuffled) == ["x1*u1", "x1*u1", "x2*u1"]
        std, perm, _, cert = certificates(shuffled, 3)
        assert perm == (0, 1, 2, 3, 4)
        assert [row[:3] for row in std.a.rows] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert cert["verdict"] == "pass"

    def test_rank_drop_mod_p_of_the_input_is_no_refusal(self):
        # the input's rows agree mod 3, but its standard form
        # [[1, 0, -1], [0, 1, 1]] keeps rank 2 and no zero column mod 3
        c = config_new(Matrix(((1, 1, 0), (1, 4, 3))))
        std, perm, _, cert = certificates(c, 3)
        assert perm == (0, 1, 2)
        assert std.a.rows == ((1, 0, -1), (0, 1, 1))
        assert cert["verdict"] == "pass"

    def test_rejects_composite(self, square_chord_config):
        with pytest.raises(ValueError):
            certificates(square_chord_config, 6)

    def test_rejects_denominator_divisible_by_p(self):
        # the lex-first standard form is the input, with the entry 1/2; the
        # minors are 1 on {1, 2} and {1, 3} and -1/2 on {2, 3}, so every
        # basis of least 2-adic valuation avoids column 1, which vanishes
        # mod 2 in their standard form
        c = config_new(Matrix(((1, 0, Fraction(1, 2)), (0, 1, 1))))
        with pytest.raises(HasLoops, match=r"^column 1 vanishes mod 2 \(a loop\)$"):
            certificates(c, 2)
        # the same configuration is fine at p = 3
        assert certificates(c, 3)[1] == (0, 1, 2)

    def test_denominator_divisible_by_p_takes_another_basis(self):
        # the lex-first standard form has entries 1/3 and 2/3; the minor of
        # {1, 3} is -1, a unit mod 3, and the least basis that has one
        c = config_new(Matrix(((1, 1, 1, 0), (1, -2, 0, 1))))
        std, perm, _, cert = certificates(c, 3)
        assert perm == (0, 2, 1, 3)
        assert std.a.rows == ((1, 0, -2, 1), (0, 1, 3, -1))
        assert leads(std) == cert["leads"] == ["x1*u1", "x2*u2"]
        assert cert["verdict"] == "pass"

    def test_fp_input_must_match_p(self):
        c = config_new(
            Matrix(((Fp(1, 5), Fp(0, 5), Fp(2, 5)), (Fp(0, 5), Fp(1, 5), Fp(1, 5))))
        )
        assert certificates(c, 5)[3]["verdict"] == "pass"
        with pytest.raises(ValueError):
            certificates(c, 3)


class TestLinkage:
    def test_square_chord_generators(self, square_chord_config):
        gens = linkage_generators(square_chord_config)
        assert len(gens) == 4
        qs = lambda_system(square_chord_config)
        assert gens[:3] == list(qs)
        # last generator is psi lifted into the joint ring: no u variables
        psi_lift = gens[3]
        for mono in psi_lift.terms:
            assert all(e == 0 for e in mono[5:])

    def test_rank_one(self):
        c = config_new(Matrix(((1, 1),)))
        gens = linkage_generators(c)
        assert len(gens) == 2
        assert str(gens[1]) == "x1+x2"


class TestSPairs:
    def test_square_chord(self, square_chord_config):
        assert spair_reduction_check(square_chord_config)

    def test_random_small(self, rng):
        for _ in range(5):
            c = random_config(rng, max_n=6)
            std, _ = row_reduce_to_standard(c)
            assert spair_reduction_check(std)

    def test_standard_form_above_six(self):
        prototype = Matrix((
            (1, 0, 0, 1, 1, 0, 1),
            (0, 1, 0, 1, 0, 1, 1),
            (0, 0, 1, 0, 1, 1, 1),
        ))
        std, _ = row_reduce_to_standard(config_new(prototype))
        assert spair_reduction_check(std)

    def test_divide_remainder_basics(self):
        vs = ("x", "y")
        x, y = MultiPoly.var(vs, 0), MultiPoly.var(vs, 1)
        rem = divide_remainder(x ** 2 * y + x, [x ** 2])
        assert rem == x
        rem2 = divide_remainder(x ** 2 + y, [x + y])
        # x^2 + y -> reduce by x+y twice: x^2 - x(x+y) = -xy + y,
        # then -xy + y + y(x+y) = y^2 + y, untouched lead y^2 reduces? no:
        # lead(x+y) = x divides neither y^2 nor y
        assert rem2 == y ** 2 + y


class TestCertificateJson:
    def test_round_trip(self, square_chord_config):
        cert = certificates(square_chord_config, 5)[3]
        assert json.loads(json.dumps(cert)) == cert
        assert list(cert) == [
            "kind", "order", "leads", "witness", "p", "witness_exponent", "verdict",
        ]
        assert cert["kind"] == "FPurity"
        assert cert["order"] == "x-lex,u-lex"
        assert cert["verdict"] == "pass"

    def test_initial_ideal_json(self, square_chord_config):
        cert = certificates(square_chord_config, 5)[2]
        assert cert == {
            "kind": "InitialIdeal",
            "order": "x-lex,u-lex",
            "leads": ["x1*u1", "x2*u2", "x3*u3"],
            "verdict": "pass",
        }
        assert list(cert) == ["kind", "order", "leads", "verdict"]
