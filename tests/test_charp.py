import json
from fractions import Fraction

import pytest

from confan.arith import Fp, Matrix, MultiPoly, poly_lead_term
from confan.charp import (
    ORDER_NAME,
    divide_remainder,
    fedder_witness,
    lead_term_certificate,
    linkage_generators,
    mono_str,
    row_reduce_to_standard,
    spair_reduction_check,
)
from confan.config import config_new, lambda_system, psi_basis_expansion
from confan.errors import LeadTermFailure, RankDeficient

from .conftest import random_config


class TestBlockOrder:
    def test_name(self):
        assert ORDER_NAME == "x-lex,u-lex"

    def test_is_plain_lex_on_joint_exponents(self):
        a = (1, 0, 0, 0, 2)
        b = (0, 5, 0, 3, 0)
        assert a > b
        q = MultiPoly(("x1", "x2", "x3", "u1", "u2"), {a: 1, b: 2})
        assert poly_lead_term(q) == (a, 1)

    def test_mono_str(self):
        vs = ("x1", "x2", "u1")
        assert mono_str((2, 0, 1), vs) == "x1^2*u1"
        assert mono_str((0, 0, 0), vs) == "1"


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
        cert = lead_term_certificate(square_chord_config)
        assert cert["kind"] == "InitialIdeal"
        assert cert["verdict"] == "pass"
        assert cert["order"] == "x-lex,u-lex"
        assert cert["leads"] == ["x1*u1", "x2*u2", "x3*u3"]

    def test_random_standard_forms(self, rng):
        for _ in range(10):
            c = random_config(rng, max_n=6)
            std, _ = row_reduce_to_standard(c)
            cert = lead_term_certificate(std)
            expected = ["x%d*u%d" % (i + 1, i + 1) for i in range(std.r)]
            assert cert["leads"] == expected

    def test_non_standard_form_violates(self):
        # first column of A is zero in row 1, so lead(q1) is not x1*u1
        c = config_new(Matrix(((0, 1, 1), (1, 1, 0))))
        cert = lead_term_certificate(c)
        assert cert["verdict"] == "fail"
        assert cert["reason"] == "lead of q1 is x2*u1, not x1*u1; reduce to standard form first"
        assert cert["leads"] == ["x2*u1", "x1*u2"]


class TestFedder:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_square_chord_witness(self, square_chord_config, p):
        cert = fedder_witness(square_chord_config, p)
        assert cert["verdict"] == "pass"
        assert cert["p"] == p
        assert cert["witness_exponent"] == p - 1
        if p == 2:
            assert cert["witness"] == "x1*x2*x3*u1*u2*u3"

    def test_u23_witness_p3(self):
        c = config_new(Matrix(((1, 0, 1), (0, 1, 1))))
        cert = fedder_witness(c, 3)
        assert cert["witness"] == "x1^2*x2^2*u1^2*u2^2"
        assert cert["verdict"] == "pass"

    def test_fails_off_standard_form(self, square_chord_config):
        # the identity block moved to the back: the leads are not x_i*u_i,
        # and the verdict is that of the lead-term certificate mod p
        shuffled = config_new(square_chord_config.a.column_submatrix([3, 4, 0, 1, 2]))
        cert = fedder_witness(shuffled, 3)
        initial = lead_term_certificate(shuffled)
        assert initial["verdict"] == cert["verdict"] == "fail"
        assert cert["reason"] == initial["reason"] == (
            "lead of q2 is x1*u1, not x2*u2; reduce to standard form first"
        )
        assert cert["leads"] == initial["leads"] == ["x1*u1", "x1*u1", "x2*u1"]
        std, _ = row_reduce_to_standard(shuffled)
        assert fedder_witness(std, 3)["verdict"] == "pass"

    def test_rank_drop_mod_p_raises(self):
        # the rows agree mod 3, and the rank check comes before column 3,
        # which vanishes too
        c = config_new(Matrix(((1, 1, 0), (1, 4, 3))))
        with pytest.raises(RankDeficient, match="^row rank below 2$"):
            fedder_witness(c, 3)

    def test_rejects_composite(self, square_chord_config):
        with pytest.raises(ValueError):
            fedder_witness(square_chord_config, 6)

    def test_rejects_denominator_divisible_by_p(self):
        c = config_new(Matrix(((1, 0, Fraction(1, 2)), (0, 1, 1))))
        with pytest.raises(LeadTermFailure):
            fedder_witness(c, 2)
        # the same configuration is fine at p = 3
        assert fedder_witness(c, 3)["verdict"] == "pass"

    def test_fp_input_must_match_p(self):
        c = config_new(
            Matrix(((Fp(1, 5), Fp(0, 5), Fp(2, 5)), (Fp(0, 5), Fp(1, 5), Fp(1, 5))))
        )
        assert fedder_witness(c, 5)["verdict"] == "pass"
        with pytest.raises(ValueError):
            fedder_witness(c, 3)


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
        cert = fedder_witness(square_chord_config, 5)
        assert json.loads(json.dumps(cert)) == cert
        assert list(cert) == [
            "kind", "order", "leads", "witness", "p", "witness_exponent", "verdict",
        ]
        assert cert["kind"] == "FPurity"
        assert cert["order"] == "x-lex,u-lex"
        assert cert["verdict"] == "pass"

    def test_initial_ideal_json(self, square_chord_config):
        cert = lead_term_certificate(square_chord_config)
        assert cert == {
            "kind": "InitialIdeal",
            "order": "x-lex,u-lex",
            "leads": ["x1*u1", "x2*u2", "x3*u3"],
            "verdict": "pass",
        }
        assert list(cert) == ["kind", "order", "leads", "verdict"]
