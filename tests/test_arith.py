from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confan.arith import (
    PRIME_TEST_BOUND,
    Fp,
    Matrix,
    MultiPoly,
    _is_prime,
    det,
    maximal_minors,
    poly_lead_term,
)
from confan.fans import factor_rows

from .incidence import kernel_basis, matrix_rank, solve_exact
from .oracles import cone_coordinates, left_inverse, matmul, minors_rank_and_index, naive_det

XY = ("x", "y")
XYZ = ("x", "y", "z")


def xvar():
    return MultiPoly.var(XY, 0)


def yvar():
    return MultiPoly.var(XY, 1)


class TestFp:
    def test_basic_ops(self):
        a = Fp(3, 7)
        b = Fp(5, 7)
        assert (a + b).val == 1
        assert (a * b).val == 1
        assert (a - b).val == 5
        assert (a / b).val == (3 * 3) % 7  # 5^-1 = 3 mod 7
        assert (-a).val == 4

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            1 / Fp(0, 5)

    def test_mixed_int(self):
        a = Fp(2, 5)
        assert (a + 4).val == 1
        assert (3 * a).val == 1
        assert (1 / a).val == 3

    def test_char_mismatch(self):
        with pytest.raises(ValueError):
            Fp(1, 5) + Fp(1, 7)

    @given(st.integers(0, 10), st.integers(1, 10))
    def test_field_axioms_mod_11(self, x, y):
        a, b = Fp(x, 11), Fp(y, 11)
        assert a * b == b * a
        assert (a / b) * b == a
        assert a + Fp(0, 11) == a
        assert b * (1 / b) == Fp(1, 11)


def trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        assert [p for p in range(-3, 20000) if _is_prime(p)] == [
            p for p in range(-3, 20000) if trial_division(p)
        ]

    @pytest.mark.parametrize(
        "n",
        [
            561,  # Carmichael
            2047,  # strong pseudoprime to base 2
            3215031751,  # to the bases 2, 3, 5 and 7
            3825123056546413051,  # to every prime base up to 23
            318665857834031151167461,  # to every prime base up to 37
            1000000007 * 998244353,
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not _is_prime(n)

    @pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3, 2 ** 79 - 67])
    def test_large_primes(self, p):
        assert _is_prime(p)

    def test_bound(self):
        # the bound is composite: the least strong pseudoprime to every base
        assert PRIME_TEST_BOUND == 1287836182261 * 2575672364521
        assert _is_prime(PRIME_TEST_BOUND - 1) is False  # even, and still decided
        with pytest.raises(ValueError, match="below %d$" % PRIME_TEST_BOUND):
            _is_prime(PRIME_TEST_BOUND)


class TestTermOrder:
    """Monomials are ordered as their exponent tuples: lex."""

    def test_lex_key_orders_first_block_first(self):
        # x1 beats x2^5 under lex
        assert (1, 0, 0, 0) > (0, 5, 0, 0)
        x1, x2 = MultiPoly.var(("x1", "x2"), 0), MultiPoly.var(("x1", "x2"), 1)
        assert poly_lead_term(x2 ** 5 + x1) == ((1, 0), 1)


class TestMultiPoly:
    def test_arithmetic_and_eval(self):
        x, y = xvar(), yvar()
        p = (x + y) ** 2 - (x - y) ** 2
        assert p == 4 * x * y
        assert p.evaluate((Fraction(3), Fraction(1, 2))) == 6

    def test_diff(self):
        x, y = xvar(), yvar()
        p = x ** 3 * y + 2 * x
        assert p.diff(0) == 3 * x ** 2 * y + 2
        assert p.diff(1) == x ** 3

    def test_str_descending_lex(self):
        vs = ("x1", "x2")
        x1, x2 = MultiPoly.var(vs, 0), MultiPoly.var(vs, 1)
        assert str(16 * x1 * x2 + x2 ** 2 - x1) == "16*x1*x2-x1+x2^2"
        assert str(MultiPoly.zero(vs)) == "0"

    def test_lead_term(self):
        vs = ("x1", "x2")
        x1, x2 = MultiPoly.var(vs, 0), MultiPoly.var(vs, 1)
        mono, coeff = poly_lead_term(x2 ** 4 + 3 * x1 * x2)
        assert mono == (1, 1)
        assert coeff == 3

    def test_zero_product_and_degree(self):
        x = MultiPoly.var(("x",), 0)
        zero = x - x
        assert not zero
        assert not zero * x


FIELDS = ("Z", "Q", "F2", "F7")


def scalars(field):
    """Small scalars of one field; over Q with denominators up to 8."""
    if field == "Z":
        return st.integers(-4, 4)
    if field == "Q":
        denominators = st.sampled_from((1, 2, 3, 4, 8))
        return st.builds(Fraction, st.integers(-4, 4), denominators)
    p = int(field[1:])
    return st.builds(Fp, st.integers(0, p - 1), st.just(p))


@st.composite
def square_matrices(draw, sizes):
    """(rows, field): a square matrix of a size drawn from sizes, over Z
    (entries -6..6), Q or F_7; from two rows on, half of the time its last
    row is a combination of the first and the second last, so it is
    singular."""
    field = draw(st.sampled_from(("Z", "Q", "F7")))
    size = draw(sizes)
    entries = st.integers(-6, 6) if field == "Z" else scalars(field)
    rows = [[draw(entries) for _ in range(size)] for _ in range(size)]
    if size >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return rows, field


class TestMatrix:
    def test_shapes_and_transpose(self):
        m = Matrix(((1, 2, 3), (4, 5, 6)))
        assert (m.nrows, m.ncols) == (2, 3)
        assert m.transpose().rows == ((1, 4), (2, 5), (3, 6))

    @given(square_matrices(st.integers(0, 3)))
    @example(([], "Z"))
    @example(([[Fp(0, 7), Fp(1, 7)], [Fp(0, 7), Fp(3, 7)]], "F7"))
    @example(([[Fp(1, 7), Fp(2, 7)], [Fp(3, 7), Fp(6, 7)]], "F7"))
    @example(([[Fraction(1, 2), Fraction(-2, 3), 1],
               [Fraction(3, 4), 2, Fraction(1, 8)],
               [Fraction(-1, 3), Fraction(5, 2), Fraction(3, 2)]], "Q"))
    @settings(max_examples=60, deadline=None)
    def test_det_matches_permutation_expansion(self, case):
        # over F_p a singular matrix gives the F_p zero; 0 x 0 gives 1
        rows, field = case
        d = det(Matrix(rows, ncols=len(rows)))
        assert d == naive_det(rows)
        if field == "F7" and rows:
            assert isinstance(d, Fp) and d.p == 7

    @given(square_matrices(st.just(4)))
    @settings(max_examples=30, deadline=None)
    def test_det_4x4(self, case):
        rows, field = case
        d = det(Matrix(rows))
        assert d == naive_det(rows)
        if field == "F7":
            assert isinstance(d, Fp) and d.p == 7

    def test_det_fractions(self):
        m = Matrix(((Fraction(1, 2), 1), (1, Fraction(3, 2))))
        assert det(m) == Fraction(-1, 4)

    def test_rank(self):
        assert matrix_rank(Matrix(((1, 2), (2, 4)))) == 1
        assert matrix_rank(Matrix(((1, 0, 1), (0, 1, 1), (1, 1, 2)))) == 2

    def test_kernel_annihilates(self):
        m = Matrix(((1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)))
        kb = kernel_basis(m)
        assert kb.nrows == 2
        for vec in kb.rows:
            assert all(v == 0 for v in m.apply(vec))

    def test_kernel_over_fp(self):
        m = Matrix(((Fp(1, 5), Fp(2, 5)),))
        kb = kernel_basis(m)
        assert kb.nrows == 1
        assert all(v == Fp(0, 5) or v == 0 for v in m.apply(kb.rows[0]))

    def test_solve_exact(self):
        m = Matrix(((2, 1), (1, 3)))
        sol = solve_exact(m, (5, 5))
        assert list(sol) == [2, 1]
        assert m.apply(sol) == [5, 5]
        # inconsistent system
        assert solve_exact(Matrix(((1, 1), (1, 1))), (0, 1)) is None

    def test_det_polynomial_entries(self):
        x1, x2 = MultiPoly.var(("x1", "x2"), 0), MultiPoly.var(("x1", "x2"), 1)
        m = Matrix(((x1, x2), (x2, x1)))
        assert det(m) == x1 ** 2 - x2 ** 2

    def test_empty_column_matrix(self):
        m = Matrix((), ncols=3)
        assert m.nrows == 0
        assert matrix_rank(m) == 0


@st.composite
def minor_matrices(draw):
    """(rows, field): r x n, 1 <= r <= 4, r <= n <= 6, over Z, Q or F_7.
    Half of the time one column is made plain int zeros, and for r >= 3
    half of the time the last row is a combination of the first two."""
    field = draw(st.sampled_from(("Z", "Q", "F7")))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, min(n, 4)))
    rows = [[draw(scalars(field)) for _ in range(n)] for _ in range(r)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    if r >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows, field


class TestMaximalMinors:
    @given(minor_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_det_on_every_subset(self, case):
        rows, field = case
        r, n = len(rows), len(rows[0])
        table = maximal_minors(Matrix(rows))
        nonzero = 0
        for cols in combinations(range(n), r):
            d = naive_det([[row[j] for j in cols] for row in rows])
            mask = sum(1 << j for j in cols)
            if d:
                nonzero += 1
                assert table[mask] == d
            else:
                assert mask not in table
        assert len(table) == nonzero
        for d in table.values():
            if field == "F7":
                assert isinstance(d, Fp) and d.p == 7
            elif field == "Z":
                assert type(d) is int

    def test_rows_cleared_by_different_scales(self):
        rows = (
            (Fraction(1, 2), 1, Fraction(-3, 4)),
            (1, Fraction(1, 3), 2),
        )
        table = maximal_minors(Matrix(rows))
        assert table == {
            0b011: Fraction(1, 6) - 1,
            0b101: 1 + Fraction(3, 4),
            0b110: 2 + Fraction(1, 4),
        }

    def test_rank_deficient_is_empty(self):
        assert maximal_minors(Matrix(((1, 2, 3), (2, 4, 6)))) == {}
        assert maximal_minors(Matrix(((0, 0, 0), (1, 2, 3)))) == {}
        singular = ((Fp(1, 5), Fp(2, 5)), (Fp(3, 5), Fp(1, 5)))
        assert maximal_minors(Matrix(singular)) == {}


@st.composite
def poly_matrices(draw):
    """(rows, field): square matrices of size 1..3 in x, y, z whose entries
    are zero, constants, or polynomials of total degree <= 3 with up to
    three terms; entry (0, 0) is always a MultiPoly, and one row is zero a
    fifth of the time."""
    field = draw(st.sampled_from(FIELDS))
    size = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda m: sum(m) <= 3)
    coeff = scalars(field)

    def poly():
        terms = draw(st.dictionaries(monos, coeff, max_size=3))
        return MultiPoly(XYZ, terms)

    def entry():
        kind = draw(st.sampled_from(("poly", "poly", "constant", "zero")))
        if kind == "poly":
            return poly()
        return draw(coeff) if kind == "constant" else 0

    rows = [[entry() for _ in range(size)] for _ in range(size)]
    rows[0][0] = poly()
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, size - 1))
        rows[i] = [MultiPoly.zero(XYZ) if j == 0 else 0 for j in range(size)]
    return rows, field


class TestPolyDet:
    @given(poly_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_det(self, case):
        rows, field = case
        d = det(Matrix(rows))
        assert isinstance(d, MultiPoly)
        assert d == naive_det(rows)
        if field.startswith("F"):
            assert all(isinstance(c, Fp) for c in d.terms.values())

    def test_exponent_fills_the_packed_field(self):
        # the degree bound is 3 + 3 + 1 = 7, three bits per variable, and
        # x reaches 7: a carry into y's field would show
        x, y = MultiPoly.var(XY, 0), MultiPoly.var(XY, 1)
        rows = ((x ** 3, y ** 3, 0), (0, x ** 3, 1), (0, 0, x + y))
        assert det(Matrix(rows)) == x ** 7 + x ** 6 * y
        assert det(Matrix(rows)) == naive_det(rows)

    def test_per_row_denominators(self):
        x, y = MultiPoly.var(XY, 0), MultiPoly.var(XY, 1)
        rows = (
            (x * Fraction(1, 2), Fraction(1, 3)),
            (y * Fraction(3, 4), x + y * Fraction(1, 8)),
        )
        assert det(Matrix(rows)) == naive_det(rows)

    def test_variable_lists_must_agree(self):
        with pytest.raises(ValueError):
            det(Matrix(((xvar(), 0), (0, MultiPoly.var(("x", "z"), 0)))))


@st.composite
def integer_rows(draw):
    """(rows, ncols): up to four integer rows, one more than ncols at most,
    the last a combination of the first two half of the time when k >= 2."""
    ncols = draw(st.integers(1, 5))
    k = draw(st.integers(0, min(ncols + 1, 4)))
    rows = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
        min_size=k, max_size=k,
    ))
    if k >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows, ncols


class TestFactorRows:
    @given(integer_rows())
    @settings(max_examples=300, deadline=None)
    def test_rank_and_index_match_minors_oracle(self, case):
        rows, ncols = case
        assert factor_rows(rows) == minors_rank_and_index(rows, ncols)

    def test_index_two_and_dependent_rows(self):
        # (1, 0, 0) and (1, 2, 0) span a sublattice of index 2 in their plane
        for rows, expected in [
            ([(1, 0, 0), (1, 2, 0)], (2, 2)),
            ([(1, 0, 0), (0, 1, 0)], (2, 1)),
            ([(2, 3, 0)], (1, 1)),
            ([(1, 2, 0), (2, 4, 0)], (1, 0)),
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], (2, 0)),
            ([], (0, 1)),
        ]:
            assert factor_rows(rows) == expected == minors_rank_and_index(rows, 3)

    @given(integer_rows())
    @settings(max_examples=200, deadline=None)
    def test_left_inverse(self, case):
        rows, ncols = case
        if factor_rows(rows)[0] < len(rows):
            with pytest.raises(ValueError):
                left_inverse(rows, ncols)
            return
        coords, d, adj = left_inverse(rows, ncols)
        g_r = [[row[j] for row in rows] for j in coords]
        assert d == abs(naive_det(g_r)) > 0
        k = len(rows)
        assert matmul(adj, g_r) == [[d if i == j else 0 for j in range(k)] for i in range(k)]

    @given(integer_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_membership_matches_solve_exact(self, case, data):
        rows, ncols = case
        if factor_rows(rows)[0] < len(rows):
            return
        inverse = left_inverse(rows, ncols)
        d = inverse[1]
        gens = Matrix(rows, ncols=ncols).transpose()
        for _ in range(4):
            if data.draw(st.booleans()):
                # a point of the span, inside the cone or not
                lam = data.draw(st.lists(st.integers(-1, 3), min_size=len(rows), max_size=len(rows)))
                p = [sum(c * row[j] for c, row in zip(lam, rows)) for j in range(ncols)]
            else:
                p = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
            sol = solve_exact(gens, p)
            inside = sol is not None and all(x >= 0 for x in sol)
            y = cone_coordinates(rows, inverse, p)
            assert (y is not None) == inside
            if inside:
                assert y == [d * x for x in sol]
