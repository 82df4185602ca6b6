from itertools import combinations

import pytest

from confan.classes import (
    BiDegree,
    a_invariant,
    chow_bidegree,
    cohomology_basis,
    is_truncation_boundary,
    motivic_class,
    resolution_betti,
)
from confan.config import psi_basis_expansion
from confan.errors import Degenerate, HasLoops, NonDivisible, NotConnected, NotRound
from confan.matroid import (
    ClassPoly,
    contract,
    contraction_char_polys,
    flats,
    matroid_from_bases,
    matroid_from_graph,
    rank_of,
    reduced_char_poly,
    uniform_matroid,
)

from .oracles import (
    biprojective_incidence_count,
    motivic_class_per_flat,
    projective_hypersurface_count,
)
from .test_matroid import SWEEP_CASES, wheel


def _wheel_example_matroid():
    # rank 3 on 5 elements; the two dependent triples are 124 and 135
    bases = [
        b
        for b in [
            (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
            (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5),
        ]
        if set(b) not in ({1, 2, 4}, {1, 3, 5})
    ]
    return matroid_from_bases(5, bases)


def x_motivic_example():
    """Class of the hypersurface cut out by the degeneracy locus for the
    fixed five-element rank-3 example, from the incidence class by
    inclusion-exclusion over the fibre structure."""
    lam = motivic_class(_wheel_example_matroid())
    ell = ClassPoly([1, 1], "L")
    two_ell = ClassPoly([1, 2], "L")
    return two_ell + lam - ell * two_ell


def contraction_route(m):
    """[Lambda] as the sum over proper flats F of the reduced characteristic
    polynomial of M/F, each contraction built as a matroid with its own
    lattice, times [P^(n - rank(E minus F) - 1)]."""
    total = ClassPoly([], "L")
    for f in (f for f in flats(m) if f != m.ground):
        chi = reduced_char_poly(contract(m, f)).with_symbol("L")
        total = total + chi * ClassPoly([1] * (m.n - rank_of(m, m.ground & ~f)), "L")
    return total


class TestMotivicClass:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: matroid_from_graph([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]),
            lambda: matroid_from_graph(list(combinations(range(4), 2))),
            lambda: matroid_from_graph(wheel(4)),
            lambda: uniform_matroid(3, 6),
            _wheel_example_matroid,
        ],
        ids=["square-chord", "K4", "W4", "U36", "wheel-example"],
    )
    def test_equals_contraction_route(self, build):
        m = build()
        assert motivic_class(m) == contraction_route(m)

    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_equals_per_flat_sum(self, name):
        m = SWEEP_CASES[name]()
        assert list(motivic_class(m).coeffs) == motivic_class_per_flat(m)

    def test_each_flat_must_vanish_at_one(self, square_chord_matroid, monkeypatch):
        # 1 and 2 are flats of one weight class, n - rank(E minus F) = 2:
        # moving a constant term from chi(M/1) to chi(M/2) leaves their sum
        # divisible by t - 1, and the check flat by flat still fails
        m = square_chord_matroid
        polys = dict(contraction_char_polys(m))
        one, two = 0b1, 0b10
        assert {m.n - rank_of(m, m.ground & ~f) for f in (one, two)} == {2}
        polys[one] = polys[one] + ClassPoly([1], "t")
        polys[two] = polys[two] - ClassPoly([1], "t")
        monkeypatch.setattr("confan.classes.contraction_char_polys", lambda _: polys)
        with pytest.raises(NonDivisible, match=r"chi\(M/F\)\(1\) = 1, not 0, at F = 1$"):
            motivic_class(m)

    def test_square_chord_frozen(self, square_chord_matroid):
        assert motivic_class(square_chord_matroid) == ClassPoly([1, 2, 4, 1], "L")

    def test_round_case_is_product_of_projective_spaces(self):
        # for round matroids the class collapses to [P^(r-1)] x [P^(n-r-1)]
        for r, n in ((2, 3), (2, 5), (3, 5), (3, 6)):
            m = uniform_matroid(r, n)
            expected = ClassPoly([1] * r, "L") * ClassPoly([1] * (n - r), "L")
            assert motivic_class(m) == expected

    def test_nonround_differs_from_product(self, square_chord_matroid):
        product = ClassPoly([1, 1, 1], "L") * ClassPoly([1, 1], "L")
        assert motivic_class(square_chord_matroid) != product

    def test_rejects_loops_and_disconnected(self):
        with pytest.raises(HasLoops):
            motivic_class(matroid_from_bases(3, [(1,), (2,)]))
        with pytest.raises(NotConnected):
            motivic_class(matroid_from_bases(4, [(1, 3), (1, 4), (2, 3), (2, 4)]))

    @pytest.mark.parametrize("q", [2, 3])
    def test_point_count_specialization_square_chord(self, square_chord_matrix, square_chord_matroid, q):
        # evaluating the class at q counts F_q points of the incidence locus
        rows = [list(map(int, row)) for row in square_chord_matrix.rows]
        assert motivic_class(square_chord_matroid).evaluate(q) == (
            biprojective_incidence_count(rows, q)
        )

    @pytest.mark.parametrize(
        "rows,q",
        [
            (((1, 0, 1), (0, 1, 1)), 2),           # U_{2,3}
            (((1, 0, 1), (0, 1, 1)), 3),
            (((1, 0, 1, 1), (0, 1, 1, 2)), 3),     # U_{2,4}
            (((1, 0, 1, 1, 1), (0, 1, 1, 2, 3)), 5),  # U_{2,5}
        ],
    )
    def test_point_count_specialization_uniform(self, rows, q):
        from itertools import combinations

        from confan.arith import Matrix
        from confan.matroid import matroid_from_matrix

        m = matroid_from_matrix(Matrix(rows))
        # columns stay pairwise independent mod q, so the matroid survives
        r, n = len(rows), len(rows[0])
        assert all(
            _det_mod(rows, cols, q) != 0
            for cols in combinations(range(n), r)
        )
        assert motivic_class(m).evaluate(q) == (
            biprojective_incidence_count([list(r) for r in rows], q)
        )


def _det_mod(rows, cols, q):
    sub = [[rows[i][j] for j in cols] for i in range(len(rows))]
    assert len(sub) == 2
    return (sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]) % q


class TestXMotivicExample:
    def test_frozen_polynomial(self):
        assert x_motivic_example() == ClassPoly([1, 1, 2, 1], "L")

    def test_f2_count_matches_hypersurface(self, square_chord_config):
        # [X] at q counts projective F_q points of the vanishing locus
        psi = psi_basis_expansion(square_chord_config)

        def ev(point):
            return int(psi.evaluate([int(x) for x in point]))

        for q in (2, 3):
            assert x_motivic_example().evaluate(q) == (
                projective_hypersurface_count(ev, 5, q)
            )

    def test_lambda_value_at_two(self, square_chord_matroid):
        assert motivic_class(square_chord_matroid).evaluate(2) == 29
        assert x_motivic_example().evaluate(2) == 19


class TestChowBidegree:
    def test_square_chord(self):
        bd = chow_bidegree(5, 3)
        assert bd == BiDegree({(5, 0): 1, (4, 1): 3, (3, 2): 3, (2, 3): 1})
        assert str(bd) == "H^5+3H^4H*+3H^3H*^2+H^2H*^3"

    def test_total_is_power_of_two(self):
        for r, n in ((2, 4), (3, 5), (2, 5)):
            assert sum(chow_bidegree(n, r).coeffs.values()) == 2 ** r


class TestCohomology:
    def test_u25(self):
        assert cohomology_basis(uniform_matroid(2, 5)) == (1, 2, 2, 1)

    def test_u23_boundary(self):
        m = uniform_matroid(2, 3)
        assert is_truncation_boundary(m)
        assert cohomology_basis(m) == (1, 1)

    def test_u35(self):
        m = uniform_matroid(3, 5)
        assert is_truncation_boundary(m)
        assert cohomology_basis(m) == (1, 2, 2, 1)

    def test_total_rank(self):
        # the quotient has rank r * (n - r)
        for r, n in ((2, 4), (2, 5), (3, 5), (3, 6), (2, 6)):
            assert sum(cohomology_basis(uniform_matroid(r, n))) == r * (n - r)

    def test_rejects_nonround(self, square_chord_matroid):
        with pytest.raises(NotRound):
            cohomology_basis(square_chord_matroid)

    def test_rejects_rank_one(self):
        with pytest.raises(Degenerate):
            cohomology_basis(uniform_matroid(1, 3))


class TestBetti:
    def test_square_chord_shape(self):
        t = resolution_betti(5, 3)
        assert t.rows[0] == ((0, 1),)
        assert t.rows[1] == ((-2, 3), (-3, 1))
        assert t.rows[2] == ((-4, 3), (-4, 3))
        assert t.rows[3] == ((-5, 3),)
        assert t.type() == 3
        assert str(t).splitlines()[0] == "F0 = R(0)^1"

    @pytest.mark.parametrize("r,n", [(1, 2), (2, 4), (3, 5), (4, 7), (5, 9)])
    def test_euler_characteristic_vanishes(self, r, n):
        t = resolution_betti(n, r)
        assert len(t.rows) == r + 1
        assert sum((-1) ** i * t.rank(i) for i in range(len(t.rows))) == 0
        assert t.type() == r

    def test_first_syzygies_count(self):
        # F1 always has rank C(r,1) + C(r,0) = r + 1: the r quadrics plus psi
        for r, n in ((2, 4), (3, 5), (4, 6)):
            assert resolution_betti(n, r).rank(1) == r + 1

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            resolution_betti(3, 3)


class TestAInvariant:
    def test_values(self):
        assert a_invariant(5, 3) == -3
        assert a_invariant(4, 2) == -3
        assert a_invariant(5, 2) == -4

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            a_invariant(2, 2)
