"""Acceptance gate: one test per advertised guarantee, each printing a
single pass line (visible under pytest -s; the -v test id doubles as one).

Every expected value here was either computed by an independent oracle in
tests/oracles.py, derived by hand and frozen, or is checked bidirectionally
(two independent routes must agree).  Timed claims use perf_counter.
"""

import random
import time
from itertools import combinations

from confan.arith import Matrix
from confan.charp import certificates, row_reduce_to_standard, spair_reduction_check
from confan.classes import (
    a_invariant,
    chow_bidegree,
    motivic_class,
    resolution_betti,
)
from confan.config import (
    config_from_graph,
    config_new,
    psi_basis_expansion,
    psi_det,
)
from confan.fans import (
    Fan,
    biflat_label,
    cones_off_coordinate_fans,
    delta_tilde_fan,
    divisor_incidence,
    fibre_fan,
    non_unimodular_cones,
    refines,
    square_conormal_fan,
)
from confan.matroid import (
    ClassPoly,
    flats,
    is_round,
    mask_of,
    matroid_from_matrix,
    rank_of,
    subset_label,
    uniform_matroid,
)

from .conftest import random_config
from .incidence import (
    dual_config,
    duality_map,
    jacobian_rank,
    matrix_rank,
    nonround_flats,
    on_lambda,
    sample_stratum_point,
    sample_torus_point,
    singular_witness,
)
from .oracles import biprojective_incidence_count, parse_biflat_label
from .test_classes import x_motivic_example

SUITE_START = time.perf_counter()

SQUARE_CHORD_ROWS = ((1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1))
SQUARE_CHORD_EDGES = [("a", "c"), ("a", "b"), ("c", "d"), ("b", "c"), ("d", "a")]


def fresh_square_chord():
    return config_new(Matrix(SQUARE_CHORD_ROWS))


def report(n, text):
    print("criterion %d: PASS - %s" % (n, text))


def test_criterion_01_psi_eight_terms_under_one_second():
    t0 = time.perf_counter()
    c = config_from_graph(SQUARE_CHORD_EDGES)
    psi = psi_basis_expansion(c)
    elapsed = time.perf_counter() - t0
    expected = {
        tuple(1 if i in b else 0 for i in range(5)): 1
        for b in combinations(range(5), 3)
        if set(b) not in ({0, 1, 3}, {0, 2, 4})
    }
    assert psi.terms == expected
    assert len(psi.terms) == 8
    assert set(psi.terms.values()) == {1}
    assert elapsed < 1.0, "took %.3fs" % elapsed
    report(1, "graph psi has the 8 unit monomials (%.3fs)" % elapsed)


def test_criterion_02_det_route_equals_basis_expansion():
    assert psi_det(fresh_square_chord()) == psi_basis_expansion(fresh_square_chord())
    u34 = config_new(Matrix(((1, 1, 0, 0), (0, 0, 1, 1), (1, 2, 4, 8))))
    psi = psi_det(u34)
    assert psi == psi_basis_expansion(u34)
    assert sorted(psi.terms.values()) == [1, 1, 16, 16]
    rng = random.Random(20260817)
    for _ in range(20):
        c = random_config(rng, max_n=7)
        assert psi_det(c) == psi_basis_expansion(c)
    report(2, "det route = basis expansion on square-chord, the 4-column witness, 20 random")


def test_criterion_03_roundness():
    for r in range(1, 4):
        for n in range(r + 1, 8):
            assert is_round(uniform_matroid(r, n)) == (n >= 2 * r - 1)
    c = fresh_square_chord()
    assert not is_round(c.matroid)
    labels = sorted(subset_label(f, 5) for f in nonround_flats(c))
    assert labels == ["124", "135"]
    report(3, "uniform threshold n >= 2r-1 exhaustive (r<=3, n<=7); square-chord flats 124, 135")


def test_criterion_04_jacobian_dichotomy():
    c = fresh_square_chord()
    m = c.matroid
    for elems in ((1, 2, 4), (1, 3, 5)):
        p = singular_witness(c, mask_of(elems))
        assert on_lambda(c, p)
        assert jacobian_rank(c, p) == 2
    full = (1 << 5) - 1
    spanning_flats = [
        f for f in flats(m) if f != full and rank_of(m, full & ~f) == m.r
    ]
    assert len(spanning_flats) == 10
    rng = random.Random(4)
    checked = 0
    while checked < 50:
        flat = spanning_flats[checked % len(spanning_flats)]
        p = sample_stratum_point(c, flat, rng)
        assert on_lambda(c, p)
        jac = jacobian_rank(c, p)
        assert jac == 3
        # rank bounds: rank(M minus F) <= jac <= rank(supp beta cup (E-F))
        rest = full & ~flat
        support = mask_of([i for i, b in enumerate(p.beta, 1) if b != 0])
        assert rank_of(m, rest) <= jac <= rank_of(m, (support & flat) | rest)
        checked += 1
    report(4, "witness points rank 2; 50 stratum samples rank 3 with bounds")


def test_criterion_05_square_conormal_fan_under_ten_seconds():
    t0 = time.perf_counter()
    fan = square_conormal_fan(matroid_from_matrix(Matrix(SQUARE_CHORD_ROWS)))
    elapsed = time.perf_counter() - t0
    expected_rays = {
        "124⊆E", "135⊆E", "1⊆1", "1⊆E", "23⊆E", "25⊆E", "34⊆E", "45⊆E",
        "2⊆24", "2⊆E", "3⊆35", "3⊆E", "4⊆24", "4⊆E", "5⊆35", "5⊆E",
        "∅⊆1", "∅⊆24", "∅⊆35",
    }
    assert set(fan.labels) == expected_rays
    assert len(fan.rays) == 19
    assert len(fan.maximal) == 56
    assert elapsed < 10.0, "took %.3fs" % elapsed
    report(5, "19 biflat rays, 56 maximal cones (%.3fs)" % elapsed)


def _criterion_matroids():
    yield "U_{2,3}", uniform_matroid(2, 3)
    yield "U_{2,4}", uniform_matroid(2, 4)
    yield "U_{2,5}", uniform_matroid(2, 5)
    yield "square-chord", matroid_from_matrix(Matrix(SQUARE_CHORD_ROWS))


def test_criterion_06_unimodular_and_coordinate_maps():
    for name, m in _criterion_matroids():
        fan = delta_tilde_fan(m)
        # every face, each read as a maximal cone
        faces = Fan(fan.n, fan.rays, fan.labels, fan.cones)
        assert non_unimodular_cones(faces) == [], name
        assert cones_off_coordinate_fans(fan) == ([], []), name
    report(6, "unimodularity and both projections on U_{2,3..5} and square-chord")


def test_criterion_07_refinement_certificates():
    for name, m in _criterion_matroids():
        assert refines(m, delta_tilde_fan(m)) is None, name
    report(7, "facet-matching refinement certificate on all four matroids")


def test_criterion_08_motivic_classes_and_point_counts():
    square_chord = matroid_from_matrix(Matrix(SQUARE_CHORD_ROWS))
    assert motivic_class(square_chord) == ClassPoly([1, 2, 4, 1], "L")
    assert x_motivic_example() == ClassPoly([1, 1, 2, 1], "L")
    assert motivic_class(uniform_matroid(2, 3)) == ClassPoly([1, 1], "L")
    cases = [
        (SQUARE_CHORD_ROWS, square_chord),
        (((1, 0, 1), (0, 1, 1)), uniform_matroid(2, 3)),
        (((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)), uniform_matroid(3, 4)),
    ]
    for q in (2, 3):
        for rows, m in cases:
            r, n = len(rows), len(rows[0])
            same_matroid = all(
                (matrix_rank(Matrix(
                    tuple(tuple(x % q for x in row) for row in
                          Matrix(rows).column_submatrix(list(cols)).rows)
                )) == r) == (mask_of([i + 1 for i in cols]) in m.bases)
                for cols in combinations(range(n), r)
            )
            assert same_matroid, "mod-%d realization changed the matroid" % q
            count = biprojective_incidence_count([list(r) for r in rows], q)
            assert motivic_class(m).evaluate(q) == count, (rows, q)
    report(8, "frozen class polynomials; F_2/F_3 brute-force counts agree")


def test_criterion_09_chow_betti_a_invariant():
    bd = chow_bidegree(5, 3)
    assert str(bd) == "H^5+3H^4H*+3H^3H*^2+H^2H*^3"
    from math import comb

    for r in range(1, 6):
        n = r + 2
        table = resolution_betti(n, r)
        assert len(table.rows) == r + 1
        assert table.type() == r
        assert sum((-1) ** i * table.rank(i) for i in range(r + 1)) == 0
        assert a_invariant(n, r) == r - 1 - n
        for i in range(1, r):
            assert table.rows[i] == (
                (-2 * i, comb(r, i)), (-(r + i - 1), comb(r, i - 1))
            )
        assert table.rows[r] == ((1 - 2 * r, r),)
    report(9, "bidegree (5,3) frozen; Betti rows, type, a-invariant for r <= 5")


def test_criterion_10_positive_characteristic_certificates():
    c = fresh_square_chord()
    std, perm = row_reduce_to_standard(c)
    assert perm == (0, 1, 2, 3, 4)
    rng = random.Random(10)
    for _ in range(10):
        cand, _ = row_reduce_to_standard(random_config(rng, max_n=6))
        assert spair_reduction_check(cand)
    for p in (2, 3, 5, 7):
        _, perm, cert, fcert = certificates(c, p)
        assert perm == (0, 1, 2, 3, 4)
        assert cert["verdict"] == fcert["verdict"] == "pass"
        assert cert["leads"] == ["x1*u1", "x2*u2", "x3*u3"]
        assert fcert["witness_exponent"] == p - 1
    assert spair_reduction_check(std)
    report(10, "lead terms, Fedder witnesses p in {2,3,5,7}, S-pairs reduce")


def test_criterion_11_duality_identity():
    def check_identity(c):
        # complement form of the Laurent identity: flipping every exponent
        # of psi_dual through 1-e must reproduce psi exactly, which encodes
        # psi_W(beta) = psi_dual(1/beta) * prod(beta) with no sign slack
        psi = psi_basis_expansion(c)
        psi_dual = psi_basis_expansion(dual_config(c))
        flipped = {
            tuple(1 - e for e in mono): coeff
            for mono, coeff in psi_dual.terms.items()
        }
        assert flipped == psi.terms

    check_identity(fresh_square_chord())
    rng = random.Random(11)
    for _ in range(10):
        check_identity(random_config(rng, max_n=6))
    c = fresh_square_chord()
    d = dual_config(c)
    for _ in range(20):
        p = sample_torus_point(c, rng)
        q = duality_map(c, p)
        assert on_lambda(d, q)
        back = duality_map(d, q)
        assert back.v == p.v and back.beta == p.beta
    report(11, "exact dual identity on square-chord and 10 random; 20 torus round-trips")


def test_criterion_12_fibre_fans_and_divisor_incidence():
    m = matroid_from_matrix(Matrix(SQUARE_CHORD_ROWS))
    four = fibre_fan(m, mask_of([1]), mask_of([2, 3, 4, 5]))
    assert sorted(four.labels) == sorted(["∅⊆24", "∅⊆35", "1⊆1", "1⊆E"])
    seven = fibre_fan(m, mask_of([1, 2, 4]), mask_of([2, 3, 4, 5]))
    assert sorted(seven.labels) == sorted(
        ["∅⊆24", "∅⊆35", "1⊆1", "1⊆E", "2⊆24", "4⊆24", "124⊆E"]
    )
    pair = lambda a, b: [parse_biflat_label(a, 5), parse_biflat_label(b, 5)]
    assert divisor_incidence(pair("1⊆1", "1⊆E"), 5) is True
    assert divisor_incidence(pair("∅⊆24", "∅⊆35"), 5) is False
    report(12, "4-ray and 7-ray fibre fans; incidence pairs as drawn")


def test_suite_runtime_budget():
    elapsed = time.perf_counter() - SUITE_START
    assert elapsed < 300.0, "acceptance suite took %.1fs" % elapsed
    print("acceptance suite elapsed: %.1fs (budget 300s)" % elapsed)
