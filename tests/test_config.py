import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import confan.config
from confan.arith import Fp, Matrix, MultiPoly, det, maximal_minors
from confan.config import (
    Configuration,
    config_from_graph,
    config_new,
    first_basis,
    lambda_system,
    psi_basis_expansion,
    psi_det,
    q_w_matrix,
)
from confan.errors import (
    Degenerate,
    HasLoops,
    Mismatch,
    NotConnected,
    RankDeficient,
)
from confan.inputs import load_configuration
from confan.matroid import (
    elements_of,
    flats,
    mask_of,
    matroid_from_matrix,
    rank_of,
    subset_label,
)

from .conftest import random_config
from .incidence import (
    NotOnLambda,
    Point,
    XRankClass,
    ZeroCoordinate,
    dual_config,
    duality_map,
    hadamard_square,
    iota_differential_check,
    jacobian_rank,
    matrix_rank,
    nonround_flats,
    on_lambda,
    sample_stratum_point,
    sample_torus_point,
    singular_witness,
    span_coordinates,
    x_rank_class,
)
from .oracles import matmul, naive_det, psi_by_det, spanning_tree_count


class TestConstruction:
    def test_rejects_rank_deficient(self):
        with pytest.raises(RankDeficient):
            config_new(Matrix(((1, 2, 3), (2, 4, 6))))

    def test_rejects_zero_column(self):
        with pytest.raises(HasLoops):
            config_new(Matrix(((1, 0, 1), (0, 0, 1))))

    def test_degenerate_square(self):
        with pytest.raises(Degenerate):
            config_new(Matrix(((1,),)))

    def test_error_order(self):
        # Degenerate before RankDeficient before HasLoops
        with pytest.raises(Degenerate):
            config_new(Matrix(((0, 0), (0, 0))))
        with pytest.raises(RankDeficient):
            config_new(Matrix(((1, 0, 2), (2, 0, 4))))
        with pytest.raises(HasLoops):
            config_new(Matrix(((1, 0, 2), (0, 0, 1))))

    def test_minor_table_is_kept(self, square_chord_config):
        c = square_chord_config
        assert set(c.minors) == set(c.matroid.bases)
        for mask, minor in c.minors.items():
            cols = [e - 1 for e in elements_of(mask)]
            assert minor == naive_det([[row[j] for j in cols] for row in c.a.rows])

    def test_minor_table_is_built_on_first_read(self, square_chord_matrix):
        c = Configuration(square_chord_matrix)
        table = c.minors
        assert table == maximal_minors(square_chord_matrix)
        assert c.minors is table

    def test_matroid_is_built_once_from_the_minors(self, rng):
        for _ in range(20):
            c = random_config(rng, max_n=6)
            m = c.matroid
            assert m == matroid_from_matrix(c.a, c.minors)
            assert m.bases == matroid_from_matrix(c.a).bases
            assert c.matroid is m

    def test_first_basis_is_the_greedy_column_basis(self, rng):
        # the pivot columns: each column that raises the rank of those before
        for _ in range(30):
            c = random_config(rng, max_n=7)
            greedy = []
            for j in range(c.n):
                if matrix_rank(c.a.column_submatrix(greedy + [j])) > len(greedy):
                    greedy.append(j)
            assert first_basis(c) == tuple(greedy)
            # the least mask among the bases
            assert first_basis(c) == tuple(j for j in range(c.n) if min(c.minors) >> j & 1)
        # the first two columns are parallel: the first basis skips the second
        assert first_basis(config_new(Matrix(((1, 2, 0, 1), (0, 0, 1, 1))))) == (0, 2)

    def test_graph_square_with_chord(self, square_chord_config):
        edges = [("a", "c"), ("a", "b"), ("c", "d"), ("b", "c"), ("d", "a")]
        c = config_from_graph(edges)
        assert c.matroid.bases == square_chord_config.matroid.bases
        assert psi_basis_expansion(c) == psi_basis_expansion(square_chord_config)


class TestPsi:
    def test_square_chord_psi_frozen(self, square_chord_config):
        psi = psi_basis_expansion(square_chord_config)
        names = psi.variables
        expected = {}
        for basis in combinations(range(5), 3):
            mono = tuple(1 if i in basis else 0 for i in range(5))
            expected[mono] = 1
        # the two non-bases 124 and 135 drop out
        del expected[(1, 1, 0, 1, 0)]
        del expected[(1, 0, 1, 0, 1)]
        assert names == ("x1", "x2", "x3", "x4", "x5")
        assert psi.terms == expected
        assert psi == psi_det(square_chord_config)

    def test_u34_witness_coefficients(self):
        # rows realize U_{3,4}; squared maximal minors are 1,1,16,16
        c = config_new(Matrix(((1, 1, 0, 0), (0, 0, 1, 1), (1, 2, 4, 8))))
        psi = psi_basis_expansion(c)
        assert sorted(psi.terms.values()) == [1, 1, 16, 16]
        assert psi == psi_det(c)

    def test_graphic_psi_counts_spanning_trees(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "a")]
        c = config_from_graph(edges)
        psi = psi_basis_expansion(c)
        ones = [1] * c.n
        assert psi.evaluate(ones) == spanning_tree_count("abcd", edges)
        # graphic realizations are unimodular: every coefficient is 1
        assert set(psi.terms.values()) == {1}

    def test_det_equals_expansion_random(self, rng):
        for _ in range(20):
            c = random_config(rng, max_n=7)
            assert psi_det(c) == psi_basis_expansion(c)

    def test_det_route_ignores_the_minor_table(self):
        rows = ((1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 2))
        psi = psi_basis_expansion(config_new(Matrix(rows)))
        c = config_new(Matrix(rows))
        c.minors[min(c.minors)] *= 2
        # the determinant still gives the untampered psi, so the cross-check
        # fails: its pass is earned
        assert psi_by_det(c) == psi
        with pytest.raises(Mismatch):
            psi_det(c)

    @pytest.mark.parametrize("field", [None, 7])
    def test_pivot_block_factor_is_checked(self, field, monkeypatch):
        # det(A_P) = 2 on the pivot columns 1 and 3: without the factor
        # det(A_P)^2 the determinant route gives psi / 4
        rows = ((2, 4, 0, 1), (0, 0, 1, 1))
        if field:
            rows = tuple(tuple(Fp(x, field) for x in row) for row in rows)
        c = config_new(Matrix(rows))
        assert first_basis(c) == (0, 2)
        assert psi_det(c) == psi_by_det(c)

        def without_pivot_block(m):
            return det(m) if isinstance(m[0, 0], MultiPoly) else 1

        monkeypatch.setattr(confan.config, "det", without_pivot_block)
        with pytest.raises(Mismatch):
            psi_det(c)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([None, 7]))
    def test_det_route_matches_the_direct_determinant(self, data, field):
        # psi_det's determinant over the row-reduced matrix against the
        # determinant of A diag(x) A^T on A itself, with pivots anywhere
        r = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(r + 1, 6))
        entries = st.sampled_from(
            (-3, -2, -1, 0, 1, 2, 3) + (() if field else (Fraction(1, 2), Fraction(-3, 4)))
        )
        rows = [[data.draw(entries) for _ in range(n)] for _ in range(r)]
        if data.draw(st.booleans()):
            # column 2 a multiple of column 1: never a pivot
            k = data.draw(st.sampled_from((-2, 1, 3)))
            for row in rows:
                row[1] = k * row[0]
        if field:
            rows = [[Fp(x, field) for x in row] for row in rows]
        try:
            c = config_new(Matrix(rows))
        except (Degenerate, RankDeficient, HasLoops):
            assume(False)
        assert psi_det(c) == psi_by_det(c) == psi_basis_expansion(c)

    def test_fp_config_psi(self):
        c = config_new(
            Matrix(((Fp(1, 7), Fp(0, 7), Fp(3, 7)), (Fp(0, 7), Fp(1, 7), Fp(5, 7))))
        )
        assert psi_det(c) == psi_basis_expansion(c)


class TestLambdaSystem:
    def test_shapes_and_variables(self, square_chord_config):
        qs = lambda_system(square_chord_config)
        assert len(qs) == 3
        assert qs[0].variables == (
            "x1", "x2", "x3", "x4", "x5", "u1", "u2", "u3",
        )

    def test_q_is_bilinear(self, square_chord_config):
        # each q_i is degree 1 in x and degree 1 in u
        for q in lambda_system(square_chord_config):
            for mono in q.terms:
                assert sum(mono[:5]) == 1 and sum(mono[5:]) == 1

    def test_q_matches_matrix_product(self, square_chord_config):
        # evaluate q_i at concrete (beta, w): must equal (A D_beta A^T w)_i
        qs = lambda_system(square_chord_config)
        beta = [1, 2, 3, 4, 5]
        w = [1, -1, 2]
        a = square_chord_config.a
        d = Matrix(tuple(
            tuple(beta[i] if i == j else 0 for j in range(5)) for i in range(5)
        ))
        expected = Matrix(matmul(matmul(a.rows, d.rows), a.transpose().rows)).apply(w)
        got = [q.evaluate(tuple(beta) + tuple(w)) for q in qs]
        assert got == expected

    def test_point_membership(self, square_chord_config):
        # beta on the rational line (1,1,1,1,t): psi = 3 + 5t, root t=-3/5
        beta = [1, 1, 1, 1, Fraction(-3, 5)]
        psi = psi_basis_expansion(square_chord_config)
        assert psi.evaluate(beta) == 0
        qw = q_w_matrix(square_chord_config)
        m = Matrix(tuple(
            tuple(e.evaluate(beta) for e in row) for row in qw.rows
        ))
        assert matrix_rank(m) == 2
        assert x_rank_class(square_chord_config, beta) is XRankClass.SMOOTH


class TestXRankClass:
    def test_three_classes(self, square_chord_config):
        assert x_rank_class(square_chord_config, [1, 1, 1, 1, 1]) is XRankClass.OFF_X
        assert (
            x_rank_class(square_chord_config, [1, 1, 1, 1, Fraction(-3, 5)])
            is XRankClass.SMOOTH
        )
        # beta supported on the complement of a nonround flat drops rank by 2
        witness = singular_witness(square_chord_config, mask_of([1, 2, 4]))
        assert x_rank_class(square_chord_config, witness.beta) is XRankClass.SINGULAR_ON_X

    def test_enum_labels(self):
        assert XRankClass.OFF_X.value == "OffX"
        assert XRankClass.SMOOTH.value == "Smooth"
        assert XRankClass.SINGULAR_ON_X.value == "SingularOnX"


class TestNonroundFlats:
    def test_square_chord(self, square_chord_config):
        nf = nonround_flats(square_chord_config)
        assert sorted(subset_label(f, 5) for f in nf) == ["124", "135"]

    def test_round_config_has_none(self):
        c = config_new(Matrix(((1, 0, 1, 1), (0, 1, 1, 2))))  # U_{2,4}
        assert nonround_flats(c) == []

    def test_requires_connected(self):
        c = config_new(Matrix(((1, 1, 0, 0), (0, 0, 1, 1))))
        with pytest.raises(NotConnected):
            nonround_flats(c)


class TestWitnesses:
    @pytest.mark.parametrize("flat_elems", [(1, 2, 4), (1, 3, 5)])
    def test_square_chord_singular_witnesses(self, square_chord_config, flat_elems):
        flat = mask_of(flat_elems)
        p = singular_witness(square_chord_config, flat)
        assert on_lambda(square_chord_config, p)
        assert jacobian_rank(square_chord_config, p) == 2
        assert x_rank_class(square_chord_config, p.beta) is XRankClass.SINGULAR_ON_X
        # beta is supported away from part of the flat
        assert all(b == 0 for i, b in enumerate(p.beta, start=1)
                   if i not in flat_elems and mask_of([i]) & flat)

    def test_square_chord_expected_vectors(self, square_chord_config):
        p124 = singular_witness(square_chord_config, mask_of([1, 2, 4]))
        p135 = singular_witness(square_chord_config, mask_of([1, 3, 5]))
        assert p124.beta == [1, 0, 0, 0, 0] and p135.beta == [1, 0, 0, 0, 0]
        # v = A^T w at w = (0, 0, 1) and (0, 1, 0)
        at = square_chord_config.a.transpose()
        assert p124.v == at.apply([0, 0, 1]) and p135.v == at.apply([0, 1, 0])

    def test_smooth_at_generic_stratum(self, square_chord_config, rng):
        # over the empty flat the fibre is generic: full jacobian rank
        p = sample_stratum_point(square_chord_config, 0, rng)
        assert on_lambda(square_chord_config, p)
        assert jacobian_rank(square_chord_config, p) == 3

    def test_jacobian_rank_bounds(self, square_chord_config, rng):
        # rank(M minus F(w)) <= jac rank <= rank(support(beta) cup (E - F(w)))
        m = square_chord_config.matroid
        full = (1 << m.n) - 1
        for flat in nonround_flats(square_chord_config) + [0]:
            for _ in range(5):
                p = sample_stratum_point(square_chord_config, flat, rng)
                jac = jacobian_rank(square_chord_config, p)
                rest = full & ~flat
                lo = rank_of(m, rest)
                support = mask_of(
                    [i for i, b in enumerate(p.beta, start=1) if b != 0]
                )
                hi = rank_of(m, (support & flat) | rest)
                assert lo <= jac <= hi


class TestIncidenceForms:
    """jacobian_rank and on_lambda read the forms of lambda_system; here they
    are checked against the block matrix written out, over Q and F_7."""

    @pytest.fixture(params=["square_chord", "k4", "f7"])
    def config(self, request, square_chord_config, data_dir):
        if request.param == "square_chord":
            return square_chord_config
        if request.param == "k4":
            return config_from_graph(combinations(range(4), 2))
        return load_configuration(str(data_dir / "f7_3x7.mat.json"))

    def points(self, c, seed):
        # every proper flat's stratum, the singular witnesses, the torus, and
        # w = 0 with a sparse beta, where the rank is that of beta's support
        rng = random.Random(seed)
        proper = [f for f in flats(c.matroid) if f != c.matroid.ground]
        pts = [sample_stratum_point(c, f, rng) for f in proper for _ in range(2)]
        pts += [singular_witness(c, f) for f in nonround_flats(c)]
        pts += [sample_torus_point(c, rng) for _ in range(5)]
        for _ in range(3):
            beta = [rng.choice((0, 0, 1, -2)) for _ in range(c.n)]
            pts.append(Point([0] * c.n, beta))
        return pts

    @pytest.mark.parametrize("seed", [3, 11])
    def test_jacobian_is_the_block_matrix(self, config, seed):
        a, r, n = config.a, config.r, config.n
        for p in self.points(config, seed):
            rows = [
                [sum(a[i, k] * p.beta[k] * a[j, k] for k in range(n)) for j in range(r)]
                + [a[i, k] * p.v[k] for k in range(n)]
                for i in range(r)
            ]
            assert on_lambda(config, p)
            assert jacobian_rank(config, p) == matrix_rank(Matrix(rows, ncols=r + n))

    def test_v_off_the_row_span_is_refused(self, square_chord_config):
        # A^T w = (w1, w2, w3, w1 + w2, w1 + w3): the row span is cut out by
        # v4 = v1 + v2 and v5 = v1 + v3; (1, 0, 0, 0, 1) breaks the first and
        # [7] * 5 both
        for v in ([1, 0, 0, 0, 1], [7] * 5):
            p = Point(v, [1, 1, 1, 1, 1])
            with pytest.raises(NotOnLambda):
                on_lambda(square_chord_config, p)
            with pytest.raises(NotOnLambda):
                jacobian_rank(square_chord_config, p)


class TestHadamard:
    def test_square_chord_values(self, square_chord_config):
        # (A^T w) squared coordinatewise at w = (1,1,1): minors give 1,1,1,4,4
        assert hadamard_square(square_chord_config, [1, 1, 1]) == [1, 1, 1, 4, 4]

    def test_square_of_sum(self, square_chord_config, rng):
        w = [rng.randint(-5, 5) for _ in range(3)]
        v = square_chord_config.a.transpose().apply(w)
        assert hadamard_square(square_chord_config, w) == [x * x for x in v]


class TestDuality:
    def test_dual_config_psi_identity_symbolic(self, square_chord_config):
        # psi_W(x) = psi_dual(x flipped through complements), exact
        c = square_chord_config
        d = dual_config(c)
        psi = psi_basis_expansion(c)
        psi_dual = psi_basis_expansion(d)
        flipped = {}
        for mono, coeff in psi_dual.terms.items():
            flipped[tuple(1 - e for e in mono)] = coeff
        assert flipped == psi.terms

    def test_dual_config_random(self, rng):
        for _ in range(10):
            c = random_config(rng, max_n=6)
            d = dual_config(c)
            assert d.r == c.n - c.r
            # kernel property: D A^T = 0
            prod = matmul(d.a.rows, c.a.transpose().rows)
            assert all(x == 0 for row in prod for x in row)
            psi = psi_basis_expansion(c)
            psi_dual = psi_basis_expansion(d)
            flipped = {
                tuple(1 - e for e in mono): coeff
                for mono, coeff in psi_dual.terms.items()
            }
            assert flipped == psi.terms

    def test_duality_map_involution_on_torus(self, square_chord_config, rng):
        c = square_chord_config
        d = dual_config(c)
        for _ in range(20):
            p = sample_torus_point(c, rng)
            assert on_lambda(c, p)
            q = duality_map(c, p)
            assert on_lambda(d, q)
            back = duality_map(d, q)
            # (v, beta) returns to itself exactly
            assert back.v == p.v and back.beta == p.beta

    def test_duality_needs_nonzero_coordinates(self, square_chord_config):
        p = singular_witness(square_chord_config, mask_of([1, 2, 4]))
        with pytest.raises(ZeroCoordinate):
            duality_map(square_chord_config, p)

    def test_ambient_and_span_coordinates(self, square_chord_config, rng):
        # the ambient v of a point and its row-span coordinates w, both ways
        at = square_chord_config.a.transpose()
        p = sample_torus_point(square_chord_config, rng)
        assert at.apply(span_coordinates(square_chord_config, p.v)) == p.v
        w = [rng.randint(-5, 5) for _ in range(3)]
        assert span_coordinates(square_chord_config, at.apply(w)) == w

    def test_span_coordinates_rejects_off_space(self, square_chord_config):
        with pytest.raises(NotOnLambda):
            span_coordinates(square_chord_config, [1, 0, 0, 0, 1])


class TestIota:
    def test_square_chord_symbolic(self, square_chord_config, rng):
        for _ in range(5):
            w = [rng.randint(-4, 4) for _ in range(3)]
            beta = [rng.randint(-4, 4) for _ in range(5)]
            assert iota_differential_check(square_chord_config, w, beta)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
           st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    def test_square_chord_property(self, square_chord_config, w, beta):
        assert iota_differential_check(square_chord_config, w, beta)

    def test_rejects_char_two(self):
        c = config_new(Matrix(((Fp(1, 2), Fp(0, 2), Fp(1, 2)),
                               (Fp(0, 2), Fp(1, 2), Fp(1, 2)))))
        with pytest.raises(Degenerate):
            iota_differential_check(c, [Fp(1, 2), Fp(1, 2)],
                                    [Fp(1, 2)] * 3)


class TestSampling:
    def test_torus_points_have_full_support(self, square_chord_config, rng):
        for _ in range(20):
            p = sample_torus_point(square_chord_config, rng)
            assert all(x != 0 for x in p.v)
            assert all(b != 0 for b in p.beta)
            assert on_lambda(square_chord_config, p)

    def test_stratum_point_zero_set(self, square_chord_config, rng):
        flat = mask_of([1, 2, 4])
        for _ in range(5):
            p = sample_stratum_point(square_chord_config, flat, rng)
            zero = mask_of([i for i, x in enumerate(p.v, start=1) if x == 0])
            assert zero == flat
            assert on_lambda(square_chord_config, p)

    def test_fp_points_stay_in_the_field(self, data_dir):
        # every coordinate an Fp, none an int that is 0 mod p unnoticed
        c = load_configuration(str(data_dir / "f7_3x7.mat.json"))
        rng = random.Random(0)
        proper = [f for f in flats(c.matroid) if f != c.matroid.ground]
        pts = [sample_stratum_point(c, f, rng) for f in proper]
        torus = [sample_torus_point(c, rng) for _ in range(20)]
        for p in pts + torus:
            assert all(isinstance(x, Fp) for x in p.v + p.beta)
        assert all(all(p.beta) and all(p.v) for p in torus)

    def test_deterministic_under_seed(self, square_chord_config):
        a = sample_torus_point(square_chord_config, random.Random(5))
        b = sample_torus_point(square_chord_config, random.Random(5))
        assert a.v == b.v and a.beta == b.beta
