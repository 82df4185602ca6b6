import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confan.arith import Matrix
from confan.errors import Degenerate, DisconnectedGraph, NonDivisible, RankDeficient
from confan.matroid import (
    ClassPoly,
    Matroid,
    char_poly,
    closure,
    coloops_of,
    contract,
    contraction_char_polys,
    delete,
    dual,
    elements_of,
    flats,
    is_connected,
    is_round,
    loops_of,
    mask_of,
    matroid_from_bases,
    matroid_from_graph,
    matroid_from_matrix,
    parse_subset_label,
    rank_of,
    reduced_char_poly,
    subset_label,
    uniform_matroid,
)

from .oracles import (
    contraction_char_polys_by_lists,
    flats_by_closure,
    graphic_bases_by_union_find,
    mobius_char_poly,
    proper_colorings,
    rank_from_bases,
    satisfies_basis_exchange,
    whitney_char_poly,
)
from .test_fans import ORACLE_MATROIDS


def k4():
    return matroid_from_graph([(a, b) for a, b in combinations("abcd", 2)])


def wheel(k):
    return [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]


# every ORACLE_MATROIDS entry, and two at the n = 12 cap, whose packed
# superset sums hold the widest coefficients
SWEEP_CASES = {
    **{
        name: lambda n=n, bases=bases: matroid_from_bases(n, bases)
        for name, (n, bases) in ORACLE_MATROIDS.items()
    },
    "W6": lambda: matroid_from_graph(wheel(6)),
    "U(6,12)": lambda: uniform_matroid(6, 12),
}


def assert_table_and_flats_match_oracles(m):
    rank = rank_from_bases(m.n, [set(elements_of(b)) for b in m.bases])
    table = m.rank_table()
    assert len(table) == 1 << m.n
    for s in range(1 << m.n):
        assert table[s] == rank(frozenset(elements_of(s))), subset_label(s, m.n)
    lattice = flats(m)
    assert {frozenset(elements_of(f)): lattice[f] for f in lattice} == (
        flats_by_closure(m.n, rank)
    )
    assert list(lattice) == sorted(lattice, key=lambda f: (lattice[f], f))


class TestLabels:
    def test_round_trips(self):
        assert subset_label(0, 5) == "∅"
        assert subset_label(mask_of([1, 2, 4]), 5) == "124"
        assert subset_label(mask_of(range(1, 6)), 5) == "E"
        assert parse_subset_label("124", 5) == mask_of([1, 2, 4])
        assert parse_subset_label("∅", 5) == 0
        assert parse_subset_label("E", 5) == mask_of(range(1, 6))

    def test_wide_ground_set_uses_dots(self):
        lbl = subset_label(mask_of([2, 11]), 12)
        assert parse_subset_label(lbl, 12) == mask_of([2, 11])

    @pytest.mark.parametrize("n", [5, 10, 12])
    def test_every_label_parses_back(self, n):
        # for n >= 10 a singleton prints with no dot: "10" is element 10
        for s in range(1 << n):
            assert parse_subset_label(subset_label(s, n), n) == s

    @pytest.mark.parametrize(
        "label, n",
        [("1.+2.4", 5), ("1_0", 10), ("1,,2", 5), ("0", 5), ("", 5), ("0", 12),
         (".1", 5), ("1.", 5), ("1 2", 5), ("²", 5), ("١", 5)],
    )
    def test_rejects_what_subset_label_never_prints(self, label, n):
        with pytest.raises(ValueError):
            parse_subset_label(label, n)

    def test_commas_and_dots_separate(self):
        assert parse_subset_label("1,2.4", 5) == mask_of([1, 2, 4])
        assert parse_subset_label("2.11", 12) == mask_of([2, 11])

    def test_elements_inverse(self):
        assert elements_of(mask_of([3, 5])) == (3, 5)


class TestMatroidBasics:
    def test_uniform(self):
        m = uniform_matroid(2, 4)
        assert m.r == 2 and m.n == 4
        assert len(m.bases) == 6

    def test_exchange_rejects_non_matroid(self):
        with pytest.raises(ValueError):
            matroid_from_bases(4, [(1, 2), (3, 4)])

    def test_square_chord_from_matrix(self, square_chord_matrix, square_chord_bases):
        m = matroid_from_matrix(square_chord_matrix)
        assert m.bases == frozenset(mask_of(b) for b in square_chord_bases)
        assert len(m.bases) == 8

    def test_square_chord_from_graph(self, square_chord_matroid):
        # square with one chord: vertices a,b,c,d; edge order fixes labels
        edges = [("a", "c"), ("a", "b"), ("c", "d"), ("b", "c"), ("d", "a")]
        assert matroid_from_graph(edges).bases == square_chord_matroid.bases

    def test_rank_closure_flats(self, square_chord_matroid):
        m = square_chord_matroid
        assert rank_of(m, mask_of([1, 2, 4])) == 2
        assert closure(m, mask_of([1, 2])) == mask_of([1, 2, 4])
        lattice = flats(m)
        by_rank = {k: sorted(subset_label(f, m.n) for f, rk in lattice.items() if rk == k)
                   for k in range(m.r + 1)}
        assert by_rank == {
            0: ["∅"],
            1: ["1", "2", "3", "4", "5"],
            2: ["124", "135", "23", "25", "34", "45"],
            3: ["E"],
        }

    def test_loops_coloops(self):
        m = matroid_from_bases(3, [(1,), (2,)])
        assert loops_of(m) == mask_of([3])
        m2 = matroid_from_bases(3, [(1, 2), (1, 3)])
        assert coloops_of(m2) == mask_of([1])

    def test_dual_involution(self, square_chord_matroid):
        d = dual(square_chord_matroid)
        assert d.r == 2
        assert dual(d).bases == square_chord_matroid.bases

    def test_square_chord_dual_flats(self, square_chord_matroid):
        lattice = flats(dual(square_chord_matroid))
        labels = sorted(subset_label(f, 5) for f in lattice)
        assert labels == sorted(["∅", "1", "24", "35", "E"])

    def test_minors(self, square_chord_matroid):
        m = square_chord_matroid
        d = delete(m, mask_of([5]))
        assert d.n == 4 and d.r == 3
        c = contract(m, mask_of([1]))
        assert c.n == 4 and c.r == 2
        assert contract(m, 0).bases == m.bases

    def test_connectivity(self, square_chord_matroid):
        assert is_connected(square_chord_matroid)
        assert not is_connected(uniform_matroid(2, 2))
        assert is_connected(uniform_matroid(1, 2))


class TestRoundness:
    def test_square_chord_not_round(self, square_chord_matroid):
        assert not is_round(square_chord_matroid)

    def test_uniform_threshold(self):
        # U_{r,n} is round exactly when every deletion of a proper flat's
        # complement keeps full rank; for uniforms this is n >= 2r - 1.
        for r in range(1, 4):
            for n in range(max(2, r + 1), 8):
                assert is_round(uniform_matroid(r, n)) == (n >= 2 * r - 1)

    def test_graphic_complete_graph_round(self):
        edges = [(a, b) for a, b in combinations("abcd", 2)]
        assert is_round(matroid_from_graph(edges))


class TestCharPoly:
    def test_square_chord_char_poly(self, square_chord_matroid):
        chi = char_poly(square_chord_matroid)
        # (t-1)(t-2)^2 = t^3 - 5t^2 + 8t - 4
        assert chi == ClassPoly([-4, 8, -5, 1], "t")
        red = reduced_char_poly(square_chord_matroid)
        assert red == ClassPoly([4, -4, 1], "t")

    def test_reduced_requires_divisibility(self):
        # a matroid with a loop has chi = 0, and 0/(t-1) = 0 is fine;
        # instead check the honest failure on a polynomial not divisible
        with pytest.raises(NonDivisible):
            ClassPoly([1, 0, 1], "t").div_t_minus_1()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_char_poly_matches_whitney_sum(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        r = rng.randint(1, n - 1)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        try:
            m = matroid_from_matrix(Matrix(rows))
        except Exception:
            return  # rank deficient; draw again next example
        if loops_of(m):
            return  # char_poly rejects loops by design
        bases = [set(elements_of(b)) for b in m.bases]
        oracle = whitney_char_poly(m.n, rank_from_bases(m.n, bases))
        assert list(char_poly(m).coeffs) == oracle

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_char_poly_matches_mobius_route(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        r = rng.randint(1, n - 1)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        try:
            m = matroid_from_matrix(Matrix(rows))
        except (RankDeficient, Degenerate):
            return  # rank deficient; draw again next example
        if loops_of(m):
            return  # char_poly rejects loops by design
        bases = [set(elements_of(b)) for b in m.bases]
        oracle = mobius_char_poly(m.n, rank_from_bases(m.n, bases))
        assert list(char_poly(m).coeffs) == oracle

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)],
            list(combinations("abcd", 2)),
            [(0, i) for i in range(1, 5)] + [(i, i % 4 + 1) for i in range(1, 5)],
        ],
        ids=["square-chord", "K4", "W4"],
    )
    def test_graph_char_poly_counts_colorings(self, edges):
        # t * chi(t) is the chromatic polynomial of a connected graph; both
        # sides have degree |V|, so agreeing at |V| + 1 points pins it
        vertices = sorted({v for e in edges for v in e}, key=str)
        chi = char_poly(matroid_from_graph(edges))
        for q in range(len(vertices) + 1):
            assert q * chi.evaluate(q) == proper_colorings(vertices, edges, q)

    def test_uniform_char_poly_oracle(self):
        for r, n in ((2, 4), (2, 5), (3, 5), (3, 6)):
            m = uniform_matroid(r, n)
            bases = [set(c) for c in combinations(range(1, n + 1), r)]
            oracle = whitney_char_poly(n, rank_from_bases(n, bases))
            assert list(char_poly(m).coeffs) == oracle


class TestClassPoly:
    def test_arithmetic(self):
        p = ClassPoly([1, 1], "L")  # 1 + L
        q = ClassPoly([1, 1, 1], "L")
        assert p * q == ClassPoly([1, 2, 2, 1], "L")
        assert (p * q).evaluate(2) == 21
        assert str(ClassPoly([1, 2, 0, 1], "L")) == "L^3+2L+1"

    def test_div_exact(self):
        # L^3 - 1 = (L - 1)(L^2 + L + 1), and 0 / (L - 1) = 0
        prod = ClassPoly([-1, 0, 0, 1], "L")
        assert prod.div_t_minus_1() == ClassPoly([1, 1, 1], "L")
        assert ClassPoly([], "t").div_t_minus_1() == ClassPoly([], "t")

    def test_with_symbol(self):
        assert ClassPoly([0, 1], "t").with_symbol("L") == ClassPoly([0, 1], "L")


class TestMatroidValidation:
    def test_empty_bases_rejected(self):
        with pytest.raises(ValueError):
            matroid_from_bases(3, [])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            matroid_from_bases(3, [(1,), (1, 2)])


class TestRankTable:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: matroid_from_graph([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]),
            k4,
            lambda: matroid_from_graph(
                [(0, i) for i in range(1, 5)] + [(i, i % 4 + 1) for i in range(1, 5)]
            ),
            lambda: uniform_matroid(3, 6),
        ],
        ids=["square-chord", "K4", "W4", "U36"],
    )
    def test_matches_oracles(self, build):
        assert_table_and_flats_match_oracles(build())

    def test_loops_and_coloops(self):
        # a loop (3), two coloops (1, 2) and a parallel pair (4, 5)
        m = matroid_from_bases(5, [(1, 2, 4), (1, 2, 5)])
        assert_table_and_flats_match_oracles(m)
        assert loops_of(m) == mask_of([3])
        assert coloops_of(m) == mask_of([1, 2])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8))
    def test_random_graphs(self, edges):
        try:
            m = matroid_from_graph(edges)
        except (DisconnectedGraph, Degenerate):
            return
        assert_table_and_flats_match_oracles(m)
        assert coloops_of(m) == loops_of(dual(m))

    def test_is_built_once_and_read_only(self, square_chord_matroid):
        m = square_chord_matroid
        assert m.rank_table() is m.rank_table()
        with pytest.raises(TypeError):
            m.rank_table()[0] = 1


class TestFlatCache:
    def test_same_lattice_every_call(self):
        m = k4()
        assert flats(m) is flats(m)

    def test_writes_raise(self):
        lattice = flats(k4())
        with pytest.raises(TypeError):
            lattice[0] = 5
        with pytest.raises(AttributeError):
            lattice.pop(0)
        assert lattice[0] == 0


class TestContractionCharPolys:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: matroid_from_graph([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]),
            k4,
            lambda: matroid_from_graph(
                [(0, i) for i in range(1, 5)] + [(i, i % 4 + 1) for i in range(1, 5)]
            ),
            lambda: uniform_matroid(3, 6),
        ],
        ids=["square-chord", "K4", "W4", "U36"],
    )
    def test_every_flat_matches_its_contraction(self, build):
        m = build()
        polys = contraction_char_polys(m)
        assert list(polys) == list(flats(m))
        assert polys[m.ground] == ClassPoly([1], "t")
        assert polys[0] == char_poly(m)
        for f in (f for f in flats(m) if f != m.ground):
            minor = contract(m, f)
            bases = [set(elements_of(b)) for b in minor.bases]
            assert list(polys[f].coeffs) == mobius_char_poly(
                minor.n, rank_from_bases(minor.n, bases)
            )

    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_packed_sweep_equals_list_sweep(self, name):
        m = SWEEP_CASES[name]()
        polys = contraction_char_polys(m)
        expected = contraction_char_polys_by_lists(m)
        assert list(polys) == list(expected)
        assert {f: list(p.coeffs) for f, p in polys.items()} == expected


GRAPHS = {
    "square-chord": [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)],
    "K4": list(combinations("abcd", 2)),
    "W4": wheel(4),
    "K5": list(combinations(range(5), 2)),
    "W6": wheel(6),
    "parallel-edge": [(1, 2), (2, 3), (1, 2), (3, 4), (4, 1), (1, 3)],
    "loop-edge": [(1, 2), (2, 3), (3, 3), (3, 4), (4, 1), (1, 3)],
}


class TestGraphicBases:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_spanning_tree_search_equals_union_find(self, name):
        edges = GRAPHS[name]
        m = matroid_from_graph(edges)
        assert m.n == len(edges)
        assert m.bases == frozenset(graphic_bases_by_union_find(edges))

    def test_loop_and_parallel_edges(self):
        # edge 3 is a loop, in no basis; on the path with a doubled edge,
        # the parallel edges 1 and 3 never share one
        assert loops_of(matroid_from_graph(GRAPHS["loop-edge"])) == mask_of([3])
        m = matroid_from_graph([(1, 2), (2, 3), (1, 2)])
        assert m.bases == frozenset(map(mask_of, [(1, 2), (2, 3)]))

    @pytest.mark.parametrize(
        "edges",
        [[(1, 2), (3, 4)], [(1, 1), (2, 2)], [(1, 2), (2, 3), (3, 1), (4, 5)]],
        ids=["two-edges", "two-loops", "triangle-and-edge"],
    )
    def test_disconnected_graph_raises(self, edges):
        with pytest.raises(DisconnectedGraph, match="^graph is not connected$"):
            matroid_from_graph(edges)

    def test_one_vertex_graph_is_degenerate(self):
        with pytest.raises(Degenerate, match="single-vertex graph"):
            matroid_from_graph([(1, 1), (1, 1)])

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            matroid_from_graph([])


class TestBasisValidation:
    @pytest.mark.parametrize("n", [4, 10, 11, 12])
    def test_two_disjoint_pairs_rejected_at_every_size(self, n):
        with pytest.raises(ValueError, match="not submodular at S=1, x=3, y=4"):
            matroid_from_bases(n, [(1, 2), (3, 4)])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_accepts_exactly_the_basis_exchange_families(self, seed):
        # families near a matroid: the bases of a random column matroid with
        # one r-subset added or removed, so that violations can hide at large S
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        r = rng.randint(1, n - 1)
        rows = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(r)]
        try:
            m = matroid_from_matrix(Matrix(rows))
        except (RankDeficient, Degenerate):
            return  # rank deficient; draw again next example
        bases = {frozenset(elements_of(b)) for b in m.bases}
        bases ^= {frozenset(rng.choice(list(combinations(range(1, n + 1), r))))}
        if not bases:
            return
        try:
            matroid_from_bases(n, bases)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == satisfies_basis_exchange(bases)

    def test_u6_12_as_bases_is_fast(self):
        bases = list(combinations(range(1, 13), 6))
        start = time.perf_counter()
        m = matroid_from_bases(12, bases)
        assert time.perf_counter() - start < 1.0
        assert len(m.bases) == 924
