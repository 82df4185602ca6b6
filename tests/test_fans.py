import json
import random
from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

import pytest

from confan.arith import Matrix
from confan.errors import (
    HasLoops,
    LoopOrColoop,
    NotAFlat,
    ParseError,
)
from confan.fans import (
    Fan,
    LatticeVector,
    _biflag_order,
    _chains,
    _maximal_chains,
    _within,
    bergman_fan,
    biflat_label,
    biflat_ray,
    cones_off_coordinate_fans,
    delta_fan,
    delta_tilde_fan,
    divisor_incidence,
    factor_rows,
    fan_from_json,
    fan_to_json,
    fibre_fan,
    lattice_e,
    minus_shear,
    non_unimodular_cones,
    refines,
    square_biflats,
    square_conormal_fan,
)
from confan.matroid import (
    dual,
    elements_of,
    flats,
    mask_of,
    matroid_from_bases,
    matroid_from_graph,
    uniform_matroid,
)

from . import oracles
from .incidence import solve_exact
from .oracles import (
    NotPure,
    NotSimplicial,
    is_unimodular,
    maps_into_coordinate_fan,
    parse_biflat_label,
)

SQUARE_CHORD_BIFLAT_LABELS = [
    "124⊆E", "135⊆E",
    "1⊆1", "1⊆E",
    "23⊆E", "25⊆E", "34⊆E", "45⊆E",
    "2⊆24", "2⊆E",
    "3⊆35", "3⊆E",
    "4⊆24", "4⊆E",
    "5⊆35", "5⊆E",
    "∅⊆1", "∅⊆24", "∅⊆35",
]


def square_chord(square_chord_bases):
    return matroid_from_bases(5, square_chord_bases)


K4_EDGES = list(combinations(range(4), 2))

# (n, bases): spanning trees of K4 are the 3-edge sets touching all 4 vertices
ORACLE_MATROIDS = {
    "square-chord": (5, [b for b in combinations(range(1, 6), 3)
                         if set(b) not in ({1, 2, 4}, {1, 3, 5})]),
    "U(2,5)": (5, list(combinations(range(1, 6), 2))),
    "K4": (6, [t for t in combinations(range(1, 7), 3)
               if len({v for e in t for v in K4_EDGES[e - 1]}) == 4]),
}

BUILDERS = {
    "bergman": bergman_fan,
    "square-conormal": square_conormal_fan,
    "delta": delta_fan,
    "delta-tilde": delta_tilde_fan,
}

# the fans built from one _chains family, reduced by _maximal_chains
CHAIN_BUILT = {
    "bergman": bergman_fan,
    "bergman-dual": lambda m: bergman_fan(dual(m)),
    "square-conormal": square_conormal_fan,
    "delta-tilde": delta_tilde_fan,
    "fibre-1-2345": lambda m: fibre_fan(m, mask_of([1]), mask_of([2, 3, 4, 5])),
}


def fibre_cases():
    """Every flat of each oracle matroid, with the subsets ∅, E and 2345."""
    for name, (n, bases) in sorted(ORACLE_MATROIDS.items()):
        full = frozenset(range(1, n + 1))
        lattice = oracles.flats_by_closure(n, oracles.rank_from_bases(n, bases))
        for flat in sorted(lattice, key=lambda f: (len(f), sorted(f))):
            for subset in (frozenset(), full, frozenset({2, 3, 4, 5})):
                labels = ("".join(map(str, sorted(s))) or "none" for s in (flat, subset))
                yield pytest.param(name, flat, subset, id="%s-%s-%s" % (name, *labels))


@lru_cache(maxsize=None)
def delta_tilde_faces(name):
    return oracles.fan_faces("delta-tilde", *ORACLE_MATROIDS[name])


def as_vectors(fan, cones):
    """Cones as frozensets of ray vectors (e, f), independent of ray order."""
    return {frozenset((fan.rays[i].e, fan.rays[i].f) for i in c) for c in cones}


def assert_matches_oracle(fan, faces, vector):
    assert len(set(fan.rays)) == len(fan.rays)
    oracle = {frozenset(vector[k] for k in c) for c in faces}
    assert as_vectors(fan, fan.cones) == oracle
    assert len(fan.cones) == len(faces)
    expected = oracles.maximal_by_pairwise_scan(faces)
    assert as_vectors(fan, fan.maximal_cones()) == {
        frozenset(vector[k] for k in c) for c in expected
    }
    assert len(fan.maximal_cones()) == len(expected)
    assert list(fan.maximal_cones()) == sorted(fan.maximal_cones(), key=sorted)


class TestLatticeVector:
    def test_canonical_min_zero(self):
        v = LatticeVector((2, 3, 4), (1, 1, 1))
        assert v.e == (0, 1, 2)
        assert v.f == (0, 0, 0)
        assert v == LatticeVector((5, 6, 7), (0, 0, 0))

    def test_coords_dimension(self):
        v = LatticeVector((0, 0, 0, 0), (1, 0, 1, 0))
        assert len(v.coords()) == 2 * 4 - 2

    def test_coords_injective_on_rays(self, square_chord_bases):
        fan = square_conormal_fan(square_chord(square_chord_bases))
        seen = {r.coords() for r in fan.rays}
        assert len(seen) == len(fan.rays)

    def test_mu_minus_is_negated_forward(self):
        # minus_shear: (x, y) -> (-x, -x-y), the negated shear (x, x+y)
        v = LatticeVector((2, 1, 0), (1, 0, 4))
        sheared = minus_shear(Fan(3, [v], ["v"], [frozenset({0})]))
        assert sheared.rays == (LatticeVector((-2, -1, 0), (-3, -1, -4)),)


class TestBergman:
    def test_u13_is_trivial(self):
        fan = bergman_fan(uniform_matroid(1, 3))
        assert len(fan.rays) == 0
        assert len(fan.maximal) == 1  # just the origin

    def test_u23_three_rays(self):
        fan = bergman_fan(uniform_matroid(2, 3))
        assert len(fan.rays) == 3
        assert len(fan.maximal) == 3
        assert all(fan.cone_dim(c) <= 1 for c in fan.cones)

    def test_square_chord_counts(self, square_chord_bases):
        fan = bergman_fan(square_chord(square_chord_bases))
        assert len(fan.rays) == 11  # nonempty proper flats
        assert len(fan.maximal) == 14
        assert {fan.cone_dim(c) for c in fan.maximal_cones()} == {2}

    def test_rejects_loops(self):
        m = matroid_from_bases(3, [(1,), (2,)])
        with pytest.raises(HasLoops):
            bergman_fan(m)


class TestSquareBiflats:
    def test_square_chord_frozen_list(self, square_chord_bases):
        pairs = square_biflats(square_chord(square_chord_bases))
        labels = [biflat_label(p, 5) for p in pairs]
        assert len(labels) == 19
        assert sorted(labels) == sorted(SQUARE_CHORD_BIFLAT_LABELS)

    def test_u23(self):
        pairs = square_biflats(uniform_matroid(2, 3))
        assert [biflat_label(p, 3) for p in pairs] == ["1⊆E", "2⊆E", "3⊆E"]

    def test_u25_count(self):
        assert len(square_biflats(uniform_matroid(2, 5))) == 45

    def test_rejects_coloops(self):
        m = matroid_from_bases(3, [(1, 2), (1, 3)])
        with pytest.raises(LoopOrColoop):
            square_biflats(m)

    def test_label_round_trip(self, square_chord_bases):
        for pair in square_biflats(square_chord(square_chord_bases)):
            lbl = biflat_label(pair, 5)
            assert parse_biflat_label(lbl, 5) == pair


class TestSquareConormal:
    def test_square_chord_counts(self, square_chord_bases):
        fan = square_conormal_fan(square_chord(square_chord_bases))
        assert len(fan.rays) == 19
        assert len(fan.maximal) == 56
        assert len(fan.cones) == 142
        assert {fan.cone_dim(c) for c in fan.maximal_cones()} == {3}

    def test_square_chord_ray_labels(self, square_chord_bases):
        fan = square_conormal_fan(square_chord(square_chord_bases))
        assert sorted(fan.labels) == sorted(SQUARE_CHORD_BIFLAT_LABELS)

    def test_ray_rule(self, square_chord_bases):
        m = square_chord(square_chord_bases)
        fan = square_conormal_fan(m)
        _, vector = oracles.fan_faces("square-conormal", 5, square_chord_bases)
        for (fmask, gmask), ray in zip(square_biflats(m), fan.rays):
            assert ray == biflat_ray(fmask, gmask, 5)
            key = frozenset(elements_of(fmask)), frozenset(elements_of(gmask))
            assert (ray.e, ray.f) == vector[key]

    def test_cones_are_pruned_chains(self, square_chord_bases):
        m = square_chord(square_chord_bases)
        fan, biflats = square_conormal_fan(m), square_biflats(m)
        full = mask_of(range(1, 6))
        for cone in fan.maximal_cones():
            pairs = sorted(
                (biflats[i] for i in cone),
                key=lambda p: (bin(p[0]).count("1"), bin(p[1]).count("1")),
                reverse=True,
            )
            union = 0
            for (f1, g1), (f2, g2) in zip(pairs, pairs[1:]):
                assert f1 & f2 == f2 and g1 & g2 == g2  # descending biflag
            for fmask, gmask in pairs:
                union |= gmask & ~fmask
            assert union != full

    def test_face_closure(self, square_chord_bases):
        cones = square_conormal_fan(square_chord(square_chord_bases)).cones
        for cone in cones:
            members = sorted(cone)
            for size in range(len(members)):
                for face in combinations(members, size):
                    assert frozenset(face) in cones


class TestMaximalStorage:
    @pytest.mark.parametrize("which", sorted(BUILDERS))
    @pytest.mark.parametrize("name", sorted(ORACLE_MATROIDS))
    def test_builder_matches_oracle(self, name, which):
        n, bases = ORACLE_MATROIDS[name]
        fan = BUILDERS[which](matroid_from_bases(n, bases))
        assert_matches_oracle(fan, *oracles.fan_faces(which, n, bases))

    @pytest.mark.parametrize("name,flat,subset", fibre_cases())
    def test_fibre_fan_matches_oracle(self, name, flat, subset):
        n, bases = ORACLE_MATROIDS[name]
        faces, vector = delta_tilde_faces(name)
        faces = {
            c for c in faces if all(f <= flat and g - f <= subset for f, g in c)
        }
        fan = fibre_fan(matroid_from_bases(n, bases), mask_of(flat), mask_of(subset))
        assert_matches_oracle(fan, faces, vector)

    @staticmethod
    def read(rays, cones):
        """The fan that fan_from_json reads from the rays and the family."""
        return fan_from_json({
            "n": 5,
            "rays": [{"label": lab, "e": list(v.e), "f": list(v.f)}
                     for lab, v in zip("abcd", rays)],
            "cones": cones,
        })

    def test_stores_only_maximal_cones(self):
        rays = [lattice_e(mask_of([i]), 5) for i in (1, 2, 3, 4)]
        # faces one and two levels down and a repeated cone reduce away
        fan = self.read(rays, [[0], [0, 1, 2], [2, 1, 0], [3], [2, 3], [1]])
        assert fan.maximal == (frozenset({0, 1, 2}), frozenset({2, 3}))
        assert fan.cones == {
            frozenset(c)
            for c in [(), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2),
                      (0, 1, 2), (2, 3)]
        }
        assert "cones" not in Fan.__slots__
        with pytest.raises(AttributeError):
            fan.cones = frozenset()

    def test_trivial_fan_keeps_the_origin(self):
        assert self.read([], []).maximal == (frozenset(),)
        assert self.read([], [[]]).cones == {frozenset()}
        assert Fan(5, [], [], [frozenset()]) == self.read([], [])

    def test_constructor_keeps_the_family(self):
        rays = [lattice_e(mask_of([i]), 5) for i in (1, 2, 3, 4)]
        family = [frozenset({2, 3}), frozenset({0, 1, 2})]
        fan = Fan(5, rays, "abcd", family)
        assert fan.maximal == (frozenset({0, 1, 2}), frozenset({2, 3}))
        assert fan == self.read(rays, [sorted(c) for c in family] + [[1]])
        # nothing is reduced: a family with a face in it is the caller's error
        kept = Fan(5, rays, "abcd", [frozenset({0}), frozenset({0, 1})])
        assert kept.maximal == (frozenset({0}), frozenset({0, 1}))

    @pytest.mark.parametrize("which", sorted(CHAIN_BUILT))
    @pytest.mark.parametrize("name", sorted(ORACLE_MATROIDS))
    def test_chain_fans_keep_the_reduction_of_their_chains(
        self, name, which, monkeypatch
    ):
        families = []

        def recording(chains):
            chains = list(chains)
            families.append(chains)
            return _maximal_chains(chains)

        monkeypatch.setattr("confan.fans._maximal_chains", recording)
        n, bases = ORACLE_MATROIDS[name]
        fan = CHAIN_BUILT[which](matroid_from_bases(n, bases))
        (family,) = families
        assert () in family and len(family) == len(set(family))
        expected = oracles.maximal_by_pairwise_scan([frozenset(c) for c in family])
        assert list(fan.maximal) == sorted(expected, key=sorted)

    def test_chains_stop_where_the_union_fills(self):
        # 2 < 1 < 0 and 3 < 0, with 2 < 0: the chain 0 > 1 > 2 alone has
        # diffs covering all of 0b111; the depth-first order is pinned
        lower, diffs = [[1, 2, 3], [2], [], []], [0b001, 0b010, 0b100, 0b100]
        kept = [(), (3,), (2,), (1,), (1, 2), (0,), (0, 3), (0, 2), (0, 1)]
        assert list(_chains(lower, diffs, 0b111)) == kept
        # zero diffs, as for a flag of flats: every chain
        assert list(_chains(lower, [0] * 4, 0b111)) == kept + [(0, 1, 2)]

        def proper(chain):
            return reduce(or_, (diffs[i] for i in chain), 0) != 0b111

        assert {frozenset(c) for c in kept} == oracles.chain_faces(
            range(4), lambda a, b: a in lower[b], proper
        )

    def test_maximal_chains_of_a_small_family(self):
        # the chains of 2 < 1 < 0 and 3 < 0, with 2 < 0: decreasing tuples
        family = [(), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (0, 3), (0, 1, 2)]
        assert sorted(_maximal_chains(family), key=sorted) == [
            frozenset({0, 1, 2}), frozenset({0, 3})
        ]
        assert _maximal_chains([()]) == [frozenset()]

    @pytest.mark.parametrize("which", ["delta", "delta-tilde"])
    @pytest.mark.parametrize("name", sorted(ORACLE_MATROIDS))
    def test_kept_family_is_already_reduced(self, name, which):
        n, bases = ORACLE_MATROIDS[name]
        fan = BUILDERS[which](matroid_from_bases(n, bases))
        assert len(set(fan.maximal)) == len(fan.maximal)
        assert oracles.maximal_by_pairwise_scan(fan.maximal) == list(fan.maximal)


W4_EDGES = [(0, i) for i in range(1, 5)] + [(i, i % 4 + 1) for i in range(1, 5)]


class TestBiflagOrder:
    @pytest.mark.parametrize("name", sorted(ORACLE_MATROIDS) + ["W4"])
    def test_grouped_order_equals_pairwise_scan(self, name):
        m = (matroid_from_graph(W4_EDGES) if name == "W4"
             else matroid_from_bases(*ORACLE_MATROIDS[name]))
        pairs = square_biflats(m)
        scan = [[i for i, a in enumerate(pairs) if a != b and _within(a, b)] for b in pairs]
        assert _biflag_order(pairs) == scan
        # the Bergman flags' order: a flag of flats is a biflag chain with G = F
        props = [f for f in flats(m) if f not in (0, m.ground)]
        scan = [[i for i, a in enumerate(props) if a != b and a & b == a] for b in props]
        assert _biflag_order([(f, f) for f in props]) == scan


class TestDeltaFans:
    def test_square_chord_delta_tilde(self, square_chord_bases):
        fan = delta_tilde_fan(square_chord(square_chord_bases))
        assert len(fan.rays) == 19
        assert len(fan.maximal) == 56
        assert {fan.cone_dim(c) for c in fan.maximal_cones()} == {3}

    def test_square_chord_delta(self, square_chord_bases):
        fan = delta_fan(square_chord(square_chord_bases))
        assert len(fan.rays) == 14
        assert len(fan.maximal) == 42
        assert {fan.cone_dim(c) for c in fan.maximal_cones()} == {3}

    def test_delta_tilde_ray_rule(self, square_chord_bases):
        # rays of the image fan are e_F - f_{G minus F}
        m = square_chord(square_chord_bases)
        src, fan = square_conormal_fan(m), delta_tilde_fan(m)
        _, vector = oracles.fan_faces("delta-tilde", 5, square_chord_bases)
        assert fan.labels == src.labels
        for ray, (fmask, gmask) in zip(fan.rays, square_biflats(m)):
            key = frozenset(elements_of(fmask)), frozenset(elements_of(gmask))
            assert (ray.e, ray.f) == vector[key]

    @pytest.mark.parametrize("name", sorted(ORACLE_MATROIDS))
    def test_delta_tilde_is_the_sheared_square_conormal_fan(self, name):
        m = matroid_from_bases(*ORACLE_MATROIDS[name])
        sheared, fine = minus_shear(square_conormal_fan(m)), delta_tilde_fan(m)
        assert sheared == fine
        assert sheared.rays == fine.rays and sheared.maximal == fine.maximal

    def test_minus_shear_shears_only_the_rays(self):
        fan = square_conormal_fan(uniform_matroid(2, 4))
        sheared = minus_shear(fan)
        assert sheared.maximal is fan.maximal
        assert sheared.labels is fan.labels
        assert sheared.rays == tuple(
            LatticeVector([-a for a in v.e], [-a - b for a, b in zip(v.e, v.f)])
            for v in fan.rays
        )

    def test_u23_delta_equals_delta_tilde_geometrically(self):
        m = uniform_matroid(2, 3)
        dt, dd = delta_tilde_fan(m), delta_fan(m)
        assert set(dt.rays) == set(dd.rays)
        assert oracles.refines(dt, dd) and oracles.refines(dd, dt)


def plain_fan(n, coords, cones):
    """A fan on rays given by their coordinates in Z^(2n-2) (both blocks
    with a last entry 0), labelled by their indices."""
    rays = [LatticeVector(tuple(c[:n - 1]) + (0,), tuple(c[n - 1:]) + (0,)) for c in coords]
    assert [v.coords() for v in rays] == [tuple(c) for c in coords]
    return Fan(n, rays, [str(i) for i in range(len(rays))], [frozenset(c) for c in cones])


def random_fans(seed, count):
    """Seeded fans of random integer rays (entries in [-2, 2]) and random
    cones, many of them sharing leading rays."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((2, 3, 4))
        k = rng.randint(1, 7)
        coords = [[rng.randint(-2, 2) for _ in range(2 * n - 2)] for _ in range(k)]
        cones = {
            frozenset(rng.sample(range(k), rng.randint(0, min(k, 2 * n - 1))))
            for _ in range(rng.randint(1, 6))
        }
        yield plain_fan(n, coords, cones)


def unimodular_by_oracle(fan):
    return [c for c in fan.maximal if not is_unimodular(fan, c)]


def off_coordinate_fan_by_oracle(fan, block, sign):
    return [c for c in fan.maximal if not maps_into_coordinate_fan(fan, c, block, sign)]


def off_coordinate_fans_by_oracle(fan):
    """The failing cones of pi1 and of -pi2, one cone at a time."""
    return (
        off_coordinate_fan_by_oracle(fan, "first", "plus"),
        off_coordinate_fan_by_oracle(fan, "second", "minus"),
    )


class TestUnimodular:
    @pytest.mark.parametrize("r,n", [(2, 3), (2, 4), (2, 5)])
    def test_uniform_delta_tilde(self, r, n):
        fan = delta_tilde_fan(uniform_matroid(r, n))
        assert non_unimodular_cones(fan) == []
        assert all(is_unimodular(fan, c) for c in fan.cones)

    def test_square_chord_delta_tilde(self, square_chord_bases):
        fan = delta_tilde_fan(square_chord(square_chord_bases))
        assert non_unimodular_cones(fan) == []
        assert all(is_unimodular(fan, c) for c in fan.cones)

    def test_square_chord_square_conormal(self, square_chord_bases):
        fan = square_conormal_fan(square_chord(square_chord_bases))
        assert non_unimodular_cones(fan) == []
        assert all(is_unimodular(fan, c) for c in fan.cones)

    @pytest.mark.parametrize("which", ["delta", "delta-tilde", "square-conormal"])
    @pytest.mark.parametrize("name", ["square-chord", "U(2,5)"])
    def test_matches_minors_oracle(self, name, which):
        n, bases = ORACLE_MATROIDS[name]
        fan = BUILDERS[which](matroid_from_bases(n, bases))
        bad = []
        for c in fan.maximal_cones():
            rows = [fan.rays[i].coords() for i in sorted(c)]
            rank, index = oracles.minors_rank_and_index(rows, 2 * n - 2)
            assert is_unimodular(fan, c) == (rank == len(c) and index == 1)
            assert fan.cone_dim(c) == rank
            if not (rank == len(c) and index == 1):
                bad.append(c)
        assert non_unimodular_cones(fan) == bad

    def test_non_unimodular_cone_detected(self):
        # cone spanned by (1,0,0) and (1,2,0) has index 2 in its span
        rays = (LatticeVector((1, 0, 0), (0, 0, 0)),
                LatticeVector((1, 2, 0), (0, 0, 0)))
        fan = Fan(3, rays, ("a", "b"), [frozenset([0, 1])])
        assert not is_unimodular(fan, frozenset([0, 1]))
        assert non_unimodular_cones(fan) == [frozenset([0, 1])]
        rows = [v.coords() for v in rays]
        assert oracles.minors_rank_and_index(rows, 4) == (2, 2)
        assert fan.factor(frozenset([0, 1])) == (2, 2)
        assert is_unimodular(fan, frozenset([0]))
        assert is_unimodular(fan, frozenset())
        rays_alone = Fan(3, rays, ("a", "b"), [frozenset([0]), frozenset([1])])
        assert non_unimodular_cones(rays_alone) == []
        assert non_unimodular_cones(Fan(3, (), (), [frozenset()])) == []

    @pytest.mark.parametrize("which", sorted(BUILDERS))
    @pytest.mark.parametrize("name", sorted(ORACLE_MATROIDS))
    def test_pass_matches_oracle(self, name, which):
        fan = BUILDERS[which](matroid_from_bases(*ORACLE_MATROIDS[name]))
        assert non_unimodular_cones(fan) == unimodular_by_oracle(fan)

    def test_pass_matches_oracle_on_random_fans(self):
        failing = 0
        for fan in random_fans(2101, 400):
            bad = non_unimodular_cones(fan)
            assert bad == unimodular_by_oracle(fan)
            failing += len(bad)
        assert failing > 100

    # rows in Z^4 (n = 3), one case per route of the pass
    @pytest.mark.parametrize(
        "coords,passes",
        [
            # index 2: the second row reduces to (0, 2, 0, 0)
            pytest.param([(1, 0, 0, 0), (1, 2, 0, 0)], False, id="index-2"),
            # the third row is the sum of the first two
            pytest.param([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], False, id="rank-deficient"),
            pytest.param([(1, 0, 0, 0), (1, 0, 0, 0)], False, id="repeated-row"),
            # no entry +-1 after the reduction; the 2 x 2 minors 2 and 3
            # have gcd 1, and 2 and 4 have gcd 2
            pytest.param([(1, 0, 0, 0), (1, 2, 3, 0)], True, id="no-unit-pivot-passes"),
            pytest.param([(1, 0, 0, 0), (1, 2, 4, 0)], False, id="no-unit-pivot-fails"),
            pytest.param([(2, 3, 0, 0)], True, id="single-row-passes"),
            pytest.param([(2, 4, 0, 0)], False, id="single-row-fails"),
            pytest.param([(1, 1, 0, 0), (1, -1, 0, 0)], False, id="unit-entries-index-2"),
            pytest.param([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)], True, id="staircase"),
        ],
    )
    def test_each_route(self, coords, passes):
        fan = plain_fan(3, coords, [range(len(coords))])
        assert is_unimodular(fan, fan.maximal[0]) == passes
        assert non_unimodular_cones(fan) == ([] if passes else list(fan.maximal))

    @pytest.mark.parametrize(
        "cones",
        [
            pytest.param([(0, 1), (2, 3)], id="no-shared-prefix"),
            # the failing cone {0, 1} stops the stack at ray 0, and the
            # cones after it share that ray or more
            pytest.param([(0, 1), (0, 1, 2), (0, 2), (0, 2, 3), (1, 2), (3,)],
                         id="shared-prefixes"),
            pytest.param([(0, 4), (1, 4), (2, 3, 4), (0, 2, 3)], id="shared-suffixes"),
        ],
    )
    def test_cone_orders(self, cones):
        coords = [(1, 0, 0, 0), (1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 2, 3, 1)]
        fan = plain_fan(3, coords, cones)
        assert non_unimodular_cones(fan) == unimodular_by_oracle(fan)
        # each cone alone
        for c in fan.maximal:
            alone = plain_fan(3, coords, [c])
            assert non_unimodular_cones(alone) == unimodular_by_oracle(alone)

    def test_k4_delta_tilde_factors_nothing(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(rows)
            return factor_rows(rows)

        monkeypatch.setattr("confan.fans.factor_rows", counting)
        fan = delta_tilde_fan(matroid_from_bases(*ORACLE_MATROIDS["K4"]))
        assert len(fan.maximal) == 540
        assert non_unimodular_cones(fan) == []
        assert calls == []
        # the fallback is the only caller
        assert non_unimodular_cones(plain_fan(3, [(2, 3, 0, 0)], [(0,)])) == []
        assert calls == [[(2, 3, 0, 0)]]


class TestCoordinateMaps:
    @pytest.mark.parametrize("r,n", [(2, 3), (2, 4), (2, 5)])
    def test_uniform_both_projections(self, r, n):
        fan = delta_tilde_fan(uniform_matroid(r, n))
        assert cones_off_coordinate_fans(fan) == ([], [])

    def test_square_chord_both_projections(self, square_chord_bases):
        fan = delta_tilde_fan(square_chord(square_chord_bases))
        assert cones_off_coordinate_fans(fan) == ([], [])

    def test_square_chord_delta_fails_second_projection(self, square_chord_bases):
        # the coarse fan does not resolve this matroid
        fan = delta_fan(square_chord(square_chord_bases))
        off_pi1, off_minus_pi2 = cones_off_coordinate_fans(fan)
        assert len(off_minus_pi2) == 14
        assert off_minus_pi2 == off_coordinate_fan_by_oracle(fan, "second", "minus")
        assert off_pi1 == []

    def test_trivial_cone_passes(self):
        assert cones_off_coordinate_fans(Fan(5, [], [], [frozenset()])) == ([], [])

    @pytest.mark.parametrize("which", sorted(BUILDERS))
    @pytest.mark.parametrize("name", sorted(ORACLE_MATROIDS))
    def test_pass_matches_oracle(self, name, which):
        fan = BUILDERS[which](matroid_from_bases(*ORACLE_MATROIDS[name]))
        assert cones_off_coordinate_fans(fan) == off_coordinate_fans_by_oracle(fan)

    def test_pass_matches_oracle_on_random_fans(self):
        failing = 0
        for fan in random_fans(2102, 400):
            bad = cones_off_coordinate_fans(fan)
            assert bad == off_coordinate_fans_by_oracle(fan)
            failing += sum(map(len, bad))
        assert failing > 100


def mutant(fan, maximal=None, rays=None):
    """The fan with its maximal cones or rays replaced, as given."""
    return Fan(
        fan.n,
        fan.rays if rays is None else rays,
        fan.labels,
        fan.maximal if maximal is None else maximal,
    )


REFINE_CASES = {**ORACLE_MATROIDS, "U(2,4)": (4, list(combinations(range(1, 5), 2)))}


class TestRefines:
    """refines(m, fine) certifies the fine fan over the coarse one from the
    biflats its rays encode; oracles.refines, the generic route by linear algebra on the two
    fans' rays and cones, is its reference."""

    def test_square_chord_refinement(self, square_chord_bases):
        m = square_chord(square_chord_bases)
        assert refines(m, delta_tilde_fan(m)) is None
        assert oracles.refines(delta_tilde_fan(m), delta_fan(m))

    def test_coarse_does_not_refine_fine(self, square_chord_bases):
        m = square_chord(square_chord_bases)
        assert not oracles.refines(delta_fan(m), delta_tilde_fan(m))

    def test_self_refinement(self, square_chord_bases):
        fan = delta_tilde_fan(square_chord(square_chord_bases))
        assert oracles.refines(fan, fan)

    @pytest.mark.parametrize("r,n", [(2, 4), (2, 5)])
    def test_uniform_refinement(self, r, n, monkeypatch):
        m = uniform_matroid(r, n)
        fine, coarse = delta_tilde_fan(m), delta_fan(m)
        calls = []

        def counting(rows):
            calls.append(tuple(rows))
            return factor_rows(rows)

        def rows_of(fan):
            return [tuple(fan.rays[j].coords() for j in sorted(c)) for c in fan.maximal]

        monkeypatch.setattr("confan.fans.factor_rows", counting)
        assert refines(m, fine) is None
        assert not calls  # the biflat route factors nothing
        assert oracles.refines(fine, coarse)
        # the oracle: one factorisation per maximal cone of either fan, for
        # its simplicial check; none per pair
        assert Counter(calls) == Counter(rows_of(fine) + rows_of(coarse))
        assert len(calls) == len(fine.maximal) + len(coarse.maximal)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: matroid_from_bases(*ORACLE_MATROIDS["square-chord"]),
            lambda: uniform_matroid(2, 4),
        ],
        ids=["square-chord", "U(2,4)"],
    )
    def test_bary_table_matches_solve_exact_route(self, build):
        m = build()
        fine, coarse = delta_tilde_fan(m), delta_fan(m)
        factors, _ = oracles._check_pure_simplicial(coarse)
        table = oracles._bary_table(fine, coarse, factors)
        assert list(table) == list(coarse.maximal)
        for c in factors:
            rows = [coarse.rays[j].coords() for j in sorted(c)]
            gens = Matrix(rows, ncols=2 * m.n - 2).transpose()
            old = {}
            for i, v in enumerate(fine.rays):
                sol = solve_exact(gens, v.coords())
                if sol is not None and all(x >= 0 for x in sol):
                    old[i] = sol
            d = oracles.left_inverse(rows, 2 * m.n - 2)[1]
            assert table[c].keys() == old.keys()
            assert all(table[c][i] == [d * x for x in old[i]] for i in old)

    @pytest.mark.parametrize("name", sorted(REFINE_CASES))
    def test_routes_agree(self, name):
        m = matroid_from_bases(*REFINE_CASES[name])
        fine = delta_tilde_fan(m)
        assert refines(m, fine) is None
        assert oracles.refines(fine, delta_fan(m))

    @pytest.mark.parametrize("name", sorted(REFINE_CASES))
    def test_both_routes_fail_on_a_dropped_or_replaced_cone(self, name):
        m = matroid_from_bases(*REFINE_CASES[name])
        fine, coarse = delta_tilde_fan(m), delta_fan(m)
        tau = fine.maximal[0]
        # the first cone with its least ray swapped for the first ray outside it
        other = min(set(range(len(fine.rays))) - tau)
        replaced = ((tau - {min(tau)}) | {other},) + fine.maximal[1:]
        for bad in (mutant(fine, fine.maximal[1:]), mutant(fine, replaced)):
            assert refines(m, bad) is not None
            assert not oracles.refines(bad, coarse)

    def test_both_routes_fail_on_every_dropped_cone(self, square_chord_bases):
        m = square_chord(square_chord_bases)
        fine, coarse = delta_tilde_fan(m), delta_fan(m)
        for k in range(len(fine.maximal)):
            bad = mutant(fine, fine.maximal[:k] + fine.maximal[k + 1:])
            assert refines(m, bad) is not None
            assert not oracles.refines(bad, coarse)

    def test_both_routes_read_a_duplicated_cone_once(self, square_chord_bases):
        m = square_chord(square_chord_bases)
        fine = delta_tilde_fan(m)
        twice = mutant(fine, fine.maximal + fine.maximal[:1])
        assert refines(m, twice) is None
        assert oracles.refines(twice, delta_fan(m))

    def test_both_routes_reject_a_cone_of_too_few_rays(self):
        # the two cones of the flag pair ({1}, {1}) of U(2,4) replaced by
        # their common ray 1⊆1: its flags are complete and its one facet,
        # the origin, bounds one cone, but it spans a line in a plane
        m = uniform_matroid(2, 4)
        fine = delta_tilde_fan(m)
        ray = fine.labels.index("1⊆1")
        pair = {fine.labels.index("1⊆E"), fine.labels.index("∅⊆1")}
        kept = tuple(c for c in fine.maximal if not (c - {ray} < pair))
        assert len(kept) == len(fine.maximal) - 2
        bad = mutant(fine, kept + (frozenset({ray}),))
        assert refines(m, bad) == "cone {1⊆1}: no home"
        with pytest.raises(NotPure):
            oracles.refines(bad, delta_fan(m))

    def test_both_routes_pass_with_the_rays_permuted(self, square_chord_bases):
        # each ray is read as its own biflat, so no ray order is assumed
        m = square_chord(square_chord_bases)
        fine = delta_tilde_fan(m)
        perm = list(range(len(fine.rays)))
        random.Random(7).shuffle(perm)
        where = {old: new for new, old in enumerate(perm)}
        shuffled = Fan(
            fine.n,
            [fine.rays[i] for i in perm],
            [fine.labels[i] for i in perm],
            [frozenset(where[i] for i in c) for c in fine.maximal],
        )
        assert shuffled.rays != fine.rays
        assert refines(m, shuffled) is None
        assert oracles.refines(shuffled, delta_fan(m))

    @pytest.mark.parametrize("name", sorted(ORACLE_MATROIDS) + ["U(3,6)", "W4"])
    def test_fine_fan_read_back_from_its_json(self, name):
        # JSON keeps the rays and cones alone, and that is all refines reads
        m = (matroid_from_graph(W4_EDGES) if name == "W4"
             else uniform_matroid(3, 6) if name == "U(3,6)"
             else matroid_from_bases(*ORACLE_MATROIDS[name]))
        clone = fan_from_json(json.loads(json.dumps(fan_to_json(delta_tilde_fan(m)))))
        assert refines(m, clone) is None

    # Fans in the plane: with n = 2, LatticeVector((x, 0), (y, 0)) has
    # coordinates (x, y) in Z^2.  Each False case fails exactly one check.
    @staticmethod
    def plane(points, cones):
        rays = [LatticeVector((x, 0), (y, 0)) for x, y in points]
        return Fan(2, rays, [str(p) for p in points], [frozenset(c) for c in cones])

    QUADRANT = ([(1, 0), (0, 1)], [(0, 1)])

    def test_plane_subdivision_refines(self):
        fine = self.plane([(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)])
        assert oracles.refines(fine, self.plane(*self.QUADRANT))

    def test_plane_ray_outside_support(self):
        # the ray (-1, -1) lies in no cone of either fan
        fine = self.plane([(1, 0), (0, 1), (-1, -1)], [(0, 1)])
        assert not oracles.refines(fine, self.plane(*self.QUADRANT))

    def test_plane_cone_straddles_two_coarse_cones(self):
        # the fine fan holds the coarse cones themselves, so only the
        # quadrant cone across the ray (1, 1) can fail
        points = [(1, 0), (1, 1), (0, 1)]
        fine = self.plane(points, [(0, 1), (1, 2), (0, 2)])
        assert not oracles.refines(fine, self.plane(points, [(0, 1), (1, 2)]))

    def test_plane_coarse_cone_without_fine_cone(self):
        fine = self.plane(*self.QUADRANT)
        coarse = self.plane([(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
        assert not oracles.refines(fine, coarse)

    def test_plane_hole_counts_interior_facet_once(self):
        # the sector between (2, 1) and (1, 2) is missing
        fine = self.plane([(1, 0), (2, 1), (1, 2), (0, 1)], [(0, 1), (2, 3)])
        assert not oracles.refines(fine, self.plane(*self.QUADRANT))

    def test_plane_overlap_counts_boundary_facet_twice(self):
        # the quadrant and its subdivision at once: interior ray (1, 1) is
        # shared by two cones, but each axis ray bounds two cones as well
        fine = self.plane([(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2), (0, 2)])
        assert not oracles.refines(fine, self.plane(*self.QUADRANT))

    def test_plane_fans_must_be_pure_and_simplicial(self):
        quadrant = self.plane(*self.QUADRANT)
        # three rays in the plane span one cone of dimension 2, not 3
        flat = self.plane([(1, 0), (1, 1), (0, 1)], [(0, 1, 2)])
        with pytest.raises(NotSimplicial):
            oracles.refines(flat, quadrant)
        with pytest.raises(NotSimplicial):
            oracles.refines(quadrant, flat)
        mixed = self.plane([(1, 0), (0, 1), (-1, -1)], [(0, 1), (2,)])
        with pytest.raises(NotPure):
            oracles.refines(mixed, quadrant)
        ray = self.plane([(1, 0)], [(0,)])
        with pytest.raises(NotPure):
            oracles.refines(ray, quadrant)


class TestRefinesWitness:
    """Each check of refines(m, fine) on a mutant of the square chord's
    fine fan, with the witness it returns."""

    @pytest.fixture
    def case(self, square_chord_bases):
        m = square_chord(square_chord_bases)
        return m, delta_tilde_fan(m)

    @pytest.mark.parametrize(
        "f,g,ray,problem",
        [
            # the closure of 12 is 124
            pytest.param("12", "E", LatticeVector((1, 1, 0, 0, 0), (0, 0, -1, -1, -1)),
                         "F is not a flat of M", id="12-E-F is not a flat of M"),
            # 2 is parallel to 4 in M*
            pytest.param("∅", "2", LatticeVector((0, 0, 0, 0, 0), (0, -1, 0, 0, 0)),
                         "G is not a flat of M*", id="∅-2-G is not a flat of M*"),
        ],
    )
    def test_ray_with_a_bad_biflat(self, case, f, g, ray, problem):
        # ray 0 moved to the vector (e_F, -e_(G minus F)) of a pair (F, G)
        # that is no biflat
        m, fine = case
        bad = mutant(fine, rays=(ray,) + fine.rays[1:])
        assert refines(m, bad) == "ray 0 (%s⊆%s): %s" % (f, g, problem)

    def test_ray_that_disagrees_with_its_biflat(self, case):
        m, fine = case
        for ray, label in [
            # F = 1 meets D = 1: (e_1, -e_1) is no biflat's ray
            (LatticeVector((1, 0, 0, 0, 0), (-1, 0, 0, 0, 0)), "1⊆1"),
            # an entry 2: it reads as F = D = ∅, whose ray is 0
            (LatticeVector((2, 0, 0, 0, 0), (0, 0, 0, 0, 0)), "∅⊆∅"),
        ]:
            bad = mutant(fine, rays=(ray,) + fine.rays[1:])
            assert refines(m, bad) == "ray 0 (%s): is not (e_F, -e_(G minus F))" % label

    def test_zero_ray_is_refused(self, case):
        # (∅, ∅) and (∅, E) both give the zero ray; neither is a square biflat
        m, fine = case
        zero = LatticeVector((0,) * 5, (0,) * 5)
        assert LatticeVector((0,) * 5, (-1,) * 5) == zero
        assert refines(m, mutant(fine, rays=(zero,) + fine.rays[1:])) == (
            "ray 0 (∅⊆∅): G is empty"
        )

    def test_cone_with_no_home(self, case):
        m, fine = case
        tau = fine.maximal[0]
        # its least ray, 124⊆E, swapped for the last, ∅⊆1: a biflag chain
        # still, but its nonempty Fs, {1}, are no complete flag of M
        cone = (tau - {min(tau)}) | {len(fine.rays) - 1}
        bad = mutant(fine, (cone,) + fine.maximal[1:])
        labels = ", ".join(fine.labels[i] for i in sorted(cone))
        assert refines(m, bad) == "cone {%s}: no home" % labels

    def test_flag_pair_with_no_fine_cone(self, case):
        m, fine = case
        # the second cone is the only one of its flag pair: 1 ⊂ 124 in M,
        # 24 in M*
        bad = mutant(fine, fine.maximal[:1] + fine.maximal[2:])
        assert refines(m, bad) == "flag pair 1⊂124 | 24: no fine cone"

    def test_facet_counted_once_inside_its_home(self, case):
        m, fine = case
        # the first cone shares its flag pair with one other cone, across
        # the facet {124⊆E, 1⊆1}
        bad = mutant(fine, fine.maximal[1:])
        assert refines(m, bad) == "facet {124⊆E, 1⊆1} in home 1⊂124 | 1: count 1, not 2"


class TestDivisorIncidence:
    def incidence(self, labels):
        return divisor_incidence(
            [parse_biflat_label(lbl, 5) for lbl in labels], 5
        )

    def test_examples(self):
        assert self.incidence(["1⊆1", "1⊆E"])
        assert self.incidence(["1⊆E", "∅⊆24"])
        assert not self.incidence(["1⊆1", "∅⊆24"])
        assert not self.incidence(["∅⊆24", "∅⊆35"])
        # chains as a biflag but the differences cover E
        assert not self.incidence(["2⊆E", "∅⊆24"])

    def test_singletons_always_incident(self, square_chord_bases):
        for pair in square_biflats(square_chord(square_chord_bases)):
            assert divisor_incidence([pair], 5)

    def test_duplicates_rejected(self):
        pair = parse_biflat_label("1⊆E", 5)
        with pytest.raises(ValueError):
            divisor_incidence([pair, pair], 5)

    def test_matches_stored_cones(self, square_chord_bases):
        # incidence of a biflat set == those rays span a cone of the fan
        m = square_chord(square_chord_bases)
        cones, biflats = square_conormal_fan(m).cones, square_biflats(m)
        for size in (2, 3):
            for combo in combinations(range(len(biflats)), size):
                pairs = [biflats[i] for i in combo]
                expected = frozenset(combo) in cones
                assert divisor_incidence(pairs, 5) == expected


class TestFibreFan:
    def test_over_singleton_flat(self, square_chord_bases):
        m = square_chord(square_chord_bases)
        fan = fibre_fan(m, mask_of([1]), mask_of([2, 3, 4, 5]))
        assert sorted(fan.labels) == sorted(["1⊆1", "1⊆E", "∅⊆24", "∅⊆35"])
        assert len(fan.maximal) == 3
        assert {fan.cone_dim(c) for c in fan.maximal_cones()} == {2}

    def test_over_rank_two_flat(self, square_chord_bases):
        m = square_chord(square_chord_bases)
        fan = fibre_fan(m, mask_of([1, 2, 4]), mask_of([2, 3, 4, 5]))
        assert sorted(fan.labels) == sorted([
            "1⊆1", "1⊆E", "∅⊆24", "∅⊆35", "2⊆24", "4⊆24", "124⊆E",
        ])

    def test_empty_flat_empty_subset(self, square_chord_bases):
        fan = fibre_fan(square_chord(square_chord_bases), 0, 0)
        assert len(fan.rays) == 0
        assert len(fan.maximal) == 1

    def test_rejects_non_flat(self, square_chord_bases):
        with pytest.raises(NotAFlat):
            fibre_fan(square_chord(square_chord_bases), mask_of([1, 2]), mask_of([3, 4, 5]))

    def test_cones_induced(self, square_chord_bases):
        # a qualifying cone of the big fan appears in the fibre fan
        m = square_chord(square_chord_bases)
        big = delta_tilde_fan(m)
        fib = fibre_fan(m, mask_of([1]), mask_of([2, 3, 4, 5]))
        fib_cones = fib.cones
        kept = {lbl: i for i, lbl in enumerate(fib.labels)}
        for cone in big.cones:
            labels = [big.labels[i] for i in cone]
            if all(lbl in kept for lbl in labels):
                assert frozenset(kept[lbl] for lbl in labels) in fib_cones


class TestFanJson:
    def test_round_trip(self, square_chord_bases):
        fan = delta_tilde_fan(square_chord(square_chord_bases))
        data = fan_to_json(fan)
        clone = fan_from_json(json.loads(json.dumps(data)))
        assert clone == fan

    def test_equality_ignores_ray_order(self, square_chord_bases):
        fan = delta_tilde_fan(square_chord(square_chord_bases))
        perm = list(range(len(fan.rays)))
        random.Random(5).shuffle(perm)
        where = {old: new for new, old in enumerate(perm)}
        shuffled = Fan(
            fan.n,
            [fan.rays[i] for i in perm],
            [fan.labels[i] for i in perm],
            [frozenset(where[i] for i in c) for c in fan.maximal],
        )
        assert shuffled == fan and hash(shuffled) == hash(fan)
        relabelled = Fan(fan.n, fan.rays, fan.labels[1:] + fan.labels[:1], fan.maximal)
        assert relabelled != fan
        assert Fan(fan.n + 1, fan.rays, fan.labels, fan.maximal) != fan

    def test_schema_shape(self, square_chord_bases):
        fan = delta_tilde_fan(square_chord(square_chord_bases))
        data = fan_to_json(fan)
        assert set(data) == {"n", "rays", "cones"}
        assert all(set(r) == {"label", "e", "f"} for r in data["rays"])
        # maximal cones come first
        sizes = [len(c) for c in data["cones"]]
        n_max = len(fan.maximal_cones())
        assert all(s == 3 for s in sizes[:n_max])

    def test_maximal_cones_alone_load_the_same_fan(self, square_chord_bases):
        fan = delta_tilde_fan(square_chord(square_chord_bases))
        data = fan_to_json(fan)
        n_max = len(fan.maximal_cones())
        assert fan_from_json(dict(data, cones=data["cones"][:n_max])) == fan_from_json(data)
        assert fan_from_json(dict(data, cones=data["cones"][1:n_max])) != fan

    def test_bad_json_rejected(self):
        for data in [
            {"n": 3, "rays": "nope", "cones": []},
            {"rays": [], "cones": []},
            {"n": 0, "rays": [], "cones": []},
            {"n": -2, "rays": [], "cones": []},
            {"n": 5, "rays": [{"e": [0, 1], "f": [1, 0]}], "cones": [[0]]},
            {"n": 2, "rays": [{"e": [0, 1], "f": [1, 0, 0]}], "cones": [[0]]},
            {"n": 2, "rays": [{"e": [0, 1], "f": [1, 0]}], "cones": [[1]]},
            # no integers, though int() reads 2.9 as 2 and 1.7 as 1
            {"n": 2.9, "rays": [{"e": [0, 1], "f": [1, 0]}], "cones": [[0]]},
            {"n": True, "rays": [{"e": [0], "f": [1]}], "cones": [[0]]},
            {"n": 2, "rays": [{"e": [0, 0.5], "f": [1, 0]}], "cones": [[0]]},
            {"n": 2, "rays": [{"e": [0, True], "f": [1, 0]}], "cones": [[0]]},
            {"n": 2, "rays": [{"e": [0, 1], "f": [1, 0]}] * 2, "cones": [[1.7]]},
            {"n": 2, "rays": [{"e": [0, 1], "f": [1, 0]}], "cones": [[0.0]]},
            {"n": 2, "rays": [{"e": [0, 1], "f": [1, 0]}], "cones": [["0"]]},
        ]:
            with pytest.raises(ParseError):
                fan_from_json(data)
