"""Fans in the doubled quotient lattice: Bergman fans, square biflats and the
square conormal fan, its negative shear, the coarse and fine resolution
fans, and the structural checks (unimodularity, coordinate-fan maps,
refinement certificates, divisor incidence, fibre fans).

Lattice model: vectors live in (Z^E / Z*e_E)^2.  A class is stored by the
unique representative whose minimum entry per block is zero, and exact linear
algebra runs through the isomorphism to Z^(2n-2) that drops the last
coordinate of each block after subtracting it.
"""

from __future__ import annotations

from collections import Counter
from copy import copy
from itertools import chain, combinations

from .errors import (
    HasLoops,
    LoopOrColoop,
    NotAFlat,
    ParseError,
)
from .matroid import (
    Matroid,
    coloops_of,
    dual,
    flats,
    loops_of,
    subset_label,
)


def _min_zero(block):
    m = min(block)
    return tuple(x - m for x in block)


class LatticeVector:
    """
    Element of the doubled quotient lattice, canonical min-zero representative.

    e, f - integer tuples of equal length n, each with minimum entry 0
    """

    __slots__ = ("e", "f")

    def __init__(self, e, f):
        e = tuple(e)
        f = tuple(f)
        if len(e) != len(f) or not e:
            raise ValueError("blocks must be nonempty and of equal length")
        object.__setattr__(self, "e", _min_zero(e))
        object.__setattr__(self, "f", _min_zero(f))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @property
    def n(self):
        return len(self.e)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeVector)
            and self.e == other.e
            and self.f == other.f
        )

    def __hash__(self):
        return hash((self.e, self.f))

    def __repr__(self):
        return "LatticeVector(e=%r, f=%r)" % (self.e, self.f)

    def coords(self):
        """Image in Z^(2n-2): subtract the last entry of each block and drop it."""
        return tuple(a - self.e[-1] for a in self.e[:-1]) + tuple(
            b - self.f[-1] for b in self.f[:-1]
        )


def _indicator(mask: int, n: int):
    return tuple(1 if mask >> i & 1 else 0 for i in range(n))


def lattice_e(mask: int, n: int) -> LatticeVector:
    return LatticeVector(_indicator(mask, n), (0,) * n)


def biflat_ray(fmask: int, gmask: int, n: int) -> LatticeVector:
    """The ray -e_F + f_G of a square biflat.  It is primitive: its entries
    lie in {-1, 0, 1}, and one coordinate is +-1 because F is proper and
    (empty, E) is no square biflat."""
    return LatticeVector(
        tuple(-x for x in _indicator(fmask, n)), _indicator(gmask, n)
    )


def _faces(members):
    """Every face of a simplicial cone given by its sorted ray indices: all
    subsequences, each a sorted tuple."""
    return chain.from_iterable(combinations(members, k) for k in range(len(members) + 1))


def _face_tuples(fan):
    """Every cone of the fan, the origin included, as sorted tuples."""
    out = set()
    for c in fan.maximal:
        out.update(_faces(sorted(c)))
    return out


class Fan:
    """
    Simplicial fan presented by rays and its maximal cones.

    n        - ground-set size (length of each lattice block)
    rays     - tuple of primitive LatticeVector
    labels   - tuple of ray labels
    maximal  - tuple of the inclusion-maximal cones, frozensets of ray
               indices sorted by their sorted members; the trivial fan keeps
               the origin (the empty set)

    The maximal cones are kept as given, none inside another, and only
    sorted: the chain builders reduce their families with _maximal_chains,
    and fan_from_json reduces a family read from outside.
    """

    __slots__ = ("n", "rays", "labels", "maximal")

    def __init__(self, n, rays, labels, maximal):
        self.n = n
        self.rays = tuple(rays)
        self.labels = tuple(labels)
        self.maximal = tuple(sorted(maximal, key=sorted))

    @property
    def cones(self):
        """Every cone of the fan, the origin included."""
        return frozenset(map(frozenset, _face_tuples(self)))

    def __eq__(self, other):
        """Same n, rays, ray labels and maximal cones, in any ray order."""
        if not isinstance(other, Fan):
            return NotImplemented

        def keyed(fan):
            cones = {frozenset(fan.rays[i] for i in c) for c in fan.maximal}
            return fan.n, len(fan.rays), dict(zip(fan.rays, fan.labels)), cones

        return keyed(self) == keyed(other)

    def __hash__(self):
        return hash((self.n, frozenset(self.rays)))

    def maximal_cones(self):
        return self.maximal

    def factor(self, cone):
        """(rank, index) of the cone's generators (factor_rows), rows in
        Z^(2n-2) in the order of their ray indices."""
        return factor_rows([self.rays[i].coords() for i in sorted(cone)])

    def cone_dim(self, cone) -> int:
        return self.factor(cone)[0]


# ---------------------------------------------------------------------------
# fan constructions
# ---------------------------------------------------------------------------


def _chains(lower, diffs, full):
    """All chains in a finite poset on the indices 0..k-1 whose union of
    diffs stays proper, as index tuples in decreasing order, the empty chain
    included.

    lower[j] lists the indices strictly below j, and diffs[i] is a mask in
    full (for a biflat, G minus F).  A subchain's union lies in the chain's,
    so the rule is closed under subchains (a fan's cones are closed under
    faces): the search stops at the first rejected chain, and each chain on
    its stack carries its union.
    """
    stack = [((), 0)]
    while stack:
        chain, union = stack.pop()
        yield chain
        for i in lower[chain[-1]] if chain else range(len(lower)):
            longer = union | diffs[i]
            if longer != full:
                stack.append((chain + (i,), longer))


def _maximal_chains(chains):
    """The inclusion-maximal members of a family of chains closed under
    subchains (as _chains yields it), as frozensets.  A chain lies in a longer
    member exactly when it is some member less one element, and a chain's
    tuple is unique (its elements in decreasing order), so no face of a
    longer chain need be listed."""
    chains = list(chains)
    covered = {c[:i] + c[i + 1:] for c in chains for i in range(len(c))}
    return [frozenset(c) for c in chains if c not in covered]


def _bergman_flags(m: Matroid):
    """The nonempty proper flats of m and the maximal chains among them, each
    a frozenset of indices into the flats: the maximal cones of the Bergman
    fan, the origin alone when m has rank 1."""
    if loops_of(m):
        raise HasLoops("matroid has loops")
    props = [f for f in flats(m) if f not in (0, m.ground)]
    # a flag of flats is a biflag chain with G = F: every diff is empty
    lower = _biflag_order([(f, f) for f in props])
    return props, _maximal_chains(_chains(lower, [0] * len(props), m.ground))


def bergman_fan(m: Matroid) -> Fan:
    """Fan of strict flags of nonempty proper flats, with rays e_F."""
    props, flags = _bergman_flags(m)
    rays = [lattice_e(f, m.n) for f in props]
    labels = [subset_label(f, m.n) for f in props]
    return Fan(m.n, rays, labels, flags)


def square_biflats(m: Matroid):
    """All pairs (F, G): F a flat of m, G a flat of the dual, F within G,
    G nonempty, F proper, and not the degenerate pair (empty, full)."""
    if loops_of(m) or coloops_of(m):
        raise LoopOrColoop("square biflats need a loopless, coloopless matroid")
    full = m.ground
    out = []
    dual_flats = flats(dual(m))
    for f in flats(m):
        if f == full:
            continue
        for g in dual_flats:
            if g == 0 or (f == 0 and g == full):
                continue
            if f & g == f:
                out.append((f, g))
    out.sort(key=lambda p: (-p[0].bit_count(), p[0], -p[1].bit_count(), p[1]))
    return out


def biflat_label(pair, n: int) -> str:
    return "%s⊆%s" % (subset_label(pair[0], n), subset_label(pair[1], n))


def _within(a, b):
    """Both components of the biflat a lie in those of b."""
    return a[0] & b[0] == a[0] and a[1] & b[1] == a[1]


def _biflag_order(pairs):
    """lower[j]: the indices, ascending, of the distinct biflats within
    biflat j (_within).  Grouping the biflats by F first, each biflat scans
    only the groups whose F lies in its own."""
    by_f = {}
    for i, (f, _) in enumerate(pairs):
        by_f.setdefault(f, []).append(i)
    return [
        sorted(
            i
            for f, group in by_f.items() if f & f2 == f
            for i in group if i != j and pairs[i][1] & g2 == pairs[i][1]
        )
        for j, (f2, g2) in enumerate(pairs)
    ]


def _biflag_fan(m: Matroid, pairs) -> Fan:
    """Fan on rays -e_F + f_G over the given square biflats; cones are the
    biflag chains, each biflat within the next, whose union of G minus F
    stays proper.  Those chains are closed under subchains, so over any set
    of square biflats this is the part of the full fan that the set spans."""
    n = m.n
    rays = [biflat_ray(f, g, n) for f, g in pairs]
    labels = [biflat_label(p, n) for p in pairs]
    cones = _chains(_biflag_order(pairs), [g & ~f for f, g in pairs], m.ground)
    return Fan(n, rays, labels, _maximal_chains(cones))


def square_conormal_fan(m: Matroid) -> Fan:
    """Fan on rays -e_F + f_G over all square biflats (_biflag_fan)."""
    return _biflag_fan(m, square_biflats(m))


def delta_tilde_fan(m: Matroid) -> Fan:
    """Image of the square conormal fan under the negative shear;
    rays become e_F - f_(G minus F).  It is the fibre over (E, E)."""
    return fibre_fan(m, m.ground, m.ground)


def delta_fan(m: Matroid) -> Fan:
    """Negative shear of the product of the negated Bergman fan of m with the
    Bergman fan of its dual, written directly: a ray (e_F, e_F) for each
    nonempty proper flat F of m, a ray (0, -e_G) for each G of the dual, and
    a maximal cone for each pair of maximal flags."""
    if loops_of(m) or coloops_of(m):
        raise LoopOrColoop("needs a loopless, coloopless matroid")
    n = m.n
    m_props, m_flags = _bergman_flags(m)
    d_props, d_flags = _bergman_flags(dual(m))
    rays = [LatticeVector(_indicator(f, n), _indicator(f, n)) for f in m_props]
    rays += [LatticeVector((0,) * n, [-x for x in _indicator(g, n)]) for g in d_props]
    labels = [subset_label(f, n) for f in m_props]
    labels += ["*" + subset_label(g, n) for g in d_props]
    off = len(m_props)
    # a product cone is maximal exactly when both factors are
    cones = [c1 | {i + off for i in c2} for c1 in m_flags for c2 in d_flags]
    return Fan(n, rays, labels, cones)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def factor_rows(rows):
    """(rank, index) of k integer rows g_1..g_k of equal length, such as the
    generators of a cone, with no rational arithmetic.  G is the matrix with
    columns g_1..g_k; the index is the gcd of its k x k minors: the index of
    the lattice the rows span in its saturation at full rank, 0 below it.

    Hermite form under unimodular column operations (Euclid's algorithm on
    the columns, Cohen GTM 138 §2.4): they reduce G^T to [L | 0] with L
    lower triangular and keep the gcd of the maximal minors, so the rank is
    the number of pivots of L and, at full rank, the index is the product of
    their |values|.
    """
    k = len(rows)
    # rest: the columns of G^T not yet pivots, cut to the rows below the
    # current one (the rows above are zero there)
    rest = [list(c) for c in zip(*rows)]
    rank = 0
    index = 1
    for _ in range(k):
        live = [c for c in rest if c[0]]
        rest = [c[1:] for c in rest if not c[0]]
        # subtract multiples of the live column of least |entry| from the
        # others until it is the only one left nonzero in this row
        while len(live) > 1:
            a = min(live, key=lambda c: abs(c[0]))
            head, tail = a[0], a[1:]
            nxt = [a]
            for b in live:
                if b is not a:
                    q, r = divmod(b[0], head)
                    b = [t - q * s for s, t in zip(tail, b[1:])]
                    if r:
                        nxt.append([r] + b)
                    else:
                        rest.append(b)
            live = nxt
        if live:
            index *= abs(live[0][0])
            rank += 1
    return rank, index if rank == k else 0


def non_unimodular_cones(fan: Fan):
    """The maximal cones, in fan.maximal order, whose generators are not
    independent or do not extend to a basis of the lattice: those where the
    gcd of the k x k minors of the k x (2n-2) coordinate matrix is not 1.

    Each cone's rows are reduced in order against the pivot rows above them
    and pivoted on an entry of +-1.  These are row operations, which keep
    every k x k minor, and the reduced rows are zero on the pivot columns
    above them, so once every row has a unit pivot the minor on the pivot
    columns is +-1: a witness that the cone is unimodular.  A row that
    reduces to zero makes the cone rank-deficient.  A cone whose next row
    has no entry +-1 is decided by factor_rows on its rows.

    A pivot row depends only on the rays up to its own, and fan.maximal is
    sorted by sorted members, so one stack of (ray, pivot column, row)
    serves each cone's leading rays shared with the cone before it.
    """
    coords = [v.coords() for v in fan.rays]
    stack = []
    bad = []
    for cone in fan.maximal:
        members = sorted(cone)
        depth = 0
        while depth < min(len(stack), len(members)) and stack[depth][0] == members[depth]:
            depth += 1
        del stack[depth:]
        for i in members[depth:]:
            row = coords[i]
            for _, col, pivot_row in stack:
                x = row[col]
                if x:
                    row = [a - x * b for a, b in zip(row, pivot_row)]
            if -1 in row and 1 not in row:
                row = [-x for x in row]
            if 1 not in row:
                if factor_rows([coords[j] for j in members]) != (len(members), 1):
                    bad.append(cone)
                break
            stack.append((i, row.index(1), row))
    return bad


def cones_off_coordinate_fans(fan: Fan):
    """(off_pi1, off_minus_pi2): the maximal cones, in fan.maximal order,
    whose image under pi1 (the first block), or under -pi2 (the second block
    negated), lands in no cone of the coordinate fan.

    A cone lands in a cone of the coordinate fan when its rays share a
    minimizing coordinate, since the min inequalities survive nonnegative
    combinations.  Each ray's argmin of e and argmax of f (the argmin of -f)
    are taken once, as bitmasks, and ANDed over each cone.
    """
    lows, highs = [], []
    for v in fan.rays:
        lo, hi = min(v.e), max(v.f)
        lows.append(sum(1 << j for j, x in enumerate(v.e) if x == lo))
        highs.append(sum(1 << j for j, x in enumerate(v.f) if x == hi))
    off_pi1, off_minus_pi2 = [], []
    for cone in fan.maximal:
        low = high = -1  # every coordinate
        for i in cone:
            low &= lows[i]
            high &= highs[i]
        if not low:
            off_pi1.append(cone)
        if not high:
            off_minus_pi2.append(cone)
    return off_pi1, off_minus_pi2


def refines(m: Matroid, fine: Fan):
    """None when fine, each ray read as its biflat, is the fine fan of m (as
    delta_tilde_fan builds it) and refines delta_fan(m), which is never
    built; otherwise a short witness of the first check that fails.

    The coarse generators of a flat F of m and of a flat G of its dual are
    (e_F, e_F) and (0, -e_G).  Their sum is the ray (e_F, -e_(G minus F)) of
    the biflat (F, G), so that ray lies in the cone of the flag pair (Fs, Gs)
    exactly when F is empty or in Fs and G is E or in Gs: Bergman-cone
    membership (Ardila-Klivans 2006).  The checks, in order:
    - each ray is (e_F, -e_D), F where e is 1 and D where f is 0 (empty
      when f is 0 throughout), with F, D disjoint, G = F + D nonempty, F a
      flat of m and G a flat of the dual;
    - each maximal cone is a biflag chain of n - 2 rays whose nonempty Fs
      and whose Gs other than E are maximal cones of the two Bergman fans:
      its home.  In the home's generators each ray is 1 on its F and its G
      and 0 elsewhere, so the chain is a monotone staircase and its rays
      are independent;
    - every flag pair is a home;
    - in its home, a facet (a cone less one ray) bounds one cone when it
      misses an F of Fs or a G of Gs, and two otherwise.  The two sides are
      compared apart, since one mask can be a flat of both m and its dual.
    """
    n, full = m.n, m.ground
    d = dual(m)
    m_flats, d_flats = flats(m), flats(d)
    pairs = []
    for i, ray in enumerate(fine.rays):
        f = sum(1 << j for j, x in enumerate(ray.e) if x == 1)
        diff = sum(1 << j for j, x in enumerate(ray.f) if x == 0) if any(ray.f) else 0
        g = f | diff
        bad = (
            "is not (e_F, -e_(G minus F))" if f & diff
            or ray != LatticeVector(_indicator(f, n), [-x for x in _indicator(diff, n)])
            else "G is empty" if not g
            else "F is not a flat of M" if f not in m_flats
            else "G is not a flat of M*" if g not in d_flats
            else None
        )
        if bad:
            return "ray %d (%s): %s" % (i, biflat_label((f, g), n), bad)
        pairs.append((f, g))

    # each maximal flag of M and of M* as the set of its flat masks
    m_flags, d_flags = (
        [frozenset(props[i] for i in c) for c in flags]
        for props, flags in map(_bergman_flags, (m, d))
    )
    m_set, d_set = set(m_flags), set(d_flags)
    size = [f.bit_count() + g.bit_count() for f, g in pairs]
    by_home = {}
    for tau in dict.fromkeys(fine.maximal):  # a cone listed twice counts once
        chain = tuple(sorted(tau, key=size.__getitem__))
        fs = frozenset(pairs[i][0] for i in chain) - {0}
        gs = frozenset(pairs[i][1] for i in chain) - {full}
        if (
            len(chain) != n - 2
            or not all(pairs[a] != pairs[b] and _within(pairs[a], pairs[b])
                       for a, b in zip(chain, chain[1:]))
            or fs not in m_set
            or gs not in d_set
        ):
            return "cone %s: no home" % cone_label(fine, tau)
        by_home.setdefault((fs, gs), []).append(chain)

    if len(by_home) < len(m_flags) * len(d_flags):
        home = next((a, b) for a in m_flags for b in d_flags if (a, b) not in by_home)
        return "flag pair %s: no fine cone" % _home_label(home, n)
    # a chain's rays strictly grow in |F| + |G|, so a facet cut from the
    # sorted chain is the same tuple in every cone that has it
    for (fs, gs), chains in by_home.items():
        facets = Counter(c[:k] + c[k + 1:] for c in chains for k in range(len(c)))
        for rho, count in facets.items():
            inside = fs <= {pairs[i][0] for i in rho} and gs <= {pairs[i][1] for i in rho}
            expected = 2 if inside else 1
            if count != expected:
                return "facet %s in home %s: count %d, not %d" % (
                    cone_label(fine, rho), _home_label((fs, gs), n), count, expected
                )
    return None


def cone_label(fan: Fan, cone) -> str:
    return "{%s}" % ", ".join(fan.labels[i] for i in sorted(cone))


def _home_label(home, n: int) -> str:
    """A flag pair as its two flags, each ascending."""
    return " | ".join(
        "⊂".join(subset_label(f, n) for f in sorted(flag, key=int.bit_count)) or "∅"
        for flag in home
    )


def divisor_incidence(biflats, n: int) -> bool:
    """Whether the given distinct square biflats admit a common cone: they
    must sort into a biflag chain whose union of G minus F stays proper."""
    if not biflats:
        raise ValueError("empty biflat list")
    pairs = sorted(
        set(biflats),
        key=lambda p: (-p[0].bit_count(), -p[1].bit_count(), p[0], p[1]),
    )
    if len(pairs) != len(biflats):
        raise ValueError("biflats must be distinct")
    union = 0
    for f, g in pairs:
        union |= g & ~f
    return all(_within(b, a) for a, b in zip(pairs, pairs[1:])) and union != (1 << n) - 1


def fibre_biflats(m: Matroid, flat: int, subset: int):
    """The square biflats (F', G') with F' within the given flat and G' minus
    F' within the subset, in square_biflats order: the rays of the fibre fan,
    read without building a cone."""
    if flat not in flats(m):
        raise NotAFlat("%s is not a flat" % subset_label(flat, m.n))
    return [
        (f, g) for f, g in square_biflats(m) if f & ~flat == 0 and g & ~f & ~subset == 0
    ]


def fibre_fan(m: Matroid, flat: int, subset: int) -> Fan:
    """The subfan of the fine resolution fan (delta_tilde_fan) on the rays
    of fibre_biflats: the negative shear of the biflag fan on those biflats
    alone."""
    return minus_shear(_biflag_fan(m, fibre_biflats(m, flat, subset)))


def minus_shear(fan: Fan) -> Fan:
    """The fan's image under the negative shear (x, y) -> (-x, -x-y): a copy
    sharing the labels and maximal cones, each ray sheared.  The
    shear is a lattice automorphism, so primitive rays stay primitive."""
    out = copy(fan)
    out.rays = tuple(
        LatticeVector([-a for a in v.e], [-a - b for a, b in zip(v.e, v.f)])
        for v in fan.rays
    )
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def fan_to_json(fan: Fan) -> dict:
    """Plain-dict form: rays with both blocks, and every cone as the sorted
    tuple of its ray indices (an array in JSON): the maximal cones, larger
    first, then the other faces, larger first, each size in sorted order."""
    maxes = sorted(tuple(sorted(c)) for c in fan.maximal)
    cones = sorted(maxes, key=len, reverse=True)
    # the other faces are the k-subsets of the maximal cones larger than k,
    # one k at a time: no maximal cone lies in another
    for k in reversed(range(max(map(len, maxes), default=0))):
        level = set()
        for c in maxes:
            if len(c) > k:
                level.update(combinations(c, k))
        cones += sorted(level)
    return {
        "n": fan.n,
        "rays": [
            {"label": lab, "e": list(v.e), "f": list(v.f)}
            for lab, v in zip(fan.labels, fan.rays)
        ],
        "cones": cones,
    }


def fan_from_json(data) -> Fan:
    """The fan of a plain dict as fan_to_json writes it.  Its cones may be
    any family whose faces are the fan's cones: the members that lie in no
    other member are kept, and an empty family is the origin alone."""
    # imported here, not at the top: no command reads fan JSON, and the fan
    # commands compile inputs after fans and matroid (a lower peak RSS)
    from .inputs import _integers

    try:
        (n,) = _integers([data["n"]])
        rays = [LatticeVector(_integers(r["e"]), _integers(r["f"])) for r in data["rays"]]
        labels = [str(r.get("label", "")) for r in data["rays"]]
        cones = [frozenset(_integers(c)) for c in data["cones"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad fan JSON: %s" % exc) from None
    if n < 1:
        raise ParseError("bad fan JSON: n must be positive, got %d" % n)
    if any(v.n != n for v in rays):
        raise ParseError("bad fan JSON: ray blocks must have length n = %d" % n)
    for c in cones:
        if any(i < 0 or i >= len(rays) for i in c):
            raise ParseError("cone references a missing ray")
    covered = set()
    maximal = []
    # largest first, so every cone containing c is seen before c
    for c in sorted(set(cones) | {frozenset()}, key=len, reverse=True):
        members = tuple(sorted(c))
        if members not in covered:
            maximal.append(c)
            covered.update(_faces(members))
    return Fan(n, rays, labels, maximal)
