"""Matroids with explicit basis lists, on ground sets {1..n} stored as bitmasks.

Each matroid tabulates the rank of all 2^n subsets once, on its first rank
query, and keeps the table; closure, loops, coloops, connectivity, roundness,
minors and characteristic polynomials read from it.  The flat lattice is
likewise built once per matroid and kept.  Ground sets are desk scale; the
basis list and the table are exponential in n by design.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import (
    Degenerate,
    DisconnectedGraph,
    EmptyResult,
    HasLoops,
    NonDivisible,
    RankDeficient,
)

# only matroid_from_matrix needs exact arithmetic; it imports arith itself
if TYPE_CHECKING:
    from .arith import Matrix


def mask_of(elements) -> int:
    """Bitmask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple:
    """Sorted 1-based elements of a bitmask."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def subset_label(mask: int, n: int) -> str:
    """Compact label: digit string for n <= 9, dotted beyond; the empty set
    prints as the empty sign and the full set as E."""
    if mask == 0:
        return "∅"
    if mask == (1 << n) - 1:
        return "E"
    parts = [str(e) for e in elements_of(mask)]
    return "".join(parts) if n <= 9 else ".".join(parts)


def parse_subset_label(label: str, n: int) -> int:
    """Inverse of subset_label; elements may also be separated by commas.
    A label is ∅, E, or ASCII digit tokens with one "." or "," between two;
    for n >= 10 a label with no separator is one element, as subset_label
    prints a singleton."""
    label = label.strip()
    if label == "∅":
        return 0
    if label == "E":
        return (1 << n) - 1
    tokens = label.replace(",", ".").split(".")
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError("not a subset label: %r" % label)
    if len(tokens) == 1 and n <= 9:
        tokens = list(label)
    elements = [int(tok) for tok in tokens]
    if any(not 1 <= e <= n for e in elements):
        raise ValueError("element out of range in %r" % label)
    return mask_of(elements)


class ClassPoly:
    """
    Univariate integer polynomial with a display symbol.

    coeffs - tuple, coeffs[d] is the coefficient of symbol**d
    symbol - the variable name used for printing ("t", "L")
    """

    __slots__ = ("coeffs", "symbol")

    def __init__(self, coeffs, symbol="t"):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(int(c) for c in coeffs)
        self.symbol = symbol

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ClassPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        size = max(len(a), len(b))
        a = a + (0,) * (size - len(a))
        b = b + (0,) * (size - len(b))
        return ClassPoly([x + y for x, y in zip(a, b)], self.symbol)

    def __sub__(self, other):
        return self + ClassPoly([-c for c in other.coeffs], self.symbol)

    def __mul__(self, other):
        if isinstance(other, int):
            return ClassPoly([c * other for c in self.coeffs], self.symbol)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ClassPoly(out, self.symbol)

    __rmul__ = __mul__

    def evaluate(self, x: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def div_t_minus_1(self) -> "ClassPoly":
        """Exact quotient by t - 1, by synthetic division; raises NonDivisible
        on a nonzero remainder, which is the value at 1."""
        out, acc = [], 0
        for c in reversed(self.coeffs):
            acc += c
            out.append(acc)
        if acc:
            raise NonDivisible("nonzero remainder")
        return ClassPoly(out[-2::-1], self.symbol)

    def with_symbol(self, symbol: str) -> "ClassPoly":
        return ClassPoly(self.coeffs, symbol)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            elif d == 1:
                body = self.symbol if mag == 1 else "%d%s" % (mag, self.symbol)
            else:
                body = (
                    "%s^%d" % (self.symbol, d)
                    if mag == 1
                    else "%d%s^%d" % (mag, self.symbol, d)
                )
            if not parts:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts)

    def __repr__(self):
        return "ClassPoly(%s)" % self


class Matroid:
    """
    Matroid on {1..n} with an explicit basis list.

    n     - ground set size
    r     - rank (common size of all bases)
    bases - frozenset of basis bitmasks

    The constructor checks only the sizes and the ground set;
    check_bases validates the bases of a family read from outside.
    """

    def __init__(self, n, bases):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        bases = frozenset(bases)
        if not bases:
            raise ValueError("a matroid needs at least one basis")
        sizes = {b.bit_count() for b in bases}
        if len(sizes) != 1:
            raise ValueError("bases of unequal size")
        full = (1 << n) - 1
        if any(b & ~full for b in bases):
            raise ValueError("basis outside the ground set")
        self.n = n
        self.r = sizes.pop()
        self.bases = bases
        self._rank = None
        self._lattice = None

    def rank_table(self) -> bytes:
        """rank_table()[S] is the rank of the subset with bitmask S.

        Built on the first call and kept: the subsets of the bases are the
        independent sets, and a dependent S has rank max over e in S of
        rank(S minus e)."""
        if self._rank is None:
            size = 1 << self.n
            indep = bytearray(size)
            for b in self.bases:
                indep[b] = 1
            # descending order: every superset S + e is marked before S is read
            for s in range(size - 1, 0, -1):
                if indep[s]:
                    rest = s
                    while rest:
                        low = rest & -rest
                        indep[s ^ low] = 1
                        rest ^= low
            rank = bytearray(size)
            for s in range(1, size):
                if indep[s]:
                    rank[s] = s.bit_count()
                    continue
                best = 0
                rest = s
                while rest:
                    low = rest & -rest
                    if rank[s ^ low] > best:
                        best = rank[s ^ low]
                    rest ^= low
                rank[s] = best
            self._rank = bytes(rank)
        return self._rank

    def check_bases(self):
        """Raise ValueError unless the bases are those of a matroid.

        The table max |B & S| of any family of equal-size sets is monotone
        with unit steps; it is a matroid rank function, whose bases are then
        exactly the family, iff r(S+x) + r(S+y) >= r(S+x+y) + r(S) for every S
        and all x, y outside S.  With unit steps that fails only when x and y
        each leave r(S) unchanged and together raise it."""
        rank = self.rank_table()
        full = self.ground
        for s in range(full + 1):
            rs = rank[s]
            spanned = [
                1 << e
                for e in range(self.n)
                if not s >> e & 1 and rank[s | 1 << e] == rs
            ]
            for i, x in enumerate(spanned):
                for y in spanned[i + 1:]:
                    if rank[s | x | y] != rs:
                        raise ValueError(
                            "rank is not submodular at S=%s, x=%d, y=%d"
                            % (
                                subset_label(s, self.n),
                                x.bit_length(),
                                y.bit_length(),
                            )
                        )

    @property
    def ground(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other):
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n == other.n and self.bases == other.bases

    def __hash__(self):
        return hash((self.n, self.bases))

    def __repr__(self):
        return "Matroid(n=%d, r=%d, %d bases)" % (self.n, self.r, len(self.bases))


def matroid_from_bases(n, bases) -> Matroid:
    """Matroid from explicit bases given as element lists (1-based),
    validated (check_bases)."""
    m = Matroid(n, [mask_of(b) for b in bases])
    m.check_bases()
    return m


def uniform_matroid(r, n) -> Matroid:
    if not 0 < r <= n:
        raise ValueError("uniform matroid needs 0 < r <= n")
    return Matroid(n, [mask_of(c) for c in combinations(range(1, n + 1), r)])


def matroid_from_matrix(a: Matrix, minors: dict | None = None) -> Matroid:
    """Column matroid of a full-row-rank matrix.  Its bases are the column
    sets of the nonzero maximal minors: the keys of minors, the table of
    arith.maximal_minors, which is computed when not given."""
    from .arith import maximal_minors

    r, n = a.nrows, a.ncols
    if r == 0 or r == n:
        raise Degenerate("need 0 < r < n, got r=%d n=%d" % (r, n))
    if minors is None:
        minors = maximal_minors(a)
    if not minors:
        raise RankDeficient("row rank below %d" % r)
    return Matroid(n, minors)


def _connected_vertices(edges) -> list:
    """The endpoints of the edges, each once, in order of first appearance;
    DisconnectedGraph unless the edges join them into one component."""
    vertices = list(dict.fromkeys(w for e in edges for w in e))
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    if len({find(v) for v in vertices}) != 1:
        raise DisconnectedGraph("graph is not connected")
    return vertices


def _spanning_trees(vertices, edges) -> list:
    """Edge masks of the spanning trees of a connected graph.

    A depth-first search over the edges in input order that carries, per
    vertex, the mask of the vertices in its component: it takes an edge
    only when the edge joins two components, and stops a branch when too
    few edges remain to finish a tree."""
    index = {v: i for i, v in enumerate(vertices)}
    ends = [(index[u], index[v]) for u, v in edges]
    n, r = len(ends), len(vertices) - 1
    trees = []

    def grow(start, comp, taken, mask):
        if taken == r:
            trees.append(mask)
            return
        for i in range(start, n - r + taken + 1):
            u, v = ends[i]
            if comp[u] >> v & 1:
                continue
            merged = comp[u] | comp[v]
            # components are disjoint: c meets merged only if it is u's or v's
            grow(
                i + 1,
                tuple([merged if c & merged else c for c in comp]),
                taken + 1,
                mask | 1 << i,
            )

    grow(0, tuple(1 << i for i in range(r + 1)), 0, 0)
    return trees


def matroid_from_graph(edges) -> Matroid:
    """Cycle matroid of a connected graph; edges are numbered 1..n in input order."""
    edges = [tuple(e) for e in edges]
    if not edges:
        raise ValueError("no edges")
    vertices = _connected_vertices(edges)
    if len(vertices) == 1:
        raise Degenerate("single-vertex graph has a rank-0 matroid")
    return Matroid(len(edges), _spanning_trees(vertices, edges))


def rank_of(m: Matroid, s: int) -> int:
    """Rank of a subset, read from the matroid's rank table."""
    return m.rank_table()[s]


def closure(m: Matroid, s: int) -> int:
    rank = m.rank_table()
    rk = rank[s]
    out = s
    for e in range(m.n):
        bit = 1 << e
        if rank[s | bit] == rk:
            out |= bit
    return out


def flats(m: Matroid) -> MappingProxyType:
    """Every flat, level by level: the closure of the empty set, then the
    closures of F + e over the flats F of the level below, which are exactly
    the flats covering F.  Built once per matroid and kept: a read-only
    mapping flat -> rank, iterated in (rank, mask) order."""
    if m._lattice is None:
        rank = m.rank_table()
        bottom = closure(m, 0)
        found = {bottom: rank[bottom]}
        level = [bottom]
        while level:
            above = []
            for f in level:
                rest = m.ground & ~f
                while rest:
                    g = closure(m, f | (rest & -rest))
                    # every element of g outside f has the same closure with f
                    rest &= ~g
                    if g not in found:
                        found[g] = rank[g]
                        above.append(g)
            level = above
        order = sorted(found, key=lambda f: (found[f], f))
        m._lattice = MappingProxyType({f: found[f] for f in order})
    return m._lattice


def loops_of(m: Matroid) -> int:
    return closure(m, 0)


def coloops_of(m: Matroid) -> int:
    """Elements e with rank(E minus e) < rank(E)."""
    rank = m.rank_table()
    full = m.ground
    out = 0
    for e in range(m.n):
        bit = 1 << e
        if rank[full & ~bit] < m.r:
            out |= bit
    return out


def dual(m: Matroid) -> Matroid:
    full = m.ground
    return Matroid(m.n, [full & ~b for b in m.bases])


def _minor(keep: int, rk: int, is_basis) -> Matroid:
    """The matroid on keep whose bases are the rk-subsets s of keep with
    is_basis(s); the kept elements are renumbered 1..n' in order."""
    kept = elements_of(keep)
    bases = []
    for cols in combinations(range(len(kept)), rk):
        if is_basis(mask_of(kept[i] for i in cols)):
            bases.append(mask_of(i + 1 for i in cols))
    return Matroid(len(kept), bases)


def delete(m: Matroid, f: int) -> Matroid:
    """Deletion M minus f; surviving elements are renumbered 1..n' in order."""
    rank = m.rank_table()
    keep = m.ground & ~f
    rk = rank[keep]
    if rk == 0:
        raise EmptyResult("deletion leaves nothing of positive rank")
    return _minor(keep, rk, lambda s: rank[s] == rk)


def contract(m: Matroid, f: int) -> Matroid:
    """Contraction M/f; surviving elements are renumbered 1..n' in order."""
    if f == 0:
        return m
    keep = m.ground & ~f
    if keep == 0:
        raise EmptyResult("contracting the whole ground set")
    rank = m.rank_table()
    rk = m.r - rank[f]
    if rk == 0:
        raise EmptyResult("contraction has rank zero")
    return _minor(keep, rk, lambda s: rank[s | f] == m.r)


def is_connected(m: Matroid) -> bool:
    """No partition E = E1 | E2 with rank(E1) + rank(E2) = rank(E), both parts nonempty."""
    rank = m.rank_table()
    full = m.ground
    for s in range(1, 1 << (m.n - 1)):
        if rank[s] + rank[full & ~s] == m.r:
            return False
    return True


def roundness_witnesses(m: Matroid) -> list:
    """The proper flats F, the empty closure included, with rank(E minus F)
    below rank(E), in the order of flats(m); m is round exactly when there
    are none."""
    rank = m.rank_table()
    full = m.ground
    return [f for f in flats(m) if f != full and rank[full & ~f] < m.r]


def is_round(m: Matroid) -> bool:
    """rank(E minus F) = rank(E) for every proper flat F, the empty closure included."""
    return not roundness_witnesses(m)


def char_poly(m: Matroid) -> ClassPoly:
    """Characteristic polynomial by Whitney's theorem: the sum over all
    subsets S of (-1)^|S| t^(r - rank S)."""
    if loops_of(m) != 0:
        raise HasLoops("characteristic polynomial of a matroid with loops")
    coeffs = [0] * (m.r + 1)
    for s, rk in enumerate(m.rank_table()):
        coeffs[m.r - rk] += -1 if s.bit_count() & 1 else 1
    return ClassPoly(coeffs, "t")


def contraction_char_polys(m: Matroid) -> dict:
    """Flat F -> characteristic polynomial of M/F, for every flat at once,
    in the order of flats(m).

    By Whitney's theorem on M/F, chi(M/F) is (-1)^|F| times the sum over the
    subsets S containing F of (-1)^|S| t^(r - rank S).  Each subset's term is
    packed into one int, the polynomial at t = 2^w with w = n + 2.  One sweep
    per element adds each subset's sum into the subset without that element,
    which gives the sum over all supersets of every subset in n 2^(n-1) int
    additions.  The digits base 2^w are read back, signed, only at the flats.
    That is exact: after j sweeps each coefficient is a sum of at most 2^j
    terms +-1, so |c| <= 2^n < 2^(w-1), and a digit never carries into the
    next."""
    n, r = m.n, m.r
    w = n + 2
    digit, half = (1 << w) - 1, 1 << (w - 1)
    # the term of a subset of rank k with |S| even, by k; negated when odd
    even = [1 << w * (r - k) for k in range(r + 1)]
    odd = [-x for x in even]
    sums = [(odd if s.bit_count() & 1 else even)[k] for s, k in enumerate(m.rank_table())]
    size = 1 << n
    for e in range(n):
        bit = 1 << e
        step = bit << 1
        # the subsets without e, in strided or contiguous runs, whichever
        # takes fewer slices; each run gains the run with e added
        if bit <= size // step:
            for lo in range(bit):
                sums[lo::step] = map(add, sums[lo::step], sums[lo + bit::step])
        else:
            for lo in range(0, size, step):
                sums[lo:lo + bit] = map(add, sums[lo:lo + bit], sums[lo + bit:lo + step])
    out = {}
    for f in flats(m):
        packed = -sums[f] if f.bit_count() & 1 else sums[f]
        coeffs = []
        for _ in range(r + 1):
            c = packed & digit
            if c >= half:
                c -= 1 << w
            coeffs.append(c)
            packed = (packed - c) >> w
        out[f] = ClassPoly(coeffs, "t")
    return out


def reduced_char_poly(m: Matroid) -> ClassPoly:
    """char_poly divided exactly by (t - 1)."""
    return char_poly(m).div_t_minus_1()
