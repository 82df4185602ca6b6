"""Configurations: a full-row-rank exact matrix A, its polynomial det(A diag(x) A^T),
the bilinear incidence equations, Jacobian ranks over strata, the coordinatewise
square map, and the torus duality map.

Conventions: A is r x n with 0 < r < n; matroid elements 1..n are the columns;
w is a length-r vector in row-span coordinates, v = A^T w its ambient image,
beta a length-n covector.
"""

from __future__ import annotations

from enum import Enum
from random import Random
from typing import TYPE_CHECKING

from .arith import (
    Fp,
    Matrix,
    MultiPoly,
    _promote_div,
    det,
    kernel_basis,
    matrix_rank,
    maximal_minors,
    solve_exact,
)
from .errors import (
    Degenerate,
    DisconnectedGraph,
    HasLoops,
    Mismatch,
    NotConnected,
    NotOnLambda,
    RankDeficient,
    ZeroCoordinate,
    ZeroVector,
)

# A configuration's matroid is built on first use, so the ψ and char-p
# routes on matrix input never load the matroid layer: the functions that
# read it import it themselves.
if TYPE_CHECKING:
    from .matroid import Matroid


def x_variables(n: int):
    return tuple("x%d" % (i + 1) for i in range(n))


def xu_variables(n: int, r: int):
    return x_variables(n) + tuple("u%d" % (i + 1) for i in range(r))


class Configuration:
    """
    A realized configuration.

    a       - arith.Matrix, r x n, full row rank
    r, n    - shape
    minors  - {column mask: det(A_B)} over the bases B (arith.maximal_minors)
    matroid - column matroid of a, read from minors on first use and kept
    """

    __slots__ = ("a", "r", "n", "minors", "_matroid")

    def __init__(self, a: Matrix, minors: dict):
        self.a = a
        self.r = a.nrows
        self.n = a.ncols
        self.minors = minors
        self._matroid = None

    @property
    def matroid(self) -> Matroid:
        if self._matroid is None:
            from .matroid import matroid_from_matrix

            self._matroid = matroid_from_matrix(self.a, self.minors)
        return self._matroid

    def __repr__(self):
        return "Configuration(r=%d, n=%d)" % (self.r, self.n)


class Point:
    """
    Point data for the incidence equations.

    w    - length-r vector in row-span coordinates (optional)
    v    - length-n ambient vector, v = A^T w (optional)
    beta - length-n covector (optional)
    """

    __slots__ = ("w", "v", "beta")

    def __init__(self, w=None, v=None, beta=None):
        self.w = None if w is None else list(w)
        self.v = None if v is None else list(v)
        self.beta = None if beta is None else list(beta)

    def __repr__(self):
        return "Point(w=%r, v=%r, beta=%r)" % (self.w, self.v, self.beta)


class XRankClass(Enum):
    OFF_X = "OffX"
    SMOOTH = "Smooth"
    SINGULAR_ON_X = "SingularOnX"


def config_new(a: Matrix) -> Configuration:
    """Validate a matrix as a configuration and attach its maximal minors."""
    r, n = a.nrows, a.ncols
    if r == 0 or r >= n:
        raise Degenerate("need 0 < r < n, got r=%d n=%d" % (r, n))
    minors = maximal_minors(a)
    if not minors:
        raise RankDeficient("row rank below %d" % r)
    for j in range(n):
        if all(not a[i, j] for i in range(r)):
            raise HasLoops("column %d is zero (a loop)" % (j + 1))
    return Configuration(a, minors)


def config_from_graph(edges) -> Configuration:
    """Configuration of a connected graph: oriented incidence matrix, one vertex row dropped."""
    from .matroid import _connected_components, _vertices

    edges = [tuple(e) for e in edges]
    vertices = _vertices(edges)
    if _connected_components(vertices, edges) != 1:
        raise DisconnectedGraph("graph is not connected")
    index = {v: i for i, v in enumerate(vertices)}
    rows = [[0] * len(edges) for _ in range(len(vertices) - 1)]
    for j, (u, v) in enumerate(edges):
        iu, iv = index[u], index[v]
        if iu < len(rows):
            rows[iu][j] += 1
        if iv < len(rows):
            rows[iv][j] -= 1
    return config_new(Matrix(rows, ncols=len(edges)))


def q_w_matrix(c: Configuration) -> Matrix:
    """The r x r symmetric matrix A diag(x) A^T with polynomial entries."""
    variables = x_variables(c.n)
    entries = []
    for i in range(c.r):
        row = []
        for j in range(c.r):
            terms = {}
            for k in range(c.n):
                coeff = c.a[i, k] * c.a[j, k]
                if coeff:
                    mono = [0] * c.n
                    mono[k] = 1
                    terms[tuple(mono)] = coeff
            row.append(MultiPoly(variables, terms))
        entries.append(row)
    return Matrix(entries, ncols=c.r)


def first_basis(c: Configuration) -> tuple:
    """The lexicographically first basis, as 0-based columns: the pivot
    columns of the row echelon form."""
    # the pivot columns are the greedy basis, which has the least weight
    # among the bases for any weights rising with the column, 2^j too: the
    # least mask
    first = min(c.minors)
    return tuple(j for j in range(c.n) if first >> j & 1)


def psi_basis_expansion(c: Configuration) -> MultiPoly:
    """Sum over bases B of det(A_B)^2 times the squarefree monomial of B."""
    terms = {
        tuple(cols >> k & 1 for k in range(c.n)): minor * minor
        for cols, minor in c.minors.items()
    }
    return MultiPoly(x_variables(c.n), terms)


def psi_det(c: Configuration) -> MultiPoly:
    """Symbolic determinant of A diag(x) A^T; cross-checked against the basis
    expansion.  The determinant route reads only q_w_matrix, never the minor
    table, so the two routes read independent data; both run the one Laplace
    kernel of arith, which the tests check against a permutation expansion."""
    p = det(q_w_matrix(c))
    if p != psi_basis_expansion(c):
        raise Mismatch("determinant route disagrees with the basis expansion")
    return p


def lambda_system(c: Configuration) -> tuple:
    """The r bilinear incidence forms q_i = (A diag(x) A^T u)_i, each a
    MultiPoly in the joint variables x1..xn, u1..ur (xu_variables)."""
    variables = xu_variables(c.n, c.r)
    qs = []
    for i in range(c.r):
        terms = {}
        for j in range(c.r):
            for k in range(c.n):
                coeff = c.a[i, k] * c.a[j, k]
                if coeff:
                    mono = [0] * (c.n + c.r)
                    mono[k] = 1
                    mono[c.n + j] = 1
                    mono = tuple(mono)
                    terms[mono] = terms.get(mono, 0) + coeff
        qs.append(MultiPoly(variables, terms))
    return tuple(qs)


def _zero_mask(vec) -> int:
    mask = 0
    for i, x in enumerate(vec):
        if not x:
            mask |= 1 << i
    return mask


def ambient_vector(c: Configuration, p: Point):
    """v = A^T w; computed from w, or validated from p.v (must lie in the row span)."""
    if p.w is not None:
        return c.a.transpose().apply(p.w)
    span_coordinates(c, p)
    return list(p.v)


def span_coordinates(c: Configuration, p: Point):
    """w with A^T w = v; the given w when present."""
    if p.w is not None:
        return list(p.w)
    if p.v is None:
        raise ValueError("point carries neither w nor v")
    w = solve_exact(c.a.transpose(), p.v)
    if w is None or c.a.transpose().apply(w) != list(p.v):
        raise NotOnLambda("v is not in the row span of the configuration")
    return w


def _incidence_residual(c: Configuration, p: Point):
    if p.beta is None:
        raise ValueError("point carries no beta")
    v = ambient_vector(c, p)
    scaled = [b * x for b, x in zip(p.beta, v)]
    return c.a.apply(scaled)


def on_lambda(c: Configuration, p: Point) -> bool:
    """Whether A diag(beta) A^T w vanishes."""
    return all(not entry for entry in _incidence_residual(c, p))


def _gram(c: Configuration, beta) -> list:
    """The rows of the r x r matrix A diag(beta) A^T."""
    return [
        [sum(c.a[i, k] * beta[k] * c.a[j, k] for k in range(c.n)) for j in range(c.r)]
        for i in range(c.r)
    ]


def jacobian_rank(c: Configuration, p: Point) -> int:
    """Exact rank of the r x (r+n) matrix (A diag(beta) A^T | A diag(A^T w))."""
    if p.beta is None:
        raise ValueError("point carries no beta")
    v = ambient_vector(c, p)
    rows = [
        left + [c.a[i, k] * v[k] for k in range(c.n)]
        for i, left in enumerate(_gram(c, p.beta))
    ]
    return matrix_rank(Matrix(rows, ncols=c.r + c.n))


def x_rank_class(c: Configuration, beta) -> XRankClass:
    """Classify beta by the rank of A diag(beta) A^T."""
    if all(not b for b in beta):
        raise ZeroVector("beta must be nonzero")
    rk = matrix_rank(Matrix(_gram(c, beta), ncols=c.r))
    if rk == c.r:
        return XRankClass.OFF_X
    if rk == c.r - 1:
        return XRankClass.SMOOTH
    return XRankClass.SINGULAR_ON_X


def nonround_flats(c: Configuration):
    """Proper flats F with rank(E minus F) below the rank; empty exactly when round."""
    from .matroid import is_connected, roundness_witnesses

    if not is_connected(c.matroid):
        raise NotConnected("stratum analysis needs a connected matroid")
    return roundness_witnesses(c.matroid)


def hadamard_square(c: Configuration, w):
    """Coordinatewise square of A^T w."""
    if all(not x for x in w):
        raise ZeroVector("w must be nonzero")
    v = c.a.transpose().apply(w)
    return [x * x for x in v]


def dual_config(c: Configuration) -> Configuration:
    """A configuration whose rows span the kernel of a.

    The first kernel row is rescaled so that every maximal minor of the dual
    matches the complementary minor of a up to sign; this makes the polynomial
    identity psi_W(beta) = psi_dual(1/beta) * prod(beta) hold on the nose.
    """
    c0 = kernel_basis(c.a)
    first = first_basis(c)
    complement = [j for j in range(c.n) if j not in first]
    d_primal = c.minors[sum(1 << j for j in first)]
    d_dual = det(c0.column_submatrix(complement))
    scale = _promote_div(d_primal, d_dual)
    rows = [list(row) for row in c0.rows]
    rows[0] = [x * scale for x in rows[0]]
    return config_new(Matrix(rows, ncols=c.n))


def duality_map(c: Configuration, p: Point) -> Point:
    """(v, beta) -> (beta v coordinatewise, 1/beta); lands on the dual incidence variety."""
    if p.beta is None or any(not b for b in p.beta):
        raise ZeroCoordinate("duality needs all beta coordinates nonzero")
    v = ambient_vector(c, p)
    if not on_lambda(c, p):
        raise NotOnLambda("point does not satisfy the incidence equations")
    image_v = [b * x for b, x in zip(p.beta, v)]
    image_beta = [_promote_div(1, b) for b in p.beta]
    return Point(v=image_v, beta=image_beta)


def iota_differential_check(c: Configuration, w, beta) -> bool:
    """Differential identity for the coordinatewise square map, checked symbolically.

    The quadric sum g(z) = sum_j beta_j l_j(z)^2 is differentiated as a
    polynomial; each partial at w must equal twice the incidence pairing.
    """
    if any(isinstance(x, Fp) and x.p == 2 for row in c.a.rows for x in row):
        raise Degenerate("identity needs characteristic different from 2")
    zvars = tuple("z%d" % (i + 1) for i in range(c.r))
    g = MultiPoly.zero(zvars)
    for j in range(c.n):
        lin = MultiPoly(
            zvars,
            {
                tuple(1 if t == k else 0 for t in range(c.r)): c.a[k, j]
                for k in range(c.r)
                if c.a[k, j]
            },
        )
        g = g + lin * lin * beta[j]
    v = c.a.transpose().apply(w)
    pairing = c.a.apply([b * x for b, x in zip(beta, v)])
    for i in range(c.r):
        left = g.diff(i).evaluate(w)
        if left != 2 * pairing[i]:
            return False
    return True


# ---------------------------------------------------------------------------
# witness construction and seeded sampling
# ---------------------------------------------------------------------------


def _random_combination(rows, rng: Random):
    ncols = len(rows[0]) if rows else 0
    out = [0] * ncols
    for row in rows:
        coeff = rng.randint(-9, 9)
        out = [acc + coeff * x for acc, x in zip(out, row)]
    return out


def stratum_kernel(c: Configuration, flat: int) -> Matrix:
    """Basis of the w-space orthogonal to the columns in the flat."""
    cols = [j for j in range(c.n) if flat >> j & 1]
    return kernel_basis(c.a.column_submatrix(cols).transpose())


def singular_witness(c: Configuration, flat: int, seed: int = 0) -> Point:
    """A point over the flat's stratum where the Jacobian drops rank.

    Requires rank(E minus flat) < r.  beta is the indicator of the first
    j in the flat with rank({j} union complement) = rank(complement).
    """
    from .matroid import elements_of, rank_of

    m = c.matroid
    full = m.ground
    outside = full & ~flat
    rk_out = rank_of(m, outside)
    if rk_out >= m.r:
        raise ValueError("flat is not rank-deficient on its complement")
    j = next(
        e for e in elements_of(flat) if rank_of(m, outside | (1 << (e - 1))) == rk_out
    )
    kernel = stratum_kernel(c, flat)
    rng = Random(seed)
    for _ in range(1000):
        w = (
            list(kernel.rows[0])
            if kernel.nrows == 1
            else _random_combination(list(kernel.rows), rng)
        )
        v = c.a.transpose().apply(w)
        if _zero_mask(v) == flat:
            beta = [0] * c.n
            beta[j - 1] = 1
            return Point(w=w, v=v, beta=beta)
    raise ValueError("could not hit the open stratum; flat may be misidentified")


def sample_stratum_point(c: Configuration, flat: int, rng: Random) -> Point:
    """Seeded point of the incidence variety lying over the given flat's stratum."""
    kernel = stratum_kernel(c, flat)
    if kernel.nrows == 0:
        raise ValueError("stratum is empty: no w vanishes exactly on the flat")
    for _ in range(1000):
        w = _random_combination(list(kernel.rows), rng)
        v = c.a.transpose().apply(w)
        if _zero_mask(v) != flat:
            continue
        scaled_rows = [
            [c.a[i, k] * v[k] for k in range(c.n)] for i in range(c.r)
        ]
        beta_space = kernel_basis(Matrix(scaled_rows, ncols=c.n))
        for _ in range(1000):
            beta = _random_combination(list(beta_space.rows), rng)
            if any(beta):
                return Point(w=w, v=v, beta=beta)
    raise ValueError("sampling failed to hit the stratum")


def sample_torus_point(c: Configuration, rng: Random) -> Point:
    """Seeded incidence point with every coordinate of v and beta nonzero."""
    c0 = kernel_basis(c.a)
    for _ in range(1000):
        z = [rng.randint(-9, 9) for _ in range(c.r)]
        v = c.a.transpose().apply(z)
        if not all(v):
            continue
        for _ in range(1000):
            zp = [rng.randint(-9, 9) for _ in range(c0.nrows)]
            gamma = c0.transpose().apply(zp)
            if all(gamma):
                beta = [_promote_div(g, x) for g, x in zip(gamma, v)]
                return Point(w=z, v=v, beta=beta)
    raise ValueError("sampling failed to find a torus point")
