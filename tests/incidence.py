"""The incidence variety of a configuration, checked from the test side: the
forms of config.lambda_system and their Jacobian rank at a point over the
strata of the non-round flats, the coordinatewise square map, the torus
duality map to the dual configuration, and seeded sampling of points.  No
command reads the incidence variety, so this module and the exact solvers
only it needs (rank, kernel basis, one solution of a linear system) live
beside tests/oracles.py, not in the package.

Conventions as in config: a point is (v, beta), v = A^T w a length-n vector
in the row span, w its length-r row-span coordinates, beta a length-n covector.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import NamedTuple, Sequence

from confan.arith import Fp, Matrix, MultiPoly, _promote_div, _rref, det
from confan.config import Configuration, config_new, first_basis, lambda_system, q_w_matrix
from confan.errors import ConfanError, Degenerate, NotConnected
from confan.matroid import elements_of, is_connected, rank_of, roundness_witnesses


class ZeroVector(ConfanError):
    """A nonzero vector was required."""


class ZeroCoordinate(ConfanError):
    """All coordinates were required to be nonzero."""


class NotOnLambda(ConfanError):
    """Point does not satisfy the incidence equations."""


# ---------------------------------------------------------------------------
# exact linear algebra over Q and F_p
# ---------------------------------------------------------------------------


def matrix_rank(m: Matrix) -> int:
    if m.nrows == 0 or m.ncols == 0:
        return 0
    _, pivots = _rref(m)
    return len(pivots)


def _clear_row(row: Sequence[Fraction]) -> list:
    """Scale a rational row to coprime integers, first nonzero entry positive."""
    scale = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
    ints = [int(x * scale) for x in row]
    content = gcd(*ints)
    if content > 1:
        ints = [x // content for x in ints]
    leading = next((x for x in ints if x), 0)
    if leading < 0:
        ints = [-x for x in ints]
    return ints


def kernel_basis(m: Matrix) -> Matrix:
    """Rows form a basis of the right kernel of m.

    Over the rationals the rows come back integer-cleared and content-free;
    over F_p every entry is an Fp.
    """
    rows, pivots = _rref(m)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis = []
    p = next((x.p for row in m.rows for x in row if isinstance(x, Fp)), None)
    zero, one = (0, 1) if p is None else (Fp(0, p), Fp(1, p))
    for j in free:
        v = [zero] * m.ncols
        v[j] = one
        for i, pj in enumerate(pivots):
            v[pj] = -rows[i][j]
        if p is None:
            v = _clear_row(v)
        basis.append(v)
    return Matrix(basis, ncols=m.ncols)


def solve_exact(m: Matrix, rhs: Sequence):
    """One exact solution x of m x = rhs, or None when inconsistent.

    Free variables are set to zero, so the answer is unique exactly when
    the columns are independent.
    """
    augmented = Matrix(
        [list(row) + [b] for row, b in zip(m.rows, rhs)], ncols=m.ncols + 1
    )
    rows, pivots = _rref(augmented)
    if m.ncols in pivots:
        return None
    x = [0] * m.ncols
    for i, pj in enumerate(pivots):
        x[pj] = rows[i][m.ncols]
    return x


class Point(NamedTuple):
    """A point (v, beta) for the incidence equations: v a length-n vector in
    the row span of the configuration, beta a length-n covector."""

    v: list
    beta: list


class XRankClass(Enum):
    OFF_X = "OffX"
    SMOOTH = "Smooth"
    SINGULAR_ON_X = "SingularOnX"


def _zero_mask(vec) -> int:
    mask = 0
    for i, x in enumerate(vec):
        if not x:
            mask |= 1 << i
    return mask


def span_coordinates(c: Configuration, v) -> list:
    """The w with A^T w = v; NotOnLambda when v is off the row span."""
    w = solve_exact(c.a.transpose(), v)
    if w is None:
        raise NotOnLambda("v is not in the row span of the configuration")
    return w


def _xu_point(c: Configuration, p: Point) -> list:
    """(beta, w): the point in the variables x, u of the incidence forms."""
    return list(p.beta) + span_coordinates(c, p.v)


def on_lambda(c: Configuration, p: Point) -> bool:
    """Whether every incidence form vanishes at (beta, w)."""
    point = _xu_point(c, p)
    return all(not q.evaluate(point) for q in lambda_system(c))


def jacobian_rank(c: Configuration, p: Point) -> int:
    """Exact rank of the Jacobian of the incidence forms at (beta, w); its
    columns (x, then u) are those of (A diag(A^T w) | A diag(beta) A^T)."""
    point = _xu_point(c, p)
    rows = [
        [q.diff(k).evaluate(point) for k in range(c.n + c.r)] for q in lambda_system(c)
    ]
    return matrix_rank(Matrix(rows, ncols=c.n + c.r))


def x_rank_class(c: Configuration, beta) -> XRankClass:
    """Classify beta by the rank of q_w_matrix at beta."""
    if all(not b for b in beta):
        raise ZeroVector("beta must be nonzero")
    gram = [[q.evaluate(beta) for q in row] for row in q_w_matrix(c).rows]
    rk = matrix_rank(Matrix(gram, ncols=c.r))
    if rk == c.r:
        return XRankClass.OFF_X
    if rk == c.r - 1:
        return XRankClass.SMOOTH
    return XRankClass.SINGULAR_ON_X


def nonround_flats(c: Configuration):
    """Proper flats F with rank(E minus F) below the rank; empty exactly when round."""
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
    if any(not b for b in p.beta):
        raise ZeroCoordinate("duality needs all beta coordinates nonzero")
    if not on_lambda(c, p):
        raise NotOnLambda("point does not satisfy the incidence equations")
    image_v = [b * x for b, x in zip(p.beta, p.v)]
    return Point(image_v, [_promote_div(1, b) for b in p.beta])


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
    pairing = [q.evaluate(list(beta) + list(w)) for q in lambda_system(c)]
    return all(g.diff(i).evaluate(w) == 2 * pairing[i] for i in range(c.r))


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


def _stratum_v(c: Configuration, flat: int, rng: Random) -> list:
    """Seeded v = A^T w vanishing exactly on the flat, w drawn from
    stratum_kernel; a one-dimensional kernel gives its row."""
    rows = list(stratum_kernel(c, flat).rows)
    if not rows:
        raise ValueError("stratum is empty: no w vanishes exactly on the flat")
    for _ in range(1000):
        w = rows[0] if len(rows) == 1 else _random_combination(rows, rng)
        v = c.a.transpose().apply(w)
        if _zero_mask(v) == flat:
            return v
    raise ValueError("sampling failed to hit the stratum")


def singular_witness(c: Configuration, flat: int, seed: int = 0) -> Point:
    """A point over the flat's stratum where the Jacobian drops rank.

    Requires rank(E minus flat) < r.  beta is the indicator of the first
    j in the flat with rank({j} union complement) = rank(complement).
    """
    m = c.matroid
    outside = m.ground & ~flat
    rk_out = rank_of(m, outside)
    if rk_out >= m.r:
        raise ValueError("flat is not rank-deficient on its complement")
    j = next(
        e for e in elements_of(flat) if rank_of(m, outside | (1 << (e - 1))) == rk_out
    )
    beta = [0] * c.n
    beta[j - 1] = 1
    return Point(_stratum_v(c, flat, Random(seed)), beta)


def _incidence_point(c: Configuration, flat: int, rng: Random, nonzero) -> Point:
    """Seeded (v, beta) over the flat's stratum: v from _stratum_v, beta in
    the kernel of A diag(v), drawn until nonzero(beta) holds."""
    v = _stratum_v(c, flat, rng)
    scaled = Matrix([[x * y for x, y in zip(row, v)] for row in c.a.rows], ncols=c.n)
    beta_rows = list(kernel_basis(scaled).rows)
    for _ in range(1000):
        beta = _random_combination(beta_rows, rng)
        if nonzero(beta):
            return Point(v, beta)
    raise ValueError("sampling failed to draw beta")


def sample_stratum_point(c: Configuration, flat: int, rng: Random) -> Point:
    """Seeded point of the incidence variety lying over the given flat's
    stratum, with beta nonzero."""
    return _incidence_point(c, flat, rng, any)


def sample_torus_point(c: Configuration, rng: Random) -> Point:
    """Seeded incidence point with every coordinate of v and beta nonzero:
    the stratum point over the empty flat, drawn until no beta_j is zero."""
    return _incidence_point(c, 0, rng, all)
