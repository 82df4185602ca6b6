"""Configurations: a full-row-rank exact matrix A, its table of maximal
minors, its polynomial psi = det(A diag(x) A^T) by two routes, and the
bilinear incidence forms.  The package does not model the incidence variety
they cut out; the test suite checks its properties (tests/incidence.py).

Conventions: A is r x n with 0 < r < n; matroid elements 1..n are the columns.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING

from .arith import (
    Matrix,
    MultiPoly,
    _rref,
    det,
    maximal_minors,
)
from .errors import (
    Degenerate,
    HasLoops,
    Mismatch,
    RankDeficient,
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
    echelon - (rows, pivot columns), as tuples, of the reduced row echelon
              form of a (arith._rref), built on first read and kept
    minors  - {column mask: det(A_B)} over the bases B (arith.maximal_minors),
              built on first read and kept
    matroid - column matroid of a, read from minors on first use and kept
    """

    __slots__ = ("a", "r", "n", "_echelon", "_minors", "_matroid")

    def __init__(self, a: Matrix):
        self.a = a
        self.r = a.nrows
        self.n = a.ncols
        self._echelon = None
        self._minors = None
        self._matroid = None

    @property
    def echelon(self) -> tuple:
        if self._echelon is None:
            rows, pivots = _rref(self.a)
            self._echelon = tuple(map(tuple, rows)), tuple(pivots)
        return self._echelon

    @property
    def minors(self) -> dict:
        if self._minors is None:
            self._minors = maximal_minors(self.a)
        return self._minors

    @property
    def matroid(self) -> Matroid:
        if self._matroid is None:
            from .matroid import matroid_from_matrix

            self._matroid = matroid_from_matrix(self.a, self.minors)
        return self._matroid

    def __repr__(self):
        return "Configuration(r=%d, n=%d)" % (self.r, self.n)


def config_new(a: Matrix) -> Configuration:
    """Validate a matrix as a configuration: 0 < r < n, full row rank (the
    pivot count of its echelon form, which the configuration keeps), and no
    zero column."""
    r, n = a.nrows, a.ncols
    if r == 0 or r >= n:
        raise Degenerate("need 0 < r < n, got r=%d n=%d" % (r, n))
    c = Configuration(a)
    if len(c.echelon[1]) != r:
        raise RankDeficient("row rank below %d" % r)
    for j in range(n):
        if all(not a[i, j] for i in range(r)):
            raise HasLoops("column %d is zero (a loop)" % (j + 1))
    return c


def config_from_graph(edges) -> Configuration:
    """Configuration of a connected graph: oriented incidence matrix, one vertex row dropped."""
    from .matroid import _connected_vertices

    edges = [tuple(e) for e in edges]
    vertices = _connected_vertices(edges)
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
    xs = [tuple(int(t == k) for t in range(c.n)) for k in range(c.n)]
    return Matrix(
        [
            [MultiPoly(variables, dict(zip(xs, map(mul, ri, rj)))) for rj in c.a.rows]
            for ri in c.a.rows
        ],
        ncols=c.r,
    )


def first_basis(c: Configuration) -> tuple:
    """The lexicographically first basis, as 0-based columns: the pivot
    columns of the row echelon form."""
    return c.echelon[1]


def psi_basis_expansion(c: Configuration) -> MultiPoly:
    """Sum over bases B of det(A_B)^2 times the squarefree monomial of B."""
    terms = {
        tuple(cols >> k & 1 for k in range(c.n)): minor * minor
        for cols, minor in c.minors.items()
    }
    return MultiPoly(x_variables(c.n), terms)


def psi_det(c: Configuration) -> MultiPoly:
    """psi by the basis expansion, returned once a symbolic determinant that
    never reads the minor table agrees with it; Mismatch otherwise.

    The determinant route factors A = A_P R, with R the reduced row echelon
    form of A and A_P the block of A on R's pivot columns, so that
    psi = det(A_P)^2 det(R diag(x) R^T).  Column p of R is a unit vector for
    a pivot p, so x_p appears in R diag(x) R^T only on the diagonal entry of
    its row: each entry has at most n - r + 1 terms, against n in
    A diag(x) A^T, and the Laplace levels shrink.  Both routes run the one
    Laplace kernel of arith, which the tests check against a permutation
    expansion.
    """
    rows, pivots = c.echelon
    scale = det(c.a.column_submatrix(pivots))
    # the rows have the matroid of A: a configuration, whose minor table is
    # not built
    reduced = Configuration(Matrix(rows, ncols=c.n))
    psi = psi_basis_expansion(c)
    if det(q_w_matrix(reduced)) * (scale * scale) != psi:
        raise Mismatch("determinant route disagrees with the basis expansion")
    return psi


def lambda_system(c: Configuration) -> tuple:
    """The r bilinear incidence forms q_i = (A diag(x) A^T u)_i, each a
    MultiPoly in the joint variables x1..xn, u1..ur (xu_variables): row i of
    q_w_matrix with entry j lifted by u_j."""
    variables = xu_variables(c.n, c.r)
    us = [tuple(int(t == j) for t in range(c.r)) for j in range(c.r)]
    return tuple(
        MultiPoly(
            variables, {m + us[j]: k for j, q in enumerate(row) for m, k in q.terms.items()}
        )
        for row in q_w_matrix(c).rows
    )
