"""Invariants of the incidence variety: its class in the Grothendieck ring,
the bidegree under the two hyperplane classes, graded cohomology ranks in the
round case, and the graded Betti data of the linked ideal's resolution."""

from __future__ import annotations

from math import comb

from .errors import (
    Degenerate,
    HasLoops,
    NonDivisible,
    NotConnected,
    NotRound,
)
from .matroid import (
    ClassPoly,
    Matroid,
    contraction_char_polys,
    is_connected,
    is_round,
    loops_of,
    rank_of,
    subset_label,
)


def _projective_space(k: int) -> ClassPoly:
    # class of P^(k-1): 1 + L + ... + L^(k-1)
    return ClassPoly([1] * k, "L")


def motivic_class(m: Matroid) -> ClassPoly:
    """Class of the incidence variety: sum over proper flats F of the reduced
    characteristic polynomial of the contraction, weighted by the class of
    the projective space of betas vanishing outside rank(complement) directions.
    All the contractions' polynomials come from one sweep of the rank table.

    The flats of one weight k = n - rank(E minus F) share the factor
    [P^(k-1)], so their polynomials are summed first, and each weight class
    takes one division by t - 1 and one product.  M/F is loopless of rank
    >= 1, so chi(M/F)(1) = 0; that is checked flat by flat, since in a sum
    one flat's remainder could cancel another's."""
    if loops_of(m):
        raise HasLoops("matroid has loops")
    if not is_connected(m):
        raise NotConnected("class formula needs a connected matroid")
    full = m.ground
    by_weight = {}
    for f, chi in contraction_char_polys(m).items():
        if f == full:
            continue
        at_one = chi.evaluate(1)
        if at_one:
            raise NonDivisible(
                "chi(M/F)(1) = %d, not 0, at F = %s" % (at_one, subset_label(f, m.n))
            )
        k = m.n - rank_of(m, full & ~f)
        by_weight[k] = by_weight[k] + chi if k in by_weight else chi
    total = ClassPoly([], "L")
    for k, chi in by_weight.items():
        total = total + chi.div_t_minus_1().with_symbol("L") * _projective_space(k)
    return total


class BiDegree:
    """
    Finitely supported coefficients on monomials H^i H*^j.

    coeffs - dict (i, j) -> int
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {k: int(v) for k, v in coeffs.items() if v}

    def __eq__(self, other):
        return isinstance(other, BiDegree) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
            body = ""
            if c != 1:
                body += str(c)
            if i:
                body += "H" if i == 1 else "H^%d" % i
            if j:
                body += "H*" if j == 1 else "H*^%d" % j
            if not body:
                body = str(c)
            parts.append(body)
        return "+".join(parts)

    def __repr__(self):
        return "BiDegree(%s)" % self


def chow_bidegree(n: int, r: int) -> BiDegree:
    """Expansion of H^(n-r) (H + H*)^r: coefficient comb(r, k) on H^(n-k) H*^k."""
    if not 0 < r < n:
        raise Degenerate("need 0 < r < n")
    return BiDegree({(n - k, k): comb(r, k) for k in range(r + 1)})


# ---------------------------------------------------------------------------
# round case cohomology
# ---------------------------------------------------------------------------


def is_truncation_boundary(m: Matroid) -> bool:
    """The relation's formal expansion hits a negative power exactly here."""
    return m.n == 2 * m.r - 1


def cohomology_basis(m: Matroid):
    """Graded ranks of Z[a,b] modulo a^r and the degree-(n-r) relation, for a
    round matroid: monomials a^i b^j with i < r, j < n-r, graded by i+j.
    Their count in degree k is the coefficient of t^k in the product of the
    two truncated geometric series [r]_t * [n-r]_t.
    """
    if m.r < 2:
        raise Degenerate("rank below 2 has no interesting quotient")
    if not is_round(m):
        raise NotRound("cohomology formula needs a round matroid")
    return (ClassPoly([1] * m.r) * ClassPoly([1] * (m.n - m.r))).coeffs


# ---------------------------------------------------------------------------
# resolution data
# ---------------------------------------------------------------------------


class BettiTable:
    """
    rows - tuple indexed by homological degree; each row is a tuple of
           (twist, multiplicity) pairs
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.rows == other.rows

    def rank(self, i: int) -> int:
        return sum(mult for _, mult in self.rows[i])

    def type(self) -> int:
        return self.rank(len(self.rows) - 1)

    def __str__(self):
        lines = []
        for i, row in enumerate(self.rows):
            body = " + ".join("R(%d)^%d" % (tw, mult) for tw, mult in row)
            lines.append("F%d = %s" % (i, body))
        return "\n".join(lines)

    def to_json(self):
        return [
            [{"twist": tw, "mult": mult} for tw, mult in row] for row in self.rows
        ]


def resolution_betti(n: int, r: int) -> BettiTable:
    """Twists and multiplicities of the length-r resolution of the linked ideal."""
    if not 0 < r < n:
        raise Degenerate("need 0 < r < n")
    rows = [((0, 1),)]
    for i in range(1, r):
        rows.append(((-2 * i, comb(r, i)), (-(r + i - 1), comb(r, i - 1))))
    rows.append(((1 - 2 * r, comb(r, r - 1)),))
    return BettiTable(rows)


def a_invariant(n: int, r: int) -> int:
    if not 0 < r < n:
        raise Degenerate("need 0 < r < n")
    return r - 1 - n
