"""Exact scalar, polynomial, and matrix arithmetic.

Scalars are arbitrary-precision rationals (stdlib Fraction, ints welcome) or
elements of a prime field Fp.  No floats, no tolerances, anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add
from typing import Iterable, Sequence

from .errors import NonSquare, ZeroPolynomial


# Miller-Rabin on the 13 prime bases 2..41 is exact below this bound: it is
# the least strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86, 2017).
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin; ValueError for a p
    at or above PRIME_TEST_BOUND, where the test is no longer exact."""
    if p >= PRIME_TEST_BOUND:
        raise ValueError("p is too large: primality is decided below %d" % PRIME_TEST_BOUND)
    if p < 2:
        return False
    if p in _PRIME_BASES:
        return True
    # p - 1 = d * 2^s with d odd
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Fp:
    """Element of the prime field F_p, stored as a residue in [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
            return other.val
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else Fp(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else Fp(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else Fp(v - self.val, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else Fp(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        if v % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return Fp(self.val * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else Fp(v, self.p) / self

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __pow__(self, e: int):
        return Fp(pow(self.val, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "Fp(%d, %d)" % (self.val, self.p)

    def __str__(self):
        return str(self.val)


class MultiPoly:
    """Exact multivariate polynomial: ordered variable names + sparse terms.

    terms maps exponent tuples to nonzero coefficients; zero coefficients are
    dropped on construction so equality is plain dict equality.  Monomials
    are ordered as their exponent tuples: lex, the first variable most
    significant.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: dict):
        self.variables = tuple(variables)
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "MultiPoly":
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables: Sequence[str], i: int, coeff=1) -> "MultiPoly":
        mono = [0] * len(variables)
        mono[i] = 1
        return cls(variables, {tuple(mono): coeff})

    def __bool__(self):
        return bool(self.terms)

    def _check_same(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable lists")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return self + MultiPoly.constant(self.variables, other)
        self._check_same(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return self - MultiPoly.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not other:
                return MultiPoly.zero(self.variables)
            return MultiPoly(
                self.variables, {m: c * other for m, c in self.terms.items()}
            )
        self._check_same(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                # a first product is stored, not added to 0 (a Fraction sum)
                terms[m] = terms[m] + c1 * c2 if m in terms else c1 * c2
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = MultiPoly.constant(self.variables, 1)
        for _ in range(e):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def evaluate(self, values: Sequence):
        """Full substitution; values align with the variable list."""
        total = 0
        for m, c in self.terms.items():
            term = c
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * values[i]
            total = total + term
        return total

    def diff(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to variable i."""
        terms: dict = {}
        for m, c in self.terms.items():
            if m[i]:
                lowered = list(m)
                lowered[i] -= 1
                lowered = tuple(lowered)
                terms[lowered] = terms.get(lowered, 0) + c * m[i]
        return MultiPoly(self.variables, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = [
                v if e == 1 else "%s^%d" % (v, e)
                for v, e in zip(self.variables, m)
                if e
            ]
            negative = not isinstance(c, Fp) and c < 0
            mag = -c if negative else c
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append("-" + body if negative else body)
            else:
                parts.append(("-" if negative else "+") + body)
        return "".join(parts)

    def __repr__(self):
        return "MultiPoly(%s)" % self


def poly_lead_term(p: MultiPoly):
    """Largest monomial of p under lex order, with its coefficient."""
    if not p.terms:
        raise ZeroPolynomial("zero polynomial has no lead term")
    m = max(p.terms)
    return m, p.terms[m]


class Matrix:
    """Immutable rectangular grid of exact scalars (or MultiPoly entries)."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[Sequence], ncols: int | None = None):
        self.rows = tuple(tuple(r) for r in rows)
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols disagrees with row length")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit ncols")
            self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def column_submatrix(self, cols: Sequence[int]) -> "Matrix":
        return Matrix([[row[j] for j in cols] for row in self.rows], ncols=len(cols))

    def apply(self, vec: Sequence) -> list:
        if len(vec) != self.ncols:
            raise ValueError("length mismatch")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.rows]

    def __repr__(self):
        return "Matrix(%r)" % (list(self.rows),)


def _rref(m: Matrix):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in m.rows]
    pivots = []
    lead = 0
    for j in range(m.ncols):
        pivot_row = None
        for i in range(lead, len(rows)):
            if rows[i][j]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        pv = rows[lead][j]
        rows[lead] = [_promote_div(x, pv) for x in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][j]:
                factor = rows[i][j]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[lead])]
        pivots.append(j)
        lead += 1
        if lead == len(rows):
            break
    return rows, pivots


def _promote_div(a, b):
    """a / b, exact: two ints give a Fraction, other scalars divide as they are."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _clearing(rows):
    """(p, scales) that turn rows of exact scalars into integers.

    p is the modulus of the first Fp among the scalars, or None over Q.
    Over F_p every scalar becomes its residue and every scale is 1; over Q,
    scales[i] is the least common denominator of row i, and a scalar x of
    row i becomes the integer x * scales[i].  A determinant over the integer
    rows is then prod(scales) times the one over the input (see _from_int).
    """
    rows = [list(row) for row in rows]
    p = next((x.p for row in rows for x in row if isinstance(x, Fp)), None)
    if p is not None:
        return p, [1] * len(rows)
    return None, [lcm(*(x.denominator for x in row)) for row in rows]


def _residue(x, p: int) -> int:
    """x mod p, in [0, p): x is an Fp of modulus p, or a rational whose
    denominator p does not divide.  Another modulus raises ValueError, a
    denominator divisible by p ZeroDivisionError."""
    if isinstance(x, Fp):
        if x.p != p:
            raise ValueError("mixed moduli %d and %d" % (p, x.p))
        return x.val
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError("entry %s has denominator divisible by %d" % (x, p))
    return x.numerator * pow(x.denominator, -1, p) % p


def _to_int(x, scale: int, p) -> int:
    """x of a row with the given scale, as an integer (see _clearing)."""
    if p is None:
        return x.numerator * (scale // x.denominator)
    return _residue(x, p)


def _from_int(d: int, denominator: int, p):
    """A determinant d over the cleared rows, in the input's scalar type."""
    if p is not None:
        return Fp(d, p)
    return d if denominator == 1 else Fraction(d, denominator)


def _nonzero(values: dict, p) -> dict:
    """values without its zero entries, reduced mod p when p is set."""
    if p is not None:
        values = {k: v % p for k, v in values.items()}
    return {k: v for k, v in values.items() if v}


def _laplace(rows, p, shift: int = 0) -> dict:
    """The nonzero terms of the leading minors of the rows, {key: integer}.

    An entry is a list of (packed monomial, integer) terms (see det), and a
    key is a minor's column mask (bit j for column j) shifted left by
    shift, plus a packed monomial below it; scalars are constant terms:
    monomial 0, shift 0.  Laplace expansion along each next row: the
    nonzero k x k minors of the first k rows give those of the first k + 1,
    so each leading minor is computed once.  With p set, coefficients are
    reduced mod p.
    """
    level = {0: 1}
    for row in rows:
        nxt: dict = {}
        for j, entry in enumerate(row):
            if not entry:
                continue
            j += shift
            bit = 1 << j
            plus = [(bit + mono, c) for mono, c in entry]
            minus = [(bit + mono, -c) for mono, c in entry]
            for key, d in level.items():
                if key & bit:
                    continue
                # expanding along the new row, column j's sign is the parity
                # of the columns of the minor after it
                for step, c in minus if (key >> j).bit_count() & 1 else plus:
                    k = key + step
                    nxt[k] = nxt.get(k, 0) + c * d
        level = _nonzero(nxt, p)
    return level


def maximal_minors(a: Matrix) -> dict:
    """{column mask: det(A_B)} over the r-subsets B of the columns of the
    r x n matrix A with det(A_B) != 0; bit j of a mask is column j.

    The Laplace kernel (_laplace) on constant entries: plain integers, rows
    cleared of denominators or residues mod p (see _clearing).  The table
    is empty exactly when A has rank below r.
    """
    p, scales = _clearing(a.rows)
    rows = [
        [[(0, _to_int(x, scale, p))] if x else [] for x in row]
        for row, scale in zip(a.rows, scales)
    ]
    denominator = prod(scales)
    return {cols: _from_int(d, denominator, p) for cols, d in _laplace(rows, p).items()}


def det(m: Matrix):
    """Exact determinant of a square matrix of scalars, or of MultiPoly
    entries among scalars: the full-width minor of the Laplace kernel
    (_laplace), in O(n 2^n) ring operations against elimination's O(n^3).
    One caller passes scalars: config.psi_det, for the r x r pivot block
    det(A_P), once per psi.

    Entries run as integer coefficients (see _clearing) of packed
    monomials, one int per exponent vector with a field of `width` bits per
    variable; a scalar matrix has no variables, so every monomial packs to
    0.  No exponent of the determinant exceeds the sum over the rows of
    their largest total degree, and width holds that bound, so multiplying
    two monomials adds two ints without a carry between fields.
    """
    if m.nrows != m.ncols:
        raise NonSquare("determinant of a %dx%d matrix" % (m.nrows, m.ncols))
    polys = [x for row in m.rows for x in row if isinstance(x, MultiPoly)]
    variables = polys[0].variables if polys else ()
    if any(x.variables != variables for x in polys):
        raise ValueError("polynomials over different variable lists")
    nv = len(variables)
    terms = [
        [x.terms if isinstance(x, MultiPoly) else {(0,) * nv: x} for x in row]
        for row in m.rows
    ]
    p, scales = _clearing([c for t in row for c in t.values()] for row in terms)
    bound = sum(
        max((sum(mono) for t in row for mono in t), default=0) for row in terms
    )
    width = max(1, bound.bit_length())

    def pack(mono):
        return sum(e << (width * i) for i, e in enumerate(mono))

    rows = [
        [[(pack(mono), _to_int(c, scale, p)) for mono, c in t.items() if c] for t in row]
        for row, scale in zip(terms, scales)
    ]
    field = (1 << width) - 1
    denominator = prod(scales)
    # the one full-width minor is the determinant: each key is its column
    # mask above a packed monomial
    det_terms = {
        tuple(key >> (width * i) & field for i in range(nv)): _from_int(c, denominator, p)
        for key, c in _laplace(rows, p, width * nv).items()
    }
    if not polys:
        return det_terms.get((), _from_int(0, 1, p))
    return MultiPoly(variables, det_terms)
