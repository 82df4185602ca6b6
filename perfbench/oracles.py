"""Independent oracles for checking confan's CLI output.

Nothing here imports confan.  Graph matroids are checked through graph theory
(union-find ranks, Kirchhoff's matrix-tree theorem, the chromatic polynomial by
deletion-contraction), uniform matroids through closed forms, fans through
their definitions by flags of flats and biflats, and configuration
polynomials through the Cauchy-Binet identity psi(x) = det(A diag(x) A^T).

Every ``check_*`` function takes the job's stdout and raises CheckFailed on
the first disagreement.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, gcd


class CheckFailed(Exception):
    pass


def expect(cond, what, *args):
    if not cond:
        raise CheckFailed(what % args if args else what)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def det(rows, p=None):
    """Determinant by Gaussian elimination over Q (p None) or F_p."""
    a = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    n = len(a)
    d = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        d *= a[k][k]
        inv = 1 / a[k][k] if p is None else pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
                    if p is not None:
                        a[i][j] %= p
    return d if p is None else d % p


def rref(rows, p=None):
    """Reduced row echelon form and pivot columns over Q or F_p."""
    a = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c] if p is None else pow(a[r][c], -1, p)
        a[r] = [x * inv if p is None else x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [
                    x - f * y if p is None else (x - f * y) % p
                    for x, y in zip(a[i], a[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def gram_det(rows, x, p=None):
    """det(A diag(x) A^T)."""
    r = len(rows)
    g = [
        [sum(rows[i][k] * rows[j][k] * x[k] for k in range(len(x))) for j in range(r)]
        for i in range(r)
    ]
    return det(g, p)


# ---------------------------------------------------------------------------
# polynomials as coefficient lists (index = degree)
# ---------------------------------------------------------------------------


def padd(a, b, sign=1):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    while out and not out[-1]:
        out.pop()
    return out


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def pdiv_linear(a, root):
    """a / (t - root), which must divide exactly."""
    out = [0] * (len(a) - 1)
    carry = 0
    for d in range(len(a) - 1, 0, -1):
        carry = a[d] + carry * root
        out[d - 1] = carry
    expect(a[0] + carry * root == 0, "division by (t - %d) is not exact", root)
    return out


_TERM = re.compile(r"([+-]?)(\d*)([A-Za-z]?)(?:\^(\d+))?")


def parse_univariate(text, symbol):
    """Read confan's printed univariate polynomial, e.g. t^3-5t^2+8t-4."""
    text = text.strip()
    if text == "0":
        return []
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        expect(m and m.end() > pos, "cannot parse polynomial %r", text)
        sign, digits, var, exp = m.groups()
        expect(not var or var == symbol, "unexpected symbol in %r", text)
        c = int(digits) if digits else 1
        d = (int(exp) if exp else 1) if var else 0
        expect(digits or var, "empty term in %r", text)
        coeffs[d] = coeffs.get(d, 0) + (-c if sign == "-" else c)
        pos = m.end()
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    while out and not out[-1]:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# matroids given by a rank function on bitmasks
# ---------------------------------------------------------------------------


def graph_rank(edges, nv):
    """Rank function of the cycle matroid: |V| minus the number of components."""

    def rank(mask):
        parent = list(range(nv))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        r = 0
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    r += 1
        return r

    return rank


def uniform_rank(r):
    return lambda mask: min(mask.bit_count(), r)


def dual_rank(rank, n):
    full = (1 << n) - 1
    rk = rank(full)
    return lambda mask: mask.bit_count() - rk + rank(full & ~mask)


def flats_of(rank, n):
    """Every flat with its rank: S is a flat when adding any element raises
    the rank."""
    out = {}
    for s in range(1 << n):
        rs = rank(s)
        if all(s >> e & 1 or rank(s | 1 << e) > rs for e in range(n)):
            out[s] = rs
    return out


def label(mask, n):
    """confan's subset label: digits for n <= 9, dotted beyond, ∅ and E."""
    if mask == 0:
        return "∅"
    if mask == (1 << n) - 1:
        return "E"
    parts = [str(e + 1) for e in range(n) if mask >> e & 1]
    return "".join(parts) if n <= 9 else ".".join(parts)


class MatroidOracle:
    """The reference data one input needs, computed once and reused."""

    def __init__(self, n, rank, kind, graph=None, r_uniform=None):
        self.n = n
        self.rank = rank
        self.kind = kind  # "graph" or "uniform"
        self.graph = graph  # (edges as vertex-index pairs, number of vertices)
        self.full = (1 << n) - 1
        self.r = rank(self.full)
        self._flats = None
        if kind == "uniform":
            expect(r_uniform == self.r, "uniform rank mismatch")

    @classmethod
    def of_graph(cls, edges):
        names = sorted({v for e in edges for v in e})
        index = {v: i for i, v in enumerate(names)}
        pairs = [(index[u], index[v]) for u, v in edges]
        return cls(len(pairs), graph_rank(pairs, len(names)), "graph", (pairs, len(names)))

    @classmethod
    def uniform(cls, r, n):
        return cls(n, uniform_rank(r), "uniform", r_uniform=r)

    @property
    def flats(self):
        if self._flats is None:
            self._flats = flats_of(self.rank, self.n)
        return self._flats

    def bases_count(self):
        if self.kind == "uniform":
            return comb(self.n, self.r)
        return kirchhoff(*self.graph)

    def char_poly(self):
        if self.kind == "uniform":
            return uniform_char_poly(self.r, self.n)
        pairs, nv = self.graph
        chrom = chromatic(nv, pairs)
        expect(chrom and chrom[0] == 0, "chromatic polynomial has no factor t")
        return chrom[1:]

    def is_connected(self):
        if self.kind == "uniform":
            return 0 < self.r < self.n
        return all(
            self.rank(s) + self.rank(self.full & ~s) > self.r
            for s in range(1, 1 << (self.n - 1))
        )

    def nonround(self):
        return [
            f for f in self.flats if f != self.full and self.rank(self.full & ~f) < self.r
        ]

    def motivic_class(self):
        """Sum over proper flats F of the reduced characteristic polynomial
        of M/F times [P^(n - rank(E - F) - 1)], with chi(M/F) read off the
        chromatic polynomial of the contracted graph (or the closed form for
        a uniform matroid)."""
        total = []
        for f, rf in self.flats.items():
            if f == self.full:
                continue
            if self.kind == "uniform":
                k = f.bit_count()
                chi = uniform_char_poly(self.r - k, self.n - k)
            else:
                pairs, nv = self.graph
                gp, gv = contract_graph(pairs, nv, f)
                chi = chromatic(gv, gp)[1:]
            reduced = pdiv_linear(chi, 1)
            weight = [1] * (self.n - self.rank(self.full & ~f))
            total = padd(total, pmul(reduced, weight))
        return total


def kirchhoff(pairs, nv):
    """Number of spanning trees: any cofactor of the Laplacian."""
    lap = [[0] * nv for _ in range(nv)]
    for u, v in pairs:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return int(det([row[1:] for row in lap[1:]]))


def contract_graph(pairs, nv, mask):
    """Contract the edges in mask; vertices renumbered by their components."""
    parent = list(range(nv))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            parent[find(u)] = find(v)
    roots = sorted({find(v) for v in range(nv)})
    index = {r: i for i, r in enumerate(roots)}
    rest = [
        (index[find(u)], index[find(v)])
        for i, (u, v) in enumerate(pairs)
        if not mask >> i & 1
    ]
    return rest, len(roots)


def chromatic(nv, pairs):
    """Chromatic polynomial by deletion-contraction, memoized on edge sets."""
    memo = {}

    def rec(nv, edges):
        key = (nv, edges)
        if key in memo:
            return memo[key]
        if not edges:
            out = [0] * nv + [1]
        else:
            e = min(edges)
            u, v = e
            deleted = rec(nv, edges - {e})
            # contract v into u, drop loops, merge parallels, close the gap at v
            merged = set()
            for a, b in edges - {e}:
                a = u if a == v else a
                b = u if b == v else b
                if a == b:
                    continue
                a -= a > v
                b -= b > v
                merged.add((min(a, b), max(a, b)))
            out = padd(deleted, rec(nv - 1, frozenset(merged)), -1)
        memo[key] = out
        return out

    if any(u == v for u, v in pairs):
        return []
    return rec(nv, frozenset((min(u, v), max(u, v)) for u, v in pairs))


def uniform_char_poly(r, n):
    """chi of U(r, n): sum_{i<r} (-1)^i C(n, i) (t^(r-i) - 1)."""
    out = []
    for i in range(r):
        term = [-1] + [0] * (r - i - 1) + [1]
        out = padd(out, [(-1) ** i * comb(n, i) * c for c in term])
    return out


# ---------------------------------------------------------------------------
# matroid-info and classes
# ---------------------------------------------------------------------------


def _lines(stdout):
    lines = stdout.splitlines()
    expect(lines and lines[0] == "seed: 0", "output does not start with 'seed: 0'")
    return lines[1:]


def _field(lines, key):
    for line in lines:
        if line.startswith(key):
            return line[len(key):]
    raise CheckFailed("missing line %r" % key)


def check_matroid_info(mo: MatroidOracle, stdout):
    lines = _lines(stdout)
    n, r = mo.n, mo.r
    expect(_field(lines, "elements: ") == str(n), "elements != %d", n)
    expect(_field(lines, "rank: ") == str(r), "rank != %d", r)
    nb = mo.bases_count()
    expect(_field(lines, "bases: ") == str(nb), "bases != %d (Kirchhoff/binomial)", nb)
    for k in range(r + 1):
        want = sorted(label(f, n) for f, rf in mo.flats.items() if rf == k)
        got = sorted(_field(lines, "flats rank %d: " % k).split(", "))
        expect(got == want, "flats of rank %d differ", k)
    conn = "true" if mo.is_connected() else "false"
    expect(_field(lines, "connected: ") == conn, "connected != %s", conn)
    nonround = mo.nonround()
    expect(_field(lines, "round: ") == ("false" if nonround else "true"), "round verdict")
    got = _field(lines, "non-round flats: ")
    want = ", ".join(sorted(label(f, n) for f in nonround)) if nonround else "none"
    expect(
        (got if got == "none" else ", ".join(sorted(got.split(", ")))) == want,
        "non-round flats differ",
    )
    chi = parse_univariate(_field(lines, "chi = "), "t")
    expect(chi == mo.char_poly(), "chi differs from the chromatic/closed-form oracle")
    reduced = parse_univariate(_field(lines, "chi reduced = "), "t")
    expect(pmul(reduced, [-1, 1]) == chi, "(t-1) * chi reduced != chi")
    expect(
        _field(lines, "dual: ") == "rank %d, %d bases" % (n - r, nb),
        "dual line differs",
    )


def check_classes(mo: MatroidOracle, stdout):
    lines = _lines(stdout)
    n, r = mo.n, mo.r
    lam = parse_univariate(_field(lines, "[Λ] = "), "L")
    expect(lam == mo.motivic_class(), "[Λ] differs from the contraction oracle")
    expect(_field(lines, "a-inv = ") == str(r - 1 - n), "a-invariant != r-1-n")
    expect(_field(lines, "type = ") == str(r), "type != r")
    bideg = "+".join(
        ("" if comb(r, k) == 1 else str(comb(r, k)))
        + ("H" if n - k == 1 else "H^%d" % (n - k))
        + ("" if k == 0 else "H*" if k == 1 else "H*^%d" % k)
        for k in range(r + 1)
    )
    expect(_field(lines, "bidegree = ") == bideg, "bidegree != H^(n-r)(H+H*)^r")
    if r >= 2 and not mo.nonround():
        ranks = pmul([1] * r, [1] * (n - r))
        got = _field(lines, "cohomology ranks: ").split(" ")[0]
        expect(got == ",".join(map(str, ranks)), "cohomology ranks differ")
    else:
        _field(lines, "cohomology: n/a")


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------


def _normal(e, f):
    """Canonical min-zero primitive representative in the doubled quotient
    lattice Z^n/1 x Z^n/1."""
    e = [x - min(e) for x in e]
    f = [x - min(f) for x in f]
    g = 0
    for x in e + f:
        g = gcd(g, x)
    if g > 1:
        e = [x // g for x in e]
        f = [x // g for x in f]
    return e, f


def _ind(mask, n):
    return [mask >> i & 1 for i in range(n)]


class FanOracle:
    """Rays (label -> vector) and cones of the four fans, from their
    definitions: flags of flats (Bergman), flags of square biflats with a
    proper union of differences (square conormal and its shear), and the
    product of two Bergman fans (delta)."""

    def __init__(self, mo: MatroidOracle, which):
        n = mo.n
        full = mo.full
        fl = mo.flats
        dfl = flats_of(dual_rank(mo.rank, n), n)
        expect(0 in fl and 0 in dfl, "oracle needs a loopless, coloopless matroid")
        props = [f for f in fl if f not in (0, full)]
        dprops = [g for g in dfl if g not in (0, full)]
        if which == "bergman":
            items = [(label(f, n), _normal(_ind(f, n), [0] * n)) for f in props]
            cones = _chains(props, lambda a, b: a != b and a & b == a)
        elif which == "delta":
            left = [
                (label(f, n), _normal(_ind(f, n), _ind(f, n))) for f in props
            ]
            right = [
                ("*" + label(g, n), _normal([0] * n, [1 - x for x in _ind(g, n)]))
                for g in dprops
            ]
            items = left + right
            lc = _chains(props, lambda a, b: a != b and a & b == a)
            rc = _chains(dprops, lambda a, b: a != b and a & b == a)
            off = len(left)
            cones = {c1 | frozenset(i + off for i in c2) for c1 in lc for c2 in rc}
        elif which in ("square-conormal", "delta-tilde"):
            pairs = [
                (f, g)
                for f in fl
                if f != full
                for g in dfl
                if g != 0 and not (f == 0 and g == full) and f & g == f
            ]
            items = []
            for f, g in pairs:
                x = [-v for v in _ind(f, n)]
                y = _ind(g, n)
                if which == "delta-tilde":
                    x, y = [-a for a in x], [-a - b for a, b in zip(x, y)]
                items.append(("%s⊆%s" % (label(f, n), label(g, n)), _normal(x, y)))

            def below(a, b):
                return a != b and a[0] & b[0] == a[0] and a[1] & b[1] == a[1]

            def proper(chain):
                u = 0
                for i in chain:
                    u |= pairs[i][1] & ~pairs[i][0]
                return u != full

            cones = _chains(pairs, below, proper)
        else:
            raise ValueError(which)
        self.n = n
        self.labels = [lab for lab, _ in items]
        self.vectors = dict(items)
        expect(len(self.vectors) == len(items), "duplicate ray labels")
        self.cones = {frozenset(self.labels[i] for i in c) for c in cones}
        facets = {c - {lab} for c in self.cones for lab in c}
        self.maximal = [c for c in self.cones if c not in facets]
        self.dim = max(len(c) for c in self.maximal)

    def map_failures(self, block, sign):
        """Maximal cones that do not land in one cone of the coordinate fan:
        the signed projections of their rays to the block (0 = e, 1 = f)
        have no common argmin."""
        bad = 0
        for c in self.maximal:
            common = None
            for lab in c:
                proj = [sign * x for x in self.vectors[lab][block]]
                lo = min(proj)
                cur = {j for j, x in enumerate(proj) if x == lo}
                common = cur if common is None else common & cur
            bad += not common
        return bad


def _chains(items, below, ok=None):
    """Every chain (as a frozenset of indices) of a finite poset, including
    the empty one, optionally restricted to chains accepted by ok."""
    out = set()
    stack = [((), None)]
    while stack:
        chain, last = stack.pop()
        out.add(frozenset(chain))
        for i, it in enumerate(items):
            if last is None or below(it, items[last]):
                nxt = chain + (i,)
                if ok is None or ok(nxt):
                    stack.append((nxt, i))
    return out


_RAY = re.compile(r"ray (\d+): (\S+) e=\[([-\d, ]*)\] f=\[([-\d, ]*)\]$")


def check_fan_text(fo: FanOracle, stdout, which, refines):
    """Output of `fan --verify-maps --verify-unimodular [--verify-refines]`."""
    lines = _lines(stdout)
    expect(_field(lines, "fan: ") == which, "fan name")
    expect(_field(lines, "rays: ") == str(len(fo.labels)), "rays != %d", len(fo.labels))
    expect(
        _field(lines, "maximal cones: ") == str(len(fo.maximal)),
        "maximal cones != %d",
        len(fo.maximal),
    )
    expect(_field(lines, "dimension: ") == str(fo.dim), "dimension != %d", fo.dim)
    seen = set()
    for line in lines:
        if line.startswith("ray "):
            m = _RAY.match(line)
            expect(m, "bad ray line %r", line)
            lab = m.group(2)
            e = [int(x) for x in m.group(3).split(",")]
            f = [int(x) for x in m.group(4).split(",")]
            expect(fo.vectors.get(lab) == (e, f), "ray %s has the wrong vector", lab)
            seen.add(lab)
    expect(seen == set(fo.labels), "ray labels differ from the oracle")
    expect("unimodular: pass" in lines, "unimodular verdict")
    expect(fo.map_failures(0, 1) == 0, "oracle expects π1 to pass")
    expect("π1: pass" in lines, "π1 verdict")
    bad = fo.map_failures(1, -1)
    if bad:
        expect(
            any(x.startswith("-π2: FAIL on %d maximal cones" % bad) for x in lines),
            "-π2 should fail on %d maximal cones",
            bad,
        )
    else:
        expect("-π2: pass" in lines, "-π2 verdict")
    if refines:
        expect("refines: pass" in lines, "refines verdict")


def expected_fan_rc(fo: FanOracle):
    """`fan --verify-maps` exits 3 when -π2 fails, as it does for delta."""
    return 3 if fo.map_failures(1, -1) else 0


def check_fan_json(fo: FanOracle, stdout, which):
    data = json.loads(stdout)
    expect(data.get("command") == "fan" and data.get("seed") == 0, "JSON header")
    expect(data.get("which") == which and data.get("n") == fo.n, "JSON which/n")
    labels = []
    for ray in data["rays"]:
        expect(
            fo.vectors.get(ray["label"]) == (ray["e"], ray["f"]),
            "JSON ray %s has the wrong vector",
            ray["label"],
        )
        labels.append(ray["label"])
    expect(sorted(labels) == sorted(fo.labels), "JSON ray labels differ")
    cones = [frozenset(labels[i] for i in c) for c in data["cones"]]
    expect(len(cones) == len(set(cones)), "JSON repeats a cone")
    expect(set(cones) == fo.cones, "JSON cones are not the oracle's faces")
    k = len(fo.maximal)
    expect(set(cones[:k]) == set(fo.maximal), "JSON does not list maximal cones first")


# ---------------------------------------------------------------------------
# configurations: psi and charp
# ---------------------------------------------------------------------------


def parse_psi(text, n):
    """psi as {frozenset of 0-based columns: coefficient}."""
    terms = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", text.strip()):
        factors = body.split("*")
        coeff = Fraction(1)
        if factors[0][0].isdigit():
            coeff = Fraction(factors.pop(0))
        cols = []
        for fac in factors:
            m = re.fullmatch(r"x(\d+)", fac)
            expect(m, "psi has a non-squarefree or unknown factor %r", fac)
            cols.append(int(m.group(1)) - 1)
        key = frozenset(cols)
        expect(len(key) == len(cols) and key not in terms, "psi term %r", body)
        expect(all(0 <= c < n for c in cols), "psi variable out of range")
        terms[key] = -coeff if sign == "-" else coeff
    return terms


def check_psi(rows, p, points, stdout):
    """Cauchy-Binet: psi(x) = det(A diag(x) A^T) at each point (all ones
    included), every term of degree r, and the det route reported passing."""
    lines = _lines(stdout)
    r, n = len(rows), len(rows[0])
    terms = parse_psi(_field(lines, "psi = "), n)
    expect(all(len(k) == r for k in terms), "psi term of degree != r")
    for x in points:
        val = 0
        for cols, c in terms.items():
            t = c
            for j in cols:
                t *= x[j]
            val += t
        want = gram_det(rows, x, p)
        if p is not None:
            val = val % p
        expect(val == want, "psi(x) != det(A diag(x) A^T) at x=%s", x)
    expect("det check: pass" in lines, "det check verdict")


def check_charp(rows, p_field, p, strict, stdout):
    lines = _lines(stdout)
    r, n = len(rows), len(rows[0])
    _, pivots = rref(rows, p_field)
    perm = pivots + [j for j in range(n) if j not in pivots]
    expect(
        _field(lines, "permutation: ") == " ".join(str(j + 1) for j in perm),
        "permutation is not the lex-first basis followed by the rest",
    )
    leads = ", ".join("x%d*u%d" % (i + 1, i + 1) for i in range(r))
    expect(
        _field(lines, "initial ideal: ") == "pass (leads %s)" % leads,
        "initial ideal line",
    )
    power = "" if p == 2 else "^%d" % (p - 1)
    witness = "*".join(
        ["x%d%s" % (i + 1, power) for i in range(r)]
        + ["u%d%s" % (i + 1, power) for i in range(r)]
    )
    expect(
        _field(lines, "fedder witness (p=%d): " % p) == "%s -> pass" % witness,
        "fedder witness line",
    )
    if strict:
        expect("s-pair reduction: pass" in lines, "s-pair verdict")
