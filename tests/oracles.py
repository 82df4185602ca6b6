"""Independent oracles used to freeze expected values.

Everything here is deliberately written against plain integers and brute
force enumeration, not against the library's own polynomial or matrix
code, so that a bug in the package cannot silently confirm itself.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product


class NotPure(Exception):
    """Fan is not pure of the expected dimension."""


class NotSimplicial(Exception):
    """Cone generators are linearly dependent."""


def whitney_char_poly(n, rank_fn):
    """Characteristic polynomial via the rank generating sum.

    chi(t) = sum over all subsets S of (-1)^|S| t^(r - rank(S)).
    Returns ascending coefficient list [c0, c1, ..., cr].
    """
    full = frozenset(range(1, n + 1))
    r = rank_fn(full)
    coeffs = [0] * (r + 1)
    for k in range(n + 1):
        for combo in combinations(sorted(full), k):
            coeffs[r - rank_fn(frozenset(combo))] += (-1) ** k
    return coeffs


def rank_from_bases(n, bases):
    """Rank function of the matroid with the given bases (as sets)."""
    basis_sets = [frozenset(b) for b in bases]
    r = len(basis_sets[0])

    def rank(subset):
        best = 0
        for b in basis_sets:
            common = len(b & subset)
            if common > best:
                best = common
                if best == min(r, len(subset)):
                    break
        # rank of S = max |independent subset of S| = max over bases of
        # |B cap S| only when the matroid is the one given; true because
        # every independent set extends to a basis.
        return best

    return rank


def flats_by_closure(n, rank_fn):
    """Every flat with its rank, found by closing each of the 2^n subsets."""
    ground = range(1, n + 1)
    out = {}
    for k in range(n + 1):
        for combo in combinations(ground, k):
            subset = frozenset(combo)
            rk = rank_fn(subset)
            out[frozenset(e for e in ground if rank_fn(subset | {e}) == rk)] = rk
    return out


def mobius_char_poly(n, rank_fn):
    """Characteristic polynomial of a loopless matroid from its flat lattice:
    chi(t) = sum over flats G of mu(empty, G) t^(r - rank(G)), with
    mu(empty, empty) = 1 and mu(empty, G) = -sum of mu(empty, H) over the
    flats H strictly inside G.  Returns ascending coefficients."""
    lattice = flats_by_closure(n, rank_fn)
    r = rank_fn(frozenset(range(1, n + 1)))
    mu = {}
    for g in sorted(lattice, key=len):
        mu[g] = 1 if not g else -sum(v for h, v in mu.items() if h < g)
    coeffs = [0] * (r + 1)
    for g, v in mu.items():
        coeffs[r - lattice[g]] += v
    return coeffs


def chain_faces(items, below, admissible=lambda chain: True):
    """Every admissible chain of a finite poset, as a frozenset of items,
    found level by level: a chain of k + 1 items is a chain of k items plus
    one item comparable to each of them.  below(a, b) means a < b strictly;
    admissible takes the frozenset."""
    level = {frozenset()}
    out = set(level)
    while level:
        level = {
            c | {x}
            for c in level
            for x in items
            if x not in c
            and all(below(x, y) or below(y, x) for y in c)
            and admissible(c | {x})
        }
        out |= level
    return out


def maximal_by_pairwise_scan(cones):
    """The members of a family of sets that lie in no other member, by
    comparing every pair."""
    return [c for c in cones if not any(c < d for d in cones)]


def _ray(x, y):
    """A vector of (Z^n / Z(1,...,1))^2 as its min-zero representative."""
    return tuple(a - min(x) for a in x), tuple(b - min(y) for b in y)


def fan_faces(which, n, bases):
    """Faces of one of the four fans of the loopless, coloopless matroid with
    these bases, from the definitions, by brute force over its flats.

    Returns (faces, vector): each face is a frozenset of ray keys, and
    vector[key] is the ray as a pair of min-zero blocks (e, f).  Keys are the
    flats F (bergman), ("", F) and ("*", G) for the flats of the matroid and
    of its dual (delta), and square biflats (F, G) (square-conormal,
    delta-tilde); sets are frozensets of elements 1..n.
    """
    full = frozenset(range(1, n + 1))
    rank = rank_from_bases(n, bases)
    r = rank(full)
    lattice = flats_by_closure(n, rank)
    dual_lattice = flats_by_closure(n, lambda s: len(s) - r + rank(full - s))

    def ind(s):
        return tuple(1 if e in s else 0 for e in range(1, n + 1))

    def strictly_inside(a, b):
        return a < b

    props = [f for f in lattice if f and f != full]
    dual_props = [g for g in dual_lattice if g and g != full]
    if which == "bergman":
        vector = {f: _ray(ind(f), (0,) * n) for f in props}
        return chain_faces(props, strictly_inside), vector
    if which == "delta":
        # negative shear (x, y) -> (-x, -x - y) of (-e_F, 0) and of (0, e_G)
        vector = {("", f): _ray(ind(f), ind(f)) for f in props}
        vector.update(
            {("*", g): _ray((0,) * n, [-a for a in ind(g)]) for g in dual_props}
        )
        left = chain_faces([("", f) for f in props], lambda a, b: a[1] < b[1])
        right = chain_faces([("*", g) for g in dual_props], lambda a, b: a[1] < b[1])
        return {a | b for a in left for b in right}, vector
    pairs = [
        (f, g)
        for f in lattice
        if f != full
        for g in dual_lattice
        if g and f <= g and not (not f and g == full)
    ]

    def below(a, b):
        return a != b and a[0] <= b[0] and a[1] <= b[1]

    def admissible(chain):
        return frozenset().union(*(g - f for f, g in chain)) != full

    if which == "square-conormal":
        vector = {(f, g): _ray([-a for a in ind(f)], ind(g)) for f, g in pairs}
    elif which == "delta-tilde":
        # negative shear of -e_F + f_G: (e_F, e_F - e_G)
        vector = {
            (f, g): _ray(ind(f), [a - b for a, b in zip(ind(f), ind(g))])
            for f, g in pairs
        }
    else:
        raise ValueError(which)
    return chain_faces(pairs, below, admissible), vector


def proper_colorings(vertices, edges, q):
    """Number of colourings of the vertices with q colours in which no edge
    joins two vertices of the same colour."""
    index = {v: i for i, v in enumerate(vertices)}
    return sum(
        all(colour[index[u]] != colour[index[v]] for u, v in edges)
        for colour in product(range(q), repeat=len(vertices))
    )


def satisfies_basis_exchange(bases):
    """For all bases B1, B2 and x in B1 - B2 some y in B2 - B1 makes
    B1 - x + y a basis."""
    family = {frozenset(b) for b in bases}
    return all(
        any((b1 - {x}) | {y} in family for y in b2 - b1)
        for b1 in family
        for b2 in family
        for x in b1 - b2
    )


def spanning_tree_count(vertices, edges):
    """Kirchhoff count via the reduced Laplacian, Fraction arithmetic."""
    verts = sorted(vertices)
    idx = {v: i for i, v in enumerate(verts)}
    size = len(verts)
    lap = [[Fraction(0)] * size for _ in range(size)]
    for u, v in edges:
        if u == v:
            continue
        lap[idx[u]][idx[u]] += 1
        lap[idx[v]][idx[v]] += 1
        lap[idx[u]][idx[v]] -= 1
        lap[idx[v]][idx[u]] -= 1
    # delete last row and column, Gaussian elimination determinant
    m = [row[: size - 1] for row in lap[: size - 1]]
    det = Fraction(1)
    k = size - 1
    for col in range(k):
        pivot = next((i for i in range(col, k) if m[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for i in range(col + 1, k):
            factor = m[i][col] / inv
            for j in range(col, k):
                m[i][j] -= factor * m[col][j]
    assert det.denominator == 1
    return abs(int(det))


def graphic_bases_by_union_find(edges):
    """Edge masks (bit i for edge i + 1) of the spanning trees of a connected
    graph: every (|V| - 1)-subset of the edges, kept when a fresh union-find
    over it joins all the vertices."""
    vertices = {w for e in edges for w in e}
    out = set()
    for subset in combinations(range(len(edges)), len(vertices) - 1):
        parent = {v: v for v in vertices}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for i in subset:
            parent[find(edges[i][0])] = find(edges[i][1])
        if len({find(v) for v in vertices}) == 1:
            out.add(sum(1 << i for i in subset))
    return out


def contraction_char_polys_by_lists(m):
    """Flat F -> coefficients of chi(M/F), ascending and without trailing
    zeros, in the order of the matroid's flats: the superset sweep of the
    Whitney sums (-1)^|S - F| t^(r - rank S), one list of r + 1 coefficients
    per subset, added elementwise."""
    from confan.matroid import flats

    rank = m.rank_table()
    sums = []
    for s in range(1 << m.n):
        term = [0] * (m.r + 1)
        term[m.r - rank[s]] = -1 if bin(s).count("1") % 2 else 1
        sums.append(term)
    for e in range(m.n):
        bit = 1 << e
        for s in range(1 << m.n):
            if not s & bit:
                sums[s] = [a + b for a, b in zip(sums[s], sums[s | bit])]
    out = {}
    for f in flats(m):
        coeffs = [-c if bin(f).count("1") % 2 else c for c in sums[f]]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        out[f] = coeffs
    return out


def motivic_class_per_flat(m):
    """Coefficients of [Lambda] in L, ascending: over each proper flat F, the
    quotient of chi(M/F) by t - 1, times 1 + L + ... + L^(k-1) with
    k = n - rank(E minus F), added flat by flat.  The polynomials come from
    contraction_char_polys_by_lists."""
    full = (1 << m.n) - 1
    rank = m.rank_table()
    total = [0] * (m.n + m.r)
    for f, chi in contraction_char_polys_by_lists(m).items():
        if f == full:
            continue
        # synthetic division by t - 1, highest coefficient first
        quotient, carry = [], 0
        for c in reversed(chi):
            carry += c
            quotient.append(carry)
        assert quotient.pop() == 0, "t - 1 does not divide chi(M/F)"
        quotient.reverse()
        for i, a in enumerate(quotient):
            for j in range(m.n - rank[full & ~f]):
                total[i + j] += a
    while total and total[-1] == 0:
        total.pop()
    return total


def _projective_reps(dim, q):
    """Representatives of P^(dim-1)(F_q): first nonzero coordinate is 1."""
    for lead in range(dim):
        for tail in product(range(q), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + tail


def biprojective_incidence_count(a_rows, q):
    """Brute force count of the bilinear incidence locus over F_q.

    Points are pairs (w, beta) in P^(r-1) x P^(n-1) with
    A diag(beta) A^T w = 0.  a_rows is an integer matrix.
    """
    r = len(a_rows)
    n = len(a_rows[0])
    count = 0
    for beta in _projective_reps(n, q):
        # m = A diag(beta) A^T mod q
        m = [
            [
                sum(a_rows[i][k] * beta[k] * a_rows[j][k] for k in range(n)) % q
                for j in range(r)
            ]
            for i in range(r)
        ]
        for w in _projective_reps(r, q):
            if all(sum(m[i][j] * w[j] for j in range(r)) % q == 0 for i in range(r)):
                count += 1
    return count


def projective_hypersurface_count(poly_eval, dim, q):
    """Count points of V(f) in P^(dim-1)(F_q); poly_eval maps a tuple to int."""
    return sum(1 for pt in _projective_reps(dim, q) if poly_eval(pt) % q == 0)


def matmul(a, b):
    """The product of two matrices given as row sequences, as a list of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def naive_det(rows):
    """Determinant by explicit permutation expansion. Small matrices only."""
    from itertools import permutations

    size = len(rows)
    total = 0
    for perm in permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(size):
            term *= rows[i][perm[i]]
        total += term
    return total


def minors_rank_and_index(rows, ncols):
    """(rank, index) of k integer rows of length ncols from their minors by
    brute force: the rank is the largest t with a nonzero t x t minor, and
    the index is the gcd of the k x k minors, 0 when they all vanish.  The
    rows extend to a basis of the lattice (a unimodular cone) iff the index
    is 1."""
    from math import gcd

    k = len(rows)

    def minor(rs, cs):
        return naive_det([[rows[i][j] for j in cs] for i in rs])

    rank = 0
    for t in range(1, k + 1):
        if not any(
            minor(rs, cs)
            for rs in combinations(range(k), t)
            for cs in combinations(range(ncols), t)
        ):
            break
        rank = t
    index = 0
    for cs in combinations(range(ncols), k):
        index = gcd(index, minor(range(k), cs))
    return rank, index


def standard_basis_mod_p(rows, p):
    """(basis, loops) of a full-rank rational matrix at the prime p, from
    the p-adic valuation of every maximal minor, all 0-based: the
    lexicographically first basis whose minor has the least valuation, and
    the columns that vanish mod p in the standard form over Z_(p).  The
    bases of the row lattice mod p are the bases of least valuation, so a
    column vanishes exactly when no basis that contains it reaches it."""

    def valuation(x):
        num, den, v = x.numerator, x.denominator, 0
        while num % p == 0:
            num, v = num // p, v + 1
        while den % p == 0:
            den, v = den // p, v - 1
        return v

    r, n = len(rows), len(rows[0])
    values = {}
    for cols in combinations(range(n), r):
        d = Fraction(naive_det([[Fraction(rows[i][j]) for j in cols] for i in range(r)]))
        if d:
            values[cols] = valuation(d)
    least = min(values.values())
    bases = [cols for cols, v in values.items() if v == least]
    reached = {j for cols in bases for j in cols}
    return bases[0], [j for j in range(n) if j not in reached]


# ---------------------------------------------------------------------------
# per-cone checks
# ---------------------------------------------------------------------------
#
# One cone at a time, each from scratch: the references for the fan-level
# passes confan.fans.non_unimodular_cones and cones_off_coordinate_fans.


def is_unimodular(fan, cone):
    """Generators are independent and extend to a basis of the lattice: the
    integer factor of the cone's rows (Fan.factor) has full rank and index 1."""
    return fan.factor(cone) == (len(cone), 1)


def maps_into_coordinate_fan(fan, cone, block, sign):
    """Whether the cone's projection to the block ("first" or "second"),
    with the sign ("plus" or "minus") applied, lands in one cone of the
    coordinate fan: some coordinate is least in every generator."""
    if block not in ("first", "second"):
        raise ValueError("block must be 'first' or 'second'")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    points = []
    for i in cone:
        v = fan.rays[i]
        proj = v.e if block == "first" else v.f
        points.append([x if sign == "plus" else -x for x in proj])
    n = fan.n
    return not points or any(all(p[j] == min(p) for p in points) for j in range(n))


# ---------------------------------------------------------------------------
# refinement of simplicial fans by linear algebra
# ---------------------------------------------------------------------------
#
# The generic certificate for any pair of simplicial fans: it reads their
# rays and maximal cones as vectors and cones, by integer left inverses and
# barycentric coordinates.  It is the reference for confan.fans.refines,
# which certifies the fine fan over the coarse one from the biflat each ray
# encodes instead.  Its simplicial check reads the library's integer
# factor of each cone (Fan.factor).


def left_inverse(rows, ncols):
    """(R, D, adj) of k independent integer rows g_1..g_k of length ncols,
    G the ncols x k matrix with columns g_1..g_k; ValueError when the rows
    are dependent.

    R   - k coordinates with G_R (those rows of G) invertible, chosen
          greedily from the left
    D   - |det G_R|
    adj - the adjugate of G_R, negated when det G_R < 0, as a tuple of
          rows, so adj . G_R = D . I

    Fraction-free Gauss-Jordan elimination of [G^T | I]: its last pivot
    is ±det G_R and its right block is ±adj(G_R)^T.
    """
    k = len(rows)
    work = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(rows)]
    coords = []
    prev = 1
    for j in range(ncols):
        r = len(coords)
        if r == k:
            break
        piv = next((i for i in range(r, k) if work[i][j]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        top = work[r]
        t = top[j]
        for i in range(k):
            if i != r:
                s = work[i][j]
                work[i] = [(t * a - s * b) // prev for a, b in zip(work[i], top)]
        prev = t
        coords.append(j)
    if len(coords) < k:
        raise ValueError("rows are dependent: no left inverse")
    # the right block E has E . G_R^T = prev . I, so adj = ±E^T
    sign = 1 if prev > 0 else -1
    adj = tuple(tuple(sign * work[s][ncols + i] for s in range(k)) for i in range(k))
    return tuple(coords), abs(prev), adj


def cone_coordinates(rows, inverse, p):
    """y = adj . p_R when p lies in the cone the independent rows span, else
    None; inverse is left_inverse(rows, len(p)).

    p lies in the cone iff y >= 0 and G y = D p; y is then D times the
    unique coordinates of p in the rows.
    """
    coords, d, adj = inverse
    pr = [p[j] for j in coords]
    y = [sum(a * b for a, b in zip(row, pr)) for row in adj]
    if any(x < 0 for x in y):
        return None
    for j in range(len(p)):
        if sum(a * row[j] for a, row in zip(y, rows)) != d * p[j]:
            return None
    return y


def _check_pure_simplicial(fan):
    """The factor of each maximal cone, in the fan's order, and the fan's
    dimension; every maximal cone must be simplicial, all of one dimension."""
    factors = {c: fan.factor(c) for c in fan.maximal_cones()}
    if any(f[0] < len(c) for c, f in factors.items()):
        raise NotSimplicial("cone with dependent generators")
    dims = {f[0] for f in factors.values()}
    if len(dims) != 1:
        raise NotPure("maximal cones of unequal dimension")
    return factors, dims.pop()


def _bary_table(fine, coarse, cones):
    """bary[c][i]: the barycentric coordinates of fine ray i in the coarse
    cone c (each of cones, all simplicial), scaled by D of c's left
    inverse, present exactly when the ray lies in c; they are unique
    because the generators of c are independent."""
    points = [v.coords() for v in fine.rays]
    bary = {}
    for c in cones:
        rows = [coarse.rays[j].coords() for j in sorted(c)]
        inverse = left_inverse(rows, 2 * coarse.n - 2)
        bary[c] = {}
        for i, p in enumerate(points):
            y = cone_coordinates(rows, inverse, p)
            if y is not None:
                bary[c][i] = y
    return bary


def refines(fine, coarse):
    """Certified refinement of simplicial fans of equal pure dimension.

    Checks: every fine ray lies in the coarse support; every maximal fine
    cone sits inside a single maximal coarse cone; and inside each coarse
    cone the fine cones match along facets (interior facets shared by
    exactly two cones, boundary facets lying in coarse facets, at least one
    fine cone per coarse cone).
    """
    fine_max, d_fine = _check_pure_simplicial(fine)
    coarse_max, d_coarse = _check_pure_simplicial(coarse)
    if d_fine != d_coarse:
        raise NotPure("fans have different dimensions")

    bary = _bary_table(fine, coarse, coarse_max)
    if set().union(*bary.values()) != set(range(len(fine.rays))):
        return False

    assignment = {c: [] for c in coarse_max}
    for tau in fine_max:
        home = next((c for c in coarse_max if bary[c].keys() >= tau), None)
        if home is None:
            return False
        assignment[home].append(tau)

    for sigma, taus in assignment.items():
        if not taus:
            return False
        facet_count = Counter(tau - {drop} for tau in taus for drop in tau)
        for rho, cnt in facet_count.items():
            on_boundary = any(
                all(not bary[sigma][i][j] for i in rho) for j in range(len(sigma))
            )
            if cnt != (1 if on_boundary else 2):
                return False
    return True


# ---------------------------------------------------------------------------
# Code the package does not run, kept for the tests: the determinant of
# A diag(x) A^T on A itself checks psi_det's route over the row-reduced
# matrix, and two round trips, the polynomial reader that of the printer and
# the matrix writer that of the matrix reader.
# ---------------------------------------------------------------------------


def psi_by_det(c):
    """psi of a configuration as det(A diag(x) A^T) on A itself."""
    from confan.arith import det
    from confan.config import q_w_matrix

    return det(q_w_matrix(c))


def parse_biflat_label(label, n):
    """Inverse of confan.fans.biflat_label: the masks (F, G) of "F⊆G"."""
    from confan.matroid import parse_subset_label

    f, g = label.split("⊆")
    return parse_subset_label(f, n), parse_subset_label(g, n)


def matrix_to_json(m, field="Q", p=None):
    """The matrix JSON that confan.inputs.matrix_from_json reads back."""
    out = {"rows": [[str(x) for x in row] for row in m.rows]}
    if field != "Q":
        out["field"] = field
        out["p"] = p
    return out


def parse_poly(text, variables):
    """Inverse of the polynomial printer (MultiPoly.__str__), over the
    rationals; ParseError on malformed text."""
    from confan.arith import MultiPoly
    from confan.errors import ParseError

    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    text = text.strip().replace(" ", "")
    if not text:
        raise ParseError("empty polynomial string")
    if text == "0":
        return MultiPoly.zero(variables)
    terms: dict = {}
    pos = 0
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        pos = 1
    chunk = []
    chunks = []
    while pos <= len(text):
        if pos == len(text) or text[pos] in "+-":
            chunks.append((sign, "".join(chunk)))
            if pos < len(text):
                sign = -1 if text[pos] == "-" else 1
                chunk = []
            pos += 1
        else:
            chunk.append(text[pos])
            pos += 1
    for sgn, body in chunks:
        if not body:
            raise ParseError("empty term in %r" % text)
        mono = [0] * len(variables)
        coeff = Fraction(1)
        for factor in body.split("*"):
            if not factor:
                raise ParseError("empty factor in %r" % body)
            if factor[0].isdigit():
                try:
                    coeff *= Fraction(factor)
                except ValueError:
                    raise ParseError("bad coefficient %r" % factor) from None
                continue
            name, _, exp = factor.partition("^")
            if name not in index:
                raise ParseError("unknown variable %r" % name)
            e = 1
            if exp:
                try:
                    e = int(exp)
                except ValueError:
                    raise ParseError("bad exponent %r" % exp) from None
                if e < 0:
                    raise ParseError("negative exponent %r" % factor)
            mono[index[name]] += e
        co = coeff * sgn
        key = tuple(mono)
        terms[key] = terms.get(key, 0) + (int(co) if co.denominator == 1 else co)
    return MultiPoly(variables, terms)
