"""The integer kernel of the fan layer: rank, index and left inverse of the
integer generators of a cone, with no rational arithmetic.
"""

from __future__ import annotations

from typing import Sequence


class RowFactor:
    """Exact integer data of k integer rows g_1..g_k in Z^m, such as the
    generators of a cone; G is the m x k matrix with columns g_1..g_k.
    Built by factor_rows.

    rank  - rank of G
    index - gcd of the k x k minors of G: the index of the lattice the rows
            span in its saturation when rank == k, and 0 when rank < k
    """

    __slots__ = ("rows", "ncols", "rank", "index", "_inverse")

    def __init__(self, rows, ncols, rank, index):
        self.rows = rows
        self.ncols = ncols
        self.rank = rank
        self.index = index
        self._inverse = None

    def left_inverse(self):
        """(R, D, adj), computed on first use; needs rank == k.

        R   - k coordinates with G_R (those rows of G) invertible, chosen
              greedily from the left
        D   - |det G_R|
        adj - the adjugate of G_R, negated when det G_R < 0, as a tuple of
              rows, so adj . G_R = D . I

        Fraction-free Gauss-Jordan elimination of [G^T | I]: its last pivot
        is ±det G_R and its right block is ±adj(G_R)^T.
        """
        if self._inverse is None:
            rows, ncols = self.rows, self.ncols
            k = len(rows)
            if self.rank < k:
                raise ValueError("rows are dependent: no left inverse")
            work = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(rows)]
            coords = []
            prev = 1
            for j in range(ncols):
                r = len(coords)
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
                if r + 1 == k:
                    break
            # the right block E has E . G_R^T = prev . I, so adj = ±E^T
            sign = 1 if prev > 0 else -1
            adj = tuple(
                tuple(sign * work[s][ncols + i] for s in range(k)) for i in range(k)
            )
            self._inverse = (tuple(coords), abs(prev), adj)
        return self._inverse

    def cone_coordinates(self, p: Sequence[int]):
        """y = adj . p_R when p lies in the cone the rows span, else None.

        p lies in the cone iff y >= 0 and G y = D p; y is then D times the
        unique coordinates of p in the rows.  Needs rank == k.
        """
        coords, d, adj = self.left_inverse()
        pr = [p[j] for j in coords]
        y = [sum(a * b for a, b in zip(row, pr)) for row in adj]
        if any(x < 0 for x in y):
            return None
        for j in range(self.ncols):
            if sum(a * row[j] for a, row in zip(y, self.rows)) != d * p[j]:
                return None
        return y


def factor_rows(rows: Sequence[Sequence[int]], ncols: int) -> RowFactor:
    """Rank and index of k integer rows of length ncols, with their left
    inverse on demand (RowFactor.left_inverse).

    Hermite form under unimodular column operations (Euclid's algorithm on
    the columns, Cohen GTM 138 §2.4): they reduce G^T to [L | 0] with L
    lower triangular and keep the gcd of the maximal minors, so the rank is
    the number of pivots of L and, at full rank, the index is the product of
    their |values|.
    """
    rows = tuple(tuple(r) for r in rows)
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
    return RowFactor(rows, ncols, rank, index if rank == k else 0)
