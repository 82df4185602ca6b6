"""The integer kernel of the fan layer: rank and index of the integer
generators of a cone, with no rational arithmetic.
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

    __slots__ = ("rank", "index")

    def __init__(self, rank, index):
        self.rank = rank
        self.index = index


def factor_rows(rows: Sequence[Sequence[int]]) -> RowFactor:
    """Rank and index of k integer rows of equal length.

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
    return RowFactor(rank, index if rank == k else 0)
