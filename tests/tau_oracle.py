"""Reference tau route for differential tests: one intersection per k.

This is the route the library used before its lattice descent.  For each
k it intersects the row lattice of p^k I with im d (a Z-kernel of the
stacked bases, by ``int_echelon``) and takes the F_p rank of that
intersection divided by p^k.  Every tau_k is computed from scratch, with
no state carried between values of k, so the descent in
``derived_heights.recovery`` can be checked against it value for value.
"""

from __future__ import annotations

from derived_heights.intlinalg import int_echelon


def _copy(a) -> list[list[int]]:
    return [[int(x) for x in row] for row in a]


def int_kernel(a) -> list[list[int]]:
    """Basis of {v : v @ a == 0} over Z (rows of the result)."""
    a = _copy(a)
    r = len(a)
    if r == 0:
        return []
    aug = [row + [1 if i == j else 0 for j in range(r)] for i, row in enumerate(a)]
    c = len(a[0])
    ech = int_echelon(aug)
    return [row[c:] for row in ech if not any(row[:c])]


def int_span_intersect(b1, b2) -> list[list[int]]:
    """Basis of rowspan(b1) intersected with rowspan(b2)."""
    b1, b2 = _copy(b1), _copy(b2)
    if not b1 or not b2:
        return []
    k = int_kernel(b1 + b2)
    out = []
    for comb in k:
        v = [0] * len(b1[0])
        for ci, row in zip(comb[: len(b1)], b1):
            for j, x in enumerate(row):
                v[j] += ci * x
        if any(v):
            out.append(v)
    return int_echelon(out)


def fp_rank(a, p: int) -> int:
    """Rank of the matrix over F_p."""
    rows = [[x % p for x in row] for row in _copy(a)]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def tau_value(p: int, d, k: int) -> int:
    """tau_k of [Z^a -> Z^b] with matrix d, by a fresh intersection."""
    b = len(d[0])
    pk = p ** k
    scaled = [[pk if i == j else 0 for j in range(b)] for i in range(b)]
    inter = int_span_intersect(scaled, [list(r) for r in d])
    reduced = [[(x // pk) % p for x in row] for row in inter]
    return b - fp_rank(reduced, p)
