"""Exact integer-matrix algebra: echelon, F_p left kernels, Smith form.

Arbitrary-precision Python ints throughout, so nothing can overflow.
Matrices are lists of row lists; desk scale is at most 8x8.  The tau
route of ``recovery`` uses only ``int_echelon`` (a Z-basis of a row
lattice) and ``fp_left_kernel`` (rank and left kernel over F_p, from one
elimination): it descends from im d through the lattices
im d cap p^k Z^b without ever diagonalizing.  The Smith form
(``smith_form_int`` through ``minor_gcd`` and ``_det``) is the
independent ground-truth oracle for that structure recovery; the tau
route calls none of the three.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterable


def _copy(a: Iterable[Iterable[int]]) -> list[list[int]]:
    return [[int(x) for x in row] for row in a]


def int_echelon(a) -> list[list[int]]:
    """Row echelon form over Z via Euclidean row reduction (deterministic)."""
    rows = [r for r in _copy(a) if any(r)]
    if not rows:
        return []
    cols = len(rows[0])
    placed: list[list[int]] = []
    for col in range(cols):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not live:
            rows = rest
            continue
        # Euclid on the leading entries until one row survives
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            out = [base]
            for r in live[1:]:
                q = r[col] // base[col]
                rr = [x - q * y for x, y in zip(r, base)]
                if any(rr):
                    if rr[col] != 0:
                        out.append(rr)
                    else:
                        rest.append(rr)
            live = out
            if len(live) == 1:
                break
        pivot = live[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        placed.append(pivot)
        rows = [r for r in rest if any(r)]
    return placed


def fp_left_kernel(a, p: int) -> tuple[int, list[list[int]]]:
    """Rank of the matrix over F_p, and a basis of its left kernel.

    One elimination of [a mod p | I]: once the left block is in echelon
    form, the rows below the rank have a zero left block, and their right
    blocks are independent vectors c with c @ a == 0 mod p.
    """
    r = len(a)
    cols = len(a[0]) if r else 0
    rows = [[x % p for x in row] + [int(i == j) for j in range(r)]
            for i, row in enumerate(a)]
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, r) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], -1, p)
        for i in range(rank + 1, r):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank, [row[cols:] for row in rows[rank:]]


def smith_form_int(a) -> tuple[list[int], int]:
    """Elementary divisors d1 | d2 | ... and the cokernel free rank.

    Computed through the minor-gcd characterization: the product of the
    first k divisors is the gcd of all k x k minors, each taken by
    fraction-free (Bareiss) elimination.  Naive pivot-and-reduce Smith
    blows its coefficients up catastrophically already on dense 5 x 5
    inputs, while every Bareiss intermediate is a subdeterminant and
    stays Hadamard-bounded; at desk scale (<= 8 x 8) the minor count is
    harmless.  The cokernel is Z^cols / rowspan(a); its free rank is
    cols minus the number of nonzero divisors.
    """
    a = _copy(a)
    nr = len(a)
    nc = len(a[0]) if nr else 0
    divisors: list[int] = []
    g_prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = minor_gcd(a, k)
        if g == 0:
            break
        divisors.append(g // g_prev)
        g_prev = g
    for d1, d2 in zip(divisors, divisors[1:]):
        if d2 % d1:
            raise AssertionError("minor gcds violated the divisibility chain")
    return divisors, nc - len(divisors)


def minor_gcd(a, k: int) -> int:
    """gcd of all k x k minors (0 when none are nonzero)."""
    a = _copy(a)
    nr, nc = len(a), len(a[0]) if a else 0
    g = 0
    for rows in combinations(range(nr), k):
        for cols in combinations(range(nc), k):
            sub = [[a[i][j] for j in cols] for i in rows]
            g = gcd(g, _det(sub))
            if g == 1:
                return 1
    return g


def _det(a: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = _copy(a)
    k = len(a)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(k - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, k) if a[i][t] != 0), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[k - 1][k - 1]


def valuation_bound(a, p: int) -> int:
    """v with p^v exceeding every minor, so every elementary divisor.

    Uses the crude bound |det| <= prod_i sum_j |a_ij| over any square
    submatrix; certifies where a tau profile must have stabilized.
    """
    bound = 1
    for row in _copy(a):
        s = sum(abs(x) for x in row)
        if s > 1:
            bound *= s
    v = 0
    pw = 1
    while pw <= bound:
        pw *= p
        v += 1
    return v
