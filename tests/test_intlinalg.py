"""Integer Smith form against the minor-gcd characterization."""

from __future__ import annotations

from math import gcd

import tau_oracle
from derived_heights import intlinalg as il
from derived_heights.rng import SplitMix64


def rand_int_mat(rng, rows, cols, bound):
    return [[rng.below(2 * bound + 1) - bound for _ in range(cols)] for _ in range(rows)]


def test_smith_trivial_cases():
    assert il.smith_form_int([[2, 0], [0, 6]]) == ([2, 6], 0)
    assert il.smith_form_int([[0, 0], [0, 0]]) == ([], 2)
    assert il.smith_form_int([[4, 2], [2, 4]]) == ([2, 6], 0)


def test_smith_hand_checks():
    divisors, free = il.smith_form_int([[4, 2], [2, 4]])
    # d1 = gcd of entries, d1*d2 = |det|
    assert divisors[0] == 2 and divisors[0] * divisors[1] == abs(4 * 4 - 2 * 2)
    assert free == 0


def _cofactor_det(a):
    """Independent determinant (Laplace expansion, no shared code path)."""
    k = len(a)
    if k == 1:
        return a[0][0]
    total = 0
    for j in range(k):
        if a[0][j] == 0:
            continue
        minor = [[row[t] for t in range(k) if t != j] for row in a[1:]]
        term = a[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _oracle_minor_gcd(a, k):
    from itertools import combinations

    nr, nc = len(a), len(a[0])
    g = 0
    for rows in combinations(range(nr), k):
        for cols in combinations(range(nc), k):
            g = gcd(g, _cofactor_det([[a[i][j] for j in cols] for i in rows]))
    return g


def test_smith_matches_minor_gcds():
    # the divisor products must match gcds of minors computed by an
    # independent cofactor-expansion determinant
    rng = SplitMix64(101)
    for size in (3, 4):
        for _ in range(30):
            a = rand_int_mat(rng, size, size, 20)
            divisors, free = il.smith_form_int(a)
            prod = 1
            for k in range(1, len(divisors) + 1):
                prod *= divisors[k - 1]
                assert prod == _oracle_minor_gcd(a, k)
            # beyond the rank every minor vanishes
            if len(divisors) < size:
                assert _oracle_minor_gcd(a, len(divisors) + 1) == 0
            assert free == size - len(divisors)


def test_smith_divisibility_chain():
    rng = SplitMix64(103)
    for _ in range(40):
        a = rand_int_mat(rng, 4, 3, 30)
        divisors, _ = il.smith_form_int(a)
        for d1, d2 in zip(divisors, divisors[1:]):
            assert d2 % d1 == 0


def test_int_kernel_and_intersect():
    rng = SplitMix64(107)
    for _ in range(25):
        a = rand_int_mat(rng, 3, 3, 8)
        for v in tau_oracle.int_kernel(a):
            prod = [sum(v[i] * a[i][j] for i in range(3)) for j in range(3)]
            assert prod == [0, 0, 0]
        b1 = rand_int_mat(rng, 2, 3, 5)
        b2 = rand_int_mat(rng, 2, 3, 5)
        inter = tau_oracle.int_span_intersect(b1, b2)
        # every intersection generator must be expressible both ways
        for v in inter:
            assert _in_rowspan(v, b1) and _in_rowspan(v, b2)


def _in_rowspan(v, basis):
    # membership via Smith: v in rowspan(B) iff stacking v does not
    # change the elementary divisors of the lattice
    d1, f1 = il.smith_form_int(basis)
    d2, f2 = il.smith_form_int(basis + [v])
    return (d1, f1) == (d2, f2)


def test_fp_rank():
    assert tau_oracle.fp_rank([[1, 2], [2, 4]], 5) == 1
    assert tau_oracle.fp_rank([[1, 2], [2, 4]], 3) == 1
    assert tau_oracle.fp_rank([[1, 0], [0, 3]], 3) == 1
    assert tau_oracle.fp_rank([[0, 0]], 7) == 0


def test_fp_left_kernel_is_rank_and_left_kernel():
    rng = SplitMix64(113)
    for p in (2, 3, 5, 7):
        for _ in range(30):
            a = rand_int_mat(rng, rng.below(5) + 1, rng.below(5) + 1, 3 * p)
            rank, ker = il.fp_left_kernel(a, p)
            assert rank == tau_oracle.fp_rank(a, p)
            assert len(ker) == len(a) - rank
            assert tau_oracle.fp_rank(ker, p) == len(ker)
            for c in ker:
                assert all(sum(ci * row[j] for ci, row in zip(c, a)) % p == 0
                           for j in range(len(a[0])))
    assert il.fp_left_kernel([], 3) == (0, [])


def test_valuation_bound_dominates_divisors():
    rng = SplitMix64(109)
    for p in (2, 3, 5):
        for _ in range(20):
            a = rand_int_mat(rng, 3, 3, 50)
            divisors, _ = il.smith_form_int(a)
            vb = il.valuation_bound(a, p)
            for d in divisors:
                v = 0
                while d % p == 0:
                    d //= p
                    v += 1
                assert v <= vb
