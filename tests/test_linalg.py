"""Howell-form machinery against brute-force span oracles.

The oracle closes a set of rows under addition and scalar multiplication
by sheer enumeration; it never touches the echelon code paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from derived_heights import linalg as la
from derived_heights.rng import SplitMix64


def brute_span(rows, p, n):
    """All Z/p^n-combinations of the rows, as a frozenset of tuples."""
    m = p ** n
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64)) % m
    cols = rows.shape[1]
    seen = {tuple(np.zeros(cols, dtype=np.int64))}
    frontier = [np.zeros(cols, dtype=np.int64)]
    while frontier:
        nxt = []
        for v in frontier:
            for r in rows:
                w = tuple((v + r) % m)
                if w not in seen:
                    seen.add(w)
                    nxt.append(np.array(w, dtype=np.int64))
        frontier = nxt
    return frozenset(seen)


def rand_mat(rng, rows, cols, m):
    return np.array(
        [[rng.below(m) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


def test_howell_identity_is_fixed():
    # identity 3x3 over Z/9 stays the identity
    h = la.howell_form(np.eye(3, dtype=np.int64), 3, 2)
    assert (h == np.eye(3, dtype=np.int64)).all()


def test_howell_single_row_z4():
    # [[2]] over Z/4 is already canonical
    h = la.howell_form(np.array([[2]]), 2, 2)
    assert h.shape == (1, 1) and h[0, 0] == 2


def test_howell_z4_worked_case():
    # [[2,1],[0,2]] over Z/4: canonical form has the same span (<= 16 elts)
    a = np.array([[2, 1], [0, 2]])
    h = la.howell_form(a, 2, 2)
    assert brute_span(a, 2, 2) == brute_span(h, 2, 2)
    # canonical shape: pivots are powers of 2, entries above reduced
    assert (la.howell_form(h, 2, 2) == h).all()


@pytest.mark.parametrize("p,n,cols", [(2, 2, 3), (3, 1, 3), (3, 2, 2), (5, 1, 3)])
def test_howell_span_preserving_and_idempotent(p, n, cols):
    m = p ** n
    rng = SplitMix64(2024 + p * 10 + n)
    for _ in range(60):
        a = rand_mat(rng, rng.below(4), cols, m)
        h = la.howell_form(a, p, n)
        assert brute_span(a, p, n) == brute_span(h, p, n)
        assert (la.howell_form(h, p, n) == h).all()


@pytest.mark.parametrize("p,n,cols", [(3, 1, 3), (3, 2, 3), (5, 1, 3)])
def test_howell_span_preserving_500_per_ring(p, n, cols):
    # the stated fuzz volume: 500 seeded matrices per supported ring,
    # span enumeration as the oracle (spans here stay below 10^4)
    m = p ** n
    rng = SplitMix64(424200 + p * 10 + n)
    for _ in range(500):
        a = rand_mat(rng, rng.below(4), cols, m)
        h = la.howell_form(a, p, n)
        assert (la.howell_form(h, p, n) == h).all()
        assert brute_span(a, p, n) == brute_span(h, p, n)


@pytest.mark.parametrize("p,n,cols", [(2, 2, 2), (3, 1, 3), (3, 2, 2)])
def test_howell_is_canonical_for_the_span(p, n, cols):
    # any two generating sets of the same span produce the same form
    m = p ** n
    rng = SplitMix64(7)
    for _ in range(40):
        a = rand_mat(rng, rng.below(3) + 1, cols, m)
        elts = list(brute_span(a, p, n))
        picks = [elts[rng.below(len(elts))] for _ in range(3)]
        b = np.vstack([a, np.array(picks, dtype=np.int64)])
        # shuffle rows of b deterministically
        order = sorted(range(b.shape[0]), key=lambda i: rng.next_u64())
        b = b[order]
        assert la.spans_equal(a, b, p, n) == (brute_span(a, p, n) == brute_span(b, p, n))
        if brute_span(a, p, n) == brute_span(b, p, n):
            ha, hb = la.howell_form(a, p, n), la.howell_form(b, p, n)
            assert ha.shape == hb.shape and (ha == hb).all()


def test_span_size_and_enumeration():
    rng = SplitMix64(11)
    for p, n, cols in [(2, 2, 3), (3, 1, 3), (3, 2, 2)]:
        m = p ** n
        for _ in range(25):
            a = rand_mat(rng, rng.below(3) + 1, cols, m)
            h = la.howell_form(a, p, n)
            oracle = brute_span(a, p, n)
            assert la.span_size(h, p, n) == len(oracle)
            listed = {tuple(v) for v in la.span_elements(h, p, n)}
            assert listed == oracle


def test_reduce_vec_constant_on_cosets():
    rng = SplitMix64(13)
    for p, n, cols in [(2, 2, 3), (3, 1, 3)]:
        m = p ** n
        for _ in range(20):
            a = rand_mat(rng, 2, cols, m)
            h = la.howell_form(a, p, n)
            v = np.array([rng.below(m) for _ in range(cols)], dtype=np.int64)
            base = la.reduce_vec(v, h, p, n)
            for x in la.span_elements(h, p, n):
                assert (la.reduce_vec((v + x) % m, h, p, n) == base).all()


def test_kernel_annihilator_of_p():
    # M = [p] over Z/p^2: kernel spanned by [p]
    for p in (2, 3, 5):
        k = la.kernel(np.array([[p]]), p, 2)
        assert k.shape == (1, 1) and k[0, 0] == p


def test_kernel_of_identity_is_zero():
    k = la.kernel(np.eye(3, dtype=np.int64), 3, 2)
    assert k.shape[0] == 0


def test_kernel_exhaustive_oracle_z9():
    rng = SplitMix64(17)
    p, n = 3, 2
    m = p ** n
    for _ in range(12):
        a = rand_mat(rng, 3, 3, m)
        k = la.kernel(a, p, n)
        oracle = set()
        for v0 in range(m):
            for v1 in range(m):
                for v2 in range(m):
                    v = np.array([v0, v1, v2], dtype=np.int64)
                    if not ((v @ a) % m).any():
                        oracle.add(tuple(v))
        assert {tuple(v) for v in la.span_elements(k, p, n)} == oracle


def test_solve_identity_and_no_solution():
    p, n = 3, 2
    b = np.array([4, 7, 1], dtype=np.int64)
    v = la.solve(np.eye(3, dtype=np.int64), b, p, n)
    assert (v == b).all()
    assert la.solve(np.array([[p]]), np.array([1]), p, n) is None
    v = la.solve(np.array([[p]]), np.array([p]), p, n)
    assert (v @ np.array([[p]]) % p ** n == np.array([p])).all()


def test_solve_matches_span_membership():
    rng = SplitMix64(19)
    for p, n, r, c in [(2, 2, 2, 3), (3, 1, 3, 2), (3, 2, 2, 2)]:
        m = p ** n
        for _ in range(20):
            a = rand_mat(rng, r, c, m)
            span = brute_span(a, p, n)
            b = np.array([rng.below(m) for _ in range(c)], dtype=np.int64)
            v = la.solve(a, b, p, n)
            if tuple(b) in span:
                assert v is not None and ((v @ a) % m == b).all()
            else:
                assert v is None


def test_random_solution_is_a_solution():
    rng = SplitMix64(23)
    p, n = 3, 1
    m = 3
    a = rand_mat(rng, 3, 3, m)
    b = (np.array([1, 2, 0], dtype=np.int64) @ a) % m
    for _ in range(10):
        v = la.random_solution(a, b, p, n, rng)
        assert v is not None and ((v @ a) % m == b).all()


def test_preimage_and_intersect_against_enumeration():
    rng = SplitMix64(29)
    p, n, cols = 3, 1, 3
    m = 3
    for _ in range(15):
        a = rand_mat(rng, 3, cols, m)
        bspan = la.howell_form(rand_mat(rng, 1, cols, m), p, n)
        target = brute_span(bspan, p, n) if bspan.shape[0] else {(0,) * cols}
        pre = la.preimage(a, bspan, p, n)
        oracle = {
            tuple(v)
            for v in (np.array(x) for x in np.ndindex(*(m,) * 3))
            if tuple((np.array(v) @ a) % m) in target
        }
        assert {tuple(v) for v in la.span_elements(pre, p, n)} == oracle
        c = la.howell_form(rand_mat(rng, 2, cols, m), p, n)
        d = la.howell_form(rand_mat(rng, 2, cols, m), p, n)
        inter = la.span_intersect(c, d, p, n)
        assert {tuple(v) for v in la.span_elements(inter, p, n)} == (
            {tuple(v) for v in la.span_elements(c, p, n)}
            & {tuple(v) for v in la.span_elements(d, p, n)}
        )


def test_kernel_unchanged_by_howell():
    # {x : M x = 0} depends only on the row span, so canonicalizing M
    # (kernel of the transpose, in our row convention) changes nothing
    rng = SplitMix64(31)
    for p, n in [(3, 1), (3, 2), (5, 1)]:
        m = p ** n
        for _ in range(15):
            a = rand_mat(rng, 3, 3, m)
            h = la.howell_form(a, p, n)
            k1 = la.kernel(a.T, p, n)
            k2 = la.kernel(h.T if h.shape[0] else np.zeros((3, 0), dtype=np.int64), p, n)
            if h.shape[0] == 0:
                assert la.spans_equal(k1, np.eye(3, dtype=np.int64), p, n)
            else:
                assert k1.shape == k2.shape and (k1 == k2).all()


# -- the Howell memo ---------------------------------------------------------


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1), (2, 3)])
def test_memoized_howell_matches_unmemoized(p, n):
    rng = SplitMix64(4100 + 10 * p + n)
    m = p ** n
    cases = [np.zeros((0, 4), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
             np.array([rng.below(m) for _ in range(5)], dtype=np.int64)]
    for _ in range(60):
        rows, cols = 1 + rng.below(6), 1 + rng.below(7)
        # entries outside [0, m) too, so the reduction before the lookup is exercised
        cases.append(rand_mat(rng, rows, cols, 3 * m) - m)
    for a in cases + cases:  # the second round is answered from the memo
        h = la.howell_form(a, p, n)
        ref = la._howell_form(a, p, n)
        assert h.shape == ref.shape and (h == ref).all()


def test_memoized_howell_is_read_only():
    a = np.array([[3, 1], [0, 3]], dtype=np.int64)
    for h in (la.howell_form(a, 3, 2), la.howell_form(np.zeros((0, 2)), 3, 2)):
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[...] = 0
    # a caller that needs to write copies first
    c = la.howell_form(a, 3, 2).copy()
    c[0, 0] = 7
    assert la.howell_form(a, 3, 2)[0, 0] != 7


def test_memo_ignores_later_changes_to_the_input():
    a = np.array([[2, 4, 1], [1, 1, 1]], dtype=np.int64)
    first = la.howell_form(a, 5, 1).copy()
    a[:] = 0
    b = np.array([[2, 4, 1], [1, 1, 1]], dtype=np.int64)
    assert (la.howell_form(b, 5, 1) == first).all()
    assert la.howell_form(a, 5, 1).shape == (0, 3)


def test_memo_is_a_clearable_module_attribute():
    # callers that empty every lru_cache of a module find it by cache_clear
    memo = la._howell_memo
    assert callable(memo.cache_clear)
    la.howell_form(np.eye(2, dtype=np.int64), 3, 1)
    memo.cache_clear()
    assert memo.cache_info().currsize == 0
    assert memo.cache_info().maxsize == la.HOWELL_MEMO_SIZE
    la.howell_form(np.eye(2, dtype=np.int64), 3, 1)
    la.howell_form(np.eye(2, dtype=np.int64), 3, 1)
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


# -- exact modular matrix powers -----------------------------------------------


def test_mat_pow_mod_does_not_wrap():
    # the unreduced int64 power wraps here: 5^49 and 8^49 exceed 2^63
    assert la.mat_pow_mod(np.array([[5]]), 49, 49)[0, 0] == 19
    assert la.mat_pow_mod(np.array([[8]]), 49, 49)[0, 0] == 1


def test_mat_pow_mod_against_exact_integers():
    rng = SplitMix64(77)
    for m in (9, 25, 49):
        for e in (0, 1, 2, 5, 49):
            a = rand_mat(rng, 3, 3, m)
            exact = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
            rows = [[int(x) for x in r] for r in a]
            for _ in range(e):
                exact = [[sum(exact[i][k] * rows[k][j] for k in range(3)) % m
                          for j in range(3)] for i in range(3)]
            assert (la.mat_pow_mod(a, e, m) == np.array(exact)).all()
