"""Howell-form machinery against brute-force span oracles.

The oracle closes a set of rows under addition and scalar multiplication
by sheer enumeration; it never touches the echelon code paths.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import howell_oracle
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
        assert (la.Span(a, p, n) == la.Span(b, p, n)) == (
            brute_span(a, p, n) == brute_span(b, p, n))
        if brute_span(a, p, n) == brute_span(b, p, n):
            ha, hb = la.howell_form(a, p, n), la.howell_form(b, p, n)
            assert ha.shape == hb.shape and (ha == hb).all()


def test_span_size_and_enumeration():
    rng = SplitMix64(11)
    for p, n, cols in [(2, 2, 3), (3, 1, 3), (3, 2, 2)]:
        m = p ** n
        for _ in range(25):
            a = rand_mat(rng, rng.below(3) + 1, cols, m)
            h = la.Span(a, p, n)
            oracle = brute_span(a, p, n)
            assert h.size() == len(oracle)
            listed = {tuple(v) for v in la.span_elements(h)}
            assert listed == oracle


def test_coset_reducer_constant_on_cosets():
    rng = SplitMix64(13)
    for p, n, cols in [(2, 2, 3), (3, 1, 3)]:
        m = p ** n
        for _ in range(20):
            a = rand_mat(rng, 2, cols, m)
            h = la.Span(a, p, n)
            reducer = h.reducer
            v = np.array([rng.below(m) for _ in range(cols)], dtype=np.int64)
            base = reducer.reduce(v)
            for x in la.span_elements(h):
                assert (reducer.reduce((v + x) % m) == base).all()


def test_kernel_annihilator_of_p():
    # M = [p] over Z/p^2: kernel spanned by [p]
    for p in (2, 3, 5):
        k = la.kernel(np.array([[p]]), p, 2).h
        assert k.shape == (1, 1) and k[0, 0] == p


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (5, 1)])
def test_spans_annihilator_needs_the_product_and_the_count(p, n):
    # the functional x_0 on (Z/p^n)^2 spans the annihilator of the line of
    # e_1; p x_0 kills it but spans a proper sub-span; x_0 against the line
    # of e_0 has the right count, but the product does not vanish
    e0, e1 = la.Span([[1, 0]], p, n), la.Span([[0, 1]], p, n)
    x0 = np.array([[1], [0]], dtype=np.int64)
    assert la.spans_annihilator(x0, e1)
    assert not la.spans_annihilator(p * x0, e1)
    assert not la.spans_annihilator(x0, e0)
    # against enumeration: a kernel's annihilator is spanned by the matrix's columns
    rng = SplitMix64(223 + p ** n)
    for _ in range(10):
        a = rng.below_many(p ** n, 9).reshape(3, 3)
        ker = la.kernel(a, p, n)
        assert la.spans_annihilator(a, ker)
        brute = brute_span(a.T, p, n)
        assert len(brute) * ker.size() == p ** (3 * n)


def test_kernel_of_identity_is_zero():
    k = la.kernel(np.eye(3, dtype=np.int64), 3, 2)
    assert k.h.shape[0] == 0


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
        assert {tuple(v) for v in la.span_elements(k)} == oracle


def test_solve_identity_and_no_solution():
    p, n = 3, 2
    b = np.array([4, 7, 1], dtype=np.int64)
    v = la.Solver(np.eye(3, dtype=np.int64), p, n).solve(b)
    assert (v == b).all()
    assert la.Solver(np.array([[p]]), p, n).solve(np.array([1])) is None
    v = la.Solver(np.array([[p]]), p, n).solve(np.array([p]))
    assert (v @ np.array([[p]]) % p ** n == np.array([p])).all()


def test_solve_matches_span_membership():
    rng = SplitMix64(19)
    for p, n, r, c in [(2, 2, 2, 3), (3, 1, 3, 2), (3, 2, 2, 2)]:
        m = p ** n
        for _ in range(20):
            a = rand_mat(rng, r, c, m)
            span = brute_span(a, p, n)
            b = np.array([rng.below(m) for _ in range(c)], dtype=np.int64)
            v = la.Solver(a, p, n).solve(b)
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
    solver = la.Solver(a, p, n)
    for _ in range(10):
        v = solver.random_solution(b, rng)
        assert v is not None and ((v @ a) % m == b).all()


def test_preimage_and_intersect_against_enumeration():
    rng = SplitMix64(29)
    p, n, cols = 3, 1, 3
    m = 3
    for _ in range(15):
        a = rand_mat(rng, 3, cols, m)
        bspan = la.Span(rand_mat(rng, 1, cols, m), p, n)
        target = brute_span(bspan.h, p, n) if bspan.h.shape[0] else {(0,) * cols}
        pre = la.preimage(a, bspan)
        oracle = {
            tuple(v)
            for v in (np.array(x) for x in np.ndindex(*(m,) * 3))
            if tuple((np.array(v) @ a) % m) in target
        }
        assert {tuple(v) for v in la.span_elements(pre)} == oracle
        c = la.Span(rand_mat(rng, 2, cols, m), p, n)
        d = la.Span(rand_mat(rng, 2, cols, m), p, n)
        inter = la.span_intersect(c, d)
        assert {tuple(v) for v in la.span_elements(inter)} == (
            {tuple(v) for v in la.span_elements(c)}
            & {tuple(v) for v in la.span_elements(d)}
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
                assert k1 == la.Span(np.eye(3, dtype=np.int64), p, n)
            else:
                assert k1.h.shape == k2.h.shape and (k1.h == k2.h).all()


# -- Howell forms: no memo, read-only results ---------------------------------


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1), (2, 3)])
def test_memoized_howell_matches_unmemoized(p, n):
    rng = SplitMix64(4100 + 10 * p + n)
    m = p ** n
    cases = [np.zeros((0, 4), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
             np.array([rng.below(m) for _ in range(5)], dtype=np.int64)]
    for _ in range(60):
        rows, cols = 1 + rng.below(6), 1 + rng.below(7)
        # entries outside [0, m) too, so the reduction of the input is exercised
        cases.append(rand_mat(rng, rows, cols, 3 * m) - m)
    for a in cases + cases:  # the second round: a call keeps no state
        h = la.howell_form(a, p, n)
        ref = howell_oracle.howell_form(a, p, n)
        assert h.shape == ref.shape and (h == ref).all()


@pytest.mark.parametrize("rows,cols", [(9, 18), (15, 30), (27, 54), (54, 81)])
def test_howell_matches_the_fixpoint_oracle_at_benchmark_shapes(rows, cols):
    # over Z/9; half the rows have their left half multiplied by 3, so that
    # pivots of valuation 1 have unit entries to their right and their
    # annihilator rows are nonzero; one row is dependent
    rng = SplitMix64(5200 + rows)
    a = rand_mat(rng, rows, cols, 9)
    a[::2, : cols // 2] = 3 * a[::2, : cols // 2] % 9
    a[-1] = (a[0] + 2 * a[1]) % 9
    h = la.howell_form(a, 3, 2)
    ref = howell_oracle.howell_form(a, 3, 2)
    assert h.shape == ref.shape and (h == ref).all()


def _structured_inputs(p, n, rng):
    """Inputs that drive each branch of the Howell kernel's pivot step.

    Runs of zero columns at the start, in the middle and at the end (so
    the kernel skips runs, and stops early); rows already in echelon order
    (so no swap happens); rows whose first nonzero entry lies below other
    rows (so one does); non-unit pivots whose annihilator rows rejoin; and
    one large sparse input, whose steps update only the rows they change.
    """
    m = p ** n
    cases = []
    for rows, cols in ((4, 12), (7, 12), (12, 16)):
        a = rand_mat(rng, rows, cols, m)
        a[:, [0, 1, 5, 6, 7, cols - 2, cols - 1]] = 0
        # when n > 1, odd rows get non-unit entries left of units: their
        # pivots have valuation 1 and nonzero annihilator rows
        a[1::2, :cols // 2] = p * a[1::2, :cols // 2] % m
        cases.append(a)
        cases.append(a[::-1].copy())  # the pivot row is not first: a swap
    # echelon order, no swap: row r has a unit at column 2r and zeros at
    # odd columns, so each odd column is a zero run between two pivots
    ech = rand_mat(rng, 5, 12, m)
    ech[:, 1::2] = 0
    for r in range(5):
        ech[r, :2 * r] = 0
        ech[r, 2 * r] = p * rng.below(m // p) + 1
    cases.append(ech)
    big = rand_mat(rng, 70, 70, m)
    big[rand_mat(rng, 70, 70, 20) != 0] = 0  # about 5% nonzero
    cases.append(big)
    return cases


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (2, 3)])
def test_howell_kernel_matches_the_oracle_on_structured_inputs(p, n):
    rng = SplitMix64(5300 + 10 * p + n)
    for a in _structured_inputs(p, n, rng):
        h = la.howell_form(a, p, n)
        ref = howell_oracle.howell_form(a, p, n)
        assert h.shape == ref.shape and (h == ref).all()


def _base_cases(p, n, rng):
    """(base, rows) pairs: scaled bases (non-unit pivots), the zero span and
    the whole ambient as bases, zero-row inputs, and rows inside the base."""
    m = p ** n
    cases = []
    for rows, cols in ((2, 4), (5, 6), (7, 12), (3, 16)):
        b = rand_mat(rng, rows, cols, m)
        b[1::2] = p * b[1::2] % m
        b[::3, :cols // 2] = p * b[::3, :cols // 2] % m
        base = la.Span(b, p, n)
        a = rand_mat(rng, rows + 1, cols, 3 * m) - m  # entries outside [0, m) too
        a[::2] = p * a[::2]
        inside = la.mul_mod(rand_mat(rng, 3, len(base.h), m), base.h, m)
        cases += [(base, a), (base, a[:0]), (base, inside), (base, np.vstack([inside, a[:1]])),
                  (la.Span.zero(cols, p, n), a), (la.Span.whole(cols, p, n), a),
                  (la.Span.zero(cols, p, n), a[:0])]
    cases.append((la.Span.zero(0, p, n), np.zeros((0, 0), dtype=np.int64)))
    return cases


def _padded(h, cols):
    """h with zero columns appended up to width cols."""
    return np.hstack([h, np.zeros((len(h), cols - h.shape[1]), dtype=np.int64)])


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (2, 3)])
def test_howell_form_on_a_base_is_the_stacked_form(p, n):
    # rows reduced by the base on its columns, as howell_form's contract asks;
    # a base narrower than the rows stands padded with zero columns
    rng = SplitMix64(5400 + 10 * p + n)
    non_unit = 0
    for base, a in _base_cases(p, n, rng):
        non_unit += len(base.reducer.pivots)
        for extra in (0, 3):
            rows = np.hstack([a, rng.below_many(p ** n, len(a) * extra).reshape(len(a), extra)])
            rows %= p ** n
            rows[:, :a.shape[1]] = base.reduce(rows[:, :a.shape[1]])
            stacked = np.vstack([_padded(base.h, rows.shape[1]), rows])
            h = la.howell_form(rows, p, n, base)
            for ref in (la.howell_form(stacked, p, n), howell_oracle.howell_form(stacked, p, n)):
                assert h.shape == ref.shape and (h == ref).all()
            assert not h.flags.writeable
    assert non_unit or n == 1
    # a base with a unit pivot and a non-unit one: rows that the base leaves
    # nonzero at the non-unit pivot's column take that column, so the step
    # may skip only the unit pivots' columns
    if n > 1:
        base = la.Span(np.array([[1, 2, 0, 1], [0, p, 1, 0], [0, 0, p, 0]]), p, n)
        assert len(base.reducer.unit_cols) and len(base.reducer.pivots)
        for rows in ([[0, 1, 0, 0]], [[0, 1, 1, 0], [0, 0, 1, 1]], [[0, 0, 1, 0], [0, p, 0, 1]]):
            rows = base.reduce(np.array(rows))
            assert rows[:, 1:3].any()
            ref = howell_oracle.howell_form(np.vstack([base.h, rows]), p, n)
            h = la.howell_form(rows, p, n, base)
            assert h.shape == ref.shape and (h == ref).all()
    a = np.ones((2, 4), dtype=np.int64)
    for base in (la.Span.whole(4, p, n + 1), la.Span.whole(4, p + 2, n), la.Span.zero(4, p, n + 1),
                 la.Span.whole(3, p, n), la.Span.zero(5, p, n)):
        with pytest.raises(ValueError, match="a base over"):
            la.Span(a, p, n, base)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (7, 2)])
def test_a_span_holds_its_own_rows_with_no_reduction(p, n, monkeypatch):
    # an identity test, not an equality test: an equal copy of the rows, or
    # other rows of the same shape, still go through the reducer
    calls = []
    reduce = la.CosetReducer.reduce
    monkeypatch.setattr(la.CosetReducer, "reduce",
                        lambda self, v: calls.append(1) or reduce(self, v))
    rng = SplitMix64(5600 + 10 * p + n)
    m = p ** n
    b = rand_mat(rng, 4, 6, m)
    b[1] = p * b[1] % m
    span = la.Span(b, p, n)
    assert span.contains(span.h) and span.contains(span) and not calls
    same = la.Span(span.h, p, n, span)  # one reduction of its rows, then it shares span.h
    assert same.h is span.h and len(calls) == 1 and span.contains(same) and len(calls) == 1
    assert span.contains(span.h.copy()) and len(calls) == 2
    small = la.Span(span.h[:1], p, n)
    assert not small.contains(span.h[1:2].copy()) and len(calls) == 3
    assert not small.contains(span) and len(calls) == 4
    with pytest.raises(ValueError, match="spans over"):
        span.contains(la.Span(span.h, p, n + 1))


def _held_cases(p, n, rng):
    """(a, b) with a inside b: b of scaled rows (non-unit pivots), a the span of
    random combinations of them, the zero span and b itself."""
    m = p ** n
    cases = []
    for rows, cols in ((2, 4), (4, 6), (6, 12), (3, 16)):
        b = rand_mat(rng, rows, cols, m)
        b[1::2] = p * b[1::2] % m
        b[::3, :cols // 2] = p * b[::3, :cols // 2] % m
        b = la.Span(b, p, n)
        coeffs = rand_mat(rng, 3, len(b.h), m)
        coeffs[::2] = p * coeffs[::2] % m
        inside = la.mul_mod(coeffs, b.h, m)
        cases += [(la.Span(inside, p, n), b), (la.Span.zero(cols, p, n), b), (b, b)]
    return cases


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (2, 3)])
def test_a_base_that_holds_every_new_row_is_the_result(p, n):
    # a sum, an intersection and a preimage whose new rows the base already
    # holds return the span the reduction proved, with its reducer, and that
    # span is the stacked Howell form
    rng = SplitMix64(5500 + 10 * p + n)
    m, non_unit = p ** n, 0
    for a, b in _held_cases(p, n, rng):
        non_unit += len(b.reducer.pivots)
        stacked = np.vstack([b.h, a.h])
        for ref in (la.howell_form(stacked, p, n), howell_oracle.howell_form(stacked, p, n)):
            assert b.h.shape == ref.shape and (b.h == ref).all()
        for rows in (a.h, 2 * a.h - m, a.h[:0]):
            out = la.Span(rows, p, n, b)
            assert out.h is b.h and out.reducer is b.reducer and out == b
        assert (b + a).h is b.h and a + b == b  # a has no more rows than b: b is the base
        assert la.span_intersect(a, b) is a and la.span_intersect(b, a) is (b if a == b else a)
        ref = howell_oracle.howell_form(a.h, p, n)
        assert a.h.shape == ref.shape and (a.h == ref).all()
        x = la.mul_mod(rand_mat(rng, 5, len(b.h), m), b.h, m) if len(b.h) else a.h[:0]
        pre = la.preimage(x, b)
        assert pre == la.Span.whole(len(x), p, n) and pre.size() == m ** len(x)
    assert non_unit or n == 1


def test_howell_kernel_bound_is_asserted(monkeypatch):
    # deferred entries stay below m + cols * (m - 1)^2 and a pivot row is
    # scaled by a unit inverse before it is reduced; near m = 2^62 even one
    # column is too many, and the assertion comes before any table is built
    with pytest.raises(AssertionError, match="overflow"):
        la.howell_form(np.array([[1, 0]], dtype=np.int64), 2 ** 31 - 1, 2)
    seen = []
    monkeypatch.setattr(la, "check_accumulation", lambda terms, m: seen.append((terms, m)))
    la.howell_form(np.ones((3, 5), dtype=np.int64), 3, 2)
    assert seen == [(5 * 9, 9)]


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


# -- the Span value -------------------------------------------------------------


def test_span_h_is_read_only():
    a = np.array([[3, 1], [0, 3]], dtype=np.int64)
    spans = [la.Span(a, 3, 2), la.Span.zero(2, 3, 2), la.Span.whole(2, 3, 2),
             la.kernel(a, 3, 2), la.span_intersect(la.Span(a, 3, 2), la.Span.whole(2, 3, 2)),
             la.preimage(a, la.Span.zero(2, 3, 2)), la.image_span(la.Span(a, 3, 2), a)]
    for span in spans:
        assert not span.h.flags.writeable
        with pytest.raises(ValueError):
            span.h[...] = 0
        with pytest.raises(AttributeError):
            span.h = np.zeros((0, 2), dtype=np.int64)
        with pytest.raises(AttributeError):
            span.p = 5


@pytest.mark.parametrize("p,n,cols", [(2, 3, 3), (3, 1, 3), (3, 2, 4), (5, 1, 2)])
def test_span_of_arbitrary_rows_is_their_howell_form(p, n, cols):
    m = p ** n
    rng = SplitMix64(6100 + 10 * p + n)
    for _ in range(40):
        # entries outside [0, m) and repeated rows too
        a = (rand_mat(rng, rng.below(5), cols, 3 * m) - m).reshape(-1, cols)
        span, ref = la.Span(a, p, n), la.howell_form(a, p, n)
        assert (span.p, span.n, span.m, span.h.shape[1]) == (p, n, m, cols)
        assert span.h.shape == ref.shape and (span.h == ref).all()
        assert span == la.Span(np.vstack([a, a]), p, n)
        assert hash(span) == hash(la.Span(ref, p, n))


def test_span_equality_and_hash_include_the_ring():
    for cols in (0, 1, 3):
        for make in (la.Span.zero, la.Span.whole):
            spans = [make(cols, 3, 1), make(cols, 3, 2), make(cols, 5, 1)]
            assert len(set(spans)) == 3
            assert spans[0] != spans[1] and spans[0] != spans[2]
            assert spans[0] == make(cols, 3, 1)
    assert la.Span.zero(2, 3, 1) != la.Span.zero(3, 3, 1)
    assert la.Span.whole(2, 3, 1) != la.Span.zero(2, 3, 1)


def test_span_reducer_is_built_once_and_is_its_own():
    a = la.Span(np.array([[1, 2, 0]]), 3, 1)
    b = la.Span(np.array([[0, 1, 1]]), 3, 1)
    assert a.reducer is a.reducer and a.reducer is not b.reducer
    assert a.contains(np.array([2, 1, 0])) and not b.contains(np.array([2, 1, 0]))
    assert b.contains(np.array([0, 2, 2])) and not a.contains(np.array([0, 2, 2]))
    # a sum builds its own reducer, whatever its summands have built
    total = a + b
    assert total.reducer is not a.reducer and total.contains(b) and total.contains(a)


def test_spans_over_different_rings_do_not_combine():
    a, b = la.Span.whole(2, 3, 1), la.Span.whole(2, 3, 2)
    for combine in (lambda: a + b, lambda: a.contains(b), lambda: la.span_intersect(a, b)):
        with pytest.raises(ValueError, match="spans over"):
            combine()


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


def test_batched_accumulation_bound_is_asserted():
    # a residue plus one product per pivot must fit int64 before the one
    # reduction at the end: 2^51 pivots of products below 48^2 do, 2^52 do not
    la.check_accumulation(2 ** 51, 49)
    with pytest.raises(AssertionError, match="overflow"):
        la.check_accumulation(2 ** 52, 49)
    # near m = 2^62 a single pivot is already too many
    with pytest.raises(AssertionError, match="overflow"):
        la.CosetReducer(np.array([[1, 0]], dtype=np.int64), 2 ** 31 - 1, 2)


def test_one_vector_is_the_one_row_case():
    rng = SplitMix64(83)
    for p, n in ((3, 2), (5, 1), (7, 2)):
        m = p ** n
        a = rand_mat(rng, 4, 6, m)
        reducer = la.Span(a, p, n).reducer
        solver = la.Solver(a, p, n)
        for _ in range(20):
            v = rand_mat(rng, 1, 6, m)[0]
            r = reducer.reduce(v)
            assert r.shape == (6,) and (r == reducer.reduce(v[None])[0]).all()
            b = rand_mat(rng, 1, 4, m)[0] @ a % m
            x = solver.solve(b)
            assert x.shape == (4,) and (x == solver.solve(b[None])[0]).all()
            assert ((x @ a) % m == b).all()


def test_modular_product_bound_is_asserted_at_its_boundary():
    # at m = 2^31 + 1 one product (m - 1)^2 = 2^62 fits int64 and two do not
    m = 2 ** 31 + 1
    assert la.mul_mod([[m - 1]], [[-1]], m).tolist() == [[1]]
    assert la.mul_mod([[m - 1]], [[m - 1]], m).tolist() == [[1]]
    with pytest.raises(AssertionError, match="overflow"):
        la.mul_mod(np.full((1, 2), m - 1), np.full((2, 1), m - 1), m)
    # one below it two products fit: 2 * (2^31 - 1)^2 < 2^63
    assert la.mul_mod(np.full((1, 2), m - 2), np.full((2, 1), m - 2), m - 1).tolist() == [[2]]
    # factors are reduced by contract, not by mul_mod: a signed factor inside
    # (-m, m) is exact, and the tier-1 probe (conftest) rejects an unreduced one
    signed = np.array([[48, -48]], dtype=np.int64)
    assert la.mul_mod(signed, -signed.T, 49).tolist() == [[-2 * 48 ** 2 % 49]]
    big = np.array([[2 ** 62, -(2 ** 62)]], dtype=np.int64)
    with pytest.raises(pytest.fail.Exception, match="factor outside"):
        la.mul_mod(big, big.T, 49)


@pytest.mark.parametrize("m", [3, 49, 343])
def test_product_probe_rejects_a_factor_at_the_modulus(m):
    # the contract is the open interval (-m, m): m - 1 and 1 - m pass, m and -m fail
    edge = np.array([[m - 1, 1 - m]], dtype=np.int64)
    assert la.mul_mod(edge, edge.T, m).tolist() == [[2 * (m - 1) ** 2 % m]]
    for bad in (m, -m):
        for a, b in ((np.array([[bad]]), np.array([[1]])), (np.array([[1]]), np.array([[bad]]))):
            with pytest.raises(pytest.fail.Exception, match=r"factor outside .*\btest_product_probe"):
                la.mul_mod(a, b, m)


def test_base_probe_rejects_rows_the_base_did_not_reduce():
    # howell_form takes its rows reduced by the base; the probe fails the test
    # on any other row, and on a base over another ring or wider than the rows
    base = la.Span(np.array([[1, 2, 0], [0, 3, 3]]), 3, 2)
    held = np.array([[0, 0, 1, 4], [0, 1, 2, 0]])
    assert (base.reduce(held[:, :3]) == held[:, :3]).all()
    assert la.howell_form(held, 3, 2, base).shape == (4, 4)
    for rows, b in ((np.array([[1, 0, 0, 0]]), base), (held, la.Span(base.h, 3, 1)),
                    (held[:, :2], base)):
        with pytest.raises(pytest.fail.Exception, match=r"not reduced by their base, from "
                                                        r"test_base_probe"):
            la.howell_form(rows, 3, 2, b)


def test_every_matrix_product_in_src_goes_through_mul_mod():
    # a raw @ wraps int64 silently; mul_mod is the one product that asserts
    # its bound, so no other function of the package may multiply matrices
    found = []
    for path in sorted(Path(la.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "linalg.py":
            (fn,) = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "mul_mod"]
            allowed = {id(node) for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult) and id(node) not in allowed]
    assert found == []
