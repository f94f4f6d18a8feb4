"""Property tests of the span primitives against exhaustive enumeration.

Every matrix is small enough that its row span, its kernel and the whole
ambient module can be listed outright, so each property is checked
against a brute-force oracle that never touches the echelon code.  Empty
matrices (no rows) are drawn too: the primitives accept them without
guards on the caller's side.  ``span_intersect`` and ``preimage`` are
compared with the enumerated intersection and preimage, and their output
with its own Howell form; a ``Span``'s sum, intersection, containment,
equality and size with the enumerated sets.  The Howell form itself is also checked on
matrices too large to enumerate, against the retired fixpoint echelon
(``howell_oracle``).  Group-ring multiplication (``convolve``) is
checked against the double-loop definition of cyclic convolution.
Runs are derandomized and keep no example database, so the suite is
reproducible.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import howell_oracle
from derived_heights import linalg as la
from derived_heights.groupring import convolve
from derived_heights.rng import SplitMix64

RINGS = [(3, 1), (3, 2), (5, 1), (2, 3)]

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)


@st.composite
def matrices(draw, ring=None, cols=None):
    """(p, n, a) with a over Z/p^n, 0..3 rows and 1..3 columns."""
    p, n = draw(st.sampled_from(RINGS)) if ring is None else ring
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(1, 3)) if cols is None else cols
    entries = draw(st.lists(st.integers(0, p ** n - 1),
                            min_size=rows * cols, max_size=rows * cols))
    return p, n, np.array(entries, dtype=np.int64).reshape(rows, cols)


def ambient(m: int, cols: int):
    for v in product(range(m), repeat=cols):
        yield np.array(v, dtype=np.int64)


def row_span(a: np.ndarray, m: int) -> set[tuple[int, ...]]:
    """Every Z/m-combination of the rows of a."""
    return {tuple(int(x) for x in (c @ a) % m) for c in ambient(m, a.shape[0])}


@st.composite
def wide_matrices(draw):
    """(p, n, a) with 0..8 rows and 0..10 columns, rows scaled by powers of p.

    Too large to enumerate; the scaling makes non-unit pivots (and so
    annihilator rows) common.
    """
    p, n = draw(st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (2, 3)]))
    m = p ** n
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 10))
    entries = draw(st.lists(st.integers(0, m - 1), min_size=rows * cols,
                            max_size=rows * cols))
    scale = draw(st.lists(st.integers(0, n), min_size=rows, max_size=rows))
    a = np.array(entries, dtype=np.int64).reshape(rows, cols)
    return p, n, a * (p ** np.array(scale, dtype=np.int64))[:, None] % m


@settings(PROPERTY, max_examples=400)
@given(wide_matrices())
def test_howell_form_equals_the_fixpoint_oracle(case):
    p, n, a = case
    h = la.howell_form(a, p, n)
    ref = howell_oracle.howell_form(a, p, n)
    assert h.shape == ref.shape and (h == ref).all()


@PROPERTY
@given(wide_matrices())
def test_solver_kernel_is_already_canonical(case):
    # Solver takes the kernel rows of the Howell form of [a | I] as they are
    p, n, a = case
    ker = la.Solver(a, p, n).ker.h
    ref = howell_oracle.howell_form(ker, p, n)
    assert ker.shape == ref.shape and (ker == ref).all()


@PROPERTY
@given(matrices())
def test_howell_idempotent_and_span_size_counts_the_span(case):
    p, n, a = case
    h = la.howell_form(a, p, n)
    again = la.howell_form(h, p, n)
    assert again.shape == h.shape and (again == h).all()
    span = row_span(a, p ** n)
    hspan = la.Span(h, p, n)
    listed = [tuple(int(x) for x in v) for v in la.span_elements(hspan)]
    assert hspan.size() == len(span) == len(listed)
    assert set(listed) == span


@PROPERTY
@given(matrices())
def test_coset_reducer_is_constant_on_cosets_and_zero_exactly_on_the_span(case):
    p, n, a = case
    m = p ** n
    reducer = la.Span(a, p, n).reducer
    span = row_span(a, m)
    values = set()
    for w in ambient(m, a.shape[1]):
        r = reducer.reduce(w)
        # r lies in the coset of w ...
        assert tuple(int(x) for x in (w - r) % m) in span
        assert (not r.any()) == (tuple(int(x) for x in w) in span)
        assert reducer.contains(w) == (tuple(int(x) for x in w) in span)
        values.add(tuple(int(x) for x in r))
    # ... and there is one value per coset, so it is constant on each
    assert len(values) * len(span) == m ** a.shape[1]
    # a matrix is reduced row by row in one pass
    every = np.array(list(ambient(m, a.shape[1])))
    assert (reducer.reduce(every) == np.array([reducer.reduce(w) for w in every])).all()


@PROPERTY
@given(matrices())
def test_solver_solves_exactly_the_row_span(case):
    p, n, a = case
    m = p ** n
    solver = la.Solver(a, p, n)
    span = row_span(a, m)
    for b in ambient(m, a.shape[1]):
        v = solver.solve(b)
        if tuple(int(x) for x in b) in span:
            assert v is not None and ((v @ a) % m == b).all()
        else:
            assert v is None


@PROPERTY
@given(st.data())
def test_solver_on_a_target_matrix_matches_row_by_row_solves(data):
    p, n, a = data.draw(matrices())
    m = p ** n
    rows, cols = a.shape

    def vector(width):
        return np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=width,
                                           max_size=width)), dtype=np.int64)

    # targets from the span, and arbitrary ones that often have no solution
    targets = [vector(cols) if data.draw(st.booleans()) else (vector(rows) @ a) % m
               for _ in range(data.draw(st.integers(0, 4)))]
    b = np.array(targets, dtype=np.int64).reshape(len(targets), cols)
    solver = la.Solver(a, p, n)
    each = [solver.solve(row) for row in b]
    batch = solver.solve(b)
    if any(v is None for v in each):
        assert batch is None
        assert solver.random_solution(b, SplitMix64(9)) is None
        return
    assert batch.shape == (len(b), rows)
    assert (batch == np.array(each, dtype=np.int64).reshape(len(b), rows)).all()
    # a random solution per row, drawn as row-by-row calls draw them
    drawn = solver.random_solution(b, SplitMix64(9))
    again = SplitMix64(9)
    rowwise = [solver.random_solution(row, again) for row in b]
    assert (drawn == np.array(rowwise, dtype=np.int64).reshape(len(b), rows)).all()
    assert ((drawn @ a) % m == b).all()


@PROPERTY
@given(matrices())
def test_solver_kernel_is_the_enumerated_kernel(case):
    p, n, a = case
    m = p ** n
    oracle = {tuple(int(x) for x in v) for v in ambient(m, a.shape[0])
              if not ((v @ a) % m).any()}
    ker = la.Solver(a, p, n).ker
    assert ker.h.shape[1] == a.shape[0]
    assert {tuple(int(x) for x in v) for v in la.span_elements(ker)} == oracle
    same = la.kernel(a, p, n)
    assert same.h.shape == ker.h.shape and (same.h == ker.h).all()


@PROPERTY
@given(st.data())
def test_span_contains_is_inclusion_of_enumerated_spans(data):
    p, n, a = data.draw(matrices())
    _, _, b = data.draw(matrices(ring=(p, n), cols=a.shape[1]))
    m = p ** n
    assert la.Span(a, p, n).contains(la.Span(b, p, n)) == (row_span(b, m) <= row_span(a, m))


def canonical(h: np.ndarray, p: int, n: int) -> bool:
    """h is its own Howell form (checked against the fixpoint oracle)."""
    ref = howell_oracle.howell_form(h, p, n)
    return h.shape == ref.shape and bool((h == ref).all())


@PROPERTY
@given(st.data())
def test_span_intersect_is_the_enumerated_intersection(data):
    p, n, a = data.draw(matrices())
    _, _, b = data.draw(matrices(ring=(p, n), cols=a.shape[1]))
    m = p ** n
    got = la.span_intersect(la.Span(a, p, n), la.Span(b, p, n)).h
    assert got.shape[1] == a.shape[1]
    assert row_span(got, m) == row_span(a, m) & row_span(b, m)
    assert canonical(got, p, n)


@PROPERTY
@given(st.data())
def test_preimage_is_the_enumerated_preimage(data):
    p, n, a = data.draw(matrices())
    _, _, b = data.draw(matrices(ring=(p, n), cols=a.shape[1]))
    m = p ** n
    target = row_span(b, m)
    oracle = {tuple(int(x) for x in v) for v in ambient(m, a.shape[0])
              if tuple(int(x) for x in (v @ a) % m) in target}
    got = la.preimage(a, la.Span(b, p, n)).h
    assert got.shape[1] == a.shape[0]
    assert row_span(got, m) == oracle
    assert canonical(got, p, n)


def enumerated_sum(span: set, rows: np.ndarray, m: int) -> set[tuple[int, ...]]:
    """span + the row span of rows, closing under one row at a time."""
    out = set(span)
    for r in rows:
        out = {tuple(int(x) for x in (np.array(v) + c * r) % m) for v in out for c in range(m)}
    return out


@PROPERTY
@given(st.data())
def test_span_algebra_is_the_enumerated_set_algebra(data):
    p, n, a = data.draw(matrices())
    _, _, b = data.draw(matrices(ring=(p, n), cols=a.shape[1]))
    m = p ** n
    sa, sb = la.Span(a, p, n), la.Span(b, p, n)
    ea, eb = row_span(a, m), row_span(b, m)
    total = sa + sb
    assert row_span(total.h, m) == enumerated_sum(ea, b, m)
    assert canonical(total.h, p, n) and total == la.Span(np.vstack([a, b]), p, n)
    assert row_span(la.span_intersect(sa, sb).h, m) == ea & eb
    assert sa.contains(sb) == (eb <= ea)
    assert (sa == sb) == (ea == eb) and (sa + sb == sa) == (eb <= ea)
    assert sa.size() == len(ea) and sb.size() == len(eb) and total.size() == len(
        row_span(total.h, m))
    # the same span from other generators is equal, with the same hash
    same = la.Span(np.vstack([a[::-1], b[:0]]), p, n)
    assert same == sa and hash(same) == hash(sa)


# -- block draws ----------------------------------------------------------------


@PROPERTY
@given(st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(2 ** 64 - 2 ** 12, 2 ** 64 - 1)),
       st.one_of(st.integers(1, 200), st.integers(1, 2 ** 63 - 1)),
       st.integers(0, 40))
@example(seed=2 ** 64 - 1, n=7, count=0)
@example(seed=2 ** 64 - 1, n=7, count=3)
@example(seed=2 ** 64 - 0x9E3779B97F4A7C15, n=2 ** 63 - 1, count=5)
def test_block_draws_are_the_scalar_draws(seed, n, count):
    # below_many(n, c) is c calls of below(n): same values, same state after
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = block.below_many(n, count)
    assert draws.dtype == np.int64 and draws.shape == (count,)
    assert draws.tolist() == [scalar.below(n) for _ in range(count)]
    assert block.state == scalar.state


def test_block_draws_take_the_bounds_of_below():
    rng = SplitMix64(3)
    for bad in (0, -5):
        with pytest.raises(ValueError):
            rng.below_many(bad, 2)
        with pytest.raises(ValueError):
            rng.below(bad)
    with pytest.raises(AssertionError):  # the draws are cast to int64
        rng.below_many(2 ** 63, 1)
    assert rng.state == 3


@PROPERTY
@given(st.data())
def test_convolve_is_the_double_loop_convolution(data):
    # unreduced and negative coefficients, up to the whole int64 range
    p, n = data.draw(st.sampled_from([(3, 1), (3, 2), (5, 1), (7, 2)]))
    m = p ** n
    coeffs = st.lists(st.one_of(st.integers(-m, 2 * m), st.integers(-2 ** 63, 2 ** 63 - 1)),
                      min_size=m, max_size=m)
    a, b = data.draw(coeffs), data.draw(coeffs)
    expect = [0] * m
    for i in range(m):
        for j in range(m):
            expect[(i + j) % m] += a[i] * b[j]
    out = convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), m)
    assert out.tolist() == [x % m for x in expect]
