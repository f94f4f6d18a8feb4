"""The batched unit pivots and the free-module block forms, differentially.

``CosetReducer`` and ``Solver`` take every unit pivot of a Howell form
in one product and walk only the others; ``pivot_oracle`` walks every
pivot one at a time, as the library did before.  Both must agree bit for
bit, for reduction, solving and random solutions, on all six rings.
Free modules build ``scale_matrix`` and ``ideal_multiple_span`` from
their block structure; both must equal the generic route through the
dense gamma powers and a Howell form.  The free flag comes from
``free_module`` alone, and ``span_intersect`` skips its Howell form only
when one argument is the whole ambient.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pivot_oracle
from derived_heights import linalg as la
from derived_heights.groupring import RingCtx
from derived_heights.modules import FpModule, free_module
from derived_heights.rng import SplitMix64

RINGS = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)]

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def scaled_matrix(rng, rows, cols, p, n):
    """Random rows, each scaled by p^v for v in 0..n, so non-unit pivots are common."""
    m = p ** n
    a = rng.below_many(m, rows * cols).reshape(rows, cols)
    return a * p ** rng.below_many(n + 1, rows)[:, None] % m


def assert_same(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None and got.shape == want.shape and (got == want).all()


def check_against_oracle(p, n, a, vs, targets, seed):
    reducer = la.Span(a, p, n).reducer
    for v in (vs, *vs):  # the batch, then each row as a 1-D vector
        assert_same(reducer.reduce(v), pivot_oracle.reduce(reducer.h, p, n, v))
    solver = la.Solver(a, p, n)
    for b in (targets, *targets):
        assert_same(solver.solve(b), pivot_oracle.solve(a, p, n, b))
        assert_same(solver.random_solution(b, SplitMix64(seed)),
                    pivot_oracle.random_solution(a, p, n, b, SplitMix64(seed)))


@pytest.mark.parametrize("p,n", RINGS)
def test_reduce_and_solve_match_the_sequential_walk(p, n):
    m = p ** n
    rng = SplitMix64(1000 * p + n)
    non_unit = 0
    for trial in range(40):
        rows, cols = int(rng.below(7)), 1 + int(rng.below(8))
        a = scaled_matrix(rng, rows, cols, p, n)
        vs = rng.below_many(m, 5 * cols).reshape(5, cols)
        # targets in the row span, and arbitrary ones that are often outside it
        inside = rng.below_many(m, 3 * rows).reshape(3, rows) @ a % m
        targets = inside if trial % 2 else np.vstack([inside, vs[:2]])
        check_against_oracle(p, n, a, vs, targets, trial)
        reducer = la.Span(a, p, n).reducer
        non_unit += len(reducer.pivots)
        if n == 1:
            assert reducer.pivots == [] and la.Solver(a, p, n).pivots == []
    # the walk over the non-unit pivots is exercised wherever there are any
    assert non_unit > 0 if n > 1 else non_unit == 0


@PROPERTY
@given(st.data())
def test_reduce_and_solve_match_the_sequential_walk_on_drawn_matrices(data):
    p, n = data.draw(st.sampled_from(RINGS))
    m = p ** n
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))

    def matrix(r, c):
        entries = data.draw(st.lists(st.integers(0, m - 1), min_size=r * c, max_size=r * c))
        return np.array(entries, dtype=np.int64).reshape(r, c)

    scale = data.draw(st.lists(st.integers(0, n), min_size=rows, max_size=rows))
    a = matrix(rows, cols) * p ** np.array(scale, dtype=np.int64).reshape(rows, 1) % m
    vs = matrix(data.draw(st.integers(1, 3)), cols)
    targets = np.vstack([matrix(2, rows) @ a % m, vs[:data.draw(st.integers(0, 1))]])
    check_against_oracle(p, n, a, vs, targets, data.draw(st.integers(0, 2 ** 32)))


def test_unit_pivots_leave_the_walk_and_the_bound_counts_all():
    # over Z/9 the Howell form of these rows has pivots 1, 3 and 1
    h = la.howell_form(np.array([[1, 4, 2, 5], [0, 3, 6, 1], [0, 0, 0, 1]]), 3, 2)
    reducer = la.CosetReducer(h, 3, 2)
    assert [pv for _, _, pv in reducer.pivots] == [3]
    assert reducer.unit_cols.tolist() == [0, 3] and reducer.unit_rows.shape == (2, 4)
    # the accumulation bound still counts every pivot, units too: at
    # m = 2^31 + 1 one product (m - 1)^2 = 2^62 fits int64 and two do not
    big = 2 ** 31 + 1
    la.CosetReducer(np.eye(1, dtype=np.int64), big, 1)
    with pytest.raises(AssertionError, match="overflow"):
        la.CosetReducer(np.eye(2, dtype=np.int64), big, 1)


# -- free modules by their block structure -----------------------------------------


def generic(mod: FpModule) -> FpModule:
    """The same module, built without the free flag."""
    return FpModule(mod.ring, mod.tag, mod.dim, mod.gamma, mod.num, mod.den, check=False)


@pytest.mark.parametrize("p,n", RINGS)
def test_free_block_forms_match_the_generic_route(p, n):
    ring = RingCtx(p, n)
    m = ring.m
    rng = SplitMix64(7 * p + n)
    for rank in (1, 2, 3):
        free = free_module(ring, rank)
        assert free.free_rank == rank and generic(free).free_rank is None
        for _ in range(4):
            x = ring.elt(rng.below_many(m, m))
            assert (free.scale_matrix(x) == generic(free).scale_matrix(x)).all()
        gm1 = (free.gamma - np.eye(free.dim, dtype=np.int64)) % m
        for k in (0, 1, 2, p - 1, p, m, m * n, m * n + 3):
            block = free.ideal_multiple_span(k)
            assert block == generic(free).ideal_multiple_span(k)
            if k:
                assert block == la.Span(la.mat_pow_mod(gm1, k, m), p, n)
                assert (block.h == la.howell_form(block.h, p, n)).all()


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_free_flag_is_not_read_off_gamma(p, n):
    # a submodule and a quotient of R share the gamma of a free module but
    # are not free: I^k (I R) is I^(k+1), and I^k (R / I) is zero
    ring = RingCtx(p, n)
    free = free_module(ring, 1)
    aug = free.ideal_multiple_span(1)
    for mod in (free.submodule(aug), free.quotient(aug),
                FpModule(ring, "R", free.dim, free.gamma, aug, free.den)):
        assert mod.free_rank is None
        assert mod.ideal_multiple_span(2) == generic(mod).ideal_multiple_span(2)
    assert free.submodule(aug).ideal_multiple_span(2) == free.ideal_multiple_span(3)
    assert free.quotient(aug).ideal_multiple_span(2) == aug


@pytest.mark.parametrize("p,n", RINGS)
def test_intersection_with_the_whole_ambient_is_the_other_span(p, n):
    rng = SplitMix64(31 * p + n)
    whole = la.Span.whole(4, p, n)
    scaled = la.Span(p * np.eye(4, dtype=np.int64), p, n)  # square, not whole
    for _ in range(5):
        b = la.Span(scaled_matrix(rng, 3, 4, p, n), p, n)
        assert la.span_intersect(whole, b) is b and la.span_intersect(b, whole) is b
        assert la.span_intersect(b, la.Span(np.eye(4, dtype=np.int64), p, n)) is b
        zass = la._zassenhaus(scaled.h, scaled.h, b)
        assert la.span_intersect(scaled, b) == zass == la.span_intersect(b, scaled)
    assert la.span_intersect(scaled, whole) == scaled == la.span_intersect(whole, scaled)
