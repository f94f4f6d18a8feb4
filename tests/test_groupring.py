"""Group-ring arithmetic, derivative operators, filtration lemmas."""

from __future__ import annotations

import numpy as np
import pytest

from derived_heights import linalg as la
from derived_heights.groupring import (
    RingCtx,
    aug_ideal_power,
    derivative_op,
    graded_scalar,
    graded_scalars,
    regular_rep,
)
from derived_heights.rng import SplitMix64

RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1)]


def rand_elt(ring, rng):
    return ring.elt(np.array([rng.below(ring.m) for _ in range(ring.m)]))


def test_ring_ctx_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RingCtx(2, 2)
    with pytest.raises(ValueError):
        RingCtx(4, 1)
    with pytest.raises(ValueError):
        RingCtx(3, 0)


def test_augmentation_is_multiplicative():
    rng = SplitMix64(41)
    for ring in RINGS:
        for _ in range(50):
            x, y = rand_elt(ring, rng), rand_elt(ring, rng)
            assert (x * y).augmentation() == (x.augmentation() * y.augmentation()) % ring.m


def test_product_by_a_large_or_negative_int_is_exact():
    # the int is reduced mod p^n before the int64 product, so 2^62 and 2^64
    # neither wrap nor overflow, on either side of the product; a numpy
    # integer is taken as an int
    for ring in RINGS + [RingCtx(7, 1)]:
        x = ring.elt(np.arange(ring.m) + ring.m - 1)
        for k in (2 ** 62, 2 ** 64, -5, -(2 ** 64) - 1, np.int64(2 ** 62), np.int64(-3)):
            want = [c * int(k) % ring.m for c in x.coeffs.tolist()]
            assert (x * k).coeffs.tolist() == want
            assert (k * x).coeffs.tolist() == want
    ring = RingCtx(7, 1)
    assert (ring.scalar(6) * 2 ** 62).coeffs[0] == 3
    assert (2 ** 64 * ring.scalar(6)).coeffs[0] == 6 * 2 ** 64 % 7


def test_derivative_op_values_31():
    ring = RingCtx(3, 1)
    assert derivative_op(ring, 0) == ring.norm()  # 1 + g + g^2
    d1 = derivative_op(ring, 1)
    assert list(d1.coeffs) == [2, 1, 0]  # 2 + g
    gm1 = ring.gamma() - ring.one()
    assert gm1 * d1 == ring.norm()


def test_derivative_relation_in_pairing_range():
    for ring in RINGS:
        gm1 = ring.gamma() - ring.one()
        for k in range(1, ring.p):
            assert gm1 * derivative_op(ring, k) == derivative_op(ring, k - 1)


def test_aug_ideal_sizes_31():
    ring = RingCtx(3, 1)
    sizes = [aug_ideal_power(ring, k).size() for k in range(4)]
    assert sizes == [27, 9, 3, 1]  # I^3 = 0 in Z/3[C_3]


def test_aug_ideal_power_exhaustive_31():
    # I^k agrees with brute-force products inside the 27-element ring
    ring = RingCtx(3, 1)
    gm1 = ring.gamma() - ring.one()
    for k in (1, 2):
        gen = gm1 ** k
        brute = set()
        for a0 in range(3):
            for a1 in range(3):
                for a2 in range(3):
                    r = ring.elt(np.array([a0, a1, a2]))
                    brute.add(tuple((gen * r).coeffs))
        span = aug_ideal_power(ring, k)
        assert {tuple(v) for v in la.span_elements(span)} == brute


def test_i_squared_is_norm_line_31():
    ring = RingCtx(3, 1)
    span = aug_ideal_power(ring, 2)
    norm_line = la.Span(ring.norm().coeffs.reshape(1, -1), 3, 1)
    assert span == norm_line


def test_graded_scalar_normalization():
    for ring in RINGS:
        gm1 = ring.gamma() - ring.one()
        for k in range(1, ring.p):
            assert graded_scalar(ring, k, gm1 ** k) == 1
            assert graded_scalar(ring, k, ring.zero()) == 0


def test_graded_scalar_worked_value_31():
    ring = RingCtx(3, 1)
    x = ring.scalar(2) * ring.norm()  # 2 * (1+g+g^2) = 2 * (g-1)^2 mod 3
    assert graded_scalar(ring, 2, x) == 2


def test_graded_scalar_rejections():
    ring = RingCtx(3, 1)
    with pytest.raises(ValueError):
        graded_scalar(ring, 3, ring.zero())  # k >= p
    with pytest.raises(ValueError):
        graded_scalar(ring, 2, ring.one())  # 1 not in I^2


def test_graded_scalars_of_a_batch():
    # c (gamma-1)^k plus anything in I^(k+1) has the scalar c, row by row
    rng = SplitMix64(89)
    for ring in RINGS:
        gm1 = ring.gamma() - ring.one()
        for k in range(1, ring.p):
            cs = [rng.below(ring.m) for _ in range(6)]
            rows = np.array([(ring.scalar(c) * gm1 ** k + gm1 ** (k + 1) * ring.elt(
                np.array([rng.below(ring.m) for _ in range(ring.m)]))).coeffs for c in cs])
            assert graded_scalars(ring, k, rows).tolist() == cs
            assert graded_scalars(ring, k, rows[:0]).shape == (0,)
            with pytest.raises(ValueError):  # one row outside I^k
                graded_scalars(ring, k, np.vstack([rows, ring.one().coeffs]))


def test_graded_scalar_is_bijection_on_classes():
    # |Q^k| = p^n and the scalar map hits every residue (Lemma on Q^k)
    for ring in RINGS:
        for k in range(1, ring.p):
            ik = aug_ideal_power(ring, k)
            ik1 = aug_ideal_power(ring, k + 1)
            assert ik.size() == ring.m * ik1.size()
            gm1k = (ring.gamma() - ring.one()) ** k
            values = {graded_scalar(ring, k, ring.scalar(c) * gm1k) for c in range(ring.m)}
            assert values == set(range(ring.m))


def test_regular_rep_basics():
    ring = RingCtx(3, 1)
    assert (regular_rep(ring.one()) == np.eye(3, dtype=np.int64)).all()
    g = regular_rep(ring.gamma())
    expect = np.zeros((3, 3), dtype=np.int64)
    for i in range(3):
        expect[i, (i + 1) % 3] = 1
    assert (g == expect).all()
    assert (regular_rep(ring.norm()) == np.ones((3, 3), dtype=np.int64)).all()


def test_regular_rep_multiplicative_and_injective():
    rng = SplitMix64(43)
    for ring in RINGS:
        seen = set()
        for _ in range(200):
            x, y = rand_elt(ring, rng), rand_elt(ring, rng)
            lhs = (regular_rep(x) @ regular_rep(y)) % ring.m
            assert (lhs == regular_rep(x * y)).all()
            seen.add(tuple(regular_rep(x)[0]))
        # injectivity: row 0 of the rep is the coefficient vector itself
        for _ in range(50):
            x = rand_elt(ring, rng)
            assert (regular_rep(x)[0] == x.coeffs).all()


def test_derivative_kernel_identities_on_free_modules():
    # D(k-1) M = ker((g-1)^k) and I^k M = ker(D(k-1)) for free M
    for ring in RINGS:
        p, n, m = ring.p, ring.n, ring.m
        gm1 = regular_rep(ring.gamma() - ring.one())
        for k in range(1, ring.p):
            dk1 = regular_rep(derivative_op(ring, k - 1))
            lhs = la.image_span(la.Span.whole(m, p, n), dk1)
            pw = np.linalg.matrix_power(gm1, k) % ring.m
            rhs = la.kernel(pw, p, n)
            assert lhs == rhs
            lhs2 = aug_ideal_power(ring, k)
            rhs2 = la.kernel(dk1, p, n)
            assert lhs2 == rhs2


def test_derivative_kernel_identities_exhaustive_free_rank_two():
    # |R^2| = 729 <= 10^4 at (3,1): enumerate the free rank-two module
    ring = RingCtx(3, 1)
    from itertools import product as iproduct

    import derived_heights.modules as md

    free = md.free_module(ring, 2)
    for k in (1, 2):
        dmat = free.scale_matrix(derivative_op(ring, k - 1))
        gmat = np.linalg.matrix_power(
            (free.gamma - np.eye(free.dim, dtype=np.int64)) % 3, k
        ) % 3
        image = set()
        ker_pow = set()
        ker_d = set()
        for vec in iproduct(range(3), repeat=free.dim):
            v = np.array(vec, dtype=np.int64)
            image.add(tuple((v @ dmat) % 3))
            if not ((v @ gmat) % 3).any():
                ker_pow.add(tuple(v))
            if not ((v @ dmat) % 3).any():
                ker_d.add(tuple(v))
        assert image == ker_pow
        ik_span = la.image_span(
            la.Span.whole(free.dim, 3, 1),
            np.linalg.matrix_power((free.gamma - np.eye(free.dim, dtype=np.int64)) % 3, k) % 3,
        )
        assert {tuple(v) for v in la.span_elements(ik_span)} == ker_d


def test_derivative_kernel_identities_exhaustive_31():
    # the 27-element ring permits a full enumeration of both sides
    ring = RingCtx(3, 1)
    gm1 = ring.gamma() - ring.one()
    for k in (1, 2):
        dk1 = derivative_op(ring, k - 1)
        image = set()
        ker_gm1 = set()
        ker_d = set()
        for a0 in range(3):
            for a1 in range(3):
                for a2 in range(3):
                    x = ring.elt(np.array([a0, a1, a2]))
                    image.add(tuple((dk1 * x).coeffs))
                    if ((gm1 ** k) * x).is_zero():
                        ker_gm1.add(tuple(x.coeffs))
                    if (dk1 * x).is_zero():
                        ker_d.add(tuple(x.coeffs))
        assert image == ker_gm1
        ik = aug_ideal_power(ring, k)
        assert {tuple(v) for v in la.span_elements(ik)} == ker_d
