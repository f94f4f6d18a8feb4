"""Module layer: duals, fixed points, filtration, Fitting, biduals."""

from __future__ import annotations

import numpy as np
import pytest

from derived_heights import linalg as la
from derived_heights import modules as md
from derived_heights.groupring import RingCtx, aug_ideal_power, regular_rep
from derived_heights.rng import SplitMix64

R31 = RingCtx(3, 1)
RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1)]


def aug_quotient(ring):
    """R/I presented by the single relation (gamma - 1)."""
    rel = (ring.gamma() - ring.one()).coeffs.reshape(1, -1)
    return md.from_presentation(ring, "R", 1, rel)


def ideal_submodule(ring, k):
    """I^k as a submodule of the free rank-one module."""
    free = md.free_module(ring, 1)
    return free.submodule(aug_ideal_power(ring, k))


def test_free_module_order():
    for ring in RINGS:
        assert md.free_module(ring, 2).order() == ring.m ** (2 * ring.m)


def test_dual_of_free_is_free():
    for ring in RINGS:
        free = md.free_module(ring, 1)
        d = md.dual(free)
        assert d.order() == free.order()
        # evaluation against 1 recovers the R-coordinate: dual elements of
        # R are multiplications, and eval at gamma^0-basis is the value
        one = np.zeros(free.dim, dtype=np.int64)
        one[0] = 1
        for row in d.generators():
            val = md.eval_r(free, row, one)
            # phi(x) = eval; multiplicativity: eval at gamma shifts
            g = np.zeros(free.dim, dtype=np.int64)
            g[1 % free.dim] = 1
            assert md.eval_r(free, row, g) == val * ring.gamma()


def test_dual_of_r_mod_i_is_norm_line():
    # Hom(R/I, R) has order p^n: the annihilator of I
    for ring in RINGS:
        mod = aug_quotient(ring)
        d = md.dual(mod)
        assert d.order() == ring.m


def test_dual_enumeration_oracle_31():
    # enumerate Hom(R/I, R) inside the 27-element ring: maps 1 -> r with
    # (gamma-1) r = 0, i.e. r in N*R: exactly 3 of them
    mod = aug_quotient(R31)
    d = md.dual(mod)
    gm1 = R31.gamma() - R31.one()
    count = 0
    for a0 in range(3):
        for a1 in range(3):
            for a2 in range(3):
                r = R31.elt(np.array([a0, a1, a2]))
                if (gm1 * r).is_zero():
                    count += 1
    assert d.order() == count == 3


def test_double_dual_is_identity_subquotient():
    rng = SplitMix64(53)
    for ring in RINGS[:2]:
        free = md.free_module(ring, 2)
        for _ in range(10):
            span = np.array(
                [[rng.below(ring.m) for _ in range(free.dim)] for _ in range(2)]
            )
            span = np.vstack([(span @ free.gamma_power(i)) % ring.m
                              for i in range(ring.m)])
            mod = free.quotient(span)
            dd = md.dual(md.dual(mod))
            assert dd.order() == mod.order()
            assert la.spans_equal(dd.num, mod.num, ring.p, ring.n)
            assert la.spans_equal(dd.den, mod.den, ring.p, ring.n)


def test_dual_preserves_cardinality_on_random_modules():
    rng = SplitMix64(59)
    for ring in RINGS:
        free = md.free_module(ring, 2)
        for _ in range(8):
            span = np.array(
                [[rng.below(ring.m) for _ in range(free.dim)] for _ in range(2)]
            )
            span = np.vstack([(span @ free.gamma_power(i)) % ring.m
                              for i in range(ring.m)])
            mod = free.quotient(span)
            if mod.order() > 10 ** 4:
                continue
            assert md.dual(mod).order() == mod.order()


def test_fixed_points_of_free_rank_one():
    # R^G = N*R of order p^n
    for ring in RINGS:
        free = md.free_module(ring, 1)
        fixed = free.fixed_points()
        assert fixed.order() == ring.m
        norm_line = la.howell_form(
            np.vstack([(ring.gamma(i) * ring.norm()).coeffs for i in range(ring.m)]),
            ring.p, ring.n,
        )
        assert la.spans_equal(fixed.num, norm_line, ring.p, ring.n)


def test_fixed_points_trivial_action():
    ring = R31
    mod = md.free_r0_module(ring, 3)
    assert mod.fixed_points().order() == mod.order()


def test_fixed_points_of_aug_ideal_exhaustive_31():
    # M = I in R at (3,1): M^G = N*R, checked inside the 9-element span
    mod = ideal_submodule(R31, 1)
    fixed = mod.fixed_points()
    gm1 = regular_rep(R31.gamma() - R31.one())
    brute = {
        tuple(v)
        for v in la.span_elements(aug_ideal_power(R31, 1), 3, 1)
        if not ((v @ gm1) % 3).any()
    }
    listed = {tuple(v) for v in la.span_elements(fixed.num, 3, 1)}
    assert listed == brute
    assert fixed.order() == 3


def test_filtration_piece_cases_31():
    free = md.free_module(R31, 1)
    norm_mod = free.submodule(
        la.howell_form(R31.norm().coeffs.reshape(1, -1), 3, 1)
    )
    # k = 1 is the fixed points themselves
    assert norm_mod.filtration_piece(1).order() == norm_mod.fixed_points().order()
    # I * (N R) = 0 so the second piece collapses
    assert norm_mod.filtration_piece(2).order() == 1
    # M = I: M_0^(2) = N R since I^2 = N R
    imod = ideal_submodule(R31, 1)
    piece = imod.filtration_piece(2)
    assert piece.order() == 3
    assert la.spans_equal(piece.num, norm_mod.num, 3, 1)


def test_filtration_pieces_decrease():
    rng = SplitMix64(61)
    for ring in RINGS:
        free = md.free_module(ring, 2)
        for _ in range(5):
            span = np.array(
                [[rng.below(ring.m) for _ in range(free.dim)] for _ in range(2)]
            )
            span = np.vstack([(span @ free.gamma_power(i)) % ring.m
                              for i in range(ring.m)])
            mod = free.submodule(la.howell_form(span, ring.p, ring.n))
            orders = [mod.filtration_piece(k).order() for k in range(1, ring.p)]
            assert all(a >= b for a, b in zip(orders, orders[1:]))


def test_filtration_piece_range_check():
    with pytest.raises(ValueError):
        md.free_module(R31, 1).filtration_piece(3)


def test_fitting_ideal_principal_presentation():
    # M = R/I: Fitt^0 = I, Fitt^1 = R
    for ring in RINGS:
        mod = aug_quotient(ring)
        f0 = md.fitting_ideal(mod, 0)
        want = md.Ideal(ring, "R", aug_ideal_power(ring, 1))
        assert f0 == want
        assert md.fitting_ideal(mod, 1).is_whole_ring()


def test_fitting_ideal_r0_diag_example():
    # Z/p + Z/p^2 over R0 = Z/p^2, presented by diag(p, p^2): the second
    # relation is the zero row mod p^2, so Fitt = (0), (p), (1)
    ring = RingCtx(3, 2)
    mod = md.from_presentation(ring, "R0", 2, np.array([[3, 0], [0, 0]]))
    assert md.fitting_ideal(mod, 0) == md.Ideal.zero(ring, "R0")
    f1 = md.fitting_ideal(mod, 1)
    assert f1 == md.Ideal.from_elements(ring, "R0", [ring.scalar(3)])
    assert md.fitting_ideal(mod, 2).is_whole_ring()


def test_fitting_invariance_under_presentation_changes():
    # 300 trials: stabilization by an identity block must not move any
    # Fitting ideal (row/column operations are exercised implicitly by
    # the greedy re-presentation inside fitting_ideal)
    rng = SplitMix64(67)
    ring = R31
    for _ in range(300):
        rel = np.array(
            [[rng.below(ring.m) for _ in range(2 * ring.m)] for _ in range(2)]
        )
        mod = md.from_presentation(ring, "R", 2, rel)
        base = [md.fitting_ideal(mod, i) for i in range(3)]
        # stabilized presentation: extra generator with identity relation
        rel3 = np.zeros((rel.shape[0] + 1, 3 * ring.m), dtype=np.int64)
        rel3[:-1, : 2 * ring.m] = rel
        rel3[-1, 2 * ring.m] = 1
        mod3 = md.from_presentation(ring, "R", 3, rel3)
        stab = [md.fitting_ideal(mod3, i) for i in range(3)]
        assert base == stab
        assert mod.order() == mod3.order()


def test_fitting_zero_annihilates():
    rng = SplitMix64(71)
    for ring in RINGS[:2]:
        for _ in range(10):
            rel = np.array(
                [[rng.below(ring.m) for _ in range(2 * ring.m)] for _ in range(2)]
            )
            mod = md.from_presentation(ring, "R", 2, rel)
            assert md.fitting_ideal(mod, 0).annihilates(mod)


def test_exterior_bidual_free_ranks():
    ring = R31
    for d in (1, 2, 3):
        free = md.free_module(ring, d)
        for r in range(d + 1):
            bidual, _ = md.exterior_bidual(free, r)
            from math import comb

            assert bidual.order() == ring.m ** (comb(d, r) * ring.m)


def test_exterior_bidual_degree_zero_is_ring():
    bidual, _ = md.exterior_bidual(md.free_module(R31, 2), 0)
    assert bidual.order() == R31.m ** R31.m


def test_exterior_bidual_rank_one_matches_module():
    # M = R + R/I at (3,1): bidual identity in degree one, orders match
    ring = R31
    free = md.free_module(ring, 2)
    rel = np.zeros((1, free.dim), dtype=np.int64)
    rel[0, ring.m:] = (ring.gamma() - ring.one()).coeffs
    mod = md.from_presentation(ring, "R", 2, rel)
    bidual, _ = md.exterior_bidual(mod, 1)
    assert bidual.order() == mod.order()


def test_transition_determinant_normalization():
    # X = 0, Y = Z = R^s, identity: top functional maps to 1
    ring = R31
    for s in (1, 2):
        ident = [[ring.one() if i == j else ring.zero() for j in range(s)]
                 for i in range(s)]
        tr = md.Transition(ring, s, ident)
        top = tr.alg.module(s)
        # canonical basis functional on e_{0..s-1}
        eps = md.functional_from_rcoords(
            ring, [ring.one() if i == 0 else ring.zero() for i in range(len(tr.alg.subsets(s)))]
        )
        out = tr.apply(0, eps)
        val = md.eval_r(tr.alg.module(0), out, tr.alg.basis_vector(0, ()))
        assert val == ring.one()


def test_transition_basis_change_cancels_det():
    # contracting with V-transformed coordinates scales by det(V)
    ring = R31
    rng = SplitMix64(73)
    y_rank, s = 2, 2
    zmat = [[ring.elt(np.array([rng.below(3) for _ in range(3)])) for _ in range(s)]
            for _ in range(y_rank)]
    tr = md.Transition(ring, y_rank, zmat)
    # unimodular V over R with a non-trivial unit determinant
    v11, v12 = ring.gamma(), ring.zero()
    v21, v22 = ring.one(), ring.one()
    detv = v11 * v22 - v12 * v21
    assert detv.is_unit() and detv != ring.one()
    new_zmat = [
        [row[0] * v11 + row[1] * v21, row[0] * v12 + row[1] * v22]
        for row in zmat
    ]
    # columns of new_zmat are g_i = sum_j V[j][i] f_j
    tr2 = md.Transition(ring, y_rank, new_zmat)
    top = tr.alg.module(s)
    for sub in tr.alg.subsets(s):
        eps = np.zeros(top.dim, dtype=np.int64)
        eps[tr.alg.subsets(s).index(sub) * ring.m] = 1
        out1 = tr.apply(0, eps)
        out2 = tr2.apply(0, eps)
        v1 = md.eval_r(tr.alg.module(0), out1, tr.alg.basis_vector(0, ()))
        v2 = md.eval_r(tr2.alg.module(0), out2, tr.alg.basis_vector(0, ()))
        assert v2 == detv * v1


def test_transition_projection_matches_dual_basis_contraction():
    # Y = R^2, Z = R via projection onto the first coordinate, X = ker,
    # r = 1: the transition map must agree with the hand computation
    # Psi -> Psi(phi_0 wedge .) on every generator of the top bidual
    ring = R31
    zmat = [[ring.one()], [ring.zero()]]
    tr = md.Transition(ring, 2, zmat)
    top = tr.alg.module(2)
    e0 = tr.alg.basis_vector(1, (0,))
    e1 = tr.alg.basis_vector(1, (1,))
    for c in (ring.one(), ring.gamma(), ring.gamma() - ring.one()):
        psi = md.functional_from_rcoords(ring, [c])  # c * dual of e_{(0,1)}
        out = tr.apply(1, psi)
        # phi_0 ^ e_(0,) = 0 and phi_0 ^ e_(1,) = e_(0,1)
        assert md.eval_r(tr.alg.module(1), out, e0) == ring.zero()
        assert md.eval_r(tr.alg.module(1), out, e1) == c


def test_transition_rejects_wrong_kernel():
    ring = R31
    zmat = [[ring.norm()]]
    wrong = la.empty_span(ring.m)
    with pytest.raises(ValueError):
        md.Transition(ring, 1, zmat, x_span=wrong)


def test_transition_kills_kernel_wedge():
    # contraction output kills ker(Y* -> X*) wedge forms: exercised at r=1
    ring = R31
    rng = SplitMix64(79)
    zmat = [[ring.norm()], [ring.zero()]]
    tr = md.Transition(ring, 2, zmat)
    top = tr.alg.module(2)
    for _ in range(5):
        eps = np.array([rng.below(3) for _ in range(top.dim)], dtype=np.int64)
        out = tr.apply(1, eps)
        killer = tr.kernel_wedge_span(1)
        for row in killer:
            assert md.eval_scalar(out, row, ring.m) == 0


def test_gamma_order_check_is_exact_over_z49():
    # 8 = 1 + 7 has order 7 in (Z/49)^*, which divides 49; 8^49 overflows
    # int64, so an unreduced matrix power wrongly rejected this action
    ring = RingCtx(7, 2)
    one = np.eye(1, dtype=np.int64)
    mod = md.FpModule(ring, "R0", 1, np.array([[8]]), one, np.zeros((0, 1), dtype=np.int64))
    # (gamma - 1)^k = 7^k: I M = 7 Z/49 and I^2 M = 0
    assert (mod.ideal_multiple_span(1) == np.array([[7]])).all()
    assert mod.ideal_multiple_span(2).shape == (0, 1)
    # 5 has order 42, so 5^49 = 19 != 1 and the action is rejected
    with pytest.raises(ValueError, match="order dividing"):
        md.FpModule(ring, "R0", 1, np.array([[5]]), one, np.zeros((0, 1), dtype=np.int64))
