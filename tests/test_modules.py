"""Module layer: duals, fixed points, filtration, Fitting, biduals."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

from derived_heights import linalg as la
from derived_heights import modules as md
from derived_heights.complexes import TwoTermComplex
from derived_heights.groupring import RingCtx, aug_ideal_power, regular_rep
from derived_heights.heights import random_ell_matrix
from derived_heights.modules import r_matrix_expand
from derived_heights.rng import SplitMix64
from derived_heights.stark import StarkInstance, StarkSystem
from fitting_oracle import annihilates, dual, fitting_ideal, presentation
from wedge_oracle import wedge_matrix, wedge_module

R31 = RingCtx(3, 1)
RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1)]


def aug_quotient(ring):
    """R/I presented by the single relation (gamma - 1)."""
    rel = (ring.gamma() - ring.one()).coeffs.reshape(1, -1)
    return md.from_presentation(ring, 1, rel)


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
        d = dual(free)
        assert d.order() == free.order()
        # dual elements of R are multiplications: each is the functional of
        # its R-coordinate, and precomposing with gamma multiplies it by gamma
        for row in d.num.h:
            (val,) = md.rcoords_from_functional(ring, row)
            assert val.coeffs.tolist() == [row[(ring.m - i) % ring.m] for i in range(ring.m)]
            assert (md.functional_from_rcoords(ring, [val]) == row).all()
            shifted = la.mul_mod(free.gamma, row, ring.m)
            assert md.rcoords_from_functional(ring, shifted) == [val * ring.gamma()]


def test_dual_of_r_mod_i_is_norm_line():
    # Hom(R/I, R) has order p^n: the annihilator of I
    for ring in RINGS:
        mod = aug_quotient(ring)
        d = dual(mod)
        assert d.order() == ring.m


def test_dual_enumeration_oracle_31():
    # enumerate Hom(R/I, R) inside the 27-element ring: maps 1 -> r with
    # (gamma-1) r = 0, i.e. r in N*R: exactly 3 of them
    mod = aug_quotient(R31)
    d = dual(mod)
    gm1 = R31.gamma() - R31.one()
    count = 0
    for a0 in range(3):
        for a1 in range(3):
            for a2 in range(3):
                r = R31.elt(np.array([a0, a1, a2]))
                if (gm1 * r).is_zero():
                    count += 1
    assert d.order() == count == 3


def _random_span(ring, rng):
    """The R-span of two random rows in R^2."""
    free = md.free_module(ring, 2)
    span = np.array([[rng.below(ring.m) for _ in range(free.dim)] for _ in range(2)])
    span = np.vstack([la.mul_mod(span, la.mat_pow_mod(free.gamma, i, ring.m), ring.m)
                      for i in range(ring.m)])
    return la.Span(span, ring.p, ring.n)


def test_double_dual_is_identity_subquotient():
    rng = SplitMix64(53)
    for ring in RINGS[:2]:
        for _ in range(10):
            mod = md.free_module(ring, 2).quotient(_random_span(ring, rng))
            dd = dual(dual(mod))
            assert dd.order() == mod.order()
            assert dd.num == mod.num
            assert dd.den == mod.den


def test_dual_preserves_cardinality_on_random_modules():
    rng = SplitMix64(59)
    for ring in RINGS:
        for _ in range(8):
            mod = md.free_module(ring, 2).quotient(_random_span(ring, rng))
            if mod.order() > 10 ** 4:
                continue
            assert dual(mod).order() == mod.order()


def test_fixed_points_of_free_rank_one():
    # R^G = N*R of order p^n
    for ring in RINGS:
        free = md.free_module(ring, 1)
        fixed = free.submodule(free.fixed_point_span())
        assert fixed.order() == ring.m
        norm_line = la.Span(
            np.vstack([(ring.gamma(i) * ring.norm()).coeffs for i in range(ring.m)]),
            ring.p, ring.n,
        )
        assert fixed.num == norm_line


def trivial_module(ring, dim):
    """(Z/p^n)^dim with gamma acting as the identity: x acts as its augmentation."""
    return md.FpModule(ring, dim, np.eye(dim, dtype=np.int64),
                       la.Span.whole(dim, ring.p, ring.n), la.Span.zero(dim, ring.p, ring.n))


def test_fixed_points_trivial_action():
    ring = R31
    mod = trivial_module(ring, 3)
    assert mod.submodule(mod.fixed_point_span()).order() == mod.order()


def test_fixed_points_of_aug_ideal_exhaustive_31():
    # M = I in R at (3,1): M^G = N*R, checked inside the 9-element span
    mod = ideal_submodule(R31, 1)
    fixed = mod.submodule(mod.fixed_point_span())
    gm1 = regular_rep(R31.gamma() - R31.one())
    brute = {
        tuple(v)
        for v in la.span_elements(aug_ideal_power(R31, 1))
        if not ((v @ gm1) % 3).any()
    }
    listed = {tuple(v) for v in la.span_elements(fixed.num)}
    assert listed == brute
    assert fixed.order() == 3



def test_shared_free_module_is_read_only():
    free = md.free_module(R31, 2)
    assert md.free_module(R31, 2) is free
    with pytest.raises(ValueError):
        free.gamma[0, 0] = 1
    with pytest.raises(ValueError):  # the span it keeps is shared too
        free.fixed_point_span().h[0, 0] = 1


def test_submodule_fixed_points_are_the_parents_met_with_its_numerator():
    # a submodule keeps its parent and reads its fixed points off the
    # parent's; they must be the ones computed afresh from its own num/den,
    # for submodules of free modules and of a quotient with a denominator
    rng = SplitMix64(163)
    for ring in RINGS:
        free = md.free_module(ring, 2)
        quot = free.quotient(la.image_span(free.num, free.scale_matrix(ring.norm())))
        for parent in (free, quot):
            for _ in range(3):
                sub = parent.submodule(_random_span(ring, rng))
                assert sub.parent is parent
                gm1 = (sub.gamma - np.eye(sub.dim, dtype=np.int64)) % ring.m
                fresh = la.span_intersect(la.preimage(gm1, sub.den), sub.num)
                assert sub.fixed_point_span() == fresh


def test_kept_fixed_point_span_is_a_fresh_computation():
    # M = R^2 / I R^2: gamma acts trivially, so M^G is all of M, while
    # ker(gamma - 1) on the ambient alone is only N R^2
    for ring in RINGS:
        free = md.free_module(ring, 2)
        mod = free.quotient(la.image_span(free.num, free.scale_matrix(ring.gamma() - ring.one())))
        assert mod.den.h.shape[0]
        gm1 = (mod.gamma - np.eye(mod.dim, dtype=np.int64)) % ring.m
        fresh = la.span_intersect(la.preimage(gm1, mod.den), mod.num)
        assert mod.fixed_point_span() == fresh == mod.num
        assert mod.fixed_point_span() is mod.fixed_point_span()
        assert free.fixed_point_span().size() == ring.m ** 2


def test_identity_image_is_the_target_only_on_equal_numerators():
    # the identity on representatives is onto when the numerators agree, and
    # from a proper submodule its image is that submodule
    for ring in RINGS:
        free = md.free_module(ring, 1)
        sub = ideal_submodule(ring, 1)
        inclusion = md.ModuleHom(sub, free, None)
        assert inclusion.image().num == sub.num and not inclusion.is_surjective()
        onto = md.ModuleHom(free, free.quotient(aug_ideal_power(ring, 1)), None)
        assert onto.image().num == free.num and onto.is_surjective()


def test_kept_image_is_a_fresh_image():
    for ring in RINGS:
        free = md.free_module(ring, 2)
        mat = free.scale_matrix(ring.gamma() - ring.one())
        hom = md.ModuleHom(free, free, mat)
        kept = hom.image()
        fresh = md.ModuleHom(free, free, mat).image()
        assert (kept.num, kept.den) == (fresh.num, fresh.den)
        assert kept.order() == ring.m ** (2 * (ring.m - 1))  # I R^2, |R/I| = p^n


def test_filtration_piece_cases_31():
    free = md.free_module(R31, 1)
    norm_mod = free.submodule(
        la.Span(R31.norm().coeffs.reshape(1, -1), 3, 1)
    )
    # k = 1 is the fixed points themselves
    assert norm_mod.filtration_piece(1).order() == norm_mod.submodule(
        norm_mod.fixed_point_span()).order()
    # I * (N R) = 0 so the second piece collapses
    assert norm_mod.filtration_piece(2).order() == 1
    # M = I: M_0^(2) = N R since I^2 = N R
    imod = ideal_submodule(R31, 1)
    piece = imod.filtration_piece(2)
    assert piece.order() == 3
    assert piece.num == norm_mod.num


def test_filtration_pieces_decrease():
    rng = SplitMix64(61)
    for ring in RINGS:
        for _ in range(5):
            mod = md.free_module(ring, 2).submodule(_random_span(ring, rng))
            orders = [mod.filtration_piece(k).order() for k in range(1, ring.p)]
            assert all(a >= b for a, b in zip(orders, orders[1:]))


def _direct_ideal_multiple(mod, k):
    """I^k M + den from the definition: num times one dense power (gamma - 1)^k, plus den."""
    gm1 = (mod.gamma - np.eye(mod.dim, dtype=np.int64)) % mod.m
    return la.image_span(mod.num, la.mat_pow_mod(gm1, k, mod.m), mod.den)


def _chain_test_modules(ring, rng):
    """Free-module submodules (a kernel among them), quotients of a presentation
    with den != 0, a submodule of one, and the H^2 of a free complex; of rank 1
    over (7,2), where a rank-2 ambient has 98 columns."""
    rank = 1 if ring.m > 25 else 2
    free = md.free_module(ring, rank)
    gm1 = ring.gamma() - ring.one()

    def span(x):  # the R-span of two random rows, times x
        rows = free.gamma_orbit(rng.below_many(ring.m, 2 * free.dim).reshape(2, -1))
        return la.Span(la.mul_mod(rows, free.scale_matrix(x), ring.m), ring.p, ring.n)

    ell = [random_ell_matrix(ring, rank, rank, rng) for _ in range(2)]
    out = [free.submodule(span(gm1 ** j)) for j in (0, 1)]
    out.append(free.submodule(la.kernel(r_matrix_expand(ring, ell[0]), ring.p, ring.n)))
    for x in (gm1 ** 2, ring.norm()):
        quot = md.from_presentation(ring, rank, span(x).h[:1])
        assert quot.den.h.shape[0] and quot.den != quot.num
        out += [quot, quot.submodule(span(ring.one()))]
    out.append(TwoTermComplex.free(ring, rank, rank, r_matrix_expand(ring, ell[1])).h2())
    return out


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_chained_pieces_match_the_direct_definitions(p, n):
    # I^k M is chained as (I^(k-1) M + den)(gamma - 1) + den, and M_0^(k) as
    # M_0^(k-1) met with I^(k-1) M; both must be the spans of the definitions,
    # M_0^(k) = M^G meet (num (gamma - 1)^(k-1) + den), plus den.  Once two
    # steps of the chain are equal, every later one is that span, not rebuilt
    ring = RingCtx(p, n)
    rng = SplitMix64(907 + ring.m)
    higher = stationary = 0
    for mod in _chain_test_modules(ring, rng):
        for k in range(2 * p):  # past p - 1 too: the complexes read I^p
            assert mod.ideal_multiple_span(k) == _direct_ideal_multiple(mod, k), k
            if k > 1 and mod.ideal_multiple_span(k - 1) == mod.ideal_multiple_span(k - 2):
                assert mod.ideal_multiple_span(k) is mod.ideal_multiple_span(k - 1)
                stationary += 1
        for k in range(1, p):
            direct = la.span_intersect(mod.fixed_point_span(),
                                       _direct_ideal_multiple(mod, k - 1)) + mod.den
            assert mod.filtration_piece(k).num == direct, k
            higher += k > 1 and direct != mod.den
    assert higher and stationary


def test_filtration_piece_range_check():
    with pytest.raises(ValueError):
        md.free_module(R31, 1).filtration_piece(3)


def test_fitting_ideal_principal_presentation():
    # M = R/I: Fitt^0 = I, Fitt^1 = R
    for ring in RINGS:
        mod = aug_quotient(ring)
        f0 = fitting_ideal(mod, 0)
        assert f0 == aug_ideal_power(ring, 1)
        assert fitting_ideal(mod, 1) == la.Span.whole(ring.m, ring.p, ring.n)


def test_ideals_over_different_rings_are_not_equal():
    # the unit and zero ideals of R over different rings differ, and equal
    # ideals over one ring hash alike
    for r1, r2 in ((RingCtx(3, 1), RingCtx(3, 2)), (RingCtx(3, 1), RingCtx(5, 1))):
        for make in (lambda ring: md.ideal_span(ring, [ring.one()]),
                     lambda ring: md.ideal_span(ring, [ring.zero()])):
            a, b = make(r1), make(r2)
            assert a != b and hash(a) != hash(b)
            assert len({a, b}) == 2
            assert a == make(r1) and hash(a) == hash(make(r1))


def test_relations_close_under_the_given_gamma_action():
    # trivial action and the relation e0: (Z/3)^3 / Z/3 e0 has order 9,
    # where the regular orbit of e0 would kill the whole module
    mod = md.from_presentation(R31, 1, np.array([[1, 0, 0]]), np.eye(3, dtype=np.int64))
    assert mod.order() == 9
    # gamma = I + E_01 has order 3 and is no power of the regular action:
    # its orbit of the norm row spans {(a, b, a)}, while the regular orbit,
    # the line of (1, 1, 1), is not stable under it
    uni = np.eye(3, dtype=np.int64)
    uni[0, 1] = 1
    mod = md.from_presentation(R31, 1, np.array([[1, 1, 1]]), uni)
    assert mod.den == la.Span(np.array([[1, 1, 1], [0, 1, 0]]), 3, 1)
    assert mod.order() == 3
    # no action given and the regular action given: the same module
    rng = SplitMix64(61)
    for ring in RINGS:
        free = md.free_module(ring, 2)
        rel = rng.below_many(ring.m, 2 * free.dim).reshape(2, free.dim)
        default = md.from_presentation(ring, 2, rel)
        given = md.from_presentation(ring, 2, rel, free.gamma)
        assert default.den == given.den and (default.gamma == given.gamma).all()


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
        mod = md.from_presentation(ring, 2, rel)
        base = [fitting_ideal(mod, i) for i in range(3)]
        # stabilized presentation: extra generator with identity relation
        rel3 = np.zeros((rel.shape[0] + 1, 3 * ring.m), dtype=np.int64)
        rel3[:-1, : 2 * ring.m] = rel
        rel3[-1, 2 * ring.m] = 1
        mod3 = md.from_presentation(ring, 3, rel3)
        stab = [fitting_ideal(mod3, i) for i in range(3)]
        assert base == stab
        assert mod.order() == mod3.order()


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_greedy_presentation_fitting_matches_the_fitting_of_ell(p, n):
    # W* = coker(ell) re-presented greedily from its Howell rows, sharing no
    # presentation with ell: every Fitt^i agrees with the minors of ell; the
    # (gamma - 1)-multiple of ell has no unit entry, so its Fitt^i for i >= 1
    # are proper ideals too
    ring = RingCtx(p, n)
    gm1 = ring.gamma() - ring.one()
    for trial in range(8):
        rng = SplitMix64(1000 * ring.m + trial)
        a = rng.below(3) + 1
        r = rng.below(a) + 1
        ell = random_ell_matrix(ring, a, r, rng)
        for rows in (ell, [[gm1 * x for x in row] for row in ell]):
            inst = StarkInstance(ring, rows)
            w_star = md.from_presentation(ring, r, md.r_matrix_expand(ring, rows))
            for i in range(r + 2):
                assert fitting_ideal(w_star, i) == inst.w_star_fitting(i)


def test_fitting_zero_annihilates():
    rng = SplitMix64(71)
    for ring in RINGS[:2]:
        for _ in range(10):
            rel = np.array(
                [[rng.below(ring.m) for _ in range(2 * ring.m)] for _ in range(2)]
            )
            mod = md.from_presentation(ring, 2, rel)
            assert annihilates(fitting_ideal(mod, 0), mod)


def exterior_bidual(mod, r):
    """The r-th exterior bidual: the dual of the r-th wedge of the dual."""
    pres = presentation(dual(mod))
    return dual(wedge_module(mod.ring, pres.g, pres.relation_rows_r(), r))


def test_exterior_bidual_free_ranks():
    ring = R31
    for d in (1, 2, 3):
        free = md.free_module(ring, d)
        for r in range(d + 2):  # r = d + 1 > g: the zero module
            bidual = exterior_bidual(free, r)
            assert bidual.order() == ring.m ** (comb(d, r) * ring.m)


def test_exterior_bidual_degree_zero_is_ring():
    bidual = exterior_bidual(md.free_module(R31, 2), 0)
    assert bidual.order() == R31.m ** R31.m


def test_exterior_bidual_rank_one_matches_module():
    # M = R + R/I at (3,1): bidual identity in degree one, orders match
    ring = R31
    free = md.free_module(ring, 2)
    rel = np.zeros((1, free.dim), dtype=np.int64)
    rel[0, ring.m:] = (ring.gamma() - ring.one()).coeffs
    mod = md.from_presentation(ring, 2, rel)
    bidual = exterior_bidual(mod, 1)
    assert bidual.order() == mod.order()


def contraction(ring, zmat):
    """Y = R^a -> Z = R^s given by the columns of zmat, as a Stark instance.

    Its transition from the top vertex to the empty one contracts a
    functional on wedge^a(Y*) by every Z-coordinate in ascending order,
    with merge sign +1, landing in degree chi = a - s.
    """
    inst = StarkInstance(ring, zmat)
    return inst, lambda eps: inst.transition(inst.primes, (), eps)


def test_transition_determinant_normalization():
    # X = 0, Y = Z = R^s, identity: top functional maps to 1
    ring = R31
    for s in (1, 2):
        ident = [[ring.one() if i == j else ring.zero() for j in range(s)]
                 for i in range(s)]
        inst, apply = contraction(ring, ident)
        # canonical basis functional on e_{0..s-1}
        eps = md.functional_from_rcoords(ring, [ring.one()])
        assert md.rcoords_from_functional(ring, apply(eps)) == [ring.one()]


def test_transition_basis_change_cancels_det():
    # contracting with V-transformed coordinates scales by det(V)
    ring = R31
    rng = SplitMix64(73)
    y_rank, s = 2, 2
    zmat = [[ring.elt(np.array([rng.below(3) for _ in range(3)])) for _ in range(s)]
            for _ in range(y_rank)]
    inst, apply = contraction(ring, zmat)
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
    inst2, apply2 = contraction(ring, new_zmat)
    for i in range(comb(y_rank, s)):
        eps = np.zeros(comb(y_rank, s) * ring.m, dtype=np.int64)
        eps[i * ring.m] = 1
        (v1,) = md.rcoords_from_functional(ring, apply(eps))
        (v2,) = md.rcoords_from_functional(ring, apply2(eps))
        assert v2 == detv * v1


def test_transition_projection_matches_dual_basis_contraction():
    # Y = R^2, Z = R via projection onto the first coordinate, X = ker,
    # chi = 1: the transition map must agree with the hand computation
    # Psi -> Psi(phi_0 wedge .) on every generator of the top bidual
    ring = R31
    zmat = [[ring.one()], [ring.zero()]]
    inst, apply = contraction(ring, zmat)
    for c in (ring.one(), ring.gamma(), ring.gamma() - ring.one()):
        psi = md.functional_from_rcoords(ring, [c])  # c * dual of e_{(0,1)}
        # phi_0 ^ e_(0,) = 0 and phi_0 ^ e_(1,) = e_(0,1)
        assert md.rcoords_from_functional(ring, apply(psi)) == [ring.zero(), c]


def test_transition_kills_kernel_wedge():
    # contraction output kills ker(Y* -> X*) wedge forms: exercised at chi=1
    ring = R31
    rng = SplitMix64(79)
    zmat = [[ring.norm()], [ring.zero()]]
    inst, _ = contraction(ring, zmat)
    for _ in range(5):
        eps = np.array([rng.below(3) for _ in range(comb(2, 2) * ring.m)], dtype=np.int64)
        family = {v: inst.transition(inst.primes, v, eps) for v in inst.vertices()}
        assert StarkSystem(inst, family, ring.one()).check_kills_wedge_kernel()


def _elt_or_zero(ring, rng):
    """A random element, zero one time in three."""
    return ring.zero() if rng.below(3) == 0 else ring.elt(rng.below_many(ring.m, ring.m))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_wedge_table_matches_the_dense_wedge_oracle(p, n):
    # on every (g, r) with g <= 5: the contraction is the product with the
    # dense (f wedge .) matrix
    ring = RingCtx(p, n)
    rng = SplitMix64(181 + ring.m)
    for g in range(1, 6):
        f = [_elt_or_zero(ring, rng) for _ in range(g)]
        f[rng.below(g)] = ring.zero()
        for r in range(g):
            eps = rng.below_many(ring.m, comb(g, r + 1) * ring.m)
            dense = wedge_matrix(ring, g, r, f)
            assert (md.contract(ring, r + 1, eps, f) == la.mul_mod(dense, eps, ring.m)).all()


def test_gamma_order_check_is_exact_over_z49():
    # 8 = 1 + 7 has order 7 in (Z/49)^*, which divides 49; 8^49 overflows
    # int64, so an unreduced matrix power wrongly rejected this action
    ring = RingCtx(7, 2)
    one, zero = la.Span.whole(1, 7, 2), la.Span.zero(1, 7, 2)
    mod = md.FpModule(ring, 1, np.array([[8]]), one, zero)
    # (gamma - 1)^k = 7^k: I M = 7 Z/49 and I^2 M = 0
    assert (mod.ideal_multiple_span(1).h == np.array([[7]])).all()
    assert mod.ideal_multiple_span(2).h.shape == (0, 1)
    # 5 has order 42, so 5^49 = 19 != 1 and the action is rejected
    with pytest.raises(ValueError, match="order dividing"):
        md.FpModule(ring, 1, np.array([[5]]), one, zero)


# -- checks decided on generating rows -------------------------------------------


def test_map_checks_reject_each_broken_condition():
    for ring in RINGS:
        m = ring.m
        free = md.free_module(ring, 1)
        # kills gamma^0 and keeps the other coordinates: only a later row fails
        drop_first = np.diag([0] + [1] * (m - 1))
        with pytest.raises(ValueError, match="numerator into numerator"):
            md.ModuleHom(free, ideal_submodule(ring, 1), drop_first)
        with pytest.raises(ValueError, match="denominator into denominator"):
            md.ModuleHom(aug_quotient(ring), free, np.eye(m, dtype=np.int64))
        with pytest.raises(ValueError, match="commute with the gamma action"):
            md.ModuleHom(free, free, drop_first)
        md.ModuleHom(aug_quotient(ring), aug_quotient(ring), regular_rep(ring.gamma()))
        # mat None is the identity on representatives: the same three
        # conditions, the gamma one only between modules whose gammas differ
        trivial = trivial_module(ring, m)
        with pytest.raises(ValueError, match="numerator into numerator"):
            md.ModuleHom(free, ideal_submodule(ring, 1), None)
        with pytest.raises(ValueError, match="denominator into denominator"):
            md.ModuleHom(aug_quotient(ring), free, None)
        with pytest.raises(ValueError, match="commute with the gamma action"):
            md.ModuleHom(free, trivial, None)
        # gamma and the identity agree modulo I, and equal gammas commute
        md.ModuleHom(aug_quotient(ring), trivial.quotient(aug_ideal_power(ring, 1)), None)
        hom = md.ModuleHom(free, free, None)
        v = np.arange(2 * m, dtype=np.int64).reshape(2, m) - m
        assert (hom.apply(v) == v % m).all()
        assert hom.image().num == free.num and hom.is_surjective()


@pytest.fixture
def commutator_checks(monkeypatch):
    """Per ``ModuleHom`` check, the number of its ``Span.contains`` calls: two
    (numerator, denominator), three when the gamma commutator is reduced."""
    counts, depth = [], []
    contains, check = la.Span.contains, md.ModuleHom.check_well_defined

    def counting_contains(self, other):
        if depth:
            counts[-1] += 1
        return contains(self, other)

    def counting_check(self):
        counts.append(0)
        depth.append(1)
        try:
            return check(self)
        finally:
            depth.pop()

    monkeypatch.setattr(la.Span, "contains", counting_contains)
    monkeypatch.setattr(md.ModuleHom, "check_well_defined", counting_check)
    return counts


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_maps_induced_by_d_reduce_no_commutator(p, n, commutator_checks):
    # d is R-linear, so D = gamma_1 d - d gamma_2 vanishes on the nose for
    # d, psi^(k) and beta^(k), and D = 0 for pi and rho (equal gammas); d is
    # not square, so its commutator has one order of the factors only
    ring = RingCtx(p, n)
    ell = random_ell_matrix(ring, 2, 1, SplitMix64(5700 + 10 * p + n))
    cx = TwoTermComplex.free(ring, 2, 1, r_matrix_expand(ring, ell))
    for k in range(1, p):
        for build in (cx.generalized_bockstein, cx.derived_bockstein, cx.pi_projection,
                      cx.rho_projection):
            build(k)
    assert len(commutator_checks) == 1 + 4 * (p - 1) and set(commutator_checks) == {2}
    # D != 0, and the map still commutes modulo den: gamma = 1 on R/I
    commutator_checks.clear()
    trivial = trivial_module(ring, ring.m).quotient(aug_ideal_power(ring, 1))
    md.ModuleHom(aug_quotient(ring), trivial, None)
    assert commutator_checks == [3]


def test_span_that_is_not_gamma_stable_is_rejected():
    for ring in RINGS:
        free = md.free_module(ring, 1)
        line = la.Span(np.eye(ring.m, dtype=np.int64)[:1], ring.p, ring.n)
        with pytest.raises(ValueError, match="not gamma-stable"):
            md.FpModule(ring, free.dim, free.gamma, line, free.den)
        with pytest.raises(ValueError, match="not gamma-stable"):
            md.FpModule(ring, free.dim, free.gamma, free.num, line)


def test_ideal_that_does_not_annihilate_is_caught():
    for ring in RINGS:
        aug = md.ideal_span(ring, [ring.gamma() - ring.one()])
        assert annihilates(aug, aug_quotient(ring))
        assert not annihilates(md.ideal_span(ring, [ring.one()]), aug_quotient(ring))
        free = md.free_module(ring, 1)
        assert not annihilates(aug, free.quotient(aug_ideal_power(ring, 2)))
    # Z/9 with trivial action: x acts as its augmentation, so (3) does not
    # kill it and (9) = 0 does
    r32 = RingCtx(3, 2)
    z9 = trivial_module(r32, 1)
    assert not annihilates(md.ideal_span(r32, [r32.scalar(3)]), z9)
    assert annihilates(md.ideal_span(r32, [r32.scalar(9)]), z9)


def test_ideal_of_elements_is_spanned_by_their_gamma_multiples():
    # gamma^i * e row by row, against the regular representation's rows
    rng = SplitMix64(89)
    for ring in RINGS + [RingCtx(7, 2)]:
        for _ in range(10):
            elems = [ring.elt(rng.below_many(ring.m, ring.m)) for _ in range(2)]
            rows = [(ring.gamma(i) * e).coeffs for e in elems for i in range(ring.m)]
            ideal = md.ideal_span(ring, elems)
            assert ideal == la.Span(np.array(rows), ring.p, ring.n)
