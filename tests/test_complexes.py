"""Spectral-sequence window, Bockstein maps, cokernel isomorphisms."""

from __future__ import annotations

import numpy as np
import pytest

from derived_heights import linalg as la
from derived_heights import modules as md
from derived_heights.complexes import TwoTermComplex
from derived_heights.groupring import RingCtx, aug_ideal_power, regular_rep
from derived_heights.rng import SplitMix64

R31 = RingCtx(3, 1)
RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1)]


def mult_complex(ring, x):
    """C = [R -> R] with d = multiplication by the ring element x."""
    return TwoTermComplex.free(ring, 1, 1, regular_rep(x))


def zero_complex(ring, r1=1, r2=1):
    m = ring.m
    return TwoTermComplex.free(ring, r1, r2, np.zeros((r1 * m, r2 * m), dtype=np.int64))


def random_complex(ring, rng, max_rank=3):
    """Random free complex with the unit/(gamma-1)/norm entry mix."""
    from derived_heights.heights import random_ell_matrix

    a = rng.below(max_rank) + 1
    b = rng.below(max_rank) + 1
    ell = random_ell_matrix(ring, a, b, rng)
    return TwoTermComplex.free(ring, a, b, md.r_matrix_expand(ring, ell))


def test_zero_differential_pages():
    # d = 0: E_k^{i,j} = I^i C^{i+j} / I^{i+1} C^{i+j} for every k
    ring = R31
    c = zero_complex(ring)
    for k in (1, 2, 3):
        for i, j in [(0, 1), (1, 1), (k, 2 - k), (0, 2)]:
            entry = c.page_entry(k, i, j)
            span_i = aug_ideal_power(ring, i)
            span_i1 = aug_ideal_power(ring, i + 1)
            expected = span_i.size() // span_i1.size()
            assert entry.order() == expected


def test_page_entry_gamma_minus_one_31():
    # C = [R -> R] with d = gamma - 1 at (3,1): |E_1^{0,1}| = 3,
    # confirmed by enumerating the 27-element ring
    from itertools import product

    gm1 = R31.gamma() - R31.one()
    ik1 = aug_ideal_power(R31, 1)
    mod_ik1 = ik1.reducer
    cycles = set()
    for coeffs in product(range(3), repeat=3):
        a = R31.elt(np.array(coeffs, dtype=np.int64))
        if mod_ik1.contains((gm1 * a).coeffs):
            cycles.add(tuple(mod_ik1.reduce(a.coeffs)))
    c = mult_complex(R31, gm1)
    assert c.page_entry(1, 0, 1).order() == len(cycles) == 3


def test_page_entry_window_rejection():
    c = zero_complex(R31)
    with pytest.raises(ValueError):
        c.page_entry(1, 0, 3)
    with pytest.raises(ValueError):
        c.page_entry(0, 0, 1)


def e1_entry_order_matches_h(c, i, j):
    """E_1^{i,j} has the order of H^{i+j}(I^i C / I^{i+1} C)."""
    if i + j == 2:
        order = c.h2_ik_step(i).order()
    else:  # {a in I^i C^1 : da in I^(i+1) C^2} / I^(i+1) C^1
        order = c.z_span(1, i, 1).size() // c.ideal_span1(i + 1).size()
    return c.page_entry(1, i, j).order() == order


def test_e1_matches_graded_cohomology():
    rng = SplitMix64(83)
    for ring in RINGS:
        for _ in range(6):
            c = random_complex(ring, rng, max_rank=2)
            for i in (0, 1, 2):
                assert e1_entry_order_matches_h(c, i, 1 - i)
                assert e1_entry_order_matches_h(c, i, 2 - i)


def test_page_monotonicity():
    # E_{k+1}^{0,1} is a subquotient of E_k^{0,1}: orders cannot grow
    rng = SplitMix64(89)
    for ring in RINGS:
        for _ in range(6):
            c = random_complex(ring, rng, max_rank=2)
            orders = [c.page_entry(k, 0, 1).order() for k in range(1, ring.p + 1)]
            assert all(a >= b for a, b in zip(orders, orders[1:]))


def test_closed_form_of_stable_corner():
    # E_{k+1}^{k,2-k} = I^k C^2 / (I^{k+1} C^2 + I^k C^2 cap d(C^1))
    rng = SplitMix64(97)
    for ring in RINGS:
        for _ in range(6):
            c = random_complex(ring, rng, max_rank=2)
            for k in range(1, ring.p):
                entry = c.page_entry(k + 1, k, 2 - k)
                num = c.ideal_span2(k)
                den = c.ideal_span2(k + 1) + la.span_intersect(
                    num, la.image_span(c.c1.num, c.d))
                assert entry.order() == num.size() // den.size()
                assert entry.num == num
                assert entry.den == den


def test_derived_bockstein_zero_and_snake_agreement():
    ring = R31
    c = zero_complex(ring)
    beta = c.derived_bockstein(1)
    for a in beta.src.num.h:
        assert not beta.tgt.reduce(beta.apply(a)).any()
    # k = 1: derived and generalized Bockstein agree on all of H^1(C/IC)
    rng = SplitMix64(101)
    for ring in RINGS:
        for _ in range(5):
            cx = random_complex(ring, rng, max_rank=2)
            beta = cx.derived_bockstein(1)
            psi = cx.generalized_bockstein(1)
            # entries coincide as subquotients at k = 1
            assert beta.src.num == psi.src.num
            assert beta.src.den == psi.src.den
            for a in psi.src.num.h:
                assert not psi.tgt.reduce(psi.apply(a) - beta.apply(a)).any()


def test_derived_bockstein_nonzero_example_31():
    # C = [R -> R] with d = gamma-1: beta^(1) sends 1 to the class of
    # gamma-1, nonzero in I C^2 / I^2 C^2
    c = mult_complex(R31, R31.gamma() - R31.one())
    beta = c.derived_bockstein(1)
    one = np.zeros(3, dtype=np.int64)
    one[0] = 1
    assert beta.src.num.contains(one)
    out = beta.apply(one)
    assert beta.tgt.reduce(out).any()
    assert not beta.tgt.reduce(out - (R31.gamma() - R31.one()).coeffs).any()


def test_generalized_bockstein_snake_oracle_k1():
    # psi^(1) equals the connecting map computed by an independent snake:
    # lift a to C/I^2C by solving, apply d, reduce
    rng = SplitMix64(103)
    ring = R31
    for _ in range(10):
        c = random_complex(ring, rng, max_rank=2)
        psi = c.generalized_bockstein(1)
        for a in psi.src.num.h:
            # independent lift: canonical representative of a mod I C^1
            lift = c.ideal_span1(1).reduce(a)
            img = (lift @ c.d) % 3
            assert not psi.tgt.reduce(psi.apply(a) - img).any()


def test_pi_projection_surjective_and_k1_identity():
    rng = SplitMix64(107)
    for ring in RINGS:
        for _ in range(4):
            c = random_complex(ring, rng, max_rank=2)
            pi1 = c.pi_projection(1)
            assert pi1.src.order() == pi1.tgt.order()
            assert pi1.is_surjective()
            for k in range(2, ring.p):
                assert c.pi_projection(k).is_surjective()


def test_pi_projection_surjective_200_complexes():
    # the stated fuzz volume for the surjection: image-cardinality count
    rng = SplitMix64(20107)
    count = 0
    while count < 200:
        ring = RINGS[count % 3]
        c = random_complex(ring, rng, max_rank=3)
        for k in range(1, ring.p):
            pi = c.pi_projection(k)
            assert pi.image().order() == pi.tgt.order()
        count += 1


def test_pi_kernel_is_image_criterion():
    # ker(pi) characterization: E_k^{0,1} = im(H^1(C/I^k C) -> H^1(C/I C))
    rng = SplitMix64(109)
    for ring in RINGS[:2]:
        for _ in range(5):
            c = random_complex(ring, rng, max_rank=2)
            for k in range(1, ring.p):
                h1k = c.h1_mod_ik(k)
                h11 = c.h1_mod_ik(1)
                # image order of the natural reduction map
                img = h1k.num + h11.den
                img_order = img.size() // h11.den.size()
                assert c.page_entry(k, 0, 1).order() == img_order


def test_verify_relate_zero_and_norm_complexes():
    assert zero_complex(R31).verify_relate(1)
    assert zero_complex(R31).verify_relate(2)
    # C = [R -> R] with d = N at (3,1), k = 2: both compositions nonzero
    c = mult_complex(R31, R31.norm())
    assert c.verify_relate(2)
    beta = c.derived_bockstein(2)
    nonzero = False
    for a in beta.src.num.h:
        if beta.tgt.reduce(beta.apply(a)).any():
            nonzero = True
    assert nonzero


def test_verify_relate_fuzz():
    rng = SplitMix64(113)
    for ring in RINGS:
        for _ in range(10):
            c = random_complex(ring, rng, max_rank=2)
            for k in range(1, ring.p):
                assert c.verify_relate(k)


def test_coker_isos_trivial_cases():
    # H^2 = 0: both cokernels vanish
    c = mult_complex(R31, R31.one())
    rep = c.coker_iso_reports(1)
    assert all(rep.values())
    assert c.h2().order() == 1
    # d = 0: coker beta = I^k C^2 / I^{k+1} C^2
    c0 = zero_complex(R31)
    rep0 = c0.coker_iso_reports(1)
    assert all(rep0.values())


def test_coker_isos_fuzz():
    rng = SplitMix64(127)
    for ring in RINGS:
        for _ in range(8):
            c = random_complex(ring, rng, max_rank=2)
            for k in range(1, ring.p):
                rep = c.coker_iso_reports(k)
                assert all(rep.values()), (ring, k, rep)


def test_h2_right_exactness():
    rng = SplitMix64(131)
    for ring in RINGS[:2]:
        for _ in range(6):
            c = random_complex(ring, rng, max_rank=2)
            for i in (1, 2, 3):
                assert c.h2_of_quotient(i).order() == c._h2_mod_ideal_order(i)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_h2_right_exact_reads_every_step_through_k_plus_one(ring, monkeypatch):
    # the order of H^2 / I^i H^2 made wrong at one step i: the report fails
    # exactly when i is among the steps 1 .. k + 1 it certifies
    true_order = TwoTermComplex._h2_mod_ideal_order
    for k in sorted({1, ring.p - 1}):
        for wrong, exact in ((k + 1, False), (k + 2, True)):
            monkeypatch.setattr(TwoTermComplex, "_h2_mod_ideal_order",
                                lambda self, i, wrong=wrong: true_order(self, i) + (i == wrong))
            rep = zero_complex(ring).coker_iso_reports(k)
            assert rep["h2_right_exact"] is exact and rep["psi"] and rep["beta"], (k, wrong)


def _derived_objects(c, k):
    """Every span the two checks at k build, as (shape, bytes); a map's
    matrix is None for the identity on representatives."""
    spans = [c.h2_filtration_quotient(k).num.h, c.h2_filtration_quotient(k).den.h]
    for hom in (c.generalized_bockstein(k), c.derived_bockstein(k),
                c.pi_projection(k), c.rho_projection(k)):
        spans += [hom.src.num.h, hom.src.den.h, hom.tgt.num.h, hom.tgt.den.h, hom.mat]
    spans += [c.h2_of_quotient(i).den.h for i in range(1, k + 2)]
    return [None if s is None else (s.shape, s.tobytes()) for s in spans]


def test_memo_matches_a_fresh_complex_per_call():
    # one complex queried out of order (cokernels first, k descending,
    # repeats, then shuffled) against a fresh complex for every call
    rng = SplitMix64(137)
    for ring in RINGS:
        for _ in range(3):
            c = random_complex(ring, rng, max_rank=2)
            ks = list(range(ring.p - 1, 0, -1))
            calls = ([("coker", k) for k in ks] + [("relate", k) for k in ks]
                     + [("coker", ks[-1]), ("relate", ks[0])])
            shuffled = list(calls)
            for i in range(len(shuffled) - 1, 0, -1):
                j = rng.below(i + 1)
                shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
            for check, k in calls + shuffled:
                fresh = TwoTermComplex(c.c1, c.c2, c.d)
                if check == "coker":
                    assert c.coker_iso_reports(k) == fresh.coker_iso_reports(k)
                else:
                    assert c.verify_relate(k) == fresh.verify_relate(k)
                assert _derived_objects(c, k) == _derived_objects(fresh, k)


def test_verify_relate_fails_when_one_generator_breaks_the_square():
    # d = 0 over (3,1): the generators of H^1(C/IC) are the unit vectors,
    # and both composites vanish; a snake map that is wrong on generator
    # j alone must make the batched check fail
    k = 1
    for j in range(R31.m):
        c = zero_complex(R31)
        assert c.verify_relate(k)
        psi = c.generalized_bockstein(k)
        assert (psi.src.num.h == np.eye(R31.m, dtype=np.int64)).all()
        tgt = c.derived_bockstein(k).tgt
        w = next(row for row in c.ideal_span2(k).h if tgt.reduce(row).any())
        bad = np.zeros_like(psi.mat)
        bad[j] = w
        broken = md.ModuleHom(psi.src, psi.tgt, bad, check=False)
        c.generalized_bockstein = lambda _k: broken
        assert c.verify_relate(k) is False, j


def test_differential_is_read_only():
    c = mult_complex(R31, R31.norm())
    with pytest.raises(ValueError):
        c.d[0, 0] = 1
    with pytest.raises(AttributeError):
        c.d = np.zeros_like(c.d)


def test_projections_are_identities_without_a_matrix():
    # pi and rho carry no matrix, act as the target's coset reduction, and
    # the square still commutes
    rng = SplitMix64(21)
    for ring in RINGS:
        c = random_complex(ring, rng, max_rank=2)
        for k in range(1, ring.p):
            for hom in (c.pi_projection(k), c.rho_projection(k)):
                assert hom.mat is None
                gens = hom.src.num.h
                assert (hom.apply(gens) == hom.tgt.reduce(gens)).all()
                assert hom.image().num == hom.src.num + hom.tgt.den
            assert c.verify_relate(k)
