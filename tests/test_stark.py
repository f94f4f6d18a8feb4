"""Stark systems: transitions, compatibility, Fitting-ideal equality."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

import stark_oracle
import test_heights
from derived_heights import linalg as la
from derived_heights import stark as st
from derived_heights.groupring import RingCtx
from derived_heights.heights import PairingData, random_ell_matrix, random_unit
from derived_heights.modules import functional_from_rcoords, ideal_span, rcoords_from_functional
from derived_heights.rng import SplitMix64
from derived_heights.stark import (
    StarkError,
    StarkInstance,
    StarkSystem,
    random_instance,
    verify_fitting,
)
from stark_oracle import merge_sign
from wedge_oracle import wedge_matrix

R31 = RingCtx(3, 1)
RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1)]
ALL_RINGS = RINGS + [RingCtx(5, 2), RingCtx(7, 1), RingCtx(7, 2)]


def whole(ring):
    """The unit ideal of R."""
    return la.Span.whole(ring.m, ring.p, ring.n)


def identity_instance(ring, r):
    rows = [[ring.one() if i == j else ring.zero() for j in range(r)]
            for i in range(r)]
    return StarkInstance(ring, rows)


def norm_instance(ring):
    return StarkInstance(ring, [[ring.norm()]])


def test_merge_sign():
    assert merge_sign((), (0, 1)) == 1
    assert merge_sign((1,), (0,)) == -1
    assert merge_sign((0,), (1,)) == 1
    assert merge_sign((2,), (0, 1)) == 1  # two inversions


def test_identity_instance_shape():
    inst = identity_instance(R31, 2)
    assert inst.chi == 0
    assert inst.h_span(()).size() == 1  # H(empty) = 0
    assert inst.w_star_fitting(0) == whole(R31)


def test_norm_instance_vertex_modules():
    # r = 1, X = R, ell = (N): H(empty) = I, W* = R/NR, chi = 0
    inst = norm_instance(R31)
    assert inst.chi == 0
    h_empty = inst.h_span(())
    from derived_heights.groupring import aug_ideal_power

    assert h_empty == aug_ideal_power(R31, 1)
    f0 = inst.w_star_fitting(0)
    assert f0 == ideal_span(R31, [R31.norm()])


def test_vertex_lattice_against_brute_force():
    # H(m) agrees with per-subset kernels for ell = diag(N, 1)
    ring = R31
    inst = StarkInstance(ring, [[ring.norm(), ring.zero()],
                                [ring.zero(), ring.one()]])
    from derived_heights.modules import r_matrix_expand

    # relaxing prime 0 leaves only the constraint from prime 1
    col1 = r_matrix_expand(ring, [[ring.zero()], [ring.one()]])
    assert inst.h_span((0,)) == la.kernel(col1, 3, 1)
    # relaxing prime 1 leaves the norm constraint: H = I + R e_2
    col0 = r_matrix_expand(ring, [[ring.norm()], [ring.zero()]])
    assert inst.h_span((1,)) == la.kernel(col0, 3, 1)
    # full vertex is everything
    assert inst.h_span((0, 1)).size() == 3 ** 6


def test_stark_identity_gives_unit_ideals():
    inst = identity_instance(R31, 2)
    sys0 = inst.stark_system(R31.one())
    assert sys0.check_compatible()
    for i in range(3):
        assert sys0.ideal(i) == whole(R31)
        assert inst.w_star_fitting(i) == whole(R31)


def test_stark_norm_instance_worked_values():
    # ell = (N): eps_empty has image (N); relaxing the prime frees it
    inst = norm_instance(R31)
    system = inst.stark_system(R31.one())
    assert system.check_compatible()
    i0 = system.ideal(0)
    assert i0 == ideal_span(R31, [R31.norm()])
    assert system.ideal(1) == whole(R31)
    rep = verify_fitting(inst, system, 1)
    assert rep["pass"]


def test_stark_diag_norm_one():
    # ell = diag(N, 1): Fitt^0 = (N), Fitt^1 = R, matching I_0, I_1
    ring = R31
    inst = StarkInstance(ring, [[ring.norm(), ring.zero()],
                                [ring.zero(), ring.one()]])
    system = inst.stark_system(ring.one())
    rep = verify_fitting(inst, system, 2)
    assert rep["pass"]
    assert system.ideal(0) == ideal_span(ring, [ring.norm()])
    assert system.ideal(1) == whole(ring)


def test_non_generator_rejected():
    inst = norm_instance(R31)
    with pytest.raises(StarkError):
        inst.stark_system(R31.gamma() - R31.one())


def test_negative_core_rank_rejected():
    ring = R31
    with pytest.raises(StarkError):
        StarkInstance(ring, [[ring.one(), ring.one()]])


def test_compatibility_and_route_independence():
    rng = SplitMix64(157)
    for ring in RINGS[:2]:
        for _ in range(8):
            inst = random_instance(ring, rng)
            c = ring.one() if rng.below(2) else random_unit(ring, rng)
            system = inst.stark_system(c)
            assert system.check_compatible()
            # route independence: going through any intermediate vertex
            for mid in inst.vertices():
                for small in inst.vertices():
                    if not set(small) <= set(mid):
                        continue
                    via = inst.transition(
                        mid, small, inst.transition(inst.primes, mid,
                                                    functional_from_rcoords(ring, [c]))
                    )
                    assert (via == system.eps[small]).all()


def test_stark_elements_land_in_biduals():
    rng = SplitMix64(163)
    for _ in range(6):
        inst = random_instance(R31, rng)
        system = inst.stark_system(random_unit(R31, rng))
        assert system.check_kills_wedge_kernel()


def test_freeness_rank_one():
    # distinct multiples of the det basis give distinct families, unit
    # multiples give bases; the family determines its top coordinate
    ring = R31
    inst = norm_instance(ring)
    tops = set()
    count = 0
    from itertools import product

    for coeffs in product(range(3), repeat=3):
        c = ring.elt(np.array(coeffs, dtype=np.int64))
        fam = inst.family_from_scalar(c)
        assert fam.check_compatible()
        top = tuple(int(v) for v in fam.eps[inst.primes])
        assert top not in tops
        tops.add(top)
        count += 1
    assert count == 27  # bijection onto the 27-element free rank-one module


def test_ideals_increase():
    rng = SplitMix64(167)
    for _ in range(10):
        inst = random_instance(R31, rng)
        system = inst.stark_system(random_unit(R31, rng))
        prev = None
        for i in range(inst.a + 1):
            cur = system.ideal(i)
            if prev is not None:
                assert cur.contains(prev)
            prev = cur


def test_fitting_equality_fuzz():
    rng = SplitMix64(173)
    for ring in RINGS:
        for _ in range(8):
            inst = random_instance(ring, rng)
            system = inst.stark_system(random_unit(ring, rng))
            rep = verify_fitting(inst, system, inst.a)
            assert rep["pass"], (ring.p, ring.n, rep)


def extend_instance(inst, rng):
    """Adjoin a fresh prime with a fresh free generator (still a core vertex).

    The new localization column is arbitrary on the old generators and a
    unit on the new one; the new generator dies at the old primes.
    """
    ring = inst.ring
    rows = [list(row) + [ring.elt(rng.below_many(ring.m, ring.m))] for row in inst.ell]
    rows.append([ring.zero()] * inst.r + [random_unit(ring, rng)])
    return StarkInstance(ring, rows)


def test_vertex_extension_preserves_everything():
    rng = SplitMix64(179)
    for _ in range(6):
        inst = random_instance(R31, rng)
        ext = extend_instance(inst, rng)
        assert ext.chi == inst.chi
        # old vertex modules keep their orders inside the extension
        for v in inst.vertices():
            # graph embedding: same order
            assert ext.h_span(v).size() == inst.h_span(v).size() * 1
        # Fitting ideals of W* unchanged, so the Stark ideals agree too
        c = random_unit(R31, rng)
        sys_old = inst.stark_system(c)
        sys_new = ext.stark_system(c)
        for i in range(inst.a + 1):
            assert inst.w_star_fitting(i) == ext.w_star_fitting(i)
            assert sys_old.ideal(i) == sys_new.ideal(i)


def _ideal_by_fresh_primes(inst, scalar, i):
    """I_i by adjoining fresh primes until there are i, then summing one
    span per weight-i vertex (below the prime count, no prime is adjoined).

    Each fresh prime is zero on the old generators with a unit basis on
    a fresh generator.  Every extension is built as a StarkInstance, so
    it is validated, and it keeps the Fitting ideals of W*.  The sum never
    calls ``StarkSystem.ideal``, so it is a second route to I_i.
    """
    ring = inst.ring
    while inst.r < i:
        rows = [list(row) + [ring.zero()] for row in inst.ell]
        rows.append([ring.zero()] * inst.r + [ring.one()])
        ext = StarkInstance(ring, rows)
        assert ext.w_star_fitting(i) == inst.w_star_fitting(i)
        inst = ext
    system = inst.family_from_scalar(scalar)
    out = la.Span.zero(ring.m, ring.p, ring.n)
    for vertex in inst.vertices(weight=i):
        out = out + ideal_span(ring, rcoords_from_functional(ring, system.eps[vertex]))
    return out


def test_ideals_above_the_prime_count_match_the_fresh_prime_recursion():
    rng = SplitMix64(191)
    for ring in RINGS:
        for trial in range(4):
            inst = random_instance(ring, rng)
            u = random_unit(ring, rng)
            non_unit = [(ring.gamma() - ring.one()) * u, ring.scalar(ring.p) * u,
                        ring.norm(), ring.zero()][trial]
            assert not non_unit.is_unit()
            for system in (inst.stark_system(u), inst.family_from_scalar(non_unit)):
                for i in range(inst.r + 1, inst.a + 3):
                    assert system.ideal(i) == _ideal_by_fresh_primes(inst, system.scalar, i)


def test_one_span_ideal_is_the_sum_of_the_per_vertex_spans():
    # I_i, one span of every weight-i generator, against the sum of one span
    # per weight-i vertex (over the fresh-prime extension above the prime
    # count), for a unit and a non-unit spawning scalar, on every ring
    rng = SplitMix64(197)
    for ring in ALL_RINGS:
        for trial in range(2):
            inst = random_instance(ring, rng)
            u = random_unit(ring, rng)
            non_unit = [(ring.gamma() - ring.one()) * u, ring.scalar(ring.p) * u][trial]
            for system in (inst.stark_system(u), inst.family_from_scalar(non_unit)):
                for i in range(inst.a + 2):
                    assert system.ideal(i) == _ideal_by_fresh_primes(inst, system.scalar, i)


def _bidual_checks(inst, vertex):
    """Per annihilator functional of H(vertex), the rows eps must kill."""
    ring = inst.ring
    deg = inst.chi + len(vertex)
    ann = la.kernel(inst.h_span(vertex).h.T, ring.p, ring.n)
    return [wedge_matrix(ring, inst.a, deg - 1, rcoords_from_functional(ring, phi))
            for phi in ann.h]


def test_functional_outside_the_bidual_is_caught():
    # a random functional at the last vertex that has annihilator functionals
    rng = SplitMix64(167)
    caught = 0
    for ring in RINGS:
        for _ in range(4):
            inst = random_instance(ring, rng, chi_choices=(1,))
            system = inst.stark_system(random_unit(ring, rng))
            assert system.check_kills_wedge_kernel()
            vertex = [v for v in inst.vertices() if _bidual_checks(inst, v)][-1]
            eps = dict(system.eps)
            eps[vertex] = rng.below_many(ring.m, eps[vertex].size)
            kills = not any(((rows @ eps[vertex]) % ring.m).any()
                            for rows in _bidual_checks(inst, vertex))
            assert StarkSystem(inst, eps, system.scalar).check_kills_wedge_kernel() == kills
            caught += not kills
    assert caught >= 10


def test_functional_killed_by_the_first_annihilator_only_is_caught():
    rng = SplitMix64(173)
    caught = 0
    for ring in RINGS:
        for _ in range(4):
            inst = random_instance(ring, rng, chi_choices=(1,))
            system = inst.stark_system(random_unit(ring, rng))
            for vertex in inst.vertices():
                checks = _bidual_checks(inst, vertex)
                if len(checks) < 2:
                    continue
                # functionals killed by the first check but not by all of them
                first = la.kernel(checks[0].T, ring.p, ring.n)
                bad = [e for e in first.h if any(((c @ e) % ring.m).any() for c in checks)]
                if not bad:
                    continue
                eps = dict(system.eps)
                eps[vertex] = bad[0]
                assert not StarkSystem(inst, eps, system.scalar).check_kills_wedge_kernel()
                caught += 1
    assert caught


SIX_RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1), RingCtx(5, 2), RingCtx(7, 1),
             RingCtx(7, 2)]


def test_kill_check_is_the_howell_row_verdict():
    # valid families, and families with one vertex below the top corrupted
    rejected = 0
    for ring in SIX_RINGS:
        rng = SplitMix64(181 + ring.m)
        for r in (1, 2, 3):
            inst = instance_with_primes(ring, r, rng.below(2), rng)
            system = inst.stark_system(random_unit(ring, rng))
            families = [system.eps]
            for vertex in inst.vertices()[:-1]:
                eps = dict(system.eps)
                eps[vertex] = random_functional(inst, vertex, rng)
                families.append(eps)
            for eps in families:
                verdict = StarkSystem(inst, eps, system.scalar).check_kills_wedge_kernel()
                assert verdict == stark_oracle.kills_wedge_kernel(inst, eps)
                rejected += not verdict
            assert StarkSystem(inst, families[0], system.scalar).check_kills_wedge_kernel()
    assert rejected >= 10


def test_functional_killed_by_every_label_but_one_is_caught():
    # at each vertex with two labels outside, and for each label q, a functional
    # that the contraction by every other lambda kills and by lambda_q does not
    rng = SplitMix64(191)
    caught = set()
    for ring in RINGS:
        for _ in range(6):
            inst = instance_with_primes(ring, 3, rng.below(2), rng)
            system = inst.stark_system(random_unit(ring, rng))
            for vertex in inst.vertices():
                outside = [q for q in inst.primes if q not in vertex]
                deg = inst.chi + len(vertex)
                if len(outside) < 2 or deg <= 0:
                    continue
                checks = {q: wedge_matrix(ring, inst.a, deg - 1, inst.fs[q]) for q in outside}
                for q in outside:
                    others = np.hstack([checks[o].T for o in outside if o != q])
                    bad = [e for e in la.kernel(others, ring.p, ring.n).h
                           if ((checks[q] @ e) % ring.m).any()]
                    if not bad:
                        continue
                    eps = dict(system.eps)
                    eps[vertex] = bad[0]
                    assert not stark_oracle.kills_wedge_kernel(inst, eps)
                    assert not StarkSystem(inst, eps, system.scalar).check_kills_wedge_kernel()
                    caught.add(outside.index(q) - len(outside))  # first, middle or last
    assert caught == {-3, -2, -1}


def test_annihilator_count_raises_on_a_proper_sub_span():
    rng = SplitMix64(193)
    for ring in RINGS:
        inst = instance_with_primes(ring, 2, 1, rng)
        system = inst.stark_system(random_unit(ring, rng))
        assert system.check_kills_wedge_kernel()
        whole = inst.h_span
        inst.h_span = lambda v: la.Span((ring.p * whole(v).h) % ring.m, ring.p, ring.n)
        with pytest.raises(AssertionError, match="annihilator-count"):
            system.check_kills_wedge_kernel()


def test_kill_check_contracts_once_per_label_outside(monkeypatch):
    calls, original = [], st.contract

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(st, "contract", counting)
    rng = SplitMix64(197)
    for r in range(1, 5):
        for chi in (0, 1):
            inst = instance_with_primes(R31, r, chi, rng)
            system = inst.stark_system(R31.one())
            calls.clear()
            assert system.check_kills_wedge_kernel()
            assert len(calls) == sum(r - len(v) for v in inst.vertices()
                                     if chi + len(v) > 0)


# -- edge chains against the direct route ------------------------------------------

EDGE_RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1), RingCtx(7, 1)]


def instance_with_primes(ring, r, chi, rng):
    return StarkInstance(ring, random_ell_matrix(ring, r + chi, r, rng))


def random_functional(inst, vertex, rng):
    ring = inst.ring
    return rng.below_many(ring.m, comb(inst.a, inst.chi + len(vertex)) * ring.m)


@pytest.mark.parametrize("ring", EDGE_RINGS, ids=lambda r: f"{r.p}-{r.n}")
def test_edge_chain_is_the_direct_transition_on_every_pair(ring):
    rng = SplitMix64(701 + ring.m)
    for r in range(5):
        inst = instance_with_primes(ring, r, (r + 1) % 2, rng)
        for big in inst.vertices():
            eps = random_functional(inst, big, rng)
            for small in inst.vertices():
                if set(small) <= set(big):
                    assert (inst.transition(big, small, eps)
                            == stark_oracle.transition(inst, big, small, eps)).all()


@pytest.mark.parametrize("ring", EDGE_RINGS, ids=lambda r: f"{r.p}-{r.n}")
def test_family_is_the_direct_family(ring):
    rng = SplitMix64(709 + ring.m)
    for r in range(5):
        inst = instance_with_primes(ring, r, r % 2 if r else 1, rng)
        c = ring.elt(rng.below_many(ring.m, ring.m))
        fam = inst.family_from_scalar(c).eps
        oracle = stark_oracle.family(inst, c)
        assert fam.keys() == oracle.keys()
        assert all((fam[v] == oracle[v]).all() for v in oracle)


def test_edge_compatibility_is_the_all_pairs_verdict():
    rng = SplitMix64(719)
    verdicts = {True: 0, False: 0}
    for ring in EDGE_RINGS[:3]:
        for r in range(1, 5):
            inst = instance_with_primes(ring, r, rng.below(2), rng)
            system = inst.stark_system(random_unit(ring, rng))
            families = [system.eps]
            for vertex in inst.vertices():  # the top and the empty vertex included
                eps = dict(system.eps)
                eps[vertex] = (eps[vertex] + random_functional(inst, vertex, rng)) % ring.m
                families.append(eps)
            families.append({v: random_functional(inst, v, rng) for v in inst.vertices()})
            for eps in families:
                verdict = StarkSystem(inst, eps, system.scalar).check_compatible()
                assert verdict == stark_oracle.all_pairs_compatible(inst, eps)
                verdicts[verdict] += 1
            assert StarkSystem(inst, families[0], system.scalar).check_compatible()
    assert verdicts[False] >= 40


def test_contraction_counts_of_building_and_checking_a_family(monkeypatch):
    calls, original = [], st.contract

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(st, "contract", counting)
    rng = SplitMix64(727)
    for r in range(6):
        inst = instance_with_primes(R31, r, 1, rng)
        calls.clear()
        system = inst.stark_system(R31.one())
        assert len(calls) == 2 ** r - 1
        calls.clear()
        assert system.check_compatible()
        assert len(calls) == r * 2 ** (r - 1) if r else not calls


def test_an_instance_builds_no_kernel_of_ell_star(monkeypatch):
    # S = ker ell and H(m) strictly between the bottom and the top (H(empty)
    # is the validated datum's S, whose annihilator is a product and a
    # count): no kernel of ell*, and none for an annihilator
    built = test_heights.counting_solvers(monkeypatch)
    rng = SplitMix64(199)
    for ring in RINGS:
        for r in (1, 2, 3):
            built.clear()
            inst = instance_with_primes(ring, r, rng.below(2), rng)
            data = PairingData(ring, inst.ell)
            d, d_t = data.d % ring.m, data.d_t % ring.m
            if d.shape != d_t.shape or (d != d_t).any():  # else ker ell* is ker ell
                assert not [a for a in built if a.shape == d_t.shape and (a == d_t).all()]
            assert len(built) == 2 ** r - 1


def test_memos_are_per_object():
    # objects built alike but for ell (or den) answer from their own memos:
    # each as a fresh object would, and unlike each other
    ring = R31
    one_ell, norm_ell = [[ring.one()], [ring.zero()]], [[ring.norm()], [ring.zero()]]
    first, second = PairingData(ring, one_ell), PairingData(ring, norm_ell)
    for data in (first, second):
        fresh = PairingData(ring, [list(row) for row in data.ell])
        assert (data.d_t == fresh.d_t).all()
        assert (data.complex().d == fresh.complex().d).all()
        assert data.piece_span("s", 1) == fresh.piece_span("s", 1)
        assert data.piece_span("t", 2) == fresh.piece_span("t", 2)
    assert (first.d_t != second.d_t).any()
    assert (first.complex().d != second.complex().d).any()
    assert first.piece_span("s", 1) != second.piece_span("s", 1)
    assert not set(map(id, first._memo.values())) & set(map(id, second._memo.values()))
    first_inst, second_inst = StarkInstance(ring, one_ell), StarkInstance(ring, norm_ell)
    assert first_inst.h_span(()) != second_inst.h_span(())
    assert second_inst.h_span(()) == StarkInstance(ring, norm_ell).h_span(())
    free = first.x
    quotient = free.quotient(free.ideal_multiple_span(1))
    assert free.fixed_point_span() != quotient.fixed_point_span() == quotient.num
