"""Acceptance gate: every headline property at its full stated scale.

One test per criterion; each prints a single pass/fail line (visible
with pytest -s or in the captured output on failure).  All checks are
exact equalities in finite rings; elapsed times are printed for the
criteria that carry an expected-runtime note.

Run just this gate with:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import json
import time
from itertools import product

import numpy as np

from derived_heights import linalg as la
from derived_heights.cli import FuzzConfig, run_fuzz
from derived_heights.complexes import TwoTermComplex
from derived_heights.groupring import (
    RingCtx,
    aug_ideal_power,
    derivative_op,
    regular_rep,
)
from derived_heights.heights import PairingData, random_ell_matrix, random_pairing_data, random_unit
from derived_heights.modules import r_matrix_expand
from derived_heights.recovery import IntComplex, verify_recovery
from derived_heights.rng import trial_rng
from derived_heights.stark import random_instance, verify_fitting

RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1)]


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {state}: {label}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {label}"


def _pairing_corpus():
    """Criteria 1 and 2 share one corpus: 1000 seeded instances."""
    stats = {"evals": 0, "equal": True, "independent": True, "symmetric": True}
    for i in range(1000):
        rng = trial_rng(20240809, i)
        ring = RINGS[i % 3]
        data = random_pairing_data(ring, rng, max_rank=3)
        # audit=True re-derives every value from independent lifts and
        # raises on any discrepancy, so well-definedness is enforced
        # inside the run, not just sampled
        rep = data.compare(ring.p - 1, rng=rng, max_card=10 ** 4, audit=True)
        for rec in rep["records"]:
            stats["evals"] += 1
            stats["equal"] &= rec["equal"]
            stats["independent"] &= rec["gamma_independent"]
            stats["symmetric"] &= rec["symmetric"]
    return stats


_CORPUS_CACHE = {}


def _corpus():
    if "stats" not in _CORPUS_CACHE:
        t0 = time.time()
        _CORPUS_CACHE["stats"] = _pairing_corpus()
        _CORPUS_CACHE["seconds"] = time.time() - t0
    return _CORPUS_CACHE


def test_criterion_1_pairing_coincidence():
    c = _corpus()
    stats = c["stats"]
    _verdict(
        1,
        "derivative-lift pairing equals Bockstein pairing on 1000 instances",
        stats["equal"] and stats["evals"] > 0,
        f"{stats['evals']} evaluations in {c['seconds']:.0f}s",
    )


def test_criterion_2_well_definedness_and_symmetry():
    c = _corpus()
    stats = c["stats"]
    _verdict(
        2,
        "independent lifts, generator substitution and dual-sequence symmetry",
        stats["independent"] and stats["symmetric"],
        f"{stats['evals']} evaluations",
    )


_COMPLEX_CACHE = {}


def _complex_corpus():
    if "list" not in _COMPLEX_CACHE:
        out = []
        for i in range(500):
            rng = trial_rng(77001, i)
            ring = RINGS[i % 3]
            a, b = rng.below(3) + 1, rng.below(3) + 1
            ell = random_ell_matrix(ring, a, b, rng)
            out.append(TwoTermComplex.free(ring, a, b, r_matrix_expand(ring, ell)))
        _COMPLEX_CACHE["list"] = out
    return _COMPLEX_CACHE["list"]


def test_criterion_3_bockstein_diagram():
    t0 = time.time()
    ok = True
    checks = 0
    for cx in _complex_corpus():
        for k in range(1, cx.ring.p):
            ok &= cx.verify_relate(k)
            checks += 1
    _verdict(3, "rho o psi = beta o pi on 500 random complexes, all k",
             ok, f"{checks} diagrams in {time.time() - t0:.0f}s")


def test_criterion_4_cokernel_isomorphisms():
    ok = True
    checks = 0
    for cx in _complex_corpus():
        for k in range(1, cx.ring.p):
            rep = cx.coker_iso_reports(k)
            ok &= all(rep.values())
            checks += 1
    _verdict(4, "coker psi and coker beta match I^k H^2/I^(k+1) H^2 exactly",
             ok, f"{checks} pages")


def test_criterion_5_structure_recovery():
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        for i in range(500):
            rng = trial_rng(88000 + p, i)
            rows, cols = rng.below(5) + 1, rng.below(5) + 1
            mat = [[rng.below(101) - 50 for _ in range(cols)] for _ in range(rows)]
            ok &= verify_recovery(IntComplex.make(p, mat))["pass"]
    _verdict(5, "tau-profile recovery equals the Smith oracle, 500 per prime",
             ok, f"{time.time() - t0:.0f}s")


def test_criterion_6_stark_fitting_equality():
    ok = True
    free_ok = True
    route_ok = True
    for i in range(300):
        rng = trial_rng(99077, i)
        ring = RINGS[i % 3]
        inst = random_instance(ring, rng, max_rank=3, max_primes=3,
                               chi_choices=(0, 1))
        c = random_unit(ring, rng)
        system = inst.stark_system(c)
        fit = verify_fitting(inst, system, inst.a)
        ok &= fit["pass"]
        ok &= system.check_compatible() and system.check_kills_wedge_kernel()
        # freeness: the family is determined by, and determines, its top
        # coordinate; unit tops give (and are required for) bases
        top = system.eps[inst.primes]
        recovered = inst.family_from_scalar(c).eps[inst.primes]
        free_ok &= bool((top == recovered).all())
        # vertex independence: any route through an intermediate vertex
        # gives the same family
        verts = inst.vertices()
        mid = verts[rng.below(len(verts))]
        for small in verts:
            if set(small) <= set(mid):
                via = inst.transition(mid, small,
                                      inst.transition(inst.primes, mid, top))
                route_ok &= bool((via == system.eps[small]).all())
    _verdict(6, "Fitting ideals of W* equal the Stark ideals on 300 instances",
             ok and free_ok and route_ok)


def test_criterion_7_ring_level_lemmas():
    ok = True
    # (3,1): exhaustive inside the 27-element ring
    ring = RingCtx(3, 1)
    gm1 = ring.gamma() - ring.one()
    all_elts = [ring.elt(np.array(c)) for c in product(range(3), repeat=3)]
    for k in (1, 2):
        dk = derivative_op(ring, k)
        dk1 = derivative_op(ring, k - 1)
        ok &= gm1 * dk == dk1
        image = {tuple((dk1 * x).coeffs) for x in all_elts}
        ker_pow = {tuple(x.coeffs) for x in all_elts if ((gm1 ** k) * x).is_zero()}
        ok &= image == ker_pow
        ker_d = {tuple(x.coeffs) for x in all_elts if (dk1 * x).is_zero()}
        ik = aug_ideal_power(ring, k)
        ok &= {tuple(v) for v in la.span_elements(ik)} == ker_d
        q_order = ik.size() // aug_ideal_power(ring, k + 1).size()
        ok &= q_order == 3
    # (3,2) and (5,1): span algebra through Howell forms
    for ring in (RingCtx(3, 2), RingCtx(5, 1)):
        p, n, m = ring.p, ring.n, ring.m
        gm1 = ring.gamma() - ring.one()
        gm1_mat = regular_rep(gm1)
        for k in range(1, p):
            ok &= gm1 * derivative_op(ring, k) == derivative_op(ring, k - 1)
            dk1_mat = regular_rep(derivative_op(ring, k - 1))
            image = la.image_span(la.Span.whole(m, p, n), dk1_mat)
            ker_pow = la.kernel(np.linalg.matrix_power(gm1_mat, k) % m, p, n)
            ok &= image == ker_pow
            ok &= aug_ideal_power(ring, k) == la.kernel(dk1_mat, p, n)
            ok &= aug_ideal_power(ring, k).size() == m * aug_ideal_power(ring, k + 1).size()
    _verdict(7, "derivative relation, kernel identities and |Q^k| = p^n", ok)


def test_criterion_8_worked_micro_examples():
    ring = RingCtx(3, 1)
    gm1 = ring.gamma() - ring.one()
    norm = ring.norm()
    all_elts = [ring.elt(np.array(c)) for c in product(range(3), repeat=3)]
    # exhaustive oracle first: every admissible chain gives the stated class
    oracle_ok = True
    i2 = aug_ideal_power(ring, 2)  # classes in Q^1 are cosets of I^2
    norm_fixed = [x for x in all_elts if norm * x == norm]
    for x in norm_fixed:
        for y in norm_fixed:
            oracle_ok &= i2.contains((gm1 * x * y - gm1).coeffs)
    d1 = derivative_op(ring, 1)
    tildes = [s for s in all_elts if (norm * s).is_zero() and gm1 * s == norm]
    for tilde in tildes:
        for x in (x for x in all_elts if d1 * x == tilde):
            for y in (y for y in all_elts if d1 * y == tilde):
                oracle_ok &= (norm * x * y) == norm  # I^3 = 0 pins it exactly
    # both implementation paths reproduce the oracle values bit-exactly
    nvec = norm.coeffs
    data1 = PairingData(ring, [[gm1]])
    bd1 = data1.bd_pairing(1, nvec, nvec)
    boc1 = data1.boc_pairing(1, nvec, nvec)
    data2 = PairingData(ring, [[norm]])
    bd2 = data2.bd_pairing(2, nvec, nvec)
    boc2 = data2.boc_pairing(2, nvec, nvec)
    paths_ok = (
        bd1.scalar() == 1 and boc1 == bd1
        and i2.contains((bd1.raw - gm1).coeffs)
        and bd2.scalar() == 1 and boc2 == bd2
        and bd2.raw == norm and boc2.raw == norm
    )
    _verdict(8, "worked micro-example pairing values, oracle-confirmed",
             oracle_ok and paths_ok)


def test_criterion_9_fuzz_determinism():
    cfg = dict(seed=20240810, trials=4, rings=[(3, 1), (3, 2), (5, 1)])
    a = run_fuzz(FuzzConfig(**cfg))
    b = run_fuzz(FuzzConfig(**cfg))
    bytes_a = json.dumps(a, sort_keys=True, indent=2).encode()
    bytes_b = json.dumps(b, sort_keys=True, indent=2).encode()
    _verdict(9, "fuzz reports are byte-identical for a fixed (seed, config)",
             bytes_a == bytes_b and a["pass"],
             f"{len(a['records'])} records, {a['summary']['checks']} checks")
