"""Each span is built once by the object that owns it, not looked up by value.

``linalg.howell_form`` keeps no memo, so an input it is handed twice is
computed twice.  These tests count its inputs by their reduced bytes on
fixed data and pin how many repeat an earlier one: a span that comes to
be built by two routes again raises the count.  The coset reductions of
one fixed complex's checks are pinned the same way: a check that comes
to reduce what its rows or its matrices already decide raises the count.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from derived_heights import groupring, heights, modules, stark
from derived_heights import linalg as la
from derived_heights.complexes import TwoTermComplex
from derived_heights.groupring import RingCtx
from derived_heights.heights import PairingData, random_ell_matrix
from derived_heights.modules import r_matrix_expand
from derived_heights.rng import SplitMix64
from derived_heights.stark import StarkInstance, verify_fitting


def _clear_caches() -> None:
    for mod in (groupring, heights, la, modules, stark):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.fixture
def howell_inputs(monkeypatch):
    """Every ``howell_form`` input from now on, counted by (bytes, shape, p, n)
    of its whole generating set: the base's rows, padded with zero columns to
    the width of the new rows (a Zassenhaus base is narrower), then the new rows.

    The package's lru caches are emptied first, so the count does not
    depend on which tests ran before.
    """
    _clear_caches()
    seen: Counter = Counter()
    original = la.howell_form

    def counting(a, p, n, base=None):
        a = np.atleast_2d(np.asarray(a, dtype=np.int64)) % p ** n
        rows = a
        if base is not None:
            pad = np.zeros((len(base.h), a.shape[1] - base.h.shape[1]), dtype=np.int64)
            rows = np.vstack([np.hstack([base.h, pad]), a])
        seen[rows.tobytes(), rows.shape, p, n] += 1
        return original(a, p, n, base)

    monkeypatch.setattr(la, "howell_form", counting)
    return seen


def repeats(seen: Counter) -> int:
    return sum(seen.values()) - len(seen)


def test_complex_checks_repeats_pinned(howell_inputs):
    # one (3,2) free complex of ranks (2, 2): verify_relate and the cokernel
    # checks for k = 1, 2.  The one repeat is the two Bockstein images,
    # d(Z_k^{0,1}) plus each target's denominator, where the targets of
    # psi^(k) and beta^(k) are equal spans
    ring = RingCtx(3, 2)
    ell = random_ell_matrix(ring, 2, 2, SplitMix64(23))
    cx = TwoTermComplex.free(ring, 2, 2, r_matrix_expand(ring, ell))
    for k in (1, 2):
        assert cx.verify_relate(k)
        assert all(cx.coker_iso_reports(k).values())
    assert repeats(howell_inputs) == 1


def test_complex_checks_reductions_pinned(monkeypatch):
    # the complex above: a span handed its own rows and a map whose gamma
    # commutator vanishes as a matrix make no reduction (90 at the parent)
    _clear_caches()
    calls = []
    reduce = la.CosetReducer.reduce
    monkeypatch.setattr(la.CosetReducer, "reduce",
                        lambda self, v: calls.append(1) or reduce(self, v))
    ring = RingCtx(3, 2)
    ell = random_ell_matrix(ring, 2, 2, SplitMix64(23))
    cx = TwoTermComplex.free(ring, 2, 2, r_matrix_expand(ring, ell))
    for k in (1, 2):
        assert cx.verify_relate(k)
        assert all(cx.coker_iso_reports(k).values())
    assert len(calls) == 80


def test_pairing_compare_repeats_pinned(howell_inputs):
    # the symmetry table is the datum's own with its sides swapped, so it
    # draws its lifts through the k = 2 tilde solvers of the derivative-lift
    # table, one per (side, k, generator): nothing repeats
    ring = RingCtx(3, 2)
    data = PairingData(ring, random_ell_matrix(ring, 2, 2, SplitMix64(7)))
    data.validate()
    rep = data.compare(ring.p - 1, rng=SplitMix64(1))
    assert rep["pass"] and rep["records"]
    assert repeats(howell_inputs) == 0


def test_stark_checks_repeat_pinned(howell_inputs):
    # H(empty) is the validated datum's S and the unit ideal has no Howell
    # form; I_3 = (c) is I_2, whose one weight-2 vertex is the top, where eps
    # is c times the det-line basis, and the system builds it once
    ring = RingCtx(3, 1)
    inst = StarkInstance(ring, random_ell_matrix(ring, 3, 2, SplitMix64(31)))
    system = inst.stark_system(ring.one())
    assert verify_fitting(inst, system, inst.a)["pass"]
    assert system.check_compatible() and system.check_kills_wedge_kernel()
    assert repeats(howell_inputs) == 0
