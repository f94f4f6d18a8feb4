"""Structure recovery against the Smith-form oracle, and the lattice
descent against the per-k intersection route (``tau_oracle``)."""

from __future__ import annotations

import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tau_oracle
from derived_heights import intlinalg as il
from derived_heights.recovery import (
    IntComplex,
    TauProfile,
    recover_structure,
    snf_oracle,
    tau_sequence,
    tau_value,
    verify_recovery,
)
from derived_heights.rng import SplitMix64

PRIMES = (2, 3, 5, 7)


def rand_matrix(rng, rows, cols, bound=50):
    return [[rng.below(2 * bound + 1) - bound for _ in range(cols)]
            for _ in range(rows)]


def test_diag_p_psquared():
    for p in (2, 3, 5):
        cx = IntComplex.make(p, [[p, 0], [0, p * p]])
        prof = tau_sequence(cx)
        assert prof.taus[:3] == [2, 1, 0]
        assert prof.k0 == 2
        assert recover_structure(prof) == (0, {1: 1, 2: 1})
        assert snf_oracle(cx) == (0, {1: 1, 2: 1})


def test_zero_map_is_free():
    cx = IntComplex.make(3, [[0]])
    prof = tau_sequence(cx)
    assert all(t == 1 for t in prof.taus)
    assert prof.k0 == 1
    assert recover_structure(prof) == (1, {})


def test_identity_cokernel_vanishes():
    cx = IntComplex.make(5, [[1, 0], [0, 1]])
    assert recover_structure(tau_sequence(cx)) == (0, {})
    assert snf_oracle(cx) == (0, {})


def test_upper_triangular_hand_case():
    # d = [[p, p], [0, p^2]]: divisors (p, p^2)
    for p in (2, 3):
        cx = IntComplex.make(p, [[p, p], [0, p * p]])
        assert snf_oracle(cx) == (0, {1: 1, 2: 1})
        assert recover_structure(tau_sequence(cx)) == (0, {1: 1, 2: 1})


def test_profile_monotone_and_stable():
    rng = SplitMix64(181)
    for p in (2, 3, 5):
        for _ in range(30):
            cx = IntComplex.make(p, rand_matrix(rng, 3, 3))
            prof = tau_sequence(cx)
            assert all(a >= b for a, b in zip(prof.taus, prof.taus[1:]))
            free, _ = recover_structure(prof)
            assert prof.taus[-1] == free


def test_recovery_matches_oracle_random():
    rng = SplitMix64(191)
    for p in (2, 3, 5):
        for _ in range(40):
            rows = rng.below(4) + 1
            cols = rng.below(4) + 1
            cx = IntComplex.make(p, rand_matrix(rng, rows, cols))
            assert verify_recovery(cx)["pass"]


def test_unimodular_invariance():
    # tau profiles are isomorphism invariants of the cokernel
    rng = SplitMix64(193)
    trials = 0
    for p in (2, 3, 5):
        for _ in range(67):
            a = rand_matrix(rng, 3, 3, 10)
            cx = IntComplex.make(p, a)
            base = tau_sequence(cx).taus
            b = [row[:] for row in a]
            # random elementary row/column operations (unimodular)
            for _ in range(6):
                op = rng.below(4)
                i, j = rng.below(3), rng.below(3)
                if i == j:
                    continue
                c = rng.below(5) - 2
                if op == 0:
                    b[i] = [x + c * y for x, y in zip(b[i], b[j])]
                elif op == 1:
                    b[i], b[j] = b[j], b[i]
                elif op == 2:
                    for row in b:
                        row[i], row[j] = row[j], row[i]
                else:
                    for row in b:
                        row[i] += c * row[j]
            other = tau_sequence(IntComplex.make(p, b)).taus
            kmax = min(len(base), len(other))
            assert base[:kmax] == other[:kmax]
            trials += 1
    assert trials >= 200


def test_profile_rejects_nonsense():
    with pytest.raises(ValueError):
        TauProfile(3, [1, 2])
    with pytest.raises(ValueError):
        IntComplex.make(4, [[1]])
    with pytest.raises(ValueError):
        IntComplex.make(3, [[1, 2], [3]])


def _oracle_taus(p, d, count):
    return [tau_oracle.tau_value(p, d, k) for k in range(count)]


def _default_kmax(d):
    return 1 + max(abs(x) for row in d for x in row).bit_length()


def _descent_cases(rng, p):
    """Zero, rank-deficient, p^3-divisible and wide (free part) matrices."""
    def draw(rows, cols, bound=20, scale=1):
        return [[scale * (rng.below(2 * bound + 1) - bound) for _ in range(cols)]
                for _ in range(rows)]

    yield "zero", [[0] * 3 for _ in range(2)]
    yield "zero-column", [[0]]
    for _ in range(3):
        a = draw(2, 4)
        c = rng.below(5) - 2
        yield "rank-deficient", a + [[x + c * y for x, y in zip(*a)]]
        yield "p3-multiples", draw(3, 3, 6, p ** 3)
        yield "p-powers", [[p ** rng.below(5) * (rng.below(3) - 1) for _ in range(3)]
                           for _ in range(3)]
        yield "wide", draw(2, 4, 30)


def test_descent_matches_the_per_k_intersections():
    rng = SplitMix64(211)
    seen = set()
    doubled = 0
    for p in PRIMES:
        for kind, d in _descent_cases(rng, p):
            cx = IntComplex.make(p, d)
            taus = tau_sequence(cx).taus
            assert taus == _oracle_taus(p, d, len(taus)), (p, kind, d)
            assert recover_structure(tau_sequence(cx)) == snf_oracle(cx), (p, kind, d)
            doubled += len(taus) - 1 > _default_kmax(d)
            seen.add(kind)
    assert seen == {"zero", "zero-column", "rank-deficient", "p3-multiples", "p-powers",
                    "wide"}
    # inputs with a free cokernel part are certified only after kmax doubles
    assert doubled >= 12


@st.composite
def int_complexes(draw):
    """(p, d): 1..4 x 1..4 integer matrices with entries 0 or +-p^j * small."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.builds(lambda j, c: c * p ** j, st.integers(0, 4), st.integers(-3, 3))
    d = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    return p, d


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(int_complexes())
def test_descent_tau_is_the_oracle_tau_at_every_k(case):
    p, d = case
    taus = tau_sequence(IntComplex.make(p, d)).taus
    assert taus == _oracle_taus(p, d, len(taus))


def _wide_matrix_near_2_40():
    """9 x 10 at p = 2 with entries near 2^40: Z/2^(4i) for i = 1..8, plus Z."""
    rng = SplitMix64(40)
    return [[(1 << 40) + ((rng.below(7) - 3) << (4 * i)) for _ in range(10)]
            for i in range(9)]


def test_profile_is_constant_after_the_descent_stabilizes():
    d = _wide_matrix_near_2_40()
    cx = IntComplex.make(2, d)
    taus = tau_sequence(cx).taus
    assert len(taus) > 600 and taus[32:] == [1] * (len(taus) - 32)
    for k in [*range(13), 31, 32, 33, 40, 100]:
        oracle = tau_oracle.tau_value(2, d, k)
        assert taus[k] == tau_value(cx, k) == oracle, k


def test_descent_calls_no_smith_code(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the tau route reached the Smith oracle")

    for name in ("smith_form_int", "minor_gcd", "_det"):
        monkeypatch.setattr(il, name, refuse)
    for p in PRIMES:
        assert tau_sequence(IntComplex.make(p, [[p, p], [0, p * p]])).taus[:3] == [2, 1, 0]
    taus = tau_sequence(IntComplex.make(2, _wide_matrix_near_2_40())).taus
    assert taus[:5] == [9, 9, 9, 9, 8] and taus[-1] == 1
    with pytest.raises(AssertionError):
        snf_oracle(IntComplex.make(3, [[3]]))


def test_profile_from_kmax_zero_returns():
    # tau_0 = 1 > 0 here, so the tail is not certified at kmax = 0 and the
    # doubling must move kmax off 0; an alarm turns a hang into a failure
    def hang(*_args):
        raise TimeoutError("tau_sequence(kmax=0) did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        taus = tau_sequence(IntComplex.make(3, [[3]]), kmax=0).taus
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert taus == [1, 0, 0]
    assert tau_sequence(IntComplex.make(3, [[1]]), kmax=0).taus == [0]
