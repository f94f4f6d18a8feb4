"""Structure recovery of H^2 over Z localized at p from tau invariants.

For an integer two-term complex [Z^a -> Z^b] viewed over the discrete
valuation ring Z_(p) with maximal ideal (p), the stable corner of the
filtration spectral sequence has

    tau_k = dim_{F_p} of  p^k Z^b / (p^{k+1} Z^b + p^k Z^b cap im d).

It is computed by one lattice descent, without ever diagonalizing.  With
B_k a Z-basis (``int_echelon`` rows) of L_k = im d cap p^k Z^b, starting
from B_0 = int_echelon(d), one F_p elimination of red_k = B_k / p^k mod p
gives its rank, so tau_k = b - rank, and its left kernel K_k; then
L_{k+1} = {c B_k : c mod p in K_k} is spanned by p B_k and lifts of K_k
times B_k.  Stability lemma: once K_k is empty, L_{k+1} = p L_k, so
red_k never changes again and every later tau equals tau_k; the rest of
the profile is filled in without arithmetic.

The profile is non-increasing and eventually constant; the stable value
is the free rank of coker d and the successive drops are the
multiplicities of Z/p^i summands.  A Smith normal form over Z provides
the independent oracle; the descent calls none of its code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat
from math import comb
from typing import Iterator

from . import intlinalg as il

# Declared limit on p: trial division up to sqrt(p) stays under a second
# below it, and p near 10^18 would take minutes.
P_LIMIT = 1 << 31

# Declared limit on the shape of d: the Smith oracle enumerates all
# C(rows + cols, rows) - 1 square minors.  C(20, 10) of them (10 x 10) take
# a few seconds; 12 x 12 has 14 times as many.
MINOR_LIMIT = comb(20, 10)


def _is_prime(p: int) -> bool:
    """Trial division up to the square root of p."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class IntComplex:
    """Prime p and the integer matrix d of [Z^a -> Z^b] (rows map in)."""

    p: int
    d: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.p >= P_LIMIT:
            raise ValueError("p must be below 2^31")
        if not _is_prime(self.p):
            raise ValueError("p must be prime")
        if not self.d or not self.d[0]:
            raise ValueError("d must be a nonempty matrix")
        if any(len(r) != len(self.d[0]) for r in self.d):
            raise ValueError("d must be rectangular")

    @classmethod
    def make(cls, p: int, rows) -> "IntComplex":
        return cls(p, tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def cols(self) -> int:
        return len(self.d[0])


@dataclass
class TauProfile:
    """tau_0, tau_1, ... through a certified stabilization point."""

    p: int
    taus: list[int]
    k0: int = field(init=False)

    def __post_init__(self):
        taus = self.taus
        if any(a < b for a, b in zip(taus, taus[1:])):
            raise ValueError("tau profile must be non-increasing")
        k0 = len(taus) - 1
        while k0 > 1 and taus[k0 - 1] == taus[-1]:
            k0 -= 1
        self.k0 = max(k0, 1)


def _descent(cx: IntComplex) -> Iterator[int]:
    """tau_0, tau_1, ... without end, by the lattice descent above."""
    p, b = cx.p, cx.cols
    basis = il.int_echelon(cx.d)
    pk = 1
    while True:
        rank, ker = il.fp_left_kernel([[x // pk for x in row] for row in basis], p)
        if not ker:
            yield from repeat(b - rank)
        yield b - rank
        lifts = [[sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(b)]
                 for coeffs in ker]
        basis = il.int_echelon([[p * x for x in row] for row in basis] + lifts)
        pk *= p


def tau_sequence(cx: IntComplex, kmax: int | None = None) -> TauProfile:
    """The tau profile through a certified stabilization point.

    Defaults kmax to 1 + the longest entry bit-length and doubles while
    the tail is not certified; certification is either a zero tail
    (monotonicity pins everything after) or exceeding the p-valuation
    bound on elementary divisors.  One descent serves every kmax, so no
    tau is computed twice.
    """
    p = cx.p
    entries = [abs(x) for row in cx.d for x in row]
    if kmax is None:
        kmax = 1 + max(entries).bit_length()
    vbound = il.valuation_bound([list(r) for r in cx.d], p)
    descent = _descent(cx)
    taus: list[int] = []
    while True:
        taus += islice(descent, kmax + 1 - len(taus))
        if taus[-1] == 0 or kmax >= vbound:
            return TauProfile(p, taus)
        kmax = 2 * max(kmax, 1)  # from kmax = 0 plain doubling never moves


def recover_structure(profile: TauProfile) -> tuple[int, dict[int, int]]:
    """(free rank, {i: multiplicity of Z/p^i}) from a stabilized profile."""
    taus = profile.taus
    free = taus[profile.k0]
    mult = {}
    for i in range(1, profile.k0 + 1):
        f = taus[i - 1] - taus[i]
        if f < 0:
            raise ValueError("non-monotone profile; upstream computation broken")
        if f:
            mult[i] = f
    return free, mult


def snf_oracle(cx: IntComplex) -> tuple[int, dict[int, int]]:
    """Ground truth via Smith form: p-parts of the elementary divisors."""
    divisors, free = il.smith_form_int([list(r) for r in cx.d])
    mult: dict[int, int] = {}
    for d in divisors:
        v = 0
        while d % cx.p == 0:
            d //= cx.p
            v += 1
        if v:
            mult[v] = mult.get(v, 0) + 1
    return free, mult


def verify_recovery(cx: IntComplex) -> dict:
    """Run both routes and report the comparison."""
    profile = tau_sequence(cx)
    recovered = recover_structure(profile)
    oracle = snf_oracle(cx)
    return {
        "taus": profile.taus,
        "k0": profile.k0,
        "recovered": {"free": recovered[0],
                      "torsion": {str(k): v for k, v in recovered[1].items()}},
        "oracle": {"free": oracle[0],
                   "torsion": {str(k): v for k, v in oracle[1].items()}},
        "pass": recovered == oracle,
    }
