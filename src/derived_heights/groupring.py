"""Arithmetic in R = Z/p^n[G] for G cyclic of order p^n.

The coefficient modulus and the group order are the same p^n; that tie
is what makes the augmentation filtration interact with the derivative
operators the way the height pairings need.  p is odd here (the scalar
linear algebra itself also works at p = 2, but the ring context used by
the filtration and pairing layers enforces oddness).

Conventions:

  * gamma is the distinguished generator; elements are coefficient
    vectors of length p^n, index i holding the coefficient of gamma^i
  * regular_rep(x) is multiplication by x on the basis {gamma^i}, acting
    on row vectors from the right
  * on a free module R^g the scalar coordinate g*m + i (m = p^n) is the
    coefficient of gamma^i in slot g
  * R is read into Q^k = I^k/I^(k+1), 1 <= k <= p-1, one way only: by the
    product with ``graded_projection(ring, k)``, whose first column is the
    scalar and whose other columns vanish exactly on I^k; the pairing
    tables, ``graded_scalars`` and the 1x1 pairing values all use it
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from . import linalg as la


@lru_cache(maxsize=None)
def _rep_index(m: int) -> np.ndarray:
    """R[i, j] = (j - i) mod m: regular_rep(x) = x.coeffs[R]."""
    idx = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _dual_index(m: int) -> np.ndarray:
    """(-i) mod m: x.coeffs[D] reads x in the dual basis of {gamma^i}, and back."""
    idx = -np.arange(m) % m
    idx.setflags(write=False)
    return idx


def convolve(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Cyclic convolution of coefficient vectors mod m: a times the regular rep of b.
    Either may be unreduced; both are reduced once, as ``la.mul_mod`` does not."""
    a, b = np.asarray(a, dtype=np.int64) % m, np.asarray(b, dtype=np.int64) % m
    return la.mul_mod(a, b[_rep_index(m)], m)


class RingCtx:
    """The pair (p, n) fixing the coefficients Z/p^n and R = Z/p^n[G], |G| = p^n."""

    __slots__ = ("p", "n", "m")

    def __init__(self, p: int, n: int):
        # the supported p are prime, so membership is the whole check and
        # no primality test runs on a huge p
        if p not in (3, 5, 7) or n not in (1, 2):
            raise ValueError(
                "desk scale supports p in {3, 5, 7} and n in {1, 2}"
            )
        self.p = p
        self.n = n
        self.m = p ** n

    def __eq__(self, other):
        return isinstance(other, RingCtx) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"RingCtx(p={self.p}, n={self.n})"

    # -- element constructors -------------------------------------------------

    def elt(self, coeffs) -> "GroupRingElt":
        return GroupRingElt(self, np.asarray(coeffs, dtype=np.int64) % self.m)

    def zero(self) -> "GroupRingElt":
        return self.elt(np.zeros(self.m, dtype=np.int64))

    def one(self) -> "GroupRingElt":
        c = np.zeros(self.m, dtype=np.int64)
        c[0] = 1
        return self.elt(c)

    def gamma(self, power: int = 1) -> "GroupRingElt":
        c = np.zeros(self.m, dtype=np.int64)
        c[power % self.m] = 1
        return self.elt(c)

    def scalar(self, a: int) -> "GroupRingElt":
        c = np.zeros(self.m, dtype=np.int64)
        c[0] = a % self.m
        return self.elt(c)

    def norm(self) -> "GroupRingElt":
        return self.elt(np.ones(self.m, dtype=np.int64))


class GroupRingElt:
    """Element of Z/p^n[G]; immutable coefficient vector of length p^n."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingCtx, coeffs: np.ndarray):
        self.ring = ring
        self.coeffs = coeffs % ring.m
        self.coeffs.setflags(write=False)

    def __add__(self, other):
        return GroupRingElt(self.ring, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return GroupRingElt(self.ring, self.coeffs - other.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):  # reduced first: an int64 product would wrap
            return GroupRingElt(self.ring, self.coeffs * (other % self.ring.m))
        return GroupRingElt(
            self.ring, convolve(self.coeffs, other.coeffs, self.ring.m)
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, GroupRingElt) and bool(
            (self.coeffs == other.coeffs).all()
        )

    def __hash__(self):
        return hash((self.ring.p, self.ring.n, tuple(int(c) for c in self.coeffs)))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def augmentation(self) -> int:
        return int(self.coeffs.sum()) % self.ring.m

    def is_unit(self) -> bool:
        # R is local with maximal ideal (p, gamma - 1): unit iff the
        # augmentation is a unit of Z/p^n
        return self.augmentation() % self.ring.p != 0

    def __repr__(self):
        terms = [
            (f"{int(a)}" if i == 0 else (f"{int(a)}*g^{i}" if a != 1 else f"g^{i}"))
            for i, a in enumerate(self.coeffs)
            if a
        ]
        return " + ".join(terms) if terms else "0"


def regular_rep(x: GroupRingElt) -> np.ndarray:
    """p^n x p^n matrix of right multiplication by x: row i = gamma^i * x."""
    return x.coeffs[_rep_index(x.ring.m)]


def derivative_op(ring: RingCtx, k: int, gen_exp: int = 1) -> GroupRingElt:
    """Derivative operator of order k for the generator gamma^gen_exp.

    D(k) = (-1)^k * sum_i binom(i, k) * g^(i-k)  with g the generator;
    D(0) is the norm, and (g - 1) D(k) = D(k-1).
    """
    m = ring.m
    if not 0 <= k < m:
        raise ValueError(f"derivative order must be in [0, {m})")
    if gen_exp % ring.p == 0:
        raise ValueError("generator exponent must be coprime to p")
    out = np.zeros(m, dtype=np.int64)
    sign = 1 if k % 2 == 0 else -1
    for i in range(k, m):
        e = (gen_exp * (i - k)) % m
        out[e] = (out[e] + sign * comb(i, k)) % ring.m
    return ring.elt(out)


@lru_cache(maxsize=None)
def _aug_power_cached(p: int, n: int, k: int) -> la.Span:
    """I^k as I^(k-1) (gamma - 1), from the cached I^(k-1)."""
    if k == 0:
        return la.Span.whole(p ** n, p, n)
    ring = RingCtx(p, n)
    return la.image_span(_aug_power_cached(p, n, k - 1), regular_rep(ring.gamma() - ring.one()))


def aug_ideal_power(ring: RingCtx, k: int) -> la.Span:
    """I^k = (gamma - 1)^k R in coefficient coordinates.

    Cached per (p, n, k), so reductions modulo I^k share the span's reducer.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _aug_power_cached(ring.p, ring.n, min(k, ring.m * ring.n))


@lru_cache(maxsize=None)
def graded_projection(ring: RingCtx, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, reps) reading R into Q^k, 1 <= k <= p-1: P = [phi | Psi], reps[c] the
    canonical representative of c (gamma-1)^k mod I^(k+1).

    phi((gamma-1)^k) = 1 and phi(I^(k+1)) = 0, so x in I^k is phi(x) (gamma-1)^k
    mod I^(k+1); phi exists because Q^k is free of rank one over Z/p^n and
    Z/p^n is self-injective.  x lies in I^k exactly when x Psi = 0 (double
    annihilator).  Cached per (p, n, k); both tables are read-only.
    """
    gm1k = ((ring.gamma() - ring.one()) ** k).coeffs
    ik1 = aug_ideal_power(ring, k + 1)
    top = np.vstack([gm1k, ik1.h])
    phi = la.Solver(top.T, ring.p, ring.n).solve(np.eye(1, top.shape[0], dtype=np.int64)[0])
    if phi is None:
        raise AssertionError("no functional reads Q^k; graded piece broken")
    psi = la.kernel(aug_ideal_power(ring, k).h.T, ring.p, ring.n).h
    proj = np.column_stack([phi, psi.T])
    reps = ik1.reduce(np.outer(np.arange(ring.m), gm1k))
    for table in (proj, reps):
        table.setflags(write=False)
    return proj, reps


def graded_scalars(ring: RingCtx, k: int, xs: np.ndarray) -> np.ndarray:
    """Images of classes in Q^k = I^k/I^(k+1) under (gamma-1)^k -> 1.

    xs holds one coefficient vector per row, each in I^k; the whole batch
    is one product with ``graded_projection``.  Only defined for
    1 <= k <= p-1, where Q^k is free of rank one over Z/p^n.
    """
    if not 1 <= k <= ring.p - 1:
        raise ValueError("graded piece is free of rank one only for k <= p-1")
    images = la.mul_mod(np.atleast_2d(xs), graded_projection(ring, k)[0], ring.m)
    if images[:, 1:].any():
        raise ValueError("representative does not lie in I^k")
    return images[:, 0]


def graded_scalar(ring: RingCtx, k: int, x: GroupRingElt) -> int:
    """``graded_scalars`` of one element."""
    return int(graded_scalars(ring, k, x.coeffs)[0])
