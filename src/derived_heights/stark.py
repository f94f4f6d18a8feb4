"""Synthetic Stark-system instances over R = Z/p^n[G].

An instance axiomatizes the algebra a core vertex provides: a free
module X of rank a (the fully relaxed global module), abstract prime
labels 0..r-1 each with a free rank-one local module L_q trivialized by
a declared basis, and localization functionals lambda_q packaged as the
columns of an R-matrix.  For a subset (vertex) m of the primes,

    H(m) = ker(X -> sum of L_q over q not in m),

the dual-module stand-in is W* = coker(ell), and the core rank is
chi = a - r.

A determinant basis z of the rank-one module wedge-bidual^a(X) (tensor
the dual local lines, trivialized) spawns the Stark system: eps_top = z,
and eps_m is the edge step from m + {q}, q the smallest label outside m.
The edge step n -> n - {q} contracts by lambda_q with the sign -1 to the
number of labels above q outside n; a transition v_{n,m} is the chain of
edge steps removing n - m in ascending order, its signs multiplying to
the merge sign of n - m against the complement of n.  As every transition
is a chain of edges, compatibility along the r 2^(r-1) covering edges
m = n - {q} is compatibility along every pair m dividing n.

The bidual check contracts each eps_m by the R-generators lambda_q, q
outside m, after an exact count proves that they span ann H(m).  The
headline check: the ideal I_i generated by the images of all weight-i
Stark elements equals the i-th Fitting ideal of W*.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

from . import linalg as la
from .groupring import GroupRingElt, RingCtx
from .heights import PairingData, random_ell_matrix
from .modules import (
    contract,
    derived,
    fitting_from_matrix,
    functional_from_rcoords,
    ideal_span,
    r_matrix_expand,
    rcoords_from_functional,
)
from .rng import SplitMix64


class StarkError(ValueError):
    pass


class StarkInstance:
    """Core-vertex datum: X free of rank a, localization columns ell."""

    def __init__(self, ring: RingCtx, ell_rows: list[list[GroupRingElt]]):
        self.ring = ring
        self.ell = ell_rows
        self.a = len(ell_rows)
        self.r = len(ell_rows[0]) if self.a else 0
        if self.a == 0:
            raise StarkError("not-a-core-vertex: X must have positive rank")
        self.chi = self.a - self.r
        if self.chi < 0:
            raise StarkError(
                "not-a-core-vertex: more local lines than global rank "
                "(Stark systems need nonnegative core rank)"
            )
        self.primes = tuple(range(self.r))
        # lambda_q as an element of X* in dual-basis R-coordinates
        self.fs = [[row[q] for row in ell_rows] for q in range(self.r)]
        self._memo: dict[tuple, object] = {}
        self.validate()

    def validate(self) -> None:
        """Certify the vertex-lattice and exact-sequence bookkeeping."""
        if self.r == 0:
            return
        # the four-term sequence 0 -> H(empty) -> X -> sum L_q -> W* -> 0
        # is the pairing datum for ell; its dual exactness is the
        # self-injectivity content a core vertex relies on
        self.datum().validate()
        for big, small in self.edges():
            if not self.h_span(big).contains(self.h_span(small)):
                raise StarkError("not-a-core-vertex: vertex lattice not monotone")

    def vertices(self, weight: Optional[int] = None) -> list[tuple[int, ...]]:
        weights = range(self.r + 1) if weight is None else (weight,)
        return [v for w in weights for v in combinations(self.primes, w)]

    def edges(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The covering edges (m + {q}, m), by vertex m, then by label q descending."""
        return [(tuple(sorted(v + (q,))), v) for v in self.vertices()
                for q in reversed(self.primes) if q not in v]

    def localization(self, vertex: tuple[int, ...]) -> np.ndarray:
        """X -> sum of L_q over q outside vertex, scalar-expanded: the lambda_q as columns."""
        return r_matrix_expand(self.ring, [[row[q] for q in self.primes if q not in vertex]
                                           for row in self.ell])

    @derived
    def datum(self) -> PairingData:
        """The pairing datum of ell: X -> sum of the L_q, whose S is H(empty)."""
        return PairingData(self.ring, self.ell)

    @derived
    def h_span(self, vertex: tuple[int, ...]) -> la.Span:
        """Numerator span of H(vertex) = ker(X -> sum of L_q, q outside)."""
        ring = self.ring
        if len(vertex) == self.r:
            return la.Span.whole(self.a * ring.m, ring.p, ring.n)
        if not vertex:
            return self.datum().s_span
        return la.kernel(self.localization(vertex), ring.p, ring.n)

    def w_star_fitting(self, i: int) -> la.Span:
        """Fitt^i of W* = coker(ell), presented by ell itself."""
        return fitting_from_matrix(self.ring, self.r, self.ell, i)

    # -- Stark elements -----------------------------------------------------------

    def transition(self, src: tuple[int, ...], dst: tuple[int, ...],
                   eps: np.ndarray) -> np.ndarray:
        """v_{src,dst}: the signed edge steps removing src - dst, in ascending order."""
        vertex = tuple(sorted(src))  # the vertex the next edge step leaves
        if not set(dst) <= set(vertex):
            raise StarkError("transition requires dst dividing src")
        m = self.ring.m
        out = np.asarray(eps, dtype=np.int64) % m
        for q in sorted(set(src) - set(dst)):
            sign = -1 if sum(l > q for l in self.primes if l not in vertex) % 2 else 1
            out = (sign * contract(self.ring, self.chi + len(vertex), out, self.fs[q])) % m
            vertex = tuple(l for l in vertex if l != q)
        return out

    def stark_system(self, c: GroupRingElt) -> "StarkSystem":
        """The compatible family spawned by c times the det-line basis."""
        if not c.is_unit():
            raise StarkError("z is not a generator of the determinant line")
        return self.family_from_scalar(c)

    def family_from_scalar(self, c: GroupRingElt) -> "StarkSystem":
        """The family spawned by c times the det-line basis, for any c (a module map)."""
        # c times the det-line generator: the degree-a wedge has one block
        eps = {self.primes: functional_from_rcoords(self.ring, [c])}
        for big, small in reversed(self.edges()):  # parents first, by smallest missing label
            if small not in eps:
                eps[small] = self.transition(big, small, eps[big])
        return StarkSystem(self, eps, c)


class StarkSystem:
    """Family of exterior-bidual functionals indexed by vertices."""

    def __init__(self, inst: StarkInstance, eps: dict[tuple[int, ...], np.ndarray],
                 scalar: GroupRingElt):
        self.inst = inst
        self.eps = eps
        self.scalar = scalar  # coordinate of the spawning det-line element
        self._memo: dict[tuple, object] = {}

    def check_compatible(self) -> bool:
        """v_{n,m}(eps_n) == eps_m along every covering edge, so for every m dividing n."""
        inst, m = self.inst, self.inst.ring.m
        return all((inst.transition(big, small, self.eps[big]) == self.eps[small] % m).all()
                   for big, small in inst.edges())

    def check_kills_wedge_kernel(self) -> bool:
        """Each eps_m descends to the exterior bidual of H(m).

        eps_m is a functional on wedge^(chi+v(m)) X*; it lies in the bidual
        of H(m) iff it kills ann H(m) wedge (lower forms), iff (the lower
        wedge being free) its contraction by each phi in ann H(m) vanishes.
        ann H(m) is the span of the lambda_q, q outside m
        (``la.spans_annihilator``), whose failure is a defect and raises;
        at the empty vertex H is the validated datum's S, where ``validate``
        proved it (with no primes it holds trivially).  As ``contract`` is
        R-linear in phi, the contractions by the R-generators lambda_q suffice.
        """
        inst, ring = self.inst, self.inst.ring
        for vertex in inst.vertices():
            deg = inst.chi + len(vertex)
            if deg <= 0:
                continue
            if vertex and not la.spans_annihilator(inst.localization(vertex),
                                                   inst.h_span(vertex)):
                raise AssertionError("annihilator-count: the lambda_q do not span ann H(m)")
            for q in inst.primes:
                if q not in vertex and contract(ring, deg, self.eps[vertex], inst.fs[q]).any():
                    return False
        return True

    @derived
    def ideal(self, i: int) -> la.Span:
        """I_i, the ideal of the values of the weight-i eps_m on the wedge
        generators: one ``ideal_span`` of the R-coordinates of all of them.

        The defining sum runs over all vertices of the infinite prime
        pool; a synthetic instance holds r of its primes.  For i > r the
        instance is extended by i - r fresh primes, each zero on the old
        generators with a unit basis on a fresh generator, which leaves
        W* and so every Fitting ideal unchanged.  The extension has one
        weight-i vertex, its top, where eps is c times the det basis with
        no contraction, so I_i = (c) for the spawning scalar c: that is I_r,
        built once (its one vertex is the top) and returned for every i > r.
        """
        if i < 0:
            raise ValueError("ideal index must be nonnegative")
        if i > self.inst.r:
            return self.ideal(self.inst.r)
        ring = self.inst.ring
        return ideal_span(ring, [c for vertex in self.inst.vertices(weight=i)
                                 for c in rcoords_from_functional(ring, self.eps[vertex])])


def verify_fitting(inst: StarkInstance, system: StarkSystem, imax: int) -> dict:
    """Fitt^i(W*) versus I_i for 0 <= i <= imax, as a per-index report."""
    records = []
    ok = True
    for i in range(imax + 1):
        fit = inst.w_star_fitting(i)
        stark = system.ideal(i)
        equal = fit == stark
        ok = ok and equal
        records.append({
            "i": i,
            "fitting": fit.h.tolist(),
            "stark": stark.h.tolist(),
            "equal": equal,
        })
    return {"pass": ok, "records": records}


def random_instance(ring: RingCtx, rng: SplitMix64, max_rank: int = 3,
                    max_primes: int = 3, chi_choices=(0, 1)) -> StarkInstance:
    """Random core-vertex instance with chi drawn from chi_choices."""
    # r >= 1 local lines fit under max_rank only when chi < max_rank
    chi_choices = [c for c in chi_choices if c < max_rank]
    chi = chi_choices[rng.below(len(chi_choices))]
    r = rng.below(min(max_primes, max_rank - chi)) + 1
    rows = random_ell_matrix(ring, r + chi, r, rng)
    return StarkInstance(ring, rows)
