"""The two derived height pairings and their executable comparison.

Input datum: free R-modules X, Y of finite rank and an R-linear map
ell : X -> Y*, giving the four-term exact sequence

    0 -> S -> X --ell--> Y* -> T* -> 0,      S = ker ell, T = ker ell*,

with ell*(y)(x) = ell(x)(y).  Y* is modeled as the free module on the
dual basis, so ell is just an R-matrix and the complex differential is
its scalar expansion.

Two pairings S_0^(k) x T_0^(k) -> Q^k are implemented on deliberately
disjoint routes above the linear-algebra substrate:

  * the derivative-lift pairing: choose s~ with (g-1)^(k-1) s~ = s, then
    x_s with D^(k-1) x_s = s~ (and likewise y_t), and read off
    ell(x_s)(y_t) mod I^(k+1);
  * the Bockstein pairing: pull s back through the norm identification
    of H^1(C/IC) with S_0 and the page projection (one solve of
    a [d | N] = [0 | s] modulo I^k C^2), apply the snake map of the k-th
    filtration step, and evaluate the resulting functional at a norm
    preimage of t.

Their agreement on every admissible (k, s, t) is the headline check;
each evaluation also re-derives itself from independently drawn lifts.

Both pairings are bilinear in (s, t), so ``compare`` evaluates them as
value tables, one k at a time:

  * membership of every s and every t is one batched coset reduction
    against the filtration pieces;
  * each table draws the lifts of all its elements at once: one
    ``Solver`` call per solver on the stacked copies of all targets, one
    copy per draw (two when the table is audited, one otherwise);
  * a table is one matrix product of the lifted functionals against the
    regular representations of the lifted arguments, projected into Q^k
    by ``graded_projection``'s [phi | Psi]: phi reads the scalar, Psi
    vanishes exactly on I^k;
  * the audit, equality, symmetry and generator-independence flags
    compare whole tables.  The symmetry table is the one of the dual
    sequence 0 -> T -> Y -> X* -> S* -> 0: the same datum with its sides
    swapped and ell* for ell (``_bd_table(dual=True)``), transposed;
  * records share lists: the s and t rows, and per scalar c of Z/p^n the
    representative of c (gamma-1)^k mod I^(k+1) (``reps.tolist()``, once per k).

What depends on no datum is built once and shared by all: the free
modules, the derivative-operator lift solvers and the norm solver.  The
kernels S and T, filtration pieces, complex and k >= 2 tilde solvers (one
per side, k and generator, so the symmetry table draws through the
derivative-lift table's) stay per datum, each built on first use:
``validate`` reads S alone, and ``compare`` stops at the first zero piece.
The Bockstein solver, on the complex's I^k C^2, is built per table call, once for all draws.

``bd_pairing`` and ``boc_pairing`` are the 1x1 case of the same tables;
their ``PairingValue`` keeps the unreduced value and reads its class
through the same projection, the one reader of R into Q^k.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from . import linalg as la
from .complexes import TwoTermComplex
from .groupring import (
    GroupRingElt,
    RingCtx,
    _rep_index,
    derivative_op,
    graded_projection,
    graded_scalar,
)
from .modules import FpModule, derived, free_module, r_matrix_expand
from .rng import SplitMix64


class PairingError(ValueError):
    """Invalid pairing data; carries the offending position."""


class MembershipError(ValueError):
    """Argument outside the filtration piece it must belong to."""


class PairingValue:
    """Value in Q^k: a representative in I^k, compared modulo I^(k+1)."""

    __slots__ = ("ring", "k", "raw", "rep")

    def __init__(self, ring: RingCtx, k: int, raw: GroupRingElt):
        self.ring = ring
        self.k = k
        self.raw = raw
        self.rep = ring.elt(graded_projection(ring, k)[1][graded_scalar(ring, k, raw)])

    def scalar(self) -> int:
        """Value under the normalization (gamma-1)^k -> 1 of Q^k."""
        return graded_scalar(self.ring, self.k, self.raw)

    def __eq__(self, other):
        return (
            isinstance(other, PairingValue)
            and self.k == other.k
            and self.rep == other.rep
        )

    def __repr__(self):
        return f"PairingValue(k={self.k}, rep={self.rep!r})"


def random_unit(ring: RingCtx, rng: SplitMix64) -> GroupRingElt:
    coeffs = rng.below_many(ring.m, ring.m)
    e = ring.elt(coeffs)
    if not e.is_unit():
        fix = coeffs.copy()
        fix[0] = (fix[0] + 1 - e.augmentation()) % ring.m
        e = ring.elt(fix)
    return e


def random_ell_matrix(ring: RingCtx, a: int, b: int, rng: SplitMix64):
    """Random R-matrix mixing units, (gamma-1)-multiples and norm lines.

    Plain uniform entries almost always force S = 0; the 40/40/20 mix
    makes higher filtration pieces appear with useful frequency.
    """
    gm1 = ring.gamma() - ring.one()
    rows = []
    for _ in range(a):
        row = []
        for _ in range(b):
            roll = rng.below(100)
            if roll < 40:
                row.append(random_unit(ring, rng))
            elif roll < 80:
                rnd = ring.elt(rng.below_many(ring.m, ring.m))
                row.append(gm1 * rnd)
            else:
                row.append(ring.scalar(rng.below(ring.m)) * ring.norm())
        rows.append(row)
    return rows


class PairingData:
    """The sequence 0 -> S -> X -> Y* -> T* -> 0 packaged for computation."""

    def __init__(self, ring: RingCtx, ell_rows: list[list[GroupRingElt]]):
        self.ring = ring
        self.ell = ell_rows
        self.a = len(ell_rows)
        self.b = len(ell_rows[0]) if self.a else 0
        if self.a == 0 or self.b == 0:
            raise PairingError("ell must have positive dimensions")
        self.x = free_module(ring, self.a)
        self.y = free_module(ring, self.b)
        self.d = r_matrix_expand(ring, ell_rows)
        self.d_t = r_matrix_expand(ring, [[ell_rows[i][j] for i in range(self.a)]
                                          for j in range(self.b)])
        self._memo: dict[tuple, object] = {}

    # -- structure ---------------------------------------------------------------

    @derived
    def submodule(self, side: str) -> FpModule:
        """S = ker ell in X (side 's') or T = ker ell* in Y (side 't'), built on first read."""
        free, d = (self.x, self.d) if side == "s" else (self.y, self.d_t)
        return free.submodule(la.kernel(d, self.ring.p, self.ring.n))

    s_span = property(lambda self: self.submodule("s").num)
    t_span = property(lambda self: self.submodule("t").num)

    @derived
    def complex(self) -> TwoTermComplex:
        return TwoTermComplex(self.x, self.y, self.d)

    def piece_span(self, side: str, k: int) -> la.Span:
        """Numerator span of S_0^(k) (side 's') or T_0^(k) (side 't')."""
        return self.submodule(side).filtration_piece(k).num

    def eval_bilinear(self, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
        """Table of ell(x)(y) in R: push every x through ell, then pair."""
        w = la.mul_mod(np.atleast_2d(xv), self.d, self.ring.m)
        return self.eval_functional(w, yv)

    def eval_functional(self, wv: np.ndarray, yv: np.ndarray,
                        proj: Optional[np.ndarray] = None) -> np.ndarray:
        """Table of w(y) = sum_j w_j y_j for w in Y* (dual-basis coordinates).

        wv and yv hold one vector per row (a 1-D argument is one row); the
        result has shape (rows of wv, rows of yv, m), entry [s, t] being
        the coefficient vector of w_s(y_t) in R (b is read off the width of
        yv: Y* with Y, or X* with X for ell*).  The products w_j y_j are
        cyclic convolutions, so the table is one matrix product of the w
        rows against the gathered operand Y[(j, i), (t, c)] = y_t[j, c - i]
        of shape (b*m) x (T*m).  The operand is built in blocks of t rows,
        each no larger than the result (one row at the least), and each
        block is one ``mul_mod``, exact while b * m * (m - 1)^2 < 2^63.  An
        m x q proj is folded into each block first: the table holds value @ proj.
        """
        b, m = np.shape(yv)[-1] // self.ring.m, self.ring.m
        q = m if proj is None else proj.shape[1]
        wm = np.atleast_2d(np.asarray(wv, dtype=np.int64)).reshape(-1, b * m)
        ym = np.atleast_2d(np.asarray(yv, dtype=np.int64)).reshape(-1, b, m)
        rows, cols = wm.shape[0], ym.shape[0]
        step = max(1, rows * cols // (b * m))
        total = np.empty((rows, cols * q), dtype=np.int64)
        for t0 in range(0, cols, step):
            # the operand's columns (t, c) for this block of t rows
            block = ym[t0:t0 + step, :, _rep_index(m)].transpose(1, 2, 0, 3)  # [i, c]: c - i
            if proj is not None:
                block = la.mul_mod(block, proj, m)
            total[:, t0 * q:(t0 + step) * q] = la.mul_mod(wm, block.reshape(b * m, -1), m)
        return total.reshape(rows, cols, q)

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Certify exactness of the sequence and its dual.

        The primal sequence is exact by construction (S and T* are derived);
        the content is the dual one at X*: the image of ell* is ann(S), and
        so X* surjects onto S*.  Read through the gamma^0 coefficient, the
        ell*(e_i) and their shifts are the columns of d, so this is
        ``la.spans_annihilator(d, S)``.  The adjunction is checked on basis pairs.
        """
        m = self.ring.m
        if not la.spans_annihilator(self.d, self.s_span):
            raise PairingError("not-exact: image of ell* differs from ann(S) at X*")
        # adjunction on basis pairs: ell*(e_j)(e_i) = ell(e_i)(e_j)
        x_basis = np.eye(self.a * m, dtype=np.int64)[::m]
        y_basis = np.eye(self.b * m, dtype=np.int64)[::m]
        lhs = self.eval_bilinear(x_basis, y_basis)
        rhs = self.eval_functional(la.mul_mod(y_basis, self.d_t, m), x_basis).transpose(1, 0, 2)
        bad = np.argwhere((lhs != rhs).any(axis=2))
        if bad.size:
            i, j = bad[0]
            raise PairingError(f"adjunction-failure at basis pair ({i}, {j})")

    # -- per-table lifts ----------------------------------------------------------------

    def _lift_chains(self, side: str, k: int, gen_exp: int, targets: np.ndarray,
                     rng: SplitMix64, draws: int) -> np.ndarray:
        """``draws`` independent lift chains per target row, shape (draws, rows, width).

        A random s~ in the kernel with (g-1)^(k-1) s~ = target, then x with
        D^(k-1) x = s~; both solves take the ``draws`` stacked copies of the
        targets in one call, so every copy gets its own kernel draw.  At k = 1
        s~ is the target, unsolved: the membership check before every table
        puts it in S_0^(1), inside S.  The norm step x N = s~ still draws.
        """
        ring = self.ring
        m = ring.m
        tilde = np.tile(targets % m, (draws, 1))
        if k > 1:
            coeffs = self._tilde_solver(side, k, gen_exp).random_solution(tilde, rng)
            if coeffs is None:
                raise AssertionError("lift-not-found: element not divisible inside the kernel")
            tilde = la.mul_mod(coeffs, self.submodule(side).num.h, m)
        x = _lift_solver(ring, tilde.shape[1] // m, k, gen_exp).random_solution(tilde, rng)
        if x is None:
            raise AssertionError("lift-not-found: derivative equation unsolvable")
        return x.reshape(draws, len(targets), -1)

    @derived
    def _tilde_solver(self, side: str, k: int, gen_exp: int) -> la.Solver:
        """Solver of c K (g-1)^(k-1) = s~ on the rows K of the kernel, g = gamma^gen_exp;
        one per key, so the symmetry table reuses the derivative-lift table's two."""
        ring, ker = self.ring, self.submodule(side).num.h
        free = self.x if side == "s" else self.y
        gm1 = ring.gamma(gen_exp) - ring.one()
        return la.Solver(la.mul_mod(ker, free.scale_matrix(gm1 ** (k - 1)), ring.m),
                         ring.p, ring.n)

    def _boc_functionals(self, k: int, s_rows: np.ndarray, rng: SplitMix64,
                         draws: int) -> np.ndarray:
        """``draws`` snake-map outputs over each s, every one after the first
        boundary-perturbed; shape (draws, rows, width)."""
        ring, m, psi = self.ring, self.ring.m, self.complex().generalized_bockstein(k)
        # a [d | N] = [0 | s] modulo the base I^k C^2: a d lies in I^k C^2 and a N = s
        rhs = np.pad(np.tile(s_rows, (draws, 1)), ((0, 0), (self.b * m, 0)))
        a = la.Solver(np.hstack([self.d, self.x.scale_matrix(ring.norm())]), ring.p, ring.n,
                      self.complex().ideal_span2(k)).random_solution(rhs, rng)
        if a is None:
            raise AssertionError("lift-not-found: no page representative above s")
        if not psi.src.num.contains(a):
            raise AssertionError("page representative escaped H^1(C/I^k C)")
        w = psi.apply(a)
        den = psi.tgt.den.h
        if den.shape[0]:
            # adding anything from the target denominator must not move
            # the evaluation: certifies the boundary-killing of the
            # identification with Hom(T_0, Q^k)
            for row in w[len(s_rows):]:
                extra = den[rng.below(den.shape[0])]
                row[:] = (row + rng.below(m) * extra) % m
        return w.reshape(draws, len(s_rows), -1)

    def _norm_preimages(self, t_rows: np.ndarray, rng: SplitMix64, draws: int) -> np.ndarray:
        """``draws`` independent norm preimages in Y of each t, shape (draws, rows, width)."""
        ys = _norm_solver(self.ring, self.b).random_solution(np.tile(t_rows, (draws, 1)), rng)
        if ys is None:
            raise AssertionError("lift-not-found: t has no norm preimage in Y")
        return ys.reshape(draws, len(t_rows), -1)

    # -- the two pairings as value tables ------------------------------------------------

    def _check_membership(self, k: int, s_rows: np.ndarray, t_rows: np.ndarray) -> None:
        """Every s row in S_0^(k) and every t row in T_0^(k), in one batch each."""
        if not 1 <= k <= self.ring.p - 1:
            raise MembershipError("pairings exist for 1 <= k <= p-1")
        if not self.piece_span("s", k).contains(s_rows):
            raise MembershipError("s is not in S_0^(k)")
        if not self.piece_span("t", k).contains(t_rows):
            raise MembershipError("t is not in T_0^(k)")

    def _audited(self, k: int, ws: np.ndarray, ys: np.ndarray, fault: str):
        """Scalars in Q^k of w_s(y_t) from the first draws, audited on any second."""
        proj = graded_projection(self.ring, k)[0]
        tables = [self.eval_functional(w, y, proj) for w, y in zip(ws, ys)]
        if any(t[:, :, 1:].any() for t in tables):
            raise AssertionError("pairing value escaped I^k")
        scalars = [t[:, :, 0] for t in tables]
        if any((s != scalars[0]).any() for s in scalars[1:]):
            raise AssertionError(fault)
        return scalars[0], (ws[0], ys[0])

    def _bd_table(self, k: int, s_rows: np.ndarray, t_rows: np.ndarray,
                  rng: SplitMix64, gen_exp: int = 1, audit: bool = True,
                  dual: bool = False):
        """Derivative-lift scalars of ell(x_s)(y_t) for every (s, t), and (ell(x_s), y_t).

        The audit recomputes the table from a second, independently drawn
        chain of every element.  ``dual`` is the table of the dual sequence
        0 -> T -> Y -> X* -> S* -> 0: the rows lift on sides 't', 's', through ell*.
        """
        sides, d = (("t", "s"), self.d_t) if dual else (("s", "t"), self.d)
        xs = self._lift_chains(sides[0], k, gen_exp, s_rows, rng, 1 + audit)
        ys = self._lift_chains(sides[1], k, gen_exp, t_rows, rng, 1 + audit)
        ws = la.mul_mod(xs, d, self.ring.m)
        return self._audited(k, ws, ys, "derivative-lift pairing depended on lift choices")

    def _boc_table(self, k: int, s_rows: np.ndarray, t_rows: np.ndarray,
                   rng: SplitMix64, audit: bool = True):
        """Bockstein scalars for every (s, t), and the functionals and norm preimages.

        The audit recomputes from an independent representative, a
        boundary-perturbed functional and a different norm preimage.
        """
        ws = self._boc_functionals(k, s_rows, rng, 1 + audit)
        ys = self._norm_preimages(t_rows, rng, 1 + audit)
        return self._audited(k, ws, ys, "Bockstein pairing depended on representative choices")

    def bd_pairing(self, k: int, s: np.ndarray, t: np.ndarray,
                   rng: Optional[SplitMix64] = None, gen_exp: int = 1,
                   audit: bool = True) -> PairingValue:
        """ell(x_s)(y_t) mod I^(k+1) via derivative-operator lifts.

        Choose s~ with (g-1)^(k-1) s~ = s inside S, then x_s with
        D^(k-1) x_s = s~ (and likewise y_t).  Every lift is drawn twice
        with independent randomness; the two computations must give the
        same class in Q^k (audit=True).  The 1x1 case of the table.
        """
        s_rows, t_rows = _rows(s), _rows(t)
        self._check_membership(k, s_rows, t_rows)
        _, first = self._bd_table(k, s_rows, t_rows, rng or SplitMix64(0), gen_exp, audit)
        return PairingValue(self.ring, k, self.ring.elt(self.eval_functional(*first)[0, 0]))

    def boc_pairing(self, k: int, s: np.ndarray, t: np.ndarray,
                    rng: Optional[SplitMix64] = None,
                    audit: bool = True) -> PairingValue:
        """Snake-map pairing through the spectral-sequence machinery.

        Finds a representative a of a class in H^1(C/I^k C) whose norm
        is s, applies the k-th generalized Bockstein, and evaluates the
        resulting functional at a norm preimage of t under the
        identification of H^2(I^k C/I^{k+1} C) with Hom(T_0, Q^k).
        The 1x1 case of the table, audited the same way.
        """
        s_rows, t_rows = _rows(s), _rows(t)
        self._check_membership(k, s_rows, t_rows)
        _, first = self._boc_table(k, s_rows, t_rows, rng or SplitMix64(0), audit)
        return PairingValue(self.ring, k, self.ring.elt(self.eval_functional(*first)[0, 0]))

    # -- comparison driver ---------------------------------------------------------------

    def compare(self, kmax: int, rng: Optional[SplitMix64] = None,
                max_card: int = 10 ** 4, audit: bool = True) -> dict:
        """Evaluate both pairings on each admissible (k, s, t).

        Enumerates all pairs when |S_0^(k)| * |T_0^(k)| stays below
        max_card, generator pairs otherwise.  Each record carries the
        two values, the equality flag, the dual-sequence symmetry flag
        and a generator-substitution flag.  Per k, every pairing is one
        value table over all (s, t) and the flags compare whole tables.
        The pieces decrease in k, so it stops at the first k where S_0^(k),
        read first (T is built only past a nonzero one), or T_0^(k) is zero,
        before that k draws: the stream is that of a loop over every k.
        """
        ring = self.ring
        rng = rng or SplitMix64(0)
        units = [u for u in range(2, ring.m) if u % ring.p]
        records = []
        ok = True
        for k in range(1, min(kmax, ring.p - 1) + 1):
            s_span = self.piece_span("s", k)  # T and its pieces only past a nonzero S_0^(k)
            if s_span.size() == 1 or (t_span := self.piece_span("t", k)).size() == 1:
                break  # the pieces decrease in k, so every later one is zero too
            if s_span.size() * t_span.size() <= max_card:
                s_rows = np.array([v for v in la.span_elements(s_span) if v.any()])
                t_rows = np.array([v for v in la.span_elements(t_span) if v.any()])
            else:
                s_rows, t_rows = np.array(s_span.h), np.array(t_span.h)
            u = units[rng.below(len(units))]  # never empty: p is odd, so 2 is a unit
            self._check_membership(k, s_rows, t_rows)
            bd, _ = self._bd_table(k, s_rows, t_rows, rng, audit=audit)
            boc, _ = self._boc_table(k, s_rows, t_rows, rng, audit=audit)
            sym, _ = self._bd_table(k, t_rows, s_rows, rng, audit=False, dual=True)
            equal, symmetric = bd == boc, sym.T == bd
            gamma_ok = self._bd_table(k, s_rows, t_rows, rng, gen_exp=u, audit=False)[0] == bd
            ok = ok and bool(equal.all() and symmetric.all() and gamma_ok.all())
            # tables become nested lists once; records share the s, t and representative lists
            rep_lists, t_lists = graded_projection(ring, k)[1].tolist(), t_rows.tolist()
            for s, *row in zip(s_rows.tolist(), *(a.tolist() for a in (
                    bd, boc, equal, symmetric, gamma_ok))):
                records += [{"k": k, "s": s, "t": t, "bd": rep_lists[v], "boc": rep_lists[c],
                             "scalar": v, "equal": e, "symmetric": y, "gamma_independent": g}
                            for t, v, c, e, y, g in zip(t_lists, *row)]
        return {"pass": ok, "records": records}


@lru_cache(maxsize=128)
def _lift_solver(ring: RingCtx, rank: int, k: int, gen_exp: int) -> la.Solver:
    """Solver of x D^(k-1) = s~ on R^rank, D for the generator gamma^gen_exp;
    D^(0) is the norm N for every generator, so k = 1 is ``_norm_solver``."""
    if k == 1:
        return _norm_solver(ring, rank)
    d = derivative_op(ring, k - 1, gen_exp)
    return la.Solver(free_module(ring, rank).scale_matrix(d), ring.p, ring.n)


@lru_cache(maxsize=128)
def _norm_solver(ring: RingCtx, rank: int) -> la.Solver:
    """Solver of y N = t on R^rank, N the norm element."""
    return la.Solver(free_module(ring, rank).scale_matrix(ring.norm()), ring.p, ring.n)


def _rows(v: np.ndarray) -> np.ndarray:
    """One element as a one-row batch."""
    return np.atleast_2d(np.asarray(v, dtype=np.int64))


def random_pairing_data(ring: RingCtx, rng: SplitMix64, max_rank: int = 3) -> PairingData:
    a = rng.below(max_rank) + 1
    b = rng.below(max_rank) + 1
    return PairingData(ring, random_ell_matrix(ring, a, b, rng))
