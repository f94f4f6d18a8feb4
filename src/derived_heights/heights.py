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
    of H^1(C/IC) with S_0 and the page projection, apply the snake map
    of the k-th filtration step, and evaluate the resulting functional
    at a norm preimage of t.

Their agreement on every admissible (k, s, t) is the headline check;
each evaluation also re-derives itself from independently drawn lifts.

Both pairings are bilinear in (s, t), so ``compare`` evaluates them as
value tables, one k at a time:

  * membership of every s and every t is one batched coset reduction
    against the filtration pieces, on the datum and on its dual;
  * each element gets its lifts (two independent draws, cached per
    element) from one ``Solver`` call on the matrix of all targets;
  * a table is one matrix product of the lifted functionals against the
    regular representations of the lifted arguments, reduced mod
    I^(k+1) over the whole batch, one pivot at a time;
  * the audit, equality, symmetry (against the transposed table of the
    dual datum) and generator-independence flags compare whole tables.

What depends on no datum is built once and shared by all: the free
modules, the derivative-operator lift solvers and the norm solver.  The
kernels, filtration pieces, complex and the solvers involving ell stay
per datum; the dual datum derives its own, for the symmetry flag.

``bd_pairing`` and ``boc_pairing`` are the 1x1 case of the same tables.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import linalg as la
from .complexes import TwoTermComplex
from .groupring import (
    GroupRingElt,
    RingCtx,
    aug_ideal_power,
    derivative_op,
    graded_scalar,
    graded_scalars,
    regular_rep,
)
from .modules import FpModule, free_module, r_matrix_expand, r_rows_from_scalar
from .rng import SplitMix64


class PairingError(ValueError):
    """Invalid pairing data; carries the offending position."""


class MembershipError(ValueError):
    """Argument outside the filtration piece it must belong to."""


def graded_classes(ring: RingCtx, k: int, raw: np.ndarray) -> np.ndarray:
    """Classes in Q^k of values in I^k: canonical representatives mod I^(k+1).

    raw holds one value per row of its last axis (any leading shape); the
    whole batch is checked and reduced in one pass over the pivots.
    """
    flat = raw.reshape(-1, ring.m)
    if aug_ideal_power(ring, k).reduce(flat).any():
        raise AssertionError("pairing value escaped I^k")
    return aug_ideal_power(ring, k + 1).reduce(flat).reshape(raw.shape)


class PairingValue:
    """Value in Q^k: a representative in I^k, compared modulo I^(k+1)."""

    __slots__ = ("ring", "k", "raw", "rep")

    def __init__(self, ring: RingCtx, k: int, raw: GroupRingElt):
        self.ring = ring
        self.k = k
        self.raw = raw
        self.rep = ring.elt(graded_classes(ring, k, raw.coeffs))

    def scalar(self) -> int:
        """Value under the normalization (gamma-1)^k -> 1 of Q^k."""
        return graded_scalar(self.ring, self.k, self.raw)

    def is_zero(self) -> bool:
        return self.rep.is_zero()

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
        self.s_span = la.kernel(self.d, ring.p, ring.n)
        self.t_span = la.kernel(self.d_t, ring.p, ring.n)
        self._complex: Optional[TwoTermComplex] = None
        self._pieces: dict[tuple[str, int], la.Span] = {}
        self._solvers: dict[tuple, la.Solver] = {}
        self._chains: dict[tuple, tuple] = {}
        self._dual: Optional[PairingData] = None

    def _solver(self, key: tuple, build) -> la.Solver:
        if key not in self._solvers:
            self._solvers[key] = la.Solver(build(), self.ring.p, self.ring.n)
        return self._solvers[key]

    @classmethod
    def from_scalar_matrix(cls, ring: RingCtx, mat: np.ndarray) -> "PairingData":
        """Build from the scalar expansion, checking it really is R-linear."""
        try:
            rows = r_rows_from_scalar(ring, mat)
        except ValueError as exc:
            raise PairingError(f"adjunction-failure: {exc}") from exc
        return cls(ring, rows)

    # -- structure ---------------------------------------------------------------

    def dual(self) -> "PairingData":
        """The dual datum 0 -> T -> Y -> X* -> S* -> 0 (transposed ell).

        Built once and kept, so validation and comparison share it.
        """
        if self._dual is None:
            rows = [[self.ell[i][j] for i in range(self.a)] for j in range(self.b)]
            self._dual = PairingData(self.ring, rows)
        return self._dual

    def complex(self) -> TwoTermComplex:
        if self._complex is None:
            self._complex = TwoTermComplex(self.x, self.y, self.d)
        return self._complex

    @cached_property
    def _submodules(self) -> dict[str, FpModule]:
        """S in X and T in Y, built once."""
        return {"s": self.x.submodule(self.s_span), "t": self.y.submodule(self.t_span)}

    def s_module(self) -> FpModule:
        return self._submodules["s"]

    def t_module(self) -> FpModule:
        return self._submodules["t"]

    def piece_span(self, side: str, k: int) -> la.Span:
        """Numerator span of S_0^(k) (side 's') or T_0^(k) (side 't'), built once."""
        key = (side, k)
        if key not in self._pieces:
            self._pieces[key] = self._submodules[side].filtration_piece(k).num
        return self._pieces[key]

    def eval_bilinear(self, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
        """Table of ell(x)(y) in R: push every x through ell, then pair."""
        w = la.mul_mod(np.atleast_2d(xv), self.d, self.ring.m)
        return self.eval_functional(w, yv)

    def eval_functional(self, wv: np.ndarray, yv: np.ndarray) -> np.ndarray:
        """Table of w(y) = sum_j w_j y_j for w in Y* (dual-basis coordinates).

        wv and yv hold one vector per row (a 1-D argument is one row); the
        result has shape (rows of wv, rows of yv, m), entry [s, t] being
        the coefficient vector of w_s(y_t) in R.  The products w_j y_j are
        cyclic convolutions, so the table is one matrix product of the w
        rows against the gathered operand Y[(j, i), (t, c)] = y_t[j, c - i]
        of shape (b*m) x (T*m).  The operand is built in blocks of t rows,
        each no larger than the result (one row at the least), and each
        block is one ``mul_mod``, exact while b * m * (m - 1)^2 < 2^63.
        """
        b, m = self.b, self.ring.m
        wm = np.atleast_2d(np.asarray(wv, dtype=np.int64)).reshape(-1, b * m)
        ym = np.atleast_2d(np.asarray(yv, dtype=np.int64)).reshape(-1, b, m)
        rows, cols = wm.shape[0], ym.shape[0]
        shift = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m  # [i, c] = c - i
        step = max(1, rows * cols // (b * m))
        total = np.empty((rows, cols * m), dtype=np.int64)
        for t0 in range(0, cols, step):
            # the operand's columns (t, c) for this block of t rows
            block = ym[t0:t0 + step, :, shift].transpose(1, 2, 0, 3).reshape(b * m, -1)
            total[:, t0 * m:(t0 + step) * m] = la.mul_mod(wm, block, m)
        return total.reshape(rows, cols, m)

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Certify exactness of the sequence and its dual.

        The primal sequence is exact by construction (S and T* are
        derived); the content is the dual sequence, equivalent to the
        annihilator of S being exactly the image of ell*, plus the order
        bookkeeping for surjectivity onto S*.
        """
        ring = self.ring
        m = ring.m
        ann = self._annihilator_of(self.s_span, self.a)
        if ann != la.Span(self.d_t, ring.p, ring.n):
            raise PairingError("not-exact: image of ell* differs from ann(S) at X*")
        if m ** (self.a * m) // ann.size() != self.s_span.size():
            raise PairingError("not-exact: X* does not surject onto S*")
        # adjunction on basis pairs: ell*(e_j)(e_i) = ell(e_i)(e_j)
        x_basis = np.eye(self.a * m, dtype=np.int64)[::m]
        y_basis = np.eye(self.b * m, dtype=np.int64)[::m]
        lhs = self.eval_bilinear(x_basis, y_basis)
        rhs = self.dual().eval_bilinear(y_basis, x_basis).transpose(1, 0, 2)
        bad = np.argwhere((lhs != rhs).any(axis=2))
        if bad.size:
            i, j = bad[0]
            raise PairingError(f"adjunction-failure at basis pair ({i}, {j})")

    def _annihilator_of(self, span: la.Span, rank: int) -> la.Span:
        """Functionals in the dual-basis model vanishing on a span in R^rank."""
        ring = self.ring
        m = ring.m
        if span.h.shape[0] == 0:
            return la.Span.whole(rank * m, ring.p, ring.n)
        blocks = []
        for srow in span.h:
            cols = np.vstack([regular_rep(ring.elt(srow[i * m:(i + 1) * m]))
                              for i in range(rank)])
            blocks.append(cols)
        return la.kernel(np.hstack(blocks), ring.p, ring.n)

    # -- per-element lifts -----------------------------------------------------------

    def _drawn_pairs(self, keys: list, targets: np.ndarray, draw) -> np.ndarray:
        """Two independent draws per element, cached per element.

        Elements not yet cached are drawn in one batch, draw(rows, False)
        and then draw(rows, True), the flag marking the second draw; the
        result stacks the two draws of every target, shape
        (2, len(targets), width).
        """
        todo: dict = {}
        for key, row in zip(keys, targets):
            if key not in self._chains:
                todo.setdefault(key, row)
        if todo:
            rows = np.array(list(todo.values()), dtype=np.int64)
            first, second = draw(rows, False), draw(rows, True)
            for j, key in enumerate(todo):
                self._chains[key] = (first[j], second[j])
        return np.stack([self._chains[key] for key in keys], axis=1)

    def _lift_chains(self, side: str, k: int, gen_exp: int,
                     targets: np.ndarray, rng: SplitMix64) -> np.ndarray:
        """Two independently drawn lift chains for each target row.

        Cached per element: the chains depend on (side, k, generator,
        element) only, so a table costs one chain per element rather
        than one per pair.
        """
        keys = [("chain", side, k, gen_exp, t.tobytes()) for t in targets]
        return self._drawn_pairs(
            keys, targets, lambda rows, _: self._one_chain(side, k, gen_exp, rows, rng))

    def _one_chain(self, side: str, k: int, gen_exp: int,
                   target: np.ndarray, rng: SplitMix64) -> np.ndarray:
        """Random s~ in ker with (g-1)^(k-1) s~ = target, then x with D x = s~.

        target is one element or one per row; each row gets its own draws.
        """
        ring = self.ring
        m = ring.m
        ker = (self.s_span if side == "s" else self.t_span).h
        free = self.x if side == "s" else self.y
        g = ring.gamma(gen_exp)
        tilde_solver = self._solver(
            ("tilde", side, k, gen_exp),
            lambda: la.mul_mod(ker, free.scale_matrix((g - ring.one()) ** (k - 1)), m),
        )
        coeffs = tilde_solver.random_solution(target, rng)
        if coeffs is None:
            raise AssertionError("lift-not-found: element not divisible inside the kernel")
        tilde = la.mul_mod(coeffs, ker, m)
        x = _lift_solver(ring, free.dim // m, k, gen_exp).random_solution(tilde, rng)
        if x is None:
            raise AssertionError("lift-not-found: derivative equation unsolvable")
        return x

    def _boc_functionals(self, k: int, s_rows: np.ndarray, rng: SplitMix64) -> np.ndarray:
        """Two snake-map outputs over each s, the second boundary-perturbed."""
        keys = [("boc", k, s.tobytes()) for s in s_rows]
        return self._drawn_pairs(
            keys, s_rows, lambda rows, perturb: self._boc_functional(k, rows, rng, perturb))

    def _boc_functional(self, k: int, s_rows: np.ndarray,
                        rng: SplitMix64, perturb: bool) -> np.ndarray:
        ring = self.ring
        m = ring.m
        psi = self.complex().generalized_bockstein(k)
        am, bm = self.a * m, self.b * m

        def build_big():
            # unknown (a, w): a d = w (I^k C^2 basis)  and  a N = s
            ik2 = self.complex().ideal_span2(k).h
            rows = ik2.shape[0]
            big = np.zeros((am + rows, bm + am), dtype=np.int64)
            big[:am, :bm] = self.d
            big[:am, bm:] = self.x.scale_matrix(ring.norm())
            if rows:
                big[am:, :bm] = (-ik2) % m
            return big

        rhs = np.zeros((s_rows.shape[0], bm + am), dtype=np.int64)
        rhs[:, bm:] = s_rows
        z = self._solver(("boc-system", k), build_big).random_solution(rhs, rng)
        if z is None:
            raise AssertionError("lift-not-found: no page representative above s")
        a = z[:, :am]
        if not psi.src.num.contains(a):
            raise AssertionError("page representative escaped H^1(C/I^k C)")
        w = psi.apply(a)
        den = psi.tgt.den.h
        if perturb and den.shape[0]:
            # adding anything from the target denominator must not move
            # the evaluation: certifies the boundary-killing of the
            # identification with Hom(T_0, Q^k)
            for row in w:
                extra = den[rng.below(den.shape[0])]
                row[:] = (row + rng.below(m) * extra) % m
        return w

    def _norm_preimages(self, t_rows: np.ndarray, rng: SplitMix64) -> np.ndarray:
        """Two independent norm preimages in Y of each t."""
        solver = _norm_solver(self.ring, self.b)

        def draw(rows, _):
            ys = solver.random_solution(rows, rng)
            if ys is None:
                raise AssertionError("lift-not-found: t has no norm preimage in Y")
            return ys

        return self._drawn_pairs([("norm-pre", t.tobytes()) for t in t_rows], t_rows, draw)

    # -- the two pairings as value tables ------------------------------------------------

    def _check_membership(self, k: int, s_rows: np.ndarray, t_rows: np.ndarray) -> None:
        """Every s row in S_0^(k) and every t row in T_0^(k), in one batch each."""
        if not 1 <= k <= self.ring.p - 1:
            raise MembershipError("pairings exist for 1 <= k <= p-1")
        if not self.piece_span("s", k).contains(s_rows):
            raise MembershipError("s is not in S_0^(k)")
        if not self.piece_span("t", k).contains(t_rows):
            raise MembershipError("t is not in T_0^(k)")

    def _bd_table(self, k: int, s_rows: np.ndarray, t_rows: np.ndarray,
                  rng: SplitMix64, gen_exp: int = 1, audit: bool = True):
        """Derivative-lift values ell(x_s)(y_t) for every (s, t): (raw, classes).

        The audit recomputes the table from the second, independently
        drawn chain of every element and requires the same classes.
        """
        xs = self._lift_chains("s", k, gen_exp, s_rows, rng)
        ys = self._lift_chains("t", k, gen_exp, t_rows, rng)
        raw = self.eval_bilinear(xs[0], ys[0])
        classes = graded_classes(self.ring, k, raw)
        if audit and (graded_classes(self.ring, k, self.eval_bilinear(xs[1], ys[1]))
                      != classes).any():
            raise AssertionError("derivative-lift pairing depended on lift choices")
        return raw, classes

    def _boc_table(self, k: int, s_rows: np.ndarray, t_rows: np.ndarray,
                   rng: SplitMix64, audit: bool = True):
        """Bockstein values for every (s, t): (raw, classes).

        The audit recomputes from an independent representative, a
        boundary-perturbed functional and a different norm preimage.
        """
        ws = self._boc_functionals(k, s_rows, rng)
        ys = self._norm_preimages(t_rows, rng)
        raw = self.eval_functional(ws[0], ys[0])
        classes = graded_classes(self.ring, k, raw)
        if audit and (graded_classes(self.ring, k, self.eval_functional(ws[1], ys[1]))
                      != classes).any():
            raise AssertionError("Bockstein pairing depended on representative choices")
        return raw, classes

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
        raw, _ = self._bd_table(k, s_rows, t_rows, rng or SplitMix64(0), gen_exp, audit)
        return PairingValue(self.ring, k, self.ring.elt(raw[0, 0]))

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
        raw, _ = self._boc_table(k, s_rows, t_rows, rng or SplitMix64(0), audit)
        return PairingValue(self.ring, k, self.ring.elt(raw[0, 0]))

    # -- comparison driver ---------------------------------------------------------------

    def compare(self, kmax: int, rng: Optional[SplitMix64] = None,
                max_card: int = 10 ** 4, audit: bool = True) -> dict:
        """Evaluate both pairings on each admissible (k, s, t).

        Enumerates all pairs when |S_0^(k)| * |T_0^(k)| stays below
        max_card, generator pairs otherwise.  Each record carries the
        two values, the equality flag, the dual-sequence symmetry flag
        and a generator-substitution flag.  Per k, every pairing is one
        value table over all (s, t) and the flags compare whole tables.
        """
        ring = self.ring
        rng = rng or SplitMix64(0)
        dual = self.dual()
        units = [u for u in range(2, ring.m) if u % ring.p]
        records = []
        ok = True
        for k in range(1, min(kmax, ring.p - 1) + 1):
            s_span = self.piece_span("s", k)
            t_span = self.piece_span("t", k)
            s_size, t_size = s_span.size(), t_span.size()
            if s_size == 1 or t_size == 1:
                continue
            if s_size * t_size <= max_card:
                s_rows = np.array([v for v in la.span_elements(s_span) if v.any()])
                t_rows = np.array([v for v in la.span_elements(t_span) if v.any()])
            else:
                s_rows, t_rows = np.array(s_span.h), np.array(t_span.h)
            u = units[rng.below(len(units))] if units else 1
            self._check_membership(k, s_rows, t_rows)
            dual._check_membership(k, t_rows, s_rows)
            _, bd = self._bd_table(k, s_rows, t_rows, rng, audit=audit)
            _, boc = self._boc_table(k, s_rows, t_rows, rng, audit=audit)
            _, sym = dual._bd_table(k, t_rows, s_rows, rng, audit=False)
            equal = (bd == boc).all(axis=2)
            symmetric = (sym.transpose(1, 0, 2) == bd).all(axis=2)
            if units:
                _, alt = self._bd_table(k, s_rows, t_rows, rng, gen_exp=u, audit=False)
                gamma_ok = (alt == bd).all(axis=2)
            else:
                gamma_ok = np.ones(equal.shape, dtype=bool)
            ok = ok and bool(equal.all() and symmetric.all() and gamma_ok.all())
            # one batched solve over the whole table; deduplicating the
            # classes first costs more than the rows it saves
            scalars = graded_scalars(ring, k, bd.reshape(-1, ring.m))
            scalars = scalars.reshape(bd.shape[:2]).tolist()
            # each table becomes nested lists once, not once per record
            bd_l, boc_l, eq_l, sym_l, gam_l, s_lists, t_lists = (
                a.tolist() for a in (bd, boc, equal, symmetric, gamma_ok, s_rows, t_rows))
            for i, s in enumerate(s_lists):
                for j, t in enumerate(t_lists):
                    records.append({
                        "k": k,
                        "s": list(s),
                        "t": list(t),
                        "bd": bd_l[i][j],
                        "boc": boc_l[i][j],
                        "scalar": scalars[i][j],
                        "equal": eq_l[i][j],
                        "symmetric": sym_l[i][j],
                        "gamma_independent": gam_l[i][j],
                    })
        return {"pass": ok, "records": records}


@lru_cache(maxsize=128)
def _lift_solver(ring: RingCtx, rank: int, k: int, gen_exp: int) -> la.Solver:
    """Solver of x D^(k-1) = s~ on R^rank, D for the generator gamma^gen_exp."""
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
