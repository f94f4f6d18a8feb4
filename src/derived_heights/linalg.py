"""Exact linear algebra over the residue rings Z/p^n.

Z/p^n is a chain ring: every nonzero element is a unit times a power of
p.  Row spans of matrices over it therefore admit a unique canonical
form, the Howell normal form, which this module computes together with
the operations built on it: kernels, solving, span arithmetic, coset
reduction and exhaustive span enumeration.  Everything downstream
(group-ring modules, spectral sequences, pairings) reduces to these
primitives.  There is one solver, ``Solver`` (``kernel`` is its
solution kernel), and one coset reducer, ``CosetReducer`` (membership
tests go through it).

Conventions used throughout the package:

  * vectors are rows; matrices act on the right, ``y = v @ A``
  * "span" of a matrix means the set of Z/p^n-combinations of its rows
  * spans are kept in Howell form: zero rows trimmed, each pivot a
    power of p, entries above a pivot reduced below it; equality of
    spans is equality of Howell forms
  * pivot selection is leftmost column, minimal p-valuation, lowest row
    index on ties (deterministic, so fuzz reports are reproducible)
  * every primitive accepts empty spans, shape (0, cols), and returns
    them with the right width, so callers do not guard the empty case
  * ``Solver.solve``, ``Solver.random_solution`` and
    ``CosetReducer.reduce`` take one vector or a matrix of them, one per
    row; a matrix is processed in one pass over the pivots
  * ``howell_form`` is memoized by value (the reduced entries, shape, p
    and n) in a bounded LRU, because the same spans are canonicalized
    over and over.  Its results are shared between callers and
    read-only: writing into one raises, so a caller that needs to
    modify a span copies it first.

Arithmetic is on int64 arrays, reduced mod p^n after every product.
A product of two reduced matrices sums terms below (p^n)^2, so it is
exact while the inner dimension times (p^n - 1)^2 stays below 2^63;
matrix powers go through ``mat_pow_mod``, never through an unreduced
power.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

import numpy as np


def valuation(x: int, p: int, n: int) -> int:
    """p-adic valuation of the canonical residue x; val(0) = n."""
    if x % p ** n == 0:
        return n
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _as_rows(a: np.ndarray, m: int) -> list[np.ndarray]:
    a = np.atleast_2d(np.asarray(a, dtype=np.int64)) % m
    return [a[i].copy() for i in range(a.shape[0]) if a[i].any()]


def empty_span(cols: int) -> np.ndarray:
    return np.zeros((0, cols), dtype=np.int64)


def identity_span(cols: int) -> np.ndarray:
    return np.eye(cols, dtype=np.int64)


def mat_pow_mod(a: np.ndarray, e: int, m: int) -> np.ndarray:
    """a^e mod m for a square matrix, by square-and-multiply.

    Reduces after every product, so each product sums terms below m^2;
    that is exact while dim * (m - 1)^2 < 2^63.
    """
    a = np.asarray(a, dtype=np.int64) % m
    dim = a.shape[0]
    assert dim * (m - 1) ** 2 < 1 << 63, "matrix product would overflow int64"
    out = np.eye(dim, dtype=np.int64)
    while e:
        if e & 1:
            out = (out @ a) % m
        e >>= 1
        if e:
            a = (a @ a) % m
    return out


def _echelon(rows: list[np.ndarray], cols: int, p: int, n: int):
    """Row echelon over Z/p^n.

    Returns (placed, pivots) where pivots[i] = (col, val) and placed[i]
    has its pivot normalized to p^val, zeros in earlier pivot columns.
    """
    m = p ** n
    active = [r for r in rows if r.any()]
    placed: list[np.ndarray] = []
    pivots: list[tuple[int, int]] = []
    for col in range(cols):
        if not active:
            break
        best = -1
        best_v = n + 1
        for i, r in enumerate(active):
            e = int(r[col])
            if e == 0:
                continue
            v = valuation(e, p, n)
            if v < best_v:
                best_v, best = v, i
        if best < 0:
            continue
        row = active.pop(best)
        v = best_v
        unit = int(row[col]) // p ** v
        row = (row * pow(unit, -1, m)) % m  # pivot now exactly p^v
        pv = p ** v
        for i, r in enumerate(active):
            e = int(r[col])
            if e:
                active[i] = (r - (e // pv) * row) % m
        active = [r for r in active if r.any()]
        placed.append(row)
        pivots.append((col, v))
    return placed, pivots


# Spans kept by the Howell memo; a constant, not a setting.  On the
# spectral benchmark 256 entries give most of the speed-up of 4096 (11.8
# against 13.6 trials/s) for +1 MB of peak memory instead of +26 MB.
HOWELL_MEMO_SIZE = 256


def howell_form(a: np.ndarray, p: int, n: int) -> np.ndarray:
    """Unique Howell canonical form of the row span of ``a`` (read-only).

    Memoized by value; the result is shared with every other caller that
    asks for the same span, so it cannot be written to.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64)) % (p ** n)
    return _howell_memo(a.tobytes(), a.shape, p, n)


@lru_cache(maxsize=HOWELL_MEMO_SIZE)
def _howell_memo(key: bytes, shape: tuple[int, ...], p: int, n: int) -> np.ndarray:
    h = _howell_form(np.frombuffer(key, dtype=np.int64).reshape(shape), p, n)
    h.setflags(write=False)
    return h


def _howell_form(a: np.ndarray, p: int, n: int) -> np.ndarray:
    """Unique Howell canonical form of the row span of ``a``, unmemoized.

    Idempotent; zero rows trimmed.  The Howell property (for every j,
    span elements vanishing on the first j coordinates are spanned by
    the rows vanishing there) is obtained by repeatedly adjoining the
    annihilator multiple p^(n-v) * row of every non-unit pivot row and
    re-reducing until the echelon stabilizes.
    """
    m = p ** n
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    cols = a.shape[1]
    placed, pivots = _echelon(_as_rows(a, m), cols, p, n)
    while True:
        extra = []
        for row, (_, v) in zip(placed, pivots):
            if v > 0:
                ann = (row * p ** (n - v)) % m
                if ann.any():
                    extra.append(ann)
        if not extra:
            break
        new_placed, new_pivots = _echelon(placed + extra, cols, p, n)
        if new_pivots == pivots and all(
            (x == y).all() for x, y in zip(new_placed, placed)
        ):
            break
        placed, pivots = new_placed, new_pivots
    # reduce entries above each pivot into [0, p^v)
    for i, (col, v) in enumerate(pivots):
        pv = p ** v
        for j in range(i):
            q = int(placed[j][col]) // pv
            if q:
                placed[j] = (placed[j] - q * placed[i]) % m
    if not placed:
        return empty_span(cols)
    return np.array(placed, dtype=np.int64)


def _pivots_of(h: np.ndarray, p: int, n: int) -> list[tuple[int, int]]:
    """(column, valuation) of each row's leading entry; h in Howell form."""
    out = []
    for i in range(h.shape[0]):
        nz = np.nonzero(h[i])[0]
        col = int(nz[0])
        out.append((col, valuation(int(h[i][col]), p, n)))
    return out


def span_size(h: np.ndarray, p: int, n: int) -> int:
    """Number of elements of the span (a power of p); h in Howell form."""
    size = 1
    for _, v in _pivots_of(h, p, n):
        size *= p ** (n - v)
    return size


def span_elements(h: np.ndarray, p: int, n: int) -> Iterator[np.ndarray]:
    """Iterate every element of the span exactly once; h in Howell form."""
    m = p ** n
    cols = h.shape[1]
    ranges = [p ** (n - v) for _, v in _pivots_of(h, p, n)]
    idx = [0] * len(ranges)
    while True:
        acc = np.zeros(cols, dtype=np.int64)
        for c, r in zip(idx, h):
            if c:
                acc = (acc + c * r) % m
        yield acc
        k = len(idx) - 1
        while k >= 0:
            idx[k] += 1
            if idx[k] < ranges[k]:
                break
            idx[k] = 0
            k -= 1
        if k < 0:
            return


def span_sum(a: np.ndarray, b: np.ndarray, p: int, n: int) -> np.ndarray:
    return howell_form(np.vstack([a, b]), p, n)


def spans_equal(a: np.ndarray, b: np.ndarray, p: int, n: int) -> bool:
    ha, hb = howell_form(a, p, n), howell_form(b, p, n)
    return ha.shape == hb.shape and (ha == hb).all()


def span_contains(a: np.ndarray, b: np.ndarray, p: int, n: int) -> bool:
    """True iff span(b) is contained in span(a)."""
    reducer = CosetReducer(howell_form(a, p, n), p, n)
    return all(reducer.contains(row) for row in b)


def kernel(a: np.ndarray, p: int, n: int) -> np.ndarray:
    """Howell basis of {v : v @ a == 0}."""
    return Solver(a, p, n).ker


def preimage(a: np.ndarray, bspan: np.ndarray, p: int, n: int) -> np.ndarray:
    """Howell basis of {v : v @ a lies in span(bspan)}."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    r = a.shape[0]
    if bspan.shape[0] == 0:
        return kernel(a, p, n)
    k = kernel(np.vstack([a, bspan]), p, n)
    if k.shape[0] == 0:
        return empty_span(r)
    return howell_form(k[:, :r], p, n)


def span_intersect(a: np.ndarray, b: np.ndarray, p: int, n: int) -> np.ndarray:
    """Howell basis of span(a) intersected with span(b)."""
    cols = a.shape[1]
    if a.shape[0] == 0 or b.shape[0] == 0:
        return empty_span(cols)
    k = kernel(np.vstack([a, b]), p, n)
    if k.shape[0] == 0:
        return empty_span(cols)
    x = (k[:, : a.shape[0]] @ a) % (p ** n)
    return howell_form(x, p, n)


def image_span(basis: np.ndarray, a: np.ndarray, p: int, n: int) -> np.ndarray:
    """Howell basis of {v @ a : v in span(basis)}."""
    if basis.shape[0] == 0:
        return empty_span(a.shape[1])
    return howell_form((basis @ a) % (p ** n), p, n)


class CosetReducer:
    """Canonical coset reduction against one fixed Howell span.

    Constant on cosets: the entry at each pivot column ends up in
    [0, p^v), so ``reduce(v)`` is zero exactly when v lies in the span.
    A 2-D argument is reduced row by row in one pass over the pivots.
    """

    __slots__ = ("p", "n", "m", "h", "pivots")

    def __init__(self, h: np.ndarray, p: int, n: int):
        self.p, self.n, self.m = p, n, p ** n
        self.h = h
        self.pivots = [(i, col, p ** v) for i, (col, v) in enumerate(_pivots_of(h, p, n))]

    def reduce(self, v: np.ndarray) -> np.ndarray:
        m = self.m
        out = np.asarray(v, dtype=np.int64) % m
        if out.ndim == 1:
            # one vector: scalar quotients, a row operation only where needed
            for i, col, pv in self.pivots:
                q = int(out[col]) // pv
                if q:
                    out = (out - q * self.h[i]) % m
            return out
        for i, col, pv in self.pivots:
            # entries stay congruent mod m, so the quotients are read off
            # the reduced pivot column and the rows are reduced once, at the end
            q = out[:, col] % m // pv
            if q.any():
                out -= q[:, None] * self.h[i]
        return out % m

    def contains(self, v: np.ndarray) -> bool:
        """True iff v (every row of v, if 2-D) lies in the span."""
        return not self.reduce(v).any()


class Solver:
    """Repeated solving of v @ a == b for one fixed a.

    Factors the Howell form of [a | I] once; each solve is then a single
    reduction pass, for one target or a whole matrix of them.  Used by the
    pairing tables, which lift every element of a filtration piece against
    the same handful of matrices in one call.
    """

    __slots__ = ("p", "n", "m", "rows", "cols", "h", "pivots", "ker")

    def __init__(self, a: np.ndarray, p: int, n: int):
        a = np.atleast_2d(np.asarray(a, dtype=np.int64))
        self.p, self.n, self.m = p, n, p ** n
        self.rows, self.cols = a.shape
        aug = np.hstack([a % self.m, np.eye(self.rows, dtype=np.int64)])
        self.h = howell_form(aug, p, n)
        self.pivots = []
        ker_rows = []
        for i in range(self.h.shape[0]):
            u = self.h[i, : self.cols]
            if u.any():
                col = int(np.nonzero(u)[0][0])
                self.pivots.append((i, col, p ** valuation(int(u[col]), p, n)))
            else:
                ker_rows.append(self.h[i, self.cols:])
        self.ker = (
            howell_form(np.array(ker_rows), p, n) if ker_rows else empty_span(self.rows)
        )

    def solve(self, b: np.ndarray) -> Optional[np.ndarray]:
        """A solution v of v @ a == b, or None if there is none.

        For a 2-D b (one target per row) this solves the matrix equation
        V @ a == b in one pass over the pivots: row i of V solves row i
        of b, and the result is None if any row has no solution.
        """
        m = self.m
        resid = np.asarray(b, dtype=np.int64) % m
        if resid.ndim == 1:
            # one target: scalar quotients, a row operation only where needed
            x = np.zeros(self.rows, dtype=np.int64)
            for i, col, pv in self.pivots:
                e = int(resid[col])
                if e % pv:
                    return None
                q = e // pv
                if q:
                    resid = (resid - q * self.h[i, : self.cols]) % m
                    x = (x + q * self.h[i, self.cols:]) % m
            return None if resid.any() else x
        x = np.zeros((resid.shape[0], self.rows), dtype=np.int64)
        for i, col, pv in self.pivots:
            # entries stay congruent mod m; reduced once, at the end
            e = resid[:, col] % m
            if (e % pv).any():
                return None
            q = e // pv
            if q.any():
                resid -= q[:, None] * self.h[i, : self.cols]
                x += q[:, None] * self.h[i, self.cols:]
        return None if (resid % m).any() else x % m

    def random_solution(self, b: np.ndarray, rng) -> Optional[np.ndarray]:
        """``solve`` plus a uniformly random kernel element per target row.

        Draws are made per target row, then per kernel row, so a 2-D b
        consumes the stream exactly as solving its rows one by one does.
        """
        v = self.solve(b)
        if v is None:
            return None
        rows = np.atleast_2d(v)  # a view: v is updated in place
        shape = (rows.shape[0], self.ker.shape[0])
        coeffs = np.array([rng.below(self.m) for _ in range(shape[0] * shape[1])],
                          dtype=np.int64).reshape(shape)
        rows[:] = (rows + coeffs @ self.ker) % self.m
        return v
