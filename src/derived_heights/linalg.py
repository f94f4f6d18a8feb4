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
  * a span travels as a ``Span``: its Howell form ``h`` (zero rows
    trimmed, each pivot a power of p, entries above a pivot reduced
    below it; read-only) together with its ring (p, n), and a
    ``CosetReducer`` built on first use, once per span.  The Howell
    form of a span is unique (Howell, "Spans in the module (Z_m)^s",
    1986), so two spans are equal exactly when their rings and Howell
    forms are; the output does not depend on which of the rows of least
    valuation is taken as a pivot, and fuzz reports are reproducible
    whatever the selection
  * ``Span(rows, p, n)`` canonicalizes arbitrary rows; a primitive whose
    result is already a Howell form (a Zassenhaus tail, a solver's
    kernel) wraps it without a second Howell form.  Only spans that are
    kept are canonicalized: containment and annihilation are decided on
    generating rows (``span.contains(rows)``), since a span contains the
    span of some rows exactly when it contains each row.  Sum, containment,
    equality and size are ``Span`` members; intersection, preimage,
    image and enumeration take ``Span`` arguments and read (p, n) off
    them.  The zero span has shape (0, cols), and every primitive
    accepts and returns it with the right width
  * ``Solver.solve``, ``Solver.random_solution`` and
    ``CosetReducer.reduce`` take a matrix of vectors, one per row, in one
    pass over the pivots; a vector is the one-row case, with no branch
  * ``span_intersect`` and ``preimage`` are one Howell form each, of
    [[a, a], [b, 0]] and [[a, I], [b, 0]] (Zassenhaus): its rows that vanish
    on the left block are already the canonical answer (Storjohann,
    "Algorithms for Matrix Canonical Forms", 2000)
  * ``howell_form`` is memoized by value (the reduced entries, shape, p
    and n) in a bounded LRU, because the same spans are canonicalized
    over and over.  Its results are shared between callers and
    read-only: writing into one raises, so a caller that needs to
    modify a span copies it first.

The Howell form is computed in one pass over the columns, in the manner
of Storjohann and Mulders ("Fast algorithms for linear algebra modulo
N", 1998): at each column the active row of least p-valuation v becomes
the pivot, one outer-product update clears the column from every other
row (and reduces the rows already placed), and for v > 0 the
annihilator row p^(n-v) * pivot row rejoins the active rows, which
gives the Howell property without a second pass.  Valuations, inverses
of unit parts and the powers of p come from per-(p, n) lookup tables
(``_tables``, one entry per residue), so a pivot step makes a fixed
number of array operations and no per-entry Python work.

Arithmetic is on int64 arrays, reduced mod p^n after every product.
A product of two reduced matrices sums terms below (p^n)^2, so it is
exact while the inner dimension times (p^n - 1)^2 stays below 2^63;
``mul_mod`` asserts that, and matrix powers go through ``mat_pow_mod``,
never through an unreduced power.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterator, Optional

import numpy as np


def mul_mod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """(a @ b) mod m, exact: both factors are reduced first.

    Each entry then sums terms below m^2, which fits int64 while
    inner * (m - 1)^2 < 2^63; that is asserted.
    """
    a, b = np.asarray(a, dtype=np.int64) % m, np.asarray(b, dtype=np.int64) % m
    assert a.shape[-1] * (m - 1) ** 2 < 1 << 63, "matrix product would overflow int64"
    return a @ b % m


def mat_pow_mod(a: np.ndarray, e: int, m: int) -> np.ndarray:
    """a^e mod m for a square matrix, by square-and-multiply (``mul_mod``)."""
    a = np.asarray(a, dtype=np.int64) % m
    out = np.eye(a.shape[0], dtype=np.int64)
    while e:
        if e & 1:
            out = mul_mod(out, a, m)
        e >>= 1
        if e:
            a = mul_mod(a, a, m)
    return out


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


@lru_cache(maxsize=16)
def _tables(p: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables for Z/p^n, indexed by the canonical residue x.

    ``val[x]`` is the p-valuation of x (``val[0] = n``), ``inv[x]`` the
    inverse mod p^n of its unit part x // p^val[x] (``inv[0] = 0``), and
    ``pw[k] = p^k`` for k = 0..n.  Read-only and shared.
    """
    m = p ** n
    pw = p ** np.arange(n + 1, dtype=np.int64)
    x = np.arange(m, dtype=np.int64)
    val = (x[:, None] % pw[None, 1:] == 0).sum(axis=1)
    inv = np.array([pow(int(u), -1, m) if u else 0 for u in x // pw[val]],
                   dtype=np.int64)
    for t in (val, inv, pw):
        t.setflags(write=False)
    return val, inv, pw


def _howell_form(a: np.ndarray, p: int, n: int) -> np.ndarray:
    """Unique Howell canonical form of the row span of ``a``, unmemoized.

    One pass over the columns.  Rows ``w[:j]`` are placed (pivots in
    increasing columns) and rows ``w[j:j + k]`` are active.  At column c
    the active row of least valuation v becomes the pivot, normalized to
    p^v; one outer-product update clears column c from the active rows
    and reduces the placed rows' entries there into [0, p^v).  If v > 0,
    p^(n-v) * pivot row joins the active rows: it is in the span, zero at
    column c, and with the other active rows it spans every element of
    the span vanishing on columns <= c, which gives the Howell property.
    """
    m = p ** n
    val, inv, pw = _tables(p, n)
    a = np.atleast_2d(np.asarray(a, dtype=np.int64)) % m
    a = a[a.any(axis=1)]
    k, cols = a.shape
    # at most one annihilator row joins per pivot, and there is at most
    # one pivot per column
    w = np.zeros((k + cols, cols), dtype=np.int64)
    w[:k] = a
    j = 0
    for c in range(cols):
        if not k:
            break
        vc = val[w[j:j + k, c]]
        i = int(vc.argmin())
        v = int(vc[i])
        if v == n:
            continue
        i += j
        row = w[i] * inv[w[i, c]] % m
        w[i] = w[j]
        w[j] = row
        q = w[:j + k, c] // pw[v]
        q[j] = 0
        # only rows with a nonzero multiplier change (few, in the sparse
        # block matrices of the group-ring layer), and only from column c
        # on, since the pivot row is zero left of it
        nz = np.flatnonzero(q)
        w[nz, c:] = (w[nz, c:] - np.multiply.outer(q[nz], row[c:])) % m
        j += 1
        k -= 1
        if v:
            ann = row * pw[n - v] % m
            if ann.any():
                w[j + k] = ann
                k += 1
    return w[:j].copy()


def _pivots_of(h: np.ndarray) -> list[tuple[int, int, int]]:
    """(row, column, entry) of each row's leading entry.

    For rows of a Howell form the entry is the pivot p^v itself.
    """
    if not h.size:  # argmax refuses a (0, 0) array
        return []
    cols = (h != 0).argmax(axis=1)
    rows = np.arange(h.shape[0])
    return list(zip(rows.tolist(), cols.tolist(), h[rows, cols].tolist()))


def span_elements(span: "Span") -> Iterator[np.ndarray]:
    """Iterate every element of the span exactly once."""
    m, h = span.m, span.h
    cols = h.shape[1]
    ranges = [m // pv for _, _, pv in _pivots_of(h)]
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


class Span:
    """A row span over Z/p^n: its Howell form ``h`` and its ring (p, n).

    Immutable and hashable.  ``h`` is read-only, equality and hash are by
    (p, n, h), and the coset reducer against the span is built on first
    use and kept, so a span is reduced against many times for the price
    of one set of pivots.
    """

    __slots__ = ("h", "p", "n", "_reducer")

    def __init__(self, rows: np.ndarray, p: int, n: int):
        """The span of arbitrary rows (a 1-D argument is one row)."""
        self._set(howell_form(rows, p, n), p, n)

    @classmethod
    def _of_howell(cls, h: np.ndarray, p: int, n: int) -> "Span":
        """Wrap h, which is already a Howell form, without canonicalizing it."""
        span = cls.__new__(cls)
        span._set(h, p, n)
        return span

    @classmethod
    def zero(cls, cols: int, p: int, n: int) -> "Span":
        return cls._of_howell(np.zeros((0, cols), dtype=np.int64), p, n)

    @classmethod
    def whole(cls, cols: int, p: int, n: int) -> "Span":
        return cls._of_howell(np.eye(cols, dtype=np.int64), p, n)

    def _set(self, h: np.ndarray, p: int, n: int) -> None:
        h.setflags(write=False)
        for name, value in (("h", h), ("p", p), ("n", n), ("_reducer", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("a Span is immutable")

    @property
    def m(self) -> int:
        return self.p ** self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return ((self.p, self.n) == (other.p, other.n) and self.h.shape == other.h.shape
                and bool((self.h == other.h).all()))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.h.shape, self.h.tobytes()))

    def __repr__(self) -> str:
        return f"Span(p={self.p}, n={self.n}, h={self.h.tolist()})"

    def __add__(self, other: "Span") -> "Span":
        """The sum of two spans over the same ring."""
        _same_ring(self, other)
        if not other.h.shape[0]:
            return self
        if not self.h.shape[0]:
            return other
        return Span(np.vstack([self.h, other.h]), self.p, self.n)

    @property
    def reducer(self) -> "CosetReducer":
        if self._reducer is None:
            object.__setattr__(self, "_reducer", CosetReducer(self.h, self.p, self.n))
        return self._reducer

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Canonical representative of v (of each row, if 2-D) modulo the span."""
        return self.reducer.reduce(v)

    def contains(self, other: "Span | np.ndarray") -> bool:
        """True iff every row of other (a span, or vectors) lies in the span."""
        if isinstance(other, Span):
            _same_ring(self, other)
            other = other.h
        return self.reducer.contains(other)

    def size(self) -> int:
        """Number of elements of the span (a power of p)."""
        return prod(self.m // pv for _, _, pv in _pivots_of(self.h))


def _same_ring(a: Span, b: Span) -> None:
    if (a.p, a.n) != (b.p, b.n):
        raise ValueError(f"spans over Z/{a.p}^{a.n} and Z/{b.p}^{b.n}")


def kernel(a: np.ndarray, p: int, n: int) -> Span:
    """The span {v : v @ a == 0}."""
    return Solver(a, p, n).ker


def _vanishing_tail(h: np.ndarray, cols: int) -> np.ndarray:
    """Right block of the rows of a Howell form that vanish on its first cols.

    By the Howell property they are the Howell form of that part of the span.
    """
    return h[int(h[:, :cols].any(axis=1).sum()):, cols:]


def _zassenhaus(top_left: np.ndarray, top_right: np.ndarray, bottom: Span) -> Span:
    """``_vanishing_tail`` of the Howell form of [[top_left, top_right], [bottom, 0]]."""
    (r, cols), s = top_left.shape, bottom.h.shape[0]
    w = np.zeros((r + s, cols + top_right.shape[1]), dtype=np.int64)
    w[:r, :cols], w[:r, cols:], w[r:, :cols] = top_left, top_right, bottom.h
    p, n = bottom.p, bottom.n
    return Span._of_howell(_vanishing_tail(howell_form(w, p, n), cols), p, n)


def preimage(a: np.ndarray, b: Span) -> Span:
    """The span {v : v @ a lies in b}.

    The rows of [[a, I], [b, 0]] span the pairs (v @ a + w, v) with w in
    b; those zero on the left block are exactly the v.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    return _zassenhaus(a, np.eye(a.shape[0], dtype=np.int64), b)


def span_intersect(a: Span, b: Span) -> Span:
    """The intersection of two spans over the same ring.

    Zassenhaus's construction: the rows of [[a, a], [b, 0]] span the
    pairs (x @ a + y @ b, x @ a); those zero on the left block carry
    x @ a = -(y @ b), which is every element of the intersection.
    """
    _same_ring(a, b)
    return _zassenhaus(a.h, a.h, b)


def image_span(span: Span, a: np.ndarray) -> Span:
    """The span {v @ a : v in span}."""
    if span.h.shape[0] == 0:
        return Span.zero(a.shape[1], span.p, span.n)
    return Span(mul_mod(span.h, a, span.m), span.p, span.n)


def check_accumulation(terms: int, m: int) -> None:
    """Assert that a residue plus ``terms`` products of residues mod m fits int64.

    The batched loops of ``CosetReducer.reduce`` and ``Solver.solve`` add
    one product per pivot to a reduced entry and reduce once, at the end.
    """
    assert terms * (m - 1) ** 2 + m < 1 << 63, "batched reduction would overflow int64"


class CosetReducer:
    """Canonical coset reduction against one fixed Howell form (``Span.reducer``).

    Constant on cosets: the entry at each pivot column ends up in
    [0, p^v), so ``reduce(v)`` is zero exactly when v lies in the span.
    The rows of a 2-D argument are reduced in one pass over the pivots; a
    1-D argument is the one-row case.
    """

    __slots__ = ("p", "n", "m", "h", "pivots")

    def __init__(self, h: np.ndarray, p: int, n: int):
        self.p, self.n, self.m = p, n, p ** n
        self.h = h
        self.pivots = _pivots_of(h)
        check_accumulation(len(self.pivots), self.m)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        m = self.m
        v = np.asarray(v, dtype=np.int64)
        out = np.atleast_2d(v) % m
        for i, col, pv in self.pivots:
            # entries stay congruent mod m, so the quotients are read off
            # the reduced pivot column and the rows are reduced once, at the end
            q = out[:, col] % m // pv
            if q.any():
                out -= q[:, None] * self.h[i]
        return (out % m).reshape(v.shape)

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
        # rows with a pivot in the a-part come first; the rest are the kernel
        self.ker = Span._of_howell(_vanishing_tail(self.h, self.cols), p, n)
        self.pivots = _pivots_of(self.h[: self.h.shape[0] - self.ker.h.shape[0], : self.cols])
        check_accumulation(len(self.pivots), self.m)

    def solve(self, b: np.ndarray) -> Optional[np.ndarray]:
        """A solution v of v @ a == b, or None if there is none.

        For a 2-D b (one target per row) this solves the matrix equation
        V @ a == b in one pass over the pivots: row i of V solves row i
        of b, and the result is None if any row has no solution.  A 1-D b
        is the one-row case and gives a 1-D v.
        """
        m = self.m
        b = np.asarray(b, dtype=np.int64)
        resid = np.atleast_2d(b) % m
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
        return None if (resid % m).any() else (x % m).reshape(b.shape[:-1] + (self.rows,))

    def random_solution(self, b: np.ndarray, rng) -> Optional[np.ndarray]:
        """``solve`` plus a uniformly random kernel element per target row.

        Draws are one block, per target row, then per kernel row, so a 2-D b
        consumes the stream exactly as solving its rows one by one does.
        """
        v = self.solve(b)
        if v is None:
            return None
        rows = np.atleast_2d(v)  # a view: v is updated in place
        shape = (rows.shape[0], self.ker.h.shape[0])
        coeffs = rng.below_many(self.m, shape[0] * shape[1]).reshape(shape)
        rows[:] = (rows + coeffs @ self.ker.h) % self.m
        return v
