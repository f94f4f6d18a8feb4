"""Exact linear algebra over the residue rings Z/p^n.

Z/p^n is a chain ring: every nonzero element is a unit times a power of
p.  Row spans of matrices over it therefore admit a unique canonical
form, the Howell normal form, which this module computes together with
the operations built on it: kernels, solving, span arithmetic, coset
reduction and exhaustive span enumeration.  Everything downstream
(group-ring modules, spectral sequences, pairings) reduces to these
primitives.  There is one pivot loop, ``CosetReducer.reduce``:
membership tests go through it, and so does every solve, since solving
v @ a == b modulo a span B is the reduction of [b | 0] by the Howell form of
[[a, I], [B, 0]] (``Solver``; ``kernel`` and ``preimage`` are its kernel).

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
    span of some rows exactly when it contains each row; a span handed its
    own ``h``, or itself, holds it with no reduction (an identity test, not
    an equality test).  Sum, containment,
    equality and size are ``Span`` members; intersection, preimage,
    image and enumeration take ``Span`` arguments and read (p, n) off
    them.  A sum is the Howell form of the smaller summand's rows on the
    larger summand as its base (below).  The zero span has shape (0, cols),
    and every primitive accepts and returns it with the right width
  * ``Solver.solve``, ``Solver.random_solution`` and
    ``CosetReducer.reduce`` take a matrix of vectors, one per row; a
    vector is the one-row case, with no branch.  A pivot 1 has a column
    that is zero in every other row of a Howell form, so its quotient is
    the vector's own entry there: the pivots are split once, when the
    reducer is built, and every unit pivot is taken in one ``mul_mod``
    product; only the non-unit pivots are walked in order (none at n = 1).
    The result is the same as a walk over every pivot
  * ``span_intersect`` and ``preimage`` are one Howell form each, of
    [[a, a], [b, 0]] (Zassenhaus) and a ``Solver``'s [[a, I], [b, 0]], on b
    (the larger span, by rows and then size, for an intersection): its rows
    that vanish on the left block are already the canonical answer
    (Storjohann, "Algorithms for Matrix Canonical Forms", 2000), a (the
    whole ambient) when b's reduction clears a.  An image plus a span has
    that span as its base.  An intersection (a sum) with the whole ambient,
    a square Howell form with unit diagonal, is the other span (the whole),
    and one with the zero span is the zero span (the other), with no Howell form
  * ``howell_form`` keeps nothing: each span is built once by the object
    that owns it (a complex, a module, a pairing datum), not looked up by
    value.  Its results are read-only, as a span's rows are shared by
    every object that holds the span: writing into one raises, so a
    caller that needs to modify a span copies it first.

The Howell form is computed in one pass over the columns, in the manner
of Storjohann and Mulders ("Fast algorithms for linear algebra modulo
N", 1998): at each column the active row of least p-valuation v becomes
the pivot, one in-place outer-product update clears the column from the
active rows and from the rows already placed, and for v > 0 the
annihilator row p^(n-v) * pivot row rejoins the active rows, which
gives the Howell property without a second pass.  A base, a span whose
Howell form (padded with zero columns) heads the generating set, reduces
the new rows before the call (``_on_base``), zeroing them at its unit
pivots' columns; if all vanish, the base is the span, with no form.  Its
unit-pivot rows start out placed, and no step visits their columns: active
rows are zero there, and so are updates and annihilators, made of active rows.
Reduction is deferred: between steps the entries are only congruent mod
p^n, the pivot column is reduced as it is read and the placed rows once, at the
end.  An entry takes at most one update per column, so it stays below
p^n + cols * (p^n - 1)^2, and ``check_accumulation`` asserts that this
bound times a unit inverse (a pivot row is scaled unreduced) fits int64.
Valuations, inverses of unit parts and the powers of p come from
per-(p, n) lookup tables (``_tables``, one entry per residue).

Arithmetic is on int64 arrays, reduced mod p^n after every product.
``mul_mod``, the one product, takes its factors reduced by contract
(every entry in (-p^n, p^n)) and does not reduce them: stored matrices
are reduced when built, ``modules.contract``'s signed gather stays
inside, and ``groupring.convolve`` and ``spans_annihilator`` reduce
their caller arrays once.  Each entry then sums terms of size at most
(p^n - 1)^2, exact while the inner dimension times (p^n - 1)^2 stays
below 2^63; ``mul_mod`` asserts that, and the tier-1 tests check the
contract on every product (``tests/conftest.py``).  Matrix powers go
through ``mat_pow_mod``, never through an unreduced power.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Optional

import numpy as np


def mul_mod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """(a @ b) mod m for factors reduced by contract (every entry |x| < m; not
    reduced here): exact while inner * (m - 1)^2 < 2^63, which is asserted."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
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


# Above this many entries a Howell step updates only the rows with a
# nonzero multiplier: the wide block matrices of (7,2), 2-8% nonzero, took
# three times as long with every row updated; below it the gather costs more.
HOWELL_GATHER_ENTRIES = 4096


def howell_form(a: np.ndarray, p: int, n: int, base: Optional["Span"] = None) -> np.ndarray:
    """Unique Howell canonical form of the row span of ``a``, plus ``base`` (read-only).

    One pass over the columns, with deferred reduction (module docstring).
    Rows ``w[:j]`` are placed (pivots in increasing columns) and rows
    ``w[j:j + k]`` are active.  At column c the active row of least
    valuation v becomes the pivot, normalized to p^v; one in-place
    outer-product update clears column c from the active rows and takes
    the placed rows' entries there into [0, p^v) mod p^n.  If v > 0,
    p^(n-v) * pivot row joins the active rows: it is in the span, zero at
    column c, and with the other active rows it spans every element of
    the span vanishing on columns <= c, which gives the Howell property.
    A column zero on every active row is skipped with the run after it.
    A base, no wider than ``a`` and padded with zero columns, has its unit-pivot
    rows placed (their columns skipped) and its other rows active, ``a`` reduced
    by it (``_on_base``); the placed rows are sorted by pivot column at the end.
    """
    m = p ** n
    a = np.atleast_2d(np.asarray(a, dtype=np.int64)) % m
    a = a[a.any(axis=1)]
    placed = rest = a[:0, :0]
    free = np.arange(a.shape[1] + 1)  # free[c]: the first column >= c no base unit pivot holds
    if base is not None:
        r = base.reducer
        placed, rest = r.unit_rows, r.h[[i for i, _, _ in r.pivots]]
        free[r.unit_cols] = a.shape[1]
    free = np.minimum.accumulate(free[::-1])[::-1].tolist()
    j, k, cols = len(placed), len(rest) + len(a), a.shape[1]
    check_accumulation(cols * m, m)  # deferred entries times a unit inverse
    val, inv, pw = _tables(p, n)
    # at most one annihilator row joins per pivot, and there is at most
    # one pivot per column
    w = np.zeros((j + k + cols, cols), dtype=np.int64)
    w[:j, :placed.shape[1]], w[j:j + len(rest), :rest.shape[1]] = placed, rest
    w[j + len(rest):j + k] = a
    c = free[0]
    while k and c < cols:
        col = w[:j + k, c] % m
        vc = val[col[j:]]
        i = int(vc.argmin())
        v = int(vc[i])
        if v == n:
            live = (w[j:j + k, c + 1:] % m).max(axis=0).nonzero()[0]
            if not live.size:
                break
            c += 1 + int(live[0])
            continue
        i += j
        row = w[i] * inv[col[i]] % m
        if i != j:
            w[i], col[i] = w[j], col[j]
        w[j], col[j] = row, 0
        q, blk = col // pw[v] if v else col, w[:j + k, c:]
        if blk.size > HOWELL_GATHER_ENTRIES:
            nz = q.nonzero()[0]
            blk[nz] -= np.multiply.outer(q[nz], row[c:])
        else:
            blk -= np.multiply.outer(q, row[c:])
        j, k, c = j + 1, k - 1, free[c + 1]
        if v:
            ann = row * pw[n - v] % m
            if ann.any():
                w[j + k] = ann
                k += 1
    h = w[:j] % m
    if base is not None and j:
        h = h[(h != 0).argmax(axis=1).argsort()]
    h.setflags(write=False)
    return h


def _pivot_entries(h: np.ndarray) -> np.ndarray:
    """Each row's leading entry: in a Howell form, its pivot p^v."""
    rows = np.arange(h.shape[0])
    return h[rows, (h != 0).argmax(axis=1)] if h.size else rows


def span_elements(span: "Span") -> Iterator[np.ndarray]:
    """Every element of the span exactly once: row i of the Howell form takes
    the coefficients 0 .. m/pivot - 1, the last row's fastest."""
    m, h = span.m, span.h
    ranges = (m // _pivot_entries(h)).tolist()
    coeffs = np.array(list(product(*map(range, ranges))), dtype=np.int64)
    return iter(mul_mod(coeffs, h, m))


class Span:
    """A row span over Z/p^n: its Howell form ``h`` and its ring (p, n).

    Immutable and hashable.  ``h`` is read-only, equality and hash are by
    (p, n, h), and the coset reducer against the span and its size are
    computed on first use and kept, so a span is reduced against and
    sized many times for the price of one set of pivots.
    """

    __slots__ = ("h", "p", "n", "_reducer", "_size")

    def __init__(self, rows: np.ndarray, p: int, n: int, base: Optional["Span"] = None):
        """The span of arbitrary rows (a 1-D argument is one row), plus ``base``."""
        if base is not None:
            rows = _on_base(rows, p, n, base)
            if not rows.any():
                self._set(base.h, p, n, base.reducer, base._size)
                return
        self._set(howell_form(rows, p, n, base), p, n)

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

    def _set(self, h: np.ndarray, p: int, n: int, reducer=None, size=None) -> None:
        h.setflags(write=False)
        for name, value in zip(self.__slots__, (h, p, n, reducer, size)):
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
        """The sum of two spans over the same ring; a whole or zero summand decides it."""
        _same_ring(self, other)
        if _is_whole(self) or not other.h.shape[0]:
            return self
        if _is_whole(other) or not self.h.shape[0]:
            return other
        base, rows = (self, other) if len(self.h) >= len(other.h) else (other, self)
        return Span(rows.h, self.p, self.n, base)

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
        return other is self.h or self.reducer.contains(other)

    def size(self) -> int:
        """Number of elements of the span: p^(n * rows - the sum of the pivot valuations)."""
        if self._size is None:
            v = int(_tables(self.p, self.n)[0][_pivot_entries(self.h)].sum())
            object.__setattr__(self, "_size", self.p ** (self.n * len(self.h) - v))
        return self._size


def _same_ring(a: Span, b: Span) -> None:
    if (a.p, a.n) != (b.p, b.n):
        raise ValueError(f"spans over Z/{a.p}^{a.n} and Z/{b.p}^{b.n}")


def kernel(a: np.ndarray, p: int, n: int) -> Span:
    """The span {v : v @ a == 0}."""
    return Solver(a, p, n).ker


def spans_annihilator(cols: np.ndarray, span: Span) -> bool:
    """True iff the columns of ``cols``, as functionals, span the annihilator of the span:
    they kill its rows (one product), and |Span(cols^T)| * |span| = m^rows, as
    Z/p^n is self-injective (the annihilator has m^rows / |span| elements)."""
    cols = np.asarray(cols, dtype=np.int64) % span.m
    return (not mul_mod(span.h, cols, span.m).any()
            and Span(cols.T, span.p, span.n).size() * span.size() == span.m ** len(cols))


def _vanishing_tail(h: np.ndarray, cols: int) -> np.ndarray:
    """Right block of the rows of a Howell form that vanish on its first cols.

    By the Howell property they are the Howell form of that part of the span.
    """
    return h[int(h[:, :cols].any(axis=1).sum()):, cols:]


def _on_base(rows: np.ndarray, p: int, n: int, base: Span) -> np.ndarray:
    """The rows (2-D) reduced by ``base``, a span over Z/p^n of their width:
    the new rows of a Howell form on that base, zero where it holds them."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    if (base.p, base.n, base.h.shape[1]) != (p, n, rows.shape[1]):
        raise ValueError(f"a base over Z/{base.p}^{base.n} of width {base.h.shape[1]} "
                         f"for rows over Z/{p}^{n} of width {rows.shape[1]}")
    return base.reduce(rows)


def _zassenhaus(a: Span, b: Span) -> Span:
    """``_vanishing_tail`` of the Howell form of [[a, a], [b, 0]], on ``b`` as its
    base: ``a`` itself when b holds every row of a."""
    left = _on_base(a.h, b.p, b.n, b)
    if not left.any():
        return a
    h = howell_form(np.hstack([left, a.h]), b.p, b.n, b)
    return Span._of_howell(_vanishing_tail(h, left.shape[1]), b.p, b.n)


def preimage(a: np.ndarray, b: Span) -> Span:
    """The span {v : v @ a lies in b}: the kernel of a ``Solver`` on the base b."""
    return Solver(a, b.p, b.n, b).ker


def span_intersect(a: Span, b: Span) -> Span:
    """The intersection of two spans over the same ring.

    Zassenhaus's construction: the rows of [[a, a], [b, 0]] span the
    pairs (x @ a + y @ b, x @ a); those zero on the left block carry
    x @ a = -(y @ b), which is every element of the intersection.
    """
    _same_ring(a, b)
    if _is_whole(a) or not b.h.shape[0]:
        return b
    if _is_whole(b) or not a.h.shape[0]:
        return a
    a, b = sorted((a, b), key=lambda span: (len(span.h), span.size()))  # the larger, b, is the base
    return _zassenhaus(a, b)


def _is_whole(span: Span) -> bool:
    """True iff the span is its whole ambient: a square Howell form with unit diagonal.

    Its pivots then lie on the diagonal, and entries above a pivot 1 are 0.
    """
    h = span.h
    return h.shape[0] == h.shape[1] and bool((h.diagonal() == 1).all())


def image_span(span: Span, a: np.ndarray, plus: Optional[Span] = None) -> Span:
    """The span {v @ a : v in span}, plus the span ``plus`` (the base) in the same Howell form."""
    return Span(mul_mod(span.h, a, span.m), span.p, span.n, plus)


def check_accumulation(terms: int, m: int) -> None:
    """Assert that a residue plus ``terms`` products of residues mod m fits int64.

    The batched loop of ``CosetReducer.reduce`` (which every solve goes
    through) adds one product per pivot, and ``howell_form`` one per
    column, then reduce once.
    """
    assert terms * (m - 1) ** 2 + m < 1 << 63, "batched reduction would overflow int64"


def _split_pivots(h: np.ndarray):
    """The pivots of the rows of h, split by unit.

    Returns the unit pivots' columns and rows of h, and the other pivots
    as (row, column, entry), in order.  In a Howell form the column of a
    pivot 1 is zero in every other row: the rows below are zero left of
    their pivots, and the entries above are reduced below 1.  So no other
    pivot's row changes that entry, and the quotient there is the
    vector's own entry, whatever the order.
    """
    rows = np.arange(h.shape[0])
    cols = (h != 0).argmax(axis=1) if rows.size else rows
    entries = h[rows, cols]
    unit = entries == 1
    other = ~unit
    return cols[unit], h[unit], list(zip(rows[other].tolist(), cols[other].tolist(),
                                         entries[other].tolist()))


class CosetReducer:
    """Canonical coset reduction against one fixed Howell form (``Span.reducer``).

    Constant on cosets: the entry at each pivot column ends up in
    [0, p^v), so ``reduce(v)`` is zero exactly when v lies in the span.
    The rows of a 2-D argument are reduced together: one product against
    all the unit pivots' rows, then a walk over the other pivots (there
    are none at n = 1).  A 1-D argument is the one-row case.
    """

    __slots__ = ("p", "n", "m", "h", "unit_cols", "unit_rows", "pivots")

    def __init__(self, h: np.ndarray, p: int, n: int):
        self.p, self.n, self.m = p, n, p ** n
        self.h = h
        check_accumulation(h.shape[0], self.m)  # one pivot per row
        self.unit_cols, self.unit_rows, self.pivots = _split_pivots(h)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """v mod the span: one reduced copy of v, updated in place, reduced once at the end."""
        m = self.m
        v = np.asarray(v, dtype=np.int64)
        out = (v if v.ndim == 2 else v[None]) % m
        out -= mul_mod(out[:, self.unit_cols], self.unit_rows, m)
        for i, col, pv in self.pivots:
            # entries stay congruent mod m, so the quotients are read off
            # the reduced pivot column and the rows are reduced once, at the end
            q = out[:, col] % m // pv
            if q.any():
                out -= q[:, None] * self.h[i]
        return np.remainder(out, m, out=out).reshape(v.shape)

    def contains(self, v: np.ndarray) -> bool:
        """True iff v (every row of v, if 2-D) lies in the span."""
        return not self.reduce(v).any()


class Solver:
    """Repeated solving of v @ a == t modulo a span ``base`` (zero if None), for one fixed a.

    Factors the Howell form H of [[a, I], [base, 0]] once, on the base (padded
    with zero columns if narrower than a).  The rows of H with a pivot in the
    a-part come first; the others are the kernel {v : v @ a in base}.  H is the
    base's rows, then [0 | I], with no Howell form when the base holds every
    row of a.  A solve is the coset reduction of [t | 0] by the a-part rows
    (``reducer``, built on the first solve), for one target or a whole matrix
    of them: t lies in the span of a plus the base exactly when the left block
    vanishes, and minus the right block is then a solution, canonical modulo
    the kernel (Storjohann, 2000).
    """

    __slots__ = ("p", "n", "m", "rows", "cols", "ker", "_top", "_reducer")

    def __init__(self, a: np.ndarray, p: int, n: int, base: Optional[Span] = None):
        a = np.atleast_2d(np.asarray(a, dtype=np.int64))
        self.p, self.n, self.m = p, n, p ** n
        self.rows, self.cols = a.shape
        aug = np.hstack([a % self.m, np.eye(self.rows, dtype=np.int64)])
        if base is not None:
            width = base.h.shape[1]
            aug[:, :width] = _on_base(a[:, :width], p, n, base)
        if base is None or aug[:, :self.cols].any():
            h = howell_form(aug, p, n, base)
        else:  # the base holds every row of a, and aug is [0 | I]
            h = np.vstack([np.pad(base.h, ((0, 0), (0, aug.shape[1] - width))), aug])
        self.ker = Span._of_howell(_vanishing_tail(h, self.cols), p, n)
        self._top, self._reducer = h[:h.shape[0] - self.ker.h.shape[0]], None

    @property
    def reducer(self) -> CosetReducer:
        self._reducer = self._reducer or CosetReducer(self._top, self.p, self.n)
        return self._reducer

    def solve(self, b: np.ndarray) -> Optional[np.ndarray]:
        """A solution v of v @ a == b modulo the base, or None if there is none.

        For a 2-D b (one target per row) this solves the matrix equation
        V @ a == b in one reduction: row i of V solves row i of b, and the
        result is None if any row has no solution.  A 1-D b is the one-row
        case and gives a 1-D v.
        """
        cols = self.cols
        b = np.asarray(b, dtype=np.int64)
        targets = np.atleast_2d(b)
        out = np.zeros((targets.shape[0], cols + self.rows), dtype=np.int64)
        out[:, :cols] = targets
        out = self.reducer.reduce(out)
        if out[:, :cols].any():
            return None
        return (-out[:, cols:] % self.m).reshape(b.shape[:-1] + (self.rows,))

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
        rows[:] = (rows + mul_mod(coeffs, self.ker.h, self.m)) % self.m
        return v
