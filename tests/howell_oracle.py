"""Reference Howell form for differential tests: the fixpoint echelon.

This is the row-by-row algorithm the library used before its one-pass
form.  It echelonizes, adjoins the annihilator multiple p^(n-v) * row of
every non-unit pivot row, and re-echelonizes until nothing changes.  It
shares no code with ``derived_heights.linalg``, so the library's form can
be checked against it entry for entry: the Howell form of a span is
unique, so the two must agree exactly.
"""

from __future__ import annotations

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


def howell_form(a: np.ndarray, p: int, n: int) -> np.ndarray:
    """Unique Howell canonical form of the row span of ``a``, by fixpoint.

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
        return np.zeros((0, cols), dtype=np.int64)
    return np.array(placed, dtype=np.int64)
