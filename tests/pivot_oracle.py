"""Reference pivot walks for differential tests: one pivot at a time.

This is the coset reduction and the solve the library used before it
took all unit pivots of a Howell form in one product.  Each walks every
pivot in order, reading the quotient at the pivot column off the vector
as the earlier pivots left it, so ``CosetReducer`` and ``Solver`` in
``derived_heights.linalg`` can be checked against it bit for bit.  Only
the Howell form itself is taken from the library.
"""

from __future__ import annotations

import numpy as np

from derived_heights.linalg import howell_form


def pivots(h: np.ndarray) -> list[tuple[int, int, int]]:
    """(row, column, entry) of the leading entry of each row."""
    out = []
    for i, row in enumerate(h):
        col = int(np.flatnonzero(row)[0])
        out.append((i, col, int(row[col])))
    return out


def reduce(h: np.ndarray, p: int, n: int, v: np.ndarray) -> np.ndarray:
    """Canonical representative of each row of v modulo the span of h."""
    m = p ** n
    out = np.atleast_2d(np.asarray(v, dtype=np.int64)) % m
    for i, col, pv in pivots(h):
        q = out[:, col] // pv
        out = (out - q[:, None] * h[i]) % m
    return out.reshape(np.shape(v))


def _factor(a: np.ndarray, p: int, n: int) -> tuple[np.ndarray, int]:
    """Howell form of [a | I] and the number of its rows with an a-part pivot."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    h = howell_form(np.hstack([a, np.eye(a.shape[0], dtype=np.int64)]), p, n)
    return h, int(h[:, :a.shape[1]].any(axis=1).sum())


def solve(a: np.ndarray, p: int, n: int, b: np.ndarray):
    """v with v @ a == b row by row, or None if some row has no solution."""
    m = p ** n
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    cols = a.shape[1]
    h, top = _factor(a, p, n)
    resid = np.atleast_2d(np.asarray(b, dtype=np.int64)) % m
    x = np.zeros((resid.shape[0], a.shape[0]), dtype=np.int64)
    for i, col, pv in pivots(h[:top, :cols]):
        e = resid[:, col]
        if (e % pv).any():
            return None
        q = e // pv
        resid = (resid - q[:, None] * h[i, :cols]) % m
        x = (x + q[:, None] * h[i, cols:]) % m
    if resid.any():
        return None
    return x.reshape(np.shape(b)[:-1] + (a.shape[0],))


def random_solution(a: np.ndarray, p: int, n: int, b: np.ndarray, rng):
    """``solve`` plus a uniform kernel element per row: draws row by row."""
    m = p ** n
    v = solve(a, p, n, b)
    if v is None:
        return None
    h, top = _factor(a, p, n)
    ker = h[top:, np.atleast_2d(a).shape[1]:]
    rows = np.atleast_2d(v)
    coeffs = rng.below_many(m, rows.shape[0] * ker.shape[0]).reshape(rows.shape[0], -1)
    return ((rows + coeffs @ ker) % m).reshape(v.shape)
