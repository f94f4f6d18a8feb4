"""Reference wedge product for differential tests: the dense matrix.

This is the matrix of (f wedge .) from degree r to degree r+1 of the
exterior algebra on g free generators, built block by block in a double
loop, as the library built it before its index table.  It shares no
code with ``derived_heights.modules``: the subsets, their order and the
signs are computed here afresh, so the library's contraction can be
checked against it entry for entry.  ``wedge_module`` takes the wedge
powers of a presented module from it, for the exterior-bidual checks.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from derived_heights import linalg as la
from derived_heights.groupring import GroupRingElt, RingCtx, regular_rep
from derived_heights.modules import FpModule, free_module


def _subset_sign(l: int, subset: tuple[int, ...]) -> int:
    """Sign of moving e_l past e_subset (subset sorted, l not in it)."""
    return -1 if sum(1 for s in subset if s < l) % 2 else 1


def wedge_matrix(ring: RingCtx, g: int, r: int, f_coords: list[GroupRingElt]) -> np.ndarray:
    """Matrix of (f wedge .): degree r ambient -> degree r+1 ambient."""
    m = ring.m
    src, tgt = list(combinations(range(g), r)), list(combinations(range(g), r + 1))
    t_index = {s: i for i, s in enumerate(tgt)}
    out = np.zeros((len(src) * m, len(tgt) * m), dtype=np.int64)
    for si, s_sub in enumerate(src):
        for l in range(g):
            if l in s_sub or f_coords[l].is_zero():
                continue
            ti = t_index[tuple(sorted(s_sub + (l,)))]
            sgn = _subset_sign(l, s_sub)
            out[si * m:(si + 1) * m, ti * m:(ti + 1) * m] = (
                sgn * regular_rep(f_coords[l])
            ) % m
    return out


def wedge_module(ring: RingCtx, g: int, rel_rows: list[list[GroupRingElt]],
                 r: int) -> FpModule:
    """Degree r of the exterior algebra on g generators modulo (relation row wedge .).

    Each block's rows are already the gamma multiples of its relations.
    """
    base = free_module(ring, comb(g, r))  # the zero module when r > g
    if r == 0 or not rel_rows:
        return base
    blocks = np.vstack([wedge_matrix(ring, g, r - 1, row) for row in rel_rows])
    return base.quotient(la.Span(blocks, ring.p, ring.n))
