"""Reference wedge product for differential tests: the dense matrix.

This is the matrix of (f wedge .) from degree r to degree r+1 of the
exterior algebra on g free generators, built block by block in a double
loop, as the library built it before its index table.  It shares no
code with ``derived_heights.modules``: the subsets, their order and the
signs are computed here afresh, so the library's contraction and wedge
relations can be checked against it entry for entry.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from derived_heights.groupring import GroupRingElt, RingCtx, regular_rep


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
