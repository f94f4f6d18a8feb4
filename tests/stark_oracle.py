"""Reference Stark transitions and bidual check for differential tests: the direct routes.

This is the route the library took before its families were built and
checked along covering edges.  A transition v_{src,dst} contracts by the
removed labels in ascending order and then applies one merge sign, that
of the removed labels against the complement of src; the family puts
the top functional through the transition to every vertex; and the
compatibility check compares every pair m dividing n, 3^r of them.  It
calls ``modules.contract`` and nothing of ``derived_heights.stark`` but
the instance's data, so the edge chain can be checked against it.

The bidual check is the route the library took before it contracted by
the R-generators lambda_q: it takes ann H(m) as the kernel of H(m)'s
transposed Howell form and contracts eps_m by every row of that kernel.
"""

from __future__ import annotations

import numpy as np

from derived_heights import linalg as la
from derived_heights.modules import contract, functional_from_rcoords, rcoords_from_functional


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of merging two disjoint ascending label lists into one."""
    inv = sum(1 for a in left for b in right if a > b)
    return -1 if inv % 2 else 1


def transition(inst, src: tuple[int, ...], dst: tuple[int, ...],
               eps: np.ndarray) -> np.ndarray:
    """v_{src,dst}: contract by the removed labels, with the merge sign."""
    src, dst = tuple(sorted(src)), tuple(sorted(dst))
    assert set(dst) <= set(src)
    removed = tuple(q for q in src if q not in dst)
    complement = tuple(q for q in inst.primes if q not in src)
    level = inst.chi + len(src)
    out = np.asarray(eps, dtype=np.int64)
    for q in removed:
        out = contract(inst.ring, level, out, inst.fs[q])
        level -= 1
    return (merge_sign(complement, removed) * out) % inst.ring.m


def family(inst, c) -> dict[tuple[int, ...], np.ndarray]:
    """eps_v = v_{top, v}(c times the det basis) for every vertex v."""
    top = functional_from_rcoords(inst.ring, [c])
    return {v: transition(inst, inst.primes, v, top) for v in inst.vertices()}


def all_pairs_compatible(inst, eps: dict[tuple[int, ...], np.ndarray]) -> bool:
    """v_{n,m}(eps_n) == eps_m for every pair m dividing n."""
    m = inst.ring.m
    for big in inst.vertices():
        for small in inst.vertices():
            if set(small) <= set(big):
                via = transition(inst, big, small, eps[big])
                if (via % m != np.asarray(eps[small]) % m).any():
                    return False
    return True


def kills_wedge_kernel(inst, eps: dict[tuple[int, ...], np.ndarray]) -> bool:
    """Each eps_m is killed by contraction with every Howell row of ann H(m)."""
    ring = inst.ring
    for vertex in inst.vertices():
        deg = inst.chi + len(vertex)
        if deg <= 0:
            continue
        ann = la.kernel(inst.h_span(vertex).h.T, ring.p, ring.n)
        for phi in ann.h:
            if contract(ring, deg, eps[vertex], rcoords_from_functional(ring, phi)).any():
                return False
    return True
