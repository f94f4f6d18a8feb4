"""Seeded inputs for the benchmark workloads, generated without the library.

Each Z/p^n[G] workload draws from a fixed catalogue of template
matrices over R = Z/p^n[G] (G cyclic of order p^n).  The catalogue
never changes.  The run seed and the pass number only pick a random
change of basis for every template, so every pass of every seed runs
the same isomorphism types: the same amount of work and the same
invariant outputs (evaluation counts, pairing value tables, Fitting
ideals), while the matrices the library sees are new in every trial.

Group-ring elements are tuples of p^n integer coefficients; matrices
are tuples of rows.  Nothing here imports the package under test.
"""

from __future__ import annotations

import random
from functools import lru_cache

CATALOGUE_SEED = 20261017
MAX_RANK = 3

RINGS = {
    "pairing": ((3, 1), (3, 2), (5, 1)),
    "spectral": ((3, 1), (3, 2), (5, 1), (7, 1)),
    "stark": ((3, 1), (3, 2), (5, 1)),
}
# templates per pass; a pass runs each template once
SLOTS = {"pairing": 30, "spectral": 20, "stark": 20}
STRUCTURE_PER_STARK = 2
STRUCTURE_PRIMES = (2, 3, 5)


# -- group-ring arithmetic ------------------------------------------------------


def g_mul(a, b, m):
    out = [0] * m
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % m] += x * y
    return tuple(v % m for v in out)


def mat_mul(x, y, m):
    zero = (0,) * m
    rows = []
    for row in x:
        out = []
        for j in range(len(y[0])):
            acc = zero
            for t, e in enumerate(row):
                acc = tuple((s + v) % m for s, v in zip(acc, g_mul(e, y[t][j], m)))
            out.append(acc)
        rows.append(tuple(out))
    return tuple(rows)


def _random_elt(rnd, m):
    return tuple(rnd.randrange(m) for _ in range(m))


def _random_unit(rnd, p, m):
    # R is local with residue field F_p through the augmentation, so an
    # element is a unit exactly when its coefficient sum is prime to p
    c = list(_random_elt(rnd, m))
    if sum(c) % p == 0:
        c[0] = (c[0] + 1) % m
    return tuple(c)


def _gamma_minus_one(m):
    return tuple([m - 1, 1] + [0] * (m - 2))


def _template_entry(rnd, p, m):
    """Units, (gamma-1)-multiples and norm lines in the 40/40/20 mix."""
    roll = rnd.randrange(100)
    if roll < 40:
        return _random_unit(rnd, p, m)
    if roll < 80:
        return g_mul(_gamma_minus_one(m), _random_elt(rnd, m), m)
    return (rnd.randrange(m),) * m


def _unit_diagonal(rnd, p, m, size):
    zero = (0,) * m
    return tuple(tuple(_random_unit(rnd, p, m) if i == j else zero
                       for j in range(size)) for i in range(size))


def _random_invertible(rnd, p, m, size):
    """Lower unitriangular x unit diagonal x upper unitriangular."""
    one = (1,) + (0,) * (m - 1)
    zero = (0,) * m
    low = tuple(tuple(one if i == j else _random_elt(rnd, m) if j < i else zero
                      for j in range(size)) for i in range(size))
    up = tuple(tuple(one if i == j else _random_elt(rnd, m) if j > i else zero
                     for j in range(size)) for i in range(size))
    return mat_mul(mat_mul(low, _unit_diagonal(rnd, p, m, size), m), up, m)


# -- catalogues --------------------------------------------------------------------


def _free_shape(rnd):
    return rnd.randrange(MAX_RANK) + 1, rnd.randrange(MAX_RANK) + 1


def _stark_shape(rnd):
    # core rank chi in {0, 1}; r localization columns, r + chi <= MAX_RANK
    chi = rnd.randrange(2)
    r = rnd.randrange(MAX_RANK - chi) + 1
    return r + chi, r


@lru_cache(maxsize=None)
def catalogue(workload):
    """[(ring, template)] for the workload's slots, the same for every seed."""
    rnd = random.Random(f"{CATALOGUE_SEED}:{workload}")
    rings = RINGS[workload]
    shape = _stark_shape if workload == "stark" else _free_shape
    out = []
    for slot in range(SLOTS[workload]):
        p, n = rings[slot % len(rings)]
        m = p ** n
        a, b = shape(rnd)
        tmpl = tuple(tuple(_template_entry(rnd, p, m) for _ in range(b)) for _ in range(a))
        out.append(((p, n), tmpl))
    return out


def _conjugate(workload, ring, tmpl, rnd):
    """U T V for random invertible U, V; Stark inputs only scale columns,
    so each localization line keeps its kernel and every vertex its lattice."""
    p, n = ring
    m = p ** n
    u = _random_invertible(rnd, p, m, len(tmpl))
    if workload == "stark":
        v = _unit_diagonal(rnd, p, m, len(tmpl[0]))
    else:
        v = _random_invertible(rnd, p, m, len(tmpl[0]))
    return mat_mul(mat_mul(u, tmpl, m), v, m)


def _instance(workload, ring, tmpl, rnd):
    """(ring, matrix, unit, draw seed); the unit spawns a Stark system and
    the draw seed feeds the pairing's random lifts."""
    p, n = ring
    mat = _conjugate(workload, ring, tmpl, rnd)
    return ring, mat, _random_unit(rnd, p, p ** n), rnd.getrandbits(64)


def z_pass(workload, seed, pass_no):
    """One pass of a Z/p^n[G] workload: one instance per catalogue slot."""
    return [_instance(workload, ring, tmpl, random.Random(f"{seed}:{workload}:{pass_no}:{slot}"))
            for slot, (ring, tmpl) in enumerate(catalogue(workload))]


def warmup_inputs(workload, seed):
    """One small input per ring: the 1x1 matrix (gamma - 1) changed by a unit."""
    out = []
    for ring in RINGS[workload]:
        p, n = ring
        m = p ** n
        rnd = random.Random(f"{seed}:{workload}:warmup:{p},{n}")
        out.append(_instance(workload, ring, ((_gamma_minus_one(m),),), rnd))
    return out


@lru_cache(maxsize=None)
def structure_catalogue():
    """[(p, d)]: integer matrices as in the structure fuzz suite, the same for every seed."""
    rnd = random.Random(f"{CATALOGUE_SEED}:structure")
    out = []
    for slot in range(STRUCTURE_PER_STARK * SLOTS["stark"]):
        p = STRUCTURE_PRIMES[slot % len(STRUCTURE_PRIMES)]
        rows, cols = rnd.randrange(5) + 1, rnd.randrange(5) + 1
        out.append((p, tuple(tuple(rnd.randrange(101) - 50 for _ in range(cols))
                             for _ in range(rows))))
    return out


def _signed_permutation(rnd, d):
    """Permute and negate rows and columns: the cokernel, the tau profile
    and every entry size (which sets the work) stay the same."""
    rows = rnd.sample(range(len(d)), len(d))
    cols = rnd.sample(range(len(d[0])), len(d[0]))
    rsign = [rnd.choice((1, -1)) for _ in rows]
    csign = [rnd.choice((1, -1)) for _ in cols]
    return tuple(tuple(rsign[i] * csign[j] * d[r][c] for j, c in enumerate(cols))
                 for i, r in enumerate(rows))


def structure_pass(seed, pass_no):
    """One pass of integer complexes: one per structure catalogue slot."""
    out = []
    for slot, (p, d) in enumerate(structure_catalogue()):
        rnd = random.Random(f"{seed}:structure:{pass_no}:{slot}")
        out.append((p, _signed_permutation(rnd, d)))
    return out
