"""JSON wire formats for every object the command line accepts or emits.

Schemas (all entries row-major):

    matrix        {"rows": r, "cols": c, "modulus": m or "int", "entries": [...]}
    ring          {"p": 3, "n": 1}
    fp-module     {"ring": {...}, "generators": g, "relations": matrix,
                   "gamma_action": matrix or null (null = canonical blocks)}
    complex       {"ring": {...}, "C1": fp-module, "C2": fp-module, "d": matrix}
    pairing       {"ring": {...}, "rank_X": a, "rank_Y": b,
                   "ell": matrix (scalar expansion, a*p^n by b*p^n)}
    stark         {"ring": {...}, "rank_X": a, "primes": r, "ell": matrix}
    int-complex   {"p": 3, "d": matrix with modulus "int"}

Parse failures raise InputError carrying a JSONPath-style location, e.g.
``parse-error at $.ell.entries[3]``; files beyond a declared limit raise
it with kind ``resource-limit``.
"""

from __future__ import annotations

import json
from math import comb
from typing import Any

import numpy as np

from .complexes import TwoTermComplex
from .groupring import RingCtx
from .heights import PairingData
from .modules import FpModule, from_presentation, r_matrix_expand, r_rows_from_scalar
from .recovery import MINOR_LIMIT, P_LIMIT, IntComplex
from .stark import StarkInstance


# Declared limit on rank_X of a stark file, so on its prime count r <= rank_X,
# and on fitting --imax.  `stark` with r = rank_X = 6 over (7,2) takes 7.6 s and
# 184 MB (dense ell); at 7, 29 s, and ell = N I at 8, 44 s and 1.3 GB.
RANK_LIMIT = 6

# Declared limit on generators * p^n, each term of a complex file, and on
# rank * p^n of a pairing file's X and Y.  `spectral` on (7,2) with 6
# generators a side (294) takes 5.8-6.9 s and 111 MB (random d); with 8 (392),
# 15-18 s and 173 MB; C1 alone with 16 (784), 60 s.  Curves are in the README.
AMBIENT_LIMIT = 300


class InputError(ValueError):
    def __init__(self, path: str, message: str, kind: str = "parse-error"):
        super().__init__(f"{kind} at {path}: {message}")
        self.path = path
        self.reason = message


def _get(obj: Any, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise InputError(path, "expected an object")
    if key not in obj:
        raise InputError(f"{path}.{key}", "missing field")
    return obj[key]


def _int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _int64(value: Any, path: str) -> int:
    """An integer entry bound for an int64 array."""
    value = _int(value, path)
    if not -(1 << 63) <= value < 1 << 63:
        raise InputError(path, "integer outside the signed 64-bit range")
    return value


def parse_ring(obj: Any, path: str = "$.ring") -> RingCtx:
    p = _int(_get(obj, "p", path), f"{path}.p")
    n = _int(_get(obj, "n", path), f"{path}.n")
    try:
        return RingCtx(p, n)
    except ValueError as exc:
        raise InputError(path, str(exc)) from exc


def parse_matrix(obj: Any, path: str):
    """Returns (entries, modulus) with modulus None for integer mode."""
    rows = _int(_get(obj, "rows", path), f"{path}.rows")
    cols = _int(_get(obj, "cols", path), f"{path}.cols")
    modulus = _get(obj, "modulus", path)
    entries = _get(obj, "entries", path)
    if rows < 0 or cols < 0:
        raise InputError(path, "negative dimensions")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise InputError(f"{path}.entries",
                         f"expected {rows * cols} entries, got "
                         f"{len(entries) if isinstance(entries, list) else 'non-list'}")
    if modulus == "int":
        vals = [_int(e, f"{path}.entries[{i}]") for i, e in enumerate(entries)]
        return [vals[i * cols:(i + 1) * cols] for i in range(rows)], None
    vals = [_int64(e, f"{path}.entries[{i}]") for i, e in enumerate(entries)]
    mod = _int(modulus, f"{path}.modulus")
    if mod < 2:
        raise InputError(f"{path}.modulus", "modulus must be at least 2")
    arr = np.array(vals, dtype=np.int64).reshape(rows, cols) % mod
    return arr, mod


def matrix_to_json(arr, modulus) -> dict:
    if modulus is None:
        rows = len(arr)
        cols = len(arr[0]) if rows else 0
        entries = [int(x) for row in arr for x in row]
        return {"rows": rows, "cols": cols, "modulus": "int", "entries": entries}
    a = np.asarray(arr, dtype=np.int64)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "modulus": int(modulus),
        "entries": [int(x) for x in a.reshape(-1)],
    }


def _parse_ell(obj: Any, path: str, cols_key: str, ambient: bool = False):
    """(ring, rank_X, the rank under cols_key, ell) of a pairing or Stark file.  Before ell is
    read, rank_X >= 1; with ``ambient``, every rank r has 1 <= r and r * p^n <= AMBIENT_LIMIT."""
    ring = parse_ring(_get(obj, "ring", path), f"{path}.ring")
    a = _int(_get(obj, "rank_X", path), f"{path}.rank_X")
    c = _int(_get(obj, cols_key, path), f"{path}.{cols_key}")
    for key, rank in (("rank_X", a), (cols_key, c))[:1 + ambient]:
        if rank < 1:
            raise InputError(f"{path}.{key}", f"{key} must be at least 1")
        if ambient and rank * ring.m > AMBIENT_LIMIT:
            raise InputError(f"{path}.{key}", f"limit {key} * p^n <= {AMBIENT_LIMIT}",
                             kind="resource-limit")
    mat, mod = parse_matrix(_get(obj, "ell", path), f"{path}.ell")
    if mod is None or mod != ring.m:
        raise InputError(f"{path}.ell.modulus", f"expected modulus {ring.m}")
    if mat.shape != (a * ring.m, c * ring.m):
        raise InputError(f"{path}.ell",
                         f"expected shape {a * ring.m} x {c * ring.m}")
    return ring, a, c, mat


def _ell_to_json(ring: RingCtx, a: int, cols_key: str, c: int, mat: np.ndarray) -> dict:
    return {"ring": {"p": ring.p, "n": ring.n}, "rank_X": a, cols_key: c,
            "ell": matrix_to_json(mat, ring.m)}


def parse_pairing(obj: Any, path: str = "$") -> PairingData:
    ring, _, _, mat = _parse_ell(obj, path, "rank_Y", ambient=True)
    try:
        return PairingData(ring, r_rows_from_scalar(ring, mat))
    except ValueError as exc:
        raise InputError(f"{path}.ell", str(exc)) from exc


def pairing_to_json(data: PairingData) -> dict:
    return _ell_to_json(data.ring, data.a, "rank_Y", data.b, data.d)


def parse_stark(obj: Any, path: str = "$") -> StarkInstance:
    ring, a, _, mat = _parse_ell(obj, path, "primes")
    if a > RANK_LIMIT:
        raise InputError(f"{path}.rank_X", f"limit rank_X <= {RANK_LIMIT}",
                         kind="resource-limit")
    try:
        return StarkInstance(ring, r_rows_from_scalar(ring, mat))
    except ValueError as exc:
        raise InputError(f"{path}.ell", str(exc)) from exc


def stark_to_json(inst: StarkInstance) -> dict:
    return _ell_to_json(inst.ring, inst.a, "primes", inst.r,
                        r_matrix_expand(inst.ring, inst.ell))


def parse_fp_module(obj: Any, ring: RingCtx, path: str) -> FpModule:
    g = _int(_get(obj, "generators", path), f"{path}.generators")
    if g < 0:
        raise InputError(f"{path}.generators", "negative generator count")
    if g * ring.m > AMBIENT_LIMIT:
        raise InputError(f"{path}.generators", f"limit generators * p^n <= {AMBIENT_LIMIT}",
                         kind="resource-limit")
    rel_obj = _get(obj, "relations", path)
    rel, mod = parse_matrix(rel_obj, f"{path}.relations")
    if mod is None or mod != ring.m:
        raise InputError(f"{path}.relations.modulus", f"expected modulus {ring.m}")
    gamma_obj = obj.get("gamma_action")
    gamma = None
    if gamma_obj is not None:
        gamma, gmod = parse_matrix(gamma_obj, f"{path}.gamma_action")
        if gmod != ring.m or gamma.shape != (g * ring.m, g * ring.m):
            raise InputError(f"{path}.gamma_action", "wrong shape or modulus")
    try:
        return from_presentation(ring, g, rel, gamma)
    except ValueError as exc:
        raise InputError(path, str(exc)) from exc


def parse_complex(obj: Any, path: str = "$") -> TwoTermComplex:
    ring = parse_ring(_get(obj, "ring", path), f"{path}.ring")
    c1 = parse_fp_module(_get(obj, "C1", path), ring, f"{path}.C1")
    c2 = parse_fp_module(_get(obj, "C2", path), ring, f"{path}.C2")
    d, mod = parse_matrix(_get(obj, "d", path), f"{path}.d")
    if mod is None or mod != ring.m:
        raise InputError(f"{path}.d.modulus", f"expected modulus {ring.m}")
    if d.shape != (c1.dim, c2.dim):
        raise InputError(f"{path}.d", f"expected shape {c1.dim} x {c2.dim}")
    try:
        return TwoTermComplex(c1, c2, d)
    except ValueError as exc:
        raise InputError(f"{path}.d", str(exc)) from exc


def parse_int_complex(obj: Any, path: str = "$") -> IntComplex:
    p = _int(_get(obj, "p", path), f"{path}.p")
    if p >= P_LIMIT:
        raise InputError(f"{path}.p", "p must be below 2^31", kind="resource-limit")
    mat, mod = parse_matrix(_get(obj, "d", path), f"{path}.d")
    if mod is not None:
        raise InputError(f"{path}.d.modulus", 'integer complexes need modulus "int"')
    rows, cols = len(mat), len(mat[0]) if mat else 0
    if comb(rows + cols, rows) > MINOR_LIMIT:
        raise InputError(f"{path}.d", f"{rows} x {cols} is beyond the Smith oracle's "
                         "limit C(rows + cols, rows) <= C(20, 10)", kind="resource-limit")
    try:
        return IntComplex.make(p, mat)
    except ValueError as exc:
        raise InputError(path, str(exc)) from exc


def int_complex_to_json(cx: IntComplex) -> dict:
    return {"p": cx.p, "d": matrix_to_json([list(r) for r in cx.d], None)}


def load_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("$", f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past int()'s digit limit
        raise InputError("$", f"invalid JSON: {exc}") from exc
