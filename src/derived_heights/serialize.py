"""JSON wire formats for every object the command line accepts or emits.

Schemas (all entries row-major):

    matrix        {"rows": r, "cols": c, "modulus": m or "int", "entries": [...]}
    ring          {"p": 3, "n": 1}
    group-ring    {"coeffs": [... p^n entries ...]}
    fp-module     {"ring": {...}, "generators": g, "relations": matrix,
                   "gamma_action": matrix or null (null = canonical blocks)}
    complex       {"ring": {...}, "C1": fp-module, "C2": fp-module, "d": matrix}
    pairing       {"ring": {...}, "rank_X": a, "rank_Y": b,
                   "ell": matrix (scalar expansion, a*p^n by b*p^n)}
    stark         {"ring": {...}, "rank_X": a, "primes": r, "ell": matrix}
    int-complex   {"p": 3, "d": matrix with modulus "int"}

Parse failures raise InputError carrying a JSONPath-style location, e.g.
``parse-error at $.ell.entries[3]``.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .complexes import TwoTermComplex
from .groupring import RingCtx
from .heights import PairingData
from .modules import FpModule, from_presentation, r_rows_from_scalar
from .recovery import IntComplex
from .stark import StarkInstance


class InputError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"parse-error at {path}: {message}")
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


def parse_group_ring_elt(obj: Any, ring: RingCtx, path: str):
    coeffs = _get(obj, "coeffs", path)
    if not isinstance(coeffs, list) or len(coeffs) != ring.m:
        raise InputError(f"{path}.coeffs", f"expected {ring.m} coefficients")
    vals = [_int64(c, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs)]
    return ring.elt(np.array(vals, dtype=np.int64))


def group_ring_elt_to_json(elt) -> dict:
    return {"coeffs": [int(c) for c in elt.coeffs]}


def parse_pairing(obj: Any, path: str = "$") -> PairingData:
    ring = parse_ring(_get(obj, "ring", path), f"{path}.ring")
    a = _int(_get(obj, "rank_X", path), f"{path}.rank_X")
    b = _int(_get(obj, "rank_Y", path), f"{path}.rank_Y")
    mat, mod = parse_matrix(_get(obj, "ell", path), f"{path}.ell")
    if mod is None or mod != ring.m:
        raise InputError(f"{path}.ell.modulus", f"expected modulus {ring.m}")
    if mat.shape != (a * ring.m, b * ring.m):
        raise InputError(f"{path}.ell",
                         f"expected shape {a * ring.m} x {b * ring.m}")
    try:
        return PairingData(ring, r_rows_from_scalar(ring, mat))
    except ValueError as exc:
        raise InputError(f"{path}.ell", str(exc)) from exc


def pairing_to_json(data: PairingData) -> dict:
    return {
        "ring": {"p": data.ring.p, "n": data.ring.n},
        "rank_X": data.a,
        "rank_Y": data.b,
        "ell": matrix_to_json(data.d, data.ring.m),
    }


def parse_stark(obj: Any, path: str = "$") -> StarkInstance:
    ring = parse_ring(_get(obj, "ring", path), f"{path}.ring")
    a = _int(_get(obj, "rank_X", path), f"{path}.rank_X")
    r = _int(_get(obj, "primes", path), f"{path}.primes")
    mat, mod = parse_matrix(_get(obj, "ell", path), f"{path}.ell")
    if mod is None or mod != ring.m:
        raise InputError(f"{path}.ell.modulus", f"expected modulus {ring.m}")
    if mat.shape != (a * ring.m, r * ring.m):
        raise InputError(f"{path}.ell",
                         f"expected shape {a * ring.m} x {r * ring.m}")
    try:
        return StarkInstance.build(ring, a, r, r_rows_from_scalar(ring, mat))
    except ValueError as exc:
        raise InputError(f"{path}.ell", str(exc)) from exc


def stark_to_json(inst: StarkInstance) -> dict:
    from .modules import r_matrix_expand

    return {
        "ring": {"p": inst.ring.p, "n": inst.ring.n},
        "rank_X": inst.a,
        "primes": inst.r,
        "ell": matrix_to_json(r_matrix_expand(inst.ring, inst.ell), inst.ring.m),
    }


def parse_fp_module(obj: Any, ring: RingCtx, path: str) -> FpModule:
    g = _int(_get(obj, "generators", path), f"{path}.generators")
    if g < 0:
        raise InputError(f"{path}.generators", "negative generator count")
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
        return from_presentation(ring, "R", g, rel, gamma)
    except ValueError as exc:
        raise InputError(path, str(exc)) from exc


def fp_module_to_json(mod: FpModule) -> dict:
    return {
        "ring": {"p": mod.ring.p, "n": mod.ring.n},
        "generators": mod.dim // mod.m,
        "relations": matrix_to_json(
            mod.den if mod.den.shape[0] else np.zeros((0, mod.dim), dtype=np.int64),
            mod.m,
        ),
        "gamma_action": matrix_to_json(mod.gamma, mod.m),
    }


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
    mat, mod = parse_matrix(_get(obj, "d", path), f"{path}.d")
    if mod is not None:
        raise InputError(f"{path}.d.modulus", 'integer complexes need modulus "int"')
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
    except json.JSONDecodeError as exc:
        raise InputError("$", f"invalid JSON: {exc}") from exc
