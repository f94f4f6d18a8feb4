"""Write the report corpus that tests/test_cli.py pins: one file per (command, ring).

    python3 tools/corpus.py     # rewrites tests/corpus/<command>_<p>_<n>.json

For command c and ring j of RINGS the file holds the first datum drawn
from ``trial_rng(SEED, OFFSET[c] + 100 * j + i)``, i = 0, 1, ..., that
the command's picker (``PICKERS``) accepts:

  pairing   ``random_pairing_data(..., max_rank=2)`` that validates and
            whose comparison (seed 0, every k <= p - 1, the default
            ``--max-card``) has records at some k >= 2 and at most
            MAX_RECORDS of them, so the file exercises a filtration piece
            above M^G while its report stays small;
  spectral  a free complex R^a -> R^b, a, b <= 2 (1 once p^n >= 25), with
            a random R-linear d, whose H^2 and some E_k^{0,1}, k >= 2, are
            nonzero, so the Bockstein checks at k >= 2 see a nonzero source;
  stark     a ``random_instance`` with rank_X <= 2 and a Fitting ideal
            neither zero nor the unit ideal;
  fitting   a ``random_instance`` with rank_X = 2, one prime (chi = 1) and
            two distinct Fitting ideals.

Rebuilding with the same SEED writes the same bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from derived_heights.complexes import TwoTermComplex  # noqa: E402
from derived_heights.groupring import RingCtx  # noqa: E402
from derived_heights.heights import (  # noqa: E402
    PairingError, random_ell_matrix, random_pairing_data)
from derived_heights.modules import r_matrix_expand  # noqa: E402
from derived_heights.rng import SplitMix64, trial_rng  # noqa: E402
from derived_heights.serialize import matrix_to_json, pairing_to_json, stark_to_json  # noqa: E402
from derived_heights.stark import random_instance, verify_fitting  # noqa: E402

SEED = 25
RINGS = ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2))
MAX_RECORDS = 400
OFFSET = {"pairing": 0, "spectral": 1000, "stark": 2000, "fitting": 3000}
OUT = ROOT / "tests" / "corpus"


def pairing(ring: RingCtx, rng: SplitMix64):
    data = random_pairing_data(ring, rng, max_rank=2)
    try:
        data.validate()
    except PairingError:
        return None
    records = data.compare(ring.p - 1, rng=SplitMix64(0))["records"]
    if len(records) <= MAX_RECORDS and any(r["k"] >= 2 for r in records):
        return pairing_to_json(data)
    return None


def spectral(ring: RingCtx, rng: SplitMix64):
    top = 2 if ring.m < 25 else 1
    a, b = rng.below(top) + 1, rng.below(top) + 1
    cx = TwoTermComplex.free(ring, a, b, r_matrix_expand(ring, random_ell_matrix(ring, a, b, rng)))
    if cx.h2().order() == 1 or all(cx.page_entry(k, 0, 1).order() == 1
                                   for k in range(2, ring.p)):
        return None
    ring_obj = {"p": ring.p, "n": ring.n}
    terms = {name: {"ring": ring_obj, "generators": rank,
                    "relations": matrix_to_json(term.num.h[:0], ring.m)}
             for name, rank, term in (("C1", a, cx.c1), ("C2", b, cx.c2))}
    return {"ring": ring_obj, **terms, "d": matrix_to_json(cx.d, ring.m)}


def _fitting_ideals(ring: RingCtx, rng: SplitMix64, chi_choices):
    """A Stark instance with rank_X <= 2 and the Howell forms of its Fitting ideals."""
    inst = random_instance(ring, rng, max_rank=2, chi_choices=chi_choices)
    system = inst.stark_system(ring.one())
    return inst, [r["fitting"] for r in verify_fitting(inst, system, inst.a)["records"]]


def stark(ring: RingCtx, rng: SplitMix64):
    inst, ideals = _fitting_ideals(ring, rng, (0, 1))
    unit = [[int(i == j) for j in range(ring.m)] for i in range(ring.m)]
    return stark_to_json(inst) if any(f and f != unit for f in ideals) else None


def fitting(ring: RingCtx, rng: SplitMix64):
    inst, ideals = _fitting_ideals(ring, rng, (1,))
    return stark_to_json(inst) if len({json.dumps(f) for f in ideals}) > 1 else None


PICKERS = {"pairing": pairing, "spectral": spectral, "stark": stark, "fitting": fitting}


def pick(command: str, j: int, p: int, n: int) -> dict:
    ring = RingCtx(p, n)
    for i in range(1000):
        obj = PICKERS[command](ring, trial_rng(SEED, OFFSET[command] + 100 * j + i))
        if obj is not None:
            return obj
    raise SystemExit(f"no {command} datum found on ring ({p},{n})")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for command in OFFSET:
        for j, (p, n) in enumerate(RINGS):
            path = OUT / f"{command}_{p}_{n}.json"
            path.write_text(json.dumps(pick(command, j, p, n), sort_keys=True) + "\n")
            print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
