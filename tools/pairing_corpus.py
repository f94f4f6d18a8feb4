"""Write the pairing corpus whose reports tests/test_cli.py pins: one file per ring.

    python3 tools/pairing_corpus.py     # rewrites tests/corpus/pairing_<p>_<n>.json

For ring j of RINGS the datum is the first ``random_pairing_data(ring,
trial_rng(SEED, 100 * j + i), max_rank=2)``, i = 0, 1, ..., that validates
and whose comparison (seed 0, every k <= p - 1, the default ``--max-card``)
has records at some k >= 2 and at most MAX_RECORDS of them, so each file
exercises a filtration piece above M^G while its report stays small.
Rebuilding with the same SEED writes the same bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from derived_heights.groupring import RingCtx  # noqa: E402
from derived_heights.heights import PairingError, random_pairing_data  # noqa: E402
from derived_heights.rng import SplitMix64, trial_rng  # noqa: E402
from derived_heights.serialize import pairing_to_json  # noqa: E402

SEED = 25
RINGS = ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2))
MAX_RECORDS = 400
OUT = ROOT / "tests" / "corpus"


def pick(j: int, p: int, n: int):
    ring = RingCtx(p, n)
    for i in range(1000):
        data = random_pairing_data(ring, trial_rng(SEED, 100 * j + i), max_rank=2)
        try:
            data.validate()
        except PairingError:
            continue
        records = data.compare(p - 1, rng=SplitMix64(0))["records"]
        if len(records) <= MAX_RECORDS and any(r["k"] >= 2 for r in records):
            return data
    raise SystemExit(f"no datum found on ring ({p},{n})")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for j, (p, n) in enumerate(RINGS):
        path = OUT / f"pairing_{p}_{n}.json"
        path.write_text(json.dumps(pairing_to_json(pick(j, p, n)), sort_keys=True) + "\n")
        print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
