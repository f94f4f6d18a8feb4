"""Write bench/pins.json: the outputs every benchmark run is checked against.

    python3 bench/pin.py

For each workload it runs pass 0 of the default seed and records, per
trial position, the number of checks, the digest of the seed-independent
invariant output and the digest of the full output.  It then runs
pass 1 of another seed and refuses to write unless the check counts
and invariants come out the same, since those pins hold for every seed.
Re-pin only when a change is meant to alter the reported outputs, and
say why where the change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker

OTHER_SEED = 1


def outputs(lib, workload: str, seed: int, pass_no: int) -> list[dict]:
    out = []
    for kind, item in worker.trials(workload, seed, pass_no):
        result = worker.KINDS[kind][0](lib, item)
        ok, canonical, invariant, checks = worker.KINDS[kind][1](result)
        if not ok:
            raise SystemExit(f"{workload}: a {kind} verdict is false; nothing pinned")
        out.append({"kind": kind, "checks": checks,
                    "invariant": worker.digest(invariant),
                    "seed0": worker.digest(canonical)})
    return out


def main() -> int:
    lib = worker.Lib(Path(__file__).resolve().parent.parent / "src")
    pins = {}
    for workload in worker.WORKLOADS:
        base = outputs(lib, workload, worker.DEFAULT_SEED, 0)
        other = outputs(lib, workload, OTHER_SEED, 1)
        for pos, (a, b) in enumerate(zip(base, other)):
            if (a["checks"], a["invariant"]) != (b["checks"], b["invariant"]):
                raise SystemExit(f"{workload} trial {pos}: invariant depends on the seed")
        pins[workload] = {"checks_per_pass": sum(t["checks"] for t in base), "trials": base}
        print(f"{workload}: {len(base)} trials, {pins[workload]['checks_per_pass']} checks per pass",
              file=sys.stderr)
    worker.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
