"""Command line: single computations plus seeded fuzz campaigns.

Subcommands (all I/O is JSON; exit 0 = every check passed, 1 = some
check failed, 2 = malformed input):

    pairing FILE     validate a pairing datum, run both height pairings
                     on every admissible (k, s, t), report equality,
                     symmetry and generator-independence
    spectral FILE    Bockstein-diagram and cokernel checks on a complex
    stark FILE       Stark system of a core-vertex instance: build,
                     compatibility, Fitting-ideal comparison
    fitting FILE     Fitting ideals of W* against the Stark ideals
    structure FILE   tau profile, recovered structure, Smith oracle
    fuzz             seeded campaigns across all invariant suites

Reports are byte-deterministic for a fixed invocation: records are
ordered by trial offset, no timestamps are embedded, and the random
stream is the package's own SplitMix64.  Every failing fuzz record
carries a re-runnable instance payload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from itertools import islice

from . import __version__
from .complexes import TwoTermComplex
from .groupring import RingCtx
from .heights import PairingError, random_ell_matrix, random_pairing_data, random_unit
from .modules import r_matrix_expand
from .recovery import IntComplex, verify_recovery
from .rng import SplitMix64, trial_rng
from .serialize import (
    AMBIENT_LIMIT,
    RANK_LIMIT,
    InputError,
    int_complex_to_json,
    load_file,
    pairing_to_json,
    parse_complex,
    parse_int_complex,
    parse_pairing,
    parse_stark,
    stark_to_json,
)
from .stark import StarkError, StarkInstance, StarkSystem, random_instance, verify_fitting

SUITES = ("compari", "relate", "coker", "stark", "structure")
STRUCTURE_PRIMES = (2, 3, 5)


def write_json(obj, sinks) -> None:
    """obj as sorted JSON indented by 2, then a newline, to every sink, in batches of pieces."""
    pieces = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False).iterencode(obj)
    while text := "".join(islice(pieces, 4096)):  # one write per piece doubles the time
        for fh in sinks:
            fh.write(text)
    for fh in sinks:
        fh.write("\n")


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class FuzzConfig:
    seed: int = 0
    trials: int = 100
    rings: list[tuple[int, int]] = field(default_factory=lambda: [(3, 1), (3, 2), (5, 1)])
    suites: list[str] = field(default_factory=lambda: list(SUITES))
    max_rank: int = 3
    max_card: int = 10 ** 4
    time_budget: float | None = None

    def to_json(self) -> dict:
        return {**asdict(self), "rings": [list(r) for r in self.rings]}


def _report(command: str, config: dict, records: list, extra: dict | None = None) -> dict:
    checks = sum(len(r.get("checks", [])) for r in records)
    failures = sum(not c["pass"] for r in records for c in r.get("checks", []))
    out = {
        "tool": "derived-heights",
        "version": __version__,
        "command": command,
        "config": config,
        "records": records,
        "summary": {"checks": checks, "failures": failures},
        "pass": failures == 0,
    }
    if extra:
        out.update(extra)
    return out


# -- single-file commands -----------------------------------------------------


def _kmax(args, p: int) -> int:
    """The --kmax option: 0 or absent means p - 1.

    A negative one is refused because it would check nothing and pass,
    and one above p - 1 because the checks are stated only where the
    graded pieces Q^k are free of rank one, k <= p - 1.
    """
    if args.kmax is not None and not 0 <= args.kmax <= p - 1:
        raise InputError("$.kmax", f"must be in [0, {p - 1}] (0 means p - 1)")
    return args.kmax if args.kmax else p - 1


def cmd_pairing(args) -> dict:
    data = parse_pairing(load_file(args.file))
    data.validate()
    rng = SplitMix64(args.seed)
    kmax = _kmax(args, data.ring.p)
    rep = data.compare(kmax, rng=rng, max_card=args.max_card)
    record = {"offset": 0, "digest": digest(pairing_to_json(data)),
              "checks": [{"name": "compari", "pass": rep["pass"],
                          "details": {"evaluations": len(rep["records"])}}],
              "table": rep["records"]}
    return _report("pairing", {"file": args.file, "kmax": kmax,
                               "seed": args.seed, "max_card": args.max_card},
                   [record])


def _coker_checks(cx: TwoTermComplex, k: int) -> list[dict]:
    """One check per cokernel comparison of ``coker_iso_reports(k)``."""
    return [{"name": f"coker_{name}_k{k}", "pass": bool(ok)}
            for name, ok in cx.coker_iso_reports(k).items()]


def _stark_checks(inst: StarkInstance, system: StarkSystem) -> tuple[list[dict], dict]:
    """The three checks of a Stark system, and its Fitting report to i = rank_X."""
    fit = verify_fitting(inst, system, inst.a)
    return [
        {"name": "compatible", "pass": system.check_compatible()},
        {"name": "bidual_membership", "pass": system.check_kills_wedge_kernel()},
        {"name": "fitting", "pass": fit["pass"]},
    ], fit


def cmd_spectral(args) -> dict:
    cx = parse_complex(load_file(args.file))
    kmax = _kmax(args, cx.ring.p)
    checks = []
    for k in range(1, kmax + 1):
        checks.append({"name": f"relate_k{k}", "pass": cx.verify_relate(k)})
        checks += _coker_checks(cx, k)
    record = {"offset": 0, "digest": "-", "checks": checks}
    return _report("spectral", {"file": args.file, "kmax": kmax}, [record])


def cmd_stark(args) -> dict:
    inst = parse_stark(load_file(args.file))
    checks, fit = _stark_checks(inst, inst.stark_system(inst.ring.one()))
    record = {"offset": 0, "digest": digest(stark_to_json(inst)),
              "checks": checks, "fitting": fit["records"]}
    return _report("stark", {"file": args.file}, [record])


def cmd_fitting(args) -> dict:
    if args.imax is not None and args.imax < 0:
        raise InputError("$.imax", "must be nonnegative")
    if args.imax is not None and args.imax > RANK_LIMIT:
        raise InputError("$.imax", f"limit imax <= {RANK_LIMIT}", kind="resource-limit")
    inst = parse_stark(load_file(args.file))
    system = inst.stark_system(inst.ring.one())
    imax = args.imax if args.imax is not None else inst.a
    fit = verify_fitting(inst, system, imax)
    record = {"offset": 0, "digest": digest(stark_to_json(inst)),
              "checks": [{"name": f"fitting_i{r['i']}", "pass": r["equal"]}
                         for r in fit["records"]],
              "fitting": fit["records"]}
    return _report("fitting", {"file": args.file, "imax": imax}, [record])


def cmd_structure(args) -> dict:
    cx = parse_int_complex(load_file(args.file))
    rep = verify_recovery(cx)
    record = {"offset": 0, "digest": digest(int_complex_to_json(cx)),
              "checks": [{"name": "recovery", "pass": rep["pass"]}],
              "result": rep}
    return _report("structure", {"file": args.file}, [record])


# -- fuzz campaigns ------------------------------------------------------------


def _trial_compari(ring: RingCtx, rng: SplitMix64, config: FuzzConfig):
    data = random_pairing_data(ring, rng, config.max_rank)
    payload = pairing_to_json(data)
    checks = []
    try:
        data.validate()
        checks.append({"name": "validate", "pass": True})
    except PairingError as exc:
        checks.append({"name": "validate", "pass": False, "details": str(exc)})
        return checks, payload
    recs = data.compare(ring.p - 1, rng=rng, max_card=config.max_card)["records"]
    checks += [{"name": "compari", "pass": all(r["equal"] for r in recs),
                "details": {"evaluations": len(recs)}},
               {"name": "symmetry", "pass": all(r["symmetric"] for r in recs)},
               {"name": "gamma_independence", "pass": all(r["gamma_independent"] for r in recs)}]
    return checks, payload


def _random_free_complex(ring: RingCtx, rng: SplitMix64, config: FuzzConfig):
    """Free complex R^a -> R^b with random R-linear d, and its payload."""
    a = rng.below(config.max_rank) + 1
    b = rng.below(config.max_rank) + 1
    ell = random_ell_matrix(ring, a, b, rng)
    cx = TwoTermComplex.free(ring, a, b, r_matrix_expand(ring, ell))
    payload = {"ring": [ring.p, ring.n], "rank1": a, "rank2": b,
               "d": [int(x) for x in cx.d.reshape(-1)]}
    return cx, payload


def _trial_relate(ring: RingCtx, rng: SplitMix64, config: FuzzConfig):
    cx, payload = _random_free_complex(ring, rng, config)
    checks = [{"name": f"relate_k{k}", "pass": cx.verify_relate(k)}
              for k in range(1, ring.p)]
    return checks, payload


def _trial_coker(ring: RingCtx, rng: SplitMix64, config: FuzzConfig):
    cx, payload = _random_free_complex(ring, rng, config)
    return [c for k in range(1, ring.p) for c in _coker_checks(cx, k)], payload


def _trial_stark(ring: RingCtx, rng: SplitMix64, config: FuzzConfig):
    inst = random_instance(ring, rng, max_rank=config.max_rank)
    payload = stark_to_json(inst)
    checks, _ = _stark_checks(inst, inst.stark_system(random_unit(ring, rng)))
    return checks, payload


def _trial_structure(_ring: RingCtx, rng: SplitMix64, config: FuzzConfig):
    p = STRUCTURE_PRIMES[rng.below(len(STRUCTURE_PRIMES))]
    rows = rng.below(5) + 1
    cols = rng.below(5) + 1
    mat = rng.below_many(101, rows * cols).reshape(rows, cols) - 50
    cx = IntComplex.make(p, mat)
    rep = verify_recovery(cx)
    return [{"name": "recovery", "pass": rep["pass"]}], int_complex_to_json(cx)


_TRIALS = {
    "compari": _trial_compari,
    "relate": _trial_relate,
    "coker": _trial_coker,
    "stark": _trial_stark,
    "structure": _trial_structure,
}


def run_fuzz(config: FuzzConfig) -> dict:
    records = []
    truncated = False
    started = time.monotonic()
    offset = 0
    for trial in range(config.trials):
        if config.time_budget is not None and time.monotonic() - started > config.time_budget:
            truncated = True
            break
        for suite in config.suites:
            ring = RingCtx(*config.rings[trial % len(config.rings)])
            rng = trial_rng(config.seed, offset)
            try:
                checks, payload = _TRIALS[suite](ring, rng, config)
            except (PairingError, StarkError, AssertionError) as exc:
                checks, payload = (
                    [{"name": "construct", "pass": False, "details": str(exc)}],
                    None,
                )
            record = {
                "suite": suite,
                "offset": offset,
                "ring": [ring.p, ring.n],
                "digest": digest(payload) if payload is not None else "-",
                "checks": checks,
            }
            if payload is not None and any(not c["pass"] for c in checks):
                record["instance"] = payload
            records.append(record)  # in offset order
            offset += 1
    per_suite: dict[str, dict[str, int]] = {}
    for rec in records:
        bucket = per_suite.setdefault(rec["suite"], {"records": 0, "failures": 0})
        bucket["records"] += 1
        if any(not c["pass"] for c in rec["checks"]):
            bucket["failures"] += 1
    return _report("fuzz", config.to_json(), records,
                   extra={"truncated": truncated, "suites": per_suite})


def cmd_fuzz(args) -> dict:
    suites = args.suite.split(",") if args.suite else list(SUITES)
    for s in suites:
        if s not in SUITES:
            raise InputError("$.suite", f"unknown suite {s!r}")
    if args.trials < 0:
        raise InputError("$.trials", "must be nonnegative")
    if args.max_rank < 1:
        raise InputError("$.max_rank", "must be at least 1")
    if args.time_budget is not None and not 0 <= args.time_budget < float("inf"):
        raise InputError("$.time_budget", "must be finite and nonnegative")
    for i, (p, n) in enumerate(args.rings):
        try:
            m = RingCtx(p, n).m
        except ValueError as exc:
            raise InputError(f"$.rings[{i}]", str(exc)) from exc
        if args.max_rank * m > AMBIENT_LIMIT:  # a generated complex or datum as a file would be
            raise InputError("$.max_rank", f"limit max_rank * p^n <= {AMBIENT_LIMIT} on ring "
                             f"{p},{n}", kind="resource-limit")
    return run_fuzz(FuzzConfig(seed=args.seed, trials=args.trials, rings=args.rings,
                               suites=suites, max_rank=args.max_rank, max_card=args.max_card,
                               time_budget=args.time_budget))


# -- entry point -----------------------------------------------------------------


def _ring_pair(text: str) -> tuple[int, int]:
    try:
        p, n = text.split(",")
        return int(p), int(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected --ring p,n") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derived-heights",
        description="exact checks for group-ring height pairings and Stark ideals",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--ring", dest="rings", action="append", type=_ring_pair,
                        metavar="p,n", help="ring for fuzzing (repeatable)")
    parser.add_argument("--json-out", metavar="PATH",
                        help="also write the report to this file")
    parser.add_argument("--max-card", type=int, default=10 ** 4,
                        help="skip exhaustive enumeration above this cardinality")
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--time-budget", type=float, default=None,
                        help="fuzz wall-clock budget in seconds (marks truncation)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("pairing", "spectral"):
        cmd = sub.add_parser(name)
        cmd.add_argument("file")
        cmd.add_argument("--kmax", type=int, default=None)
    for name in ("stark", "structure"):
        cmd = sub.add_parser(name)
        cmd.add_argument("file")
    fit = sub.add_parser("fitting")
    fit.add_argument("file")
    fit.add_argument("--imax", type=int, default=None)
    fz = sub.add_parser("fuzz")
    fz.add_argument("--suite", default=None,
                    help="comma-separated subset of " + ",".join(SUITES))
    return parser


_COMMANDS = {
    "pairing": cmd_pairing,
    "spectral": cmd_spectral,
    "stark": cmd_stark,
    "fitting": cmd_fitting,
    "structure": cmd_structure,
    "fuzz": cmd_fuzz,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rings is None:
        args.rings = [(3, 1), (3, 2), (5, 1)]
    try:
        if args.max_card < 0:  # no cardinality is below it
            raise InputError("$.max_card", "must be nonnegative")
        report = _COMMANDS[args.command](args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (PairingError, StarkError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    with open(args.json_out, "w", encoding="utf-8") if args.json_out else nullcontext() as fh:
        write_json(report, [sys.stdout] + ([fh] if fh else []))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
