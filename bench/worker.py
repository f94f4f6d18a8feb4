"""One benchmark workload in one fresh process.

Started by run.py, never by hand:

    python3 bench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --mode {setup,measure,trace}

It imports the package from DIR/src, generates the seeded inputs, runs
one untimed warm-up trial per ring, and then

  setup    stops there and reports the set-up time;
  measure  runs whole passes closed-loop (one trial at a time) until
           at least --seconds have passed and at least MIN_PASSES passes
           are done, timing every trial;
  trace    runs pass 0 untraced and then traced, from the same cleared
           caches, and reports per-layer metrics from the spans.

Times are CPU time, so that time the core spends on other processes is
not counted.  All but the imports are also scaled to a reference speed
of the core by the speed gauge, sampled from the end of the imports on
(see gauge.py), because the speed of a core of a shared host changes
within seconds as other tenants load the host.

Every trial's outputs are checked (verdicts, pinned invariants and check
counts, and for the default seed the pinned digest of the full output).
The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import inputs
from gauge import Sampler

DEFAULT_SEED = 0
MAX_CARD = 10 ** 4   # exhaustive (s, t) enumeration bound, as in the fuzz default
MIN_PASSES = 2
TAIL_BEYOND = 10     # the tail percentile leaves this many trials beyond it in MIN_PASSES passes
PINS = Path(__file__).with_name("pins.json")
WORKLOADS = ("pairing", "spectral", "stark_structure")


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=int)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Lib:
    """The package's modules, imported from one source tree."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        import numpy
        import derived_heights
        from derived_heights import (complexes, groupring, heights, intlinalg, linalg,
                                     modules, recovery, rng, stark)

        origin = Path(derived_heights.__file__).resolve().parent
        if origin != (src / "derived_heights").resolve():
            raise ImportError(f"derived_heights imported from {origin}, not {src}")
        self.np = numpy
        self.complexes, self.groupring, self.heights = complexes, groupring, heights
        self.intlinalg, self.linalg, self.modules = intlinalg, linalg, modules
        self.recovery, self.rng, self.stark = recovery, rng, stark

    def rows(self, ring, mat):
        return [[ring.elt(self.np.array(e, dtype=self.np.int64)) for e in row] for row in mat]

    def clear_caches(self) -> None:
        """Empty every module-level lru_cache of the package."""
        for mod in (self.complexes, self.groupring, self.heights, self.intlinalg,
                    self.linalg, self.modules, self.recovery, self.rng, self.stark):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# -- trials: library calls only; the caller times them -------------------------


def run_pairing(lib, item):
    (p, n), mat, _unit, draw = item
    ring = lib.groupring.RingCtx(p, n)
    data = lib.heights.PairingData(ring, lib.rows(ring, mat))
    data.validate()
    return data.compare(p - 1, rng=lib.rng.SplitMix64(draw), max_card=MAX_CARD, audit=True)


def run_spectral(lib, item):
    (p, n), mat, _unit, _draw = item
    ring = lib.groupring.RingCtx(p, n)
    d = lib.modules.r_matrix_expand(ring, lib.rows(ring, mat))
    cx = lib.complexes.TwoTermComplex.free(ring, len(mat), len(mat[0]), d)
    return [{"k": k, "relate": cx.verify_relate(k), "coker": cx.coker_iso_reports(k)}
            for k in range(1, p)]


def run_stark(lib, item):
    (p, n), mat, unit, _draw = item
    ring = lib.groupring.RingCtx(p, n)
    inst = lib.stark.StarkInstance(ring, lib.rows(ring, mat))
    system = inst.stark_system(ring.elt(lib.np.array(unit, dtype=lib.np.int64)))
    fit = lib.stark.verify_fitting(inst, system, inst.a)
    return {"fitting": fit, "compatible": system.check_compatible(),
            "kills_wedge_kernel": system.check_kills_wedge_kernel()}


def run_structure(lib, item):
    p, mat = item
    return lib.recovery.verify_recovery(lib.recovery.IntComplex.make(p, mat))


# -- checks: (verdict, canonical output, seed-independent invariant, checks) ---------


def check_pairing(rep):
    recs = rep["records"]
    ok = bool(rep["pass"]) and all(
        r["equal"] and r["symmetric"] and r["gamma_independent"] for r in recs)
    # the value table is an isomorphism invariant; the (s, t) labels are not
    values = sorted([r["k"], list(r["bd"]), int(r["scalar"])] for r in recs)
    return ok, recs, {"evaluations": len(recs), "values": digest(values)}, len(recs)


def check_spectral(out):
    flags = [r["relate"] for r in out] + [v for r in out for v in r["coker"].values()]
    return all(bool(f) for f in flags), out, out, len(flags)


def check_stark(out):
    fit = out["fitting"]
    ok = bool(fit["pass"] and out["compatible"] and out["kills_wedge_kernel"])
    return ok, out, fit["records"], len(fit["records"]) + 2


def check_structure(res):
    return bool(res["pass"]), res, res, 1


KINDS = {
    "pairing": (run_pairing, check_pairing),
    "spectral": (run_spectral, check_spectral),
    "stark": (run_stark, check_stark),
    "structure": (run_structure, check_structure),
}


def trials(workload: str, seed: int, pass_no: int) -> list[tuple[str, object]]:
    """The (kind, input) list of one pass."""
    if workload != "stark_structure":
        return [(workload, x) for x in inputs.z_pass(workload, seed, pass_no)]
    starks = inputs.z_pass("stark", seed, pass_no)
    per = inputs.STRUCTURE_PER_STARK
    ints = inputs.structure_pass(seed, pass_no)
    out = []
    for i, x in enumerate(starks):
        out.append(("stark", x))
        out += [("structure", y) for y in ints[i * per:(i + 1) * per]]
    return out


def warmups(workload: str, seed: int) -> list[tuple[str, object]]:
    if workload != "stark_structure":
        return [(workload, x) for x in inputs.warmup_inputs(workload, seed)]
    return ([("stark", x) for x in inputs.warmup_inputs("stark", seed)]
            + [("structure", inputs.structure_pass(seed, "warmup")[0])])


class Checker:
    """Runs trials one at a time and checks every output against the
    verdicts and the pins."""

    def __init__(self, lib, workload: str, seed: int, pins: dict | None, clock):
        self.lib = lib
        self.clock = clock
        self.seed = seed
        self.pins = pins[workload]["trials"] if pins else None
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.reported = 0

    def attempt(self, kind: str, item, pass_no: int, pos: int | None):
        """(seconds, digest of the full output or None if failed, checks).

        Only the library calls are timed, by self.clock.  pos None marks
        a warm-up trial, which is held to its verdicts but has no pins.
        """
        self.attempted += 1
        run, check = KINDS[kind]
        t0 = self.clock()
        try:
            out = run(self.lib, item)
        except Exception:  # the loop must go on; the trial counts as failed
            dt = self.clock() - t0
            self.fail(f"{kind} trial {pos} of pass {pass_no} raised:\n{traceback.format_exc()}")
            return dt, None, 0
        dt = self.clock() - t0
        ok, canonical, invariant, checks = check(out)
        full = digest(canonical)
        self.checks += checks
        why = [] if ok else ["verdict false"]
        if self.pins is not None and pos is not None:
            pin = self.pins[pos]
            if checks != pin["checks"]:
                why.append(f"{checks} checks, pinned {pin['checks']}")
            if digest(invariant) != pin["invariant"]:
                why.append("invariant output differs from the pin")
            if self.seed == DEFAULT_SEED and pass_no == 0 and full != pin["seed0"]:
                why.append("output digest differs from the default-seed pin")
        if why:
            self.fail(f"{kind} trial {pos} of pass {pass_no}: {'; '.join(why)}")
            return dt, None, checks
        return dt, full, checks

    def fail(self, text: str) -> None:
        self.failed += 1
        if self.reported < 5:
            print(text, file=sys.stderr)
        self.reported += 1


def measure(workload: str, seed: int, first: list, seconds: float, checker: Checker,
            sampler: Sampler) -> dict:
    """Whole passes until `seconds` have gone by, at least MIN_PASSES.

    Each trial's CPU time is multiplied by the mean speed of the samples
    taken during it (or of the nearest ones, for a short trial), which
    gives its CPU time at reference speed.
    """
    cpu: list[tuple[int, float, int, int]] = []   # (slot, CPU s, samples lo, hi)
    pass_no = 0
    gc.collect()
    started = time.monotonic()
    while pass_no < MIN_PASSES or time.monotonic() - started < seconds:
        items = first if pass_no == 0 else trials(workload, seed, pass_no)
        for pos, (kind, item) in enumerate(items):
            lo = len(sampler.speeds)
            dt = checker.attempt(kind, item, pass_no, pos)[0]
            cpu.append((pos, dt, lo, len(sampler.speeds)))
        pass_no += 1
    sampler.stop()
    times: list[list[float]] = [[] for _ in first]
    speeds = []
    for pos, dt, lo, hi in cpu:
        speeds.append(sampler.speed(lo, hi))
        times[pos].append(dt * speeds[-1])
    # a pass of median trials: each slot's median over the passes, so a
    # burst of load from outside that hits one pass does not count
    median_pass = sorted(statistics.median(slot) for slot in times)
    # the tail percentile is fixed by the pass length, not by how many
    # passes a fast or slow program fits into the run
    q = 1.0 - TAIL_BEYOND / (len(first) * MIN_PASSES)
    beyond = math.floor(len(median_pass) * (1 - q) + 1e-9)
    return {
        "metrics": {
            "trials_per_s": len(first) / sum(median_pass),
            "trial_p50_ms": 1e3 * statistics.median(median_pass),
            "trial_tail_ms": 1e3 * median_pass[len(median_pass) - beyond - 1],
        },
        "info": {"passes": pass_no, "trials": sum(map(len, times)), "timed_s": sum(map(sum, times)),
                 "tail_percentile": round(100 * q, 2), "tail_beyond": beyond,
                 "speed_quartiles": [round(s, 3) for s in statistics.quantiles(speeds, n=4)],
                 "speed_samples": len(sampler.speeds), "sampling_s": sampler.spent},
    }


def trace(workload: str, items: list, checker: Checker, out_dir: Path) -> dict:
    """Pass 0 untraced, then traced, each from freshly emptied caches."""
    from tracer import Tracer

    tracer = Tracer()
    cpus = []
    digests = []
    structure_trials = {pos for pos, (kind, _) in enumerate(items) if kind == "structure"}
    for traced in (False, True):
        checker.lib.clear_caches()
        gc.collect()
        if traced:
            tracer.install()
        cpu = 0.0
        run = []
        try:
            for pos, (kind, item) in enumerate(items):
                tracer.begin_trial(pos)
                dt, full, checks = checker.attempt(kind, item, 0, pos)
                cpu += dt
                run.append(full)
                if traced and kind == "pairing":
                    tracer.counts["heights.evaluations"] += checks
        finally:
            tracer.uninstall()
        cpus.append(cpu)
        digests.append(run)
    # transparency: the wrappers must not change a single output
    for pos, (plain, traced) in enumerate(zip(*digests)):
        if plain is not None and traced is not None and plain != traced:
            checker.fail(f"trial {pos}: traced output differs from untraced output")
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = cpus[1] / cpus[0] - 1.0
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(out_dir / f"trace-{workload}.npz")
    return {"metrics": metrics,
            "info": {"untraced_s": cpus[0], "traced_s": cpus[1],
                     "spans": len(tracer.name_of), "missing": tracer.missing,
                     "linalg_calls_in_structure_trials":
                         tracer.calls_in_trials("linalg.", structure_trials)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    # one fixed core: the cores of a shared host can differ in speed by
    # ~10% for a minute on end, and runs that landed on either core
    # would make the figures bimodal
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    lib = Lib(args.root / "src")
    # set-up is the CPU time of the process up to the first timed trial,
    # interpreter start-up included.  The imports are not scaled: the
    # gauge tracks the library's arithmetic, not unmarshalling and linking.
    imports_s = time.process_time()
    sampler = Sampler()
    sampler.start()
    try:
        pins = json.loads(PINS.read_text()) if PINS.is_file() else None
        checker = Checker(lib, args.workload, args.seed, pins, sampler.cpu)
        first = trials(args.workload, args.seed, 0)
        for kind, item in warmups(args.workload, args.seed):
            checker.attempt(kind, item, -1, None)
        warmup_s = time.process_time() - imports_s - sampler.spent
        setup_s = imports_s + warmup_s * sampler.speed(0, len(sampler.speeds))

        if args.mode == "setup":
            result = {}
        elif args.mode == "measure":
            result = measure(args.workload, args.seed, first, args.seconds, checker, sampler)
        else:
            sampler.stop()
            result = trace(args.workload, first, checker, args.root / "bench" / "out")
    finally:
        sampler.stop()
    result.update({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "checks": checker.checks,
        "pinned": pins is not None,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
