"""Outside-in tracer: wraps the package's public functions from outside.

Every listed name is replaced in each package module that binds it, so
calls through ``la.howell_form`` and through a by-name import such as
``heights.convolve`` are both seen.  A wrapped call records a span
(name, start, end, parent span, trial id) in flat arrays kept in
memory; per-layer metrics are derived from the spans when the run
ends.  Self time is a span's duration minus the time of its child
spans, where a child's time includes its wrapper's bookkeeping, so the
tracer's own cost is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "derived_heights"

# <module>: names wrapped in it; "Class.init" is the constructor
TARGETS = {
    "linalg": ("howell_form", "kernel", "span_intersect", "preimage", "image_span",
               "span_elements", "Solver.init", "Solver.solve", "Solver.random_solution",
               "CosetReducer.reduce"),
    "groupring": ("convolve", "regular_rep"),
    "modules": ("FpModule.init", "ModuleHom.init", "fitting_from_matrix",
                "ExteriorAlgebra.module"),
    "complexes": ("TwoTermComplex.page_entry", "TwoTermComplex.derived_bockstein",
                  "TwoTermComplex.generalized_bockstein", "TwoTermComplex.h1_mod_ik",
                  "TwoTermComplex.h2_ik_step"),
    "heights": ("PairingData.init", "PairingData.validate", "PairingData.bd_pairing",
                "PairingData.boc_pairing", "PairingData.eval_functional"),
    "stark": ("StarkInstance.init", "StarkInstance.stark_system", "verify_fitting",
              "StarkSystem.check_compatible", "StarkSystem.check_kills_wedge_kernel"),
    "recovery": ("tau_value", "snf_oracle"),
    "intlinalg": ("int_echelon", "smith_form_int", "minor_gcd"),
}
# names counted without a span (too frequent and too small to time)
COUNTED = {"rng": ("SplitMix64.next_u64",)}

HOWELL = "linalg.howell_form"
REDUCE = "linalg.CosetReducer.reduce"
# Howell input width classes: (metric infix, lowest cols, highest cols)
HOWELL_COLS = (("cols_le16", 0, 16), ("cols_17_32", 17, 32), ("cols_gt32", 33, 1 << 30))


def _resolve(module, dotted: str):
    """(owner, attribute, original) for 'func' or 'Class.method'."""
    if "." in dotted:
        cls_name, meth = dotted.split(".")
        owner = getattr(module, cls_name)
        attr = "__init__" if meth == "init" else meth
        return owner, attr, owner.__dict__[attr]
    return module, dotted, getattr(module, dotted)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and counters of one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("d")  # duration including the wrapper's bookkeeping
        self.width = array("i")  # input columns of a Howell call, else -1
        self.stack = [-1]
        self.trial = -1
        self.counts = {"rng.draws": 0, "heights.evaluations": 0,
                       "howell.repeat": 0, "howell.canonical": 0, "reduce.repeat": 0}
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._howell_seen: set = set()
        self._reduce_seen: set = set()
        self._reducers: dict = {}

    # -- installing ---------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, names in list(TARGETS.items()) + list(COUNTED.items()):
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for dotted in names:
                label = f"{mod_name}.{dotted}"
                try:
                    owner, attr, original = _resolve(home, dotted)
                except (AttributeError, KeyError):
                    # a renamed or removed function reports zero calls
                    self.missing.append(label)
                    continue
                if mod_name in COUNTED:
                    wrapper = self._counting(original)
                else:
                    wrapper = self._spanning(label, original)
                if owner is home:
                    # every module namespace that binds the same object
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
                else:
                    self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_trial(self, trial: int) -> None:
        """Repeats are counted within one trial."""
        self.trial = trial
        self._howell_seen.clear()
        self._reduce_seen.clear()
        self._reducers.clear()

    # -- wrappers ---------------------------------------------------------------

    def _counting(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["rng.draws"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        materialize = inspect.isgeneratorfunction(fn)
        before = {HOWELL: self._howell_before, REDUCE: self._reduce_before}.get(label)
        after = self._howell_after if label == HOWELL else None
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            idx = len(self.name_of)
            self.name_of.append(nid)
            self.parent.append(stack[-1])
            self.trial_of.append(self.trial)
            for column in (self.start, self.end, self.outer):
                column.append(0.0)
            self.width.append(-1)
            note = before(idx, args, kwargs) if before else None
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    # a generator does its work while consumed; every
                    # caller consumes it whole, so consume it inside the span
                    out = iter(list(out))
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after:
                after(note, out)
            self.outer[idx] = clock() - t_in
            return out
        return wrapper

    def _howell_before(self, idx, args, kwargs):
        a = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "a"), dtype=np.int64))
        p, n = _arg(args, kwargs, 1, "p"), _arg(args, kwargs, 2, "n")
        self.width[idx] = a.shape[1]
        key = (p, n, a.shape, a.tobytes())
        if key in self._howell_seen:
            self.counts["howell.repeat"] += 1
        else:
            self._howell_seen.add(key)
        return a

    def _howell_after(self, a, out) -> None:
        if out.shape == a.shape and np.array_equal(out, a):
            self.counts["howell.canonical"] += 1

    def _reduce_before(self, idx, args, kwargs):
        reducer, v = args[0], _arg(args, kwargs, 1, "v")
        self._reducers[id(reducer)] = reducer  # keeps ids unique within the trial
        key = (id(reducer), (np.asarray(v, dtype=np.int64) % reducer.m).tobytes())
        if key in self._reduce_seen:
            self.counts["reduce.repeat"] += 1
        else:
            self._reduce_seen.add(key)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self time, width classes and ratios."""
        name_of = np.array(self.name_of, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        outer = np.array(self.outer, dtype=float)
        width = np.array(self.width, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=outer[has_parent],
                                 minlength=len(dur))
        self_s = dur - child_time
        by_name = {name: i for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for name in (f"{mod}.{name}" for mod, names in TARGETS.items() for name in names):
            sel = name_of == by_name[name] if name in by_name else np.zeros(len(dur), bool)
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.self_s"] = float(self_s[sel].sum())
        howell = out[f"{HOWELL}.calls"]
        for infix, lo, hi in HOWELL_COLS:
            sel = (width >= lo) & (width <= hi)
            out[f"{HOWELL}.{infix}.calls"] = int(sel.sum())
            out[f"{HOWELL}.{infix}.self_s"] = float(self_s[sel].sum())
        reduce_calls = out[f"{REDUCE}.calls"]
        out[f"{HOWELL}.repeat_frac"] = self.counts["howell.repeat"] / howell if howell else 0.0
        out[f"{HOWELL}.canonical_input_frac"] = (
            self.counts["howell.canonical"] / howell if howell else 0.0)
        out[f"{REDUCE}.repeat_frac"] = (
            self.counts["reduce.repeat"] / reduce_calls if reduce_calls else 0.0)
        out["heights.evaluations"] = self.counts["heights.evaluations"]
        out["rng.draws"] = self.counts["rng.draws"]
        return out

    def calls_in_trials(self, prefix: str, trials: set) -> int:
        """Spans whose name starts with prefix, recorded in the given trials."""
        ids = {i for i, name in enumerate(self.names) if name.startswith(prefix)}
        return sum(1 for nid, trial in zip(self.name_of, self.trial_of)
                   if nid in ids and trial in trials)

    def save(self, path) -> None:
        """Write the spans out: one row per span, names as an index table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_of, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            trial=np.array(self.trial_of, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )
