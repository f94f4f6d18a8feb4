"""Mutation check: every planted fault must make a named fast test fail.

    python3 tools/mutants.py            # run every mutant
    python3 tools/mutants.py NAME ...   # run the named mutants
    python3 tools/mutants.py --list     # list the mutants

Each mutant is one (file, old, new) text patch against the source tree and
the tests that must catch it.  For each mutant the script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a fresh temporary directory,
replaces the one occurrence of ``old`` by ``new`` (a stale patch, whose
``old`` no longer occurs exactly once, is an error) and runs the named
tests with pytest.  A mutant is killed when pytest reports a failure or
an error.  The named tests are first run once on an unpatched copy and
must pass there.  Not part of tier-1: it takes a few minutes.

Exit status 0 means every mutant was killed, 1 that one survived and 2
that the list is stale or the unpatched tests fail.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


LA = "src/derived_heights/linalg.py"
CX = "src/derived_heights/complexes.py"
GR = "src/derived_heights/groupring.py"
RNG = "src/derived_heights/rng.py"
HT = "src/derived_heights/heights.py"
MD = "src/derived_heights/modules.py"
ST = "src/derived_heights/stark.py"
RC = "src/derived_heights/recovery.py"
IL = "src/derived_heights/intlinalg.py"
T_LA = "tests/test_linalg.py::"
T_PR = "tests/test_properties.py::"
T_CX = "tests/test_complexes.py::"
T_HT = "tests/test_heights.py::"
T_MD = "tests/test_modules.py::"
T_ST = "tests/test_stark.py::"
T_RC = "tests/test_recovery.py::"
MAP_CHECKS = (T_MD + "test_map_checks_reject_each_broken_condition",)
WEDGE_KERNEL = (T_ST + "test_functional_outside_the_bidual_is_caught",
                T_ST + "test_functional_killed_by_the_first_annihilator_only_is_caught")
WEDGE_TEST = "self.eps[vertex], ring.m), ring.m).any():\n                    return False"

DESCENT = (T_RC + "test_descent_matches_the_per_k_intersections",
           T_RC + "test_descent_tau_is_the_oracle_tau_at_every_k",
           T_RC + "test_profile_is_constant_after_the_descent_stabilizes")
INTERSECT_PREIMAGE = (T_PR + "test_span_intersect_is_the_enumerated_intersection",
                      T_PR + "test_preimage_is_the_enumerated_preimage")
SPAN_ALGEBRA = (T_PR + "test_span_algebra_is_the_enumerated_set_algebra",
                T_LA + "test_span_of_arbitrary_rows_is_their_howell_form",
                T_LA + "test_span_reducer_is_built_once_and_is_its_own")

T_UP = "tests/test_unit_pivots.py::"
UNIT_PIVOTS = (T_UP + "test_reduce_and_solve_match_the_sequential_walk",
               T_UP + "test_reduce_and_solve_match_the_sequential_walk_on_drawn_matrices")

MUTANTS = (
    # -- Zassenhaus intersection and preimage ----------------------------------
    Mutant("tail-takes-left-block", LA,
           "return h[int(h[:, :cols].any(axis=1).sum()):, cols:]",
           "return h[int(h[:, :cols].any(axis=1).sum()):, :cols]", INTERSECT_PREIMAGE),
    Mutant("tail-drops-first-row", LA,
           "return h[int(h[:, :cols].any(axis=1).sum()):, cols:]",
           "return h[int(h[:, :cols].any(axis=1).sum()) + 1:, cols:]", INTERSECT_PREIMAGE),
    Mutant("intersect-right-block-zero", LA,
           "return _zassenhaus(a.h, a.h, b)",
           "return _zassenhaus(a.h, 0 * a.h, b)", INTERSECT_PREIMAGE),
    Mutant("preimage-twice-identity", LA,
           "return _zassenhaus(a, np.eye(a.shape[0], dtype=np.int64), b)",
           "return _zassenhaus(a, 2 * np.eye(a.shape[0], dtype=np.int64), b)",
           INTERSECT_PREIMAGE),
    # -- the batched Bockstein-square check and the per-complex memo -------------
    Mutant("relate-drops-last-generator", CX,
           "gens = psi.src.num.h", "gens = psi.src.num.h[:-1]",
           (T_CX + "test_verify_relate_fails_when_one_generator_breaks_the_square",)),
    Mutant("relate-checks-first-row-only", CX,
           "return not beta.tgt.reduce(diff).any()",
           "return not beta.tgt.reduce(diff[:1]).any()",
           (T_CX + "test_verify_relate_fails_when_one_generator_breaks_the_square",)),
    Mutant("memo-key-without-arguments", CX,
           "key = (name, *args)", "key = (name,)",
           (T_CX + "test_memo_matches_a_fresh_complex_per_call",)),
    Mutant("memo-key-without-method", CX,
           "key = (name, *args)", "key = tuple(args)",
           (T_CX + "test_memo_matches_a_fresh_complex_per_call",)),
    Mutant("differential-writable", CX,
           "self._d.setflags(write=False)", "pass",
           (T_CX + "test_differential_is_read_only",)),
    # -- the batched accumulations ---------------------------------------------------
    Mutant("reducer-bound-unchecked", LA,
           "check_accumulation(h.shape[0], self.m)  # one pivot per row", "pass",
           (T_LA + "test_batched_accumulation_bound_is_asserted",
            T_UP + "test_unit_pivots_leave_the_walk_and_the_bound_counts_all")),
    Mutant("bound-without-squares", LA,
           "terms * (m - 1) ** 2 + m < 1 << 63", "terms * (m - 1) + m < 1 << 63",
           (T_LA + "test_batched_accumulation_bound_is_asserted",)),
    Mutant("graded-scalars-from-first-row", GR,
           "return v[:, 0] % ring.m", "return v[:1, 0].repeat(len(v)) % ring.m",
           ("tests/test_groupring.py::test_graded_scalars_of_a_batch",)),
    Mutant("one-row-reduce-not-reshaped", LA,
           "return (out % m).reshape(v.shape)", "return out % m",
           (T_LA + "test_one_vector_is_the_one_row_case",)),
    # -- the unit pivots in one product, and free modules by their blocks ------------
    Mutant("unit-product-skips-a-row", LA,
           "return cols[unit], h[unit], list(", "return cols[unit][1:], h[unit][1:], list(", UNIT_PIVOTS),
    Mutant("non-unit-pivot-in-unit-product", LA,
           "unit = entries == 1", "unit = entries <= 3",
           UNIT_PIVOTS),
    Mutant("free-flag-from-gamma", MD,
           "self.free_rank: Optional[int] = None  # set by free_module alone",
           "free = np.kron(np.eye(dim // ring.m, dtype=np.int64), regular_rep(ring.gamma()))\n"
           "        self.free_rank = dim // ring.m if np.array_equal(self.gamma, free) else None",
           (T_UP + "test_free_flag_is_not_read_off_gamma",)),
    Mutant("whole-span-by-shape", LA,
           "return h.shape[0] == h.shape[1] and bool((h.diagonal() == 1).all())",
           "return h.shape[0] == h.shape[1]",
           (T_UP + "test_intersection_with_the_whole_ambient_is_the_other_span",)),
    Mutant("free-ideal-span-one-block", MD,
           "_diagonal_copies(self.free_rank, block)", "_diagonal_copies(1, block)",
           (T_UP + "test_free_block_forms_match_the_generic_route",)),
    Mutant("raw-product-in-src", MD,
           "return self.tgt.reduce(la.mul_mod(v, self.mat, self.src.m))",
           "return self.tgt.reduce(np.asarray(v, dtype=np.int64) @ self.mat % self.src.m)",
           (T_LA + "test_every_matrix_product_in_src_goes_through_mul_mod",)),
    Mutant("tau-doubling-from-zero", RC,
           "kmax = 2 * max(kmax, 1)", "kmax *= 2",
           (T_RC + "test_profile_from_kmax_zero_returns",)),
    # -- the Span value -----------------------------------------------------------------
    Mutant("span-equality-by-shape", LA,
           "self.h.shape == other.h.shape\n                and bool((self.h == other.h).all()))",
           "self.h.shape == other.h.shape)",
           SPAN_ALGEBRA + (T_LA + "test_span_equality_and_hash_include_the_ring",)),
    Mutant("span-equality-ignores-ring", LA,
           "return ((self.p, self.n) == (other.p, other.n) and self.h.shape",
           "return (self.h.shape",
           (T_LA + "test_span_equality_and_hash_include_the_ring",
            "tests/test_modules.py::test_ideals_over_different_rings_are_not_equal")),
    Mutant("sum-skips-canonicalization", LA,
           "return Span(np.vstack([self.h, other.h]), self.p, self.n)",
           "return Span._of_howell(np.vstack([self.h, other.h]), self.p, self.n)",
           SPAN_ALGEBRA),
    Mutant("sum-keeps-summand-reducer", LA,
           "return Span(np.vstack([self.h, other.h]), self.p, self.n)",
           "out = Span(np.vstack([self.h, other.h]), self.p, self.n)\n"
           "        object.__setattr__(out, '_reducer', self._reducer)\n"
           "        return out",
           SPAN_ALGEBRA),
    Mutant("sum-with-zero-returns-zero", LA,
           "if not other.h.shape[0]:\n            return self",
           "if not other.h.shape[0]:\n            return other",
           SPAN_ALGEBRA),
    Mutant("size-ignores-pivot-valuation", LA,
           "return prod(self.m // pv for _, _, pv in _pivots_of(self.h))",
           "return self.m ** len(_pivots_of(self.h))",
           SPAN_ALGEBRA),
    Mutant("contains-ignores-ring", LA,
           "_same_ring(self, other)\n            other = other.h",
           "other = other.h",
           (T_LA + "test_spans_over_different_rings_do_not_combine",)),
    Mutant("span-rows-writable", LA,
           "h.setflags(write=False)\n        for name", "for name",
           (T_LA + "test_span_h_is_read_only",)),
    Mutant("span-attributes-writable", LA,
           'raise AttributeError("a Span is immutable")',
           "object.__setattr__(self, name, value)",
           (T_LA + "test_span_h_is_read_only",)),
    # -- block draws and the datum-independent pairing set-up ---------------------
    Mutant("block-advances-state-one-short", RNG,
           "self.state = (self.state + count * _GAMMA) & _MASK",
           "self.state = (self.state + (count - 1) * _GAMMA) & _MASK",
           (T_PR + "test_block_draws_are_the_scalar_draws",)),
    Mutant("block-starts-at-zero", RNG,
           "np.arange(1, count + 1, dtype=np.uint64)", "np.arange(0, count, dtype=np.uint64)",
           (T_PR + "test_block_draws_are_the_scalar_draws",)),
    Mutant("lift-solver-keyed-without-generator", HT,
           "_lift_solver(ring, free.dim // m, k, gen_exp)",
           "_lift_solver(ring, free.dim // m, k, 1)",
           (T_HT + "test_lift_chains_solve_the_equations_of_their_generator",)),
    Mutant("shared-lift-solver-ignores-generator", HT,
           "d = derivative_op(ring, k - 1, gen_exp)", "d = derivative_op(ring, k - 1, 1)",
           (T_HT + "test_shared_solvers_draw_like_fresh_ones",)),
    Mutant("module-gamma-writable", MD,
           "self.gamma.setflags(write=False)", "pass",
           (T_MD + "test_shared_free_module_is_read_only",)),
    Mutant("fixed-point-span-ignores-den", MD,
           "la.preimage(gm1, self.den), self.num)",
           "la.preimage(gm1, la.Span.zero(self.dim, self.p, self.n)), self.num)",
           (T_MD + "test_kept_fixed_point_span_is_a_fresh_computation",)),
    Mutant("contraction-block-drops-last-row", HT,
           "for t0 in range(0, cols, step):", "for t0 in range(0, cols - 1, step):",
           (T_HT + "test_value_table_equals_the_per_shift_loop",)),
    # -- checks decided on generating rows, and the guarded modular product -------
    Mutant("map-numerator-first-row-only", MD,
           "tgt.num.contains(la.mul_mod(src.num.h, mat, m))",
           "tgt.num.contains(la.mul_mod(src.num.h[:1], mat, m))", MAP_CHECKS),
    Mutant("map-denominator-checked-on-numerator", MD,
           "tgt.den.contains(la.mul_mod(src.den.h, mat, m))",
           "tgt.den.contains(la.mul_mod(src.num.h, mat, m))", MAP_CHECKS),
    Mutant("map-commutation-on-denominator", MD,
           "tgt.den.contains(la.mul_mod(src.num.h, comm, m))",
           "tgt.den.contains(la.mul_mod(src.den.h, comm, m))", MAP_CHECKS),
    Mutant("gamma-stability-of-numerator-only", MD,
           "for span in (num, den):", "for span in (num,):",
           (T_MD + "test_span_that_is_not_gamma_stable_is_rejected",)),
    Mutant("annihilation-tested-against-numerator", MD,
           "if not mod.den.contains(la.mul_mod(mod.num.h",
           "if not mod.num.contains(la.mul_mod(mod.num.h",
           (T_MD + "test_ideal_that_does_not_annihilate_is_caught",)),
    Mutant("ideal-rows-transposed", MD,
           'regular_rep(e) if tag == "R"', 'regular_rep(e).T if tag == "R"',
           (T_MD + "test_ideal_of_elements_is_spanned_by_their_gamma_multiples",)),
    Mutant("wedge-kernel-first-functional-per-vertex", ST,
           WEDGE_TEST, WEDGE_TEST + "\n                break", WEDGE_KERNEL),
    Mutant("wedge-kernel-returns-after-first-functional", ST,
           WEDGE_TEST, WEDGE_TEST + "\n                return True", WEDGE_KERNEL),
    Mutant("convolve-correlates", GR,
           "np.asarray(b, dtype=np.int64)[_rep_index(m)]",
           "np.asarray(b, dtype=np.int64)[_rep_index(m).T]",
           (T_PR + "test_convolve_is_the_double_loop_convolution",)),
    Mutant("product-bound-without-squares", LA,
           "a.shape[-1] * (m - 1) ** 2 < 1 << 63", "a.shape[-1] * (m - 1) < 1 << 63",
           (T_LA + "test_modular_product_bound_is_asserted_at_its_boundary",)),
    Mutant("product-factors-unreduced", LA,
           "a, b = np.asarray(a, dtype=np.int64) % m, np.asarray(b, dtype=np.int64) % m",
           "a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)",
           (T_LA + "test_modular_product_bound_is_asserted_at_its_boundary",
            T_PR + "test_convolve_is_the_double_loop_convolution")),
    # -- the lattice descent of the tau profile ------------------------------------
    Mutant("descent-drops-p-multiples", RC,
           "il.int_echelon([[p * x for x in row] for row in basis] + lifts)",
           "il.int_echelon(lifts)", DESCENT),
    Mutant("stability-on-one-dim-kernel", RC,
           "if not ker:", "if len(ker) <= 1:", DESCENT),
    Mutant("reduction-divides-by-next-power", RC,
           "[[x // pk for x in row] for row in basis]",
           "[[x // (pk * p) for x in row] for row in basis]", DESCENT),
    Mutant("descent-lifts-first-kernel-vector", RC,
           "for coeffs in ker]", "for coeffs in ker[:1]]", DESCENT),
    Mutant("descent-consults-smith-oracle", RC,
           "basis = il.int_echelon(cx.d)",
           "basis = il.int_echelon(cx.d)\n    il.smith_form_int(cx.d)",
           (T_RC + "test_descent_calls_no_smith_code",)),
    Mutant("left-kernel-skips-next-row", IL,
           "for i in range(rank + 1, r):", "for i in range(rank + 2, r):",
           ("tests/test_intlinalg.py::test_fp_left_kernel_is_rank_and_left_kernel",) + DESCENT),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the patch text occurs {text.count(mutant.old)} "
                         f"times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = ap.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.path}")
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "unpatched"
        copy_tree(base)
        tests = sorted({t for m in chosen for t in m.tests})
        done = run_tests(base, tests)
        if done.returncode != 0:
            print(done.stdout[-2000:], file=sys.stderr)
            print("the named tests fail without any mutant", file=sys.stderr)
            return 2
        survivors = []
        for i, mutant in enumerate(chosen):
            tree = Path(tmp) / f"m{i}"
            copy_tree(tree)
            try:
                apply(tree, mutant)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            done = run_tests(tree, mutant.tests)
            killed = done.returncode in (1, 2)  # tests failed, or errored on collection
            summary = (done.stdout.strip().splitlines() or ["(no output)"])[-1]
            print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name}: {summary}")
            if not killed:
                survivors.append(mutant.name)
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
