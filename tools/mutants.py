"""Mutation check: every planted fault must make a named fast test fail.

    python3 tools/mutants.py            # run every mutant
    python3 tools/mutants.py NAME ...   # run the named mutants
    python3 tools/mutants.py --list     # list the mutants

Each mutant is one (file, old, new) text patch against the source tree (or
a test oracle) and the tests that must catch it.  For each mutant the script copies ``src/``,
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
FO = "tests/fitting_oracle.py"  # the annihilation check now lives with the Fitting oracle
T_LA = "tests/test_linalg.py::"
T_PR = "tests/test_properties.py::"
T_CX = "tests/test_complexes.py::"
T_HT = "tests/test_heights.py::"
T_MD = "tests/test_modules.py::"
T_ST = "tests/test_stark.py::"
T_RC = "tests/test_recovery.py::"
MAP_CHECKS = (T_MD + "test_map_checks_reject_each_broken_condition",)
WEDGE_KERNEL = (T_ST + "test_functional_outside_the_bidual_is_caught",
                T_ST + "test_functional_killed_by_the_first_annihilator_only_is_caught",
                T_ST + "test_functional_killed_by_every_label_but_one_is_caught")
WEDGE_TEST = "self.eps[vertex], inst.fs[q]).any():\n                    return False"

DESCENT = (T_RC + "test_descent_matches_the_per_k_intersections",
           T_RC + "test_descent_tau_is_the_oracle_tau_at_every_k",
           T_RC + "test_profile_is_constant_after_the_descent_stabilizes")
INTERSECT_PREIMAGE = (T_PR + "test_span_intersect_is_the_enumerated_intersection",
                      T_PR + "test_preimage_is_the_enumerated_preimage")
SPAN_ALGEBRA = (T_PR + "test_span_algebra_is_the_enumerated_set_algebra",
                T_LA + "test_span_of_arbitrary_rows_is_their_howell_form",
                T_LA + "test_span_reducer_is_built_once_and_is_its_own")

HOWELL_KERNEL = (T_LA + "test_howell_kernel_matches_the_oracle_on_structured_inputs",)
HOWELL_BASE = (T_LA + "test_howell_form_on_a_base_is_the_stacked_form",)
HELD = (T_LA + "test_a_base_that_holds_every_new_row_is_the_result",)

PROJECTION_TABLES = (T_HT + "test_one_by_one_pairings_keep_the_unreduced_value",
                     T_HT + "test_compare_records_match_the_golden_digest")

T_UP = "tests/test_unit_pivots.py::"
UNIT_PIVOTS = (T_UP + "test_reduce_and_solve_match_the_sequential_walk",
               T_UP + "test_reduce_and_solve_match_the_sequential_walk_on_drawn_matrices")
SOLVE = UNIT_PIVOTS + (T_LA + "test_solve_identity_and_no_solution",
                      T_LA + "test_solve_matches_span_membership")

MUTANTS = (
    # -- Zassenhaus intersection and preimage ----------------------------------
    Mutant("tail-takes-left-block", LA,
           "return h[int(h[:, :cols].any(axis=1).sum()):, cols:]",
           "return h[int(h[:, :cols].any(axis=1).sum()):, :cols]", INTERSECT_PREIMAGE),
    Mutant("tail-drops-first-row", LA,
           "return h[int(h[:, :cols].any(axis=1).sum()):, cols:]",
           "return h[int(h[:, :cols].any(axis=1).sum()) + 1:, cols:]", INTERSECT_PREIMAGE),
    Mutant("intersect-right-block-zero", LA,
           "return _zassenhaus(a.h, a, b)",
           "return _zassenhaus(a.h, Span._of_howell(0 * a.h, a.p, a.n), b)", INTERSECT_PREIMAGE),
    Mutant("preimage-twice-identity", LA,
           "return _zassenhaus(a, Span.whole(a.shape[0], b.p, b.n), b)",
           "return _zassenhaus(a, Span._of_howell(2 * np.eye(a.shape[0], dtype=np.int64), "
           "b.p, b.n), b)", INTERSECT_PREIMAGE),
    Mutant("held-meet-returns-the-base", LA,
           "if not left.any():\n        return right", "if not left.any():\n        return bottom",
           HELD + INTERSECT_PREIMAGE),
    # -- a base that holds every new row is the result ------------------------------
    # each survives every tier-1 test but these: the output is the same, only
    # the work or the sharing differs
    Mutant("held-sum-runs-the-loop", LA,
           "if not rows.any():", "if not rows.size:",
           HELD + (T_UP + "test_sum_with_a_whole_or_zero_summand_is_it_with_no_howell_form",)),
    Mutant("held-meet-runs-the-loop", LA,
           "if not left.any():", "if not left.size:", HELD),
    Mutant("held-span-rebuilds-its-reducer", LA,
           "self._set(base.h, p, n, base.reducer, base._size)", "self._set(base.h, p, n)", HELD),
    Mutant("intersect-base-by-rows-only", LA,
           "key=lambda span: (len(span.h), span.size())", "key=lambda span: len(span.h)", HELD),
    # -- the batched Bockstein-square check and the per-object memo ---------------
    Mutant("relate-drops-last-generator", CX,
           "gens = psi.src.num.h", "gens = psi.src.num.h[:-1]",
           (T_CX + "test_verify_relate_fails_when_one_generator_breaks_the_square",)),
    Mutant("relate-checks-first-row-only", CX,
           "return not beta.tgt.reduce(diff).any()",
           "return not beta.tgt.reduce(diff[:1]).any()",
           (T_CX + "test_verify_relate_fails_when_one_generator_breaks_the_square",)),
    Mutant("memo-key-without-arguments", MD,
           "key = (name, *args)", "key = (name,)",
           (T_CX + "test_memo_matches_a_fresh_complex_per_call",)),
    Mutant("memo-key-without-method", MD,
           "key = (name, *args)", "key = tuple(args)",
           (T_CX + "test_memo_matches_a_fresh_complex_per_call",)),
    Mutant("memo-shared-by-class", MD,
           "if key not in self._memo:\n            self._memo[key] = method(self, *args)\n"
           "        return self._memo[key]",
           "memo = cached.__dict__  # one memo per method, for every object\n"
           "        if key not in memo:\n            memo[key] = method(self, *args)\n"
           "        return memo[key]",
           (T_ST + "test_memos_are_per_object",)),
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
           "return images[:, 0]", "return images[:1, 0].repeat(len(images))",
           ("tests/test_groupring.py::test_graded_scalars_of_a_batch",)),
    # -- solving as the coset reduction of [b | 0] --------------------------------------
    Mutant("solve-sign-dropped", LA,
           "return (-out[:, cols:] % self.m)", "return (out[:, cols:] % self.m)",
           SOLVE),
    Mutant("solve-left-block-unchecked", LA,
           "if out[:, :cols].any():\n            return None", "if False:\n            return None",
           SOLVE),
    Mutant("one-row-reduce-not-reshaped", LA,
           "return (out % m).reshape(v.shape)", "return out % m",
           (T_LA + "test_one_vector_is_the_one_row_case",)),
    # -- the unit pivots in one product, and free modules by their blocks ------------
    Mutant("unit-product-skips-a-row", LA,
           "return cols[unit], h[unit], list(", "return cols[unit][1:], h[unit][1:], list(", UNIT_PIVOTS),
    Mutant("non-unit-pivot-in-unit-product", LA,
           "unit = entries == 1", "unit = entries <= 3",
           UNIT_PIVOTS),
    Mutant("scale-matrix-orbit-not-regrouped", MD,
           "pows.transpose(1, 0, 2).reshape(self.m, -1)", "pows.reshape(self.m, -1)",
           (T_UP + "test_free_block_forms_match_the_generic_route",)),
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
           "else la.mul_mod(v, self.mat, self.src.m)",
           "else np.asarray(v, dtype=np.int64) @ self.mat % self.src.m",
           (T_LA + "test_every_matrix_product_in_src_goes_through_mul_mod",)),
    Mutant("tau-doubling-from-zero", RC,
           "kmax = 2 * max(kmax, 1)", "kmax *= 2",
           (T_RC + "test_profile_from_kmax_zero_returns",)),
    # -- the Howell kernel's pivot step, with deferred reduction ---------------------
    Mutant("howell-final-reduction-dropped", LA,
           "h = w[:j] % m", "h = w[:j]", HOWELL_KERNEL),
    Mutant("howell-zero-run-jump-one-too-far", LA,
           "c += 1 + int(live[0])", "c += 2 + int(live[0])", HOWELL_KERNEL),
    Mutant("howell-bound-unchecked", LA,
           "check_accumulation(cols * m, m)  # deferred entries times a unit inverse", "pass",
           (T_LA + "test_howell_kernel_bound_is_asserted",)),
    Mutant("howell-swap-skipped", LA,
           "if i != j:\n            w[i], col[i] = w[j], col[j]",
           "if i == j:\n            w[i], col[i] = w[j], col[j]", HOWELL_KERNEL),
    # -- a Howell form extended from a base span -----------------------------------
    # the first three survive every other tier-1 test; the last two are the
    # base mechanism's own faults, which the span checks downstream catch too
    Mutant("howell-base-ring-unchecked", LA,
           "if (base.p, base.n, base.h.shape[1]) != (p, n, rows.shape[1]):",
           "if base.h.shape[1] != rows.shape[1]:", HOWELL_BASE),
    Mutant("howell-base-width-unchecked", LA,
           "if (base.p, base.n, base.h.shape[1]) != (p, n, rows.shape[1]):",
           "if (base.p, base.n) != (p, n):", HOWELL_BASE),
    Mutant("howell-base-sort-on-zero-width", LA,
           "if base is not None and j:", "if base is not None:", HOWELL_BASE),
    Mutant("howell-base-pivots-unsorted", LA,
           "h = h[(h != 0).argmax(axis=1).argsort()]", "pass", HOWELL_BASE),
    Mutant("howell-base-non-unit-rows-placed", LA,
           "placed, rest = r.unit_rows, r.h[[i for i, _, _ in r.pivots]]",
           "placed, rest = r.h, r.h[:0]", HOWELL_BASE),
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
           "return Span(rows.h, self.p, self.n, base)",
           "return Span._of_howell(np.vstack([base.h, rows.h]), self.p, self.n)",
           SPAN_ALGEBRA),
    Mutant("sum-keeps-summand-reducer", LA,
           "return Span(rows.h, self.p, self.n, base)",
           "out = Span(rows.h, self.p, self.n, base)\n"
           "        object.__setattr__(out, '_reducer', self._reducer)\n"
           "        return out",
           SPAN_ALGEBRA),
    Mutant("sum-with-zero-returns-zero", LA,
           "if _is_whole(self) or not other.h.shape[0]:\n            return self",
           "if _is_whole(self) or not other.h.shape[0]:\n            return other",
           SPAN_ALGEBRA),
    Mutant("size-ignores-pivot-valuation", LA,
           "self.p ** (self.n * len(self.h) - v)", "self.p ** (self.n * len(self.h))",
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
    Mutant("k1-chain-copies-the-first-draw", HT,
           "tilde = np.tile(targets % m, (draws, 1))",
           "tilde = np.tile(targets % m, (draws, 1))\n        if k == 1:\n"
           "            x = _lift_solver(ring, free.dim // m, k, gen_exp).random_solution(targets, rng)\n"
           "            return np.tile(x, (draws, 1)).reshape(draws, len(targets), -1)",
           (T_HT + "test_lift_chains_solve_the_equations_of_their_generator",)),
    Mutant("lift-solver-keyed-without-generator", HT,
           "_lift_solver(ring, tilde.shape[1] // m, k, gen_exp)",
           "_lift_solver(ring, tilde.shape[1] // m, k, 1)",
           (T_HT + "test_lift_chains_solve_the_equations_of_their_generator",)),
    Mutant("stacked-draws-copy-the-first", HT,
           "random_solution(np.tile(t_rows, (draws, 1)), rng)",
           "random_solution(t_rows, rng)\n        ys = np.tile(ys, (draws, 1))",
           (T_HT + "test_stacked_draws_are_independent_solutions",)),
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
    Mutant("annihilator-skips-the-product", LA,
           "return (not mul_mod(span.h, cols, span.m).any()\n            and Span(",
           "return (True\n            and Span(",
           (T_LA + "test_spans_annihilator_needs_the_product_and_the_count",)),
    Mutant("contraction-block-drops-last-row", HT,
           "for t0 in range(0, cols, step):", "for t0 in range(0, cols - 1, step):",
           (T_HT + "test_value_table_equals_the_per_shift_loop",)),
    # -- pairing tables read straight into Q^k ------------------------------------------
    Mutant("projection-escape-check-skipped", HT,
           "if any(t[:, :, 1:].any() for t in tables):", "if False:",
           (T_HT + "test_value_moved_off_i_k_is_caught",)),
    Mutant("projection-scalar-from-wrong-column", HT,
           "scalars = [t[:, :, 0] for t in tables]", "scalars = [t[:, :, -1] for t in tables]",
           PROJECTION_TABLES),
    Mutant("projection-reps-indexed-off-by-one", HT,
           '"bd": rep_lists[v], "boc": rep_lists[c],',
           '"bd": rep_lists[(v + 1) % ring.m], "boc": rep_lists[(c + 1) % ring.m],',
           PROJECTION_TABLES),
    Mutant("projection-reps-built-off-by-one", GR,
           "reps = ik1.reduce(np.outer(np.arange(ring.m), gm1k))",
           "reps = ik1.reduce(np.outer(np.arange(1, ring.m + 1), gm1k))",
           (T_HT + "test_graded_projection_matches_its_definition",)),
    # -- checks decided on generating rows, and the guarded modular product -------
    Mutant("map-numerator-first-row-only", MD,
           "tgt.num.contains(image)", "tgt.num.contains(image[:1])", MAP_CHECKS),
    Mutant("map-denominator-checked-on-numerator", MD,
           "tgt.den.contains(self._rows(src.den.h))",
           "tgt.den.contains(self._rows(src.num.h))", MAP_CHECKS),
    Mutant("map-commutation-on-denominator", MD,
           "comm = (la.mul_mod(src.num.h, self._rows(src.gamma), m)\n"
           "                    - la.mul_mod(image, tgt.gamma, m))",
           "comm = (la.mul_mod(src.den.h, self._rows(src.gamma), m)\n"
           "                    - la.mul_mod(self._rows(src.den.h), tgt.gamma, m))", MAP_CHECKS),
    # -- the identity on representatives (no matrix) -------------------------------
    Mutant("identity-numerator-unchecked", MD,
           "if not tgt.num.contains(image):",
           "if not (self.mat is None or tgt.num.contains(image)):", MAP_CHECKS),
    Mutant("identity-denominator-unchecked", MD,
           "if not tgt.den.contains(self._rows(src.den.h)):",
           "if not (self.mat is None or tgt.den.contains(self._rows(src.den.h))):",
           MAP_CHECKS),
    Mutant("identity-commutation-never-checked", MD,
           "if self.mat is not None or not np.array_equal(src.gamma, tgt.gamma):",
           "if self.mat is not None:", MAP_CHECKS),
    Mutant("gamma-stability-of-numerator-only", MD,
           "for span in (num, den):", "for span in (num,):",
           (T_MD + "test_span_that_is_not_gamma_stable_is_rejected",)),
    Mutant("annihilation-tested-against-numerator", FO,
           "if not mod.den.contains(la.mul_mod(mod.num.h",
           "if not mod.num.contains(la.mul_mod(mod.num.h",
           (T_MD + "test_ideal_that_does_not_annihilate_is_caught",)),
    Mutant("relations-closed-under-the-regular-gamma", MD,
           "rel = base.gamma_orbit(rel)",
           "rel = free_module(ring, generators).gamma_orbit(rel)",
           (T_MD + "test_relations_close_under_the_given_gamma_action",
            "tests/test_cli.py::test_spectral_relations_close_under_the_given_gamma_action")),
    Mutant("ideal-rows-transposed", MD,
           "[regular_rep(e) for e in elems]", "[regular_rep(e).T for e in elems]",
           (T_MD + "test_ideal_of_elements_is_spanned_by_their_gamma_multiples",)),
    Mutant("wedge-kernel-first-functional-per-vertex", ST,
           WEDGE_TEST, WEDGE_TEST + "\n                break", WEDGE_KERNEL),
    Mutant("wedge-kernel-returns-after-first-functional", ST,
           WEDGE_TEST, WEDGE_TEST + "\n                return True", WEDGE_KERNEL),
    Mutant("annihilator-count-unchecked", ST,
           'raise AssertionError("annihilator-count', 'print("annihilator-count',
           (T_ST + "test_annihilator_count_raises_on_a_proper_sub_span",)),
    Mutant("kill-check-skips-a-label", ST,
           "for q in inst.primes:\n                if q not in vertex",
           "for q in inst.primes[1:]:\n                if q not in vertex",
           (T_ST + "test_functional_killed_by_every_label_but_one_is_caught",
            T_ST + "test_kill_check_is_the_howell_row_verdict")),
    # -- the wedge index table and the Stark ideals above the prime count ---------
    Mutant("wedge-table-sign-flipped", MD,
           "sgn.setflags(write=False)", "sgn[-1, 0] *= -1\n    sgn.setflags(write=False)",
           (T_MD + "test_wedge_table_matches_the_dense_wedge_oracle",)),
    Mutant("edge-sign-counts-labels-below", ST,
           "sum(l > q for l in self.primes if l not in vertex)",
           "sum(l < q for l in self.primes if l not in vertex)",
           (T_ST + "test_edge_chain_is_the_direct_transition_on_every_pair",
            T_ST + "test_family_is_the_direct_family")),
    Mutant("compatibility-skips-an-edge", ST,
           "for big, small in inst.edges())", "for big, small in inst.edges()[1:])",
           (T_ST + "test_edge_compatibility_is_the_all_pairs_verdict",)),
    Mutant("stark-ideal-above-r-ignores-scalar", ST,
           "return self.ideal(self.inst.r)",
           "return la.Span.whole(self.inst.ring.m, self.inst.ring.p, self.inst.ring.n)",
           (T_ST + "test_ideals_above_the_prime_count_match_the_fresh_prime_recursion",)),
    # below the prime count only a non-unit scalar's family shows it
    Mutant("stark-ideal-below-r-ignores-scalar", ST,
           "rcoords_from_functional(ring, self.eps[vertex])",
           "rcoords_from_functional(ring, self.inst.family_from_scalar(ring.one()).eps[vertex])",
           (T_ST + "test_one_span_ideal_is_the_sum_of_the_per_vertex_spans",)),
    Mutant("convolve-correlates", GR,
           "la.mul_mod(a, b[_rep_index(m)], m)", "la.mul_mod(a, b[_rep_index(m).T], m)",
           (T_PR + "test_convolve_is_the_double_loop_convolution",)),
    Mutant("product-bound-without-squares", LA,
           "a.shape[-1] * (m - 1) ** 2 < 1 << 63", "a.shape[-1] * (m - 1) < 1 << 63",
           (T_LA + "test_modular_product_bound_is_asserted_at_its_boundary",)),
    # mul_mod takes reduced factors by contract; the probe in tests/conftest.py
    # checks it, and the two entry points that take caller arrays reduce them
    Mutant("product-factors-unreduced", GR,
           "a, b = np.asarray(a, dtype=np.int64) % m, np.asarray(b, dtype=np.int64) % m",
           "a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)",
           (T_PR + "test_convolve_is_the_double_loop_convolution",)),
    Mutant("spans-annihilator-cols-unreduced", LA,
           "cols = np.asarray(cols, dtype=np.int64) % span.m",
           "cols = np.asarray(cols, dtype=np.int64)",
           (T_LA + "test_spans_annihilator_needs_the_product_and_the_count",)),
    Mutant("mul-mod-probe-admits-m", "tests/conftest.py",
           "not (-m < factor.min() and factor.max() < m)",
           "not (-m <= factor.min() and factor.max() <= m)",
           (T_LA + "test_product_probe_rejects_a_factor_at_the_modulus",)),
    # -- each span built once, by the object that owns it -------------------------
    Mutant("h1-mod-ik-cycles-one-step-deeper", CX,
           "self.c1.gamma, self.z_span(k, 0, 1),", "self.c1.gamma, self.z_span(k + 1, 0, 1),",
           (T_CX + "test_verify_relate_fuzz",)),
    Mutant("d-image-one-power-up", CX,
           "return la.image_span(self.ideal_span1(j), self.d)",
           "return la.image_span(self.ideal_span1(j + 1), self.d)",
           (T_CX + "test_coker_isos_fuzz",)),
    Mutant("h2-filtration-den-at-k", CX,
           "self.h2_of_quotient(k + 1).den, check=False)",
           "self.h2_of_quotient(k).den, check=False)",
           (T_CX + "test_coker_isos_fuzz",)),
    Mutant("coker-kernel-meets-the-target-numerator", CX,
           "meet = la.span_intersect(num, target.den)",
           "meet = la.span_intersect(num, target.num)",
           (T_CX + "test_coker_isos_fuzz",)),
    Mutant("h2-right-exact-range-shrunk", CX,
           "for i in range(1, k + 2)", "for i in range(1, k - 2)",
           (T_CX + "test_h2_right_exact_reads_every_step_through_k_plus_one",)),
    Mutant("generic-ideal-multiple-drops-den", MD,
           "la.image_span(prev, gm1, self.den)", "la.image_span(prev, gm1)",
           (T_CX + "test_h2_right_exactness",)),
    Mutant("ideal-multiple-stationary-from-the-start", MD,
           "if k > 1 and prev == self.ideal_multiple_span(k - 2):",
           "if k > 0 and prev == self.ideal_multiple_span(k - 2):",
           (T_MD + "test_chained_pieces_match_the_direct_definitions",)),
    Mutant("aug-power-skips-a-step", GR,
           "_aug_power_cached(p, n, k - 1)", "_aug_power_cached(p, n, max(k - 2, 0))",
           ("tests/test_groupring.py::test_aug_ideal_sizes_31",)),
    Mutant("filtration-piece-skips-the-meet-at-two", MD,
           "self.den if k == 1 else", "self.den if k <= 2 else",
           (T_MD + "test_filtration_piece_cases_31",)),
    Mutant("submodule-fixed-points-are-the-parents", MD,
           "return la.span_intersect(self.parent.fixed_point_span(), self.num)",
           "return self.parent.fixed_point_span()",
           (T_MD + "test_submodule_fixed_points_are_the_parents_met_with_its_numerator",)),
    Mutant("sum-canonicalizes-a-whole-summand", LA,
           "if _is_whole(self) or not other.h.shape[0]:", "if not other.h.shape[0]:",
           (T_UP + "test_sum_with_a_whole_or_zero_summand_is_it_with_no_howell_form",)),
    Mutant("dual-table-pushes-through-ell", HT,
           'sides, d = (("t", "s"), self.d_t) if dual', 'sides, d = (("t", "s"), self.d) if dual',
           (T_HT + "test_dual_table_is_the_transposed_datums_table",)),
    Mutant("dual-table-keeps-the-sides", HT,
           'sides, d = (("t", "s"), self.d_t) if dual', 'sides, d = (("s", "t"), self.d_t) if dual',
           (T_HT + "test_dual_table_is_the_transposed_datums_table",)),
    Mutant("compare-stops-at-a-nonzero-piece", HT,
           '(t_span := self.piece_span("t", k)).size() == 1',
           '(t_span := self.piece_span("t", k)).size() <= ring.p',
           (T_HT + "test_compare_stops_at_the_first_zero_piece",)),
    Mutant("tilde-solver-keyed-without-generator", HT,
           "self._tilde_solver(side, k, gen_exp)", "self._tilde_solver(side, k, 1)",
           (T_HT + "test_lift_chains_solve_the_equations_of_their_generator",)),
    Mutant("intersect-zero-returns-the-other", LA,
           "if _is_whole(b) or not a.h.shape[0]:\n        return a",
           "if _is_whole(b):\n        return a\n    if not a.h.shape[0]:\n        return b",
           (T_UP + "test_intersection_with_the_zero_span_is_it_with_no_howell_form",)),
    Mutant("bottom-vertex-reads-the-datum-t", ST,
           "return self.datum().s_span", "return self.datum().t_span",
           (T_ST + "test_an_instance_builds_no_kernel_of_ell_star",)),
    Mutant("lift-solver-norm-beyond-k1", HT,
           "if k == 1:\n        return _norm_solver(ring, rank)",
           "if k <= 2:\n        return _norm_solver(ring, rank)",
           (T_HT + "test_lift_chains_solve_the_equations_of_their_generator",)),
    Mutant("identity-image-ignores-numerators", MD,
           "if self.mat is None and self.src.num == self.tgt.num:", "if self.mat is None:",
           (T_MD + "test_identity_image_is_the_target_only_on_equal_numerators",)),
    Mutant("image-of-any-map-onto-equal-numerators", MD,
           "if self.mat is None and self.src.num == self.tgt.num:",
           "if self.src.num == self.tgt.num:",
           (T_MD + "test_kept_image_is_a_fresh_image",)),
    Mutant("unit-ideal-is-zero", MD,
           "return la.Span.whole(ring.m, ring.p, ring.n)", "return la.Span.zero(ring.m, ring.p, ring.n)",
           (T_ST + "test_stark_identity_gives_unit_ideals",)),
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
