"""Derived height pairings: worked values, oracles, coincidence, symmetry."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from derived_heights import linalg as la
from derived_heights.groupring import (
    RingCtx,
    aug_ideal_power,
    convolve,
    derivative_op,
    graded_projection,
)
from derived_heights.heights import (
    MembershipError,
    PairingData,
    _lift_solver,
    _norm_solver,
    random_pairing_data,
)
from derived_heights.modules import free_module, r_rows_from_scalar
from derived_heights.rng import SplitMix64, trial_rng

R31 = RingCtx(3, 1)
RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1)]


def mult_data(ring, x):
    """X = Y = R, ell = multiplication by x."""
    return PairingData(ring, [[x]])


def graded_classes_equal(ring, k, x, y):
    """Equality in Q^k, i.e. congruence modulo I^(k+1)."""
    return aug_ideal_power(ring, k + 1).contains((x - y).coeffs)


def all_ring_elements(ring):
    from itertools import product

    for coeffs in product(range(ring.m), repeat=ring.m):
        yield ring.elt(np.array(coeffs, dtype=np.int64))


def test_validate_identity_and_zero():
    data = mult_data(R31, R31.one())
    data.validate()
    assert data.x.submodule(data.s_span).order() == 1
    assert data.complex().h2().order() == 1
    zero = mult_data(R31, R31.zero())
    zero.validate()
    assert zero.x.submodule(zero.s_span).order() == 27
    assert zero.y.submodule(zero.t_span).order() == 27


def counting_solvers(monkeypatch) -> list[np.ndarray]:
    """Record the matrix of every ``la.Solver`` built from now on."""
    built, original = [], la.Solver.__init__

    def counting(self, a, p, n):
        built.append(np.array(a) % p ** n)
        original(self, a, p, n)

    monkeypatch.setattr(la.Solver, "__init__", counting)
    return built


def test_kernels_are_built_on_first_read(monkeypatch):
    built = counting_solvers(monkeypatch)
    rng = SplitMix64(53)
    for ring in RINGS:
        data = random_pairing_data(ring, rng)
        assert not built
        s_span = data.s_span
        assert len(built) == 1 and (built[0] == data.d % ring.m).all()
        t_span = data.t_span
        assert len(built) == 2 and (built[1] == data.d_t % ring.m).all()
        assert data.s_span is s_span and data.t_span is t_span and len(built) == 2
        built.clear()


def test_validate_builds_one_solver_and_compare_no_second_datum(monkeypatch):
    # validate builds S's kernel and proves ann(S) by a product and a count,
    # with no kernel of its own; compare makes its symmetry table on the
    # datum itself, so no PairingData is constructed after the first
    built = counting_solvers(monkeypatch)
    constructed, init = [], PairingData.__init__

    def counting_init(self, *args):
        constructed.append(self)
        init(self, *args)

    monkeypatch.setattr(PairingData, "__init__", counting_init)
    rng = SplitMix64(61)
    for ring in RINGS:
        for _ in range(3):
            built.clear()
            constructed.clear()
            data = random_pairing_data(ring, rng)
            data.validate()
            assert len(built) == 1
            data.compare(ring.p - 1, rng=rng, max_card=200)
            assert len(constructed) == 1


ALL_RINGS = [RingCtx(3, 1), RingCtx(3, 2), RingCtx(5, 1), RingCtx(5, 2), RingCtx(7, 1),
             RingCtx(7, 2)]


def test_dual_table_is_the_transposed_datums_table():
    # the dual sequence's table on the datum draws and computes exactly as
    # the table of a fresh datum of the transposed ell, given equal seeds
    for ring in ALL_RINGS:
        rng = SplitMix64(601 + ring.m)
        higher = 0
        for i in range(12):
            data = random_pairing_data(ring, rng)
            fresh = PairingData(ring, [list(col) for col in zip(*data.ell)])
            for k in range(1, ring.p):
                s_rows, t_rows = data.piece_span("s", k).h, data.piece_span("t", k).h
                if not (len(s_rows) and len(t_rows)):
                    continue
                higher += k > 1
                seed = 1000 * i + k
                ours, theirs = SplitMix64(seed), SplitMix64(seed)
                audit = bool(seed % 2)
                table, (w, y) = data._bd_table(k, t_rows, s_rows, ours, audit=audit, dual=True)
                fresh_table, (fresh_w, fresh_y) = fresh._bd_table(k, t_rows, s_rows, theirs,
                                                                  audit=audit)
                assert (table == fresh_table).all()
                assert (w == fresh_w).all() and (y == fresh_y).all()
                assert ours.state == theirs.state
        assert higher, ring


def test_validate_fuzz_self_injectivity():
    # random R-linear ell always gives an exact dual sequence: the
    # stated volume is 500 seeded instances across the supported rings
    rng = SplitMix64(137)
    for i in range(500):
        random_pairing_data(RINGS[i % 3], rng, max_rank=2).validate()


def _annihilator_by_shifts(ring, span, rank):
    """Functionals c with sum_r c_r v_r = 0 in R for every row v, stable span or not.

    Column (t, j) is coefficient j of the sum: entry [(r, i), (t, j)] is v_t,r at j - i.
    """
    m = ring.m
    shift = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m  # [i, j]: j - i
    blocks = span.h.reshape(-1, rank, m)[:, :, shift]
    return la.kernel(blocks.transpose(1, 2, 0, 3).reshape(rank * m, -1), ring.p, ring.n)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_annihilator_reads_the_rows_alone_like_every_shift(p, n):
    # the image of ell* is the annihilator of every gamma-shift of every
    # row of S, and that of ell the one of T: spans_annihilator accepts
    # the columns of d on S (and of d_t on T), and rejects p times them
    ring = RingCtx(p, n)
    rng = SplitMix64(191 + ring.m)
    data = [random_pairing_data(ring, rng, max_rank=3) for _ in range(8)]
    if ring == RingCtx(7, 2):
        data.append(PairingData(ring, [[ring.norm()], [ring.zero()], [ring.zero()]]))
    for datum in data:
        for span, rank, ann, cols in ((datum.s_span, datum.a, datum.d_t, datum.d),
                                      (datum.t_span, datum.b, datum.d, datum.d_t)):
            assert la.Span(ann, p, n) == _annihilator_by_shifts(ring, span, rank)
            assert la.spans_annihilator(cols, span)
            if (cols % ring.m).any():  # p times the columns span a proper sub-span
                assert not la.spans_annihilator(p * cols, span)


def test_from_scalar_matrix_rejects_non_equivariant():
    mat = np.zeros((3, 3), dtype=np.int64)
    mat[0, 0] = 1  # projection onto one scalar coordinate: not R-linear
    with pytest.raises(ValueError, match="not R-linear"):
        r_rows_from_scalar(R31, mat)


def test_membership_rejection():
    # at k = 1 the lift chain takes s~ = s with no solve, so membership must
    # refuse before any lift: with ell = g - 1, 1 lies outside S = R^G = N R;
    # with ell = 0, g - 1 lies in S = R but not in S_0^(1) = R^G
    for ring in RINGS:
        gm1, norm = ring.gamma() - ring.one(), ring.norm().coeffs
        for ell, s in ((gm1, ring.one().coeffs), (ring.zero(), gm1.coeffs)):
            data = mult_data(ring, ell)
            data._lift_chains = None  # a lift would raise a TypeError
            with pytest.raises(MembershipError, match="s is not in S_0"):
                data.bd_pairing(1, s, norm)
            fresh = mult_data(ring, ell)
            assert fresh.bd_pairing(1, norm, norm) == fresh.boc_pairing(1, norm, norm)
    data = mult_data(R31, R31.gamma() - R31.one())
    one = R31.one().coeffs
    with pytest.raises(MembershipError):
        data.bd_pairing(3, one, one)  # k = p is out of range


def test_value_table_matches_pairwise_convolutions():
    # the contraction against the loop it replaced: w(y) = sum_j w_j * y_j,
    # one cyclic convolution per slot, for every (w, y)
    gen = np.random.default_rng(5)
    for ring in RINGS + [RingCtx(7, 2)]:
        m = ring.m
        for b in (1, 3):
            data = PairingData(ring, [[ring.one()] * b])
            w = gen.integers(0, m, (4, b * m))
            y = gen.integers(0, m, (3, b * m))
            table = data.eval_functional(w, y)
            assert table.shape == (4, 3, m)
            for i in range(4):
                for j in range(3):
                    ref = np.zeros(m, dtype=np.int64)
                    for slot in range(b):
                        part = slice(slot * m, (slot + 1) * m)
                        ref = (ref + convolve(w[i, part], y[j, part], m)) % m
                    assert (table[i, j] == ref).all()



def test_value_table_equals_the_per_shift_loop():
    # the one-product contraction against the m rolled products it
    # replaced; with fewer w rows than b * m the t rows are split into
    # blocks, the last one short (41 rows in blocks of 20 at (3,1), b = 2)
    gen = np.random.default_rng(8)
    for ring in RINGS + [RingCtx(7, 2)]:
        m = ring.m
        for b, rows, cols in ((1, 1, 1), (2, 3, 41), (3, 40, 6), (1, 2, 75)):
            data = PairingData(ring, [[ring.one()] * b])
            w = gen.integers(0, m, (rows, b * m))
            y = gen.integers(0, m, (cols, b * m))
            wm, ym = w.reshape(-1, b, m), y.reshape(-1, b, m)
            ref = np.zeros((rows, cols * m), dtype=np.int64)
            for i in range(m):
                rolled = np.roll(ym, i, axis=2).transpose(1, 0, 2).reshape(b, -1)
                ref += wm[:, :, i] @ rolled
            table = (ref % m).reshape(rows, cols, m)
            assert (data.eval_functional(w, y) == table).all()
            # a projection folded into the blocks is the projection of the table
            proj = gen.integers(0, m, (m, 3))
            assert (data.eval_functional(w, y, proj) == table @ proj % m).all()


def test_shared_solvers_draw_like_fresh_ones():
    # gen_exp 1 is asked for before 2 under the same (p, n, rank, k)
    gen = np.random.default_rng(9)
    for ring in RINGS:
        p, n, m = ring.p, ring.n, ring.m
        for rank in (1, 2):
            free = free_module(ring, rank)
            pairs = [(_norm_solver(ring, rank), free.scale_matrix(ring.norm()))]
            for k in range(1, p):
                for g in (1, 2):
                    pairs.append((_lift_solver(ring, rank, k, g),
                                  free.scale_matrix(derivative_op(ring, k - 1, g))))
            for shared, a in pairs:
                fresh = la.Solver(a, p, n)
                targets = (gen.integers(0, m, (4, a.shape[0])) @ a) % m
                got = shared.random_solution(targets, SplitMix64(k))
                want = fresh.random_solution(targets, SplitMix64(k))
                assert got is not None and (got == want).all()


def test_lift_chains_solve_the_equations_of_their_generator():
    # x D_u^(k-1) (g^u - 1)^(k-1) = s for the chain drawn for gamma^u; at
    # k = 1 that is x N = s, where s~ = s is taken without a solve
    rng = SplitMix64(12)
    for ring in RINGS:
        data = mult_data(ring, ring.zero())  # S = X = R
        s_rows = np.array(data.piece_span("s", ring.p - 1).h)
        for k in range(1, ring.p):
            for u in (1, 2):
                d_u = data.x.scale_matrix(derivative_op(ring, k - 1, u))
                g_u = data.x.scale_matrix((ring.gamma(u) - ring.one()) ** (k - 1))
                chains = data._lift_chains("s", k, u, s_rows, rng, 2)
                for xs in chains:
                    assert ((xs @ d_u @ g_u) % ring.m == s_rows).all()
                # each chain draws from a nonzero kernel (at k = 1 that of N,
                # the augmentation ideal), so the two draws differ
                assert (chains[0] != chains[1]).any(), (ring, k, u)


def test_stacked_draws_are_independent_solutions():
    # ell = N over (3,2) at k = 2: every lift kernel is nonzero and so is
    # the target denominator of psi, so a second draw that copied the
    # first would leave the audit comparing a table with itself
    ring = RingCtx(3, 2)
    data = mult_data(ring, ring.norm())
    k, m = 2, ring.m
    s_rows, t_rows = (np.array([v for v in la.span_elements(data.piece_span(side, k))
                                if v.any()]) for side in ("s", "t"))
    rng = SplitMix64(3)
    xs = data._lift_chains("s", k, 1, s_rows, rng, 2)
    ws = data._boc_functionals(k, s_rows, rng, 2)
    ys = data._norm_preimages(t_rows, rng, 2)
    for drawn, rows in ((xs, s_rows), (ws, s_rows), (ys, t_rows)):
        assert drawn.shape[:2] == (2, len(rows)) and (drawn[0] != drawn[1]).any()
    # each draw solves its own equations: x D^(k-1) (g-1)^(k-1) = s,
    # y N = t, and w is a functional whose values at the norm preimages
    # are the derivative-lift table
    d = data.x.scale_matrix(derivative_op(ring, k - 1))
    g = data.x.scale_matrix((ring.gamma() - ring.one()) ** (k - 1))
    norm = data.y.scale_matrix(ring.norm())
    psi = data.complex().generalized_bockstein(k)
    bd, _ = data._bd_table(k, s_rows, t_rows, rng)
    proj = graded_projection(ring, k)[0]
    for x, w, y in zip(xs, ws, ys):
        assert ((x @ d @ g) % m == s_rows).all()
        assert ((y @ norm) % m == t_rows).all()
        assert psi.tgt.num.contains(w)
        assert (data.eval_functional(w, y, proj)[:, :, 0] == bd).all()


def test_worked_example_k1():
    # ell = gamma - 1 at (3,1): S_0^(1) = N R and <N, N>_1 = class of
    # gamma - 1, scalar 1 under the normalization
    ring = R31
    data = mult_data(ring, ring.gamma() - ring.one())
    nvec = ring.norm().coeffs
    piece = data.piece_span("s", 1)
    assert piece == la.Span(nvec.reshape(1, -1), 3, 1)
    bd = data.bd_pairing(1, nvec, nvec)
    assert bd.scalar() == 1
    assert graded_classes_equal(ring, 1, bd.raw, ring.gamma() - ring.one())
    boc = data.boc_pairing(1, nvec, nvec)
    assert boc == bd and boc.scalar() == 1


def test_worked_example_k1_exhaustive_oracle():
    # every admissible lift chain in the 27-element ring gives the same
    # class: for all x, y with N x = N y = N, ell(x)(y) = (g-1) x y is
    # congruent to g-1 mod I^2
    ring = R31
    gm1 = ring.gamma() - ring.one()
    norm = ring.norm()
    xs = [x for x in all_ring_elements(ring) if norm * x == norm]
    assert xs
    for x in xs:
        for y in xs:
            val = gm1 * x * y
            assert graded_classes_equal(ring, 1, val, gm1)


def test_worked_example_k2():
    # ell = N at (3,1): S_0^(2) = N R and <N, N>_2 = class of N = (g-1)^2
    ring = R31
    data = mult_data(ring, ring.norm())
    nvec = ring.norm().coeffs
    piece = data.piece_span("s", 2)
    assert piece == la.Span(nvec.reshape(1, -1), 3, 1)
    bd = data.bd_pairing(2, nvec, nvec)
    assert bd.scalar() == 1
    assert graded_classes_equal(ring, 2, bd.raw, ring.norm())
    boc = data.boc_pairing(2, nvec, nvec)
    assert boc == bd and boc.scalar() == 1


def test_worked_example_k2_exhaustive_oracle():
    # all chains s~ in S with (g-1) s~ = N, x with D^(1) x = s~ (and the
    # same for y) produce N * x * y = N mod I^3 exactly
    ring = R31
    gm1 = ring.gamma() - ring.one()
    norm = ring.norm()
    from derived_heights.groupring import derivative_op

    d1 = derivative_op(ring, 1)
    # S = ker(N) = I
    s_elts = [s for s in all_ring_elements(ring) if (norm * s).is_zero()]
    tildes = [s for s in s_elts if gm1 * s == norm]
    assert tildes
    values = set()
    for tilde in tildes:
        xs = [x for x in all_ring_elements(ring) if d1 * x == tilde]
        assert xs
        for x in xs[:4]:
            for y in xs[:4]:
                val = norm * x * y
                values.add(tuple(val.coeffs))
                assert graded_classes_equal(ring, 2, val, norm)
    assert values == {tuple(norm.coeffs)}  # I^3 = 0 pins the value exactly


def test_zero_arguments_pair_to_zero():
    ring = R31
    data = mult_data(ring, ring.norm())
    zero = np.zeros(3, dtype=np.int64)
    nvec = ring.norm().coeffs
    assert data.bd_pairing(2, zero, nvec).rep.is_zero()
    assert data.bd_pairing(2, nvec, zero).rep.is_zero()
    assert data.boc_pairing(2, zero, nvec).rep.is_zero()


def test_bilinearity_on_filtration_piece():
    ring = R31
    data = mult_data(ring, ring.gamma() - ring.one())
    piece = data.piece_span("s", 1)
    elts = [v for v in la.span_elements(piece)]
    for s1 in elts:
        for s2 in elts:
            for t in elts:
                if not (s1.any() and s2.any() and t.any()):
                    continue
                lhs = data.bd_pairing(1, (s1 + s2) % 3, t, audit=False)
                a = data.bd_pairing(1, s1, t, audit=False)
                b = data.bd_pairing(1, s2, t, audit=False)
                assert graded_classes_equal(ring, 1, lhs.raw, a.raw + b.raw)


def test_symmetry_against_dual_sequence():
    rng = SplitMix64(139)
    for ring in RINGS[:2]:
        for _ in range(6):
            data = random_pairing_data(ring, rng, max_rank=2)
            rep = data.compare(ring.p - 1, rng=rng, max_card=200)
            assert all(r["symmetric"] for r in rep["records"])


def test_generator_substitution_invariance():
    rng = SplitMix64(149)
    ring = RingCtx(3, 2)
    hits = 0
    for _ in range(8):
        data = random_pairing_data(ring, rng, max_rank=2)
        for k in (1, 2):
            span = data.piece_span("s", k)
            tspan = data.piece_span("t", k)
            for s in la.span_elements(span):
                if not s.any():
                    continue
                for t in la.span_elements(tspan):
                    if not t.any():
                        continue
                    base = data.bd_pairing(k, s, t, rng=rng)
                    for u in (2, 4, 5):
                        assert data.bd_pairing(k, s, t, rng=rng, gen_exp=u) == base
                    hits += 1
                    break
                break
    assert hits > 0


def test_coincidence_fuzz_small():
    rng = SplitMix64(151)
    total = 0
    for ring in RINGS:
        for _ in range(10):
            data = random_pairing_data(ring, rng, max_rank=2)
            rep = data.compare(ring.p - 1, rng=rng, max_card=400)
            assert rep["pass"]
            total += len(rep["records"])
    assert total > 30  # the instance mix must actually produce evaluations


def test_membership_iff_lift_chain_exists():
    # s lies in S_0^(k) exactly when the lift chain (s~ in S, then x
    # with D x = s~) is solvable: cross-validation of the filtration
    # membership against the derivative-operator kernel identities
    rng = SplitMix64(211)
    for ring in RINGS[:2]:
        for _ in range(6):
            data = random_pairing_data(ring, rng, max_rank=2)
            s_fixed = data.x.submodule(data.s_span).fixed_point_span()
            for k in range(1, ring.p):
                piece = data.piece_span("s", k).reducer
                for s in la.span_elements(s_fixed):
                    member = piece.contains(s)
                    try:
                        data._lift_chains("s", k, 1, s[None], rng, 1)
                        liftable = True
                    except AssertionError:
                        liftable = False
                    assert member == liftable


def test_boc_equals_bd_on_norm_kernel_instance():
    # X = R^2, ell = diag(N, gamma-1): mixes both degeneracies
    ring = R31
    data = PairingData(
        ring,
        [[ring.norm(), ring.zero()], [ring.zero(), ring.gamma() - ring.one()]],
    )
    data.validate()
    rep = data.compare(2, rng=SplitMix64(7), max_card=10 ** 4)
    assert rep["pass"] and rep["records"]


# sha256 of the compare() reports on the corpus below, computed with the
# per-pair implementation that the batched value tables replaced; every
# recorded value is canonical, so a change of lift draws cannot move it
COMPARE_CORPUS_SHA256 = "6764f824dbd6205a0ebaf4a10cdea0b1194bbf1a44025a878cd728983510fb32"


def test_compare_records_match_the_golden_digest():
    # (3,1), (3,2) and (5,1) in turn; max_card 20 on instances 1, 13 and
    # 20 sends them down the generator-pair branch, the rest enumerate
    reports = []
    for i in range(21):
        ring = RINGS[i % 3]
        rng = trial_rng(4242, i)
        data = random_pairing_data(ring, rng, max_rank=2)
        card = 20 if i in (1, 13, 20) else 10 ** 4
        reports.append(data.compare(ring.p - 1, rng=rng, max_card=card))
    assert [len(r["records"]) for r in reports] == [
        32, 2, 0, 0, 0, 1184, 16, 0, 0, 4, 64, 0, 8, 4, 0, 8, 68, 0, 32, 0, 3]
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == COMPARE_CORPUS_SHA256


def _reference_tables(data, kmax, rng, max_card=10 ** 4):
    """compare's four tables per k as compare drew them before it stopped early:
    every piece of both sides built, a k with a zero piece skipped, and a fresh
    tilde solver for each table."""
    ring = data.ring
    units = [u for u in range(2, ring.m) if u % ring.p]
    out = []
    for k in range(1, min(kmax, ring.p - 1) + 1):
        s_span, t_span = data.piece_span("s", k), data.piece_span("t", k)
        if s_span.size() == 1 or t_span.size() == 1:
            continue
        if s_span.size() * t_span.size() <= max_card:
            s_rows, t_rows = (np.array([v for v in la.span_elements(x) if v.any()])
                              for x in (s_span, t_span))
        else:
            s_rows, t_rows = np.array(s_span.h), np.array(t_span.h)
        u = units[rng.below(len(units))]
        tables = []
        for table in (lambda: data._bd_table(k, s_rows, t_rows, rng),
                      lambda: data._boc_table(k, s_rows, t_rows, rng),
                      lambda: data._bd_table(k, t_rows, s_rows, rng, audit=False, dual=True),
                      lambda: data._bd_table(k, s_rows, t_rows, rng, gen_exp=u, audit=False)):
            for key in [key for key in data._memo if key[0] == "_tilde_solver"]:
                del data._memo[key]
            tables.append(table()[0])
        out.append((k, tables))
    return out


def test_compare_stops_at_the_first_zero_piece():
    # the pieces decrease in k, so compare stops at the first k where S_0^(k)
    # (read first) or T_0^(k) is zero: it builds no piece above that k, and no
    # T at all when S_0^(1) = 0.  Its records and final rng state are those of
    # the reference loop, which builds every piece and every tilde solver afresh
    seen = set()
    for ring in RINGS + [RingCtx(7, 1)]:
        p = ring.p
        for i in range(10):
            ell = random_pairing_data(ring, trial_rng(2525, 10 * ring.m + i), max_rank=2).ell
            data, ref = PairingData(ring, ell), PairingData(ring, ell)
            ours, theirs = SplitMix64(i), SplitMix64(i)
            records = data.compare(p - 1, rng=ours)["records"]
            tables = _reference_tables(ref, p - 1, theirs)
            assert ours.state == theirs.state
            assert len(records) == sum(bd.size for _, (bd, *_) in tables)
            for k, (bd, boc, sym, gam) in tables:
                recs = [r for r in records if r["k"] == k]
                for name, flat in (("scalar", bd), ("equal", bd == boc),
                                   ("symmetric", sym.T == bd), ("gamma_independent", gam == bd)):
                    assert [r[name] for r in recs] == flat.ravel().tolist()

            def zero(side, k):
                return ref.piece_span(side, k).size() == 1

            stop = next((k for k in range(1, p) if zero("s", k) or zero("t", k)), p - 1)
            for side, last in (("s", stop), ("t", stop - 1 if zero("s", stop) else stop)):
                if not last:
                    assert ("submodule", side) not in data._memo
                    continue
                memo = data.submodule(side)._memo
                assert sorted(key[1] for key in memo if key[0] == "filtration_piece") == \
                    list(range(1, last + 1))
                assert max((key[1] for key in memo if key[0] == "ideal_multiple_span"),
                           default=0) <= last - 1
            if zero("s", 1):
                seen.add("S_0^(1) = 0")
            elif stop > 1 and zero("t", stop) and not zero("s", stop):
                seen.add("T_0^(k) = 0, k > 1")
    assert {"S_0^(1) = 0", "T_0^(k) = 0, k > 1"} <= seen, seen


def _norm_line_data():
    """ell = gamma - 1 over (3,2): S_0^(1) = T_0^(1) = N R, eight nonzero
    elements each, and only k = 1 pairs."""
    ring = RingCtx(3, 2)
    data = mult_data(ring, ring.gamma() - ring.one())
    rep = data.compare(2, rng=SplitMix64(5))
    assert rep["pass"] and len(rep["records"]) == 64
    return ring, data, rep


def _shift(v, elt):
    """v plus the ring element elt in slot 0."""
    m = elt.ring.m
    return (v + np.pad(elt.coeffs, (0, v.size - m))) % m


def _corrupt(monkeypatch, name, owner, draw, target, elt, side=None, when=lambda: True):
    """Make owner's draw method ``name`` shift draw ``draw`` of target's row by elt.

    side restricts ``_lift_chains`` to the chains of that side, and the
    shift is made only while ``when()`` holds.
    """
    method = getattr(PairingData, name)

    def corrupted(self, *args):
        out = method(self, *args)
        rows = next(a for a in args if isinstance(a, np.ndarray))
        if self is owner and draw < len(out) and side in (None, args[0]) and when():
            for i in np.flatnonzero((rows == target).all(axis=1)):
                out[draw, i] = _shift(out[draw, i], elt)
        return out

    monkeypatch.setattr(PairingData, name, corrupted)


@pytest.mark.parametrize("kind, message", [
    ("chain", "derivative-lift pairing depended on lift choices"),
    ("boc", "Bockstein pairing depended on representative choices"),
])
def test_audit_detects_one_corrupted_second_draw(kind, message, monkeypatch):
    ring, data, rep = _norm_line_data()
    s = np.array(rep["records"][9]["s"], dtype=np.int64)
    # a lift x feeds ell(x) = (gamma - 1) x, a functional w is used as
    # it is: either shift moves every value against a norm line by a
    # nonzero multiple of gamma - 1, so off its class in Q^1
    if kind == "chain":
        _corrupt(monkeypatch, "_lift_chains", data, 1, s, ring.one(), side="s")
    else:
        _corrupt(monkeypatch, "_boc_functionals", data, 1, s, ring.gamma() - ring.one())
    with pytest.raises(AssertionError, match=message):
        data.compare(2, rng=SplitMix64(5))


def test_symmetry_flag_detects_one_corrupted_dual_chain(monkeypatch):
    ring, data, rep = _norm_line_data()
    t0 = rep["records"][3]["t"]
    # only the dual table's chains of t: the datum's own tables lift t alike
    dual_calls, table = [], PairingData._bd_table

    def flagged(self, *args, dual=False, **kwargs):
        dual_calls.append(dual)
        try:
            return table(self, *args, dual=dual, **kwargs)
        finally:
            dual_calls.pop()

    monkeypatch.setattr(PairingData, "_bd_table", flagged)
    _corrupt(monkeypatch, "_lift_chains", data, 0, t0, ring.one(), side="t",
             when=lambda: dual_calls == [True])
    again = data.compare(2, rng=SplitMix64(5))
    assert not again["pass"]
    assert [r["symmetric"] for r in again["records"]] == [
        r["t"] != t0 for r in again["records"]]
    assert all(r["equal"] and r["gamma_independent"] for r in again["records"])


def test_value_moved_off_i_k_is_caught(monkeypatch):
    # a functional moved by 1 in slot 0 moves w(y_t) by y_t itself, a norm
    # preimage of a nonzero t in N R, whose augmentation is nonzero: the
    # first draw's value leaves I^1
    ring, data, rep = _norm_line_data()
    s = np.array(rep["records"][9]["s"], dtype=np.int64)
    _corrupt(monkeypatch, "_boc_functionals", data, 0, s, ring.one())
    with pytest.raises(AssertionError, match=r"pairing value escaped I\^k"):
        data.compare(2, rng=SplitMix64(5))


def test_one_by_one_pairings_keep_the_unreduced_value(monkeypatch):
    # bd_pairing and boc_pairing return the value of their own first draws
    # as it is, and its class and scalar are the ones the table path recorded
    ring, data, rep = _norm_line_data()
    drawn = []
    for name in ("_lift_chains", "_boc_functionals", "_norm_preimages"):
        def recording(self, *args, _method=getattr(PairingData, name)):
            drawn.append(_method(self, *args))
            return drawn[-1]
        monkeypatch.setattr(PairingData, name, recording)
    unreduced = 0
    for rec in rep["records"]:
        s, t = (np.array(rec[side], dtype=np.int64) for side in ("s", "t"))
        drawn.clear()
        bd = data.bd_pairing(1, s, t)
        (x, _), (y, _) = drawn  # two draws of one row each, s side then t side
        assert bd.raw.coeffs.tolist() == data.eval_bilinear(x, y)[0, 0].tolist()
        drawn.clear()
        boc = data.boc_pairing(1, s, t)
        (w, _), (y_norm, _) = drawn
        assert boc.raw.coeffs.tolist() == data.eval_functional(w, y_norm)[0, 0].tolist()
        assert bd.rep.coeffs.tolist() == rec["bd"] and boc.rep.coeffs.tolist() == rec["boc"]
        # the class by its definition: the raw value reduced modulo I^2
        for value in (bd, boc):
            assert (value.rep.coeffs == aug_ideal_power(ring, 2).reduce(value.raw.coeffs)).all()
        assert bd.scalar() == boc.scalar() == rec["scalar"]
        unreduced += bd.raw != bd.rep and boc.raw != boc.rep
    assert unreduced


def test_graded_projection_matches_its_definition():
    # Psi decides membership in I^k against the coset reduction, and on I^k
    # phi reads the scalar of the class: x - phi(x) (gamma-1)^k lies in
    # I^(k+1), and reps[phi(x)] is x reduced modulo I^(k+1).  Every element
    # of R on (3,1) and (5,1), drawn elements of R, I^(k-1) and I^k elsewhere
    from itertools import product

    gen = np.random.default_rng(13)
    for p, n in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)):
        ring = RingCtx(p, n)
        m = ring.m
        whole = (np.array(list(product(range(m), repeat=m)), dtype=np.int64) if m <= 5
                 else gen.integers(0, m, (300, m)))
        for k in range(1, p):
            proj, reps = graded_projection(ring, k)
            ik, ik1 = aug_ideal_power(ring, k), aug_ideal_power(ring, k + 1)
            gm1k = ((ring.gamma() - ring.one()) ** k).coeffs
            drawn = [la.mul_mod(gen.integers(0, m, (300, span.h.shape[0])), span.h, m)
                     for span in (aug_ideal_power(ring, k - 1), ik)]
            for xs in [whole] + drawn:
                images = la.mul_mod(xs, proj, m)
                inside = ~ik.reduce(xs).any(axis=1)
                assert ((images[:, 1:] == 0).all(axis=1) == inside).all()
                members, phi = xs[inside], images[inside, 0]
                assert ik1.contains((members - np.outer(phi, gm1k)) % m)
                assert (reps[phi] == ik1.reduce(members)).all()
            assert inside.all() and not (~ik.reduce(drawn[0]).any(axis=1)).all()
