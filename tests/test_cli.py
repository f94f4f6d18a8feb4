"""Command-line harness: schemas, error paths, determinism, exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from derived_heights import cli
from derived_heights import serialize as ser
from derived_heights.cli import SUITES, FuzzConfig, main, run_fuzz
from derived_heights.groupring import RingCtx
from derived_heights.heights import PairingData
from derived_heights.modules import r_matrix_expand
from derived_heights.recovery import IntComplex
from derived_heights.serialize import AMBIENT_LIMIT, RANK_LIMIT

ROOT = Path(__file__).resolve().parent.parent


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def pairing_payload(ring, rows):
    data = PairingData(ring, rows)
    return ser.pairing_to_json(data)


def test_matrix_roundtrip():
    ring = RingCtx(3, 1)
    arr = np.arange(9, dtype=np.int64).reshape(3, 3) % 3
    obj = ser.matrix_to_json(arr, 3)
    back, mod = ser.parse_matrix(obj, "$.m")
    assert mod == 3 and (back == arr).all()
    iobj = ser.matrix_to_json([[1, -2]], None)
    rows, mod = ser.parse_matrix(iobj, "$.m")
    assert mod is None and rows == [[1, -2]]


def test_parse_error_carries_json_path():
    ring = RingCtx(3, 1)
    obj = pairing_payload(ring, [[ring.norm()]])
    obj["ell"]["entries"][3] = "bad"
    with pytest.raises(ser.InputError) as err:
        ser.parse_pairing(obj)
    assert "$.ell.entries[3]" in str(err.value)


def test_parse_rejects_non_r_linear_ell():
    ring = RingCtx(3, 1)
    obj = {
        "ring": {"p": 3, "n": 1},
        "rank_X": 1,
        "rank_Y": 1,
        "ell": ser.matrix_to_json(np.diag([1, 0, 0]).astype(np.int64), 3),
    }
    with pytest.raises(ser.InputError):
        ser.parse_pairing(obj)


def test_pairing_roundtrip_through_json():
    ring = RingCtx(3, 1)
    rows = [[ring.norm(), ring.zero()], [ring.one(), ring.gamma() - ring.one()]]
    obj = pairing_payload(ring, rows)
    data = ser.parse_pairing(obj)
    assert data.a == 2 and data.b == 2
    assert (data.d == r_matrix_expand(ring, rows)).all()


def test_cmd_pairing_identity_vacuous(tmp_path, capsys):
    ring = RingCtx(3, 1)
    path = write_json(tmp_path, "id.json", pairing_payload(ring, [[ring.one()]]))
    assert main(["pairing", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["records"][0]["table"] == []


def test_cmd_pairing_norm_instance(tmp_path, capsys):
    ring = RingCtx(3, 1)
    path = write_json(tmp_path, "norm.json", pairing_payload(ring, [[ring.norm()]]))
    assert main(["pairing", path]) == 0
    report = json.loads(capsys.readouterr().out)
    table = report["records"][0]["table"]
    k2 = [row for row in table if row["k"] == 2]
    assert k2 and any(row["scalar"] == 1 for row in k2)
    assert all(row["equal"] and row["symmetric"] for row in table)


def test_cmd_pairing_bad_file_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["pairing", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse-error" in err


def test_cmd_pairing_oversized_entry_exit_2(tmp_path, capsys):
    ring = RingCtx(3, 1)
    obj = pairing_payload(ring, [[ring.norm()]])
    obj["ell"]["entries"][4] = 2 ** 63
    assert main(["pairing", write_json(tmp_path, "big.json", obj)]) == 2
    err = capsys.readouterr().err
    assert "parse-error at $.ell.entries[4]" in err and "Traceback" not in err
    obj["ell"]["entries"][4] = -(2 ** 63) - 1
    with pytest.raises(ser.InputError, match=r"\$\.ell\.entries\[4\]"):
        ser.parse_pairing(obj)


def test_cmd_structure(tmp_path, capsys):
    obj = {"p": 3, "d": ser.matrix_to_json([[3, 0], [0, 9]], None)}
    path = write_json(tmp_path, "diag.json", obj)
    assert main(["structure", path]) == 0
    report = json.loads(capsys.readouterr().out)
    res = report["records"][0]["result"]
    assert res["taus"][:3] == [2, 1, 0]
    assert res["recovered"] == res["oracle"]


def test_cmd_stark_and_fitting(tmp_path, capsys):
    ring = RingCtx(3, 1)
    from derived_heights.stark import StarkInstance

    inst = StarkInstance(ring, [[ring.norm()]])
    path = write_json(tmp_path, "stark.json", ser.stark_to_json(inst))
    assert main(["stark", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"]
    assert main(["fitting", path, "--imax", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in report["records"][0]["checks"]] == [
        "fitting_i0", "fitting_i1",
    ]


def gamma_minus_one_complex():
    """[R -> R] with d = gamma - 1 over (3,1), as a spectral file."""
    ring = RingCtx(3, 1)
    gm1 = (ring.gamma() - ring.one()).coeffs
    return {
        "ring": {"p": 3, "n": 1},
        "C1": {"ring": {"p": 3, "n": 1}, "generators": 1,
               "relations": ser.matrix_to_json(np.zeros((0, 3), dtype=np.int64), 3)},
        "C2": {"ring": {"p": 3, "n": 1}, "generators": 1,
               "relations": ser.matrix_to_json(np.zeros((0, 3), dtype=np.int64), 3)},
        "d": ser.matrix_to_json(
            np.array([np.roll(gm1, i) for i in range(3)]) % 3, 3
        ),
    }


def test_cmd_spectral(tmp_path, capsys):
    path = write_json(tmp_path, "cx.json", gamma_minus_one_complex())
    assert main(["spectral", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["summary"]["checks"] >= 4


def test_spectral_relations_close_under_the_given_gamma_action(tmp_path, capsys):
    # C1 = (Z/3)^3 with gamma = I + E_01, modulo the norm row: its gamma
    # closure {(a, b, a)} leaves order 3, where the regular closure of the
    # norm is not stable under this action
    obj = gamma_minus_one_complex()
    uni = np.eye(3, dtype=np.int64)
    uni[0, 1] = 1
    obj["C1"]["relations"] = ser.matrix_to_json(np.array([[1, 1, 1]]), 3)
    obj["C1"]["gamma_action"] = ser.matrix_to_json(uni, 3)
    obj["d"] = ser.matrix_to_json(np.zeros((3, 3), dtype=np.int64), 3)
    assert ser.parse_complex(obj).c1.order() == 3
    assert main(["spectral", write_json(tmp_path, "cx.json", obj)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_fuzz_empty_and_determinism():
    empty = run_fuzz(FuzzConfig(seed=1, trials=0))
    assert empty["pass"] and empty["records"] == []
    cfg = dict(seed=42, trials=6, rings=[(3, 1)], suites=["relate", "structure"])
    a = run_fuzz(FuzzConfig(**cfg))
    b = run_fuzz(FuzzConfig(**cfg))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["pass"]


def test_fuzz_cli_byte_identical(tmp_path, capsys):
    argv = ["--seed", "7", "--trials", "4", "--ring", "3,1", "fuzz",
            "--suite", "compari"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    report = json.loads(out1)
    assert report["pass"] and not report["truncated"]


# sha256 of the `--seed 42 --trials 50 fuzz` report on stdout: every
# suite on the default rings; refactors must leave each byte in place
FUZZ_42_50_SHA256 = "b415f13e46cabd943b1da6483be54990d39c737c577a9cc72a6a0f8cf58e3d89"


def test_fuzz_seed_42_report_is_pinned(capsys):
    assert main(["--seed", "42", "--trials", "50", "fuzz"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_42_50_SHA256


# sha256 of fuzz reports on the rings the default run leaves out, (7,2),
# (5,2) and (7,1), by suite: (argv, digest); the same rule as above
WIDE_RING_FUZZ_SHA256 = {
    "relate,coker": ("--seed 42 --trials 3 --ring 7,2 fuzz --suite relate,coker",
                     "a7433722def435afddb914ef0b27bd18089218cbebd6431239ac1a4070fa2523"),
    "stark": ("--seed 5 --trials 6 --ring 7,2 --ring 5,2 fuzz --suite stark",
              "e7b060e6aee03bd229e5d7d2b1d3d99f8a494331ec13fe727c221ea6fc5eb1ef"),
    "stark-7,2": ("--seed 42 --trials 6 --ring 7,2 fuzz --suite stark",
                  "40ccf454004a2cad0936dc63300835d3293a9aef339b6c5dd2c258424a06599b"),
    "stark-5,2": ("--seed 5 --trials 20 --ring 5,2 fuzz --suite stark",
                  "4d062550204e871874a3b039e60783c2f26031253087b476de969caa97d553a3"),
    "compari": ("--seed 42 --trials 4 --ring 5,2 --ring 7,1 fuzz --suite compari",
                "0f3aa7c151b49ced76704280bbf815d761f560e6530fd5f374792916012c8a5a"),
}


@pytest.mark.parametrize("suite", sorted(WIDE_RING_FUZZ_SHA256))
def test_wide_ring_fuzz_report_is_pinned(suite, capsys):
    argv, sha256 = WIDE_RING_FUZZ_SHA256[suite]
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of the `pairing` report on each file of tests/corpus, one datum per
# ring written by tools/pairing_corpus.py (SEED = 25); run from the repository
# root, since the report embeds the relative file argument.  The same rule as above
PAIRING_CORPUS_SHA256 = {
    "pairing_3_1": "68ec28eb9423edd79fa24635d1af75b6531f8b10600d4f8057a0286ff5718124",
    "pairing_3_2": "db10bdb91053bd0922ad07acab0724e1fd9b738f3eacba688686b799ca03242e",
    "pairing_5_1": "4e7449916ad17481ba63f31671d9c134ac10575e5a6c3ff100a9ff02188caf13",
    "pairing_5_2": "65b708075276991e3711307b6202fac0107e68a19c6cbd0e78f2a030a0516849",
    "pairing_7_1": "1cbe1e7221917497e38feaf65a9e2b5a2693a774bebf0b3709384d4956cd253a",
    "pairing_7_2": "6695d0c55564ffb4de1c63ef52a52095511cbad0862823d2a8da565cda5bf00a",
}


@pytest.mark.parametrize("name", sorted(PAIRING_CORPUS_SHA256))
def test_pairing_corpus_report_is_pinned(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["pairing", f"tests/corpus/{name}.json"]) == 0
    out = capsys.readouterr().out
    assert any(r["k"] >= 2 for r in json.loads(out)["records"][0]["table"])
    assert hashlib.sha256(out.encode()).hexdigest() == PAIRING_CORPUS_SHA256[name]


def test_fuzz_all_suites_smoke():
    rep = run_fuzz(FuzzConfig(seed=3, trials=2, rings=[(3, 1)]))
    assert rep["pass"]
    suites = {r["suite"] for r in rep["records"]}
    assert suites == {"compari", "relate", "coker", "stark", "structure"}


def test_fuzz_per_suite_counts():
    rep = run_fuzz(FuzzConfig(seed=9, trials=3, rings=[(3, 1)],
                              suites=["relate", "structure"]))
    assert set(rep["suites"]) == {"relate", "structure"}
    assert all(v["records"] == 3 and v["failures"] == 0
               for v in rep["suites"].values())


def test_json_out_flag(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["--seed", "5", "--trials", "1", "--ring", "3,1",
            "--json-out", str(out), "fuzz", "--suite", "structure"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout


def test_both_sinks_get_the_indented_sorted_report(tmp_path, capsys, monkeypatch):
    # a report of many batches of encoder pieces, with nesting, unicode and floats
    report = {"pass": True, "z": [{"s": list(range(40)), "é": 0.5, "b": None}] * 300,
              "a": {"nested": [[], {}, "x"]}}
    monkeypatch.setitem(cli._COMMANDS, "fuzz", lambda args: report)
    out = tmp_path / "report.json"
    assert main(["--json-out", str(out), "fuzz"]) == 0
    expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == expected
    assert out.read_text(encoding="utf-8") == expected
    assert len(expected) > 10 * 4096


def assert_exit_2_at(argv, capsys, where):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert where in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, where", [
    (["--max-rank", "0", "fuzz"], "parse-error at $.max_rank"),
    (["--ring", "3,1", "--ring", "3,3", "fuzz"], "parse-error at $.rings[1]"),
    (["--ring", "2,1", "fuzz"], "parse-error at $.rings[0]"),
    (["--trials", "-3", "fuzz"], "parse-error at $.trials"),
    (["--time-budget", "-1", "fuzz"], "parse-error at $.time_budget"),
    # a budget that is not a finite number never fires, and would be written
    # into the report as NaN or Infinity, which is not JSON
    (["--time-budget", "nan", "--trials", "1", "fuzz"], "parse-error at $.time_budget"),
    (["--time-budget", "inf", "--trials", "1", "fuzz"], "parse-error at $.time_budget"),
    (["--time-budget", "1e400", "--trials", "1", "fuzz"], "parse-error at $.time_budget"),
])
def test_fuzz_bad_options_exit_2(argv, where, capsys):
    assert_exit_2_at(argv, capsys, where)


def test_reports_refuse_non_finite_numbers():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.write_json({"x": value}, [io.StringIO()])
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.digest({"x": value})


def test_fuzz_max_rank_beyond_the_ambient_limit_exit_2(capsys):
    # one trial of this ran for hours: 40 * 49 generators a term over (7,2)
    assert_exit_2_at(["--max-rank", "40", "--ring", "7,2", "--trials", "1", "fuzz",
                      "--suite", "relate"], capsys, "resource-limit at $.max_rank")
    # the limit holds on every requested ring, the widest deciding
    top = AMBIENT_LIMIT // 49
    assert_exit_2_at(["--max-rank", str(top + 1), "--ring", "3,1", "--ring", "7,2",
                      "--trials", "0", "fuzz"], capsys, "resource-limit at $.max_rank")
    assert main(["--max-rank", str(top), "--ring", "3,1", "--ring", "7,2",
                 "--trials", "0", "fuzz"]) == 0


def test_negative_max_card_exit_2(tmp_path, capsys):
    assert_exit_2_at(["--max-card", "-1", "--trials", "0", "fuzz"], capsys,
                     "parse-error at $.max_card")
    ring = RingCtx(3, 1)
    pairing = write_json(tmp_path, "norm.json", pairing_payload(ring, [[ring.norm()]]))
    assert_exit_2_at(["--max-card", "-1", "pairing", pairing], capsys,
                     "parse-error at $.max_card")
    assert main(["--max-card", "0", "pairing", pairing]) == 0


def test_negative_kmax_and_imax_exit_2(tmp_path, capsys):
    cx = write_json(tmp_path, "cx.json", gamma_minus_one_complex())
    assert_exit_2_at(["spectral", cx, "--kmax", "-1"], capsys, "parse-error at $.kmax")
    ring = RingCtx(3, 1)
    pairing = write_json(tmp_path, "norm.json", pairing_payload(ring, [[ring.norm()]]))
    assert_exit_2_at(["pairing", pairing, "--kmax", "-1"], capsys, "parse-error at $.kmax")
    from derived_heights.stark import StarkInstance

    stark = write_json(tmp_path, "stark.json",
                       ser.stark_to_json(StarkInstance(ring, [[ring.norm()]])))
    assert_exit_2_at(["fitting", stark, "--imax", "-1"], capsys, "parse-error at $.imax")


def norm_stark_payload():
    """The core vertex X = R, ell = N over (3,1): one prime."""
    from derived_heights.stark import StarkInstance

    ring = RingCtx(3, 1)
    return ser.stark_to_json(StarkInstance(ring, [[ring.norm()]]))


def test_imax_beyond_limit_exit_2(tmp_path, capsys, monkeypatch):
    # refused before any Stark system is built
    from derived_heights.stark import StarkInstance

    def refuse(*args):
        raise AssertionError("a Stark system was built")

    monkeypatch.setattr(StarkInstance, "stark_system", refuse)
    stark = write_json(tmp_path, "stark.json", norm_stark_payload())
    assert_exit_2_at(["fitting", stark, "--imax", str(RANK_LIMIT + 1)], capsys,
                     "resource-limit at $.imax")


def test_imax_at_limit_runs_every_index(tmp_path, capsys):
    stark = write_json(tmp_path, "stark.json", norm_stark_payload())
    assert main(["fitting", stark, "--imax", str(RANK_LIMIT)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and len(report["records"][0]["fitting"]) == RANK_LIMIT + 1


def rank_stark_payload(rank):
    """X = R^rank over (3,1) with one prime, ell = [N; 0; ...; 0], built without parsing."""
    ring = RingCtx(3, 1)
    rows = [[ring.norm()]] + [[ring.zero()]] * (rank - 1)
    return {"ring": {"p": 3, "n": 1}, "rank_X": rank, "primes": 1,
            "ell": ser.matrix_to_json(r_matrix_expand(ring, rows), 3)}


def test_stark_rank_beyond_limit_exit_2(tmp_path, capsys, monkeypatch):
    # refused at parse time, before any instance is built
    def refuse(*args):
        raise AssertionError("a Stark instance was built")

    monkeypatch.setattr(ser, "StarkInstance", refuse)
    stark = write_json(tmp_path, "stark.json", rank_stark_payload(RANK_LIMIT + 1))
    for command in ("stark", "fitting"):
        assert_exit_2_at([command, stark], capsys, "resource-limit at $.rank_X")


def test_stark_rank_at_limit_is_accepted(tmp_path, capsys):
    stark = write_json(tmp_path, "stark.json", rank_stark_payload(RANK_LIMIT))
    assert main(["stark", stark]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and len(report["records"][0]["fitting"]) == RANK_LIMIT + 1


def test_complex_generators_beyond_the_ambient_limit_exit_2(tmp_path, capsys, monkeypatch):
    # each term is refused at parse time, before the complex is built
    def refuse(*args):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(ser, "TwoTermComplex", refuse)
    for term, other in (("C1", "C2"), ("C2", "C1")):
        obj = gamma_minus_one_complex()
        gens = AMBIENT_LIMIT // 3 + 1
        obj[term] = {"generators": gens,
                     "relations": ser.matrix_to_json(np.zeros((0, 3 * gens), dtype=np.int64), 3)}
        obj[other]["generators"] = 0
        obj["d"] = ser.matrix_to_json(np.zeros((0, 0), dtype=np.int64), 3)
        assert_exit_2_at(["spectral", write_json(tmp_path, "cx.json", obj)], capsys,
                         f"resource-limit at $.{term}.generators")


def test_pairing_ranks_beyond_the_ambient_limit_exit_2(tmp_path, capsys, monkeypatch):
    # X and Y are the terms of the pairing's complex: each rank times p^n
    # is refused at parse time, before the datum is built
    def refuse(*args):
        raise AssertionError("a pairing datum was built")

    monkeypatch.setattr(ser, "PairingData", refuse)
    ring = RingCtx(3, 1)
    big = AMBIENT_LIMIT // ring.m + 1
    for key, rows in (("rank_X", [[ring.norm()]] * big), ("rank_Y", [[ring.norm()] * big])):
        obj = {"ring": {"p": 3, "n": 1}, "rank_X": len(rows), "rank_Y": len(rows[0]),
               "ell": ser.matrix_to_json(r_matrix_expand(ring, rows), ring.m)}
        assert_exit_2_at(["pairing", write_json(tmp_path, "big.json", obj)], capsys,
                         f"resource-limit at $.{key}")


def test_stark_ell_shape_disagreeing_with_primes_exit_2(tmp_path, capsys):
    obj = norm_stark_payload()
    obj["primes"] = 2  # ell is 3 x 3, one prime's worth of columns
    assert_exit_2_at(["stark", write_json(tmp_path, "stark.json", obj)], capsys,
                     "parse-error at $.ell")


def zero_rank_payload(p, n, cols_key, zero_key):
    """A pairing or Stark file over (p, n) with zero_key 0, the other rank 1, ell to match."""
    m = p ** n
    ranks = {"rank_X": 1, cols_key: 1, zero_key: 0}
    ell = np.zeros((ranks["rank_X"] * m, ranks[cols_key] * m), dtype=np.int64)
    return {"ring": {"p": p, "n": n}, **ranks, "ell": ser.matrix_to_json(ell, m)}


def assert_zero_rank_refused(argv, capsys, key):
    # refused at the rank, by the library's own message: no numpy text leaks out
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"parse-error at $.{key}: {key} must be at least 1" in captured.err
    assert not any(word in captured.err for word in ("broadcast", "shapes", "Traceback"))
    assert captured.out == ""


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2)])
def test_pairing_zero_rank_exit_2(p, n, tmp_path, capsys):
    for key in ("rank_X", "rank_Y"):
        path = write_json(tmp_path, "zero.json", zero_rank_payload(p, n, "rank_Y", key))
        assert_zero_rank_refused(["pairing", path], capsys, key)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2)])
def test_stark_zero_rank_exit_2(p, n, tmp_path, capsys):
    path = write_json(tmp_path, "zero.json", zero_rank_payload(p, n, "primes", "rank_X"))
    assert_zero_rank_refused(["stark", path], capsys, "rank_X")


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2)])
def test_fitting_zero_rank_exit_2(p, n, tmp_path, capsys):
    path = write_json(tmp_path, "zero.json", zero_rank_payload(p, n, "primes", "rank_X"))
    assert_zero_rank_refused(["fitting", path], capsys, "rank_X")


def test_kmax_above_p_minus_one_exit_2(tmp_path, capsys):
    # beyond p - 1 the graded pieces are not free of rank one, and checks
    # there would be reported as passes
    cx = write_json(tmp_path, "cx.json", gamma_minus_one_complex())
    assert_exit_2_at(["spectral", cx, "--kmax", "5"], capsys, "parse-error at $.kmax")
    assert_exit_2_at(["spectral", cx, "--kmax", "3"], capsys, "parse-error at $.kmax")
    ring = RingCtx(3, 1)
    pairing = write_json(tmp_path, "norm.json", pairing_payload(ring, [[ring.norm()]]))
    assert_exit_2_at(["pairing", pairing, "--kmax", "3"], capsys, "parse-error at $.kmax")


def test_kmax_p_minus_one_runs_every_k(tmp_path, capsys):
    cx = write_json(tmp_path, "cx.json", gamma_minus_one_complex())
    assert main(["spectral", cx, "--kmax", "2"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["records"][0]["checks"]]
    assert "relate_k2" in names and not any(n.endswith("_k3") for n in names)


def test_fuzz_max_rank_one_builds_every_suite(capsys):
    # a core vertex with chi = 1 needs rank 2, so rank 1 draws chi = 0 only
    argv = ["--seed", "4", "--trials", "6", "--ring", "3,1", "--max-rank", "1", "fuzz"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and len(report["records"]) == 6 * len(SUITES)


def test_structure_large_prime_is_fast(tmp_path, capsys):
    # primality by trial division up to sqrt(p) (about 3e4 steps), not up
    # to p (1e9 steps, minutes)
    obj = {"p": 1_000_000_007, "d": ser.matrix_to_json([[6]], None)}
    started = time.process_time()
    assert main(["structure", write_json(tmp_path, "big_p.json", obj)]) == 0
    assert time.process_time() - started < 10
    res = json.loads(capsys.readouterr().out)["records"][0]["result"]
    assert res["recovered"] == res["oracle"]


def test_structure_shape_beyond_minor_limit_exit_2(tmp_path, capsys):
    # 12 x 12 has C(24, 12) - 1 minors, 14 times the limit; refused at once
    diag = [[3 * (i == j) for j in range(12)] for i in range(12)]
    obj = {"p": 3, "d": ser.matrix_to_json(diag, None)}
    started = time.process_time()
    assert_exit_2_at(["structure", write_json(tmp_path, "d12.json", obj)], capsys,
                     "resource-limit at $.d")
    assert time.process_time() - started < 1
    # the limit itself is accepted: 10 x 10 has C(20, 10) - 1 minors
    ten = [row[:10] for row in diag[:10]]
    assert ser.parse_int_complex({"p": 3, "d": ser.matrix_to_json(ten, None)}).p == 3
    with pytest.raises(ser.InputError, match="resource-limit at \\$.d"):
        ser.parse_int_complex({"p": 3, "d": ser.matrix_to_json([r + [0] for r in ten], None)})


def test_structure_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"p": 3, "note": "caf\xe9"}')
    assert_exit_2_at(["structure", str(path)], capsys, "parse-error at $")


def test_structure_integer_past_the_digit_limit_exit_2(tmp_path, capsys):
    # Python refuses int strings of more than 4,300 digits by default
    path = tmp_path / "long_int.json"
    path.write_text('{"p": 3, "d": ' + "7" * 5000 + "}")
    assert_exit_2_at(["structure", str(path)], capsys, "parse-error at $")


def test_structure_p_beyond_limit_exit_2(tmp_path, capsys):
    obj = {"p": 10 ** 18 + 9, "d": ser.matrix_to_json([[6]], None)}
    path = write_json(tmp_path, "huge_p.json", obj)
    assert_exit_2_at(["structure", path], capsys, "resource-limit at $.p")
    with pytest.raises(ValueError, match="below 2"):
        IntComplex.make(2 ** 31 + 11, [[6]])
    with pytest.raises(ValueError, match="prime"):
        IntComplex.make(2 ** 31 - 3, [[6]])  # 2^31 - 3 = 5 * 429496729
