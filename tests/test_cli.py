"""Command-line harness: schemas, error paths, determinism, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from derived_heights import serialize as ser
from derived_heights.cli import FuzzConfig, main, run_fuzz
from derived_heights.groupring import RingCtx
from derived_heights.heights import PairingData
from derived_heights.modules import r_matrix_expand


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


def test_group_ring_elt_oversized_coeff():
    ring = RingCtx(3, 1)
    with pytest.raises(ser.InputError, match=r"\$\.x\.coeffs\[1\]"):
        ser.parse_group_ring_elt({"coeffs": [0, 2 ** 64, 0]}, ring, "$.x")


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


def test_cmd_spectral(tmp_path, capsys):
    ring = RingCtx(3, 1)
    gm1 = (ring.gamma() - ring.one()).coeffs
    obj = {
        "ring": {"p": 3, "n": 1},
        "C1": {"ring": {"p": 3, "n": 1}, "generators": 1,
               "relations": ser.matrix_to_json(np.zeros((0, 3), dtype=np.int64), 3)},
        "C2": {"ring": {"p": 3, "n": 1}, "generators": 1,
               "relations": ser.matrix_to_json(np.zeros((0, 3), dtype=np.int64), 3)},
        "d": ser.matrix_to_json(
            np.array([np.roll(gm1, i) for i in range(3)]) % 3, 3
        ),
    }
    path = write_json(tmp_path, "cx.json", obj)
    assert main(["spectral", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["summary"]["checks"] >= 4


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


def test_fuzz_all_suites_smoke():
    rep = run_fuzz(FuzzConfig(seed=3, trials=2, rings=[(3, 1)]))
    assert rep["pass"]
    suites = {r["suite"] for r in rep["records"]}
    assert suites == {"compari", "relate", "coker", "stark", "structure"}


def test_group_ring_elt_roundtrip():
    ring = RingCtx(3, 1)
    elt = ring.gamma() - ring.one()
    obj = ser.group_ring_elt_to_json(elt)
    assert obj == {"coeffs": [2, 1, 0]}
    assert ser.parse_group_ring_elt(obj, ring, "$.x") == elt
    with pytest.raises(ser.InputError):
        ser.parse_group_ring_elt({"coeffs": [1, 2]}, ring, "$.x")


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
