"""Every demo script runs to completion with the package on its path, and
prints exactly the pinned output (sha256 of its stdout)."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; a refactor must leave every byte in place
STDOUT_SHA256 = {
    "01_howell_forms": "dc3362649a1ba9d5e48ed651df8759b37acfea6045544d324396df5334e6c923",
    "02_group_ring_filtration": "34398e9edea7726018770f66a8e0b5fbd39ae1092a8539f9dd15a7747dbc0797",
    "03_bockstein_spectral_sequence":
        "5e1c72ae0a8627df4b58d89d708fa66525daee955f9c09014cba320500aeb21d",
    "04_height_pairings": "1a00fdbc1b7cafaac0dc58760cb25c735301d47e4d4456952ac661cc0bc9b5a3",
    "05_stark_systems": "3d4cb77ead04474d393aef55b7f34a01386a41497487d3eb1f75d9f78702dda3",
    "06_structure_recovery": "ec042f099fa0a7c22eba26d5df5d2cb1253d810079691cc99b030931ab75ba20",
}


def test_demos_are_found():
    # an empty glob would parametrize no test and pass silently
    assert [d.stem for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
