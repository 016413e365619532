"""Run every demo script as a user would, each in its own interpreter, and
compare its stdout with the recorded bytes."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; identical on Python 3.10 to 3.13
STDOUT_SHA256 = {
    "01_pair_regularity.py": "b74eb7644ac448cebf89eb743d9c61a9616ec35425d38ef6f7f0d0275a0a3be3",
    "02_excited_diagrams.py": "4fc58e7d0c2316e95fd26a6a95d5086f3f5f7a65c7ee836275d1d260c665a8b4",
    "03_ladder_paths.py": "021df678bf22f0fce983fb2787825371ddfae18099808c0ccc18386e45ecbc03",
    "04_ideal_generators.py": "01f42fabdfc9198e9a55cad09dceb36a03a1801711719818b86bd6ec78d39ac5",
}


def test_demos_are_found():
    assert [p.name for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name]
