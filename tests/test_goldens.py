"""Stdout of the demos and of ``mpla cohomology``, byte for byte.

The files under ``tests/data/goldens`` were written by the code before the
elimination kernel learned to clear pivots; any change to how ranks are
computed must leave every printed byte as it was.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpla

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
GOLDENS = DATA / "goldens"
SRC = str(Path(mpla.__file__).resolve().parent.parent)

CASES = [(demo.stem + ".stdout", [str(demo)])
         for demo in sorted((ROOT / "demos").glob("*.py"))]
CASES += [
    ("cohomology_semidirect_double_8.txt",
     ["-m", "mpla.cli", "cohomology", str(DATA / "semidirect_double.json"),
      "--max-degree", "8"]),
    ("cohomology_semidirect_double_8.json",
     ["-m", "mpla.cli", "cohomology", str(DATA / "semidirect_double.json"),
      "--max-degree", "8", "--format", "json"]),
    ("cohomology_sl2_sl2_conjugated_6.txt",
     ["-m", "mpla.cli", "cohomology", str(DATA / "sl2_sl2_conjugated.json"),
      "--max-degree", "6"]),
]


def test_every_demo_has_a_golden():
    assert len(CASES) == 9
    assert sorted(p.name for p in GOLDENS.iterdir()) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("golden,args", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(golden, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDENS / golden).read_bytes()
