"""Stdout of the demos, of ``mpla cohomology`` and of failing
``mpla validate`` reports, byte for byte.

The demo and cohomology files under ``tests/data/goldens`` were written by
the code before the elimination kernel learned to clear pivots; any change
to how ranks are computed must leave every printed byte as it was.  The
witness files were written before the mirrored axiom groups were derived
from their twins on the flipped structure: every group, witness key and
residual must come out as it did; ``validate_skeletal`` was captured
again when mixed(3) and mixed(5) took on the compat(11) and compat(22)
witnesses of the degree-0 pair, which changed those two groups only.  The
``mc-check`` and ``deform-check``
files were written while the graded bracket and delta^{mu x rho} still
evaluated their input at every output key; their residuals come straight
from those two formulas, so the printed values and scalar types (``0``
against ``Fraction(0, 1)``) must not change with the way they are summed.
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


# failing reports (exit 1): a pair failing compat(11) and compat(22), an
# mp-rep failing all six pairing groups, and a coherent skeletal pair
# failing every mixed and cubic group
WITNESS_INPUTS = [
    ("pair", ["witness_pair.json"]),
    ("rep", ["witness_rep.json", "--as", "mp-rep",
             "--base", str(DATA / "witness_rep_base.json")]),
    ("skeletal", ["witness_skeletal.json"]),
]
WITNESS_CASES = [
    (f"validate_{name}.{ext}",
     ["-m", "mpla.cli", "validate", str(DATA / first), *rest, "--format", fmt])
    for name, (first, *rest) in WITNESS_INPUTS
    for ext, fmt in (("txt", "text"), ("json", "json"))
]
# failing residual reports (exit 1): the square-zero test of a pair failing
# all three component brackets, and an open deformation candidate of the
# 4+4 pair, whose cocycle route prints the residuals of delta_2
WITNESS_CASES += [
    (f"{name}.{ext}", ["-m", "mpla.cli", *args, "--format", fmt])
    for name, args in (
        ("mc_check_pair", ["mc-check", str(DATA / "witness_pair.json")]),
        ("deform_check_open", ["deform-check", str(DATA / "semidirect_double.json"),
                               str(DATA / "deform_open.json")]),
    )
    for ext, fmt in (("txt", "text"), ("json", "json"))
]


def test_every_demo_has_a_golden():
    assert len(CASES) == 9
    assert len(WITNESS_CASES) == 10
    # reader_corpus.json belongs to test_reader_corpus
    assert sorted(p.name for p in GOLDENS.iterdir()) == sorted(
        [name for name, _ in CASES + WITNESS_CASES] + ["reader_corpus.json"])


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=300)


@pytest.mark.parametrize("golden,args", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(golden, args):
    proc = _run(args)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDENS / golden).read_bytes()


@pytest.mark.parametrize("golden,args", WITNESS_CASES,
                         ids=[name for name, _ in WITNESS_CASES])
def test_failing_report_matches_golden(golden, args):
    proc = _run(args)
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDENS / golden).read_bytes()
