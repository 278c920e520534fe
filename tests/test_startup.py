"""What a fresh ``mpla`` process loads: ``import mpla.cli`` and one verb of
each family leave ``dataclasses`` and ``inspect`` unloaded (with them
``ast``, ``dis`` and ``tokenize``), and ``import mpla.cli`` loads exactly
the ten modules of the package it needs before a verb is chosen."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpla

DATA = Path(__file__).resolve().parent / "data"
SRC = str(Path(mpla.__file__).resolve().parent.parent)

HEAVY = ("dataclasses", "inspect")
CLI_MODULES = ["mpla", "mpla.cli", "mpla.errors", "mpla.jsonio", "mpla.lie", "mpla.linalg",
               "mpla.matched", "mpla.multimap", "mpla.report", "mpla.scalars"]

# one verb of each family, with its exit code on these inputs
VERBS = [
    (["validate", str(DATA / "witness_pair.json")], 1),
    (["cohomology", str(DATA / "semidirect_double.json"), "--max-degree", "2"], 0),
    (["mc-check", str(DATA / "witness_pair.json")], 1),
    (["deform-check", str(DATA / "semidirect_double.json"), str(DATA / "deform_open.json")], 1),
    (["skeletal-validate", str(DATA / "witness_skeletal.json")], 1),
]

# modules the interpreter had before mpla (site hooks) do not count
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import mpla.cli
loaded = sorted(m for m in sys.modules if m == "mpla" or m.startswith("mpla."))
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = mpla.cli.main(argv)
print(json.dumps({"mpla": loaded, "code": code,
                  "heavy": [m for m in %r if m in sys.modules and m not in before]}))
""" % (HEAVY,)


def probe(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_ten_modules_and_no_dataclasses():
    got = probe([])
    assert got["heavy"] == []
    assert got["mpla"] == CLI_MODULES


@pytest.mark.parametrize("argv,code", VERBS, ids=[argv[0] for argv, _ in VERBS])
def test_each_verb_family_runs_without_dataclasses(argv, code):
    got = probe(argv)
    assert got["code"] == code
    assert got["heavy"] == []
