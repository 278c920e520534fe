"""Record ``golden.json``: the fingerprints the benchmark's gate compares with.

    python3 bench/make_golden.py

Run it only on a commit whose results are trusted, and only when a
workload gains or changes a job; a change that alters any recorded value
is a bug in the change, not a reason to record again.  The seeded
conjugates are not recorded: the gate compares them with the pairs they
conjugate.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

from run import OUT, SRC, fresh_import
import inputs
import workloads
from spans import nnz


def ladder(mpla):
    out = {}
    for rung in workloads.ladder_rungs(mpla, None):
        mats = [mpla.delta_matrix(rung.mp, rung.rep, d) for d in range(rung.top + 1)]
        out[rung.name] = {
            "h_dims": mpla.mpl_cohomology_dims(rung.mp, rung.rep, rung.top),
            "nnz": [nnz(m) for m in mats],
            "ranks": [mpla.rank(m) for m in mats],
        }
    return out


def routes(mpla):
    out = {}
    for name, mp, rep, top_delta, top_ce, _ in workloads.routes_pairs(mpla, None):
        for d in range(1, top_delta + 1):
            out[f"{name}/delta{d}"] = nnz(mpla.delta_matrix(mp, rep, d))
        big = mpla.bicrossed_product(mp)
        for d in range(top_ce + 1):
            out[f"{name}/ce{d}"] = nnz(mpla.ce_matrix(big.adjoint(), d))
    b = mpla.catalog.bialgebra_aff1()
    for d in (1, 2, 3):
        out[f"bialgebra-aff1/liebi{d}"] = nnz(mpla.liebi_matrix(b, d))
    return out


def classify(mpla):
    out = {}
    for key, mp, rep in workloads.classify_pairs(mpla):
        d1 = mpla.delta_matrix(mp, rep, 1)
        d2 = mpla.delta_matrix(mp, rep, 2)
        kernel_dim = d2.cols - mpla.rank(d2)
        out[key] = {"kernel_dim": kernel_dim, "h2": kernel_dim - mpla.rank(d1)}
    return out


def cli():
    workdir = OUT / "golden-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        paths = inputs.write_cli_inputs(workdir, None)
        out = {}
        for name, argv, expected_exit in inputs.CLI_JOBS:
            proc = subprocess.run([sys.executable, "-m", "mpla.cli", *inputs.cli_argv(argv, paths)],
                                  env={**os.environ, "PYTHONPATH": str(SRC)},
                                  capture_output=True, timeout=120)
            if proc.returncode != expected_exit:
                raise SystemExit(f"{name}: exit {proc.returncode}, expected {expected_exit}\n"
                                 f"{proc.stderr.decode()}")
            out[inputs.golden_name(name)] = hashlib.sha256(proc.stdout).hexdigest()
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    sys.path.insert(0, str(SRC))
    mpla = fresh_import()
    golden = {"ladder": ladder(mpla), "routes": routes(mpla), "classify": classify(mpla),
              "cli": cli()}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")


if __name__ == "__main__":
    main()
