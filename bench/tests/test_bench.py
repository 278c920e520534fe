"""Self-test of the benchmark: every workload passes one job, and the gate trips.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END_UNITS)
    emitted = set(spans.layer_metrics([], [])) | set(run.PROBED_LAYERS)
    assert {m["name"] for m in declared["per_layer"]} == emitted
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def first_job(name, tmp_path, in_process=False):
    workload = WORKLOADS[name]
    mpla = run.fresh_import()
    ctx = workload.setup(mpla, random.Random(1), tmp_path)
    jobs = workload.jobs(ctx, in_process=True) if in_process else workload.jobs(ctx)
    return mpla, jobs[0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_job_of_each_workload_passes(name, tmp_path):
    _, job = first_job(name, tmp_path)
    assert job.check(job.run(), None) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_traced_job_of_each_workload_passes(name, tmp_path):
    _, job = first_job(name, tmp_path, in_process=WORKLOADS[name].subprocess_jobs)
    tracer = spans.Tracer()
    with tracer.patched():
        tracer.start_job(job.id)
        result = job.run()
        seen = tracer.finish_job()
    assert tracer.missing == []
    assert tracer.spans
    assert job.check(result, seen) == []


def test_ladder_counts_each_interior_rank_twice(tmp_path):
    mpla, job = first_job("ladder", tmp_path)
    tracer = spans.Tracer()
    with tracer.patched():
        tracer.start_job(job.id)
        job.run()
        seen = tracer.finish_job()
    layers = spans.layer_metrics(tracer.spans, [seen])
    top = 2  # trivial-1-1 runs to degree 2
    assert layers["linalg.rank_calls"] == 2 * top + 1
    assert layers["linalg.rank_distinct_ratio"] == (top + 1) / (2 * top + 1)
    assert not hasattr(mpla.linalg.rank, "__wrapped__")  # the patch is undone


def test_missing_name_is_reported(tmp_path, monkeypatch):
    mpla, _ = first_job("routes", tmp_path)
    monkeypatch.delattr(mpla.cohomology, "liebi_matrix")
    tracer = spans.Tracer()
    with tracer.patched():
        pass
    assert tracer.missing == ["cohomology:liebi_matrix"]


def _tamper_rank(mpla, monkeypatch):
    original = mpla.linalg.rank

    def rank_plus_one(m):
        return original(m) + 1

    for module in spans._mpla_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, rank_plus_one)


def test_gate_trips_on_tampered_rank(tmp_path, monkeypatch):
    mpla = run.fresh_import()
    ctx = WORKLOADS["ladder"].setup(mpla, random.Random(1), tmp_path)
    _tamper_rank(mpla, monkeypatch)
    job = next(j for j in WORKLOADS["ladder"].jobs(ctx) if j.id == "double/ad")
    assert job.check(job.run(), None)


def test_gate_trips_on_wrong_cli_output(tmp_path):
    _, job = first_job("cli-mix", tmp_path, in_process=True)
    code, stdout = job.run()
    assert job.check((code, stdout + b" "), None)
    assert job.check((code + 1, stdout), None)


def test_tampered_checkout_exits_nonzero(tmp_path):
    """A copy of the checkout whose rank is off by one fails the run."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    linalg = tmp_path / "src" / "mpla" / "linalg.py"
    linalg.write_text(linalg.read_text() + "\n\n_rank = rank\n\n\ndef rank(m):\n"
                      "    return _rank(m) + 1\n")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
                           "--seconds", "0", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_run_without_library_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "routes", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
