"""Benchmark of the mpla library and command.

Run from the root of a checkout:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

Each run imports ``mpla`` from ``src/`` of the checkout and, for
``--seconds``, builds the workload's seeded inputs (timed as set-up) and
runs its job list, again and again, in this one process and thread,
checking every result.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs the same passes untraced
and then traced, and reports per-layer self times and counts taken from
spans around the library's public functions (see ``spans.py``); the spans
are written to ``.bench_out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only if every job passed its check.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, peak_rss_kib  # noqa: E402

# Before each untraced pass the inputs are built afresh, at least twice and
# until this many seconds are spent: set-up samples then span the whole run,
# as the passes do, rather than one moment of a host whose speed drifts.
SETUP_SECONDS_PER_PASS = 0.5
MIN_PASSES = 2          # untraced passes, so each job has a median of two or more
PROBE_REPEATS = 5       # interpreter and import probes of a traced run
TAIL_PERCENTILES = (99, 95, 90, 80, 50)

# per-layer metrics measured apart from the spans
PROBED_LAYERS = ("cli.interp_s", "cli.import_s", "trace.overhead_ratio")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def fresh_import():
    """Import mpla from the checkout as a new process would."""
    for name in [n for n in sys.modules if n == "mpla" or n.startswith("mpla.")]:
        del sys.modules[name]
    mpla = importlib.import_module("mpla")
    if Path(mpla.__file__).resolve().parent != SRC / "mpla":
        raise SystemExit(f"imported mpla from {mpla.__file__}, not from {SRC}")
    return mpla


def tail(samples):
    """(percentile, value): the highest listed percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
    return 50, statistics.median(ordered)


@dataclass
class Pass:
    times: list          # seconds of each job's library call, in job order
    seen: list           # traced passes: what each job's δ matrices and ranks were
    spans: list          # traced passes: the pass's spans, parents indexing this list


def job_list_seconds(passes):
    """The job list's time with each job at its median over the passes.

    Steadier than the median pass total when the host's speed drifts
    within a run, and equal to it for one pass.
    """
    return sum(statistics.median(job) for job in zip(*(p.times for p in passes)))


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failures = []
        self.setup_times = []
        self.child_peaks_kib = []  # peak memory of each `mpla` subprocess
        self.workdir = OUT / f"work-{os.getpid()}"

    def setup(self, seconds=0.0):
        """Build the inputs twice or more, until ``seconds`` are spent; keep the last."""
        spent = []
        while len(spent) < 2 or sum(spent) < seconds:
            shutil.rmtree(self.workdir, ignore_errors=True)
            t0 = perf_counter()
            self.workdir.mkdir(parents=True)
            mpla = fresh_import()
            self.ctx = self.workload.setup(mpla, random.Random(self.seed), self.workdir)
            spent.append(perf_counter() - t0)
            gc.collect()  # free the previous import's modules before the next
        self.setup_times += spent

    def one_pass(self, tracer=None, in_process=False):
        jobs = (self.workload.jobs(self.ctx, in_process=True) if in_process
                else self.workload.jobs(self.ctx))
        first_span = len(tracer.spans) if tracer is not None else 0
        result = Pass([], [], [])
        for job in jobs:
            self.attempted += 1
            if tracer is not None:
                tracer.start_job(job.id)
            t0 = perf_counter()
            try:
                output = job.run()
                errors = None
            except Exception as exc:  # a raising job is a failed job; keep going
                errors = [f"raised {type(exc).__name__}: {exc}"]
            result.times.append(perf_counter() - t0)
            seen = tracer.finish_job() if tracer is not None else None
            if errors is None:
                try:
                    errors = job.check(output, seen)
                except Exception as exc:
                    errors = [f"check raised {type(exc).__name__}: {exc}"]
            if seen is not None:
                result.seen.append(seen)
            if errors:
                self.failures.append((job.id, errors))
        if tracer is not None:
            result.spans = [span[:3] + [span[3] - first_span if span[3] >= 0 else -1] + span[4:]
                            for span in tracer.spans[first_span:]]
        return result

    def passes(self, budget, min_passes, setup_seconds=None, **kwargs):
        """Repeat passes while the next one is expected to end within ``budget``.

        With ``setup_seconds``, the inputs are built afresh before each pass.
        """
        out = []
        start = perf_counter()
        while True:
            if setup_seconds is not None:
                self.setup(setup_seconds)
            out.append(self.one_pass(**kwargs))
            self.child_peaks_kib += self.ctx.get("child_peaks_kib", [])
            elapsed = perf_counter() - start
            if len(out) >= min_passes and elapsed + elapsed / len(out) > budget:
                return out


def end_to_end(run):
    passes = run.passes(run.seconds, MIN_PASSES, setup_seconds=SETUP_SECONDS_PER_PASS)
    peak_kib = max(run.child_peaks_kib) if run.workload.subprocess_jobs else peak_rss_kib()
    metrics = {
        "setup_s": statistics.median(run.setup_times),
        "wall_s": job_list_seconds(passes),
        "peak_rss_mib": peak_kib / 1024,
    }
    # Job latencies: for cli-mix these are the `mpla` invocations.  They are
    # printed, not gated: on the library workloads the jobs differ in size
    # by orders of magnitude, so a percentile sits between two jobs and
    # jumps with noise that barely moves wall_s.
    samples = [t for p in passes for t in p.times]
    pct, tail_value = tail(samples)
    prefix = "cli" if run.workload.subprocess_jobs else "job"
    note = [f"{run.workload.name} seed {run.seed}: {len(run.setup_times)} set-ups, "
            f"{len(passes)} passes of {len(passes[0].times)} jobs, job seconds per pass "
            + " ".join(f"{sum(p.times):.3f}" for p in passes),
            f"  {prefix}_p50_s = {statistics.median(samples):.6g} s",
            f"  {prefix}_tail_s = {tail_value:.6g} s (p{pct} of {len(samples)} samples)",
            f"  fail_ratio = {len(run.failures) / run.attempted:.6g} "
            f"({len(run.failures)}/{run.attempted})"]
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}, note


def _probe(code):
    """Median seconds of a fresh interpreter running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def per_layer(run):
    run.setup()
    # cli-mix runs cli.main in process here: spans cannot cross a subprocess
    in_process = run.workload.subprocess_jobs
    plain = run.passes(run.seconds / 2, 1, in_process=in_process)
    tracer = spans.Tracer()
    with tracer.patched():
        traced = run.passes(run.seconds / 2, 1, tracer=tracer, in_process=in_process)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{run.workload.name}-seed{run.seed}.jsonl")
    per_pass = [spans.layer_metrics(p.spans, p.seen) for p in traced]
    layers = {}
    for name in per_pass[0]:
        if layer_unit(name) == "s":
            layers[name] = statistics.median(m[name] for m in per_pass)
        else:  # counts and ratios of counts are the same on every pass
            layers[name] = per_pass[0][name]
    interp = _probe("pass")
    probed = (interp, _probe("import mpla.cli") - interp,
              job_list_seconds(traced) / job_list_seconds(plain) - 1)
    layers.update(zip(PROBED_LAYERS, probed))
    note = [f"{run.workload.name} seed {run.seed}: {len(traced)} traced passes, "
            f"{len(plain)} untraced"]
    if tracer.missing:
        note.append("  missing names: " + ", ".join(tracer.missing))
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}, note


def layer_unit(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_calls", "_cols", "_nnz", "_cells")):
        return "count"
    return "s"


def run_one(args):
    if not (SRC / "mpla" / "__init__.py").is_file():
        sys.stderr.write(f"no mpla package under {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        metrics, note = (per_layer if args.trace else end_to_end)(run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    for job_id, errors in run.failures[:20]:
        print(f"FAILED {job_id}: {'; '.join(errors)}")
    print("\n".join(note))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Run every workload in its own process, then print one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
