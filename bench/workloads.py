"""The four workloads: their inputs, job lists and correctness gate.

A workload's ``setup(mpla, rng, workdir)`` builds and validates its
inputs; ``jobs(ctx)`` returns a fresh job list for one pass.  A job's
``run()`` is the timed call into the library and ``check(result, seen)``
returns the gate's complaints (empty when the result is right).  ``seen``
is ``None`` with tracing off; in a traced pass it holds the δ matrices and
ranks the job produced (``spans.Tracer.finish_job``), so the per-δ
fingerprint is checked there.

Expected values come from ``golden.json`` (recorded once, see
``make_golden.py``), from closed forms written here, and from invariants
that hold whatever the code computes: basis changes keep ranks and
cohomology, the Euler characteristic of a bounded complex equals that of
its cohomology, both coboundary routes give one matrix, δ∘δ = 0.
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import inputs
from spans import nnz

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    check: Callable[[object, dict | None], list]


# -- checks that do not use the library ------------------------------------


def cochain_dim(m, n, p, q, degree):
    """dim C^d of the matched-pair complex, from its definition."""
    if degree == 0:
        return p + q
    return sum(p * comb(m, degree - r + 1) * comb(n, r - 1) + q * comb(m, degree - r) * comb(n, r)
               for r in range(1, degree + 1))


def liebi_dim(dim, degree):
    return sum(comb(dim, degree - r + 1) * comb(dim, r) for r in range(1, degree + 1))


def sparse_rows(m):
    return [[(j, x) for j, x in enumerate(row) if x] for row in m.entries]


def apply_rows(rows, v):
    return [sum((x * v[j] for j, x in row), Fraction(0)) for row in rows]


def product_is_zero(a, b):
    """a * b == 0, by sparse products of a's rows with b's columns."""
    rows = sparse_rows(a)
    return all(not any(apply_rows(rows, [r[c] for r in b.entries])) for c in range(b.cols))


def euler(values):
    return sum((-1) ** d * v for d, v in enumerate(values))


def cochain_entries(F):
    """A cochain's nonzero values keyed by slot, read from its stored tables."""
    out = {}
    for r, part in enumerate(F.components, start=1):
        for side, table in (("V", part.part_v), ("W", part.part_w)):
            for key, vec in table.items():
                for idx, c in enumerate(vec):
                    if c:
                        out[(r, side, key, idx)] = Fraction(c)
    return out


def ranks_by_degree(seen, errors):
    out = {}
    for degree, _, r in seen["ranks"]:
        if degree is None:
            continue
        if out.setdefault(degree, r) != r:
            errors.append(f"δ_{degree} ranked {out[degree]} and {r}")
    return out


# -- ladder ----------------------------------------------------------------


@dataclass
class Rung:
    name: str
    mp: object
    rep: object
    top: int
    base: str | None = None  # unconjugated rung whose invariants it shares


def _pairs(mpla):
    """The catalog pairs every library workload sweeps, smallest first."""
    cat = mpla.catalog
    pairs = [(name, mp) for name, mp in cat.standard_fixtures()]
    pairs.append(("sl2+sl2", cat.mp_direct(cat.sl2(), cat.sl2())))
    pairs.append(("semidirect-double", cat.mp_semidirect_double()))
    return pairs


def ladder_rungs(mpla, rng):
    """Catalog pairs to their top degree with adjoint and coadjoint
    coefficients, 3+3 and 4+4 to degrees 3 and 2, and (given ``rng``)
    seeded conjugates of those two."""
    rungs = []
    pairs = _pairs(mpla)
    for name, mp in pairs[:-2]:
        top = mp.dim_g + mp.dim_h
        rungs.append(Rung(f"{name}/ad", mp, mpla.adjoint_representation(mp), top))
        rungs.append(Rung(f"{name}/coad", mp, mpla.coadjoint_representation(mp), top))
    for (name, mp), top in zip(pairs[-2:], (3, 2)):
        rungs.append(Rung(f"{name}/ad", mp, mpla.adjoint_representation(mp), top))
        if rng is not None:
            conj = inputs.conjugate_pair(mpla, mp, rng)
            rungs.append(Rung(f"{name}~conj/ad", conj, mpla.adjoint_representation(conj), top,
                              base=f"{name}/ad"))
    return rungs


def ladder_setup(mpla, rng, workdir):
    rungs = ladder_rungs(mpla, rng)
    for rung in rungs:
        rung.mp.require_valid()
        rung.rep.require_valid()
    return {"mpla": mpla, "rungs": rungs, "golden": load_golden()["ladder"]}


def ladder_jobs(ctx):
    mpla, golden = ctx["mpla"], ctx["golden"]

    def job(rung):
        gold = golden[rung.base or rung.name]

        def run():
            return mpla.mpl_dimension_report(rung.mp, rung.rep, rung.top)

        def check(table, seen):
            errors = []
            m, n = rung.mp.dim_g, rung.mp.dim_h
            p, q = rung.rep.dims
            dims = [row["cochain_dim"] for row in table]
            h_dims = [row["h_dim"] for row in table]
            if dims != [cochain_dim(m, n, p, q, d) for d in range(rung.top + 1)]:
                errors.append(f"cochain dims {dims}")
            if h_dims != gold["h_dims"]:
                errors.append(f"h_dims {h_dims} != {gold['h_dims']}")
            if rung.top == m + n and euler(dims) != euler(h_dims):
                errors.append("Euler characteristics differ")
            if seen is not None:
                # per-δ fingerprint, for each δ the traced names saw
                if rung.base is None:
                    for route, degree, rows, cols, count in seen["deltas"]:
                        if count != gold["nnz"][degree]:
                            errors.append(f"δ_{degree} has {count} nonzeros, "
                                          f"expected {gold['nnz'][degree]}")
                for degree, r in ranks_by_degree(seen, errors).items():
                    if r != gold["ranks"][degree]:
                        errors.append(f"δ_{degree} has rank {r}, expected {gold['ranks'][degree]}")
            return errors

        return Job(rung.name, run, check)

    return [job(rung) for rung in ctx["rungs"]]


# -- routes ----------------------------------------------------------------


def routes_pairs(mpla, rng):
    """(name, pair, adjoint rep, top degree of δ, of the CE δ, of the phi sweep)."""
    cat = mpla.catalog
    s33 = cat.mp_direct(cat.sl2(), cat.sl2())
    s44 = cat.mp_semidirect_double()
    pairs = [("sl2+sl2", s33, 3, 3, 2), ("semidirect-double", s44, 2, 2, 1)]
    if rng is not None:
        pairs.append(("sl2+sl2~conj", inputs.conjugate_pair(mpla, s33, rng), 3, 3, 0))
    return [(name, mp, mpla.adjoint_representation(mp), *tops) for name, mp, *tops in pairs]


def routes_setup(mpla, rng, workdir):
    pairs = routes_pairs(mpla, rng)
    for name, mp, rep, *tops in pairs:
        mp.require_valid()
        rep.require_valid()
    return {"mpla": mpla, "pairs": pairs, "bialgebra": mpla.catalog.bialgebra_aff1(),
            "golden": load_golden()["routes"]}


def routes_jobs(ctx):
    mpla, golden = ctx["mpla"], ctx["golden"]
    jobs = []
    for name, mp, rep, top_delta, top_ce, top_phi in ctx["pairs"]:
        jobs += _route_jobs(mpla, golden, name, mp, rep, top_delta)
        jobs += _ce_jobs(mpla, golden, name, mp, top_ce)
        jobs += [_phi_job(mpla, name, mp, d) for d in range(1, top_phi + 1)]
    b = ctx["bialgebra"]
    for degree in (1, 2, 3):
        jobs.append(_psi_job(mpla, b, degree))
    jobs += _liebi_jobs(mpla, golden, b, 3)
    return jobs


def _route_jobs(mpla, golden, name, mp, rep, top):
    prev = {}
    m, n = mp.dim_g, mp.dim_h

    def job(degree):
        def run():
            coeff = mpla.delta_matrix(mp, rep, degree)
            adjoint = mpla.delta_matrix(mp, rep, degree, route="adjoint")
            products = []
            if degree >= 2:
                for route, mat in (("coeff", coeff), ("adjoint", adjoint)):
                    prod = mat.mul(prev[route])
                    products.append((route, prod, prod.is_zero()))
            prev["coeff"], prev["adjoint"] = coeff, adjoint
            return coeff, adjoint, products

        def check(result, seen):
            coeff, adjoint, products = result
            errors = []
            shape = (cochain_dim(m, n, m, n, degree + 1), cochain_dim(m, n, m, n, degree))
            if (coeff.rows, coeff.cols) != shape:
                errors.append(f"δ_{degree} shape {(coeff.rows, coeff.cols)} != {shape}")
            if coeff.entries != adjoint.entries:
                errors.append(f"routes disagree on δ_{degree}")
            for route, prod, said_zero in products:
                if not said_zero or any(x for row in prod.entries for x in row):
                    errors.append(f"δ_{degree}∘δ_{degree - 1} != 0 on the {route} route")
            gold = golden.get(f"{name}/delta{degree}")
            if gold is not None and nnz(coeff) != gold:
                errors.append(f"δ_{degree} has {nnz(coeff)} nonzeros, expected {gold}")
            return errors

        return Job(f"{name}/delta{degree}", run, check)

    return [job(d) for d in range(1, top + 1)]


def _ce_jobs(mpla, golden, name, mp, top):
    prev = {}

    def job(degree):
        def run():
            return mpla.ce_matrix(mpla.bicrossed_product(mp).adjoint(), degree)

        def check(mat, seen):
            errors = []
            dim = mp.dim_g + mp.dim_h
            shape = (comb(dim, degree + 1) * dim, comb(dim, degree) * dim)
            if (mat.rows, mat.cols) != shape:
                errors.append(f"CE δ_{degree} shape {(mat.rows, mat.cols)} != {shape}")
            elif degree >= 1 and not product_is_zero(mat, prev["mat"]):
                errors.append(f"CE δ_{degree}∘δ_{degree - 1} != 0")
            prev["mat"] = mat
            gold = golden.get(f"{name}/ce{degree}")
            if gold is not None and nnz(mat) != gold:
                errors.append(f"CE δ_{degree} has {nnz(mat)} nonzeros, expected {gold}")
            return errors

        return Job(f"{name}/ce{degree}", run, check)

    return [job(d) for d in range(top + 1)]


def _phi_job(mpla, name, mp, degree):
    dims = (mp.dim_g, mp.dim_h)

    def run():
        return [mpla.phi_chain_check(mp, mpla.basis_cochain(dims, dims, degree, key)).ok
                for key in mpla.cochain_basis(dims, dims, degree)]

    def check(oks, seen):
        expected = cochain_dim(*dims, *dims, degree)
        if len(oks) != expected or not all(oks):
            return [f"phi chain law fails on {oks.count(False)} of {len(oks)} columns"]
        return []

    return Job(f"{name}/phi{degree}", run, check)


def _psi_job(mpla, b, degree):
    dim = b.g.dim
    size = liebi_dim(dim, degree)

    def run():
        return [mpla.psi_compare(b, mpla.liebi_from_coords(
                    dim, degree, [int(i == j) for j in range(size)])).ok
                for i in range(size)]

    def check(oks, seen):
        if len(oks) != size or not all(oks):
            return [f"psi chain law fails on {oks.count(False)} of {len(oks)} columns"]
        return []

    return Job(f"bialgebra-aff1/psi{degree}", run, check)


def _liebi_jobs(mpla, golden, b, top):
    prev = {}
    dim = b.g.dim

    def job(degree):
        def run():
            return mpla.liebi_matrix(b, degree)

        def check(mat, seen):
            errors = []
            shape = (liebi_dim(dim, degree + 1), liebi_dim(dim, degree))
            if (mat.rows, mat.cols) != shape:
                errors.append(f"bialgebra δ_{degree} shape {(mat.rows, mat.cols)} != {shape}")
            elif degree >= 2 and not product_is_zero(mat, prev["mat"]):
                errors.append(f"bialgebra δ_{degree}∘δ_{degree - 1} != 0")
            prev["mat"] = mat
            if nnz(mat) != golden[f"bialgebra-aff1/liebi{degree}"]:
                errors.append(f"bialgebra δ_{degree} has {nnz(mat)} nonzeros")
            return errors

        return Job(f"bialgebra-aff1/liebi{degree}", run, check)

    return [job(d) for d in range(1, top + 1)]


# -- classify --------------------------------------------------------------


def classify_pairs(mpla):
    """Every catalog pair with adjoint and with coadjoint coefficients."""
    return [(f"{name}/{kind}", mp, rep(mp)) for name, mp in _pairs(mpla)
            for kind, rep in (("ad", mpla.adjoint_representation),
                              ("coad", mpla.coadjoint_representation))]


def classify_setup(mpla, rng, workdir):
    golden = load_golden()["classify"]
    items = []
    for key, mp, rep in classify_pairs(mpla):
        mp.require_valid()
        rep.require_valid()
        coefficients = [rng.randint(-3, 3) for _ in range(golden[key]["kernel_dim"])]
        items.append((key, mp, rep, coefficients))
    return {"mpla": mpla, "items": items, "golden": golden}


def classify_jobs(ctx):
    mpla, golden = ctx["mpla"], ctx["golden"]

    def job(key, mp, rep, coefficients):
        gold = golden[key]
        adjoint = key.endswith("/ad")

        def run():
            d1 = mpla.delta_matrix(mp, rep, 1)
            d2 = mpla.delta_matrix(mp, rep, 2)
            kernel = mpla.kernel_basis(d2)
            coords = [sum((c * k[i] for c, k in zip(coefficients, kernel)), Fraction(0))
                      for i in range(d2.cols)]
            cochain = mpla.cochain_from_coords((mp.dim_g, mp.dim_h), rep.dims, 2, coords)
            primitive = mpla.solve(d1, coords)
            ext = mpla.cocycle_to_extension(mp, rep, cochain)
            valid = mpla.validate_extension(ext).ok
            back = mpla.extension_to_cocycle(ext)
            deform = (mpla.deformation_check(mp, mpla.cochain_to_candidate(cochain))
                      if adjoint else None)
            return d1, d2, kernel, coords, cochain, primitive, valid, back, deform

        def check(result, seen):
            d1, d2, kernel, coords, cochain, primitive, valid, back, deform = result
            errors = []
            if len(kernel) != gold["kernel_dim"]:
                errors.append(f"kernel of δ_2 has {len(kernel)} vectors, expected {gold['kernel_dim']}")
            rows2 = sparse_rows(d2)
            if any(any(apply_rows(rows2, v)) for v in kernel + [coords]):
                errors.append("a kernel vector is not closed")
            if primitive is not None:
                if apply_rows(sparse_rows(d1), primitive) != coords:
                    errors.append("solve returned a wrong primitive")
            elif gold["h2"] == 0:
                errors.append("solve found no primitive although H^2 = 0")
            if not valid:
                errors.append("extension of a closed cochain is invalid")
            if cochain_entries(back) != cochain_entries(cochain):
                errors.append("extension round trip changed the cochain")
            if deform is not None and not (deform.is_deformation and deform.agree):
                errors.append("closed cochain is not an infinitesimal deformation")
            return errors

        return Job(key, run, check)

    return [job(*item) for item in ctx["items"]]


# -- cli-mix ---------------------------------------------------------------


def cli_setup(mpla, rng, workdir):
    import importlib

    cli = importlib.import_module("mpla.cli")
    paths = inputs.write_cli_inputs(workdir, rng)
    order = list(inputs.CLI_JOBS)
    rng.shuffle(order)
    return {"cli": cli, "paths": paths, "order": order, "child_peaks_kib": [],
            "golden": load_golden()["cli"], "src": str(Path(mpla.__file__).parent.parent)}


def _digest(data: bytes):
    return hashlib.sha256(data).hexdigest()


def cli_check(golden, name, expected_exit):
    gold = golden[inputs.golden_name(name)]

    def check(result, seen):
        code, stdout = result
        errors = []
        if code != expected_exit:
            errors.append(f"exit code {code}, expected {expected_exit}")
        if _digest(stdout) != gold:
            errors.append("stdout differs from the golden output")
        return errors

    return check


def peak_rss_kib(status="/proc/self/status"):
    """VmHWM of a process: its own peak resident memory.

    Unlike ``getrusage``'s ru_maxrss, it leaves out the memory of the
    process that started this one, which survives ``exec`` there.
    """
    with open(status, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError(f"no VmHWM in {status}")


# `python -m mpla.cli ARGS` that then writes its VmHWM (see peak_rss_kib)
# to stderr; it imports nothing more than the command does
LAUNCH = """
import runpy, sys
try:
    runpy.run_module("mpla.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line for line in status if line.startswith("VmHWM:")).split()[1]
    sys.stderr.write("\\nVmHWM " + peak + "\\n")
"""


def cli_jobs(ctx, in_process=False):
    """One ``mpla`` subprocess per job; in-process ``cli.main`` when traced.

    Each subprocess's peak memory is appended to ``ctx["child_peaks_kib"]``.
    """
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = ctx["src"] + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def job(name, argv, expected_exit):
        args = inputs.cli_argv(argv, ctx["paths"])

        def run_subprocess():
            proc = subprocess.run([sys.executable, "-c", LAUNCH, *args], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
            ctx["child_peaks_kib"].append(int(proc.stderr.rsplit(b"VmHWM ", 1)[1]))
            return proc.returncode, proc.stdout

        def run_in_process():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = ctx["cli"].main(args)
            return code, out.getvalue().encode("utf-8")

        return Job(name, run_in_process if in_process else run_subprocess,
                   cli_check(ctx["golden"], name, expected_exit))

    return [job(*spec) for spec in ctx["order"]]


@dataclass
class Workload:
    name: str
    setup: Callable
    jobs: Callable
    subprocess_jobs: bool = False  # jobs are `mpla` subprocesses (in-process when traced)


# Why each workload is here: BENCHMARK.json ("why") and meta.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("ladder", ladder_setup, ladder_jobs),
        Workload("routes", routes_setup, routes_jobs),
        Workload("classify", classify_setup, classify_jobs),
        Workload("cli-mix", cli_setup, cli_jobs, subprocess_jobs=True),
    )
}
