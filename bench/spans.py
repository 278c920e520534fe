"""Spans around the library's public entry points, recorded from outside it.

``Tracer.patched()`` replaces each traced name in every loaded ``mpla``
module that binds it (``mpla.linalg.rank`` and ``mpla.matched.rank`` are
the same function bound twice), and methods on their classes, with a
wrapper that records a span.  Spans stay in memory as
``[metric, start, end, parent, job, info]`` lists; ``layer_metrics``
turns one pass's spans into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# metric -> names it covers, as "module:function" or "module:Class.method".
LAYERS = {
    "cohomology.assemble_s": ["cohomology:delta_matrix"],
    "cohomology.liebi_assemble_s": ["cohomology:liebi_matrix"],
    "cohomology.chain_check_s": ["cohomology:phi_chain_check", "cohomology:psi_compare"],
    "cohomology.dims_s": ["cohomology:mpl_cohomology_dims"],
    "linalg.rank_s": ["linalg:rank"],
    "linalg.ddcheck_s": ["linalg:Matrix.mul", "linalg:Matrix.is_zero"],
    "linalg.kernel_basis_s": ["linalg:kernel_basis"],
    "linalg.solve_s": ["linalg:solve"],
    "lie.ce_assemble_s": ["lie:ce_matrix"],
    "lie.ce_coboundary_s": ["lie:ce_coboundary"],
    "multimap.nr_bracket_s": ["multimap:nr_bracket"],
    "bigraded.s": ["bigraded:embed", "bigraded:decompose",
                   "bigraded:StructureElement.from_matched_pair", "bigraded:mc_check"],
    "matched.validate_s": ["matched:validate_matched_pair"],
    "reps.validate_s": ["reps:validate_mp_representation"],
    "deform.check_s": ["deform:deformation_check"],
    "deform.extension_s": ["deform:cocycle_to_extension", "deform:validate_extension",
                           "deform:extension_to_cocycle"],
    "skeletal.s": ["skeletal:validate_skeletal_matched_pair", "skeletal:validate_two_term",
                   "skeletal:skeletal_to_triple", "skeletal:triple_to_skeletal"],
    "jsonio.parse_s": ["jsonio:load_json", "jsonio:lie_algebra_from_json",
                       "jsonio:lie_rep_from_json", "jsonio:matched_pair_from_json",
                       "jsonio:mp_representation_from_json", "jsonio:cochain_from_json",
                       "jsonio:deformation_from_json", "jsonio:bialgebra_from_json",
                       "jsonio:two_term_from_json", "jsonio:skeletal_pair_from_json",
                       "jsonio:extension_from_json"],
    "jsonio.dump_s": ["jsonio:dump_json"],
    "report.output_s": ["report:ValidationReport.lines", "report:ValidationReport.to_json",
                        "bigraded:MCReport.lines", "deform:DeformReport.lines"],
    "cli.main_s": ["cli:main"],
}

# Counts: metric -> span metric whose calls it counts.
CALL_COUNTS = {
    "linalg.rank_calls": "linalg.rank_s",
    "linalg.kernel_calls": "linalg.kernel_basis_s",
    "lie.ce_coboundary_calls": "lie.ce_coboundary_s",
    "multimap.nr_bracket_calls": "multimap.nr_bracket_s",
    "jsonio.parse_calls": "jsonio.parse_s",
}

DEGREES = (1, 2, 3, 4)


def _delta_args(args, kwargs):
    degree = kwargs.get("degree", args[2] if len(args) > 2 else None)
    route = kwargs.get("route", args[3] if len(args) > 3 else "coeff")
    return degree, route


class Tracer:
    """Collects spans; ``job`` is the id stamped on every new span."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.missing = []
        # results of the current job, read by the gate and the counts
        self.deltas = []   # (route, degree, Matrix)
        self.ranks = []    # (Matrix, rank)
        self._job_first_span = 0

    def start_job(self, job):
        self.job = job
        self.deltas = []
        self.ranks = []
        self._job_first_span = len(self.spans)

    def finish_job(self):
        """Close the job: tag rank spans with the degree of the δ they ranked.

        Returns what the job's δ matrices and ranks were, and drops the
        references to the matrices.
        """
        degree_of = {id(m): degree for _, degree, m in self.deltas}
        for span in self.spans[self._job_first_span:]:
            if span[0] == "linalg.rank_s":
                span[5] = degree_of.get(span[5])
        summary = {
            "deltas": [(route, degree, m.rows, m.cols, nnz(m)) for route, degree, m in self.deltas],
            "ranks": [(degree_of.get(id(m)), m.rows * m.cols, r) for m, r in self.ranks],
            "distinct": len({id(m) for m, _ in self.ranks}),
        }
        self.deltas = []
        self.ranks = []
        return summary

    def _wrap(self, metric, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [metric, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.job, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = t0
                tracer.stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def _delta_hook(self, span, args, kwargs, result):
        degree, route = _delta_args(args, kwargs)
        if route == "adjoint":
            span[0] = "cohomology.assemble_adjoint_s"
        span[5] = degree
        self.deltas.append((route, degree, result))

    def _rank_hook(self, span, args, kwargs, result):
        m = args[0] if args else kwargs["m"]
        span[5] = id(m)
        self.ranks.append((m, result))

    @contextmanager
    def patched(self):
        """Wrap every name in LAYERS for the duration of the block."""
        hooks = {"cohomology:delta_matrix": self._delta_hook, "linalg:rank": self._rank_hook}
        undo = []
        self.missing = []
        for metric, names in LAYERS.items():
            for spec in names:
                mod_name, qual = spec.split(":")
                try:
                    module = importlib.import_module("mpla." + mod_name)
                    if "." in qual:
                        cls_name, attr = qual.split(".")
                        cls = getattr(module, cls_name)
                        raw = cls.__dict__[attr]
                    else:
                        raw = getattr(module, qual)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(spec)
                    continue
                hook = hooks.get(spec)
                if "." in qual:
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(metric, raw.__func__, hook))
                    else:
                        new = self._wrap(metric, raw, hook)
                    setattr(cls, attr, new)
                    undo.append((cls, attr, raw))
                    continue
                new = self._wrap(metric, raw, hook)
                for mod in _mpla_modules():
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, new)
                            undo.append((mod, key, raw))
        try:
            yield self
        finally:
            for owner, key, raw in reversed(undo):
                setattr(owner, key, raw)

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, job]) + "\n")


def _mpla_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mpla" or name.startswith("mpla."))]


def nnz(m) -> int:
    return sum(1 for row in m.entries for x in row if x)


def layer_metrics(spans, jobs):
    """Per-layer self times and counts of one traced pass.

    ``spans`` are the pass's spans, with parents indexing the same list;
    ``jobs`` are the pass's ``Tracer.finish_job`` summaries.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job, info in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {metric: 0.0 for metric in LAYERS}
    out["cohomology.assemble_adjoint_s"] = 0.0
    for base in ("cohomology.assemble_s", "linalg.rank_s"):
        for d in DEGREES:
            out[f"{base}.d{d}"] = 0.0
    calls = {}
    for index, (name, start, end, parent, job, degree) in enumerate(spans):
        self_time = end - start - child_time[index]
        out[name] += self_time
        calls[name] = calls.get(name, 0) + 1
        if name in ("cohomology.assemble_s", "linalg.rank_s") and degree in DEGREES:
            out[f"{name}.d{degree}"] += self_time
    for metric, source in CALL_COUNTS.items():
        out[metric] = calls.get(source, 0)
    out["cohomology.assemble_cols"] = sum(d[3] for job in jobs for d in job["deltas"])
    out["cohomology.assemble_nnz"] = sum(d[4] for job in jobs for d in job["deltas"])
    out["linalg.rank_cells"] = sum(r[1] for job in jobs for r in job["ranks"])
    rank_calls = out["linalg.rank_calls"]
    distinct = sum(job["distinct"] for job in jobs)
    out["linalg.rank_distinct_ratio"] = distinct / rank_calls if rank_calls else 0.0
    return out
