"""Seeded inputs for the benchmark, built without the library's own helpers.

Everything here works on plain Python lists of ``Fraction`` so that the
basis changes, their inverses and the JSON the ``mpla`` command reads are
produced by code that is not under test.  The library is touched only to
wrap finished tensors in its classes (``conjugate_pair``).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def invert(a):
    """Exact inverse of a square list-of-rows matrix, or None if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def random_basis_change(rng: random.Random, n: int):
    """A seeded invertible matrix P T Q and its inverse.

    P and Q are random signed permutation matrices and T[i][j] = min(i, j) + 2
    is dense with determinant 2, so the inverse brings halves into the
    conjugated structure constants and every draw fills the coboundary
    matrices alike: the seed changes the input, not how hard it is.
    """
    def signed_permutation():
        order = list(range(n))
        rng.shuffle(order)
        return [[Fraction(rng.choice((-1, 1))) if order[i] == j else Fraction(0)
                 for j in range(n)] for i in range(n)]

    def product(x, y):
        return [[sum((x[i][t] * y[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
                for i in range(n)]

    t = [[Fraction(min(i, j) + 2) for j in range(n)] for i in range(n)]
    a = product(product(signed_permutation(), t), signed_permutation())
    return a, invert(a)


def _column(a, i):
    return [row[i] for row in a]


def _apply(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def _bilinear(t, u, v, codim):
    """sum_ij u_i v_j t[i][j] for a dense tensor t[i][j] = vector."""
    out = [Fraction(0)] * codim
    for i, x in enumerate(u):
        if not x:
            continue
        for j, y in enumerate(v):
            if not y:
                continue
            for k, c in enumerate(t[i][j]):
                if c:
                    out[k] += x * y * c
    return out


def conjugate_tensors(gc, hc, rho, psi, rng: random.Random):
    """Structure constants of a matched pair in seeded new bases of g and h.

    With new bases e'_i = A e_i and f'_a = B f_a:
    [e'_i, e'_j] = A^-1 [A e_i, A e_j], rho'(e'_i) f'_a = B^-1 rho(A e_i) B f_a,
    and symmetrically for h and psi.  Ranks and cohomology dimensions of
    every complex built from the pair do not change.
    """
    m, n = len(gc), len(hc)
    a, a_inv = random_basis_change(rng, m)
    b, b_inv = random_basis_change(rng, n)
    ga = [_column(a, i) for i in range(m)]
    hb = [_column(b, j) for j in range(n)]
    gc2 = [[_apply(a_inv, _bilinear(gc, ga[i], ga[j], m)) for j in range(m)]
           for i in range(m)]
    hc2 = [[_apply(b_inv, _bilinear(hc, hb[i], hb[j], n)) for j in range(n)]
           for i in range(n)]
    rho2 = [[_apply(b_inv, _bilinear(rho, ga[i], hb[j], n)) for j in range(n)]
            for i in range(m)]
    psi2 = [[_apply(a_inv, _bilinear(psi, hb[j], ga[i], m)) for i in range(m)]
            for j in range(n)]
    return gc2, hc2, rho2, psi2


def conjugate_pair(mpla, mp, rng: random.Random):
    """The library matched pair ``mp`` written in seeded random bases."""
    gc, hc, rho, psi = conjugate_tensors(mp.g.c, mp.h.c, mp.rho, mp.psi, rng)
    return mpla.MatchedPair(mpla.LieAlgebra(len(gc), gc), mpla.LieAlgebra(len(hc), hc),
                            rho, psi)


# -- JSON inputs of the mpla command ------------------------------------------


def _scalar(text):
    return Fraction(text) if isinstance(text, str) else Fraction(int(text))


def _json_scalar(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _dense(entries, d1, d2, codim):
    t = [[[Fraction(0)] * codim for _ in range(d2)] for _ in range(d1)]
    for i, j, k, c in entries:
        t[i][j][k] = _scalar(c)
    return t


def _sparse(t, skew):
    rows = []
    for i, row in enumerate(t):
        for j, vec in enumerate(row):
            if skew and i >= j:
                continue
            rows.extend([i, j, k, _json_scalar(c)] for k, c in enumerate(vec) if c)
    return rows


def conjugate_pair_json(data, rng: random.Random):
    """The matched-pair JSON ``data`` rewritten in seeded random bases."""
    m, n = data["g"]["dim"], data["h"]["dim"]
    gc = _dense(data["g"]["bracket"], m, m, m)
    hc = _dense(data["h"]["bracket"], n, n, n)
    for t, d in ((gc, m), (hc, n)):
        for i in range(d):
            for j in range(i):
                t[i][j] = [-x for x in t[j][i]]
    rho = _dense(data["rho"], m, n, n)
    psi = _dense(data["psi"], n, m, m)
    gc2, hc2, rho2, psi2 = conjugate_tensors(gc, hc, rho, psi, rng)
    return {"g": {"dim": m, "bracket": _sparse(gc2, True)},
            "h": {"dim": n, "bracket": _sparse(hc2, True)},
            "rho": _sparse(rho2, False), "psi": _sparse(psi2, False)}


def load_cli_inputs():
    """Catalog structures as the JSON the command reads (committed data)."""
    return json.loads((DATA / "cli_inputs.json").read_text(encoding="utf-8"))


# Malformed inputs: each must make the command exit 2.
MALFORMED = {
    "truncated": '{"g": {"dim": 2, "bracket": [[0, 1, 1, 1]]}, "h": ',
    "bad_index": '{"dim": 2, "bracket": [[0, 5, 1, 1]]}',
    "bad_scalar": '{"dim": 2, "bracket": [[0, 1, 1, "1/0"]]}',
    "unknown_kind": '{"hello": 1}',
}

# (job name, argv with {file} placeholders, expected exit code).  A job
# name ending in "~conj" runs on a seeded basis change of its input and
# must print exactly what the job without the suffix prints.
CLI_JOBS = [
    ("validate-mp-a", ["validate", "{mp_a}"], 0),
    ("validate-double~conj", ["validate", "{mp_double~conj}"], 0),
    ("validate-sl2", ["validate", "{sl2}", "--as", "lie"], 0),
    ("validate-bialgebra", ["validate", "{bialgebra_aff1}"], 0),
    ("validate-extension", ["validate", "{extension_double}"], 0),
    ("validate-coadjoint", ["validate", "{coadjoint_double}", "--base", "{mp_double}"], 0),
    ("validate-invalid", ["validate", "{mp_invalid}"], 1),
    ("validate-invalid-json", ["validate", "{mp_invalid}", "--format", "json"], 1),
    ("validate-truncated", ["validate", "{truncated}"], 2),
    ("validate-bad-index", ["validate", "{bad_index}", "--as", "lie"], 2),
    ("validate-bad-scalar", ["validate", "{bad_scalar}", "--as", "lie"], 2),
    ("validate-unknown-kind", ["validate", "{unknown_kind}"], 2),
    ("bicross-double", ["bicross", "{mp_double}", "--format", "json"], 0),
    ("bicross-semidirect", ["bicross", "{semidirect_mp_a}"], 0),
    ("semidirect-mp-a", ["semidirect", "{mp_a}"], 0),
    ("dual-double", ["dual", "{mp_double}"], 0),
    ("cohomology-double", ["cohomology", "{mp_double}", "--max-degree", "3"], 0),
    ("cohomology-heisenberg~conj",
     ["cohomology", "{derivation_heisenberg~conj}", "--max-degree", "3", "--format", "json"], 0),
    ("cohomology-coadjoint",
     ["cohomology", "{mp_double}", "--coefficients", "{coadjoint_double}",
      "--max-degree", "3", "--format", "json"], 0),
    ("mc-check-double", ["mc-check", "{mp_double}"], 0),
    ("mc-check-invalid", ["mc-check", "{mp_invalid}", "--format", "json"], 1),
    ("deform-check-closed", ["deform-check", "{mp_double}", "{deform_closed}"], 0),
    ("deform-check-open", ["deform-check", "{mp_double}", "{deform_open}"], 1),
    ("extend-double", ["extend", "{mp_double}", "{cocycle_double}"], 0),
    ("extend-open", ["extend", "{mp_double}", "{cochain_open}"], 1),
    ("extract-cocycle", ["extract-cocycle", "{extension_double}"], 0),
    ("skeletal-validate-pair", ["skeletal-validate", "{skeletal_double}"], 0),
    ("skeletal-validate-two-term", ["skeletal-validate", "{two_term_sl2}"], 0),
    ("skeletal-correspond", ["skeletal-correspond", "{skeletal_double}"], 0),
    ("rota-baxter", ["rota-baxter", "{aff1}", "{rb_neg_id}"], 0),
    ("bialgebra", ["bialgebra", "{bialgebra_aff1}"], 0),
]


def golden_name(job: str) -> str:
    return job.removesuffix("~conj")


def write_cli_inputs(workdir: Path, rng: random.Random | None):
    """Write every input file of CLI_JOBS into ``workdir``.

    ``rng`` drives the basis changes of the "~conj" files; without it those
    files hold the unchanged structures (used to record golden output).
    Returns {placeholder: path}.
    """
    inputs = load_cli_inputs()
    paths = {}
    for name, data in inputs.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    for name in ("mp_double", "derivation_heisenberg"):
        data = inputs[name] if rng is None else conjugate_pair_json(inputs[name], rng)
        paths[name + "~conj"] = workdir / f"{name}-conj.json"
        paths[name + "~conj"].write_text(json.dumps(data), encoding="utf-8")
    for name, text in MALFORMED.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}


def cli_argv(argv, paths):
    return [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
