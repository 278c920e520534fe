"""JSON parsing and serialization for every structure the tool exchanges.

Scalars travel as "p/q" strings or bare integers.  Tensor entries are
sparse rows [indices..., coefficient]:

  lie algebra   {"dim": n, "bracket": [[i, j, k, c], ...]}        with i < j
  action        {"space_dim": n, "action": [[i, p, q, c], ...]}
  matched pair  {"g": ..., "h": ..., "rho": [[i, a, b, c], ...],
                 "psi": [[a, i, j, c], ...]}
  representation {"dims": [p, q], "rho_V": ..., "psi_V": ..., "rho_W": ...,
                  "psi_W": ..., "alpha": [[u, a, w, c], ...],
                  "beta": [[w, i, u, c], ...]}
  cochain       {"degree": n, "components": [{"r": r,
                  "part_V": [[gtuple, htuple, idx, c], ...],
                  "part_W": ...}]}; degree 0 uses {"degree": 0, "vector": [...]}
  deformation   {"mu1": ..., "nu1": ..., "rho1": ..., "psi1": ...}
  bialgebra     {"g": ..., "cobracket": [[k, i, j, c], ...]}      with i < j
  two-term      {"dim0": a, "dim1": b, "mu1": [[p, i, c], ...],
                 "bracket00": [[i, j, k, c], ...], "bracket01": [[i, p, q, c], ...],
                 "mu3": [[i, j, k, idx, c], ...]}                 with i < j < k
  skeletal pair {"G": ..., "H": ..., "rho2": {"g0h0": ..., "g0h1": ..., "g1h0": ...},
                 "rho3": [[i, j, a, idx, c], ...], "psi2": ..., "psi3": ...} with i < j
  extension     {"total": matched pair, "base": matched pair,
                 "rep": representation, "split": [m, p, n, q]}
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import InputError, MplaError
from .lie import LieAlgebra, LieRep
from .linalg import Matrix
from .matched import LieBialgebra, MatchedPair
from .scalars import format_rational, parse_rational, vzero

# The readers of representations, cochains, deformations, extensions and
# skeletal structures import their class when called, so that a command
# loads only the modules of the structures it reads.
if TYPE_CHECKING:
    from .cohomology import MPCochain
    from .deform import AbelianExtension, DeformationCandidate
    from .reps import MPRepresentation
    from .skeletal import SkeletalMatchedPair, TwoTermLInfinity


def _fail(message, path=None, field=None):
    raise InputError(message, path=path, field=field)


def require_object(data, path=None, field=None):
    """Return ``data`` if it is a JSON object; raise InputError otherwise.

    ``field`` names the field the caller wants to read from it.
    """
    if not isinstance(data, dict):
        wanted = f" with field {field!r}" if field else ""
        _fail(f"expected a JSON object{wanted}", path, field)
    return data


def _expect(data, field, kind, path, minimum=None):
    """``data[field]``, checked to be of type ``kind`` and, for an int, at
    least ``minimum``."""
    require_object(data, path, field)
    if field not in data:
        _fail(f"missing field {field!r}", path, field)
    value = data[field]
    # a JSON true or false is a Python bool, which is also an int
    if kind is not None and (not isinstance(value, kind)
                             or kind is int and isinstance(value, bool)):
        _fail(f"field {field!r} has the wrong type", path, field)
    if minimum is not None and value < minimum:
        _fail(f"field {field!r} must be at least {minimum}, got {value}", path, field)
    return value


def _sparse_entries(data, field, bounds, path):
    """The list ``data[field]`` read by ``_entries``."""
    return _entries(_expect(data, field, None, path), field, bounds, path)


def _check_index(x, bound, row, field, path):
    """Fail unless the index x of the entry row is a JSON integer in 0..bound-1."""
    if type(x) is not int or not 0 <= x < bound:
        _fail(f"bad entry {row!r}: index {x!r} is not an integer "
              f"in 0..{bound - 1}", path, field)


def _coefficient(value, row, field, path):
    try:
        return parse_rational(value)
    except (MplaError, TypeError, ValueError) as exc:
        _fail(f"bad entry {row!r}: {exc}", path, field)


def _entries(rows, field, bounds, path):
    """(indices, coefficient) pairs of a list of [i_1, ..., i_k, coefficient]
    entries, where each i_t is a JSON integer with 0 <= i_t < bounds[t]."""
    if not isinstance(rows, list):
        _fail(f"field {field!r} must be a list of entries", path, field)
    n_indices = len(bounds)
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n_indices + 1:
            _fail(f"entry {row!r} must be [indices..., coefficient]", path, field)
        idx = tuple(row[:n_indices])
        for x, bound in zip(idx, bounds):
            _check_index(x, bound, row, field, path)
        out.append((idx, _coefficient(row[n_indices], row, field, path)))
    return out


# -- Lie algebras and plain representations ---------------------------------


def lie_algebra_from_json(data, path=None) -> LieAlgebra:
    dim = _expect(data, "dim", int, path, 0)
    entries = _sparse_entries(data, "bracket", (dim, dim, dim), path)
    table = {}
    for (i, j, k), coeff in entries:
        if not i < j:
            _fail(f"bracket entry ({i}, {j}) needs i < j", path, "bracket")
        vec = table.setdefault((i, j), vzero(dim))
        vec[k] = vec[k] + coeff
    try:
        return LieAlgebra.from_brackets(dim, table)
    except MplaError as exc:
        _fail(str(exc), path, "bracket")


def lie_algebra_to_json(g: LieAlgebra) -> dict:
    rows = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k, c in enumerate(g.c[i][j]):
                if c:
                    rows.append([i, j, k, format_rational(c)])
    return {"dim": g.dim, "bracket": rows}


def lie_rep_from_json(data, algebra: LieAlgebra, path=None) -> LieRep:
    space_dim = _expect(data, "space_dim", int, path, 0)
    entries = _sparse_entries(data, "action", (algebra.dim, space_dim, space_dim), path)
    a = [[vzero(space_dim) for _ in range(space_dim)] for _ in range(algebra.dim)]
    for (i, p, q), coeff in entries:
        a[i][p][q] = a[i][p][q] + coeff
    return LieRep(algebra, space_dim, a)


def lie_rep_to_json(r: LieRep) -> dict:
    rows = []
    for i in range(r.algebra.dim):
        for p in range(r.space_dim):
            for q, c in enumerate(r.a[i][p]):
                if c:
                    rows.append([i, p, q, format_rational(c)])
    return {"space_dim": r.space_dim, "action": rows}


# -- matched pairs -----------------------------------------------------------


def matched_pair_from_json(data, path=None) -> MatchedPair:
    g = lie_algebra_from_json(_expect(data, "g", dict, path), path)
    h = lie_algebra_from_json(_expect(data, "h", dict, path), path)
    rho = {}
    for (i, a, b), coeff in (_sparse_entries(data, "rho", (g.dim, h.dim, h.dim), path)
                             if "rho" in data else []):
        vec = rho.setdefault((i, a), vzero(h.dim))
        vec[b] = vec[b] + coeff
    psi = {}
    for (a, i, j), coeff in (_sparse_entries(data, "psi", (h.dim, g.dim, g.dim), path)
                             if "psi" in data else []):
        vec = psi.setdefault((a, i), vzero(g.dim))
        vec[j] = vec[j] + coeff
    try:
        return MatchedPair.from_sparse(g, h, rho, psi)
    except MplaError as exc:
        _fail(str(exc), path, "rho/psi")


def matched_pair_to_json(mp: MatchedPair) -> dict:
    rho_rows = []
    for i in range(mp.dim_g):
        for a in range(mp.dim_h):
            for b, c in enumerate(mp.rho[i][a]):
                if c:
                    rho_rows.append([i, a, b, format_rational(c)])
    psi_rows = []
    for a in range(mp.dim_h):
        for i in range(mp.dim_g):
            for j, c in enumerate(mp.psi[a][i]):
                if c:
                    psi_rows.append([a, i, j, format_rational(c)])
    return {
        "g": lie_algebra_to_json(mp.g),
        "h": lie_algebra_to_json(mp.h),
        "rho": rho_rows,
        "psi": psi_rows,
    }


# -- representations ---------------------------------------------------------


def mp_representation_from_json(data, base: MatchedPair, path=None) -> MPRepresentation:
    from .reps import MPRepresentation

    dims = _expect(data, "dims", list, path)
    if len(dims) != 2 or not all(type(x) is int and x >= 0 for x in dims):
        _fail("dims must be [p, q] with p, q >= 0", path, "dims")
    p, q = dims

    def fetch(field, rows, cols, veclen):
        table = {}
        if field in data:
            for (i, j, k), coeff in _sparse_entries(data, field, (rows, cols, veclen), path):
                vec = table.setdefault((i, j), vzero(veclen))
                vec[k] = vec[k] + coeff
        return table

    m, n = base.dim_g, base.dim_h
    return MPRepresentation.from_sparse(
        base, (p, q),
        rho_v=fetch("rho_V", m, p, p),
        psi_v=fetch("psi_V", n, p, p),
        rho_w=fetch("rho_W", m, q, q),
        psi_w=fetch("psi_W", n, q, q),
        alpha=fetch("alpha", p, n, q),
        beta=fetch("beta", q, m, p),
    )


def mp_representation_to_json(r: MPRepresentation) -> dict:
    def rows(tensor):
        out = []
        for i, row in enumerate(tensor):
            for j, vec in enumerate(row):
                for k, c in enumerate(vec):
                    if c:
                        out.append([i, j, k, format_rational(c)])
        return out

    return {
        "dims": [r.dim_v, r.dim_w],
        "rho_V": rows(r.rho_v),
        "psi_V": rows(r.psi_v),
        "rho_W": rows(r.rho_w),
        "psi_W": rows(r.psi_w),
        "alpha": rows(r.alpha),
        "beta": rows(r.beta),
    }


# -- cochains ----------------------------------------------------------------


def cochain_from_json(data, mp_dims, rep_dims, path=None) -> MPCochain:
    from .bigraded import BidegreeMap
    from .cohomology import MPCochain

    degree = _expect(data, "degree", int, path, 0)
    m, n = mp_dims
    p, q = rep_dims
    if degree == 0:
        vector = _expect(data, "vector", list, path)
        try:
            vec = [parse_rational(x) for x in vector]
        except MplaError as exc:
            _fail(str(exc), path, "vector")
        if len(vec) != p + q:
            _fail("degree-0 vector has the wrong length", path, "vector")
        return MPCochain(0, m, n, p, q, vec=vec)
    F = MPCochain(degree, m, n, p, q)
    for comp in _expect(data, "components", list, path):
        r = _expect(comp, "r", int, path)
        if not 1 <= r <= degree:
            _fail(f"component index {r} out of range", path, "components")
        part = F.component(r)
        # part_V keys have degree - r + 1 g-indices and r - 1 h-indices,
        # part_W keys one g-index fewer and one h-index more
        k = degree - r
        for field, table, codim, sizes in (("part_V", part.part_v, p, (k + 1, r - 1)),
                                           ("part_W", part.part_w, q, (k, r))):
            for row in _expect(comp, field, list, path) if field in comp else []:
                if not isinstance(row, list) or len(row) != 4:
                    _fail(f"entry {row!r} must be [gtuple, htuple, idx, coeff]",
                          path, field)
                gi, hj, idx, coeff = row
                for tup, bound, size in ((gi, m, sizes[0]), (hj, n, sizes[1])):
                    if not isinstance(tup, list) or len(tup) != size:
                        _fail(f"bad entry {row!r}: {tup!r} is not a list of "
                              f"{size} indices", path, field)
                    for x in tup:
                        _check_index(x, bound, row, field, path)
                    if any(a >= b for a, b in zip(tup, tup[1:])):
                        _fail(f"bad entry {row!r}: indices {tup!r} are not "
                              f"strictly increasing", path, field)
                _check_index(idx, codim, row, field, path)
                coeff = _coefficient(coeff, row, field, path)
                vec = table.setdefault((tuple(gi), tuple(hj)), vzero(codim))
                vec[idx] = vec[idx] + coeff
    # renormalize: the constructor drops the vectors whose entries cancelled
    components = [
        BidegreeMap(degree - r, r - 1, m, n, p, q,
                    part_v=F.components[r - 1].part_v,
                    part_w=F.components[r - 1].part_w)
        for r in range(1, degree + 1)
    ]
    return MPCochain(degree, m, n, p, q, components=components)


def cochain_to_json(F: MPCochain) -> dict:
    if F.degree == 0:
        return {"degree": 0, "vector": [format_rational(x) for x in F.vec]}
    components = []
    for r in range(1, F.degree + 1):
        part = F.component(r)
        entry = {"r": r, "part_V": [], "part_W": []}
        for (gi, hj), vec in sorted(part.part_v.items()):
            for idx, c in enumerate(vec):
                if c:
                    entry["part_V"].append([list(gi), list(hj), idx, format_rational(c)])
        for (gi, hj), vec in sorted(part.part_w.items()):
            for idx, c in enumerate(vec):
                if c:
                    entry["part_W"].append([list(gi), list(hj), idx, format_rational(c)])
        components.append(entry)
    return {"degree": F.degree, "components": components}


# -- matrices ------------------------------------------------------------------


def matrix_from_json(data, field, path=None) -> Matrix:
    """The matrix stored in ``data[field]`` as a list of rows."""
    rows = _expect(data, field, list, path)
    if not all(isinstance(r, list) for r in rows):
        _fail(f"{field} must be a list of rows", path, field)
    try:
        return Matrix.from_rows([[parse_rational(x) for x in r] for r in rows])
    except MplaError as exc:
        _fail(f"bad {field}: {exc}", path, field)


# -- deformation candidates ---------------------------------------------------


def deformation_from_json(data, mp: MatchedPair, path=None) -> DeformationCandidate:
    from .deform import DeformationCandidate

    require_object(data, path)
    m, n = mp.dim_g, mp.dim_h

    def fetch(field, rows, cols, veclen, skew):
        table = {}
        if field in data:
            for (i, j, k), coeff in _sparse_entries(data, field, (rows, cols, veclen), path):
                if skew and not i < j:
                    _fail(f"{field} entry ({i}, {j}) needs i < j", path, field)
                vec = table.setdefault((i, j), vzero(veclen))
                vec[k] = vec[k] + coeff
        return table

    return DeformationCandidate.from_sparse(
        m, n,
        mu1=fetch("mu1", m, m, m, True),
        nu1=fetch("nu1", n, n, n, True),
        rho1=fetch("rho1", m, n, n, False),
        psi1=fetch("psi1", n, m, m, False),
    )


def deformation_to_json(d: DeformationCandidate) -> dict:
    def rows(tensor, skew):
        out = []
        for i, row in enumerate(tensor):
            for j, vec in enumerate(row):
                if skew and not i < j:
                    continue
                for k, c in enumerate(vec):
                    if c:
                        out.append([i, j, k, format_rational(c)])
        return out

    return {
        "mu1": rows(d.mu1, True),
        "nu1": rows(d.nu1, True),
        "rho1": rows(d.rho1, False),
        "psi1": rows(d.psi1, False),
    }


# -- bialgebras ----------------------------------------------------------------


def bialgebra_from_json(data, path=None) -> LieBialgebra:
    g = lie_algebra_from_json(_expect(data, "g", dict, path), path)
    cobracket = [dict() for _ in range(g.dim)]
    for (k, i, j), coeff in _sparse_entries(data, "cobracket", (g.dim,) * 3, path):
        if not i < j:
            _fail(f"cobracket entry ({i}, {j}) needs i < j", path, "cobracket")
        cobracket[k][(i, j)] = cobracket[k].get((i, j), 0) + coeff
    try:
        return LieBialgebra(g, cobracket)
    except MplaError as exc:
        _fail(str(exc), path, "cobracket")


def bialgebra_to_json(b: LieBialgebra) -> dict:
    rows = []
    for k, table in enumerate(b.cobracket):
        for (i, j), coeff in sorted(table.items()):
            rows.append([k, i, j, format_rational(coeff)])
    return {"g": lie_algebra_to_json(b.g), "cobracket": rows}


# -- two-term structures -------------------------------------------------------


def two_term_from_json(data, path=None) -> TwoTermLInfinity:
    from .skeletal import TwoTermLInfinity

    dim0 = _expect(data, "dim0", int, path, 0)
    dim1 = _expect(data, "dim1", int, path, 0)
    mu1 = {}
    if "mu1" in data:
        for (p, i), coeff in _sparse_entries(data, "mu1", (dim1, dim0), path):
            vec = mu1.setdefault(p, vzero(dim0))
            vec[i] = vec[i] + coeff
    b00 = {}
    if "bracket00" in data:
        for (i, j, k), coeff in _sparse_entries(data, "bracket00", (dim0,) * 3, path):
            if not i < j:
                _fail(f"bracket00 entry ({i}, {j}) needs i < j", path, "bracket00")
            vec = b00.setdefault((i, j), vzero(dim0))
            vec[k] = vec[k] + coeff
    b01 = {}
    if "bracket01" in data:
        for (i, p, q), coeff in _sparse_entries(data, "bracket01", (dim0, dim1, dim1), path):
            vec = b01.setdefault((i, p), vzero(dim1))
            vec[q] = vec[q] + coeff
    mu3 = {}
    if "mu3" in data:
        for (i, j, k, idx), coeff in _sparse_entries(data, "mu3", (dim0,) * 3 + (dim1,), path):
            if not i < j < k:
                _fail(f"mu3 entry ({i}, {j}, {k}) needs i < j < k", path, "mu3")
            vec = mu3.setdefault((i, j, k), vzero(dim1))
            vec[idx] = vec[idx] + coeff
    try:
        return TwoTermLInfinity.from_sparse(dim0, dim1, mu1, b00, b01, mu3)
    except MplaError as exc:
        _fail(str(exc), path, "two-term data")


def two_term_to_json(t: TwoTermLInfinity) -> dict:
    mu1 = []
    for p, vec in enumerate(t.mu1):
        for i, c in enumerate(vec):
            if c:
                mu1.append([p, i, format_rational(c)])
    b00 = []
    for i in range(t.dim0):
        for j in range(i + 1, t.dim0):
            for k, c in enumerate(t.bracket00[i][j]):
                if c:
                    b00.append([i, j, k, format_rational(c)])
    b01 = []
    for i in range(t.dim0):
        for p in range(t.dim1):
            for q, c in enumerate(t.bracket01[i][p]):
                if c:
                    b01.append([i, p, q, format_rational(c)])
    mu3 = []
    for i in range(t.dim0):
        for j in range(i + 1, t.dim0):
            for k in range(j + 1, t.dim0):
                for idx, c in enumerate(t.mu3[i][j][k]):
                    if c:
                        mu3.append([i, j, k, idx, format_rational(c)])
    return {"dim0": t.dim0, "dim1": t.dim1, "mu1": mu1,
            "bracket00": b00, "bracket01": b01, "mu3": mu3}


# -- skeletal matched pairs ----------------------------------------------------


def skeletal_pair_from_json(data, path=None) -> SkeletalMatchedPair:
    from .skeletal import SkeletalMatchedPair

    G = two_term_from_json(_expect(data, "G", dict, path), path)
    H = two_term_from_json(_expect(data, "H", dict, path), path)
    m, n = G.dim0, H.dim0
    p, q = G.dim1, H.dim1

    def blocks(field, shapes):
        group = _expect(data, field, dict, path) if field in data else {}
        out = []
        for block, shape in shapes.items():
            rows, cols, veclen = shape
            tensor = [[vzero(veclen) for _ in range(cols)] for _ in range(rows)]
            if block in group:
                for (i, j, k), coeff in _entries(group[block], f"{field}.{block}",
                                                 shape, path):
                    tensor[i][j][k] = tensor[i][j][k] + coeff
            out.append(tensor)
        return out

    rho_blocks = blocks("rho2", {"g0h0": (m, n, n), "g0h1": (m, q, q), "g1h0": (p, n, q)})
    psi_blocks = blocks("psi2", {"h0g0": (n, m, m), "h0g1": (n, p, p), "h1g0": (q, m, p)})

    def trilinear(field, d1, d2, cols, veclen):
        tensor = [
            [[vzero(veclen) for _ in range(cols)] for _ in range(d2)]
            for _ in range(d1)
        ]
        if field in data:
            for (i, j, a, idx), coeff in _sparse_entries(data, field,
                                                         (d1, d2, cols, veclen), path):
                if not i < j:
                    _fail(f"{field} entry ({i}, {j}) needs i < j", path, field)
                tensor[i][j][a][idx] = tensor[i][j][a][idx] + coeff
                tensor[j][i][a][idx] = tensor[j][i][a][idx] - coeff
        return tensor

    rho3 = trilinear("rho3", m, m, n, q)
    psi3 = trilinear("psi3", n, n, m, p)
    return SkeletalMatchedPair(
        G, H, rho_blocks[0], rho_blocks[1], rho_blocks[2], rho3,
        psi_blocks[0], psi_blocks[1], psi_blocks[2], psi3,
    )


def skeletal_pair_to_json(s: SkeletalMatchedPair) -> dict:
    def block_rows(tensor):
        out = []
        for i, row in enumerate(tensor):
            for j, vec in enumerate(row):
                for k, c in enumerate(vec):
                    if c:
                        out.append([i, j, k, format_rational(c)])
        return out

    def tri_rows(tensor):
        out = []
        for i, plane in enumerate(tensor):
            for j, row in enumerate(plane):
                if not i < j:
                    continue
                for a, vec in enumerate(row):
                    for idx, c in enumerate(vec):
                        if c:
                            out.append([i, j, a, idx, format_rational(c)])
        return out

    return {
        "G": two_term_to_json(s.G),
        "H": two_term_to_json(s.H),
        "rho2": {"g0h0": block_rows(s.rho2_00), "g0h1": block_rows(s.rho2_01),
                 "g1h0": block_rows(s.rho2_10)},
        "rho3": tri_rows(s.rho3),
        "psi2": {"h0g0": block_rows(s.psi2_00), "h0g1": block_rows(s.psi2_01),
                 "h1g0": block_rows(s.psi2_10)},
        "psi3": tri_rows(s.psi3),
    }


# -- extensions ----------------------------------------------------------------


def extension_from_json(data, path=None) -> AbelianExtension:
    from .deform import AbelianExtension

    total = matched_pair_from_json(_expect(data, "total", dict, path), path)
    base = matched_pair_from_json(_expect(data, "base", dict, path), path)
    split = _expect(data, "split", list, path)
    if len(split) != 4 or not all(type(x) is int and x >= 0 for x in split):
        _fail("split must be [m, p, n, q] with entries >= 0", path, "split")
    rep = mp_representation_from_json(_expect(data, "rep", dict, path), base, path)
    return AbelianExtension(total, base, rep, tuple(split))


def extension_to_json(e: AbelianExtension) -> dict:
    return {
        "total": matched_pair_to_json(e.total),
        "base": matched_pair_to_json(e.base),
        "rep": mp_representation_to_json(e.rep),
        "split": list(e.split),
    }


# -- top-level helpers ---------------------------------------------------------


def load_json(path: str):
    """Read a JSON document from a file path or '-' for standard input."""
    import sys

    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}", path)
    except OSError as exc:
        _fail(f"cannot read file: {exc}", path)


def dump_json(data, path: str | None):
    import sys

    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
