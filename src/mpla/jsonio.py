"""JSON parsing and serialization for every structure the tool exchanges.

Scalars travel as "p/q" strings or bare integers.  Every dense tensor
field is a list of sparse rows [indices..., coefficient], read by
``_tensor`` and written by ``_rows``, the one place that knows this row
format.  Entries with the same indices add up.  A skew field lists only
the entries whose first two (three) indices increase and stands for its
skew-symmetric completion:

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
  deformation   {"mu1": ..., "nu1": ..., "rho1": ..., "psi1": ...}  mu1, nu1 with i < j
  bialgebra     {"g": ..., "cobracket": [[k, i, j, c], ...]}      with i < j
  two-term      {"dim0": a, "dim1": b, "mu1": [[p, i, c], ...],
                 "bracket00": [[i, j, k, c], ...], "bracket01": [[i, p, q, c], ...],
                 "mu3": [[i, j, k, idx, c], ...]}  bracket00 with i < j, mu3 with i < j < k
  skeletal pair {"G": ..., "H": ..., "rho2": {"g0h0": ..., "g0h1": ..., "g1h0": ...},
                 "rho3": [[i, j, a, idx, c], ...], "psi2": ..., "psi3": ...} with i < j
  extension     {"total": matched pair, "base": matched pair,
                 "rep": representation, "split": [m, p, n, q]}

The cobracket (one dict per basis vector) and cochains (keyed by index
tuples) are not dense tensors and keep readers of their own.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import InputError, MplaError
from .lie import SIGNED, LieAlgebra, LieRep
from .linalg import Matrix
from .matched import LieBialgebra, MatchedPair
from .scalars import format_rational, parse_rational, vzero, zero_tensor

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


def _tensor(data, field, shape, path, skew=0, required=False):
    """The dense tensor of ``shape`` whose entries ``data[field]`` lists.

    Int zeros, plus each entry at its indices; the first ``skew`` indices
    of an entry must increase strictly, and the entry is added at every
    permutation of them with its sign.  An absent field is zero unless
    ``required``.
    """
    entries = (_sparse_entries(data, field, shape, path)
               if required or field in data else [])
    for idx, _ in entries:
        if any(a >= b for a, b in zip(idx[:skew], idx[1:skew])):
            _fail(f"{field} entry ({', '.join(map(str, idx[:skew]))}) needs "
                  f"{' < '.join('ijk'[:skew])}", path, field)
    tensor = zero_tensor(shape)
    for idx, coeff in entries:
        for perm, sign in SIGNED[skew]:
            *head, last = [idx[t] for t in perm] + list(idx[skew:])
            cell = tensor
            for i in head:
                cell = cell[i]
            cell[last] = cell[last] + sign * coeff
    return tensor


def _rows(tensor, skew=0, head=()):
    """The sparse rows of a dense tensor: its nonzero entries in index order,
    the first ``skew`` indices increasing."""
    rows = []
    for i in range(head[-1] + 1 if 0 < len(head) < skew else 0, len(tensor)):
        x = tensor[i]
        if isinstance(x, list):
            rows += _rows(x, skew, head + (i,))
        elif x:
            rows.append([*head, i, format_rational(x)])
    return rows


# -- Lie algebras and plain representations ---------------------------------


def lie_algebra_from_json(data, path=None) -> LieAlgebra:
    dim = _expect(data, "dim", int, path, 0)
    return LieAlgebra(dim, _tensor(data, "bracket", (dim,) * 3, path, 2, required=True))


def lie_algebra_to_json(g: LieAlgebra) -> dict:
    return {"dim": g.dim, "bracket": _rows(g.c, 2)}


def lie_rep_from_json(data, algebra: LieAlgebra, path=None) -> LieRep:
    space_dim = _expect(data, "space_dim", int, path, 0)
    return LieRep(algebra, space_dim, _tensor(
        data, "action", (algebra.dim, space_dim, space_dim), path, required=True))


def lie_rep_to_json(r: LieRep) -> dict:
    return {"space_dim": r.space_dim, "action": _rows(r.a)}


# -- matched pairs -----------------------------------------------------------


def matched_pair_from_json(data, path=None) -> MatchedPair:
    g = lie_algebra_from_json(_expect(data, "g", dict, path), path)
    h = lie_algebra_from_json(_expect(data, "h", dict, path), path)
    m, n = g.dim, h.dim
    return MatchedPair(g, h, _tensor(data, "rho", (m, n, n), path),
                       _tensor(data, "psi", (n, m, m), path))


def matched_pair_to_json(mp: MatchedPair) -> dict:
    return {
        "g": lie_algebra_to_json(mp.g),
        "h": lie_algebra_to_json(mp.h),
        "rho": _rows(mp.rho),
        "psi": _rows(mp.psi),
    }


# -- representations ---------------------------------------------------------


def mp_representation_from_json(data, base: MatchedPair, path=None) -> MPRepresentation:
    from .reps import MPRepresentation

    dims = _expect(data, "dims", list, path)
    if len(dims) != 2 or not all(type(x) is int and x >= 0 for x in dims):
        _fail("dims must be [p, q] with p, q >= 0", path, "dims")
    p, q = dims
    m, n = base.dim_g, base.dim_h
    return MPRepresentation(base, p, q, *(
        _tensor(data, field, shape, path) for field, shape in (
            ("rho_V", (m, p, p)), ("psi_V", (n, p, p)), ("rho_W", (m, q, q)),
            ("psi_W", (n, q, q)), ("alpha", (p, n, q)), ("beta", (q, m, p)))))


def mp_representation_to_json(r: MPRepresentation) -> dict:
    return {"dims": [r.dim_v, r.dim_w], "rho_V": _rows(r.rho_v), "psi_V": _rows(r.psi_v),
            "rho_W": _rows(r.rho_w), "psi_W": _rows(r.psi_w), "alpha": _rows(r.alpha),
            "beta": _rows(r.beta)}


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
    return DeformationCandidate(
        m, n,
        _tensor(data, "mu1", (m, m, m), path, 2),
        _tensor(data, "nu1", (n, n, n), path, 2),
        _tensor(data, "rho1", (m, n, n), path),
        _tensor(data, "psi1", (n, m, m), path),
    )


def deformation_to_json(d: DeformationCandidate) -> dict:
    return {"mu1": _rows(d.mu1, 2), "nu1": _rows(d.nu1, 2), "rho1": _rows(d.rho1),
            "psi1": _rows(d.psi1)}


# -- bialgebras ----------------------------------------------------------------


def bialgebra_from_json(data, path=None) -> LieBialgebra:
    g = lie_algebra_from_json(_expect(data, "g", dict, path), path)
    cobracket = [dict() for _ in range(g.dim)]
    for (k, i, j), coeff in _sparse_entries(data, "cobracket", (g.dim,) * 3, path):
        if not i < j:
            _fail(f"cobracket entry ({i}, {j}) needs i < j", path, "cobracket")
        cobracket[k][(i, j)] = cobracket[k].get((i, j), 0) + coeff
    return LieBialgebra(g, cobracket)


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
    return TwoTermLInfinity(
        dim0, dim1,
        _tensor(data, "mu1", (dim1, dim0), path),
        _tensor(data, "bracket00", (dim0,) * 3, path, 2),
        _tensor(data, "bracket01", (dim0, dim1, dim1), path),
        _tensor(data, "mu3", (dim0,) * 3 + (dim1,), path, 3),
    )


def two_term_to_json(t: TwoTermLInfinity) -> dict:
    return {"dim0": t.dim0, "dim1": t.dim1, "mu1": _rows(t.mu1),
            "bracket00": _rows(t.bracket00, 2), "bracket01": _rows(t.bracket01),
            "mu3": _rows(t.mu3, 3)}


# -- skeletal matched pairs ----------------------------------------------------


def skeletal_pair_from_json(data, path=None) -> SkeletalMatchedPair:
    from .skeletal import SkeletalMatchedPair

    G = two_term_from_json(_expect(data, "G", dict, path), path)
    H = two_term_from_json(_expect(data, "H", dict, path), path)
    m, n = G.dim0, H.dim0
    p, q = G.dim1, H.dim1

    def blocks(field, shapes):
        # the blocks of the group data[field], as fields named "field.block"
        group = _expect(data, field, dict, path) if field in data else {}
        named = {f"{field}.{block}": rows for block, rows in group.items()}
        return [_tensor(named, f"{field}.{block}", shape, path) for block, shape in shapes]

    rho2 = blocks("rho2", (("g0h0", (m, n, n)), ("g0h1", (m, q, q)), ("g1h0", (p, n, q))))
    psi2 = blocks("psi2", (("h0g0", (n, m, m)), ("h0g1", (n, p, p)), ("h1g0", (q, m, p))))
    rho3 = _tensor(data, "rho3", (m, m, n, q), path, 2)
    psi3 = _tensor(data, "psi3", (n, n, m, p), path, 2)
    return SkeletalMatchedPair(G, H, *rho2, rho3, *psi2, psi3)


def skeletal_pair_to_json(s: SkeletalMatchedPair) -> dict:
    return {
        "G": two_term_to_json(s.G),
        "H": two_term_to_json(s.H),
        "rho2": {"g0h0": _rows(s.rho2_00), "g0h1": _rows(s.rho2_01),
                 "g1h0": _rows(s.rho2_10)},
        "rho3": _rows(s.rho3, 2),
        "psi2": {"h0g0": _rows(s.psi2_00), "h0g1": _rows(s.psi2_01),
                 "h1g0": _rows(s.psi2_10)},
        "psi3": _rows(s.psi3, 2),
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
    m, p, n, q = split
    if (m, p, n, q) != (base.dim_g, rep.dim_v, base.dim_h, rep.dim_w):
        _fail("split must be [m, p, n, q] of the base pair and the representation",
              path, "split")
    if (total.dim_g, total.dim_h) != (m + p, n + q):
        _fail("split must add up to the dimensions of the total pair", path, "split")
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
    """Write data as indented JSON with sorted keys (``write_text``)."""
    write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", path)


def write_text(text: str, path: str | None):
    """Write text to the file at path, or to standard output for None or '-'."""
    import sys

    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
