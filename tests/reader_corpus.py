"""A seeded corpus of mutated JSON documents for every reader of ``mpla.jsonio``.

Each case takes one fixture of one format and applies one to three seeded
mutations: a dropped field, a value of the wrong type, an index out of
range or out of order, a bad scalar, a row that is too short or too long,
a duplicated row or a shifted dimension.  Its outcome is either the error
the reader raises, as (exception type, message, path, field), or digests
of the JSON the writer makes of the parsed object and of the object's
stored tensors (their reprs, so that ``0`` and ``Fraction(0, 1)`` differ).

``tests/data/goldens/reader_corpus.json`` holds the outcome of every case;
``tests/test_reader_corpus.py`` replays them.  To rewrite the file after a
change of outcome that is meant:

    PYTHONPATH=src python tests/reader_corpus.py
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from mpla import jsonio
from mpla.catalog import (aff1, bialgebra_aff1, heisenberg3, mp_action_pair, mp_double,
                          mp_semidirect_double, sl2)
from mpla.cohomology import MPCochain, cochain_from_coords, cochain_space_dim, delta_matrix
from mpla.deform import cocycle_to_extension
from mpla.linalg import kernel_basis
from mpla.reps import adjoint_representation
from mpla.scalars import format_rational
from mpla.skeletal import SkeletalTriple, triple_to_skeletal

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "goldens" / "reader_corpus.json"
SEED = 20240613
CASES_PER_FIXTURE = 80
PATH = "case.json"

# replacement values: small, so that no mutated dimension allocates much
ODD_VALUES = [None, True, False, 1.5, "x", "", "1/0", -1, 0, 1, 2, 3, 5, [], {}, [0], [[0]]]
ODD_INDICES = [-1, 0, 1, 2, 3, 4, 7, True, 1.0, "0", None, [0]]
ODD_SCALARS = ["1/0", "0/0", 1.5, "a", True, None, "3/4", "-2", 0, "0", "2/4", " 5 ", [1],
               "1/-2", "x/2"]


def _load(name):
    return json.loads((DATA / name).read_text())


def abelian_extension():
    """The abelian extension of a nonzero degree-2 cocycle of the action pair."""
    mp = mp_action_pair()
    rep = adjoint_representation(mp)
    coords = kernel_basis(delta_matrix(mp, rep, 2))[-1]
    F = cochain_from_coords((mp.dim_g, mp.dim_h), rep.dims, 2, coords)
    return cocycle_to_extension(mp, rep, F)


def _cochains():
    mp_dims, rep_dims = (2, 2), (2, 2)
    rng = random.Random(81)
    out = []
    for degree in range(4):
        size = cochain_space_dim(mp_dims, rep_dims, degree)
        coords = [rng.choice((0, 0, 0, 1, -1, Fraction(1, 2))) for _ in range(size)]
        F = cochain_from_coords(mp_dims, rep_dims, degree, coords)
        out.append((f"degree-{degree}", jsonio.cochain_to_json(F)))
    return out


def formats():
    """{format: (reader, writer, [(fixture name, document), ...])}."""
    sl2_alg, double = sl2(), mp_double()
    witness_base = jsonio.matched_pair_from_json(_load("witness_rep_base.json"))
    semidirect = mp_semidirect_double()
    skeletal = _load("witness_skeletal.json")
    zero_triple = SkeletalTriple(double, adjoint_representation(double),
                                 MPCochain(3, 2, 2, 2, 2))

    def matrix_to_json(m):
        return [[format_rational(x) for x in row] for row in m.entries]

    return {
        "lie": (jsonio.lie_algebra_from_json, jsonio.lie_algebra_to_json, [
            ("sl2", jsonio.lie_algebra_to_json(sl2_alg)),
            ("heisenberg3", jsonio.lie_algebra_to_json(heisenberg3())),
            ("aff1", jsonio.lie_algebra_to_json(aff1())),
        ]),
        "rep": (lambda doc, path: jsonio.lie_rep_from_json(doc, sl2_alg, path),
                jsonio.lie_rep_to_json, [
                    ("sl2-adjoint", jsonio.lie_rep_to_json(sl2_alg.adjoint())),
                ]),
        "matched-pair": (jsonio.matched_pair_from_json, jsonio.matched_pair_to_json, [
            ("double", jsonio.matched_pair_to_json(double)),
            ("action-pair", jsonio.matched_pair_to_json(mp_action_pair())),
            ("witness", _load("witness_pair.json")),
        ]),
        "mp-rep": (None, jsonio.mp_representation_to_json, [
            ("double-adjoint", (double, jsonio.mp_representation_to_json(
                adjoint_representation(double)))),
            ("witness", (witness_base, _load("witness_rep.json"))),
        ]),
        "cochain": (lambda doc, path: jsonio.cochain_from_json(doc, (2, 2), (2, 2), path),
                    jsonio.cochain_to_json, _cochains()),
        "deformation": (None, jsonio.deformation_to_json, [
            ("open", (semidirect, _load("deform_open.json"))),
            ("double", (double, {"mu1": [[0, 1, 1, "1/2"]], "nu1": [[0, 1, 0, -1]],
                                 "rho1": [[1, 0, 1, 2]], "psi1": [[0, 1, 0, 1]]})),
        ]),
        "bialgebra": (jsonio.bialgebra_from_json, jsonio.bialgebra_to_json, [
            ("aff1", jsonio.bialgebra_to_json(bialgebra_aff1())),
        ]),
        "two-term": (jsonio.two_term_from_json, jsonio.two_term_to_json, [
            ("witness-G", skeletal["G"]),
            ("witness-H", skeletal["H"]),
        ]),
        "skeletal": (jsonio.skeletal_pair_from_json, jsonio.skeletal_pair_to_json, [
            ("witness", skeletal),
            ("double-zero", jsonio.skeletal_pair_to_json(triple_to_skeletal(zero_triple))),
        ]),
        "extension": (jsonio.extension_from_json, jsonio.extension_to_json, [
            ("action-pair", jsonio.extension_to_json(abelian_extension())),
        ]),
        "matrix": (lambda doc, path: jsonio.matrix_from_json(doc, "f", path), matrix_to_json, [
            ("f", {"f": [[1, "1/2"], [0, -1]]}),
        ]),
    }


# -- mutations -------------------------------------------------------------------


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for key in list(doc):
            yield from _nodes(doc[key], path + (key,))
    elif isinstance(doc, list):
        for i, x in enumerate(doc):
            yield from _nodes(x, path + (i,))


def _is_row(x):
    """A sparse entry: [indices..., coefficient], indices ints or int lists."""
    return (isinstance(x, list) and len(x) >= 2
            and all(isinstance(i, (int, list)) for i in x[:-1]))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(rng: random.Random, doc):
    """One seeded mutation of ``doc`` in place; returns the new root."""
    nodes = list(_nodes(doc))
    rows = [(path, x) for path, x in nodes if path and _is_row(x)
            and isinstance(_get(doc, path[:-1]), list)]
    kind = rng.choice(("drop", "retype", "index", "swap", "scalar", "length",
                       "duplicate", "dimension"))
    if kind in ("index", "swap", "scalar", "length", "duplicate") and not rows:
        kind = "retype"
    if kind == "drop":
        dicts = [x for _, x in nodes if isinstance(x, dict) and x]
        if dicts:
            target = rng.choice(dicts)
            del target[rng.choice(sorted(target))]
            return doc
        kind = "retype"
    if kind == "retype":
        path, _ = rng.choice(nodes)
        value = copy.deepcopy(rng.choice(ODD_VALUES))
        if not path:
            return value
        _get(doc, path[:-1])[path[-1]] = value
    elif kind == "index":
        _, row = rng.choice(rows)
        pos = rng.randrange(len(row) - 1)
        if isinstance(row[pos], list) and row[pos] and rng.random() < 0.7:
            row[pos][rng.randrange(len(row[pos]))] = copy.deepcopy(rng.choice(ODD_INDICES))
        else:
            row[pos] = copy.deepcopy(rng.choice(ODD_INDICES))
    elif kind == "swap":
        _, row = rng.choice(rows)
        # most often the first two indices: the skew fields need them increasing
        a, b = (0, 1) if rng.random() < 0.5 else sorted(rng.sample(range(len(row)), 2))
        row[a], row[b] = row[b], row[a]
    elif kind == "scalar":
        _, row = rng.choice(rows)
        row[-1] = copy.deepcopy(rng.choice(ODD_SCALARS))
    elif kind == "length":
        _, row = rng.choice(rows)
        if rng.random() < 0.5:
            row.pop(rng.randrange(len(row)))
        else:
            row.insert(rng.randrange(len(row) + 1), rng.choice((0, 1, "1")))
    elif kind == "duplicate":
        path, row = rng.choice(rows)
        twin = copy.deepcopy(row)
        if rng.random() < 0.5:
            twin[-1] = rng.choice((1, -1, "1/2", "-1/3", 0))
        _get(doc, path[:-1]).append(twin)
    else:  # dimension: shift a count that is not inside an entry
        counts = [(path, x) for path, x in nodes if path and type(x) is int
                  and not any(_is_row(_get(doc, path[:k])) for k in range(len(path)))]
        if not counts:
            return mutate(rng, doc)
        path, x = rng.choice(counts)
        _get(doc, path[:-1])[path[-1]] = max(-1, min(5, x + rng.choice((-2, -1, 1, 2))))
    return doc


def cases():
    """Every case as (key, reader, writer, document), in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for fmt, (reader, writer, fixtures) in formats().items():
        for name, fixture in fixtures:
            if reader is None:  # readers that take the matched pair as well
                base, fixture = fixture
                read = _base_reader(fmt, base)
            else:
                read = reader
            for i in range(CASES_PER_FIXTURE):
                doc = copy.deepcopy(fixture)
                for _ in range(0 if i == 0 else rng.choice((1, 1, 1, 2, 3))):
                    doc = mutate(rng, doc)
                out.append((f"{fmt}/{name}/{i}", read, writer, doc))
    return out


def _base_reader(fmt, base):
    if fmt == "mp-rep":
        return lambda doc, path: jsonio.mp_representation_from_json(doc, base, path)
    return lambda doc, path: jsonio.deformation_from_json(doc, base, path)


# -- outcomes --------------------------------------------------------------------


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _state(x):
    """A repr of every public stored value of x, nested objects included."""
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(_state, x)) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k!r}: {_state(v)}" for k, v in x.items()) + "}"
    if type(x).__module__.startswith("mpla."):
        names = []
        for cls in type(x).__mro__:
            slots = cls.__dict__.get("__slots__", ())
            names += [slots] if isinstance(slots, str) else list(slots)
        names += list(getattr(x, "__dict__", {}))
        fields = [f"{n}={_state(getattr(x, n))}" for n in names
                  if not n.startswith("_") and hasattr(x, n)]
        return f"{type(x).__name__}({', '.join(fields)})"
    return repr(x)


def document_digest(doc):
    return _digest(json.dumps(doc, sort_keys=True))


def outcome(read, write, doc):
    """The error read(doc) raises, or digests of what it reads."""
    try:
        obj = read(doc, PATH)
        written = json.dumps(write(obj), sort_keys=True)
    except Exception as exc:  # every outcome is recorded, whatever its type
        return {"error": [type(exc).__name__, str(exc), getattr(exc, "path", None),
                          getattr(exc, "field", None)]}
    return {"json": _digest(written), "state": _digest(_state(obj))}


def run():
    return {key: {"doc": document_digest(doc), **outcome(read, write, doc)}
            for key, read, write, doc in cases()}


if __name__ == "__main__":
    outcomes = run()
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(outcomes[key], sort_keys=True)}"
        for key in sorted(outcomes)) + "\n}\n")
