"""The coboundary -[pi, .] of a matched pair on adjoint coefficients, in ints.

pi = (mu x rho) + (psi x nu) is the pair's structure element, an arity-2
map on g + h, and delta = -[pi, .] in the graded algebra of skew maps
(``cohomology``).  ``minus_bracket`` is the integer insertion kernel: it
gives -[pi, e] for a basis map e from tables of pi (``InsertionTables``),
indexed by output index for i_pi e and by input index for i_e pi, with
every value scaled by the least common denominator D of pi's values.  It
walks keys with ``multimap.meetings``, as the ring-generic insertion does.
The tables are built once and kept on the pair (``pi_tables``).

Two users, both reached from ``cohomology``, which imports this module
where it needs it (this module reads the cochain bases of ``cohomology``):

  * ``bracket_columns`` is delta_d as the integer columns of
    ``cohomology.delta_matrix(route="adjoint")``; it reads nothing of the
    stencil, so the two routes of ``delta_matrix`` stay independent;
  * ``phi_holds`` decides the chain law phi(delta F) = delta_CE(phi F) of
    ``cohomology.phi_chain_check`` on an int-valued cochain: the left side
    from the kernel, the right side from the CE stencil of g |x| h
    (``stencil.ce_key_columns``), both at the stored keys of F.

Rows and columns on g + h are those of ``lie.ce_basis``: the t-th key of
an arity starts at row t times dim g + h.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .cohomology import _structure_maps, cochain_basis
from .errors import ShapeMismatch
from .multimap import meetings
from .scalars import common_denominator, scaled_int
from .stencil import ce_key_columns, ce_tables


class InsertionTables:
    """Integer tables of an arity-2 map pi on one space, given as the sum of
    ``maps`` (whose values are ints and Fractions), for ``minus_bracket``.

    Every value is scaled by the least common denominator ``scale`` of the
    values of the maps.  ``by_output[k]`` lists (key, scale * pi(key)_k)
    over the keys of pi with a nonzero k-th coordinate; ``by_input[v]``
    lists (key, [(o, scale * pi(key)_o), ...]) over the keys of pi that
    hold v, with the nonzero coordinates of pi(key).
    """

    __slots__ = ("scale", "by_output", "by_input")

    def __init__(self, maps):
        self.scale = scale = common_denominator([vec for f in maps for vec in f.coeffs.values()])
        values = {}
        for f in maps:
            for key, vec in f.coeffs.items():
                acc = values.setdefault(key, [0] * f.codim)
                for o, x in enumerate(vec):
                    if x:
                        acc[o] += scaled_int(x, scale)
        self.by_output, self.by_input = {}, {}
        for key, vec in values.items():
            entries = [(o, c) for o, c in enumerate(vec) if c]
            for o, c in entries:
                self.by_output.setdefault(o, []).append((key, c))
            if entries:
                for v in key:
                    self.by_input.setdefault(v, []).append((key, entries))


def minus_bracket(tables: InsertionTables, key, units, target) -> list[dict]:
    """-[pi, e] times D = tables.scale for e = e_{key,v}, v in ``units``,
    e_{key,v} being the map of arity d = len(key) that sends the increasing
    key to the v-th basis vector and every other increasing key to 0.

    One {row: int} dict per v, the value at an output key and index o in
    row target[output key] + o; an entry whose terms cancel is kept as a
    zero.  [pi, e] = i_pi e - (-1)^(d-1) i_e pi (``multimap.nr_bracket``):
    i_pi e walks e's key against the keys of pi by output index, once for
    all v; i_e pi walks each key of pi that holds v against e's key,
    indexed by its output index v (``multimap.meetings`` in both).
    """
    inserted = [(target[out_key], sign * c)
                for sign, out_key, c in meetings(key, tables.by_output)]
    even = not len(key) % 2
    columns = []
    for v in units:
        column = {}
        for base, c in inserted:
            row = base + v
            column[row] = column.get(row, 0) - c
        unit = {v: ((key, 1),)}
        for pi_key, entries in tables.by_input.get(v, ()):
            for sign, out_key, _ in meetings(pi_key, unit):
                base = target[out_key]
                if even:
                    sign = -sign
                for o, c in entries:
                    row = base + o
                    column[row] = column.get(row, 0) + sign * c
        columns.append(column)
    return columns


def pi_tables(mp):
    """The tables of pi = (mu x rho) + (psi x nu), built once and kept on the
    pair; None when a constant of the pair is not an int or a Fraction."""
    if mp._insertion is None:
        maps = _structure_maps(mp)
        rational = all(type(x) is int or type(x) is Fraction
                       for f in maps for vec in f.coeffs.values() for x in vec)
        mp._insertion = InsertionTables(maps) if rational else False
    return mp._insertion or None


def _mixed_key(gi, hj, m: int):
    """The key (gi, hj) of a bidegree map as a key on g + h."""
    return gi + tuple(m + a for a in hj)


def _starts(dim: int, n: int) -> dict:
    """The row of lie.ce_basis(dim, dim, n) at which each n-key starts; the
    stencil numbers its own rows, as the adjoint route reads nothing of it."""
    return {key: t * dim for t, key in enumerate(combinations(range(dim), n))}


def bracket_columns(mp, degree: int) -> tuple[int, list]:
    """(D, columns): delta_degree >= 1 on adjoint coefficients as -[pi, .],
    the integer columns of D times its matrix.  Column j is -[pi, e] for the
    basis map e of key j of ``cohomology.cochain_basis``, in the rows of
    ``cochain_basis`` of degree + 1; a nonzero value off the diagonal
    components raises ShapeMismatch, as ``cohomology.delta_mpl_adjoint``
    does."""
    tables = pi_tables(mp)
    if tables is None:
        raise TypeError("the adjoint route needs int or Fraction constants")
    m, n = dims = (mp.dim_g, mp.dim_h)
    dim = m + n
    target = _starts(dim, degree + 1)
    # the row of cochain_basis at each row of lie.ce_basis on g + h; None
    # where the value lies off the diagonal components
    rows = [None] * (len(target) * dim)
    for row, (_, part, gi, hj, idx) in enumerate(cochain_basis(dims, dims, degree + 1)):
        rows[target[_mixed_key(gi, hj, m)] + (idx if part == "V" else m + idx)] = row
    columns, off = [], set()
    for _, part, gi, hj, idx in cochain_basis(dims, dims, degree):
        if idx:
            continue
        # the columns of every coordinate of the key, in cochain_basis order
        units = range(m) if part == "V" else range(m, dim)
        for image in minus_bracket(tables, _mixed_key(gi, hj, m), units, target):
            column = {}
            for y, c in image.items():
                if c:
                    if rows[y] is None:
                        off.add((degree + 1, -1) if y % dim >= m else (-1, degree + 1))
                    column[rows[y]] = c
            columns.append(column)
    if off:
        raise ShapeMismatch(f"bracket left the diagonal components: {sorted(off)}")
    return tables.scale, columns


def phi_holds(mp, big_adjoint, F) -> bool:
    """Whether phi(delta F) = delta_CE(phi F) for a cochain F of degree >= 1
    with int values, big_adjoint being the adjoint representation of the
    combined product of mp; False when mp holds a constant that is not an
    int or a Fraction.

    Both sides are summed over the stored keys (gi, hj) of F, as the key
    K = phi(gi, hj) on g + h and each nonzero coordinate v of its vector:
    phi(delta e_{K,v}) is -[pi, e_{K,v}] (``minus_bracket``), and
    delta_CE(e_{K,v}) is column (K, v) of the CE stencil of big_adjoint.
    """
    tables = pi_tables(mp)
    if tables is None:
        return False
    m = mp.dim_g
    dim = m + mp.dim_h
    # the constants of g |x| h are those of pi, up to sign
    bracket, action, _ = ce_tables(big_adjoint, tables.scale)
    target = _starts(dim, F.degree + 1)
    diff = {}
    for part in F.components:
        for table, shift in ((part.part_v, 0), (part.part_w, m)):
            for (gi, hj), vec in table.items():
                key = _mixed_key(gi, hj, m)
                units = [shift + u for u, x in enumerate(vec) if x]
                for v, lhs, rhs in zip(units, minus_bracket(tables, key, units, target),
                                       ce_key_columns(bracket, action, key, target, units)):
                    x = vec[v - shift]
                    for row, c in lhs.items():
                        diff[row] = diff.get(row, 0) + x * c
                    for row, c in rhs.items():
                        diff[row] = diff.get(row, 0) - x * c
    return not any(diff.values())
