"""The integer stencil: every explicit coboundary matrix, column by column.

In the monomial basis the Chevalley-Eilenberg coboundary of a Lie
algebra g with coefficients in a module M is

    d = d_L (x) 1_M + sum_i e^i ^ (x) rho(e_i)

(Chevalley-Eilenberg, Trans. AMS 63, 1948): exterior combinatorics on
the keys, tensored with the structure constants and the action matrices.
``ce_stencil`` emits its matrix column by column as {row: int} dicts,
key by key (``ce_key_columns``), from integer tables of the bracket and
of the action (``bracket_table``, ``action_table``) scaled by one common
denominator D of the constants.

Every explicit coboundary matrix is built from it.  ``lie.ce_matrix`` is
the stencil itself (``ce_tables``).  The other two are subcomplexes of a
CE complex, read at their CE coordinates by one reader
(``subcomplex_columns``); each is an identity of the formulas, which
holds on any input, valid or not:

  * the bigraded complex with coefficients (V, W) is the part of the CE
    complex of g |x| h on V + W (``reps.induced_bicross_rep``) whose
    V-values take at least one g-slot and whose W-values at least one
    h-slot (g-slots first, C^{k|l} at k + 1 or k g-slots), and delta
    (d >= 1) is the CE differential there (``coeff_columns``, from the
    tables of ``bicross_tables``);
  * the bialgebra complex in degree n is the part of the CE complex of
    the Drinfeld double g |x| g* on the trivial module, in degree n + 1,
    whose keys hold both a g- and a g*-index, and delta_liebi is the CE
    differential there, with no sign (``cohomology.liebi_matrix``).

The chain law ``phi_chain_check`` and the closedness decision
``_is_closed`` read only the columns of a CE stencil of
g |x| h at the stored keys of the tested cochain (``ce_key_columns``).

Callers keep D and the columns as the integer form of a ``linalg.Matrix``.
Tables are built once per structure (and per D) and kept on it: on a
``LieRep`` by ``ce_tables`` (for a bialgebra, on the trivial module of
its double), on an ``MPRepresentation`` by ``bicross_tables``.  The
explicit sums of the paper stay in ``cohomology.delta_mpl_coeff`` and
``cohomology.liebi_coboundary``: they give the witnesses, and the test
suite holds the stencil against them.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from .errors import DimensionMismatch, ShapeMismatch
from .matched import _bicrossed
from .scalars import common_denominator, scaled_int


def bracket_table(c, scale: int = 1):
    """The bracket constants as stencil input: entry k lists (a, b, scale *
    c^k_ab) over a < b with c^k_ab != 0."""
    dim = len(c)
    out = [[] for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            for k, x in enumerate(c[a][b]):
                if x:
                    out[k].append((a, b, scaled_int(x, scale)))
    return out


def action_table(a, scale: int = 1):
    """An action tensor as stencil input: the pairs (i, act) over the
    indices i that act by a nonzero matrix (none on a trivial module),
    act[u] listing (v, scale * c) over the nonzero coordinates c of
    e_i . m_u."""
    return _acting([[[(v, scaled_int(x, scale)) for v, x in enumerate(vec) if x]
                     for vec in row] for row in a])


def _acting(action):
    return [(i, act) for i, act in enumerate(action) if any(act)]


def ce_key_columns(bracket, action, key, target, units) -> list[dict]:
    """The stencil at one n-key: column (key, u) of the coboundary
    Hom(L^n g, M) -> Hom(L^(n+1) g, M) for each u in ``units``, in ints.

    ``bracket`` and ``action`` are the tables of ``bracket_table`` and
    ``action_table``, and ``target`` maps each (n+1)-key to the row of its
    module coordinate 0.  Column (key, u) is one {row: int} dict: for each
    i not in key, the key key + {i} takes e_i . m_u with the sign
    (-1)^(position of i); for each k in key at position pk and each
    (a, b, c) in bracket[k] with a, b not in rest = key - {k}, the key
    rest + {a, b} takes c m_u with the sign (-1)^(pk + pa + pb + 1), pa and
    pb counting the indices of rest below a and below b.  An entry whose
    terms cancel is kept as a zero.
    """
    terms = []
    for i, act in action:
        if i not in key:
            pos = bisect_left(key, i)
            terms.append((target[key[:pos] + (i,) + key[pos:]], pos % 2, act))
    brackets = {}
    for pk, k in enumerate(key):
        rest = key[:pk] + key[pk + 1:]
        for a, b, c in bracket[k]:
            if a not in rest and b not in rest:
                pa, pb = bisect_left(rest, a), bisect_left(rest, b)
                row = target[rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:]]
                brackets[row] = brackets.get(row, 0) + (c if (pk + pa + pb) % 2 else -c)
    brackets = [(row, c) for row, c in brackets.items() if c]
    columns = []
    for u in units:
        # the action terms of distinct i land in distinct keys
        column = {base + v: -c if odd else c
                  for base, odd, act in terms for v, c in act[u]}
        for row, c in brackets:
            row += u
            column[row] = column.get(row, 0) + c
        columns.append(column)
    return columns


def ce_stencil(dim: int, bracket, action, space_dim: int, n: int) -> list[dict]:
    """Columns of the coboundary Hom(L^n g, M) -> Hom(L^(n+1) g, M), in ints:
    ``ce_key_columns`` at each n-key, in ``lie.ce_basis`` order (M of
    dimension ``space_dim``).  Rows are numbered as
    ``lie.ce_basis(dim, space_dim, n + 1)``.
    """
    units = range(space_dim)
    target = {key: t * space_dim for t, key in enumerate(combinations(range(dim), n + 1))}
    columns = []
    for key in combinations(range(dim), n):
        columns += ce_key_columns(bracket, action, key, target, units)
    return columns


def subcomplex_columns(dim: int, bracket, action, space_dim: int, n: int,
                       sources, targets) -> list[dict]:
    """The stencil of these tables in degree n, read at a subcomplex whose
    basis in degrees n and n + 1 is ``sources`` and ``targets``: lists of
    blocks (key, units), each the CE coordinates (key, u) for u in units.

    Column j is the image of the j-th source as a {row: int} dict without
    zeros, row i the i-th target, which must span the image of the sources.
    ``ce_key_columns`` runs once per n-key, with the units of its sources.
    """
    def positions(d, basis):
        """The ``lie.ce_basis`` row of each d-key's unit 0, the basis position
        of each row (None off the subcomplex), and the basis size."""
        start = {key: t * space_dim for t, key in enumerate(combinations(range(dim), d))}
        index = [None] * (len(start) * space_dim)
        j = 0
        for key, units in basis:
            base = start[key]
            for u in units:
                index[base + u] = j
                j += 1
        return start, index, j

    target, rows, _ = positions(n + 1, targets)
    starts, cols, size = positions(n, sources)
    columns = [None] * size
    for key, base in starts.items():
        units = [u for u, j in enumerate(cols[base:base + space_dim]) if j is not None]
        if units:
            for u, column in zip(units, ce_key_columns(bracket, action, key, target, units)):
                columns[cols[base + u]] = {rows[y]: c for y, c in column.items() if c}
    return columns


def drop_zeros(columns) -> list[dict]:
    """The columns without their zero entries."""
    return [column if all(column.values()) else {i: x for i, x in column.items() if x}
            for column in columns]


def ce_tables(r, scale: int | None = None):
    """(bracket, action, scale): the tables of the ``lie.LieRep`` r scaled by
    ``scale``, by default the least common denominator of r's constants;
    built once per scale and kept on r."""
    if r._stencil is None:
        r._stencil = {None: common_denominator(r.algebra.c, r.a)}
    if scale is None:
        scale = r._stencil[None]
    tables = r._stencil.get(scale)
    if tables is None:
        tables = r._stencil[scale] = (bracket_table(r.algebra.c, scale),
                                      action_table(r.a, scale), scale)
    return tables


def bicross_tables(rep):
    """(bracket, action, scale): the tables of g |x| h acting on V + W
    (``reps.induced_bicross_rep``) for an ``MPRepresentation`` rep, scaled
    by the least common denominator of the ten constant tensors of rep and
    its base pair; built once and kept on rep.

    The bracket is read from the table of g |x| h that the pair keeps
    (``matched._bicrossed``).  The action is built here in ints, V first:
    x_i acts by rho_V on V and by -beta + rho_W on W, h_a by psi_V - alpha
    on V and by psi_W on W, listed as ``action_table`` lists an action.
    """
    if rep._stencil is None:
        mp = rep.base
        scale = common_denominator(mp.g.c, mp.h.c, mp.rho, mp.psi, rep.rho_v, rep.psi_v,
                                   rep.rho_w, rep.psi_w, rep.alpha, rep.beta)
        p, q = rep.dims

        def entries(vec, shift=0, sign=1):
            return [(shift + v, sign * scaled_int(x, scale)) for v, x in enumerate(vec) if x]

        action = [[entries(rep.rho_v[i][u]) for u in range(p)]
                  + [entries(rep.beta[w][i], 0, -1) + entries(rep.rho_w[i][w], p)
                     for w in range(q)]
                  for i in range(mp.dim_g)]
        action += [[entries(rep.psi_v[a][u]) + entries(rep.alpha[u][a], p, -1)
                    for u in range(p)]
                   + [entries(rep.psi_w[a][w], p) for w in range(q)]
                   for a in range(mp.dim_h)]
        rep._stencil = (bracket_table(_bicrossed(mp).c, scale), _acting(action), scale)
    return rep._stencil


def coeff_columns(rep, n: int) -> tuple[int, list]:
    """(D, columns): delta_n (n >= 1) with coefficients in rep, as the
    integer columns of D times its matrix in ``cohomology.cochain_basis``
    order.

    The degree-n cochains are the part of Hom(L^n (g + h), V + W) whose
    V-values take a g-slot and whose W-values an h-slot: coordinate
    (r, part, gi, hj, u) is coordinate u (V) or p + u (W) at the key
    gi + hj of g + h, h shifted by dim g.  That part is a subcomplex of the
    CE complex of g |x| h on V + W, whose differential is delta there, so
    delta_n is the stencil of ``bicross_tables`` read at those coordinates.
    """
    from .cohomology import _cochain_blocks

    bracket, action, scale = bicross_tables(rep)
    m, nh = rep.base.dim_g, rep.base.dim_h
    p, q = rep.dims

    def coordinates(d):
        return [(gi + tuple(m + a for a in hj), range(p) if part == "V" else range(p, p + q))
                for _, part, gi, hj in _cochain_blocks((m, nh), d)]

    return scale, subcomplex_columns(m + nh, bracket, action, p + q, n,
                                     coordinates(n), coordinates(n + 1))


def _is_closed(mp, rep, F) -> bool:
    """Whether the ``cohomology.MPCochain`` F is a cocycle of the complex of
    ``cohomology.delta_matrix``, decided in ints on F times the least
    common denominator of its values: the columns of ``coeff_columns`` at
    the stored keys of F (``ce_key_columns`` once per key, in the rows of
    the CE stencil of g |x| h on V + W), each times its coordinate, sum to
    zero.  A cochain over other dimensions raises DimensionMismatch, other
    coefficients or a ``rep`` over another pair ShapeMismatch."""
    from .cohomology import _require_over, _scaled_cochain

    if (F.dim_g, F.dim_h) != (mp.dim_g, mp.dim_h):
        raise DimensionMismatch("cochain does not live over this matched pair")
    if (F.dim_v, F.dim_w) != rep.dims:
        raise ShapeMismatch("cochain coefficients do not match the representation")
    _require_over(mp, rep)
    if F.degree == 0:
        return True
    bracket, action, _ = bicross_tables(rep)
    m, p = mp.dim_g, rep.dim_v
    dim, size = m + mp.dim_h, p + rep.dim_w
    values = {}
    for part in _scaled_cochain(F).components:
        for table, shift in ((part.part_v, 0), (part.part_w, p)):
            for (gi, hj), vec in table.items():
                values.setdefault(gi + tuple(m + a for a in hj), []).extend(
                    (shift + u, x) for u, x in enumerate(vec) if x)
    target = {key: t * size for t, key in enumerate(combinations(range(dim), F.degree + 1))}
    image = {}
    for key, entries in values.items():
        columns = ce_key_columns(bracket, action, key, target, [u for u, _ in entries])
        for (_, x), column in zip(entries, columns):
            for row, c in column.items():
                image[row] = image.get(row, 0) + x * c
    return not any(image.values())
