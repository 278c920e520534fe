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

Every explicit coboundary matrix is built from it:

  * ``lie.ce_matrix`` is the stencil itself (``ce_tables``);
  * on C^{k|l} the V-part of delta^{mu x rho} is the stencil of g in
    degree k + 1 with coefficients in L^l h* (x) V, on which g acts by
    rho_V (x) 1 plus the rho-derivation on the h-slots; the W-part is the
    stencil of g in degree k with coefficients in L^(l+1) h* (x) W, and an
    alpha block runs from the V-part to the W-part (``MuRhoTables``).
    Module coordinates are ordered (h-key, index), so each block's keys
    are those of ``cohomology.cochain_basis`` and the block lands at an
    offset (``block_starts``).  delta^{psi x nu} is the same on
    ``rep.flipped()``, conjugated by the signed flip permutation
    (``flip_map``); ``coeff_columns`` adds the two;
  * ``cohomology.liebi_matrix`` is the stencil of g with coefficients in
    L^q g plus that of the dual algebra with coefficients in L^p g*,
    re-indexed by the transposition.

The chain law ``cohomology.phi_chain_check`` reads only the columns of
the CE stencil of g |x| h at the stored keys of the tested cochain
(``ce_key_columns``).

Callers keep D and the columns as the integer form of a ``linalg.Matrix``.
Tables are built once per structure (and per D) and kept on it: on a
``LieRep`` by ``ce_tables``, on an ``MPRepresentation`` by
``mu_rho_tables``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import comb

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
    """An action tensor as stencil input: entry [i][u] lists (v, scale * c)
    over the nonzero coordinates c of e_i . m_u."""
    return [[[(v, scaled_int(x, scale)) for v, x in enumerate(vec) if x] for vec in row]
            for row in a]


def ce_key_columns(dim: int, bracket, action, key, target, units) -> list[dict]:
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
    acts = []
    for i in range(dim):
        if i not in key:
            pos = bisect_left(key, i)
            acts.append((target[key[:pos] + (i,) + key[pos:]], pos % 2, action[i]))
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
                  for base, odd, act in acts for v, c in act[u]}
        for row, c in brackets:
            row += u
            column[row] = column.get(row, 0) + c
        columns.append(column)
    return columns


def ce_stencil(dim: int, bracket, action, space_dim: int, n: int,
               row_offset: int = 0) -> list[dict]:
    """Columns of the coboundary Hom(L^n g, M) -> Hom(L^(n+1) g, M), in ints:
    ``ce_key_columns`` at each n-key, in ``lie.ce_basis`` order (M of
    dimension ``space_dim``).  Rows are numbered as
    ``lie.ce_basis(dim, space_dim, n + 1)``, plus ``row_offset``.
    """
    units = range(space_dim)
    target = {key: row_offset + t * space_dim
              for t, key in enumerate(combinations(range(dim), n + 1))}
    columns = []
    for key in combinations(range(dim), n):
        columns += ce_key_columns(dim, bracket, action, key, target, units)
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


class MuRhoTables:
    """The integer tables of delta^{mu x rho} over a pair and a representation,
    every constant scaled by one common denominator.

    On C^{k|l} the V-part of delta^{mu x rho} is the Chevalley-Eilenberg
    stencil of g (``ce_stencil``) in degree k + 1 with coefficients in
    M = L^l h* (x) V: g acts on M by rho_V (x) 1 plus the rho-derivation
    on the h-slots (``module``).  The W-part is the same stencil in degree
    k with M = L^(l+1) h* (x) W, and the alpha-term maps the V-part into
    the W-part (``alpha_table``).  Module coordinates are ordered (h-key,
    index), so each block's keys are those of ``cohomology.cochain_basis``.
    Module tables are built on first use and kept.
    """

    def __init__(self, mp, rep, scale: int):
        m, nh = mp.dim_g, mp.dim_h
        self.dims, self.rep_dims, self.scale = (m, nh), rep.dims, scale
        self.bracket = bracket_table(mp.g.c, scale)
        # rho_i(h_a) = sum of c h_b, by (i, b)
        self.rho_by_input = [[[] for _ in range(nh)] for _ in range(m)]
        for i in range(m):
            for a in range(nh):
                for b, c in enumerate(mp.rho[i][a]):
                    if c:
                        self.rho_by_input[i][b].append((a, scaled_int(c, scale)))
        self.acts = (rep.rho_v, rep.rho_w)
        self.alpha = rep.alpha
        self._tables = {}

    def module(self, part: int, l: int):
        """The action table of g on L^l h* (x) V (part 0) or L^l h* (x) W
        (part 1), coordinate (t, u) at index t * dim + u."""
        key = (part, l)
        if key not in self._tables:
            m, nh = self.dims
            dim, act, scale = self.rep_dims[part], self.acts[part], self.scale
            h_keys = list(combinations(range(nh), l))
            position = {t: j for j, t in enumerate(h_keys)}
            table = []
            for i in range(m):
                rows = []
                for tj, t in enumerate(h_keys):
                    # each b in t replaced by each a with an h_b-coefficient
                    # in rho_i(h_a), as in ``_delta_mu_rho``
                    derivation = {}
                    for tb, b in enumerate(t):
                        rest = t[:tb] + t[tb + 1:]
                        for a, c in self.rho_by_input[i][b]:
                            if a not in rest:
                                ja = bisect_left(rest, a)
                                y = position[rest[:ja] + (a,) + rest[ja:]]
                                derivation[y] = derivation.get(y, 0) + (c if (ja + tb) % 2 else -c)
                    for u in range(dim):
                        entries = {tj * dim + v: scaled_int(x, scale)
                                   for v, x in enumerate(act[i][u]) if x}
                        for y, c in derivation.items():
                            y = y * dim + u
                            entries[y] = entries.get(y, 0) + c
                        rows.append([(y, c) for y, c in entries.items() if c])
                table.append(rows)
            self._tables[key] = table
        return self._tables[key]

    def alpha_table(self, l: int):
        """Entry (t, u) of L^l h* (x) V lists the (t + {b}, w) coordinates of
        L^(l+1) h* (x) W it meets through alpha, with the sign
        (-1)^(position of b)."""
        key = ("alpha", l)
        if key not in self._tables:
            nh = self.dims[1]
            p, q = self.rep_dims
            position = {t: j for j, t in enumerate(combinations(range(nh), l + 1))}
            table = []
            for t in combinations(range(nh), l):
                for u in range(p):
                    entries = []
                    for b in range(nh):
                        if b not in t:
                            jb = bisect_left(t, b)
                            base = position[t[:jb] + (b,) + t[jb:]] * q
                            for w, x in enumerate(self.alpha[u][b]):
                                if x:
                                    c = scaled_int(x, self.scale)
                                    entries.append((base + w, -c if jb % 2 else c))
                    table.append(entries)
            self._tables[key] = table
        return self._tables[key]

    def slot(self, n: int, r: int, rows_v: int, rows_w: int) -> list[dict]:
        """The columns of slot r of C^n under delta^{mu x rho}, V-block then
        W-block; rows_v and rows_w are the rows where the V- and W-blocks of
        slot r of C^(n+1) start."""
        (m, nh), (p, q) = self.dims, self.rep_dims
        k, l = n - r, r - 1
        size_v, size_w = comb(nh, l) * p, comb(nh, l + 1) * q
        part_v = ce_stencil(m, self.bracket, self.module(0, l), size_v, k + 1, rows_v)
        alpha = self.alpha_table(l)
        odd = k % 2
        for gi in range(comb(m, k + 1)):
            base = rows_w + gi * size_w
            for x, entries in enumerate(alpha):
                column = part_v[gi * size_v + x]
                for y, c in entries:
                    y += base
                    column[y] = column.get(y, 0) + (-c if odd else c)
        return part_v + ce_stencil(m, self.bracket, self.module(1, l + 1), size_w, k, rows_w)


def mu_rho_tables(rep):
    """The tables of rep and of its flip, over rep's base pair, scaled by the
    least common denominator of every constant of the two; built once and
    kept on rep."""
    if rep._stencil is None:
        mp = rep.base
        scale = common_denominator(mp.g.c, mp.h.c, mp.rho, mp.psi, rep.rho_v, rep.psi_v,
                                   rep.rho_w, rep.psi_w, rep.alpha, rep.beta)
        flipped = rep.flipped()
        rep._stencil = (MuRhoTables(mp, rep, scale),
                        MuRhoTables(flipped.base, flipped, scale))
    return rep._stencil


def block_starts(mp_dims, rep_dims, degree: int) -> list[tuple[int, int]]:
    """Where the V- and W-blocks of each slot r = 1..degree start in
    ``cohomology.cochain_basis(mp_dims, rep_dims, degree)``."""
    m, n = mp_dims
    p, q = rep_dims
    out, start = [], 0
    for r in range(1, degree + 1):
        v = start
        start += p * comb(m, degree - r + 1) * comb(n, r - 1)
        out.append((v, start))
        start += q * comb(m, degree - r) * comb(n, r)
    return out


def flip_map(mp_dims, rep_dims, degree: int) -> tuple[list, list]:
    """(index, sign): coordinate j of C^degree is coordinate index[j] of
    the flipped pair's C^degree times sign[j], as ``BidegreeMap.flipped``
    maps cochains (a key (gi, hj) of slot r goes to (hj, gi) of slot
    degree - r + 1 with the sign (-1)^{|gi| |hj|})."""
    m, n = mp_dims
    p, q = rep_dims
    theirs = block_starts((n, m), (q, p), degree)
    index, sign = [], []
    for r in range(1, degree + 1):
        v_start, w_start = theirs[degree - r]
        # the V-block goes to the flipped W-block, the W-block to the V-block
        for size_g, size_h, dim, start in ((degree - r + 1, r - 1, p, w_start),
                                           (degree - r, r, q, v_start)):
            count_g, count_h = comb(m, size_g), comb(n, size_h)
            for gi in range(count_g):
                for hj in range(count_h):
                    first = start + (hj * count_g + gi) * dim
                    index.extend(range(first, first + dim))
            sign.extend([-1 if size_g * size_h % 2 else 1] * (count_g * count_h * dim))
    return index, sign


def coeff_columns(rep, n: int) -> tuple[int, list]:
    """(D, columns): delta_n of the explicit formulas over rep's base pair,
    as the integer columns of D times its matrix (``cohomology.cochain_basis``
    order): the columns of delta^{mu x rho}, plus those of delta^{mu x rho}
    over the flipped pair and representation conjugated by the signed flip
    permutations."""
    tables, flipped = mu_rho_tables(rep)
    mp_dims, rep_dims = tables.dims, tables.rep_dims
    rows = block_starts(mp_dims, rep_dims, n + 1)
    columns = []
    for r in range(1, n + 1):
        columns += tables.slot(n, r, *rows[r - 1])
    flip_dims, flip_rep_dims = mp_dims[::-1], rep_dims[::-1]
    flip_rows = block_starts(flip_dims, flip_rep_dims, n + 1)
    # flipped coordinates back to ours: the flip of the flipped pair
    col_index, col_sign = flip_map(flip_dims, flip_rep_dims, n)
    row_index, row_sign = flip_map(flip_dims, flip_rep_dims, n + 1)
    t = 0
    for r in range(1, n + 1):
        for mirror in flipped.slot(n, r, *flip_rows[r - 1]):
            column, sign = columns[col_index[t]], col_sign[t]
            t += 1
            for y, c in mirror.items():
                i = row_index[y]
                column[i] = column.get(i, 0) + (c if row_sign[y] == sign else -c)
    return tables.scale, drop_zeros(columns)
