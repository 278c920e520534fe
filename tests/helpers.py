"""Shared random generators for the test suites (all seeded, exact)."""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mpla import (DeformationCandidate, LieAlgebra, MatchedPair,
                  MPRepresentation, SkewMultiMap, cochain_from_coords,
                  cochain_space_dim)
from itertools import combinations

FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


@contextmanager
def fraction_calls(names=FRACTION_ARITHMETIC):
    """Yield a list that gets one entry per call of the named Fraction
    methods inside the block: by default its +, - and *, and with
    ``("__new__",)`` every Fraction built."""
    calls = []
    with pytest.MonkeyPatch.context() as m:
        for name in names:
            original = Fraction.__dict__[name]
            if name == "__new__":
                def built(cls, *args, _f=original.__func__, **kwargs):
                    calls.append(1)
                    return _f(cls, *args, **kwargs)

                m.setattr(Fraction, name, staticmethod(built))
            else:
                m.setattr(Fraction, name,
                          lambda *args, _f=original: calls.append(1) or _f(*args))
        yield calls


def rand_fraction(rng: random.Random, lo=-3, hi=3) -> Fraction:
    return Fraction(rng.randint(lo, hi))


def rand_vector(rng, n, lo=-3, hi=3):
    return [rand_fraction(rng, lo, hi) for _ in range(n)]


def rand_skew_map(rng, arity, dim, codim=None, lo=-2, hi=2) -> SkewMultiMap:
    codim = dim if codim is None else codim
    coeffs = {}
    for key in combinations(range(dim), arity):
        vec = rand_vector(rng, codim, lo, hi)
        if any(vec):
            coeffs[key] = vec
    return SkewMultiMap(arity, dim, codim, coeffs)


def rand_lie_candidate(rng, dim, lo=-2, hi=2) -> LieAlgebra:
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            vec = rand_vector(rng, dim, lo, hi)
            if any(vec):
                brackets[(i, j)] = vec
    return LieAlgebra.from_brackets(dim, brackets)


def rand_mp_candidate(rng, dim_g, dim_h, lo=-2, hi=2) -> MatchedPair:
    g = rand_lie_candidate(rng, dim_g, lo, hi)
    h = rand_lie_candidate(rng, dim_h, lo, hi)
    rho = {(i, a): rand_vector(rng, dim_h, lo, hi)
           for i in range(dim_g) for a in range(dim_h)}
    psi = {(a, i): rand_vector(rng, dim_g, lo, hi)
           for a in range(dim_h) for i in range(dim_g)}
    return MatchedPair.from_sparse(g, h, rho, psi)


def rand_mp_rep_candidate(rng, mp, dims, lo=-2, hi=2) -> MPRepresentation:
    p, q = dims
    m, n = mp.dim_g, mp.dim_h
    return MPRepresentation.from_sparse(
        mp, dims,
        rho_v={(i, u): rand_vector(rng, p, lo, hi) for i in range(m) for u in range(p)},
        psi_v={(a, u): rand_vector(rng, p, lo, hi) for a in range(n) for u in range(p)},
        rho_w={(i, w): rand_vector(rng, q, lo, hi) for i in range(m) for w in range(q)},
        psi_w={(a, w): rand_vector(rng, q, lo, hi) for a in range(n) for w in range(q)},
        alpha={(u, a): rand_vector(rng, q, lo, hi) for u in range(p) for a in range(n)},
        beta={(w, i): rand_vector(rng, p, lo, hi) for w in range(q) for i in range(m)},
    )


def rand_cochain(rng, mp, rep_dims, degree, lo=-3, hi=3):
    dims = (mp.dim_g, mp.dim_h)
    total = cochain_space_dim(dims, rep_dims, degree)
    return cochain_from_coords(
        dims, rep_dims, degree, [rand_fraction(rng, lo, hi) for _ in range(total)]
    )


def rand_deformation_candidate(rng, mp, lo=-2, hi=2) -> DeformationCandidate:
    m, n = mp.dim_g, mp.dim_h
    return DeformationCandidate.from_sparse(
        m, n,
        mu1={(i, j): rand_vector(rng, m, lo, hi)
             for i in range(m) for j in range(i + 1, m)},
        nu1={(a, b): rand_vector(rng, n, lo, hi)
             for a in range(n) for b in range(a + 1, n)},
        rho1={(i, a): rand_vector(rng, n, lo, hi)
              for i in range(m) for a in range(n)},
        psi1={(a, i): rand_vector(rng, m, lo, hi)
              for a in range(n) for i in range(m)},
    )


def rand_invertible(rng, n, lo=-2, hi=2):
    from mpla import Matrix, rank

    while True:
        m = Matrix.from_rows([[rand_fraction(rng, lo, hi) for _ in range(n)]
                              for _ in range(n)])
        if rank(m) == n:
            return m


# -- oracles: per-column builders and dense eliminators, independent of the
# -- library's one-pass builders and sparse kernel ----------------------------


def bareiss_rank(m) -> int:
    """Rank by dense fraction-free Bareiss elimination."""
    from math import lcm

    rows, cols = m.rows, m.cols
    if rows == 0 or cols == 0:
        return 0
    a = []
    for row in m.entries:
        scale = lcm(*(x.denominator for x in row)) if row else 1
        a.append([int(x * scale) for x in row])
    prev = 1
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = a[r][c] * a[i][j] - a[i][c] * a[r][j]
                q, rem = divmod(num, prev)
                assert not rem, "Bareiss division was not exact"
                a[i][j] = q
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def dense_rref(entries, rows, cols):
    """In-place fraction Gauss-Jordan reduced row echelon form; pivot columns."""
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if entries[i][c]:
                piv = i
                break
        if piv is None:
            continue
        entries[r], entries[piv] = entries[piv], entries[r]
        inv = 1 / entries[r][c]
        entries[r] = [x * inv for x in entries[r]]
        for i in range(rows):
            if i != r and entries[i][c]:
                f = entries[i][c]
                entries[i] = [x - f * y for x, y in zip(entries[i], entries[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def dense_kernel_basis(m):
    entries = [[Fraction(x) for x in row] for row in m.entries]
    pivots = dense_rref(entries, m.rows, m.cols)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -entries[r][free]
        basis.append(v)
    return basis


def dense_solve(m, b):
    aug = [list(row) + [Fraction(b[i])] for i, row in enumerate(m.entries)]
    pivots = dense_rref(aug, m.rows, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = aug[r][m.cols]
    return x


def dense_mul_vec(m, v):
    """m times v by the dense formula: a sum over every entry, zeros included."""
    return [sum((m.entries[i][j] * v[j] for j in range(m.cols)), Fraction(0))
            for i in range(m.rows)]


def dense_mul(a, b):
    """a times b as a list of rows, by the triple loop over every entry."""
    return [[sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0))
             for j in range(b.cols)] for i in range(a.rows)]


def dense_invert(m):
    """The inverse as a list of rows, or None if m is singular."""
    n = m.rows
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m.entries)]
    pivots = dense_rref(aug, n, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in aug]


# -- linear forms: a ring-generic linear formula run once on a probe of
# -- variables gives its matrix -----------------------------------------------


class LinearForm:
    """Sparse linear form {index: nonzero coefficient}, immutable by convention.

    Only what keeps a map linear is defined: sums and differences of forms,
    scalar multiples, and truthiness (a form is false when every coefficient
    cancelled).  A product of two forms, or a nonzero constant added to a
    form, raises TypeError, so a nonlinear formula fails loudly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    @classmethod
    def variable(cls, index: int) -> "LinearForm":
        return cls({index: 1})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, LinearForm):
            big, small = self.terms, other.terms
            if len(big) < len(small):
                big, small = small, big
            out = dict(big)
            for j, c in small.items():
                total = out.get(j, 0) + c
                if total:
                    out[j] = total
                else:
                    del out[j]
            return LinearForm(out)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other:
            raise TypeError("a nonzero constant plus a linear form is not linear")
        return self

    __radd__ = __add__

    def __neg__(self):
        return LinearForm({j: -c for j, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (LinearForm, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, LinearForm):
            raise TypeError("the product of two linear forms is not linear")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if type(other) is Fraction and other.denominator == 1:
            other = other.numerator  # int coefficients keep the sums in fast int arithmetic
        if other == 1:
            return self
        if not other:
            return LinearForm()
        return LinearForm({j: c * other for j, c in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"LinearForm({self.terms})"


def operator_matrix(image, n_rows: int, n_cols: int):
    """Matrix of a linear map given as a ring-generic function on coordinates.

    ``image(coords)`` returns the n_rows coordinates of the image of the
    vector with the n_cols coordinates ``coords``, using only +, -, scalar
    * and truthiness on them.  It runs once, on the variables x_0 ... as
    ``LinearForm``s; coordinate i of the result is row i of the matrix.
    """
    from mpla import Matrix
    from mpla.errors import DimensionMismatch

    out = image([LinearForm.variable(j) for j in range(n_cols)])
    if len(out) != n_rows:
        raise DimensionMismatch(f"image has {len(out)} coordinates, expected {n_rows}")
    data = []
    for form in out:
        if not form:
            data.append({})
            continue
        if not isinstance(form, LinearForm):
            raise TypeError(f"image coordinate {form!r} is not a linear form")
        data.append({j: c if type(c) is Fraction else Fraction(c)
                     for j, c in form.terms.items()})
    return Matrix.from_sparse(n_rows, n_cols, data)


def percolumn_delta_matrix(mp, rep, degree, route="coeff"):
    """δ_d built by applying the route to every basis cochain."""
    from mpla import (Matrix, basis_cochain, cochain_basis, cochain_to_coords,
                      delta_mpl_adjoint, delta_mpl_coeff)

    mp_dims = (mp.dim_g, mp.dim_h)
    n_rows = cochain_space_dim(mp_dims, rep.dims, degree + 1)
    n_cols = cochain_space_dim(mp_dims, rep.dims, degree)
    if degree == 0:
        return Matrix.zero(n_rows, n_cols)
    columns = []
    for key in cochain_basis(mp_dims, rep.dims, degree):
        F = basis_cochain(mp_dims, rep.dims, degree, key)
        image = (delta_mpl_coeff(mp, rep, F) if route == "coeff"
                 else delta_mpl_adjoint(mp, F))
        columns.append(cochain_to_coords(image))
    if not columns:
        return Matrix.zero(n_rows, 0)
    return Matrix.from_columns(columns)


def probe_delta_matrix(mp, rep, degree):
    """δ_d of the explicit formulas, by one run of ``delta_mpl_coeff`` on a
    probe cochain of linear forms (``operator_matrix``) over mp and rep as
    given."""
    from mpla import delta_mpl_coeff

    return _probe_matrix(mp, rep.dims, degree, lambda F: delta_mpl_coeff(mp, rep, F))


def probe_graded_bracket_matrix(mp, degree):
    """δ_d on adjoint coefficients as -[π, ·], by one run of the graded
    bracket (``delta_mpl_adjoint``) on a probe cochain of linear forms."""
    from mpla import delta_mpl_adjoint

    dims = (mp.dim_g, mp.dim_h)
    return _probe_matrix(mp, dims, degree, lambda F: delta_mpl_adjoint(mp, F))


def _probe_matrix(mp, rep_dims, degree, delta):
    from mpla import Matrix, cochain_from_coords
    from mpla.cohomology import _coords

    mp_dims = (mp.dim_g, mp.dim_h)
    n_rows = cochain_space_dim(mp_dims, rep_dims, degree + 1)
    n_cols = cochain_space_dim(mp_dims, rep_dims, degree)
    if degree == 0:
        return Matrix.zero(n_rows, n_cols)

    def image(coords):
        return _coords(delta(cochain_from_coords(mp_dims, rep_dims, degree, coords)))

    return operator_matrix(image, n_rows, n_cols)


def pull_ce_coboundary(r, f, n=None):
    """The CE coboundary by its defining formula: every (n+1)-key of the
    algebra pulls the action and bracket terms from f, whatever f's
    support.  Oracle for ``lie.ce_coboundary``, which runs over f's keys."""
    from mpla.errors import ArityMismatch
    from mpla.scalars import vaccum, vis_zero, vzero

    g = r.algebra
    if n is None:
        n = f.arity
    if f.arity != n:
        raise ArityMismatch(f"cochain has arity {f.arity}, expected {n}")
    if f.dim != g.dim or f.codim != r.space_dim:
        raise ArityMismatch("cochain spaces do not match the representation")
    coeffs = {}
    for key in combinations(range(g.dim), n + 1):
        acc = vzero(r.space_dim)
        for pos in range(n + 1):
            rest = key[:pos] + key[pos + 1:]
            sign = -1 if pos % 2 else 1
            vaccum(acc, sign, r.act(key[pos], f.evaluate(rest)))
        for pi in range(n + 1):
            for pj in range(pi + 1, n + 1):
                rest = tuple(
                    key[t] for t in range(n + 1) if t != pi and t != pj
                )
                sign = -1 if (pi + pj) % 2 else 1  # (-1)^{(pi+1)+(pj+1)}
                bracket = g.c[key[pi]][key[pj]]
                vaccum(acc, sign, f.evaluate_mixed((bracket,) + rest))
        if not vis_zero(acc):
            coeffs[key] = acc
    return SkewMultiMap(n + 1, g.dim, r.space_dim, coeffs)


def percolumn_ce_matrix(r, n):
    """The CE coboundary matrix, one basis cochain at a time, through the
    pull-form oracle."""
    from mpla import Matrix, ce_basis
    from mpla.scalars import vzero

    g = r.algebra
    domain = ce_basis(g.dim, r.space_dim, n)
    target = ce_basis(g.dim, r.space_dim, n + 1)
    index = {kp: row for row, kp in enumerate(target)}
    columns = []
    for key, p in domain:
        vec = vzero(r.space_dim)
        vec[p] = Fraction(1)
        image = pull_ce_coboundary(r, SkewMultiMap(n, g.dim, r.space_dim, {key: vec}), n)
        col = [Fraction(0)] * len(target)
        for tkey, tvec in image.coeffs.items():
            for q, x in enumerate(tvec):
                if x:
                    col[index[(tkey, q)]] = x
        columns.append(col)
    if not domain:
        return Matrix.zero(len(target), 0)
    return Matrix.from_columns(columns)


def percolumn_liebi_matrix(b, degree):
    """The bialgebra coboundary matrix, one basis cochain at a time."""
    from mpla import (Matrix, liebi_coboundary, liebi_from_coords,
                      liebi_space_dim, liebi_to_coords)

    dim = b.g.dim
    n_rows = liebi_space_dim(dim, degree + 1)
    n_cols = liebi_space_dim(dim, degree)
    columns = []
    for index in range(n_cols):
        coords = [Fraction(int(i == index)) for i in range(n_cols)]
        xi = liebi_from_coords(dim, degree, coords)
        columns.append(liebi_to_coords(liebi_coboundary(b, xi)))
    if not columns:
        return Matrix.zero(n_rows, 0)
    return Matrix.from_columns(columns)


def shuffle_insertion(f, g):
    """i_f g by its defining sum: every increasing output key, split by every
    (f.arity, g.arity - 1)-shuffle into a key of f and a tail for g."""
    from mpla.multimap import shuffles
    from mpla.scalars import vaccum, vzero

    out_arity = f.arity + g.arity - 1
    if g.arity == 0 or out_arity < 0:
        return SkewMultiMap.zero(max(out_arity, 0), f.dim, g.codim)
    coeffs = {}
    for key in combinations(range(f.dim), out_arity):
        acc = vzero(g.codim)
        for first, rest, sgn in shuffles(f.arity, g.arity - 1):
            vec = f.coeffs.get(tuple(key[i] for i in first))
            if vec is None:
                continue
            tail = tuple(key[i] for i in rest)
            for k, ck in enumerate(vec):
                if ck:
                    vaccum(acc, sgn * ck, g.evaluate((k,) + tail))
        coeffs[key] = acc
    return SkewMultiMap(out_arity, f.dim, g.codim, coeffs)


def pull_insertion(f, g):
    """i_f g from the keys of f: each key ``sub`` and each tail of other
    indices pulls g((k,) + tail) for every k with f(sub)_k != 0, zeros
    included.  The form ``multimap.insertion`` had before it ran over the
    keys of g; the operation-count guard measures it."""
    from mpla.multimap import sort_sign
    from mpla.scalars import vaccum, vzero

    out_arity = f.arity + g.arity - 1
    if g.arity == 0 or out_arity < 0:
        return SkewMultiMap.zero(max(out_arity, 0), f.dim, g.codim)
    acc = {}
    for sub, vec in f.coeffs.items():
        others = [i for i in range(f.dim) if i not in sub]
        for tail in combinations(others, g.arity - 1):
            sgn, key = sort_sign(sub + tail)
            out = acc.get(key)
            if out is None:
                out = acc[key] = vzero(g.codim)
            for k, ck in enumerate(vec):
                if ck:
                    vaccum(out, sgn * ck, g.evaluate((k,) + tail))
    return SkewMultiMap(out_arity, f.dim, g.codim, {key: acc[key] for key in sorted(acc)})


def bidegree_eval(table, g_args, h_args, codim):
    """A part of a bidegree map (``part_v`` or ``part_w``) on g- and
    h-arguments, each a basis index or a coefficient vector; a vector
    argument is expanded into the sum over its nonzero coefficients."""
    from mpla.multimap import sort_sign
    from mpla.scalars import vaccum, vzero

    g_args, h_args = tuple(g_args), tuple(h_args)
    for pos, a in enumerate(g_args):
        if not isinstance(a, int):
            acc = vzero(codim)
            for idx, c in enumerate(a):
                if c:
                    inner = bidegree_eval(table, g_args[:pos] + (idx,) + g_args[pos + 1:],
                                          h_args, codim)
                    vaccum(acc, c, inner)
            return acc
    for pos, a in enumerate(h_args):
        if not isinstance(a, int):
            acc = vzero(codim)
            for idx, c in enumerate(a):
                if c:
                    inner = bidegree_eval(table, g_args,
                                          h_args[:pos] + (idx,) + h_args[pos + 1:], codim)
                    vaccum(acc, c, inner)
            return acc
    sg, gi = sort_sign(g_args)
    if sg == 0:
        return vzero(codim)
    sh, hj = sort_sign(h_args)
    if sh == 0:
        return vzero(codim)
    vec = table.get((gi, hj))
    if vec is None:
        return vzero(codim)
    return [sg * sh * x for x in vec]


def pull_delta_mu_rho(mp, rep, fr, n, r):
    """δ^{μ×ρ}: C^{n-r|r-1} -> C^{n-r+1|r-1} by its defining sums: every
    output key pulls the action, ρ-, bracket- and α-terms from F_r, whatever
    its support.  Oracle for ``cohomology._delta_mu_rho``, which runs over
    F_r's keys."""
    from mpla.bigraded import BidegreeMap
    from mpla.scalars import vaccum, vis_zero, vzero

    m, nh = mp.dim_g, mp.dim_h
    p, q = rep.dims
    out = BidegreeMap(n - r + 1, r - 1, m, nh, p, q)

    def eval_v(g_args, h_args):
        return bidegree_eval(fr.part_v, g_args, h_args, p)

    def eval_w(g_args, h_args):
        return bidegree_eval(fr.part_w, g_args, h_args, q)

    for table, size_g, size_h, dim, evaluate, act, alpha_term in (
        (out.part_v, n - r + 2, r - 1, p, eval_v, rep.act_rho_v, False),
        (out.part_w, n - r + 1, r, q, eval_w, rep.act_rho_w, True),
    ):
        for gi in combinations(range(m), size_g):
            for hj in combinations(range(nh), size_h):
                acc = vzero(dim)
                for pos in range(len(gi)):
                    rest = gi[:pos] + gi[pos + 1:]
                    vaccum(acc, (-1) ** pos, act(gi[pos], evaluate(rest, hj)))
                    for jpos in range(len(hj)):
                        replaced = hj[:jpos] + (mp.rho[gi[pos]][hj[jpos]],) + hj[jpos + 1:]
                        vaccum(acc, (-1) ** (pos + 1), evaluate(rest, replaced))
                if alpha_term:
                    for jpos in range(len(hj)):
                        rest = hj[:jpos] + hj[jpos + 1:]
                        vaccum(acc, (-1) ** (n - r + jpos),
                               rep.pair_alpha(eval_v(gi, rest), hj[jpos]))
                for pa in range(len(gi)):
                    for pb in range(pa + 1, len(gi)):
                        rest = tuple(
                            gi[t] for t in range(len(gi)) if t != pa and t != pb
                        )
                        bracket = mp.g.c[gi[pa]][gi[pb]]
                        vaccum(acc, (-1) ** (pa + pb), evaluate((bracket,) + rest, hj))
                if not vis_zero(acc):
                    table[(gi, hj)] = acc
    return out


def delta_psi_nu(mp, rep, fr, n, r):
    """Second block of the coboundary, C^{n-r|r-1} -> C^{n-r|r}, by its own
    explicit sums: the oracle for the flip-conjugate route of
    ``delta_mpl_coeff``."""
    from mpla.bigraded import BidegreeMap
    from mpla.scalars import vaccum, vcombine, vis_zero, vzero

    m, nh = mp.dim_g, mp.dim_h
    p, q = rep.dims
    out = BidegreeMap(n - r, r, m, nh, p, q)

    def eval_v(g_args, h_args):
        return bidegree_eval(fr.part_v, g_args, h_args, p)

    def eval_w(g_args, h_args):
        return bidegree_eval(fr.part_w, g_args, h_args, q)

    # V-part on (n-r+1) g-slots and r h-slots
    for gi in combinations(range(m), n - r + 1):
        for hj in combinations(range(nh), r):
            acc = vzero(p)
            for pos in range(len(gi)):
                i1 = pos + 1
                rest = gi[:pos] + gi[pos + 1:]
                inner = eval_w(rest, hj)
                vaccum(acc, (-1) ** i1, rep.pair_beta(inner, gi[pos]))
            for jpos in range(len(hj)):
                j1 = jpos + 1
                rest = hj[:jpos] + hj[jpos + 1:]
                vaccum(acc, (-1) ** (n - r + j1),
                       vcombine(eval_v(gi, rest), rep.psi_v[hj[jpos]], p))
                for pos in range(len(gi)):
                    replaced = gi[:pos] + (mp.psi[hj[jpos]][gi[pos]],) + gi[pos + 1:]
                    vaccum(acc, (-1) ** (n - r + j1 + 1),
                           eval_v(replaced, rest))
            for pa in range(len(hj)):
                for pb in range(pa + 1, len(hj)):
                    rest = tuple(
                        hj[t] for t in range(len(hj)) if t != pa and t != pb
                    )
                    bracket = mp.h.c[hj[pa]][hj[pb]]
                    sign = (-1) ** (n - r + 1 + (pa + 1) + (pb + 1))
                    vaccum(acc, sign, eval_v(gi, (bracket,) + rest))
            if not vis_zero(acc):
                out.part_v[(gi, hj)] = acc

    # W-part on (n-r) g-slots and (r+1) h-slots
    for gi in combinations(range(m), n - r):
        for hj in combinations(range(nh), r + 1):
            acc = vzero(q)
            for jpos in range(len(hj)):
                j1 = jpos + 1
                rest = hj[:jpos] + hj[jpos + 1:]
                vaccum(acc, (-1) ** (n - r + j1 + 1),
                       rep.act_psi_w(hj[jpos], eval_w(gi, rest)))
                for pos in range(len(gi)):
                    replaced = gi[:pos] + (mp.psi[hj[jpos]][gi[pos]],) + gi[pos + 1:]
                    vaccum(acc, (-1) ** (n - r + j1),
                           eval_w(replaced, rest))
            for pa in range(len(hj)):
                for pb in range(pa + 1, len(hj)):
                    rest = tuple(
                        hj[t] for t in range(len(hj)) if t != pa and t != pb
                    )
                    bracket = mp.h.c[hj[pa]][hj[pb]]
                    sign = (-1) ** (n - r + (pa + 1) + (pb + 1))
                    vaccum(acc, sign, eval_w(gi, (bracket,) + rest))
            if not vis_zero(acc):
                out.part_w[(gi, hj)] = acc
    return out


def gl2() -> LieAlgebra:
    """gl_2 in the basis (e11, e12, e21, e22)."""
    return LieAlgebra.from_brackets(4, {
        (0, 1): [0, 1, 0, 0], (0, 2): [0, 0, -1, 0], (1, 2): [1, 0, 0, -1],
        (1, 3): [0, 1, 0, 0], (2, 3): [0, 0, -1, 0],
    })


def gl2_rota_baxter_pair() -> MatchedPair:
    """The two-sided 4+4 pair rota_baxter_matched_pair(gl_2, R), where R is
    minus the projection onto the upper-triangular part along e21."""
    from mpla import Matrix, rota_baxter_matched_pair

    r_matrix = Matrix.from_rows([[-1, 0, 0, 0], [0, -1, 0, 0],
                                 [0, 0, 0, 0], [0, 0, 0, -1]])
    return rota_baxter_matched_pair(gl2(), r_matrix)


# h_dims of the full complex of gl2_rota_baxter_pair() with adjoint coefficients
GL2_ROTA_BAXTER_H = [8, 3, 7, 9, 9, 4, 2, 4, 2]


def rota_baxter_pair_oracle(g: LieAlgebra, r_matrix) -> MatchedPair:
    """``rota_baxter_matched_pair`` by change of basis in g + g: the
    weight-1 identity is checked for i < j, then the brackets of the
    diagonal (e_i, e_i) and the graph (R e_a, e_a + R e_a) in the direct
    product are read in the joint basis they form."""
    from mpla import DimensionMismatch, Matrix, NotRotaBaxter, invert
    from mpla.scalars import vaccum, vbasis, vis_zero, vneg, vzero

    g.require_valid()
    m = g.dim
    if r_matrix.rows != m or r_matrix.cols != m:
        raise DimensionMismatch("operator matrix must be square of the algebra dimension")
    for i in range(m):
        for j in range(i + 1, m):
            ri = r_matrix.column(i)
            rj = r_matrix.column(j)
            lhs = g.bracket_vec(ri, rj)
            inner = g.bracket_vec(ri, vbasis(m, j))
            vaccum(inner, 1, g.bracket_vec(vbasis(m, i), rj))
            vaccum(inner, 1, g.c[i][j])
            rhs = r_matrix.mul_vec(inner)
            residual = [x - y for x, y in zip(lhs, rhs)]
            if not vis_zero(residual):
                raise NotRotaBaxter(
                    f"weight-1 identity fails at basis pair ({i}, {j})",
                    witness=(i, j, residual),
                )

    columns = [vbasis(m, i) + vbasis(m, i) for i in range(m)]
    for a in range(m):
        ra = r_matrix.column(a)
        columns.append(list(ra) + [x + y for x, y in zip(vbasis(m, a), ra)])
    back = invert(Matrix.from_columns(columns))

    def coords(u, v):
        return back.mul_vec(list(g.bracket_vec(u[:m], v[:m])) + list(g.bracket_vec(u[m:], v[m:])))

    c_diag = [[vzero(m) for _ in range(m)] for _ in range(m)]
    c_graph = [[vzero(m) for _ in range(m)] for _ in range(m)]
    rho = [[vzero(m) for _ in range(m)] for _ in range(m)]
    psi = [[vzero(m) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            co = coords(columns[i], columns[j])
            assert vis_zero(co[m:]), "diagonal copy failed to close under the bracket"
            c_diag[i][j] = co[:m]
            co = coords(columns[m + i], columns[m + j])
            assert vis_zero(co[:m]), "graph copy failed to close under the bracket"
            c_graph[i][j] = co[m:]
            co = coords(columns[i], columns[m + j])
            rho[i][j] = co[m:]
            psi[j][i] = vneg(co[:m])
    pair = MatchedPair(LieAlgebra(m, c_diag), LieAlgebra(m, c_graph), rho, psi)
    pair.require_valid()
    return pair


def coadjoint_oracle(mp: MatchedPair) -> MPRepresentation:
    """The representation on (h*, g*) from its explicit formulas,

    (alpha_p h)(x) = -p(rho_x h)  and  (beta_q x)(h) = -q(psi_h x)."""
    m, n = mp.dim_g, mp.dim_h
    rho_v = [[[-mp.rho[i][b][a] for b in range(n)] for a in range(n)] for i in range(m)]
    psi_v = [[[-mp.h.c[a][b2][b1] for b2 in range(n)] for b1 in range(n)] for a in range(n)]
    rho_w = [[[-mp.g.c[i][j2][j1] for j2 in range(m)] for j1 in range(m)] for i in range(m)]
    psi_w = [[[-mp.psi[a][j][i] for j in range(m)] for i in range(m)] for a in range(n)]
    alpha = [[[-mp.rho[i][b][a] for i in range(m)] for b in range(n)] for a in range(n)]
    beta = [[[-mp.psi[b][i][j] for b in range(n)] for i in range(m)] for j in range(m)]
    return MPRepresentation(mp, n, m, rho_v, psi_v, rho_w, psi_w, alpha, beta)


def rand_skeletal_candidate(rng, G, H, lo=-1, hi=1):
    """Random two- and three-slot actions between two two-term structures."""
    from mpla.skeletal import SkeletalMatchedPair
    from mpla.scalars import vzero

    m, n, p, q = G.dim0, H.dim0, G.dim1, H.dim1

    def block(rows, cols, veclen):
        return [[rand_vector(rng, veclen, lo, hi) for _ in range(cols)]
                for _ in range(rows)]

    def trilinear(d, cols, veclen):
        t = [[[vzero(veclen) for _ in range(cols)] for _ in range(d)] for _ in range(d)]
        for i, j in combinations(range(d), 2):
            for a in range(cols):
                vec = rand_vector(rng, veclen, lo, hi)
                t[i][j][a] = vec
                t[j][i][a] = [-x for x in vec]
        return t

    return SkeletalMatchedPair(
        G, H, block(m, n, n), block(m, q, q), block(p, n, q), trilinear(m, n, q),
        block(n, m, m), block(n, p, p), block(q, m, p), trilinear(n, m, p),
    )


# -- explicit degree-0/1 laws of a skeletal matched pair (oracles) -------------


def skeletal_mixed_oracle(s):
    """{"mixed(k)": [(where, residual)]} by the explicit formulas on the
    skeletal data; mixed(2), (5), (6) are mixed(1), (3), (4) of the flipped
    pair, witness keys included."""
    flipped = s.flipped()
    groups = ((_mixed_1, s), (_mixed_1, flipped), (_mixed_3, s), (_mixed_4, s),
              (_mixed_3, flipped), (_mixed_4, flipped))
    return {f"mixed({k})": list(formula(data)) for k, (formula, data) in enumerate(groups, 1)}


def _mixed_1(s):
    """rho2([x, v], h) = rho2(x, rho2(v, h)) - rho2(v, rho2(x, h))."""
    from mpla.scalars import vaccum, vcombine, vis_zero

    m, n, p, q = s.G.dim0, s.H.dim0, s.G.dim1, s.H.dim1
    for i in range(m):
        for u in range(p):
            for a in range(n):
                # [x, v] in g1, rho2(v, h) in h1, rho2(x, h) in h0
                lhs = vcombine(s.G.bracket01[i][u], [row[a] for row in s.rho2_10], q)
                rhs = vcombine(s.rho2_10[u][a], s.rho2_01[i], q)
                vaccum(rhs, -1, vcombine(s.rho2_00[i][a], s.rho2_10[u], q))
                res = [x - y for x, y in zip(lhs, rhs)]
                if not vis_zero(res):
                    yield (i, u, a), res


def _mixed_3(s):
    """rho2(x, [h, w]) = [rho2(x,h), w] + [h, rho2(x,w)]
    + rho2(psi2(w,x), h) - rho2(psi2(h,x), w)."""
    from mpla.scalars import vaccum, vbasis, vcombine, vis_zero

    H = s.H
    m, n, q = s.G.dim0, H.dim0, H.dim1
    for i in range(m):
        for a in range(n):
            for w in range(q):
                lhs = vcombine(H.bracket01[a][w], s.rho2_01[i], q)
                rhs = H.b01_vec(s.rho2_00[i][a], vbasis(q, w))
                vaccum(rhs, 1, H.b01(a, s.rho2_01[i][w]))
                # psi2(w, x) in g1, psi2(h, x) in g0
                vaccum(rhs, 1, vcombine(s.psi2_10[w][i], [row[a] for row in s.rho2_10], q))
                vaccum(rhs, -1, vcombine(s.psi2_00[a][i], [row[w] for row in s.rho2_01], q))
                res = [x - y for x, y in zip(lhs, rhs)]
                if not vis_zero(res):
                    yield (i, a, w), res


def _mixed_4(s):
    """rho2(v, [h, k]) = [rho2(v,h), k] + [h, rho2(v,k)]
    + rho2(psi2(k,v), h) - rho2(psi2(h,v), k)."""
    from mpla.scalars import vaccum, vcombine, vis_zero, vneg

    H = s.H
    n, p, q = H.dim0, s.G.dim1, H.dim1
    for u in range(p):
        for a in range(n):
            for b in range(a + 1, n):
                lhs = vcombine(H.bracket00[a][b], s.rho2_10[u], q)
                rhs = vneg(H.b01(b, s.rho2_10[u][a]))
                vaccum(rhs, 1, H.b01(a, s.rho2_10[u][b]))
                # psi2(k, v) and psi2(h, v) in g1
                vaccum(rhs, 1, vcombine(s.psi2_01[b][u], [row[a] for row in s.rho2_10], q))
                vaccum(rhs, -1, vcombine(s.psi2_01[a][u], [row[b] for row in s.rho2_10], q))
                res = [x - y for x, y in zip(lhs, rhs)]
                if not vis_zero(res):
                    yield (u, a, b), res


def skeletal_action_law_oracle(t, r):
    """([(where, residual)] of rep(2), of rep(3)) for the skeletal
    representation r of t: x_i.(x_j.u) - x_j.(x_i.u) - [x_i, x_j].u on V0
    (through r.r00) and on V1 (through r.r01), at (i, j, u) with i < j."""
    from mpla.scalars import vaccum, vcombine, vis_zero

    def law(action, dim):
        out = []
        for i in range(t.dim0):
            for j in range(i + 1, t.dim0):
                for u in range(dim):
                    lhs = vcombine(action[j][u], action[i], dim)
                    vaccum(lhs, -1, vcombine(action[i][u], action[j], dim))
                    vaccum(lhs, -1, vcombine(t.bracket00[i][j], [row[u] for row in action],
                                             dim))
                    if not vis_zero(lhs):
                        out.append(((i, j, u), lhs))
        return out

    return law(r.r00, r.dim_v0), law(r.r01, r.dim_v1)
