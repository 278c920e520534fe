"""Lie algebras and representations as structure constants, and their cohomology.

Conventions:
  * a LieAlgebra of dimension m stores c[i][j] = coefficient vector of
    [e_i, e_j];
  * a LieRep stores a[i][p] = coefficient vector of the action of e_i on
    the p-th basis vector of the module;
  * the coboundary on Hom(Lambda^n g, V) is

      (d f)(x_1..x_{n+1}) = sum_i (-1)^{i+1} x_i . f(.. x_i^ ..)
                          + sum_{i<j} (-1)^{i+j} f([x_i,x_j], .. x_i^ .. x_j^ ..).

All arithmetic is ring-generic: entries may be ints, Fractions or
DualNumbers.

Every structure law says that a bracket table is a Lie algebra: its
own, g x| V (``LieRep``), g |x| h (``matched``), g+V |x| h+W (``reps``)
or the double g |x| g* of a bialgebra (``matched``).
The integer Jacobiator kernel ``lie_table_holds`` decides it, and
``decided`` keeps a report on the structure (values are immutable after
construction): the passing one, or else the ring-generic witnesses.
``homomorphism_holds`` decides a morphism of matched pairs the same way,
as a homomorphism between g |x| h tables (``matched.check_morphism``).

``ce_matrix`` is the integer stencil of ``stencil.ce_stencil``, which
builds every explicit coboundary matrix; it keeps the least common
denominator D of the constants and the integer columns as the matrix's
integer form (``linalg``), and the stencil's tables on the representation.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import ArityMismatch, MalformedTensor
from .linalg import Matrix, _scaled_columns, cohomology_dims, require_degree
from .multimap import SkewMultiMap, nr_bracket, sort_sign
from .report import ValidationReport
from .scalars import (DualNumber, common_denominator, scaled_int, vaccum, vaccum_at, vbasis,
                      vcombine, vis_zero, vneg, vzero, zero_tensor)

# the permutations of the first 0, 2 or 3 indices of a key, with their signs
SIGNED = {0: [((), 1)], 2: [((0, 1), 1), ((1, 0), -1)],
          3: [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
              ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]}


def dense_tensor(shape, data, what: str, skew: int = 0):
    """Dense tensor of ``shape`` from sparse data {key: vector}.

    Keys are index tuples within ``shape[:-1]`` (an int for one index); the
    tensor holds ``list(vector)`` at each key and int zeros elsewhere.  With
    ``skew`` (2 or 3), the first ``skew`` indices of a key must increase
    strictly, and each permutation of them holds the vector times its sign.
    """
    *bounds, veclen = shape
    t = zero_tensor(shape)
    for key, vec in dict(data or {}).items():
        idx = key if isinstance(key, tuple) else (key,)
        at = ", ".join(map(str, idx))
        if len(idx) != len(bounds) or not all(0 <= i < b for i, b in zip(idx, bounds)):
            raise MalformedTensor(f"{what}: index ({at}) out of range")
        if any(a >= b for a, b in zip(idx[:skew], idx[1:skew])):
            raise MalformedTensor(f"{what}: only {' < '.join('ijk'[:skew])} entries may be given")
        vec = list(vec)
        if len(vec) != veclen:
            raise MalformedTensor(f"{what}: value at ({at}) has wrong length")
        for perm, sign in SIGNED[skew]:
            *head, last = [idx[q] for q in perm] + list(idx[skew:])
            row = t
            for i in head:
                row = row[i]
            row[last] = list(vec) if sign == 1 else vneg(vec)
    return t


class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants."""

    __slots__ = ("dim", "c", "_report", "_adjoint")

    def __init__(self, dim: int, c):
        self.dim = dim
        if len(c) != dim or any(len(row) != dim for row in c):
            raise MalformedTensor("bracket tensor does not match the dimension")
        self.c = [[list(v) for v in row] for row in c]
        for row in self.c:
            for v in row:
                if len(v) != dim:
                    raise MalformedTensor("bracket value has wrong length")
        self._report = self._adjoint = None

    @classmethod
    def from_brackets(cls, dim: int, brackets=None) -> "LieAlgebra":
        """Build from {(i, j): vector} with i < j; skew completion is implicit."""
        return cls(dim, dense_tensor((dim, dim, dim), brackets, "bracket", skew=2))

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls.from_brackets(dim, {})

    def bracket_basis(self, i: int, j: int):
        return self.c[i][j]

    def bracket_vec(self, u, v):
        out = vzero(self.dim)
        for i, a in enumerate(u):
            if not a:
                continue
            row = self.c[i]
            for j, b in enumerate(v):
                if b:
                    vaccum(out, a * b, row[j])
        return out

    def bracket_map(self) -> SkewMultiMap:
        """The bracket as an arity-2 skew map (for bracket computations)."""
        coeffs = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                coeffs[(i, j)] = list(self.c[i][j])
        return SkewMultiMap(2, self.dim, self.dim, coeffs)

    def adjoint(self) -> "LieRep":
        """The adjoint representation, built once and kept on the algebra."""
        if self._adjoint is None:
            self._adjoint = LieRep(self, self.dim, self.c)
        return self._adjoint

    @property
    def is_validated(self):
        return None if self._report is None else self._report.ok

    def require_valid(self):
        if not validate_lie_algebra(self).ok:
            from .errors import InvalidInput

            raise InvalidInput("Lie algebra fails validation")

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.c == other.c


class LieRep:
    """Representation of a LieAlgebra on a coefficient space."""

    __slots__ = ("algebra", "space_dim", "a", "_report", "_stencil")

    def __init__(self, algebra: LieAlgebra, space_dim: int, a):
        self.algebra = algebra
        self.space_dim = space_dim
        if len(a) != algebra.dim or any(len(row) != space_dim for row in a):
            raise MalformedTensor("action tensor does not match the dimensions")
        self.a = [[list(v) for v in row] for row in a]
        for row in self.a:
            for v in row:
                if len(v) != space_dim:
                    raise MalformedTensor("action value has wrong length")
        self._report = self._stencil = None

    @classmethod
    def zero(cls, algebra: LieAlgebra, space_dim: int) -> "LieRep":
        return cls(
            algebra, space_dim,
            [[vzero(space_dim) for _ in range(space_dim)] for _ in range(algebra.dim)],
        )

    @classmethod
    def trivial(cls, algebra: LieAlgebra) -> "LieRep":
        """The one-dimensional trivial coefficients."""
        return cls.zero(algebra, 1)

    def act(self, i: int, v):
        """Action of basis vector e_i on a coefficient vector."""
        return vcombine(v, self.a[i], self.space_dim)

    def act_vec(self, x, v):
        out = vzero(self.space_dim)
        for i, ai in enumerate(x):
            if ai:
                vaccum(out, ai, self.act(i, v))
        return out

    def require_valid(self):
        if not validate_representation(self).ok:
            from .errors import InvalidInput

            raise InvalidInput("representation fails validation")


def jacobiator(t, f, first=False):
    """The Jacobiator {(i, j, k): {l: int}} over i < j < k of a sparse
    bracket table t read through f, None when t is not skew: t[i][j] lists
    (k, x) over the nonzero coordinates x of [e_i, e_j], f maps x to an
    int, and only stored nonzeros are summed.  With ``first`` it ends at
    the first nonzero value, which is all a yes-or-no decision needs."""
    t = [[[(k, y) for k, x in e if (y := f(x))] for e in row] for row in t]
    dim = len(t)
    for i in range(dim):
        if t[i][i] or any(t[j][i] != [(k, -x) for k, x in t[i][j]] for j in range(i)):
            return None
    out = {}
    for i, j, k in combinations(range(dim), 3):
        acc = {}
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in t[p][q]:
                for s, y in t[l][r]:
                    acc[s] = acc.get(s, 0) + x * y
        if any(acc.values()):
            out[(i, j, k)] = {s: y for s, y in acc.items() if y}
            if first:
                break
    return out


def homomorphism_holds(c, d, f) -> bool | None:
    """Whether the ``linalg.Matrix`` f (rows index targets) maps the skew
    bracket table c into the skew table d as a homomorphism: f [e_i, e_j] =
    [f e_i, f e_j] for i < j; None when c or d holds a DualNumber.

    Decided in ints over stored nonzeros: with c, d and f scaled by their
    own least common denominators D_c, D_d and D_f, the law reads
    D_d D_f (f c_ij) = D_c d(f e_i, f e_j), both sides being
    D_c D_d D_f^2 times the two sides of the law.
    """
    s, t = ([[[(k, x) for k, x in enumerate(vec) if x] for vec in row] for row in table]
            for table in (c, d))
    values = [[x for row in table for e in row for _, x in e] for table in (s, t)]
    if any(type(x) is DualNumber for v in values for x in v):
        return None
    dc, dd = common_denominator(values[0]), common_denominator(values[1])
    df, columns = _scaled_columns(f)
    columns = [list(column.items()) for column in columns]
    t = [[[(l, scaled_int(z, dd)) for l, z in e] for e in row] for row in t]
    for i, j in combinations(range(len(s)), 2):
        acc = {}
        for k, x in s[i][j]:
            x = dd * df * scaled_int(x, dc)
            for l, y in columns[k]:
                acc[l] = acc.get(l, 0) + x * y
        for p, x in columns[i]:
            for q, y in columns[j]:
                xy = dc * x * y
                for l, z in t[p][q]:
                    acc[l] = acc.get(l, 0) - xy * z
        if any(acc.values()):
            return False
    return True


def lie_table_holds(c) -> bool:
    """Whether the bracket table c is skew and satisfies the Jacobi identity.

    The Jacobiator Q is quadratic, Q(D c) = D^2 Q(c), so it is decided in
    ints on c times the least common denominator D of its entries.  Over
    k[t]/(t^2), by polarization Q(a + t b) = Q(a) + t [Q(a + b) - Q(a) - Q(b)]:
    a and b must be skew, Q(a) = 0 and Q(a + b) = Q(b).
    """
    t = [[[(k, x) for k, x in enumerate(vec) if x] for vec in row] for row in c]
    values = [x for row in t for e in row for _, x in e]
    if all(type(x) is not DualNumber for x in values):
        scale = common_denominator(values)
        return jacobiator(t, lambda x: scaled_int(x, scale), True) == {}
    values = [DualNumber.promote(x) for x in values]
    scale = common_denominator([x.a for x in values], [x.b for x in values])
    a = lambda x: scaled_int(DualNumber.promote(x).a, scale)  # noqa: E731
    b = lambda x: scaled_int(DualNumber.promote(x).b, scale)  # noqa: E731
    qb = jacobiator(t, b) if jacobiator(t, a, True) == {} else None
    return qb is not None and jacobiator(t, lambda x: a(x) + b(x)) == qb


def bicrossed_table(gc, hc, rho, psi):
    """The bracket table on g + h (g first), from gc and hc over i < j,
    [(x,h),(y,k)] = ([x,y] + psi_h y - psi_k x, [h,k] + rho_x k - rho_y h)."""
    m, n = len(gc), len(hc)
    c = [[vzero(m + n) for _ in range(m + n)] for _ in range(m + n)]
    for i, j, vec in ([(i, j, list(gc[i][j]) + vzero(n)) for i, j in combinations(range(m), 2)]
                      + [(i, m + a, vneg(psi[a][i]) + list(rho[i][a]))
                         for i in range(m) for a in range(n)]
                      + [(m + a, m + b, vzero(m) + list(hc[a][b]))
                         for a, b in combinations(range(n), 2)]):
        c[i][j], c[j][i] = vec, vneg(vec)
    return c


def decided(obj, table, groups, check) -> ValidationReport:
    """obj's report on groups = (subject, check names), decided once and
    kept on obj: it passes when the kernel finds the bracket table
    ``table()`` a Lie algebra; otherwise, or when ``table()`` is None, the
    ring-generic ``check(obj, checks)`` adds the witnesses it finds on obj."""
    if obj._report is None:
        report = ValidationReport.of(*groups)
        t = table()
        if t is None or not lie_table_holds(t):
            check(obj, report.checks)
        obj._report = report
    return obj._report


LIE_GROUPS = ("lie algebra", ("skew-symmetry", "jacobi"))


def validate_lie_algebra(g: LieAlgebra) -> ValidationReport:
    """Check skewness and the Jacobi identity, with basis-triple witnesses;
    the kernel decides g's own table (``decided``)."""
    return decided(g, lambda: g.c, LIE_GROUPS, _lie_algebra_report)


def _lie_algebra_report(g: LieAlgebra, checks):
    skew, jacobi = checks
    for i in range(g.dim):
        for j in range(i, g.dim):
            residual = [a + b for a, b in zip(g.c[i][j], g.c[j][i])]
            if not vis_zero(residual):
                skew.add((i, j), residual)
    for i, j, k in combinations(range(g.dim), 3):
        residual = g.bracket_vec(g.c[i][j], vbasis(g.dim, k))
        vaccum(residual, 1, g.bracket_vec(g.c[j][k], vbasis(g.dim, i)))
        vaccum(residual, 1, g.bracket_vec(g.c[k][i], vbasis(g.dim, j)))
        if not vis_zero(residual):
            jacobi.add((i, j, k), residual)


def validate_representation(r: LieRep) -> ValidationReport:
    """Check the action law rho_{[x,y]} = rho_x rho_y - rho_y rho_x; once g
    is a Lie algebra, the kernel decides g x| V (V abelian, ``decided``)."""
    g, s = r.algebra, r.space_dim
    return decided(r, lambda: bicrossed_table(g.c, zero_tensor((s, s, s)), r.a,
                                              zero_tensor((s, g.dim, g.dim)))
                   if validate_lie_algebra(g).ok else None,
                   ("representation", ("action law",)), _representation_report)


def _representation_report(r: LieRep, checks):
    law, = checks
    g = r.algebra
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            bracket = g.c[i][j]
            for p in range(r.space_dim):
                basis_p = vbasis(r.space_dim, p)
                lhs = r.act_vec(bracket, basis_p)
                rhs = r.act(i, r.act(j, basis_p))
                vaccum(rhs, -1, r.act(j, r.act(i, basis_p)))
                residual = [a - b for a, b in zip(lhs, rhs)]
                if not vis_zero(residual):
                    law.add((i, j, p), residual)


def ce_coboundary(r: LieRep, f: SkewMultiMap, n: int | None = None) -> SkewMultiMap:
    """Coboundary of f in Hom(Lambda^n g, V) for the representation r.

    Runs over the stored keys of f.  A key s meets each index i not in s
    in the output key s + {i}, through x_i . f(s) with the sign
    (-1)^(position of i).  Dropping k from s leaves rest; each bracket
    [x_a, x_b] with a nonzero e_k-coefficient and a, b not in rest meets
    rest in the output key rest + {a, b}, through f([x_a, x_b], rest).
    Terms are summed in the groups the defining formula sums them in (one
    action term, one bracket argument), so every coordinate comes out with
    the same value and scalar type as from that formula.
    """
    g = r.algebra
    if n is None:
        n = f.arity
    if f.arity != n:
        raise ArityMismatch(f"cochain has arity {f.arity}, expected {n}")
    if f.dim != g.dim or f.codim != r.space_dim:
        raise ArityMismatch("cochain spaces do not match the representation")
    s_dim = r.space_dim
    acc = {}

    # x_i . f(s)
    for s, vec in f.coeffs.items():
        for i in range(g.dim):
            if i not in s:
                pos = bisect_left(s, i)
                vaccum_at(acc, s[:pos] + (i,) + s[pos:], -1 if pos % 2 else 1,
                          r.act(i, vec), s_dim)

    # f([x_a, x_b], rest): the stored keys rest + {k}, by rest
    completions = {}
    for s, vec in f.coeffs.items():
        for pos, k in enumerate(s):
            rest = s[:pos] + s[pos + 1:]
            completions.setdefault(rest, []).append((k, -1 if pos % 2 else 1, vec))
    by_output = [[] for _ in range(g.dim)]
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            for k, c in enumerate(g.c[a][b]):
                if c:
                    by_output[k].append((a, b, c))
    for rest, terms in completions.items():
        groups = {}
        for k, sign, vec in terms:
            for a, b, c in by_output[k]:
                if a not in rest and b not in rest:
                    vaccum_at(groups, (a, b), sign * c, vec, s_dim)
        for (a, b), vec in groups.items():
            pa, pb = bisect_left(rest, a), bisect_left(rest, b) + 1
            vaccum_at(acc, tuple(sorted(rest + (a, b))), -1 if (pa + pb) % 2 else 1,
                      vec, s_dim)
    return SkewMultiMap.from_canonical(
        n + 1, g.dim, s_dim,
        {key: acc[key] for key in sorted(acc) if not vis_zero(acc[key])})


def ce_basis(dim: int, space_dim: int, n: int):
    """Ordered monomial basis of Hom(Lambda^n g, V): (tuple, codomain index)."""
    return [
        (key, p)
        for key in combinations(range(dim), n)
        for p in range(space_dim)
    ]


def ce_matrix(r: LieRep, n: int) -> Matrix:
    """Matrix of the degree-n coboundary in the monomial basis: the stencil
    of r (``stencil.ce_stencil``), kept in integer form with the least
    common denominator D of its constants."""
    # imported here: a process that loads lie only to validate does not
    # compile the stencil
    from .stencil import ce_stencil, ce_tables, drop_zeros

    require_degree(n)
    dim, s = r.algebra.dim, r.space_dim
    bracket, action, scale = ce_tables(r)
    columns = ce_stencil(dim, bracket, action, s, n)
    return Matrix.from_integer_columns(comb(dim, n + 1) * s, len(columns), scale,
                                       drop_zeros(columns))


def ce_cohomology_dims(r: LieRep, max_degree: int) -> list[int]:
    """Dimensions of H^0 .. H^max_degree for the representation r."""
    return cohomology_dims(lambda n: ce_matrix(r, n), max_degree)


@lru_cache(maxsize=None)
def wedge_basis(dim: int, q: int):
    """Increasing q-tuples indexing the basis of Lambda^q(k^dim)."""
    return tuple(combinations(range(dim), q))


def wedge_rep(g: LieAlgebra, q: int) -> LieRep:
    """The coefficients Lambda^q g with x . (y_1 ^ .. ^ y_q) = sum y_1 ^ .. [x, y_t] .. ^ y_q."""
    basis = wedge_basis(g.dim, q)
    position = {key: t for t, key in enumerate(basis)}
    space_dim = comb(g.dim, q)
    a = [[vzero(space_dim) for _ in range(space_dim)] for _ in range(g.dim)]
    for i in range(g.dim):
        for p, key in enumerate(basis):
            out = a[i][p]
            for slot in range(q):
                bracket = g.c[i][key[slot]]
                for k, ck in enumerate(bracket):
                    if not ck:
                        continue
                    new = key[:slot] + (k,) + key[slot + 1:]
                    sign, sorted_key = sort_sign(new)
                    if sign == 0:
                        continue
                    out[position[sorted_key]] += sign * ck
    return LieRep(g, space_dim, a)


__all__ = [
    "LieAlgebra",
    "LieRep",
    "validate_lie_algebra",
    "validate_representation",
    "ce_coboundary",
    "ce_basis",
    "ce_matrix",
    "ce_cohomology_dims",
    "wedge_basis",
    "wedge_rep",
    "nr_bracket",
    "SkewMultiMap",
]
