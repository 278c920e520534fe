"""Matched pairs of Lie algebras: axioms, bicrossed product, morphisms,
weight-1 operator pairs, and the bialgebra bridge.

A matched pair is a quadruple (g, h, rho, psi): rho is an action of g on
the space of h, psi an action of h on the space of g, and the two mixed
compatibilities hold:

  (11)  rho_x [h,k] = [rho_x h, k] + [h, rho_x k] + rho_{psi_k x} h - rho_{psi_h x} k
  (22)  psi_h [x,y] = [psi_h x, y] + [x, psi_h y] + psi_{rho_y h} x - psi_{rho_x h} y

The validator reports six axiom groups (two Jacobi, two action laws, the
two compatibilities); the tags (11) and (22) are this tool's axiom-group
numbering, documented in the README.  (22) is (11) for the flipped pair
(h, g, psi, rho), and the validator computes it that way.  All checks are
ring-generic so they also run over k[t]/(t^2) for first-order
perturbation tests.  ``check_morphism`` asks the integer kernel
``lie.homomorphism_holds`` whether the two maps, as one map on g + h, are
a homomorphism between the two pairs' g |x| h tables.

The pair of a weight-1 operator, its diagonal and graph in g + g, is
written in closed form (``rota_baxter_matched_pair``).
"""

from __future__ import annotations

from itertools import combinations

from .errors import DimensionMismatch, InvalidInput, MalformedTensor, NotRotaBaxter
from .lie import (LIE_GROUPS, LieAlgebra, LieRep, _representation_report, bicrossed_table,
                  ce_coboundary, checked_tensor, decided, dense_tensor, dual_action,
                  homomorphism_holds, validate_lie_algebra, wedge_basis, wedge_rep)
from .linalg import Matrix, rank
from .multimap import SkewMultiMap
from .report import ValidationReport
from .scalars import vaccum, vbasis, vcombine, vis_zero, vzero


class MatchedPair:
    """Two Lie algebras with mutual actions; constructible unvalidated."""

    __slots__ = ("g", "h", "rho", "psi", "_report", "_bicrossed", "_adjoint", "_structure",
                 "_insertion")

    def __init__(self, g: LieAlgebra, h: LieAlgebra, rho, psi):
        self.g = g
        self.h = h
        self.rho = checked_tensor(rho, (g.dim, h.dim, h.dim), "rho")
        self.psi = checked_tensor(psi, (h.dim, g.dim, g.dim), "psi")
        self._report = self._bicrossed = self._adjoint = self._structure = None
        self._insertion = None

    @classmethod
    def from_sparse(cls, g: LieAlgebra, h: LieAlgebra, rho=None, psi=None):
        return cls(
            g, h,
            dense_tensor((g.dim, h.dim, h.dim), rho, "rho"),
            dense_tensor((h.dim, g.dim, g.dim), psi, "psi"),
        )

    @property
    def dim_g(self):
        return self.g.dim

    @property
    def dim_h(self):
        return self.h.dim

    def rho_act(self, i: int, h_vec):
        return vcombine(h_vec, self.rho[i], self.dim_h)

    def rho_vec(self, x_vec, h_vec):
        images = [self.rho_act(i, h_vec) if c else None for i, c in enumerate(x_vec)]
        return vcombine(x_vec, images, self.dim_h)

    def psi_act(self, a: int, x_vec):
        return vcombine(x_vec, self.psi[a], self.dim_g)

    def psi_vec(self, h_vec, x_vec):
        images = [self.psi_act(a, x_vec) if c else None for a, c in enumerate(h_vec)]
        return vcombine(h_vec, images, self.dim_g)

    def flipped(self) -> "MatchedPair":
        """The same pair with the two sides exchanged: (h, g, psi, rho)."""
        return MatchedPair(self.h, self.g, self.psi, self.rho)

    def rho_rep(self) -> LieRep:
        return LieRep(self.g, self.dim_h, [[list(v) for v in row] for row in self.rho])

    def psi_rep(self) -> LieRep:
        return LieRep(self.h, self.dim_g, [[list(v) for v in row] for row in self.psi])

    @property
    def is_validated(self):
        return None if self._report is None else self._report.ok

    def require_valid(self):
        if not validate_matched_pair(self).ok:
            raise InvalidInput("matched pair fails validation")

    def __eq__(self, other):
        if not isinstance(other, MatchedPair):
            return NotImplemented
        return (
            self.g == other.g and self.h == other.h
            and self.rho == other.rho and self.psi == other.psi
        )


PAIR_GROUPS = ("matched pair", ("jacobi(g)", "jacobi(h)", "representation(rho)",
                                "representation(psi)", "compat(11)", "compat(22)"))


def validate_matched_pair(mp: MatchedPair) -> ValidationReport:
    """Full axiom check with witnesses, grouped as in the module docstring.

    g |x| h is a Lie algebra exactly when mp is a matched pair (Majid), so
    once g and h are Lie algebras the kernel decides the table of g |x| h
    (``lie.decided``), and keeps that algebra on mp for ``bicrossed_product``.
    """
    return decided(mp, lambda: _bicrossed(mp).c if validate_lie_algebra(mp.g).ok
                   and validate_lie_algebra(mp.h).ok else None,
                   PAIR_GROUPS, _matched_pair_report)


def _bicrossed(mp: MatchedPair) -> LieAlgebra:
    if mp._bicrossed is None:
        mp._bicrossed = LieAlgebra(mp.dim_g + mp.dim_h,
                                   bicrossed_table(mp.g.c, mp.h.c, mp.rho, mp.psi))
    return mp._bicrossed


def _matched_pair_report(mp: MatchedPair, checks):
    """The ring-generic witnesses: those of g and h (decided on them), of the
    action-law formula for rho and psi, and of the two compatibilities."""
    for check, algebra in zip(checks, (mp.g, mp.h)):
        for c in validate_lie_algebra(algebra).checks:
            check.witnesses.extend(c.witnesses)
    _representation_report(mp.rho_rep(), checks[2:3])
    _representation_report(mp.psi_rep(), checks[3:4])
    _compat_11(mp, checks[4])
    _compat_11(mp.flipped(), checks[5])


def _compat_11(mp: MatchedPair, check):
    """Witnesses (i, a, b) of compat(11); on the flipped pair these are the
    witnesses (a, i, j) of compat(22)."""
    m, n, hc = mp.dim_g, mp.dim_h, mp.h.c
    # [u, h_b] and rho(u) h_a of a vector u, columns b and a read once
    brackets = [[hc[c][b] for c in range(n)] for b in range(n)]
    actions = [[mp.rho[k][a] for k in range(m)] for a in range(n)]
    for i in range(m):
        for a, b in combinations(range(n), 2):
            lhs = mp.rho_act(i, hc[a][b])
            rhs = vcombine(mp.rho[i][a], brackets[b], n)
            vaccum(rhs, 1, vcombine(mp.rho[i][b], hc[a], n))
            vaccum(rhs, 1, vcombine(mp.psi[b][i], actions[a], n))
            vaccum(rhs, -1, vcombine(mp.psi[a][i], actions[b], n))
            residual = [x - y for x, y in zip(lhs, rhs)]
            if not vis_zero(residual):
                check.add((i, a, b), residual)


def bicrossed_product(mp: MatchedPair) -> LieAlgebra:
    """The Lie algebra g |x| h on g + h (``lie.bicrossed_table``), built once,
    when mp is validated, and decided with mp; later calls return the same
    algebra."""
    mp.require_valid()
    big = _bicrossed(mp)
    if big._report is None:  # a Lie algebra, since mp is a matched pair
        big._report = ValidationReport.of(*LIE_GROUPS)
    return big


class MPMorphism:
    """A pair of linear maps f: g -> g' and g_map: h -> h' (rows index targets)."""

    __slots__ = ("f", "g_map")

    def __init__(self, f: Matrix, g_map: Matrix):
        self.f = f
        self.g_map = g_map

    @classmethod
    def identity(cls, mp: MatchedPair) -> "MPMorphism":
        return cls(Matrix.identity(mp.dim_g), Matrix.identity(mp.dim_h))


def _is_hom(alg_src: LieAlgebra, alg_dst: LieAlgebra, f, check, label):
    for i in range(alg_src.dim):
        for j in range(i + 1, alg_src.dim):
            lhs = f.mul_vec(alg_src.c[i][j])
            rhs = alg_dst.bracket_vec(f.column(i), f.column(j))
            residual = [x - y for x, y in zip(lhs, rhs)]
            if not vis_zero(residual):
                check.add((label, i, j), residual)


MORPHISM_GROUPS = ("matched-pair morphism",
                   ("homomorphism(f)", "homomorphism(g)", "intertwine(rho)", "intertwine(psi)",
                    "combined-product homomorphism"))


def check_morphism(src: MatchedPair, dst: MatchedPair, phi: MPMorphism) -> ValidationReport:
    """Homomorphism + intertwining checks, plus the equivalent combined-product criterion.

    (f, g) is a morphism exactly when f + g is a homomorphism between the
    g |x| h tables the validated pairs keep, which the integer kernel
    ``lie.homomorphism_holds`` decides; when it does not hold, or over
    k[t]/(t^2), the ring-generic checks run on the inputs for witnesses.
    """
    src.require_valid()
    dst.require_valid()
    f, gm = phi.f, phi.g_map
    if f.cols != src.dim_g or f.rows != dst.dim_g:
        raise DimensionMismatch("f has the wrong shape")
    if gm.cols != src.dim_h or gm.rows != dst.dim_h:
        raise DimensionMismatch("g_map has the wrong shape")
    shift = src.dim_g
    blocks = Matrix.from_sparse(
        dst.dim_g + dst.dim_h, src.dim_g + src.dim_h,
        f.data + [{shift + b: x for b, x in row.items()} for row in gm.data],
    )
    if homomorphism_holds(_bicrossed(src).c, _bicrossed(dst).c, blocks):
        return ValidationReport.of(*MORPHISM_GROUPS)
    return _morphism_report(src, dst, f, gm, blocks)


def _morphism_report(src: MatchedPair, dst: MatchedPair, f, gm, blocks) -> ValidationReport:
    """The ring-generic checks of ``check_morphism``; blocks is the two maps
    as one on g + h."""
    report = ValidationReport.of(*MORPHISM_GROUPS)
    hom_f, hom_g, inter_rho, inter_psi, combined = report.checks
    _is_hom(src.g, dst.g, f, hom_f, "g")
    _is_hom(src.h, dst.h, gm, hom_g, "h")

    for i in range(src.dim_g):
        for a in range(src.dim_h):
            lhs = gm.mul_vec(src.rho[i][a])
            rhs = dst.rho_vec(f.column(i), gm.column(a))
            residual = [x - y for x, y in zip(lhs, rhs)]
            if not vis_zero(residual):
                inter_rho.add((i, a), residual)

    for a in range(src.dim_h):
        for i in range(src.dim_g):
            lhs = f.mul_vec(src.psi[a][i])
            rhs = dst.psi_vec(gm.column(a), f.column(i))
            residual = [x - y for x, y in zip(lhs, rhs)]
            if not vis_zero(residual):
                inter_psi.add((a, i), residual)

    _is_hom(bicrossed_product(src), bicrossed_product(dst), blocks, combined, "g+h")
    return report


def rota_baxter_matched_pair(g: LieAlgebra, r_matrix: Matrix) -> MatchedPair:
    """Matched pair carried by the diagonal and the graph of a weight-1 operator.

    R must satisfy [Rx, Ry] = R c_R(x, y), where c_R(x, y) = [Rx, y] + [x, Ry]
    + [x, y]; then inside the direct product g + g the diagonal {(x, x)} and
    the graph {(Rx, x + Rx)} are complementary subalgebras.  In their bases
    (e_i, e_i) and (R e_a, e_a + R e_a) the pair has a closed form:

      * the diagonal is g itself;
      * [(Rx, x + Rx), (Ry, y + Ry)] = (Rz, z + Rz) with z = c_R(x, y), so
        the graph carries the bracket c_R;
      * (x, x) . (Ry, y + Ry) = (u, u) + (Rv, v + Rv) with v = [x, y] and
        u = [x, Ry] - R[x, y], so rho_x y = [x, y] and
        psi_y x = R[x, y] - [x, Ry].

    The weight-1 identity is checked on basis pairs i < j, and the pair is
    validated before it is returned.
    """
    g.require_valid()
    m = g.dim
    if r_matrix.rows != m or r_matrix.cols != m:
        raise DimensionMismatch("operator matrix must be square of the algebra dimension")
    columns = [r_matrix.column(i) for i in range(m)]
    c_r = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            inner = g.bracket_vec(columns[i], vbasis(m, j))
            vaccum(inner, 1, g.bracket_vec(vbasis(m, i), columns[j]))
            vaccum(inner, 1, g.c[i][j])
            c_r[i][j] = inner
    for i, j in combinations(range(m), 2):
        lhs = g.bracket_vec(columns[i], columns[j])
        rhs = r_matrix.mul_vec(c_r[i][j])
        residual = [x - y for x, y in zip(lhs, rhs)]
        if not vis_zero(residual):
            raise NotRotaBaxter(
                f"weight-1 identity fails at basis pair ({i}, {j})",
                witness=(i, j, residual),
            )
    psi = [[r_matrix.mul_vec(g.c[i][a]) for i in range(m)] for a in range(m)]
    for a in range(m):
        for i in range(m):
            vaccum(psi[a][i], -1, g.bracket_vec(vbasis(m, i), columns[a]))
    pair = MatchedPair(g, LieAlgebra(m, c_r), g.c, psi)
    pair.require_valid()
    return pair


def rota_baxter_splitting_rank(g: LieAlgebra, r_matrix: Matrix) -> int:
    """Rank of the joint (diagonal | graph) basis matrix inside g + g."""
    m = g.dim
    columns = [vbasis(m, i) + vbasis(m, i) for i in range(m)]
    for a in range(m):
        ra = r_matrix.column(a)
        columns.append(list(ra) + [x + y for x, y in zip(vbasis(m, a), ra)])
    return rank(Matrix.from_columns(columns))


class LieBialgebra:
    """A Lie algebra with a cobracket delta: g -> Lambda^2 g.

    cobracket[k] is a {(i, j): coefficient} dict over i < j, meaning
    delta(e_k) = sum coeff * e_i ^ e_j.  The dual bracket it induces is
    [t^a, t^b]* = sum_k cobracket[k][(a, b)] t^k.
    """

    __slots__ = ("g", "cobracket", "_report", "_double", "_dual", "_wedge", "_trivial")

    def __init__(self, g: LieAlgebra, cobracket):
        self.g = g
        if len(cobracket) != g.dim:
            raise MalformedTensor("cobracket must have one entry per basis vector")
        self.cobracket = []
        for k, table in enumerate(cobracket):
            clean = {}
            for (i, j), coeff in dict(table).items():
                if not (0 <= i < j < g.dim):
                    raise MalformedTensor(
                        f"cobracket[{k}]: key ({i}, {j}) must satisfy 0 <= i < j < dim"
                    )
                if coeff:
                    clean[(i, j)] = coeff
            self.cobracket.append(clean)
        self._report = self._double = self._dual = self._trivial = None
        self._wedge = {}

    def dual_algebra(self) -> LieAlgebra:
        """The Lie algebra on the dual space, built once and kept."""
        if self._dual is None:
            m = self.g.dim
            c = [[vzero(m) for _ in range(m)] for _ in range(m)]
            for k, table in enumerate(self.cobracket):
                for (a, b), coeff in table.items():
                    c[a][b][k] = c[a][b][k] + coeff
                    c[b][a][k] = c[b][a][k] - coeff
            self._dual = LieAlgebra(m, c)
        return self._dual

    def wedge_module(self, q: int, dual: bool = False) -> LieRep:
        """``wedge_rep`` of g, or of the dual algebra, on its q-th exterior
        power, built once and kept."""
        rep = self._wedge.get((q, dual))
        if rep is None:
            rep = self._wedge[(q, dual)] = wedge_rep(self.dual_algebra() if dual else self.g, q)
        return rep

    def cobracket_map(self) -> SkewMultiMap:
        """delta as an arity-1 map into the wedge-square coefficients."""
        m = self.g.dim
        basis = wedge_basis(m, 2)
        position = {key: t for t, key in enumerate(basis)}
        coeffs = {}
        for k, table in enumerate(self.cobracket):
            vec = vzero(len(basis))
            for key, coeff in table.items():
                vec[position[key]] = coeff
            if not vis_zero(vec):
                coeffs[(k,)] = vec
        return SkewMultiMap(1, m, len(basis), coeffs)


BIALGEBRA_GROUPS = ("lie bialgebra", ("jacobi(g)", "jacobi(dual)", "cobracket 1-cocycle"))


def validate_bialgebra(b: LieBialgebra) -> ValidationReport:
    """Jacobi for g and for the dual bracket, plus the cocycle law for delta.
    Once g and its dual are Lie algebras, delta is a 1-cocycle exactly when
    the table of the double ``_double(b)`` is a Lie algebra (Majid), which
    the kernel decides (``lie.decided``); the report is kept on b."""
    return decided(b, lambda: _bicrossed(_double(b)).c if validate_lie_algebra(b.g).ok
                   and validate_lie_algebra(b.dual_algebra()).ok else None,
                   BIALGEBRA_GROUPS, _bialgebra_report)


def _bialgebra_report(b: LieBialgebra, checks):
    jac_g, jac_dual, cocycle = checks
    for check, report in ((jac_g, validate_lie_algebra(b.g)),
                          (jac_dual, validate_lie_algebra(b.dual_algebra()))):
        for c in report.checks:
            check.witnesses.extend(c.witnesses)
    if jac_g.ok:
        image = ce_coboundary(b.wedge_module(2), b.cobracket_map(), 1)
        for key, vec in sorted(image.coeffs.items()):
            cocycle.add(key, vec)


def _double(b: LieBialgebra) -> MatchedPair:
    """The pair (g, dual of g) with both actions dual to the adjoint ones,
    built once, unvalidated, and kept on b.

    The action of x on a covector q is (x . q)(y) = -q([x, y]); the action
    of a covector on g is dual to the adjoint action of the dual algebra
    (``lie.dual_action`` of both bracket tables).
    """
    if b._double is None:
        dual = b.dual_algebra()
        b._double = MatchedPair(b.g, dual, dual_action(b.g.c), dual_action(dual.c))
    return b._double


def bialgebra_to_matched_pair(b: LieBialgebra) -> MatchedPair:
    """The double ``_double(b)`` of a validated bialgebra.  It carries the
    verdict of ``validate_bialgebra``, as ``bicrossed_product`` does, so it
    is not validated a second time; later calls return the same pair."""
    pair = _double(b)
    if not pair.is_validated:
        if not validate_bialgebra(b).ok:
            raise InvalidInput("bialgebra fails validation")
        pair._report = ValidationReport.of(*PAIR_GROUPS)
    return pair
