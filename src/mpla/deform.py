"""First-order deformations and abelian extensions of a matched pair.

A deformation candidate is a quadruple (mu1, nu1, rho1, psi1) of bilinear
perturbations.  It deforms the structure to first order exactly when the
packaged degree-2 cochain (mu1 x rho1, psi1 x nu1) is closed; the second,
independent route checks every matched-pair axiom over the truncated
ring k[t]/(t^2) by reusing the generic validators on DualNumber scalars.

An abelian extension of (g, h) by a representation (V, W) is a matched
pair on (g + V, h + W) whose fiber blocks are abelian ideals and whose
block projection is a morphism; closed degree-2 cochains with
coefficients in (V, W) classify them up to the block-triangular
isomorphisms implemented in ``extension_isomorphism_check``.

Closedness, in the cocycle route and in ``cocycle_to_extension``, is
decided in ints by ``stencil._is_closed``: the stencil columns of delta at
the stored keys of the cochain, times its coordinates scaled to ints.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import MPCochain, delta_mpl_coeff
from .errors import (DimensionMismatch, InvalidInput, MalformedTensor,
                     NotACocycle, NotASection, ShapeMismatch)
from .lie import LieAlgebra, checked_tensor, dense_tensor
from .linalg import Matrix
from .matched import MatchedPair, MPMorphism, check_morphism, validate_matched_pair
from .report import Record, ValidationReport
from .reps import MPRepresentation, adjoint_representation, semidirect_tensors
from .scalars import DualNumber, vaccum, vbasis, vis_zero, vneg, vzero
from .stencil import _is_closed


class DeformationCandidate:
    """Dense first-order perturbation tensors; mu1, nu1 skew."""

    __slots__ = ("mu1", "nu1", "rho1", "psi1", "dim_g", "dim_h")

    def __init__(self, dim_g, dim_h, mu1, nu1, rho1, psi1):
        self.dim_g = dim_g
        self.dim_h = dim_h
        self.mu1 = checked_tensor(mu1, (dim_g, dim_g, dim_g), "mu1")
        self.nu1 = checked_tensor(nu1, (dim_h, dim_h, dim_h), "nu1")
        self.rho1 = checked_tensor(rho1, (dim_g, dim_h, dim_h), "rho1")
        self.psi1 = checked_tensor(psi1, (dim_h, dim_g, dim_g), "psi1")
        for i in range(dim_g):
            for j in range(dim_g):
                if not vis_zero([a + b for a, b in zip(self.mu1[i][j], self.mu1[j][i])]):
                    raise MalformedTensor("mu1 is not skew-symmetric")
        for a in range(dim_h):
            for b in range(dim_h):
                if not vis_zero([x + y for x, y in zip(self.nu1[a][b], self.nu1[b][a])]):
                    raise MalformedTensor("nu1 is not skew-symmetric")

    @classmethod
    def from_sparse(cls, dim_g, dim_h, mu1=None, nu1=None, rho1=None, psi1=None):
        m, n = dim_g, dim_h
        return cls(m, n, dense_tensor((m, m, m), mu1, "mu1", skew=2),
                   dense_tensor((n, n, n), nu1, "nu1", skew=2),
                   dense_tensor((m, n, n), rho1, "rho1"), dense_tensor((n, m, m), psi1, "psi1"))

    @classmethod
    def zero(cls, mp: MatchedPair):
        return cls.from_sparse(mp.dim_g, mp.dim_h)


def candidate_to_cochain(mp: MatchedPair, d: DeformationCandidate) -> MPCochain:
    """(mu1 x rho1, psi1 x nu1) as a degree-2 adjoint-coefficient cochain.

    In bidegree coordinates the psi block enters with a minus sign, matching
    the packaging of the structure element itself.
    """
    m, n = mp.dim_g, mp.dim_h
    if (d.dim_g, d.dim_h) != (m, n):
        raise DimensionMismatch("candidate does not match the pair dimensions")
    F = MPCochain(2, m, n, m, n)
    f1 = F.component(1)
    for i in range(m):
        for j in range(i + 1, m):
            if not vis_zero(d.mu1[i][j]):
                f1.part_v[((i, j), ())] = list(d.mu1[i][j])
        for a in range(n):
            if not vis_zero(d.rho1[i][a]):
                f1.part_w[((i,), (a,))] = list(d.rho1[i][a])
    f2 = F.component(2)
    for a in range(n):
        for b in range(a + 1, n):
            if not vis_zero(d.nu1[a][b]):
                f2.part_w[((), (a, b))] = list(d.nu1[a][b])
        for i in range(m):
            if not vis_zero(d.psi1[a][i]):
                f2.part_v[((i,), (a,))] = vneg(d.psi1[a][i])
    return F


def cochain_to_candidate(F: MPCochain) -> DeformationCandidate:
    """Inverse of ``candidate_to_cochain`` on degree-2 adjoint cochains."""
    if F.degree != 2 or (F.dim_v, F.dim_w) != (F.dim_g, F.dim_h):
        raise ShapeMismatch("expected a degree-2 adjoint-coefficient cochain")
    m, n = F.dim_g, F.dim_h
    mu1 = [[vzero(m) for _ in range(m)] for _ in range(m)]
    rho1 = [[vzero(n) for _ in range(n)] for _ in range(m)]
    nu1 = [[vzero(n) for _ in range(n)] for _ in range(n)]
    psi1 = [[vzero(m) for _ in range(m)] for _ in range(n)]
    f1, f2 = F.component(1), F.component(2)
    for (gi, hj), vec in f1.part_v.items():
        i, j = gi
        mu1[i][j] = list(vec)
        mu1[j][i] = vneg(vec)
    for (gi, hj), vec in f1.part_w.items():
        rho1[gi[0]][hj[0]] = list(vec)
    for (gi, hj), vec in f2.part_w.items():
        a, b = hj
        nu1[a][b] = list(vec)
        nu1[b][a] = vneg(vec)
    for (gi, hj), vec in f2.part_v.items():
        psi1[hj[0]][gi[0]] = vneg(vec)
    return DeformationCandidate(m, n, mu1, nu1, rho1, psi1)


def deformed_matched_pair(mp: MatchedPair, d: DeformationCandidate) -> MatchedPair:
    """The perturbed quadruple over k[t]/(t^2), entries a + b*t."""
    m, n = mp.dim_g, mp.dim_h

    def dualize(base, first):
        return [
            [
                [DualNumber(base[i][j][k], first[i][j][k]) for k in range(len(base[i][j]))]
                for j in range(len(base[i]))
            ]
            for i in range(len(base))
        ]

    g_t = LieAlgebra(m, dualize(mp.g.c, d.mu1))
    h_t = LieAlgebra(n, dualize(mp.h.c, d.nu1))
    rho_t = dualize(mp.rho, d.rho1)
    psi_t = dualize(mp.psi, d.psi1)
    return MatchedPair(g_t, h_t, rho_t, psi_t)


class DeformReport(Record):
    __slots__ = ("cocycle_route", "ring_route")

    def __init__(self, cocycle_route: ValidationReport, ring_route: ValidationReport):
        self.cocycle_route = cocycle_route
        self.ring_route = ring_route

    @property
    def agree(self) -> bool:
        return self.cocycle_route.ok == self.ring_route.ok

    @property
    def is_deformation(self) -> bool:
        return self.cocycle_route.ok and self.ring_route.ok

    def lines(self):
        out = [
            f"cocycle route: {'closed' if self.cocycle_route.ok else 'not closed'}",
            f"truncated-ring route: "
            f"{'all axioms hold' if self.ring_route.ok else 'axioms fail'}",
            f"routes agree: {'yes' if self.agree else 'NO'}",
            f"infinitesimal deformation: {'yes' if self.is_deformation else 'no'}",
        ]
        if not self.ring_route.ok:
            for c in self.ring_route.failed_checks():
                out.append(f"  ring route fails {c.name} "
                           f"({len(c.witnesses)} witnesses)")
        return out


def deformation_check(mp: MatchedPair, d: DeformationCandidate) -> DeformReport:
    """Two independent verdicts on a candidate; they provably agree.

    The cocycle route decides closedness in ints (``_is_closed``); a
    cochain that is not closed is run again on the inputs, whose scalar
    types its witnesses show."""
    mp.require_valid()
    cocycle = ValidationReport("degree-2 cochain closed")
    check = cocycle.new_check("coboundary vanishes")
    rep, F = adjoint_representation(mp), candidate_to_cochain(mp, d)
    if not _is_closed(mp, rep, F):
        image = delta_mpl_coeff(mp, rep, F)
        for r in range(1, image.degree + 1):
            part = image.component(r)
            for key, vec in sorted(part.part_v.items()):
                check.add(("V", r) + key, vec)
            for key, vec in sorted(part.part_w.items()):
                check.add(("W", r) + key, vec)
    ring = validate_matched_pair(deformed_matched_pair(mp, d))
    return DeformReport(cocycle, ring)


def deformation_equiv_check(mp: MatchedPair, d: DeformationCandidate,
                            d2: DeformationCandidate, f: Matrix,
                            g_map: Matrix) -> ValidationReport:
    """Is (id + t f, id + t g) an equivalence from the d-deformation to d2's?

    Checks the four displayed first-order identities directly, then the
    coboundary identity (difference of packaged cochains equals the
    coboundary of the degree-1 cochain (f, g)); both routes must agree.
    """
    mp.require_valid()
    m, n = mp.dim_g, mp.dim_h
    if f.rows != m or f.cols != m or g_map.rows != n or g_map.cols != n:
        raise DimensionMismatch("equivalence maps must be square of the right sizes")
    report = ValidationReport("deformation equivalence")

    # mu1 - mu1' = [x, f(y)] - f([x, y]) + [f(x), y]
    check = report.new_check("bracket(g) transport")
    for i in range(m):
        for j in range(i + 1, m):
            lhs = [a - b for a, b in zip(d.mu1[i][j], d2.mu1[i][j])]
            rhs = mp.g.bracket_vec(vbasis(m, i), f.column(j))
            vaccum(rhs, -1, f.mul_vec(mp.g.c[i][j]))
            vaccum(rhs, 1, mp.g.bracket_vec(f.column(i), vbasis(m, j)))
            res = [x - y for x, y in zip(lhs, rhs)]
            if not vis_zero(res):
                check.add((i, j), res)

    check = report.new_check("bracket(h) transport")
    for a in range(n):
        for b in range(a + 1, n):
            lhs = [x - y for x, y in zip(d.nu1[a][b], d2.nu1[a][b])]
            rhs = mp.h.bracket_vec(vbasis(n, a), g_map.column(b))
            vaccum(rhs, -1, g_map.mul_vec(mp.h.c[a][b]))
            vaccum(rhs, 1, mp.h.bracket_vec(g_map.column(a), vbasis(n, b)))
            res = [x - y for x, y in zip(lhs, rhs)]
            if not vis_zero(res):
                check.add((a, b), res)

    # rho1 - rho1' = rho_x g(h) - g(rho_x h) + rho_{f(x)} h
    check = report.new_check("action(rho) transport")
    for i in range(m):
        for a in range(n):
            lhs = [x - y for x, y in zip(d.rho1[i][a], d2.rho1[i][a])]
            rhs = mp.rho_act(i, g_map.column(a))
            vaccum(rhs, -1, g_map.mul_vec(mp.rho[i][a]))
            vaccum(rhs, 1, mp.rho_vec(f.column(i), vbasis(n, a)))
            res = [x - y for x, y in zip(lhs, rhs)]
            if not vis_zero(res):
                check.add((i, a), res)

    check = report.new_check("action(psi) transport")
    for a in range(n):
        for i in range(m):
            lhs = [x - y for x, y in zip(d.psi1[a][i], d2.psi1[a][i])]
            rhs = mp.psi_act(a, f.column(i))
            vaccum(rhs, -1, f.mul_vec(mp.psi[a][i]))
            vaccum(rhs, 1, mp.psi_vec(g_map.column(a), vbasis(m, i)))
            res = [x - y for x, y in zip(lhs, rhs)]
            if not vis_zero(res):
                check.add((a, i), res)

    direct_ok = report.ok

    # coboundary route: cochain(d) - cochain(d2) = delta((f, g))
    check = report.new_check("coboundary identity")
    one = MPCochain(1, m, n, m, n)
    part = one.component(1)
    for i in range(m):
        col = f.column(i)
        if not vis_zero(col):
            part.part_v[((i,), ())] = col
    for a in range(n):
        col = g_map.column(a)
        if not vis_zero(col):
            part.part_w[((), (a,))] = col
    diff = candidate_to_cochain(mp, d) - candidate_to_cochain(mp, d2)
    image = delta_mpl_coeff(mp, adjoint_representation(mp), one)
    residual = diff - image
    for r in range(1, 3):
        p = residual.component(r)
        for key, vec in sorted(p.part_v.items()):
            check.add(("V", r) + key, vec)
        for key, vec in sorted(p.part_w.items()):
            check.add(("W", r) + key, vec)

    agree = report.new_check("routes agree")
    if direct_ok != check.ok:
        agree.add(("direct", direct_ok, "coboundary", check.ok), 1)
    return report


# -- abelian extensions ------------------------------------------------------


class AbelianExtension(Record):
    """A matched pair on (g + V, h + W) in block coordinates."""

    __slots__ = ("total", "base", "rep", "split")

    def __init__(self, total: MatchedPair, base: MatchedPair, rep: MPRepresentation,
                 split: tuple):
        self.total = total
        self.base = base
        self.rep = rep
        self.split = split  # (m, p, n, q)

    @property
    def dims(self):
        return self.split


def canonical_sections(split) -> tuple[Matrix, Matrix]:
    m, p, n, q = split
    return _block_identity(m + p, m), _block_identity(n + q, n)


def _block_identity(rows: int, cols: int) -> Matrix:
    """The rows x cols matrix with ones on the diagonal and zeros elsewhere."""
    return Matrix.from_sparse(rows, cols,
                              [{i: Fraction(1)} if i < cols else {} for i in range(rows)])


def cocycle_to_extension(mp: MatchedPair, rep: MPRepresentation,
                         F: MPCochain) -> AbelianExtension:
    """Build the block extension from a closed degree-2 cochain.

    Brackets and actions on the blocks:
      [(x,u),(y,v)] = ([x,y], rho_V(x)v - rho_V(y)u + F1(x,y)),
      [(h,w),(k,w')] = ([h,k], psi_W(h)w' - psi_W(k)w + F2(h,k)),
      (x,u) . (h,w) = (rho_x h, rho_W(x)w + alpha_u h + F1(x,h)),
      (h,w) . (x,u) = (psi_h x, psi_V(h)u + beta_w x - F2(x,h)).
    """
    mp.require_valid()
    rep.require_valid()
    if F.degree != 2 or (F.dim_v, F.dim_w) != rep.dims:
        raise ShapeMismatch("need a degree-2 cochain with coefficients in the representation")
    if not _is_closed(mp, rep, F):
        raise NotACocycle("the degree-2 cochain is not closed")
    m, n = mp.dim_g, mp.dim_h
    p, q = rep.dims
    f1, f2 = F.component(1), F.component(2)

    big_g, big_h, big_rho, big_psi = semidirect_tensors(rep)
    # graft the cocycle blocks onto the semidirect skeleton
    for i in range(m):
        for j in range(i + 1, m):
            vec = f1.part_v.get(((i, j), ()))
            if vec is not None:
                for u, c in enumerate(vec):
                    big_g[i][j][m + u] += c
                    big_g[j][i][m + u] -= c
        for a in range(n):
            vec = f1.part_w.get(((i,), (a,)))
            if vec is not None:
                for w, c in enumerate(vec):
                    big_rho[i][a][n + w] += c
            vec = f2.part_v.get(((i,), (a,)))
            if vec is not None:
                for u, c in enumerate(vec):
                    big_psi[a][i][m + u] -= c
    for a in range(n):
        for b in range(a + 1, n):
            vec = f2.part_w.get(((), (a, b)))
            if vec is not None:
                for w, c in enumerate(vec):
                    big_h[a][b][n + w] += c
                    big_h[b][a][n + w] -= c
    total = MatchedPair(LieAlgebra(m + p, big_g), LieAlgebra(n + q, big_h), big_rho, big_psi)
    total.require_valid()
    return AbelianExtension(total, mp, rep, (m, p, n, q))


def _check_section(e: AbelianExtension, section):
    m, p, n, q = e.split
    if section == "canonical":
        return canonical_sections(e.split)
    s1, s2 = section
    if s1.rows != m + p or s1.cols != m or s2.rows != n + q or s2.cols != n:
        raise NotASection("section matrices have the wrong shape")
    for i in range(m):
        col = s1.column(i)
        if col[:m] != vbasis(m, i):
            raise NotASection(f"first section does not split the projection at {i}")
    for a in range(n):
        col = s2.column(a)
        if col[:n] != vbasis(n, a):
            raise NotASection(f"second section does not split the projection at {a}")
    return s1, s2


def extension_to_cocycle(e: AbelianExtension, section="canonical") -> MPCochain:
    """The degree-2 cochain measured by a section (default: block inclusion).

      F1(x,y) = pr_V([s1 x, s1 y] - s1[x,y]),
      F1(x,h) = pr_W(s1(x).s2(h) - s2(rho_x h)),
      F2(x,h) = pr_V(-s2(h).s1(x) + s1(psi_h x)),
      F2(h,k) = pr_W([s2 h, s2 k] - s2[h,k]).
    """
    s1, s2 = _check_section(e, section)
    mp = e.base
    m, p, n, q = e.split
    total = e.total
    F = MPCochain(2, m, n, p, q)
    f1, f2 = F.component(1), F.component(2)
    for i in range(m):
        for j in range(i + 1, m):
            val = total.g.bracket_vec(s1.column(i), s1.column(j))
            vaccum(val, -1, s1.mul_vec(mp.g.c[i][j]))
            if not vis_zero(val[:m]):
                raise NotASection("section defect left the fiber block (g side)")
            if not vis_zero(val[m:]):
                f1.part_v[((i, j), ())] = val[m:]
        for a in range(n):
            val = total.rho_vec(s1.column(i), s2.column(a))
            vaccum(val, -1, s2.mul_vec(mp.rho[i][a]))
            if not vis_zero(val[:n]):
                raise NotASection("section defect left the fiber block (rho)")
            if not vis_zero(val[n:]):
                f1.part_w[((i,), (a,))] = val[n:]
            val = total.psi_vec(s2.column(a), s1.column(i))
            vaccum(val, -1, s1.mul_vec(mp.psi[a][i]))
            if not vis_zero(val[:m]):
                raise NotASection("section defect left the fiber block (psi)")
            if not vis_zero(val[m:]):
                f2.part_v[((i,), (a,))] = vneg(val[m:])
    for a in range(n):
        for b in range(a + 1, n):
            val = total.h.bracket_vec(s2.column(a), s2.column(b))
            vaccum(val, -1, s2.mul_vec(mp.h.c[a][b]))
            if not vis_zero(val[:n]):
                raise NotASection("section defect left the fiber block (h side)")
            if not vis_zero(val[n:]):
                f2.part_w[((), (a, b))] = val[n:]
    return F


def validate_extension(e: AbelianExtension) -> ValidationReport:
    """Block structure of an extension: abelian ideals, morphism projection."""
    report = ValidationReport("abelian extension")
    m, p, n, q = e.split
    total = e.total

    check = report.new_check("total pair valid")
    for c in validate_matched_pair(total).checks:
        check.witnesses.extend(c.witnesses)

    check = report.new_check("fiber blocks abelian ideals")
    for u in range(p):
        for v in range(p):
            res = total.g.c[m + u][m + v]
            if not vis_zero(res):
                check.add(("g", u, v), res)
    for u in range(p):
        for i in range(m + p):
            res = total.g.c[m + u][i][:m]
            if not vis_zero(res):
                check.add(("g-ideal", u, i), res)
    for w in range(q):
        for v in range(q):
            res = total.h.c[n + w][n + v]
            if not vis_zero(res):
                check.add(("h", w, v), res)
        for a in range(n + q):
            res = total.h.c[n + w][a][:n]
            if not vis_zero(res):
                check.add(("h-ideal", w, a), res)

    check = report.new_check("projection is a morphism")
    j1 = _block_identity(m, m + p)
    j2 = _block_identity(n, n + q)
    try:
        sub = check_morphism(total, e.base, MPMorphism(j1, j2))
        for c in sub.checks:
            check.witnesses.extend(c.witnesses)
    except InvalidInput:
        check.add(("validation",), "total or base pair invalid")
    return report


def extension_isomorphism_check(e: AbelianExtension, e2: AbelianExtension,
                                f: Matrix, g_map: Matrix) -> ValidationReport:
    """Is (f, g) an isomorphism of extensions (fixing base and fiber)?"""
    if e.split != e2.split:
        raise DimensionMismatch("extensions have different splits")
    m, p, n, q = e.split
    report = ValidationReport("extension isomorphism")

    check = report.new_check("block triangular with identity diagonal")
    for i in range(m + p):
        for j in range(m + p):
            expected_id = Fraction(int(i == j))
            x = f.entry(i, j)
            if j < m and i < m and x != expected_id:
                check.add(("f-base", i, j), x - expected_id)
            if j >= m and x != expected_id:
                check.add(("f-fiber", i, j), x - expected_id)
    for a in range(n + q):
        for b in range(n + q):
            expected_id = Fraction(int(a == b))
            x = g_map.entry(a, b)
            if b < n and a < n and x != expected_id:
                check.add(("g-base", a, b), x - expected_id)
            if b >= n and x != expected_id:
                check.add(("g-fiber", a, b), x - expected_id)

    check = report.new_check("morphism of total pairs")
    sub = check_morphism(e.total, e2.total, MPMorphism(f, g_map))
    for c in sub.checks:
        check.witnesses.extend(c.witnesses)
    return report
