"""Two-term homotopy Lie structures, their matched pairs, and the
correspondence with degree-3 cocycles of a matched pair.

A two-term structure is a complex g1 -> g0 (differential mu1) with a
graded bracket (bracket00 on g0, bracket01: g0 x g1 -> g1, and
[v, x] = -[x, v]) and a skew trilinear mu3: g0^3 -> g1 subject to the
five coherence conditions (i)-(v) printed in ``validate_two_term``.
"Skeletal" means mu1 = 0; then g0 is a Lie algebra, g1 a module, and
mu3 a closed 3-cochain.

A matched pair of skeletal structures packages, on the degree-0 level, a
matched pair of Lie algebras (g0, h0) with a representation on (g1, h1),
plus two trilinear maps rho3, psi3; the whole tuple corresponds exactly
to the degree-3 cochains of shape (F1, 0, F3) in the kernel of the
coboundary, and the two directions of that correspondence are
implemented by ``skeletal_to_triple`` and ``triple_to_skeletal``.

The validator reads the degree-0/1 laws off that triple
(``assemble_triple``): rep(2) and rep(3) of a skeletal representation are
the action laws of g0 on V0 and on V1 (``lie.validate_representation``'s
law, residuals negated), mixed(k) is pairing(k) of the assembled
representation on (g1, h1) (``reps.validate_mp_representation``), and
mixed(3) and mixed(5) also carry the witnesses of compat(11) and
compat(22) of the degree-0 pair (g0, h0) (``matched.validate_matched_pair``),
the same identities with the h1 (g1) argument taken in h0 (g0).  All three
validators ask the kernel first, so a valid pair runs none of the
ring-generic formulas for these groups.  A pair passes exactly when its
triple is a matched pair, a representation of it and a closed cochain, so
each direction of the correspondence decides once.
"""

from __future__ import annotations

from itertools import combinations

from .cohomology import MPCochain
from .errors import InvalidInput, NonzeroMiddleComponent, NotACocycle, ShapeMismatch
from .lie import LieAlgebra, LieRep, checked_tensor, dense_tensor, validate_representation
from .matched import MatchedPair, validate_matched_pair
from .report import Record, ValidationReport
from .reps import MPRepresentation, validate_mp_representation
from .scalars import vaccum, vbasis, vcombine, vis_zero, vneg, vzero
from .stencil import _is_closed


class TwoTermLInfinity:
    """Structure data of a two-term homotopy Lie algebra."""

    __slots__ = ("dim0", "dim1", "mu1", "bracket00", "bracket01", "mu3")

    def __init__(self, dim0, dim1, mu1, bracket00, bracket01, mu3):
        self.dim0 = dim0
        self.dim1 = dim1
        # mu1[p] = image of the p-th g1 basis vector in g0
        self.mu1 = checked_tensor(mu1, (dim1, dim0), "mu1")
        self.bracket00 = checked_tensor(bracket00, (dim0, dim0, dim0), "bracket00")
        self.bracket01 = checked_tensor(bracket01, (dim0, dim1, dim1), "bracket01")
        # mu3 dense over (i, j, k) with values in g1
        self.mu3 = checked_tensor(mu3, (dim0, dim0, dim0, dim1), "mu3")

    @classmethod
    def from_sparse(cls, dim0, dim1, mu1=None, bracket00=None, bracket01=None,
                    mu3=None):
        """mu1: {p: vec}; bracket00: {(i<j): vec}; bracket01: {(i,p): vec};
        mu3: {(i<j<k): vec}; skew completions implicit."""
        return cls(dim0, dim1, dense_tensor((dim1, dim0), mu1, "mu1"),
                   dense_tensor((dim0, dim0, dim0), bracket00, "bracket00", skew=2),
                   dense_tensor((dim0, dim1, dim1), bracket01, "bracket01"),
                   dense_tensor((dim0, dim0, dim0, dim1), mu3, "mu3", skew=3))

    @classmethod
    def from_lie_algebra(cls, g: LieAlgebra, dim1: int = 0) -> "TwoTermLInfinity":
        return cls.from_sparse(
            g.dim, dim1,
            bracket00={(i, j): g.c[i][j] for i in range(g.dim)
                       for j in range(i + 1, g.dim)},
        )

    @property
    def is_skeletal(self) -> bool:
        return all(vis_zero(v) for v in self.mu1)

    def degree0_algebra(self) -> LieAlgebra:
        return LieAlgebra(self.dim0, self.bracket00)

    def b00(self, u, v):
        out = vzero(self.dim0)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        vaccum(out, a * b, self.bracket00[i][j])
        return out

    def b01(self, i, v1):
        """[e_i, v] for v in g1 coordinates."""
        return vcombine(v1, self.bracket01[i], self.dim1)

    def b01_vec(self, v0, v1):
        images = [self.b01(i, v1) if c else None for i, c in enumerate(v0)]
        return vcombine(v0, images, self.dim1)

    def mu1_vec(self, v1):
        return vcombine(v1, self.mu1, self.dim0)

    def mu3_vec(self, u, v, w):
        out = vzero(self.dim1)
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in enumerate(w):
                    if c:
                        vaccum(out, a * b * c, self.mu3[i][j][k])
        return out

    def tensors_equal(self, other: "TwoTermLInfinity") -> bool:
        return (
            (self.dim0, self.dim1) == (other.dim0, other.dim1)
            and self.mu1 == other.mu1
            and self.bracket00 == other.bracket00
            and self.bracket01 == other.bracket01
            and self.mu3 == other.mu3
        )


def validate_two_term(t: TwoTermLInfinity) -> ValidationReport:
    """The five coherence conditions, each with basis-tuple witnesses:

    (i)   mu1[x, v] = [x, mu1 v]
    (ii)  [mu1 u, v] = [u, mu1 v]
    (iii) mu1(mu3(x,y,z)) = [x,[y,z]] + [y,[z,x]] + [z,[x,y]]
    (iv)  mu3(x,y,mu1 v) = [x,[y,v]] + [y,[v,x]] + [v,[x,y]]
    (v)   the seven-against-six pairing of mu3 with the brackets.
    """
    report = ValidationReport("two-term structure")
    d0, d1 = t.dim0, t.dim1

    skew0 = report.new_check("bracket00 skew")
    for i in range(d0):
        for j in range(i, d0):
            res = [a + b for a, b in zip(t.bracket00[i][j], t.bracket00[j][i])]
            if not vis_zero(res):
                skew0.add((i, j), res)
    skew3 = report.new_check("mu3 skew")
    for i in range(d0):
        for j in range(d0):
            for k in range(d0):
                swapped = [t.mu3[j][i][k], t.mu3[i][k][j]]
                for other, where in zip(swapped, ("swap01", "swap12")):
                    res = [a + b for a, b in zip(t.mu3[i][j][k], other)]
                    if not vis_zero(res):
                        skew3.add((where, i, j, k), res)

    cond = report.new_check("condition(i)")
    for i in range(d0):
        for p in range(d1):
            lhs = t.mu1_vec(t.bracket01[i][p])
            rhs = t.b00(vbasis(d0, i), t.mu1[p])
            res = [a - b for a, b in zip(lhs, rhs)]
            if not vis_zero(res):
                cond.add((i, p), res)

    cond = report.new_check("condition(ii)")
    for p in range(d1):
        for s in range(d1):
            lhs = t.b01_vec(t.mu1[p], vbasis(d1, s))
            rhs = vneg(t.b01_vec(t.mu1[s], vbasis(d1, p)))
            res = [a - b for a, b in zip(lhs, rhs)]
            if not vis_zero(res):
                cond.add((p, s), res)

    cond = report.new_check("condition(iii)")
    for i, j, k in combinations(range(d0), 3):
        lhs = t.mu1_vec(t.mu3[i][j][k])
        ei, ej, ek = (vbasis(d0, x) for x in (i, j, k))
        rhs = t.b00(ei, t.b00(ej, ek))
        vaccum(rhs, 1, t.b00(ej, t.b00(ek, ei)))
        vaccum(rhs, 1, t.b00(ek, t.b00(ei, ej)))
        res = [a - b for a, b in zip(lhs, rhs)]
        if not vis_zero(res):
            cond.add((i, j, k), res)

    cond = report.new_check("condition(iv)")
    for i in range(d0):
        for j in range(d0):
            for p in range(d1):
                lhs = t.mu3_vec(vbasis(d0, i), vbasis(d0, j), t.mu1[p])
                rhs = t.b01(i, t.b01(j, vbasis(d1, p)))
                # [y, [v, x]] = -[y, [x, v]]
                vaccum(rhs, -1, t.b01(j, t.b01(i, vbasis(d1, p))))
                # [v, [x, y]] = -[[x,y], v]
                vaccum(rhs, -1, t.b01_vec(t.bracket00[i][j], vbasis(d1, p)))
                res = [a - b for a, b in zip(lhs, rhs)]
                if not vis_zero(res):
                    cond.add((i, j, p), res)

    cond = report.new_check("condition(v)")
    for i, j, k, l in combinations(range(d0), 4):
        basis_v = [vbasis(d0, x) for x in (i, j, k, l)]
        x, y, z, zp = basis_v
        lhs = t.b01(i, t.mu3[j][k][l])
        vaccum(lhs, -1, t.b01(j, t.mu3[i][k][l]))
        vaccum(lhs, 1, t.b01(k, t.mu3[i][j][l]))
        vaccum(lhs, -1, t.b01(l, t.mu3[i][j][k]))
        rhs = t.mu3_vec(t.b00(x, y), z, zp)
        vaccum(rhs, -1, t.mu3_vec(t.b00(x, z), y, zp))
        vaccum(rhs, 1, t.mu3_vec(t.b00(x, zp), y, z))
        vaccum(rhs, 1, t.mu3_vec(t.b00(y, z), x, zp))
        vaccum(rhs, -1, t.mu3_vec(t.b00(y, zp), x, z))
        vaccum(rhs, 1, t.mu3_vec(t.b00(z, zp), x, y))
        res = [a - b for a, b in zip(lhs, rhs)]
        if not vis_zero(res):
            cond.add((i, j, k, l), res)
    return report


class SkeletalRep:
    """Representation data (V1 -> V0, r2, r3) of a skeletal structure.

    r2 has three blocks: r00 (g0 on V0), r01 (g0 on V1), r10 (g1 x V0 -> V1);
    r3 is dense trilinear g0 x g0 x V0 -> V1, skew in the first two slots.
    """

    __slots__ = ("dim_v0", "dim_v1", "r00", "r01", "r10", "r3")

    def __init__(self, dim_v0, dim_v1, r00, r01, r10, r3):
        self.dim_v0 = dim_v0
        self.dim_v1 = dim_v1
        self.r00 = [[list(v) for v in row] for row in r00]
        self.r01 = [[list(v) for v in row] for row in r01]
        self.r10 = [[list(v) for v in row] for row in r10]
        self.r3 = [[[list(v) for v in row] for row in plane] for plane in r3]

    @classmethod
    def zero(cls, t: TwoTermLInfinity, dim_v0, dim_v1):
        return cls(
            dim_v0, dim_v1,
            [[vzero(dim_v0) for _ in range(dim_v0)] for _ in range(t.dim0)],
            [[vzero(dim_v1) for _ in range(dim_v1)] for _ in range(t.dim0)],
            [[vzero(dim_v1) for _ in range(dim_v0)] for _ in range(t.dim1)],
            [
                [[vzero(dim_v1) for _ in range(dim_v0)] for _ in range(t.dim0)]
                for _ in range(t.dim0)
            ],
        )

    @classmethod
    def adjoint(cls, t: TwoTermLInfinity) -> "SkeletalRep":
        """The structure acting on itself: r2 = brackets, r3 = mu3."""
        r10 = [
            [vneg(t.bracket01[i][p]) for i in range(t.dim0)]
            for p in range(t.dim1)
        ]
        # r10[p][i] = [v_p, e_i] = -[e_i, v_p]
        return cls(
            t.dim0, t.dim1,
            t.bracket00, t.bracket01, r10, t.mu3,
        )

    def act01(self, i, v):
        return vcombine(v, self.r01[i], self.dim_v1)


def validate_skeletal_rep(t: TwoTermLInfinity, r: SkeletalRep, laws=None) -> ValidationReport:
    """The four representation identities for a skeletal structure.

    ``laws``, when given, holds the checks of the Lie representation
    reports on V0 and on V1 that rep(2) and rep(3) read, as decided
    elsewhere; by default they are decided here."""
    if not t.is_skeletal:
        raise InvalidInput("representation identities assume a skeletal structure")
    report = ValidationReport("skeletal representation")
    d0 = t.dim0

    check = report.new_check("rep(1): r3 skew")
    for i in range(d0):
        for j in range(d0):
            for u in range(r.dim_v0):
                res = [a + b for a, b in zip(r.r3[i][j][u], r.r3[j][i][u])]
                if not vis_zero(res):
                    check.add((i, j, u), res)

    if laws is None:
        g0 = t.degree0_algebra()
        laws = [validate_representation(LieRep(g0, dim, action)).checks[0]
                for dim, action in ((r.dim_v0, r.r00), (r.dim_v1, r.r01))]
    for name, law in zip(("rep(2): action law on V0", "rep(3): action law on V1"), laws):
        # residual x_i.(x_j.u) - x_j.(x_i.u) - [x_i, x_j].u at (i, j, u)
        check = report.new_check(name)
        for w in law.witnesses:
            check.add(w.where, vneg(w.residual))

    check = report.new_check("rep(4): trilinear coherence")
    # r3(w, x_k, v_u) = sum_c w_c r3(x_c, x_k, v_u), column (k, u) read once
    r3 = [[[r.r3[c][k][u] for c in range(d0)] for u in range(r.dim_v0)] for k in range(d0)]
    for i, j, k in combinations(range(d0), 3):
        for u in range(r.dim_v0):
            lhs = r.act01(i, r.r3[j][k][u])
            vaccum(lhs, -1, r.act01(j, r.r3[i][k][u]))
            vaccum(lhs, 1, r.act01(k, r.r3[i][j][u]))
            vaccum(lhs, 1, vcombine(t.mu3[i][j][k], [row[u] for row in r.r10], r.dim_v1))
            rhs = vcombine(t.bracket00[i][j], r3[k][u], r.dim_v1)
            vaccum(rhs, -1, vcombine(t.bracket00[i][k], r3[j][u], r.dim_v1))
            vaccum(rhs, 1, vcombine(r.r00[i][u], r.r3[j][k], r.dim_v1))
            vaccum(rhs, 1, vcombine(t.bracket00[j][k], r3[i][u], r.dim_v1))
            vaccum(rhs, -1, vcombine(r.r00[j][u], r.r3[i][k], r.dim_v1))
            vaccum(rhs, 1, vcombine(r.r00[k][u], r.r3[i][j], r.dim_v1))
            res = [a - b for a, b in zip(lhs, rhs)]
            if not vis_zero(res):
                check.add((i, j, k, u), res)
    return report


class SkeletalMatchedPair:
    """Two skeletal structures with mutual two- and three-slot actions.

    rho2 blocks: r00 (g0 x h0 -> h0), r01 (g0 x h1 -> h1), r10 (g1 x h0 -> h1);
    rho3: g0 x g0 x h0 -> h1 dense, skew in the g0 slots; psi blocks mirror
    them with g and h exchanged.
    """

    __slots__ = ("G", "H", "rho2_00", "rho2_01", "rho2_10", "rho3",
                 "psi2_00", "psi2_01", "psi2_10", "psi3")

    def __init__(self, G, H, rho2_00, rho2_01, rho2_10, rho3,
                 psi2_00, psi2_01, psi2_10, psi3):
        self.G = G
        self.H = H
        m, p, n, q = G.dim0, G.dim1, H.dim0, H.dim1
        self.rho2_00 = checked_tensor(rho2_00, (m, n, n), "rho2_00")
        self.rho2_01 = checked_tensor(rho2_01, (m, q, q), "rho2_01")
        self.rho2_10 = checked_tensor(rho2_10, (p, n, q), "rho2_10")
        self.rho3 = checked_tensor(rho3, (m, m, n, q), "rho3")
        self.psi2_00 = checked_tensor(psi2_00, (n, m, m), "psi2_00")
        self.psi2_01 = checked_tensor(psi2_01, (n, p, p), "psi2_01")
        self.psi2_10 = checked_tensor(psi2_10, (q, m, p), "psi2_10")
        self.psi3 = checked_tensor(psi3, (n, n, m, p), "psi3")

    def flipped(self) -> "SkeletalMatchedPair":
        """The same pair with G and H exchanged, and with them the rho2/rho3
        and psi2/psi3 blocks."""
        return SkeletalMatchedPair(
            self.H, self.G,
            self.psi2_00, self.psi2_01, self.psi2_10, self.psi3,
            self.rho2_00, self.rho2_01, self.rho2_10, self.rho3,
        )

    def rho_rep(self) -> SkeletalRep:
        return SkeletalRep(self.H.dim0, self.H.dim1,
                           self.rho2_00, self.rho2_01, self.rho2_10, self.rho3)

    def tensors_equal(self, other) -> bool:
        return (
            self.G.tensors_equal(other.G) and self.H.tensors_equal(other.H)
            and self.rho2_00 == other.rho2_00 and self.rho2_01 == other.rho2_01
            and self.rho2_10 == other.rho2_10 and self.rho3 == other.rho3
            and self.psi2_00 == other.psi2_00 and self.psi2_01 == other.psi2_01
            and self.psi2_10 == other.psi2_10 and self.psi3 == other.psi3
        )


class SkeletalTriple(Record):
    """A matched pair, a representation on (g1, h1), and a cocycle (F1, 0, F3)."""

    __slots__ = ("mp", "rep", "cocycle")

    def __init__(self, mp: MatchedPair, rep: MPRepresentation, cocycle: MPCochain):
        self.mp = mp
        self.rep = rep
        self.cocycle = cocycle


def assemble_triple(s: SkeletalMatchedPair) -> SkeletalTriple:
    """Unpack the degree-0/degree-1 data into (pair, representation, cochain).

    No validity is assumed; ``skeletal_to_triple`` adds the checks.  The
    cochain components are

      F1 = (mu3, rho3-slots)   in bidegree 2|0,
      F3 = (psi3-slots, nu3)   in bidegree 0|2,

    with F1(x,y;k) = rho3(x,y,k) and F3(x;h,k) = psi3(h,k,x).
    """
    G, H = s.G, s.H
    m, n = G.dim0, H.dim0
    p, q = G.dim1, H.dim1
    mp = MatchedPair(G.degree0_algebra(), H.degree0_algebra(),
                     s.rho2_00, s.psi2_00)
    rep = MPRepresentation(
        mp, p, q,
        G.bracket01,          # g0 acting on g1
        s.psi2_01,            # h0 acting on g1
        s.rho2_01,            # g0 acting on h1
        H.bracket01,          # h0 acting on h1
        s.rho2_10,            # alpha: g1 x h0 -> h1
        s.psi2_10,            # beta: h1 x g0 -> g1
    )
    F = MPCochain(3, m, n, p, q)
    f1 = F.component(1)
    for i, j, k in combinations(range(m), 3):
        vec = G.mu3[i][j][k]
        if not vis_zero(vec):
            f1.part_v[((i, j, k), ())] = list(vec)
    for i in range(m):
        for j in range(i + 1, m):
            for a in range(n):
                vec = s.rho3[i][j][a]
                if not vis_zero(vec):
                    f1.part_w[((i, j), (a,))] = list(vec)
    f3 = F.component(3)
    for a, b, c in combinations(range(n), 3):
        vec = H.mu3[a][b][c]
        if not vis_zero(vec):
            f3.part_w[((), (a, b, c))] = list(vec)
    for a in range(n):
        for b in range(a + 1, n):
            for i in range(m):
                vec = s.psi3[a][b][i]
                if not vis_zero(vec):
                    f3.part_v[((i,), (a, b))] = list(vec)
    return SkeletalTriple(mp, rep, F)


def assemble_skeletal(t: SkeletalTriple) -> SkeletalMatchedPair:
    """Inverse packing of ``assemble_triple``; no validity assumed."""
    mp, rep, F = t.mp, t.rep, t.cocycle
    m, n = mp.dim_g, mp.dim_h
    p, q = rep.dims
    if F.degree != 3:
        raise ShapeMismatch("the cochain must have degree 3")
    f1, f2, f3 = F.component(1), F.component(2), F.component(3)
    if not f2.is_zero():
        raise NonzeroMiddleComponent("the middle component must vanish")

    mu3 = {}
    for (gi, hj), vec in f1.part_v.items():
        mu3[gi] = vec
    G = TwoTermLInfinity.from_sparse(
        m, p,
        bracket00={(i, j): mp.g.c[i][j] for i in range(m) for j in range(i + 1, m)},
        bracket01={(i, u): rep.rho_v[i][u] for i in range(m) for u in range(p)},
        mu3=mu3,
    )
    nu3 = {}
    for (gi, hj), vec in f3.part_w.items():
        nu3[hj] = vec
    H = TwoTermLInfinity.from_sparse(
        n, q,
        bracket00={(a, b): mp.h.c[a][b] for a in range(n) for b in range(a + 1, n)},
        bracket01={(a, w): rep.psi_w[a][w] for a in range(n) for w in range(q)},
        mu3=nu3,
    )
    rho3 = [[[vzero(q) for _ in range(n)] for _ in range(m)] for _ in range(m)]
    for (gi, hj), vec in f1.part_w.items():
        i, j = gi
        a = hj[0]
        rho3[i][j][a] = list(vec)
        rho3[j][i][a] = vneg(vec)
    psi3 = [[[vzero(p) for _ in range(m)] for _ in range(n)] for _ in range(n)]
    for (gi, hj), vec in f3.part_v.items():
        a, b = hj
        i = gi[0]
        psi3[a][b][i] = list(vec)
        psi3[b][a][i] = vneg(vec)
    return SkeletalMatchedPair(
        G, H,
        mp.rho, rep.rho_w, rep.alpha, rho3,
        mp.psi, rep.psi_v, rep.beta, psi3,
    )


def validate_skeletal_matched_pair(s: SkeletalMatchedPair) -> ValidationReport:
    """Full per-identity report: both skeletal structures, both
    representations, the six mixed identities, and the four cubic
    compatibilities.

    Once G and H pass, the action laws and the mixed groups are read off
    the reports of ``assemble_triple(s)`` (see the module docstring): rep(2)
    off representation(rho) and representation(psi) of its pair, rep(3) off
    rep(rho_W) and rep(psi_V) of its representation.  The groups of H, psi
    and compat(skel3), compat(skel4) are those of G, rho and compat(skel1),
    compat(skel2) on the flipped pair, witness keys included."""
    report = ValidationReport("skeletal matched pair")
    G, H = s.G, s.H

    check = report.new_check("G skeletal and coherent")
    if not G.is_skeletal:
        check.add(("mu1",), "nonzero differential")
    for c in validate_two_term(G).checks:
        check.witnesses.extend(c.witnesses)
    check = report.new_check("H skeletal and coherent")
    if not H.is_skeletal:
        check.add(("mu1",), "nonzero differential")
    for c in validate_two_term(H).checks:
        check.witnesses.extend(c.witnesses)

    if not report.ok:
        return report

    triple = assemble_triple(s)
    pair = validate_matched_pair(triple.mp).checks
    rep = validate_mp_representation(triple.rep).checks
    flipped = s.flipped()
    for name, data, laws in (("rho representation of G", s, (pair[2], rep[2])),
                             ("psi representation of H", flipped, (pair[3], rep[1]))):
        check = report.new_check(name)
        for c in validate_skeletal_rep(data.G, data.rho_rep(), laws).checks:
            check.witnesses.extend(c.witnesses)
    compat = {3: pair[4], 5: pair[5]}
    for k, pairing in enumerate(rep[4:], 1):
        check = report.new_check(f"mixed({k})")
        for w in pairing.witnesses + (compat[k].witnesses if k in compat else []):
            check.add(w.where, w.residual)
    for name, group, data in (
        ("compat(skel1)", _compat_skel1, s), ("compat(skel2)", _compat_skel2, s),
        ("compat(skel3)", _compat_skel1, flipped),
        ("compat(skel4)", _compat_skel2, flipped),
    ):
        group(data, report.new_check(name))
    return report


def _compat_skel1(s: SkeletalMatchedPair, check):
    """[x, psi3(h,k,y)] - [y, psi3(h,k,x)] - psi3(h,k,[x,y])
    - psi3(rho2(x,h),k,y) + psi3(rho2(x,k),h,y)
    + psi3(rho2(y,h),k,x) - psi3(rho2(y,k),h,x) = 0."""
    G = s.G
    m, n, p = G.dim0, s.H.dim0, G.dim1
    # psi3(u, k, y) = sum_c u_c psi3(h_c, k, y), column (k, y) read once
    psi3 = [[[s.psi3[c][k][y] for c in range(n)] for y in range(m)] for k in range(n)]
    for i in range(m):
        for j in range(i + 1, m):
            for a in range(n):
                for b in range(a + 1, n):
                    res = G.b01(i, s.psi3[a][b][j])
                    vaccum(res, -1, G.b01(j, s.psi3[a][b][i]))
                    vaccum(res, -1, vcombine(G.bracket00[i][j], s.psi3[a][b], p))
                    vaccum(res, -1, vcombine(s.rho2_00[i][a], psi3[b][j], p))
                    vaccum(res, 1, vcombine(s.rho2_00[i][b], psi3[a][j], p))
                    vaccum(res, 1, vcombine(s.rho2_00[j][a], psi3[b][i], p))
                    vaccum(res, -1, vcombine(s.rho2_00[j][b], psi3[a][i], p))
                    if not vis_zero(res):
                        check.add((i, j, a, b), res)


def _compat_skel2(s: SkeletalMatchedPair, check):
    """rho2(x, nu3(h,k,k')) + rho2(psi3(k,k',x), h)
    - rho2(psi3(h,k',x), k) + rho2(psi3(h,k,x), k')
    - nu3(rho2(x,h),k,k') + nu3(rho2(x,k),h,k') - nu3(rho2(x,k'),h,k) = 0."""
    H = s.H
    m, n, q = s.G.dim0, H.dim0, H.dim1
    # nu3(u, k, k') = sum_d u_d nu3(h_d, k, k'), column (k, k') read once
    nu3 = {(b, c): [H.mu3[d][b][c] for d in range(n)] for b, c in combinations(range(n), 2)}
    for i in range(m):
        for a, b, c3 in combinations(range(n), 3):
            res = vcombine(H.mu3[a][b][c3], s.rho2_01[i], q)
            for (pair, other) in (((b, c3), a), ((a, c3), b), ((a, b), c3)):
                sub = vcombine(s.psi3[pair[0]][pair[1]][i],
                               [row[other] for row in s.rho2_10], q)
                sign = 1 if pair == (b, c3) or pair == (a, b) else -1
                vaccum(res, sign, sub)
            vaccum(res, -1, vcombine(s.rho2_00[i][a], nu3[b, c3], q))
            vaccum(res, 1, vcombine(s.rho2_00[i][b], nu3[a, c3], q))
            vaccum(res, -1, vcombine(s.rho2_00[i][c3], nu3[a, b], q))
            if not vis_zero(res):
                check.add((i, a, b, c3), res)


def skeletal_to_triple(s: SkeletalMatchedPair) -> SkeletalTriple:
    """Validated direction of the correspondence; a passing pair is exactly
    a valid triple with a closed cochain, so nothing is checked again."""
    if not validate_skeletal_matched_pair(s).ok:
        raise InvalidInput("skeletal matched pair fails validation")
    return assemble_triple(s)


def triple_to_skeletal(t: SkeletalTriple) -> SkeletalMatchedPair:
    """Validated reverse direction; a valid triple with a closed cochain
    is exactly a passing pair, so the pair is not validated again."""
    t.mp.require_valid()
    t.rep.require_valid()
    if t.cocycle.degree != 3:
        raise ShapeMismatch("the cochain must have degree 3")
    if not t.cocycle.component(2).is_zero():
        raise NonzeroMiddleComponent("the middle component must vanish")
    if not _is_closed(t.mp, t.rep, t.cocycle):
        raise NotACocycle("the degree-3 cochain is not closed")
    return assemble_skeletal(t)
