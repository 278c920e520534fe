"""Representations of a matched pair and the constructions they generate.

A representation of (g, h, rho, psi) on a pair of spaces (V, W) consists
of four actions (rho_V, psi_V on V; rho_W, psi_W on W) and two pairing
maps alpha: V x h -> W, beta: W x g -> V subject to six mixed identities
(tags pairing(1)..pairing(6) below).  The canonical example is the
adjoint one, (V, W) = (g, h) with alpha = rho and beta = psi.  Exchanging
g with h and V with W (``MPRepresentation.flipped``) maps each
representation to one of the flipped pair, and pairing(2), (5), (6) to
pairing(1), (3), (4).

Tensors are stored with the acting index first:
  rho_V[i][u], psi_V[a][u] : vectors in V,
  rho_W[i][w], psi_W[a][w] : vectors in W,
  alpha[u][a] : vector in W,   beta[w][i] : vector in V.
The pairings are also kept by column, _alpha_cols[a][u] = alpha[u][a] and
_beta_cols[i][w] = beta[w][i], for ``pair_alpha`` and ``pair_beta``, and
the coboundary stencil keeps its integer tables of g |x| h acting on V + W
(the action of ``induced_bicross_rep``) on the representation
(``stencil.bicross_tables``) once it has built them.
"""

from __future__ import annotations

from .errors import (DimensionMismatch, InvalidInput, MalformedTensor,
                     NotRestrictable)
from .lie import (LieAlgebra, LieRep, bicrossed_table, decided, dense_tensor,
                  validate_representation)
from .matched import MatchedPair, bicrossed_product, validate_matched_pair
from .report import ValidationReport
from .scalars import vaccum, vbasis, vcombine, vis_zero, vneg, vzero


class MPRepresentation:
    """Representation data of a matched pair on a pair of spaces (V, W)."""

    __slots__ = ("base", "dim_v", "dim_w", "rho_v", "psi_v", "rho_w", "psi_w",
                 "alpha", "beta", "_alpha_cols", "_beta_cols", "_report", "_stencil")

    def __init__(self, base: MatchedPair, dim_v: int, dim_w: int,
                 rho_v, psi_v, rho_w, psi_w, alpha, beta):
        self.base = base
        self.dim_v = dim_v
        self.dim_w = dim_w
        m, n = base.dim_g, base.dim_h

        def dense(t, rows, cols, veclen, what):
            if len(t) != rows or any(len(r) != cols for r in t):
                raise MalformedTensor(f"{what} tensor does not match the dimensions")
            out = [[list(v) for v in row] for row in t]
            for row in out:
                for v in row:
                    if len(v) != veclen:
                        raise MalformedTensor(f"{what} value has wrong length")
            return out

        self.rho_v = dense(rho_v, m, dim_v, dim_v, "rho_V")
        self.psi_v = dense(psi_v, n, dim_v, dim_v, "psi_V")
        self.rho_w = dense(rho_w, m, dim_w, dim_w, "rho_W")
        self.psi_w = dense(psi_w, n, dim_w, dim_w, "psi_W")
        self.alpha = dense(alpha, dim_v, n, dim_w, "alpha")
        self.beta = dense(beta, dim_w, m, dim_v, "beta")
        self._alpha_cols = [[row[a] for row in self.alpha] for a in range(n)]
        self._beta_cols = [[row[i] for row in self.beta] for i in range(m)]
        self._report = self._stencil = None

    @classmethod
    def from_sparse(cls, base, dims, rho_v=None, psi_v=None, rho_w=None,
                    psi_w=None, alpha=None, beta=None):
        p, q = dims
        m, n = base.dim_g, base.dim_h
        return cls(
            base, p, q,
            dense_tensor((m, p, p), rho_v, "rho_V"),
            dense_tensor((n, p, p), psi_v, "psi_V"),
            dense_tensor((m, q, q), rho_w, "rho_W"),
            dense_tensor((n, q, q), psi_w, "psi_W"),
            dense_tensor((p, n, q), alpha, "alpha"),
            dense_tensor((q, m, p), beta, "beta"),
        )

    @classmethod
    def zero(cls, base, dims):
        return cls.from_sparse(base, dims)

    @property
    def dims(self):
        return (self.dim_v, self.dim_w)

    # -- vector actions ----------------------------------------------------

    def act_rho_v(self, i, v):
        return vcombine(v, self.rho_v[i], self.dim_v)

    def act_rho_w(self, i, w):
        return vcombine(w, self.rho_w[i], self.dim_w)

    def act_psi_w(self, a, w):
        return vcombine(w, self.psi_w[a], self.dim_w)

    def pair_alpha(self, v, a):
        """alpha_v h_a for a coefficient vector v in V."""
        return vcombine(v, self._alpha_cols[a], self.dim_w)

    def pair_alpha_vec(self, v, h_vec):
        images = [self.pair_alpha(v, a) if c else None for a, c in enumerate(h_vec)]
        return vcombine(h_vec, images, self.dim_w)

    def pair_beta(self, w, i):
        """beta_w x_i for a coefficient vector w in W."""
        return vcombine(w, self._beta_cols[i], self.dim_v)

    def flipped(self) -> "MPRepresentation":
        """The representation of the flipped pair on (W, V): rho_V' = psi_W,
        psi_V' = rho_W, rho_W' = psi_V, psi_W' = rho_V, alpha' = beta and
        beta' = alpha."""
        return MPRepresentation(
            self.base.flipped(), self.dim_w, self.dim_v,
            self.psi_w, self.rho_w, self.psi_v, self.rho_v, self.beta, self.alpha,
        )

    def rho_v_rep(self):
        return LieRep(self.base.g, self.dim_v, self.rho_v)

    def psi_v_rep(self):
        return LieRep(self.base.h, self.dim_v, self.psi_v)

    def rho_w_rep(self):
        return LieRep(self.base.g, self.dim_w, self.rho_w)

    def psi_w_rep(self):
        return LieRep(self.base.h, self.dim_w, self.psi_w)

    def require_valid(self):
        if not validate_mp_representation(self).ok:
            raise InvalidInput("matched-pair representation fails validation")

    def tensors_equal(self, other: "MPRepresentation") -> bool:
        return (
            self.dims == other.dims
            and self.rho_v == other.rho_v and self.psi_v == other.psi_v
            and self.rho_w == other.rho_w and self.psi_w == other.psi_w
            and self.alpha == other.alpha and self.beta == other.beta
        )


def adjoint_representation(mp: MatchedPair) -> MPRepresentation:
    """(V, W) = (g, h) with the brackets and the two actions themselves,
    built once and kept on the pair (with its stencil tables)."""
    if mp._adjoint is None:
        mp._adjoint = MPRepresentation(mp, mp.dim_g, mp.dim_h, mp.g.c, mp.psi, mp.rho,
                                       mp.h.c, mp.rho, mp.psi)
    return mp._adjoint


MP_REP_GROUPS = ("matched-pair representation",
                 ("rep(rho_V)", "rep(psi_V)", "rep(rho_W)", "rep(psi_W)",
                  *(f"pairing({k})" for k in range(1, 7))))


def validate_mp_representation(r: MPRepresentation) -> ValidationReport:
    """Four action laws plus the six pairing identities, with witnesses.

    The semidirect quadruple on (g + V, h + W) is a matched pair exactly
    when the base pair is one and r is a representation of it, so once the
    base pair is valid the kernel decides the table of g+V |x| h+W
    (``lie.decided``).
    """
    return decided(r, lambda: bicrossed_table(*semidirect_tensors(r))
                   if validate_matched_pair(r.base).ok else None,
                   MP_REP_GROUPS, _mp_representation_report)


def _mp_representation_report(r: MPRepresentation, checks):
    for check, rep in zip(checks, (r.rho_v_rep(), r.psi_v_rep(), r.rho_w_rep(), r.psi_w_rep())):
        for c in validate_representation(rep).checks:
            check.witnesses.extend(c.witnesses)
    _pairing_report(r, checks[4:])


def _pairing_report(r: MPRepresentation, checks):
    """Witnesses of pairing(1)..pairing(6) into the six checks."""
    flipped = r.flipped()
    for check, group, data in zip(
            checks, (_pairing_1, _pairing_1, _pairing_3, _pairing_4, _pairing_3, _pairing_4),
            (r, flipped, r, r, flipped, flipped)):
        group(data, check)


# pairing(2), pairing(5) and pairing(6) are pairing(1), pairing(3) and
# pairing(4) of the flipped representation, witness keys included:
#   pairing(2): beta_{psi_W(h) w} x = psi_V(h) beta_w x - beta_w psi_h x
#   pairing(5): psi_V(h) rho_V(x) v = rho_V(psi_h x) v + rho_V(x) psi_V(h) v
#               + beta_{alpha_v h} x - psi_V(rho_x h) v
#   pairing(6): beta_w [x,y] = -rho_V(y) beta_w x + rho_V(x) beta_w y
#               + beta_{rho_W(y) w} x - beta_{rho_W(x) w} y


def _pairing_1(r: MPRepresentation, check):
    """alpha_{rho_V(x) v} h = rho_W(x) alpha_v h - alpha_v rho_x h."""
    mp = r.base
    m, n = mp.dim_g, mp.dim_h
    p = r.dim_v
    for i in range(m):
        for u in range(p):
            for a in range(n):
                lhs = r.pair_alpha(r.rho_v[i][u], a)
                rhs = r.act_rho_w(i, r.alpha[u][a])
                vaccum(rhs, -1, r.pair_alpha_vec(vbasis(p, u), mp.rho[i][a]))
                res = [x - y for x, y in zip(lhs, rhs)]
                if not vis_zero(res):
                    check.add((i, u, a), res)


def _pairing_3(r: MPRepresentation, check):
    """rho_W(x) psi_W(h) w = psi_W(rho_x h) w + psi_W(h) rho_W(x) w
    + alpha_{beta_w x} h - rho_W(psi_h x) w."""
    mp = r.base
    m, n = mp.dim_g, mp.dim_h
    q = r.dim_w
    psi_w, rho_w = r.psi_w_rep(), r.rho_w_rep()
    for i in range(m):
        for a in range(n):
            for w in range(q):
                lhs = r.act_rho_w(i, r.psi_w[a][w])
                rhs = vzero(q)
                vaccum(rhs, 1, psi_w.act_vec(mp.rho[i][a], vbasis(q, w)))
                vaccum(rhs, 1, r.act_psi_w(a, r.rho_w[i][w]))
                vaccum(rhs, 1, r.pair_alpha(r.beta[w][i], a))
                vaccum(rhs, -1, rho_w.act_vec(mp.psi[a][i], vbasis(q, w)))
                res = [x - y for x, y in zip(lhs, rhs)]
                if not vis_zero(res):
                    check.add((i, a, w), res)


def _pairing_4(r: MPRepresentation, check):
    """alpha_v [h,k] = -psi_W(k) alpha_v h + psi_W(h) alpha_v k
    + alpha_{psi_V(k) v} h - alpha_{psi_V(h) v} k."""
    mp = r.base
    n = mp.dim_h
    p = r.dim_v
    for u in range(p):
        for a in range(n):
            for b in range(a + 1, n):
                lhs = r.pair_alpha_vec(vbasis(p, u), mp.h.c[a][b])
                rhs = vzero(r.dim_w)
                vaccum(rhs, -1, r.act_psi_w(b, r.alpha[u][a]))
                vaccum(rhs, 1, r.act_psi_w(a, r.alpha[u][b]))
                vaccum(rhs, 1, r.pair_alpha(r.psi_v[b][u], a))
                vaccum(rhs, -1, r.pair_alpha(r.psi_v[a][u], b))
                res = [x - y for x, y in zip(lhs, rhs)]
                if not vis_zero(res):
                    check.add((u, a, b), res)


def semidirect_tensors(r: MPRepresentation):
    """(bracket of g + V, bracket of h + W, action rho, action psi) of the
    semidirect quadruple, as fresh dense tensors.

    Brackets: [(x,u),(y,v)] = ([x,y], rho_V(x)v - rho_V(y)u) and its h + W
    mirror; actions:
      (rho x alpha)_{(x,v)}(h,w) = (rho_x h, rho_W(x)w + alpha_v h),
      (psi x beta)_{(h,w)}(x,u) = (psi_h x, psi_V(h)u + beta_w x).
    """
    mp = r.base
    m, n = mp.dim_g, mp.dim_h
    p, q = r.dims

    big_g = [[vzero(m + p) for _ in range(m + p)] for _ in range(m + p)]
    for i in range(m):
        for j in range(m):
            big_g[i][j] = list(mp.g.c[i][j]) + vzero(p)
        for u in range(p):
            big_g[i][m + u] = vzero(m) + list(r.rho_v[i][u])
            big_g[m + u][i] = vzero(m) + vneg(r.rho_v[i][u])
    big_h = [[vzero(n + q) for _ in range(n + q)] for _ in range(n + q)]
    for a in range(n):
        for b in range(n):
            big_h[a][b] = list(mp.h.c[a][b]) + vzero(q)
        for w in range(q):
            big_h[a][n + w] = vzero(n) + list(r.psi_w[a][w])
            big_h[n + w][a] = vzero(n) + vneg(r.psi_w[a][w])

    big_rho = [[vzero(n + q) for _ in range(n + q)] for _ in range(m + p)]
    for i in range(m):
        for a in range(n):
            big_rho[i][a] = list(mp.rho[i][a]) + vzero(q)
        for w in range(q):
            big_rho[i][n + w] = vzero(n) + list(r.rho_w[i][w])
    for u in range(p):
        for a in range(n):
            big_rho[m + u][a] = vzero(n) + list(r.alpha[u][a])

    big_psi = [[vzero(m + p) for _ in range(m + p)] for _ in range(n + q)]
    for a in range(n):
        for i in range(m):
            big_psi[a][i] = list(mp.psi[a][i]) + vzero(p)
        for u in range(p):
            big_psi[a][m + u] = vzero(m) + list(r.psi_v[a][u])
    for w in range(q):
        for i in range(m):
            big_psi[n + w][i] = vzero(m) + list(r.beta[w][i])
    return big_g, big_h, big_rho, big_psi


def assemble_semidirect(r: MPRepresentation) -> MatchedPair:
    """The semidirect quadruple on (g + V, h + W); no validity assumed."""
    big_g, big_h, big_rho, big_psi = semidirect_tensors(r)
    return MatchedPair(
        LieAlgebra(len(big_g), big_g), LieAlgebra(len(big_h), big_h), big_rho, big_psi
    )


def semidirect_product(r: MPRepresentation) -> MatchedPair:
    """Semidirect matched pair of a valid representation; output validates."""
    r.base.require_valid()
    r.require_valid()
    out = assemble_semidirect(r)
    out.require_valid()
    return out


def induced_bicross_rep(r: MPRepresentation) -> LieRep:
    """The combined-product algebra acting on V + W by

    (x, h) . (v, w) = (rho_V(x)v + psi_V(h)v - beta_w x,
                       psi_W(h)w + rho_W(x)w - alpha_v h).
    """
    r.base.require_valid()
    r.require_valid()
    big = bicrossed_product(r.base)
    mp = r.base
    m, n = mp.dim_g, mp.dim_h
    p, q = r.dims
    action = [[vzero(p + q) for _ in range(p + q)] for _ in range(m + n)]
    for i in range(m):
        for u in range(p):
            action[i][u] = list(r.rho_v[i][u]) + vzero(q)
        for w in range(q):
            action[i][p + w] = vneg(r.beta[w][i]) + list(r.rho_w[i][w])
    for a in range(n):
        for u in range(p):
            action[m + a][u] = list(r.psi_v[a][u]) + vneg(r.alpha[u][a])
        for w in range(q):
            action[m + a][p + w] = vzero(p) + list(r.psi_w[a][w])
    rep = LieRep(big, p + q, action)
    rep.require_valid()
    return rep


def extract_rep_from_bicross(base: MatchedPair, r: LieRep, split) -> MPRepresentation:
    """Recover the six tensors from a combined-product action on V + W.

    Pure-g elements must not map V into W, and pure-h elements must not map
    W into V; the pairing maps are the two permitted off-blocks, with
      alpha_v h = -pr_W((0,h) . (v,0)),   beta_w x = -pr_V((x,0) . (0,w)).
    """
    base.require_valid()
    p, q = split
    m, n = base.dim_g, base.dim_h
    if r.space_dim != p + q:
        raise DimensionMismatch("split does not add up to the module dimension")
    if r.algebra.dim != m + n:
        raise DimensionMismatch("representation is not over the combined algebra")
    for i in range(m):
        for u in range(p):
            leak = r.a[i][u][p:]
            if not vis_zero(leak):
                raise NotRestrictable(
                    f"pure-g action mixes V into W at (x_{i}, v_{u})",
                    witness=("V->W", i, u),
                )
    for a in range(n):
        for w in range(q):
            leak = r.a[m + a][p + w][:p]
            if not vis_zero(leak):
                raise NotRestrictable(
                    f"pure-h action mixes W into V at (h_{a}, w_{w})",
                    witness=("W->V", a, w),
                )
    rho_v = [[r.a[i][u][:p] for u in range(p)] for i in range(m)]
    rho_w = [[r.a[i][p + w][p:] for w in range(q)] for i in range(m)]
    psi_v = [[r.a[m + a][u][:p] for u in range(p)] for a in range(n)]
    psi_w = [[r.a[m + a][p + w][p:] for w in range(q)] for a in range(n)]
    alpha = [[vneg(r.a[m + a][u][p:]) for a in range(n)] for u in range(p)]
    beta = [[vneg(r.a[i][p + w][:p]) for i in range(m)] for w in range(q)]
    out = MPRepresentation(base, p, q, rho_v, psi_v, rho_w, psi_w, alpha, beta)
    out.require_valid()
    return out


def dual_representation(r: MPRepresentation) -> MPRepresentation:
    """The representation on (W*, V*) by negated transposes,

    (alpha*_p h)(v) = -p(alpha_v h)  and  (beta*_q x)(w) = -q(beta_w x).
    """
    mp = r.base
    m, n = mp.dim_g, mp.dim_h
    p, q = r.dims

    def neg_t(tensor, rows, size):
        # action on the dual of a size-dim space: entry [i][u][u'] = -tensor[i][u'][u]
        return [
            [[-tensor[i][u2][u1] for u2 in range(size)] for u1 in range(size)]
            for i in range(rows)
        ]

    rho_v2 = neg_t(r.rho_w, m, q)      # g acting on W*
    psi_v2 = neg_t(r.psi_w, n, q)      # h acting on W*
    rho_w2 = neg_t(r.rho_v, m, p)      # g acting on V*
    psi_w2 = neg_t(r.psi_v, n, p)      # h acting on V*
    alpha2 = [
        [[-r.alpha[u][a][w] for u in range(p)] for a in range(n)]
        for w in range(q)
    ]
    beta2 = [
        [[-r.beta[w][i][u] for w in range(q)] for i in range(m)]
        for u in range(p)
    ]
    return MPRepresentation(mp, q, p, rho_v2, psi_v2, rho_w2, psi_w2, alpha2, beta2)


def coadjoint_representation(mp: MatchedPair) -> MPRepresentation:
    """The representation on (h*, g*) with

    (alpha_p h)(x) = -p(rho_x h)  and  (beta_q x)(h) = -q(psi_h x).
    """
    m, n = mp.dim_g, mp.dim_h
    rho_v = [
        [[-mp.rho[i][b][a] for b in range(n)] for a in range(n)]
        for i in range(m)
    ]
    psi_v = [
        [[-mp.h.c[a][b2][b1] for b2 in range(n)] for b1 in range(n)]
        for a in range(n)
    ]
    rho_w = [
        [[-mp.g.c[i][j2][j1] for j2 in range(m)] for j1 in range(m)]
        for i in range(m)
    ]
    psi_w = [
        [[-mp.psi[a][j][i] for j in range(m)] for i in range(m)]
        for a in range(n)
    ]
    alpha = [
        [[-mp.rho[i][b][a] for i in range(m)] for b in range(n)]
        for a in range(n)
    ]
    beta = [
        [[-mp.psi[b][i][j] for b in range(n)] for i in range(m)]
        for j in range(m)
    ]
    return MPRepresentation(mp, n, m, rho_v, psi_v, rho_w, psi_w, alpha, beta)
