"""Bidegree decomposition of skew maps on a two-block space g + h.

With the mixed basis ordered g first (indices 0..m-1) then h
(indices m..m+n-1), a skew map of arity k+l+1 has bidegree k|l when it
sends (k+1 g-slots, l h-slots) into the g block, (k g-slots, l+1
h-slots) into the h block, and kills every other slot pattern.  Because
combined index tuples are stored increasing, the g-block entries always
precede the h-block entries and the slot-pattern classification carries
no signs.

A candidate structure (mu, nu, rho, psi) packs into the degree-1 element
pi = (mu x rho, psi x nu); it satisfies all matched-pair axioms exactly
when the three brackets [mu x rho, mu x rho], [mu x rho, psi x nu] and
[psi x nu, psi x nu] vanish, which ``mc_check`` reports separately.
"""

from __future__ import annotations

from .errors import ArityMismatch, DimensionMismatch
from .multimap import SkewMultiMap, nr_bracket
from .report import Record
from .scalars import vis_zero, vzero


class BidegreeMap:
    """Pair of tensors Hom(L^{k+1}g (x) L^l h, V) + Hom(L^k g (x) L^{l+1} h, W).

    part_v maps keys (g_tuple, h_tuple) with sizes (k+1, l) to vectors in V;
    part_w maps keys with sizes (k, l+1) to vectors in W.  For structure
    elements and adjoint coefficients (V, W) = (g, h).
    """

    __slots__ = ("k", "l", "dim_g", "dim_h", "dim_v", "dim_w", "part_v", "part_w")

    def __init__(self, k, l, dim_g, dim_h, dim_v=None, dim_w=None,
                 part_v=None, part_w=None):
        self.k = k
        self.l = l
        self.dim_g = dim_g
        self.dim_h = dim_h
        self.dim_v = dim_g if dim_v is None else dim_v
        self.dim_w = dim_h if dim_w is None else dim_w
        self.part_v = {}
        self.part_w = {}
        for key, vec in (part_v or {}).items():
            self._store(self.part_v, key, vec, k + 1, l, self.dim_v)
        for key, vec in (part_w or {}).items():
            self._store(self.part_w, key, vec, k, l + 1, self.dim_w)

    def _store(self, table, key, vec, size_g, size_h, codim):
        gi, hj = tuple(key[0]), tuple(key[1])
        if len(gi) != size_g or len(hj) != size_h:
            raise ArityMismatch(
                f"key sizes {len(gi)}|{len(hj)} do not fit bidegree {self.k}|{self.l}"
            )
        vec = list(vec)
        if len(vec) != codim:
            raise ArityMismatch("coefficient vector has wrong length")
        if not vis_zero(vec):
            table[(gi, hj)] = vec

    def shape(self):
        return (self.k, self.l, self.dim_g, self.dim_h, self.dim_v, self.dim_w)

    def is_zero(self):
        return not self.part_v and not self.part_w

    def __eq__(self, other):
        if not isinstance(other, BidegreeMap):
            return NotImplemented
        return (
            self.shape() == other.shape()
            and self.part_v == other.part_v
            and self.part_w == other.part_w
        )

    def __add__(self, other):
        if self.shape() != other.shape():
            raise DimensionMismatch("bidegree maps have different shapes")
        out = BidegreeMap(*self.shape())
        for table, mine, theirs in (
            (out.part_v, self.part_v, other.part_v),
            (out.part_w, self.part_w, other.part_w),
        ):
            for key, vec in mine.items():
                table[key] = list(vec)
            for key, vec in theirs.items():
                if key in table:
                    merged = [a + b for a, b in zip(table[key], vec)]
                    if vis_zero(merged):
                        del table[key]
                    else:
                        table[key] = merged
                else:
                    table[key] = list(vec)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        out = BidegreeMap(*self.shape())
        out.part_v = {k: [c * x for x in v] for k, v in self.part_v.items()}
        out.part_w = {k: [c * x for x in v] for k, v in self.part_w.items()}
        return out

    def flipped(self) -> "BidegreeMap":
        """The map with g and h, and V and W, trading places: bidegree k|l
        becomes l|k, a key (gi, hj) becomes (hj, gi), and each vector takes
        the sign (-1)^{|gi|*|hj|} of moving the h-slots in front of the
        g-slots.  The result shares no vector lists with self."""
        out = BidegreeMap(self.l, self.k, self.dim_h, self.dim_g, self.dim_w, self.dim_v)
        for table, theirs in ((out.part_v, self.part_w), (out.part_w, self.part_v)):
            for (gi, hj), vec in theirs.items():
                odd = len(gi) * len(hj) % 2
                table[(hj, gi)] = [-x for x in vec] if odd else list(vec)
        return out


def embed(b: BidegreeMap) -> SkewMultiMap:
    """The bidegree map as a skew map on g + h, zero on other slot patterns."""
    if (b.dim_v, b.dim_w) != (b.dim_g, b.dim_h):
        raise DimensionMismatch("only (g, h)-valued maps embed into maps on g + h")
    m, n = b.dim_g, b.dim_h
    arity = b.k + b.l + 1
    coeffs = {}
    for (gi, hj), vec in b.part_v.items():
        key = gi + tuple(m + a for a in hj)
        coeffs[key] = list(vec) + vzero(n)
    for (gi, hj), vec in b.part_w.items():
        key = gi + tuple(m + a for a in hj)
        coeffs[key] = vzero(m) + list(vec)
    return SkewMultiMap.from_canonical(arity, m + n, m + n, coeffs)


class Decomposition(Record):
    """Bidegree components of a skew map on g + h.

    components[(k, l)] collects the bidegree-k|l part; k or l may be -1
    (pure-block inputs mapping into the other block).  in_m is True when
    no -1 components appear.
    """

    __slots__ = ("dim_g", "dim_h", "arity", "components")

    def __init__(self, dim_g: int, dim_h: int, arity: int, components: dict | None = None):
        self.dim_g = dim_g
        self.dim_h = dim_h
        self.arity = arity
        self.components = {} if components is None else components

    def component(self, k: int, l: int) -> BidegreeMap:
        got = self.components.get((k, l))
        if got is not None:
            return got
        return BidegreeMap(k, l, self.dim_g, self.dim_h)

    @property
    def off_m(self):
        return sorted(
            kl for kl, part in self.components.items()
            if (kl[0] < 0 or kl[1] < 0) and not part.is_zero()
        )

    @property
    def in_m(self) -> bool:
        return not self.off_m

    def resum(self) -> SkewMultiMap:
        total = SkewMultiMap.zero(self.arity, self.dim_g + self.dim_h,
                                  self.dim_g + self.dim_h)
        for part in self.components.values():
            total = total + embed(part)
        return total


def decompose(f: SkewMultiMap, dim_g: int, dim_h: int) -> Decomposition:
    """Split a skew map on g + h into its bidegree components."""
    if f.dim != dim_g + dim_h or f.codim != dim_g + dim_h:
        raise ArityMismatch("map does not live on the expected two-block space")
    out = Decomposition(dim_g, dim_h, f.arity)

    def part(k, l):
        if (k, l) not in out.components:
            out.components[(k, l)] = BidegreeMap(k, l, dim_g, dim_h)
        return out.components[(k, l)]

    for key, vec in f.coeffs.items():
        gi = tuple(i for i in key if i < dim_g)
        hj = tuple(i - dim_g for i in key if i >= dim_g)
        gvec = vec[:dim_g]
        hvec = vec[dim_g:]
        if not vis_zero(gvec):
            b = part(len(gi) - 1, len(hj))
            b.part_v[(gi, hj)] = list(gvec)
        if not vis_zero(hvec):
            b = part(len(gi), len(hj) - 1)
            b.part_w[(gi, hj)] = list(hvec)
    return out


class StructureElement:
    """Degree-1 packaging (mu x rho, psi x nu) of a candidate quadruple."""

    __slots__ = ("dim_g", "dim_h", "mu_rho", "psi_nu")

    def __init__(self, mu_rho: BidegreeMap, psi_nu: BidegreeMap):
        if mu_rho.shape()[:2] != (1, 0) or psi_nu.shape()[:2] != (0, 1):
            raise DimensionMismatch("structure element needs bidegrees 1|0 and 0|1")
        if (mu_rho.dim_g, mu_rho.dim_h) != (psi_nu.dim_g, psi_nu.dim_h):
            raise DimensionMismatch("the two halves live on different spaces")
        self.dim_g = mu_rho.dim_g
        self.dim_h = mu_rho.dim_h
        self.mu_rho = mu_rho
        self.psi_nu = psi_nu

    @classmethod
    def from_tensors(cls, dim_g, dim_h, mu, nu, rho, psi) -> "StructureElement":
        """Package dense tensors mu[i][j], nu[a][b], rho[i][a], psi[a][i].

        (mu x rho)((x,h),(y,k)) = ([x,y], rho_x k - rho_y h) and
        (psi x nu)((x,h),(y,k)) = (psi_h y - psi_k x, [h,k]); in bidegree
        coordinates the psi block therefore carries a minus sign.
        """
        mu_rho = BidegreeMap(1, 0, dim_g, dim_h)
        for i in range(dim_g):
            for j in range(i + 1, dim_g):
                if not vis_zero(mu[i][j]):
                    mu_rho.part_v[((i, j), ())] = list(mu[i][j])
            for a in range(dim_h):
                if not vis_zero(rho[i][a]):
                    mu_rho.part_w[((i,), (a,))] = list(rho[i][a])
        psi_nu = BidegreeMap(0, 1, dim_g, dim_h)
        for a in range(dim_h):
            for b in range(a + 1, dim_h):
                if not vis_zero(nu[a][b]):
                    psi_nu.part_w[((), (a, b))] = list(nu[a][b])
            for i in range(dim_g):
                if not vis_zero(psi[a][i]):
                    psi_nu.part_v[((i,), (a,))] = [-x for x in psi[a][i]]
        return cls(mu_rho, psi_nu)

    @classmethod
    def from_matched_pair(cls, mp) -> "StructureElement":
        return cls.from_tensors(mp.dim_g, mp.dim_h, mp.g.c, mp.h.c, mp.rho, mp.psi)

    def total(self) -> SkewMultiMap:
        return embed(self.mu_rho) + embed(self.psi_nu)


class MCBracket(Record):
    __slots__ = ("name", "vanishes", "witnesses")

    def __init__(self, name: str, vanishes: bool, witnesses: list):
        self.name = name
        self.vanishes = vanishes
        self.witnesses = witnesses


class MCReport(Record):
    __slots__ = ("brackets",)

    def __init__(self, brackets: list[MCBracket]):
        self.brackets = brackets

    @property
    def is_mc(self) -> bool:
        return all(b.vanishes for b in self.brackets)

    def lines(self) -> list[str]:
        out = [f"square-zero element: {'YES' if self.is_mc else 'NO'}"]
        for b in self.brackets:
            state = "= 0" if b.vanishes else "!= 0"
            out.append(f"  {b.name} {state}")
            for key, vec in b.witnesses[:3]:
                out.append(f"      at {key}: {vec}")
        return out


def mc_check(pi: StructureElement) -> MCReport:
    """Evaluate the three component brackets of [pi, pi] separately."""
    p = embed(pi.mu_rho)
    q = embed(pi.psi_nu)
    brackets = []
    for name, value in (
        ("[mu x rho, mu x rho]", nr_bracket(p, p)),
        ("[mu x rho, psi x nu]", nr_bracket(p, q)),
        ("[psi x nu, psi x nu]", nr_bracket(q, q)),
    ):
        witnesses = sorted(value.coeffs.items())
        brackets.append(MCBracket(name, value.is_zero(), witnesses))
    return MCReport(brackets)
