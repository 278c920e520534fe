"""Cochain complexes of a matched pair, both coboundary routes, dimensions,
the embedding into the combined-product complex, and the bialgebra complex.

Cochain spaces.  With dim g = m, dim h = n and coefficients (V, W):

    C^0 = V + W,
    C^{d>=1} = sum over r = 1..d of C^{d-r|r-1},
    C^{k|l} = Hom(L^{k+1} g (x) L^l h, V) + Hom(L^k g (x) L^{l+1} h, W).

A degree-d cochain is the tuple (F_1, ..., F_d), F_r of bidegree
(d-r, r-1).  For adjoint coefficients (V, W) = (g, h) the coboundary is
delta(F) = -[pi, F] in the graded algebra of skew maps on g + h, with
pi the packaged structure; componentwise

    delta(F)_r = -[mu x rho, F_r] - [psi x nu, F_{r-1}].

``delta_mpl_coeff`` implements the same operator for arbitrary
coefficients through explicit sums.  Only delta^{mu x rho} is written out:
the pair, the representation and the cochain are symmetric under the flip
that exchanges g with h and V with W (``MatchedPair.flipped``,
``MPRepresentation.flipped``, ``BidegreeMap.flipped``), and
delta^{psi x nu} is the flip-conjugate of delta^{mu x rho},

    delta^{psi x nu}(F) = flip(delta^{mu x rho}_flipped(flip(F))),

where flip sends the component value at (gi, hj) to (hj, gi) with the
sign (-1)^{|gi| |hj|} and no further sign.  On adjoint coefficients the
two routes agree exactly (this equality is enforced by the test suite
and pins every sign).  Both routes run over the stored keys of their
input: the graded bracket through ``multimap.insertion``, and
delta^{mu x rho} over the keys (s, t) of F_r, each of which meets the
output keys of its action, rho-, bracket- and alpha-terms; the argument
sums of the defining formula are kept as groups, so values and scalar
types are those of the formula.

Degree 0.  The pointwise degree-0 formula

    delta((v, w))(x, h) = (rho_V(x)v + psi_V(h)v - beta_w x,
                           psi_W(h)w + rho_W(x)w - alpha_v h)

does not take values in C^1: its V-from-h and W-from-g blocks have no
slot there.  The degree-0 *operation* returns the two blocks that do fit
(exactly the displayed values on pure-block inputs), but the image of
the full formula fails to consist of 1-cocycles on genuinely two-sided
pairs, so no choice of degree-0 map into C^1 squares to zero.  The
*complex* used for dimensions therefore starts with the zero map
C^0 -> C^1, making H^0 = dim(V + W); all higher differentials are the
genuine ones and square to zero exactly.

Matrices.  The explicit route of ``delta_matrix`` and ``liebi_matrix``
is assembled from the integer stencil of the ``stencil`` module.  The
degree-d cochains are the part of Hom(L^d (g + h), V + W) whose V-values
take a g-slot and whose W-values an h-slot (the value at (gi, hj) sits at
the key gi + hj), and on them delta is the Chevalley-Eilenberg
differential of g |x| h on V + W (``reps.induced_bicross_rep``): the
explicit route is the CE stencil of g |x| h on V + W read at those
coordinates (``stencil.coeff_columns``).  The bialgebra complex in
degree n is, the same way, the CE stencil of the Drinfeld double
g |x| g* on the trivial module in degree n + 1, read at the keys that
hold both a g- and a g*-index (``liebi_matrix``), with no sign: an
identity of the formulas, valid or not, so ``liebi_coboundary`` stays
its ring-generic oracle.  The graded-bracket route
(``route="adjoint"``) is -[pi, e] on each basis map e, from the integer
insertion kernel of the ``bracket`` module and tables of pi kept on the
pair; it reads nothing of the stencil, so the two routes are two
independent implementations, and ``delta_mpl_coeff`` stays the
stencil's oracle.  Each matrix keeps one common denominator D of its
constants and its integer columns (the integer form of ``linalg``), so
``mpl_cohomology_dims`` checks and ranks every delta without building a
Fraction; the {column: Fraction} rows are built on their first read.

Exact decisions.  ``delta_matrix`` and ``liebi_matrix`` read their inputs
as given: the stencil and the kernel scale the constants to ints, and
constants that are not ints or Fractions raise TypeError.  The chain law
``phi_chain_check`` is linear in the cochain, so in degree >= 1 it is
decided on the cochain times the least common denominator of its values,
in ints (``bracket.phi_holds``): phi(delta F) by the insertion kernel and
delta_CE(phi F) by the CE stencil of g |x| h, at the stored keys of F.
Closedness (``stencil._is_closed``, for deformations, extensions and the
skeletal correspondence) is decided the same way: the columns of the
explicit route at the stored keys of F, times F's scaled coordinates.
``psi_compare`` runs on its inputs.  In degree 0, on DualNumber values,
and where a law fails, the ring-generic difference is computed from the
inputs, whose scalar types its witnesses show.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import comb

from .bigraded import BidegreeMap, StructureElement, decompose, embed
from .errors import (CoefficientMismatch, DimensionMismatch, ShapeMismatch)
from .lie import LieRep, ce_coboundary, wedge_basis
from .linalg import Matrix, cohomology_dims, require_degree
from .matched import LieBialgebra, MatchedPair, _bicrossed, _double, bialgebra_to_matched_pair
from .multimap import SkewMultiMap, nr_bracket
from .report import ValidationReport
from .reps import MPRepresentation, adjoint_representation
from .scalars import common_denominator, scaled_int, vaccum, vaccum_at, vis_zero, vzero
from .stencil import ce_tables, coeff_columns, subcomplex_columns


def cochain_space_dim(mp_dims, rep_dims, degree: int) -> int:
    """Closed-form dimension of the degree-d cochain space."""
    m, n = mp_dims
    p, q = rep_dims
    if degree == 0:
        return p + q
    return sum(p * comb(m, degree - r + 1) * comb(n, r - 1) + q * comb(m, degree - r) * comb(n, r)
               for r in range(1, degree + 1))


class MPCochain:
    """A cochain with coefficients in (V, W); degree 0 stores a plain vector."""

    __slots__ = ("degree", "dim_g", "dim_h", "dim_v", "dim_w", "vec", "components")

    def __init__(self, degree, dim_g, dim_h, dim_v, dim_w, vec=None, components=None):
        self.degree = degree
        self.dim_g = dim_g
        self.dim_h = dim_h
        self.dim_v = dim_v
        self.dim_w = dim_w
        if degree == 0:
            self.vec = list(vec) if vec is not None else vzero(dim_v + dim_w)
            if len(self.vec) != dim_v + dim_w:
                raise ShapeMismatch("degree-0 cochain vector has wrong length")
            self.components = None
        else:
            self.vec = None
            if components is None:
                components = [
                    BidegreeMap(degree - r, r - 1, dim_g, dim_h, dim_v, dim_w)
                    for r in range(1, degree + 1)
                ]
            if len(components) != degree:
                raise ShapeMismatch(f"degree-{degree} cochain needs {degree} components")
            for r, part in enumerate(components, start=1):
                if part.shape() != (degree - r, r - 1, dim_g, dim_h, dim_v, dim_w):
                    raise ShapeMismatch(
                        f"component {r} has shape {part.shape()}, "
                        f"expected bidegree {degree - r}|{r - 1}"
                    )
            self.components = list(components)

    @classmethod
    def zero(cls, degree, dims, rep_dims):
        m, n = dims
        p, q = rep_dims
        return cls(degree, m, n, p, q)

    def shape(self):
        return (self.degree, self.dim_g, self.dim_h, self.dim_v, self.dim_w)

    def component(self, r: int) -> BidegreeMap:
        """The r-th slot, 1-based."""
        if self.degree == 0 or not (1 <= r <= self.degree):
            raise ShapeMismatch(f"no component {r} in degree {self.degree}")
        return self.components[r - 1]

    def is_zero(self) -> bool:
        if self.degree == 0:
            return vis_zero(self.vec)
        return all(part.is_zero() for part in self.components)

    def __eq__(self, other):
        if not isinstance(other, MPCochain):
            return NotImplemented
        if self.shape() != other.shape():
            return False
        if self.degree == 0:
            return self.vec == other.vec
        return self.components == other.components

    def __add__(self, other):
        if self.shape() != other.shape():
            raise ShapeMismatch("cochains have different shapes")
        if self.degree == 0:
            return MPCochain(0, self.dim_g, self.dim_h, self.dim_v, self.dim_w,
                             vec=[a + b for a, b in zip(self.vec, other.vec)])
        return MPCochain(
            self.degree, self.dim_g, self.dim_h, self.dim_v, self.dim_w,
            components=[a + b for a, b in zip(self.components, other.components)],
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        if self.degree == 0:
            return MPCochain(0, self.dim_g, self.dim_h, self.dim_v, self.dim_w,
                             vec=[c * a for a in self.vec])
        return MPCochain(
            self.degree, self.dim_g, self.dim_h, self.dim_v, self.dim_w,
            components=[part.scale(c) for part in self.components],
        )


def _cochain_blocks(mp_dims, degree: int):
    """The blocks (r, part, g_tuple, h_tuple) of ``cochain_basis``, in order."""
    m, n = mp_dims
    for r in range(1, degree + 1):
        k, l = degree - r, r - 1
        for gi in combinations(range(m), k + 1):
            for hj in combinations(range(n), l):
                yield r, "V", gi, hj
        for gi in combinations(range(m), k):
            for hj in combinations(range(n), l + 1):
                yield r, "W", gi, hj


def cochain_basis(mp_dims, rep_dims, degree: int):
    """Ordered monomial basis keys.

    Degree 0: ("vec", index).  Degree >= 1: (r, part, g_tuple, h_tuple, idx)
    with part "V" before "W", tuples lexicographic, within each slot r.
    """
    p, q = rep_dims
    if degree == 0:
        return [("vec", i) for i in range(p + q)]
    return [(r, part, gi, hj, u) for r, part, gi, hj in _cochain_blocks(mp_dims, degree)
            for u in range(p if part == "V" else q)]


def _coords(F: MPCochain):
    """The coordinates in the monomial basis, as the stored scalars (0 if absent)."""
    keys = cochain_basis((F.dim_g, F.dim_h), (F.dim_v, F.dim_w), F.degree)
    out = []
    for key in keys:
        if key[0] == "vec":
            out.append(F.vec[key[1]])
        else:
            r, part, gi, hj, idx = key
            table = F.component(r).part_v if part == "V" else F.component(r).part_w
            vec = table.get((gi, hj))
            out.append(vec[idx] if vec is not None else 0)
    return out


def cochain_to_coords(F: MPCochain):
    return [Fraction(x) for x in _coords(F)]


def cochain_from_coords(mp_dims, rep_dims, degree, coords) -> MPCochain:
    m, n = mp_dims
    p, q = rep_dims
    keys = cochain_basis(mp_dims, rep_dims, degree)
    if len(coords) != len(keys):
        raise ShapeMismatch("coordinate vector has wrong length")
    F = MPCochain(degree, m, n, p, q)
    for key, c in zip(keys, coords):
        if not c:
            continue
        if key[0] == "vec":
            F.vec[key[1]] = c
        else:
            r, part, gi, hj, idx = key
            table = F.component(r).part_v if part == "V" else F.component(r).part_w
            vec = table.setdefault((gi, hj), vzero(p if part == "V" else q))
            vec[idx] = c
    return F


def basis_cochain(mp_dims, rep_dims, degree, key) -> MPCochain:
    """The cochain whose coordinate at ``key``, one of the keys of
    ``cochain_basis``, is 1 and every other coordinate 0.  Only that key is
    built; any other key raises ValueError."""
    m, n = mp_dims
    p, q = rep_dims
    missing = ValueError(f"{key!r} is not in list")

    def increasing(t, size, bound):
        return (isinstance(t, tuple) and len(t) == size
                and all(x in range(bound) for x in t)
                and all(a < b for a, b in zip(t, t[1:])))

    if degree == 0:
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] == "vec"
                and key[1] in range(p + q)):
            raise missing
        F = MPCochain(0, m, n, p, q)
        F.vec[int(key[1])] = Fraction(1)
        return F
    if not (isinstance(key, tuple) and len(key) == 5
            and key[0] in range(1, degree + 1) and key[1] in ("V", "W")):
        raise missing
    r, part, gi, hj, idx = key
    r = int(r)
    size_g, size_h, dim = (degree - r + 1, r - 1, p) if part == "V" else (degree - r, r, q)
    if not (increasing(gi, size_g, m) and increasing(hj, size_h, n) and idx in range(dim)):
        raise missing
    vec = vzero(dim)
    vec[int(idx)] = Fraction(1)
    F = MPCochain(degree, m, n, p, q)
    table = F.component(r).part_v if part == "V" else F.component(r).part_w
    table[(tuple(map(int, gi)), tuple(map(int, hj)))] = vec
    return F


def _require_adjoint(mp: MatchedPair, F: MPCochain):
    if (F.dim_v, F.dim_w) != (mp.dim_g, mp.dim_h):
        raise CoefficientMismatch(
            "this route needs adjoint coefficients (V, W) = (g, h)"
        )
    if (F.dim_g, F.dim_h) != (mp.dim_g, mp.dim_h):
        raise DimensionMismatch("cochain does not live over this matched pair")


def _degree0_delta(mp, rep, vec) -> MPCochain:
    """The C^1-valued blocks of the degree-0 formula (see module docstring)."""
    m, n = mp.dim_g, mp.dim_h
    p, q = rep.dims
    v, w = vec[:p], vec[p:]
    out = MPCochain(1, m, n, p, q)
    part = out.component(1)
    for i in range(m):
        val = rep.act_rho_v(i, v)
        vaccum(val, -1, rep.pair_beta(w, i))
        if not vis_zero(val):
            part.part_v[((i,), ())] = val
    for a in range(n):
        val = rep.act_psi_w(a, w)
        vaccum(val, -1, rep.pair_alpha(v, a))
        if not vis_zero(val):
            part.part_w[((), (a,))] = val
    return out


def _scaled_cochain(F: MPCochain) -> MPCochain:
    """F times the least common denominator of its values, in ints; F
    itself when a value is not rational (a DualNumber)."""
    vectors = [F.vec] if F.degree == 0 else [
        vec for part in F.components for table in (part.part_v, part.part_w)
        for vec in table.values()]
    if any(type(x) is not int and type(x) is not Fraction for vec in vectors for x in vec):
        return F
    scale = common_denominator(vectors)
    if F.degree == 0:
        return MPCochain(0, F.dim_g, F.dim_h, F.dim_v, F.dim_w,
                         vec=[scaled_int(x, scale) for x in F.vec])
    components = []
    for part in F.components:
        out = BidegreeMap(*part.shape())
        out.part_v = {key: [scaled_int(x, scale) for x in vec] for key, vec in part.part_v.items()}
        out.part_w = {key: [scaled_int(x, scale) for x in vec] for key, vec in part.part_w.items()}
        components.append(out)
    return MPCochain(F.degree, F.dim_g, F.dim_h, F.dim_v, F.dim_w, components=components)


def _structure_maps(mp: MatchedPair):
    """The embedded halves mu x rho and psi x nu of the pair's structure
    element pi, built once and kept on the pair."""
    if mp._structure is None:
        pi = StructureElement.from_matched_pair(mp)
        mp._structure = (embed(pi.mu_rho), embed(pi.psi_nu))
    return mp._structure


def delta_mpl_adjoint(mp: MatchedPair, F: MPCochain) -> MPCochain:
    """Coboundary -[pi, F] computed through embedding and the graded bracket."""
    _require_adjoint(mp, F)
    m, n = mp.dim_g, mp.dim_h
    if F.degree == 0:
        return _degree0_delta(mp, adjoint_representation(mp), F.vec)
    p_map, q_map = _structure_maps(mp)
    total = SkewMultiMap.zero(F.degree, m + n, m + n)
    for part in F.components:
        total = total + embed(part)
    image = (nr_bracket(p_map, total) + nr_bracket(q_map, total)).scale(-1)
    dec = decompose(image, m, n)
    if not dec.in_m:
        raise ShapeMismatch(f"bracket left the diagonal components: {dec.off_m}")
    degree = F.degree + 1
    components = [dec.component(degree - r, r - 1) for r in range(1, degree + 1)]
    return MPCochain(degree, m, n, m, n, components=components)


# -- the explicit component formulas ---------------------------------------


def _delta_mu_rho(mp: MatchedPair, rep: MPRepresentation, fr: BidegreeMap,
                  n: int, r: int) -> BidegreeMap:
    """First block of the coboundary: C^{n-r|r-1} -> C^{n-r+1|r-1}.

    Runs over the stored keys (s, t) of F_r; a V-key feeds the V-part
    (n-r+2 g-slots, r-1 h-slots) and a W-key the W-part (n-r+1 g-slots,
    r h-slots) through the same three terms:

      action   s meets each i not in s in the key (s + {i}, t);
      rho      each b in t is replaced by each a with an h_b-coefficient
               in rho_i(h_a), i not in s, in the key (s + {i}, t - {b} + {a});
      bracket  each k in s is replaced by each pair a < b with c^k_ab != 0,
               a, b not in s - {k}, in the key (s - {k} + {a, b}, t).

    A V-key (s, t) also meets each b not in t in the W-key (s, t + {b})
    through the alpha-term.  The rho- and bracket-terms are summed in the
    groups the defining formula sums them in (one rho_i(h_a) or [x_a, x_b]
    argument of F), so every coordinate comes out with the same value and
    scalar type as from that formula.
    """
    m, nh = mp.dim_g, mp.dim_h
    p, q = rep.dims
    # rho_i(h_a) = sum of c h_b, by (i, b); [x_a, x_b] = sum of c x_k, by k
    rho_by_input = [[[] for _ in range(nh)] for _ in range(m)]
    for i in range(m):
        for a in range(nh):
            for b, c in enumerate(mp.rho[i][a]):
                if c:
                    rho_by_input[i][b].append((a, c))
    bracket_by_output = [[] for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            for k, c in enumerate(mp.g.c[a][b]):
                if c:
                    bracket_by_output[k].append((a, b, c))
    parts = []
    for source, dim, act, alpha_source in ((fr.part_v, p, rep.act_rho_v, {}),
                                           (fr.part_w, q, rep.act_rho_w, fr.part_v)):
        # one group per rho- or bracket-argument of F, its terms taking the
        # sign the formula adds the argument with
        acc, rho_groups, bracket_groups = {}, {}, {}
        for (s, t), vec in source.items():
            for i in range(m):
                if i in s:
                    continue
                pos = bisect_left(s, i)
                out_g = s[:pos] + (i,) + s[pos:]
                sign = -1 if pos % 2 else 1
                vaccum_at(acc, (out_g, t), sign, act(i, vec), dim)
                for tb, b in enumerate(t):
                    rest = t[:tb] + t[tb + 1:]
                    for a, c in rho_by_input[i][b]:
                        if a not in rest:
                            ja = bisect_left(rest, a)
                            group = (out_g, rest[:ja] + (a,) + rest[ja:], i, a)
                            vaccum_at(rho_groups, group,
                                      sign * c if (ja + tb) % 2 else -sign * c, vec, dim)
            for pk, k in enumerate(s):
                rest = s[:pk] + s[pk + 1:]
                for a, b, c in bracket_by_output[k]:
                    if a not in rest and b not in rest:
                        pa, pb = bisect_left(rest, a), bisect_left(rest, b) + 1
                        vaccum_at(bracket_groups, (rest, a, b, t),
                                  -c if (pa + pb + pk) % 2 else c, vec, dim)
        for (out_g, hj, _, _), total in rho_groups.items():
            vaccum_at(acc, (out_g, hj), 1, total, dim)
        for (rest, a, b, t), total in bracket_groups.items():
            vaccum_at(acc, (tuple(sorted(rest + (a, b))), t), 1, total, dim)
        for (s, t), vec in alpha_source.items():
            for b in range(nh):
                if b not in t:
                    jpos = bisect_left(t, b)
                    vaccum_at(acc, (s, t[:jpos] + (b,) + t[jpos:]),
                              -1 if (n - r + jpos) % 2 else 1, rep.pair_alpha(vec, b), dim)
        parts.append({key: acc[key] for key in sorted(acc) if not vis_zero(acc[key])})
    out = BidegreeMap(n - r + 1, r - 1, m, nh, p, q)
    out.part_v, out.part_w = parts
    return out


def _require_over(mp: MatchedPair, rep: MPRepresentation):
    if rep.base is not mp and not (
        rep.base.g == mp.g and rep.base.h == mp.h
        and rep.base.rho == mp.rho and rep.base.psi == mp.psi
    ):
        raise ShapeMismatch("representation is not over this matched pair")


def delta_mpl_coeff(mp: MatchedPair, rep: MPRepresentation, F: MPCochain) -> MPCochain:
    """Coboundary with coefficients in an arbitrary representation.

    Component r of the output is delta^{mu x rho}(F_r) + delta^{psi x nu}(F_{r-1}),
    where delta^{psi x nu} is delta^{mu x rho} of the flipped pair and
    representation, conjugated by ``BidegreeMap.flipped``.
    """
    if (F.dim_g, F.dim_h) != (mp.dim_g, mp.dim_h):
        raise DimensionMismatch("cochain does not live over this matched pair")
    if (F.dim_v, F.dim_w) != rep.dims:
        raise ShapeMismatch("cochain coefficients do not match the representation")
    _require_over(mp, rep)
    if F.degree == 0:
        return _degree0_delta(mp, rep, F.vec)
    n = F.degree
    degree = n + 1
    p, q = rep.dims
    flipped = rep.flipped()
    components = []
    for r in range(1, degree + 1):
        part = BidegreeMap(degree - r, r - 1, mp.dim_g, mp.dim_h, p, q)
        if r <= n:
            part = part + _delta_mu_rho(mp, rep, F.component(r), n, r)
        if r >= 2:
            # F_{r-1} has bidegree n-r+1|r-2; flipped, it sits in slot n-r+2
            mirror = _delta_mu_rho(flipped.base, flipped,
                                   F.component(r - 1).flipped(), n, n - r + 2)
            part = part + mirror.flipped()
        components.append(part)
    return MPCochain(degree, mp.dim_g, mp.dim_h, p, q, components=components)


def delta_matrix(mp: MatchedPair, rep: MPRepresentation, degree: int,
                 route: str = "coeff") -> Matrix:
    """Matrix of the degree-d differential of the complex.

    Degree 0 is the augmentation zero map (module docstring).  The
    explicit route (``coeff``) builds higher degrees from the stencil of
    mp and rep, and the adjoint route from -[pi, e] on each basis map e
    (``bracket.bracket_columns``), both in integer form (``linalg``): their
    public rows are built on their first read.  The adjoint route needs
    ``rep`` to be the adjoint representation of ``mp``.  A negative degree
    raises InputError, and a ``rep`` over another pair ShapeMismatch at
    every degree.
    """
    if route not in ("coeff", "adjoint"):
        raise ValueError(f"unknown route {route!r}")
    require_degree(degree)
    if route == "adjoint":
        adjoint = adjoint_representation(mp)
        if rep is not adjoint and not rep.tensors_equal(adjoint):
            raise CoefficientMismatch(
                "the adjoint route needs the adjoint representation of the pair"
            )
    else:
        _require_over(mp, rep)
    mp_dims = (mp.dim_g, mp.dim_h)
    rep_dims = rep.dims
    n_rows = cochain_space_dim(mp_dims, rep_dims, degree + 1)
    n_cols = cochain_space_dim(mp_dims, rep_dims, degree)
    if degree == 0:
        return Matrix.zero(n_rows, n_cols)
    if route == "coeff":
        return Matrix.from_integer_columns(n_rows, n_cols, *coeff_columns(rep, degree))
    from .bracket import bracket_columns

    return Matrix.from_integer_columns(n_rows, n_cols, *bracket_columns(mp, degree))


def mpl_cohomology_dims(mp: MatchedPair, rep: MPRepresentation,
                        max_degree: int) -> list[int]:
    """Dimensions of H^0 .. H^max_degree with coefficients in rep."""
    mp.require_valid()
    rep.require_valid()
    return cohomology_dims(lambda d: delta_matrix(mp, rep, d), max_degree)


def mpl_dimension_report(mp, rep, max_degree) -> list[dict]:
    dims = mpl_cohomology_dims(mp, rep, max_degree)
    mp_dims = (mp.dim_g, mp.dim_h)
    return [
        {
            "degree": d,
            "cochain_dim": cochain_space_dim(mp_dims, rep.dims, d),
            "h_dim": dims[d],
        }
        for d in range(max_degree + 1)
    ]


# -- embedding into the combined-product complex ----------------------------


def phi_embed(F: MPCochain) -> SkewMultiMap:
    """The cochain as a skew map on g + h (adjoint coefficients only)."""
    if (F.dim_v, F.dim_w) != (F.dim_g, F.dim_h):
        raise CoefficientMismatch("only adjoint-coefficient cochains embed")
    m, n = F.dim_g, F.dim_h
    if F.degree == 0:
        return SkewMultiMap(0, m + n, m + n, {(): list(F.vec)})
    total = SkewMultiMap.zero(F.degree, m + n, m + n)
    for part in F.components:
        total = total + embed(part)
    return total


def phi_chain_check(mp: MatchedPair, F: MPCochain) -> ValidationReport:
    """Whether embedding commutes with the two coboundaries on this cochain.

    For degrees >= 1 this is an identity; at degree 0 the report records
    the off-diagonal blocks the degree-0 operation cannot carry.  In
    degree >= 1 it is decided in ints on F times the least common
    denominator of its values (``bracket.phi_holds``) where it can be;
    otherwise, and when it fails, the ring-generic difference gives the
    witnesses.
    """
    mp.require_valid()
    _require_adjoint(mp, F)
    from .bracket import phi_holds
    from .matched import bicrossed_product

    big = bicrossed_product(mp).adjoint()
    report = ValidationReport("chain-map equation for the embedding")
    check = report.new_check(f"degree {F.degree}")
    scaled = _scaled_cochain(F)
    if F.degree and scaled is not F and phi_holds(mp, big, scaled):
        return report
    diff = _phi_difference(mp, big, scaled)
    if not diff.is_zero():
        diff = _phi_difference(mp, big, F)
    for key, vec in sorted(diff.coeffs.items()):
        check.add(key, vec)
    return report


def _phi_difference(mp: MatchedPair, big_adjoint, F: MPCochain) -> SkewMultiMap:
    """phi(delta F) - delta_CE(phi F), big_adjoint being the adjoint
    representation of the combined product of mp."""
    lhs = phi_embed(delta_mpl_adjoint(mp, F))
    return lhs - ce_coboundary(big_adjoint, phi_embed(F), F.degree)


# -- the bialgebra complex ---------------------------------------------------

# Frozen conventions for the comparison map and the dual-side coboundary.
# The transpose of xi: L^p g -> L^q g is taken in the monomial bases with
# no extra sign; contraction extracts the slot moved to the end.  The sign
# exponents below are pinned by requiring delta_liebi^2 = 0 and the chain
# law against the matched-pair complex on fixtures of dims 2 and 3 (the
# test suite re-checks both, and holds liebi_coboundary against the
# double's stencil up to dimension 4); the dual-side differential carries
# the Koszul twist (-1)^p that makes the two halves anticommute.
def _DUAL_TWIST(p, q):
    return -1 if p % 2 else 1


def _BAR_SIGN(p, q):
    return -1 if q % 2 else 1


class LieBiCochain:
    """Degree-n tuple (xi_1, ..., xi_n), xi_r: L^{n-r+1} g -> L^r g.

    Components are stored as SkewMultiMaps into the wedge-basis
    coordinates of L^r g.
    """

    __slots__ = ("degree", "dim", "components")

    def __init__(self, degree: int, dim: int, components=None):
        self.degree = degree
        self.dim = dim
        if components is None:
            components = [
                SkewMultiMap.zero(degree - r + 1, dim, comb(dim, r))
                for r in range(1, degree + 1)
            ]
        if len(components) != degree:
            raise ShapeMismatch(f"degree-{degree} cochain needs {degree} components")
        for r, part in enumerate(components, start=1):
            if part.arity != degree - r + 1 or part.dim != dim \
                    or part.codim != comb(dim, r):
                raise ShapeMismatch(f"component {r} has the wrong shape")
        self.components = list(components)

    def is_zero(self):
        return all(part.is_zero() for part in self.components)

    def __eq__(self, other):
        if not isinstance(other, LieBiCochain):
            return NotImplemented
        return (self.degree, self.dim) == (other.degree, other.dim) \
            and self.components == other.components


def liebi_space_dim(dim: int, degree: int) -> int:
    if degree == 0:
        return 0
    return sum(
        comb(dim, degree - r + 1) * comb(dim, r) for r in range(1, degree + 1)
    )


def liebi_basis(dim: int, degree: int):
    keys = []
    for r in range(1, degree + 1):
        for gi in combinations(range(dim), degree - r + 1):
            for t, _ in enumerate(wedge_basis(dim, r)):
                keys.append((r, gi, t))
    return keys


def _liebi_coords(xi: LieBiCochain):
    out = []
    for r, gi, t in liebi_basis(xi.dim, xi.degree):
        vec = xi.components[r - 1].coeffs.get(gi)
        out.append(vec[t] if vec is not None else 0)
    return out


def liebi_to_coords(xi: LieBiCochain):
    return [Fraction(x) for x in _liebi_coords(xi)]


def liebi_from_coords(dim, degree, coords) -> LieBiCochain:
    keys = liebi_basis(dim, degree)
    if len(coords) != len(keys):
        raise ShapeMismatch("coordinate vector has wrong length")
    xi = LieBiCochain(degree, dim)
    for (r, gi, t), c in zip(keys, coords):
        if not c:
            continue
        table = xi.components[r - 1].coeffs
        vec = table.setdefault(gi, vzero(comb(dim, r)))
        vec[t] = c
    return xi


def _transpose_hom(xi: SkewMultiMap, dim: int, p: int, q: int) -> SkewMultiMap:
    """Hom(L^p g, L^q g) -> Hom(L^q g*, L^p g*) in the monomial bases."""
    src = wedge_basis(dim, p)
    dst = wedge_basis(dim, q)
    coeffs = {}
    for si, skey in enumerate(src):
        vec = xi.coeffs.get(skey)
        if vec is None:
            continue
        for ti, tkey in enumerate(dst):
            if vec[ti]:
                out = coeffs.setdefault(tkey, vzero(len(src)))
                out[si] = out[si] + vec[ti]
    return SkewMultiMap(q, dim, len(src), coeffs)


def delta_g_side(b: LieBialgebra, xi_r: SkewMultiMap, p: int, q: int) -> SkewMultiMap:
    """Coboundary of g with coefficients in L^q g applied to xi_r."""
    return ce_coboundary(b.wedge_module(q), xi_r, p)


def delta_dual_side(b: LieBialgebra, xi_r: SkewMultiMap, p: int, q: int) -> SkewMultiMap:
    """Transpose-conjugated coboundary of the dual algebra, L^p g* coefficients."""
    transposed = _transpose_hom(xi_r, b.g.dim, p, q)
    image = ce_coboundary(b.wedge_module(p, dual=True), transposed, q)
    back = _transpose_hom(image, b.g.dim, q + 1, p)
    return back.scale(_DUAL_TWIST(p, q))


def liebi_coboundary(b: LieBialgebra, xi: LieBiCochain) -> LieBiCochain:
    """Total coboundary (delta_g xi_1, ..., delta_g xi_r + delta_dual xi_{r-1}, ...)."""
    if xi.dim != b.g.dim:
        raise ShapeMismatch("cochain does not live over this bialgebra")
    n = xi.degree
    dim = xi.dim
    components = []
    for r in range(1, n + 2):
        part = SkewMultiMap.zero(n + 1 - r + 1, dim, comb(dim, r))
        if r <= n:
            part = part + delta_g_side(b, xi.components[r - 1], n - r + 1, r)
        if r >= 2:
            part = part + delta_dual_side(b, xi.components[r - 2], n - r + 2, r - 1)
        components.append(part)
    return LieBiCochain(n + 1, dim, components)


def liebi_matrix(b: LieBialgebra, degree: int) -> Matrix:
    """Matrix of the degree-n bialgebra coboundary, in integer form: the CE
    stencil of the double g |x| g* (``matched._double``, not validated) on
    the trivial module in degree n + 1 (module docstring), read
    (``stencil.subcomplex_columns``) with basis cochain (r, gi, t) of
    ``liebi_basis`` at the key gi + (dim + T), T the t-th r-key of
    ``wedge_basis``."""
    require_degree(degree)
    dim = b.g.dim
    if b._trivial is None:  # the tables are kept on this module
        b._trivial = LieRep.trivial(_bicrossed(_double(b)))
    bracket, action, scale = ce_tables(b._trivial)

    def coordinates(d):
        return [(gi + tuple(dim + a for a in wedge_basis(dim, r)[t]), (0,))
                for r, gi, t in liebi_basis(dim, d)]

    columns = subcomplex_columns(2 * dim, bracket, action, 1, degree + 1,
                                 coordinates(degree), coordinates(degree + 1))
    return Matrix.from_integer_columns(liebi_space_dim(dim, degree + 1), len(columns),
                                       scale, columns)


def _contract_last(dim: int, q: int, vec, fixed) -> list:
    """Pair a L^q coefficient vector against q-1 fixed indices; vector in g.

    For a monomial e_J the surviving factor is the unique j in J \\ fixed,
    with the sign of moving slot t (1-based position of j in J) to the end.
    """
    out = vzero(dim)
    fixed_set = frozenset(fixed)
    if len(fixed_set) != len(fixed):
        return out
    for t_index, key in enumerate(wedge_basis(dim, q)):
        c = vec[t_index]
        if not c:
            continue
        key_set = frozenset(key)
        if not (fixed_set <= key_set):
            continue
        extra = key_set - fixed_set
        if len(extra) != 1:
            continue
        (j,) = extra
        t = key.index(j) + 1
        out[j] = out[j] + ((-1) ** (q - t)) * c
    return out


def psi_map(b: LieBialgebra, xi: LieBiCochain) -> MPCochain:
    """The comparison cochain over the coadjoint matched pair of the bialgebra.

    Component r of degree n sends xi_r: L^p g -> L^q g (p = n-r+1, q = r) to
    the bidegree (p-1, q-1) pair: the V-part contracts the output wedge
    against dual covectors, the W-part contracts the transpose against
    algebra vectors.
    """
    dim = b.g.dim
    n = xi.degree
    out = MPCochain(n, dim, dim, dim, dim)
    for r in range(1, n + 1):
        p, q = n - r + 1, r
        part = out.component(r)
        comp = xi.components[r - 1]
        for gi in combinations(range(dim), p):
            vec = comp.coeffs.get(gi)
            if vec is None:
                continue
            for hj in combinations(range(dim), q - 1):
                val = _contract_last(dim, q, vec, hj)
                if not vis_zero(val):
                    part.part_v[(gi, hj)] = val
        transposed = _transpose_hom(comp, dim, p, q)
        sign_b = _BAR_SIGN(p, q)
        for hj in combinations(range(dim), q):
            vec = transposed.coeffs.get(hj)
            if vec is None:
                continue
            for gi in combinations(range(dim), p - 1):
                val = _contract_last(dim, p, vec, gi)
                if not vis_zero(val):
                    part.part_w[(gi, hj)] = [sign_b * x for x in val]
    return out


def psi_compare(b: LieBialgebra, xi: LieBiCochain) -> ValidationReport:
    """Chain law: comparison of psi(delta_liebi xi) with delta_mpl(psi xi)."""
    mp = bialgebra_to_matched_pair(b)
    diff = psi_map(b, liebi_coboundary(b, xi)) - delta_mpl_adjoint(mp, psi_map(b, xi))
    report = ValidationReport("chain-map equation for the bialgebra comparison")
    for r in range(1, diff.degree + 1):
        check = report.new_check(f"component {r}")
        part = diff.component(r)
        for key, vec in sorted(part.part_v.items()):
            check.add(("V",) + key, vec)
        for key, vec in sorted(part.part_w.items()):
            check.add(("W",) + key, vec)
    return report

