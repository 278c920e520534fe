"""Skew-symmetric multilinear maps and the graded bracket on them.

A ``SkewMultiMap`` of arity k on a d-dimensional space stores one
codomain coefficient vector per strictly increasing k-tuple of basis
indices; evaluation on arbitrary tuples multiplies by the sign of the
sorting permutation and vanishes on repeated indices.  Canonical storage
makes equality of maps a coefficient comparison.

The bracket implemented here is

    [f, g] = i_f g - (-1)^{mn} i_g f,      m = arity(f) - 1, n = arity(g) - 1,

    (i_f g)(x_1, ..., x_{m+n+1}) =
        sum over (m+1, n)-shuffles s of sign(s) *
            g(f(x_{s(1)}, ..., x_{s(m+1)}), x_{s(m+2)}, ..., x_{s(m+n+1)}),

whose square-zero elements of arity 2 are exactly the Lie brackets.
Arity-0 maps (plain vectors) are allowed: i_f g plugs the vector into
the first slot of g, and i_g f of an arity-0 f is zero.

``insertion`` runs over the stored keys of g, with f's keys indexed by
output index, so it costs the keys the two maps meet in, not every
output key.  The walk at one key is ``meetings``: it splits the key into
an index k and a tail, meets each indexed key, and takes the sign of
sorting that key + tail; the integer insertion kernel of the ``bracket``
module walks keys with it too.  ``SkewMultiMap(...)`` checks each key and
drops zero vectors; ``SkewMultiMap.from_canonical`` takes canonical keys
and nonzero vectors over unchecked, for the builders here and in
``bigraded`` and ``lie`` whose keys are canonical by construction.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import ArityMismatch, SpaceMismatch
from .scalars import vaccum, vaccum_at, vis_zero, vzero


def sort_sign(idx):
    """(sign, sorted tuple) for the permutation sorting idx; sign 0 on repeats."""
    items = list(idx)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return 0, tuple(items)
    return sign, tuple(items)


@lru_cache(maxsize=None)
def shuffles(p: int, q: int):
    """All (p, q)-shuffles of positions 0..p+q-1, lexicographic by first block.

    Each entry is (first_block, second_block, sign).
    """
    n = p + q
    out = []
    for first in combinations(range(n), p):
        rest = tuple(i for i in range(n) if i not in first)
        sign = (-1) ** (sum(first) - p * (p - 1) // 2)
        out.append((first, rest, sign))
    return tuple(out)


class SkewMultiMap:
    """Skew multilinear map Lambda^arity(k^dim) -> k^codim."""

    __slots__ = ("arity", "dim", "codim", "coeffs")

    def __init__(self, arity: int, dim: int, codim: int, coeffs=None):
        self.arity = arity
        self.dim = dim
        self.codim = codim
        self.coeffs = {}
        if coeffs:
            for key, vec in coeffs.items():
                key = tuple(key)
                if len(key) != arity:
                    raise ArityMismatch(f"key {key} does not have arity {arity}")
                if any(not (0 <= i < dim) for i in key):
                    raise ArityMismatch(f"key {key} out of range for dim {dim}")
                if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                    raise ArityMismatch(f"key {key} is not strictly increasing")
                vec = list(vec)
                if len(vec) != codim:
                    raise ArityMismatch("coefficient vector has wrong length")
                if not vis_zero(vec):
                    self.coeffs[key] = vec

    @classmethod
    def from_canonical(cls, arity: int, dim: int, codim: int, coeffs) -> "SkewMultiMap":
        """The map storing coeffs, a dict from strictly increasing in-range
        keys of the arity to nonzero vectors of length codim; the dict is
        taken over, not copied or checked."""
        out = cls.__new__(cls)
        out.arity, out.dim, out.codim, out.coeffs = arity, dim, codim, coeffs
        return out

    @classmethod
    def zero(cls, arity, dim, codim):
        return cls(arity, dim, codim)

    def evaluate(self, idx):
        """Value on basis vectors e_{idx[0]}, ..., possibly unsorted or repeating."""
        if len(idx) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(idx)}")
        sign, key = sort_sign(idx)
        if sign == 0:
            return vzero(self.codim)
        vec = self.coeffs.get(key)
        if vec is None:
            return vzero(self.codim)
        return [sign * x for x in vec]

    def evaluate_mixed(self, args):
        """Evaluate with each argument either a basis index or a coefficient vector."""
        for pos, a in enumerate(args):
            if not isinstance(a, int):
                acc = vzero(self.codim)
                for idx, c in enumerate(a):
                    if c:
                        inner = self.evaluate_mixed(
                            args[:pos] + (idx,) + args[pos + 1:]
                        )
                        vaccum(acc, c, inner)
                return acc
        return self.evaluate(tuple(args))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, SkewMultiMap):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.dim == other.dim
            and self.codim == other.codim
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        self._check_same_shape(other)
        out = dict((k, list(v)) for k, v in self.coeffs.items())
        for k, v in other.coeffs.items():
            if k in out:
                merged = [a + b for a, b in zip(out[k], v)]
                if vis_zero(merged):
                    del out[k]
                else:
                    out[k] = merged
            else:
                out[k] = list(v)
        return SkewMultiMap.from_canonical(self.arity, self.dim, self.codim, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "SkewMultiMap":
        out = {}
        for k, v in self.coeffs.items():
            scaled = [c * x for x in v]
            if not vis_zero(scaled):
                out[k] = scaled
        return SkewMultiMap.from_canonical(self.arity, self.dim, self.codim, out)

    def _check_same_shape(self, other):
        if (self.arity, self.dim, self.codim) != (other.arity, other.dim, other.codim):
            raise SpaceMismatch("maps have different arity or spaces")

    def __repr__(self):
        return f"SkewMultiMap(arity={self.arity}, dim={self.dim}, nonzero={len(self.coeffs)})"


def meetings(key, by_output):
    """The shuffle walk at one key: for each position pk of key, with
    k = key[pk] and tail = key minus k, each (sub, c) in by_output.get(k)
    disjoint from tail gives (sign, out_key, c), out_key being sorted(sub +
    tail) and sign (-1)^pk times the sign of sorting sub + tail."""
    for pk, k in enumerate(key):
        subs = by_output.get(k)
        if subs:
            tail = key[:pk] + key[pk + 1:]
            for sub, c in subs:
                sgn, out_key = sort_sign(sub + tail)
                if sgn:
                    yield (-sgn if pk % 2 else sgn), out_key, c


def insertion(f: SkewMultiMap, g: SkewMultiMap) -> SkewMultiMap:
    """i_f g: plug f into the first slot of g, summed over shuffles.

    Runs over the stored keys of g, with the keys of f indexed once by
    each output index k where f's vector is nonzero.  A key K of g splits
    into k at position pk and tail = K minus k, and g((k,) + tail) is
    (-1)^pk g(K).  Each indexed key ``sub`` of f disjoint from tail meets
    tail in the output key sorted(sub + tail), and the shuffle that splits
    that key into sub and tail has the sign of sorting sub + tail
    (``meetings``).  Output keys are stored in increasing order.
    """
    if f.dim != g.dim:
        raise SpaceMismatch("insertion requires maps on the same space")
    if f.codim != g.dim:
        raise SpaceMismatch("codomain of f must feed the slots of g")
    out_arity = f.arity + g.arity - 1
    if g.arity == 0 or out_arity < 0:
        return SkewMultiMap.zero(max(out_arity, 0), f.dim, g.codim)
    by_output = {}
    for sub, vec in f.coeffs.items():
        for k, ck in enumerate(vec):
            if ck:
                by_output.setdefault(k, []).append((sub, ck))
    acc = {}
    for key, gvec in g.coeffs.items():
        for sign, out_key, ck in meetings(key, by_output):
            vaccum_at(acc, out_key, sign * ck, gvec, g.codim)
    return SkewMultiMap.from_canonical(
        out_arity, f.dim, g.codim,
        {key: acc[key] for key in sorted(acc) if not vis_zero(acc[key])})


def nr_bracket(f: SkewMultiMap, g: SkewMultiMap) -> SkewMultiMap:
    """[f, g] = i_f g - (-1)^{mn} i_g f on maps from wedge powers of one space."""
    if f.dim != g.dim or f.codim != f.dim or g.codim != g.dim:
        raise SpaceMismatch("bracket needs endomorphism-valued maps on one space")
    m = f.arity - 1
    n = g.arity - 1
    term = insertion(f, g)
    other = insertion(g, f)
    if (m * n) % 2:
        return term + other
    return term - other
