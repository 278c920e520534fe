import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpla import SkewMultiMap, SpaceMismatch, nr_bracket
from mpla import multimap
from mpla.bigraded import StructureElement
from mpla.catalog import mp_semidirect_double
from mpla.multimap import insertion, shuffles, sort_sign

from helpers import (LinearForm, pull_insertion, rand_lie_candidate, rand_skew_map,
                     shuffle_insertion)


def test_sort_sign():
    assert sort_sign((0, 1, 2)) == (1, (0, 1, 2))
    assert sort_sign((1, 0)) == (-1, (0, 1))
    assert sort_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_sign((1, 1)) == (0, (1, 1))


def test_shuffles_lexicographic_with_signs():
    got = shuffles(2, 1)
    assert got == (((0, 1), (2,), 1), ((0, 2), (1,), -1), ((1, 2), (0,), 1))
    assert len(shuffles(2, 2)) == 6


def test_skew_evaluation():
    f = SkewMultiMap(2, 3, 3, {(0, 1): [0, 0, 1]})
    assert f.evaluate((0, 1)) == [0, 0, 1]
    assert f.evaluate((1, 0)) == [0, 0, -1]
    assert f.evaluate((1, 1)) == [0, 0, 0]
    assert f.evaluate_mixed(([2, 0, 0], 1)) == [0, 0, 2]


def test_identity_bracket_bilinear():
    # [id, mu] = mu for any skew bilinear mu
    rng = random.Random(1)
    for _ in range(10):
        dim = rng.randint(1, 3)
        ident = SkewMultiMap(1, dim, dim, {
            (i,): [int(i == j) for j in range(dim)] for i in range(dim)
        })
        mu = rand_skew_map(rng, 2, dim)
        assert nr_bracket(ident, mu) == mu
        # and the two insertion halves: i_id mu = 2 mu, i_mu id = mu
        assert insertion(ident, mu) == mu + mu
        assert insertion(mu, ident) == mu


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(2)
    for _ in range(25):
        dim = 3
        f = rand_skew_map(rng, rng.randint(1, 3), dim)
        g = rand_skew_map(rng, rng.randint(1, 3), dim)
        h = rand_skew_map(rng, rng.randint(1, 3), dim)
        dm, dn, dp = f.arity - 1, g.arity - 1, h.arity - 1
        assert nr_bracket(f, g) == nr_bracket(g, f).scale(-((-1) ** (dm * dn)))
        total = (
            nr_bracket(f, nr_bracket(g, h)).scale((-1) ** (dm * dp))
            + nr_bracket(g, nr_bracket(h, f)).scale((-1) ** (dn * dm))
            + nr_bracket(h, nr_bracket(f, g)).scale((-1) ** (dp * dn))
        )
        assert total.is_zero()


def test_square_zero_iff_valid_bracket():
    rng = random.Random(3)
    from mpla import validate_lie_algebra

    seen_valid = seen_invalid = 0
    for _ in range(40):
        g = rand_lie_candidate(rng, rng.randint(2, 3))
        mu = g.bracket_map()
        valid = validate_lie_algebra(g).ok
        assert valid == nr_bracket(mu, mu).is_zero()
        seen_valid += valid
        seen_invalid += not valid
    assert seen_valid and seen_invalid


def test_arity_zero_conventions():
    # plugging a vector into a bilinear bracket: [mu, v](x) = mu(v, x)
    rng = random.Random(4)
    mu = rand_skew_map(rng, 2, 3)
    v = SkewMultiMap(0, 3, 3, {(): [1, 2, 0]})
    br = nr_bracket(mu, v)
    assert br.arity == 1
    for i in range(3):
        assert br.evaluate((i,)) == mu.evaluate_mixed(([1, 2, 0], i))


def test_space_mismatch():
    f = rand_skew_map(random.Random(5), 2, 3)
    g = rand_skew_map(random.Random(6), 2, 2)
    with pytest.raises(SpaceMismatch):
        nr_bracket(f, g)


# -- insertion over the support of f, against the shuffle sum ----------------

SCALARS = st.sampled_from([0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(3, 5)])
FORMS = st.dictionaries(st.integers(0, 3), st.sampled_from([1, -1, 2, Fraction(1, 3)]),
                        max_size=2).map(LinearForm)


@st.composite
def skew_maps(draw, arity, dim, codim, linear):
    """A map whose support is every key (dense) or a few keys in random order."""
    keys = list(combinations(range(dim), arity))
    if keys and not draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
    else:
        keys = draw(st.permutations(keys))
    values = FORMS if linear else SCALARS
    return SkewMultiMap(arity, dim, codim,
                        {key: [draw(values) for _ in range(codim)] for key in keys})


def _plain(m):
    """The coefficients of m, each value with its type and linear forms as
    their terms (so an int 0 and a Fraction(0) differ)."""
    return {key: [(type(x), x.terms if isinstance(x, LinearForm) else x) for x in vec]
            for key, vec in m.coeffs.items()}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_insertion_matches_shuffle_sum(data):
    dim = data.draw(st.integers(1, 4))
    f_arity, g_arity = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    linear = data.draw(st.sampled_from(["f", "g", None]))
    f = data.draw(skew_maps(f_arity, dim, dim, linear == "f"))
    g = data.draw(skew_maps(g_arity, dim, data.draw(st.integers(1, 3)), linear == "g"))
    got, expected = insertion(f, g), shuffle_insertion(f, g)
    assert (got.arity, got.dim, got.codim) == (expected.arity, expected.dim, expected.codim)
    assert _plain(got) == _plain(expected)
    assert list(got.coeffs) == list(expected.coeffs)


def test_insertion_sort_signs_are_bounded_by_the_keys_it_meets(monkeypatch):
    # i_f g for a one-key g costs at most arity(g) * |f| sort signs, whatever
    # the dimension: one per key of f indexed under each index of g's key
    calls = []

    def counting(idx):
        calls.append(idx)
        return sort_sign(idx)

    monkeypatch.setattr(multimap, "sort_sign", counting)
    mp = mp_semidirect_double()
    f = StructureElement.from_matched_pair(mp).total()
    dim = f.dim
    pull_exceeds = False
    for arity in range(1, 5):
        for key in list(combinations(range(dim), arity))[::7]:
            g = SkewMultiMap(arity, dim, 2, {key: [1, Fraction(-1, 2)]})
            calls.clear()
            got = insertion(f, g)
            assert len(calls) <= arity * len(f.coeffs), (arity, key)
            calls.clear()
            expected = pull_insertion(f, g)
            pull_exceeds |= len(calls) > arity * len(f.coeffs)
            assert _plain(got) == _plain(expected)
    assert pull_exceeds  # the form that pulls at every tail breaks the bound
