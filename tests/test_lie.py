import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mpla import (LieAlgebra, LieRep, SkewMultiMap, ce_cohomology_dims,
                  ce_coboundary, ce_matrix, nr_bracket, validate_lie_algebra,
                  validate_representation, wedge_rep)
from mpla.catalog import aff1, heisenberg3, sl2
from mpla.scalars import DualNumber, zero_tensor

from helpers import LinearForm, pull_ce_coboundary, rand_lie_candidate, rand_skew_map


def test_validate_abelian_and_aff1():
    assert validate_lie_algebra(LieAlgebra.abelian(4)).ok
    assert validate_lie_algebra(aff1()).ok
    assert validate_lie_algebra(heisenberg3()).ok
    assert validate_lie_algebra(sl2()).ok


def test_validate_reports_jacobi_witness():
    bad = LieAlgebra.from_brackets(
        3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]}
    )
    report = validate_lie_algebra(bad)
    assert not report.ok
    names = [c.name for c in report.failed_checks()]
    assert names == ["jacobi"]
    assert report.failed_checks()[0].witnesses[0].where == (0, 1, 2)


def test_adjoint_and_zero_reps_are_valid():
    for g in (aff1(), heisenberg3(), sl2()):
        assert validate_representation(g.adjoint()).ok
        assert validate_representation(LieRep.zero(g, 3)).ok


def test_invalid_representation_witness():
    # rho(e1) = rho(e2) = 1 on a line: the commutator vanishes but
    # rho([e1, e2]) = rho(e2) = 1
    rep = LieRep(aff1(), 1, [[[1]], [[1]]])
    report = validate_representation(rep)
    assert not report.ok
    assert report.failed_checks()[0].witnesses[0].where == (0, 1, 0)


def test_ce_coboundary_degree_zero_and_identity():
    g = aff1()
    adj = g.adjoint()
    # degree 0: d(v)(x) = [x, v]
    v = SkewMultiMap(0, 2, 2, {(): [0, 1]})
    dv = ce_coboundary(adj, v, 0)
    assert dv.evaluate((0,)) == g.bracket_basis(0, 1)
    # f = identity: d(f)(x, y) = [x, y]
    ident = SkewMultiMap(1, 2, 2, {(0,): [1, 0], (1,): [0, 1]})
    assert ce_coboundary(adj, ident, 1) == g.bracket_map()


def test_ce_coboundary_of_abelian_trivial_rep_is_zero():
    g = LieAlgebra.abelian(3)
    rep = LieRep.trivial(g)
    rng = random.Random(9)
    for n in range(3):
        f = rand_skew_map(rng, n, 3, codim=1)
        assert ce_coboundary(rep, f, n).is_zero()


def test_ce_equals_bracket_route_for_adjoint():
    rng = random.Random(10)
    for g in (aff1(), heisenberg3(), sl2()):
        adj = g.adjoint()
        mu = g.bracket_map()
        for n in range(0, 4):
            f = rand_skew_map(rng, n, g.dim)
            assert ce_coboundary(adj, f, n) == nr_bracket(mu, f).scale(-1)


def test_ce_matrices_square_to_zero():
    rng = random.Random(11)
    for g in (aff1(), heisenberg3(), sl2()):
        for rep in (g.adjoint(), LieRep.trivial(g), wedge_rep(g, 2)):
            assert validate_representation(rep).ok
            mats = [ce_matrix(rep, n) for n in range(5)]
            for n in range(4):
                assert mats[n + 1].mul(mats[n]).is_zero()
    # random valid representations: derivations-of-abelian style
    for _ in range(5):
        g = rand_lie_candidate(rng, 2)
        if not validate_lie_algebra(g).ok:
            continue
        mats = [ce_matrix(g.adjoint(), n) for n in range(4)]
        for n in range(3):
            assert mats[n + 1].mul(mats[n]).is_zero()


def test_ce_cohomology_dims():
    # abelian line, trivial coefficients: every differential vanishes
    assert ce_cohomology_dims(LieRep.trivial(LieAlgebra.abelian(1)), 1) == [1, 1]
    # aff1 adjoint: no center, every derivation is inner
    assert ce_cohomology_dims(aff1().adjoint(), 1) == [0, 0]
    # degrees above the dimension vanish
    assert ce_cohomology_dims(aff1().adjoint(), 4)[3:] == [0, 0]


def test_wedge_rep_is_representation():
    for g in (aff1(), heisenberg3(), sl2()):
        for q in (1, 2, 3):
            assert validate_representation(wedge_rep(g, q)).ok


# -- the coboundary over f's support, against the defining formula -----------

SCALARS = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(3, 5)])
VALUES = {
    "scalar": SCALARS,
    "linear": st.dictionaries(st.integers(0, 3), st.sampled_from([1, -1, 2, Fraction(1, 3)]),
                              max_size=2).map(LinearForm),
    "dual": st.builds(DualNumber, SCALARS, SCALARS),
}


@st.composite
def algebras_and_reps(draw):
    """A skew bracket drawn entry by entry and a zero or random action: mostly
    neither a Lie algebra nor a representation."""
    dim = draw(st.integers(1, 5))
    g = LieAlgebra.from_brackets(dim, {
        key: [draw(SCALARS) for _ in range(dim)]
        for key in combinations(range(dim), 2) if draw(st.booleans())})
    space_dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return LieRep.zero(g, space_dim)
    action = [[[draw(SCALARS) for _ in range(space_dim)] for _ in range(space_dim)]
              for _ in range(dim)]
    return LieRep(g, space_dim, action)


def _plain(m):
    """Coefficients of m, linear forms as their terms, with each value's type."""
    return {key: [(type(x), x.terms if isinstance(x, LinearForm) else x) for x in vec]
            for key, vec in m.coeffs.items()}


@seed(7)
@settings(max_examples=300, deadline=None)
@given(algebras_and_reps(), st.data())
def test_ce_coboundary_matches_pull_form(rep, data):
    dim, codim = rep.algebra.dim, rep.space_dim
    arity = data.draw(st.integers(0, dim))
    keys = list(combinations(range(dim), arity))
    if data.draw(st.booleans()):
        keys = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=2))
    else:
        keys = data.draw(st.permutations(keys))
    values = VALUES[data.draw(st.sampled_from(sorted(VALUES)))]
    f = SkewMultiMap(arity, dim, codim,
                     {key: [data.draw(values) for _ in range(codim)] for key in keys})
    got, expected = ce_coboundary(rep, f, arity), pull_ce_coboundary(rep, f, arity)
    assert (got.arity, got.dim, got.codim) == (expected.arity, expected.dim, expected.codim)
    assert _plain(got) == _plain(expected)
    assert list(got.coeffs) == list(expected.coeffs)


def test_ce_coboundary_sums_each_bracket_argument_before_adding_it():
    # [e0, e1] = e0 - e1 sends f(e0) - f(e1) = [0, 1] into key (0, 1): the
    # cancelled slot was never added, so it stays the int 0 it started as
    g = LieAlgebra.from_brackets(2, {(0, 1): [Fraction(1), Fraction(-1)]})
    rep = LieRep.zero(g, 2)
    f = SkewMultiMap(1, 2, 2, {(0,): [1, 1], (1,): [1, 0]})
    got = ce_coboundary(rep, f, 1)
    assert got.coeffs == {(0, 1): [0, -1]}
    assert [type(x) for x in got.coeffs[(0, 1)]] == [int, Fraction]
    assert _plain(got) == _plain(pull_ce_coboundary(rep, f, 1))


def _constructors():
    """(name, build) for the seven structures that copy dense tensors;
    build(tensors) makes the structure from {field: tensor}, and the
    fields come with tensors of the right shape (every dimension >= 1)."""
    from mpla import (DeformationCandidate, MatchedPair, MPRepresentation,
                      SkeletalMatchedPair, TwoTermLInfinity)
    from mpla.catalog import mp_double

    g, base = aff1(), mp_double()
    G, H = TwoTermLInfinity.from_sparse(2, 1), TwoTermLInfinity.from_sparse(1, 2)
    m, p, n, q = 2, 1, 1, 2
    table = [
        ("LieAlgebra", lambda t: LieAlgebra(2, *t.values()), {"bracket": (2, 2, 2)}),
        ("LieRep", lambda t: LieRep(g, 3, *t.values()), {"action": (2, 3, 3)}),
        ("MatchedPair", lambda t: MatchedPair(g, heisenberg3(), *t.values()),
         {"rho": (2, 3, 3), "psi": (3, 2, 2)}),
        ("MPRepresentation", lambda t: MPRepresentation(base, 1, 3, *t.values()),
         {"rho_V": (2, 1, 1), "psi_V": (2, 1, 1), "rho_W": (2, 3, 3), "psi_W": (2, 3, 3),
          "alpha": (1, 2, 3), "beta": (3, 2, 1)}),
        ("TwoTermLInfinity", lambda t: TwoTermLInfinity(2, 3, *t.values()),
         {"mu1": (3, 2), "bracket00": (2, 2, 2), "bracket01": (2, 3, 3), "mu3": (2, 2, 2, 3)}),
        ("SkeletalMatchedPair", lambda t: SkeletalMatchedPair(G, H, *t.values()),
         {"rho2_00": (m, n, n), "rho2_01": (m, q, q), "rho2_10": (p, n, q),
          "rho3": (m, m, n, q), "psi2_00": (n, m, m), "psi2_01": (n, p, p),
          "psi2_10": (q, m, p), "psi3": (n, n, m, p)}),
        ("DeformationCandidate", lambda t: DeformationCandidate(2, 3, *t.values()),
         {"mu1": (2, 2, 2), "nu1": (3, 3, 3), "rho1": (2, 3, 3), "psi1": (3, 2, 2)}),
    ]
    return [(name, build, {field: zero_tensor(shape) for field, shape in shapes.items()})
            for name, build, shapes in table]


def _first_vector(tensor):
    while isinstance(tensor[0][0], list):
        tensor = tensor[0]
    return tensor[0]


def test_every_constructor_names_the_field_of_a_misshapen_tensor():
    """Each constructor takes the well-shaped tensors and raises
    MalformedTensor naming the field both when a tensor's outer list is one
    short and when one of its value vectors is."""
    from mpla import MalformedTensor

    for name, build, tensors in _constructors():
        build(tensors)
        for field in tensors:
            for short in (list.pop, lambda t: _first_vector(t).pop()):
                bad = copy.deepcopy(tensors)
                short(bad[field])
                with pytest.raises(MalformedTensor) as info:
                    build(bad)
                assert str(info.value).startswith(field + " "), (name, field, str(info.value))
