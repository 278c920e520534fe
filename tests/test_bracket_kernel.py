"""The integer insertion kernel behind the graded-bracket route and the
chain law of the embedding phi.

``bracket.minus_bracket`` gives -[pi, e] for each basis map e, in ints.
``delta_matrix(route="adjoint")`` is built from it, and ``phi_chain_check``
decides phi(delta F) = delta_CE(phi F) with it and the CE stencil.  The
oracles are independent: one run of the graded bracket on a probe of
linear forms, the coeff stencil, and the ring-generic difference.
"""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mpla import (LieAlgebra, MatchedPair, adjoint_representation, basis_cochain,
                  bicrossed_product, cochain_basis, cochain_from_coords, delta_matrix,
                  phi_chain_check, stencil, validate_matched_pair)
from mpla import bracket, cohomology
from mpla.catalog import (aff1, mp_direct, mp_double, mp_semidirect_double, sl2,
                          standard_fixtures)
from mpla.linalg import Matrix

from helpers import (fraction_calls, probe_graded_bracket_matrix, rand_cochain,
                     rand_invertible)
from test_cohomology import conjugate_pair
from test_exact_laws import dual_cochain


def halves(mp):
    """mp in the basis that doubles the first vector of g: its constants
    hold halves."""
    m, n = mp.dim_g, mp.dim_h
    s_g = Matrix.from_rows([[2 if i == j == 0 else int(i == j) for j in range(m)]
                            for i in range(m)])
    return conjugate_pair(mp, s_g, Matrix.identity(n))


def skew_perturbed(rng, mp):
    """mp with one constant changed by an int or a proper fraction; g's and
    h's tables stay skew.  Mostly not a matched pair."""
    tensors = [copy.deepcopy(t) for t in (mp.g.c, mp.h.c, mp.rho, mp.psi)]
    which = rng.randrange(4)
    t = tensors[which]
    i, j = rng.randrange(len(t)), rng.randrange(len(t[0]))
    k = rng.randrange(len(t[i][j]))
    x = rng.choice([1, -1, 2, Fraction(1, 3), Fraction(-1, 2)])
    t[i][j][k] = t[i][j][k] + x
    if which < 2 and i != j:
        t[j][i][k] = t[j][i][k] - x
    elif which < 2:
        t[i][j][k] = t[i][j][k] - x
    g, h, rho, psi = tensors
    return MatchedPair(LieAlgebra(mp.dim_g, g), LieAlgebra(mp.dim_h, h), rho, psi)


def kernel_pairs(rng):
    """Catalog pairs, seeded conjugates, flips, pairs with halves, and
    perturbed pairs."""
    pairs = [mp for _, mp in standard_fixtures()]
    pairs += [mp_semidirect_double(), mp_direct(sl2(), aff1())]
    for mp in (mp_double(), mp_direct(sl2(), aff1())):
        pairs.append(conjugate_pair(mp, rand_invertible(rng, mp.dim_g),
                                    rand_invertible(rng, mp.dim_h)))
    pairs += [mp.flipped() for mp in pairs[-4:]]
    pairs += [halves(mp) for mp in (mp_double(), mp_semidirect_double())]
    pairs += [skew_perturbed(rng, mp) for mp in (mp_double(), mp_semidirect_double())]
    return pairs


# -- delta_matrix(route="adjoint") -------------------------------------------


@seed(1901)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_kernel_matrix_matches_the_probe_and_the_stencil(state, degree):
    rng = random.Random(state)
    mp = rng.choice(kernel_pairs(random.Random(state % 5)))
    if rng.random() < 0.5:
        mp = skew_perturbed(rng, mp)
    rep = adjoint_representation(mp)
    got = delta_matrix(mp, rep, degree, route="adjoint")
    assert got._scale is not None and got._data is None
    assert got == probe_graded_bracket_matrix(mp, degree)
    assert got == delta_matrix(mp, rep, degree)


def test_kernel_fixtures_cover_every_kind():
    pairs = kernel_pairs(random.Random(1))
    verdicts = {validate_matched_pair(mp).ok for mp in pairs}
    denominators = {x.denominator for mp in pairs for t in (mp.g.c, mp.h.c, mp.rho, mp.psi)
                    for row in t for vec in row for x in vec if type(x) is Fraction}
    assert verdicts == {True, False}
    assert 2 in denominators and any(d > 2 for d in denominators)
    for degree in (1, 2, 3):
        for mp in pairs:
            assert delta_matrix(mp, adjoint_representation(mp), degree, route="adjoint") \
                == probe_graded_bracket_matrix(mp, degree)


def test_adjoint_route_does_not_use_the_stencil(monkeypatch):
    mp = halves(mp_semidirect_double())
    rep = adjoint_representation(mp)
    expected = [probe_graded_bracket_matrix(mp, d) for d in (1, 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("the stencil was called")

    for name in ("ce_key_columns", "ce_stencil", "ce_tables", "coeff_columns",
                 "subcomplex_columns", "bicross_tables", "bracket_table", "action_table"):
        for module in (stencil, cohomology, bracket):
            monkeypatch.setattr(module, name, refuse, raising=module is stencil)
    assert [delta_matrix(mp, rep, d, route="adjoint") for d in (1, 2)] == expected
    with pytest.raises(AssertionError, match="stencil"):
        delta_matrix(mp, rep, 1)


def test_adjoint_route_and_phi_sweep_do_no_fraction_arithmetic():
    """On the 4+4 pair, whose constants are Fractions of denominator 1, the
    adjoint route and a passing degree-1 phi sweep run in ints, tables
    included."""
    mp = mp_semidirect_double()
    assert any(type(x) is Fraction for t in (mp.g.c, mp.h.c, mp.rho, mp.psi)
               for row in t for vec in row for x in vec)
    mp.require_valid()
    rep = adjoint_representation(mp)
    dims = (mp.dim_g, mp.dim_h)
    cochains = [basis_cochain(dims, dims, 1, key) for key in cochain_basis(dims, dims, 1)]
    with fraction_calls() as calls:
        for degree in (1, 2):
            delta_matrix(mp, rep, degree, route="adjoint")
        assert all(phi_chain_check(mp, F).ok for F in cochains)
    assert calls == []


# -- phi_chain_check ---------------------------------------------------------


def on_ring_route(fn):
    """fn() with the int decision of the chain law switched off: the
    ring-generic difference decides every cochain."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bracket, "phi_holds", lambda *args: False)
        return fn()


def phi_cochains(rng, mp, degree):
    dims = (mp.dim_g, mp.dim_h)
    keys = cochain_basis(dims, dims, degree)
    cochains = [basis_cochain(dims, dims, degree, key)
                for key in rng.sample(keys, min(3, len(keys)))]
    half = cochain_from_coords(dims, dims, degree,
                               [Fraction(rng.randint(-3, 3), 2) for _ in keys])
    ints = cochain_from_coords(dims, dims, degree, [rng.randint(-2, 2) for _ in keys])
    return cochains + [rand_cochain(rng, mp, dims, degree), ints, half, dual_cochain(half)]


def valid_kernel_pairs():
    return [mp for mp in kernel_pairs(random.Random(3)) if validate_matched_pair(mp).ok]


def test_phi_reports_equal_the_ring_generic_path():
    rng = random.Random(1902)
    failing = 0
    for mp in valid_kernel_pairs()[-8:]:
        for degree in range(3):
            for F in phi_cochains(rng, mp, degree):
                report = phi_chain_check(mp, F)
                assert repr(report) == on_ring_route(lambda: repr(phi_chain_check(mp, F)))
                failing += not report.ok
    assert failing >= 6


def refuse_ring_route(*args):
    raise AssertionError("the ring-generic difference was computed")


def test_phi_law_is_decided_in_ints():
    """Every rational cochain of degree >= 1 passes without the ring-generic
    difference, decided on the cochain scaled to ints; degree 0 and
    DualNumber values are left to the ring-generic path."""
    rng = random.Random(1903)
    decided = []
    with pytest.MonkeyPatch.context() as m:
        holds = bracket.phi_holds
        m.setattr(bracket, "phi_holds", lambda *args: decided.append(args[2]) or holds(*args))
        m.setattr(cohomology, "_phi_difference", refuse_ring_route)
        for mp in valid_kernel_pairs():
            for degree in (1, 2, 3):
                *rational, dual = phi_cochains(rng, mp, degree)
                for F in rational:
                    assert phi_chain_check(mp, F).ok
                    assert all(type(x) is int for part in decided[-1].components
                               for table in (part.part_v, part.part_w)
                               for vec in table.values() for x in vec)
    count = len(decided)
    for mp in valid_kernel_pairs():
        for F in phi_cochains(rng, mp, 0) + [phi_cochains(rng, mp, 1)[-1]]:
            phi_chain_check(mp, F)
    assert len(decided) == count
