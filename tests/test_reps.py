import random

import pytest

from mpla import (LieRep, MPRepresentation, NotRestrictable,
                  adjoint_representation, coadjoint_representation,
                  dual_representation, extract_rep_from_bicross,
                  induced_bicross_rep, semidirect_product,
                  validate_matched_pair, validate_mp_representation,
                  validate_representation)
from mpla.reps import assemble_semidirect
from mpla.catalog import mp_a, mp_double, standard_fixtures

from helpers import coadjoint_oracle, rand_mp_candidate, rand_mp_rep_candidate


def test_adjoint_and_zero_reps_valid_on_all_fixtures():
    for name, mp in standard_fixtures():
        assert validate_mp_representation(adjoint_representation(mp)).ok, name
        assert validate_mp_representation(MPRepresentation.zero(mp, (2, 2))).ok, name
        assert validate_mp_representation(coadjoint_representation(mp)).ok, name


def test_scaled_pairing_breaks_on_a_two_sided_pair():
    mp = mp_double()
    adj = adjoint_representation(mp)
    doubled = [[[2 * x for x in vec] for vec in row] for row in adj.alpha]
    bad = MPRepresentation(mp, 2, 2, adj.rho_v, adj.psi_v, adj.rho_w,
                           adj.psi_w, doubled, adj.beta)
    report = validate_mp_representation(bad)
    assert not report.ok
    assert {c.name for c in report.failed_checks()} == {"pairing(3)", "pairing(5)"}
    # and the semidirect route agrees with the verdict
    assert not validate_matched_pair(assemble_semidirect(bad)).ok


def test_semidirect_equivalence_randomized():
    rng = random.Random(41)
    fixtures = [mp for _, mp in standard_fixtures() if mp.dim_g + mp.dim_h <= 4]
    valid_seen = invalid_seen = 0
    for trial in range(60):
        mp = fixtures[trial % len(fixtures)]
        dims = (rng.randint(1, 2), rng.randint(1, 2))
        cand = rand_mp_rep_candidate(rng, mp, dims)
        lhs = validate_mp_representation(cand).ok
        rhs = validate_matched_pair(assemble_semidirect(cand)).ok
        assert lhs == rhs
        valid_seen += lhs
        invalid_seen += not lhs
    assert invalid_seen
    # valid candidates are exercised through the adjoint representations
    for _, mp in standard_fixtures():
        rep = adjoint_representation(mp)
        assert validate_matched_pair(assemble_semidirect(rep)).ok


def test_semidirect_projects_back_to_base():
    for name, mp in standard_fixtures():
        rep = adjoint_representation(mp)
        big = semidirect_product(rep)
        m, n = mp.dim_g, mp.dim_h
        p, q = rep.dims
        for i in range(m):
            for j in range(m):
                assert big.g.c[i][j][:m] == mp.g.c[i][j], name
            for a in range(n):
                assert big.rho[i][a][:n] == mp.rho[i][a], name
        for a in range(n):
            for i in range(m):
                assert big.psi[a][i][:m] == mp.psi[a][i], name


def test_zero_representation_gives_split_objects():
    mp = mp_a()
    rep = MPRepresentation.zero(mp, (2, 1))
    big = semidirect_product(rep)
    assert validate_matched_pair(big).ok
    induced = induced_bicross_rep(rep)
    assert all(not any(vec) for row in induced.a for vec in row)


def test_induced_bicross_rep_valid_and_restricts():
    for name, mp in standard_fixtures():
        rep = adjoint_representation(mp)
        induced = induced_bicross_rep(rep)
        assert validate_representation(induced).ok, name
        p, q = rep.dims
        for i in range(mp.dim_g):
            for u in range(p):
                assert induced.a[i][u][:p] == rep.rho_v[i][u], name


def test_extract_round_trip():
    for name, mp in standard_fixtures():
        for rep in (adjoint_representation(mp), coadjoint_representation(mp)):
            induced = induced_bicross_rep(rep)
            back = extract_rep_from_bicross(mp, induced, rep.dims)
            assert back.tensors_equal(rep), name


def test_extract_rejects_mixing_blocks():
    mp = mp_a()
    big = induced_bicross_rep(adjoint_representation(mp))
    action = [[list(vec) for vec in row] for row in big.a]
    action[0][0][1] = 7  # pure-g action now leaks V into W
    leaky = LieRep(big.algebra, 2, action)
    with pytest.raises(NotRestrictable) as info:
        extract_rep_from_bicross(mp, leaky, (1, 1))
    assert info.value.witness[0] == "V->W"


def test_dual_constructions():
    for name, mp in standard_fixtures():
        adj = adjoint_representation(mp)
        dual = dual_representation(adj)
        assert validate_mp_representation(dual).ok, name
        assert dual.tensors_equal(coadjoint_representation(mp)), name
        assert dual_representation(dual).tensors_equal(adj), name
    zero = MPRepresentation.zero(mp_a(), (2, 2))
    assert dual_representation(zero).tensors_equal(
        MPRepresentation.zero(mp_a(), (2, 2)))


def _tensor_reprs(r):
    return [r.dims] + [repr(t) for t in (r.rho_v, r.psi_v, r.rho_w, r.psi_w, r.alpha, r.beta)]


def test_coadjoint_is_the_dual_of_adjoint_entry_for_entry():
    """The coadjoint representation equals its explicit formulas (the
    oracle), with the scalar type of every entry, on the standard fixtures
    and on seeded random candidates, whose tensors mix int zeros with
    Fractions."""
    rng = random.Random(2626)
    pairs = [mp for _, mp in standard_fixtures()]
    pairs += [rand_mp_candidate(rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(300)]
    for mp in pairs:
        assert _tensor_reprs(coadjoint_representation(mp)) == _tensor_reprs(coadjoint_oracle(mp))
