"""The flip that exchanges the two sides of a matched pair.

δ^{ψ×ν} is computed as the flip-conjugate of δ^{μ×ρ}, and the mirrored
validator groups as their twins run on the flipped structure; the explicit
δ^{ψ×ν} sums of ``helpers.delta_psi_nu`` are the oracle for the former, the
mirrored reports for the latter.
"""

import random
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mpla import (BidegreeMap, adjoint_representation, coadjoint_representation,
                  delta_mpl_adjoint, delta_mpl_coeff, jsonio, mpl_cohomology_dims,
                  validate_matched_pair, validate_mp_representation)
from mpla.catalog import mp_semidirect_double, standard_fixtures
from mpla.cohomology import _delta_mu_rho
from mpla.skeletal import validate_skeletal_matched_pair

from helpers import (GL2_ROTA_BAXTER_H, delta_psi_nu, gl2_rota_baxter_pair,
                     rand_cochain, rand_mp_candidate, rand_mp_rep_candidate,
                     rand_skeletal_candidate)

DATA = Path(__file__).resolve().parent / "data"


def _pairs(*swaps):
    out = {}
    for a, b in swaps:
        out[a], out[b] = b, a
    return out


PAIR_MIRROR = _pairs(("jacobi(g)", "jacobi(h)"),
                     ("representation(rho)", "representation(psi)"),
                     ("compat(11)", "compat(22)"))
REP_MIRROR = _pairs(("rep(rho_V)", "rep(psi_W)"), ("rep(psi_V)", "rep(rho_W)"),
                    ("pairing(1)", "pairing(2)"), ("pairing(3)", "pairing(5)"),
                    ("pairing(4)", "pairing(6)"))
SKELETAL_MIRROR = _pairs(("G skeletal and coherent", "H skeletal and coherent"),
                         ("rho representation of G", "psi representation of H"),
                         ("mixed(1)", "mixed(2)"), ("mixed(3)", "mixed(5)"),
                         ("mixed(4)", "mixed(6)"),
                         ("compat(skel1)", "compat(skel3)"),
                         ("compat(skel2)", "compat(skel4)"))


@seed(6)
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 2), st.integers(1, 2))
def test_flip_route_matches_the_explicit_psi_nu_sums(state, m, n, p, q):
    # random candidates: the identity holds whether or not the data is valid
    rng = random.Random(state)
    mp = rand_mp_candidate(rng, m, n)
    rep = rand_mp_rep_candidate(rng, mp, (p, q))
    flipped = rep.flipped()
    for degree in range(1, 5):
        F = rand_cochain(rng, mp, (p, q), degree)
        for r in range(1, degree + 1):
            fr = F.component(r)
            mirror = _delta_mu_rho(flipped.base, flipped, fr.flipped(), degree,
                                   degree - r + 1).flipped()
            assert mirror == delta_psi_nu(mp, rep, fr, degree, r), (degree, r)
        image = delta_mpl_coeff(mp, rep, F)
        for r in range(1, degree + 2):
            expected = BidegreeMap(degree + 1 - r, r - 1, m, n, p, q)
            if r <= degree:
                expected = expected + _delta_mu_rho(mp, rep, F.component(r), degree, r)
            if r >= 2:
                expected = expected + delta_psi_nu(mp, rep, F.component(r - 1),
                                                   degree, r - 1)
            assert image.component(r) == expected, (degree, r)


def _assert_mirrored(report, flipped_report, mirror):
    assert [c.name for c in flipped_report.checks] == [c.name for c in report.checks]
    by_name = {c.name: c.witnesses for c in report.checks}
    for check in flipped_report.checks:
        assert check.witnesses == by_name[mirror[check.name]], check.name


def test_reports_of_flipped_structures_are_the_mirrored_reports():
    rng = random.Random(17)
    failing = set()
    for _ in range(6):
        mp = rand_mp_candidate(rng, rng.randint(1, 3), rng.randint(1, 3))
        report = validate_matched_pair(mp)
        _assert_mirrored(report, validate_matched_pair(mp.flipped()), PAIR_MIRROR)
        rep = rand_mp_rep_candidate(rng, mp, (rng.randint(1, 2), rng.randint(1, 2)))
        rep_report = validate_mp_representation(rep)
        _assert_mirrored(rep_report, validate_mp_representation(rep.flipped()),
                         REP_MIRROR)
        failing.update(c.name for c in report.failed_checks() + rep_report.failed_checks())
    base = jsonio.skeletal_pair_from_json(
        jsonio.load_json(str(DATA / "witness_skeletal.json")))
    for s in [base] + [rand_skeletal_candidate(rng, base.G, base.H) for _ in range(3)]:
        report = validate_skeletal_matched_pair(s)
        _assert_mirrored(report, validate_skeletal_matched_pair(s.flipped()),
                         SKELETAL_MIRROR)
        failing.update(c.name for c in report.failed_checks())
    # every mirrored group was exercised with witnesses
    assert set(PAIR_MIRROR) - {"jacobi(g)", "jacobi(h)"} <= failing
    assert set(REP_MIRROR) <= failing
    assert set(SKELETAL_MIRROR) - {"G skeletal and coherent",
                                   "H skeletal and coherent"} <= failing


def test_flipping_twice_gives_back_the_structure():
    rng = random.Random(3)
    mp = rand_mp_candidate(rng, 2, 3)
    assert mp.flipped().flipped() == mp
    assert mp.flipped() != mp
    rep = rand_mp_rep_candidate(rng, mp, (1, 2))
    twice = rep.flipped().flipped()
    assert twice.base == mp and twice.tensors_equal(rep)
    assert rep.flipped().dims == (2, 1)
    s = jsonio.skeletal_pair_from_json(
        jsonio.load_json(str(DATA / "witness_skeletal.json")))
    assert s.flipped().flipped().tensors_equal(s)
    assert not s.flipped().tensors_equal(s)
    for degree in range(1, 4):
        F = rand_cochain(rng, mp, (1, 2), degree)
        for part in F.components:
            flipped = part.flipped()
            assert flipped.shape() == (part.l, part.k, 3, 2, 2, 1)
            assert flipped.flipped() == part
            theirs = {id(v) for v in list(part.part_v.values()) + list(part.part_w.values())}
            assert not any(id(v) in theirs for v in
                           list(flipped.part_v.values()) + list(flipped.part_w.values()))


def test_flipped_key_takes_the_sign_of_moving_h_slots_first():
    f = BidegreeMap(0, 1, 2, 3, 1, 1, part_v={((1,), (2,)): [5]},
                    part_w={((), (0, 2)): [7]})
    flipped = f.flipped()
    assert flipped.shape() == (1, 0, 3, 2, 1, 1)
    assert flipped.part_w == {((2,), (1,)): [-5]}  # one g-slot past one h-slot
    assert flipped.part_v == {((0, 2), ()): [7]}


def test_cohomology_of_the_flip_is_the_cohomology():
    cases = []
    for name, mp in standard_fixtures():
        top = mp.dim_g + mp.dim_h
        cases.append((name, mp, adjoint_representation(mp), top))
        cases.append((name, mp, coadjoint_representation(mp), top))
    semidirect = mp_semidirect_double()
    cases.append(("semidirect-double", semidirect, adjoint_representation(semidirect), 8))
    gl2_pair = gl2_rota_baxter_pair()
    cases.append(("gl2-rota-baxter", gl2_pair, adjoint_representation(gl2_pair), 8))
    for name, mp, rep, top in cases:
        dims = mpl_cohomology_dims(mp, rep, top)
        assert mpl_cohomology_dims(mp.flipped(), rep.flipped(), top) == dims, name
    assert dims == GL2_ROTA_BAXTER_H


def test_two_route_equality_on_the_gl2_rota_baxter_pair():
    mp = gl2_rota_baxter_pair()
    adj = adjoint_representation(mp)
    rng = random.Random(8)
    for degree in range(0, 4):
        for _ in range(2):
            F = rand_cochain(rng, mp, (4, 4), degree)
            assert delta_mpl_adjoint(mp, F) == delta_mpl_coeff(mp, adj, F), degree
