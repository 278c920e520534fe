"""Exact laws decided in ints: every check that scales to ints (the
morphism kernel, the stencil, the tested cochain times its least common
denominator) gives the verdict and the report of the ring-generic check
on its inputs, and reports keep the inputs' scalars."""

import random
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import pytest

from mpla import (DeformationCandidate, LieAlgebra, Matrix, MatchedPair,
                  MPMorphism, adjoint_representation, basis_cochain, bialgebra_aff1,
                  bicrossed_product, check_morphism, coadjoint_representation,
                  cochain_basis, cochain_from_coords, deformation_check,
                  deformed_matched_pair, delta_matrix, delta_mpl_adjoint, delta_mpl_coeff,
                  invert, kernel_basis, liebi_from_coords, liebi_matrix, liebi_space_dim,
                  phi_chain_check, psi_compare, validate_matched_pair,
                  validate_mp_representation)
from mpla import cohomology, deform, lie, matched
from mpla.bigraded import StructureElement
from mpla.catalog import (aff1, mp_a, mp_direct, mp_double, mp_semidirect_double, sl2,
                          standard_fixtures)
from mpla.cohomology import LieBiCochain, MPCochain, liebi_coboundary, psi_map
from mpla.lie import ce_matrix, homomorphism_holds, validate_lie_algebra, validate_representation
from mpla.matched import _bicrossed, _morphism_report, bialgebra_to_matched_pair
from mpla.scalars import DualNumber

from helpers import (fraction_calls, gl2_rota_baxter_pair, percolumn_ce_matrix,
                     percolumn_liebi_matrix, probe_delta_matrix, rand_cochain,
                     rand_deformation_candidate, rand_invertible, rand_mp_candidate,
                     rand_mp_rep_candidate)
from test_cohomology import conjugate_pair
from test_kernel import fresh_pair, on_ring_route


def scalars(t):
    if isinstance(t, list):
        return [x for v in t for x in scalars(v)]
    return [t]


def valid_pairs():
    """The standard fixtures, the 4+4 pairs and seeded conjugates (whose
    constants include proper fractions)."""
    rng = random.Random(101)
    pairs = [mp for _, mp in standard_fixtures()]
    pairs += [mp_semidirect_double(), gl2_rota_baxter_pair()]
    for mp in (mp_double(), mp_direct(sl2(), aff1())):
        pairs.append(conjugate_pair(mp, rand_invertible(rng, mp.dim_g),
                                    rand_invertible(rng, mp.dim_h)))
    return pairs


def test_valid_pairs_hold_integral_and_proper_fractions():
    values = [scalars([mp.g.c, mp.h.c, mp.rho, mp.psi]) for mp in valid_pairs()]
    assert any(type(x) is Fraction and x.denominator == 1 for v in values for x in v)
    assert any(type(x) is Fraction and x.denominator > 1 for v in values for x in v)
    assert any(all(type(x) is int for x in v) for v in values)


# -- the validators ---------------------------------------------------------


def test_validators_report_as_the_ring_generic_checks():
    rng = random.Random(102)
    pairs = valid_pairs() + [rand_mp_candidate(rng, 2, 2) for _ in range(6)]
    failing = 0
    for mp in pairs:
        expected = on_ring_route(lambda: repr(validate_matched_pair(fresh_pair(mp))))
        assert repr(validate_matched_pair(fresh_pair(mp))) == expected
        failing += "Witness" in expected
        for g in (mp.g, mp.h):
            expected = on_ring_route(lambda: repr(validate_lie_algebra(LieAlgebra(g.dim, g.c))))
            assert repr(validate_lie_algebra(LieAlgebra(g.dim, g.c))) == expected
        expected = on_ring_route(lambda: repr(validate_representation(fresh_pair(mp).rho_rep())))
        assert repr(validate_representation(fresh_pair(mp).rho_rep())) == expected
        for rep in (coadjoint_representation(fresh_pair(mp)),
                    rand_mp_rep_candidate(rng, fresh_pair(mp), (1, 2))):
            expected = on_ring_route(lambda: repr(validate_mp_representation(rep.flipped())))
            assert repr(validate_mp_representation(rep.flipped())) == expected
            failing += "Witness" in expected
    assert failing >= 6


def test_failing_pair_with_integral_fractions_reports_as_the_ring_route(monkeypatch):
    one, zero = Fraction(1), Fraction(0)
    g = LieAlgebra.from_brackets(2, {(0, 1): [zero, one]})
    h = LieAlgebra.from_brackets(1, {})
    # rho_{e1} = 1 but rho_{[e0, e1]} = rho_{e1} != [rho_{e0}, rho_{e1}] = 0
    mp = MatchedPair.from_sparse(g, h, rho={(0, 0): [zero], (1, 0): [one]})
    asked = []
    holds = lie.lie_table_holds
    monkeypatch.setattr(lie, "lie_table_holds",
                        lambda c: asked.append((len(c), holds(c))) or asked[-1][1])
    report = validate_matched_pair(mp)
    monkeypatch.undo()
    assert [c.name for c in report.failed_checks()] == ["representation(rho)"]
    assert repr(report) == on_ring_route(lambda: repr(validate_matched_pair(fresh_pair(mp))))
    residuals = [x for c in report.checks for w in c.witnesses for x in w.residual]
    assert residuals and all(type(x) is Fraction for x in residuals)
    # the kernel decided, in ints: g and h pass, g |x| h fails, and so does
    # g x| h for rho; the report kept is the one on mp itself
    assert asked[:4] == [(2, True), (1, True), (3, False), (3, False)]
    assert mp._report is report


# -- the stencils read their inputs as given --------------------------------


def test_stencils_match_the_oracles_on_the_inputs():
    for mp in valid_pairs():
        top = min(mp.dim_g + mp.dim_h, 3)
        for rep in (adjoint_representation(mp), coadjoint_representation(mp)):
            for degree in range(top + 1):
                got = delta_matrix(mp, rep, degree)
                assert got == probe_delta_matrix(mp, rep, degree)
                assert all(type(x) is Fraction for row in got.data for x in row.values())
                if rep is adjoint_representation(mp):
                    assert got == delta_matrix(mp, rep, degree, "adjoint")
        big = bicrossed_product(mp).adjoint()
        for degree in range(min(big.space_dim, 3)):
            assert ce_matrix(big, degree) == percolumn_ce_matrix(big, degree)
    b = bialgebra_aff1()
    for degree in range(1, 4):
        assert liebi_matrix(b, degree) == percolumn_liebi_matrix(b, degree)


# -- the chain laws and closedness ------------------------------------------


def on_inputs(fn):
    """fn() with the cochain of ``phi_chain_check`` left unscaled, so the
    law runs on the inputs as given."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cohomology, "_scaled_cochain", lambda F: F)
        return fn()


def dual_cochain(F):
    """F with every value a DualNumber of first-order part 1/2."""
    out = MPCochain(F.degree, F.dim_g, F.dim_h, F.dim_v, F.dim_w)
    if F.degree == 0:
        out.vec = [DualNumber(x, Fraction(1, 2)) for x in F.vec]
        return out
    for src, dst in zip(F.components, out.components):
        dst.part_v = {key: [DualNumber(x, Fraction(1, 2)) for x in vec]
                      for key, vec in src.part_v.items()}
        dst.part_w = {key: [DualNumber(x, Fraction(1, 2)) for x in vec]
                      for key, vec in src.part_w.items()}
    return out


def test_chain_sweeps_report_as_on_the_inputs():
    rng = random.Random(103)
    failing = 0
    for mp in valid_pairs()[-6:]:
        dims = (mp.dim_g, mp.dim_h)
        for degree in range(3):
            cochains = [basis_cochain(dims, dims, degree, key)
                        for key in cochain_basis(dims, dims, degree)[:4]]
            halves = cochain_from_coords(dims, dims, degree, [
                Fraction(rng.randint(-3, 3), 2) for _ in cochain_basis(dims, dims, degree)])
            cochains += [rand_cochain(rng, mp, dims, degree), halves, dual_cochain(halves)]
            for F in cochains:
                report = phi_chain_check(mp, F)
                assert repr(report) == on_inputs(lambda: repr(phi_chain_check(mp, F)))
                assert report.ok or degree == 0
                failing += not report.ok
    assert failing >= 6
    b = bialgebra_aff1()
    for degree in range(1, 4):
        size = liebi_space_dim(b.g.dim, degree)
        for coords in ([Fraction(int(i == 0)) for i in range(size)],
                       [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]):
            xi = liebi_from_coords(b.g.dim, degree, coords)
            assert psi_compare(b, xi).ok
            # with a wrong (doubled) bialgebra coboundary the law fails, and
            # the witnesses are the difference on the inputs
            doubled = LieBiCochain(xi.degree + 1, xi.dim,
                                   [part.scale(2) for part in liebi_coboundary(b, xi).components])
            with pytest.MonkeyPatch.context() as m:
                m.setattr(cohomology, "liebi_coboundary", lambda b, xi: doubled)
                report = psi_compare(b, xi)
            diff = (psi_map(b, doubled)
                    - delta_mpl_adjoint(bialgebra_to_matched_pair(b), psi_map(b, xi)))
            residuals = [w.residual for c in report.checks for w in c.witnesses]
            assert residuals == [vec for r in range(1, diff.degree + 1)
                                 for part in (diff.component(r).part_v, diff.component(r).part_w)
                                 for _, vec in sorted(part.items())]
            failing += not report.ok
    assert failing >= 12


def test_ring_route_and_cocycle_route_report_as_on_the_inputs():
    rng = random.Random(104)
    mp = mp_double()
    verdicts = set()
    for d in [DeformationCandidate.zero(mp)] + [rand_deformation_candidate(rng, mp)
                                               for _ in range(5)]:
        report = deformation_check(mp, d)
        expected = on_ring_route(lambda: validate_matched_pair(deformed_matched_pair(mp, d)))
        assert repr(report.ring_route) == repr(expected)
        # the cocycle route's witnesses are those of delta on the inputs
        with pytest.MonkeyPatch.context() as m:
            m.setattr(deform, "_is_closed", lambda *args: False)
            witnessed = deformation_check(mp, d).cocycle_route
        assert repr(report.cocycle_route) == repr(witnessed)
        verdicts.add(report.ring_route.ok)
    assert verdicts == {True, False}


def test_closedness_is_decided_in_ints():
    """cocycle_to_extension and the cocycle route of deformation_check decide
    delta F = 0 by the integer stencil times F's coordinates: the verdicts
    and witnesses are those of delta_mpl_coeff on the inputs, and a closed
    cochain with halves over a pair with integral Fractions costs no
    Fraction arithmetic."""
    from mpla import (NotACocycle, cochain_space_dim, cochain_to_candidate,
                      cocycle_to_extension)

    def halves(mp, rep_dims, degree):
        size = cochain_space_dim((mp.dim_g, mp.dim_h), rep_dims, degree)
        return cochain_from_coords((mp.dim_g, mp.dim_h), rep_dims, degree,
                                   [Fraction(rng.randint(-3, 3), 2) for _ in range(size)])

    rng = random.Random(1505)
    verdicts = set()
    for mp in valid_pairs()[-4:]:
        for rep in (adjoint_representation(mp), coadjoint_representation(mp)):
            for F in (halves(mp, rep.dims, 2),
                      delta_mpl_coeff(mp, rep, halves(mp, rep.dims, 1))):
                closed = delta_mpl_coeff(mp, rep, F).is_zero()
                assert deform._is_closed(mp, rep, F) == closed
                verdicts.add(closed)
                if closed:
                    cocycle_to_extension(mp, rep, F)
                else:
                    with pytest.raises(NotACocycle):
                        cocycle_to_extension(mp, rep, F)
                if rep.dims == (mp.dim_g, mp.dim_h) and rep.tensors_equal(
                        adjoint_representation(mp)):
                    d = cochain_to_candidate(F)
                    report = repr(deformation_check(mp, d).cocycle_route)
                    with pytest.MonkeyPatch.context() as m:
                        m.setattr(deform, "_is_closed", lambda *args: False)
                        assert report == repr(deformation_check(mp, d).cocycle_route)
    assert verdicts == {True, False}
    mp = mp_semidirect_double()
    rep = adjoint_representation(mp)
    F = delta_mpl_coeff(mp, rep, halves(mp, rep.dims, 1))
    values = scalars([mp.g.c, mp.h.c, mp.rho, mp.psi])
    assert not F.is_zero() and any(type(x) is Fraction for x in values)
    with fraction_calls() as calls:
        assert deform._is_closed(mp, rep, F)
    assert calls == []


# -- structures kept for the sweeps ------------------------------------------


def test_sweep_structures_are_built_once(monkeypatch):
    mp = mp_semidirect_double()
    built, validated = [], []
    from_pair = StructureElement.from_matched_pair.__func__
    monkeypatch.setattr(StructureElement, "from_matched_pair",
                        classmethod(lambda cls, mp: built.append(mp) or from_pair(cls, mp)))
    validate = matched.validate_bialgebra
    monkeypatch.setattr(matched, "validate_bialgebra",
                        lambda b: validated.append(b) or validate(b))
    dims = (mp.dim_g, mp.dim_h)
    for key in cochain_basis(dims, dims, 1):
        delta_mpl_adjoint(mp, basis_cochain(dims, dims, 1, key))
        phi_chain_check(mp, basis_cochain(dims, dims, 1, key))
    # one structure element, for the pair itself
    assert built == [mp]
    assert bicrossed_product(mp).adjoint() is bicrossed_product(mp).adjoint()
    assert adjoint_representation(mp) is adjoint_representation(mp)
    b = bialgebra_aff1()
    for degree in (1, 2):
        for i in range(liebi_space_dim(2, degree)):
            coords = [int(i == j) for j in range(liebi_space_dim(2, degree))]
            assert psi_compare(b, liebi_from_coords(2, degree, coords)).ok
    assert validated == [b]


def test_bialgebra_keeps_its_dual_algebra_and_wedge_modules(monkeypatch):
    built = []
    wedge_rep = matched.wedge_rep
    monkeypatch.setattr(matched, "wedge_rep", lambda g, q: built.append(q) or wedge_rep(g, q))
    b = bialgebra_aff1()
    for _ in range(3):
        for degree in (1, 2, 3):
            for i in range(liebi_space_dim(2, degree)):
                coords = [int(i == j) for j in range(liebi_space_dim(2, degree))]
                assert psi_compare(b, liebi_from_coords(2, degree, coords)).ok
            liebi_matrix(b, degree)
    assert b.dual_algebra() is b.dual_algebra()
    assert b.wedge_module(2, dual=True) is b.wedge_module(2, dual=True)
    # Lambda^1..3 of g and of its dual, once each, all for the ring-generic
    # coboundary of psi_compare: liebi_matrix and the validation build none
    assert sorted(built) == [1, 1, 2, 2, 3, 3]


def test_adjoint_representation_is_kept_on_its_pair():
    mp = mp_double()
    adj = adjoint_representation(mp)
    assert adjoint_representation(mp) is adj and adj.base is mp
    assert adj.tensors_equal(adjoint_representation(fresh_pair(mp)))
    # the stencil's tables are built once, on the kept representation
    delta_matrix(mp, adj, 2)
    tables = adj._stencil
    assert tables is not None
    deformation_check(mp, DeformationCandidate.zero(mp))
    assert adjoint_representation(mp)._stencil is tables


# -- the morphism kernel ------------------------------------------------------


def blocks_of(src, dst, phi):
    """The two maps of phi as one map on g + h, as ``check_morphism`` builds it."""
    shift = src.dim_g
    return Matrix.from_sparse(
        dst.dim_g + dst.dim_h, src.dim_g + src.dim_h,
        phi.f.data + [{shift + b: x for b, x in row.items()} for row in phi.g_map.data])


def assert_kernel_matches_the_report(src, dst, phi):
    """The kernel's verdict, None over k[t]/(t^2), is the ring-generic
    report's, and check_morphism prints that report; returns the verdict
    and the report."""
    src.require_valid()
    dst.require_valid()
    blocks = blocks_of(src, dst, phi)
    oracle = _morphism_report(src, dst, phi.f, phi.g_map, blocks)
    verdict = homomorphism_holds(_bicrossed(src).c, _bicrossed(dst).c, blocks)
    assert verdict is None or verdict == oracle.ok
    assert repr(check_morphism(src, dst, phi)) == repr(oracle)
    return verdict, oracle


def _morphism_cases():
    """(src, dst, phi): identities, scalings and random maps with integral
    Fractions and proper fractions between catalog pairs, many failing."""
    rng = random.Random(124)
    cases = []
    for src, dst in ((mp_double(), mp_double()), (mp_direct(sl2(), aff1()),) * 2):
        cases.append((src, dst, MPMorphism.identity(src)))
        for _ in range(6):
            f = Matrix.from_rows([[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
                                   for _ in range(src.dim_g)] for _ in range(dst.dim_g)])
            g = Matrix.from_rows([[Fraction(rng.randint(-2, 2))
                                   for _ in range(src.dim_h)] for _ in range(dst.dim_h)])
            cases.append((src, dst, MPMorphism(f, g)))
    return cases


def test_check_morphism_reports_as_the_ring_generic_checks():
    failing = 0
    for src, dst, phi in _morphism_cases():
        verdict, report = assert_kernel_matches_the_report(src, dst, phi)
        assert verdict is not None
        failing += not report.ok
    assert failing >= 6


def as_fractions(mp):
    """The same pair with every int constant an integral Fraction."""
    def convert(t):
        return [convert(x) for x in t] if isinstance(t, list) else Fraction(t)
    return MatchedPair(LieAlgebra(mp.dim_g, convert(mp.g.c)),
                       LieAlgebra(mp.dim_h, convert(mp.h.c)), convert(mp.rho), convert(mp.psi))


def halved(m: Matrix) -> Matrix:
    return Matrix.from_rows([[x / 2 for x in row] for row in m.entries])


def rand_map(rng, rows, cols, kind):
    def entry():
        if rng.random() < 0.4:
            return 0
        if kind == "half":
            return Fraction(rng.randint(-3, 3), 2)
        return rng.randint(-2, 2)
    return Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])


@seed(17)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["int", "fraction", "half"]),
       st.sampled_from(["identity", "conjugation", "perturbed", "random", "zero", "swapped"]))
def test_morphism_kernel_agrees_with_the_ring_generic_report(state, kind, shape):
    rng = random.Random(state)
    src = rng.choice([mp_a(), mp_double(), mp_direct(sl2(), aff1()), mp_direct(sl2(), sl2()),
                      mp_direct(aff1(), aff1())])
    if kind == "fraction":
        src = as_fractions(src)
    elif kind == "half":
        src = conjugate_pair(src, halved(rand_invertible(rng, src.dim_g)),
                             halved(rand_invertible(rng, src.dim_h)))
    dst = src
    if shape == "identity":
        phi = MPMorphism.identity(src)
    elif shape in ("conjugation", "perturbed"):
        s_g, s_h = rand_invertible(rng, src.dim_g), rand_invertible(rng, src.dim_h)
        dst = conjugate_pair(src, s_g, s_h)
        f, g_map = invert(s_g), invert(s_h)
        if shape == "perturbed":
            rows = [list(row) for row in f.entries]
            rows[rng.randrange(len(rows))][rng.randrange(src.dim_g)] += Fraction(1, 2)
            f = Matrix.from_rows(rows)
        phi = MPMorphism(f, g_map)
    elif shape == "swapped":
        # into the flipped pair: g and h exchange places
        dst = src.flipped()
        if src.dim_g == src.dim_h and rng.random() < 0.5:
            phi = MPMorphism(Matrix.identity(src.dim_g), Matrix.identity(src.dim_h))
        else:
            phi = MPMorphism(rand_map(rng, dst.dim_g, src.dim_g, kind),
                             rand_map(rng, dst.dim_h, src.dim_h, kind))
    elif shape == "zero":
        phi = MPMorphism(Matrix.zero(src.dim_g, src.dim_g), Matrix.zero(src.dim_h, src.dim_h))
    else:
        phi = MPMorphism(rand_map(rng, src.dim_g, src.dim_g, kind),
                         rand_map(rng, src.dim_h, src.dim_h, kind))
    verdict, report = assert_kernel_matches_the_report(src, dst, phi)
    assert verdict is not None
    if shape in ("identity", "conjugation", "zero"):
        assert report.ok


def test_morphism_kernel_leaves_dual_number_tables_to_the_ring_generic_checks():
    mp = mp_double()
    d = DeformationCandidate.zero(mp)
    pair = deformed_matched_pair(mp, d)
    assert pair.is_validated is None and validate_matched_pair(pair).ok
    identity = MPMorphism.identity(pair)
    verdict, report = assert_kernel_matches_the_report(pair, pair, identity)
    assert verdict is None and report.ok
    twice = MPMorphism(Matrix.from_rows([[2 * int(i == j) for j in range(mp.dim_g)]
                                         for i in range(mp.dim_g)]), identity.g_map)
    verdict, report = assert_kernel_matches_the_report(pair, pair, twice)
    assert verdict is None and not report.ok


def test_passing_check_morphism_does_no_fraction_arithmetic():
    cases = [(src, dst, phi) for src, dst, phi in _morphism_cases()
             if phi.f == Matrix.identity(src.dim_g)]
    for src, dst, _ in cases:
        check_morphism(src, dst, MPMorphism.identity(src))
    with fraction_calls() as calls:
        for src, dst, _ in cases:
            assert check_morphism(src, dst, MPMorphism.identity(src)).ok
    assert len(cases) == 2 and calls == []


def test_passing_morphisms_with_halves_do_no_fraction_arithmetic():
    """The projection of an extension by a cocycle with halves, and the
    basis change onto a conjugate through a map with halves, pass in ints."""
    rng = random.Random(125)
    cases = []
    for mp, rep in ((mp_double(), coadjoint_representation(mp_double())),
                    (mp_direct(sl2(), aff1()), None)):
        rep = rep or adjoint_representation(mp)
        kernel = kernel_basis(delta_matrix(mp, rep, 2))
        coefficients = [Fraction(rng.randint(-3, 3), 2) for _ in kernel]
        coords = [sum(c * k[i] for c, k in zip(coefficients, kernel))
                  for i in range(len(kernel[0]))]
        e = deform.cocycle_to_extension(
            mp, rep, cochain_from_coords((mp.dim_g, mp.dim_h), rep.dims, 2, coords))
        m, p, n, q = e.split
        cases.append((e.total, e.base, MPMorphism(deform._block_identity(m, m + p),
                                                  deform._block_identity(n, n + q))))
        s_g, s_h = rand_invertible(rng, mp.dim_g), rand_invertible(rng, mp.dim_h)
        cases.append((mp, conjugate_pair(mp, s_g, s_h), MPMorphism(invert(s_g), invert(s_h))))
    for src, dst, phi in cases:
        src.require_valid()
        dst.require_valid()
    proper = [x for src, dst, phi in cases
              for x in scalars([src.g.c, src.h.c, src.rho, src.psi, dst.g.c, dst.h.c,
                                dst.rho, dst.psi, phi.f.entries, phi.g_map.entries])
              if type(x) is Fraction and x.denominator > 1]
    assert proper and any(x.denominator == 2 for x in proper)
    assert any(x.denominator > 1 for _, _, phi in cases for row in phi.f.entries for x in row)
    with fraction_calls() as calls:
        for src, dst, phi in cases:
            assert check_morphism(src, dst, phi).ok
    assert calls == []
