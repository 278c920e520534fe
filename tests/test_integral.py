"""Integral images: every exact check decides on a structure's integral image
exactly as on the structure itself, and reports keep the structure's scalars."""

import random
from fractions import Fraction

import pytest

from mpla import (DeformationCandidate, LieAlgebra, LieBialgebra, LieRep, Matrix, MatchedPair,
                  MPMorphism, MPRepresentation, adjoint_representation, basis_cochain,
                  bialgebra_aff1, check_morphism, bicrossed_product, coadjoint_representation,
                  cochain_basis, deformation_check, delta_matrix, delta_mpl_adjoint,
                  kernel_basis, liebi_from_coords, liebi_matrix, liebi_space_dim,
                  phi_chain_check, psi_compare, validate_matched_pair,
                  validate_mp_representation)
from mpla import cohomology, lie, matched
from mpla.cohomology import LieBiCochain, liebi_coboundary
from mpla.bigraded import StructureElement
from mpla.catalog import (aff1, mp_direct, mp_double, mp_semidirect_double, sl2,
                          standard_fixtures)
from mpla.lie import ce_matrix, validate_lie_algebra, validate_representation
from mpla.scalars import DualNumber, integral, integral_tensor

from helpers import (dense_mul, gl2_rota_baxter_pair, rand_cochain,
                     rand_deformation_candidate, rand_invertible, rand_mp_candidate,
                     rand_mp_rep_candidate)
from test_cohomology import conjugate_pair


def on_originals(fn):
    """fn() with every integral image replaced by the structure itself, so
    each check runs on the structure as given."""
    with pytest.MonkeyPatch.context() as m:
        for cls in (LieAlgebra, LieRep, MatchedPair, MPRepresentation, LieBialgebra):
            m.setattr(cls, "integral", lambda self: self)
        m.setattr(cohomology, "_integral_cochain", lambda F: F)
        m.setattr(cohomology, "_integral_liebi", lambda xi: xi)
        return fn()


def fresh(mp):
    """An equal pair on equal algebras, with nothing kept on any of them."""
    return MatchedPair(LieAlgebra(mp.dim_g, mp.g.c), LieAlgebra(mp.dim_h, mp.h.c),
                       mp.rho, mp.psi)


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


def test_integral_image_has_the_same_values_and_is_kept():
    seen_fraction = seen_proper = False
    for mp in valid_pairs():
        image = mp.integral()
        assert image == mp and mp.integral() is image and image.integral() is image
        assert image.g is mp.g.integral() and image.h is mp.h.integral()
        values = scalars([image.g.c, image.h.c, image.rho, image.psi])
        assert not any(type(x) is Fraction and x.denominator == 1 for x in values)
        seen_fraction |= image is not mp
        seen_proper |= any(type(x) is Fraction for x in values)
        rep = coadjoint_representation(mp)
        assert rep.integral().base is image and rep.integral().tensors_equal(rep)
    assert seen_fraction and seen_proper
    # a structure holding only ints is its own image
    ints = mp_direct(sl2(), sl2())
    assert ints.integral() is ints and adjoint_representation(ints).integral().base is ints


def test_integral_keeps_proper_fractions_and_dual_number_components():
    assert type(integral(Fraction(4, 2))) is int and integral(Fraction(1, 2)) == Fraction(1, 2)
    x = integral(DualNumber(Fraction(2), Fraction(1, 2)))
    assert (type(x.a), type(x.b)) == (int, Fraction) and x == DualNumber(2, Fraction(1, 2))
    t = [[1, Fraction(1, 3)], [2]]
    assert integral_tensor(t) is t
    assert integral_tensor([[Fraction(3)], [0]]) == [[3], [0]]


def test_dual_number_keeps_its_components_type():
    for a, b in ((1, 2), (Fraction(1), Fraction(2)), (1, Fraction(2)), (Fraction(1, 2), -3)):
        x = DualNumber(a, b)
        assert (type(x.a), type(x.b)) == (type(a), type(b))
        coerced = DualNumber(Fraction(a), Fraction(b))
        assert x == coerced and hash(x) == hash(coerced) and repr(x) == repr(coerced)
    assert (DualNumber(1, 1) * DualNumber(2, 3)).b == 5
    y = DualNumber("1/2", True)
    assert (y.a, type(y.b)) == (Fraction(1, 2), Fraction)


def test_validators_decide_on_the_image_as_on_the_original():
    rng = random.Random(102)
    pairs = valid_pairs() + [rand_mp_candidate(rng, 2, 2) for _ in range(6)]
    failing = 0
    for mp in pairs:
        expected = on_originals(lambda: repr(validate_matched_pair(fresh(mp))))
        assert repr(validate_matched_pair(fresh(mp))) == expected
        failing += "Witness" in expected
        for g in (mp.g, mp.h):
            expected = on_originals(lambda: repr(validate_lie_algebra(LieAlgebra(g.dim, g.c))))
            assert repr(validate_lie_algebra(LieAlgebra(g.dim, g.c))) == expected
        expected = on_originals(lambda: repr(validate_representation(fresh(mp).rho_rep())))
        assert repr(validate_representation(fresh(mp).rho_rep())) == expected
        for rep in (coadjoint_representation(fresh(mp)),
                    rand_mp_rep_candidate(rng, fresh(mp), (1, 2))):
            expected = on_originals(lambda: repr(validate_mp_representation(rep.flipped())))
            assert repr(validate_mp_representation(rep.flipped())) == expected
            failing += "Witness" in expected
    assert failing >= 6


def test_failing_pair_with_integral_fractions_reports_as_the_original(monkeypatch):
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
    assert repr(report) == on_originals(lambda: repr(validate_matched_pair(fresh(mp))))
    residuals = [x for c in report.checks for w in c.witnesses for x in w.residual]
    assert residuals and all(type(x) is Fraction for x in residuals)
    # the kernel decided, in ints: g and h pass, g |x| h fails, and so does
    # g x| h for rho; the report kept is the one on mp itself, and the image
    # took no verdict from it
    assert asked[:4] == [(2, True), (1, True), (3, False), (3, False)]
    assert mp.integral() is not mp and mp.integral()._report is None
    assert mp._report is report


def test_probes_match_the_original():
    for mp in valid_pairs():
        top = min(mp.dim_g + mp.dim_h, 3)
        for rep, routes in ((adjoint_representation(mp), ("coeff", "adjoint")),
                            (coadjoint_representation(mp), ("coeff",))):
            for degree in range(top + 1):
                for route in routes:
                    got = delta_matrix(mp, rep, degree, route)
                    expected = on_originals(lambda: delta_matrix(mp, rep, degree, route))
                    assert got == expected
                    assert all(type(x) is Fraction for row in got.data for x in row.values())
        big = bicrossed_product(mp).adjoint()
        for degree in range(min(big.space_dim, 3)):
            assert ce_matrix(big, degree) == on_originals(lambda: ce_matrix(big, degree))
    b = bialgebra_aff1()
    for degree in range(1, 4):
        assert liebi_matrix(b, degree) == on_originals(lambda: liebi_matrix(b, degree))


def test_chain_sweeps_match_the_original():
    rng = random.Random(103)
    failing = 0
    for mp in valid_pairs()[-6:]:
        dims = (mp.dim_g, mp.dim_h)
        for degree in range(3):
            cochains = [basis_cochain(dims, dims, degree, key)
                        for key in cochain_basis(dims, dims, degree)[:4]]
            cochains.append(rand_cochain(rng, mp, dims, degree))
            for F in cochains:
                report = phi_chain_check(mp, F)
                assert repr(report) == on_originals(lambda: repr(phi_chain_check(mp, F)))
                assert report.ok or degree == 0
                failing += not report.ok
    assert failing >= 6
    b = bialgebra_aff1()
    for degree in range(1, 4):
        size = liebi_space_dim(b.g.dim, degree)
        for coords in ([Fraction(int(i == 0)) for i in range(size)],
                       [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]):
            xi = liebi_from_coords(b.g.dim, degree, coords)
            report = psi_compare(b, xi)
            assert report.ok and repr(report) == on_originals(lambda: repr(psi_compare(b, xi)))
            # with a wrong (doubled) bialgebra coboundary the law fails, and
            # the witnesses come from the inputs
            with pytest.MonkeyPatch.context() as m:
                m.setattr(cohomology, "liebi_coboundary", lambda b, xi: LieBiCochain(
                    xi.degree + 1, xi.dim,
                    [part.scale(2) for part in liebi_coboundary(b, xi).components]))
                report = psi_compare(b, xi)
                assert repr(report) == on_originals(lambda: repr(psi_compare(b, xi)))
                failing += not report.ok
    assert failing >= 12


def test_ring_route_matches_the_original():
    rng = random.Random(104)
    mp = mp_double()
    verdicts = set()
    for d in [DeformationCandidate.zero(mp)] + [rand_deformation_candidate(rng, mp)
                                               for _ in range(5)]:
        report = deformation_check(mp, d)
        expected = on_originals(lambda: deformation_check(mp, d))
        assert repr(report.ring_route) == repr(expected.ring_route)
        assert repr(report.cocycle_route) == repr(expected.cocycle_route)
        verdicts.add(report.ring_route.ok)
    assert verdicts == {True, False}


def test_closedness_is_decided_in_ints(monkeypatch):
    """cocycle_to_extension and the cocycle route of deformation_check decide
    delta F = 0 on the integral images and on F times the common denominator
    of its values: the verdicts and witnesses are those of delta_mpl_coeff
    on the inputs, and a closed cochain with halves over a pair with
    integral constants costs no Fraction arithmetic."""
    from mpla import (NotACocycle, cochain_from_coords, cochain_space_dim,
                      cochain_to_candidate, cocycle_to_extension, delta_mpl_coeff)
    from mpla import deform

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
    assert not F.is_zero() and mp.integral() is not mp
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _f=original: calls.append(1) or _f(*args))
    assert deform._is_closed(mp, rep, F)
    monkeypatch.undo()
    assert calls == []


def test_matrix_mul_matches_dense_mul():
    rng = random.Random(105)

    def entry():
        if rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))

    def rand_matrix(rows, cols):
        return Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])

    zero_products = 0
    for _ in range(60):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(n, k)
        cases = [rand_matrix(k, m)]
        kernel = kernel_basis(a)
        if kernel:
            cases.append(Matrix.from_columns(kernel))
        for b in cases:
            product = a.mul(b)
            assert product == Matrix.from_rows(dense_mul(a, b))
            stored = [x for row in product.data for x in row.values()]
            assert all(type(x) is Fraction and x for x in stored)
            zero_products += product.is_zero()
    assert zero_products >= 20


def test_fraction_arithmetic_is_bounded_by_stored_entries(monkeypatch):
    """Assembling delta_1 and delta_2 of the 4+4 pair, whose constants are
    integral Fractions, and multiplying them run in ints: the Fraction
    +, - and * they do stay below the entries they store."""
    mp = mp_semidirect_double()
    rep = adjoint_representation(mp)
    big = bicrossed_product(mp).adjoint()
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _f=original: calls.append(1) or _f(*args))
    ce_matrix(big, 1)
    d1, d2 = delta_matrix(mp, rep, 1), delta_matrix(mp, rep, 2)
    assembly = len(calls)
    product = d2.mul(d1)
    monkeypatch.undo()
    stored = sum(len(row) for m in (d1, d2, product) for row in m.data)
    assert product.is_zero() and stored > 1000
    assert len(calls) <= stored
    # the images hold only ints, so the probes do no Fraction arithmetic
    assert assembly == 0


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
    # one structure element for the pair and one for its integral image
    assert len(built) == 2 and built[0] is mp and built[1] is mp.integral()
    assert bicrossed_product(mp).adjoint() is bicrossed_product(mp).adjoint()
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
    image = b.integral()
    assert image.dual_algebra() is image.dual_algebra()
    assert image.wedge_module(2, dual=True) is image.wedge_module(2, dual=True)
    # Lambda^1..3 of g and of its dual on the image, once each, and Lambda^2 g
    # for the cocycle check of the one validation of b
    assert sorted(built) == [1, 1, 2, 2, 2, 3, 3]


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


def test_check_morphism_decides_on_the_images_as_on_the_inputs():
    failing = 0
    for src, dst, phi in _morphism_cases():
        shift = src.dim_g
        blocks = Matrix.from_sparse(
            dst.dim_g + dst.dim_h, src.dim_g + src.dim_h,
            phi.f.data + [{shift + b: x for b, x in row.items()} for row in phi.g_map.data])
        expected = repr(matched._morphism_report(src, dst, phi.f, phi.g_map, blocks))
        assert repr(check_morphism(src, dst, phi)) == expected
        failing += "Witness" in expected
    assert failing >= 6


def test_passing_check_morphism_does_no_fraction_arithmetic(monkeypatch):
    cases = [(src, dst, phi) for src, dst, phi in _morphism_cases()
             if phi.f == Matrix.identity(src.dim_g)]
    for src, dst, _ in cases:
        check_morphism(src, dst, MPMorphism.identity(src))
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _f=original: calls.append(1) or _f(*args))
    for src, dst, _ in cases:
        assert check_morphism(src, dst, MPMorphism.identity(src)).ok
    monkeypatch.undo()
    assert len(cases) == 2 and calls == []
