"""Acceptance suite.

Each test settles one acceptance criterion at its stated tolerance
(exact equality everywhere; the scalars are rational) and prints one
pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
from fractions import Fraction

from mpla import (DeformationCandidate, LieAlgebra, MatchedPair, Matrix,
                  MPCochain, MPRepresentation, StructureElement,
                  adjoint_representation,
                  basis_cochain, bicrossed_product, candidate_to_cochain,
                  coadjoint_representation, cochain_basis, cochain_from_coords,
                  cochain_space_dim, cochain_to_candidate, cochain_to_coords,
                  cocycle_to_extension, deformation_check, delta_matrix,
                  delta_mpl_adjoint, delta_mpl_coeff,
                  extension_isomorphism_check, extension_to_cocycle,
                  induced_bicross_rep, kernel_basis, liebi_from_coords,
                  liebi_space_dim, mc_check, mpl_cohomology_dims,
                  phi_chain_check, psi_compare, rota_baxter_matched_pair,
                  rota_baxter_splitting_rank, validate_matched_pair,
                  validate_mp_representation, validate_representation,
                  validate_skeletal_matched_pair, SkeletalTriple,
                  skeletal_to_triple, triple_to_skeletal)
from mpla.catalog import (aff1, bialgebra_aff1, mp_a, mp_double,
                          small_fixtures, standard_fixtures)
from mpla.matched import LieBialgebra
from mpla.reps import assemble_semidirect
from mpla.skeletal import assemble_skeletal

from helpers import (rand_cochain, rand_deformation_candidate, rand_fraction,
                     rand_invertible, rand_mp_candidate, rand_mp_rep_candidate)
from test_cohomology import conjugate_pair
from test_skeletal import middle_zero_cocycles, zero_cross_pair


def report(number, label, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({label}): PASS{suffix}")


def test_criterion_01_square_zero_iff_axioms():
    """Verdicts of the axiom checker and the square-zero test coincide."""
    rng = random.Random(101)
    candidates = 0
    for _ in range(60):
        dims = rng.choice(((1, 1), (2, 1), (1, 2), (2, 2)))
        mp = rand_mp_candidate(rng, *dims, lo=-2, hi=2)
        assert validate_matched_pair(mp).ok == \
            mc_check(StructureElement.from_matched_pair(mp)).is_mc
        candidates += 1
    hand_built = standard_fixtures()
    for name, mp in hand_built:
        assert validate_matched_pair(mp).ok, name
        assert mc_check(StructureElement.from_matched_pair(mp)).is_mc, name
    assert candidates >= 50 and len(hand_built) >= 10
    report(1, "square-zero test matches the axiom checker",
           f"{candidates} random candidates, {len(hand_built)} valid fixtures")


def test_criterion_02_delta_squared_zero_matrices():
    """d_{n+1} d_n = 0 exactly for both routes on every fixture, degrees 0-3.

    The degree-0 differential of the complex is the augmentation zero map
    (the pointwise degree-0 formula does not land in the degree-1 cochain
    space; see the cohomology module docstring and the README), so the
    d_1 d_0 product is exact by construction and the d_2 d_1, d_3 d_2
    products are the substantive identities.
    """
    products = 0
    fixtures = [(name, mp) for name, mp in standard_fixtures()
                if mp.dim_g + mp.dim_h <= 4]
    for name, mp in fixtures:
        reps = [("adjoint", adjoint_representation(mp)),
                ("coadjoint", coadjoint_representation(mp)),
                ("trivial", MPRepresentation.zero(mp, (1, 1)))]
        for rep_name, rep in reps:
            mats = [delta_matrix(mp, rep, d, "coeff") for d in range(4)]
            for d in range(3):
                assert mats[d + 1].mul(mats[d]).is_zero(), (name, rep_name, d)
                products += 1
        mats = [delta_matrix(mp, adjoint_representation(mp), d, "adjoint")
                for d in range(4)]
        for d in range(3):
            assert mats[d + 1].mul(mats[d]).is_zero(), (name, "adjoint-route", d)
            products += 1
    report(2, "coboundary matrices square to zero", f"{products} products")


def test_criterion_03_two_route_equality():
    """The explicit-sum route equals the bracket route, exactly."""
    rng = random.Random(103)
    checked = 0
    fixtures = small_fixtures()
    while checked < 210:
        name, mp = fixtures[checked % len(fixtures)]
        degree = checked % 4
        F = rand_cochain(rng, mp, (mp.dim_g, mp.dim_h), degree)
        assert delta_mpl_adjoint(mp, F) == \
            delta_mpl_coeff(mp, adjoint_representation(mp), F), (name, degree)
        checked += 1
    report(3, "both coboundary routes agree", f"{checked} random cochains")


def test_criterion_04_chain_maps():
    """Embedding into the combined-product complex and the bialgebra
    comparison map both commute with the differentials, as matrices."""
    columns = 0
    for name, mp in (("mp-a", mp_a()), ("double", mp_double())):
        dims = (mp.dim_g, mp.dim_h)
        for degree in (1, 2, 3):
            for key in cochain_basis(dims, dims, degree):
                F = basis_cochain(dims, dims, degree, key)
                assert phi_chain_check(mp, F).ok, (name, degree, key)
                columns += 1
    psi_columns = 0
    for b in (bialgebra_aff1(), LieBialgebra(aff1(), [{}, {}]),
              LieBialgebra(LieAlgebra.abelian(2), [{}, {(0, 1): Fraction(1)}])):
        dim = b.g.dim
        for degree in (1, 2):
            total = liebi_space_dim(dim, degree)
            for index in range(total):
                coords = [Fraction(0)] * total
                coords[index] = Fraction(1)
                assert psi_compare(b, liebi_from_coords(dim, degree, coords)).ok
                psi_columns += 1
    report(4, "both comparison maps are chain maps",
           f"{columns} + {psi_columns} basis columns")


def test_criterion_05_semidirect_equivalence():
    """A tuple is a representation exactly when its semidirect pair is
    matched; induced combined-product actions always validate."""
    rng = random.Random(105)
    fixtures = [mp for _, mp in standard_fixtures() if mp.dim_g + mp.dim_h <= 4]
    checked = 0
    for trial in range(60):
        mp = fixtures[trial % len(fixtures)]
        cand = rand_mp_rep_candidate(rng, mp, (rng.randint(1, 2), rng.randint(1, 2)))
        assert validate_mp_representation(cand).ok == \
            validate_matched_pair(assemble_semidirect(cand)).ok
        checked += 1
    assert checked >= 50
    induced = 0
    for name, mp in standard_fixtures():
        for rep in (adjoint_representation(mp), coadjoint_representation(mp)):
            assert validate_representation(induced_bicross_rep(rep)).ok, name
            induced += 1
    report(5, "semidirect pairs certify representations",
           f"{checked} candidates, {induced} induced actions")


def test_criterion_06_deformation_two_routes():
    """Cocycle route and truncated-ring route agree; exact cochains are
    accepted; accepted candidates stay accepted after removing coboundaries."""
    rng = random.Random(106)
    fixtures = small_fixtures()
    checked = 0
    while checked < 110:
        name, mp = fixtures[checked % len(fixtures)]
        cand = rand_deformation_candidate(rng, mp)
        assert deformation_check(mp, cand).agree, name
        checked += 1
    exact_accepted = 0
    for name, mp in (("mp-a", mp_a()), ("double", mp_double())):
        rep = adjoint_representation(mp)
        for _ in range(5):
            one = rand_cochain(rng, mp, rep.dims, 1)
            cand = cochain_to_candidate(delta_mpl_coeff(mp, rep, one))
            assert deformation_check(mp, cand).is_deformation, name
            exact_accepted += 1
        for vec in kernel_basis(delta_matrix(mp, rep, 2)):
            F = cochain_from_coords((mp.dim_g, mp.dim_h), rep.dims, 2, vec)
            cand = cochain_to_candidate(F)
            assert deformation_check(mp, cand).is_deformation, name
            one = rand_cochain(rng, mp, rep.dims, 1)
            shifted = cochain_to_candidate(F - delta_mpl_coeff(mp, rep, one))
            assert deformation_check(mp, shifted).is_deformation, name
    report(6, "deformation routes agree",
           f"{checked} random candidates, {exact_accepted} exact ones")


def test_criterion_07_extension_round_trip():
    """Cocycle -> extension -> cocycle is the identity on the whole
    degree-2 kernel basis; cohomologous cocycles give isomorphic
    extensions through the explicit block maps."""
    rng = random.Random(107)
    round_trips = 0
    for name, mp in (("mp-a", mp_a()), ("double", mp_double())):
        for rep in (adjoint_representation(mp), coadjoint_representation(mp)):
            dims = (mp.dim_g, mp.dim_h)
            m, n = dims
            p, q = rep.dims
            basis = kernel_basis(delta_matrix(mp, rep, 2))
            for vec in basis:
                F = cochain_from_coords(dims, rep.dims, 2, vec)
                ext = cocycle_to_extension(mp, rep, F)
                assert extension_to_cocycle(ext, "canonical") == F, name
                round_trips += 1
            # cohomologous pair
            F = cochain_from_coords(dims, rep.dims, 2, basis[0])
            theta = rand_cochain(rng, mp, rep.dims, 1)
            F2 = F - delta_mpl_coeff(mp, rep, theta)
            e1 = cocycle_to_extension(mp, rep, F)
            e2 = cocycle_to_extension(mp, rep, F2)
            f_rows = Matrix.identity(m + p).entries
            g_rows = Matrix.identity(n + q).entries
            part = theta.component(1)
            for i in range(m):
                vec = part.part_v.get(((i,), ()))
                if vec:
                    for u, c in enumerate(vec):
                        f_rows[m + u][i] = c
            for a in range(n):
                vec = part.part_w.get(((), (a,)))
                if vec:
                    for w, c in enumerate(vec):
                        g_rows[n + w][a] = c
            assert extension_isomorphism_check(
                e1, e2, Matrix.from_rows(f_rows), Matrix.from_rows(g_rows)).ok, name
    report(7, "extensions and cocycles invert each other",
           f"{round_trips} kernel-basis round trips")


def test_criterion_08_skeletal_correspondence():
    """The two packings are exact mutual inverses and validity transports."""
    rng = random.Random(108)
    fixtures = []
    for name, mp in small_fixtures():
        fixtures.append(zero_cross_pair(mp, 1, 1))
    for mp in (mp_a(), mp_double()):
        for rep in (adjoint_representation(mp), coadjoint_representation(mp)):
            for F in middle_zero_cocycles(mp, rep):
                fixtures.append(
                    triple_to_skeletal(SkeletalTriple(mp, rep, F)))
    assert len(fixtures) >= 20
    for s in fixtures:
        triple = skeletal_to_triple(s)
        back = triple_to_skeletal(triple)
        assert back.tensors_equal(s)
        again = skeletal_to_triple(back)
        assert again.cocycle == triple.cocycle
        assert again.rep.tensors_equal(triple.rep)
    # validity transport: non-closed data is rejected on both sides
    mp = mp_double()
    rep = adjoint_representation(mp)
    dims = (mp.dim_g, mp.dim_h)
    keys = cochain_basis(dims, rep.dims, 3)
    mismatches = 0
    for _ in range(10):
        coords = [rand_fraction(rng) if key[0] != 2 else Fraction(0)
                  for key in keys]
        F = cochain_from_coords(dims, rep.dims, 3, coords)
        closed = delta_mpl_coeff(mp, rep, F).is_zero()
        raw = assemble_skeletal(SkeletalTriple(mp, rep, F))
        assert validate_skeletal_matched_pair(raw).ok == closed
        mismatches += not closed
    assert mismatches
    report(8, "skeletal correspondence is a bijection",
           f"{len(fixtures)} fixtures")


def test_criterion_09_trivial_pair_dimensions():
    """Closed-form dimensions with zero differential: (2, 2, 2, 0)."""
    mp = MatchedPair.from_sparse(LieAlgebra.abelian(1), LieAlgebra.abelian(1))
    dims = mpl_cohomology_dims(mp, adjoint_representation(mp), 3)
    assert dims == [2, 2, 2, 0]
    assert [cochain_space_dim((1, 1), (1, 1), d) for d in range(4)] == \
        [2, 2, 2, 0]
    report(9, "trivial-pair cohomology dimensions", str(dims))


def test_criterion_10_weight_one_operators():
    """Zero and minus-identity on the nonabelian plane, and random
    operators on abelian algebras, all produce valid pairs with a full-rank
    splitting."""
    rng = random.Random(110)
    cases = 0
    g = aff1()
    for r_matrix in (Matrix.zero(2, 2), Matrix.from_rows([[-1, 0], [0, -1]])):
        mp = rota_baxter_matched_pair(g, r_matrix)
        assert validate_matched_pair(mp).ok
        assert rota_baxter_splitting_rank(g, r_matrix) == 2 * g.dim
        cases += 1
    for _ in range(5):
        dim = rng.randint(1, 3)
        ab = LieAlgebra.abelian(dim)
        r_matrix = Matrix.from_rows(
            [[rand_fraction(rng, -3, 3) for _ in range(dim)] for _ in range(dim)]
        )
        mp = rota_baxter_matched_pair(ab, r_matrix)
        assert validate_matched_pair(mp).ok
        assert rota_baxter_splitting_rank(ab, r_matrix) == 2 * dim
        cases += 1
    report(10, "weight-one operator pairs", f"{cases} operators")


def test_criterion_11_basis_invariance():
    """Cohomology dimensions are unchanged under ten random invertible
    basis changes per fixture."""
    rng = random.Random(111)
    changes = 0
    for name, mp in small_fixtures():
        reference = mpl_cohomology_dims(mp, adjoint_representation(mp), 3)
        for _ in range(10):
            s_g = rand_invertible(rng, mp.dim_g)
            s_h = rand_invertible(rng, mp.dim_h)
            conj = conjugate_pair(mp, s_g, s_h)
            assert validate_matched_pair(conj).ok, name
            assert mpl_cohomology_dims(conj, adjoint_representation(conj), 3) \
                == reference, name
            changes += 1
    report(11, "cohomology dimensions are basis invariant",
           f"{changes} basis changes")
