import random
from fractions import Fraction

import pytest

from mpla import (DeformationCandidate, LieAlgebra, MatchedPair, Matrix,
                  NotACocycle, NotASection,
                  adjoint_representation, candidate_to_cochain,
                  canonical_sections, coadjoint_representation,
                  cochain_from_coords, cochain_to_candidate,
                  cochain_to_coords, cocycle_to_extension, deformation_check,
                  deformation_equiv_check, delta_matrix, delta_mpl_coeff,
                  extension_isomorphism_check, extension_to_cocycle,
                  kernel_basis, solve, validate_extension,
                  validate_matched_pair, MPCochain, MPRepresentation)
from mpla.reps import assemble_semidirect
from mpla.catalog import mp_a, mp_double, small_fixtures

from helpers import rand_cochain, rand_deformation_candidate, rand_fraction


def one_cochain_from_maps(mp, f, g_map):
    one = MPCochain(1, mp.dim_g, mp.dim_h, mp.dim_g, mp.dim_h)
    part = one.component(1)
    for i in range(mp.dim_g):
        col = f.column(i)
        if any(col):
            part.part_v[((i,), ())] = col
    for a in range(mp.dim_h):
        col = g_map.column(a)
        if any(col):
            part.part_w[((), (a,))] = col
    return one


def test_zero_candidate_is_a_deformation():
    for name, mp in small_fixtures():
        report = deformation_check(mp, DeformationCandidate.zero(mp))
        assert report.agree and report.is_deformation, name


def test_routes_agree_randomized():
    rng = random.Random(61)
    fixtures = small_fixtures()
    accepted = rejected = 0
    for trial in range(60):
        mp = fixtures[trial % len(fixtures)][1]
        cand = rand_deformation_candidate(rng, mp)
        report = deformation_check(mp, cand)
        assert report.agree
        accepted += report.is_deformation
        rejected += not report.is_deformation
    assert rejected  # random perturbations of two-sided pairs mostly fail


def test_exact_candidates_accepted():
    rng = random.Random(62)
    for name, mp in small_fixtures():
        rep = adjoint_representation(mp)
        for _ in range(4):
            one = rand_cochain(rng, mp, (mp.dim_g, mp.dim_h), 1)
            image = delta_mpl_coeff(mp, rep, one)
            cand = cochain_to_candidate(image)
            assert candidate_to_cochain(mp, cand) == image
            report = deformation_check(mp, cand)
            assert report.agree and report.is_deformation, name


def test_kernel_cocycles_accepted_and_stable_under_coboundaries():
    rng = random.Random(63)
    for name, mp in (("mp-a", mp_a()), ("double", mp_double())):
        rep = adjoint_representation(mp)
        d2 = delta_matrix(mp, rep, 2)
        for vec in kernel_basis(d2):
            F = cochain_from_coords((mp.dim_g, mp.dim_h),
                                    (mp.dim_g, mp.dim_h), 2, vec)
            cand = cochain_to_candidate(F)
            assert deformation_check(mp, cand).is_deformation, name
            # subtracting a coboundary keeps it accepted
            one = rand_cochain(rng, mp, (mp.dim_g, mp.dim_h), 1)
            shifted = F - delta_mpl_coeff(mp, rep, one)
            assert deformation_check(mp, cochain_to_candidate(shifted)).is_deformation


def test_equivalence_via_constructed_pairs():
    rng = random.Random(64)
    for name, mp in (("mp-a", mp_a()), ("double", mp_double())):
        rep = adjoint_representation(mp)
        m, n = mp.dim_g, mp.dim_h
        base_vec = kernel_basis(delta_matrix(mp, rep, 2))[0]
        d = cochain_to_candidate(
            cochain_from_coords((m, n), (m, n), 2, base_vec))
        # d is equivalent to itself via zero maps
        assert deformation_equiv_check(
            mp, d, d, Matrix.zero(m, m), Matrix.zero(n, n)).ok
        for _ in range(3):
            f = Matrix.from_rows([[rand_fraction(rng, -2, 2) for _ in range(m)]
                                  for _ in range(m)])
            g_map = Matrix.from_rows([[rand_fraction(rng, -2, 2) for _ in range(n)]
                                      for _ in range(n)])
            shift = delta_mpl_coeff(mp, rep, one_cochain_from_maps(mp, f, g_map))
            d2 = cochain_to_candidate(candidate_to_cochain(mp, d) - shift)
            assert deformation_equiv_check(mp, d, d2, f, g_map).ok, name
            # the wrong pair of maps is rejected but the routes still agree
            report = deformation_equiv_check(
                mp, d, d2, Matrix.identity(m), Matrix.zero(n, n))
            agree = report.checks[-1]
            assert agree.ok


def test_equivalence_direct_identity_counterexample():
    # d = (0, 0, rho1 = rho, 0) against d' = 0 via f = 0, g = id:
    # the action transport reads rho_x g(h) - g(rho_x h) + rho_{f(x)} h = 0
    # while rho1 = rho is nonzero, so the pair does not realize it
    mp = mp_a()
    d = DeformationCandidate.from_sparse(1, 1, rho1={(0, 0): [Fraction(1)]})
    d_zero = DeformationCandidate.zero(mp)
    report = deformation_equiv_check(mp, d, d_zero,
                                     Matrix.zero(1, 1), Matrix.identity(1))
    assert not report.ok
    failing = [c.name for c in report.failed_checks()]
    assert "action(rho) transport" in failing


def extension_cases():
    cases = []
    for name, mp in (("mp-a", mp_a()), ("double", mp_double())):
        cases.append((name + "/adjoint", mp, adjoint_representation(mp)))
        cases.append((name + "/coadjoint", mp, coadjoint_representation(mp)))
        cases.append((name + "/trivial", mp, MPRepresentation.zero(mp, (1, 1))))
    return cases


def test_extension_round_trip_on_kernel_basis():
    for name, mp, rep in extension_cases():
        dims = (mp.dim_g, mp.dim_h)
        for vec in kernel_basis(delta_matrix(mp, rep, 2)):
            F = cochain_from_coords(dims, rep.dims, 2, vec)
            ext = cocycle_to_extension(mp, rep, F)
            assert validate_extension(ext).ok, name
            assert extension_to_cocycle(ext, "canonical") == F, name


def test_extensions_leave_the_validated_base_unchanged():
    for name, mp, rep in extension_cases():
        mp.require_valid()
        rep.require_valid()
        reports = (mp._report, mp.g._report, mp.h._report, rep._report)
        base = MatchedPair(LieAlgebra(mp.dim_g, mp.g.c), LieAlgebra(mp.dim_h, mp.h.c),
                           mp.rho, mp.psi)
        coefficients = MPRepresentation(base, *rep.dims, rep.rho_v, rep.psi_v, rep.rho_w,
                                        rep.psi_w, rep.alpha, rep.beta)
        dims = (mp.dim_g, mp.dim_h)
        for vec in kernel_basis(delta_matrix(mp, rep, 2)):
            F = cochain_from_coords(dims, rep.dims, 2, vec)
            ext = cocycle_to_extension(mp, rep, F)
            assert validate_extension(ext).ok, name
            assert extension_to_cocycle(ext) == F, name
            assert mp == base and rep.tensors_equal(coefficients), name
            kept = (mp._report, mp.g._report, mp.h._report, rep._report)
            assert all(now is before for now, before in zip(kept, reports)), name


def test_split_extension_is_semidirect():
    for name, mp, rep in extension_cases():
        F = MPCochain.zero(2, (mp.dim_g, mp.dim_h), rep.dims)
        ext = cocycle_to_extension(mp, rep, F)
        assert ext.total == assemble_semidirect(rep)
        assert extension_to_cocycle(ext).is_zero()


def test_non_cocycle_rejected():
    rng = random.Random(65)
    mp = mp_double()
    rep = adjoint_representation(mp)
    d2 = delta_matrix(mp, rep, 2)
    # find a cochain with nonzero coboundary
    for _ in range(20):
        F = rand_cochain(rng, mp, rep.dims, 2)
        if not all(x == 0 for x in d2.mul_vec(cochain_to_coords(F))):
            with pytest.raises(NotACocycle):
                cocycle_to_extension(mp, rep, F)
            break
    else:
        pytest.fail("no non-cocycle found")


def test_cohomologous_cocycles_isomorphic_extensions():
    rng = random.Random(66)
    for name, mp, rep in extension_cases():
        dims = (mp.dim_g, mp.dim_h)
        m, n = dims
        p, q = rep.dims
        F = cochain_from_coords(
            dims, rep.dims, 2, kernel_basis(delta_matrix(mp, rep, 2))[0])
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


def test_section_independence():
    rng = random.Random(67)
    for name, mp, rep in extension_cases():
        dims = (mp.dim_g, mp.dim_h)
        m, n = dims
        p, q = rep.dims
        F = cochain_from_coords(
            dims, rep.dims, 2, kernel_basis(delta_matrix(mp, rep, 2))[-1])
        ext = cocycle_to_extension(mp, rep, F)
        s1_rows, s2_rows = (s.entries for s in canonical_sections(ext.split))
        for i in range(m):
            for u in range(p):
                s1_rows[m + u][i] = rand_fraction(rng, -2, 2)
        for a in range(n):
            for w in range(q):
                s2_rows[n + w][a] = rand_fraction(rng, -2, 2)
        alt = extension_to_cocycle(
            ext, (Matrix.from_rows(s1_rows), Matrix.from_rows(s2_rows)))
        diff = [a - b for a, b in
                zip(cochain_to_coords(alt), cochain_to_coords(F))]
        assert solve(delta_matrix(mp, rep, 1), diff) is not None, name


def test_bad_section_rejected():
    mp = mp_a()
    rep = adjoint_representation(mp)
    ext = cocycle_to_extension(mp, rep, MPCochain.zero(2, (1, 1), (1, 1)))
    s1, s2 = canonical_sections(ext.split)
    s1_rows = s1.entries
    s1_rows[0][0] = Fraction(2)  # no longer splits the projection
    s1 = Matrix.from_rows(s1_rows)
    with pytest.raises(NotASection):
        extension_to_cocycle(ext, (s1, s2))


def test_from_sparse_constructors_reject_bad_keys():
    """Every from_sparse constructor builds its dense tensors alike: a key out
    of range (negative ones included) or a vector of the wrong length raises
    MalformedTensor, and the stored vectors are the given ones, types kept."""
    from mpla import MalformedTensor, TwoTermLInfinity

    cases = [
        (lambda: TwoTermLInfinity.from_sparse(2, 1, mu1={-1: [1, 0]}),
         "mu1: index (-1) out of range"),
        (lambda: TwoTermLInfinity.from_sparse(2, 1, mu1={1: [1, 0]}),
         "mu1: index (1) out of range"),
        (lambda: TwoTermLInfinity.from_sparse(2, 1, mu1={0: [1]}),
         "mu1: value at (0) has wrong length"),
        (lambda: TwoTermLInfinity.from_sparse(2, 1, bracket01={(0, 1): [1]}),
         "bracket01: index (0, 1) out of range"),
        (lambda: TwoTermLInfinity.from_sparse(2, 1, bracket00={(-1, 1): [1, 0]}),
         "bracket00: index (-1, 1) out of range"),
        (lambda: TwoTermLInfinity.from_sparse(2, 1, mu3={(-2, 0, 1): [1]}),
         "mu3: index (-2, 0, 1) out of range"),
        (lambda: TwoTermLInfinity.from_sparse(2, 1, bracket00={(0, 2): [1, 0]}),
         "bracket00: index (0, 2) out of range"),
        (lambda: TwoTermLInfinity.from_sparse(2, 1, mu3={(0, 1, 2): [1]}),
         "mu3: index (0, 1, 2) out of range"),
        (lambda: TwoTermLInfinity.from_sparse(2, 1, bracket00={(1, 0): [1, 0]}),
         "bracket00: only i < j entries may be given"),
        (lambda: TwoTermLInfinity.from_sparse(3, 1, mu3={(0, 0, 1): [1]}),
         "mu3: only i < j < k entries may be given"),
        (lambda: TwoTermLInfinity.from_sparse(2, 1, bracket00={(0, 1): [1]}),
         "bracket00: value at (0, 1) has wrong length"),
        (lambda: DeformationCandidate.from_sparse(1, 1, rho1={(-1, 0): [1]}),
         "rho1: index (-1, 0) out of range"),
        (lambda: DeformationCandidate.from_sparse(1, 1, psi1={(0, 1): [1]}),
         "psi1: index (0, 1) out of range"),
        (lambda: DeformationCandidate.from_sparse(1, 1, rho1={(0, 0): [1, 2]}),
         "rho1: value at (0, 0) has wrong length"),
        (lambda: DeformationCandidate.from_sparse(2, 1, mu1={(1, 0): [1, 0]}),
         "mu1: only i < j entries may be given"),
        (lambda: LieAlgebra.from_brackets(2, {(0, 2): [1, 0]}),
         "bracket: index (0, 2) out of range"),
        (lambda: MatchedPair.from_sparse(LieAlgebra.abelian(1), LieAlgebra.abelian(1),
                                         psi={(0, 0): [1, 1]}),
         "psi: value at (0, 0) has wrong length"),
    ]
    for build, message in cases:
        with pytest.raises(MalformedTensor) as info:
            build()
        assert str(info.value) == message
    t = TwoTermLInfinity.from_sparse(2, 1, mu1={0: [Fraction(1), 0]},
                                     bracket01={(1, 0): [2]})
    assert t.mu1 == [[Fraction(1), 0]] and type(t.mu1[0][1]) is int
    assert type(t.mu1[0][0]) is Fraction and type(t.bracket01[1][0][0]) is int
    # bracket00 and mu3 are completed by their signed permutations
    t = TwoTermLInfinity.from_sparse(3, 1, bracket00={(0, 2): [1, 0, Fraction(1, 2)]},
                                     mu3={(0, 1, 2): [Fraction(3)]})
    assert t.bracket00[2][0] == [-1, 0, Fraction(-1, 2)] and t.bracket00[1][1] == [0, 0, 0]
    for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                            ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
        assert t.mu3[i][j][k] == [sign * 3]
    assert sum(v != [0] for plane in t.mu3 for row in plane for v in row) == 6
    d = DeformationCandidate.from_sparse(2, 1, mu1={(0, 1): [Fraction(1), 0]},
                                         psi1={(0, 1): [0, Fraction(1, 2)]})
    assert d.mu1[1][0] == [-1, 0] and d.psi1 == [[[0, 0], [0, Fraction(1, 2)]]]
