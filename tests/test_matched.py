import json
import random
from fractions import Fraction

import pytest

from mpla import (InvalidInput, LieAlgebra, LieBialgebra, MatchedPair, Matrix,
                  MPMorphism, NotRotaBaxter, bialgebra_to_matched_pair,
                  bicrossed_product, check_morphism, rank,
                  rota_baxter_matched_pair, rota_baxter_splitting_rank,
                  validate_bialgebra, validate_lie_algebra,
                  validate_matched_pair)
from mpla.catalog import (aff1, bialgebra_aff1, heisenberg3, mp_a,
                          mp_action_pair, mp_derivation_heisenberg, mp_direct,
                          mp_double, sl2, standard_fixtures)

from mpla import lie

from helpers import rand_lie_candidate, rand_mp_candidate


def test_lierep_pair_is_matched():
    # (g, V, rho, 0) with abelian V and a valid action
    mp = mp_action_pair()
    assert validate_matched_pair(mp).ok
    assert validate_matched_pair(mp_a()).ok
    assert validate_matched_pair(mp_derivation_heisenberg()).ok


def test_invalid_action_reported():
    # rho(e1) = rho(e2) = 1 is not an action of aff1 on a line
    mp = MatchedPair.from_sparse(
        aff1(), LieAlgebra.abelian(1), rho={(0, 0): [1], (1, 0): [1]}
    )
    report = validate_matched_pair(mp)
    assert not report.ok
    assert [c.name for c in report.failed_checks()] == ["representation(rho)"]


def test_invalid_compat_reported():
    # psi_h = diag(1, 0) on aff1 is not a derivation: compat(22) fails
    mp = MatchedPair.from_sparse(
        aff1(), LieAlgebra.abelian(1), psi={(0, 0): [1, 0]}
    )
    report = validate_matched_pair(mp)
    assert not report.ok
    assert [c.name for c in report.failed_checks()] == ["compat(22)"]
    assert report.failed_checks()[0].witnesses[0].where == (0, 0, 1)


def test_bicrossed_direct_sum_and_mp_a():
    g, h = aff1(), heisenberg3()
    direct = bicrossed_product(MatchedPair.from_sparse(g, h))
    for i in range(2):
        for j in range(2):
            assert direct.c[i][j][:2] == g.c[i][j]
            assert not any(direct.c[i][j][2:])
    assert bicrossed_product(mp_a()) == aff1()


def test_bicrossed_restricts_to_both_subalgebras():
    for name, mp in standard_fixtures():
        big = bicrossed_product(mp)
        m = mp.dim_g
        for i in range(m):
            for j in range(m):
                assert big.c[i][j][:m] == mp.g.c[i][j], name
                assert not any(big.c[i][j][m:]), name
        for a in range(mp.dim_h):
            for b in range(mp.dim_h):
                assert big.c[m + a][m + b][m:] == mp.h.c[a][b], name


def test_bicrossed_requires_validity():
    bad = MatchedPair.from_sparse(
        aff1(), LieAlgebra.abelian(1), rho={(0, 0): [1], (1, 0): [1]}
    )
    with pytest.raises(InvalidInput):
        bicrossed_product(bad)


def test_bicrossed_product_is_built_once_per_pair():
    for name, mp in standard_fixtures():
        big = bicrossed_product(mp)
        assert bicrossed_product(mp) is big, name
        assert big.is_validated is True and mp.is_validated is True, name


def test_each_structure_is_validated_once(monkeypatch):
    """One kernel question per structure: g, h and g |x| h on the first
    validation, none on later ones, and only g |x| h for a second pair on
    the same algebras; a valid pair runs no ring-generic check at all."""
    calls, asked = [], []
    original = LieAlgebra.bracket_vec
    monkeypatch.setattr(LieAlgebra, "bracket_vec",
                        lambda self, u, v: calls.append(self) or original(self, u, v))
    holds = lie.lie_table_holds
    monkeypatch.setattr(lie, "lie_table_holds",
                        lambda c: asked.append((len(c), holds(c))) or asked[-1][1])
    mp = mp_direct(sl2(), sl2())
    m, n = mp.dim_g, mp.dim_h
    assert mp.is_validated is None
    report = validate_matched_pair(mp)
    assert report.ok and asked == [(m, True), (n, True), (m + n, True)]
    assert validate_matched_pair(mp) is report
    mp.require_valid()
    bicrossed_product(mp)
    assert len(asked) == 3
    # a second pair on the same algebras reuses their reports
    twin = MatchedPair(mp.g, mp.h, mp.rho, mp.psi)
    assert validate_matched_pair(twin).ok
    assert asked[3:] == [(m + n, True)] and calls == []


def test_invalid_pair_raises_on_every_call():
    bad = MatchedPair.from_sparse(
        aff1(), LieAlgebra.abelian(1), rho={(0, 0): [1], (1, 0): [1]}
    )
    for _ in range(2):
        with pytest.raises(InvalidInput):
            bad.require_valid()
        with pytest.raises(InvalidInput):
            bicrossed_product(bad)
        assert bad.is_validated is False
        assert not validate_matched_pair(bad).ok


def test_bicrossed_jacobi_tracks_validity():
    rng = random.Random(19)
    seen_bad = 0
    for _ in range(40):
        mp = rand_mp_candidate(rng, 2, 1)
        raw = MatchedPair(mp.g, mp.h, mp.rho, mp.psi)
        # assemble the combined bracket without validation
        from mpla.bigraded import StructureElement, embed

        pi = StructureElement.from_matched_pair(raw)
        total = embed(pi.mu_rho) + embed(pi.psi_nu)
        dim = mp.dim_g + mp.dim_h
        c = [[[total.evaluate((i, j))[k] for k in range(dim)]
              for j in range(dim)] for i in range(dim)]
        candidate = LieAlgebra(dim, c)
        jacobi_ok = validate_lie_algebra(candidate).ok
        # both algebras stay subalgebras by construction, so the combined
        # bracket satisfies the Jacobi law exactly when the pair is matched
        assert jacobi_ok == validate_matched_pair(raw).ok
        seen_bad += not jacobi_ok
    assert seen_bad


def test_morphisms():
    mp = mp_a()
    ident = MPMorphism.identity(mp)
    assert check_morphism(mp, mp, ident).ok
    zero = MPMorphism(Matrix.zero(1, 1), Matrix.zero(1, 1))
    assert check_morphism(mp, mp, zero).ok
    # f = 2 id breaks the rho intertwining: g(rho_x h) = h but rho_{2x} h = 2h
    double_f = MPMorphism(Matrix.from_rows([[2]]), Matrix.identity(1))
    report = check_morphism(mp, mp, double_f)
    assert not report.ok
    assert "intertwine(rho)" in [c.name for c in report.failed_checks()]
    # g = 2 id alone is fine: both sides scale together
    double_g = MPMorphism(Matrix.identity(1), Matrix.from_rows([[2]]))
    assert check_morphism(mp, mp, double_g).ok


def test_morphism_combined_product_criterion_matches():
    rng = random.Random(29)
    mp = mp_double()
    for _ in range(15):
        f = Matrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                              for _ in range(2)])
        g = Matrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                              for _ in range(2)])
        report = check_morphism(mp, mp, MPMorphism(f, g))
        by_parts = all(c.ok for c in report.checks[:4])
        combined = report.checks[4]
        assert by_parts == combined.ok


def test_rota_baxter_zero_and_neg_id():
    g = aff1()
    for r_matrix in (Matrix.zero(2, 2), Matrix.from_rows([[-1, 0], [0, -1]])):
        mp = rota_baxter_matched_pair(g, r_matrix)
        assert validate_matched_pair(mp).ok
        assert rota_baxter_splitting_rank(g, r_matrix) == 4
    # R = 0: the graph side is abelian-embedded with the original bracket
    mp = rota_baxter_matched_pair(g, Matrix.zero(2, 2))
    assert mp.h.c == g.c
    assert all(not any(vec) for row in mp.psi for vec in row)


def test_rota_baxter_rejects_non_operator():
    with pytest.raises(NotRotaBaxter) as info:
        rota_baxter_matched_pair(aff1(), Matrix.from_rows([[0, 0], [0, 1]]))
    assert info.value.witness[0:2] == (0, 1)


def test_rota_baxter_abelian_any_operator():
    rng = random.Random(31)
    for _ in range(5):
        g = LieAlgebra.abelian(3)
        r_matrix = Matrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        )
        mp = rota_baxter_matched_pair(g, r_matrix)
        assert validate_matched_pair(mp).ok
        assert rota_baxter_splitting_rank(g, r_matrix) == 6


def test_bialgebra_validation_and_double():
    assert validate_bialgebra(bialgebra_aff1()).ok
    # zero cobracket on any algebra
    for g in (aff1(), heisenberg3()):
        b = LieBialgebra(g, [{} for _ in range(g.dim)])
        assert validate_bialgebra(b).ok
        mp = bialgebra_to_matched_pair(b)
        assert validate_matched_pair(mp).ok
        # with zero cobracket the covector side acts trivially
        assert all(not any(vec) for row in mp.psi for vec in row)
    # abelian algebra with a cobracket dual to aff1: only psi acts
    b = LieBialgebra(LieAlgebra.abelian(2), [{}, {(0, 1): Fraction(1)}])
    assert validate_bialgebra(b).ok
    mp = bialgebra_to_matched_pair(b)
    assert validate_matched_pair(mp).ok
    assert all(not any(vec) for row in mp.rho for vec in row)
    assert any(any(vec) for row in mp.psi for vec in row)


def test_bialgebra_cocycle_failure_detected():
    # dim 2 leaves no room for a failure: the condition degenerates there
    b = LieBialgebra(aff1(), [{(0, 1): Fraction(1)}, {}])
    assert validate_bialgebra(b).ok
    # on the Heisenberg algebra, delta(e3) = e1 ^ e2 has dual Jacobi but
    # breaks the cocycle law at the pair ([e1, e2] = e3, ...)
    b = LieBialgebra(heisenberg3(), [{}, {}, {(0, 1): Fraction(1)}])
    report = validate_bialgebra(b)
    assert not report.ok
    assert [c.name for c in report.failed_checks()] == ["cobracket 1-cocycle"]


def test_bialgebra_verb_validates_once(monkeypatch, tmp_path, capsys):
    """``mpla bialgebra`` asks the kernel about g, its dual and the double,
    once each, and on a valid bialgebra runs no ring-generic check: the pair
    it writes carries the bialgebra's verdict.  An invalid one runs the
    ring-generic groups once, for its witnesses."""
    from mpla import jsonio, matched
    from mpla.cli import main

    expected = jsonio.matched_pair_to_json(mp_double())
    asked, ring = [], []
    holds, coboundary = lie.lie_table_holds, matched.ce_coboundary
    monkeypatch.setattr(lie, "lie_table_holds", lambda c: asked.append(len(c)) or holds(c))
    monkeypatch.setattr(matched, "ce_coboundary",
                        lambda *args: ring.append(args) or coboundary(*args))
    path = tmp_path / "b.json"
    path.write_text(json.dumps(jsonio.bialgebra_to_json(bialgebra_aff1())), encoding="utf-8")
    assert main(["bialgebra", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == expected
    assert asked == [2, 2, 4] and ring == []
    bad = LieBialgebra(heisenberg3(), [{}, {}, {(0, 1): Fraction(1)}])
    path.write_text(json.dumps(jsonio.bialgebra_to_json(bad)), encoding="utf-8")
    asked.clear()
    assert main(["bialgebra", str(path)]) == 1
    assert "cobracket 1-cocycle" in capsys.readouterr().out
    assert asked == [3, 3, 6] and len(ring) == 1


def test_double_is_valid_two_sided_pair():
    mp = mp_double()
    assert validate_matched_pair(mp).ok
    assert any(any(vec) for row in mp.rho for vec in row)
    assert any(any(vec) for row in mp.psi for vec in row)


def test_morphism_criteria_agree_across_different_pairs():
    # the part-wise conditions and the combined-product condition agree
    # for arbitrary linear maps between different pairs
    rng = random.Random(43)
    src = mp_a()
    dst = mp_double()
    agreeing = holding = 0
    for _ in range(20):
        f = Matrix.from_rows([[Fraction(rng.randint(-2, 2))] for _ in range(2)])
        g = Matrix.from_rows([[Fraction(rng.randint(-2, 2))] for _ in range(2)])
        report = check_morphism(src, dst, MPMorphism(f, g))
        by_parts = all(c.ok for c in report.checks[:4])
        assert by_parts == report.checks[4].ok
        agreeing += 1
        holding += report.ok
    assert agreeing == 20
    # the zero map is always a morphism
    zero = MPMorphism(Matrix.zero(2, 1), Matrix.zero(2, 1))
    assert check_morphism(src, dst, zero).ok
