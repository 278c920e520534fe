import json
import random
from fractions import Fraction

import pytest

from mpla import (InvalidInput, LieAlgebra, MatchedPair, MPCochain, MPRepresentation,
                  NonzeroMiddleComponent, NotACocycle, ShapeMismatch,
                  SkeletalMatchedPair, SkeletalRep, SkeletalTriple,
                  TwoTermLInfinity, adjoint_representation, assemble_skeletal,
                  assemble_triple, basis_cochain, coadjoint_representation,
                  cochain_basis, cochain_from_coords, cochain_space_dim,
                  cochain_to_coords, delta_mpl_coeff, jsonio, kernel_basis,
                  skeletal_to_triple, triple_to_skeletal, validate_matched_pair,
                  validate_mp_representation, validate_skeletal_matched_pair,
                  validate_skeletal_rep, validate_two_term)
from mpla.cli import main
from mpla.linalg import Matrix
from mpla.catalog import (aff1, heisenberg3, mp_a, mp_direct, mp_double, sl2,
                          standard_fixtures)
from mpla.scalars import vzero
from mpla.stencil import _is_closed

from helpers import (rand_fraction, rand_mp_candidate, rand_mp_rep_candidate,
                     skeletal_action_law_oracle, skeletal_mixed_oracle)


def zero_cross_pair(mp, p, q) -> SkeletalMatchedPair:
    m, n = mp.dim_g, mp.dim_h
    G = TwoTermLInfinity.from_lie_algebra(mp.g, p)
    H = TwoTermLInfinity.from_lie_algebra(mp.h, q)

    def block(rows, cols, veclen):
        return [[vzero(veclen) for _ in range(cols)] for _ in range(rows)]

    def tri(d1, d2, cols, veclen):
        return [
            [[vzero(veclen) for _ in range(cols)] for _ in range(d2)]
            for _ in range(d1)
        ]

    return SkeletalMatchedPair(
        G, H,
        mp.rho, block(m, q, q), block(p, n, q), tri(m, m, n, q),
        mp.psi, block(n, p, p), block(q, m, p), tri(n, n, m, p),
    )


def middle_zero_cocycles(mp, rep):
    """Basis of closed (F1, 0, F3) cochains, via the restricted kernel."""
    dims = (mp.dim_g, mp.dim_h)
    keys = cochain_basis(dims, rep.dims, 3)
    sub = [k for k in keys if k[0] != 2]
    if not sub:
        return []
    columns = [
        cochain_to_coords(delta_mpl_coeff(mp, rep,
                                          basis_cochain(dims, rep.dims, 3, key)))
        for key in sub
    ]
    out = []
    for vec in kernel_basis(Matrix.from_columns(columns)):
        coords = [Fraction(0)] * len(keys)
        for value, key in zip(vec, sub):
            coords[keys.index(key)] = value
        out.append(cochain_from_coords(dims, rep.dims, 3, coords))
    return out


def kernel_fixture_triples():
    """Every standard fixture with adjoint and with coadjoint coefficients,
    and each middle-zero cocycle of the pair."""
    for _, mp in standard_fixtures():
        for rep in (adjoint_representation(mp), coadjoint_representation(mp)):
            for F in middle_zero_cocycles(mp, rep):
                yield SkeletalTriple(mp, rep, F)


def test_lie_algebras_are_two_term_structures():
    for g in (aff1(), heisenberg3(), sl2()):
        t = TwoTermLInfinity.from_lie_algebra(g, 0)
        assert validate_two_term(t).ok
        assert t.is_skeletal


def test_lie_rep_cocycle_gives_two_term():
    # Heisenberg with a line of coefficients and the volume 3-slot map
    t = TwoTermLInfinity.from_sparse(
        3, 1, bracket00={(0, 1): [0, 0, 1]}, mu3={(0, 1, 2): [1]}
    )
    assert validate_two_term(t).ok


def test_condition_v_failure():
    # [e0, e1] = e1, trivial action on the line, mu3 supported on (1, 2, 3):
    # the four-slot identity picks up mu3([e0, e1], e2, e3) = mu3(e1, e2, e3)
    t = TwoTermLInfinity.from_sparse(
        4, 1, bracket00={(0, 1): [0, 1, 0, 0]}, mu3={(1, 2, 3): [1]}
    )
    report = validate_two_term(t)
    assert not report.ok
    assert [c.name for c in report.failed_checks()] == ["condition(v)"]
    assert report.failed_checks()[0].witnesses[0].where == (0, 1, 2, 3)


def test_nonskeletal_differential_conditions():
    # mu1 != 0 with brackets making (i) fail
    t = TwoTermLInfinity.from_sparse(
        2, 1, mu1={0: [0, 1]}, bracket00={(0, 1): [0, 1]}
    )
    assert not t.is_skeletal
    report = validate_two_term(t)
    assert not report.ok


def test_adjoint_self_representation():
    for g, mu3 in ((heisenberg3(), {(0, 1, 2): [1]}), (sl2(), {})):
        t = TwoTermLInfinity.from_sparse(
            g.dim, 1,
            bracket00={(i, j): g.c[i][j] for i in range(g.dim)
                       for j in range(i + 1, g.dim)},
            mu3=mu3,
        )
        if validate_two_term(t).ok:
            rep = SkeletalRep.adjoint(t)
            assert validate_skeletal_rep(t, rep).ok
    # zero representation on nonzero spaces
    t = TwoTermLInfinity.from_lie_algebra(aff1(), 1)
    assert validate_skeletal_rep(t, SkeletalRep.zero(t, 2, 2)).ok


def test_skeletal_rep_perturbation_fails():
    # Heisenberg base, a line in degree one acted on through the first
    # basis vector, and the volume trilinear map
    t = TwoTermLInfinity.from_sparse(
        3, 1, bracket00={(0, 1): [0, 0, 1]}, bracket01={(0, 0): [1]},
        mu3={(0, 1, 2): [1]},
    )
    assert validate_two_term(t).ok
    rep = SkeletalRep.adjoint(t)
    assert validate_skeletal_rep(t, rep).ok
    # doubling the trilinear part unbalances the coherence identity
    doubled = [[[([2 * x for x in vec]) for vec in row] for row in plane]
               for plane in rep.r3]
    bad = SkeletalRep(rep.dim_v0, rep.dim_v1, rep.r00, rep.r01, rep.r10, doubled)
    report = validate_skeletal_rep(t, bad)
    assert not report.ok
    assert "rep(4): trilinear coherence" in [c.name for c in report.failed_checks()]


def test_zero_cross_pairs_valid_and_round_trip():
    for mp in (mp_a(), mp_double()):
        s = zero_cross_pair(mp, 1, 1)
        assert validate_skeletal_matched_pair(s).ok
        triple = skeletal_to_triple(s)
        back = triple_to_skeletal(triple)
        assert back.tensors_equal(s)


def test_correspondence_both_directions_on_kernel_fixtures():
    # each direction decides once; the verdict the other direction would
    # reach is asserted here: the pair out of a closed triple validates,
    # and the cochain out of a passing pair is closed
    fixture_count = 0
    for triple in kernel_fixture_triples():
        mp, rep, F = triple.mp, triple.rep, triple.cocycle
        s = triple_to_skeletal(triple)
        assert validate_skeletal_matched_pair(s).ok
        again = skeletal_to_triple(s)
        assert _is_closed(again.mp, again.rep, again.cocycle)
        assert again.cocycle == F
        assert again.mp.g == mp.g and again.mp.h == mp.h
        assert again.mp.rho == mp.rho and again.mp.psi == mp.psi
        assert again.rep.tensors_equal(rep)
        fixture_count += 1
    assert fixture_count == 75


def test_triple_to_skeletal_refuses_exactly_the_open_cochains():
    """The correspondence decides closedness in ints: a middle-zero cochain
    is refused exactly when ``delta_mpl_coeff`` finds it open, with the same
    message, and a representation over another pair is refused as before."""
    rng = random.Random(73)
    mp = mp_double()
    dims = (mp.dim_g, mp.dim_h)
    verdicts = set()
    for rep in (adjoint_representation(mp), coadjoint_representation(mp)):
        keys = cochain_basis(dims, rep.dims, 3)
        halves = [cochain_from_coords(dims, rep.dims, 3,
                                      [Fraction(rng.randint(-3, 3), 2) if key[0] != 2 else 0
                                       for key in keys])
                  for _ in range(3)]
        for F in middle_zero_cocycles(mp, rep)[:3] + halves:
            triple = SkeletalTriple(mp, rep, F)
            closed = delta_mpl_coeff(mp, rep, F).is_zero()
            verdicts.add(closed)
            if closed:
                assert skeletal_to_triple(triple_to_skeletal(triple)).cocycle == F
            else:
                with pytest.raises(NotACocycle, match="^the degree-3 cochain is not closed$"):
                    triple_to_skeletal(triple)
    assert verdicts == {True, False}
    other = adjoint_representation(mp_direct(aff1(), aff1()))
    F = middle_zero_cocycles(mp, adjoint_representation(mp))[0]
    with pytest.raises(ShapeMismatch, match="not over this matched pair"):
        triple_to_skeletal(SkeletalTriple(mp, other, F))


def test_validity_transports_both_ways():
    rng = random.Random(71)
    # invalid triple data (random cochain, usually not closed) must be
    # rejected rather than silently packaged
    mp = mp_double()
    rep = adjoint_representation(mp)
    dims = (mp.dim_g, mp.dim_h)
    keys = cochain_basis(dims, rep.dims, 3)
    rejected = 0
    for _ in range(10):
        coords = [
            rand_fraction(rng) if key[0] != 2 else Fraction(0) for key in keys
        ]
        F = cochain_from_coords(dims, rep.dims, 3, coords)
        triple = SkeletalTriple(mp, rep, F)
        closed = delta_mpl_coeff(mp, rep, F).is_zero()
        raw = assemble_skeletal(triple)
        assert validate_skeletal_matched_pair(raw).ok == closed
        rejected += not closed
    assert rejected
    # perturbing a valid pair in one trilinear slot breaks a compatibility
    valid = middle_zero_cocycles(mp, rep)
    s = triple_to_skeletal(SkeletalTriple(mp, rep, valid[0]))
    s.psi3[0][1][0][0] += 1
    s.psi3[1][0][0][0] -= 1
    report = validate_skeletal_matched_pair(s)
    assert not report.ok


def test_middle_component_contract():
    mp = mp_double()
    rep = adjoint_representation(mp)
    dims = (mp.dim_g, mp.dim_h)
    F = MPCochain.zero(3, dims, rep.dims)
    F.component(2).part_v[((0, 1), (0,))] = [Fraction(1), Fraction(0)]
    with pytest.raises(NonzeroMiddleComponent):
        triple_to_skeletal(SkeletalTriple(mp, rep, F))


def test_zero_cubic_pairs_match_representation_validity():
    # with every trilinear map zero, the skeletal axioms collapse to
    # "the degree-0 pair is matched and acts on (g1, h1) as a
    # representation"; random two-slot data, over valid fixtures and over
    # random degree-0 pairs, must agree with that verdict
    rng = random.Random(74)
    fixtures = [mp for _, mp in standard_fixtures() if mp.dim_g + mp.dim_h <= 4]
    agreements = invalid_seen = compat_only = 0
    for trial in range(60):
        if trial % 2:
            mp = fixtures[trial // 2 % len(fixtures)]
        else:
            mp = rand_mp_candidate(rng, *rng.choice(((1, 2), (2, 1), (2, 2))), -1, 1)
        if trial % 3:
            rep = rand_mp_rep_candidate(rng, mp, (1, 1))
        else:
            rep = MPRepresentation.zero(mp, (1, 1))
        triple = SkeletalTriple(
            mp, rep, MPCochain.zero(3, (mp.dim_g, mp.dim_h), rep.dims))
        raw = assemble_skeletal(triple)
        pair = validate_matched_pair(mp)
        rep_ok = validate_mp_representation(rep).ok
        expected = pair.ok and rep_ok
        assert validate_skeletal_matched_pair(raw).ok == expected
        agreements += 1
        invalid_seen += not expected
        # a pair failing only compat(11)/(22) under a valid representation
        compat_only += rep_ok and not pair.ok and {
            c.name for c in pair.failed_checks()} <= {"compat(11)", "compat(22)"}
    assert agreements == 60 and invalid_seen and compat_only


def test_degree0_pair_must_be_matched(tmp_path):
    # g = k, h = k^2, rho_x = id and psi_h x = x for the first basis vector
    # of h: both actions are representations, but compat(11) fails at
    # (0, 0, 1); with zero cross blocks nothing else can fail
    g, h = LieAlgebra.abelian(1), LieAlgebra.abelian(2)
    mp = MatchedPair.from_sparse(g, h, rho={(0, 0): [1, 0], (0, 1): [0, 1]},
                                 psi={(0, 0): [1]})
    pair = validate_matched_pair(mp)
    assert [c.name for c in pair.failed_checks()] == ["compat(11)"]
    s = zero_cross_pair(mp, 1, 1)
    report = validate_skeletal_matched_pair(s)
    assert [c.name for c in report.failed_checks()] == ["mixed(3)"]
    assert report.failed_checks()[0].witnesses == pair.failed_checks()[0].witnesses
    with pytest.raises(InvalidInput, match="fails validation"):
        skeletal_to_triple(s)
    path = tmp_path / "skeletal.json"
    path.write_text(json.dumps(jsonio.skeletal_pair_to_json(s)), encoding="utf-8")
    assert main(["skeletal-validate", str(path)]) == 1
    assert main(["skeletal-correspond", str(path)]) == 1


PERTURBED_BLOCKS = ("rho2_00", "rho2_01", "rho2_10", "psi2_00", "psi2_01", "psi2_10")


def test_mixed_and_action_groups_match_the_explicit_formulas():
    # single-entry perturbations of the two-slot blocks of valid pairs:
    # mixed(k) is pairing(k) of the assembled representation plus, for
    # mixed(3) and mixed(5), compat(11) and compat(22) of the assembled
    # pair, and rep(2)/rep(3) are the action laws read through the Lie
    # representation validator; both must give the witnesses of the
    # explicit skeletal formulas, key for key and residual for residual
    def seen(witnesses):
        return [(w.where, repr(w.residual)) for w in witnesses]

    def listed(pairs):
        return [(where, repr(res)) for where, res in pairs]

    rng = random.Random(75)
    triples = list(kernel_fixture_triples())
    failing = set()
    for _ in range(320):
        s = assemble_skeletal(rng.choice(triples))
        vec = rng.choice(rng.choice(getattr(s, rng.choice(PERTURBED_BLOCKS))))
        vec[rng.randrange(len(vec))] += rng.choice((-2, -1, 1, 2))
        report = validate_skeletal_matched_pair(s)
        by_name = {c.name: c.witnesses for c in report.checks}
        pair = {c.name: c.witnesses for c in validate_matched_pair(assemble_triple(s).mp).checks}
        expected = {name: listed(pairs) for name, pairs in skeletal_mixed_oracle(s).items()}
        expected["mixed(3)"] += seen(pair["compat(11)"])
        expected["mixed(5)"] += seen(pair["compat(22)"])
        failing.update(name for name in ("compat(11)", "compat(22)") if pair[name])
        for name, witnesses in expected.items():
            assert seen(by_name[name]) == witnesses, name
            if witnesses:
                failing.add(name)
        for side, data in (("rho", s), ("psi", s.flipped())):
            checks = validate_skeletal_rep(data.G, data.rho_rep()).checks
            for check, oracle in zip(checks[1:3], skeletal_action_law_oracle(data.G,
                                                                             data.rho_rep())):
                assert seen(check.witnesses) == listed(oracle), (side, check.name)
                if oracle:
                    failing.add((side, check.name[:6]))
    assert failing == {f"mixed({k})" for k in range(1, 7)} | {"compat(11)", "compat(22)"} | {
        (side, name) for side in ("rho", "psi") for name in ("rep(2)", "rep(3)")}


def test_pair_reads_the_representation_groups_off_its_triple():
    # the pair validator takes the action laws rep(2) and rep(3) from the
    # reports of its triple; they must be the groups that the standalone
    # skeletal representation validator decides on its own
    def seen(witnesses):
        return [(w.where, repr(w.residual)) for w in witnesses]

    rng = random.Random(76)
    triples = list(kernel_fixture_triples())
    failing = 0
    for _ in range(120):
        s = assemble_skeletal(rng.choice(triples))
        vec = rng.choice(rng.choice(getattr(s, rng.choice(PERTURBED_BLOCKS))))
        vec[rng.randrange(len(vec))] += rng.choice((-2, -1, 1, 2))
        by_name = {c.name: c.witnesses for c in validate_skeletal_matched_pair(s).checks}
        for name, data in (("rho representation of G", s), ("psi representation of H",
                                                            s.flipped())):
            alone = [w for c in validate_skeletal_rep(data.G, data.rho_rep()).checks
                     for w in c.witnesses]
            assert seen(by_name[name]) == seen(alone), name
            failing += bool(alone)
    assert failing > 20


def test_valid_pairs_run_no_ring_generic_formula(monkeypatch):
    # the kernel decides the triple's pair and representation, and with
    # them the action laws and the mixed groups, so a valid pair runs none
    # of the ring-generic formulas; a perturbed pair shows the counters work
    import mpla.lie
    import mpla.matched
    import mpla.reps
    import mpla.skeletal

    calls = []
    for module, name in ((mpla.reps, "_pairing_report"), (mpla.matched, "_compat_11"),
                         (mpla.lie, "_representation_report")):
        def counted(*args, _name=name, _formula=getattr(module, name)):
            calls.append(_name)
            return _formula(*args)

        monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(mpla.skeletal, name, counted, raising=False)
    pairs = [assemble_skeletal(t) for t in kernel_fixture_triples()]
    for s in pairs + [p.flipped() for p in pairs]:
        assert validate_skeletal_matched_pair(s).ok
    assert calls == []
    s = zero_cross_pair(mp_double(), 1, 1)
    assert validate_skeletal_matched_pair(s).ok and calls == []
    s.rho2_00[0][0][0] += 1
    assert not validate_skeletal_matched_pair(s).ok
    assert set(calls) >= {"_pairing_report", "_compat_11", "_representation_report"}


def test_five_conditions_match_three_assembled_checks():
    # for zero differential, the five-condition checker agrees with the
    # conjunction: bracket00 satisfies the Jacobi law, bracket01 is an
    # action, and the trilinear map is closed for that action
    from mpla import (SkewMultiMap, LieRep, ce_coboundary,
                      validate_lie_algebra, validate_representation)
    from itertools import combinations

    rng = random.Random(72)
    agreements = valid_seen = invalid_seen = 0
    for _ in range(40):
        d0, d1 = rng.choice(((2, 1), (3, 1), (3, 2)))
        t = TwoTermLInfinity.from_sparse(
            d0, d1,
            bracket00={(i, j): [rand_fraction(rng, -2, 2) for _ in range(d0)]
                       for i in range(d0) for j in range(i + 1, d0)},
            bracket01={(i, p): [rand_fraction(rng, -2, 2) for _ in range(d1)]
                       for i in range(d0) for p in range(d1)},
            mu3={key: [rand_fraction(rng, -2, 2) for _ in range(d1)]
                 for key in combinations(range(d0), 3)},
        )
        five = validate_two_term(t).ok
        algebra_ok = validate_lie_algebra(t.degree0_algebra()).ok
        three = algebra_ok
        if algebra_ok:
            rep = LieRep(t.degree0_algebra(), d1,
                         [[list(v) for v in row] for row in t.bracket01])
            rep_ok = validate_representation(rep).ok
            three = rep_ok
            if rep_ok:
                theta = SkewMultiMap(3, d0, d1, {
                    key: t.mu3[key[0]][key[1]][key[2]]
                    for key in combinations(range(d0), 3)
                })
                three = ce_coboundary(rep, theta, 3).is_zero()
        assert five == three
        agreements += 1
        valid_seen += five
        invalid_seen += not five
    assert agreements == 40 and invalid_seen


def test_transport_rejects_invalid_representation():
    # an invalid representation shows up as failed identities on the
    # skeletal side even with a zero cochain
    from helpers import rand_mp_rep_candidate

    rng = random.Random(73)
    mp = mp_double()
    rejected = 0
    for _ in range(10):
        rep = rand_mp_rep_candidate(rng, mp, (1, 1))
        from mpla import validate_mp_representation

        F = MPCochain.zero(3, (mp.dim_g, mp.dim_h), rep.dims)
        raw = assemble_skeletal(SkeletalTriple(mp, rep, F))
        skeletal_ok = validate_skeletal_matched_pair(raw).ok
        rep_ok = validate_mp_representation(rep).ok
        # validity of the packed pair requires validity of the representation
        assert not (skeletal_ok and not rep_ok)
        rejected += not skeletal_ok
    assert rejected


def test_assemble_round_trip_is_exact():
    for mp in (mp_a(), mp_double()):
        rep = adjoint_representation(mp)
        for F in middle_zero_cocycles(mp, rep):
            triple = SkeletalTriple(mp, rep, F)
            s = assemble_skeletal(triple)
            again = assemble_triple(s)
            assert again.cocycle == F
            assert again.rep.tensors_equal(rep)
