"""The integer Jacobiator kernel behind the five structure validators.

Each validator asks ``lie.lie_table_holds`` whether one bracket table is a
Lie algebra: the structure's own, g x| V, g |x| h, g+V |x| h+W or the
double g |x| g* of a bialgebra.  The
oracle is the ring-generic report, computed with the kernel switched off;
the kernel must agree with its verdict, and every report must equal it.
"""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mpla import (LieAlgebra, LieBialgebra, LieRep, MatchedPair, MPRepresentation,
                  adjoint_representation, bialgebra_to_matched_pair, bicrossed_product,
                  coadjoint_representation, cochain_to_candidate, deformed_matched_pair,
                  delta_mpl_coeff, jsonio, lie, validate_bialgebra, validate_lie_algebra,
                  validate_matched_pair, validate_mp_representation, validate_representation,
                  wedge_rep)
from mpla.catalog import (aff1, heisenberg3, mp_a, mp_direct, mp_double, mp_semidirect_double,
                          sl2, standard_fixtures)
from mpla.matched import _double
from mpla.lie import bicrossed_table, lie_table_holds
from mpla.reps import semidirect_tensors
from mpla.skeletal import validate_skeletal_matched_pair
from mpla.scalars import DualNumber, zero_tensor

from helpers import (fraction_calls, gl2, rand_cochain, rand_deformation_candidate,
                     rand_invertible, rand_lie_candidate, rand_mp_rep_candidate)
from test_cohomology import conjugate_pair


def on_ring_route(fn):
    """fn() with the kernel switched off: every report is the ring-generic
    one, computed on the structure itself."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lie, "lie_table_holds", lambda c: False)
        return fn()


# -- fresh copies: reports are kept on each structure and its parts ---------


def fresh_algebra(g):
    return LieAlgebra(g.dim, g.c)


def fresh_rep(r):
    return LieRep(fresh_algebra(r.algebra), r.space_dim, r.a)


def fresh_pair(mp):
    return MatchedPair(fresh_algebra(mp.g), fresh_algebra(mp.h), mp.rho, mp.psi)


def fresh_mp_rep(r):
    return MPRepresentation(fresh_pair(r.base), r.dim_v, r.dim_w, r.rho_v, r.psi_v,
                            r.rho_w, r.psi_w, r.alpha, r.beta)


# -- the kernel's question, stated apart from the validators ----------------


def kernel_verdict(kind, s):
    """The kernel's verdict on the table that decides s, or None where the
    validator does not ask (a base that is not valid)."""
    if kind == "lie":
        return lie_table_holds(s.c)
    if kind == "rep":
        g, k = s.algebra, s.space_dim
        if not validate_lie_algebra(fresh_algebra(g)).ok:
            return None
        return lie_table_holds(bicrossed_table(g.c, zero_tensor((k, k, k)), s.a,
                                               zero_tensor((k, g.dim, g.dim))))
    if kind == "pair":
        if not (validate_lie_algebra(fresh_algebra(s.g)).ok
                and validate_lie_algebra(fresh_algebra(s.h)).ok):
            return None
        return lie_table_holds(bicrossed_table(s.g.c, s.h.c, s.rho, s.psi))
    if not validate_matched_pair(fresh_pair(s.base)).ok:
        return None
    return lie_table_holds(bicrossed_table(*semidirect_tensors(s)))


VALIDATE = {"lie": (validate_lie_algebra, fresh_algebra),
            "rep": (validate_representation, fresh_rep),
            "pair": (validate_matched_pair, fresh_pair),
            "mp_rep": (validate_mp_representation, fresh_mp_rep)}


def check_against_oracle(kind, s):
    """The kernel verdict equals the ring-generic verdict wherever it is
    asked, and the validator's report is the ring-generic one; returns the
    oracle report."""
    validate, fresh = VALIDATE[kind]
    oracle = on_ring_route(lambda: validate(fresh(s)))
    verdict = kernel_verdict(kind, s)
    assert verdict is None or verdict == oracle.ok
    assert repr(validate(fresh(s))) == repr(oracle)
    return oracle


# -- seeded random structures, mostly invalid -------------------------------


def small_pairs(rng):
    """Catalog pairs up to 3+2 and a conjugate of two of them, whose
    constants hold proper fractions."""
    pairs = [mp for _, mp in standard_fixtures()] + [mp_direct(sl2(), aff1())]
    for mp in (mp_double(), mp_direct(aff1(), aff1())):
        pairs.append(conjugate_pair(mp, rand_invertible(rng, mp.dim_g),
                                    rand_invertible(rng, mp.dim_h)))
    return pairs


DELTAS = [1, -1, 2, Fraction(1, 3), Fraction(-1, 2)]


def perturb(rng, tensor):
    """A copy of the nested lists with one entry changed: an int or proper
    fraction added, or a first-order DualNumber term."""
    out = copy.deepcopy(tensor)
    cell = out
    while type(cell[0]) is list:
        cell = rng.choice(cell)
    k = rng.randrange(len(cell))
    if rng.random() < 0.2:
        cell[k] = DualNumber(cell[k], rng.choice(DELTAS))
    else:
        cell[k] = cell[k] + rng.choice(DELTAS)
    return out


def perturbed_pair(rng, mp, flip=True):
    """mp with one of its four tensors perturbed, or none; often flipped."""
    tensors = [mp.g.c, mp.h.c, mp.rho, mp.psi]
    which = rng.randrange(5)
    if which < 4:
        tensors[which] = perturb(rng, tensors[which])
    g, h, rho, psi = tensors
    out = MatchedPair(LieAlgebra(mp.dim_g, g), LieAlgebra(mp.dim_h, h), rho, psi)
    return out.flipped() if flip and rng.random() < 0.3 else out


def perturbed_mp_rep(rng, r):
    """r with one of its six tensors perturbed, or over a perturbed base, or
    neither; often flipped."""
    tensors = [r.rho_v, r.psi_v, r.rho_w, r.psi_w, r.alpha, r.beta]
    which = rng.randrange(8)
    if which < 6:
        tensors[which] = perturb(rng, tensors[which])
    base = perturbed_pair(rng, r.base, flip=False) if which == 6 else r.base
    out = MPRepresentation(base, r.dim_v, r.dim_w, *tensors)
    return out.flipped() if rng.random() < 0.3 else out


@seed(1501)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_kernel_agrees_with_the_ring_generic_validators(state):
    rng = random.Random(state)
    mp = rng.choice(small_pairs(random.Random(state % 7)))
    pair = perturbed_pair(rng, mp)
    check_against_oracle("pair", pair)
    for g in (pair.g, pair.h):
        check_against_oracle("lie", g)
    for rep in (pair.rho_rep(), pair.psi_rep(), pair.g.adjoint(), wedge_rep(pair.g, 2)):
        check_against_oracle("rep", rep)
    rep = rng.choice([adjoint_representation, coadjoint_representation])(mp)
    if rng.random() < 0.3:
        rep = rand_mp_rep_candidate(rng, mp, (rng.randint(1, 2), rng.randint(1, 2)))
    check_against_oracle("mp_rep", perturbed_mp_rep(rng, rep))


def test_every_axiom_group_fails_somewhere_and_passes_somewhere():
    rng = random.Random(1502)
    failed, verdicts = set(), {kind: set() for kind in VALIDATE}
    pairs = small_pairs(rng)
    for _ in range(120):
        mp = rng.choice(pairs)
        pair = perturbed_pair(rng, mp)
        rep = perturbed_mp_rep(rng, rng.choice([adjoint_representation,
                                                coadjoint_representation])(mp))
        for kind, s in (("pair", pair), ("lie", pair.g), ("rep", pair.rho_rep()),
                        ("mp_rep", rep)):
            report = check_against_oracle(kind, s)
            verdicts[kind].add(report.ok)
            failed.update(c.name for c in report.failed_checks())
    assert all(v == {True, False} for v in verdicts.values())
    assert failed >= {"skew-symmetry", "jacobi", "action law", "jacobi(g)", "jacobi(h)",
                      "representation(rho)", "representation(psi)", "compat(11)",
                      "compat(22)", "rep(rho_V)", "rep(psi_V)", "rep(rho_W)", "rep(psi_W)",
                      *(f"pairing({k})" for k in range(1, 7))}


def test_dual_number_structures_are_decided_by_polarization():
    """Deformed pairs over k[t]/(t^2): closed candidates (coboundaries) give
    valid pairs, random ones mostly invalid ones, and the kernel, asked on
    the three int tables a, b and a + b, agrees with the ring-generic
    report."""
    rng = random.Random(1503)
    verdicts = set()
    for mp in (mp_double(), mp_a(), mp_direct(sl2(), aff1())):
        rep = adjoint_representation(mp)
        candidates = [rand_deformation_candidate(rng, mp) for _ in range(3)]
        for _ in range(3):
            F = rand_cochain(rng, mp, (mp.dim_g, mp.dim_h), 1)
            candidates.append(cochain_to_candidate(delta_mpl_coeff(mp, rep, F)))
        for d in candidates:
            pair = deformed_matched_pair(mp, d)
            verdicts.add(check_against_oracle("pair", pair).ok)
            check_against_oracle("lie", pair.g)
            check_against_oracle("rep", pair.psi_rep())
    assert verdicts == {True, False}


def test_validating_pairs_and_representations_does_no_fraction_arithmetic():
    """The 4+4 pair (integral Fractions), a seeded conjugate of it (proper
    fractions) and their adjoint representations are decided in ints."""
    mp = mp_semidirect_double()
    rng = random.Random(1504)
    conj = conjugate_pair(mp, rand_invertible(rng, 4), rand_invertible(rng, 4))
    values = [x for t in (conj.g.c, conj.h.c, conj.rho, conj.psi)
              for row in t for vec in row for x in vec]
    assert any(type(x) is Fraction and x.denominator > 1 for x in values)
    structures = [(validate_matched_pair, fresh_pair(p)) for p in (mp, conj)]
    structures += [(validate_mp_representation, adjoint_representation(fresh_pair(p)))
                   for p in (mp, conj)]
    with fraction_calls() as calls:
        for validate, s in structures:
            assert validate(s).ok
    assert calls == []


def test_bicrossed_product_of_a_validated_pair_asks_the_kernel_nothing(monkeypatch):
    mp, other = fresh_pair(mp_semidirect_double()), fresh_pair(mp_double())
    asked = []
    holds = lie.lie_table_holds
    monkeypatch.setattr(lie, "lie_table_holds", lambda c: asked.append(len(c)) or holds(c))
    assert validate_matched_pair(mp).ok and asked == [4, 4, 8]
    big = bicrossed_product(mp)
    assert bicrossed_product(mp) is big and big.is_validated and asked == [4, 4, 8]
    assert big.c == bicrossed_table(mp.g.c, mp.h.c, mp.rho, mp.psi)
    # the ring-generic route keeps the product too, and its verdict holds
    assert on_ring_route(lambda: validate_matched_pair(other).ok)
    assert bicrossed_product(other).is_validated


def rand_cobracket(rng, dim):
    """A cobracket with each entry nonzero with one probability, drawn from
    DELTAS: valid for a sparse draw, mostly invalid for a dense one."""
    density = rng.choice([0.1, 0.3, 0.6])
    return [{(i, j): rng.choice(DELTAS) for i in range(dim) for j in range(i + 1, dim)
             if rng.random() < density} for _ in range(dim)]


def test_bialgebra_validator_is_decided_by_its_double():
    """(g, delta) is a Lie bialgebra exactly when g and g* are Lie algebras
    and the double is a matched pair (Majid).  On seeded cobrackets, mostly
    invalid, over the catalog algebras and random algebra candidates: the
    report equals the ring-generic one, whose verdict is that of the
    ring-generic validator of the double, and every group fails somewhere.
    A valid bialgebra's double carries its verdict and asks the kernel
    nothing more."""
    rng = random.Random(1505)
    algebras = [aff1(), heisenberg3(), sl2(), gl2()]
    failed, verdicts = set(), set()
    for _ in range(150):
        g = rng.choice(algebras) if rng.random() < 0.8 else rand_lie_candidate(rng, 3, -1, 1)
        cobracket = rand_cobracket(rng, g.dim)

        def fresh():
            return LieBialgebra(fresh_algebra(g), cobracket)

        oracle = on_ring_route(lambda: validate_bialgebra(fresh()))
        assert on_ring_route(lambda: validate_matched_pair(fresh_pair(_double(fresh()))).ok) \
            == oracle.ok
        b = fresh()
        assert repr(validate_bialgebra(b)) == repr(oracle)
        verdicts.add(oracle.ok)
        failed.update(c.name for c in oracle.failed_checks())
        if oracle.ok:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(lie, "lie_table_holds", lambda c: pytest.fail("asked again"))
                pair = bialgebra_to_matched_pair(b)
                assert pair is _double(b) and validate_matched_pair(pair).ok
    assert verdicts == {True, False}
    assert failed == {"jacobi(g)", "jacobi(dual)", "cobracket 1-cocycle"}


@pytest.mark.parametrize("name", ["witness_pair.json", "witness_skeletal.json"])
def test_a_failing_pair_asks_the_kernel_once_per_table(monkeypatch, name):
    """The ring-generic reports read the action laws off their formula, so a
    failing pair asks the kernel about g, h and g |x| h and nothing more; a
    skeletal pair whose degree-0 pair fails asks no more about its
    representation (whose base fails)."""
    data = json.loads((Path(__file__).resolve().parent / "data" / name).read_text())
    if "G" in data:
        structure, validate = jsonio.skeletal_pair_from_json(data), validate_skeletal_matched_pair
    else:
        structure, validate = jsonio.matched_pair_from_json(data), validate_matched_pair
    asked = []
    holds = lie.lie_table_holds
    monkeypatch.setattr(lie, "lie_table_holds", lambda c: asked.append(len(c)) or holds(c))
    assert not validate(structure).ok
    assert len(asked) == 3
