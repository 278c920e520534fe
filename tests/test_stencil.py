"""The integer stencil behind every explicit coboundary matrix.

``delta_matrix(route="coeff")``, ``ce_matrix`` and ``liebi_matrix`` are
built by the integer stencil of ``stencil`` in integer form; ``cohomology_dims`` ranks and
checks them in ints.  The oracles are independent: one run of the
cochain-level formula on a probe of linear forms, the per-column builders,
and the graded-bracket route.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mpla import (DeformationCandidate, LieAlgebra, LieBialgebra, MatchedPair,
                  MPRepresentation, adjoint_representation, bicrossed_product,
                  coadjoint_representation, deformed_matched_pair, delta_matrix, liebi_matrix,
                  matched, mpl_cohomology_dims, validate_bialgebra, validate_matched_pair)
from mpla.catalog import (aff1, bialgebra_aff1, heisenberg3, mp_direct, mp_double,
                          mp_semidirect_double, sl2)
from mpla.lie import ce_matrix
from mpla.linalg import Matrix, cohomology_dims
from mpla.scalars import common_denominator

from helpers import (fraction_calls, gl2, percolumn_ce_matrix, percolumn_delta_matrix,
                     percolumn_liebi_matrix, probe_delta_matrix, rand_invertible)
from test_cohomology import conjugate_pair


def assert_integer_form(m: Matrix):
    """m holds D and its integer columns, D * data equals them, and data
    stores nonzero Fractions only."""
    scale, columns = m._scale, m._columns
    assert type(scale) is int and scale > 0 and len(columns) == m.cols
    assert all(type(x) is int and x for column in columns for x in column.values())
    stored = [x for row in m.data for x in row.values()]
    assert all(type(x) is Fraction and x for x in stored)
    assert len(stored) == sum(len(column) for column in columns)
    for j, column in enumerate(columns):
        for i, x in column.items():
            assert scale * m.data[i][j] == x


def _value(rng, proper):
    """Mostly zeros and small integers, as ints and as Fractions; with
    ``proper`` also proper fractions."""
    choices = [0, 0, 0, 1, -1, 2, Fraction(1), Fraction(-2)]
    if proper:
        choices += [Fraction(1, 2), Fraction(-2, 3)]
    return rng.choice(choices)


def _tensor(rng, rows, cols, size, proper):
    if rng.random() < 0.25:
        return {}
    return {(i, j): [_value(rng, proper) for _ in range(size)]
            for i in range(rows) for j in range(cols)}


def rand_pair_and_rep(rng, m, n, p, q, proper):
    """A random, mostly invalid pair and representation."""
    g = LieAlgebra.from_brackets(m, {key: [_value(rng, proper) for _ in range(m)]
                                     for key in combinations(range(m), 2)})
    h = LieAlgebra.from_brackets(n, {key: [_value(rng, proper) for _ in range(n)]
                                     for key in combinations(range(n), 2)})
    mp = MatchedPair.from_sparse(g, h, _tensor(rng, m, n, n, proper),
                                 _tensor(rng, n, m, m, proper))
    rep = MPRepresentation.from_sparse(
        mp, (p, q), rho_v=_tensor(rng, m, p, p, proper), psi_v=_tensor(rng, n, p, p, proper),
        rho_w=_tensor(rng, m, q, q, proper), psi_w=_tensor(rng, n, q, q, proper),
        alpha=_tensor(rng, p, n, q, proper), beta=_tensor(rng, q, m, p, proper))
    return mp, rep


@seed(12)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2)]),
       st.sampled_from([(1, 2), (2, 1), (1, 3), (2, 2)]), st.booleans(), st.booleans())
def test_stencil_matches_the_probe_and_the_percolumn_oracle(state, dims, rep_dims, proper, flip):
    rng = random.Random(state)
    mp, rep = rand_pair_and_rep(rng, *dims, *rep_dims, proper)
    if flip:
        rep = rep.flipped()
        mp = rep.base
    constants = [mp.g.c, mp.h.c, mp.rho, mp.psi, rep.rho_v, rep.psi_v, rep.rho_w,
                 rep.psi_w, rep.alpha, rep.beta]
    for degree in range(1, min(sum(dims), 4) + 1):
        got = delta_matrix(mp, rep, degree)
        assert got == probe_delta_matrix(mp, rep, degree)
        assert got == percolumn_delta_matrix(mp, rep, degree)
        assert_integer_form(got)
        # one D per matrix, derived from the input's constants
        assert got._scale == common_denominator(*constants)


def test_stencil_matches_the_bracket_route_and_keeps_its_form_on_conjugates():
    rng = random.Random(121)
    s33 = mp_direct(sl2(), sl2())
    conj = conjugate_pair(s33, rand_invertible(rng, 3), rand_invertible(rng, 3))
    # the conjugate holds integral Fractions beside its proper fractions
    assert any(type(x) is Fraction and x.denominator == 1
               for t in (conj.g.c, conj.h.c, conj.rho, conj.psi)
               for row in t for vec in row for x in vec)
    for mp in (s33, conj):
        adj = adjoint_representation(mp)
        for degree in range(1, 4):
            got = delta_matrix(mp, adj, degree)
            assert got == delta_matrix(mp, adj, degree, "adjoint")
            assert_integer_form(got)
            assert_integer_form(got.mul(delta_matrix(mp, adj, degree - 1)))
    assert delta_matrix(conj, adjoint_representation(conj), 2)._scale > 1


def test_ce_and_liebi_stencils_keep_their_integer_form():
    rng = random.Random(122)
    conj = conjugate_pair(mp_direct(sl2(), aff1()), rand_invertible(rng, 3),
                          rand_invertible(rng, 2))
    big = bicrossed_product(conj).adjoint()
    for n in range(4):
        got = ce_matrix(big, n)
        assert got == percolumn_ce_matrix(big, n)
        assert_integer_form(got)
    thirds = LieBialgebra(LieAlgebra.abelian(2), [{}, {(0, 1): Fraction(1, 3)}])
    for b in (bialgebra_aff1(), thirds):
        for degree in range(4):
            got = liebi_matrix(b, degree)
            assert got == percolumn_liebi_matrix(b, degree)
            assert_integer_form(got)
    assert liebi_matrix(thirds, 1)._scale == 3


def test_liebi_matrix_matches_the_percolumn_oracle_on_random_cobrackets():
    """The bialgebra complex is the stencil of the double at the mixed keys
    by an identity of the formulas: on 40 seeded cobrackets, valid or not,
    up to dimension 4, it equals the ring-generic coboundary with the frozen
    ``_DUAL_TWIST``, column by column."""
    rng = random.Random(125)
    values = [1, -1, 2, Fraction(1, 2), Fraction(-1, 3)]
    verdicts = set()
    for k in range(40):
        g = (aff1(), heisenberg3(), sl2(), gl2())[k % 4]
        density = rng.choice([0.2, 0.5])
        b = LieBialgebra(g, [{(i, j): rng.choice(values) for i, j in combinations(range(g.dim), 2)
                              if rng.random() < density} for _ in range(g.dim)])
        verdicts.add(validate_bialgebra(LieBialgebra(g, b.cobracket)).ok)
        for degree in range(min(2 * g.dim - 1, 4) + 1):
            assert liebi_matrix(b, degree) == percolumn_liebi_matrix(b, degree)
    assert verdicts == {True, False}


def test_liebi_matrix_builds_no_wedge_module(monkeypatch):
    built = []
    wedge_rep = matched.wedge_rep
    monkeypatch.setattr(matched, "wedge_rep", lambda g, q: built.append(q) or wedge_rep(g, q))
    for b in (bialgebra_aff1(), LieBialgebra(heisenberg3(), [{}, {}, {(0, 1): 1}])):
        for degree in range(4):
            liebi_matrix(b, degree)
    assert built == []


def test_data_is_built_on_the_first_read_only():
    mp = mp_semidirect_double()
    m = delta_matrix(mp, adjoint_representation(mp), 2)
    assert m._data is None
    assert mpl_cohomology_dims(mp, adjoint_representation(mp), 2) == [8, 3, 7]
    data = m.data
    assert m.data is data and m.entries[0] == [data[0].get(j, 0) for j in range(m.cols)]


def _outcome(fn, *args, **kwargs):
    try:
        m = fn(*args, **kwargs)
    except Exception as exc:  # the type and message are what is pinned
        return type(exc).__name__, str(exc)
    return m.rows, m.cols


def test_builders_raise_as_before_at_every_degree():
    mp = mp_semidirect_double()
    adj, co = adjoint_representation(mp), coadjoint_representation(mp)
    other = adjoint_representation(mp_direct(sl2(), sl2()))
    negative = {d: ("InputError", f"degree must be nonnegative, got {d} (field=degree)")
                for d in (-2, -1)}
    not_over = ("ShapeMismatch", "representation is not over this matched pair")
    adjoint_only = ("CoefficientMismatch",
                    "the adjoint route needs the adjoint representation of the pair")
    unknown = ("ValueError", "unknown route 'bracket'")
    shapes = {0: (32, 8), 1: (176, 32), 2: (416, 176)}
    for d in (-2, -1, 0, 1, 2):
        expected = negative.get(d, shapes.get(d))
        assert _outcome(delta_matrix, mp, adj, d) == expected
        assert _outcome(delta_matrix, mp, adj, d, "adjoint") == expected
        assert _outcome(delta_matrix, mp, adj, d, "bracket") == unknown
        # both routes read the degree before the coefficients
        assert _outcome(delta_matrix, mp, co, d, "adjoint") == negative.get(d, adjoint_only)
        assert _outcome(delta_matrix, mp, other, d, "adjoint") == negative.get(d, adjoint_only)
        assert _outcome(delta_matrix, mp, co, d) == negative.get(d, shapes.get(d))
        assert _outcome(delta_matrix, mp, other, d) == negative.get(d, not_over)
        assert _outcome(ce_matrix, aff1().adjoint(), d) == \
            negative.get(d, {0: (4, 2), 1: (2, 4), 2: (0, 2)}.get(d))
        assert _outcome(liebi_matrix, bialgebra_aff1(), d) == \
            negative.get(d, {0: (4, 0), 1: (4, 4), 2: (1, 4)}.get(d))
    # an equal pair that is another object is accepted
    twin = MatchedPair(mp.g, mp.h, mp.rho, mp.psi)
    assert delta_matrix(twin, adj, 1) == delta_matrix(mp, adj, 1)
    assert _outcome(mpl_cohomology_dims, mp, adj, -1) == \
        ("InputError", "max_degree must be nonnegative, got -1 (field=max_degree)")
    assert _outcome(cohomology_dims, lambda d: Matrix.zero(2, 3), 1)[0] == "DimensionMismatch"


def test_closedness_matches_the_explicit_coboundary_on_random_pairs():
    """``_is_closed`` reads the coeff stencil at the stored keys of F; on
    random, mostly invalid pairs and representations, some with halves, its
    verdict is that of ``delta_mpl_coeff`` on kernel vectors of delta_d and
    on random cochains with halves."""
    from mpla import cochain_from_coords, delta_mpl_coeff, kernel_basis
    from mpla.stencil import _is_closed

    rng = random.Random(124)
    verdicts = set()
    for dims, rep_dims in (((1, 2), (2, 1)), ((2, 2), (1, 2)), ((2, 1), (2, 2)),
                           ((3, 2), (1, 1))):
        for proper in (False, True):
            mp, rep = rand_pair_and_rep(rng, *dims, *rep_dims, proper)
            for degree in (1, 2):
                size = delta_matrix(mp, rep, degree).cols
                vectors = kernel_basis(delta_matrix(mp, rep, degree))[:2] + [
                    [Fraction(rng.randint(-3, 3), 2) for _ in range(size)]]
                for vec in vectors:
                    F = cochain_from_coords(dims, rep_dims, degree, vec)
                    closed = delta_mpl_coeff(mp, rep, F).is_zero()
                    assert _is_closed(mp, rep, F) == closed
                    verdicts.add(closed)
    assert verdicts == {True, False}


def test_dual_number_constants_raise_a_type_error_that_names_the_cause():
    """The integer stencil scales rational constants: on a valid pair with
    DualNumber constants its entry points raise a TypeError that says so,
    as the adjoint route does."""
    base = mp_double()
    mp = deformed_matched_pair(base, DeformationCandidate.zero(base))
    assert validate_matched_pair(mp).ok
    rep = adjoint_representation(mp)
    for build in (lambda: delta_matrix(mp, rep, 1),
                  lambda: delta_matrix(mp, rep, 1, route="adjoint"),
                  lambda: mpl_cohomology_dims(mp, rep, 2),
                  lambda: ce_matrix(bicrossed_product(mp).adjoint(), 1)):
        with pytest.raises(TypeError, match="int or Fraction"):
            build()


def test_cohomology_dims_build_no_fraction():
    """Assembling, checking and ranking δ_0..δ_2 of the 4+4 pair and of a
    conjugate with proper fractions builds a bounded number of Fractions,
    not one per stored entry as a round trip through ``Matrix.data`` would."""
    rng = random.Random(123)
    base = mp_semidirect_double()
    conj = conjugate_pair(base, rand_invertible(rng, 4), rand_invertible(rng, 4))
    for mp in (base, conj):
        rep = adjoint_representation(mp)
        mp.require_valid()
        rep.require_valid()
        with fraction_calls(("__new__",)) as built:
            dims = mpl_cohomology_dims(mp, rep, 2)
        assert dims == [8, 3, 7]
        stored = sum(len(row) for d in (1, 2) for row in delta_matrix(mp, rep, d).data)
        assert stored > 1000 and len(built) <= 16, (stored, len(built))


def test_fraction_arithmetic_is_bounded_by_stored_entries():
    """Assembling delta_1 and delta_2 of the 4+4 pair, whose constants are
    integral Fractions, and multiplying them run in ints: the Fraction
    +, - and * they do stay below the entries they store."""
    mp = mp_semidirect_double()
    rep = adjoint_representation(mp)
    big = bicrossed_product(mp).adjoint()
    with fraction_calls() as calls:
        ce_matrix(big, 1)
        d1, d2 = delta_matrix(mp, rep, 1), delta_matrix(mp, rep, 2)
        assembly = len(calls)
        product = d2.mul(d1)
    stored = sum(len(row) for m in (d1, d2, product) for row in m.data)
    assert product.is_zero() and stored > 1000
    assert len(calls) <= stored
    # the stencils scale the constants to ints, so assembly does no
    # Fraction arithmetic
    assert assembly == 0


def test_key_columns_skip_exactly_the_indices_that_act_by_zero():
    # the action table lists only the indices whose matrix is nonzero; the
    # action terms of the others add nothing, so the columns read with
    # every index listed are the same dicts, entry order included, and a
    # trivial module lists none
    from mpla.lie import LieRep
    from mpla.stencil import action_table, bicross_tables, bracket_table, ce_key_columns

    r = mp_double().rho_rep()
    r.a[0] = [[0] * r.space_dim for _ in range(r.space_dim)]
    reps = [r, LieRep.trivial(sl2()), coadjoint_representation(mp_double()).rho_v_rep(),
            adjoint_representation(mp_semidirect_double()).psi_w_rep()]
    for rep in reps:
        dim, space = rep.algebra.dim, rep.space_dim
        bracket, action = bracket_table(rep.algebra.c), action_table(rep.a)
        every = [(i, [[(v, x) for v, x in enumerate(vec) if x] for vec in row])
                 for i, row in enumerate(rep.a)]
        assert [i for i, _ in action] == [i for i, row in enumerate(rep.a)
                                          if any(any(v) for v in row)]
        assert action == [(i, act) for i, act in every if any(act)]
        for n in range(dim + 1):
            target = {key: t * space for t, key in enumerate(combinations(range(dim), n + 1))}
            for key in combinations(range(dim), n):
                got = ce_key_columns(bracket, action, key, target, range(space))
                full = ce_key_columns(bracket, every, key, target, range(space))
                assert [list(c.items()) for c in got] == [list(c.items()) for c in full]
    assert action_table(LieRep.trivial(sl2()).a) == []
    assert len(action_table(r.a)) == r.algebra.dim - 1
    rep = adjoint_representation(mp_double())
    assert len(bicross_tables(rep)[1]) == mp_double().dim_g + mp_double().dim_h
