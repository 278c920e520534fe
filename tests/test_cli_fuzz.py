"""Every verb that reads JSON, run in-process on seeded mutations of valid
inputs, ends with exit code 0, 1 or 2: no exception escapes ``cli.main``."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpla import jsonio
from mpla.catalog import aff1, bialgebra_aff1, mp_double
from mpla.cli import main
from mpla.cohomology import MPCochain, cochain_from_coords, delta_matrix
from mpla.linalg import kernel_basis
from mpla.reps import adjoint_representation
from mpla.skeletal import SkeletalTriple, triple_to_skeletal

from reader_corpus import DATA, abelian_extension, mutate

# {name: argv}; "{x}" stands for the path of input file x
VERBS = {
    "validate-lie": ["validate", "{lie}", "--as", "lie"],
    "validate-rep": ["validate", "{rep}", "--as", "rep", "--algebra", "{lie}"],
    "validate-pair": ["validate", "{pair}", "--as", "matched-pair"],
    "validate-mp-rep": ["validate", "{mp_rep}", "--as", "mp-rep", "--base", "{pair}"],
    "validate-bialgebra": ["validate", "{bialgebra}", "--as", "bialgebra"],
    "validate-two-term": ["validate", "{two_term}", "--as", "two-term"],
    "validate-skeletal": ["validate", "{skeletal}", "--as", "skeletal-mp"],
    "validate-extension": ["validate", "{extension}", "--as", "extension"],
    "validate-detect": ["validate", "{pair}"],
    "cohomology": ["cohomology", "{pair}", "--coefficients", "{mp_rep}", "--max-degree", "1"],
    "bicross": ["bicross", "{pair}"],
    "dual": ["dual", "{pair}", "--coefficients", "{mp_rep}"],
    "semidirect": ["semidirect", "{pair}", "--coefficients", "{mp_rep}"],
    "mc-check": ["mc-check", "{pair}"],
    "deform-check": ["deform-check", "{pair}", "{candidate}"],
    "deform-equiv": ["deform-equiv", "{pair}", "{candidate}", "{candidate}", "{maps}"],
    "extend": ["extend", "{pair}", "{cocycle}", "--coefficients", "{mp_rep}"],
    "extract-cocycle": ["extract-cocycle", "{extension}"],
    "bialgebra": ["bialgebra", "{bialgebra}"],
    "skeletal-validate": ["skeletal-validate", "{skeletal}"],
    "skeletal-validate-two-term": ["skeletal-validate", "{two_term}"],
    "skeletal-correspond": ["skeletal-correspond", "{skeletal}"],
    "skeletal-correspond-triple": ["skeletal-correspond", "{triple}"],
    "rota-baxter": ["rota-baxter", "{lie}", "{operator}"],
}


def _inputs():
    """One valid document for every input of VERBS."""
    mp = mp_double()
    rep = adjoint_representation(mp)
    coords = kernel_basis(delta_matrix(mp, rep, 2))[0]
    cocycle = cochain_from_coords((mp.dim_g, mp.dim_h), rep.dims, 2, coords)
    zero_triple = SkeletalTriple(mp, rep, MPCochain(3, 2, 2, 2, 2))
    skeletal = json.loads((DATA / "witness_skeletal.json").read_text())
    return {
        "lie": jsonio.lie_algebra_to_json(aff1()),
        "rep": jsonio.lie_rep_to_json(aff1().adjoint()),
        "pair": jsonio.matched_pair_to_json(mp),
        "mp_rep": jsonio.mp_representation_to_json(rep),
        "bialgebra": jsonio.bialgebra_to_json(bialgebra_aff1()),
        "two_term": skeletal["G"],
        "skeletal": jsonio.skeletal_pair_to_json(triple_to_skeletal(zero_triple)),
        "extension": jsonio.extension_to_json(abelian_extension()),
        "candidate": {"mu1": [[0, 1, 1, "1/2"]], "nu1": [[0, 1, 0, -1]],
                      "rho1": [[1, 0, 1, 2]], "psi1": [[0, 1, 0, 1]]},
        "maps": {"f": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]]},
        "cocycle": jsonio.cochain_to_json(cocycle),
        "triple": {"mp": jsonio.matched_pair_to_json(mp),
                   "rep": jsonio.mp_representation_to_json(rep),
                   "cocycle": jsonio.cochain_to_json(MPCochain(3, 2, 2, 2, 2))},
        "operator": {"R": [[0, 0], [0, 0]]},
    }


INPUTS = _inputs()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    paths = {}
    for name, doc in INPUTS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return root, paths


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_every_verb_accepts_its_valid_inputs(valid_files):
    _, paths = valid_files
    for name, argv in VERBS.items():
        code, err = _run([arg.format(**paths) for arg in argv])
        assert code in (0, 1), (name, err)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(verb=st.sampled_from(sorted(VERBS)), rng=st.randoms(use_true_random=False),
       as_json=st.booleans())
def test_cli_never_crashes_on_mutated_input(valid_files, verb, rng, as_json):
    root, paths = valid_files
    argv = VERBS[verb]
    used = sorted({arg[1:-1] for arg in argv if arg.startswith("{")})
    target = rng.choice(used)
    doc = copy.deepcopy(INPUTS[target])
    for _ in range(rng.choice((1, 1, 2, 3))):
        doc = mutate(rng, doc)
    mutated = root / "mutated.json"
    mutated.write_text(json.dumps(doc))
    files = {**paths, target: mutated}
    code, err = _run([arg.format(**files) for arg in argv]
                     + (["--format", "json"] if as_json else []))
    assert code in (0, 1, 2), err
    if code == 2:
        assert err.startswith("error: "), err
