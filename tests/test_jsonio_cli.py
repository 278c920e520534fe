import json
import random

import pytest

from mpla import (MPCochain, adjoint_representation, cochain_to_coords,
                  kernel_basis, delta_matrix, cochain_from_coords)
from mpla import jsonio
from mpla.catalog import (aff1, bialgebra_aff1, mp_a, mp_action_pair,
                          mp_double, standard_fixtures)
from mpla.cli import main
from mpla.errors import InputError
from mpla.scalars import DualNumber, format_rational, parse_rational

from helpers import rand_cochain


def test_rational_parsing():
    from fractions import Fraction

    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-2)) == -2
    from mpla.errors import MalformedTensor

    for bad in ("1/0", "a/b", 1.5, None, True):
        with pytest.raises(MalformedTensor):
            parse_rational(bad)


def test_dual_number_ring():
    t = DualNumber(0, 1)
    assert t * t == DualNumber(0, 0)
    x = DualNumber(2, 3)
    y = DualNumber(-1, 4)
    assert x * y == DualNumber(-2, 8 - 3)
    assert x - y == DualNumber(3, -1)
    assert bool(DualNumber(0, 0)) is False and bool(t) is True
    assert 2 * t == DualNumber(0, 2)


def test_structure_json_round_trips():
    for name, mp in standard_fixtures():
        data = jsonio.matched_pair_to_json(mp)
        back = jsonio.matched_pair_from_json(json.loads(json.dumps(data)))
        assert back == mp, name
    g = aff1()
    assert jsonio.lie_algebra_from_json(jsonio.lie_algebra_to_json(g)) == g
    b = bialgebra_aff1()
    back = jsonio.bialgebra_from_json(jsonio.bialgebra_to_json(b))
    assert back.g == b.g and back.cobracket == b.cobracket


def test_cochain_json_round_trip():
    rng = random.Random(81)
    mp = mp_double()
    for degree in range(4):
        F = rand_cochain(rng, mp, (2, 2), degree)
        back = jsonio.cochain_from_json(
            json.loads(json.dumps(jsonio.cochain_to_json(F))), (2, 2), (2, 2))
        assert back == F


def test_rep_json_round_trip():
    for name, mp in standard_fixtures():
        rep = adjoint_representation(mp)
        back = jsonio.mp_representation_from_json(
            jsonio.mp_representation_to_json(rep), mp)
        assert back.tensors_equal(rep), name


def test_json_rejects_malformed():
    with pytest.raises(InputError):
        jsonio.lie_algebra_from_json({"dim": 2, "bracket": [[1, 0, 0, "1"]]})
    with pytest.raises(InputError):
        jsonio.lie_algebra_from_json({"dim": 2, "bracket": [[0, 1, 0, "1/0"]]})
    with pytest.raises(InputError):
        jsonio.matched_pair_from_json({"g": {"dim": 1, "bracket": []}})
    # a component, or a part of one, that is not a JSON object
    for components in ([5], [{"r": 1, "part_V": 5}]):
        with pytest.raises(InputError) as exc:
            jsonio.cochain_from_json({"degree": 2, "components": components},
                                     (2, 2), (2, 2), "cocycle.json")
        assert exc.value.path == "cocycle.json"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_validate_matched_pair(tmp_path, capsys):
    path = write(tmp_path, "mpa.json", jsonio.matched_pair_to_json(mp_a()))
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "matched pair: VALID (6/6 axiom groups)" in out


def test_cli_validate_invalid_exit_code(tmp_path, capsys):
    from mpla import LieAlgebra, MatchedPair

    bad = MatchedPair.from_sparse(
        aff1(), LieAlgebra.abelian(1), rho={(0, 0): [1], (1, 0): [1]}
    )
    path = write(tmp_path, "bad.json", jsonio.matched_pair_to_json(bad))
    assert main(["validate", path]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_cli_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "broken.json" in err


def test_cli_cohomology_table(tmp_path, capsys):
    path = write(tmp_path, "mpa.json", jsonio.matched_pair_to_json(mp_a()))
    assert main(["cohomology", path, "--max-degree", "3", "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table[0] == {"degree": 0, "cochain_dim": 2, "h_dim": 2}
    assert len(table) == 4


def test_cli_cohomology_rejects_negative_max_degree(tmp_path, capsys):
    path = write(tmp_path, "mpa.json", jsonio.matched_pair_to_json(mp_a()))
    for bad in ("-1", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", path, "--max-degree", bad])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--max-degree" in captured.err and not captured.out


def test_cli_bicross_then_validate(tmp_path, capsys):
    path = write(tmp_path, "mpa.json", jsonio.matched_pair_to_json(mp_a()))
    out_path = str(tmp_path / "combined.json")
    assert main(["bicross", path, "--format", "json", "-o", out_path]) == 0
    assert main(["validate", out_path, "--as", "lie"]) == 0
    combined = jsonio.lie_algebra_from_json(
        json.loads((tmp_path / "combined.json").read_text()))
    assert combined == aff1()


def test_cli_mc_check(tmp_path, capsys):
    path = write(tmp_path, "double.json", jsonio.matched_pair_to_json(mp_double()))
    assert main(["mc-check", path]) == 0
    from helpers import rand_mp_candidate

    cand = rand_mp_candidate(random.Random(5), 2, 2)
    path = write(tmp_path, "cand.json", jsonio.matched_pair_to_json(cand))
    code = main(["mc-check", path])
    from mpla import validate_matched_pair

    assert code == (0 if validate_matched_pair(cand).ok else 1)


def test_cli_deform_check(tmp_path, capsys):
    mp = mp_a()
    path = write(tmp_path, "mpa.json", jsonio.matched_pair_to_json(mp))
    zero = write(tmp_path, "zero.json",
                 {"mu1": [], "nu1": [], "rho1": [], "psi1": []})
    assert main(["deform-check", path, zero]) == 0
    out = capsys.readouterr().out
    assert "routes agree: yes" in out


def test_cli_extend_extract_round_trip(tmp_path, capsys):
    mp = mp_double()
    rep = adjoint_representation(mp)
    F = cochain_from_coords(
        (2, 2), (2, 2), 2, kernel_basis(delta_matrix(mp, rep, 2))[0])
    mp_path = write(tmp_path, "double.json", jsonio.matched_pair_to_json(mp))
    co_path = write(tmp_path, "cocycle.json", jsonio.cochain_to_json(F))
    ext_path = str(tmp_path / "extension.json")
    assert main(["extend", mp_path, co_path, "-o", ext_path,
                 "--format", "json"]) == 0
    assert main(["validate", ext_path]) == 0
    capsys.readouterr()
    assert main(["extract-cocycle", ext_path, "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == json.loads(json.dumps(jsonio.cochain_to_json(F)))


def test_cli_deterministic_output(tmp_path, capsys):
    path = write(tmp_path, "double.json", jsonio.matched_pair_to_json(mp_double()))
    assert main(["cohomology", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["cohomology", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    payload = json.dumps(jsonio.matched_pair_to_json(mp_a()))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(["validate", "-"]) == 0


def test_cli_skeletal_correspond_round_trip(tmp_path, capsys):
    from test_skeletal import zero_cross_pair

    s = zero_cross_pair(mp_action_pair(), 1, 1)
    path = write(tmp_path, "skeletal.json", jsonio.skeletal_pair_to_json(s))
    assert main(["skeletal-validate", path]) == 0
    capsys.readouterr()
    assert main(["skeletal-correspond", path, "--format", "json"]) == 0
    triple = json.loads(capsys.readouterr().out)
    triple_path = write(tmp_path, "triple.json", triple)
    assert main(["skeletal-correspond", triple_path, "--format", "json"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back == json.loads(json.dumps(jsonio.skeletal_pair_to_json(s)))


def test_cli_semidirect_and_dual(tmp_path, capsys):
    mp = mp_double()
    mp_path = write(tmp_path, "double.json", jsonio.matched_pair_to_json(mp))
    rep_path = write(tmp_path, "rep.json", jsonio.mp_representation_to_json(
        adjoint_representation(mp)))
    assert main(["semidirect", mp_path, "--coefficients", rep_path,
                 "--format", "json"]) == 0
    built = jsonio.matched_pair_from_json(json.loads(capsys.readouterr().out))
    from mpla import validate_matched_pair

    assert validate_matched_pair(built).ok
    assert main(["dual", mp_path, "--coefficients", rep_path,
                 "--format", "json"]) == 0
    dual_data = json.loads(capsys.readouterr().out)
    dual_rep = jsonio.mp_representation_from_json(dual_data, mp)
    from mpla import coadjoint_representation

    assert dual_rep.tensors_equal(coadjoint_representation(mp))


def test_cli_validate_rep_kinds(tmp_path, capsys):
    mp = mp_a()
    mp_path = write(tmp_path, "mpa.json", jsonio.matched_pair_to_json(mp))
    rep_path = write(tmp_path, "rep.json", jsonio.mp_representation_to_json(
        adjoint_representation(mp)))
    assert main(["validate", rep_path, "--base", mp_path]) == 0
    assert "matched-pair representation: VALID" in capsys.readouterr().out
    # a plain action file against its algebra
    lie_path = write(tmp_path, "aff1.json", jsonio.lie_algebra_to_json(aff1()))
    action_path = write(tmp_path, "action.json",
                        {"space_dim": 1, "action": [[0, 0, 0, "1"]]})
    assert main(["validate", action_path, "--algebra", lie_path,
                 "--as", "rep"]) == 0
    # missing the companion file is a usage error
    assert main(["validate", rep_path]) == 2


def test_cli_deform_equiv(tmp_path, capsys):
    mp = mp_double()
    rep = adjoint_representation(mp)
    from mpla import cochain_to_candidate, delta_mpl_coeff
    from mpla.jsonio import deformation_to_json
    from test_deform import one_cochain_from_maps
    from mpla import Matrix

    F = cochain_from_coords(
        (2, 2), (2, 2), 2, kernel_basis(delta_matrix(mp, rep, 2))[0])
    d1 = cochain_to_candidate(F)
    f = Matrix.from_rows([[1, 0], [1, 1]])
    g = Matrix.from_rows([[0, 1], [0, 0]])
    shift = delta_mpl_coeff(mp, rep, one_cochain_from_maps(mp, f, g))
    d2 = cochain_to_candidate(F - shift)
    mp_path = write(tmp_path, "double.json", jsonio.matched_pair_to_json(mp))
    d1_path = write(tmp_path, "d1.json", deformation_to_json(d1))
    d2_path = write(tmp_path, "d2.json", deformation_to_json(d2))
    maps_path = write(tmp_path, "maps.json", {
        "f": [["1", "0"], ["1", "1"]], "g": [["0", "1"], ["0", "0"]]})
    assert main(["deform-equiv", mp_path, d1_path, d2_path, maps_path]) == 0
    zero_maps = write(tmp_path, "zero.json", {
        "f": [["0", "0"], ["0", "0"]], "g": [["0", "0"], ["0", "0"]]})
    assert main(["deform-equiv", mp_path, d1_path, d2_path, zero_maps]) == 1


# Every verb with each file it reads; "BAD" marks the file replaced by a
# JSON value that is not an object, the other *.json names the files of
# ``cli_files``.
FILE_ARGUMENTS = [
    ["validate", "BAD"],
    *[["validate", "BAD", "--as", kind]
      for kind in ("matched-pair", "lie", "bialgebra", "two-term", "skeletal-mp",
                   "extension")],
    ["validate", "BAD", "--as", "mp-rep", "--base", "mp.json"],
    ["validate", "rep.json", "--base", "BAD"],
    ["validate", "BAD", "--as", "rep", "--algebra", "aff1.json"],
    ["validate", "action.json", "--as", "rep", "--algebra", "BAD"],
    ["bicross", "BAD"],
    ["semidirect", "BAD"],
    ["semidirect", "mp.json", "--coefficients", "BAD"],
    ["dual", "BAD"],
    ["dual", "mp.json", "--coefficients", "BAD"],
    ["cohomology", "BAD"],
    ["cohomology", "mp.json", "--coefficients", "BAD"],
    ["mc-check", "BAD"],
    ["deform-check", "BAD", "zero.json"],
    ["deform-check", "mp.json", "BAD"],
    ["deform-equiv", "BAD", "zero.json", "zero.json", "maps.json"],
    ["deform-equiv", "mp.json", "BAD", "zero.json", "maps.json"],
    ["deform-equiv", "mp.json", "zero.json", "BAD", "maps.json"],
    ["deform-equiv", "mp.json", "zero.json", "zero.json", "BAD"],
    ["extend", "BAD", "cocycle.json"],
    ["extend", "mp.json", "BAD"],
    ["extend", "mp.json", "cocycle.json", "--coefficients", "BAD"],
    ["extract-cocycle", "BAD"],
    ["extract-cocycle", "extension.json", "--section", "BAD"],
    ["skeletal-validate", "BAD"],
    ["skeletal-correspond", "BAD"],
    ["rota-baxter", "BAD", "r.json"],
    ["rota-baxter", "aff1.json", "BAD"],
    ["bialgebra", "BAD"],
]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    from mpla import cocycle_to_extension

    mp = mp_double()
    rep = adjoint_representation(mp)
    F = cochain_from_coords(
        (2, 2), (2, 2), 2, kernel_basis(delta_matrix(mp, rep, 2))[0])
    payloads = {
        "mp.json": jsonio.matched_pair_to_json(mp),
        "rep.json": jsonio.mp_representation_to_json(rep),
        "aff1.json": jsonio.lie_algebra_to_json(aff1()),
        "action.json": {"space_dim": 1, "action": [[0, 0, 0, "1"]]},
        "zero.json": {"mu1": [], "nu1": [], "rho1": [], "psi1": []},
        "maps.json": {"f": [["1", "0"], ["0", "1"]], "g": [["1", "0"], ["0", "1"]]},
        "cocycle.json": jsonio.cochain_to_json(F),
        "extension.json": jsonio.extension_to_json(cocycle_to_extension(mp, rep, F)),
        "r.json": {"R": [["-1", "0"], ["0", "0"]]},
    }
    tmp_path = tmp_path_factory.mktemp("files")
    return {name: write(tmp_path, name, payload) for name, payload in payloads.items()}


@pytest.mark.parametrize("bad", [5, [1]], ids=["number", "list"])
@pytest.mark.parametrize("argv", FILE_ARGUMENTS, ids=" ".join)
def test_cli_non_object_file_exits_2_naming_the_path(tmp_path, capsys, cli_files,
                                                      argv, bad):
    bad_path = write(tmp_path, "bad.json", bad)
    assert main([bad_path if arg == "BAD" else cli_files.get(arg, arg)
                 for arg in argv]) == 2
    captured = capsys.readouterr()
    assert bad_path in captured.err and not captured.out


def _skeletal_with(change):
    from test_skeletal import zero_cross_pair

    data = json.loads(json.dumps(jsonio.skeletal_pair_to_json(
        zero_cross_pair(mp_double(), 1, 1))))
    change(data)
    return data


# (verb, payload, field named in the error): indices must be JSON integers
# in range for their block, and every block a list.
BAD_INDICES = [
    ("skeletal-validate", _skeletal_with(lambda d: d["rho2"].update(g0h0=5)), "rho2.g0h0"),
    ("skeletal-validate", _skeletal_with(lambda d: d["rho2"].update(g0h0=[[-1, 0, 0, "1"]])),
     "rho2.g0h0"),
    ("skeletal-validate", _skeletal_with(lambda d: d["psi2"].update(h1g0=[[0, 0, 1, "1"]])),
     "psi2.h1g0"),
    ("skeletal-validate", _skeletal_with(lambda d: d.update(rho3=[[0, 1, 9, 0, "1"]])), "rho3"),
    ("skeletal-validate", _skeletal_with(lambda d: d.update(psi3=[[0, 1, 0, -1, 1]])), "psi3"),
    ("skeletal-validate", _skeletal_with(lambda d: d.update(psi3=5)), "psi3"),
    ("skeletal-validate", _skeletal_with(lambda d: d["G"].update(bracket01=[[0, 9, 1, 1]])),
     "bracket01"),
    ("skeletal-correspond", _skeletal_with(lambda d: d["H"].update(mu1=[[1, 0, 1]])), "mu1"),
    ("validate", {"dim": 2, "bracket": [[0, 1.9, 1, 1]]}, "bracket"),
    ("validate", {"dim": 2, "bracket": [[0, True, 1, 1]]}, "bracket"),
    ("validate", {"dim": 2, "bracket": [[0, "1", 1, 1]]}, "bracket"),
    ("validate", {"dim": 2, "bracket": [[0, 1, 2, 1]]}, "bracket"),
    ("validate", {"dim0": 2, "dim1": 1, "mu3": [[0, 1, 1, 0, 1]]}, "mu3"),
]


@pytest.mark.parametrize("verb,payload,field", BAD_INDICES,
                         ids=[f"{verb}-{i}" for i, (verb, _, _) in enumerate(BAD_INDICES)])
def test_cli_bad_index_exits_2_naming_path_and_field(tmp_path, capsys, verb, payload, field):
    path = write(tmp_path, "bad.json", payload)
    assert main([verb, path]) == 2
    captured = capsys.readouterr()
    assert path in captured.err and f"field={field})" in captured.err
    assert not captured.out


# (argv, payload, field): a JSON true is a bool, not a count
BOOL_COUNTS = [
    (["validate", "BAD", "--as", "lie"], {"dim": True, "bracket": []}, "dim"),
    (["validate", "BAD"], {"dim0": True, "dim1": 1}, "dim0"),
    (["skeletal-validate", "BAD"], {"dim0": 1, "dim1": True}, "dim1"),
    (["validate", "BAD", "--as", "rep", "--algebra", "aff1.json"],
     {"space_dim": True, "action": []}, "space_dim"),
    (["extend", "mp.json", "BAD"], {"degree": True, "components": []}, "degree"),
    (["extend", "mp.json", "BAD"],
     {"degree": 2, "components": [{"r": True, "part_V": [], "part_W": []}]}, "r"),
]


@pytest.mark.parametrize("argv,payload,field", BOOL_COUNTS,
                         ids=[field for _, _, field in BOOL_COUNTS])
def test_cli_json_true_is_not_a_count(tmp_path, capsys, cli_files, argv, payload, field):
    path = write(tmp_path, "bad.json", payload)
    assert main([path if arg == "BAD" else cli_files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert path in captured.err and f"field={field})" in captured.err
    assert not captured.out


# Changes to the entry [[0, 1], [], 1, -1] of the closed cochain in cli_files:
# indices must be JSON integers in range, and each index tuple increasing.
BAD_COCHAIN_ENTRIES = {
    "float-and-true": lambda part: part.__setitem__(0, [[0.9, 1.9], [], True, -1]),
    "decreasing": lambda part: part.append([[1, 0], [], 0, 5]),
    "out-of-range": lambda part: part.__setitem__(0, [[0, 9], [], 1, -1]),
}


@pytest.mark.parametrize("change", BAD_COCHAIN_ENTRIES.values(), ids=BAD_COCHAIN_ENTRIES)
def test_cli_extend_rejects_misread_cochain_indices(tmp_path, capsys, cli_files, change):
    with open(cli_files["cocycle.json"], encoding="utf-8") as handle:
        data = json.load(handle)
    part = data["components"][0]["part_V"]
    assert part[0] == [[0, 1], [], 1, -1]
    change(part)
    path = write(tmp_path, "bad.json", data)
    assert main(["extend", cli_files["mp.json"], path]) == 2
    captured = capsys.readouterr()
    assert path in captured.err and "field=part_V)" in captured.err
    assert not captured.out


# (argv, payload, field): a negative count is malformed input
NEGATIVE_COUNTS = [
    (["validate", "BAD", "--as", "lie"], {"dim": -1, "bracket": []}, "dim"),
    (["validate", "BAD"], {"dim0": -1, "dim1": 1}, "dim0"),
    (["skeletal-validate", "BAD"], {"dim0": 1, "dim1": -1}, "dim1"),
    (["validate", "BAD", "--as", "rep", "--algebra", "aff1.json"],
     {"space_dim": -2, "action": []}, "space_dim"),
    (["extend", "mp.json", "BAD"], {"degree": -1, "components": []}, "degree"),
    (["validate", "BAD", "--as", "mp-rep", "--base", "mp.json"], {"dims": [-1, 2]},
     "dims"),
]


@pytest.mark.parametrize("argv,payload,field", NEGATIVE_COUNTS,
                         ids=[field for _, _, field in NEGATIVE_COUNTS])
def test_cli_negative_count_exits_2_naming_path_and_field(tmp_path, capsys, cli_files,
                                                          argv, payload, field):
    path = write(tmp_path, "bad.json", payload)
    assert main([path if arg == "BAD" else cli_files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert path in captured.err and f"field={field})" in captured.err
    assert not captured.out


def test_cli_negative_split_exits_2_naming_path_and_field(tmp_path, capsys, cli_files):
    with open(cli_files["extension.json"], encoding="utf-8") as handle:
        data = json.load(handle)
    data["split"] = [data["split"][0], -1] + data["split"][2:]
    path = write(tmp_path, "bad.json", data)
    assert main(["extract-cocycle", path]) == 2
    captured = capsys.readouterr()
    assert path in captured.err and "field=split)" in captured.err
    assert not captured.out
