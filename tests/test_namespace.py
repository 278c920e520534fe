"""The lazy package namespace, and what one `mpla` command loads."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpla
from mpla import jsonio
from mpla.catalog import aff1, bialgebra_aff1, mp_a

# Every name the package exported when it imported all its submodules
# eagerly, by the submodule that defines it.
EXPORTED = {
    "bigraded": ["BidegreeMap", "Decomposition", "MCReport", "StructureElement",
                 "decompose", "embed", "mc_check"],
    "catalog": ["aff1", "bialgebra_aff1", "heisenberg3", "mp_a", "mp_direct",
                "mp_double", "sl2", "standard_fixtures"],
    "cohomology": ["LieBiCochain", "MPCochain", "basis_cochain", "cochain_basis",
                   "cochain_from_coords", "cochain_space_dim", "cochain_to_coords",
                   "delta_matrix", "delta_mpl_adjoint", "delta_mpl_coeff",
                   "liebi_basis", "liebi_coboundary", "liebi_from_coords",
                   "liebi_matrix", "liebi_space_dim", "liebi_to_coords",
                   "mpl_cohomology_dims", "mpl_dimension_report", "phi_chain_check",
                   "phi_embed", "psi_compare", "psi_map"],
    "deform": ["AbelianExtension", "DeformReport", "DeformationCandidate",
               "candidate_to_cochain", "canonical_sections", "cochain_to_candidate",
               "cocycle_to_extension", "deformation_check", "deformation_equiv_check",
               "deformed_matched_pair", "extension_isomorphism_check",
               "extension_to_cocycle", "validate_extension"],
    "errors": ["ArityMismatch", "CoefficientMismatch", "DimensionMismatch",
               "InputError", "InvalidInput", "MalformedTensor", "MplaError",
               "NonzeroMiddleComponent", "NotAComplex", "NotACocycle", "NotASection",
               "NotRestrictable", "NotRotaBaxter", "ShapeMismatch", "SpaceMismatch"],
    "lie": ["LieAlgebra", "LieRep", "ce_basis", "ce_coboundary", "ce_cohomology_dims",
            "ce_matrix", "validate_lie_algebra", "validate_representation",
            "wedge_basis", "wedge_rep"],
    "linalg": ["Matrix", "cohomology_dim", "invert", "kernel_basis", "kernel_dim",
               "rank", "solve"],
    "matched": ["LieBialgebra", "MPMorphism", "MatchedPair", "bialgebra_to_matched_pair",
                "bicrossed_product", "check_morphism", "rota_baxter_matched_pair",
                "rota_baxter_splitting_rank", "validate_bialgebra",
                "validate_matched_pair"],
    "multimap": ["SkewMultiMap", "insertion", "nr_bracket", "shuffles", "sort_sign"],
    "report": ["Check", "ValidationReport", "Witness"],
    "reps": ["MPRepresentation", "adjoint_representation", "coadjoint_representation",
             "dual_representation", "extract_rep_from_bicross", "induced_bicross_rep",
             "semidirect_product", "validate_mp_representation"],
    "scalars": ["DualNumber", "format_rational", "parse_rational"],
    "skeletal": ["SkeletalMatchedPair", "SkeletalRep", "SkeletalTriple",
                 "TwoTermLInfinity", "assemble_skeletal", "assemble_triple",
                 "skeletal_to_triple", "triple_to_skeletal",
                 "validate_skeletal_matched_pair", "validate_skeletal_rep",
                 "validate_two_term"],
}

ALL_NAMES = {name for names in EXPORTED.values() for name in names} | set(EXPORTED)

# Modules a command that reads and checks only light structures must not load.
HEAVY = ("mpla.cohomology", "mpla.bigraded", "mpla.deform", "mpla.skeletal",
         "mpla.catalog")

SRC = str(Path(mpla.__file__).resolve().parent.parent)


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_every_exported_name_is_its_submodules_object():
    for module_name, names in EXPORTED.items():
        module = importlib.import_module("mpla." + module_name)
        assert getattr(mpla, module_name) is module
        for name in names:
            assert getattr(mpla, name) is getattr(module, name), name


def test_all_dir_and_star_import_cover_the_exports():
    assert ALL_NAMES <= set(mpla.__all__)
    assert ALL_NAMES <= set(dir(mpla))
    namespace = {}
    exec("from mpla import *", namespace)
    assert ALL_NAMES <= namespace.keys()
    with pytest.raises(AttributeError):
        mpla.no_such_name


def test_submodule_resolves_without_an_explicit_import():
    code = ("import sys, mpla\n"
            "assert 'mpla.catalog' not in sys.modules\n"
            "print(mpla.catalog.mp_a().dim_g)\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_every_traced_name_resolves():
    """Every "module:name" or "module:Class.method" the benchmark's tracer
    wraps (``bench/spans.py``, read as it is) names an object of mpla, so
    no layer drops out of a traced run when a hot path stops calling it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [name for names in spans.LAYERS.values() for name in names]
    assert "multimap:nr_bracket" in names and "lie:ce_coboundary" in names
    for name in names:
        module_name, qualname = name.split(":")
        owner = importlib.import_module("mpla." + module_name)
        if "." in qualname:
            cls_name, qualname = qualname.split(".")
            owner = getattr(owner, cls_name).__dict__
            assert qualname in owner, name
        else:
            assert callable(getattr(owner, qualname)), name


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def loaded_modules(stderr):
    """Modules named by ``python -X importtime`` on standard error."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


# argv of each command, by the names of the files it reads
LIGHT_COMMANDS = [
    ["validate", "mp"],
    ["bicross", "mp"],
    ["semidirect", "mp"],
    ["dual", "mp"],
    ["rota-baxter", "lie", "operator"],
    ["bialgebra", "lie_bialgebra"],
]


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=lambda argv: argv[0])
def test_light_command_loads_no_heavy_module(tmp_path, argv):
    paths = {
        "mp": write(tmp_path, "mp.json", jsonio.matched_pair_to_json(mp_a())),
        "lie": write(tmp_path, "aff1.json", jsonio.lie_algebra_to_json(aff1())),
        "operator": write(tmp_path, "r.json", {"R": [["-1", "0"], ["0", "0"]]}),
        "lie_bialgebra": write(tmp_path, "b.json",
                               jsonio.bialgebra_to_json(bialgebra_aff1())),
    }
    proc = run_python(["-X", "importtime", "-m", "mpla.cli",
                       *(paths.get(arg, arg) for arg in argv)])
    assert proc.returncode == 0, proc.stderr
    loaded = loaded_modules(proc.stderr)
    assert "mpla.matched" in loaded  # the probe sees the package's imports
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))

