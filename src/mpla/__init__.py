"""Exact rational toolkit for matched pairs of Lie algebras.

The package validates the defining axioms of a matched pair, builds the
combined-product algebra, representations and their duals, computes the
cohomology of the associated bigraded complex by exact linear algebra,
and applies it to first-order deformations, abelian extensions, and
two-term homotopy structures.  All arithmetic is exact: scalars are
rational numbers, equality checks are literal.

The namespace is lazy: a name below, or a submodule such as
``mpla.catalog``, is imported on first use, so a process loads only the
modules it needs.
"""

from importlib import import_module as _import_module

# submodule -> the names the package exports from it
_EXPORTS = {
    "bigraded": ("BidegreeMap", "Decomposition", "MCReport", "StructureElement",
                 "decompose", "embed", "mc_check"),
    "catalog": ("aff1", "bialgebra_aff1", "heisenberg3", "mp_a", "mp_direct",
                "mp_double", "sl2", "standard_fixtures"),
    "cohomology": ("LieBiCochain", "MPCochain", "basis_cochain", "cochain_basis",
                   "cochain_from_coords", "cochain_space_dim", "cochain_to_coords",
                   "delta_matrix", "delta_mpl_adjoint", "delta_mpl_coeff",
                   "liebi_basis", "liebi_coboundary", "liebi_from_coords",
                   "liebi_matrix", "liebi_space_dim", "liebi_to_coords",
                   "mpl_cohomology_dims", "mpl_dimension_report", "phi_chain_check",
                   "phi_embed", "psi_compare", "psi_map"),
    "deform": ("AbelianExtension", "DeformReport", "DeformationCandidate",
               "candidate_to_cochain", "canonical_sections", "cochain_to_candidate",
               "cocycle_to_extension", "deformation_check", "deformation_equiv_check",
               "deformed_matched_pair", "extension_isomorphism_check",
               "extension_to_cocycle", "validate_extension"),
    "errors": ("ArityMismatch", "CoefficientMismatch", "DimensionMismatch",
               "InputError", "InvalidInput", "MalformedTensor", "MplaError",
               "NonzeroMiddleComponent", "NotAComplex", "NotACocycle", "NotASection",
               "NotRestrictable", "NotRotaBaxter", "ShapeMismatch", "SpaceMismatch"),
    "lie": ("LieAlgebra", "LieRep", "ce_basis", "ce_coboundary", "ce_cohomology_dims",
            "ce_matrix", "validate_lie_algebra", "validate_representation",
            "wedge_basis", "wedge_rep"),
    "linalg": ("Matrix", "cohomology_dim", "invert", "kernel_basis", "kernel_dim",
               "rank", "solve"),
    "matched": ("LieBialgebra", "MPMorphism", "MatchedPair", "bialgebra_to_matched_pair",
                "bicrossed_product", "check_morphism", "rota_baxter_matched_pair",
                "rota_baxter_splitting_rank", "validate_bialgebra",
                "validate_matched_pair"),
    "multimap": ("SkewMultiMap", "insertion", "nr_bracket", "shuffles", "sort_sign"),
    "report": ("Check", "ValidationReport", "Witness"),
    "reps": ("MPRepresentation", "adjoint_representation", "coadjoint_representation",
             "dual_representation", "extract_rep_from_bicross", "induced_bicross_rep",
             "semidirect_product", "validate_mp_representation"),
    "scalars": ("DualNumber", "format_rational", "parse_rational"),
    "skeletal": ("SkeletalMatchedPair", "SkeletalRep", "SkeletalTriple",
                 "TwoTermLInfinity", "assemble_skeletal", "assemble_triple",
                 "skeletal_to_triple", "triple_to_skeletal",
                 "validate_skeletal_matched_pair", "validate_skeletal_rep",
                 "validate_two_term"),
    "stencil": ("ce_stencil",),
}

_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULE_OF, *_EXPORTS])

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _SUBMODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
