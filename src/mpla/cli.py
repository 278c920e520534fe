"""Command-line interface.

One verb per invocation; every command is a pure function of its input
files, all numerics are emitted as exact "p/q" strings, and reruns
produce byte-identical output.  Exit codes: 0 = success (validators:
structure valid), 1 = structure invalid or construction impossible
(the report carries witnesses), 2 = malformed input.

The axiom-group tags printed in reports -- jacobi(g), compat(11),
pairing(3), condition(v), compat(skel2), ... -- are this tool's own
numbering of the axioms, documented in the README.

Each command imports the modules its work needs when it runs, so an
invocation loads no more of the package than its verb uses.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .errors import InputError, InvalidInput, MplaError


def _degree(text: str) -> int:
    """argparse type of --max-degree: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _emit(args, payload, lines=None, code=0):
    """Write a verb's result to the -o file, or to stdout, and return its
    exit code: the JSON of ``payload()`` with --format json or when the verb
    has no text form (``lines`` None), else the text of ``lines()``.  Both
    are functions, so only the form written is built."""
    if args.format == "json" or lines is None:
        jsonio.dump_json(payload(), args.output)
    else:
        jsonio.write_text("\n".join(lines()) + "\n", args.output)
    return code


def _emit_report(report, args):
    return _emit(args, report.to_json, report.lines, 0 if report.ok else 1)


def _detect_kind(data, path) -> str:
    jsonio.require_object(data, path)
    if "total" in data and "split" in data:
        return "extension"
    if "G" in data and "H" in data:
        return "skeletal-mp"
    if "dim0" in data:
        return "two-term"
    if "cobracket" in data:
        return "bialgebra"
    if "g" in data and "h" in data:
        return "matched-pair"
    if "dims" in data and ("alpha" in data or "beta" in data or "rho_V" in data):
        return "mp-rep"
    if "space_dim" in data:
        return "rep"
    if "dim" in data and "bracket" in data:
        return "lie"
    raise InputError("cannot recognize the structure kind; pass --as")


def cmd_validate(args) -> int:
    data = jsonio.load_json(args.input)
    kind = args.kind or _detect_kind(data, args.input)
    if kind == "matched-pair":
        from .matched import validate_matched_pair

        report = validate_matched_pair(jsonio.matched_pair_from_json(data, args.input))
    elif kind == "lie":
        from .lie import validate_lie_algebra

        report = validate_lie_algebra(jsonio.lie_algebra_from_json(data, args.input))
    elif kind == "bialgebra":
        from .matched import validate_bialgebra

        report = validate_bialgebra(jsonio.bialgebra_from_json(data, args.input))
    elif kind == "two-term":
        from .skeletal import validate_two_term

        report = validate_two_term(jsonio.two_term_from_json(data, args.input))
    elif kind == "skeletal-mp":
        from .skeletal import validate_skeletal_matched_pair

        report = validate_skeletal_matched_pair(
            jsonio.skeletal_pair_from_json(data, args.input))
    elif kind == "extension":
        from .deform import validate_extension

        report = validate_extension(jsonio.extension_from_json(data, args.input))
    elif kind == "mp-rep":
        from .reps import validate_mp_representation

        if not args.base:
            raise InputError("--base MATCHED_PAIR_FILE is required for mp-rep")
        base = jsonio.matched_pair_from_json(jsonio.load_json(args.base), args.base)
        base.require_valid()
        report = validate_mp_representation(
            jsonio.mp_representation_from_json(data, base, args.input))
    elif kind == "rep":
        from .lie import validate_representation

        if not args.algebra:
            raise InputError("--algebra LIE_FILE is required for rep")
        algebra = jsonio.lie_algebra_from_json(jsonio.load_json(args.algebra), args.algebra)
        algebra.require_valid()
        report = validate_representation(
            jsonio.lie_rep_from_json(data, algebra, args.input))
    else:
        raise InputError(f"unknown kind {kind!r}")
    return _emit_report(report, args)


def cmd_bicross(args) -> int:
    from .matched import bicrossed_product

    mp = jsonio.matched_pair_from_json(jsonio.load_json(args.input), args.input)
    algebra = bicrossed_product(mp)
    return _emit(args, lambda: jsonio.lie_algebra_to_json(algebra), lambda: [
        f"combined product: dimension {algebra.dim}, "
        f"{sum(1 for i in range(algebra.dim) for j in range(i + 1, algebra.dim) if any(algebra.c[i][j]))}"
        f" nonzero basis brackets"])


def _load_pair_and_rep(args):
    mp = jsonio.matched_pair_from_json(jsonio.load_json(args.input), args.input)
    mp.require_valid()
    if args.coefficients:
        rep = jsonio.mp_representation_from_json(
            jsonio.load_json(args.coefficients), mp, args.coefficients)
    else:
        from .reps import adjoint_representation

        rep = adjoint_representation(mp)
    return mp, rep


def cmd_semidirect(args) -> int:
    from .reps import semidirect_product

    mp, rep = _load_pair_and_rep(args)
    out = semidirect_product(rep)
    return _emit(args, lambda: jsonio.matched_pair_to_json(out))


def cmd_dual(args) -> int:
    from .reps import dual_representation

    mp, rep = _load_pair_and_rep(args)
    rep.require_valid()
    out = dual_representation(rep)
    return _emit(args, lambda: jsonio.mp_representation_to_json(out))


def cmd_cohomology(args) -> int:
    from .cohomology import mpl_dimension_report

    mp, rep = _load_pair_and_rep(args)
    rep.require_valid()
    table = mpl_dimension_report(mp, rep, args.max_degree)
    lines = ["degree  cochain_dim  h_dim"]
    for row in table:
        lines.append(f"{row['degree']:>6}  {row['cochain_dim']:>11}  {row['h_dim']:>5}")
    return _emit(args, lambda: table, lambda: lines)


def cmd_mc_check(args) -> int:
    from .bigraded import StructureElement, mc_check

    mp = jsonio.matched_pair_from_json(jsonio.load_json(args.input), args.input)
    report = mc_check(StructureElement.from_matched_pair(mp))
    return _emit(args, lambda: {
        "square_zero": report.is_mc,
        "brackets": [{"name": b.name, "vanishes": b.vanishes, "witnesses": len(b.witnesses)}
                     for b in report.brackets],
    }, report.lines, 0 if report.is_mc else 1)


def cmd_deform_check(args) -> int:
    from .deform import deformation_check

    mp = jsonio.matched_pair_from_json(jsonio.load_json(args.input), args.input)
    mp.require_valid()
    cand = jsonio.deformation_from_json(jsonio.load_json(args.candidate),
                                        mp, args.candidate)
    report = deformation_check(mp, cand)
    return _emit(args, lambda: {
        "is_deformation": report.is_deformation,
        "routes_agree": report.agree,
        "cocycle_route": report.cocycle_route.to_json(),
        "ring_route": report.ring_route.to_json(),
    }, report.lines, 0 if report.is_deformation else 1)


def cmd_deform_equiv(args) -> int:
    from .deform import deformation_equiv_check

    mp = jsonio.matched_pair_from_json(jsonio.load_json(args.input), args.input)
    mp.require_valid()
    d1 = jsonio.deformation_from_json(jsonio.load_json(args.first), mp, args.first)
    d2 = jsonio.deformation_from_json(jsonio.load_json(args.second), mp, args.second)
    maps = jsonio.load_json(args.maps)
    f = jsonio.matrix_from_json(maps, "f", args.maps)
    g_map = jsonio.matrix_from_json(maps, "g", args.maps)
    report = deformation_equiv_check(mp, d1, d2, f, g_map)
    return _emit_report(report, args)


def cmd_extend(args) -> int:
    from .deform import cocycle_to_extension

    mp, rep = _load_pair_and_rep(args)
    rep.require_valid()
    F = jsonio.cochain_from_json(jsonio.load_json(args.cocycle),
                                 (mp.dim_g, mp.dim_h), rep.dims, args.cocycle)
    ext = cocycle_to_extension(mp, rep, F)
    return _emit(args, lambda: jsonio.extension_to_json(ext))


def cmd_extract_cocycle(args) -> int:
    from .deform import extension_to_cocycle

    ext = jsonio.extension_from_json(jsonio.load_json(args.input), args.input)
    if args.section:
        data = jsonio.load_json(args.section)
        section = (jsonio.matrix_from_json(data, "s1", args.section),
                   jsonio.matrix_from_json(data, "s2", args.section))
    else:
        section = "canonical"
    F = extension_to_cocycle(ext, section)
    return _emit(args, lambda: jsonio.cochain_to_json(F))


def cmd_skeletal_validate(args) -> int:
    from .skeletal import validate_skeletal_matched_pair, validate_two_term

    data = jsonio.require_object(jsonio.load_json(args.input), args.input)
    if "G" in data:
        report = validate_skeletal_matched_pair(
            jsonio.skeletal_pair_from_json(data, args.input))
    else:
        report = validate_two_term(jsonio.two_term_from_json(data, args.input))
    return _emit_report(report, args)


def cmd_skeletal_correspond(args) -> int:
    from .skeletal import SkeletalTriple, skeletal_to_triple, triple_to_skeletal

    data = jsonio.require_object(jsonio.load_json(args.input), args.input)
    if "G" in data:
        s = jsonio.skeletal_pair_from_json(data, args.input)
        triple = skeletal_to_triple(s)
        payload = {
            "mp": jsonio.matched_pair_to_json(triple.mp),
            "rep": jsonio.mp_representation_to_json(triple.rep),
            "cocycle": jsonio.cochain_to_json(triple.cocycle),
        }
        return _emit(args, lambda: payload)
    if "mp" in data and "rep" in data and "cocycle" in data:
        mp = jsonio.matched_pair_from_json(data["mp"], args.input)
        rep = jsonio.mp_representation_from_json(data["rep"], mp, args.input)
        F = jsonio.cochain_from_json(data["cocycle"], (mp.dim_g, mp.dim_h),
                                     rep.dims, args.input)
        s = triple_to_skeletal(SkeletalTriple(mp, rep, F))
        return _emit(args, lambda: jsonio.skeletal_pair_to_json(s))
    raise InputError("expected a skeletal pair or a {mp, rep, cocycle} triple",
                     path=args.input)


def cmd_rota_baxter(args) -> int:
    from .matched import rota_baxter_matched_pair

    algebra = jsonio.lie_algebra_from_json(jsonio.load_json(args.input), args.input)
    data = jsonio.load_json(args.operator)
    r_matrix = jsonio.matrix_from_json(data, "R", args.operator)
    mp = rota_baxter_matched_pair(algebra, r_matrix)
    return _emit(args, lambda: jsonio.matched_pair_to_json(mp))


def cmd_bialgebra(args) -> int:
    from .matched import bialgebra_to_matched_pair, validate_bialgebra

    b = jsonio.bialgebra_from_json(jsonio.load_json(args.input), args.input)
    report = validate_bialgebra(b)
    if not report.ok:
        return _emit_report(report, args)
    mp = bialgebra_to_matched_pair(b)
    return _emit(args, lambda: jsonio.matched_pair_to_json(mp))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpla",
        description="Exact computations with matched pairs of Lie algebras: "
                    "validation, combined products, representations, cohomology "
                    "dimensions, deformations, abelian extensions, and two-term "
                    "homotopy structures.",
        epilog="Input paths accept '-' for standard input.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, output=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if output:
            p.add_argument("-o", "--output", default=None, metavar="FILE")
        else:
            p.set_defaults(output=None)

    p = sub.add_parser("validate", help="validate a structure file")
    p.add_argument("input")
    p.add_argument("--as", dest="kind", default=None,
                   choices=("matched-pair", "lie", "rep", "mp-rep", "bialgebra",
                            "two-term", "skeletal-mp", "extension"))
    p.add_argument("--base", default=None, help="matched pair file (for mp-rep)")
    p.add_argument("--algebra", default=None, help="Lie algebra file (for rep)")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bicross", help="combined-product Lie algebra of a matched pair")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_bicross)

    p = sub.add_parser("semidirect", help="semidirect matched pair of a representation")
    p.add_argument("input")
    p.add_argument("--coefficients", default=None, metavar="REP_FILE")
    common(p)
    p.set_defaults(func=cmd_semidirect)

    p = sub.add_parser("dual", help="dual representation on the swapped dual spaces")
    p.add_argument("input")
    p.add_argument("--coefficients", default=None, metavar="REP_FILE")
    common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("cohomology", help="cohomology dimension table")
    p.add_argument("input")
    p.add_argument("--coefficients", default=None, metavar="REP_FILE")
    p.add_argument("--max-degree", type=_degree, default=4)
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("mc-check", help="square-zero test of a candidate quadruple")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_mc_check)

    p = sub.add_parser("deform-check", help="first-order deformation test, both routes")
    p.add_argument("input")
    p.add_argument("candidate")
    common(p)
    p.set_defaults(func=cmd_deform_check)

    p = sub.add_parser("deform-equiv", help="equivalence of two deformations via (f, g)")
    p.add_argument("input")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("maps", help="JSON file with matrices f and g")
    common(p)
    p.set_defaults(func=cmd_deform_equiv)

    p = sub.add_parser("extend", help="abelian extension of a closed degree-2 cochain")
    p.add_argument("input")
    p.add_argument("cocycle")
    p.add_argument("--coefficients", default=None, metavar="REP_FILE")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("extract-cocycle", help="degree-2 cochain of an extension")
    p.add_argument("input")
    p.add_argument("--section", default=None, metavar="SECTION_FILE")
    common(p)
    p.set_defaults(func=cmd_extract_cocycle)

    p = sub.add_parser("skeletal-validate", help="validate a two-term structure or pair")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_skeletal_validate)

    p = sub.add_parser("skeletal-correspond",
                       help="convert between skeletal pairs and cocycle triples")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_skeletal_correspond)

    p = sub.add_parser("rota-baxter",
                       help="matched pair of a weight-1 operator on a Lie algebra")
    p.add_argument("input", help="Lie algebra file")
    p.add_argument("operator", help='JSON file {"R": [[...], ...]}')
    common(p)
    p.set_defaults(func=cmd_rota_baxter)

    p = sub.add_parser("bialgebra",
                       help="validate a bialgebra and emit its matched pair")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_bialgebra)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InvalidInput as exc:
        sys.stderr.write(f"invalid structure: {exc}\n")
        return 1
    except MplaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
