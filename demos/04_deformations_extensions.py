"""First-order deformations and abelian extensions.

A perturbation quadruple deforms the structure to first order exactly
when its packaged degree-2 cochain is closed; the library checks this
both through the coboundary and by re-running every axiom over the
truncated ring of dual numbers.  Closed degree-2 cochains also build
abelian extensions, and the canonical section recovers them exactly.
"""

import random
from fractions import Fraction

from mpla import (DeformationCandidate, Matrix, adjoint_representation,
                  cochain_from_coords, cochain_to_candidate,
                  cocycle_to_extension, deformation_check, delta_matrix,
                  extension_to_cocycle, canonical_sections, kernel_basis,
                  validate_extension)
from mpla.catalog import mp_double


def main():
    rng = random.Random(3)
    pair = mp_double()
    rep = adjoint_representation(pair)
    dims = (pair.dim_g, pair.dim_h)

    print("== deformation candidates on the double ==")
    zero = DeformationCandidate.zero(pair)
    print("trivial candidate:", *deformation_check(pair, zero).lines(), sep="\n  ")

    cand = DeformationCandidate.from_sparse(
        2, 2, rho1={(0, 0): [Fraction(1), Fraction(0)]}
    )
    print("an ad-hoc perturbation of the action:")
    for line in deformation_check(pair, cand).lines():
        print("  " + line)

    print("\n== closed candidates from the degree-2 kernel ==")
    basis = kernel_basis(delta_matrix(pair, rep, 2))
    print(f"the space of closed degree-2 cochains has dimension {len(basis)}")
    F = cochain_from_coords(dims, rep.dims, 2, basis[0])
    closed = cochain_to_candidate(F)
    print("first kernel vector as a candidate:")
    for line in deformation_check(pair, closed).lines():
        print("  " + line)

    print("\n== the extension it classifies ==")
    ext = cocycle_to_extension(pair, rep, F)
    print(f"extension on dims ({ext.total.dim_g}, {ext.total.dim_h}) valid: "
          f"{validate_extension(ext).ok}")
    back = extension_to_cocycle(ext, "canonical")
    print(f"canonical section recovers the cochain exactly: {back == F}")

    s1, s2 = canonical_sections(ext.split)
    m, p, n, q = ext.split
    rows = s1.entries
    for i in range(m):
        for u in range(p):
            rows[m + u][i] = Fraction(rng.randint(-2, 2))
    alt = extension_to_cocycle(ext, (Matrix.from_rows(rows), s2))
    print(f"a different section gives a different cochain: {alt != F} "
          "(they differ by an exact one; see the test suite)")


if __name__ == "__main__":
    main()
