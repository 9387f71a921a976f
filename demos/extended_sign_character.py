"""The mu_4-valued extension of sgn o sn to the graded orthogonal group.

On a one-orbit asymmetric graded space (a hyperbolic plane paired across the
label involution), the extended group is generated by the rational
orthogonal maps and the zeta-scaling that multiplies the block by a square
root of -1.  The extended character sn~ restricts to sgn o sn on rational
elements and sends the zeta-scaling to a fixed square root of sgn(-1):
a genuine fourth root of unity when -1 is a nonsquare.  Run with python3.
"""

import itertools
import sys

from heckeforge import (FqContext, GradedQuadraticSpace, Mu4Value,
                        OrthogonalMap, QuadSpaceError, zeta_scaling,
                        extended_sn, sgn_spinor, sgn)
from heckeforge import linalg


def orthogonal_group(space):
    els = list(space.ctx.elements())
    for flat in itertools.product(els, repeat=4):
        try:
            yield OrthogonalMap(space.space, [flat[:2], flat[2:]])
        except QuadSpaceError:
            continue


def main():
    """Print the character's values; 0 when they restrict to sgn o sn, send
    the zeta-scaling to the fixed root of sgn(-1), are multiplicative, and
    need the fourth roots of unity exactly when -1 is a nonsquare, 1
    otherwise."""
    ok = True
    for p in (3, 5):
        ctx = FqContext(p)
        sp = GradedQuadraticSpace(ctx, [("a", 2, "asym")], [[0, 1], [1, 0]])
        z = zeta_scaling(sp, "a")
        minus_one = sgn(-ctx.one)
        on_zeta = extended_sn(sp, z)
        print(f"F_{p}: sgn(-1) = {minus_one}, "
              f"fixed root = {sp.sqrt_sign}")
        print(f"  sn~(zeta-scaling) = {on_zeta}")
        ok &= (on_zeta == sp.sqrt_sign
               and on_zeta * on_zeta == Mu4Value.from_sign(minus_one))
        print("  rational part (h, sgn o sn(h), sn~(h), sn~(h . zeta)):")
        for h in orthogonal_group(sp):
            m = sp.embed_matrix(h.matrix)
            mz = linalg.mat_mul(m, z)
            flat = tuple(int(c.coeffs[0]) for row in h.matrix for c in row)
            on_h, on_hz = extended_sn(sp, m), extended_sn(sp, mz)
            print(f"    {flat}: {sgn_spinor(h)}  {on_h}  {on_hz}")
            ok &= (on_h == Mu4Value.from_sign(sgn_spinor(h))
                   and on_hz == on_h * on_zeta
                   and on_hz.is_quadratic() == (int(minus_one) == 1))
        print()
    print("Over F_5 (-1 a square) every value is +-1; over F_3 the")
    print("zeta-coset genuinely needs the fourth roots of unity.")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
