"""The Iwahori convolution oracle: how a sign twist changes the quadratic
relation of a rank-1 Hecke algebra.

We work in SL_2 over the truncated ring F_q[t]/(t^N), convolve the
bi-(I, epsilon)-equivariant function phi supported on the cell IsI with
itself, and read off the relation T_s^2 = c_e T_e + c_s T_s.  The trivial
character gives the familiar c_s = q - 1; the quadratic-residue twist kills
the linear term, and no support-preserving rescaling can undo that.
Run with python3.
"""

import sys

from heckeforge import (quadratic_relation, support_preserving_map_check,
                        CoxeterSystem, HeckeAlgebra, ParameterFunction,
                        LaurentPoly)


def main():
    """Print the relations and the rescaling checks; 0 when every identity
    narrated here holds, 1 otherwise."""
    ok = True
    print("quadratic relations from the convolution oracle")
    print("    q   twist     c_e    c_s")
    for q in (3, 5, 7, 9):
        for twist in ("trivial", "sign"):
            c_e, c_s = quadratic_relation(twist, q)
            print(f"  {q:3d}   {twist:<7} {c_e:5d}  {c_s:5d}")
            ok &= c_s == (q - 1 if twist == "trivial" else 0)
    print()

    q = 3
    a1 = CoxeterSystem.from_type("A1")
    # coefficients in Z[lam, 1/lam]; T_s^2 = c_s T_s + c_e replaces the
    # default relation
    ring = ParameterFunction.constant(a1, "lam")

    def algebra(twist):
        c_e, c_s = quadratic_relation(twist, q)
        return HeckeAlgebra(a1, ring, relation={"s": (c_s, c_e)})

    triv, sign = algebra("trivial"), algebra("sign")
    lam = LaurentPoly.variable(("lam",), "lam")

    def rescale(w):
        return lam if len(w) == 1 else 1

    print(f"q = {q}: is T_s -> lam T_s an isomorphism between the two?")
    symbolic = support_preserving_map_check(triv, sign, rescale)
    print("  symbolic lam:      ", symbolic)
    ok &= not symbolic
    for c in (1, -1, 2, -2):
        iso = support_preserving_map_check(
            triv, sign, lambda w, _c=c: _c if len(w) == 1 else 1)
        print(f"  lam = {c:2d}:           {iso}")
        ok &= not iso
    identity = support_preserving_map_check(triv, triv, lambda w: 1)
    print("  identity self-map: ", identity)
    ok &= identity
    print()
    print("No support-preserving rescaling matches (q-1) against 0: the")
    print("sign-twisted algebra is genuinely different.")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
