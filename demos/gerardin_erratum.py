"""The induction identity for the Heisenberg-Weil representation, and the
det-sign character it cannot live without.

For a totally isotropic line U inside the symplectic plane V over F_p, the
restriction of the Weil representation to P |x V# (P the stabilizer of U in
SL_2) is induced from the smaller group P |x (U-perp)#.  The inducing
representation must be twisted by chi^U = sgn(det(g|_U)): with the twist the
character identity holds exactly; without it, it fails on explicit group
elements.  Run with python3.
"""

import sys

from heckeforge import SymplecticSpace, checks, induction_identity_check


def main():
    """Print the check on every line; 0 when it holds with chi^U and fails
    without it on each of them, 1 otherwise."""
    ok = True
    for p in (3, 5):
        V = SymplecticSpace.standard(p, 1)
        print(f"p = {p}: the {p + 1} isotropic lines of the symplectic plane")
        for line in checks.isotropic_lines(V):
            with_chi, _ = induction_identity_check(
                V, [line], "with_sl2_levi", include_chi=True)
            without, details = induction_identity_check(
                V, [line], "with_sl2_levi", include_chi=False)
            print(f"  U = span{line}:  with chi^U -> "
                  f"{'equal' if with_chi else 'NOT equal'};  "
                  f"without chi^U -> "
                  f"{'equal' if without else 'NOT equal'}"
                  + (f"  (first witness: g = {details['witness'][0]})"
                     if not without else ""))
            ok &= with_chi and not without
        print()
    print("The twist chi^U is forced: dropping it breaks the identity on")
    print("every single line, for both primes.")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
