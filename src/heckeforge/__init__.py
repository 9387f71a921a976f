"""hecke-forge: exact computational algebra for sign characters, spinor
norms, Heisenberg-Weil representations, affine Hecke algebras, and the
Iwahori convolution witnessing the quadratic twist."""

__version__ = "0.1.0"

from .ffield import (FieldError, FqContext, FqElement, SignValue, sgn,
                     square_root, adjoin_zeta)
from .quadspace import (QuadSpaceError, QuadraticSpace, OrthogonalMap,
                        SquareClass, TRIVIAL, NONSQUARE, reflection,
                        factor_into_reflections, spinor_norm, sgn_spinor,
                        orthogonal_sum, block_embed, random_orthogonal)
from .gradedorth import (GradedError, GradedQuadraticSpace, Mu4Value,
                         zeta_scaling, glplus_membership, otilde_membership,
                         extended_sn)
from .cyclo import (CycloError, CycloContext, CyclotomicNumber, CycloMatrix,
                    cyclotomic_polynomial)
from .sympweil import (SympError, SymplecticSpace, HeisenbergElement,
                       CentralCharacterChoice, HeisenbergRep, WeilSL2,
                       projective_weil,
                       det_sign_character, isotropic_reduction,
                       graded_symplectic_split, induction_identity_check,
                       sl2_elements)
from .heckealg import (HeckeError, CoxeterSystem, GroupWord,
                       ParameterFunction, LaurentPoly, HeckeAlgebra,
                       HeckeElement, TwistedGroupAlgebraContext,
                       twisted_mul, SemidirectAlgebra,
                       length_zero_subgroup, support_preserving_map_check)
from .sp4oracle import (OracleError, TruncContext, convolve_s, convolve_e,
                        welldefinedness_check, quadratic_relation)
