"""Quadratic spaces over F_q (q odd), reflections, Cartan-Dieudonne
factorization, the spinor norm, and the sign-of-spinor-norm character.

The polar bilinear form B (Gram matrix) is the primary datum; the quadratic
form is phi(v) = B(v,v)/2, which is an equivalence since q is odd.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .ffield import FqElement, SignValue, sgn
from . import linalg


class QuadSpaceError(ValueError):
    pass


class SquareClass:
    """f^x / (f^x)^2, the two-element group {trivial, nonsquare}."""

    __slots__ = ("trivial",)

    def __init__(self, trivial):
        self.trivial = bool(trivial)

    @classmethod
    def of(cls, a):
        """Square class of a nonzero field element."""
        return cls(int(sgn(a)) == 1)

    def __mul__(self, other):
        return SquareClass(self.trivial == other.trivial)

    def __eq__(self, other):
        return isinstance(other, SquareClass) and self.trivial == other.trivial

    def __hash__(self):
        return hash(("SquareClass", self.trivial))

    def sign(self):
        return SignValue(1 if self.trivial else -1)

    def __repr__(self):
        return "trivial" if self.trivial else "nonsquare"


TRIVIAL = SquareClass(True)
NONSQUARE = SquareClass(False)


class QuadraticSpace:
    """A nondegenerate quadratic space (V, phi) over F_q, phi(v) = B(v,v)/2.
    The Gram matrix is kept as codes; gram gives it as FqElements."""

    def __init__(self, ctx, gram):
        self.ctx = ctx
        self._ar = ar = ctx._arith
        gram = tuple(tuple(map(ctx.code, row)) for row in gram)
        n = len(gram)
        if n < 1 or any(len(row) != n for row in gram):
            raise QuadSpaceError("gram matrix must be square")
        if gram != linalg.transpose(gram):
            raise QuadSpaceError("gram matrix must be symmetric")
        if not linalg._det(ar, gram):
            raise QuadSpaceError("gram matrix must be nondegenerate")
        self._gram = gram
        self.dim = n
        self._half = ar.inv(2)

    @cached_property
    def gram(self):
        return linalg._elements(self.ctx, self._gram)

    @classmethod
    def diagonal(cls, ctx, entries):
        n = len(entries)
        # <a_1,...,a_n> means phi(e_i) = a_i, i.e. B(e_i,e_i) = 2 a_i
        gram = [[2 * entries[i] if i == j else 0 for j in range(n)]
                for i in range(n)]
        return cls(ctx, gram)

    @classmethod
    def hyperbolic_plane(cls, ctx):
        return cls(ctx, [[0, 1], [1, 0]])

    def _codes(self, v):
        if len(v) != self.dim:
            raise QuadSpaceError("dimension mismatch")
        return tuple(map(self.ctx.code, v))

    def _bilinear(self, u, v):
        return self._ar.dot(u, linalg._vec(self._ar, self._gram, v))

    def _phi(self, v):
        return self._ar.mul(self._bilinear(v, v), self._half)

    def bilinear(self, u, v):
        u, v = self._codes(u), self._codes(v)
        return FqElement(self.ctx, self._bilinear(u, v))

    def evaluate_form(self, v):
        """phi(v) = B(v,v)/2."""
        return FqElement(self.ctx, self._phi(self._codes(v)))

    def vectors(self):
        yield from itertools.product(list(self.ctx.elements()),
                                     repeat=self.dim)

    def nonzero_vectors(self):
        zero = (self.ctx.zero,) * self.dim
        for v in self.vectors():
            if v != zero:
                yield v

    def __eq__(self, other):
        return (isinstance(other, QuadraticSpace)
                and self.ctx == other.ctx and self._gram == other._gram)

    def __hash__(self):
        return hash((self.ctx, self._gram))


class OrthogonalMap:
    """An element of O(V, phi)(F_q), stored as a code matrix acting on
    columns; matrix gives it as FqElements.  check verifies that the matrix
    is dim x dim and preserves the form; the library passes check=False
    only for isometries by construction."""

    def __init__(self, space, matrix, check=True):
        self.space = space
        code = space.ctx.code
        self._m = m = tuple(tuple(map(code, row)) for row in matrix)
        if check:
            if len(m) != space.dim or any(len(row) != space.dim
                                          for row in m):
                raise QuadSpaceError("matrix must be dim x dim")
            ar, gram = space._ar, space._gram
            if linalg._mul(ar, linalg._mul(ar, linalg.transpose(m), gram),
                           m) != gram:
                raise QuadSpaceError("matrix does not preserve the form")

    @classmethod
    def _of(cls, space, m):
        """The map of the code matrix m, an isometry by construction."""
        g = cls.__new__(cls)
        g.space, g._m = space, m
        return g

    @cached_property
    def matrix(self):
        return linalg._elements(self.space.ctx, self._m)

    @classmethod
    def identity(cls, space):
        return cls._of(space, linalg._identity(space.dim))

    def __mul__(self, other):
        if self.space != other.space:
            raise QuadSpaceError("space mismatch")
        return OrthogonalMap._of(self.space, linalg._mul(
            self.space._ar, self._m, other._m))

    def inv(self):
        return OrthogonalMap._of(self.space,
                                 linalg._inv(self.space._ar, self._m))

    def __call__(self, v):
        space = self.space
        return tuple(FqElement(space.ctx, c) for c in linalg._vec(
            space._ar, self._m, tuple(map(space.ctx.code, v))))

    def is_identity(self):
        return self._m == linalg._identity(self.space.dim)

    def det(self):
        return FqElement(self.space.ctx,
                         linalg._det(self.space._ar, self._m))

    def __eq__(self, other):
        return (isinstance(other, OrthogonalMap)
                and self.space == other.space and self._m == other._m)

    def __hash__(self):
        return hash((self.space, self._m))


def reflection(space, v):
    """The reflection r_v(w) = w - B(w,v)/phi(v) * v, for anisotropic v,
    built as the rank-1 update I - v (Gram v)^T / phi(v)."""
    ar = space._ar
    v = space._codes(v)
    phi_v = space._phi(v)
    if not phi_v:
        raise QuadSpaceError("reflection vector must be anisotropic")
    c = ar.inv(phi_v)
    s = [ar.mul(c, x) for x in linalg._vec(ar, space._gram, v)]
    matrix = tuple(tuple(ar.sub(int(i == j), ar.mul(vi, sj))
                         for j, sj in enumerate(s))
                   for i, vi in enumerate(v))
    return OrthogonalMap._of(space, matrix)


def _one_minus(g):
    """The code matrix of 1 - g."""
    sub = g.space._ar.sub
    return tuple(tuple(sub(int(i == j), x) for j, x in enumerate(row))
                 for i, row in enumerate(g._m))


def _is_exceptional(g):
    """Whether im(1-g) is nonzero and totally isotropic.  By Scherk's
    refinement of Cartan-Dieudonne, g != 1 is a product of rank(1-g)
    reflections exactly when it is not exceptional; otherwise it needs two
    more."""
    ar = g.space._ar
    m = _one_minus(g)
    image_gram = linalg._mul(ar, linalg._mul(ar, linalg.transpose(m),
                                             g.space._gram), m)
    return not g.is_identity() and not any(map(any, image_gram))


def factor_into_reflections(g):
    """Cartan-Dieudonne: anisotropic vectors whose reflections compose
    (in list order) to g.  Each step takes the first w = current(v) - v that
    is anisotropic and leaves a non-exceptional remainder, trying the basis
    vectors (w a column of current - 1) before all of V; such a w exists
    whenever current is not exceptional, so the length is rank(1-g).  In
    the exceptional (Wall/Eichler) case an auxiliary reflection is inserted
    first; the remainder then has odd rank and is not exceptional, so the
    length is rank(1-g) + 2 <= dim + 2.  It stays public as the tests'
    oracle for spinor_norm: the product of the phi-values is sn(g)."""
    space = g.space
    basis = linalg.identity(space.ctx, space.dim)
    result = []
    current = g
    while not current.is_identity():
        if len(result) >= space.dim + 2:
            raise QuadSpaceError("reflection factorization did not terminate")
        for v in itertools.chain(basis, space.nonzero_vectors()):
            w = linalg.vec_sub(current(v), v)
            if space.evaluate_form(w).is_zero():
                continue
            rest = reflection(space, w) * current
            if not _is_exceptional(rest):
                break
        else:
            # exceptional case: 1 - current has totally isotropic image
            if result:
                raise QuadSpaceError("exceptional case persisted")
            w = next(v for v in space.nonzero_vectors()
                     if not space.evaluate_form(v).is_zero())
            rest = reflection(space, w) * current
        result.append(w)
        current = rest
    return result


def spinor_norm(g):
    """sn(g) in f^x/(f^x)^2, the discriminant of the Wall form on im(1-g)
    (Zassenhaus, "On the spinor norm", Arch. Math. 13 (1962)):
    chi((1-g)x, (1-g)y) = B((1-g)x, y).  With M = 1-g and P its pivot
    columns, the M e_c (c in P) are a basis of im(1-g) with preimages e_c,
    so chi has the matrix (M^T Gram)[P, P].  For g = r_v this is
    B(e_c,v)^2/phi(v), the class of phi(v); the class equals the product of
    phi-values over any reflection factorization of g."""
    space = g.space
    ar = space._ar
    m = _one_minus(g)
    _, pivots, _ = linalg._eliminate(m, ar)
    if not pivots:
        return TRIVIAL
    # row i of M^T is M e_i; Gram is symmetric, so column j of Gram is row j
    cols = linalg.transpose(m)
    gram_rows = tuple(space._gram[j] for j in pivots)
    d = linalg._det(ar, tuple(linalg._vec(ar, gram_rows, cols[i])
                              for i in pivots))
    if not d:
        raise QuadSpaceError("Wall form is degenerate")
    return SquareClass(ar.is_square(d))


def sgn_spinor(g):
    """The composite sgn_f o sn: a {+1,-1}-valued character of O(V,phi)."""
    return spinor_norm(g).sign()


def orthogonal_sum(v1, v2):
    """Block-diagonal orthogonal sum of two quadratic spaces over the same
    field."""
    if v1.ctx != v2.ctx:
        raise QuadSpaceError("context mismatch")
    n1, n2 = v1.dim, v2.dim
    return QuadraticSpace(v1.ctx, [row + (0,) * n2 for row in v1.gram]
                          + [(0,) * n1 + row for row in v2.gram])


def block_embed(space_sum, g1, g2):
    """g1 (+) g2 as an orthogonal map on the orthogonal sum."""
    n1 = len(g1._m)
    n2 = len(g2._m)
    if n1 + n2 != space_sum.dim:
        raise QuadSpaceError("dimension mismatch")
    rows = ([row + (0,) * n2 for row in g1._m]
            + [(0,) * n1 + row for row in g2._m])
    return OrthogonalMap._of(space_sum, tuple(rows))


def random_orthogonal(space, rng):
    """A random product of at most 2 dim reflections (uniform enough for
    property tests).  Each reflection vector is uniform on the anisotropic
    vectors: uniform vectors are drawn and the isotropic ones (zero
    included) rejected."""
    els = list(space.ctx.elements())
    g = OrthogonalMap.identity(space)
    for _ in range(rng.randrange(2 * space.dim + 1)):
        while True:
            v = tuple(rng.choice(els) for _ in range(space.dim))
            if not space.evaluate_form(v).is_zero():
                break
        g = g * reflection(space, v)
    return g
