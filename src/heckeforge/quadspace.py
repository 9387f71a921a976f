"""Quadratic spaces over F_q (q odd), reflections, Cartan-Dieudonne
factorization, the spinor norm, and the sign-of-spinor-norm character.

The polar bilinear form B (Gram matrix) is the primary datum; the quadratic
form is phi(v) = B(v,v)/2, which is an equivalence since q is odd.
"""

from __future__ import annotations

import itertools

from .ffield import SignValue, sgn
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
    """A nondegenerate quadratic space (V, phi) over F_q, phi(v) = B(v,v)/2."""

    def __init__(self, ctx, gram):
        self.ctx = ctx
        gram = tuple(tuple(ctx.elem(c) for c in row) for row in gram)
        n = len(gram)
        if n < 1 or any(len(row) != n for row in gram):
            raise QuadSpaceError("gram matrix must be square")
        if gram != linalg.transpose(gram):
            raise QuadSpaceError("gram matrix must be symmetric")
        if linalg.det(gram).is_zero():
            raise QuadSpaceError("gram matrix must be nondegenerate")
        self.gram = gram
        self.dim = n
        self._half = ctx.elem(2).inv()

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

    def bilinear(self, u, v):
        if len(u) != self.dim or len(v) != self.dim:
            raise QuadSpaceError("dimension mismatch")
        u = tuple(self.ctx.elem(x) for x in u)
        v = tuple(self.ctx.elem(x) for x in v)
        acc = self.ctx.zero
        for i in range(self.dim):
            if u[i].is_zero():
                continue
            for j in range(self.dim):
                acc = acc + u[i] * self.gram[i][j] * v[j]
        return acc

    def evaluate_form(self, v):
        """phi(v) = B(v,v)/2."""
        return self.bilinear(v, v) * self._half

    def vectors(self):
        for coeffs in itertools.product(list(self.ctx.elements()),
                                        repeat=self.dim):
            yield coeffs

    def nonzero_vectors(self):
        zero = (self.ctx.zero,) * self.dim
        for v in self.vectors():
            if v != zero:
                yield v

    def __eq__(self, other):
        return (isinstance(other, QuadraticSpace)
                and self.ctx == other.ctx and self.gram == other.gram)

    def __hash__(self):
        return hash((self.ctx, self.gram))


class OrthogonalMap:
    """An element of O(V, phi)(F_q), stored as a matrix acting on columns.
    check verifies that the matrix is dim x dim and preserves the form;
    the library passes check=False only for isometries by construction."""

    def __init__(self, space, matrix, check=True):
        self.space = space
        matrix = tuple(tuple(space.ctx.elem(c) for c in row) for row in matrix)
        if check:
            if len(matrix) != space.dim or any(len(row) != space.dim
                                               for row in matrix):
                raise QuadSpaceError("matrix must be dim x dim")
            gt = linalg.mat_mul(linalg.mat_mul(linalg.transpose(matrix),
                                               space.gram), matrix)
            if gt != space.gram:
                raise QuadSpaceError("matrix does not preserve the form")
        self.matrix = matrix

    @classmethod
    def identity(cls, space):
        return cls(space, linalg.identity(space.ctx, space.dim), check=False)

    def __mul__(self, other):
        if self.space != other.space:
            raise QuadSpaceError("space mismatch")
        return OrthogonalMap(self.space,
                             linalg.mat_mul(self.matrix, other.matrix),
                             check=False)

    def inv(self):
        return OrthogonalMap(self.space, linalg.mat_inv(self.matrix),
                             check=False)

    def __call__(self, v):
        return linalg.mat_vec(self.matrix, tuple(self.space.ctx.elem(c)
                                                 for c in v))

    def is_identity(self):
        return self.matrix == linalg.identity(self.space.ctx, self.space.dim)

    def det(self):
        return linalg.det(self.matrix)

    def __eq__(self, other):
        return (isinstance(other, OrthogonalMap)
                and self.space == other.space and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.space, self.matrix))


def reflection(space, v):
    """The reflection r_v(w) = w - B(w,v)/phi(v) * v, for anisotropic v,
    built as the rank-1 update I - v (Gram v)^T / phi(v)."""
    v = tuple(space.ctx.elem(c) for c in v)
    phi_v = space.evaluate_form(v)
    if phi_v.is_zero():
        raise QuadSpaceError("reflection vector must be anisotropic")
    s = linalg.vec_scale(phi_v.inv(), linalg.mat_vec(space.gram, v))
    ident = linalg.identity(space.ctx, space.dim)
    matrix = tuple(tuple(e - vi * sj for e, sj in zip(row, s))
                   for row, vi in zip(ident, v))
    return OrthogonalMap(space, matrix, check=False)


def _one_minus(g):
    """The matrix of 1 - g."""
    ident = linalg.identity(g.space.ctx, g.space.dim)
    return tuple(linalg.vec_sub(e, row) for e, row in zip(ident, g.matrix))


def _is_exceptional(g):
    """Whether im(1-g) is nonzero and totally isotropic.  By Scherk's
    refinement of Cartan-Dieudonne, g != 1 is a product of rank(1-g)
    reflections exactly when it is not exceptional; otherwise it needs two
    more."""
    m = _one_minus(g)
    image_gram = linalg.mat_mul(linalg.mat_mul(linalg.transpose(m),
                                               g.space.gram), m)
    return (not g.is_identity()
            and all(x.is_zero() for row in image_gram for x in row))


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
    m = _one_minus(g)
    _, pivots = linalg.rref(m)
    if not pivots:
        return TRIVIAL
    # row i of M^T is M e_i; Gram is symmetric, so column j of Gram is row j
    cols = linalg.transpose(m)
    gram_rows = tuple(space.gram[j] for j in pivots)
    wall = tuple(linalg.mat_vec(gram_rows, cols[i]) for i in pivots)
    d = linalg.det(wall)
    if d.is_zero():
        raise QuadSpaceError("Wall form is degenerate")
    return SquareClass.of(d)


def sgn_spinor(g):
    """The composite sgn_f o sn: a {+1,-1}-valued character of O(V,phi)."""
    return spinor_norm(g).sign()


def orthogonal_sum(v1, v2):
    """Block-diagonal orthogonal sum of two quadratic spaces over the same
    field."""
    if v1.ctx != v2.ctx:
        raise QuadSpaceError("context mismatch")
    ctx = v1.ctx
    n1, n2 = v1.dim, v2.dim
    gram = []
    for i in range(n1):
        gram.append(tuple(v1.gram[i]) + (ctx.zero,) * n2)
    for i in range(n2):
        gram.append((ctx.zero,) * n1 + tuple(v2.gram[i]))
    return QuadraticSpace(ctx, gram)


def block_embed(space_sum, g1, g2):
    """g1 (+) g2 as an orthogonal map on the orthogonal sum."""
    ctx = space_sum.ctx
    n1 = len(g1.matrix)
    n2 = len(g2.matrix)
    if n1 + n2 != space_sum.dim:
        raise QuadSpaceError("dimension mismatch")
    rows = []
    for i in range(n1):
        rows.append(tuple(g1.matrix[i]) + (ctx.zero,) * n2)
    for i in range(n2):
        rows.append((ctx.zero,) * n1 + tuple(g2.matrix[i]))
    return OrthogonalMap(space_sum, rows, check=False)


def random_orthogonal(space, rng, max_reflections=None):
    """A random product of reflections (uniform enough for property tests).
    Each reflection vector is uniform on the anisotropic vectors: uniform
    vectors are drawn and the isotropic ones (zero included) rejected."""
    if max_reflections is None:
        max_reflections = 2 * space.dim
    els = list(space.ctx.elements())
    g = OrthogonalMap.identity(space)
    for _ in range(rng.randrange(max_reflections + 1)):
        while True:
            v = tuple(rng.choice(els) for _ in range(space.dim))
            if not space.evaluate_form(v).is_zero():
                break
        g = g * reflection(space, v)
    return g
