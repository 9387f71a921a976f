"""Graded quadratic spaces with an involutive block index, the extended
orthogonal group generated by rational orthogonal block-permutations and
zeta-scalings on asymmetric blocks, and the unique mu_4-valued character
extending sgn o sn.
"""

from __future__ import annotations

from .ffield import _digits, adjoin_zeta, sgn
from .quadspace import QuadraticSpace, OrthogonalMap, sgn_spinor
from . import linalg


class GradedError(ValueError):
    pass


class Mu4Value:
    """The cyclic group of order 4, written {1, i, -1, -i}; stored as the
    exponent of the formal generator i."""

    __slots__ = ("k",)

    _NAMES = {0: "1", 1: "i", 2: "-1", 3: "-i"}

    def __init__(self, k):
        self.k = k % 4

    @classmethod
    def from_sign(cls, s):
        return cls(0 if int(s) == 1 else 2)

    @classmethod
    def parse(cls, text):
        for k, name in cls._NAMES.items():
            if text == name:
                return cls(k)
        raise ValueError(f"not a mu_4 value: {text!r}")

    def __mul__(self, other):
        return Mu4Value(self.k + other.k)

    def __pow__(self, e):
        return Mu4Value(self.k * e)

    def __eq__(self, other):
        if isinstance(other, int):
            return str(self) == str(other)
        return isinstance(other, Mu4Value) and self.k == other.k

    def __hash__(self):
        return hash(("Mu4", self.k))

    def is_quadratic(self):
        return self.k % 2 == 0

    def __repr__(self):
        return self._NAMES[self.k]


MU4_ONE = Mu4Value(0)
MU4_I = Mu4Value(1)


class Block:
    __slots__ = ("label", "dim", "kind", "start")

    def __init__(self, label, dim, kind, start):
        if kind not in ("asym", "sym"):
            raise GradedError("kind must be 'asym' or 'sym'")
        if kind == "asym" and dim % 2 != 0:
            raise GradedError(f"asym block {label!r} must have even dimension")
        self.label = label
        self.dim = dim
        self.kind = kind
        self.start = start

    @property
    def cols(self):
        return range(self.start, self.start + self.dim)


class GradedQuadraticSpace:
    """A quadratic space over f graded by +/- orbits of block labels.

    Each block is one orbit [(alpha, t)] of the label involution; asymmetric
    orbits pair two opposite labels, so their blocks have even f-dimension
    and the restricted Gram matrix couples only the two halves.
    Elements of the extended group live over f' = f(zeta), zeta^2 = -1.
    """

    def __init__(self, ctx, blocks, gram, sqrt_sign_of_minus_one=None):
        self.ctx = ctx
        start = 0
        self.blocks = []
        for label, dim, kind in blocks:
            self.blocks.append(Block(label, dim, kind, start))
            start += dim
        self.dim = start
        if len({b.label for b in self.blocks}) != len(self.blocks):
            raise GradedError("duplicate block labels")
        if len(gram) != self.dim:
            raise GradedError("gram size does not match total block dimension")
        self.space = QuadraticSpace(ctx, gram)  # validates symmetry etc.
        self.gram = self.space.gram
        # the block of each row (and column) index
        self._row_block = [b for b in self.blocks for _ in b.cols]
        self._check_block_shape()
        self.ext_ctx, self.embed, self.zeta = adjoin_zeta(ctx)
        self.ext_gram = self.embed_matrix(self.gram)
        self._ext_gram = tuple(tuple(x.code for x in row)
                               for row in self.ext_gram)
        # embed is F_p-linear: its image has the F_p-basis of the images of
        # 1, x, ..., x^(m-1), written as the columns of this matrix
        self._image_basis = linalg.transpose(
            [self.embed(ctx.elem([0] * i + [1])).coeffs for i in range(ctx.m)])
        # the character needs a fixed square root of sgn_f(-1); surfaced as
        # a constructor parameter with a deterministic default
        sm1 = int(sgn(-ctx.one))
        if sqrt_sign_of_minus_one is None:
            sqrt_sign_of_minus_one = MU4_ONE if sm1 == 1 else MU4_I
        if (sqrt_sign_of_minus_one * sqrt_sign_of_minus_one
                != Mu4Value.from_sign(sm1)):
            raise GradedError("chosen root does not square to sgn(-1)")
        self.sqrt_sign = sqrt_sign_of_minus_one

    def _check_block_shape(self):
        blk, gram = self._row_block, self.space._gram
        if any(blk[i] is not blk[j] and x for i, row in enumerate(gram)
               for j, x in enumerate(row)):
            raise GradedError("gram must be block-diagonal across orbits")
        for b in self.blocks:
            sub = tuple(tuple(gram[i][j] for j in b.cols) for i in b.cols)
            if not linalg._det(self.space._ar, sub):
                raise GradedError(f"block {b.label!r} is degenerate")
            # within an asym orbit the form pairs a label only with its
            # negative: both half-diagonal sub-blocks vanish
            h = b.dim // 2
            if b.kind == "asym" and any(sub[i][j] or sub[h + i][h + j]
                                        for i in range(h) for j in range(h)):
                raise GradedError(f"asym block {b.label!r} violates the "
                                  "label-pairing shape")

    def block(self, label):
        for b in self.blocks:
            if b.label == label:
                return b
        raise GradedError(f"no block labelled {label!r}")

    # -- matrices over the extension field -------------------------------

    def ext_matrix(self, rows):
        return linalg._elements(self.ext_ctx, self._ext_codes(rows))

    def _ext_codes(self, rows):
        m = tuple(tuple(map(self.ext_ctx.code, row)) for row in rows)
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise GradedError("matrix dimension mismatch")
        return m

    def embed_matrix(self, m):
        return tuple(tuple(self.embed(self.ctx.elem(c)) for c in row)
                     for row in m)

    def _preimage(self, x):
        """The element of f that embeds to the code x, as an int (m = 1) or
        a coefficient tuple, or None."""
        ctx = self.ctx
        if ctx.m == 1:
            # the image of F_p is the constants, whose codes are below p
            return x if x < ctx.p else None
        return linalg.solve(self._image_basis,
                            _digits(x, ctx.p, self.ext_ctx.m), ctx.p)

    def is_rational(self, x):
        return self._preimage(self.ext_ctx.code(x)) is not None

    def retract(self, x):
        a = self._preimage(self.ext_ctx.code(x))
        if a is None:
            raise GradedError("element is not f-rational")
        return self.ctx.elem(a)


def zeta_scaling(space, label):
    """Multiplication by zeta on one asymmetric orbit-block, identity on the
    rest; an element of GL(V)(f')."""
    b = space.block(label)
    if b.kind != "asym":
        raise GradedError("zeta-scaling is only defined on asym orbits")
    ext, n = space.ext_ctx, space.dim
    return tuple(tuple((space.zeta if i in b.cols else ext.one) if i == j
                       else ext.zero for j in range(n)) for i in range(n))


def _block_permutation(space, g):
    """The map source label -> target label when the code matrix g over f'
    sends each orbit-block into one block of the same kind and dimension,
    no two into the same block; otherwise None."""
    blk = space._row_block
    perm = {}
    for src in space.blocks:
        hit = {blk[i] for j in src.cols for i, row in enumerate(g) if row[j]}
        if len(hit) != 1:
            return None
        (tgt,) = hit
        if tgt.kind != src.kind or tgt.dim != src.dim:
            return None
        perm[src.label] = tgt.label
    return perm if len(set(perm.values())) == len(perm) else None


def glplus_membership(space, g):
    """Whether g permutes the orbit-blocks respecting the asym/sym split.

    Returns (True, permutation mapping source label -> target label) or
    (False, None).  g must be invertible over f'.
    """
    g = space._ext_codes(g)
    if not linalg._det(space.ext_ctx._arith, g):
        raise GradedError("singular matrix")
    perm = _block_permutation(space, g)
    return perm is not None, perm


def otilde_membership(space, g):
    """Factor g as h . prod(zeta-scalings) with h an f-rational orthogonal
    element of GL+ and each asym orbit carrying zeta-exponent 0 or 1.

    Returns (h as an OrthogonalMap on the f-space, exponent dict) or None.
    When g permutes the blocks, g^T Gram g is block-diagonal, and g is a
    member exactly when each of its diagonal blocks is that block's Gram
    matrix (exponent 0) or, on an asym block, its negative (exponent 1,
    as zeta^2 = -1), and h = g . zeta^-exponents is f-rational.  Every
    block of Gram is nondegenerate, so that block test alone makes g
    invertible (a singular g is not a member), and it makes h preserve
    the form: neither is checked again.
    """
    ar = space.ext_ctx._arith
    g = space._ext_codes(g)
    if _block_permutation(space, g) is None:
        return None
    ext_gram = space._ext_gram
    pulled = linalg._mul(ar, linalg._mul(ar, linalg.transpose(g), ext_gram), g)
    zinv = ar.neg(space.zeta.code)  # zeta^2 = -1
    h = [list(row) for row in g]
    exps = {}
    for b in space.blocks:
        sub = [pulled[i][j] for i in b.cols for j in b.cols]
        ref = [ext_gram[i][j] for i in b.cols for j in b.cols]
        if sub == ref:
            e = 0
        elif b.kind == "asym" and sub == list(map(ar.neg, ref)):
            e = 1
            for row in h:
                for j in b.cols:
                    row[j] = ar.mul(row[j], zinv)
        else:
            return None
        if b.kind == "asym":
            exps[b.label] = e
    rational = [[space._preimage(x) for x in row] for row in h]
    if any(x is None for row in rational for x in row):
        return None
    return OrthogonalMap(space.space, rational, check=False), exps


def _extended_value(space, h, exps):
    """The character's value on h . prod(zeta-scalings^exps)."""
    value = Mu4Value.from_sign(sgn_spinor(h))
    for b in space.blocks:
        if exps.get(b.label):
            value = value * space.sqrt_sign ** (b.dim // 2)
    return value


def extended_sn(space, g):
    """The unique mu_4-valued character of the extended orthogonal group
    restricting to sgn o sn on the rational part and taking the fixed root
    of sgn(-1) to the power dim/2 on each zeta-scaling."""
    fact = otilde_membership(space, g)
    if fact is None:
        raise GradedError("element is not in the extended orthogonal group")
    return _extended_value(space, *fact)
