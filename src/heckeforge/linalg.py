"""Dense exact linear algebra over F_q, on integer codes.

Matrices are tuples of tuples and vectors are tuples.  Inside, every entry
is an integer code and the arithmetic is the field's code arithmetic
(FqContext._arith: add, sub, neg, mul, inv and dot); the kernel functions
_mul, _vec, _eliminate, _det, _inv and _solve take it as their argument
ar, and quadspace and gradedorth call them on the code matrices they keep.
At the boundary, the public functions take FqElement entries (the field is
that of the entries) or ints mod p when given p (the field F_p), convert
their arguments to codes once and the result back once: FqElements out
for FqElements in, ints for ints.  Sizes here are tiny (dim <= 12), and
one Gauss-Jordan elimination, _eliminate, gives every echelon form,
determinant, inverse and solution.
"""

from __future__ import annotations

import operator

from .ffield import FieldError, FqContext, FqElement


def identity(ctx, n):
    return tuple(tuple(ctx.one if i == j else ctx.zero for j in range(n))
                 for i in range(n))


def transpose(m):
    return tuple(zip(*m))


# ---------------------------------------------------------------------------
# the kernel, on codes


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mul(ar, a, b):
    dot = ar.dot
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def _vec(ar, a, v):
    dot = ar.dot
    return tuple(dot(row, v) for row in a)


def _eliminate(m, ar):
    """Gauss-Jordan elimination of the code matrix m (rows x cols), the
    package's one elimination loop.  Returns (rows, pivots, det): rows is
    the reduced row echelon form, pivots lists the pivot column of each
    nonzero row, in order, and det is the product of the pivots before
    scaling times the sign of the row swaps, which is the determinant when
    m is square and every column has a pivot.
    """
    add, mul, neg = ar.add, ar.mul, ar.neg
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if a[pr][c]:
                break
        else:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            det = neg(det)
        det = mul(det, a[r][c])
        # row r is zero left of column c, so the row operations start at c
        s = ar.inv(a[r][c])
        row = [mul(s, x) for x in a[r][c:]]
        a[r][c:] = row
        for i in range(nrows):
            f = a[i][c]
            if i != r and f:
                f = neg(f)
                a[i][c:] = [add(x, mul(f, y)) for x, y in zip(a[i][c:], row)]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a), pivots, det


def _det(ar, m):
    _, pivots, d = _eliminate(m, ar)
    return d if len(pivots) == len(m) else 0


def _inv(ar, m):
    n = len(m)
    rows, pivots, _ = _eliminate(
        [tuple(row) + e for row, e in zip(m, _identity(n))], ar)
    if pivots != list(range(n)):
        raise FieldError("singular matrix")
    return tuple(row[n:] for row in rows)


def _solve(ar, m, b):
    cols = len(m[0])
    a, pivots, _ = _eliminate([tuple(row) + (bv,)
                               for row, bv in zip(m, b)], ar)
    # a pivot in the b column is a row reading 0 = 1
    if pivots and pivots[-1] == cols:
        return None
    x = [0] * cols
    for pi, pc in enumerate(pivots):
        x[pc] = a[pi][cols]
    return tuple(x)


# ---------------------------------------------------------------------------
# the public functions: one conversion in, one out


class _Integers:
    """The ring operations of Z, for int entries given with no p."""

    add, sub, mul = operator.add, operator.sub, operator.mul
    dot = staticmethod(lambda u, v: sum(map(operator.mul, u, v)))


def _field(p, *vectors):
    """(ar, codes, ctx) of a public call whose entries are those of vectors:
    with p, F_p on ints mod p, whose codes are their residues; without, the
    field ctx of the first FqElement entry, or Z (products only) when every
    entry is an int.  codes maps a vector to its codes; ctx is None where
    the results stay ints."""
    if p is not None:
        return (FqContext.shared(p)._arith,
                lambda v: tuple([x % p for x in v]), None)
    for v in vectors:
        for x in v:
            if isinstance(x, FqElement):
                code = x.ctx.code
                return x.ctx._arith, lambda v: tuple(map(code, v)), x.ctx
    return _Integers, lambda v: tuple(map(operator.index, v)), None


def _elements(ctx, x):
    """The code, vector or matrix of codes x as FqElements of ctx; x itself
    when ctx is None."""
    if ctx is None or not isinstance(x, tuple):
        return x if ctx is None else FqElement(ctx, x)
    return tuple(_elements(ctx, y) for y in x)


def mat_mul(a, b, p=None):
    ar, codes, ctx = _field(p, *a, *b)
    return _elements(ctx, _mul(ar, tuple(map(codes, a)),
                               tuple(map(codes, b))))


def mat_vec(a, v, p=None):
    ar, codes, ctx = _field(p, v, *a)
    return _elements(ctx, _vec(ar, tuple(map(codes, a)), codes(v)))


def vec_add(u, v, p=None):
    ar, codes, ctx = _field(p, u, v)
    return _elements(ctx, tuple(map(ar.add, codes(u), codes(v))))


def vec_sub(u, v, p=None):
    ar, codes, ctx = _field(p, u, v)
    return _elements(ctx, tuple(map(ar.sub, codes(u), codes(v))))


def vec_scale(c, v, p=None):
    ar, codes, ctx = _field(p, (c,), v)
    (c,) = codes((c,))
    return _elements(ctx, tuple([ar.mul(c, x) for x in codes(v)]))


def rref(m, p=None):
    """Reduced row echelon form of m (rows x cols): (rows, pivots), where
    rows is the reduced matrix and pivots lists the pivot column of each
    nonzero row, in order."""
    ar, codes, ctx = _field(p, *m)
    rows, pivots, _ = _eliminate(tuple(map(codes, m)), ar)
    return _elements(ctx, rows), pivots


def det(m, p=None):
    """Determinant of the square matrix m."""
    ar, codes, ctx = _field(p, *m)
    return _elements(ctx, _det(ar, tuple(map(codes, m))))


def mat_inv(m, p=None):
    """Inverse of the square matrix m; FieldError when m is singular."""
    ar, codes, ctx = _field(p, *m)
    return _elements(ctx, _inv(ar, tuple(map(codes, m))))


def solve(m, b, p=None):
    """One solution of m x = b, or None."""
    ar, codes, ctx = _field(p, b, *m)
    x = _solve(ar, tuple(map(codes, m)), codes(b))
    return None if x is None else _elements(ctx, x)
