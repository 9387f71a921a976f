"""Dense exact linear algebra over F_q and F_p.

Matrices are tuples of tuples and vectors are tuples.  Entries are
FqElements, or plain ints mod p wherever a function takes p.  Sizes here
are tiny (dim <= 12), and one Gauss-Jordan elimination, _eliminate, gives
every echelon form, determinant, inverse and solution.
"""

from __future__ import annotations

from .ffield import FieldError


def identity(ctx, n):
    return tuple(tuple(ctx.one if i == j else ctx.zero for j in range(n))
                 for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b, p=None):
    if p is not None:
        bt = list(zip(*b))
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p
                           for col in bt) for row in a)
    n, k = len(a), len(b)
    cols = len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(a, v, p=None):
    if p is not None:
        return tuple(sum(r * x for r, x in zip(row, v)) % p for row in a)
    out = []
    for row in a:
        acc = row[0] * v[0]
        for c, x in zip(row[1:], v[1:]):
            acc = acc + c * x
        out.append(acc)
    return tuple(out)


def vec_add(u, v, p=None):
    if p is not None:
        return tuple((a + b) % p for a, b in zip(u, v))
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v, p=None):
    if p is not None:
        return tuple((a - b) % p for a, b in zip(u, v))
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v, p=None):
    if p is not None:
        return tuple((c * x) % p for x in v)
    return tuple(c * x for x in v)


def _eliminate(m, p=None):
    """Gauss-Jordan elimination of m (rows x cols), the package's one
    elimination loop.  Returns (rows, pivots, det): rows is the reduced row
    echelon form, pivots lists the pivot column of each nonzero row, in
    order, and det is the product of the pivots before scaling times the
    sign of the row swaps, which is the determinant when m is square and
    every column has a pivot.  Entries are FqElements, or ints mod p when p
    is given; ints stay ints.
    """
    if p is None:
        a = [list(row) for row in m]
        nonzero = _fq_nonzero
    else:
        a = [[x % p for x in row] for row in m]
        nonzero = bool
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if nonzero(a[pr][c]):
                break
        else:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            det = -det
        det = det * a[r][c]
        # row r is zero left of column c, so the row operations start at c
        if p is None:
            s = a[r][c].inv()
            row = [s * x for x in a[r][c:]]
        else:
            s = pow(a[r][c], p - 2, p)
            row = [s * x % p for x in a[r][c:]]
        a[r][c:] = row
        for i in range(nrows):
            f = a[i][c]
            if i != r and nonzero(f):
                a[i][c:] = ([x - f * y for x, y in zip(a[i][c:], row)]
                            if p is None else
                            [(x - f * y) % p for x, y in zip(a[i][c:], row)])
        pivots.append(c)
        r += 1
    if p is not None:
        det %= p
    return tuple(tuple(row) for row in a), pivots, det


def _fq_nonzero(x):
    return not x.is_zero()


def _zero_one(m, p):
    if p is not None:
        return 0, 1
    ctx = m[0][0].ctx
    return ctx.zero, ctx.one


def rref(m, p=None):
    """Reduced row echelon form of m (rows x cols): (rows, pivots), where
    rows is the reduced matrix and pivots lists the pivot column of each
    nonzero row, in order."""
    rows, pivots, _ = _eliminate(m, p)
    return rows, pivots


def det(m, p=None):
    """Determinant of the square matrix m."""
    _, pivots, d = _eliminate(m, p)
    return d if len(pivots) == len(m) else _zero_one(m, p)[0]


def mat_inv(m, p=None):
    """Inverse of the square matrix m; FieldError when m is singular."""
    n = len(m)
    zero, one = _zero_one(m, p)
    rows, pivots, _ = _eliminate(
        [tuple(row) + tuple(one if i == j else zero for j in range(n))
         for i, row in enumerate(m)], p)
    if pivots != list(range(n)):
        raise FieldError("singular matrix")
    return tuple(row[n:] for row in rows)


def solve(m, b, p=None):
    """One solution of m x = b, or None."""
    cols = len(m[0])
    a, pivots = rref([tuple(row) + (bv,) for row, bv in zip(m, b)], p)
    # a pivot in the b column is a row reading 0 = 1
    if pivots and pivots[-1] == cols:
        return None
    x = [_zero_one(m, p)[0]] * cols
    for pi, pc in enumerate(pivots):
        x[pc] = a[pi][cols]
    return tuple(x)
