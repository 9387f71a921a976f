"""Dense exact linear algebra over FqElement matrices.

Matrices are tuples of tuples of field elements; vectors are tuples.
Sizes here are tiny (dim <= 12), so everything is straightforward
Gaussian elimination.
"""

from __future__ import annotations

from .ffield import FieldError


def mat_from_ints(ctx, rows):
    return tuple(tuple(ctx.elem(c) for c in row) for row in rows)


def identity(ctx, n):
    return tuple(tuple(ctx.one if i == j else ctx.zero for j in range(n))
                 for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
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


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for c, x in zip(row[1:], v[1:]):
            acc = acc + c * x
        out.append(acc)
    return tuple(out)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def mat_scale(c, m):
    return tuple(tuple(c * x for x in row) for row in m)


def det(m):
    n = len(m)
    a = [list(row) for row in m]
    ctx = m[0][0].ctx
    result = ctx.one
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return ctx.zero
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result = result * a[col][col]
        inv = a[col][col].inv()
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            f = a[r][col] * inv
            for c in range(col, n):
                a[r][c] = a[r][c] - f * a[col][c]
    return result


def mat_inv(m):
    n = len(m)
    ctx = m[0][0].ctx
    a = [list(row) + [ctx.one if i == j else ctx.zero for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            raise FieldError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col].inv()
        a[col] = [inv * x for x in a[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def rref(m):
    """Reduced row echelon form of m (rows x cols): (rows, pivots), where
    rows is the reduced matrix and pivots lists the pivot column of each
    nonzero row, in order."""
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for rr in range(r, nrows):
            if not a[rr][c].is_zero():
                pr = rr
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c].inv()
        a[r] = [inv * x for x in a[r]]
        for rr in range(nrows):
            if rr != r and not a[rr][c].is_zero():
                f = a[rr][c]
                a[rr] = [x - f * y for x, y in zip(a[rr], a[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a), pivots


def null_space(m):
    """Basis of the right null space of m (rows x cols)."""
    cols = len(m[0])
    ctx = m[0][0].ctx
    a, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ctx.zero] * cols
        v[fc] = ctx.one
        for pi, pc in enumerate(pivots):
            v[pc] = -a[pi][fc]
        basis.append(tuple(v))
    return basis


def solve(m, b):
    """One solution of m x = b, or None."""
    cols = len(m[0])
    ctx = m[0][0].ctx
    a, pivots = rref([tuple(row) + (bv,) for row, bv in zip(m, b)])
    # a pivot in the b column is a row reading 0 = 1
    if pivots and pivots[-1] == cols:
        return None
    x = [ctx.zero] * cols
    for pi, pc in enumerate(pivots):
        x[pc] = a[pi][cols]
    return tuple(x)


def mat_eq(a, b):
    return a == b
