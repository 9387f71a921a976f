"""The FqElement model of linalg and of the orthogonal-group checks, the
oracle of the integer-code kernel: every entry is an FqElement and every
sum and product goes through FqElement arithmetic, one element at a time.
Ints mod p run on the elements of the prime field F_p.  Not a test module;
the tests import it."""

from heckeforge import QuadSpaceError
from heckeforge.ffield import FieldError, sgn


# ---------------------------------------------------------------------------
# linalg on FqElements


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


def eliminate(m):
    """Gauss-Jordan elimination: (rows, pivots, det) as linalg._eliminate
    gives them."""
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
            if not a[pr][c].is_zero():
                break
        else:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            det = -det
        det = det * a[r][c]
        s = a[r][c].inv()
        row = [s * x for x in a[r][c:]]
        a[r][c:] = row
        for i in range(nrows):
            f = a[i][c]
            if i != r and not f.is_zero():
                a[i][c:] = [x - f * y for x, y in zip(a[i][c:], row)]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a), pivots, det


def rref(m):
    rows, pivots, _ = eliminate(m)
    return rows, pivots


def det(m):
    _, pivots, d = eliminate(m)
    return d if len(pivots) == len(m) else m[0][0].ctx.zero


def mat_inv(m):
    n = len(m)
    ctx = m[0][0].ctx
    rows, pivots, _ = eliminate(
        [tuple(row) + tuple(ctx.one if i == j else ctx.zero
                            for j in range(n))
         for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise FieldError("singular matrix")
    return tuple(row[n:] for row in rows)


def solve(m, b):
    cols = len(m[0])
    a, pivots = rref([tuple(row) + (bv,) for row, bv in zip(m, b)])
    if pivots and pivots[-1] == cols:
        return None
    x = [m[0][0].ctx.zero] * cols
    for pi, pc in enumerate(pivots):
        x[pc] = a[pi][cols]
    return tuple(x)


def transpose(m):
    return tuple(zip(*m))


# ---------------------------------------------------------------------------
# the orthogonal-group checks on FqElements


def is_isometry(space, matrix):
    """g^T Gram g == Gram for a dim x dim matrix over the space's field."""
    ctx = space.ctx
    g = tuple(tuple(ctx.elem(c) for c in row) for row in matrix)
    if len(g) != space.dim or any(len(row) != space.dim for row in g):
        return False
    return mat_mul(mat_mul(transpose(g), space.gram), g) == space.gram


def _one_minus(space, matrix):
    ctx = space.ctx
    return tuple(tuple((ctx.one if i == j else ctx.zero) - x
                       for j, x in enumerate(row))
                 for i, row in enumerate(matrix))


def spinor_trivial(space, matrix):
    """Whether sn(g) is trivial: the discriminant of the Wall form on
    im(1 - g), on FqElements."""
    m = _one_minus(space, matrix)
    _, pivots = rref(m)
    if not pivots:
        return True
    cols = transpose(m)
    gram_rows = tuple(space.gram[j] for j in pivots)
    d = det(tuple(mat_vec(gram_rows, cols[i]) for i in pivots))
    if d.is_zero():
        raise QuadSpaceError("Wall form is degenerate")
    return int(sgn(d)) == 1


def otilde_factor(space, g):
    """(h's matrix over f, exponent dict) or None, as otilde_membership
    decides it, on FqElements: g must send each orbit-block into one block
    of the same kind and dimension, and each diagonal block of g^T Gram g
    must be the block's Gram matrix, or its negative on an asym block."""
    ext = space.ext_ctx
    g = tuple(tuple(ext.elem(c) for c in row) for row in g)
    blk = [b for b in space.blocks for _ in b.cols]
    targets = []
    for src in space.blocks:
        hit = {id(blk[i]) for j in src.cols for i, row in enumerate(g)
               if not row[j].is_zero()}
        if len(hit) != 1:
            return None
        tgt = next(b for b in space.blocks if id(b) in hit)
        if tgt.kind != src.kind or tgt.dim != src.dim:
            return None
        targets.append(tgt.label)
    if len(set(targets)) != len(targets):
        return None
    ext_gram = space.ext_gram
    pulled = mat_mul(mat_mul(transpose(g), ext_gram), g)
    zinv = -space.zeta
    h = [list(row) for row in g]
    exps = {}
    for b in space.blocks:
        sub = [pulled[i][j] for i in b.cols for j in b.cols]
        ref = [ext_gram[i][j] for i in b.cols for j in b.cols]
        if sub == ref:
            e = 0
        elif b.kind == "asym" and sub == [-x for x in ref]:
            e = 1
            for row in h:
                for j in b.cols:
                    row[j] = row[j] * zinv
        else:
            return None
        if b.kind == "asym":
            exps[b.label] = e
    table = {space.embed(a): a for a in space.ctx.elements()}
    if any(x not in table for row in h for x in row):
        return None
    return tuple(tuple(table[x] for x in row) for row in h), exps


def extended_value_k(space, g):
    """The exponent k of extended_sn(g) = i^k, or None for a non-member."""
    fact = otilde_factor(space, g)
    if fact is None:
        return None
    h, exps = fact
    k = 0 if spinor_trivial(space.space, h) else 2
    for b in space.blocks:
        if exps.get(b.label):
            k += space.sqrt_sign.k * (b.dim // 2)
    return k % 4
