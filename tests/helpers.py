"""Functions that only the tests call: code and polynomial constructions
that cross-check the package's own results."""

from functools import reduce

from quenta.code import (
    LinearCode,
    Matrix,
    _made,
    hermitian_dual_code,
    kernel_basis,
    rank,
)
from quenta.defset import (
    DefiningSet,
    defset,
    euclidean_dual_defset,
    hermitian_dual_defset,
    intersection_dim,
)
from quenta.gf import GF, embedding
from quenta.poly import Poly, _check_same_field, divmod_poly, mul, poly, x_pow_n_minus_one, zero


def code_from_rows(field: GF, rows, n: int) -> LinearCode:
    """The code spanned by the given rows; G and H in canonical RREF form."""
    reduced, pivots = reference_rref(Matrix(field, rows, n))
    G = Matrix(field, reduced[:len(pivots)], n)
    return LinearCode(field, n, G, kernel_basis(G))


def reference_rref(M: Matrix) -> tuple[list[list[int]], list[int]]:
    """(RREF rows, pivot columns) by per-entry field arithmetic, first-nonzero
    row-major pivoting; the kernels' reference."""
    F = M.field
    rows = [list(r) for r in M.rows]
    pivots = []
    pr = 0
    for pc in range(M.ncols):
        pivot_row = None
        for r in range(pr, len(rows)):
            if rows[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = F.inv(rows[pr][pc])
        if inv != 1:
            rows[pr] = [F.mul(inv, e) for e in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [F.sub(e, F.mul(f, p)) for e, p in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def dual_code(C: LinearCode) -> LinearCode:
    """Euclidean dual: the parity-check matrix becomes the generator."""
    return LinearCode(C.field, C.n, C.H, C.G)


def stack(A: Matrix, B: Matrix) -> Matrix:
    """The rows of A above the rows of B, in the field's stored form."""
    if A.field != B.field or A.ncols != B.ncols:
        raise ValueError("stack requires same field and column count")
    return _made(A.field, A._stored + B._stored, A.ncols)


def intersection_dim_matrices(A: Matrix, B: Matrix) -> int:
    """dim(rowspace(A) ∩ rowspace(B)) by the rank identity."""
    return rank(A) + rank(B) - rank(stack(A, B))


def hull_dim(C: LinearCode) -> int:
    """dim(C ∩ C^dual)."""
    return intersection_dim_matrices(C.G, C.H)


def hermitian_hull_dim(C: LinearCode, q0: int) -> int:
    """dim(C ∩ C^perp_h) over GF(q0^2)."""
    return intersection_dim_matrices(C.G, hermitian_dual_code(C, q0).G)


def is_lcd_euclidean(Z: DefiningSet) -> bool:
    """True iff dim(C ∩ C^dual) = n - |Z ∪ Z(C^dual)| is zero."""
    return intersection_dim(Z, euclidean_dual_defset(Z)) == 0


def is_lcd_hermitian(Z: DefiningSet) -> bool:
    """True iff the Hermitian hull n - |Z ∪ Z(C^perp_h)| is zero."""
    return intersection_dim(Z, hermitian_dual_defset(Z)) == 0


def defining_set_of(C: LinearCode, ext: GF) -> DefiningSet:
    """{i : every generator row, read as a polynomial, vanishes at beta^i}."""
    n = C.n
    beta = ext.nth_root_of_unity(n)
    row_polys = [poly(C.field, r) for r in C.G.rows]
    out = []
    for i in range(n):
        x = ext.pow(beta, i)
        if all(evaluate(p, x, ext) == 0 for p in row_polys):
            out.append(i)
    return defset(n, C.field.q, out)


def x_pow(field: GF, e: int, scale: int = 1) -> Poly:
    """scale * x^e."""
    if scale == 0:
        return zero(field)
    return Poly(field, (0,) * e + (scale,))


def lcm_many(polys) -> Poly:
    return reduce(lcm, polys)


def defset_from_generator(g: Poly, n: int, ext: GF) -> frozenset[int]:
    """{i in Z_n : g(beta^i) = 0}; inverse of generator_from_defset."""
    base = g.field
    _, r = divmod_poly(x_pow_n_minus_one(base, n), g)
    if not r.is_zero():
        raise ValueError(f"generator does not divide x^{n} - 1")
    beta = ext.nth_root_of_unity(n)
    return frozenset(i for i in range(n) if evaluate(g, ext.pow(beta, i), ext) == 0)


def add(a: Poly, b: Poly) -> Poly:
    _check_same_field(a, b)
    F = a.field
    n = max(len(a.coeffs), len(b.coeffs))
    ca = a.coeffs + (0,) * (n - len(a.coeffs))
    cb = b.coeffs + (0,) * (n - len(b.coeffs))
    return poly(F, [F.add(x, y) for x, y in zip(ca, cb)])


def sub(a: Poly, b: Poly) -> Poly:
    _check_same_field(a, b)
    F = a.field
    n = max(len(a.coeffs), len(b.coeffs))
    ca = a.coeffs + (0,) * (n - len(a.coeffs))
    cb = b.coeffs + (0,) * (n - len(b.coeffs))
    return poly(F, [F.sub(x, y) for x, y in zip(ca, cb)])


def scale(a: Poly, s: int) -> Poly:
    F = a.field
    return poly(F, [F.mul(c, s) for c in a.coeffs])


def mod(a: Poly, b: Poly) -> Poly:
    return divmod_poly(a, b)[1]


def monic(a: Poly) -> Poly:
    if a.is_zero() or a.coeffs[-1] == 1:
        return a
    return scale(a, a.field.inv(a.coeffs[-1]))


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is 0."""
    _check_same_field(a, b)
    while not b.is_zero():
        a, b = b, mod(a, b)
    return monic(a)


def lcm(a: Poly, b: Poly) -> Poly:
    _check_same_field(a, b)
    if a.is_zero() or b.is_zero():
        return zero(a.field)
    g = gcd(a, b)
    q, r = divmod_poly(mul(a, b), g)
    assert r.is_zero()
    return monic(q)


def evaluate(f: Poly, x: int, ext: GF | None = None) -> int:
    """f(x) by Horner's rule; x may live in an extension of f's field."""
    F = f.field
    if ext is None or ext == F:
        acc = 0
        for c in reversed(f.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc
    emb = embedding(F, ext)
    acc = 0
    for c in reversed(f.coeffs):
        acc = ext.add(ext.mul(acc, x), emb.up(c))
    return acc


def li_lcd_branch_by_search(q: int, m: int, delta: int) -> tuple[str, int | None, int | None]:
    """(case, u, v) of lcd_cyclic_family's odd-m dimension branches, found by
    trying every u and v in turn; None where a branch has no such parameter."""
    qm = q ** m
    if 2 <= delta <= qm - 1:
        return "branch1", None, None
    for u in range(1, q):
        if u * qm <= delta <= (u + 1) * (qm - 1):
            return "branch2", u, None
    for u in range(1, q):
        for v in range(u):
            if delta == (u + 1) * (qm - 1) + v + 1:
                return "branch3", u, v
    if delta in (q ** (m + 1), q ** (m + 1) + 1):
        return "branch4", None, None
    raise ValueError(f"delta = {delta} matches no dimension branch for odd m")
