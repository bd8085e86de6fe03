"""Concrete linear codes as matrices over finite fields.

Generator/parity-check pairs built from generator polynomials, exact
rank/RREF/kernel computations, Euclidean and Hermitian duals, hull
dimensions, and exhaustive minimum distance by meet-in-the-middle
codeword enumeration.  Everything is exact; numpy is used only as a fast
carrier for XOR and digit-wise mod-p addition during enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defset import DefiningSet, defset, euclidean_dual_defset
from .gf import GF, embedding
from .poly import (
    divmod_poly,
    evaluate,
    generator_from_defset,
    poly,
    x_pow_n_minus_one,
)

DEFAULT_DISTANCE_CAP = 1 << 22


class EnumerationCapError(ValueError):
    """Raised when q^k exceeds the codeword-enumeration cap."""


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix over a finite field; rows of field elements."""

    field: GF
    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self):
        q = self.field.q
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
            if any(not 0 <= e < q for e in r):
                raise ValueError("entry outside field")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def to_numpy(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64).reshape(self.nrows, self.ncols)


def matrix(field: GF, rows, ncols: int | None = None) -> Matrix:
    rows = tuple(tuple(r) for r in rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for a matrix with no rows")
        ncols = len(rows[0])
    return Matrix(field, rows, ncols)


def zero_matrix(field: GF, nrows: int, ncols: int) -> Matrix:
    return Matrix(field, tuple((0,) * ncols for _ in range(nrows)), ncols)


def identity(field: GF, k: int) -> Matrix:
    return Matrix(field, tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)), k)


def transpose(M: Matrix) -> Matrix:
    if not M.rows:
        return Matrix(M.field, ((),) * M.ncols, 0)
    return Matrix(M.field, tuple(zip(*M.rows)), M.nrows)


def product(A: Matrix, B: Matrix) -> Matrix:
    """Exact matrix product over the common field."""
    if A.field != B.field:
        raise ValueError("field mismatch in matrix product")
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: {A.nrows}x{A.ncols} times {B.nrows}x{B.ncols}")
    F = A.field
    Bt = tuple(zip(*B.rows)) if B.rows else ()
    out = []
    for ar in A.rows:
        row = []
        for bc in Bt:
            acc = 0
            for x, y in zip(ar, bc):
                if x and y:
                    acc = F.add(acc, F.mul(x, y))
            row.append(acc)
        out.append(tuple(row))
    return Matrix(F, tuple(out), B.ncols)


def _rref_rows(M: Matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; deterministic first-nonzero row-major pivoting."""
    F = M.field
    rows = [list(r) for r in M.rows]
    pivots: list[int] = []
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


def rref(M: Matrix) -> Matrix:
    rows, _ = _rref_rows(M)
    return Matrix(M.field, tuple(tuple(r) for r in rows), M.ncols)


def rank(M: Matrix) -> int:
    _, pivots = _rref_rows(M)
    return len(pivots)


def row_space_basis(M: Matrix) -> Matrix:
    """Nonzero rows of the RREF: canonical basis of the row space."""
    rows, pivots = _rref_rows(M)
    return Matrix(M.field, tuple(tuple(r) for r in rows[: len(pivots)]), M.ncols)


def kernel_basis(M: Matrix) -> Matrix:
    """Rows spanning the right null space {x : M x^T = 0}; (ncols - rank) rows."""
    F = M.field
    rows, pivots = _rref_rows(M)
    pivot_set = set(pivots)
    free_cols = [c for c in range(M.ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [0] * M.ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(rows[i][f])
        basis.append(tuple(v))
    return Matrix(F, tuple(basis), M.ncols)


def frobenius_entrywise(M: Matrix, q0: int) -> Matrix:
    F = M.field
    if F.q != q0 * q0:
        raise ValueError(f"field of size {F.q} is not GF({q0}^2)")
    return Matrix(F, tuple(tuple(F.pow(e, q0) for e in r) for r in M.rows), M.ncols)


def conj_transpose_q(M: Matrix, q0: int) -> Matrix:
    """Transpose with entrywise Frobenius x -> x^q0 (the * of GF(q0^2) matrices)."""
    return transpose(frobenius_entrywise(M, q0))


def stack(A: Matrix, B: Matrix) -> Matrix:
    if A.field != B.field or A.ncols != B.ncols:
        raise ValueError("stack requires same field and column count")
    return Matrix(A.field, A.rows + B.rows, A.ncols)


# ----------------------------------------------------------------------
# linear codes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinearCode:
    """A length-n linear code with generator G (k x n) and parity check H."""

    field: GF
    n: int
    G: Matrix
    H: Matrix
    origin: DefiningSet | None = None

    def __post_init__(self):
        if self.G.ncols != self.n or self.H.ncols != self.n:
            raise ValueError("G and H must have n columns")
        if self.G.nrows + self.H.nrows != self.n:
            raise ValueError("rank deficit: k + (n - k) != n")
        prod = product(self.G, transpose(self.H))
        if any(any(r) for r in prod.rows):
            raise ValueError("G H^T != 0")
        if rank(self.G) != self.G.nrows or rank(self.H) != self.H.nrows:
            raise ValueError("G or H is not full row rank")

    @property
    def k(self) -> int:
        return self.G.nrows


def code_from_rows(field: GF, rows, n: int, origin: DefiningSet | None = None) -> LinearCode:
    """The code spanned by the given rows; G and H in canonical RREF form."""
    G = row_space_basis(matrix(field, rows, n) if rows else zero_matrix(field, 0, n))
    H = kernel_basis(G)
    return LinearCode(field, n, G, H, origin)


def cyclic_code(Z: DefiningSet, base: GF, ext: GF) -> LinearCode:
    """The cyclic code over ``base`` with defining set Z, via its generator polynomial."""
    n = Z.n
    g = generator_from_defset(Z.elems, n, base, ext)
    k = n - g.deg
    gc = g.coeffs
    G = Matrix(base, tuple(
        (0,) * i + gc + (0,) * (n - len(gc) - i) for i in range(k)
    ), n)
    h, r = divmod_poly(x_pow_n_minus_one(base, n), g)
    assert r.is_zero()
    hc = tuple(reversed(h.coeffs))
    H = Matrix(base, tuple(
        (0,) * i + hc + (0,) * (n - len(hc) - i) for i in range(n - k)
    ), n)
    return LinearCode(base, n, G, H, Z)


def dual_code(C: LinearCode) -> LinearCode:
    """Euclidean dual: the parity-check matrix becomes the generator."""
    return LinearCode(C.field, C.n, C.H, C.G, None)


def hermitian_dual_code(C: LinearCode, q0: int) -> LinearCode:
    """{x : x . c^q0 = 0 for all c in C} over GF(q0^2)."""
    Gh = kernel_basis(frobenius_entrywise(C.G, q0))
    return LinearCode(C.field, C.n, Gh, kernel_basis(Gh), None)


def intersection_dim_matrices(A: Matrix, B: Matrix) -> int:
    """dim(rowspace(A) ∩ rowspace(B)) by the rank identity."""
    return rank(A) + rank(B) - rank(stack(A, B))


def hull_dim(C: LinearCode) -> int:
    """dim(C ∩ C^dual)."""
    return intersection_dim_matrices(C.G, C.H)


def hermitian_hull_dim(C: LinearCode, q0: int) -> int:
    """dim(C ∩ C^perp_h) over GF(q0^2)."""
    return intersection_dim_matrices(C.G, hermitian_dual_code(C, q0).G)


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


# ----------------------------------------------------------------------
# exhaustive minimum distance
# ----------------------------------------------------------------------

_BLOCK = 1 << 13  # most words of the low group's span in one numpy block


def _enumeration_ops(F: GF):
    """(encode, add, width) for the enumerator's element arrays over F.

    Characteristic 2 XORs the int encodings; odd characteristic stores
    ``width`` = m base-p digits per symbol and adds them mod p.
    """
    p, m = F.p, F.m
    if p == 2:
        dtype = np.min_scalar_type(F.q - 1)
        return (lambda a: a.astype(dtype)), np.bitwise_xor, 1
    dtype = np.min_scalar_type(2 * (p - 1))
    radix, p_t = p ** np.arange(m), dtype.type(p)

    def encode(a):
        return (a[..., None] // radix % p).reshape(len(a), -1).astype(dtype)

    def add(a, b):
        total = a + b
        # unsigned: total - p wraps above total exactly when total < p
        return np.minimum(total, total - p_t)

    return encode, add, m


def _min_weight(F: GF, rows, n: int, relative: bool = False) -> int:
    """Least weight on the first n columns of the words x·rows, x != 0.

    With ``relative``, only words whose columns past n (a syndrome tail) are
    nonzero count.  Returns n + 1 when no word counts.  Meet in the middle:
    the span of a low group of rows (at most _BLOCK words per block; a single
    row over a larger field is split into blocks of its multiples) is added to
    the words of the high group's span, as many at once as fill about _BLOCK
    words, in one numpy operation, with early exit at weight 1.  Both spans
    grow by one scaled row at a time.  Words are stored as columns, so a
    weight is a sum over contiguous rows.
    """
    if not rows:
        return n + 1
    encode, add, width = _enumeration_ops(F)
    q = F.q
    k_lo = 1
    while k_lo < len(rows) and q ** (k_lo + 1) <= _BLOCK:
        k_lo += 1

    def multiples(row, scalars):
        return encode(np.array([[F.mul(a, e) for e in row] for a in scalars], dtype=np.int64)).T

    def span(group):
        table = multiples(rows[0], [0])  # the zero word
        for row in group:
            scaled = multiples(row, range(1, q)).T
            table = np.concatenate([table] + [add(table, s[:, None]) for s in scaled], axis=1)
        return table

    if q > _BLOCK:
        lows = (multiples(rows[0], range(s, min(s + _BLOCK, q))) for s in range(0, q, _BLOCK))
    else:
        lows = [span(rows[:k_lo])]
    high = span(rows[k_lo:])
    weight_t = np.min_scalar_type(n + 1)
    best = n + 1
    for low in lows:
        step = max(1, _BLOCK // low.shape[1])
        for i in range(0, high.shape[1], step):
            nonzero = add(low[:, None, :], high[:, i:i + step, None]).reshape(len(low), -1) != 0
            if width > 1:
                nonzero = nonzero.reshape(-1, width, nonzero.shape[1]).any(axis=1)
            weights = nonzero[:n].sum(axis=0, dtype=weight_t)
            counted = nonzero[n:].any(axis=0) if relative else weights > 0
            best = int(weights.min(initial=best, where=counted))
            if best == 1:
                return best
    return best


def min_distance_exhaustive(C: LinearCode, cap: int = DEFAULT_DISTANCE_CAP) -> int:
    """Exact minimum Hamming weight over all nonzero codewords.

    Enumerates the full message space with the meet-in-the-middle kernel,
    with early exit at weight 1.  The zero code reports n + 1.  Raises
    EnumerationCapError when q^k exceeds the cap so callers can fall back to
    bch_bound.
    """
    q, k = C.field.q, C.k
    total = q ** k
    if k and total > cap:
        raise EnumerationCapError(
            f"q^k = {q}^{k} = {total} exceeds enumeration cap {cap}"
        )
    return _min_weight(C.field, C.G.rows, C.n)
