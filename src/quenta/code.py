"""Concrete linear codes as matrices over finite fields.

Generator/parity-check pairs built from generator polynomials, exact
rank/RREF/kernel computations and products, Hermitian duals, and one
meet-in-the-middle enumeration of one codeword per projective point.  It
gives the exhaustive minimum distance, and each code's light basis: k
codewords picked greedily in nondecreasing weight, each a lightest word
outside the span of those before it, so that its rows of weight at most w
span every codeword of weight at most w.  Everything is exact.

The field alone picks the row engine.  Over GF(2^m) up to GF(256), GF(3),
GF(5), GF(7), GF(9), GF(25), GF(49) and the primes 11 to 127, a matrix is
stored as lane rows (see _Lanes) from construction to result: each row is one
int of b-bit lanes, the first column in the most significant lane.  Rows add
by XOR in characteristic 2 and digit-lane-wise mod p otherwise; scaling a row
by a constant, and the Frobenius map, translate its bytes through a 256-byte
table per constant, built lazily per field.  Rank, RREF, kernel, product
(Four Russians tables of the right factor over GF(2); otherwise sums of the
right factor's rows, one scaled sum per distinct scalar of a left row),
stack and transpose never form tuple rows, which are derived only
when read.  Over every other field, at every size, row reduction and
products use numpy arrays of int64 field elements.  numpy also carries XOR
and digit-wise mod-p addition during enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .defset import DefiningSet
from .gf import GF
from .poly import divmod_poly, generator_from_defset, x_pow_n_minus_one

DEFAULT_DISTANCE_CAP = 1 << 22


class EnumerationCapError(ValueError):
    """Raised when q^k exceeds the codeword-enumeration cap."""


class Matrix:
    """Immutable matrix over a finite field.

    Over a field with a lane form, the stored form is ``lanes``: one int of
    b-bit lanes per row (see _Lanes), the first column in the most significant
    lane, and the tuple ``rows`` are derived from it when first read.  Over
    other fields ``rows`` are stored and ``lanes`` is None.  The constructor
    validates and packs its input; kernel results are built in the stored
    form, unchecked, by ``_made``.
    """

    # _row_sums: the Four Russians tables GF(2) products keep of a right factor
    # (see _product_gf2)
    __slots__ = ("field", "ncols", "lanes", "_rows", "_transpose", "_row_sums")

    def __init__(self, field: GF, rows, ncols: int):
        rows = tuple(map(tuple, rows))
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            if r and not (0 <= min(r) and max(r) < field.q):
                raise ValueError("entry outside field")
        L = _lanes(field)
        lanes = tuple(L.pack(rows)) if L else None
        self.field, self.ncols, self.lanes, self._rows = field, ncols, lanes, rows
        self._transpose = self._row_sums = None

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if self._rows is None:
            self._rows = _lanes(self.field).unpack(self.lanes, self.ncols)
        return self._rows

    @property
    def _stored(self) -> tuple:
        return self._rows if self.lanes is None else self.lanes

    @property
    def nrows(self) -> int:
        return len(self._rows if self.lanes is None else self.lanes)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self._stored == other._stored)

    def __hash__(self):
        return hash((self.field, self.ncols, self._stored))

    def __repr__(self):
        return f"Matrix(field={self.field!r}, rows={self.rows!r}, ncols={self.ncols})"

    def is_zero(self) -> bool:
        return not any(self.lanes if self.lanes is not None else map(any, self._rows))

    def to_numpy(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64).reshape(self.nrows, self.ncols)


def _made(field: GF, rows, ncols: int) -> Matrix:
    """A kernel result in the field's stored form (lane rows where it has them), unchecked."""
    M = object.__new__(Matrix)
    M.field, M.ncols, M._transpose, M._row_sums = field, ncols, None, None
    if _lanes(field):
        M.lanes, M._rows = tuple(rows), None
    else:
        M.lanes, M._rows = None, tuple(map(tuple, rows))
    return M


# lane values 0..15 as the digits of a binary or hexadecimal int literal
_TO_DIGITS = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")
_FROM_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


class _Tables(dict):
    """Values built on first use: self[key] = build(key)."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Lanes:
    """The lane form of a field whose elements fit in 8 bits: b bits per entry.

    An element's lane code holds its base-p digits in w-bit digit lanes, digit
    0 lowest (w = 1 for p = 2, 4 for p <= 7, 8 for p <= 127): over GF(2^m) and
    prime fields the code is the element, and 1 has code 1 in every field.
    b is m·w rounded up to 4 or 8, so that every byte holds whole lanes, and
    1 for GF(2).  A row of n entries is an int below 2^(n·b), read as
    ceil(n·b / 8) bytes; a lane above the first column, in the first byte, is
    padding and stays 0.

    Rows add by XOR in characteristic 2.  Over odd p the digit lanes of
    s = x + y hold at most 2p - 2; with carries[ncols] = (K, H), K = 2^(w-1) - p
    and H = 2^(w-1) in every digit lane, s + K sets H in exactly the lanes that
    reached p and carries out of none, so x + y = s - ((s + K & H) >> w-1)·p.
    The byte translate tables ``times[c]`` (multiply by the element of code
    c), ``over[c]`` (divide by it) and ``power[e]`` (raise to e) act on codes,
    send invalid codes and padded lanes to 0, and are built on first use.
    """

    def __init__(self, F: GF, w: int):
        p, m, q = F.p, F.m, F.q
        self.field, self.w = F, w
        self.b = b = 1 if q == 2 else 4 if m * w <= 4 else 8
        self.mask = (1 << b) - 1
        self.code = code = [sum(e // p ** i % p << i * w for i in range(m)) for e in range(q)]
        self.element = element = dict(zip(code, range(q)))
        self.encode = bytes(code + [0] * (256 - q))
        self.decode = bytes(element.get(v, 0) for v in range(256))
        self.times = _Tables(lambda c: self.table(lambda v: F.mul(element[c], v)))
        self.over = _Tables(lambda c: self.times[code[F.inv(element[c])]])
        self.power = _Tables(lambda e: self.table(lambda v: F.pow(v, e)))
        self.minus = self.times[p - 1]  # negation: the code of -1 is p - 1
        self.carries = _Tables(self._carries)

    def _carries(self, ncols: int) -> tuple[int, int]:
        unit = ((1 << ncols * self.b) - 1) // ((1 << self.w) - 1)  # 1 in every digit lane
        return unit * ((1 << self.w - 1) - self.field.p), unit << self.w - 1

    def from_codes(self, rows) -> list[int]:
        """Lane rows of rows of lane codes (bytes, one per column)."""
        if self.b == 8:
            return [int.from_bytes(r, "big") for r in rows]
        return [int(r.translate(_TO_DIGITS) or b"0", 1 << self.b) for r in rows]

    def codes(self, lanes, ncols: int) -> list[bytes]:
        """Each lane row's codes, one byte per column; the inverse of from_codes."""
        if self.b == 8:
            return [x.to_bytes(ncols, "big") for x in lanes]
        fmt = f"0{ncols}{'b' if self.b == 1 else 'x'}"
        return [format(x, fmt).encode().translate(_FROM_DIGITS) if ncols else b"" for x in lanes]

    def pack(self, rows) -> list[int]:
        return self.from_codes(bytes(r).translate(self.encode) for r in rows)

    def unpack(self, lanes, ncols: int) -> tuple[tuple[int, ...], ...]:
        """The tuple rows of lane rows; the inverse of pack."""
        return tuple(tuple(r.translate(self.decode)) for r in self.codes(lanes, ncols))

    def transpose(self, lanes, ncols: int) -> list[int]:
        return self.from_codes(map(bytes, zip(*self.codes(lanes, ncols)))) if lanes else [0] * ncols

    def nbytes(self, ncols: int) -> int:
        return (ncols * self.b + 7) // 8

    def table(self, f) -> bytes:
        """The byte translate table applying f, a map of elements, to the code in
        each lane of a byte; invalid codes, which no lane holds, go to 0."""
        b, mask, code, element = self.b, self.mask, self.code, self.element
        g = [code[f(element[v])] if v in element else 0 for v in range(1 << b)]
        return bytes(sum(g[v >> s & mask] << s for s in range(0, 8, b)) for v in range(256))


def _translate(x: int, table: bytes, nbytes: int) -> int:
    """Lane row x, nbytes bytes long, with every byte translated through table."""
    return int.from_bytes(x.to_bytes(nbytes, "big").translate(table), "big")


@lru_cache(maxsize=None)
def _lanes(F: GF) -> _Lanes | None:
    """F's lane form, or None when F's matrices keep tuple rows (numpy's fields)."""
    w = 1 if F.p == 2 else 4 if F.p <= 7 else 8 if F.p <= 127 else 0
    return _Lanes(F, w) if w and F.m * w <= 8 else None


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
    """M^T, built once per matrix; transposing it back gives M itself."""
    if M._transpose is None:
        if M.lanes is not None:
            T = _made(M.field, _lanes(M.field).transpose(M.lanes, M.ncols), M.nrows)
        else:
            T = _made(M.field, zip(*M._rows) if M._rows else ((),) * M.ncols, M.nrows)
        M._transpose, T._transpose = T, M
    return M._transpose


def product(A: Matrix, B: Matrix) -> Matrix:
    """Exact matrix product over the common field."""
    if A.field != B.field:
        raise ValueError("field mismatch in matrix product")
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: {A.nrows}x{A.ncols} times {B.nrows}x{B.ncols}")
    if A.lanes is None:
        rows = _product_numpy(A, B)
    else:
        rows = _product_gf2(A, B) if A.field.q == 2 else _product_scaled(A, B)
    return _made(A.field, rows, B.ncols)


# ----------------------------------------------------------------------
# row reduction and products: lane rows, or numpy for fields without them
# ----------------------------------------------------------------------

def _echelon(M: Matrix) -> dict[int, int]:
    """Rows with distinct leading lanes spanning the lane rows of M, each with
    leading coefficient 1 and keyed by its bit length: each row is cleared by
    the rows already kept whose leading lane it has, highest first, until its
    own leading lane is new or it is zero.  A row whose leading coefficient is
    not 1 has a bit length that no kept row has; it is scaled to 1 and looked
    up again.  Over GF(2) every coefficient is 1 and the loop only XORs.  Over
    odd fields the kept rows are stored negated, so clearing is one add."""
    L = _lanes(M.field)
    b, nb, over = L.b, L.nbytes(M.ncols), L.over
    p, w1, minus = L.field.p, L.w - 1, L.minus
    K, H = L.carries[M.ncols]
    lead: dict[int, int] = {}
    for x in M.lanes:
        while x:
            top = x.bit_length()
            y = lead.get(top)
            if y is not None:
                if p == 2:
                    x ^= y
                else:
                    x += y
                    x -= ((x + K & H) >> w1) * p
                continue
            c = x >> (top - 1) // b * b
            if c == 1:
                lead[top] = x if p == 2 else _translate(x, minus, nb)
                break
            x = int.from_bytes(x.to_bytes(nb, "big").translate(over[c]), "big")  # _translate, inlined
    return lead


def _rref_lanes(M: Matrix) -> tuple[list[int], list[int]]:
    """RREF from the (negated) echelon rows: each row, from the lowest leading
    lane up, is cleared at the leading lanes of the reduced rows below it,
    then negated back."""
    L, n = _lanes(M.field), M.ncols
    b, mask, nb, times = L.b, L.mask, L.nbytes(n), L.times
    p, w1 = L.field.p, L.w - 1
    K, H = L.carries[n]
    reduced: list[tuple[int, int]] = []
    for top, x in sorted(_echelon(M).items()):
        for s, y in reduced:
            c = x >> s & mask
            if c:  # -x + c·(-y) = -(x - c·y)
                y = y if c == 1 else _translate(y, times[c], nb)
                x = x ^ y if p == 2 else x + y - ((x + y + K & H) >> w1) * p
        reduced.append((top - 1, x))
    reduced.reverse()
    pivots = [n - 1 - s // b for s, _ in reduced]
    rows = [_translate(x, L.minus, nb) for _, x in reduced]
    return rows + [0] * (M.nrows - len(reduced)), pivots


def _product_gf2(A: Matrix, B: Matrix) -> list[int]:
    """Lane rows of A·B over GF(2) by the Four Russians method (as in M4RI,
    Albrecht, Bard & Hart).  B keeps one table per byte of a row of A, from
    the last byte: for each of the 256 byte values, the XOR of the byte's rows
    of B that its set bits select (bit i, the i-th of them from the end).
    Each row of A XORs one entry per byte."""
    if B._row_sums is None:
        tables = []
        for s in range(B.nrows, 0, -8):
            sums = [0]
            for y in reversed(B.lanes[max(s - 8, 0):s]):
                sums += [z ^ y for z in sums]
            tables.append(sums)
        B._row_sums = tables
    nb, out = _lanes(A.field).nbytes(A.ncols), []
    for a in A.lanes:
        acc = 0
        for byte, sums in zip(a.to_bytes(nb, "little"), B._row_sums):
            acc ^= sums[byte]
        out.append(acc)
    return out


def _product_scaled(A: Matrix, B: Matrix) -> list[int]:
    """Lane rows of A·B over any lane field but GF(2): row i is the sum, over
    the scalars c of row i of A, of c times the sum of the rows B_j with
    a_ij = c, so each row of A scales one row per distinct scalar, not one per
    entry.  Rows add by XOR in characteristic 2, by the carry add otherwise."""
    L = _lanes(A.field)
    nb, times, p, w1 = L.nbytes(B.ncols), L.times, L.field.p, L.w - 1
    K, H = L.carries[B.ncols]
    out = []
    for a in L.codes(A.lanes, A.ncols):
        sums: dict[int, int] = {}
        for c, y in zip(a, B.lanes):
            if c:
                s = sums.get(c, 0)
                sums[c] = s ^ y if p == 2 else s + y - ((s + y + K & H) >> w1) * p
        acc = sums.pop(1, 0)
        for c, s in sums.items():
            s = _translate(s, times[c], nb)
            acc = acc ^ s if p == 2 else acc + s - ((acc + s + K & H) >> w1) * p
        out.append(acc)
    return out


class _ArrayField:
    """F's arithmetic on int64 arrays of F's own tables: products through the
    log/antilog lists, differences by XOR (characteristic 2), mod p (prime
    fields) or Zech logarithms (odd extension fields)."""

    def __init__(self, F: GF):
        self.p, self.m, self.q1 = F.p, F.m, F.q - 1
        self.exp = np.array(F._exp, dtype=np.int64)
        self.log = np.array(F._log, dtype=np.int64)
        if F.p != 2 and F.m > 1:
            self.half = self.q1 // 2  # alpha^half = -1
            self.zech = np.array(F._zech, dtype=np.int64)

    def sub_outer(self, a, f, P):
        """a - f ⊗ P for a column f of nonzero scalars and a row P."""
        if self.p == 2 or self.m == 1:
            fP = self.exp[self.log[f][:, None] + self.log[P]]
            return a ^ fP if self.p == 2 else (a - fP) % self.p
        # a + (-f) ⊗ P by Zech logarithms: x + y = x * (1 + y/x)
        ly = ((self.log[f] + self.half) % self.q1)[:, None] + self.log[P]
        lx = self.log[a]
        s = self.exp[lx + self.zech[(ly - lx) % self.q1]]
        return np.where(P == 0, a, np.where(a == 0, self.exp[ly], s))


@lru_cache(maxsize=None)
def _array_field(F: GF) -> _ArrayField:
    return _ArrayField(F)


def _rref_numpy(M: Matrix) -> tuple[list[list[int]], list[int]]:
    """RREF on an int64 array; each pivot updates only the rows it has to clear."""
    F, ops = M.field, _array_field(M.field)
    A = M.to_numpy()
    pivots: list[int] = []
    pr = 0
    for pc in range(M.ncols):
        if pr == M.nrows:
            break
        below = np.flatnonzero(A[pr:, pc])
        if not below.size:
            continue
        r = pr + int(below[0])
        if r != pr:
            A[[pr, r]] = A[[r, pr]]
        inv = F.inv(int(A[pr, pc]))
        if inv != 1:
            A[pr, pc:] = ops.exp[ops.log[A[pr, pc:]] + ops.log[inv]]
        hit = np.flatnonzero(A[:, pc])
        hit = hit[hit != pr]
        if hit.size:
            # columns before pc of the pivot row are zero
            A[hit, pc:] = ops.sub_outer(A[hit, pc:], A[hit, pc], A[pr, pc:])
        pivots.append(pc)
        pr += 1
    return A.tolist(), pivots


def _product_numpy(A: Matrix, B: Matrix) -> list[list[int]]:
    """One integer matmul mod p: each entry of A becomes the m x m GF(p)-matrix
    of multiplication by it (column v holds the digits of a * x^v, read from
    the log/antilog tables), and each entry of B its m digits."""
    F, ops = A.field, _array_field(A.field)
    p, m = F.p, F.m
    radix = p ** np.arange(m)
    a, b = A.to_numpy(), B.to_numpy()
    shifted = ops.exp[ops.log[a][..., None] + np.arange(m)]
    a = (shifted[..., None] // radix % p).transpose(0, 3, 1, 2).reshape(A.nrows * m, A.ncols * m)
    b = (b[..., None] // radix % p).transpose(0, 2, 1).reshape(B.nrows * m, B.ncols)
    c = (a @ b % p).reshape(A.nrows, m, B.ncols)  # exact: each sum is below k·m·p² < 2^63
    return (c * radix[:, None]).sum(axis=1).tolist()


def _rref_rows(M: Matrix) -> tuple[list, list[int]]:
    """(RREF rows in M's stored form, pivot columns); lane rows never unpack."""
    return _rref_lanes(M) if M.lanes is not None else _rref_numpy(M)


def rref(M: Matrix) -> Matrix:
    rows, _ = _rref_rows(M)
    return _made(M.field, rows, M.ncols)


def rank(M: Matrix) -> int:
    if M.lanes is not None:
        return len(_echelon(M))
    _, pivots = _rref_rows(M)
    return len(pivots)


def row_space_basis(M: Matrix) -> Matrix:
    """Nonzero rows of the RREF: canonical basis of the row space."""
    rows, pivots = _rref_rows(M)
    return _made(M.field, rows[: len(pivots)], M.ncols)


def kernel_basis(M: Matrix) -> Matrix:
    """Rows spanning the right null space {x : M x^T = 0}; (ncols - rank) rows."""
    F, n = M.field, M.ncols
    rows, pivots = _rref_rows(M)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    L = _lanes(F)
    for f in free_cols:
        if L:
            # column f of the RREF, moved to the pivot lanes and negated (L.minus
            # is the identity in characteristic 2); 1 at lane f
            s = (n - 1 - f) * L.b
            v = 0
            for r, pc in zip(rows, pivots):
                v |= (r >> s & L.mask) << (n - 1 - pc) * L.b
            v = _translate(v, L.minus, L.nbytes(n)) | 1 << s
        else:
            v = [0] * n
            v[f] = 1
            for i, pc in enumerate(pivots):
                v[pc] = F.neg(rows[i][f])
        basis.append(v)
    return _made(F, basis, n)


def frobenius_entrywise(M: Matrix, q0: int) -> Matrix:
    F = M.field
    if F.q != q0 * q0:
        raise ValueError(f"field of size {F.q} is not GF({q0}^2)")
    if M.lanes is not None:
        L = _lanes(F)
        nb, table = L.nbytes(M.ncols), L.power[q0]
        return _made(F, [_translate(x, table, nb) for x in M.lanes], M.ncols)
    frob = {e: F.pow(e, q0) for e in set(chain.from_iterable(M.rows))}
    return _made(F, (map(frob.__getitem__, r) for r in M.rows), M.ncols)


def stack(A: Matrix, B: Matrix) -> Matrix:
    if A.field != B.field or A.ncols != B.ncols:
        raise ValueError("stack requires same field and column count")
    return _made(A.field, A._stored + B._stored, A.ncols)


def _array_matrix(F: GF, elements) -> Matrix:
    """The matrix of a 2-d numpy array of F's elements, in F's stored form."""
    L = _lanes(F)
    if L is None:
        return _made(F, elements.tolist(), elements.shape[1])
    n = elements.shape[1]
    codes = elements.astype(np.uint8, copy=False).tobytes().translate(L.encode)
    return _made(F, L.from_codes(codes[i:i + n] for i in range(0, len(codes), n)), n)


def _pivot_columns(M: Matrix) -> list[int]:
    """The columns of M outside the span of the columns before them: the
    leading columns of its echelon form."""
    if M.lanes is None:
        return _rref_numpy(M)[1]
    b = _lanes(M.field).b
    return sorted(M.ncols - 1 - (top - 1) // b for top in _echelon(M))


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
        if not product(self.G, transpose(self.H)).is_zero():
            raise ValueError("G H^T != 0")
        if rank(self.G) != self.G.nrows or rank(self.H) != self.H.nrows:
            raise ValueError("G or H is not full row rank")

    @property
    def k(self) -> int:
        return self.G.nrows

    @cached_property
    def light_basis(self) -> tuple[Matrix, tuple[int, ...]]:
        """(B, weights): k codewords picked greedily, each a lightest word
        outside the span of those before it, and their nondecreasing weights.
        The rows of B of weight at most w span every codeword of weight at
        most w; weights[0] is the minimum distance.  Built once per code by
        one enumeration of its q^k words, which callers bound."""
        return _light_basis(self.G)


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


def hermitian_dual_code(C: LinearCode, q0: int) -> LinearCode:
    """{x : x . c^q0 = 0 for all c in C} over GF(q0^2); its parity check is C's G^q0."""
    Gf = frobenius_entrywise(C.G, q0)
    return LinearCode(C.field, C.n, kernel_basis(Gf), Gf, None)


# ----------------------------------------------------------------------
# exhaustive minimum distance and the light basis
# ----------------------------------------------------------------------

_BLOCK = 1 << 13  # most words of the low group's span in one numpy block


@lru_cache(maxsize=None)
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
        return (a[..., None] // radix % p).reshape(*a.shape[:-1], a.shape[-1] * m).astype(dtype)

    def add(a, b):
        total = a + b
        # unsigned: total - p wraps above total exactly when total < p
        return np.minimum(total, total - p_t)

    return encode, add, m


def _word_blocks(F: GF, rows):
    """The codewords x·rows of the normalized messages x, encoded (see
    _enumeration_ops) as the columns of blocks of about _BLOCK words, so that
    a weight is a sum over contiguous rows.

    Scaling a word keeps its weight and its span, so only the
    (q^k - 1)/(q - 1) messages whose last nonzero coefficient is 1
    (normalized) are enumerated.  Meet in the middle: the span of a low group
    of rows (at most _BLOCK words per block; a single row over a larger field
    is split into blocks of its multiples) is added to the words of the high
    group's span, as many at once as fill about _BLOCK words, in one numpy
    operation.  A span grows by one row at a time in blocks of coefficient 1,
    0, 2, ..., q - 1, so its normalized messages are a prefix followed by the
    zero word.  Each normalized high word meets the whole low span, and the
    zero high word, last, only the low prefix.
    """
    k = len(rows)
    if not k:
        return
    encode, add, _ = _enumeration_ops(F)
    q, ops = F.q, _array_field(F)
    logs = ops.log[np.array(rows, dtype=np.int64)]
    k_lo = 1
    while k_lo < k and q ** (k_lo + 1) <= _BLOCK:
        k_lo += 1

    def multiples(j, scalars):
        """Row j times each scalar, as encoded words in columns."""
        return encode(ops.exp[ops.log[scalars][:, None] + logs[j]]).T

    def span(lo, hi, top):
        """The span of rows lo..hi-1; the last takes only the coefficients below
        top.  Built in place: the span of the rows so far sits where the zero
        coefficient of every later row puts it, and each row adds its blocks of
        nonzero coefficients around it."""
        levels = hi - lo
        scaled = encode(ops.exp[ops.log[np.arange(1, q)][:, None, None] + logs[lo:hi]])
        table = np.empty((scaled.shape[2], q ** (levels - 1) * top if levels else 1), scaled.dtype)
        at, size = (q ** levels - 1) // (q - 1), 1  # the zero word's column, the span's size
        table[:, at] = 0
        for j in range(levels):
            c = (q if j < levels - 1 else top) - 1  # row j's nonzero coefficients
            blocks = add(table[:, None, at:at + size], scaled[:c, j].T[:, :, None])
            table[:, at - size:at] = blocks[:, 0]  # coefficient 1 goes first
            table[:, at + size:at + c * size] = blocks[:, 1:].reshape(len(table), -1)
            at, size = at - size, size * q
        return table

    if q > _BLOCK:
        order = np.array([1, 0, *range(2, q)])
        lows = ((multiples(0, order[s:s + _BLOCK]), int(s == 0)) for s in range(0, q, _BLOCK))
    else:  # a low group of all k rows needs only its normalized prefix
        lows = iter([(span(0, k_lo, q if k_lo < k else 2), (q ** k_lo - 1) // (q - 1))])
    n_high = (q ** (k - k_lo) - 1) // (q - 1)
    if not n_high:  # the zero high word alone meets the first low prefix
        low, lead = next(lows)
        yield low[:, :lead]
        return
    # the normalized high words and the zero word lie in the last row's 1 and 0 blocks
    high = span(k_lo, k, 2)
    for low, lead in lows:
        stop = n_high + (lead > 0)
        step = max(1, _BLOCK // low.shape[1])
        for i in range(0, stop, step):
            words = add(low[:, None, :], high[:, i:min(i + step, stop), None]).reshape(len(low), -1)
            if lead and i + step >= stop:  # the zero high word meets only the low prefix
                words = words[:, :words.shape[1] - low.shape[1] + lead]
            yield words


def _weights(words, width: int):
    """The weight of each word (column)."""
    nonzero = words != 0
    if width > 1:
        nonzero = nonzero.reshape(-1, width, nonzero.shape[1]).any(axis=1)
    return nonzero.sum(axis=0, dtype=np.min_scalar_type(len(nonzero) + 1))


def _weigh(words, width: int, best: int) -> int:
    """The least of best and the weights of the nonzero words (columns)."""
    weights = _weights(words, width)
    return int(weights.min(initial=best, where=weights > 0))


def _min_weight(F: GF, rows, n: int) -> int:
    """Least weight of the words x·rows, x != 0, with early exit at weight 1;
    n + 1 when there are no rows."""
    width, best = _enumeration_ops(F)[2], n + 1
    for words in _word_blocks(F, rows):
        best = _weigh(words, width, best)
        if best == 1:
            break
    return best


def _light_basis(G: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """LinearCode.light_basis of the code G generates.

    Each block's words, after the words kept from the blocks before it, are
    sorted stably by weight, and the pivot columns of the matrix they form,
    each a word outside the span of the words before it, are kept.  A word
    not kept lies in the span of kept words no heavier than it, so the words
    kept after the last block are a greedy basis of all the words (Edmonds,
    "Matroids and the greedy algorithm", 1971).  Only the symbols of an
    information set of G, its own pivot columns, are reduced: on them, words
    are independent exactly when their messages are."""
    F, width = G.field, _enumeration_ops(G.field)[2]
    info = _pivot_columns(G)
    kept, kept_weights = np.zeros((G.ncols, 0), dtype=np.uint8), np.zeros(0, dtype=np.uint8)
    for words in _word_blocks(F, G.rows):
        if width > 1:  # base-p digits back to elements
            digits = words.reshape(G.ncols, width, -1).astype(np.int64)
            elements = (digits * (F.p ** np.arange(width))[:, None]).sum(axis=1)
        else:
            elements = words
        elements = np.concatenate([kept, elements], axis=1)
        weights = np.concatenate([kept_weights, _weights(words, width)])
        order = np.argsort(weights, kind="stable")
        picks = order[_pivot_columns(_array_matrix(F, np.take(elements[info], order, axis=1)))]
        kept, kept_weights = elements[:, picks], weights[picks]
    return _array_matrix(F, kept.T), tuple(map(int, kept_weights))


def min_distance_exhaustive(C: LinearCode, cap: int = DEFAULT_DISTANCE_CAP) -> int:
    """Exact minimum Hamming weight over all nonzero codewords.

    Enumerates one message per projective point with the meet-in-the-middle
    kernel, with early exit at weight 1.  The zero code reports n + 1.  Raises
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
