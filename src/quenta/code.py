"""Concrete linear codes as matrices over finite fields.

Cyclic codes as generator/parity-check pairs (G the k shifts of g(x), H the
n - k shifts of h(x) = (x^n - 1)/g(x) reversed), each code's Frobenius images
(G^q0, H^q0) over GF(q0^2), built once per code, Hermitian duals, and exact
rank, kernel bases and products.

A matrix keeps one of two stored forms (see Matrix), picked by its field:
- lane rows over GF(2^m) up to GF(256), GF(3), GF(5), GF(7), GF(9), GF(25),
  GF(49) and the primes 11 to 127: rank by _echelon, products by
  _product_gf2 (Four Russians) over GF(2) and _product_scaled otherwise;
- tuple rows over every other field: rank by _tuple_echelon, products by
  _product_rows, both loops over the field's log/antilog tables.
A code keeps the echelon of its H, into a copy of which stacked_rank
reduces other rows.  The kernel basis is read off the tuple-row echelon.

One meet-in-the-middle enumeration of one codeword per projective point, on
Python ints for every field (_word_blocks, _Words), gives the exhaustive
minimum distance (min_distance_exhaustive) and each code's light basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain
from math import comb, isqrt
from operator import lshift

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
    validates and packs its input; the results of products, transposes and
    kernels are built in the stored form, unchecked, by ``_made``.
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

    def nonzero_rows(self):
        """Per row, a value that is true exactly when the row is nonzero."""
        return self.lanes if self.lanes is not None else map(any, self._rows)

    def is_zero(self) -> bool:
        return not any(self.nonzero_rows())


def _made(field: GF, rows, ncols: int) -> Matrix:
    """A kernel result in the field's stored form (lane rows where it has them), unchecked."""
    M = object.__new__(Matrix)
    M.field, M.ncols, M._transpose, M._row_sums = field, ncols, None, None
    if _lanes(field):
        M.lanes, M._rows = tuple(rows), None
    else:
        M.lanes, M._rows = None, tuple(map(tuple, rows))
    return M


# GF(2) entries 0 and 1 as the digits of a binary int literal
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


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
    A row of n entries is an int below 2^(n·b).  Over GF(2) b = 1, so that a
    byte of a row holds the 8 bits a Four Russians table is indexed by
    (_product_gf2); its first byte may hold fewer columns.  Over every other
    lane field b = 8: a row is n bytes, one code each, with no padding lane.

    Rows add by XOR in characteristic 2.  Over odd p the digit lanes of
    s = x + y hold at most 2p - 2; with carries[ncols] = (K, H), K = 2^(w-1) - p
    and H = 2^(w-1) in every digit lane, s + K sets H in exactly the lanes that
    reached p and carries out of none, so x + y = s - ((s + K & H) >> w-1)·p.
    The byte translate tables ``times[c]`` (multiply by the element of code
    c), ``over[c]`` (divide by it) and ``power[e]`` (raise to e) send every
    byte that is not a code to 0, and are built on first use; GF(2) uses none.
    """

    def __init__(self, F: GF, w: int):
        p, m, q = F.p, F.m, F.q
        self.field, self.w = F, w
        self.b = 1 if q == 2 else 8
        self.code = code = [sum(e // p ** i % p << i * w for i in range(m)) for e in range(q)]
        self.element = element = dict(zip(code, range(q)))
        self.encode = bytes(code + [0] * (256 - q))
        self.decode = bytes(element.get(v, 0) for v in range(256))
        self.times = _Tables(lambda c: self.table(lambda v: F.mul(element[c], v)))
        self.over = _Tables(lambda c: self.times[code[F.inv(element[c])]])
        self.power = _Tables(lambda e: self.table(lambda v: F.pow(v, e)))
        self.minus = self.times[p - 1] if p > 2 else None  # negation: the code of -1 is p - 1
        self.carries = _Tables(self._carries)

    def _carries(self, ncols: int) -> tuple[int, int]:
        unit = ((1 << ncols * self.b) - 1) // ((1 << self.w) - 1)  # 1 in every digit lane
        return unit * ((1 << self.w - 1) - self.field.p), unit << self.w - 1

    def from_codes(self, rows) -> list[int]:
        """Lane rows of rows of lane codes (bytes, one per column)."""
        if self.b == 8:
            return [int.from_bytes(r, "big") for r in rows]
        return [int(r.translate(_TO_DIGITS) or b"0", 2) for r in rows]

    def codes(self, lanes, ncols: int) -> list[bytes]:
        """Each lane row's codes, one byte per column; the inverse of from_codes."""
        if self.b == 8:
            return [x.to_bytes(ncols, "big") for x in lanes]
        fmt = f"0{ncols}b"
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
        """The byte translate table applying f, a map of elements, to the code
        a byte holds; a byte that is not a code, which no row holds, goes to 0."""
        code, element = self.code, self.element
        return bytes(code[f(element[v])] if v in element else 0 for v in range(256))


def _translate(x: int, table: bytes, nbytes: int) -> int:
    """Lane row x, nbytes bytes long, with every byte translated through table."""
    return int.from_bytes(x.to_bytes(nbytes, "big").translate(table), "big")


@lru_cache(maxsize=None)
def _lanes(F: GF) -> _Lanes | None:
    """F's lane form, or None when F's matrices keep tuple rows."""
    w = 1 if F.p == 2 else 4 if F.p <= 7 else 8 if F.p <= 127 else 0
    return _Lanes(F, w) if w and F.m * w <= 8 else None


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
        rows = _product_rows(A, B)
    else:
        rows = _product_gf2(A, B) if A.field.q == 2 else _product_scaled(A, B)
    return _made(A.field, rows, B.ncols)


# ----------------------------------------------------------------------
# rank and products on lane rows, or on tuple rows for fields without them
# ----------------------------------------------------------------------

def _echelon(M: Matrix, kept: dict | None = None) -> dict:
    """Rows with distinct leading lanes spanning the lane rows of M, each with
    leading coefficient 1 and keyed by its bit length: each row is cleared by
    the rows already kept whose leading lane it has, highest first, until its
    own leading lane is new or it is zero.  A row whose leading coefficient is
    not 1 has a bit length that no kept row has; it is scaled to 1 and looked
    up again.  Over GF(2) every coefficient is 1 and the loop only XORs.  Over
    odd fields the kept rows are stored negated, so clearing is one add.
    Given ``kept``, the echelon of other rows as wide as M's, M's rows are
    reduced into a copy of it, which then spans both.  Tuple rows go to _tuple_echelon."""
    if M.lanes is None:
        return _tuple_echelon(M, kept)
    L = _lanes(M.field)
    b, nb, over = L.b, L.nbytes(M.ncols), L.over
    p, w1, minus = L.field.p, L.w - 1, L.minus
    K, H = L.carries[M.ncols]
    lead: dict[int, int] = {} if kept is None else dict(kept)
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


def _tuple_echelon(M: Matrix, kept: dict | None = None) -> dict[int, list[tuple[int, int]]]:
    """The echelon of M's tuple rows, keyed by pivot column: each kept row is
    scaled to a leading 1, negated, and stored as the (column, log) pairs of
    its nonzero entries after the pivot.  Each row is reduced once, left to
    right, adding by XOR in characteristic 2, as integers reduced mod p once
    per entry over odd prime fields, and by Zech logarithms otherwise.
    Given ``kept``, M's rows are reduced into a copy of it."""
    F, n = M.field, M.ncols
    p, q1, exp, log = F.p, F.q - 1, F._exp, F._log
    prime = p > 2 and F.m == 1
    zech = F._zech if p > 2 and not prime else None
    lead = {} if kept is None else kept.copy()
    for row in M.rows:
        x = list(row)
        for c in range(n):
            a = x[c] % p if prime else x[c]
            if not a:
                continue
            la, y = log[a], lead.get(c)
            if y is None:  # -x/a; over odd p, -1 is alpha^(q1/2)
                x = [e % p for e in x] if prime else x
                shift = (q1 // 2 if p > 2 else 0) - la
                lead[c] = [(j, (log[x[j]] + shift) % q1) for j in range(c + 1, n) if x[j]]
                break
            if p == 2:
                for j, ls in y:
                    x[j] ^= exp[la + ls]
            elif prime:
                for j, ls in y:
                    x[j] += exp[la + ls]
            else:  # b + alpha^t = alpha^(log b)·(1 + alpha^(t - log b))
                for j, ls in y:
                    t, b = la + ls, x[j]
                    x[j] = exp[log[b] + zech[t - log[b]]] if b else exp[t]
    return lead


@lru_cache(maxsize=None)
def _wide_exp(F: GF, width: int) -> list[int]:
    """F's antilogs, the list twice over, with base-p digit i in bits [i·width, (i + 1)·width)."""
    return [sum(e // F.p ** i % F.p << i * width for i in range(F.m)) for e in F._exp[:2 * F.q - 2]]


def _product_rows(A: Matrix, B: Matrix) -> list[list[int]]:
    """Tuple rows of A·B: each nonzero a_ik adds alpha^(log a_ik + log b_kj)
    into entry j, for each nonzero b_kj.  Terms add by XOR in characteristic
    2, otherwise as integers (over odd extension fields, their base-p digits
    in lanes wide enough for A.ncols terms), reduced mod p once per entry."""
    F = A.field
    p, m, log = F.p, F.m, F._log
    width = (A.ncols * (p - 1)).bit_length()
    terms = F._exp if p == 2 or m == 1 else _wide_exp(F, width)
    mask, radix = (1 << width) - 1, [p ** i for i in range(m)]
    rows_b = [[(j, log[b]) for j, b in enumerate(r) if b] for r in B.rows]
    out = []
    for a in A.rows:
        acc = [0] * B.ncols
        for x, y in zip(a, rows_b):
            if x:
                lx = log[x]
                if p == 2:
                    for j, lb in y:
                        acc[j] ^= terms[lx + lb]
                else:
                    for j, lb in y:
                        acc[j] += terms[lx + lb]
        if p > 2:
            acc = [s % p for s in acc] if m == 1 else [
                sum((s >> i * width & mask) % p * r for i, r in enumerate(radix)) for s in acc]
        out.append(acc)
    return out


def rank(M: Matrix) -> int:
    return len(_echelon(M))


def kernel_basis(M: Matrix) -> Matrix:
    """Rows spanning {x : M x^T = 0}, one per free column f of M's tuple-row
    echelon, by back-substitution: x_f = 1 and the other free entries 0.  In
    the field's stored form."""
    F, n = M.field, M.ncols
    exp, log, lead = F._exp, F._log, _tuple_echelon(M)
    rows = []
    for f in (c for c in range(n) if c not in lead):
        x = [0] * n
        x[f] = 1
        for c in sorted((c for c in lead if c < f), reverse=True):
            x[c] = reduce(F.add, (exp[ls + log[x[j]]] for j, ls in lead[c] if x[j]), 0)
        rows.append(x)
    L = _lanes(F)
    return _made(F, L.pack(rows) if L else rows, n)


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

    def __post_init__(self):
        if self.G.ncols != self.n or self.H.ncols != self.n:
            raise ValueError("G and H must have n columns")
        if self.G.nrows + self.H.nrows != self.n:
            raise ValueError("rank deficit: k + (n - k) != n")
        if not product(self.G, transpose(self.H)).is_zero():
            raise ValueError("G H^T != 0")
        # H's echelon, kept for stacked_rank
        echelon = _echelon(self.H)
        if rank(self.G) != self.G.nrows or len(echelon) != self.H.nrows:
            raise ValueError("G or H is not full row rank")
        object.__setattr__(self, "_H_echelon", echelon)

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

    @cached_property
    def frobenius_images(self) -> tuple[Matrix, Matrix]:
        """(G^q0, H^q0) over GF(q0^2): the generator and parity check of the
        code C^q0, built once per code; ValueError over any other field."""
        q0 = isqrt(self.field.q)
        return frobenius_entrywise(self.G, q0), frobenius_entrywise(self.H, q0)


def stacked_rank(C: LinearCode, M: Matrix) -> int:
    """rk[H; M] for C's parity check H and rows M as long as C's words: only
    M's rows are reduced, into a copy of the echelon of H that C kept from its
    own rank check."""
    if M.field != C.field or M.ncols != C.n:
        raise ValueError("stack requires same field and column count")
    return len(_echelon(M, C._H_echelon))


def _shifts(F: GF, coeffs: tuple[int, ...], count: int, n: int) -> Matrix:
    """The count x n matrix whose row i is coeffs, the entries of a validated
    Poly, shifted i columns right: the lane row of coeffs shifted down i lanes,
    or over a field without lane rows the tuple row.  Unchecked: the entries
    are field elements, and count + len(coeffs) - 1 <= n."""
    if not count:  # coeffs may then be longer than a row
        return _made(F, (), n)
    row = coeffs + (0,) * (n - len(coeffs))
    L = _lanes(F)
    if L is None:
        return _made(F, ((0,) * i + row[:n - i] for i in range(count)), n)
    x, b = L.pack([row])[0], L.b
    return _made(F, [x >> i * b for i in range(count)], n)


def cyclic_code(Z: DefiningSet, base: GF, ext: GF) -> LinearCode:
    """The cyclic code over ``base`` with defining set Z: G is the k shifts of
    its generator polynomial g(x), H the n - k shifts of h(x) = (x^n - 1)/g(x)
    reversed (MacWilliams & Sloane, ch. 7)."""
    n = Z.n
    g = generator_from_defset(Z.elems, n, base, ext)
    h, r = divmod_poly(x_pow_n_minus_one(base, n), g)
    if not r.is_zero():
        raise ValueError(f"g(x) = {g.coeffs} does not divide x^{n} - 1 over GF({base.q})")
    k = n - g.deg
    G = _shifts(base, g.coeffs, k, n)
    H = _shifts(base, h.coeffs[::-1], n - k, n)
    return LinearCode(base, n, G, H)


def hermitian_dual_code(C: LinearCode, q0: int) -> LinearCode:
    """{x : x . c^q0 = 0 for all c in C} over GF(q0^2); its parity check is C's G^q0."""
    Gf = frobenius_entrywise(C.G, q0)
    return LinearCode(C.field, C.n, kernel_basis(Gf), Gf)


# ----------------------------------------------------------------------
# exhaustive minimum distance and the light basis
# ----------------------------------------------------------------------

_BLOCK = 1 << 13  # most words in one enumeration block


def _repunit(width: int, count: int) -> int:
    """1 in the lowest bit of each of count fields of width bits."""
    return ((1 << width * count) - 1) // ((1 << width) - 1)


class _Words:
    """The enumerator's form of the words of length n over F, and how it
    weighs them, broadword (Knuth, TAOCP 7.1.3).

    A word is one int of n symbols, the first column most significant.  A
    symbol holds its element's base-p digits in w-bit digit lanes, digit 0
    lowest (w = 1 for p = 2, else the least w with 2^(w-1) >= p), so it is
    s = m·w bits wide; over GF(2^m) and prime fields a symbol is the element
    itself.  A block of N words is one int, word i in bits [i·W, (i+1)·W),
    where W is n·s rounded up to a multiple of 8c bits, c bytes being a
    weight's count lane.  Words add by XOR in characteristic 2, and otherwise
    by _Lanes' carry add: with K = 2^(w-1) - p and H = 2^(w-1) in every digit
    lane, x + y = t - ((t + K & H) >> w-1)·p for t = x + y.

    ``weights`` weighs a whole block with a few operations on it:
    - fold each symbol to one bit, set when the symbol is nonzero.  When s
      is a power of two, OR-ing in the block shifted by 1, 2, 4, ... below
      s gathers a symbol's bits in its bit 0.  Otherwise that would reach
      the next symbol's bit 0, and ((x & low) + low | x) & top sets bit
      s - 1 instead, where low holds the s - 1 low bits of every symbol and
      top its bit s - 1; no carry leaves a symbol;
    - sum the bits in fields, each added to its neighbour under a mask,
      doubling the fields up to count lanes; a power-of-two symbol is a
      field of its own;
    - multiply by ``gather``, 1 in each count lane of a word, which puts the
      sum of a word's lanes, its weight, in its top lane.  No lane carries:
      a lane's sum covers W consecutive bits, which hold each of a word's n
      symbol positions once, so it is at most n, and c is the least of 1, 2,
      4 with n < 2^(8c).
    Block-wide masks are built once per block size N.
    """

    def __init__(self, F: GF, n: int):
        p, m = F.p, F.m
        w = 1 if p == 2 else p.bit_length() + 1
        s = m * w
        c = 1
        while n >= 1 << 8 * c:
            c *= 2
        W = -(-n * s // (8 * c)) * 8 * c
        self.field, self.p, self.m, self.w, self.s, self.c, self.W = F, p, m, w, s, c, W
        self.nbytes = W // 8
        self.shifts = [(n - 1 - t) * s for t in range(n)]  # the lowest bit of column t
        # an element's code, where it is not the element itself
        self.codes = codes = None if p == 2 or m == 1 else [
            sum(e // p ** i % p << i * w for i in range(m)) for e in range(F.q)]
        self.element = None if codes is None else dict(zip(codes, range(F.q)))
        # x^m as a symbol over GF(2^m): the modulus less its leading term
        self.reduction = sum(c << i for i, c in enumerate(F.modulus[:m]))
        symbols, lanes = _repunit(s, n), _repunit(w, n * m)
        self.top = symbols << s - 1
        # at each field width f = 1, 2, 4, ..., 4c: the low f bits of every 2f
        fields = [((1 << f) - 1) * _repunit(2 * f, W // (2 * f))
                  for f in (1 << i for i in range(2 + c.bit_length()))]
        carries = [((1 << w - 1) - p) * lanes, lanes << w - 1] if p > 2 else [0, 0]
        self._patterns = [1, symbols, ((1 << s - 1) - 1) * symbols, self.top, *carries, *fields]
        self.gather = _repunit(8 * c, W // (8 * c))
        self._masks: dict[int, list[int]] = {}

    def masks(self, N: int) -> list[int]:
        """Over N words: 1 in each word's bit 0, then the symbols' bits 0, low,
        top, K, H and the field masks."""
        masks = self._masks.get(N)
        if masks is None:
            r = _repunit(self.W, N)
            masks = self._masks[N] = [x * r for x in self._patterns]
        return masks

    def add(self, x: int, y: int, N: int) -> int:
        """x + y, for blocks of N words."""
        if self.p == 2:
            return x ^ y
        K, H = self.masks(N)[4:6]
        t = x + y
        return t - ((t + K & H) >> self.w - 1) * self.p

    def pack(self, row) -> int:
        """The word of a row of elements."""
        codes = row if self.codes is None else map(self.codes.__getitem__, row)
        return sum(map(lshift, codes, self.shifts))

    def digit_rows(self, x: int) -> list[int]:
        """x^i times word x, i < m: the multiple of x by an element of digits
        d_i is the sum of d_i times each.  Over GF(2^m) each is the one before
        it times x: every symbol shifted up a bit, and where its top bit falls
        off, x^m added."""
        rows = [x]
        if self.p == 2:
            for _ in range(self.m - 1):
                t = x & self.top
                x = (x ^ t) << 1 ^ (t >> self.m - 1) * self.reduction
                rows.append(x)
        elif self.m > 1:
            exp, log = self.field._exp, self.field._log
            logs = [log[e] for e in self.symbols(x, range(len(self.shifts)))]
            rows += [self.pack([exp[lg + i] for lg in logs]) for i in range(1, self.m)]
        return rows

    def multiples(self, x: int) -> list[int]:
        """a·x for every element a, in element order: the span of x's digit rows."""
        mult = [0]
        for d in self.digit_rows(x):
            layer = mult
            for _ in range(self.p - 1):
                layer = [self.add(y, d, 1) for y in layer]
                mult = mult + layer
        return mult

    def symbols(self, x: int, cols) -> list[int]:
        """The elements of word x in columns cols."""
        mask, shifts = (1 << self.s) - 1, self.shifts
        codes = [x >> shifts[t] & mask for t in cols]
        return codes if self.element is None else [self.element[v] for v in codes]

    def weights(self, X: int, N: int):
        """The weight of each of the N words of block X, in order: bytes, or a
        list of ints when a weight needs more than one byte."""
        _, ones, low, top, _, _, *fields = self.masks(N)
        s, lane, nb = self.s, 8 * self.c, self.nbytes
        if s & s - 1:
            X = ((X & low) + low | X) & top
            f = 1
        else:
            shift = 1
            while shift < s:
                X |= X >> shift
                shift *= 2
            X &= ones
            f = min(s, lane)
        while f < lane:
            mask = fields[f.bit_length() - 1]
            X = (X & mask) + (X >> f & mask)
            f *= 2
        data = (X * self.gather).to_bytes((N + 1) * nb, "little")
        if self.c == 1:
            return data[nb - 1:N * nb:nb]
        c = self.c
        return [int.from_bytes(data[i:i + c], "little") for i in range(nb - c, N * nb, nb)]


_words = lru_cache(maxsize=None)(_Words)  # one per field and length


def _word_blocks(M: Matrix):
    """The codewords x·M of the normalized messages x, as blocks (X, N) of
    N <= _BLOCK words (see _Words), in message order.

    Scaling a word keeps its weight and its span, so only the
    (q^k - 1)/(q - 1) messages whose last nonzero coefficient is 1
    (normalized) are enumerated: for each row j, row j plus the span of the
    rows before it.  Meet in the middle: the normalized words of the first
    k_lo rows, the most whose span fits in _BLOCK words, are one block; then
    the span of those rows is added to the normalized words of the later
    rows, each repeated once per word of the span, as many at once as fill
    _BLOCK words.  A row's multiple by an element is the sum of its digit
    rows (x^i times it) times the element's base-p digits, so spans grow p
    multiples at a time.
    """
    k = M.nrows
    if not k:
        return
    F, q = M.field, M.field.q
    L = _words(F, M.ncols)
    W, p, add = L.W, L.p, L.add
    digits = [L.digit_rows(L.pack(row)) for row in M.rows]

    def span(lo, hi):
        """The span of rows lo..hi-1, by message: each digit row's multiples
        by 0, 1, ..., p - 1, zero first, added to the span so far, so
        span(lo, j) is its prefix."""
        S, size = 0, 1
        for b in chain.from_iterable(digits[lo:hi]):
            b *= L.masks(size)[0]
            x = S
            for d in range(1, p):
                x = add(x, b, size)
                S |= x << d * size * W
            size *= p
        return S

    def normalized(lo, hi, S):
        """For each j in lo..hi-1, row j plus the span of rows lo..j-1, a prefix of S."""
        X = shift = 0
        for j in range(lo, hi):
            size = q ** (j - lo)
            X |= add(S & (1 << size * W) - 1, digits[j][0] * L.masks(size)[0], size) << shift
            shift += size * W
        return X

    k_lo = 0
    while k_lo < k and q ** (k_lo + 1) <= _BLOCK:
        k_lo += 1
    low = span(0, min(k_lo, k - 1))  # the last row enters no span
    if k_lo:
        yield normalized(0, k_lo, low), (q ** k_lo - 1) // (q - 1)
    if k_lo < k:
        size, nb = q ** k_lo, L.nbytes
        H = (q ** (k - k_lo) - 1) // (q - 1)
        high = normalized(k_lo, k, span(k_lo, k - 1)).to_bytes(H * nb, "little")
        step = _BLOCK // size
        if H > 1:  # low side by side as often as a block holds it
            low = int.from_bytes(low.to_bytes(size * nb, "little") * min(step, H), "little")
        for i in range(0, H, step):
            words = high[i * nb:(i + step) * nb]
            N = len(words) // nb * size
            highs = b"".join(words[j:j + nb] * size for j in range(0, len(words), nb))
            yield add(low & (1 << N * W) - 1, int.from_bytes(highs, "little"), N), N


def _weight_distribution(M: Matrix) -> list[int]:
    """counts[w]: the number of normalized words x·M (see _word_blocks) of
    weight w, each standing for its q - 1 multiples."""
    L, n = _words(M.field, M.ncols), M.ncols
    counts = [0] * (n + 1)
    for X, N in _word_blocks(M):
        weights = L.weights(X, N)
        for w in range(1, n + 1):
            if w in weights:
                counts[w] += weights.count(w)
    return counts


def _min_weight(M: Matrix) -> int:
    """Least weight of the words x·M, x != 0; n + 1 when M has no rows."""
    L, least = _words(M.field, M.ncols), M.ncols + 1
    for X, N in _word_blocks(M):
        weights = L.weights(X, N)
        least = next((w for w in range(1, least) if w in weights), least)
    return least


def _light_basis(G: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """LinearCode.light_basis of the code G generates.

    Every word is weighed, a block at a time.  Then words are taken lightest
    first, in message order within a weight, and each is reduced into an
    echelon of the words kept before it.  G is injective, so words are
    independent exactly when their messages are.  The echelon holds, for
    each kept word's leading symbol, the multiple of it that cancels each
    leading coefficient, so a step is one add.  A word that does not reduce
    to zero is kept, until k are kept.  A word not kept lies in the span of
    kept words no heavier than it, so the words kept are a greedy basis of
    all the words (Edmonds, "Matroids and the greedy algorithm", 1971)."""
    F, n, k = G.field, G.ncols, G.nrows
    L = _words(F, n)
    nb, s, add = L.nbytes, L.s, L.add
    blocks = [(X.to_bytes(N * nb, "little"), L.weights(X, N)) for X, N in _word_blocks(G)]

    def lightest_first():
        for w in range(1, n + 1):
            for words, weights in blocks:
                i = -1
                for _ in range(weights.count(w)):
                    i = weights.index(w, i + 1)
                    yield w, int.from_bytes(words[i * nb:(i + 1) * nb], "little")

    kept, kept_weights = [], []
    cancel: dict[int, dict[int, int]] = {}  # leading symbol -> leading code -> word to add
    for w, x in lightest_first():
        if len(kept) == k:
            break
        y = x
        while y:
            t = (y.bit_length() - 1) // s
            if t not in cancel:
                mult = L.multiples(y)
                cancel[t] = {mult[a] >> t * s: mult[F.neg(a)] for a in range(1, F.q)}
                kept.append(x)
                kept_weights.append(w)
                break
            y = add(y, cancel[t][y >> t * s], 1)
    return Matrix(F, [L.symbols(x, range(n)) for x in kept], n), tuple(kept_weights)


def _krawtchouk(j: int, i: int, n: int, q: int) -> int:
    """K_j(i) = Σ_s (-1)^s (q - 1)^(j - s) C(i, s) C(n - i, j - s)."""
    return sum((-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
               for s in range(j + 1))


def _distance_from_dual(M: Matrix) -> int:
    """The minimum distance of the code whose dual M's rows span, from the
    dual's weight distribution B by the MacWilliams identity (MacWilliams &
    Sloane, ch. 5): |C^⊥|·A_j = Σ_i B_i·K_j(i).  B_0 = 1, and each normalized
    word of weight i stands for its q - 1 multiples.  The least j >= 1 with
    A_j != 0, in exact integers; n + 1 when there is none."""
    q, n, counts = M.field.q, M.ncols, _weight_distribution(M)
    B = {0: 1, **{i: (q - 1) * int(c) for i, c in enumerate(counts) if c}}
    for j in range(1, n + 1):
        if sum(b * _krawtchouk(j, i, n, q) for i, b in B.items()):
            return j
    return n + 1


def min_distance_exhaustive(C: LinearCode, cap: int = DEFAULT_DISTANCE_CAP) -> int:
    """Exact minimum Hamming weight over all nonzero codewords.

    Counts the weights of one message per projective point with the
    meet-in-the-middle kernel (_weight_distribution), of C itself when
    k <= n - k, where d is the least nonzero weight, else of its dual C^⊥, the
    row space of H, whose q^(n-k) words give d through the MacWilliams
    identity (_distance_from_dual).  The zero code reports n + 1.
    Raises EnumerationCapError when q^k exceeds the cap, whichever side is
    enumerated, so callers can fall back to bch_bound.
    """
    q, k = C.field.q, C.k
    total = q ** k
    if k and total > cap:
        raise EnumerationCapError(
            f"q^k = {q}^{k} = {total} exceeds enumeration cap {cap}"
        )
    if C.n - k < k:
        return _distance_from_dual(C.H)
    return _min_weight(C.G)
