"""Dense univariate polynomials over a finite field.

Coefficient vectors are stored lowest degree first with no trailing zeros,
so the zero polynomial has an empty vector and ``deg`` is -1.  The bridge
between defining sets and polynomial ideals lives here: a coset-closed
subset Z of Z_n becomes the generator g(x) = prod_{i in Z}(x - beta^i),
with beta the fixed n-th root of unity of the splitting field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .defset import coset_partition, cyclotomic_coset
from .gf import GF, CrossCheckError, embedding


@dataclass(frozen=True)
class Poly:
    """Polynomial over ``field``; coeffs lowest degree first, canonical."""

    field: GF
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficient vector has a trailing zero")
        for c in self.coeffs:
            if not 0 <= c < self.field.q:
                raise ValueError(f"coefficient {c} outside field of size {self.field.q}")

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs


def poly(field: GF, coeffs) -> Poly:
    """Build a Poly, trimming trailing zeros to canonical form."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return Poly(field, tuple(cs))


def zero(field: GF) -> Poly:
    return Poly(field, ())


def one(field: GF) -> Poly:
    return Poly(field, (1,))


def _check_same_field(a: Poly, b: Poly):
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field!r} vs {b.field!r}")


def mul(a: Poly, b: Poly) -> Poly:
    _check_same_field(a, b)
    if a.is_zero() or b.is_zero():
        return zero(a.field)
    F = a.field
    out = [0] * (a.deg + b.deg + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj:
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return poly(F, out)


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b."""
    _check_same_field(a, b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    F = a.field
    rem = list(a.coeffs)
    db = b.deg
    quot = [0] * max(a.deg - db + 1, 0)
    inv_lead = F.inv(b.coeffs[-1])
    for i in range(a.deg - db, -1, -1):
        c = rem[i + db]
        if c == 0:
            continue
        factor = F.mul(c, inv_lead)
        quot[i] = factor
        for j, bj in enumerate(b.coeffs):
            if bj:
                rem[i + j] = F.sub(rem[i + j], F.mul(factor, bj))
    return poly(F, quot), poly(F, rem)


def x_pow_n_minus_one(field: GF, n: int) -> Poly:
    return poly(field, [field.neg(1)] + [0] * (n - 1) + [1])


# ----------------------------------------------------------------------
# defining-set <-> polynomial bridge
# ----------------------------------------------------------------------

def _root_product(indices, n: int, base: GF, ext: GF) -> Poly:
    """prod_{i in indices}(x - beta^i) over ext, coefficients mapped down to base:
    indices must be closed under multiplication by |base| mod n."""
    beta = ext.nth_root_of_unity(n)
    prod = one(ext)
    for i in indices:
        root = ext.pow(beta, i)
        prod = mul(prod, Poly(ext, (ext.neg(root), 1)))
    emb = embedding(base, ext)
    return poly(base, [emb.down(c) for c in prod.coeffs])


@lru_cache(maxsize=None)
def minimal_polynomial(i: int, n: int, base: GF, ext: GF) -> Poly:
    """Monic polynomial over the base field whose roots are beta^j, j in the coset of i."""
    return _root_product(cyclotomic_coset(i, n, base.q).elems, n, base, ext)


def generator_from_defset(indices, n: int, base: GF, ext: GF) -> Poly:
    """g(x) = prod_{i in Z}(x - beta^i) with coefficients in the base field: the
    product, over the base field, of the cached minimal polynomials of Z's
    cosets, each named by its leader.  Refuses an n that does not divide
    |ext| - 1, and a Z that is not a union of cosets (its root product has
    coefficients outside the base field)."""
    if (ext.q - 1) % n != 0:
        raise ValueError(f"n = {n} does not divide {ext.q} - 1")
    idx = {i % n for i in indices}
    cosets = [c.elems for c in coset_partition(n, base.q) if c.elems[0] in idx]
    if {i for c in cosets for i in c} != idx:
        raise ValueError(
            f"root set {sorted(idx)} is not closed under multiplication by "
            f"{base.q} mod {n}: product has coefficients outside GF({base.q})"
        )
    g = reduce(mul, (minimal_polynomial(c[0], n, base, ext) for c in cosets), one(base))
    if g.deg != len(idx):
        raise CrossCheckError(f"degree of generator {g.deg} != |Z| = {len(idx)}")
    return g
