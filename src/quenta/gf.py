"""Exact arithmetic in finite fields GF(p^m), m up to 12, p^m up to 2^20.

Elements are plain ints in [0, q).  The base-p digits of an element are the
coefficients of its polynomial representation over GF(p), constant term in
the least significant digit.  Each field owns log/antilog tables built from
a primitive modulus, so multiplication, inversion and powering are table
lookups; addition is XOR for p = 2, mod p for prime fields and by Zech
logarithms otherwise.  log(0) is a sentinel past every sum of two nonzero
logs, so exp[log a + log b] == a·b holds for zero too.

The modulus for (p, m) is chosen deterministically: the first monic degree-m
polynomial, scanning coefficient vectors from the smallest integer encoding
upward, whose residue class of x generates the full multiplicative group
(such a polynomial is irreducible over GF(p)).  A process-wide override
registry lets a config file substitute a different (validated) modulus per
(p, m).  Only this module turns numbers into fields and memoises them, and a
change to the registry drops those memos.  A memo elsewhere needs no notice:
it is keyed by GF objects, whose equality includes the modulus.
"""

from __future__ import annotations

import math
from functools import lru_cache

MAX_ORDER = 1 << 20
# Degree 12 admits the splitting fields GF(2^10) and GF(2^12) that the
# length <= 15 binary duality sweeps require; the order cap still rules.
MAX_DEGREE = 12

_modulus_overrides: dict[tuple[int, int], tuple[int, ...]] = {}


def is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == [p]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Raw polynomial arithmetic over GF(p), used only for modulus selection.
# Polynomials are coefficient lists, lowest degree first.
# ----------------------------------------------------------------------

def _pdeg(f):
    d = len(f) - 1
    while d >= 0 and f[d] == 0:
        d -= 1
    return d


def _pmod(f, g, p):
    f = list(f)
    dg = _pdeg(g)
    inv_lead = pow(g[dg], -1, p)
    for i in range(_pdeg(f), dg - 1, -1):
        if f[i] == 0:
            continue
        factor = (f[i] * inv_lead) % p
        for j in range(dg + 1):
            f[i - dg + j] = (f[i - dg + j] - factor * g[j]) % p
    return f[:dg] if dg > 0 else [0]


def _pmulmod(a, b, g, p):
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _pmod(out, g, p)


def _ppowmod(a, e, g, p):
    result = [1]
    base = _pmod(a, g, p)
    while e > 0:
        if e & 1:
            result = _pmulmod(result, base, g, p)
        base = _pmulmod(base, base, g, p)
        e >>= 1
    return result


def _is_one(r) -> bool:
    return _pdeg(r) == 0 and r[0] == 1


def _is_primitive(coeffs, p: int) -> bool:
    """True if the residue class of x has multiplicative order p^deg - 1.

    Such a modulus is irreducible: modulo a reducible one fewer than p^deg - 1
    residues are units, and x is none of them when the constant term is 0.
    """
    m = _pdeg(coeffs)
    order = p ** m - 1
    x = [0, 1]
    if m < 1 or not _is_one(_ppowmod(x, order, coeffs, p)):
        return False
    return not any(_is_one(_ppowmod(x, order // ell, coeffs, p)) for ell in _prime_factors(order))


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        value, rem = divmod(value, p)
        out.append(rem)
    return out


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    for enc in range(p ** m):
        coeffs = _digits(enc, p, m) + [1]
        if _is_primitive(coeffs, p):
            return tuple(coeffs)
    raise ValueError(f"no primitive polynomial of degree {m} over GF({p})")


def set_modulus_overrides(moduli: dict[tuple[int, int], tuple[int, ...]]) -> None:
    """Make ``moduli``, (p, m) -> coefficients, the whole override registry.

    Every override not in ``moduli`` is removed.  Fields built under the old
    registry are dropped only when it changes, so reinstalling the same set
    keeps them.  An override is validated when its field is first built, not
    here.
    """
    moduli = {pm: tuple(coeffs) for pm, coeffs in moduli.items()}
    if moduli == _modulus_overrides:
        return
    _modulus_overrides.clear()
    _modulus_overrides.update(moduli)
    for memo in _FIELD_MEMOS:
        memo.cache_clear()


class ModulusError(ValueError):
    """A modulus that defines no field GF(p^m): not monic of degree m, or not primitive."""


class CrossCheckError(RuntimeError):
    """Two routes to one quantity disagree: a fault of quenta, not of its input."""


class GF:
    """A finite field GF(p^m) with table-backed arithmetic on int elements."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = tuple(modulus)
        if len(self.modulus) != m + 1 or self.modulus[m] != 1:
            raise ModulusError(f"modulus must be monic of degree {m}")
        if any(not 0 <= c < p for c in self.modulus):
            raise ModulusError("modulus coefficients must lie in [0, p)")
        if not _is_primitive(list(self.modulus), p):
            raise ModulusError(f"modulus {self.modulus} is reducible or not primitive over GF({p})")
        self._build_tables()
        self._hash = hash(self.key)  # fields key every memo: hash once

    @property
    def key(self):
        return (self.p, self.m, self.modulus)

    def __eq__(self, other):
        # gf memoises fields, so an equal field is most often the same object
        return self is other or isinstance(other, GF) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        q1 = q - 1
        # reds[top] = top·red digit-wise: the reduction of top·x^m as an element value
        red = 0
        for i in range(m):
            red += ((-self.modulus[i]) % p) * p ** i
        reds = [0]
        for _ in range(p - 1):
            reds.append(self._digit_add(reds[-1], red))
        hi = p ** (m - 1)
        # exp is the antilog list twice over, then 0 up to index 4(q - 1);
        # log(0) = 2(q - 1) lies past every sum of two nonzero logs
        self._exp = exp = [0] * (4 * q1 + 1)
        self._log = log = [2 * q1] * q
        val = 1
        for i in range(q1):
            exp[i] = exp[i + q1] = val
            log[val] = i
            # multiply by alpha = x: shift digits, reduce once
            top, low = divmod(val, hi)
            val = low * p
            if top:
                val = self._digit_add(val, reds[top])
        if val != 1:
            raise ValueError(f"modulus {self.modulus} residue order is not {q1}")
        self.alpha = exp[1]

        if p == 2:
            self.add = lambda a, b: a ^ b
            self.sub = self.add
            self.neg = lambda a: a
        elif m == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: (-a) % p
        else:
            # Zech logarithms: a + b = a·(1 + b/a) with zech[d] = log(1 + alpha^d),
            # the list twice over.  Adding 1 changes only the constant digit.
            # alpha^half = -1, so zech[half] is log's zero sentinel.
            half = q1 // 2
            self._zech = zech = [log[e - e % p + (e + 1) % p] for e in exp[:q1]] * 2

            def add(a: int, b: int) -> int:
                if not a:
                    return b
                if not b:
                    return a
                la = log[a]
                # a negative difference indexes from the end: its residue mod q - 1
                return exp[la + zech[log[b] - la]]

            self.add = add
            self.neg = lambda a: exp[log[a] + half]
            self.sub = lambda a, b: add(a, exp[log[b] + half])

    def _digit_add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + db) % p) * mult
            mult *= p
        return out

    # ------------------------------------------------------------------
    # element operations
    # ------------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[(self.q - 1) - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        """a**e, exponent reduced mod q-1 for nonzero a; 0**0 == 1."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def nth_root_of_unity(self, n: int) -> int:
        """beta = alpha^((q-1)/n); has multiplicative order exactly n."""
        if n < 1 or (self.q - 1) % n != 0:
            raise ValueError(f"{n} does not divide q - 1 = {self.q - 1}")
        return self.pow(self.alpha, (self.q - 1) // n)


@lru_cache(maxsize=None)
def _build_field(p: int, m: int) -> GF:
    modulus = _modulus_overrides.get((p, m)) or _find_modulus(p, m)
    return GF(p, m, modulus)


def field_create(p: int, m: int) -> GF:
    """Build GF(p^m) with the deterministic (or overridden) primitive modulus."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"extension degree m = {m} outside [1, {MAX_DEGREE}]")
    if p ** m > MAX_ORDER:
        raise ValueError(f"field size {p}^{m} exceeds cap 2^20")
    return _build_field(p, m)


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p^m for a prime p, or None when q is not a prime power.
    A q >= 2 with no factor up to its square root is prime."""
    if q < 2:
        return None
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            return (p, m) if q == 1 else None
    return q, 1


@lru_cache(maxsize=None)
def field_from_order(q: int) -> GF:
    """GF(q) for a prime power q."""
    pm = prime_power(q)
    if pm is None:
        raise ValueError(f"{q} is not a prime power")
    return field_create(*pm)


class Embedding:
    """The subfield embedding GF(q0) -> GF(q0^s) and its partial inverse.

    The image of the subfield generator is the first root of the subfield
    modulus among powers of the extension generator, so the map is a ring
    homomorphism and deterministic.
    """

    def __init__(self, sub: GF, ext: GF):
        if sub.p != ext.p or ext.m % sub.m != 0:
            raise ValueError(f"{sub!r} is not a subfield of {ext!r}")
        self.sub = sub
        self.ext = ext
        # up(alpha_sub^i) = gamma^i, read from the logs; up(0) = 0
        lg, q1 = ext._log[self._find_generator_image()], ext.q - 1
        self.up_table = [ext._exp[lg * i % q1] if a else 0 for a, i in enumerate(sub._log)]
        self._down = {v: a for a, v in enumerate(self.up_table)}
        if len(self._down) != sub.q:
            raise ValueError("embedding is not injective (bad modulus?)")

    def _find_generator_image(self):
        sub, ext = self.sub, self.ext
        step = (ext.q - 1) // (sub.q - 1)
        for j in range(sub.q - 1):
            gamma = ext.pow(ext.alpha, step * j)
            acc = 0
            for c in reversed(sub.modulus):
                acc = ext.add(ext.mul(acc, gamma), c)
            if acc == 0:
                return gamma
        raise ValueError(f"no root of {sub.modulus} found in {ext!r}")

    def up(self, a: int) -> int:
        return self.up_table[a]

    def down(self, x: int) -> int:
        try:
            return self._down[x]
        except KeyError:
            raise ValueError(f"element {x} of {self.ext!r} is not in the subfield image") from None


@lru_cache(maxsize=None)
def embedding(sub: GF, ext: GF) -> Embedding:
    return Embedding(sub, ext)


@lru_cache(maxsize=None)
def splitting_field(q: int, n: int) -> GF:
    """The smallest extension of GF(q) containing primitive n-th roots of unity."""
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n, q) != 1 for n = {n}, q = {q}")
    base = field_from_order(q)
    s = 1
    acc = q % n
    while acc != 1 % n:
        acc = (acc * q) % n
        s += 1
    return field_create(base.p, base.m * s)


# held as objects: a profiler may rebind the public names to wrappers
_FIELD_MEMOS = (_build_field, field_from_order, splitting_field)
