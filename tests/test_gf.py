import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenta import gf as gf_module
from quenta.gf import (
    GF,
    Embedding,
    _digits,
    _find_modulus,
    _is_primitive,
    _pdeg,
    _pmod,
    embedding,
    field_create,
    field_from_order,
    is_prime,
    prime_power,
    set_modulus_overrides,
    splitting_field,
)


def test_deterministic_moduli():
    assert field_create(2, 1).modulus == (1, 1)
    assert field_create(2, 2).modulus == (1, 1, 1)
    assert field_create(3, 2).modulus == (2, 1, 1)
    assert field_create(2, 4).modulus == (1, 1, 0, 0, 1)
    assert field_create(7, 2).modulus == (3, 1, 1)


def test_prime_field_arithmetic():
    F = field_create(3, 1)
    assert F.add(1, 2) == 0
    assert F.mul(2, 2) == 1
    assert F.inv(2) == 2
    F7 = field_create(7, 1)
    assert all(F7.mul(x, F7.inv(x)) == 1 for x in range(1, 7))


def test_gf4_multiplicative_order():
    F = field_create(2, 2)
    a = F.alpha
    assert F.mul(a, F.mul(a, a)) == 1
    assert F.pow(a, 3) == 1
    assert F.pow(a, 1) == a


def test_gf9_has_order_eight_generator():
    F = field_create(3, 2)
    a = F.alpha
    seen = {F.pow(a, i) for i in range(8)}
    assert len(seen) == 8
    assert F.pow(a, 8) == 1


def test_pow_edge_cases():
    F = field_create(3, 2)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (2, 4),
                                 (7, 1), (2, 6), (3, 4), (7, 2), (2, 10), (2, 12)])
def test_field_axioms_random(p, m):
    # >= 10^4 random triples per field, per the q <= 2^12 coverage target
    F = field_create(p, m)
    rng = random.Random(12345 + F.q)
    for _ in range(10_000):
        x, y, z = (rng.randrange(F.q) for _ in range(3))
        assert F.add(x, y) == F.add(y, x)
        assert F.mul(x, y) == F.mul(y, x)
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.add(x, F.neg(x)) == 0


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 4), (7, 2), (2, 6), (3, 4)])
def test_inverses_exhaustive(p, m):
    F = field_create(p, m)
    for x in range(1, F.q):
        assert F.mul(x, F.inv(x)) == 1


@pytest.mark.parametrize("p,m,q0", [(2, 2, 2), (3, 2, 3), (2, 4, 4), (2, 4, 2),
                                    (3, 4, 9), (7, 2, 7), (2, 6, 8)])
def test_frobenius_is_automorphism(p, m, q0):
    F = field_create(p, m)
    for x in range(F.q):
        for y in range(F.q):
            fx, fy = F.pow(x, q0), F.pow(y, q0)
            assert F.pow(F.add(x, y), q0) == F.add(fx, fy)
            assert F.pow(F.mul(x, y), q0) == F.mul(fx, fy)


def test_frobenius_squared_is_identity_on_gf9():
    F = field_create(3, 2)
    for x in range(9):
        assert F.pow(F.pow(x, 3), 3) == x


def test_frobenius_fixes_subfield():
    F = field_create(2, 2)
    assert F.pow(1, 2) == 1
    assert F.pow(0, 2) == 0
    a = F.alpha
    assert F.pow(a, 2) == F.mul(a, a)


def test_nth_root_of_unity():
    F4 = field_create(2, 2)
    assert F4.nth_root_of_unity(3) == F4.alpha
    F9 = field_create(3, 2)
    assert F9.nth_root_of_unity(8) == F9.alpha
    b = F9.nth_root_of_unity(4)
    assert b == F9.mul(F9.alpha, F9.alpha)
    assert [e for e in range(1, 5) if F9.pow(b, e) == 1] == [4]  # b has order 4
    with pytest.raises(ValueError):
        F9.nth_root_of_unity(5)


@pytest.mark.parametrize("p,m,n", [(2, 4, 15), (2, 4, 5), (2, 4, 3), (3, 2, 8),
                                   (3, 2, 4), (7, 2, 48), (2, 10, 11), (2, 12, 13)])
def test_root_of_unity_exact_order(p, m, n):
    F = field_create(p, m)
    b = F.nth_root_of_unity(n)
    assert [e for e in range(1, n + 1) if F.pow(b, e) == 1] == [n]  # b has order n


def test_field_create_errors():
    with pytest.raises(ValueError):
        field_create(4, 1)
    with pytest.raises(ValueError):
        field_create(2, 0)
    with pytest.raises(ValueError):
        field_create(2, 13)
    with pytest.raises(ValueError):
        field_create(2, 21)  # over both caps
    with pytest.raises(ValueError):
        field_from_order(12)


def test_field_from_order():
    assert field_from_order(9).modulus == field_create(3, 2).modulus
    assert field_from_order(2).q == 2
    assert field_from_order(1024).m == 10
    assert [prime_power(q) for q in (1, 2, 6, 9, 12, 1024)] == [
        None, (2, 1), None, (3, 2), None, (2, 10)]


def _prime_power_by_every_divisor(q):
    """prime_power's reference: trial division by every p up to q itself."""
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            return (p, m) if q == 1 else None
    return None


def test_prime_power_stops_at_the_square_root():
    assert all(prime_power(q) == _prime_power_by_every_divisor(q) for q in range(-5, 5001))
    t0 = time.perf_counter()
    assert prime_power(10**9 + 7) == (10**9 + 7, 1)
    assert prime_power(10007 ** 2) == (10007, 2)
    assert time.perf_counter() - t0 < 0.5


def _prime_power_to_the_first_factor(q):
    """prime_power's reference: trial division up to the square root, stopping at
    q's least prime factor p, then dividing p out."""
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


def test_prime_power_reads_the_prime_factorization():
    """prime_power is the one-factor case of gf._prime_factors, for every q < 2^16."""
    assert [prime_power(q) for q in (-7, -1, 0, 1)] == [None] * 4
    assert all(prime_power(q) == _prime_power_to_the_first_factor(q) for q in range(1 << 16))


def test_is_prime():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_embedding_gf4_into_gf16():
    sub, ext = field_create(2, 2), field_create(2, 4)
    emb = embedding(sub, ext)
    for x in range(4):
        for y in range(4):
            assert emb.up(sub.add(x, y)) == ext.add(emb.up(x), emb.up(y))
            assert emb.up(sub.mul(x, y)) == ext.mul(emb.up(x), emb.up(y))
            assert emb.down(emb.up(x)) == x


def test_embedding_gf9_into_gf81_random():
    sub, ext = field_create(3, 2), field_create(3, 4)
    emb = embedding(sub, ext)
    rng = random.Random(7)
    for _ in range(500):
        x, y = rng.randrange(9), rng.randrange(9)
        assert emb.up(sub.mul(x, y)) == ext.mul(emb.up(x), emb.up(y))
        assert emb.up(sub.add(x, y)) == ext.add(emb.up(x), emb.up(y))


def _walk_up_table(sub, ext, gamma):
    """up(a) as sum of c_i * gamma^i over the digits c_i of a: the coefficient walk."""
    powers = [1]
    for _ in range(sub.m - 1):
        powers.append(ext.mul(powers[-1], gamma))
    table = []
    for a in range(sub.q):
        acc = 0
        for c, gpow in zip(_digits(a, sub.p, sub.m), powers):
            acc = ext.add(acc, ext.mul(c, gpow))
        table.append(acc)
    return table


def test_embedding_log_table_matches_coefficient_walk():
    # every subfield pair GF(p^s) <= GF(p^m) with p^m <= 2^12, prime subfields included
    pairs = [(p, s, m) for p in range(2, 65) if is_prime(p)
             for s in range(1, 13) for m in range(s, 13, s) if p ** m <= 1 << 12]
    assert len(pairs) == 115
    for p, s, m in pairs:
        sub, ext = field_create(p, s), field_create(p, m)
        emb = embedding(sub, ext)
        assert emb.up_table == _walk_up_table(sub, ext, emb._find_generator_image())


def test_embedding_down_rejects_outsiders():
    sub, ext = field_create(2, 2), field_create(2, 4)
    emb = embedding(sub, ext)
    image = {emb.up(x) for x in range(4)}
    outside = next(v for v in range(16) if v not in image)
    with pytest.raises(ValueError):
        emb.down(outside)


def test_prime_subfield_embedding_is_constant_coefficients():
    sub, ext = field_create(3, 1), field_create(3, 2)
    emb = embedding(sub, ext)
    assert [emb.up(x) for x in range(3)] == [0, 1, 2]


def test_embedding_requires_compatible_fields():
    with pytest.raises(ValueError):
        Embedding(field_create(2, 2), field_create(2, 3))
    with pytest.raises(ValueError):
        Embedding(field_create(2, 2), field_create(3, 2))


@pytest.mark.parametrize("q,n,expect_q", [(3, 8, 9), (2, 7, 8), (4, 63, 64),
                                          (9, 80, 81), (4, 15, 16), (4, 5, 16),
                                          (4, 3, 4), (7, 6, 7), (2, 11, 1024),
                                          (2, 13, 4096), (49, 48, 49)])
def test_splitting_field(q, n, expect_q):
    assert splitting_field(q, n).q == expect_q


def test_splitting_field_errors():
    with pytest.raises(ValueError):
        splitting_field(2, 6)  # gcd(n, q) != 1
    with pytest.raises(ValueError):
        splitting_field(2, 25)  # needs degree 20 > cap


def test_modulus_override_round_trip():
    default = field_create(2, 3).modulus
    other = (1, 0, 1, 1)  # the second primitive cubic over GF(2)
    assert other != default
    set_modulus_overrides({(2, 3): other})
    try:
        F = field_create(2, 3)
        assert F.modulus == other
        assert F.pow(F.alpha, 7) == 1
        for x in range(1, 8):
            assert F.mul(x, F.inv(x)) == 1
    finally:
        set_modulus_overrides({})
    assert field_create(2, 3).modulus == default


def test_modulus_override_rejects_reducible():
    set_modulus_overrides({(2, 3): (0, 0, 0, 1)})  # x^3, clearly reducible
    try:
        with pytest.raises(ValueError):
            field_create(2, 3)
    finally:
        set_modulus_overrides({})


def test_fields_differing_only_in_modulus_are_unequal():
    default = field_create(2, 3)
    set_modulus_overrides({(2, 3): (1, 0, 1, 1)})
    try:
        other = field_create(2, 3)
    finally:
        set_modulus_overrides({})
    assert (other.p, other.m) == (default.p, default.m)
    assert default != other and other != default and len({default, other}) == 2
    # a field built apart from gf's memos with the same modulus is equal
    twin = GF(2, 3, default.modulus)
    assert twin is not default and twin == default and hash(twin) == hash(default)
    assert default != (2, 3, default.modulus)


def _fields_of_order_8():
    """GF(8) through each of gf's three field memos."""
    return field_create(2, 3), field_from_order(8), splitting_field(2, 7)


def test_modulus_overrides_replace_the_registry_and_rebuild_fields_only_on_change():
    other = (1, 0, 1, 1)
    try:
        set_modulus_overrides({(2, 3): other, (2, 2): (1, 1, 1)})
        fields = _fields_of_order_8()
        assert [F.modulus for F in fields] == [other] * 3
        set_modulus_overrides({(2, 2): (1, 1, 1), (2, 3): list(other)})  # the same set
        assert all(a is b for a, b in zip(fields, _fields_of_order_8()))
        set_modulus_overrides({(2, 3): other})  # (2, 2) removed
        assert gf_module._modulus_overrides == {(2, 3): other}
        rebuilt = _fields_of_order_8()
        assert not any(a is b for a, b in zip(fields, rebuilt))
        assert [F.modulus for F in rebuilt] == [other] * 3
    finally:
        set_modulus_overrides({})
    assert all(F.modulus != other for F in _fields_of_order_8())


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_gf9_ring_axioms_hypothesis(x, y, z):
    F = field_create(3, 2)
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
    assert F.sub(F.add(x, y), y) == x
    if y != 0:
        assert F.mul(F.mul(x, F.inv(y)), y) == x


def _reference_ops(F, a, b):
    """(a + b, a - b, a·b) for int arrays a and b, from base-p digit arithmetic
    and the modulus alone, with no log table."""
    p, m = F.p, F.m
    radix = p ** np.arange(m)
    da, db = a[:, None] // radix % p, b[:, None] // radix % p
    # the digits of a·x^i: shift up one digit, then x^m = -(f_0 + ... + f_{m-1} x^{m-1})
    low = np.array(F.modulus[:m])
    shifts = [da]
    for _ in range(m - 1):
        v = shifts[-1]
        shifts.append((np.concatenate([0 * v[:, :1], v[:, :-1]], axis=1) - v[:, -1:] * low) % p)
    prod = np.einsum("ni,nij->nj", db, np.stack(shifts, axis=1)) % p
    return ((da + db) % p) @ radix, ((da - db) % p) @ radix, prod @ radix


# both sides of the q = 512 bound where odd extension fields once switched
# from a q x q addition table to digit-wise addition; None: every pair
@pytest.mark.parametrize("p,m,samples", [
    (2, 1, None), (7, 1, None), (2, 2, None), (3, 2, None), (3, 3, None), (3, 4, None),
    (3, 5, None), (7, 3, None), (3, 6, 20_000), (3, 9, 20_000)])
def test_field_ops_match_digit_reference(p, m, samples):
    F = field_create(p, m)
    if samples is None:
        a, b = np.divmod(np.arange(F.q * F.q), F.q)
    else:
        a, b = np.random.default_rng(F.q).integers(0, F.q, (2, samples))
        a[::7] = 0
        b[::5] = 0
        b[1::3] = _reference_ops(F, 0 * a[1::3], a[1::3])[1]  # b = -a: the sum is zero
    add, sub, mul = (r.tolist() for r in _reference_ops(F, a, b))
    al, bl = a.tolist(), b.tolist()
    assert list(map(F.add, al, bl)) == add
    assert list(map(F.sub, al, bl)) == sub
    assert list(map(F.mul, al, bl)) == mul
    log, exp = F._log, F._exp
    assert [exp[log[x] + log[y]] for x, y in zip(al, bl)] == mul
    units = np.arange(1, F.q)
    every = np.arange(F.q)
    assert list(map(F.neg, range(F.q))) == _reference_ops(F, 0 * every, every)[1].tolist()
    inverses = np.array([F.inv(x) for x in units.tolist()])
    assert (_reference_ops(F, units, inverses)[2] == 1).all()


def _reference_irreducible(coeffs, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    m = _pdeg(coeffs)
    if m <= 0:
        return False
    if m == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    for d in range(1, m // 2 + 1):
        for enc in range(p ** d):
            div = _digits(enc, p, d) + [1]
            if _pdeg(_pmod(coeffs, div, p)) < 0:
                return False
    return True


def test_modulus_is_first_irreducible_primitive_candidate():
    # a primitive modulus is irreducible, so the scan needs no separate irreducibility test
    for p in filter(is_prime, range(2, 1 << 12)):
        m = 1
        while p ** m <= 1 << 12:
            candidates = [_digits(enc, p, m) + [1] for enc in range(p ** m)]
            if p ** m <= 1 << 8:
                for c in candidates:
                    assert not _is_primitive(c, p) or _reference_irreducible(c, p), (p, c)
            first = next(c for c in candidates if _reference_irreducible(c, p) and _is_primitive(c, p))
            assert _find_modulus(p, m) == tuple(first), (p, m)
            m += 1
