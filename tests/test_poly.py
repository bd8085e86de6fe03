import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenta.gf import field_create, splitting_field
from quenta import poly as P

from helpers import (
    add,
    defset_from_generator,
    evaluate,
    gcd,
    lcm,
    lcm_many,
    mod,
    monic,
    sub,
    x_pow,
)


F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F9 = field_create(3, 2)


def test_constructor_trims_and_validates():
    f = P.poly(F3, [1, 2, 0, 0])
    assert f.coeffs == (1, 2)
    assert f.deg == 1
    assert P.poly(F3, []).is_zero()
    assert P.poly(F3, [0, 0]).is_zero()
    with pytest.raises(ValueError):
        P.poly(F3, [5])


def test_zero_one_xpow():
    assert P.zero(F3).deg == -1
    assert P.one(F3).coeffs == (1,)
    assert x_pow(F3, 3).coeffs == (0, 0, 0, 1)
    assert x_pow(F3, 2, scale=2).coeffs == (0, 0, 2)


def test_add_sub_mul():
    a = P.poly(F3, [1, 2, 1])
    b = P.poly(F3, [2, 1])
    assert add(a, b).coeffs == (0, 0, 1)
    assert sub(add(a, b), b).coeffs == a.coeffs
    # (1 + x)(1 + x) = 1 + 2x + x^2 over GF(3)
    c = P.poly(F3, [1, 1])
    assert P.mul(c, c).coeffs == (1, 2, 1)
    # over GF(2) the cross terms cancel
    d = P.poly(F2, [1, 1])
    assert P.mul(d, d).coeffs == (1, 0, 1)


def test_mul_by_zero():
    a = P.poly(F9, [3, 1, 7])
    assert P.mul(a, P.zero(F9)).is_zero()
    assert add(a, P.zero(F9)) == a


def test_divmod_identity():
    a = P.poly(F3, [2, 0, 1, 1])
    b = P.poly(F3, [1, 1])
    q, r = P.divmod_poly(a, b)
    assert add(P.mul(q, b), r) == a
    assert r.deg < b.deg
    with pytest.raises(ZeroDivisionError):
        P.divmod_poly(a, P.zero(F3))


def test_monic_and_gcd():
    f = P.poly(F3, [2, 2])
    assert monic(f).coeffs == (1, 1)
    # gcd((x+1)(x+2), (x+1)) = x+1 over GF(3)
    a = P.mul(P.poly(F3, [1, 1]), P.poly(F3, [2, 1]))
    b = P.poly(F3, [1, 1])
    assert gcd(a, b).coeffs == (1, 1)
    assert gcd(P.zero(F3), P.zero(F3)).is_zero()
    assert gcd(a, P.zero(F3)) == monic(a)


def test_lcm():
    a = P.poly(F2, [1, 1])          # x + 1
    b = P.poly(F2, [1, 1, 1])       # x^2 + x + 1
    l = lcm(a, b)
    assert mod(l, a).is_zero() and mod(l, b).is_zero()
    assert l.deg == 3
    assert lcm_many([a, b, a]) == l


def test_evaluate_horner():
    f = P.poly(F3, [1, 0, 2])      # 1 + 2x^2
    assert evaluate(f, 0) == 1
    assert evaluate(f, 1) == 0
    assert evaluate(f, 2) == 0   # 1 + 2*4 = 9 = 0 mod 3
    # evaluation in an extension via the embedding
    g = P.poly(F2, [1, 1])
    ext = field_create(2, 2)
    assert evaluate(g, ext.alpha, ext=ext) == ext.add(1, ext.alpha)


def test_x_pow_n_minus_one():
    f = P.x_pow_n_minus_one(F3, 4)
    assert f.coeffs == (2, 0, 0, 0, 1)
    assert evaluate(f, 1) == 0


def test_minimal_polynomial_gf9_over_gf3():
    ext = splitting_field(3, 8)
    m1 = P.minimal_polynomial(1, 8, F3, ext)
    assert m1.deg == 2 and m1.coeffs[-1] == 1
    # alpha and alpha^3 share a minimal polynomial (coset {1,3})
    assert P.minimal_polynomial(3, 8, F3, ext) == m1
    m0 = P.minimal_polynomial(0, 8, F3, ext)
    assert m0.coeffs == (2, 1)     # x - 1


def test_generator_from_defset_hamming():
    ext = splitting_field(2, 7)
    g = P.generator_from_defset({1, 2, 4}, 7, F2, ext)
    assert g.coeffs == (1, 1, 0, 1)    # x^3 + x + 1
    assert defset_from_generator(g, 7, ext) == frozenset({1, 2, 4})


def test_generator_divides_x_n_minus_one():
    ext = splitting_field(3, 8)
    for Z in [{0}, {1, 3}, {0, 1, 3, 2, 6}, set(range(8))]:
        g = P.generator_from_defset(Z, 8, F3, ext)
        assert g.deg == len(Z)
        assert mod(P.x_pow_n_minus_one(F3, 8), g).is_zero()


def test_generator_rejects_unclosed_set():
    ext = splitting_field(2, 7)
    with pytest.raises(ValueError):
        P.generator_from_defset({1}, 7, F2, ext)   # coset of 1 is {1,2,4}


def test_empty_defset_gives_unit_generator():
    ext = splitting_field(2, 7)
    g = P.generator_from_defset(set(), 7, F2, ext)
    assert g == P.one(F2)


def test_defset_from_generator_rejects_nondivisor():
    ext = splitting_field(2, 7)
    with pytest.raises(ValueError):
        defset_from_generator(P.poly(F2, [1, 0, 1]), 7, ext)


def _rand_poly(field, rng_coeffs):
    return P.poly(field, rng_coeffs)


@given(st.lists(st.integers(0, 8), max_size=6), st.lists(st.integers(0, 8), max_size=4))
@settings(max_examples=300, deadline=None)
def test_divmod_round_trip_hypothesis(ac, bc):
    a, b = P.poly(F9, ac), P.poly(F9, bc)
    if b.is_zero():
        return
    q, r = P.divmod_poly(a, b)
    assert add(P.mul(q, b), r) == a
    assert r.deg < b.deg


@given(st.lists(st.integers(0, 3), max_size=5), st.lists(st.integers(0, 3), max_size=5))
@settings(max_examples=300, deadline=None)
def test_gcd_divides_both_hypothesis(ac, bc):
    a, b = P.poly(F4, ac), P.poly(F4, bc)
    g = gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        assert mod(a, g).is_zero() and mod(b, g).is_zero()


@pytest.mark.parametrize("q,n", [(2, 15), (2, 21), (4, 15), (3, 8)])
def test_generator_is_root_product_for_every_closed_set(q, n):
    from quenta.defset import coset_closed_subsets
    from quenta.gf import field_from_order
    base, ext = field_from_order(q), splitting_field(q, n)
    for Z in coset_closed_subsets(n, q):
        assert P.generator_from_defset(Z.elems, n, base, ext) == P._root_product(Z.elems, n, base, ext)


def test_generator_refusals_keep_their_text():
    ext = splitting_field(2, 7)
    with pytest.raises(ValueError, match=r"^root set \[1, 2\] is not closed under multiplication "
                                         r"by 2 mod 7: product has coefficients outside GF\(2\)$"):
        P.generator_from_defset({1, 9}, 7, F2, ext)
    with pytest.raises(ValueError, match=r"^root set \[1, 2, 4\] is not closed under multiplication "
                                         r"by 4 mod 15: product has coefficients outside GF\(4\)$"):
        P.generator_from_defset({1, 4, 17}, 15, field_create(2, 2), splitting_field(4, 15))
    with pytest.raises(ValueError, match=r"^n = 5 does not divide 7 - 1$"):
        P.generator_from_defset(set(), 5, F2, field_create(7, 1))
