import dataclasses
import math
import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenta.defset import (
    DefiningSet,
    bch_bound,
    coset_closed_subsets,
    coset_closure,
    coset_partition,
    cyclotomic_coset,
    defset,
    euclidean_dual_defset,
    hermitian_dual_defset,
    rs_defset,
)

from helpers import intersection_dim, is_lcd_euclidean, is_lcd_hermitian


def test_cyclotomic_cosets_golden():
    assert cyclotomic_coset(1, 8, 3).as_set() == {1, 3}
    assert cyclotomic_coset(2, 8, 3).as_set() == {2, 6}
    assert cyclotomic_coset(0, 8, 3).as_set() == {0}
    assert cyclotomic_coset(1, 7, 2).as_set() == {1, 2, 4}
    assert cyclotomic_coset(3, 7, 2).as_set() == {3, 5, 6}
    assert cyclotomic_coset(1, 3, 2).as_set() == {1, 2}


def test_coset_partition_covers_zn():
    part = coset_partition(8, 3)
    assert tuple(c.elems[0] for c in part) == (0, 1, 2, 4, 5)
    union = set()
    for c in part:
        assert not (union & c.as_set())
        union |= c.as_set()
        assert all(cyclotomic_coset(i, 8, 3) == c for i in c)
    assert union == set(range(8))
    assert cyclotomic_coset(7, 8, 3).as_set() == {5, 7}


def test_partition_requires_coprime():
    with pytest.raises(ValueError):
        coset_partition(8, 2)
    with pytest.raises(ValueError):
        cyclotomic_coset(1, 9, 3)


def _orbit(i, n, q):
    """The orbit of i under multiplication by q mod n, walked residue by residue."""
    orbit, j = set(), i % n
    while j not in orbit:
        orbit.add(j)
        j = j * q % n
    return frozenset(orbit)


def _a_closure(S, n, a):
    """The least superset of S closed under multiplication by a mod n."""
    S = set(S)
    while not {a * i % n for i in S} <= S:
        S |= {a * i % n for i in S}
    return frozenset(S)


_TABLE_CASES = [(n, q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27) for n in range(1, 131)
                if math.gcd(n, q) == 1]


def test_the_coset_table_matches_a_brute_force_orbit_walk():
    rng = random.Random(27)
    for n, q in _TABLE_CASES:
        orbit_of = [_orbit(i, n, q) for i in range(n)]
        brute = sorted(set(orbit_of), key=min)
        part = coset_partition(n, q)
        assert [c.as_set() for c in part] == brute, (n, q)
        assert sorted(i for c in part for i in c) == list(range(n))
        for i in range(-n, 2 * n):
            assert cyclotomic_coset(i, n, q).as_set() == orbit_of[i % n], (i, n, q)
        for _ in range(4):
            seeds = rng.sample(range(-n, 2 * n), rng.randint(0, min(6, 3 * n)))
            expected = frozenset().union(*(orbit_of[i % n] for i in seeds))
            assert coset_closure(seeds, n, q).as_set() == expected, (seeds, n, q)
        for a in (1, -1):
            # the unions of the a-orbits of the cosets, in the order of their masks
            # over the cosets: every union for r <= 8 orbits, and past that the
            # first 256 of all 2^r unions, sorted, for r <= 16
            orbits = {sum(1 << j for j, c in enumerate(brute) if c <= S)
                      for S in {_a_closure(c0, n, a) for c0 in brute}}
            if len(orbits) > 16:
                continue
            masks = [0]
            for o in orbits:
                masks += [m | o for m in masks]
            masks = sorted(masks)[:256]
            expected = [frozenset().union(*(c for j, c in enumerate(brute) if mask >> j & 1))
                        for mask in masks]
            got = [Z.as_set() for Z in islice(coset_closed_subsets(n, q, a), len(masks))]
            assert got == expected, (n, q, a)


@pytest.mark.parametrize("a", [1, -1])
def test_closed_subsets_are_walked_lazily(a):
    # n = 124 under 5 has 44 cosets, 23 orbits under -1: listing every union
    # first would take 2^44 or 2^23 masks
    n, q = 124, 5
    part = coset_partition(n, q)
    assert len(part) == 44
    tracemalloc.start()
    try:
        first = list(islice(coset_closed_subsets(n, q, a), 33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak
    masks = [sum(1 << j for j, c in enumerate(part) if c.as_set() <= Z.as_set()) for Z in first]
    assert masks == sorted(set(masks)) and masks[0] == 0
    for Z in first:
        assert Z.is_coset_closed() and {a * i % n for i in Z} == Z.as_set()
        assert Z.as_set() == frozenset().union(*(c.as_set() for c in part if c.as_set() <= Z.as_set()))
    if a == 1:
        assert masks == list(range(33))


def test_coset_queries_keep_their_refusals():
    for query in (lambda: coset_partition(8, 2), lambda: cyclotomic_coset(1, 8, 2),
                  lambda: coset_closure([1], 8, 2), lambda: list(coset_closed_subsets(8, 2))):
        with pytest.raises(ValueError, match=r"^gcd\(n, q\) = 2 != 1 for n = 8, q = 2$"):
            query()
    for query in (lambda: cyclotomic_coset(1, -3, 2), lambda: coset_closure([1], -3, 2)):
        with pytest.raises(ValueError, match=r"^modulus n = -3 must be positive$"):
            query()
    assert coset_partition(-3, 2) == ()


def test_defset_normalizes():
    Z = defset(8, 3, [9, 1, 1, -7])
    assert Z.as_set() == {1}
    assert len(Z) == 1
    assert 1 in Z and 3 not in Z
    # the constructor itself normalizes: any iterable, reduced, deduplicated, sorted
    direct = DefiningSet(8, 3, iter([12, -1, 4, 7, 3]))
    assert direct.elems == (3, 4, 7) and direct == defset(8, 3, {3, 4, 7})
    assert hash(direct) == hash(defset(8, 3, [7, 4, 3]))
    with pytest.raises(ValueError, match=r"^modulus n = 0 must be positive$"):
        DefiningSet(0, 3, (1,))


def test_defsets_equal_and_hash_by_modulus_base_and_elements():
    Z = defset(15, 2, [8, 1, 4, 2])
    assert Z == defset(15, 2, [2, 4, 1, 8]) and hash(Z) == hash(defset(15, 2, [2, 4, 1, 8]))
    others = [defset(17, 2, [1, 2, 4, 8]), defset(15, 4, [1, 2, 4, 8])]
    assert all(Z != other for other in others)
    assert len({Z, defset(15, 2, [2, 4, 1, 8]), *others}) == 3
    # a copy with another modulus hashes as that set, not as its source
    moved = dataclasses.replace(Z, n=17)
    assert moved == others[0] and hash(moved) == hash(others[0])


def test_coset_closure():
    assert coset_closure([1], 7, 2).as_set() == {1, 2, 4}
    assert coset_closure([0, 1], 8, 3).as_set() == {0, 1, 3}
    assert coset_closure([], 8, 3).as_set() == set()


def test_is_coset_closed():
    assert defset(8, 3, {1, 3}).is_coset_closed()
    assert not defset(8, 3, {1}).is_coset_closed()
    assert defset(8, 3, set()).is_coset_closed()


def test_euclidean_dual_defset():
    # n=7 q=2: Z = {1,2,4}, -Z = {3,5,6}, complement = {0,1,2,4} (the simplex code)
    Z = defset(7, 2, {1, 2, 4})
    assert euclidean_dual_defset(Z).as_set() == {0, 1, 2, 4}
    # Z = {0}: -Z = {0}, dual = Z_7 minus {0}
    assert euclidean_dual_defset(defset(7, 2, {0})).as_set() == {1, 2, 3, 4, 5, 6}
    # empty defining set (full code) dualizes to everything (zero code)
    assert euclidean_dual_defset(defset(7, 2, set())).as_set() == set(range(7))


def test_euclidean_dual_is_involution_on_closed_sets():
    part = coset_partition(15, 2)
    for mask in range(1 << len(part)):
        elems = set()
        for i, c in enumerate(part):
            if mask >> i & 1:
                elems |= c.as_set()
        Z = defset(15, 2, elems)
        assert euclidean_dual_defset(euclidean_dual_defset(Z)) == Z


def test_hermitian_dual_defset():
    # n=3 over GF(4): Z = {1} -> -2*{1} = {1}, dual = {0,2}
    Z = defset(3, 4, {1})
    assert hermitian_dual_defset(Z).as_set() == {0, 2}
    # n=5 over GF(4): Z = {1,4} -> -2*Z = {3,2}, dual = {0,1,4}
    Z = defset(5, 4, {1, 4})
    assert hermitian_dual_defset(Z).as_set() == {0, 1, 4}


def test_hermitian_dual_requires_square_base():
    with pytest.raises(ValueError):
        hermitian_dual_defset(defset(8, 3, {0}))


def test_intersection_dim():
    Z1 = defset(7, 2, {1, 2, 4})
    Z2 = defset(7, 2, {3, 5, 6})
    # dim(C1 cap C2) = n - |Z1 u Z2|
    assert intersection_dim(Z1, Z2) == 1
    assert intersection_dim(Z1, Z1) == 4
    with pytest.raises(ValueError):
        intersection_dim(Z1, defset(8, 3, {0}))


def test_bch_bound():
    assert bch_bound(defset(7, 2, set())) == 1
    assert bch_bound(defset(7, 2, set(range(7)))) == 8
    assert bch_bound(defset(7, 2, {1, 2, 4})) == 3       # run 1,2
    assert bch_bound(defset(7, 2, {0, 1, 2, 4})) == 4    # run 0,1,2
    # wraparound run: {6, 0, 1} is three consecutive residues mod 7
    assert bch_bound(defset(7, 2, {0, 1, 6})) == 4
    assert bch_bound(defset(15, 2, {1, 2, 3, 4})) == 5


def _longest_run(Z):
    """1 + the longest run of residues i, i + 1, ... mod n in Z, tried from every
    start; n + 1 for Z = Z_n."""
    S = Z.as_set()
    best = 0
    for start in range(Z.n):
        length = 0
        while length < Z.n and (start + length) % Z.n in S:
            length += 1
        best = max(best, length)
    return 1 + best


def test_bch_bound_matches_a_run_length_reference():
    rng = random.Random(28)
    # the first three have their longest run across n - 1 -> 0; then Z_1 and the empty set
    wrapped = [defset(7, 2, {5, 6, 0, 1}), defset(10, 3, {9, 0, 3, 4}),
               defset(12, 5, {11, 0, 1, 2, 5, 6, 7}), defset(1, 2, {0}), defset(1, 2, set())]
    assert [bch_bound(Z) for Z in wrapped] == [5, 3, 5, 2, 1]
    cases = wrapped + [defset(n, 2, (i for i in range(n) if rng.random() < p))
                       for n in range(1, 70) for p in (0.3, 0.7, 0.95) for _ in range(8)]
    for Z in cases:
        assert bch_bound(Z) == _longest_run(Z), Z


def test_lcd_predicates():
    # even-weight code at n=7: Z = {0} has trivial hull
    assert is_lcd_euclidean(defset(7, 2, {0}))
    # Hamming Z = {1,2,4} is self-dual-ish: dual defset equals Z, hull = k
    assert not is_lcd_euclidean(defset(7, 2, {1, 2, 4}))
    assert is_lcd_hermitian(defset(3, 4, {0}))
    # the n=5, Z={1,4} code over GF(4) has Hermitian hull dimension 2
    Z = defset(5, 4, {1, 4})
    assert not is_lcd_hermitian(Z)
    assert intersection_dim(Z, hermitian_dual_defset(Z)) == 2


@pytest.mark.parametrize("lcd, q, n", [
    ("hermitian", 2, 15), ("hermitian", 4, 15), ("hermitian", 2, 5), ("hermitian", 3, 26),
    ("hermitian", 3, 10), ("hermitian", 2, 21),
    ("euclidean", 2, 15), ("euclidean", 2, 63), ("euclidean", 3, 13), ("euclidean", 2, 31),
    ("euclidean", 5, 12),
])
def test_lcd_sets_are_orbit_unions(lcd, q, n):
    # the LCD grids enumerate the unions of orbits under -q (cosets under q^2)
    # or -1 (cosets under q); filtering every closed set by the predicate must
    # give the same sets in the same order
    if lcd == "hermitian":
        base, a, is_lcd = q * q, -q, is_lcd_hermitian
    else:
        base, a, is_lcd = q, -1, is_lcd_euclidean
    expected = [Z for Z in coset_closed_subsets(n, base) if is_lcd(Z)]
    assert list(coset_closed_subsets(n, base, a)) == expected


def test_rs_defsets():
    # RS_k(n, b): roots b .. b+n-k-1
    assert rs_defset(6, 3, 1).as_set() == {1, 2, 3}
    assert rs_defset(6, 3, 0).as_set() == {0, 1, 2}
    assert rs_defset(6, 5, 4).as_set() == {4}
    # base is stamped n+1 so every subset is coset-closed
    assert rs_defset(6, 3, 1).q == 7
    assert rs_defset(6, 3, 1).is_coset_closed()
    # dual window: RS_{n-k}(n, n-b+1); for (6, 3, 1), {0,1,2} shifted: b'=n-b+1=6
    assert euclidean_dual_defset(rs_defset(6, 3, 1)).as_set() == {6 % 6, 1, 2}
    assert euclidean_dual_defset(rs_defset(6, 3, 1)).as_set() == {0, 1, 2}
    assert euclidean_dual_defset(rs_defset(6, 2, 0)).as_set() == {1, 2}


def test_rs_defset_ranges():
    with pytest.raises(ValueError):
        rs_defset(6, 0, 1)
    with pytest.raises(ValueError):
        rs_defset(6, 7, 1)
    with pytest.raises(ValueError):
        rs_defset(6, 3, -1)
    # k = n is the full code: empty window
    assert rs_defset(6, 6, 1).as_set() == set()


def test_set_operations_respect_compatibility():
    Z1 = defset(7, 2, {0})
    with pytest.raises(ValueError):
        Z1.union(defset(7, 3, {0}))
    with pytest.raises(ValueError):
        Z1.intersection(defset(8, 2, {0}))


@given(st.sets(st.integers(0, 14), max_size=15))
@settings(max_examples=300, deadline=None)
def test_closure_is_idempotent_hypothesis(seeds):
    Z = coset_closure(seeds, 15, 2)
    assert Z.is_coset_closed()
    assert coset_closure(Z.as_set(), 15, 2) == Z


@given(st.sets(st.integers(0, 14), max_size=15))
@settings(max_examples=300, deadline=None)
def test_hermitian_dual_involution_hypothesis(seeds):
    Z = coset_closure(seeds, 15, 4)
    assert hermitian_dual_defset(hermitian_dual_defset(Z)) == Z
