"""Combinatorial calculus on subsets of Z_n.

Cyclotomic cosets, dual defining sets, intersection dimensions and BCH
bounds — all pure set arithmetic, no field elements involved.
A DefiningSet carries its modulus n and the coset base q; residues are
always reduced to [0, n) on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain


@dataclass(frozen=True)
class DefiningSet:
    """A subset of Z_n with a coset base q, stored sorted for canonical equality."""

    n: int
    q: int
    elems: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus n = {self.n} must be positive")
        if self.elems and not 0 <= min(self.elems) <= max(self.elems) < self.n:
            raise ValueError(f"elements outside [0, {self.n})")
        if tuple(sorted(set(self.elems))) != self.elems:
            raise ValueError("elements must be sorted and duplicate-free")
        # defining sets key the code and distance memos: hash once, as GF does
        object.__setattr__(self, "_hash", hash((self.n, self.q, self.elems)))

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elems)

    def union(self, other: DefiningSet) -> DefiningSet:
        self._check_compatible(other)
        return defset(self.n, self.q, set(self.elems) | set(other.elems))

    def intersection(self, other: DefiningSet) -> DefiningSet:
        self._check_compatible(other)
        return defset(self.n, self.q, set(self.elems) & set(other.elems))

    def is_coset_closed(self) -> bool:
        return _is_coset_closed(self)

    def _check_compatible(self, other: DefiningSet):
        if self.n != other.n or self.q != other.q:
            raise ValueError(
                f"modulus/base mismatch: (n={self.n}, q={self.q}) vs (n={other.n}, q={other.q})"
            )


@lru_cache(maxsize=None)
def _is_coset_closed(Z: DefiningSet) -> bool:
    s = set(Z.elems)
    return {(i * Z.q) % Z.n for i in s} <= s


def defset(n: int, q: int, elems) -> DefiningSet:
    """Normalized DefiningSet: residues reduced mod n, deduplicated, sorted."""
    return DefiningSet(n, q, tuple(sorted({e % n for e in elems})))


@lru_cache(maxsize=None)
def _coset_table(n: int, q: int) -> tuple[tuple[DefiningSet, ...], tuple[int, ...]]:
    """(cosets, index): the cyclotomic cosets of Z_n under q in the order of
    their least elements, and the number of each residue's coset; one walk
    over Z_n per (n, q), read by every coset query.  Empty for n <= 0."""
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n, q) = {math.gcd(n, q)} != 1 for n = {n}, q = {q}")
    cosets, index = [], [-1] * n
    for i in range(n):
        orbit, j = [], i
        while index[j] < 0:
            index[j] = len(cosets)
            orbit.append(j)
            j = j * q % n
        if orbit:
            cosets.append(defset(n, q, orbit))
    return tuple(cosets), tuple(index)


def cyclotomic_coset(i: int, n: int, q: int) -> DefiningSet:
    """Orbit of i under multiplication by q mod n."""
    return coset_closure((i,), n, q)


def coset_closure(seeds, n: int, q: int) -> DefiningSet:
    """Union of the cyclotomic cosets of all seeds."""
    cosets, index = _coset_table(n, q)
    seeds = defset(n, q, seeds)  # refuses n <= 0
    return defset(n, q, chain.from_iterable(cosets[j].elems for j in {index[i] for i in seeds}))


def coset_partition(n: int, q: int) -> tuple[DefiningSet, ...]:
    """All cyclotomic cosets of Z_n under base q, in the order of their least elements."""
    return _coset_table(n, q)[0]


def coset_closed_subsets(n: int, q: int, a: int = 1):
    """The coset-closed subsets Z of Z_n under q with aZ = Z, for a prime to n:
    the unions of the orbits of the cosets under multiplication by a (every
    subset for a = 1), in the order of their masks over the cosets, walked lazily:
    with the orbits sorted by highest coset, the t-th union holds those at t's bits."""
    cosets, index = _coset_table(n, q)
    orbits, seen = [], 0
    for j in range(len(cosets)):
        orbit, elems, k = 0, [], j
        while not (seen | orbit) >> k & 1:
            orbit |= 1 << k
            elems += cosets[k].elems
            k = index[a * cosets[k].elems[0] % n]
        seen |= orbit
        if orbit:
            orbits.append((orbit, elems))
    orbits.sort(key=lambda o: o[0].bit_length())
    for t in range(1 << len(orbits)):
        yield defset(n, q, chain.from_iterable(e for b, (_, e) in enumerate(orbits) if t >> b & 1))


@lru_cache(maxsize=None)
def euclidean_dual_defset(Z: DefiningSet) -> DefiningSet:
    """Z(C^dual) = Z_n minus the negation of Z mod n."""
    neg = {(-i) % Z.n for i in Z.elems}
    return defset(Z.n, Z.q, set(range(Z.n)) - neg)


def hermitian_dual_defset(Z: DefiningSet) -> DefiningSet:
    """Z_n minus (-q0 * Z mod n), where the code field is GF(q0^2) and Z.q = q0^2."""
    q0 = math.isqrt(Z.q)
    if q0 * q0 != Z.q:
        raise ValueError(f"coset base {Z.q} is not a square; Hermitian duality needs GF(q^2)")
    scaled_neg = {(-q0 * i) % Z.n for i in Z.elems}
    return defset(Z.n, Z.q, set(range(Z.n)) - scaled_neg)


def intersection_dim(Z1: DefiningSet, Z2: DefiningSet) -> int:
    """dim(C1 ∩ C2) = n - |Z1 ∪ Z2|."""
    Z1._check_compatible(Z2)
    return Z1.n - len(Z1.as_set() | Z2.as_set())


def bch_bound(Z: DefiningSet) -> int:
    """1 + length of the longest run of cyclically consecutive elements, n + 1
    for Z = Z_n: the longest piece between absent residues of Z's indicator
    row taken twice round, so that runs through n - 1 -> 0 are whole."""
    present = bytearray(Z.n)
    for i in Z.elems:
        present[i] = 1
    return 1 + min(max(map(len, (present * 2).split(b"\0"))), Z.n)


def rs_defset(n: int, k: int, b: int) -> DefiningSet:
    """{b, ..., b+n-k-1} mod n: consecutive roots of a dimension-k code of length n = q-1."""
    if not 1 <= k <= n:
        raise ValueError(f"dimension k = {k} outside [1, {n}]")
    if b < 0:
        raise ValueError(f"offset b = {b} must be nonnegative")
    return defset(n, n + 1, range(b, b + n - k))

