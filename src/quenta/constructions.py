"""Entanglement-assisted code parameters from classical cyclic codes.

Each public function turns classical-code data (defining sets or a small
parameter tuple) into quantum-code parameters [[n, k, d; c]]_q by
defining-set arithmetic: `euclid_pair` (Theorem 1) and `hermitian_code` (its
Hermitian form) count k and c, and `rs_euclid` for its windows of coset base
n + 1; the other cyclic families hand their sets to the first two, the LCD
families as the corollary C1 = C2 = C with an empty hull.  Set arithmetic is
the ground truth throughout: closed-form shortcuts are evaluated alongside
and any disagreement is surfaced as a warning rather than trusted.

Distance kinds are tracked explicitly: consecutive-root families report
exact n-k+1 distances, run-bound families report designed lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .defset import (
    DefiningSet,
    bch_bound,
    coset_closure,
    defset,
    euclidean_dual_defset,
    hermitian_dual_defset,
    rs_defset,
)
from .gf import CrossCheckError, prime_power

EXACT = "exact"
LOWER_BOUND = "lower_bound"


class SingletonViolationError(RuntimeError):
    """A claim with an exact distance above the quantum Singleton bound."""


@dataclass(frozen=True)
class QuentaParams:
    """Parameters [[n, k, d; c]]_q plus provenance for verification."""

    q: int
    n: int
    k: int
    d: int
    d_kind: str
    c: int
    family: str
    case: str
    inputs: tuple[tuple[str, object], ...]
    maximal_entanglement: bool
    warnings: tuple[str, ...] = ()
    defsets: tuple[tuple[str, DefiningSet], ...] = ()

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError(f"k = {self.k} outside [0, n = {self.n}]")
        if not 0 <= self.c <= self.n:
            raise ValueError(f"c = {self.c} outside [0, n = {self.n}]")
        if self.d < 1:
            raise ValueError(f"d = {self.d} must be at least 1")
        if self.d_kind not in (EXACT, LOWER_BOUND):
            raise ValueError(f"unknown d_kind {self.d_kind!r}")
        if self.maximal_entanglement != (self.c == self.n - self.k):
            raise ValueError("maximal_entanglement flag disagrees with c = n - k")

    def defset_named(self, name: str) -> DefiningSet:
        for nm, Z in self.defsets:
            if nm == name:
                return Z
        raise KeyError(name)

    def input_named(self, name: str):
        for nm, v in self.inputs:
            if nm == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True)
class SingletonReport:
    bound: int
    defect: int
    classification: str


def _params(q, n, k, d, d_kind, c, family, case, inputs, warnings=(), defsets=()) -> QuentaParams:
    if prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    warn = list(warnings)
    if k == 0:
        warn.append("degenerate: k = 0")
    if k == n:
        warn.append("degenerate: k = n")
    if c == 0:
        warn.append("degenerate: c = 0")
    return QuentaParams(
        q=q, n=n, k=k, d=d, d_kind=d_kind, c=c, family=family, case=case,
        inputs=tuple(inputs), maximal_entanglement=(c == n - k),
        warnings=tuple(warn), defsets=tuple(defsets),
    )


def singleton(p: QuentaParams) -> SingletonReport:
    """Quantum Singleton bound, defect, and MDS classification."""
    bound = (p.n - p.k + p.c) // 2 + 1
    defect = bound - p.d
    if p.d_kind == EXACT:
        if defect < 0:
            raise SingletonViolationError(
                f"exact distance {p.d} exceeds Singleton bound {bound} for "
                f"[[{p.n},{p.k},{p.d};{p.c}]]_{p.q}"
            )
        cls = "MDS" if defect == 0 else "almost-MDS" if defect == 1 else "near-MDS-or-worse"
    else:
        cls = "indeterminate"
    return SingletonReport(bound=bound, defect=defect, classification=cls)


def combine_min(pairs) -> tuple[int, str]:
    """min over (distance, kind) pairs; exact only when an exact distance attains it."""
    m = min(d for d, _ in pairs)
    exact_floor = min([d for d, k in pairs if k == EXACT], default=None)
    return m, (EXACT if exact_floor == m else LOWER_BOUND)


# ----------------------------------------------------------------------
# Euclidean families
# ----------------------------------------------------------------------

def euclid_pair(Z1: DefiningSet, Z2: DefiningSet, d1: int, d2: int,
                d1_kind: str = EXACT, d2_kind: str = EXACT) -> QuentaParams:
    """Two cyclic codes with defining sets Z1, Z2 -> [[n, k1-t, min(d1,d2); n-k2-t]]."""
    Z1._check_compatible(Z2)
    for nm, Z in (("Z1", Z1), ("Z2", Z2)):
        if not Z.is_coset_closed():
            raise ValueError(f"{nm} is not closed under multiplication by {Z.q} mod {Z.n}")
    n, q = Z1.n, Z1.q
    k1, k2 = n - len(Z1), n - len(Z2)
    t = len(euclidean_dual_defset(Z1).as_set() & Z2.as_set())
    d, d_kind = combine_min([(d1, d1_kind), (d2, d2_kind)])
    return _params(
        q, n, k1 - t, d, d_kind, n - k2 - t,
        family="euclid-pair", case="",
        inputs=(("n", n), ("q", q), ("Z1", Z1.elems), ("Z2", Z2.elems),
                ("d1", d1), ("d2", d2), ("t", t)),
        defsets=(("Z1", Z1), ("Z2", Z2)),
    )


def euclid_lcd(Z: DefiningSet, d: int, d_kind: str = EXACT) -> QuentaParams:
    """An LCD cyclic code gives [[n, k, d; n-k]]: euclid_pair(Z, Z) with hull t = 0."""
    if not Z.is_coset_closed():
        raise ValueError(f"Z is not closed under multiplication by {Z.q} mod {Z.n}")
    p = euclid_pair(Z, Z, d, d, d_kind, d_kind)
    hull = p.input_named("t")
    if hull:
        raise ValueError(f"Z is not Euclidean LCD: hull dimension {hull} != 0")
    return replace(p, family="euclid-lcd",
                   inputs=(("n", p.n), ("q", p.q), ("Z", Z.elems), ("d", d)),
                   defsets=(("Z", Z),))


def rs_euclid(q: int, n: int, k1: int, b1: int, k2: int, b2: int) -> QuentaParams:
    """Two consecutive-root MDS codes -> QUENTA parameters, two cases on k1-b1 vs b2."""
    if not 0 < k1 < n:
        raise ValueError(f"k1 = {k1} outside (0, n = {n})")
    if not 0 < k2 < n:
        raise ValueError(f"k2 = {k2} outside (0, n = {n})")
    if not 0 <= b1 <= k1:
        raise ValueError(f"b1 = {b1} outside [0, k1 = {k1}]")
    if b2 < 0:
        raise ValueError(f"b2 = {b2} must be nonnegative")
    if b1 + b2 > k2 + 1:
        raise ValueError(f"b1 + b2 = {b1 + b2} exceeds k2 + 1 = {k2 + 1}")
    if n > q:
        raise ValueError(f"n = {n} exceeds field size q = {q}")
    Z1 = rs_defset(n, k1, b1)
    Z2 = rs_defset(n, k2, b2)
    t = len(euclidean_dual_defset(Z1).intersection(Z2))
    warnings = []
    if k1 - b1 >= b2:
        case = "k1-b1>=b2"
        t_closed = k1 - (b1 + b2) + 1
    else:
        case = "k1-b1<b2"
        t_closed = 0
    if t != t_closed:
        warnings.append(
            f"closed-form intersection {t_closed} differs from set arithmetic {t}; "
            "using set arithmetic"
        )
    if b1 == 0 or b2 == 0:
        warnings.append("b = 0 boundary: dual root window does not contain 0")
    # Combining [n,k1,n-k1+1] with [n,k2,n-k2+1] gives min(d1,d2) = n-max(k1,k2)+1.
    # The n-min(k1,k2)+1 variant exceeds the Singleton bound whenever k1 != k2.
    d = n - max(k1, k2) + 1
    if k1 != k2:
        warnings.append(
            f"stated distance {n - min(k1, k2) + 1} would exceed the Singleton bound; "
            f"using min(d1, d2) = {d}"
        )
    return _params(
        q, n, k1 - t, d, EXACT, n - k2 - t,
        family="rs-euclid", case=case,
        inputs=(("q", q), ("n", n), ("k1", k1), ("b1", b1), ("k2", k2), ("b2", b2), ("t", t)),
        warnings=warnings,
        defsets=(("Z1", Z1), ("Z2", Z2)),
    )


def rs_euclid_mds(q: int, n: int, k: int, b: int) -> QuentaParams:
    """Self-paired consecutive-root code: MDS [[n, 2b-1, n-k+1; n+2b-2k-1]]."""
    if not 0 < k < n:
        raise ValueError(f"k = {k} outside (0, n = {n})")
    if n > q:
        raise ValueError(f"n = {n} exceeds field size q = {q}")
    if not 0 < b:
        raise ValueError(f"b = {b} must be positive")
    if 2 * b > k + 1:
        raise ValueError(f"b = {b} exceeds (k + 1)/2 = {(k + 1) / 2}")
    c = n + 2 * b - 2 * k - 1
    if c < 0:
        raise ValueError(
            f"entanglement count n + 2b - 2k - 1 = {c} is negative; needs n >= 2(k - b) + 1"
        )
    base = rs_euclid(q, n, k, b, k, b)
    kq = 2 * b - 1
    if (base.k, base.c) != (kq, c):
        raise CrossCheckError(
            f"stated parameters ({kq}, {c}) disagree with set arithmetic ({base.k}, {base.c})"
        )
    return _params(
        q, n, kq, n - k + 1, EXACT, c,
        family="rs-mds", case=base.case,
        inputs=(("q", q), ("n", n), ("k", k), ("b", b)),
        defsets=base.defsets,
    )


def bch_euclid(q: int, a: int, b: int) -> QuentaParams:
    """Run-bound pair at length q^2 - 1; k and c from set arithmetic, formulas checked."""
    if q <= 2:
        raise ValueError(f"q = {q} must exceed 2")
    if not 0 <= a <= q - 1:
        raise ValueError(f"a = {a} outside [0, q - 1 = {q - 1}]")
    if not 1 <= b <= q:
        raise ValueError(f"b = {b} outside [1, q = {q}]")
    if a >= q - b and b == q:
        raise ValueError(f"cell a = {a} >= q - b with b = q is not covered; refusing")
    n = q * q - 1
    Z1_dual = coset_closure(range(a + 1), n, q)
    Z2 = coset_closure([q - i for i in range(1, b + 1)], n, q)
    if len(Z1_dual) != 2 * a + 1:
        raise CrossCheckError(f"|union of cosets 0..{a}| = {len(Z1_dual)} != 2a + 1")
    if len(Z2) != 2 * b - b // q:
        raise CrossCheckError(f"|union of cosets q-b..q-1| = {len(Z2)} != 2b - floor(b/q)")
    Z1 = euclidean_dual_defset(Z1_dual)
    p = euclid_pair(Z1, Z2, b + 1, b + 1, LOWER_BOUND, LOWER_BOUND)
    warnings = []
    if a >= q - b:
        case = "a>=q-b"
        stated = (2 * (q - b) - 1, 2 * (q - a - 1))
    else:
        case = "a<q-b"
        stated = (2 * a + 1, 2 * b - b // q)
    if (p.k, p.c) != stated:
        warnings.append(f"stated (k, c) = {stated} differs from set arithmetic ({p.k}, {p.c})")
    return replace(p, family="bch-euclid", case=case,
                   inputs=(("q", q), ("a", a), ("b", b), ("t", p.input_named("t"))),
                   warnings=(*warnings, *p.warnings),
                   defsets=(("Z1", Z1), ("Z2", Z2), ("Z1_dual", Z1_dual)))


# ----------------------------------------------------------------------
# Hermitian families
# ----------------------------------------------------------------------

def hermitian_code(q: int, Z: DefiningSet, d: int, d_kind: str = EXACT) -> QuentaParams:
    """A cyclic code over GF(q^2) -> [[n, k-s, d; n-k-s]]_q with s the hull size."""
    if Z.q != q * q:
        raise ValueError(f"Z has coset base {Z.q}, expected q^2 = {q * q}")
    if not Z.is_coset_closed():
        raise ValueError(f"Z is not closed under multiplication by {Z.q} mod {Z.n}")
    n = Z.n
    k = n - len(Z)
    s = len(Z.intersection(hermitian_dual_defset(Z)))
    return _params(
        q, n, k - s, d, d_kind, n - k - s,
        family="hermitian", case="",
        inputs=(("q", q), ("n", n), ("Z", Z.elems), ("d", d), ("s", s)),
        defsets=(("Z", Z),),
    )


def hermitian_lcd(q: int, Z: DefiningSet, d: int, d_kind: str = EXACT) -> QuentaParams:
    """A Hermitian LCD cyclic code over GF(q^2) -> maximal [[n, k, d; n-k]]_q (s = 0)."""
    p = hermitian_code(q, Z, d, d_kind)
    s = p.input_named("s")
    if s:
        raise ValueError(f"Z is not Hermitian LCD: hull dimension {s} != 0")
    return replace(p, family="hermitian-lcd", inputs=p.inputs[:-1])


def _rs_hermit_index_sets(q: int, t: int, r: int) -> tuple[frozenset[int], frozenset[int]]:
    """The two explicit index sets (code and Hermitian dual) mod q^2."""
    zc = {q * i + j for i in range(q - t - 1) for j in range(q)}
    zc |= {(q - t - 1) * q + j for j in range(q - r - 1)}
    zh = {q * i + j for i in range(q) for j in range(t)}
    zh |= {q * i + t for i in range(r + 1)}
    return frozenset(zc), frozenset(zh)


def rs_hermit(q: int, t: int, r: int) -> QuentaParams:
    """Index-set arithmetic at length q^2 (k = qt + r): two MDS cases."""
    if t < 1:
        raise ValueError(f"t = {t} must be at least 1")
    if not 0 <= r <= q - 1:
        raise ValueError(f"r = {r} outside [0, q - 1 = {q - 1}]")
    k_classical = q * t + r
    if k_classical >= q * q:
        raise ValueError(f"k = qt + r = {k_classical} must be below q^2 = {q * q}")
    n = q * q
    zc, zh = _rs_hermit_index_sets(q, t, r)
    s_brute = len(zc & zh)
    if t >= q - r - 1:
        case = "t>=q-r-1"
        s_closed = (q - t - 1) * (t + 1) + q - r - 1
        kq = (t + 1) ** 2 - 2 * (q - r) + 1
        c = (q - t - 1) ** 2 + 1
    else:
        case = "t<q-r-1"
        s_closed = (q - t) * t + r + 1
        kq = t * t - 1
        c = (q - t) ** 2 - 2 * r - 1
    if s_brute != s_closed:
        raise CrossCheckError(
            f"index-set intersection {s_brute} disagrees with closed form {s_closed} "
            f"for (q, t, r) = ({q}, {t}, {r})"
        )
    d = q * (q - t) - r + 1
    return _params(
        q, n, kq, d, EXACT, c,
        family="rs-hermit", case=case,
        inputs=(("q", q), ("t", t), ("r", r), ("s", s_brute)),
        defsets=(("Z", defset(n, n, zc)), ("Z_hermitian_dual", defset(n, n, zh))),
    )


def bch_hermit(q: int, a: int) -> QuentaParams:
    """Coset family at length q^4 - 1 over GF(q^2): [[n, n-4(a-1)-3, >=a+1; 1]]."""
    if q < 3:
        raise ValueError(f"q = {q} must be at least 3")
    if not 2 <= a <= q * q - 1:
        raise ValueError(f"a = {a} outside [2, q^2 - 1 = {q * q - 1}]")
    n = q ** 4 - 1
    base = q * q
    c1 = coset_closure([base + 1], n, base)
    if len(c1) != 1:
        raise CrossCheckError(f"|coset of {base + 1}| = {len(c1)} != 1")
    Z = coset_closure([0, base + 1], n, base)
    for i in range(2, a + 1):
        ci = coset_closure([base + i], n, base)
        if len(ci) != 2:
            raise CrossCheckError(f"|coset of {base + i}| = {len(ci)} != 2")
        Z = Z.union(ci)
    if len(Z) != 2 * a:
        raise CrossCheckError(f"|Z| = {len(Z)} != 2a = {2 * a}")
    run = bch_bound(Z)
    if run < a + 1:
        raise CrossCheckError(f"consecutive-root bound {run} below designed {a + 1}")
    p = hermitian_code(q, Z, a + 1, LOWER_BOUND)
    warnings = []
    stated = (n - 4 * (a - 1) - 3, 1)
    if (p.k, p.c) != stated:
        warnings.append(f"stated (k, c) = {stated} differs from set arithmetic ({p.k}, {p.c})")
    return replace(p, family="bch-hermit",
                   inputs=(("q", q), ("a", a), ("s", p.input_named("s"))),
                   warnings=(*warnings, *p.warnings))


# ----------------------------------------------------------------------
# LCD cyclic family at length q^{2m} - 1
# ----------------------------------------------------------------------

def lcd_cyclic_family(q: int, m: int, delta: int) -> QuentaParams:
    """Closed-form maximal-entanglement family at n = q^{2m} - 1.

    m odd uses a four-branch dimension formula keyed on delta (branch and
    its (u, v) parameters are echoed); m even uses a single closed form.
    """
    if m < 2:
        raise ValueError(f"m = {m} must be at least 2")
    delta_max = q ** (2 * ((m + 1) // 2)) + 1
    if not 2 <= delta <= delta_max:
        raise ValueError(f"delta = {delta} outside [2, {delta_max}]")
    n = q ** (2 * m) - 1
    kappa = q ** (2 * m) - 2 - 2 * (delta - 1 - (delta - 1) // (q * q)) * m
    d = delta + 1 + (delta - 1) // q
    inputs = [("q", q), ("m", m), ("delta", delta), ("kappa", kappa)]
    if m % 2 == 0:
        c = 2 * (delta - 1 - (delta - 1) // (q * q)) * m + 1
        return _params(
            q, n, kappa, d, LOWER_BOUND, c,
            family="li-lcd", case="m-even", inputs=inputs,
        )
    # with u = delta // q^m in 1..q-1, branch 2 takes u·q^m <= delta <=
    # (u + 1)(q^m - 1) and branch 3 the u deltas after it, (u + 1)(q^m - 1) +
    # v + 1 for 0 <= v < u; branch 4 takes q^(m+1) and q^(m+1) + 1
    qm = q ** m
    if delta < qm:
        k, case = kappa, "branch1"
    elif delta < q ** (m + 1):
        u = delta // qm
        v = delta - (u + 1) * (qm - 1) - 1
        inputs.append(("u", u))
        if v < 0:
            k, case = kappa + u * u * m, "branch2"
        else:
            k, case = kappa + (u * u + 2 * v + 1) * m, "branch3"
            inputs.append(("v", v))
    else:
        k, case = kappa + q * q * m, "branch4"
    return _params(
        q, n, k, d, LOWER_BOUND, n - k,
        family="li-lcd", case=case, inputs=inputs,
    )
