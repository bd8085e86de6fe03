"""Independent brute-force verification of predicted code parameters.

Every quantity a construction claims is re-measured here from a different
route: entanglement counts as ranks of parity-check products, cross-checked
against the dimension identity; intersections, hulls and dimensions read
back from that identity; distances by exhaustive enumeration of the code,
or of its dual when that is smaller (the MacWilliams identity gives the
code's weights from the dual's), falling back to the consecutive-root bound
when q^k exceeds the cap, whichever side is enumerated.  A Hermitian code C
over GF(q0^2) is measured as the Euclidean pair (C, C^q0), because its
Hermitian dual is the Euclidean dual of its Frobenius image.  Skips are
first-class report rows, never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple

from . import constructions as cons
from .code import (
    DEFAULT_DISTANCE_CAP,
    EnumerationCapError,
    LinearCode,
    Matrix,
    cyclic_code,
    min_distance_exhaustive,
    product,
    rank,
    stacked_rank,
    transpose,
)
from .constructions import EXACT, LOWER_BOUND, QuentaParams, combine_min
from .defset import DefiningSet, bch_bound, coset_closed_subsets, defset
from .gf import GF, CrossCheckError, ModulusError, field_from_order, splitting_field

DEFAULT_MATRIX_CAP = 100
RELATIVE_DISTANCE_CAP = 1 << 10
# distinct cyclic codes kept with their distances.  Bounded, unlike the light
# memos: a LinearCode is heavy, and some grids never repeat one (rs-mds at
# q = 97 builds 1,176 distinct codes, hermitian at q = 4, n = 15 builds 32,768)
_CODE_MEMO_SIZE = 1024

SKIPPED = "skipped_cap"
LOWER_OK = "lower_bound_ok"


class ReportRow(NamedTuple):
    name: str
    predicted: int
    measured: int | None
    kind: str  # exact | lower_bound_ok | skipped_cap
    passed: bool
    note: str = ""


class VerificationReport(NamedTuple):
    family: str
    case: str
    inputs: tuple[tuple[str, object], ...]
    rows: tuple[ReportRow, ...]
    passed: bool
    notes: tuple[str, ...] = ()


def _exact_row(name, predicted, measured, note=""):
    return ReportRow(name, predicted, measured, EXACT, predicted == measured, note)


def _skip_row(name, predicted, note):
    return ReportRow(name, predicted, None, SKIPPED, True, note)


def _finish(p: QuentaParams, rows, notes=()) -> VerificationReport:
    passed = all(r.passed for r in rows if r.kind != SKIPPED)
    return VerificationReport(p.family, p.case, p.inputs, tuple(rows), passed, tuple(notes))


# ----------------------------------------------------------------------
# rank oracles
# ----------------------------------------------------------------------

def _entanglement_rank(C1: LinearCode, G2: Matrix, H2: Matrix) -> int:
    """rk(H1 H2^T) for C1 with parity check H1 and C2 with generator G2 and
    parity check H2, cross-checked against dim C1-dual minus dim(C1-dual ∩ C2),
    that is rk[H1; G2] - dim C2.  The stack's rank reduces G2 against the
    echelon of H1 that C1 kept from its own rank check (stacked_rank)."""
    r = rank(product(C1.H, transpose(H2)))
    # H1 and G2 are full row rank (LinearCode checked it): only the stack needs ranking
    identity = stacked_rank(C1, G2) - G2.nrows
    if r != identity:
        raise CrossCheckError(f"rank {r} != dimension identity {identity}")
    return r


def entanglement_rank_euclid(C1: LinearCode, C2: LinearCode) -> int:
    """rk(H1 H2^T), cross-checked against dim C1-dual minus the intersection."""
    if C1.field != C2.field or C1.n != C2.n:
        raise ValueError("codes must share field and length")
    return _entanglement_rank(C1, C2.G, C2.H)


def entanglement_rank_hermitian(C: LinearCode, q0: int) -> int:
    """rk(H H*), cross-checked against dim of the Hermitian dual minus the hull.

    H* is the transpose of H^q0, the parity check of C^q0, so this is the
    Euclidean count of the pair (C, C^q0).  Frobenius maps the hull
    C ∩ (C^q0)-dual onto C-dual ∩ C^q0, so the identity's intersection is
    the hull's dimension."""
    if C.field.q != q0 * q0:
        raise ValueError(f"field of size {C.field.q} is not GF({q0}^2)")
    return _entanglement_rank(C, *C.frobenius_images)


def relative_min_weight(C: LinearCode, M, cap: int = RELATIVE_DISTANCE_CAP):
    """Min weight over codewords of C that are NOT in the kernel of M.

    The weight of the first row of C's light basis B outside ker M, read from
    one product B·M^T.  Exact: if c is a lightest word outside ker M, of
    weight w, every lighter word lies in ker M, and the rows of B of weight at
    most w span c, so one of them lies outside ker M.  Returns None when every
    codeword lies in the kernel (empty difference), or the string "capped"
    when q^k exceeds the small-enumeration cap.
    """
    if C.field.q ** C.k > cap:
        return "capped"
    B, weights = C.light_basis
    S = product(B, transpose(M))
    outside = S.lanes if S.lanes is not None else map(any, S.rows)
    return next((w for w, s in zip(weights, outside) if s), None)


def _relative_capped_note(C: LinearCode) -> str:
    q, k = C.field.q, C.k
    return (f"relative distance not enumerated: q^k = {q}^{k} = {q ** k} "
            f"exceeds cap {RELATIVE_DISTANCE_CAP}")


# ----------------------------------------------------------------------
# distance measurement with cap fallback
# ----------------------------------------------------------------------

def _code_distance(C: LinearCode, Z: DefiningSet, distance_cap: int):
    """(value, kind): the exact distance, or the run bound under the cap.  When
    q^k is within both RELATIVE_DISTANCE_CAP and distance_cap, d is the first
    weight of the code's light basis, which its relative weights also read."""
    if C.field.q ** C.k <= min(RELATIVE_DISTANCE_CAP, distance_cap):
        return min(C.light_basis[1], default=C.n + 1), EXACT
    try:
        return min_distance_exhaustive(C, distance_cap), EXACT
    except EnumerationCapError:
        return bch_bound(Z), LOWER_BOUND


@lru_cache(maxsize=_CODE_MEMO_SIZE)
def _measured_cyclic_code(Z: DefiningSet, base: GF, ext: GF, distance_cap: int):
    """(code, (distance, kind)) of the cyclic code of Z, built and measured once
    per key: a sweep's pairs and instances share few distinct codes."""
    C = cyclic_code(Z, base, ext)
    return C, _code_distance(C, Z, distance_cap)


@lru_cache(maxsize=_CODE_MEMO_SIZE ** 2)  # every ordered pair of memoised codes
def _relative_weight(Z1: DefiningSet, Z2: DefiningSet, base: GF, ext: GF, distance_cap: int):
    """relative_min_weight(C1, C2.G) for the memoised codes of Z1 and Z2: a pair
    sweep needs it at (Z1, Z2) and again, as the second weight, at (Z2, Z1)."""
    C1 = _measured_cyclic_code(Z1, base, ext, distance_cap)[0]
    C2 = _measured_cyclic_code(Z2, base, ext, distance_cap)[0]
    return relative_min_weight(C1, C2.G)


def _d_row(p: QuentaParams, measured, measured_kind) -> ReportRow:
    if p.d_kind == EXACT:
        if measured_kind == EXACT:
            return _exact_row("d", p.d, measured)
        if measured >= p.d:
            return ReportRow("d", p.d, measured, LOWER_OK, True,
                             "enumeration capped; run bound meets the exact claim")
        return _skip_row("d", p.d, "enumeration capped; run bound below the exact claim")
    # claimed lower bound
    if measured >= p.d:
        return ReportRow("d", p.d, measured, LOWER_OK, True,
                         "exhaustive" if measured_kind == EXACT else "run bound")
    if measured_kind == EXACT:
        return ReportRow("d", p.d, measured, LOWER_OK, False, "exhaustive below claim")
    return _skip_row("d", p.d, "enumeration capped; run bound below claim")


# ----------------------------------------------------------------------
# per-family verification
# ----------------------------------------------------------------------

def verify_instance(p: QuentaParams, matrix_cap: int = DEFAULT_MATRIX_CAP,
                    distance_cap: int = DEFAULT_DISTANCE_CAP) -> VerificationReport:
    """Re-measure every quantity of a constructed instance by brute force."""
    return _family(p.family).verify(p, matrix_cap, distance_cap)


def _materialize_base(q: int, n: int, matrix_cap: int):
    """(base_field, ext_field) or (None, reason); q is a prime power.

    gf memoises both fields, and drops them whenever the modulus overrides
    change.  The base field is built first, so that a bad override of its
    modulus raises even when n exceeds the matrix cap.
    """
    base = field_from_order(q)
    if n > matrix_cap:
        return None, f"n = {n} exceeds matrix cap {matrix_cap}"
    if math.gcd(n, base.p) != 1:
        return None, f"gcd(n, q) != 1 for n = {n}, q = {q}"
    try:
        ext = splitting_field(q, n)
    except ModulusError:
        raise  # an override of the extension's modulus is as bad as the base's
    except ValueError as exc:
        return None, f"splitting field unavailable: {exc}"
    return (base, ext), None


def _skip_rank_rows(p: QuentaParams, pred_int: int, lcd: bool, reason) -> VerificationReport:
    """The k, c, intersection, d (and, for LCD, hull) rows, all skipped for one reason."""
    names = [("k", p.k), ("c", p.c), ("intersection", pred_int), ("d", p.d)]
    if lcd:
        names.append(("hull", 0))
    return _finish(p, [_skip_row(nm, pred, reason) for nm, pred in names])


def _rank_rows(p: QuentaParams, pred_int: int, lcd: bool, C1: LinearCode, k2: int,
               c_rank: int, d) -> list[ReportRow]:
    """The k, c, intersection, hull (LCD only) and d rows of the pair (C1, C2), k2 = dim C2.

    The entanglement rank asserted c = dim C1-dual - the intersection (the hull if LCD);
    pred_int reads the claim the same way, as |Z1| - c, since dim C1-dual = |Z1|."""
    inter = C1.H.nrows - c_rank
    rows = [
        _exact_row("k", p.k, C1.k + k2 - p.n + c_rank),
        _exact_row("c", p.c, c_rank),
        _exact_row("intersection", pred_int, inter),
    ]
    if lcd:
        rows.append(_exact_row("hull", 0, inter))
    rows.append(_d_row(p, *d))
    return rows


def _verify_euclid(p: QuentaParams, matrix_cap, distance_cap, *,
                   lcd: bool = False) -> VerificationReport:
    """Pair verifier; ``lcd`` adds the hull row.  A Reed-Solomon window of
    length n != q - 1, whose coset base n + 1 is not q, is skipped (formula mode)."""
    if lcd:
        Z1 = Z2 = p.defset_named("Z")
    else:
        Z1, Z2 = p.defset_named("Z1"), p.defset_named("Z2")
    n, q = p.n, p.q
    pred_int = len(Z1) - p.c
    if Z1.q != q:
        return _skip_rank_rows(p, pred_int, lcd,
                               f"formula mode (n = {n} != q - 1): not materialized")
    made, reason = _materialize_base(q, n, matrix_cap)
    if made is None:
        return _skip_rank_rows(p, pred_int, lcd, reason)
    base, ext = made

    C1, d1 = _measured_cyclic_code(Z1, base, ext, distance_cap)
    C2, d2 = _measured_cyclic_code(Z2, base, ext, distance_cap)
    c_rank = entanglement_rank_euclid(C1, C2)
    rows = _rank_rows(p, pred_int, lcd, C1, C2.k, c_rank, combine_min([d1, d2]))

    notes = []
    rel1 = _relative_weight(Z1, Z2, base, ext, distance_cap)
    rel2 = _relative_weight(Z2, Z1, base, ext, distance_cap)
    if "capped" in (rel1, rel2):
        notes.append(_relative_capped_note(C1 if C1.k >= C2.k else C2))
    else:
        vals = [v for v in (rel1, rel2) if v is not None]
        joint = min(vals) if vals else None
        notes.append(
            f"relative distances outside the dual intersections: {rel1}, {rel2} "
            f"(combined {joint}; claimed d = {p.d})"
        )
    return _finish(p, rows, notes)


def _verify_hermitian(p: QuentaParams, matrix_cap, distance_cap, *,
                      lcd: bool = False) -> VerificationReport:
    """Single-code verifier over GF(q^2), as the pair (C, C^q); ``lcd`` adds the hull row."""
    Z = p.defset_named("Z")
    q0 = p.q
    pred_int = len(Z) - p.c
    made, reason = _materialize_base(q0 * q0, p.n, matrix_cap)
    if made is None:
        return _skip_rank_rows(p, pred_int, lcd, reason)
    base, ext = made

    C, d = _measured_cyclic_code(Z, base, ext, distance_cap)
    c_rank = entanglement_rank_hermitian(C, q0)
    rows = _rank_rows(p, pred_int, lcd, C, C.k, c_rank, d)

    notes = []
    rel = relative_min_weight(C, C.frobenius_images[0])
    if rel == "capped":
        notes.append(_relative_capped_note(C))
    else:
        notes.append(f"relative distance outside the Hermitian hull: {rel} (claimed d = {p.d})")
    return _finish(p, rows, notes)


def _verify_rs_hermit(p: QuentaParams, *_caps) -> VerificationReport:
    """k, c and the intersection from the two index sets the instance carries;
    the predicted intersection is the echoed s, which rs_hermit holds to its
    closed form."""
    q = p.input_named("q")
    t = p.input_named("t")
    r = p.input_named("r")
    n = q * q
    s_brute = len(p.defset_named("Z").intersection(p.defset_named("Z_hermitian_dual")))
    k_cl = q * t + r
    rows = [
        _exact_row("k", p.k, k_cl - s_brute),
        _exact_row("c", p.c, n - k_cl - s_brute),
        _exact_row("intersection", p.input_named("s"), s_brute),
        _skip_row("d", p.d, "non-cyclic length"),
    ]
    return _finish(p, rows)


def _verify_closed_form(p: QuentaParams, *_caps) -> VerificationReport:
    rows = [
        _skip_row("k", p.k, "closed form only; classical generators not materialized"),
        _exact_row("c", p.c, p.n - p.k, "maximal-entanglement arithmetic"),
        _skip_row("d", p.d, "classical generators not materialized"),
    ]
    return _finish(p, rows)


# ----------------------------------------------------------------------
# the family registry and its sweeps
# ----------------------------------------------------------------------

def _rs_length(q: int, n: int | None) -> int:
    return q - 1 if n is None else n


def _subsets(n: int | None, base: int, a: int = 1) -> Iterable[DefiningSet]:
    """The coset-closed subsets Z under base with aZ = Z, walked lazily: the LCD
    sets are those with -Z = Z (Euclidean) or -qZ = Z (Hermitian), Yang & Massey 1994."""
    if n is None:
        raise ValueError("family needs n")
    return coset_closed_subsets(n, base, a)


def _euclid_pair_grid(q, n, **_):
    bounded = [(Z, bch_bound(Z)) for Z in _subsets(n, q)]
    for Z1, d1 in bounded:
        for Z2, d2 in bounded:
            yield cons.euclid_pair(Z1, Z2, d1, d2, LOWER_BOUND, LOWER_BOUND)


def _euclid_lcd_grid(q, n, **_):
    for Z in _subsets(n, q, -1):
        yield cons.euclid_lcd(Z, bch_bound(Z), LOWER_BOUND)


def _rs_euclid_grid(q, n, **_):
    n = _rs_length(q, n)
    for k1 in range(1, n):
        for b1 in range(0, k1 + 1):
            for k2 in range(1, n):
                for b2 in range(0, k2 + 1 - b1 + 1):
                    yield cons.rs_euclid(q, n, k1, b1, k2, b2)


def _rs_mds_grid(q, n, **_):
    n = _rs_length(q, n)
    for k in range(1, n):
        for b in range(1, (k + 1) // 2 + 1):
            if n + 2 * b - 2 * k - 1 >= 0:
                yield cons.rs_euclid_mds(q, n, k, b)


def _bch_euclid_grid(q, **_):
    for a in range(q):
        for b in range(1, q + 1):
            if not (a >= q - b and b == q):
                yield cons.bch_euclid(q, a, b)


def _hermitian_grid(q, n, **_):
    for Z in _subsets(n, q * q):
        yield cons.hermitian_code(q, Z, bch_bound(Z), LOWER_BOUND)


def _hermitian_lcd_grid(q, n, **_):
    for Z in _subsets(n, q * q, -q):
        yield cons.hermitian_lcd(q, Z, bch_bound(Z), LOWER_BOUND)


def _rs_hermit_grid(q, **_):
    for t in range(1, q):
        for r in range(q):
            if q * t + r < q * q:
                yield cons.rs_hermit(q, t, r)


def _bch_hermit_grid(q, a_values, **_):
    values = a_values if a_values is not None else range(2, q * q)
    for a in values:
        yield cons.bch_hermit(q, a)


def _li_lcd_grid(q, m, delta_values, **_):
    if m is None:
        raise ValueError("family needs m")
    delta_max = q ** (2 * ((m + 1) // 2)) + 1
    values = delta_values if delta_values is not None else range(2, delta_max + 1)
    for delta in values:
        yield cons.lcd_cyclic_family(q, m, delta)


@dataclass(frozen=True)
class Family:
    """One construction family: its CLI inputs, sweep grid, verifier and constructor."""

    name: str
    required: tuple[str, ...]  # construct inputs, in the order a missing-flag error names them
    grid: Callable[..., Iterable[QuentaParams]]  # (q=, n=, m=, a_values=, delta_values=)
    verify: Callable[[QuentaParams, int, int], VerificationReport]  # (p, matrix_cap, distance_cap)
    construct: Callable[..., QuentaParams]  # from the parsed CLI arguments


FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("euclid-pair", ("n", "q", "z1", "z2", "d1", "d2"), _euclid_pair_grid, _verify_euclid,
           lambda a: cons.euclid_pair(defset(a.n, a.q, a.z1), defset(a.n, a.q, a.z2),
                                      a.d1, a.d2, a.d1_kind, a.d2_kind)),
    Family("euclid-lcd", ("n", "q", "z", "d"), _euclid_lcd_grid, partial(_verify_euclid, lcd=True),
           lambda a: cons.euclid_lcd(defset(a.n, a.q, a.z), a.d, a.d_kind)),
    Family("rs-euclid", ("q", "k1", "b1", "k2", "b2"), _rs_euclid_grid, _verify_euclid,
           lambda a: cons.rs_euclid(a.q, _rs_length(a.q, a.n), a.k1, a.b1, a.k2, a.b2)),
    Family("rs-mds", ("q", "k", "b"), _rs_mds_grid, _verify_euclid,
           lambda a: cons.rs_euclid_mds(a.q, _rs_length(a.q, a.n), a.k, a.b)),
    Family("bch-euclid", ("q", "a", "b"), _bch_euclid_grid, _verify_euclid,
           lambda a: cons.bch_euclid(a.q, a.a, a.b)),
    Family("hermitian", ("q", "n", "z", "d"), _hermitian_grid, _verify_hermitian,
           lambda a: cons.hermitian_code(a.q, defset(a.n, a.q * a.q, a.z), a.d, a.d_kind)),
    Family("hermitian-lcd", ("q", "n", "z", "d"), _hermitian_lcd_grid,
           partial(_verify_hermitian, lcd=True),
           lambda a: cons.hermitian_lcd(a.q, defset(a.n, a.q * a.q, a.z), a.d, a.d_kind)),
    Family("rs-hermit", ("q", "t", "r"), _rs_hermit_grid, _verify_rs_hermit,
           lambda a: cons.rs_hermit(a.q, a.t, a.r)),
    Family("bch-hermit", ("q", "a"), _bch_hermit_grid, _verify_hermitian,
           lambda a: cons.bch_hermit(a.q, a.a)),
    Family("li-lcd", ("q", "m", "delta"), _li_lcd_grid, _verify_closed_form,
           lambda a: cons.lcd_cyclic_family(a.q, a.m, a.delta)),
)}


def _family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name]


def instances(family: str, q: int, n: int | None = None, m: int | None = None,
              a_values=None, delta_values=None) -> list[QuentaParams]:
    """Deterministic (lexicographic) legal parameter sweep for one family."""
    return list(_family(family).grid(q=q, n=n, m=m, a_values=a_values,
                                     delta_values=delta_values))


def sweep(family: str, q: int, n: int | None = None, m: int | None = None,
          a_values=None, delta_values=None,
          matrix_cap: int = DEFAULT_MATRIX_CAP,
          distance_cap: int = DEFAULT_DISTANCE_CAP) -> list[VerificationReport]:
    """verify_instance over the family's legal parameter grid, in grid order."""
    return [
        verify_instance(p, matrix_cap, distance_cap)
        for p in instances(family, q, n=n, m=m, a_values=a_values, delta_values=delta_values)
    ]
