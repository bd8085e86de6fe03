import dataclasses
import inspect
from types import SimpleNamespace

import pytest

from quenta import constructions as cons
from quenta import defset as defset_module
from quenta import code as code_module
from quenta import oracle
from quenta.code import Matrix, cyclic_code
from quenta.defset import (
    bch_bound,
    coset_closed_subsets,
    defset,
    euclidean_dual_defset,
    hermitian_dual_defset,
)
from quenta.gf import CrossCheckError, field_create, field_from_order, splitting_field
from quenta.oracle import (
    LOWER_OK,
    SKIPPED,
    entanglement_rank_euclid,
    entanglement_rank_hermitian,
    instances,
    relative_min_weight,
    sweep,
    verify_instance,
)

from helpers import hermitian_hull_dim, intersection_dim

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)


def rows_by_name(report):
    return {r.name: r for r in report.rows}


# ----------------------------------------------------------------------
# rank oracles
# ----------------------------------------------------------------------

def test_rank_euclid_full_space_is_zero():
    ext = splitting_field(2, 7)
    C = cyclic_code(defset(7, 2, set()), F2, ext)
    assert entanglement_rank_euclid(C, C) == 0


def test_rank_euclid_hamming_vs_simplex_defset():
    ext = splitting_field(2, 7)
    C1 = cyclic_code(defset(7, 2, {1, 2, 4}), F2, ext)
    C2 = cyclic_code(defset(7, 2, {3, 5, 6}), F2, ext)
    assert entanglement_rank_euclid(C1, C2) == 3


def test_rank_euclid_matches_formula_count():
    p = cons.bch_euclid(3, 1, 1)
    ext = splitting_field(3, 8)
    C1 = cyclic_code(p.defset_named("Z1"), F3, ext)
    C2 = cyclic_code(p.defset_named("Z2"), F3, ext)
    assert entanglement_rank_euclid(C1, C2) == p.c == 2


def test_rank_euclid_rejects_mismatch():
    ext = splitting_field(2, 7)
    C1 = cyclic_code(defset(7, 2, {0}), F2, ext)
    C2 = cyclic_code(defset(3, 2, {0}), F2, splitting_field(2, 3))
    with pytest.raises(ValueError):
        entanglement_rank_euclid(C1, C2)


def test_rank_hermitian_small():
    ext = splitting_field(4, 3)
    C = cyclic_code(defset(3, 4, {1}), F4, ext)
    assert entanglement_rank_hermitian(C, 2) == 1


def test_rank_hermitian_self_orthogonal_dual_is_zero():
    # Z = {1,4} at n=5: the dual is Hermitian self-orthogonal, so H H* = 0
    ext = splitting_field(4, 5)
    C = cyclic_code(defset(5, 4, {1, 4}), F4, ext)
    assert entanglement_rank_hermitian(C, 2) == 0


def test_rank_hermitian_length_80():
    F9 = field_create(3, 2)
    ext = splitting_field(9, 80)
    C = cyclic_code(defset(80, 9, {0, 10, 11, 19}), F9, ext)
    assert entanglement_rank_hermitian(C, 3) == 1


@pytest.mark.parametrize("q0,n", [(2, 3), (2, 5), (2, 15), (3, 8), (3, 13)])
def test_rank_hermitian_matches_kernel_route_hull(q0, n):
    # the pair (C, C^q0) counts what the Hermitian dual built by kernel_basis does
    base, ext = field_from_order(q0 * q0), splitting_field(q0 * q0, n)
    for Z in coset_closed_subsets(n, q0 * q0):
        C = cyclic_code(Z, base, ext)
        assert entanglement_rank_hermitian(C, q0) == C.H.nrows - hermitian_hull_dim(C, q0)


def test_rank_cross_check_raises_on_mismatch(monkeypatch):
    # over GF(4), with lane rows, and over GF(81), without
    codes = [(cyclic_code(defset(n, q, {1}), field_from_order(q), splitting_field(q, n)), q0)
             for q, q0, n in ((4, 2, 3), (81, 9, 5))]
    for C, q0 in codes:
        entanglement_rank_hermitian(C, q0)
        entanglement_rank_euclid(C, C)
    # drop G2's rows from rk[H1; G2]: the identity then reads rk(H1) - dim C2 < 0
    stacked_rank = code_module.stacked_rank
    monkeypatch.setattr(oracle, "stacked_rank",
                        lambda C1, M: stacked_rank(C1, Matrix(M.field, [], M.ncols)))
    for C, q0 in codes:
        with pytest.raises(CrossCheckError, match="dimension identity"):
            entanglement_rank_hermitian(C, q0)
        with pytest.raises(CrossCheckError, match="dimension identity"):
            entanglement_rank_euclid(C, C)


# ----------------------------------------------------------------------
# relative weight enumeration
# ----------------------------------------------------------------------

def test_relative_weight_empty_difference_is_none():
    ext = splitting_field(2, 7)
    C = cyclic_code(defset(7, 2, {1, 2, 4}), F2, ext)
    # every codeword is annihilated by its own parity check
    assert relative_min_weight(C, C.H) is None


def test_relative_weight_full_space():
    C = cyclic_code(defset(3, 2, set()), F2, splitting_field(2, 3))
    M = Matrix(F2, [(1, 1, 1)], 3)
    # words with odd overlap against 111: minimum is a single 1
    assert relative_min_weight(C, M) == 1


def test_relative_weight_capped():
    ext = splitting_field(2, 7)
    C = cyclic_code(defset(7, 2, {1, 2, 4}), F2, ext)
    assert relative_min_weight(C, Matrix(F2, [(0,) * 7], 7), cap=10) == "capped"


def test_relative_weight_zero_map_sees_whole_code():
    ext = splitting_field(2, 7)
    C = cyclic_code(defset(7, 2, {1, 2, 4}), F2, ext)
    # nothing is outside the kernel of the zero map
    assert relative_min_weight(C, Matrix(F2, [(0,) * 7], 7)) is None


# ----------------------------------------------------------------------
# instance verification
# ----------------------------------------------------------------------

def _fields_and_defaults(cls):
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


def test_report_types_are_immutable_with_pinned_fields():
    none = inspect.Parameter.empty
    assert _fields_and_defaults(oracle.ReportRow) == [
        ("name", none), ("predicted", none), ("measured", none), ("kind", none),
        ("passed", none), ("note", "")]
    assert _fields_and_defaults(oracle.VerificationReport) == [
        ("family", none), ("case", none), ("inputs", none), ("rows", none),
        ("passed", none), ("notes", ())]
    assert oracle.ReportRow("k", 1, 1, "exact", True).note == ""
    assert oracle.VerificationReport("f", "c", (), (), True).notes == ()
    report = verify_instance(instances("euclid-pair", 2, 7)[21])
    for value in (report, *report.rows):
        for name, _ in _fields_and_defaults(type(value)):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))


def test_verify_bch_euclid_golden():
    rep = verify_instance(cons.bch_euclid(3, 1, 1))
    assert rep.passed
    rows = rows_by_name(rep)
    assert rows["k"].kind == "exact" and rows["k"].measured == 3
    assert rows["c"].measured == 2
    assert rows["intersection"].passed
    assert rows["d"].kind == LOWER_OK and rows["d"].measured >= 2


def test_verify_rs_mds_golden():
    rep = verify_instance(cons.rs_euclid_mds(7, 6, 3, 2))
    assert rep.passed
    rows = rows_by_name(rep)
    assert rows["d"].kind == "exact"
    assert rows["d"].measured == 4
    assert all(r.passed for r in rep.rows)


def test_verify_euclid_lcd_has_hull_row():
    rep = verify_instance(cons.euclid_lcd(defset(7, 2, {0}), 2))
    rows = rows_by_name(rep)
    assert rows["hull"].measured == 0
    assert rep.passed


# the verify sweeps of the benchmark's verify-mix, pairs-gf2 and hermitian-gf4
# workloads that have an intersection row of their own, and a formula-mode window
_PREDICTION_SWEEPS = [
    ("bch-euclid", 3, None), ("rs-euclid", 7, None), ("rs-mds", 7, None), ("bch-hermit", 3, None),
    ("euclid-pair", 2, 7), ("euclid-lcd", 2, 15), ("hermitian", 2, 5), ("hermitian-lcd", 2, 5),
    ("euclid-pair", 2, 15), ("hermitian-lcd", 2, 15), ("rs-euclid", 9, 4),
]


@pytest.mark.parametrize("family, q, n", _PREDICTION_SWEEPS)
def test_predicted_intersection_matches_the_defining_set_arithmetic(family, q, n):
    # the oracle reads the intersection |Z1| - c from the claim; Theorem 1's
    # set arithmetic, which it replaced, must give the same number
    reports = sweep(family, q, n=n)
    assert reports
    for p, rep in zip(instances(family, q, n=n), reports, strict=True):
        if family.startswith(("hermitian", "bch-hermit")):
            Z = p.defset_named("Z")
            want = len(Z.intersection(hermitian_dual_defset(Z)))
        elif family == "euclid-lcd":
            want = intersection_dim(euclidean_dual_defset(p.defset_named("Z")), p.defset_named("Z"))
        else:
            want = intersection_dim(euclidean_dual_defset(p.defset_named("Z1")),
                                    p.defset_named("Z2"))
        assert rows_by_name(rep)["intersection"].predicted == want, p.inputs


def test_verify_rs_hermit_skips_distance():
    rep = verify_instance(cons.rs_hermit(2, 1, 0))
    assert rep.passed
    rows = rows_by_name(rep)
    assert rows["k"].passed and rows["c"].passed and rows["intersection"].passed
    assert rows["d"].kind == SKIPPED
    assert "non-cyclic length" in rows["d"].note


def test_verify_li_lcd_checks_arithmetic_only():
    rep = verify_instance(cons.lcd_cyclic_family(2, 3, 2))
    assert rep.passed
    rows = rows_by_name(rep)
    assert rows["k"].kind == SKIPPED
    assert rows["c"].kind == "exact" and rows["c"].passed
    assert rows["d"].kind == SKIPPED


def test_verify_rs_euclid_formula_mode_skips():
    rep = verify_instance(cons.rs_euclid(7, 5, 2, 1, 2, 1))
    assert rep.passed
    assert all(r.kind == SKIPPED for r in rep.rows)
    assert "formula mode" in rep.rows[0].note


def test_verify_non_prime_power_skips():
    with pytest.raises(ValueError, match="q = 6 is not a prime power"):
        cons.bch_euclid(6, 1, 1)
    with pytest.raises(ValueError, match="q = 10 is not a prime power"):
        instances("rs-euclid", 10)


def test_verify_respects_matrix_cap():
    rep = verify_instance(cons.bch_euclid(3, 1, 1), matrix_cap=5)
    assert all(r.kind == SKIPPED for r in rep.rows)
    assert "matrix cap" in rep.rows[0].note


def test_verify_distance_cap_falls_back_to_run_bound():
    rep = verify_instance(cons.bch_euclid(3, 1, 1), distance_cap=1)
    rows = rows_by_name(rep)
    # run bounds still at or above the claimed lower bound
    assert rows["d"].kind == LOWER_OK
    assert rows["d"].note == "run bound"
    assert rows["k"].passed  # rank rows unaffected by the distance cap


def test_verify_honest_failure_on_wrong_claim():
    # deliberately overclaim an exact distance: the even-weight code has d = 2
    p = cons.euclid_lcd(defset(7, 2, {0}), 3)
    rep = verify_instance(p)
    assert not rep.passed
    rows = rows_by_name(rep)
    assert rows["d"].kind == "exact" and not rows["d"].passed


def test_relative_distance_note_present_on_small_instances():
    rep = verify_instance(cons.rs_euclid_mds(7, 6, 3, 2))
    assert any("relative distance" in note for note in rep.notes)


def test_relative_distance_note_says_when_capped():
    rep = verify_instance(cons.euclid_lcd(defset(15, 2, {0}), 2))
    assert rep.notes == ("relative distance not enumerated: q^k = 2^14 = 16384 exceeds cap 1024",)
    rep = verify_instance(cons.hermitian_lcd(2, defset(15, 4, {3, 6, 9, 12}), 2))
    assert rep.notes == ("relative distance not enumerated: q^k = 4^11 = 4194304 exceeds cap 1024",)


def test_euclid_pair_grid_bounds_each_subset_once(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "bch_bound", lambda Z: calls.append(Z) or bch_bound(Z))
    grid = instances("euclid-pair", 2, n=15)
    assert len(calls) == len(list(coset_closed_subsets(15, 2)))
    assert len(grid) == len(calls) ** 2


def test_euclid_pair_grid_derives_each_subset_once():
    # each pair needs Z1's Euclidean dual and the closedness of Z1 and Z2
    defset_module.euclidean_dual_defset.cache_clear()
    defset_module._is_coset_closed.cache_clear()
    grid = instances("euclid-pair", 2, n=31)
    subsets = list(coset_closed_subsets(31, 2))
    assert len(subsets) == 128
    assert len(grid) == len(subsets) ** 2
    assert defset_module.euclidean_dual_defset.cache_info().misses == len(subsets)
    assert defset_module._is_coset_closed.cache_info().misses == len(subsets)


def test_euclid_pair_sweep_builds_and_measures_each_code_once(monkeypatch):
    # one enumeration per code serves both its distance and its relative
    # weights, and weighs each of its 2^k - 1 nonzero words once
    built, enumerated, weighed = [], [], []
    real, weights = code_module._word_blocks, code_module._Words.weights
    monkeypatch.setattr(oracle, "cyclic_code",
                        lambda Z, base, ext: built.append(Z) or cyclic_code(Z, base, ext))
    monkeypatch.setattr(code_module, "_word_blocks",
                        lambda M: enumerated.append(M) or real(M))
    monkeypatch.setattr(code_module._Words, "weights",
                        lambda L, X, N: weighed.append(N) or weights(L, X, N))
    oracle._measured_cyclic_code.cache_clear()
    oracle._relative_weight.cache_clear()
    reports = sweep("euclid-pair", 2, n=7)
    subsets = list(coset_closed_subsets(7, 2))
    assert len(reports) == len(subsets) ** 2
    assert len(built) == len(set(built)) == len(enumerated) == len(subsets)
    assert set(built) == set(subsets)
    assert sum(weighed) == sum(2 ** (7 - len(Z.elems)) - 1 for Z in subsets)
    assert all(r.passed for r in reports)


def test_lowered_distance_cap_falls_back_to_the_run_bound():
    # with distance_cap = 4 only codes with 2^k <= 4 are enumerated: a pair of
    # larger codes reads the run bound, a pair of smaller ones is exhaustive
    oracle._measured_cyclic_code.cache_clear()
    grid = instances("euclid-pair", 2, n=7)
    reports = sweep("euclid-pair", 2, n=7, distance_cap=4)
    notes = {"exhaustive": 0, "run bound": 0}
    for p, rep in zip(grid, reports):
        ks = [7 - len(p.defset_named(name)) for name in ("Z1", "Z2")]
        d = rows_by_name(rep)["d"]
        assert rep.passed and d.kind == LOWER_OK
        if max(ks) <= 2:
            assert d.note == "exhaustive"
        elif min(ks) >= 3:
            assert (d.note, d.measured) == ("run bound", p.d)
        notes[d.note] += 1
    assert min(notes.values()) > 0


def test_pair_grid_of_256_codes_builds_each_code_once(monkeypatch):
    # the first 512 instances pair two Z1 with every Z2: each code is needed twice
    built = []
    monkeypatch.setattr(oracle, "cyclic_code",
                        lambda Z, base, ext: built.append(Z) or cyclic_code(Z, base, ext))
    oracle._measured_cyclic_code.cache_clear()
    oracle._relative_weight.cache_clear()
    grid = instances("euclid-pair", 5, n=12)
    assert len(grid) == 256 ** 2
    assert all(verify_instance(p).passed for p in grid[:512])
    assert len(built) == len(set(built)) == 256


def test_hermitian_sweep_builds_no_dual_code(monkeypatch):
    # the Hermitian count is the Euclidean pair (C, C^q): no kernel_basis per instance
    calls = []
    real = code_module.kernel_basis
    monkeypatch.setattr(code_module, "kernel_basis", lambda M: calls.append(M) or real(M))
    oracle._measured_cyclic_code.cache_clear()
    reports = sweep("hermitian-lcd", 2, n=15) + sweep("hermitian", 3, n=8)
    assert len(reports) == 64 + 256
    assert all(r.passed and rows_by_name(r)["c"].kind == "exact" for r in reports)
    assert calls == []


def test_euclid_pair_sweep_weighs_each_ordered_pair_once(monkeypatch):
    # pair (Z1, Z2) needs rel(C1, C2.G) and rel(C2, C1.G); pair (Z2, Z1) needs them again
    calls = []
    monkeypatch.setattr(oracle, "relative_min_weight",
                        lambda C, M: calls.append((C.G, M)) or relative_min_weight(C, M))
    oracle._measured_cyclic_code.cache_clear()
    oracle._relative_weight.cache_clear()
    reports = sweep("euclid-pair", 2, n=7)
    subsets = list(coset_closed_subsets(7, 2))
    assert len(reports) == len(calls) == len(subsets) ** 2 == 64
    assert len(set(calls)) == len(calls)


def test_euclid_pair_sweep_builds_one_light_basis_per_code(monkeypatch):
    # every relative weight of a code is read from its one light basis
    built = []
    real = code_module._light_basis
    monkeypatch.setattr(code_module, "_light_basis",
                        lambda G: built.append(G) or real(G))
    oracle._measured_cyclic_code.cache_clear()
    oracle._relative_weight.cache_clear()
    reports = sweep("euclid-pair", 2, n=7)
    subsets = list(coset_closed_subsets(7, 2))
    assert len(reports) == len(subsets) ** 2
    assert 0 < len(built) == len(set(built)) <= len(subsets)


def test_euclid_pair_sweep_reduces_each_generator_once(monkeypatch):
    # G is reduced once, by its rank check: the light basis reduces words, not G
    codes, reduced = [], []
    echelon = code_module._echelon

    def building(Z, base, ext):
        codes.append(cyclic_code(Z, base, ext))
        return codes[-1]

    def reducing(M, kept=None):
        if kept is None:  # a full reduction, not one into a kept echelon
            reduced.append(M)
        return echelon(M, kept)

    monkeypatch.setattr(oracle, "cyclic_code", building)
    monkeypatch.setattr(code_module, "_echelon", reducing)
    oracle._measured_cyclic_code.cache_clear()
    oracle._relative_weight.cache_clear()
    reports = sweep("euclid-pair", 2, n=15)
    assert len(reports) == 1024 and all(r.passed for r in reports)
    assert len(codes) == 32
    assert sum("light_basis" in vars(C) for C in codes) == 25
    assert [sum(M is C.G for M in reduced) for C in codes] == [1] * 32


def test_pair_grid_of_256_codes_weighs_each_ordered_pair_once(monkeypatch):
    # the weight lookups of verify --family euclid-pair --q 5 --n 12 in grid
    # order: (Z1, Z2), then (Z2, Z1) far later in the grid, for every pair
    calls = []
    monkeypatch.setattr(oracle, "_measured_cyclic_code", lambda Z, *_: (SimpleNamespace(G=Z), None))
    monkeypatch.setattr(oracle, "relative_min_weight", lambda C, M: calls.append(C) or 0)
    base, ext = field_create(5, 1), splitting_field(5, 12)
    codes = list(oracle._subsets(12, 5))
    oracle._relative_weight.cache_clear()
    try:
        for Z1 in codes:
            for Z2 in codes:
                oracle._relative_weight(Z1, Z2, base, ext, 1 << 22)
                oracle._relative_weight(Z2, Z1, base, ext, 1 << 22)
    finally:
        oracle._relative_weight.cache_clear()
    assert len(codes) == 256 and len(calls) == 256 ** 2


@pytest.mark.parametrize("family, q, kw", [
    ("bch-euclid", 3, {}), ("euclid-lcd", 2, {"n": 15}), ("hermitian", 2, {"n": 5}),
    ("bch-hermit", 3, {}), ("rs-hermit", 4, {}), ("li-lcd", 2, {"m": 3})])
def test_a_sweep_without_notes_has_the_same_rows_and_no_notes(family, q, kw):
    # one sweep per verifier: notes off drops the relative weights and nothing else
    plain = sweep(family, q, notes=False, **kw)
    full = sweep(family, q, **kw)
    assert plain == [r._replace(notes=()) for r in full]
    assert all(r.notes for r in full) == (family not in ("rs-hermit", "li-lcd"))


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

def test_instances_bch_euclid_coverage():
    ps = instances("bch-euclid", 3)
    assert len(ps) == 6
    assert {(p.input_named("a"), p.input_named("b")) for p in ps} == {
        (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)
    }


def test_instances_rs_families():
    assert len(instances("rs-euclid", 7, n=6)) == 330
    mds = instances("rs-mds", 7, n=6)
    assert len(mds) == 6
    assert all(p.family == "rs-mds" for p in mds)


def test_instances_subset_families():
    assert len(instances("hermitian", 2, n=3)) == 8
    assert len(instances("euclid-lcd", 2, n=15)) == 16
    lcd = instances("li-lcd", 2, m=3)
    assert len(lcd) == 16
    assert {p.case for p in lcd} == {"branch1", "branch2", "branch3", "branch4"}


def test_instances_rejects_unknown_family():
    with pytest.raises(ValueError):
        instances("rs-secret", 7, n=6)


def test_sweep_bch_euclid_all_pass():
    reports = sweep("bch-euclid", 3)
    assert len(reports) == 6
    assert all(r.passed for r in reports)


def test_sweep_hermitian_small_lengths_all_pass():
    for n in (3, 5):
        assert all(r.passed for r in sweep("hermitian", 2, n=n))


def test_sweep_rs_mds_all_pass():
    for q, n in ((7, 6), (5, 4)):
        assert all(r.passed for r in sweep("rs-mds", q, n=n))


def test_sweep_li_lcd_all_pass():
    assert all(r.passed for r in sweep("li-lcd", 2, m=3))


def test_sweep_is_deterministic():
    assert sweep("bch-euclid", 3) == sweep("bch-euclid", 3)


# the ten verify invocations of the criterion-9 set: (family, q, n, m)
_VERIFY_MIX = (
    ("bch-euclid", 3, None, None), ("rs-euclid", 7, None, None), ("rs-mds", 7, None, None),
    ("rs-hermit", 4, None, None), ("bch-hermit", 3, None, None), ("li-lcd", 2, None, 3),
    ("euclid-pair", 2, 7, None), ("euclid-lcd", 2, 15, None), ("hermitian", 2, 5, None),
    ("hermitian-lcd", 2, 5, None),
)


def _perturbed(p, report):
    """(name, claim, rows that must catch it) for each wrong claim derived from
    p that is still well-formed: k + 1, c + 1, (k + 1, c - 1), and an exact d
    one above the measured (or, where d was not measured, the claimed) d."""
    def claim(k, c, **kw):
        if not (0 <= k <= p.n and 0 <= c <= p.n):
            return None
        return dataclasses.replace(p, k=k, c=c, maximal_entanglement=c == p.n - k, **kw)

    d_row = next(r for r in report.rows if r.name == "d")
    d = (d_row.measured if d_row.measured is not None else p.d) + 1
    for name, wrong, rows in (("k+1", claim(p.k + 1, p.c), {"k"}),
                              ("c+1", claim(p.k, p.c + 1), {"c"}),
                              ("k+1,c-1", claim(p.k + 1, p.c - 1), {"k", "c"}),
                              ("d", claim(p.k, p.c, d=d, d_kind=cons.EXACT), {"d"})):
        if wrong is not None:
            yield name, wrong, rows


# (family, perturbation) whose wrong claims are not refuted, because a row they
# change is skipped: li-lcd measures neither k nor d, and rs-hermit and
# bch-hermit (n = 80) do not measure d.  This list may only shrink.
_NOT_MEASURED = {("li-lcd", "k+1,c-1"), ("li-lcd", "d"), ("rs-hermit", "d"), ("bch-hermit", "d")}


def test_perturbed_claims_are_refuted_or_not_measured():
    # every instance of the ten criterion-9 verify invocations passes; with its
    # claim made wrong four ways it must give a failed row, and where it does
    # not, a row for what changed must say that it was not measured
    unrefuted = set()
    for family, q, n, m in _VERIFY_MIX:
        for p in oracle.instances(family, q, n=n, m=m):
            report = verify_instance(p)
            assert report.passed
            for name, wrong, names in _perturbed(p, report):
                wrong_report = verify_instance(wrong)
                if wrong_report.passed:
                    assert any(r.kind == SKIPPED for r in wrong_report.rows if r.name in names)
                    unrefuted.add((family, name))
    assert unrefuted <= _NOT_MEASURED
