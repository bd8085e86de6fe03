"""Acceptance gate: nine end-to-end checks with stated budgets.

Each test prints a single PASS line with its elapsed time; a failure
anywhere is a real defect, not a tolerance to loosen.
"""

import math
import time

from quenta import constructions as cons
from quenta.cli import main
from quenta.code import (
    cyclic_code,
    hermitian_dual_code,
    min_distance_exhaustive,
)
from quenta.defset import (
    bch_bound,
    coset_closed_subsets as closed_subsets,
    defset,
    euclidean_dual_defset,
    hermitian_dual_defset,
)
from quenta.gf import field_create, field_from_order, splitting_field
from quenta.oracle import (
    entanglement_rank_euclid,
    entanglement_rank_hermitian,
    instances,
)

from helpers import defining_set_of, dual_code, intersection_dim_matrices


def test_criterion_1_euclidean_duality_and_intersections():
    t0 = time.monotonic()
    pairs_checked = 0
    for q in (2, 3):
        base = field_create(q, 1)
        for n in range(1, 16):
            if math.gcd(n, q) != 1:
                continue
            ext = splitting_field(q, n)
            codes = []
            for Z in closed_subsets(n, q):
                C = cyclic_code(Z, base, ext)
                # brute-force dual (kernel route) against the formula
                assert defining_set_of(dual_code(C), ext) == euclidean_dual_defset(Z)
                codes.append((Z, C))
            for Z1, C1 in codes:
                for Z2, C2 in codes:
                    dim = intersection_dim_matrices(C1.G, C2.G)
                    assert dim == n - len(Z1.union(Z2))
                    pairs_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"PASS criterion 1: Euclidean duality + {pairs_checked} intersection "
          f"pairs, q in {{2,3}}, n <= 15 ({elapsed:.1f}s)")


def test_criterion_2_hermitian_duality():
    t0 = time.monotonic()
    checked = 0
    for q0, n in ((2, 3), (2, 5), (2, 15), (3, 8)):
        base = field_from_order(q0 * q0)
        ext = splitting_field(q0 * q0, n)
        for Z in closed_subsets(n, q0 * q0):
            C = cyclic_code(Z, base, ext)
            D = hermitian_dual_code(C, q0)
            assert defining_set_of(D, ext) == hermitian_dual_defset(Z)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"PASS criterion 2: Hermitian duality on {checked} coset-closed sets "
          f"({elapsed:.1f}s)")


def test_criterion_3_entanglement_rank_equivalence():
    t0 = time.monotonic()
    checked = 0
    code_cache = {}

    def euclid_code(Z, base, ext):
        key = (base.q, Z.n, Z.elems)
        if key not in code_cache:
            code_cache[key] = cyclic_code(Z, base, ext)
        return code_cache[key]

    F3, ext9 = field_create(3, 1), splitting_field(3, 8)
    for p in instances("bch-euclid", 3):
        C1 = euclid_code(p.defset_named("Z1"), F3, ext9)
        C2 = euclid_code(p.defset_named("Z2"), F3, ext9)
        assert entanglement_rank_euclid(C1, C2) == p.c
        checked += 1

    F7 = field_create(7, 1)
    for fam in ("rs-euclid", "rs-mds"):
        for p in instances(fam, 7, n=6):
            C1 = euclid_code(p.defset_named("Z1"), F7, F7)
            C2 = euclid_code(p.defset_named("Z2"), F7, F7)
            assert entanglement_rank_euclid(C1, C2) == p.c
            checked += 1

    F4 = field_create(2, 2)
    for n in (3, 5, 15):
        ext = splitting_field(4, n)
        for fam in ("hermitian", "hermitian-lcd"):
            for p in instances(fam, 2, n=n):
                C = euclid_code(p.defset_named("Z"), F4, ext)
                assert entanglement_rank_hermitian(C, 2) == p.c
                checked += 1

    F9 = field_create(3, 2)
    ext80 = splitting_field(9, 80)
    for p in instances("bch-hermit", 3, a_values=(2, 3, 4)):
        C = euclid_code(p.defset_named("Z"), F9, ext80)
        assert entanglement_rank_hermitian(C, 3) == p.c
        checked += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"PASS criterion 3: closed-form c = rank oracle on {checked} instances "
          f"({elapsed:.1f}s)")


def test_criterion_4_mds_reproduction():
    t0 = time.monotonic()
    rows = 0
    for q, n in ((7, 6), (5, 4)):
        for p in instances("rs-mds", q, n=n):
            assert cons.singleton(p).defect == 0
            k_cl, b = p.input_named("k"), p.input_named("b")
            assert (p.c == p.n - p.k) == (2 * b == k_cl + 1)
            assert p.maximal_entanglement == (2 * b == k_cl + 1)
            rows += 1
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 4: MDS sweep defect 0 on {rows} rows, maximality law "
          f"holds ({elapsed:.1f}s)")


def test_criterion_5_index_set_arithmetic():
    t0 = time.monotonic()
    checked = 0
    for q in (2, 3, 4):
        for t in range(1, q):
            for r in range(q):
                if q * t + r >= q * q:
                    continue
                p = cons.rs_hermit(q, t, r)
                zc, zh = cons._rs_hermit_index_sets(q, t, r)
                s = len(zc & zh)
                if t >= q - r - 1:
                    assert s == (q - t - 1) * (t + 1) + q - r - 1
                    assert p.k == (t + 1) ** 2 - 2 * (q - r) + 1
                    assert p.c == (q - t - 1) ** 2 + 1
                else:
                    assert s == (q - t) * t + r + 1
                    assert p.k == t * t - 1
                    assert p.c == (q - t) ** 2 - 2 * r - 1
                checked += 1
    p = cons.rs_hermit(2, 1, 0)
    assert (p.n, p.k, p.d, p.c) == (4, 1, 3, 1)
    assert cons.singleton(p).defect == 0
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 5: index-set intersections match closed forms on "
          f"{checked} (q,t,r) triples ({elapsed:.1f}s)")


def test_criterion_6_length_80_headline():
    t0 = time.monotonic()
    F9 = field_create(3, 2)
    ext = splitting_field(9, 80)

    p2 = cons.bch_hermit(3, 2)
    assert (p2.n, p2.k, p2.c) == (80, 73, 1)
    assert (p2.d, p2.d_kind) == (3, cons.LOWER_BOUND)
    C = cyclic_code(p2.defset_named("Z"), F9, ext)
    assert entanglement_rank_hermitian(C, 3) == 1
    assert bch_bound(p2.defset_named("Z")) >= 3

    p3 = cons.bch_hermit(3, 3)
    assert (p3.n, p3.k, p3.c) == (80, 69, 1)
    assert (p3.d, p3.d_kind) == (4, cons.LOWER_BOUND)
    assert bch_bound(p3.defset_named("Z")) >= 4

    elapsed = time.monotonic() - t0
    print(f"PASS criterion 6: [[80,73,>=3;1]] and [[80,69,>=4;1]] with rank-1 "
          f"entanglement over GF(9) ({elapsed:.1f}s)")


def test_criterion_7_distance_spot_checks():
    F2 = field_create(2, 1)
    F7 = field_create(7, 1)
    ext = splitting_field(2, 7)
    spots = [
        (cyclic_code(defset(7, 2, {1, 2, 4}), F2, ext), 3, "[7,4] perfect code"),
        (cyclic_code(defset(7, 2, {0, 1, 2, 4}), F2, ext), 4, "[7,3] dual"),
        (cyclic_code(defset(6, 7, {1, 2, 3}), F7, F7), 4, "[6,3] consecutive-root"),
    ]
    for C, expected, label in spots:
        t0 = time.monotonic()
        assert min_distance_exhaustive(C) == expected
        assert time.monotonic() - t0 < 1, label

    bounded = 0
    for q, n in ((2, 7), (2, 15), (3, 8)):
        base = field_create(q, 1)
        ext_n = splitting_field(q, n)
        for Z in closed_subsets(n, q):
            C = cyclic_code(Z, base, ext_n)
            if C.k == 0:
                continue
            assert bch_bound(Z) <= min_distance_exhaustive(C)
            bounded += 1
    print(f"PASS criterion 7: three exact distances < 1 s each; run bound <= "
          f"exhaustive on {bounded} codes")


def test_criterion_8_closed_form_family():
    cases = {}
    for delta in range(2, 18):
        p = cons.lcd_cyclic_family(2, 3, delta)
        assert p.c == p.n - p.k
        assert p.maximal_entanglement
        cases.setdefault(p.case, 0)
        cases[p.case] += 1
    assert set(cases) == {"branch1", "branch2", "branch3", "branch4"}

    p = cons.lcd_cyclic_family(3, 2, 2)
    assert (p.n, p.k, p.d, p.c) == (80, 75, 3, 5)
    assert (p.d_kind, p.case) == (cons.LOWER_BOUND, "m-even")
    print(f"PASS criterion 8: four-branch coverage {dict(sorted(cases.items()))} "
          f"with c = n-k throughout; even-m instance [[80,75,>=3;5]]")


def test_criterion_9_determinism(capsys):
    t0 = time.monotonic()
    invocations = [
        ["verify", "--family", "bch-euclid", "--q", "3"],
        ["verify", "--family", "rs-euclid", "--q", "7"],
        ["verify", "--family", "rs-mds", "--q", "7"],
        ["verify", "--family", "rs-hermit", "--q", "4"],
        ["verify", "--family", "bch-hermit", "--q", "3"],
        ["verify", "--family", "li-lcd", "--q", "2", "--m", "3"],
        ["verify", "--family", "euclid-pair", "--q", "2", "--n", "7"],
        ["verify", "--family", "euclid-lcd", "--q", "2", "--n", "15"],
        ["verify", "--family", "hermitian", "--q", "2", "--n", "5"],
        ["verify", "--family", "hermitian-lcd", "--q", "2", "--n", "5"],
        ["table", "--family", "hermitian", "--q", "2", "--n", "15"],
        ["table", "--family", "bch-euclid", "--q", "3", "--format", "csv"],
    ]
    transcripts = []
    for _ in range(2):
        chunks = []
        for argv in invocations:
            code = main(list(argv))
            assert code == 0, argv
            chunks.append(capsys.readouterr().out)
        transcripts.append("".join(chunks).encode())
    assert transcripts[0] == transcripts[1]
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 9: two consecutive runs of {len(invocations)} "
          f"commands byte-identical ({elapsed:.1f}s)")
