import re

import pytest

from quenta.constructions import (
    EXACT,
    LOWER_BOUND,
    QuentaParams,
    SingletonViolationError,
    bch_euclid,
    bch_hermit,
    euclid_lcd,
    euclid_pair,
    hermitian_code,
    hermitian_lcd,
    lcd_cyclic_family,
    rs_euclid,
    rs_euclid_mds,
    rs_hermit,
    singleton,
    _rs_hermit_index_sets,
)
from quenta.defset import bch_bound, defset, rs_defset
from quenta.gf import prime_power
from quenta.oracle import instances

from helpers import li_lcd_branch_by_search


# ----------------------------------------------------------------------
# Euclidean pair construction
# ----------------------------------------------------------------------

def test_euclid_pair_hamming_with_simplex():
    p = euclid_pair(defset(7, 2, {1, 2, 4}), defset(7, 2, {3, 5, 6}), 3, 3)
    assert (p.n, p.k, p.d, p.c) == (7, 4, 3, 3)
    assert p.q == 2
    assert p.d_kind == EXACT
    assert p.input_named("t") == 0
    assert p.maximal_entanglement          # c = 3 = n - k
    rep = singleton(p)
    assert (rep.bound, rep.defect, rep.classification) == (4, 1, "almost-MDS")


def test_euclid_pair_with_lcd_input_reduces():
    Z = defset(7, 2, {0})
    p = euclid_pair(Z, Z, 2, 2)
    q = euclid_lcd(Z, 2)
    assert (p.n, p.k, p.c) == (q.n, q.k, q.c) == (7, 6, 1)
    assert p.input_named("t") == 0


def test_euclid_pair_rejects_bad_inputs():
    with pytest.raises(ValueError):
        euclid_pair(defset(7, 2, {1}), defset(7, 2, {0}), 1, 1)  # not closed
    with pytest.raises(ValueError):
        euclid_pair(defset(7, 2, {0}), defset(8, 3, {0}), 1, 1)  # incompatible


def test_euclid_pair_min_distance_kind():
    Z = defset(7, 2, {0})
    p = euclid_pair(Z, Z, 5, 2, d1_kind=LOWER_BOUND, d2_kind=EXACT)
    assert (p.d, p.d_kind) == (2, EXACT)
    p = euclid_pair(Z, Z, 2, 5, d1_kind=LOWER_BOUND, d2_kind=EXACT)
    assert (p.d, p.d_kind) == (2, LOWER_BOUND)


# ----------------------------------------------------------------------
# Euclidean LCD shortcut
# ----------------------------------------------------------------------

def test_euclid_lcd_even_weight_code():
    p = euclid_lcd(defset(7, 2, {0}), 2)
    assert (p.n, p.k, p.d, p.c) == (7, 6, 2, 1)
    assert p.maximal_entanglement
    assert p.warnings == ()


def test_euclid_lcd_refuses_nonzero_hull():
    with pytest.raises(ValueError, match="not Euclidean LCD"):
        euclid_lcd(defset(7, 2, {1, 2, 4}), 3)


def test_euclid_lcd_mds_in_mds_out():
    # three consecutive roots at n = 6 over GF(7), trivial hull
    p = euclid_lcd(defset(6, 7, {2, 3, 4}), 4)
    assert (p.n, p.k, p.d, p.c) == (6, 3, 4, 3)
    assert p.maximal_entanglement
    assert singleton(p).classification == "MDS"


def _same_claim(p, parent):
    return ((p.n, p.k, p.d, p.d_kind, p.c, p.maximal_entanglement, p.warnings)
            == (parent.n, parent.k, parent.d, parent.d_kind, parent.c,
                parent.maximal_entanglement, parent.warnings))


@pytest.mark.parametrize("q, n", [(2, 7), (2, 15), (2, 31), (2, 63), (3, 13)])
def test_euclid_lcd_grid_is_euclid_pair_relabelled(q, n):
    grid = instances("euclid-lcd", q, n=n)
    assert grid
    for p in grid:
        Z = p.defset_named("Z")
        parent = euclid_pair(Z, Z, p.d, p.d, p.d_kind, p.d_kind)
        assert parent.input_named("t") == 0
        assert _same_claim(p, parent)
        assert p.defsets == (("Z", Z),) and parent.defsets == (("Z1", Z), ("Z2", Z))
        assert (p.family, p.case) == ("euclid-lcd", "")
        assert p.inputs == (("n", n), ("q", q), ("Z", Z.elems), ("d", p.d))


@pytest.mark.parametrize("q, n", [(2, 5), (2, 15), (3, 10)])
def test_hermitian_lcd_grid_is_hermitian_code_relabelled(q, n):
    grid = instances("hermitian-lcd", q, n=n)
    assert grid
    for p in grid:
        Z = p.defset_named("Z")
        parent = hermitian_code(q, Z, p.d, p.d_kind)
        assert parent.input_named("s") == 0
        assert _same_claim(p, parent)
        assert p.defsets == parent.defsets == (("Z", Z),)
        assert (p.family, p.case) == ("hermitian-lcd", "")
        assert p.inputs == (("q", q), ("n", n), ("Z", Z.elems), ("d", p.d))


def test_lcd_refusals_keep_their_texts():
    def refused(text, build):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            build()

    refused("Z is not closed under multiplication by 2 mod 7",
            lambda: euclid_lcd(defset(7, 2, {1}), 2))
    refused("Z is not Euclidean LCD: hull dimension 3 != 0",
            lambda: euclid_lcd(defset(7, 2, {1, 2, 4}), 3))
    refused("Z is not closed under multiplication by 4 mod 15",
            lambda: hermitian_lcd(2, defset(15, 4, {1}), 2))
    refused("Z has coset base 2, expected q^2 = 4",
            lambda: hermitian_lcd(2, defset(3, 2, {1}), 2))
    refused("Z is not Hermitian LCD: hull dimension 2 != 0",
            lambda: hermitian_lcd(2, defset(5, 4, {1, 4}), 2))


# ----------------------------------------------------------------------
# Consecutive-root (MDS-input) Euclidean families
# ----------------------------------------------------------------------

def test_rs_euclid_disjoint_windows():
    p = rs_euclid(7, 6, 3, 2, 3, 2)
    assert (p.n, p.k, p.d, p.c) == (6, 3, 4, 3)
    assert p.case == "k1-b1<b2"
    assert p.input_named("t") == 0
    assert singleton(p).defect == 0


def test_rs_euclid_overlapping_windows():
    p = rs_euclid(7, 6, 3, 1, 3, 1)
    assert (p.n, p.k, p.d, p.c) == (6, 1, 4, 1)
    assert p.case == "k1-b1>=b2"
    assert p.input_named("t") == 2
    assert singleton(p).defect == 0


def test_rs_euclid_unequal_dimensions_distance():
    p = rs_euclid(7, 6, 4, 1, 2, 1)
    # min(d1, d2) = n - max(k1, k2) + 1, not n - min + 1
    assert p.d == 3
    assert any("Singleton" in w for w in p.warnings)
    assert (p.k, p.c) == (1, 1)


def test_rs_euclid_b_zero_boundary_warns():
    p = rs_euclid(7, 6, 3, 0, 3, 1)
    assert any("b = 0 boundary" in w for w in p.warnings)


def test_rs_euclid_range_errors():
    with pytest.raises(ValueError):
        rs_euclid(7, 6, 0, 0, 3, 1)
    with pytest.raises(ValueError):
        rs_euclid(7, 6, 3, 4, 3, 1)      # b1 > k1
    with pytest.raises(ValueError):
        rs_euclid(7, 6, 3, 2, 3, 3)      # b1 + b2 > k2 + 1
    with pytest.raises(ValueError):
        rs_euclid(5, 6, 3, 1, 3, 1)      # n > q


def test_rs_euclid_agrees_with_generic_pair_everywhere():
    # same defining sets through the generic route: k, c, d must coincide
    n, q = 6, 7
    checked = 0
    for k1 in range(1, n):
        for b1 in range(k1 + 1):
            for k2 in range(1, n):
                for b2 in range(0, k2 + 2 - b1):
                    p = rs_euclid(q, n, k1, b1, k2, b2)
                    g = euclid_pair(
                        rs_defset(n, k1, b1), rs_defset(n, k2, b2),
                        n - k1 + 1, n - k2 + 1,
                    )
                    assert (p.k, p.c, p.d) == (g.k, g.c, g.d)
                    checked += 1
    assert checked > 300


def test_rs_mds_maximal_instance():
    p = rs_euclid_mds(7, 6, 3, 2)
    assert (p.n, p.k, p.d, p.c) == (6, 3, 4, 3)
    assert p.maximal_entanglement
    assert p.family == "rs-mds"
    assert singleton(p).classification == "MDS"


def test_rs_mds_low_entanglement_instance():
    p = rs_euclid_mds(7, 6, 3, 1)
    assert (p.n, p.k, p.d, p.c) == (6, 1, 4, 1)
    assert not p.maximal_entanglement
    assert singleton(p).defect == 0


def test_rs_mds_rejections():
    with pytest.raises(ValueError, match="exceeds"):
        rs_euclid_mds(7, 6, 3, 3)        # 2b > k + 1
    with pytest.raises(ValueError, match="negative"):
        rs_euclid_mds(7, 6, 5, 1)        # c = n + 2b - 2k - 1 < 0
    with pytest.raises(ValueError):
        rs_euclid_mds(7, 6, 3, 0)
    with pytest.raises(ValueError):
        rs_euclid_mds(5, 6, 3, 2)        # n > q


def test_rs_mds_defect_zero_and_maximality_law():
    for q, n in ((7, 6), (5, 4)):
        for k in range(1, n):
            for b in range(1, (k + 1) // 2 + 1):
                if n + 2 * b - 2 * k - 1 < 0:
                    continue
                p = rs_euclid_mds(q, n, k, b)
                assert singleton(p).defect == 0
                assert p.maximal_entanglement == (2 * b == k + 1)


def test_rs_mds_even_k_cannot_take_half_open_b():
    # b = (k+1)/2 is not an integer for even k; nearest legal b stays short of maximal
    with pytest.raises(ValueError):
        rs_euclid_mds(7, 6, 4, 3)        # 2b = 6 > k + 1 = 5
    p = rs_euclid_mds(7, 6, 4, 2)
    assert not p.maximal_entanglement


# ----------------------------------------------------------------------
# Run-bound Euclidean family at n = q^2 - 1
# ----------------------------------------------------------------------

def test_bch_euclid_goldens():
    p = bch_euclid(3, 1, 1)
    assert (p.n, p.k, p.d, p.c) == (8, 3, 2, 2)
    assert p.d_kind == LOWER_BOUND
    assert p.case == "a<q-b"
    assert p.defset_named("Z1_dual").as_set() == {0, 1, 3}
    assert p.defset_named("Z2").as_set() == {2, 6}
    assert p.input_named("t") == 0

    p = bch_euclid(3, 2, 2)
    assert (p.n, p.k, p.d, p.c) == (8, 1, 3, 0)
    assert p.case == "a>=q-b"
    assert p.input_named("t") == 4

    p = bch_euclid(3, 0, 1)
    assert (p.n, p.k, p.d, p.c) == (8, 1, 2, 2)


def test_bch_euclid_rejections():
    with pytest.raises(ValueError):
        bch_euclid(2, 0, 1)
    with pytest.raises(ValueError):
        bch_euclid(3, 3, 1)
    with pytest.raises(ValueError):
        bch_euclid(3, 1, 0)
    with pytest.raises(ValueError, match="not covered"):
        bch_euclid(3, 0, 3)              # a >= q - b with b = q


def test_bch_euclid_stated_formulas_hold():
    for q in (3, 4):
        for a in range(q):
            for b in range(1, q + 1):
                if a >= q - b and b == q:
                    continue
                p = bch_euclid(q, a, b)
                assert not any("stated" in w for w in p.warnings)
                assert p.case == ("a>=q-b" if a >= q - b else "a<q-b")
                assert p.d == b + 1


def test_bch_euclid_is_euclid_pair_on_its_own_defsets():
    for q in range(3, 10):
        if prime_power(q) is None:
            continue
        for a in range(q):
            for b in range(1, q + 1):
                if a >= q - b and b == q:
                    continue
                p = bch_euclid(q, a, b)
                parent = euclid_pair(p.defset_named("Z1"), p.defset_named("Z2"),
                                     b + 1, b + 1, LOWER_BOUND, LOWER_BOUND)
                assert (p.k, p.c, p.d, p.d_kind) == (parent.k, parent.c, parent.d, parent.d_kind)
                assert p.input_named("t") == parent.input_named("t")
                assert p.warnings[len(p.warnings) - len(parent.warnings):] == parent.warnings


# ----------------------------------------------------------------------
# Hermitian constructions
# ----------------------------------------------------------------------

def test_hermitian_small_mds():
    p = hermitian_code(2, defset(3, 4, {1}), 2)
    assert (p.n, p.k, p.d, p.c) == (3, 2, 2, 1)
    assert p.input_named("s") == 0
    assert p.maximal_entanglement
    assert singleton(p).classification == "MDS"


def test_hermitian_empty_defset_degenerates():
    p = hermitian_code(2, defset(5, 4, set()), 1)
    assert (p.n, p.k, p.d, p.c) == (5, 5, 1, 0)
    assert "degenerate: k = n" in p.warnings
    assert "degenerate: c = 0" in p.warnings


def test_hermitian_length_80():
    p = hermitian_code(3, defset(80, 9, {0, 10, 11, 19}), 3, LOWER_BOUND)
    assert (p.n, p.k, p.c) == (80, 73, 1)
    assert p.input_named("s") == 3
    assert p.d_kind == LOWER_BOUND


def test_hermitian_rejects_bad_base_or_unclosed():
    with pytest.raises(ValueError, match="expected q\\^2"):
        hermitian_code(2, defset(3, 2, {1}), 1)
    with pytest.raises(ValueError, match="not closed"):
        hermitian_code(2, defset(15, 4, {1}), 1)


def test_hermitian_lcd_golden():
    p = hermitian_lcd(2, defset(3, 4, {1}), 2)
    assert (p.n, p.k, p.d, p.c) == (3, 2, 2, 1)
    assert p.maximal_entanglement


def test_hermitian_lcd_rejects_positive_hull():
    # Z = {1,4} at n=5: the scaled negation lands on {2,3}, but the dual
    # defining set is {0,1,4}, so the hull has dimension 2 and LCD fails.
    with pytest.raises(ValueError, match="hull dimension 2"):
        hermitian_lcd(2, defset(5, 4, {1, 4}), 2)
    # the plain Hermitian route still accepts the set, with s = 2
    p = hermitian_code(2, defset(5, 4, {1, 4}), 2)
    assert (p.k, p.c) == (1, 0)
    assert p.input_named("s") == 2


# ----------------------------------------------------------------------
# Index-set family at n = q^2
# ----------------------------------------------------------------------

def test_rs_hermit_small_golden():
    p = rs_hermit(2, 1, 0)
    assert (p.n, p.k, p.d, p.c) == (4, 1, 3, 1)
    assert p.case == "t>=q-r-1"
    assert singleton(p).defect == 0


def test_rs_hermit_degenerate_k_zero():
    p = rs_hermit(3, 1, 0)
    assert (p.n, p.k, p.d, p.c) == (9, 0, 7, 3)
    assert p.case == "t<q-r-1"
    assert "degenerate: k = 0" in p.warnings


def test_rs_hermit_index_sets_golden():
    zc, zh = _rs_hermit_index_sets(3, 1, 1)
    assert zc == {0, 1, 2, 3}
    assert zh == {0, 1, 3, 4, 6}
    assert len(zc & zh) == 3
    p = rs_hermit(3, 1, 1)
    assert p.input_named("s") == 3


def test_rs_hermit_closed_forms_hold_exhaustively():
    for q in (2, 3, 4):
        for t in range(1, q):
            for r in range(q):
                if q * t + r >= q * q:
                    continue
                p = rs_hermit(q, t, r)  # raises internally on any mismatch
                assert p.n == q * q
                assert p.d == q * (q - t) - r + 1


def test_rs_hermit_rejections():
    with pytest.raises(ValueError):
        rs_hermit(3, 0, 0)
    with pytest.raises(ValueError):
        rs_hermit(3, 1, 3)
    with pytest.raises(ValueError):
        rs_hermit(3, 3, 0)               # qt + r = q^2


# ----------------------------------------------------------------------
# Run-bound Hermitian family at n = q^4 - 1
# ----------------------------------------------------------------------

def test_bch_hermit_a2():
    p = bch_hermit(3, 2)
    assert (p.n, p.k, p.d, p.c) == (80, 73, 3, 1)
    assert p.d_kind == LOWER_BOUND
    assert p.defset_named("Z").as_set() == {0, 10, 11, 19}
    assert p.input_named("s") == 3
    assert not p.warnings


def test_bch_hermit_a3():
    p = bch_hermit(3, 3)
    assert (p.n, p.k, p.d, p.c) == (80, 69, 4, 1)
    assert p.defset_named("Z").as_set() == {0, 10, 11, 12, 19, 28}


def test_bch_hermit_consecutive_run_covers_design():
    for a in (2, 3, 4):
        p = bch_hermit(3, a)
        assert bch_bound(p.defset_named("Z")) >= a + 1


def test_bch_hermit_agrees_with_generic_hermitian():
    Z = bch_hermit(3, 2).defset_named("Z")
    g = hermitian_code(3, Z, 3, LOWER_BOUND)
    assert (g.k, g.c) == (73, 1)


def test_bch_hermit_rejections():
    with pytest.raises(ValueError):
        bch_hermit(2, 2)
    with pytest.raises(ValueError):
        bch_hermit(3, 1)
    with pytest.raises(ValueError):
        bch_hermit(3, 9)


# ----------------------------------------------------------------------
# Closed-form LCD family at n = q^{2m} - 1
# ----------------------------------------------------------------------

def test_lcd_family_branch1():
    p = lcd_cyclic_family(2, 3, 2)
    assert (p.n, p.k, p.d, p.c) == (63, 56, 3, 7)
    assert p.case == "branch1"
    assert p.maximal_entanglement
    with pytest.raises(KeyError):
        p.input_named("u")


def test_lcd_family_branch2():
    p = lcd_cyclic_family(2, 3, 8)
    assert (p.k, p.case) == (29, "branch2")
    assert p.input_named("u") == 1
    assert p.d == 12


def test_lcd_family_branch3():
    p = lcd_cyclic_family(2, 3, 15)
    assert (p.k, p.case) == (2, "branch3")
    assert (p.input_named("u"), p.input_named("v")) == (1, 0)


def test_lcd_family_branch4():
    for delta in (16, 17):
        p = lcd_cyclic_family(2, 3, delta)
        assert (p.k, p.case) == (2, "branch4")


def test_lcd_family_even_m():
    p = lcd_cyclic_family(3, 2, 2)
    assert (p.n, p.k, p.d, p.c) == (80, 75, 3, 5)
    assert p.case == "m-even"
    assert p.maximal_entanglement


def test_lcd_family_every_delta_is_maximal():
    tags = {}
    for delta in range(2, 18):
        p = lcd_cyclic_family(2, 3, delta)
        assert p.maximal_entanglement
        assert p.c == p.n - p.k
        tags.setdefault(p.case, []).append(delta)
    assert tags["branch1"] == [2, 3, 4, 5, 6, 7]
    assert tags["branch2"] == [8, 9, 10, 11, 12, 13, 14]
    assert tags["branch3"] == [15]
    assert tags["branch4"] == [16, 17]


def test_lcd_family_rejections():
    with pytest.raises(ValueError):
        lcd_cyclic_family(2, 1, 2)
    with pytest.raises(ValueError):
        lcd_cyclic_family(2, 3, 1)
    with pytest.raises(ValueError):
        lcd_cyclic_family(2, 3, 18)      # above q^{2*ceil(m/2)} + 1 = 17


def test_lcd_family_odd_m_branches_match_the_search():
    # every delta for q <= 7 at m = 3 and q <= 3 at m = 5: 4,172 triples
    triples = [(q, m, delta) for m, qs in ((3, (2, 3, 4, 5, 7)), (5, (2, 3)))
               for q in qs for delta in range(2, q ** (m + 1) + 2)]
    assert len(triples) == 4172
    for q, m, delta in triples:
        p = lcd_cyclic_family(q, m, delta)
        inputs = dict(p.inputs)
        found = (p.case, inputs.get("u"), inputs.get("v"))
        assert found == li_lcd_branch_by_search(q, m, delta), (q, m, delta)


# ----------------------------------------------------------------------
# Singleton arithmetic and parameter validation
# ----------------------------------------------------------------------

def test_singleton_goldens():
    rep = singleton(rs_euclid_mds(7, 6, 3, 2))
    assert (rep.bound, rep.defect, rep.classification) == (4, 0, "MDS")
    rep = singleton(euclid_pair(defset(7, 2, {1, 2, 4}), defset(7, 2, {3, 5, 6}), 3, 3))
    assert (rep.bound, rep.defect, rep.classification) == (4, 1, "almost-MDS")
    rep = singleton(hermitian_code(2, defset(5, 4, set()), 1))
    assert (rep.bound, rep.defect) == (1, 0)
    assert singleton(bch_euclid(3, 1, 1)).classification == "indeterminate"


def test_singleton_violation_is_hard_error():
    p = QuentaParams(
        q=2, n=4, k=2, d=4, d_kind=EXACT, c=0, family="euclid-pair", case="",
        inputs=(), maximal_entanglement=False,
    )
    with pytest.raises(SingletonViolationError):
        singleton(p)


def test_params_validation():
    with pytest.raises(ValueError):
        QuentaParams(q=2, n=3, k=4, d=1, d_kind=EXACT, c=0, family="f", case="",
                     inputs=(), maximal_entanglement=False)
    with pytest.raises(ValueError):
        QuentaParams(q=2, n=3, k=1, d=0, d_kind=EXACT, c=0, family="f", case="",
                     inputs=(), maximal_entanglement=False)
    with pytest.raises(ValueError):
        QuentaParams(q=2, n=3, k=1, d=1, d_kind="about right", c=0, family="f", case="",
                     inputs=(), maximal_entanglement=False)
    with pytest.raises(ValueError):
        QuentaParams(q=2, n=3, k=1, d=1, d_kind=EXACT, c=2, family="f", case="",
                     inputs=(), maximal_entanglement=False)  # flag disagrees
