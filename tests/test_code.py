import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quenta import code as code_module
from quenta.cli import main
from quenta.code import (
    EnumerationCapError,
    Matrix,
    cyclic_code,
    frobenius_entrywise,
    hermitian_dual_code,
    identity,
    kernel_basis,
    matrix,
    min_distance_exhaustive,
    product,
    rank,
    row_space_basis,
    rref,
    stack,
    transpose,
    zero_matrix,
)
from quenta.constructions import bch_hermit
from quenta.defset import (
    bch_bound,
    coset_closed_subsets as closed_subsets,
    defset,
    euclidean_dual_defset,
    hermitian_dual_defset,
    intersection_dim,
)
from quenta.gf import field_create, field_from_order, is_prime, prime_power, splitting_field
from quenta.oracle import (
    entanglement_rank_euclid,
    entanglement_rank_hermitian,
    relative_min_weight,
)

from helpers import (
    code_from_rows,
    defining_set_of,
    dual_code,
    hermitian_hull_dim,
    hull_dim,
    intersection_dim_matrices,
)

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)
F7 = field_create(7, 1)
F8 = field_create(2, 3)
F9 = field_create(3, 2)
F16 = field_create(2, 4)


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix(F2, [(0, 1), (1,)])
    with pytest.raises(ValueError):
        matrix(F2, [(0, 2)])
    with pytest.raises(ValueError):
        matrix(F2, [])


def test_rref_golden():
    M = matrix(F3, [(1, 2, 0), (0, 1, 2), (1, 0, 2)])
    R = rref(M)
    assert R.rows == ((1, 0, 2), (0, 1, 2), (0, 0, 0))
    assert rank(M) == 2


def test_rref_identity_fixed_point():
    I = identity(F7, 4)
    assert rref(I).rows == I.rows
    assert rank(I) == 4
    assert rank(zero_matrix(F7, 3, 5)) == 0


def test_transpose_degenerate():
    Z = zero_matrix(F2, 0, 4)
    T = transpose(Z)
    assert (T.nrows, T.ncols) == (4, 0)
    assert transpose(T).ncols == 4


def test_product_golden():
    A = matrix(F4, [(1, 2), (3, 1)])
    B = matrix(F4, [(2, 0), (0, 2)])
    # over GF(4) with x^2+x+1: 2*2 = 3, 3*2 = 1
    assert product(A, B).rows == ((2, 3), (1, 2))
    with pytest.raises(ValueError):
        product(A, matrix(F4, [(1, 1)]))


def test_rank_nullity_random():
    rng = random.Random(99)
    for F in (F2, F3, F4, F9):
        for _ in range(25):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            M = matrix(F, [
                tuple(rng.randrange(F.q) for _ in range(ncols)) for _ in range(nrows)
            ])
            K = kernel_basis(M)
            assert rank(M) + K.nrows == ncols
            # every kernel row is annihilated by M
            prod = product(M, transpose(K))
            assert all(all(e == 0 for e in r) for r in prod.rows)


def test_stack_and_intersection_rank_identity():
    A = matrix(F2, [(1, 0, 1, 0), (0, 1, 0, 1)])
    B = matrix(F2, [(1, 1, 1, 1), (1, 0, 0, 1)])
    assert stack(A, B).nrows == 4
    # rowspace(A) cap rowspace(B) contains (1,1,1,1) only
    assert intersection_dim_matrices(A, B) == 1


def test_frobenius_entrywise_golden():
    # GF(4) = {0, 1, b=2, b^2=3}; Frobenius x -> x^2 swaps 2 and 3
    M = matrix(F4, [(1, 2, 3), (0, 3, 2)])
    Mf = frobenius_entrywise(M, 2)
    assert Mf.rows == ((1, 3, 2), (0, 2, 3))
    assert (Mf.nrows, Mf.ncols) == (2, 3)
    assert frobenius_entrywise(Mf, 2) == M
    with pytest.raises(ValueError):
        frobenius_entrywise(matrix(F2, [(1, 0)]), 2)


def test_cyclic_code_hamming():
    ext = splitting_field(2, 7)
    C = cyclic_code(defset(7, 2, {1, 2, 4}), F2, ext)
    assert (C.n, C.k) == (7, 4)
    assert C.origin.as_set() == {1, 2, 4}
    prod = product(C.G, transpose(C.H))
    assert all(all(e == 0 for e in r) for r in prod.rows)


@pytest.mark.parametrize("n,q", [(7, 2), (15, 2), (8, 3)])
def test_cyclic_code_dimension_is_n_minus_Z(n, q):
    base = field_from_order(q)
    ext = splitting_field(q, n)
    for Z in closed_subsets(n, q):
        C = cyclic_code(Z, base, ext)
        assert C.k == n - len(Z)
        # dual defining-set law checked against matrix-level dual
        D = dual_code(C)
        assert defining_set_of(D, ext) == euclidean_dual_defset(Z)


def test_dual_code_swaps_roles():
    C = cyclic_code(defset(7, 2, {1, 2, 4}), F2, splitting_field(2, 7))
    D = dual_code(C)
    assert D.k == 3
    assert D.G.rows == C.H.rows


def test_hermitian_dual_golden():
    # n=3 over GF(4), Z={1}: C^perp_h is the cyclic code with defset {0,2}
    ext = splitting_field(4, 3)
    C = cyclic_code(defset(3, 4, {1}), F4, ext)
    D = hermitian_dual_code(C, 2)
    assert D.k == 1
    assert defining_set_of(D, ext) == hermitian_dual_defset(defset(3, 4, {1}))


def test_hull_dims_match_defset_formula():
    ext = splitting_field(2, 15)
    for Z in closed_subsets(15, 2):
        C = cyclic_code(Z, F2, ext)
        assert hull_dim(C) == intersection_dim(Z, euclidean_dual_defset(Z))


def test_hermitian_hull_matches_defset_formula():
    ext = splitting_field(4, 5)
    for Z in closed_subsets(5, 4):
        C = cyclic_code(Z, F4, ext)
        assert hermitian_hull_dim(C, 2) == intersection_dim(Z, hermitian_dual_defset(Z))
    # Z = {1,4} at n=5 is a useful landmark: hull dimension 2, so not LCD
    C = cyclic_code(defset(5, 4, {1, 4}), F4, ext)
    assert hermitian_hull_dim(C, 2) == 2


def test_defining_set_round_trip():
    ext = splitting_field(3, 8)
    for Z in closed_subsets(8, 3):
        C = cyclic_code(Z, F3, ext)
        assert defining_set_of(C, ext) == Z


def test_min_distance_goldens():
    assert min_distance_exhaustive(
        cyclic_code(defset(7, 2, {1, 2, 4}), F2, splitting_field(2, 7))
    ) == 3
    assert min_distance_exhaustive(
        cyclic_code(defset(7, 2, {0, 1, 2, 4}), F2, splitting_field(2, 7))
    ) == 4
    # RS_3(6, 1) over GF(7): defset {1,2,3}, an MDS [6,3,4] code
    assert min_distance_exhaustive(
        cyclic_code(defset(6, 7, {1, 2, 3}), F7, F7)
    ) == 4


def test_min_distance_zero_code_and_cap():
    C = cyclic_code(defset(7, 2, set(range(7))), F2, splitting_field(2, 7))
    assert C.k == 0
    assert min_distance_exhaustive(C) == 8
    big = cyclic_code(defset(7, 2, set()), F2, splitting_field(2, 7))
    with pytest.raises(EnumerationCapError):
        min_distance_exhaustive(big, cap=100)


def test_bch_bound_never_exceeds_true_distance():
    ext = splitting_field(2, 15)
    for Z in closed_subsets(15, 2):
        C = cyclic_code(Z, F2, ext)
        if C.k == 0:
            continue
        assert bch_bound(Z) <= min_distance_exhaustive(C)


def reference_words(C):
    """Every codeword of a nonzero message, by a message-by-message loop."""
    F = C.field
    multiples = [[[F.mul(a, g) for g in row] for a in range(F.q)] for row in C.G.rows]
    # the first message of the product is the zero message
    for parts in itertools.islice(itertools.product(*multiples), 1, None):
        word = [0] * C.n
        for part in parts:
            word = [F.add(x, y) for x, y in zip(word, part)]
        yield word


def reference_weights(C, M):
    """(min distance, relative weight outside ker M) by a message-by-message loop."""
    F = C.field
    d, rel = C.n + 1, None
    for word in reference_words(C):
        w = sum(1 for e in word if e)
        d = min(d, w)
        if any(_dot(F, mrow, word) for mrow in M.rows):
            rel = w if rel is None else min(rel, w)
    return d, rel


def _dot(F, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


# q -> largest k drawn, so the reference loop stays fast (one k = 2 code over
# GF(3^6) takes it seconds); small block sizes send these codes through the
# split into low and high groups and the chunked multiples of one row
_DIFF_FIELDS = {F2: 8, F3: 5, F4: 4, F5: 4, F7: 3, F8: 3, F9: 3, F16: 2,
                field_create(3, 6): 1}


@st.composite
def code_and_map(draw):
    F = draw(st.sampled_from(sorted(_DIFF_FIELDS, key=lambda f: f.q)))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, min(n, _DIFF_FIELDS[F])))
    row = st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n)
    C = code_from_rows(F, draw(st.lists(row, min_size=k, max_size=k)), n)
    r = draw(st.integers(0, 3))
    if draw(st.booleans()):
        M = zero_matrix(F, r, n)
    else:
        M = matrix(F, draw(st.lists(row, min_size=r, max_size=r)), n)
    return C, M


_RS7 = cyclic_code(defset(6, 7, {1, 2, 3}), F7, F7)
_RS9 = cyclic_code(defset(8, 9, {1, 2, 3, 4, 5}), F9, F9)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(code_and_map(), st.sampled_from([1, 30, 1 << 22]),
       st.sampled_from([code_module._BLOCK, 2, 5, 16]))
@example((_RS7, _RS7.H), 1 << 22, code_module._BLOCK)
@example((_RS9, _RS9.G), 1 << 22, code_module._BLOCK)
def test_enumerator_matches_reference_loop(case, cap, block):
    C, M = case
    d, rel = reference_weights(C, M)
    with mock.patch.object(code_module, "_BLOCK", block):
        assert min_distance_exhaustive(C) == d
        if C.k and C.field.q ** C.k > cap:
            with pytest.raises(EnumerationCapError):
                min_distance_exhaustive(C, cap)
            assert relative_min_weight(C, M, cap) == "capped"
        else:
            assert min_distance_exhaustive(C, cap) == d
            assert relative_min_weight(C, M, cap) == rel


def reference_greedy_weights(C):
    """The weights of a basis picked from the reference loop's words, lightest
    first, each word kept when it raises the rank of those kept before it."""
    words = sorted(reference_words(C), key=lambda word: sum(1 for e in word if e))
    kept = []
    for word in words:
        if len(kept) == C.k:
            break
        if len(reference_rref(matrix(C.field, kept + [word]))[1]) > len(kept):
            kept.append(word)
    return [sum(1 for e in word if e) for word in kept]


@settings(deadline=None, derandomize=True, max_examples=150)
@given(code_and_map(), st.sampled_from([code_module._BLOCK, 2, 5, 16]))
@example((_RS9, _RS9.G), 2)
def test_light_basis_is_a_greedy_basis(case, block):
    C = case[0]
    with mock.patch.object(code_module, "_BLOCK", block):
        B, weights = code_module._light_basis(C.G)
    assert product(B, transpose(C.H)).is_zero()  # rows are codewords
    assert B.nrows == rank(B) == C.k
    assert list(weights) == [sum(1 for e in row if e) for row in B.rows]
    assert list(weights) == sorted(weights)
    if C.k:
        assert weights[0] == min_distance_exhaustive(C)
    assert list(weights) == reference_greedy_weights(C)
    assert C.light_basis[1] == weights


def test_heaviest_gf4_enumeration_budget():
    # the [15, 11] Hermitian-LCD code over GF(4): 4^11 codewords
    C = cyclic_code(defset(15, 4, {3, 6, 9, 12}), F4, splitting_field(4, 15))
    assert C.k == 11
    t0 = time.perf_counter()
    assert min_distance_exhaustive(C) == 2
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("block", [code_module._BLOCK, 16])
def test_enumerator_weighs_one_word_per_projective_point(monkeypatch, block):
    counted = [0]
    weigh = code_module._weigh

    def counting(words, *args):
        counted[0] += words.shape[1]
        return weigh(words, *args)

    monkeypatch.setattr(code_module, "_weigh", counting)
    monkeypatch.setattr(code_module, "_BLOCK", block)
    C = cyclic_code(defset(15, 4, {3, 6, 9, 12}), F4, splitting_field(4, 15))
    assert min_distance_exhaustive(C) == 2
    assert counted[0] == (4 ** 11 - 1) // 3 == 1_398_101
    # over GF(2) every nonzero message is normalized: the [15, 11] Hamming code
    # (d = 3, so no early exit) weighs all of them and no zero message
    counted[0] = 0
    C = cyclic_code(defset(15, 2, {1, 2, 4, 8}), F2, splitting_field(2, 15))
    assert (C.k, min_distance_exhaustive(C)) == (11, 3)
    assert counted[0] == 2 ** 11 - 1
    # the RS [13, 2, 12] over GF(27); at block 16 its first row is split into
    # chunks of its multiples, and only 1 times it meets the zero high word
    counted[0] = 0
    F27 = field_create(3, 3)
    C = cyclic_code(defset(13, 27, range(1, 12)), F27, F27)
    assert (C.k, min_distance_exhaustive(C)) == (2, 12)
    assert counted[0] == 27 + 1


def reference_product(A, B):
    """The product by per-entry field multiplication; the kernels' reference."""
    F = A.field
    Bt = tuple(zip(*B.rows)) if B.rows else ((),) * B.ncols
    out = []
    for ar in A.rows:
        row = []
        for bc in Bt:
            acc = 0
            for x, y in zip(ar, bc):
                if x and y:
                    acc = F.add(acc, F.mul(x, y))
            row.append(acc)
        out.append(row)
    return out


def reference_rref(M):
    """RREF by per-entry field arithmetic, first-nonzero row-major pivoting;
    the kernels' reference."""
    F = M.field
    rows = [list(r) for r in M.rows]
    pivots = []
    pr = 0
    for pc in range(M.ncols):
        pivot_row = None
        for r in range(pr, len(rows)):
            if rows[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = F.inv(rows[pr][pc])
        if inv != 1:
            rows[pr] = [F.mul(inv, e) for e in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [F.sub(e, F.mul(f, p)) for e, p in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def reference_outputs(M, B):
    """rref, rank, row-space basis, kernel basis and product by the reference loops."""
    F = M.field
    rows, pivots = reference_rref(M)
    kernel = []
    for f in (c for c in range(M.ncols) if c not in pivots):
        v = [0] * M.ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(rows[i][f])
        kernel.append(v)
    return tuple(tuple(map(tuple, m)) if isinstance(m, list) else m for m in (
        rows, len(pivots), rows[:len(pivots)], kernel, reference_product(M, B)))


@pytest.mark.parametrize("F", [F2, F3, F4, F5, F8, F9, F16, field_create(3, 3)])
def test_log_tables_multiply_with_zero(F):
    log, exp = F._log, F._exp
    assert len(log) == F.q and len(exp) <= 4 * F.q
    for a in range(F.q):
        assert [exp[log[a] + log[b]] for b in range(F.q)] == [F.mul(a, b) for b in range(F.q)]


# one field per engine shape: lane rows of 1 bit (GF(2)); 4 bits (GF(4),
# GF(8) with invalid codes 8-15, GF(16), and the odd primes up to 7); 8 bits
# (GF(32), GF(256), the two-digit odd fields GF(9), GF(25), GF(49), and the
# primes 11 and 127); and numpy for the fields without a lane form (GF(27),
# GF(131), GF(2^10), GF(3^6))
_KERNEL_FIELDS = (F2, F3, F4, F5, F7, F8, F9, field_create(11, 1), F16, field_create(5, 2),
                  field_create(3, 3), field_create(2, 5), field_create(7, 2),
                  field_create(127, 1), field_create(131, 1), field_create(2, 8),
                  field_create(2, 10), field_create(3, 6))


def test_lane_forms_of_the_fields_up_to_256():
    lane_bits = {q: L.b for q in range(2, 257) if prime_power(q)
                 for L in [code_module._lanes(field_from_order(q))] if L}
    assert lane_bits == {2: 1, 3: 4, 4: 4, 5: 4, 7: 4, 8: 4, 9: 8, 16: 4, 25: 8, 32: 8, 49: 8,
                         64: 8, 128: 8, 256: 8, **{p: 8 for p in range(11, 128) if is_prime(p)}}
    # a lane code is the base-p digits, digit 0 in the lowest digit lane
    assert code_module._lanes(F9).code == [0x00, 0x01, 0x02, 0x10, 0x11, 0x12, 0x20, 0x21, 0x22]
    assert code_module._lanes(field_create(7, 2)).code[7 * 3 + 5] == 0x35
    assert code_module._lanes(field_create(13, 1)).code == list(range(13))


@st.composite
def field_matrix(draw, F, nrows, ncols):
    """Sparse or dense free rows, then dependent rows (copies, multiples, sums);
    with no free row the matrix is zero."""
    rng = draw(st.randoms(use_true_random=True))
    density = rng.choice([0.2, 0.5, 0.8, 1.0])
    free = nrows - draw(st.integers(0, nrows))
    rows = [[rng.randrange(1, F.q) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(free)]
    while len(rows) < nrows:
        x, y = (rng.choice(rows or [[0] * ncols]) for _ in range(2))
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        rows.append([F.add(F.mul(a, u), F.mul(b, v)) for u, v in zip(x, y)])
    rng.shuffle(rows)
    return matrix(F, rows, ncols)


def _bch_hermit_stack():
    """The 80 x 80 GF(9) stack [H; G^3] that bch-hermit --q 3 ranks."""
    Z = bch_hermit(3, 4).defset_named("Z")
    C = cyclic_code(Z, F9, splitting_field(9, 80))
    return stack(C.H, frobenius_entrywise(C.G, 3))


def _check_kernels(M, B):
    """rref, rank, row-space basis, kernel basis, product and Frobenius map of
    the field's one engine against the reference loops."""
    outputs = (rref(M).rows, rank(M), row_space_basis(M).rows, kernel_basis(M).rows,
               product(M, B).rows)
    assert outputs == reference_outputs(M, B)
    rows, r, basis, kernel, prod = outputs
    F = M.field
    # over GF(2) B keeps its Four Russians tables, which the second product
    # reads warm; every other field keeps nothing
    assert (B._row_sums is not None) == (F.q == 2)
    assert product(M, B).rows == prod
    assert type(r) is int
    assert all(type(e) is int for m in (rows, basis, kernel, prod) for row in m for e in row)
    q0 = math.isqrt(F.q)
    if q0 * q0 == F.q:
        assert frobenius_entrywise(M, q0).rows == tuple(tuple(F.pow(e, q0) for e in r) for r in M.rows)
    # a kernel's result and the same matrix built from its tuple rows are equal
    # and hash alike; stack and transpose keep row and column order
    for R in (rref(M), row_space_basis(M), kernel_basis(M), product(M, B), transpose(M)):
        rebuilt = Matrix(R.field, R.rows, R.ncols)
        assert R == rebuilt and hash(R) == hash(rebuilt)
        assert R.nrows == len(R.rows)
        other = M if M.ncols == R.ncols else R
        assert stack(R, other).rows == R.rows + other.rows
        T = transpose(R)
        assert T.rows == (tuple(zip(*R.rows)) if R.rows else ((),) * R.ncols)
        assert (T.nrows, T.ncols) == (R.ncols, R.nrows) and transpose(T) == R
        assert T == Matrix(R.field, T.rows, T.ncols)
    assert stack(M, rref(M)).rows == M.rows + rows
    assert transpose(M).rows == (tuple(zip(*M.rows)) if M.rows else ((),) * M.ncols)
    L = code_module._lanes(F)
    if L:  # every translate table sends the invalid codes, padded lanes among them, to 0
        invalid = [(v, s) for v in range(256) for s in range(0, 8, L.b)
                   if v >> s & L.mask not in L.element]
        for table in itertools.chain(L.times.values(), L.power.values()):
            assert not any(table[v] >> s & L.mask for v, s in invalid)


@pytest.mark.parametrize("F", _KERNEL_FIELDS, ids=repr)
@settings(deadline=None, derandomize=True, max_examples=30)
@given(data=st.data())
def test_kernels_match_reference_loop(F, data):
    nrows, ncols, bcols = (data.draw(st.integers(0, 24)) for _ in range(3))
    _check_kernels(data.draw(field_matrix(F, nrows, ncols)), data.draw(field_matrix(F, ncols, bcols)))


def test_kernels_match_reference_loop_on_the_bch_hermit_stack():
    M = _bch_hermit_stack()
    _check_kernels(M, transpose(M))


def test_gf2_rank_and_entanglement_never_unpack(monkeypatch):
    ext = splitting_field(2, 15)
    codes = [cyclic_code(Z, F2, ext) for Z in closed_subsets(15, 2)]
    M = matrix(F2, [(1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0)])
    expected = [[entanglement_rank_euclid(C1, C2) for C2 in codes] for C1 in codes]
    # Hermitian ranks over GF(4) and GF(16) run on 4-bit lane rows
    hermitian = [(cyclic_code(Z, F, splitting_field(F.q, n)), q0)
                 for F, q0, n in ((F4, 2, 15), (F16, 4, 5))
                 for Z in closed_subsets(n, F.q)]
    expected_hermitian = [entanglement_rank_hermitian(C, q0) for C, q0 in hermitian]
    assert expected_hermitian == [C.H.nrows - hermitian_hull_dim(C, q0) for C, q0 in hermitian]

    def refuse(*_):
        raise AssertionError("lane rows unpacked")

    monkeypatch.setattr(code_module._Lanes, "unpack", refuse)
    assert rank(M) == 2 and rank(rref(M)) == 2 and rank(kernel_basis(M)) == 2
    assert [[entanglement_rank_euclid(C1, C2) for C2 in codes] for C1 in codes] == expected
    assert [entanglement_rank_hermitian(C, q0) for C, q0 in hermitian] == expected_hermitian
    with pytest.raises(AssertionError, match="unpacked"):
        rref(M).rows  # a kernel result has no tuple rows until they are read


def test_lane_fields_never_reach_the_row_kernels(monkeypatch, capsys):
    # every matrix over a field with a lane form stays in lane form: none reaches
    # numpy's row reduction or product
    reached = []

    def guarded(kernel):
        def run(M, *rest):
            assert code_module._lanes(M.field) is None, f"{M.field!r} reached {kernel.__name__}"
            reached.append(M.field)
            return kernel(M, *rest)
        return run

    for kernel in (code_module._rref_numpy, code_module._product_numpy):
        monkeypatch.setattr(code_module, kernel.__name__, guarded(kernel))
    for argv in (["verify", "--family", "hermitian-lcd", "--q", "2", "--n", "15"],
                 ["verify", "--family", "hermitian", "--q", "4", "--n", "5"],
                 ["verify", "--family", "bch-hermit", "--q", "3"],
                 ["verify", "--family", "rs-euclid", "--q", "7"]):
        assert main(argv) == 0
    assert "0 failed" in capsys.readouterr().out
    assert reached == []
    F27 = field_create(3, 3)  # the guards are live
    M = matrix(F27, [(1, 2), (3, 4)])
    assert rank(M) == 2 and product(M, M).nrows == 2
    assert reached == [F27, F27]


@pytest.mark.parametrize("build", [
    lambda: cyclic_code(defset(5, 4, {1, 4}), F4, splitting_field(4, 5)),
    lambda: cyclic_code(defset(5, 4, {0}), F4, splitting_field(4, 5)),
    lambda: _RS9,
    lambda: cyclic_code(defset(8, 9, {0, 1, 2, 3, 4, 5}), F9, F9),
], ids=["C0", "C1", "C2", "C3"])
def test_min_weight_makes_no_field_multiplication(monkeypatch, build):
    # the codes are built here, so that a product fault fails this test and
    # not the collection of the whole module
    C = build()
    q0 = 2 if C.field.q == 4 else 3
    M = frobenius_entrywise(C.G, q0)
    d, rel = reference_weights(C, M)

    def refuse(*_):
        raise AssertionError("GF.mul called")

    monkeypatch.setattr(type(C.field), "mul", refuse)
    assert min_distance_exhaustive(C) == d
    assert relative_min_weight(C, M, 1 << 22) == rel
    with pytest.raises(AssertionError, match="GF.mul"):
        C.field.mul(1, 1)


def test_gf9_rank_budget():
    # ten ranks at the size bch-hermit --q 3 reduces: 80 x 80 over GF(9)
    rng = random.Random(9)
    stacks = [matrix(F9, [[rng.randrange(9) for _ in range(80)] for _ in range(80)])
              for _ in range(10)]
    t0 = time.perf_counter()
    ranks = [rank(M) for M in stacks]
    assert time.perf_counter() - t0 < 0.5
    assert ranks[0] == len(reference_rref(stacks[0])[1])


def test_code_from_rows_canonicalizes():
    C = code_from_rows(F2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    assert C.k == 2
    assert C.H.nrows == 1
    empty = code_from_rows(F2, [], 3)
    assert empty.k == 0
    assert empty.H.nrows == 3


def test_linear_code_rejects_inconsistent_pair():
    with pytest.raises(ValueError):
        Matrix(F2, ((0, 1), (1, 0, 1)), 2)
    with pytest.raises(ValueError):
        # G H^T != 0
        from quenta.code import LinearCode
        LinearCode(F2, 2, matrix(F2, [(1, 0)]), matrix(F2, [(1, 0)]))
