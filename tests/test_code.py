import copy
import functools
import itertools
import math
import random
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quenta import code as code_module
from quenta import oracle as oracle_module
from quenta.cli import main
from quenta.code import (
    EnumerationCapError,
    Matrix,
    cyclic_code,
    frobenius_entrywise,
    hermitian_dual_code,
    kernel_basis,
    min_distance_exhaustive,
    product,
    rank,
    transpose,
)
from quenta.constructions import bch_hermit
from quenta.defset import (
    bch_bound,
    coset_closed_subsets as closed_subsets,
    coset_partition,
    defset,
    euclidean_dual_defset,
    hermitian_dual_defset,
    intersection_dim,
)
from quenta.gf import field_create, field_from_order, is_prime, prime_power, splitting_field
from quenta.oracle import (
    entanglement_rank_euclid,
    entanglement_rank_hermitian,
    instances,
    relative_min_weight,
)
from quenta.poly import divmod_poly, generator_from_defset, poly, x_pow_n_minus_one

from helpers import (
    code_from_rows,
    defining_set_of,
    dual_code,
    evaluate,
    hermitian_hull_dim,
    hull_dim,
    intersection_dim_matrices,
    reference_rref,
    stack,
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
        Matrix(F2, [(0, 1), (1,)], 2)
    with pytest.raises(ValueError):
        Matrix(F2, [(0, 2)], 2)
    with pytest.raises(ValueError):
        Matrix(F2, [(0, 1)], 3)


def test_rref_golden():
    # the tuple-row echelon keeps each pivot's row scaled to a leading 1 and
    # negated, as (column, log) pairs after the pivot; the third row reduces to
    # 0, and the kernel is read off by back-substitution
    M = Matrix(F3, [(1, 2, 0), (0, 1, 2), (1, 0, 2)], 3)
    assert code_module._tuple_echelon(M) == {0: [(1, 0)], 1: [(2, 0)]}
    assert rank(M) == 2 and kernel_basis(M).rows == ((1, 1, 1),)
    # over GF(131), whose matrices keep tuple rows: (2, 4, 0) scales to
    # (1, 2, 0), whose negated tail is -2 = 129
    F131 = field_create(131, 1)
    M = Matrix(F131, [(2, 4, 0), (0, 0, 5), (1, 2, 7)], 3)
    assert code_module._tuple_echelon(M) == {0: [(1, F131._log[129])], 2: []}
    assert rank(M) == 2 and kernel_basis(M).rows == ((129, 1, 0),)
    # over GF(27), by Zech logarithms: clearing column 0 of the second row adds
    # -1 = 2 = alpha^13 to its zero entry in column 1, which then leads it
    F27 = field_create(3, 3)
    M = Matrix(F27, [(1, 1, 0), (1, 0, 1)], 3)
    assert code_module._tuple_echelon(M) == {0: [(1, 13)], 1: [(2, 0)]}
    assert kernel_basis(M).rows == ((2, 1, 1),)


def test_rref_identity_fixed_point():
    for F in (F7, field_create(3, 3)):
        I = Matrix(F, [[int(i == j) for j in range(4)] for i in range(4)], 4)
        assert code_module._tuple_echelon(I) == {c: [] for c in range(4)}
        assert rank(I) == 4 and kernel_basis(I).nrows == 0
        Z = Matrix(F, [(0,) * 5] * 3, 5)
        assert code_module._tuple_echelon(Z) == {}
        assert rank(Z) == 0
        assert kernel_basis(Z).rows == tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def test_transpose_degenerate():
    Z = Matrix(F2, [], 4)
    T = transpose(Z)
    assert (T.nrows, T.ncols) == (4, 0)
    assert transpose(T).ncols == 4


def test_product_golden():
    A = Matrix(F4, [(1, 2), (3, 1)], 2)
    B = Matrix(F4, [(2, 0), (0, 2)], 2)
    # over GF(4) with x^2+x+1: 2*2 = 3, 3*2 = 1
    assert product(A, B).rows == ((2, 3), (1, 2))
    with pytest.raises(ValueError):
        product(A, Matrix(F4, [(1, 1)], 2))


def test_rank_nullity_random():
    rng = random.Random(99)
    for F in (F2, F3, F4, F9):
        for _ in range(25):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            M = Matrix(F, [
                tuple(rng.randrange(F.q) for _ in range(ncols)) for _ in range(nrows)
            ], ncols)
            K = kernel_basis(M)
            assert rank(M) + K.nrows == ncols
            # every kernel row is annihilated by M
            prod = product(M, transpose(K))
            assert all(all(e == 0 for e in r) for r in prod.rows)


def test_stack_and_intersection_rank_identity():
    A = Matrix(F2, [(1, 0, 1, 0), (0, 1, 0, 1)], 4)
    B = Matrix(F2, [(1, 1, 1, 1), (1, 0, 0, 1)], 4)
    assert stack(A, B).nrows == 4
    # rowspace(A) cap rowspace(B) contains (1,1,1,1) only
    assert intersection_dim_matrices(A, B) == 1


def test_frobenius_entrywise_golden():
    # GF(4) = {0, 1, b=2, b^2=3}; Frobenius x -> x^2 swaps 2 and 3
    M = Matrix(F4, [(1, 2, 3), (0, 3, 2)], 3)
    Mf = frobenius_entrywise(M, 2)
    assert Mf.rows == ((1, 3, 2), (0, 2, 3))
    assert (Mf.nrows, Mf.ncols) == (2, 3)
    assert frobenius_entrywise(Mf, 2) == M
    with pytest.raises(ValueError):
        frobenius_entrywise(Matrix(F2, [(1, 0)], 2), 2)


def test_cyclic_code_hamming():
    ext = splitting_field(2, 7)
    C = cyclic_code(defset(7, 2, {1, 2, 4}), F2, ext)
    assert (C.n, C.k) == (7, 4)
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


# a length per field whose splitting field is a proper extension where one
# exists: GF(16), GF(16), GF(64), GF(9), GF(49), GF(81) and GF(27) itself,
# which has no lane rows
_CYCLIC_LENGTHS = [(2, 15), (4, 15), (8, 9), (3, 8), (7, 8), (9, 10), (27, 13)]


def _sampled_defsets(q, n):
    """Z = ∅ (k = n), Z = Z_n (k = 0) and six random unions of cosets."""
    rng = random.Random(1000 * q + n)
    cosets = coset_partition(n, q)
    picks = [(), cosets] + [[c for c in cosets if rng.random() < 0.5] for _ in range(6)]
    return [defset(n, q, itertools.chain.from_iterable(coset.elems for coset in pick))
            for pick in picks]


@pytest.mark.parametrize("q,n", _CYCLIC_LENGTHS)
def test_cyclic_code_matrices_match_the_tuple_row_reference(q, n):
    # G's rows are the k shifts of g(x), H's the n - k shifts of h(x) reversed,
    # each built here as tuple rows and validated by Matrix
    base, ext = field_from_order(q), splitting_field(q, n)
    for Z in _sampled_defsets(q, n):
        C = cyclic_code(Z, base, ext)
        g = generator_from_defset(Z.elems, n, base, ext)
        h, r = divmod_poly(x_pow_n_minus_one(base, n), g)
        assert r.is_zero()
        k = n - g.deg
        hc = h.coeffs[::-1]
        G = Matrix(base, [(0,) * i + g.coeffs + (0,) * (n - len(g.coeffs) - i) for i in range(k)], n)
        H = Matrix(base, [(0,) * i + hc + (0,) * (n - len(hc) - i) for i in range(n - k)], n)
        assert (C.G, C.H) == (G, H)
        assert (C.G.rows, C.H.rows) == (G.rows, H.rows)
        assert (C.G.nrows, C.H.nrows, C.G.ncols, C.H.ncols) == (k, n - k, n, n)


@pytest.mark.parametrize("q,n", _CYCLIC_LENGTHS)
def test_cyclic_code_rows_vanish_on_their_roots(q, n):
    # independent of the generator product: each row of G, read as a
    # polynomial, vanishes at beta^z for z in Z, and each row of H at beta^-z
    # for z outside Z, evaluated by Horner in the splitting field.  With G of
    # full rank n - |Z| (LinearCode checks it), G spans exactly C_Z
    base, ext = field_from_order(q), splitting_field(q, n)
    beta = ext.nth_root_of_unity(n)
    for Z in _sampled_defsets(q, n):
        C = cyclic_code(Z, base, ext)
        outside = [z for z in range(n) if z not in Z.as_set()]
        assert (C.G.nrows, C.H.nrows) == (len(outside), len(Z))
        for M, roots in ((C.G, Z.elems), (C.H, [-z % n for z in outside])):
            for row in M.rows:
                f = poly(base, row)
                assert not f.is_zero()
                assert all(evaluate(f, ext.pow(beta, z), ext) == 0 for z in roots)


def test_cyclic_code_refuses_a_generator_that_does_not_divide_x_n_minus_1(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over GF(2), and x + 1 divides x^7 - 1 only once
    monkeypatch.setattr(code_module, "generator_from_defset", lambda *_: poly(F2, [1, 0, 1]))
    with pytest.raises(ValueError, match=r"^g\(x\) = \(1, 0, 1\) does not divide x\^7 - 1 over GF\(2\)$"):
        cyclic_code(defset(7, 2, {1, 2, 4}), F2, splitting_field(2, 7))


def test_frobenius_images_are_built_once_per_code(monkeypatch):
    C = cyclic_code(defset(15, 4, {1, 4}), F4, splitting_field(4, 15))
    Gq, Hq = C.frobenius_images
    assert (Gq, Hq) == (frobenius_entrywise(C.G, 2), frobenius_entrywise(C.H, 2))
    assert Gq != Hq and C.frobenius_images[0] is Gq and C.frobenius_images[1] is Hq
    assert entanglement_rank_hermitian(C, 2) == C.H.nrows - hermitian_hull_dim(C, 2)
    with pytest.raises(ValueError, match=r"is not GF\(4\^2\)"):
        entanglement_rank_hermitian(C, 4)
    with pytest.raises(ValueError):
        cyclic_code(defset(7, 2, {1, 2, 4}), F2, splitting_field(2, 7)).frobenius_images
    # a Hermitian sweep maps each code's G and H once, for its entanglement
    # rank and its relative weight together, and a second sweep reads them
    # from the memoised codes
    built, mapped = [], []
    monkeypatch.setattr(oracle_module, "cyclic_code",
                        lambda *a: built.append(a) or cyclic_code(*a))
    monkeypatch.setattr(code_module, "frobenius_entrywise",
                        lambda M, q0: mapped.append(M) or frobenius_entrywise(M, q0))
    oracle_module._measured_cyclic_code.cache_clear()
    for _ in range(2):
        assert main(["verify", "--family", "hermitian", "--q", "2", "--n", "5"]) == 0
    assert len(mapped) == 2 * len(built) == 16
    oracle_module._measured_cyclic_code.cache_clear()


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
# split into low and high groups, and fields above the block size through a
# low group of no rows
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
        M = Matrix(F, [(0,) * n] * r, n)
    else:
        M = Matrix(F, draw(st.lists(row, min_size=r, max_size=r)), n)
    return C, M


@settings(deadline=None, derandomize=True, max_examples=200)
@given(code_and_map(), st.sampled_from([1, 30, 1 << 22]),
       st.sampled_from([code_module._BLOCK, 2, 5, 16]))
def test_enumerator_matches_reference_loop(case, cap, block):
    check_enumerator(*case, cap, block)


def check_enumerator(C, M, cap, block):
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


def reference_normalized_words(C):
    """The normalized codewords in message order, by a message-by-message
    loop: for each row j, row j plus each word of the span of the rows before
    it, the first row's coefficient counting fastest."""
    F, rows = C.field, C.G.rows
    for j, row in enumerate(rows):
        for index in range(F.q ** j):
            word = list(row)
            for i in range(j):
                c = index // F.q ** i % F.q
                word = [F.add(x, F.mul(c, y)) for x, y in zip(word, rows[i])]
            yield tuple(word)


def block_words(C, blocks):
    """The words of enumerator blocks, decoded; each block holds its N words
    and nothing past them, and no word sets a bit past its n symbols."""
    L = code_module._words(C.field, C.n)
    words = []
    for X, N in blocks:
        assert X < 1 << N * L.W
        for i in range(N):
            x = X >> i * L.W & (1 << L.W) - 1
            assert x < 1 << C.n * L.s
            words.append(tuple(L.symbols(x, range(C.n))))
    return words


@settings(deadline=None, derandomize=True, max_examples=150)
@given(code_and_map(), st.sampled_from([code_module._BLOCK, 2, 5, 16]))
def test_blocks_hold_each_projective_point_once(case, block):
    # the block words, decoded, are the normalized words in message order, and
    # with their q - 1 multiples they are the nonzero codewords, each exactly once
    C = case[0]
    F = C.field
    with mock.patch.object(code_module, "_BLOCK", block):
        blocks = list(code_module._word_blocks(C.G))
    assert all(0 < N <= block for _, N in blocks)
    words = block_words(C, blocks)
    assert words == list(reference_normalized_words(C))
    multiples = Counter(tuple(F.mul(a, e) for e in word) for word in words for a in range(1, F.q))
    assert multiples == Counter(map(tuple, reference_words(C)))


def reference_distribution(C):
    """counts[w] of the normalized words, by the reference loop."""
    counts = [0] * (C.n + 1)
    for word in reference_normalized_words(C):
        counts[sum(1 for e in word if e)] += 1
    return counts


# one field per symbol form: 1-bit symbols (GF(2)); GF(8) and GF(32), whose odd
# symbol widths 3 and 5 a doubling fold would leak across; odd digit lanes in
# one symbol (GF(3)), two (GF(9)) and a full byte (GF(127)); and GF(27), a
# field without lane rows, to a largest k each that keeps the reference fast
_SYMBOL_FIELDS = {F2: 8, F8: 3, field_create(2, 5): 2, F3: 5, F9: 3, field_create(127, 1): 2,
                  field_create(3, 3): 2}


@pytest.mark.parametrize("F", _SYMBOL_FIELDS, ids=repr)
def test_int_enumerator_matches_reference_loop_per_field(F):
    rng = random.Random(F.q)
    for _ in range(6):
        n = rng.randint(1, 7)
        k = rng.randint(1, min(n, _SYMBOL_FIELDS[F]))
        C = code_from_rows(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)], n)
        words, counts = list(reference_normalized_words(C)), reference_distribution(C)
        d = next((w for w in range(1, n + 1) if counts[w]), n + 1)
        for block in (code_module._BLOCK, 2, 5, 16):
            with mock.patch.object(code_module, "_BLOCK", block):
                assert block_words(C, code_module._word_blocks(C.G)) == words
                assert code_module._weight_distribution(C.G) == counts
                assert code_module._min_weight(C.G) == d
                assert min_distance_exhaustive(C) == d
                check_light_basis(C, block)


@pytest.mark.parametrize("F, n, lane", [(F2, 255, 1), (F2, 256, 2), (F4, 260, 2), (F7, 600, 2)],
                         ids=["GF(2)-255", "GF(2)-256", "GF(4)", "GF(7)"])
def test_long_words_weigh_in_wider_count_lanes(F, n, lane):
    # a weight up to 255 fits a one-byte count lane; from n = 256 on it takes two
    # bytes.  The all-ones word reaches weight n, and a weight-1 word is the least
    rng = random.Random(n)
    rows = [[rng.randrange(F.q) if rng.random() < 0.9 else 0 for _ in range(n)] for _ in range(2)]
    rows += [[1] * n, [0] * (n - 1) + [1]]
    C = code_from_rows(F, rows, n)
    assert code_module._words(F, n).c == lane
    assert code_module._weight_distribution(C.G) == reference_distribution(C)
    assert code_module._light_basis(C.G)[1] == tuple(reference_greedy_weights(C))


def rs7():
    return cyclic_code(defset(6, 7, {1, 2, 3}), F7, F7)


def rs9():
    return cyclic_code(defset(8, 9, {1, 2, 3, 4, 5}), F9, F9)


# the Reed-Solomon codes are built in the test bodies, so that an odd-field
# product or rank fault fails these tests and not the collection of the module
@pytest.mark.parametrize("build, M", [(rs7, "H"), (rs9, "G")], ids=["RS7", "RS9"])
def test_enumerator_matches_reference_loop_on_rs_codes(build, M):
    C = build()
    check_enumerator(C, getattr(C, M), 1 << 22, code_module._BLOCK)
    check_light_basis(C, 2)


def reference_greedy_weights(C):
    """The weights of a basis picked from the reference loop's words, lightest
    first, each word kept when it raises the rank of those kept before it."""
    words = sorted(reference_words(C), key=lambda word: sum(1 for e in word if e))
    kept = []
    for word in words:
        if len(kept) == C.k:
            break
        if len(reference_rref(Matrix(C.field, kept + [word], C.n))[1]) > len(kept):
            kept.append(word)
    return [sum(1 for e in word if e) for word in kept]


@settings(deadline=None, derandomize=True, max_examples=150)
@given(code_and_map(), st.sampled_from([code_module._BLOCK, 2, 5, 16]))
def test_light_basis_is_a_greedy_basis(case, block):
    check_light_basis(case[0], block)


def check_light_basis(C, block):
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
    # the [15, 11] Hermitian-LCD code over GF(4): 4^11 codewords, enumerated
    # directly (min_distance_exhaustive measures it through its dual)
    C = cyclic_code(defset(15, 4, {3, 6, 9, 12}), F4, splitting_field(4, 15))
    assert C.k == 11
    t0 = time.perf_counter()
    assert code_module._min_weight(C.G) == 2
    assert time.perf_counter() - t0 < 1.0


@pytest.fixture
def counted(monkeypatch):
    """The number of words weighed since the last reset, counted at _Words.weights."""
    counted = [0]
    weights = code_module._Words.weights

    def counting(self, X, N):
        counted[0] += N
        result = weights(self, X, N)
        assert len(result) == N
        return result

    monkeypatch.setattr(code_module._Words, "weights", counting)
    return counted


@pytest.mark.parametrize("block", [code_module._BLOCK, 16])
def test_enumerator_weighs_one_word_per_projective_point(monkeypatch, counted, block):
    monkeypatch.setattr(code_module, "_BLOCK", block)
    C = cyclic_code(defset(15, 4, {3, 6, 9, 12}), F4, splitting_field(4, 15))
    assert code_module._min_weight(C.G) == 2
    assert counted[0] == (4 ** 11 - 1) // 3 == 1_398_101
    # over GF(2) every nonzero message is normalized: the [15, 11] Hamming code
    # weighs all of them and no zero message
    counted[0] = 0
    C = cyclic_code(defset(15, 2, {1, 2, 4, 8}), F2, splitting_field(2, 15))
    assert (C.k, code_module._min_weight(C.G)) == (11, 3)
    assert counted[0] == 2 ** 11 - 1
    # the RS [13, 2, 12] over GF(27); at block 16 no row fits in the low
    # group, so its 28 normalized words are high words met by the zero word
    counted[0] = 0
    F27 = field_create(3, 3)
    C = cyclic_code(defset(13, 27, range(1, 12)), F27, F27)
    assert (C.k, code_module._min_weight(C.G)) == (2, 12)
    assert counted[0] == 27 + 1


def test_high_rate_codes_are_measured_through_their_duals(counted):
    # k > n - k: min_distance_exhaustive weighs one word per projective point
    # of the dual, (q^(n-k) - 1)/(q - 1), not of the code
    C = cyclic_code(defset(15, 4, {3, 6, 9, 12}), F4, splitting_field(4, 15))
    assert min_distance_exhaustive(C) == 2
    assert counted[0] == (4 ** 4 - 1) // 3 == 85
    counted[0] = 0
    C = cyclic_code(defset(15, 2, {1, 2, 4, 8}), F2, splitting_field(2, 15))
    assert min_distance_exhaustive(C) == 3
    assert counted[0] == 2 ** 4 - 1


@pytest.mark.parametrize("block", [code_module._BLOCK, 16])
def test_distance_weighs_every_normalized_word_of_the_smaller_side(monkeypatch, counted, block):
    # one min_distance_exhaustive call weighs (q^s - 1)/(q - 1) words, s = min(k, n - k):
    # over GF(4) at n = 15, a [15, 6] code directly and a [15, 9] code through its dual
    monkeypatch.setattr(code_module, "_BLOCK", block)
    ext = splitting_field(4, 15)
    for Z, k, d in (({1, 2, 3, 4, 5, 6, 8, 9, 12}, 6, 7), ({1, 2, 3, 4, 8, 12}, 9, 5)):
        counted[0] = 0
        C = cyclic_code(defset(15, 4, Z), F4, ext)
        assert (C.k, min_distance_exhaustive(C)) == (k, d)
        assert counted[0] == (4 ** 6 - 1) // 3 == 1365
    # a weight-1 word stops nothing: all (4^5 - 1)/3 words of a [10, 5, 1] code are weighed
    counted[0] = 0
    rows = [(1, 0, 2, 0, 3, 3, 3, 3, 1, 0), (3, 0, 3, 3, 0, 3, 2, 1, 0, 2),
            (0, 0, 0, 0, 3, 1, 3, 0, 1, 3), (3, 1, 2, 1, 1, 3, 2, 0, 3, 0), (0,) * 9 + (1,)]
    C = code_from_rows(F4, rows, 10)
    assert (C.k, min_distance_exhaustive(C)) == (5, 1)
    assert counted[0] == (4 ** 5 - 1) // 3 == 341


# q -> lengths of its cyclic codes: the lane fields, and one field without
# lane rows, GF(27), whose codes with n - k < k and 27^k within the cap have n <= 7
# (n = 5 is left out: its splitting field GF(3^12) takes seconds to build)
_DUAL_LENGTHS = {2: (7, 9, 15), 3: (4, 8, 11, 13), 4: (5, 7, 9, 15), 5: (4, 6, 8, 12),
                 9: (4, 5, 8, 10), 27: (4, 7)}


@functools.cache
def high_rate_defsets(q):
    """Every defining set of a cyclic code over GF(q) of a length in
    _DUAL_LENGTHS with n - k < k and q^k within the default cap: 544 codes
    over the six fields, listed when first drawn."""
    return [Z for n in _DUAL_LENGTHS[q] for Z in closed_subsets(n, q)
            if 2 * len(Z.elems) < n and q ** (n - len(Z.elems)) <= code_module.DEFAULT_DISTANCE_CAP]


@st.composite
def high_rate_code(draw):
    """A code with n - k < k and q^k within the default cap: a cyclic code,
    or over q > 2 the span of k random rows, with q^k <= 2^16 so that the
    direct enumeration it is checked against stays fast."""
    q = draw(st.sampled_from(sorted(_DUAL_LENGTHS)))
    if q == 2 or draw(st.booleans()):
        Z = draw(st.sampled_from(high_rate_defsets(q)))
        return cyclic_code(Z, field_from_order(q), splitting_field(q, Z.n))
    k = draw(st.integers(1, max(k for k in range(1, 11) if q ** k <= 1 << 16)))
    n = draw(st.integers(k, min(2 * k - 1, 15)))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    C = code_from_rows(field_from_order(q), draw(st.lists(row, min_size=k, max_size=k)), n)
    assume(C.k == k)
    return C


@settings(deadline=None, derandomize=True, max_examples=200)
@given(high_rate_code())
def test_dual_route_matches_the_direct_enumeration(C):
    assert min_distance_exhaustive(C) == code_module._min_weight(C.G)


def test_dual_route_keeps_the_cap_on_q_to_the_k():
    # a [15, 12] code over GF(4): 4^12 words over the cap, its dual only 64
    C = cyclic_code(defset(15, 4, {0, 5, 10}), F4, splitting_field(4, 15))
    assert C.k == 12 and 4 ** (C.n - C.k) == 64
    with pytest.raises(EnumerationCapError):
        min_distance_exhaustive(C)


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


def reference_outputs(M, B):
    """Rank, kernel basis and product by the reference loops."""
    F = M.field
    rows, pivots = reference_rref(M)
    kernel = []
    for f in (c for c in range(M.ncols) if c not in pivots):
        v = [0] * M.ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(rows[i][f])
        kernel.append(v)
    return len(pivots), tuple(map(tuple, kernel)), tuple(map(tuple, reference_product(M, B)))


@pytest.mark.parametrize("F", [F2, F3, F4, F5, F8, F9, F16, field_create(3, 3)])
def test_log_tables_multiply_with_zero(F):
    log, exp = F._log, F._exp
    assert len(log) == F.q and len(exp) <= 4 * F.q
    for a in range(F.q):
        assert [exp[log[a] + log[b]] for b in range(F.q)] == [F.mul(a, b) for b in range(F.q)]


# one field per engine shape: bit rows (GF(2)); byte rows over characteristic
# 2 (GF(4), GF(8), GF(16), GF(32), GF(256)), over the odd primes up to 7 in a
# 4-bit digit lane, over the two-digit odd fields GF(9), GF(25), GF(49), and
# over the primes 11 and 127; and tuple rows for the fields without a lane
# form, in characteristic 2 (GF(2^10)), over a prime (GF(131)) and over odd
# extension fields (GF(27), GF(81), GF(121), GF(3^6))
_KERNEL_FIELDS = (F2, F3, F4, F5, F7, F8, F9, field_create(11, 1), F16, field_create(5, 2),
                  field_create(3, 3), field_create(2, 5), field_create(7, 2),
                  field_create(127, 1), field_create(131, 1), field_create(2, 8),
                  field_create(2, 10), field_create(3, 6), field_create(3, 4),
                  field_create(11, 2))


def test_lane_forms_of_the_fields_up_to_256():
    lane_bits = {q: L.b for q in range(2, 257) if prime_power(q)
                 for L in [code_module._lanes(field_from_order(q))] if L}
    # GF(2) keeps bit rows for its Four Russians product; every other lane
    # field stores one byte per entry
    lane_fields = {2, 3, 4, 5, 7, 8, 9, 16, 25, 32, 49, 64, 128, 256,
                   *(p for p in range(11, 128) if is_prime(p))}
    assert lane_bits == {q: 1 if q == 2 else 8 for q in lane_fields}
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
    return Matrix(F, rows, ncols)


def _bch_hermit_pair():
    """A GF(9) code C of bch-hermit --q 3 and G^3, whose 80 x 80 stack [H; G^3]
    the sweep ranks."""
    Z = bch_hermit(3, 4).defset_named("Z")
    C = cyclic_code(Z, F9, splitting_field(9, 80))
    return C, frobenius_entrywise(C.G, 3)


def _bch_hermit_stack():
    C, G3 = _bch_hermit_pair()
    return stack(C.H, G3)


def _check_kernels(M, B):
    """Rank, kernel basis, product and Frobenius map of the field's one engine
    against the reference loops."""
    F = M.field
    # a kernel result whose tuple rows were never derived: over a lane field
    # only its lane rows reach the row reduction
    T = transpose(M)
    assert T._rows is None or code_module._lanes(F) is None
    assert (rank(T), kernel_basis(T).rows) == reference_outputs(T, M)[:2]
    outputs = (rank(M), kernel_basis(M).rows, product(M, B).rows)
    assert outputs == reference_outputs(M, B)
    r, kernel, prod = outputs
    # over GF(2) B keeps its Four Russians tables, which the second product
    # reads warm; every other field keeps nothing
    assert (B._row_sums is not None) == (F.q == 2)
    assert product(M, B).rows == prod
    assert type(r) is int
    assert all(type(e) is int for m in (kernel, prod) for row in m for e in row)
    q0 = math.isqrt(F.q)
    if q0 * q0 == F.q:
        assert frobenius_entrywise(M, q0).rows == tuple(tuple(F.pow(e, q0) for e in r) for r in M.rows)
    # a kernel's result and the same matrix built from its tuple rows are equal
    # and hash alike; stack and transpose keep row and column order
    for R in (kernel_basis(M), product(M, B), transpose(M)):
        rebuilt = Matrix(R.field, R.rows, R.ncols)
        assert R == rebuilt and hash(R) == hash(rebuilt)
        assert R.nrows == len(R.rows)
        other = M if M.ncols == R.ncols else R
        assert stack(R, other).rows == R.rows + other.rows
        T = transpose(R)
        assert T.rows == (tuple(zip(*R.rows)) if R.rows else ((),) * R.ncols)
        assert (T.nrows, T.ncols) == (R.ncols, R.nrows) and transpose(T) == R
        assert T == Matrix(R.field, T.rows, T.ncols)
    assert stack(M, kernel_basis(M)).rows == M.rows + kernel
    assert transpose(M).rows == (tuple(zip(*M.rows)) if M.rows else ((),) * M.ncols)
    L = code_module._lanes(F)
    if L:  # every translate table sends each byte that is not a code to 0
        invalid = [v for v in range(256) if v not in L.element]
        for table in itertools.chain(L.times.values(), L.power.values()):
            assert not any(table[v] for v in invalid)
    if F.q == 2:  # every nonzero GF(2) scalar is 1: no translate table is built
        assert not (L.times or L.over or L.power) and L.minus is None


@pytest.mark.parametrize("F", _KERNEL_FIELDS, ids=repr)
@settings(deadline=None, derandomize=True, max_examples=30)
@given(data=st.data())
def test_kernels_match_reference_loop(F, data):
    nrows, ncols, bcols = (data.draw(st.integers(0, 24)) for _ in range(3))
    _check_kernels(data.draw(field_matrix(F, nrows, ncols)), data.draw(field_matrix(F, ncols, bcols)))


@pytest.mark.parametrize("F", _KERNEL_FIELDS, ids=repr)
def test_kernels_match_reference_loop_on_zero_columns(F):
    # three rows of width zero; their transpose has no rows and three columns
    _check_kernels(Matrix(F, [()] * 3, 0), Matrix(F, [], 2))


def test_kernels_match_reference_loop_on_the_bch_hermit_stack():
    M = _bch_hermit_stack()
    _check_kernels(M, transpose(M))


def test_kept_echelon_gives_the_dimension_identity():
    # the identity's rk[H1; G2] from the echelon of H1 kept by C1, against the
    # rank of the whole stack: every ordered pair of three pair sweeps, the
    # pair (C, C^q0) of every code of a Hermitian sweep and of every 64th code
    # of another, and the GF(9) stack.  rs-mds over GF(27) and the codes over
    # GF(121) keep tuple rows; every other field here has lane rows
    codes = {}

    def code(Z, q):
        if (Z, q) not in codes:
            codes[Z, q] = cyclic_code(Z, field_from_order(q), splitting_field(q, Z.n))
        return codes[Z, q]

    pairs = [(code(p.defset_named("Z1"), q), code(p.defset_named("Z2"), q).G)
             for q, n, family in ((2, 15, "euclid-pair"), (7, None, "rs-euclid"),
                                  (27, None, "rs-mds"))
             for p in instances(family, q, n)]
    pairs += [(C, frobenius_entrywise(C.G, q0))
              for q0, n, family, step in ((2, 15, "hermitian-lcd", 1), (11, 12, "hermitian", 64))
              for C in (code(p.defset_named("Z"), q0 * q0)
                        for p in instances(family, q0, n)[::step])]
    pairs.append(_bch_hermit_pair())
    assert len(pairs) == 1024 + 330 + 91 + 64 + 64 + 1
    assert sum(C1.H.lanes is None for C1, _ in pairs) == 91 + 64
    for C1, G2 in pairs:
        assert code_module.stacked_rank(C1, G2) == rank(stack(C1.H, G2))
    # two pairs against one code in turn leave its kept echelon as it was, with
    # lane rows and with tuple rows
    for q, n, Z1, Z2s in ((2, 15, {1, 2, 4, 8}, ({0}, {3, 6, 9, 12})),
                          (27, 26, {1, 2, 3}, ({0}, {4, 5}))):
        C1 = code(defset(n, q, Z1), q)
        kept = copy.deepcopy(C1._H_echelon)
        for Z2 in Z2s:
            G2 = code(defset(n, q, Z2), q).G
            assert code_module.stacked_rank(C1, G2) == rank(stack(C1.H, G2))
            assert C1._H_echelon == kept


def test_gf2_rank_and_entanglement_never_unpack(monkeypatch):
    ext = splitting_field(2, 15)
    codes = [cyclic_code(Z, F2, ext) for Z in closed_subsets(15, 2)]
    M = Matrix(F2, [(1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0)], 4)
    expected = [[entanglement_rank_euclid(C1, C2) for C2 in codes] for C1 in codes]
    # Hermitian ranks over GF(4) and GF(16) run on byte lane rows
    hermitian = [(cyclic_code(Z, F, splitting_field(F.q, n)), q0)
                 for F, q0, n in ((F4, 2, 15), (F16, 4, 5))
                 for Z in closed_subsets(n, F.q)]
    expected_hermitian = [entanglement_rank_hermitian(C, q0) for C, q0 in hermitian]
    assert expected_hermitian == [C.H.nrows - hermitian_hull_dim(C, q0) for C, q0 in hermitian]

    def refuse(*_):
        raise AssertionError("lane rows unpacked")

    monkeypatch.setattr(code_module._Lanes, "unpack", refuse)
    assert rank(M) == 2 and rank(kernel_basis(M)) == 2
    assert [[entanglement_rank_euclid(C1, C2) for C2 in codes] for C1 in codes] == expected
    assert [entanglement_rank_hermitian(C, q0) for C, q0 in hermitian] == expected_hermitian
    with pytest.raises(AssertionError, match="unpacked"):
        kernel_basis(M).rows  # a kernel result has no tuple rows until they are read


def test_lane_fields_never_reach_the_row_kernels(monkeypatch, capsys):
    # every matrix over a field with a lane form stays in lane form: none reaches
    # the tuple-row echelon or product
    reached = []

    def guarded(kernel):
        def run(M, *rest):
            assert code_module._lanes(M.field) is None, f"{M.field!r} reached {kernel.__name__}"
            reached.append(M.field)
            return kernel(M, *rest)
        return run

    for kernel in (code_module._tuple_echelon, code_module._product_rows):
        monkeypatch.setattr(code_module, kernel.__name__, guarded(kernel))
    for argv in (["verify", "--family", "hermitian-lcd", "--q", "2", "--n", "15"],
                 ["verify", "--family", "hermitian", "--q", "4", "--n", "5"],
                 ["verify", "--family", "bch-hermit", "--q", "3"],
                 ["verify", "--family", "rs-euclid", "--q", "7"]):
        assert main(argv) == 0
    assert "0 failed" in capsys.readouterr().out
    assert reached == []
    F27 = field_create(3, 3)  # the guards are live
    M = Matrix(F27, [(1, 2), (3, 4)], 2)
    assert rank(M) == 2 and product(M, M).nrows == 2
    assert reached == [F27, F27]


@pytest.mark.parametrize("build", [
    lambda: cyclic_code(defset(5, 4, {1, 4}), F4, splitting_field(4, 5)),
    lambda: cyclic_code(defset(5, 4, {0}), F4, splitting_field(4, 5)),
    rs9,
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
    stacks = [Matrix(F9, [[rng.randrange(9) for _ in range(80)] for _ in range(80)], 80)
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
        LinearCode(F2, 2, Matrix(F2, [(1, 0)], 2), Matrix(F2, [(1, 0)], 2))
