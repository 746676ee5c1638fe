import random
from fractions import Fraction

import pytest

import oracles
from conftest import clear_band, elem_matches_fraction, flat_from_ints, random_int_rows
from oracles import elimination_order, is_nice_order
from dvrlu import (
    AmbiguousValuation,
    DvrConfig,
    PrecElem,
    PrecMatrix,
    lv_decomposition,
    matmul,
    random_matrix,
    recursive_lv,
)
from dvrlu import lu_fast
from dvrlu.config import Backend
from dvrlu.lu_fast import get_mul_count
from dvrlu.lu_stable import working_precision

CFG = DvrConfig(p=5, prec=10)
CFG2 = DvrConfig(p=2, prec=24)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_classical_matches_exact_and_counts():
    rng = random.Random(1)
    a_rows = random_int_rows(rng, 3, 5, 10)
    b_rows = random_int_rows(rng, 3, 5, 10)
    a = flat_from_ints(CFG, a_rows)
    b = flat_from_ints(CFG, b_rows)
    start = get_mul_count()
    c = matmul(a, b)
    assert get_mul_count() - start == 27
    for i in range(3):
        for j in range(3):
            exact = sum(Fraction(a_rows[i][k] * b_rows[k][j]) for k in range(3))
            assert elem_matches_fraction(c[i, j], exact)


def test_matmul_rectangular():
    a = flat_from_ints(CFG, [[1, 2, 3]])
    b = flat_from_ints(CFG, [[1], [1], [1]])
    assert matmul(a, b)[0, 0].representative() == 6


# residues of both rings: Z_2 mod 2^24 and F_3[[t]] mod t^8
RINGS = (CFG2, DvrConfig(p=3, prec=8, backend=Backend.SERIES))


def _residues(cfg, rng, h, w):
    """An h x w row list of random stored ints mod pi^N of ring cfg."""
    return [[cfg.ops.encode(rng.randrange(cfg.p**cfg.prec)) for _ in range(w)]
            for _ in range(h)]


def test_strassen_value_equal_with_odd_padding():
    # Strassen's recursion on residues mod pi^N, odd sizes padded with an
    # identity row and column, is the classical product digit for digit; a
    # product that is not square stays classical
    rng = random.Random(2)
    for cfg in RINGS:
        ops, n = cfg.ops, cfg.prec
        for d in range(1, 18):
            a, b = _residues(cfg, rng, d, d), _residues(cfg, rng, d, d)
            want = ops.product(a, list(zip(*b)), n)
            for cutoff in (1, 2, 8):
                assert lu_fast._strassen(ops, a, b, n, cutoff) == want, (cfg, d, cutoff)
        a, b = _residues(cfg, rng, 1, 3), _residues(cfg, rng, 3, 1)
        start = get_mul_count()
        strassen = lu_fast._Residues(cfg, n, "strassen")
        assert strassen.product(a, b) == ops.product(a, list(zip(*b)), n)
        assert get_mul_count() - start == 3


def test_strassen_multiplication_count_is_seven_to_the_k():
    rng = random.Random(3)
    for cfg in RINGS:
        for k in (2, 3):
            d = 2**k
            a, b = _residues(cfg, rng, d, d), _residues(cfg, rng, d, d)
            start = get_mul_count()
            lu_fast._strassen(cfg.ops, a, b, cfg.prec, 1)
            assert get_mul_count() - start == 7**k
            start = get_mul_count()
            lu_fast._Residues(cfg, cfg.prec, "classical").product(a, b)
            assert get_mul_count() - start == d**3


# ---------------------------------------------------------------------------
# band clearing
# ---------------------------------------------------------------------------


def eliminated_block(cfg, k, rng):
    while True:
        m = random_matrix(cfg, k, rng)
        try:
            out = lv_decomposition(m)
        except AmbiguousValuation:
            continue
        if not out.degenerate:
            return out.hp


def test_clear_block_multiply_back_bit_identical():
    # recursive_lv's band step, recursing down to one-row bands
    rng = random.Random(4)
    for cfg in (CFG, CFG2):
        for k, w in ((1, 3), (2, 2), (3, 4), (4, 1)):
            n = cfg.prec
            x = eliminated_block(cfg, k, rng)
            y = PrecMatrix(
                [[PrecElem.random(cfg, rng) for _ in range(w)]
                 for _ in range(k)]
            )
            try:
                xf, t = clear_band(x, y, n)
            except AmbiguousValuation:
                continue
            band = PrecMatrix([list(xr) + list(yr) for xr, yr in zip(x.rows, y.rows)])
            prod = matmul(band, t).cap_abs(n)
            for i in range(k):
                for j in range(k + w):
                    if j < k:
                        assert prod[i, j] == xf[i, j], (k, w, i, j)
                    else:
                        assert prod[i, j].is_zeroish, (k, w, i, j)
                        assert prod[i, j].val_lower_bound == n


# ---------------------------------------------------------------------------
# the recursive decomposition
# ---------------------------------------------------------------------------


def assert_same_output(a, b):
    assert a.lp == b.lp
    assert a.vp == b.vp
    assert a.hp == b.hp
    assert a.wp == b.wp
    assert a.col_val == b.col_val
    assert a.degenerate == b.degenerate


def test_recursive_is_bit_identical_to_scalar():
    rng = random.Random(5)
    for cfg in (CFG2, CFG):
        for d in (2, 3, 4, 6, 8):
            trials = 0
            while trials < 6:
                m = random_matrix(cfg, d, rng)
                try:
                    want = lv_decomposition(m)
                except AmbiguousValuation:
                    continue
                trials += 1
                # at thresholds d and 32 the residue leaf is the whole run
                for threshold in (2, 3, d, 32):
                    got = recursive_lv(m, threshold=threshold)
                    assert_same_output(want, got)
    # F_5[[t]], N = 5, d = 8, entries of valuation -2..1: no residues, so
    # recursive_lv is lv_decomposition at every threshold, never a refusal
    # of a working precision N <= 0
    m = _negative_valuation_matrix(DvrConfig(p=5, prec=5, backend=Backend.SERIES), 8)
    for threshold in (1, 2, 3):
        assert_same_output(lv_decomposition(m), recursive_lv(m, threshold=threshold))


def _negative_valuation_matrix(cfg, d):
    """A d x d matrix flat at cfg.prec whose entries have valuations -2..1."""
    rng, n, p = random.Random(0), cfg.prec, cfg.p
    unit = lambda rel: p * rng.randrange(p ** (rel - 1)) + rng.randrange(1, p)
    draw = lambda v: PrecElem.unit_form(cfg, v, unit(n - v), n - v)
    return PrecMatrix([[draw(rng.randint(-2, 1)) for _ in range(d)] for _ in range(d)])


@pytest.mark.parametrize("threshold", [0, -3])
def test_recursive_rejects_threshold_below_one(threshold):
    m = random_matrix(CFG, 4, random.Random(6))
    with pytest.raises(ValueError, match=f"threshold must be at least 1, got {threshold}"):
        recursive_lv(m, threshold=threshold)


# the call reaches no product: a 3x3 input below the threshold
@pytest.mark.parametrize(
    "call", [lambda m: recursive_lv(m, threshold=32, algo="bogus")], ids=["recursive_lv"]
)
def test_unknown_algo_is_refused(call):
    m = lv_decomposition(random_matrix(CFG, 3, random.Random(6))).hp
    with pytest.raises(ValueError, match="unknown multiplication algorithm 'bogus'"):
        call(m)


# the products left once the blocks and bands of at most threshold rows (one
# row for a band cleared on its own, at cut 1) are cleared by scalar steps
# and T's identity rows are copied, not multiplied, counted as
# element-by-element products; the integer kernel, which runs these capped
# products, must count the same.
# Each case is parametrized by the count from before those savings (every
# band recursed to one row, every row of T multiplied), which the pinned
# count must stay under.
RECURSIVE_MUL_COUNTS = {(11, 6): 580, (12, 7): 923, (13, 9): 1984}
CLEAR_BLOCK_MUL_COUNTS = {(21, 3, 4): 303, (22, 4, 5): 719, (23, 5, 3): 578}


@pytest.mark.parametrize("seed, d, before", [(11, 6, 783), (12, 7, 1302), (13, 9, 2978)])
def test_recursive_mul_count_is_pinned(seed, d, before):
    m = random_matrix(CFG, d, random.Random(seed))
    start = get_mul_count()
    recursive_lv(m, threshold=2)
    assert get_mul_count() - start == RECURSIVE_MUL_COUNTS[seed, d] < before


def test_recursive_mul_count_is_pinned_at_the_benchmark_shape():
    # Z_5, N = 100, d = 25 at threshold 8: perfbench's lu_padic recursive_lv op
    m = random_matrix(DvrConfig(p=5, prec=100), 25, random.Random(14))
    start = get_mul_count()
    recursive_lv(m, threshold=8)
    assert get_mul_count() - start == 39799


@pytest.mark.parametrize("seed, k, w, before", [(21, 3, 4, 530), (22, 4, 5, 1250), (23, 5, 3, 1043)])
def test_clear_block_mul_count_is_pinned(seed, k, w, before):
    rng = random.Random(seed)
    x = lv_decomposition(random_matrix(CFG, k, rng)).hp
    y = PrecMatrix([[PrecElem.random(CFG, rng) for _ in range(w)] for _ in range(k)])
    start = get_mul_count()
    clear_band(x, y, CFG.prec)
    assert get_mul_count() - start == CLEAR_BLOCK_MUL_COUNTS[seed, k, w] < before


def test_recursive_propagates_degeneracy():
    # collapse confined to the last column: no comparison ever reads it,
    # so the run completes and reports the degeneracy via the flag
    m = flat_from_ints(CFG, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    want = lv_decomposition(m)
    got = recursive_lv(m, threshold=2)
    assert want.degenerate and got.degenerate
    assert want.col_val[2] is None
    assert got.col_val == want.col_val
    assert_same_output(want, got)


def _assert_strassen_bit_identical(d, cases, threshold=2):
    # Strassen products mod pi^N are exact, so the recursion with them is
    # the scalar elimination bit for bit, on both rings; past the cutoff
    # they ran, as their count shows
    rng = random.Random(7)
    for cfg in RINGS:
        hits = 0
        while hits < cases:
            m = random_matrix(cfg, d, rng)
            try:
                want = lv_decomposition(m)
            except AmbiguousValuation:
                continue
            hits += 1
            counts = []
            for algo in ("classical", "strassen"):
                start = get_mul_count()
                assert_same_output(want, recursive_lv(m, threshold=threshold, algo=algo))
                counts.append(get_mul_count() - start)
            assert (counts[1] != counts[0]) == (d >= 16)


def test_recursive_with_strassen_is_value_equal():
    _assert_strassen_bit_identical(6, 4)


def test_recursive_with_strassen_is_value_equal_past_the_cutoff():
    # at d = 16 the 8 x 8 products reach the Strassen cutoff of 8; at d = 17
    # the 9 x 9 ones are padded to 10 x 10
    _assert_strassen_bit_identical(16, 2)
    _assert_strassen_bit_identical(17, 2)


def test_recursive_with_strassen_and_scalar_bands_is_value_equal():
    # at threshold 8 the 8-row band is cleared by scalar steps on residues,
    # and the 8 x 8 products still reach the Strassen cutoff
    _assert_strassen_bit_identical(16, 2, threshold=8)


def test_recursive_multiply_back():
    rng = random.Random(8)
    m = random_matrix(CFG2, 8, rng)
    out = recursive_lv(m, threshold=2)
    n = working_precision(m)
    assert matmul(m, out.wp).cap_abs(n) == out.hp


# ---------------------------------------------------------------------------
# elimination orders
# ---------------------------------------------------------------------------


def all_pairs(d):
    return [(i, j) for j in range(d) for i in range(j)]


def test_column_major_order_is_nice():
    for d in range(2, 9):
        assert is_nice_order(all_pairs(d), d)


def test_within_column_inversion_is_not_nice():
    # (1, 2) before (0, 2) violates the earlier-rows-first condition
    assert not is_nice_order([(0, 1), (1, 2), (0, 2)], 3)


def test_pivot_column_must_be_finished_first():
    # using column 1 as a pivot (edge (1, 2)) before finishing it ((0, 1))
    assert not is_nice_order([(0, 2), (1, 2), (0, 1)], 3)


@pytest.mark.parametrize("threshold", [0, -3])
def test_elimination_order_rejects_threshold_below_one(threshold):
    with pytest.raises(ValueError, match=f"threshold must be at least 1, got {threshold}"):
        elimination_order(4, threshold=threshold)


def test_generated_orders_are_nice_and_complete():
    for d in range(2, 9):
        for threshold in (2, 3, 32):
            order = elimination_order(d, threshold=threshold)
            assert sorted(order) == sorted(all_pairs(d))
            assert is_nice_order(order, d), (d, threshold)
