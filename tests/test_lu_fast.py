import random
from fractions import Fraction

import pytest

import oracles
from conftest import elem_matches_fraction, flat_from_ints, random_int_rows
from dvrlu import (
    AmbiguousValuation,
    DvrConfig,
    PrecElem,
    PrecMatrix,
    clear_block,
    lv_decomposition,
    matmul,
    random_matrix,
    recursive_lv,
    working_precision,
)
from dvrlu.lu_fast import elimination_order, get_mul_count, is_nice_order, reset_mul_count

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
    reset_mul_count()
    c = matmul(a, b)
    assert get_mul_count() == 27
    for i in range(3):
        for j in range(3):
            exact = sum(Fraction(a_rows[i][k] * b_rows[k][j]) for k in range(3))
            assert elem_matches_fraction(c[i, j], exact)


def test_matmul_rectangular():
    a = flat_from_ints(CFG, [[1, 2, 3]])
    b = flat_from_ints(CFG, [[1], [1], [1]])
    assert matmul(a, b)[0, 0].representative() == 6
    # strassen silently falls back to classical off the square case
    assert matmul(a, b, algo="strassen")[0, 0].representative() == 6


def test_strassen_value_equal_with_odd_padding():
    rng = random.Random(2)
    for d in (4, 5, 9):
        a = random_matrix(CFG2, d, rng)
        b = random_matrix(CFG2, d, rng)
        c1 = matmul(a, b)
        c2 = matmul(a, b, algo="strassen", cutoff=2)
        for i in range(d):
            for j in range(d):
                x, y = c1[i, j], c2[i, j]
                k = min(x.abs_prec if not x.is_zeroish else x.val_lower_bound,
                        y.abs_prec if not y.is_zeroish else y.val_lower_bound)
                assert x.cap_abs(k) == y.cap_abs(k), (d, i, j)


def test_strassen_multiplication_count_is_seven_to_the_k():
    rng = random.Random(3)
    for k in (2, 3):
        d = 2**k
        a = random_matrix(CFG, d, rng)
        b = random_matrix(CFG, d, rng)
        reset_mul_count()
        matmul(a, b, algo="strassen", cutoff=1)
        assert get_mul_count() == 7**k
        reset_mul_count()
        matmul(a, b)
        assert get_mul_count() == d**3


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
                xf, t = clear_block(x, y, n)
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
                for threshold in (2, 3):
                    got = recursive_lv(m, threshold=threshold)
                    assert_same_output(want, got)


def test_recursive_above_threshold_delegates():
    rng = random.Random(6)
    m = random_matrix(CFG, 4, rng)
    assert_same_output(lv_decomposition(m), recursive_lv(m, threshold=32))


@pytest.mark.parametrize("threshold", [0, -3])
def test_recursive_rejects_threshold_below_one(threshold):
    m = random_matrix(CFG, 4, random.Random(6))
    with pytest.raises(ValueError, match=f"threshold must be at least 1, got {threshold}"):
        recursive_lv(m, threshold=threshold)


# the counts of the element-by-element products; the integer kernel, which
# runs these capped products, must count the same
@pytest.mark.parametrize("seed, d, count", [(11, 6, 1382), (12, 7, 2365), (13, 9, 5546)])
def test_recursive_mul_count_is_pinned(seed, d, count):
    m = random_matrix(CFG, d, random.Random(seed))
    reset_mul_count()
    recursive_lv(m, threshold=2)
    assert get_mul_count() == count


@pytest.mark.parametrize("seed, k, w, count", [(21, 3, 4, 1465), (22, 4, 5, 3445), (23, 5, 3, 2748)])
def test_clear_block_mul_count_is_pinned(seed, k, w, count):
    rng = random.Random(seed)
    x = lv_decomposition(random_matrix(CFG, k, rng)).hp
    y = PrecMatrix([[PrecElem.random(CFG, rng) for _ in range(w)] for _ in range(k)])
    reset_mul_count()
    clear_block(x, y, CFG.prec)
    assert get_mul_count() == count


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


def test_recursive_with_strassen_is_value_equal():
    rng = random.Random(7)
    hits = 0
    while hits < 4:
        m = random_matrix(CFG2, 6, rng)
        try:
            want = lv_decomposition(m)
        except AmbiguousValuation:
            continue
        try:
            got = recursive_lv(m, threshold=2, algo="strassen")
        except AmbiguousValuation:
            continue  # coarser intermediate precision may block a swap test
        hits += 1
        for name in ("lp", "vp", "hp", "wp"):
            a, b = getattr(want, name), getattr(got, name)
            for i in range(6):
                for j in range(6):
                    x, y = a[i, j], b[i, j]
                    k = min(
                        x.abs_prec if not x.is_zeroish else x.val_lower_bound,
                        y.abs_prec if not y.is_zeroish else y.val_lower_bound,
                    )
                    assert x.cap_abs(k) == y.cap_abs(k)


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
