import random

import pytest

from conftest import flat_from_ints
from dvrlu import DvrConfig, PrecElem, PrecMatrix, random_matrix

CFG = DvrConfig(p=5, prec=6)


def test_rejects_ragged_rows():
    e = PrecElem.from_int(CFG, 1)
    with pytest.raises(ValueError):
        PrecMatrix([[e, e], [e]])


def test_indexing_and_copy_independence():
    m = flat_from_ints(CFG, [[1, 2], [3, 4]])
    c = m.copy()
    c[0, 0] = PrecElem.from_int(CFG, 9, abs_prec=6)
    assert m[0, 0].representative() == 1
    assert c[0, 0].representative() == 9


def test_swap_cols_and_sub_scaled_col():
    m = flat_from_ints(CFG, [[1, 2], [3, 4]])
    m.swap_cols(0, 1)
    assert [m[0, 0].representative(), m[0, 1].representative()] == [2, 1]
    s = PrecElem.from_int(CFG, 2, abs_prec=6)
    m.sub_scaled_col(s, 0, 1)  # col1 -= 2*col0
    assert m[0, 1].representative() == (1 - 4) % 5**6
    assert m[1, 1].representative() == (3 - 8) % 5**6


def test_blocks_roundtrip():
    m = flat_from_ints(CFG, [[i * 4 + j for j in range(4)] for i in range(4)])
    parts = [
        [m.block(0, 2, 0, 2), m.block(0, 2, 2, 4)],
        [m.block(2, 4, 0, 2), m.block(2, 4, 2, 4)],
    ]
    assert PrecMatrix([a + b for band in parts for a, b in zip(band[0].rows, band[1].rows)]) == m


def test_identity_and_zero_like():
    proto = flat_from_ints(CFG, [[1]])
    i2 = PrecMatrix.identity_like(proto, 2, 6)
    assert i2[0, 0].representative() == 1 and i2[0, 1].is_zeroish
    z = PrecMatrix.zero_like(proto, 2, 3, 6)
    assert all(e.is_zeroish for row in z.rows for e in row) and z.nrows == 2 and z.ncols == 3


def test_cap_and_lift_are_entrywise():
    m = flat_from_ints(CFG, [[1, 2], [3, 4]])
    assert m.cap_abs(3).min_abs_prec() == 3
    assert m.lift_to_precision(9).min_abs_prec() == 9


def test_random_matrix_flat_and_deterministic():
    a = random_matrix(CFG, 3, random.Random(5))
    b = random_matrix(CFG, 3, random.Random(5))
    assert a == b
    assert a.min_abs_prec() == 6


def test_json_roundtrip():
    m = flat_from_ints(CFG, [[1, 50], [12, 4]])
    assert PrecMatrix.from_json(CFG, m.to_json()) == m
    with pytest.raises(ValueError):
        PrecMatrix.from_json(CFG, {"d": 2, "rows": [[]]})
