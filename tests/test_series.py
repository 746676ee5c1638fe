"""Truncated power series with tracked-precision coefficients."""

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import rings, series_constant, tracked_elements
from dvrlu import DivisionByUnknownZero, DvrConfig, PrecElem
from dvrlu.series import SeriesElem

CFG = DvrConfig(p=5, prec=8)


def ser(*vals, order=None):
    order = len(vals) if order is None else order
    coeffs = [PrecElem.from_int(CFG, v, abs_prec=8) for v in vals]
    while len(coeffs) < order:
        coeffs.append(PrecElem.bigoh(CFG, 8))
    return SeriesElem(CFG, coeffs)


def test_constant_embeds_scalar():
    c = series_constant(PrecElem.from_int(CFG, 3, abs_prec=8), 4, 8)
    assert c.order == 4
    assert c.coeffs[0].representative() == 3
    assert all(x.is_zeroish for x in c.coeffs[1:])


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        ser(1, 2) + ser(1, 2, 3)


def test_constant_arithmetic_matches_scalars():
    a, b = 17, 23
    sa, sb = ser(a, 0, 0), ser(b, 0, 0)
    sc = sa * sb + sa
    expect = PrecElem.from_int(CFG, a, abs_prec=8) * PrecElem.from_int(
        CFG, b, abs_prec=8
    ) + PrecElem.from_int(CFG, a, abs_prec=8)
    assert sc.coeffs[0] == expect


def test_mul_is_truncated_convolution():
    # (1 + X)(1 - X) = 1 - X^2, truncated at order 2 it is just 1
    a = ser(1, 1)
    b = ser(1, 5**8 - 1)
    prod = a * b
    assert prod.coeffs[0].representative() == 1
    assert prod.coeffs[1].is_zeroish


def test_division_long_division():
    a = ser(2, 3, 4)
    b = ser(1, 1, 0)
    q = a / b
    assert ((q * b) - a).abs_prec >= 8 and all(
        c.is_zeroish for c in (q * b - a).coeffs
    )


def test_division_by_zeroish_constant_refused():
    a = ser(1, 2)
    bad = ser(0, 1)
    with pytest.raises(DivisionByUnknownZero):
        a / bad


def test_division_by_positive_valuation_constant_allowed():
    # constant term 5 is a non-unit but its valuation is known
    a = ser(5, 0)
    b = ser(5, 5)
    q = a / b
    assert q.coeffs[0].valuation == 0


def test_pivot_protocol():
    s = ser(50, 1)
    assert s.pivot_scalar().valuation == 2
    assert not s.is_zeroish
    assert ser(0, 7).is_zeroish  # zeroish constant term is a zeroish pivot
    one = s.like_one(8)
    assert one.coeffs[0].representative() == 1
    assert s.like_zero(8).is_zeroish


def test_precision_surgery_coefficientwise():
    s = ser(3, 10)
    assert s.cap_abs(2).abs_prec == 2
    assert s.lift_to_precision(12).abs_prec == 12
    assert s.val_lower_bound == 0


def test_json_roundtrip():
    s = ser(3, 0, 12)
    assert SeriesElem.from_json(CFG, s.to_json(), 3) == s


# ---------------------------------------------------------------------------
# the field loops against the element loops


@given(st.data())
def test_field_product_matches_element_loop(data):
    cfg = data.draw(rings)
    order = data.draw(st.integers(1, 5))
    a, b = ([data.draw(tracked_elements(cfg)) for _ in range(order)] for _ in "ab")
    got = SeriesElem(cfg, a) * SeriesElem(cfg, b)
    assert got.coeffs == tuple(oracles.series_product(a, b))


@given(st.data())
def test_field_quotient_matches_element_loop(data):
    # g_0 may have any known valuation: a non-unit or negative one too
    cfg = data.draw(rings)
    order = data.draw(st.integers(1, 5))
    f = [data.draw(tracked_elements(cfg)) for _ in range(order)]
    g = [data.draw(tracked_elements(cfg, unit=True))]
    g += [data.draw(tracked_elements(cfg)) for _ in range(order - 1)]
    got = SeriesElem(cfg, f) / SeriesElem(cfg, g)
    assert got.coeffs == tuple(oracles.series_quotient(f, g))
