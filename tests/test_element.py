import dataclasses
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import elem_matches_fraction, rings, tracked_elements
from oracles import SchoolbookSeries, series_add, series_inv, series_mul, series_neg
from dvrlu import (
    AmbiguousValuation,
    Backend,
    DivisionByUnknownZero,
    DvrConfig,
    PrecElem,
)
from dvrlu.element import valuation_less
from dvrlu.lu_stable import lv_decomposition, naive_gauss_l, stable_l
from dvrlu.matrix import PrecMatrix
from dvrlu.series import SeriesElem
from dvrlu.sheaf import poly_mul

CFG = DvrConfig(p=5, prec=10)
CFG2 = DvrConfig(p=2, prec=16)
SER = DvrConfig(p=5, prec=10, backend=Backend.SERIES)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_from_int_zero_is_bigoh():
    z = PrecElem.from_int(CFG, 0)
    assert z.is_zeroish and z.val_lower_bound == 10
    assert PrecElem.from_int(CFG, 0, abs_prec=3).val_lower_bound == 3


def test_from_int_representative_roundtrip():
    e = PrecElem.from_int(CFG, 350, abs_prec=10)
    assert e.valuation == 2
    assert e.representative() == 350
    assert e.abs_prec == 10 and e.rel_prec == 8


def test_from_int_negative_reduces():
    e = PrecElem.from_int(CFG, -4, abs_prec=10)
    assert e.representative() == 5**10 - 4


def test_from_int_abs_below_valuation_collapses():
    e = PrecElem.from_int(CFG, 125, abs_prec=2)
    assert e.is_zeroish and e.val_lower_bound == 2


def test_unit_form_rejects_non_units():
    with pytest.raises(ValueError):
        PrecElem.unit_form(CFG, 0, 10, 5)
    with pytest.raises(ValueError):
        PrecElem.unit_form(CFG, 0, 1, 0)


def test_zero_precision_is_not_the_default():
    # 0 is a precision, not "unset": a digit-less unit is refused, and a
    # value at absolute precision 0 is O(pi^0)
    for cfg in (CFG, SER):
        with pytest.raises(ValueError, match="unit form needs"):
            PrecElem.unit_form(cfg, 0, 1, 0)
        assert PrecElem.from_int(cfg, 3, abs_prec=0) == PrecElem.bigoh(cfg, 0)
        assert PrecElem.from_int(cfg, 0, abs_prec=0) == PrecElem.bigoh(cfg, 0)
        assert PrecElem.from_int(cfg, 1) == PrecElem.unit_form(cfg, 0, 1, 10)


def test_series_backend_rejects_negative():
    with pytest.raises(ValueError):
        PrecElem.from_int(SER, -3)


def test_random_is_flat():
    rng = random.Random(0)
    for _ in range(50):
        e = PrecElem.random(CFG, rng)
        assert e.abs_prec == 10 or (e.is_zeroish and e.val_lower_bound == 10)


# ---------------------------------------------------------------------------
# precision surgery
# ---------------------------------------------------------------------------


def test_lift_bigoh_both_directions():
    z = PrecElem.bigoh(CFG, 5)
    assert z.lift_to_precision(8).val_lower_bound == 8
    assert z.lift_to_precision(2).val_lower_bound == 2


def test_lift_unit_zero_pads():
    e = PrecElem.from_int(CFG, 7, abs_prec=4)
    up = e.lift_to_precision(9)
    assert up.abs_prec == 9 and up.representative() == 7


def test_lift_unit_truncates_digits():
    e = PrecElem.from_int(CFG, 7 + 5**3, abs_prec=8)
    down = e.lift_to_precision(2)
    assert down.representative() == 7 and down.abs_prec == 2


def test_lift_unit_below_valuation_gives_bigoh():
    e = PrecElem.from_int(CFG, 125, abs_prec=8)  # valuation 3
    assert e.lift_to_precision(3).is_zeroish
    assert e.lift_to_precision(2).val_lower_bound == 2


def test_cap_abs_never_raises_precision():
    e = PrecElem.from_int(CFG, 7, abs_prec=4)
    assert e.cap_abs(9) == e
    assert e.cap_abs(2).abs_prec == 2


# ---------------------------------------------------------------------------
# arithmetic against exact rationals
# ---------------------------------------------------------------------------

ints = st.integers(min_value=0, max_value=5**10 - 1)


@given(ints, ints)
def test_add_matches_exact(a, b):
    ea = PrecElem.from_int(CFG, a, abs_prec=10)
    eb = PrecElem.from_int(CFG, b, abs_prec=10)
    assert elem_matches_fraction(ea + eb, Fraction(a + b))


@given(ints, ints)
def test_mul_matches_exact(a, b):
    ea = PrecElem.from_int(CFG, a, abs_prec=10)
    eb = PrecElem.from_int(CFG, b, abs_prec=10)
    assert elem_matches_fraction(ea * eb, Fraction(a * b))


@given(ints, ints.filter(lambda b: b % 5 != 0))
def test_div_matches_exact(a, b):
    ea = PrecElem.from_int(CFG, a, abs_prec=10)
    eb = PrecElem.from_int(CFG, b, abs_prec=10)
    assert elem_matches_fraction(ea / eb, Fraction(a, b))


@given(ints, ints)
def test_sub_of_self_cancels(a, b):
    ea = PrecElem.from_int(CFG, a, abs_prec=10)
    eb = PrecElem.from_int(CFG, b, abs_prec=10)
    s = (ea + eb) - eb
    assert elem_matches_fraction(s, Fraction(a))
    z = ea - ea
    assert z.is_zeroish


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 65537, 2**127 - 1])
def test_padic_inverse_is_the_one_inverse_mod_p_n(p):
    """pow below a 2^32 modulus and Newton lifting above give the inverse
    mod p^n, also of a unit carrying more than n digits."""
    ops = DvrConfig(p=p, prec=1).ops
    rng = random.Random(p)
    for n in range(1, 251 if p < 2**64 else 12):
        for extra in (0, 3):
            u = rng.randrange(p ** (n + extra))
            u += u % p == 0
            assert ops.inv(u, n) == pow(u, -1, p**n)


# ---------------------------------------------------------------------------
# the ultrametric precision rules
# ---------------------------------------------------------------------------


def test_add_takes_min_absolute_precision():
    a = PrecElem.from_int(CFG, 3, abs_prec=7)
    b = PrecElem.from_int(CFG, 4, abs_prec=4)
    assert (a + b).abs_prec == 4


def test_mul_adds_valuations_min_relative():
    a = PrecElem.unit_form(CFG, 2, 3, 5)  # 3*5^2, rel 5
    b = PrecElem.unit_form(CFG, 1, 2, 3)  # 2*5^1, rel 3
    c = a * b
    assert c.valuation == 3 and c.rel_prec == 3


def test_div_subtracts_valuations():
    a = PrecElem.unit_form(CFG, 2, 3, 5)
    b = PrecElem.unit_form(CFG, 1, 2, 3)
    c = a / b
    assert c.valuation == 1 and c.rel_prec == 3


def test_bigoh_absorption_in_mul():
    z = PrecElem.bigoh(CFG, 6)
    u = PrecElem.unit_form(CFG, 2, 3, 4)
    assert (z * u).val_lower_bound == 8
    zz = z * PrecElem.bigoh(CFG, 3)
    assert zz.is_zeroish and zz.val_lower_bound == 9


def test_bigoh_division_rules():
    z = PrecElem.bigoh(CFG, 6)
    u = PrecElem.unit_form(CFG, 2, 3, 4)
    assert (z / u).val_lower_bound == 4
    with pytest.raises(DivisionByUnknownZero):
        u / z
    with pytest.raises(DivisionByUnknownZero):
        z / z


def test_valuation_of_bigoh_raises():
    with pytest.raises(AmbiguousValuation):
        PrecElem.bigoh(CFG, 5).valuation


def test_exact_cancellation_reports_bound():
    a = PrecElem.from_int(CFG, 7, abs_prec=6)
    b = PrecElem.from_int(CFG, 7, abs_prec=9)
    z = a - b
    assert z.is_zeroish and z.val_lower_bound == 6


@given(st.data())
def test_operators_match_the_case_by_case_rules(data):
    # the operators run one formula on fields for both shapes; the oracle
    # writes each rule out per shape, so every result must agree with it
    # field for field, the refused division by O(pi^n) included
    cfg = data.draw(rings)
    x, y = data.draw(tracked_elements(cfg)), data.draw(tracked_elements(cfg))
    assert -x == oracles.elem_neg(x)
    assert x + y == oracles.elem_add(x, y)
    assert x - y == oracles.elem_sub(x, y)
    assert x * y == oracles.elem_mul(x, y)
    if not y.is_zeroish:
        assert x / y == oracles.elem_div(x, y)
        return
    for div in (lambda a, b: a / b, oracles.elem_div):
        with pytest.raises(DivisionByUnknownZero, match="indistinguishable from zero"):
            div(x, y)


# ---------------------------------------------------------------------------
# the forced-comparison rules
# ---------------------------------------------------------------------------


def unit(v, rel=4):
    return PrecElem.unit_form(CFG, v, 1, rel)


def test_compare_units():
    assert valuation_less(unit(1), unit(2))
    assert not valuation_less(unit(2), unit(2))
    assert not valuation_less(unit(3), unit(2))


def test_compare_unit_entry_vs_bigoh_pivot():
    # entry with valuation strictly below the pivot's bound: forced swap
    assert valuation_less(unit(1), PrecElem.bigoh(CFG, 3))
    # entry could be equal or bigger: unforced
    with pytest.raises(AmbiguousValuation):
        valuation_less(unit(3), PrecElem.bigoh(CFG, 3))


def test_compare_bigoh_entry_vs_unit_pivot():
    # entry hidden below the pivot: could go either way
    with pytest.raises(AmbiguousValuation):
        valuation_less(PrecElem.bigoh(CFG, 2), unit(3))
    # entry bound at least the pivot valuation: forced no-swap
    assert not valuation_less(PrecElem.bigoh(CFG, 3), unit(3))
    assert not valuation_less(PrecElem.bigoh(CFG, 5), unit(3))


def test_compare_bigoh_vs_bigoh_unforced():
    with pytest.raises(AmbiguousValuation):
        valuation_less(PrecElem.bigoh(CFG, 2), PrecElem.bigoh(CFG, 5))


# ---------------------------------------------------------------------------
# the series backend is carry-free
# ---------------------------------------------------------------------------


def test_series_addition_no_carry():
    a = PrecElem.from_int(SER, 3, abs_prec=10)
    b = PrecElem.from_int(SER, 4, abs_prec=10)
    # 3 + 4 = 2 in F_5, and nothing carries into the t digit
    assert (a + b).representative() == 2


def test_series_char_two_self_cancel():
    ser2 = DvrConfig(p=2, prec=8, backend=Backend.SERIES)
    e = PrecElem.from_int(ser2, 1, abs_prec=8)
    assert (e + e).is_zeroish


def test_series_multiplication_is_convolution():
    # (1 + t) * (1 + t) = 1 + 2t + t^2 over F_5
    a = PrecElem.from_int(SER, 6, abs_prec=6)  # digits 1,1
    sq = a * a
    assert sq.representative() == 1 + 2 * 5 + 25


def test_series_division_roundtrip():
    a = PrecElem.from_int(SER, 1 + 2 * 5 + 3 * 25, abs_prec=6)
    b = PrecElem.from_int(SER, 4 + 5, abs_prec=6)
    assert ((a / b) * b - a).is_zeroish


# ---------------------------------------------------------------------------
# the bit-slot series digits against the schoolbook loops
# ---------------------------------------------------------------------------

SERIES_PRIMES = (2, 3, 5, 2**31 - 1)
SER_CFGS = {p: DvrConfig(p=p, prec=20, backend=Backend.SERIES) for p in SERIES_PRIMES}


def packed(p: int, digits) -> int:
    """Base-p packing of a digit sequence, lowest digit first."""
    x = 0
    for c in reversed(digits):
        x = x * p + c
    return x


def digit_lists(p: int, min_size=0, max_size=80):
    return st.lists(st.integers(0, p - 1), min_size=min_size, max_size=max_size)


@st.composite
def schoolbook_elems(draw, p):
    """A schoolbook series element: O(t^n) one time in ten, otherwise a unit
    form of up to 80 digits."""
    if draw(st.integers(0, 9)) == 0:
        return SchoolbookSeries(p, True, draw(st.integers(-3, 90)))
    digits = draw(digit_lists(p, min_size=1))
    digits[0] = draw(st.integers(1, p - 1))
    return SchoolbookSeries(p, False, draw(st.integers(-3, 8)), packed(p, digits), len(digits))


@st.composite
def schoolbook_cases(draw):
    p = draw(st.sampled_from(SERIES_PRIMES))
    return p, draw(schoolbook_elems(p)), draw(schoolbook_elems(p)), draw(st.integers(-3, 90))


def assert_same(e: PrecElem, ref: SchoolbookSeries):
    assert e.to_json() == ref.to_json()
    assert repr(e) == repr(ref)
    if not ref.bigoh:
        assert e.unit_digits == ref.u
        if ref.v >= 0:
            assert e.representative() == ref.u * ref.p**ref.v
    assert PrecElem.from_json(e.cfg, e.to_json()) == e


@settings(max_examples=300)
@given(schoolbook_cases())
def test_series_elements_match_schoolbook(case):
    p, ra, rb, n = case
    cfg = SER_CFGS[p]
    a, b = PrecElem.from_json(cfg, ra.to_json()), PrecElem.from_json(cfg, rb.to_json())
    assert_same(a, ra)
    assert_same(b, rb)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(-a, -ra)
    assert_same(a * b, ra * rb)
    assert_same(a.lift_to_precision(n), ra.lift_to_precision(n))
    if not rb.bigoh:
        assert_same(a / b, ra / rb)


@settings(max_examples=300)
@given(st.sampled_from(SERIES_PRIMES), st.data())
def test_series_digit_ops_match_schoolbook(p, data):
    """Operands carry up to 80 digits whatever the n the result keeps."""
    ops = SER_CFGS[p].ops
    x = packed(p, data.draw(digit_lists(p)))
    y = packed(p, data.draw(digit_lists(p)))
    n = data.draw(st.integers(1, 90))
    ex, ey = ops.encode(x), ops.encode(y)
    assert ops.decode(ex) == x
    assert ops.decode(ops.add(ex, ey, n)) == series_add(x, y, p, n)
    assert ops.decode(ops.neg(ex, n)) == series_neg(x, p, n)
    assert ops.decode(ops.mul(ex, ey, n)) == series_mul(x, y, p, n)
    assert ops.decode(ops.trunc(ex, n)) == x % p**n
    k = data.draw(st.integers(0, 10))
    assert ops.decode(ops.shift(ex, k)) == x * p**k
    if x:
        v, u = ops.strip(ops.shift(ex, k))
        assert v >= k and ops.decode(u) * p ** (v - k) == x
    if x % p:
        assert ops.decode(ops.inv(ex, n)) == series_inv(x, p, n)
    assert ops.decode(ops.unshift(ops.shift(ex, k), k)) == x
    s = packed(p, data.draw(digit_lists(p)))
    got = ops.sub_scaled([ops.trunc(ex, n)], [ey], ops.encode(s), n)
    assert [ops.decode(z) for z in got] == [
        series_add(x, series_neg(series_mul(s, y, p, n), p, n), p, n)
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("prec", [1, 8, 30, 100, 1000])
def test_series_slots_are_sized_for_the_precision(p, prec):
    """A prec-digit update takes sub_scaled's one-reduction route and a
    prec-digit product sums at least two slot products per reduction."""
    ops = DvrConfig(p=p, prec=prec, backend=Backend.SERIES).ops
    assert prec <= ops.CAP - 2
    assert ops.CAP // prec >= 2
    assert ops.b == (2 * prec * (p - 1) ** 2).bit_length()
    assert ops.CAP * (p - 1) ** 2 < 1 << ops.b


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("p", [2, 5])
def test_strip_refuses_zero(backend, p):
    # 0 has no valuation to split off; on Z_p the loop dividing by p would
    # never end
    ops = DvrConfig(p=p, prec=10, backend=backend).ops
    with pytest.raises(ValueError, match="strip needs a nonzero value"):
        ops.strip(0)
    assert ops.strip(ops.shift(ops.encode(p + 1), 3)) == (3, ops.encode(p + 1))


def test_series_configs_share_ops_by_layout():
    # w = 23 at p = 5, N = 30 (the lu_series benchmark) against 37 for
    # products of 4096-digit operands
    at = lambda p, prec: DvrConfig(p=p, prec=prec, backend=Backend.SERIES).ops
    assert (at(5, 30).w, at(5, 100).w) == (23, 27)
    assert at(5, 30) is at(5, 31) and at(5, 30) is not at(5, 100)
    assert DvrConfig(p=5, prec=10).ops is DvrConfig(p=5, prec=1000).ops


def test_elements_of_two_layouts_refuse_to_combine():
    ser = lambda prec: DvrConfig(p=5, prec=prec, backend=Backend.SERIES)
    a, b = PrecElem.from_int(ser(10), 7), PrecElem.from_int(ser(100), 7)
    ops = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y)
    for op in ops:
        with pytest.raises(ValueError, match=r"F_5\[\[t\]\] at prec 10 and F_5\[\[t\]\] at prec 100"):
            op(a, b)
    sa, sb = (SeriesElem(x.cfg, [x, x]) for x in (a, b))
    for op in ops:
        with pytest.raises(ValueError, match="slot layouts differ"):
            op(sa, sb)
    z5, z7 = PrecElem.from_int(DvrConfig(p=5, prec=10), 3), PrecElem.from_int(DvrConfig(p=7, prec=10), 4)
    for op in ops:
        with pytest.raises(ValueError, match="Z_5 at prec 10 and Z_7 at prec 10: different rings"):
            op(z5, z7)
    # the loops on fields, and the kernel's reader, refuse a matrix or a
    # polynomial of two layouts
    mixed = PrecMatrix([[PrecElem.from_int(ser(10 if (i + j) % 2 else 100), x, abs_prec=10)
                         for j, x in enumerate(row)] for i, row in enumerate([[11, 17], [28, 9]])])
    for elim in (naive_gauss_l, stable_l, lv_decomposition):
        with pytest.raises(ValueError, match="slot layouts differ"):
            elim(mixed)
    with pytest.raises(ValueError, match="slot layouts differ"):
        poly_mul([a, a], [b])
    # one Z_p layout serves every precision
    assert repr(z5 + PrecElem.from_int(DvrConfig(p=5, prec=20), 4)) == "7 + O(5^10)"


@pytest.mark.parametrize("p", SERIES_PRIMES)
def test_series_sub_scaled_at_the_slot_limit(p):
    """All digits p - 1 make every slot of x, and of s*y, as large as n
    digits allow; up to CAP - 2 digits one reduction handles both, beyond
    that the update goes through add, neg and mul.  The ops object is the
    one of a 20-digit ring, whose CAP these n reach past."""
    cfg = SER_CFGS[p]
    ops = cfg.ops
    assert cfg.prec <= ops.CAP - 2
    for n in (ops.CAP - 2, ops.CAP - 1, ops.CAP + 3):
        top = sum(ops.shift(p - 1, i) for i in range(n))
        xs, ys = [top, top, 0, ops.encode(1)], [top, 0, top, top]
        want = [ops.add(a, ops.neg(ops.mul(top, b, n), n), n) for a, b in zip(xs, ys)]
        assert ops.sub_scaled(xs, ys, top, n) == want
        assert [ops.decode(z) for z in want] == [
            series_add(ops.decode(a), series_neg(series_mul(ops.decode(top), ops.decode(b), p, n), p, n), p, n)
            for a, b in zip(xs, ys)
        ]


def test_series_beyond_cap_is_exact():
    """Past CAP digits the products are chunked.  The all-ones series
    u = 1/(1-t) over F_2 has u^2 = sum (k+1) t^k and u^-1 = 1 + t; at this
    length an unchunked square would reach slot sums whose quotient by p
    no longer fits in b bits.  The elements carry 5 CAP digits in a ring
    of 20."""
    p = 2
    cfg = SER_CFGS[p]
    ops = cfg.ops
    n = 5 * ops.CAP
    assert n > ops.CAP and n * (p - 1) ** 2 // p >= 1 << ops.b
    u = PrecElem.from_int(cfg, packed(p, [p - 1] * n), abs_prec=n)
    assert (u * u).unit_digits == packed(p, [(k + 1) % p for k in range(n)])
    one = PrecElem.from_int(cfg, 1, abs_prec=n)
    inv = one / u
    assert inv.unit_digits == p - 1 + p and inv.rel_prec == n
    assert u * inv == one


def test_series_beyond_cap_structured_product_and_inverse():
    """(1 + t^a)(1 + t^b) with a + b beyond CAP: the product has four
    digits, and u * u^-1 = 1 to the full precision, in a ring of 20 digits."""
    p = 3
    cfg = SER_CFGS[p]
    ops = cfg.ops
    a, b = ops.CAP - 5, ops.CAP + 700
    n = a + b + 11
    assert n > ops.CAP
    fa = PrecElem.from_int(cfg, 1 + p**a, abs_prec=n)
    fb = PrecElem.from_int(cfg, 1 + p**b, abs_prec=n)
    u = fa * fb
    assert u.unit_digits == 1 + p**a + p**b + p ** (a + b) and u.rel_prec == n
    one = PrecElem.from_int(cfg, 1, abs_prec=n)
    assert u * (one / u) == one
    # 1 / (1 + t^a) = sum (-t^a)^k
    inv = (one / fa).unit_digits
    assert inv == sum((1 if k % 2 == 0 else p - 1) * p ** (k * a) for k in range(n // a + 1) if k * a < n)


# ---------------------------------------------------------------------------
# equality, hashing, serialization, printing
# ---------------------------------------------------------------------------


def test_eq_is_structural():
    a = PrecElem.from_int(CFG, 7, abs_prec=5)
    b = PrecElem.from_int(CFG, 7, abs_prec=5)
    c = PrecElem.from_int(CFG, 7, abs_prec=6)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert PrecElem.bigoh(CFG, 5) == PrecElem.bigoh(CFG, 5)


@given(st.integers(min_value=0, max_value=5**10 - 1))
def test_json_roundtrip(x):
    e = PrecElem.from_int(CFG, x, abs_prec=10)
    assert PrecElem.from_json(CFG, e.to_json()) == e


def test_json_roundtrip_bigoh_and_series():
    z = PrecElem.bigoh(CFG, 4)
    assert PrecElem.from_json(CFG, z.to_json()) == z
    s = PrecElem.from_int(SER, 26, abs_prec=7)
    assert PrecElem.from_json(SER, s.to_json()) == s


def test_repr_mentions_precision():
    assert "O(5^10)" in repr(PrecElem.from_int(CFG, 3, abs_prec=10))
    assert "t" in repr(PrecElem.from_int(SER, 5, abs_prec=4))


# ---------------------------------------------------------------------------
# the config's digit-ops field
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("n", [0, -1])
def test_inverse_keeping_no_digits_is_zero(backend, n):
    # like every other digit op, inv keeps no digit for n <= 0
    ops = DvrConfig(p=5, prec=10, backend=backend).ops
    assert ops.inv(ops.encode(3), n) == 0
    assert ops.inv(ops.encode(3), 1) == ops.encode(2)



@pytest.mark.parametrize("backend", list(Backend))
def test_config_ops_field_is_invisible(backend):
    cfg = DvrConfig(p=5, prec=10, backend=backend)
    twin = DvrConfig(p=5, prec=10, backend=backend)
    assert cfg == twin and hash(cfg) == hash(twin) and cfg.ops is twin.ops
    assert cfg != DvrConfig(p=7, prec=10, backend=backend)
    assert repr(cfg) == f"DvrConfig(p=5, prec=10, backend={backend!r})"
    assert cfg.to_json() == {"backend": backend.value, "p": 5, "prec": 10}
    assert DvrConfig.from_json(cfg.to_json()) == cfg
    blob = pickle.dumps(cfg)
    assert b"Digits" not in blob
    back = pickle.loads(blob)
    assert back == cfg and hash(back) == hash(cfg) and back.ops is cfg.ops
    assert PrecElem.from_int(back, 7, abs_prec=4) == PrecElem.from_int(cfg, 7, abs_prec=4)
    shown = [f.name for f in dataclasses.fields(cfg) if f.init or f.compare or f.hash or f.repr]
    assert shown == ["p", "prec", "backend"]
    # the backend is the enum member, not its JSON name
    with pytest.raises(ValueError, match=f"^backend must be a Backend, got {backend.value!r}$"):
        DvrConfig(p=5, prec=10, backend=backend.value)
    with pytest.raises(TypeError):
        DvrConfig(p=5, prec=10, backend=backend, ops=cfg.ops)


def test_negative_valuation_has_no_representative():
    q = unit(1) / unit(2)
    assert q.valuation == -1
    with pytest.raises(ValueError):
        q.representative()


def test_powers_of_p_are_not_all_kept():
    """Squaring one Z_5 element at 20000 digits retains only the few powers
    of 5 it asked for (a table of every power up to 5^20000 holds ~60 MB)."""
    cfg = DvrConfig(p=5, prec=10)
    tracemalloc.start()
    try:
        x = PrecElem.from_int(cfg, 3, abs_prec=20000)
        y = x * x
        del x, y
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
