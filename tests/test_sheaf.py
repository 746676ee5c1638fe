"""Tests for polynomial glue, CRT interpolation, and the global-basis solver."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dvrlu.config import Backend, DvrConfig
from dvrlu.element import PrecElem
from dvrlu.errors import (
    AmbiguousValuation,
    CoincidentPoints,
    DvrError,
    ExhaustedRetries,
    NotSorted,
)
from dvrlu.lu_fast import get_mul_count, matmul
from dvrlu.lu_stable import lower_triangular_inverse, vij_statistics
from dvrlu.matrix import PrecMatrix, random_matrix
from dvrlu.series import SeriesElem
from dvrlu.sheaf import (
    CrtBasis,
    GlobalBasis,
    SheafInstance,
    SheafPoint,
    _greedy_det,
    _local_factor,
    _local_product,
    _pivoted_det,
    block_type_from_exponents,
    build_divisors,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_pow,
    poly_sub,
    poly_to_series,
    random_instance,
    scalar_poly_matmul,
    series_matrix_from_json,
    series_matrix_to_json,
    series_to_poly,
    solve_sheaf,
    solve_with_omega,
    taylor_coeffs,
    taylor_unshift,
    verify_local_equivalence,
)
from dvrlu.simul import SimulFailure, required_v

from conftest import flat_from_ints, rings, tracked_elements

CFG = DvrConfig(p=5, prec=12)


def _poly(ints):
    return [PrecElem.from_int(CFG, x, abs_prec=12) for x in ints]


def _one():
    return PrecElem.from_int(CFG, 1, abs_prec=12)


def _assert_poly_zeroish(f):
    for c in f:
        assert c.is_zeroish, f


# ---------------------------------------------------------------------------
# polynomial helpers


def test_poly_eval_matches_power_sum():
    f = _poly([3, 1, 4, 1])
    x = PrecElem.from_int(CFG, 7, abs_prec=12)
    direct = None
    for k, c in enumerate(f):
        term = c
        for _ in range(k):
            term = term * x
        direct = term if direct is None else direct + term
    assert poly_eval(f, x) == direct


def test_poly_mul_and_pow():
    # (1 + X)^2 = 1 + 2X + X^2
    f = _poly([1, 1])
    sq = poly_pow(f, 2, _one())
    want = _poly([1, 2, 1])
    _assert_poly_zeroish(poly_sub(sq, want))
    assert len(poly_mul(_poly([1, 2, 3]), _poly([4, 5]))) == 4


@given(st.data())
def test_poly_mul_matches_element_loop(data):
    cfg = data.draw(rings)
    f, g = (data.draw(st.lists(tracked_elements(cfg), min_size=1, max_size=5)) for _ in "fg")
    assert poly_mul(f, g) == oracles.poly_product(f, g)


@settings(max_examples=40)
@given(
    f=st.lists(st.integers(0, 5**6 - 1), min_size=1, max_size=6),
    g=st.lists(st.integers(0, 5**6 - 1), min_size=1, max_size=4),
    lead=st.integers(1, 4),
)
def test_poly_divmod_reconstructs(f, g, lead):
    fp = _poly(f)
    gp = _poly(g + [lead])  # unit leading coefficient
    q, r = poly_divmod(fp, gp)
    assert len(r) == len(gp) - 1
    back = poly_mul(q, gp) if q else [_one().like_zero(12)]
    recon = poly_sub(fp, poly_add_list(back, r))
    _assert_poly_zeroish(recon)


def poly_add_list(a, b):
    from dvrlu.sheaf import poly_add

    return poly_add(a, b)


@settings(max_examples=40)
@given(
    coeffs=st.lists(st.integers(0, 5**6 - 1), min_size=1, max_size=5),
    a=st.integers(1, 5**4),
)
def test_taylor_shift_roundtrip(coeffs, a):
    f = _poly(coeffs)
    pt = PrecElem.from_int(CFG, a, abs_prec=12)
    shifted = taylor_coeffs(f, pt, len(f))
    assert len(shifted) == len(f)
    # constant term of the shift is evaluation at the point
    assert shifted[0] == poly_eval(f, pt)
    back = taylor_unshift(shifted, pt, _one())
    _assert_poly_zeroish(poly_sub(back, f))


def test_taylor_coeffs_stops_after_count():
    f = _poly([3, 1, 4, 1, 5])
    pt = PrecElem.from_int(CFG, 9, abs_prec=12)
    full = taylor_coeffs(f, pt, len(f))
    for count in range(7):
        assert taylor_coeffs(f, pt, count) == full[:count]


def test_poly_series_roundtrip():
    f = _poly([2, 7, 1])
    a = PrecElem.from_int(CFG, 3, abs_prec=12)
    s = poly_to_series(f, a, 4, 12)
    assert isinstance(s, SeriesElem) and s.order == 4
    back = series_to_poly(s, a, _one())
    _assert_poly_zeroish(poly_sub(back, f))


def test_poly_to_series_truncates_high_order():
    # reducing mod (X - a)^1 is evaluation
    f = _poly([2, 7, 1])
    a = PrecElem.from_int(CFG, 3, abs_prec=12)
    s = poly_to_series(f, a, 1, 12)
    assert s.coeffs[0] == poly_eval(f, a)


# ---------------------------------------------------------------------------
# exponents and divisors


def test_block_type_from_exponents():
    assert block_type_from_exponents([0, 0, 1, 3, 3]) == [2, 1, 2]
    assert block_type_from_exponents([2]) == [1]
    assert block_type_from_exponents([0, 1, 2]) == [1, 1, 1]
    with pytest.raises(NotSorted):
        block_type_from_exponents([1, 0])
    with pytest.raises(ValueError):
        block_type_from_exponents([])


def test_build_divisors_values_and_degrees():
    a1 = PrecElem.from_int(CFG, 1, abs_prec=12)
    a2 = PrecElem.from_int(CFG, 2, abs_prec=12)
    divs = build_divisors(CFG, [(a1, [0, 1]), (a2, [1, 2])])
    assert [len(dj) for dj in divs] == [2, 4]  # degrees 1 and 3
    x = PrecElem.from_int(CFG, 9, abs_prec=12)
    # D_0(x) = x - 2, D_1(x) = (x-1)(x-2)^2 at a generic point
    want0 = x - a2
    want1 = (x - a1) * (x - a2) * (x - a2)
    assert (poly_eval(divs[0], x) - want0).is_zeroish
    assert (poly_eval(divs[1], x) - want1).is_zeroish


def test_build_divisors_rejects_coincident_points():
    a = PrecElem.from_int(CFG, 4, abs_prec=12)
    with pytest.raises(CoincidentPoints):
        build_divisors(CFG, [(a, [1]), (a, [0])])


# ---------------------------------------------------------------------------
# CRT basis


def test_crt_combine_matches_residues():
    pts = [PrecElem.from_int(CFG, 1, abs_prec=12), PrecElem.from_int(CFG, 2, abs_prec=12)]
    orders = [2, 3]
    crt = CrtBasis(CFG, pts, orders)
    assert len(crt.modulus) == 6  # degree 5 monic
    rng = random.Random(8)
    for _ in range(5):
        residues = [
            _poly([rng.randrange(5**6) for _ in range(o)]) for o in orders
        ]
        combined = crt.combine(residues)
        assert len(combined) <= 5
        for a, o, res in zip(pts, orders, residues):
            got = poly_to_series(combined, a, o, 12)
            want = poly_to_series(res, a, o, 12)
            for cg, cw in zip(got.coeffs, want.coeffs):
                assert (cg - cw).is_zeroish


def test_crt_rejects_coincident_points():
    a = PrecElem.from_int(CFG, 3, abs_prec=12)
    with pytest.raises(AmbiguousValuation):
        CrtBasis(CFG, [a, a], [1, 1])


# ---------------------------------------------------------------------------
# instances


def test_random_instance_properties():
    cfg = DvrConfig(p=5, prec=10)
    rng = random.Random(31)
    inst = random_instance(cfg, rng, n_points=2, d=3, e_max=2)
    assert inst.dim == 3
    assert len(inst.points) == 2
    res = {pt.a.representative() % 5 for pt in inst.points}
    assert len(res) == 2  # distinct residues
    for pt in inst.points:
        assert pt.exponents == sorted(pt.exponents)
        assert pt.order == max(pt.exponents) + 1
        const = PrecMatrix(
            [[pt.matrix[i, j].coeffs[0] for j in range(3)] for i in range(3)]
        )
        assert vij_statistics(const).det_val == 0
    with pytest.raises(ValueError):
        random_instance(cfg, rng, n_points=6, d=2, e_max=1)


def test_sheaf_instance_validation():
    cfg = DvrConfig(p=5, prec=8)
    a = PrecElem.from_int(cfg, 1, abs_prec=8)
    ent = SeriesElem.constant(PrecElem.from_int(cfg, 1, abs_prec=8), 2, 8)
    good = PrecMatrix([[ent, ent], [ent, ent]])
    with pytest.raises(ValueError):
        SheafInstance(cfg, [SheafPoint(a, [0], good)])  # exponent count
    short = SeriesElem.constant(PrecElem.from_int(cfg, 1, abs_prec=8), 3, 8)
    bad = PrecMatrix([[ent, ent], [ent, short]])
    with pytest.raises(ValueError):
        SheafInstance(cfg, [SheafPoint(a, [0, 1], bad)])
    with pytest.raises(ValueError, match="at least one point"):
        SheafInstance(cfg, [])
    for ncols in (1, 3):  # a 2x1 or 2x3 local matrix
        odd = PrecMatrix([[ent] * ncols for _ in range(2)])
        with pytest.raises(ValueError, match="share the matrix dimension"):
            SheafInstance(cfg, [SheafPoint(a, [0, 1], odd)])


def test_sheaf_instance_json_roundtrip():
    for backend in Backend:
        cfg = DvrConfig(p=5, prec=10, backend=backend)
        inst = random_instance(cfg, random.Random(5), n_points=2, d=2, e_max=2)
        obj = inst.to_json()
        assert obj.get("backend", "padic") == backend.value
        back = SheafInstance.from_json(obj)
        assert back.to_json() == obj
    obj_bad = inst.to_json()
    del obj_bad["points"][0]["a"]
    with pytest.raises(ValueError, match="malformed"):
        SheafInstance.from_json(obj_bad)


def test_series_matrix_json_rejects_length_mismatch():
    cfg = DvrConfig(p=5, prec=8)
    ent = SeriesElem.constant(PrecElem.from_int(cfg, 2, abs_prec=8), 2, 8)
    m = PrecMatrix([[ent]])
    obj = series_matrix_to_json(m)
    obj["order"] = 3
    with pytest.raises(ValueError):
        series_matrix_from_json(cfg, obj)
    obj["order"], obj["d"] = 2, 2  # rows shorter than d
    with pytest.raises(ValueError, match="2x2"):
        series_matrix_from_json(cfg, obj)


# ---------------------------------------------------------------------------
# the solver


def _identity(cfg, d):
    proto = flat_from_ints(cfg, [[1]])
    return PrecMatrix.identity_like(proto, d, cfg.prec)


def test_solve_with_identity_on_friendly_instance():
    # constant term = identity, so every leading minor is a unit and the
    # identity randomiser already works at any local order
    cfg = DvrConfig(p=5, prec=14)
    rng = random.Random(12)
    a_vals = [1, 2]
    pts = []
    for order, aval in zip((2, 3), a_vals):
        a = PrecElem.from_int(cfg, aval, abs_prec=14)
        exps = sorted(rng.randint(0, order - 1) for _ in range(2))
        exps[-1] = order - 1  # pin the order
        rows = []
        for i in range(2):
            row = []
            for j in range(2):
                coeffs = []
                for k in range(order):
                    if k == 0:
                        val = 1 if i == j else 0
                    else:
                        val = rng.randrange(5**14)
                    coeffs.append(PrecElem.from_int(cfg, val, abs_prec=14))
                row.append(SeriesElem(cfg, coeffs))
            rows.append(row)
        pts.append(SheafPoint(a, exps, PrecMatrix(rows)))
    inst = SheafInstance(cfg, pts)
    got = solve_with_omega(inst, v=2, omega=_identity(cfg, 2))
    assert isinstance(got, GlobalBasis)
    report = verify_local_equivalence(inst, got)
    assert report.ok, report.notes


def test_solve_with_omega_factor_failure():
    # a zeroish constant term cannot be eliminated by any scalar randomiser
    cfg = DvrConfig(p=2, prec=8)
    a = PrecElem.from_int(cfg, 1, abs_prec=8)
    z = PrecElem.bigoh(cfg, 8)
    u = PrecElem.from_int(cfg, 1, abs_prec=8)
    ent = lambda c0: SeriesElem(cfg, [c0, u])  # noqa: E731
    m = PrecMatrix([[ent(z), ent(z)], [ent(z), ent(z)]])
    inst = SheafInstance(cfg, [SheafPoint(a, [0, 1], m)])
    got = solve_with_omega(inst, v=1, omega=_identity(cfg, 2))
    assert isinstance(got, SimulFailure)
    assert got.stage == "factor"


def test_solve_sheaf_end_to_end():
    cfg = DvrConfig(p=5, prec=30)
    inst = random_instance(cfg, random.Random(77), n_points=2, d=3, e_max=2)
    basis = solve_sheaf(inst, eps=0.5, seed=4)
    assert basis.v == required_v(
        5, [len(pt.block_sizes) for pt in inst.points], 0.5, "pi"
    )
    assert basis.tries <= 20
    report = verify_local_equivalence(inst, basis)
    assert report.ok, report.notes
    assert report.margin is not None and report.margin > 0
    obj = basis.to_json()
    assert set(obj) == {"M", "D", "block_types", "omega", "v", "n", "tries"}
    assert obj["n"] == 30


def test_crt_cofactors_built_once_per_instance(monkeypatch):
    built = []

    class Counting(CrtBasis):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr("dvrlu.sheaf.CrtBasis", Counting)
    cfg = DvrConfig(p=5, prec=20)
    inst = random_instance(cfg, random.Random(42), n_points=2, d=2, e_max=1)
    first = solve_sheaf(inst, eps=0.5, seed=9)
    again = solve_sheaf(inst, eps=0.5, seed=9)
    assert first.to_json() == again.to_json()
    assert len(built) == 1


def test_verify_flags_tampered_basis():
    cfg = DvrConfig(p=5, prec=20)
    inst = random_instance(cfg, random.Random(42), n_points=2, d=2, e_max=1)
    basis = solve_sheaf(inst, eps=0.5, seed=9)
    assert verify_local_equivalence(inst, basis).ok
    # corrupt one basis coefficient by a unit
    bump = PrecElem.from_int(cfg, 1, abs_prec=20)
    basis.m[1][0][0] = basis.m[1][0][0] + bump
    report = verify_local_equivalence(inst, basis)
    assert not report.ok
    assert report.notes
    # break the divisor chain D_0 | D_1 of an instance with D_0 = 1 != D_1
    inst = random_instance(cfg, random.Random(42), n_points=2, d=2, e_max=2)
    basis = solve_sheaf(inst, eps=0.5, seed=9)
    basis.d_polys.reverse()
    report = verify_local_equivalence(inst, basis)
    assert not report.div_ok
    assert "divisor 0 does not divide divisor 1" in report.notes


def test_solve_sheaf_exhausts_retries(monkeypatch):
    cfg = DvrConfig(p=5, prec=10)
    inst = random_instance(cfg, random.Random(3), n_points=2, d=2, e_max=1)
    bad = PrecMatrix(
        [[PrecElem.bigoh(cfg, 10) for _ in range(2)] for _ in range(2)]
    )
    monkeypatch.setattr("dvrlu.sheaf.random_matrix", lambda *a, **k: bad.copy())
    with pytest.raises(ExhaustedRetries) as info:
        solve_sheaf(inst, eps=0.5, seed=0, max_tries=3)
    assert info.value.tries == 3
    assert info.value.last_failure.stage == "invertibility"


# ---------------------------------------------------------------------------
# the local product omega * M_m


def _padded_series_product(omega, m, n):
    """omega * M_m as a product of series matrices, omega padded to
    constant series with O(pi^n), a padding that is not an exact zero."""
    order = m[0, 0].order
    return matmul(omega.map(lambda e: SeriesElem.constant(e, order, n)), m).cap_abs(n)


@pytest.mark.parametrize("case", ["kernel", "negative-valuation", "short-coefficient", "series-ring"])
@settings(max_examples=30)
@given(p=st.sampled_from([2, 3, 5, 7]), n=st.sampled_from([5, 12, 40]),
       order=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_local_product_is_the_series_product(case, p, n, order, seed):
    backend = Backend.SERIES if case == "series-ring" else Backend.PADIC
    cfg = DvrConfig(p=p, prec=n, backend=backend)
    rng = random.Random(seed)
    d = 3
    coeffs = [random_matrix(cfg, d, rng) for _ in range(order)]
    # the refused coefficient is the constant one, which the padded series
    # product multiplies by the padding O(pi^n) of omega's higher coefficients
    if case == "negative-valuation":
        coeffs[0][0, 1] = PrecElem.unit_form(cfg, -1, 1, n + 1)
    elif case == "short-coefficient":
        coeffs[0][1, 0] = PrecElem.from_int(cfg, 1, abs_prec=n - 1)
    m = PrecMatrix([[SeriesElem(cfg, [c[i, j] for c in coeffs]) for j in range(d)] for i in range(d)])
    omega = random_matrix(cfg, d, rng)
    refused = case in ("negative-valuation", "short-coefficient")  # either ring's are taken
    start = get_mul_count()
    got = _local_product(omega, m, n)
    # one product on the kernel route, one matmul per coefficient otherwise
    assert get_mul_count() - start == (order if refused else 1) * d**3
    for l, c in enumerate(coeffs):
        assert got.map(lambda e: e.coeffs[l]).rows == matmul(omega, c).cap_abs(n).rows
    old = _padded_series_product(omega, m, n)
    if case != "negative-valuation":  # the padding terms O(pi^n) * b reach n
        assert old.rows == got.rows
        return
    # O(pi^n) * pi^-1 costs the padded product a digit from coefficient 1 on
    for o, g in zip(itertools.chain(*old.rows), itertools.chain(*got.rows)):
        for oc, gc in zip(o.coeffs, g.coeffs):
            assert oc.abs_prec <= gc.abs_prec and (oc - gc).is_zeroish


# ---------------------------------------------------------------------------
# the verification checks against the Laplace reference


def test_scalar_det_2x2():
    m = flat_from_ints(CFG, [[2, 3], [4, 5]])
    want = PrecElem.from_int(CFG, 2, abs_prec=12) * PrecElem.from_int(
        CFG, 5, abs_prec=12
    ) - PrecElem.from_int(CFG, 3, abs_prec=12) * PrecElem.from_int(
        CFG, 4, abs_prec=12
    )
    assert oracles.scalar_det(m) == want


def _laplace_flags(inst, basis):
    """(local_ok, det_ok, div_ok) decided the Laplace way: T_m from the
    inverse of L_m and a full product, the diagonal blocks' constant-term
    determinants, det M (constant, with det M * det omega = 1) by Laplace
    expansion."""
    n, d = inst.cfg.prec, inst.dim
    omega_m = scalar_poly_matmul(basis.omega, basis.m)
    local_ok = []
    for pt in inst.points:
        try:
            l_inv = lower_triangular_inverse(_local_factor(basis.omega, pt, n).lower)
        except DvrError:
            local_ok.append(False)
            continue
        local = PrecMatrix([
            [poly_to_series(omega_m[i][j], pt.a, pt.order, n) for j in range(d)]
            for i in range(d)
        ])
        t = matmul(l_inv, local)
        block = [b for b, s in enumerate(pt.block_sizes) for _ in range(s)]
        ok = all(
            c.is_zeroish
            for i in range(d) for j in range(d) if block[i] > block[j]
            for c in t[i, j].coeffs
        )
        lo = 0
        for s in pt.block_sizes:
            const = t.block(lo, lo + s, lo, lo + s).map(lambda e: e.coeffs[0])
            ok = ok and not oracles.scalar_det(const).is_zeroish
            lo += s
        local_ok.append(ok)
    det_m = oracles.poly_det(basis.m)
    det_ok = (
        not det_m[0].is_zeroish
        and all(c.is_zeroish for c in det_m[1:])
        and (det_m[0] * oracles.scalar_det(basis.omega) - det_m[0].like_one(n)).is_zeroish
    )
    div_ok = all(
        c.is_zeroish
        for lo, hi in zip(basis.d_polys, basis.d_polys[1:])
        for c in poly_divmod(hi, lo)[1]
    )
    return local_ok, det_ok, div_ok


@pytest.mark.parametrize("backend", list(Backend), ids=lambda b: b.value)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_verify_flags_match_laplace_oracle(backend, d):
    for k, (p, n) in enumerate([(2, 12), (3, 16), (5, 12), (7, 20)]):
        cfg = DvrConfig(p=p, prec=n, backend=backend)
        inst = random_instance(cfg, random.Random(f"laplace:{d}:{k}"), min(p, 3), d, 3)
        basis = solve_sheaf(inst, seed=k)
        for tampered in (False, True):
            if tampered:  # one basis coefficient off by a unit
                basis.m[d - 1][0][0] = basis.m[d - 1][0][0] + basis.m[0][0][0].like_one(n)
            report = verify_local_equivalence(inst, basis)
            assert report.ok != tampered
            assert (report.local_ok, report.det_ok, report.div_ok) == _laplace_flags(inst, basis)


def _uneven_matrices():
    """Square matrices of size 1-4 over a random ring with entries of uneven
    precision: negative valuations and O(pi^k) with k <= 0 included."""
    return rings.flatmap(lambda cfg: st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(tracked_elements(cfg), min_size=d, max_size=d), min_size=d, max_size=d
        ).map(PrecMatrix)
    ))


_CFG2 = DvrConfig(p=2, prec=8)
# flattening this block leaves no digit (its smallest precision is -3), but
# its determinant is 1 + O(2)
_UNEVEN_UNIT = PrecMatrix([
    [PrecElem.unit_form(_CFG2, 0, 1, 1), PrecElem.bigoh(_CFG2, 5)],
    [PrecElem.bigoh(_CFG2, -3), PrecElem.unit_form(_CFG2, 0, 1, 1)],
])



def _elem5(v, u=None, n=None):
    """u * 5^v + O(5^n), or O(5^v) without u."""
    cfg = DvrConfig(p=5, prec=8)
    return PrecElem.bigoh(cfg, v) if u is None else PrecElem.unit_form(cfg, v, u, n - v)


# the greedy pivot order (first 191*5^-1) ends on an indeterminate block
# here, while Laplace gives 2*5 + O(5^2)
_GREEDY_FAILS = PrecMatrix([
    [_elem5(-2), _elem5(0, 41, 3), _elem5(-1, 191, 3)],
    [_elem5(2, 2163, 9), _elem5(9), _elem5(1, 1554, 7)],
    [_elem5(0, 73, 3), _elem5(3, 19, 5), _elem5(1)],
])


def test_pivoted_det_tries_other_first_pivots():
    assert _greedy_det([list(r) for r in _GREEDY_FAILS.rows], 0) is None
    got = _pivoted_det(_GREEDY_FAILS)
    assert got is not None and got.valuation == 1
    assert (got - oracles.scalar_det(_GREEDY_FAILS)).is_zeroish


@settings(max_examples=400)
@example(m=_UNEVEN_UNIT)
@example(m=_GREEDY_FAILS)
@given(m=_uneven_matrices())
def test_pivoted_det_is_never_less_decisive_than_laplace(m):
    want = oracles.scalar_det(m)
    got = _pivoted_det(m)
    if not want.is_zeroish:
        assert got is not None, (m, want)
    if got is not None and not want.is_zeroish:
        assert got.valuation == want.valuation
        assert (got - want).is_zeroish


def test_pivoted_det_of_flat_matrices_is_laplace():
    rng = random.Random(6)
    for d in range(1, 6):
        for backend in Backend:
            m = random_matrix(DvrConfig(p=3, prec=10, backend=backend), d, rng)
            want = oracles.scalar_det(m)
            got = _pivoted_det(m)
            assert (got is None) == want.is_zeroish
            if got is not None:
                assert got.valuation == want.valuation and (got - want).is_zeroish


@pytest.mark.parametrize("backend", list(Backend), ids=lambda b: b.value)
def test_verify_returns_a_report_at_low_precision(backend, monkeypatch):
    # verify_local_equivalence on every basis solve_sheaf returns; among the
    # blocks whose determinant it takes are some with an entry known only
    # below precision 1, which no flattened elimination can read
    precisions = []

    def spy(m):
        precisions.append(m.min_abs_prec())
        return _pivoted_det(m)

    monkeypatch.setattr("dvrlu.sheaf._pivoted_det", spy)
    reports = 0
    for p, n in [(2, 5), (3, 4), (5, 3)]:
        cfg = DvrConfig(p=p, prec=n, backend=backend)
        for d in (2, 3, 4):
            for k in range(4):
                inst = random_instance(cfg, random.Random(f"low:{p}:{d}:{k}"), 2, d, 3)
                try:
                    basis = solve_sheaf(inst, seed=k)
                except ExhaustedRetries:
                    continue
                report = verify_local_equivalence(inst, basis)
                assert len(report.local_ok) == 2
                reports += 1
    assert reports > 30
    assert min(precisions) <= 0


def _solved(seed=9):
    cfg = DvrConfig(p=5, prec=20)
    inst = random_instance(cfg, random.Random(42), n_points=2, d=3, e_max=1)
    basis = solve_sheaf(inst, eps=0.5, seed=seed)
    assert verify_local_equivalence(inst, basis).ok
    return cfg, inst, basis


def test_verify_rejects_omega_changed_by_a_unit():
    cfg, inst, basis = _solved()
    basis.omega[0, 1] = basis.omega[0, 1] + PrecElem.from_int(cfg, 1, abs_prec=20)
    report = verify_local_equivalence(inst, basis)
    assert not report.det_ok and not report.ok
    assert any("omega * M is not unit lower triangular" in note for note in report.notes)


def test_verify_rejects_omega_of_indeterminate_determinant():
    cfg, inst, basis = _solved()
    for i in range(inst.dim):
        basis.omega[i, 2] = PrecElem.bigoh(cfg, cfg.prec)
    report = verify_local_equivalence(inst, basis)
    assert not report.det_ok and not report.ok
    assert "det omega is indeterminate" in report.notes


_CFG5 = DvrConfig(p=5, prec=20)


def _with_omega_m(m):
    """A solved Z_5 instance of m's dimension whose basis is replaced by
    omega = 1 and the constant M = m."""
    d = len(m)
    inst = random_instance(_CFG5, random.Random(3), n_points=1, d=d, e_max=1)
    basis = solve_sheaf(inst, seed=0)
    basis.omega = PrecMatrix([
        [PrecElem.from_int(_CFG5, int(i == j), abs_prec=20) for j in range(d)]
        for i in range(d)
    ])
    basis.m = [[[e] for e in row] for row in m]
    return inst, basis


def _unit(v, n):
    """5^v + O(5^n)."""
    return PrecElem.unit_form(_CFG5, v, 1, n - v)


@pytest.mark.parametrize("m, det_ok", [
    # omega * M = [[O(5^0)]]: its diagonal minus 1 is zeroish, but det M may be 0
    ([[PrecElem.bigoh(_CFG5, 0)]], False),
    # every entry required zero is O(5^3), but 5^-3 below the diagonal
    # leaves det M = 1 + O(5^0)
    ([[_unit(0, 3), PrecElem.bigoh(_CFG5, 3)], [_unit(-3, 20), _unit(0, 3)]], False),
    # the same with 5^-2 below the diagonal: det M = 1 + O(5)
    ([[_unit(0, 3), PrecElem.bigoh(_CFG5, 3)], [_unit(-2, 20), _unit(0, 3)]], True),
], ids=["1x1-O(1)", "below-5^-3", "below-5^-2"])
def test_verify_rejects_det_m_of_indeterminate_constant_term(m, det_ok):
    inst, basis = _with_omega_m(m)
    report = verify_local_equivalence(inst, basis)
    assert report.det_ok == det_ok == _laplace_flags(inst, basis)[1]
    if not det_ok:
        assert "det M has indeterminate constant term" in report.notes


def test_verify_is_polynomial_at_d8():
    # Laplace expansion made this verify take seconds; no timing is asserted
    cfg = DvrConfig(p=7, prec=40)
    inst = random_instance(cfg, random.Random(8), n_points=3, d=8, e_max=3)
    report = verify_local_equivalence(inst, solve_sheaf(inst, seed=1))
    assert report.ok, report.notes
