import hashlib
import json
import random
from fractions import Fraction

import pytest

import oracles
from conftest import elem_matches_fraction, flat_from_ints, random_int_rows
from dvrlu import (
    AmbiguousValuation,
    Backend,
    DegenerateDecomposition,
    DegenerateInput,
    DivisionByUnknownZero,
    DvrConfig,
    InsufficientLift,
    PrecElem,
    PrecMatrix,
    block_l,
    block_l_unitlower,
    hermite_from_lv,
    lift_recompute_l,
    lower_triangular_inverse,
    lv_decomposition,
    lv_to_l,
    matmul,
    naive_gauss_l,
    precision_loss,
    random_matrix,
    stable_l,
    vij_statistics,
    vl_of_lower,
    working_precision,
)
from dvrlu.series import SeriesElem

CFG = DvrConfig(p=5, prec=10)
CFG2 = DvrConfig(p=2, prec=20)


def nonsingular_rows(rng, d, p, n):
    """Integer matrix whose determinant the oracle certifies nonzero."""
    while True:
        rows = random_int_rows(rng, d, p, n)
        if oracles.exact_det(rows) != 0:
            return rows


# ---------------------------------------------------------------------------
# the naive baseline
# ---------------------------------------------------------------------------


def test_naive_frozen_example():
    m = flat_from_ints(CFG, [[5, 1], [1, 1]])
    lower = naive_gauss_l(m)
    e = lower[1, 0]
    assert e.valuation == -1
    assert e.abs_prec == 8  # one lost digit of relative precision, shifted
    assert elem_matches_fraction(e, Fraction(1, 5))


def test_naive_matches_exact_quotients():
    rng = random.Random(31)
    for _ in range(25):
        rows = nonsingular_rows(rng, 4, 5, 10)
        m = flat_from_ints(CFG, rows)
        try:
            lower = naive_gauss_l(m)
        except DivisionByUnknownZero:
            continue
        for i in range(4):
            for j in range(i):
                exact = oracles.cramer_quotient(rows, i, j)
                assert elem_matches_fraction(lower[i, j], exact)


def test_naive_zeroish_pivot_raises():
    m = flat_from_ints(CFG, [[0, 1], [1, 1]])
    with pytest.raises(DivisionByUnknownZero):
        naive_gauss_l(m)


# ---------------------------------------------------------------------------
# lift and recompute
# ---------------------------------------------------------------------------


def test_lift_recompute_certificate_failure():
    m = flat_from_ints(CFG, [[25, 0], [0, 25]])
    with pytest.raises(InsufficientLift) as exc:
        lift_recompute_l(m, extra=1)
    assert exc.value.required_prec == 10 + 4  # 2*(sum W - max W) = 4


def test_lift_recompute_zeroish_pivot_reports_retry():
    m = flat_from_ints(CFG, [[0, 1], [1, 1]])
    with pytest.raises(InsufficientLift) as exc:
        lift_recompute_l(m, extra=2)
    assert exc.value.required_prec > 12


def test_lift_recompute_agrees_with_exact():
    rng = random.Random(77)
    hits = 0
    while hits < 15:
        rows = nonsingular_rows(rng, 3, 5, 10)
        m = flat_from_ints(CFG, rows)
        try:
            lower = lift_recompute_l(m)
        except InsufficientLift:
            continue
        hits += 1
        for i in range(3):
            for j in range(i):
                assert elem_matches_fraction(
                    lower[i, j], oracles.cramer_quotient(rows, i, j)
                )


# ---------------------------------------------------------------------------
# the valuation profile
# ---------------------------------------------------------------------------


def test_profile_matches_exact_oracle():
    rng = random.Random(5)
    for p, cfg in ((5, CFG), (2, CFG2)):
        for _ in range(20):
            rows = nonsingular_rows(rng, 4, p, cfg.prec)
            ref = oracles.exact_profile(rows, p)
            if ref["degenerate"]:
                continue
            try:
                prof = vij_statistics(flat_from_ints(cfg, rows))
            except (AmbiguousValuation, DegenerateInput):
                # the tracked run may refuse where the oracle, with exact
                # zeros, can proceed; that is the correct behaviour
                continue
            for key, want in ref["table"].items():
                got = prof.table[key]
                if want is not None and want < cfg.prec:
                    assert got == want, key
                else:
                    assert got is None or got == want
            assert prof.swaps == ref["swaps"]
            assert prof.boundary_sums == ref["boundary_sums"]
            assert prof.det_val == ref["det_val"]
            assert prof.vl == ref["vl"]


def test_profile_boundary_sums_are_minor_valuations():
    # at each round's end the sum of diagonal valuations is the valuation of
    # the leading principal minor under the permutation in effect right then
    rng = random.Random(6)
    for _ in range(10):
        rows = nonsingular_rows(rng, 4, 5, 10)
        ref = oracles.exact_profile(rows, 5)
        if ref["degenerate"]:
            continue
        for j in range(4):
            snap = oracles.reorder_columns(rows, ref["col_orders"][j])
            minor = oracles.leading_minor(snap, j + 1)
            assert oracles.val_of(minor, 5) == ref["boundary_sums"][j]
        try:
            prof = vij_statistics(flat_from_ints(CFG, rows))
        except (AmbiguousValuation, DegenerateInput):
            continue
        assert prof.boundary_sums == ref["boundary_sums"]


def test_vij_sandwich_per_sample():
    # max over columns of the round-end diagonal valuation is a lower bound
    # for V_L plus the determinant valuation split across rounds
    rng = random.Random(8)
    count = 0
    while count < 40:
        rows = random_int_rows(rng, 4, 2, 20)
        try:
            prof = vij_statistics(flat_from_ints(CFG2, rows))
        except (AmbiguousValuation, DegenerateInput):
            continue
        if prof.det_val is None or not isinstance(prof.vl, int):
            continue
        count += 1
        vj = [prof.table[(j, j)] for j in range(4)]
        assert all(v is not None for v in vj)
        assert max(vj) - prof.det_val <= prof.vl <= max(vj[:-1] + [0])


def test_vl_interval_from_hidden_entries():
    # a zeroish entry bounded below the pivot valuation leaves an interval
    cfg = DvrConfig(p=5, prec=10)
    m = PrecMatrix(
        [
            [PrecElem.unit_form(cfg, 5, 1, 5), PrecElem.from_int(cfg, 1, abs_prec=10)],
            [PrecElem.bigoh(cfg, 3), PrecElem.from_int(cfg, 1, abs_prec=10)],
        ]
    )
    prof = vij_statistics(m)
    assert prof.vl == (0, 2)


# ---------------------------------------------------------------------------
# the stable factor
# ---------------------------------------------------------------------------


def test_stable_matches_cramer_on_permuted_input():
    rng = random.Random(13)
    for _ in range(30):
        rows = nonsingular_rows(rng, 4, 5, 10)
        ref = oracles.exact_profile(rows, 5)
        if ref["degenerate"]:
            continue
        try:
            res = stable_l(flat_from_ints(CFG, rows))
        except (AmbiguousValuation, DegenerateInput):
            continue
        assert res.col_vals == ref["col_vals"]
        for (i, j), exact in ref["lower"].items():
            got = res.lower[i, j]
            assert elem_matches_fraction(got, exact), (i, j)
            # and the elimination quotient equals the Cramer minor ratio,
            # taken under the column order of that entry's round
            snap = oracles.reorder_columns(rows, ref["col_orders"][j])
            assert exact == oracles.cramer_quotient(snap, i, j)


def test_stable_prescribed_precision_formula():
    rng = random.Random(14)
    done = 0
    while done < 20:
        rows = random_int_rows(rng, 3, 5, 10)
        try:
            res = stable_l(flat_from_ints(CFG, rows))
        except (AmbiguousValuation, DegenerateInput):
            continue
        done += 1
        ref = oracles.exact_profile(rows, 5)
        for j in range(3):
            vj = res.col_vals[j]
            for i in range(j + 1, 3):
                e = res.lower[i, j]
                exact = ref["lower"][(i, j)]
                den_val = ref["table"][(j, j)]
                if exact == 0:
                    continue
                num_val = oracles.val_of(exact, 5) + den_val
                # prescribed precision N - v_j - max(0, v(den) - v(num)),
                # attained exactly for flat integral inputs
                want = 10 - vj - max(0, den_val - num_val)
                got = e.val_lower_bound if e.is_zeroish else e.abs_prec
                assert got == want, (i, j)


def test_stable_reports_loss_and_vl():
    # the round-0 pivot has no swap candidates, so the 5 stays put and the
    # first column honestly loses 2 digits (denominator + budget)
    m = flat_from_ints(CFG, [[5, 1], [1, 1]])
    res = stable_l(m)
    assert res.col_vals == [1, 0]
    assert precision_loss(res.lower, res.n) == 2
    assert vl_of_lower(res.lower) == 1
    assert vij_statistics(m).vl == 1
    # once a unit leads, nothing is lost
    m2 = flat_from_ints(CFG, [[1, 1], [5, 1]])
    res2 = stable_l(m2)
    assert precision_loss(res2.lower, res2.n) == 0
    assert vl_of_lower(res2.lower) == 0


def test_stable_degenerate_raises():
    m = flat_from_ints(CFG, [[1, 1], [1, 1]])
    with pytest.raises(DegenerateInput):
        stable_l(m)


def test_unit_minor_input_has_zero_col_vals():
    # build L * U with unit diagonals: all principal minors are units
    rng = random.Random(4)
    d = 4
    for _ in range(10):
        lo = [[0] * d for _ in range(d)]
        up = [[0] * d for _ in range(d)]
        for i in range(d):
            lo[i][i] = 1
            up[i][i] = 1 + 5 * rng.randrange(5**8)
            for j in range(i):
                lo[i][j] = rng.randrange(5**9)
                up[j][i] = rng.randrange(5**9)
        rows = [
            [sum(lo[i][k] * up[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
        res = stable_l(flat_from_ints(CFG, rows))
        assert res.col_vals == [0, 0, 0, 0]
        assert precision_loss(res.lower, res.n) == 0


# ---------------------------------------------------------------------------
# the split decomposition
# ---------------------------------------------------------------------------


def test_lv_frozen_two_by_two():
    m = flat_from_ints(CFG, [[5, 1], [1, 1]])
    out = lv_decomposition(m)
    n = 10
    one = PrecElem.from_int(CFG, 1, abs_prec=n)
    assert out.lp[0, 0].representative() == 5
    assert out.lp[0, 1].is_zeroish
    assert out.lp[1, 0] == one
    assert elem_matches_fraction(out.lp[1, 1], Fraction(1 - 5))
    assert out.vp[0, 0] == one and out.vp[0, 1] == one
    assert out.vp[1, 0].is_zeroish
    assert elem_matches_fraction(out.vp[1, 1], Fraction(-5))
    assert elem_matches_fraction(out.wp[1, 1], Fraction(-5))
    assert out.wp[0, 0].is_zeroish and out.wp[0, 1] == one
    assert out.col_val == [0, 0]
    assert not out.degenerate


def test_lv_multiply_back():
    rng = random.Random(9)
    for cfg in (CFG, CFG2):
        for _ in range(10):
            m = random_matrix(cfg, 5, rng)
            try:
                out = lv_decomposition(m)
            except AmbiguousValuation:
                continue
            n = working_precision(m)
            prod = matmul(m, out.wp).cap_abs(n)
            assert prod == out.hp


def test_lv_to_l_equals_stable():
    rng = random.Random(10)
    for cfg in (CFG, CFG2):
        for d in (2, 3, 5):
            for _ in range(8):
                m = random_matrix(cfg, d, rng)
                try:
                    res = stable_l(m)
                except (AmbiguousValuation, DegenerateInput):
                    continue
                lower = lv_to_l(lv_decomposition(m))
                assert lower == res.lower


def test_lv_degenerate_flag_and_refusals():
    m = flat_from_ints(CFG, [[1, 1], [1, 1]])
    out = lv_decomposition(m)
    assert out.degenerate
    assert out.col_val[1] is None
    with pytest.raises(DegenerateDecomposition):
        lv_to_l(out)
    with pytest.raises(DegenerateDecomposition):
        hermite_from_lv(out)


def test_lv_json_shape():
    m = flat_from_ints(CFG, [[5, 1], [1, 1]])
    obj = lv_decomposition(m).to_json()
    assert set(obj) == {"L'", "V'", "H'", "W'", "col_val", "degenerate"}


# ---------------------------------------------------------------------------
# Hermite form
# ---------------------------------------------------------------------------


def test_hermite_frozen_example():
    cfg = DvrConfig(p=5, prec=3)
    m = flat_from_ints(cfg, [[2, 0], [1, 10]])
    h = hermite_from_lv(lv_decomposition(m))
    assert h[0, 0] == PrecElem.unit_form(cfg, 0, 1, 3)
    assert h[0, 1].is_zeroish
    assert h[1, 0].representative() == 63  # 2^{-1} mod 125
    assert h[1, 1] == PrecElem.unit_form(cfg, 1, 1, 2)


def test_hermite_certified_by_exact_transform():
    rng = random.Random(21)
    checked = 0
    while checked < 12:
        rows = nonsingular_rows(rng, 3, 5, 10)
        try:
            h = hermite_from_lv(lv_decomposition(flat_from_ints(CFG, rows)))
        except (AmbiguousValuation, DegenerateDecomposition):
            continue
        checked += 1
        d = 3
        # triangular with p-power diagonal
        reps = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                e = h[i, j]
                if j > i:
                    assert e.is_zeroish
                elif i == j:
                    assert e.unit_digits == 1
                    reps[i][j] = 5**e.valuation
                else:
                    reps[i][j] = 0 if e.is_zeroish else e.representative()
        assert oracles.integral_hermite_checks(rows, 5, reps)


# ---------------------------------------------------------------------------
# triangular inversion
# ---------------------------------------------------------------------------


def test_lower_triangular_inverse_roundtrip():
    rng = random.Random(3)
    m = random_matrix(CFG, 4, rng)
    out = lv_decomposition(m)
    if not out.degenerate:
        inv = lower_triangular_inverse(out.hp)
        prod = matmul(out.hp, inv)
        for i in range(4):
            for j in range(4):
                e = prod[i, j]
                if i == j:
                    assert not e.is_zeroish and e.valuation == 0
                else:
                    assert e.is_zeroish


# ---------------------------------------------------------------------------
# block variants
# ---------------------------------------------------------------------------


def test_block_l_identity_diagonal_blocks():
    rng = random.Random(17)
    sizes = [2, 3]
    m = random_matrix(CFG, 5, rng)
    try:
        res = block_l(m, sizes)
    except (AmbiguousValuation, DegenerateInput):
        pytest.skip("unlucky draw")
    lo = 0
    for s in sizes:
        for i in range(lo, lo + s):
            for j in range(lo, lo + s):
                e = res.lower[i, j]
                if i == j:
                    assert not e.is_zeroish and e.valuation == 0
                else:
                    assert e.is_zeroish
        lo += s
    # everything above the block diagonal is zero
    assert res.lower[0, 2].is_zeroish and res.lower[1, 4].is_zeroish


def test_block_unitlower_keeps_inner_entries():
    rng = random.Random(18)
    m = random_matrix(CFG, 4, rng)
    try:
        res = block_l_unitlower(m, [2, 2])
    except (AmbiguousValuation, DegenerateInput):
        pytest.skip("unlucky draw")
    assert res.lower[0, 0].valuation == 0
    assert res.lower[0, 1].is_zeroish  # still zero above the diagonal


def test_block_size_one_matches_stable_values():
    rng = random.Random(19)
    for _ in range(10):
        m = random_matrix(CFG, 4, rng)
        try:
            sres = stable_l(m)
            bres = block_l(m, [1, 1, 1, 1])
        except (AmbiguousValuation, DegenerateInput):
            continue
        for i in range(4):
            for j in range(i):
                a, b = sres.lower[i, j], bres.lower[i, j]
                k = min(a.abs_prec, b.abs_prec)
                assert a.cap_abs(k) == b.cap_abs(k)


def test_block_bad_tiling_rejected():
    m = random_matrix(CFG, 4, random.Random(0))
    with pytest.raises(ValueError):
        block_l(m, [2, 3])


def test_block_l_on_series_entries():
    cfg = DvrConfig(p=5, prec=12)
    rng = random.Random(23)
    d, order = 3, 2
    while True:
        rows = [
            [
                SeriesElem(
                    cfg,
                    [PrecElem.random(cfg, rng) for _ in range(order)],
                )
                for _ in range(d)
            ]
            for _ in range(d)
        ]
        m = PrecMatrix(rows)
        try:
            res = block_l_unitlower(m, [1, 2])
            break
        except (AmbiguousValuation, DegenerateInput, DivisionByUnknownZero):
            continue
    assert res.lower[0, 1].is_zeroish
    assert res.lower[1, 1].pivot_scalar().valuation == 0


# ---------------------------------------------------------------------------
# F_p[[t]] factors are frozen bit for bit
# ---------------------------------------------------------------------------

# sha256 of the JSON (sort_keys) of the input, of stable_l's factor with its
# column valuations and N, and of lv_decomposition's output, for
# random_matrix(F_5[[t]], d=14, N=30, random.Random(seed)); computed with the
# schoolbook digit loops the series backend used before its bit-slot storage.
SERIES_GOLDEN = {
    1: (
        "2445ecb972083a652c9f5160a985cf1847e9653b83b07c9fd7039ece3b42248e",
        "79c476aab58fe1c9b662c712d0135c14b016be294f266c302660d2abd88a3015",
        "8769860038842068479672a93697e24d52de8e178a32f3bbfaec0a9fe2ac68f2",
    ),
    2: (
        "a9e1298b42b5dfa8ee64197891714b3111cd2e00f95a852747d44e1198d8553d",
        "f3f63e146e2bead60abdaeaa2f6738d0226c969e84622b912a5a73b0515e4328",
        "18a1e673f44c66c981694bd1e798d48e1c85281cd9c2226890f67cf5fa74a945",
    ),
    3: (
        "a21b3bcc74f9263b22aaaa671d883a6788d4a39741465a8bdc3dbc09272b2b56",
        "9f9ae2ad5ff2e2722d412662c0cdccb4b9bb998823dd0fb565e77712da92831f",
        "7432534d4e896888080115bc6d62dcb53b8706fe158debab5963d1852128fffb",
    ),
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(SERIES_GOLDEN))
def test_series_factors_match_golden_hashes(seed):
    cfg = DvrConfig(p=5, prec=30, backend=Backend.SERIES)
    m = random_matrix(cfg, 14, random.Random(seed))
    s = stable_l(m)
    got = (
        _sha(m.to_json()),
        _sha({"L": s.lower.to_json(), "col_vals": s.col_vals, "n": s.n}),
        _sha(lv_decomposition(m).to_json()),
    )
    assert got == SERIES_GOLDEN[seed]
