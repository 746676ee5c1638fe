"""Tests for the closed-form valuation laws and the Monte-Carlo engine.

The formula module is checked two ways: frozen constants computed by hand
(or by an independent summation route in this file), and internal
consistency between the series and inclusion-exclusion evaluations.  The
engine is cross-validated against the object-path elimination on the
*same* packed matrices, which is the strongest check available: every
valuation read, boundary sum and swap must agree digit for digit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dvrlu.config import DvrConfig, is_prime
from dvrlu.element import PrecElem
from dvrlu.errors import AmbiguousValuation
from dvrlu.lu_stable import lv_decomposition, vij_statistics
from dvrlu.matrix import PrecMatrix
from dvrlu.stats import (
    Engine,
    McSummary,
    block_det_cdf,
    det_val_cdf,
    det_val_mean,
    expected_vl,
    expected_vl_alternating,
    expected_vl_log_gap_bound,
    expected_vl_series,
    monte_carlo_det,
    monte_carlo_vl,
    pi_q,
    simulate,
    simulate_matrices,
    simulate_wi_2x2,
    tail_frequency,
    vij_mass,
    vl_centerings,
    vl_expectation_interval,
    vl_tail_bound,
    vl_upper_tail,
)


# ---------------------------------------------------------------------------
# closed forms


def test_expected_vl_frozen_small_cases():
    # d = 1: E = sum_{v>=1} P[v(u) >= v] = sum q^{-v} = 1/(q-1).
    assert expected_vl(2, 1) == pytest.approx(1.0, abs=1e-12)
    assert expected_vl(3, 1) == pytest.approx(0.5, abs=1e-12)
    # q = 2, d = 4 by exact inclusion-exclusion:
    # sum_k (-1)^(k-1) C(4,k)/(2^k - 1) = 4 - 2 + 4/7 - 1/15 = 263/105.
    assert expected_vl(2, 4) == pytest.approx(float(Fraction(263, 105)), abs=1e-12)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 4, 7, 16, 45])
def test_expected_vl_routes_agree(q, d):
    a = expected_vl_series(q, d)
    b = expected_vl_alternating(q, d)
    assert abs(a - b) <= 1e-10


def test_expectation_interval_width_and_anchor():
    for q in (2, 3, 5):
        lo, hi = vl_expectation_interval(q, 8)
        assert hi == pytest.approx(expected_vl(q, 8), abs=1e-12)
        assert hi - lo == pytest.approx(1.0 / (q - 1), abs=1e-12)


def test_pi_q_frozen_value_and_bounds():
    assert pi_q(2) == pytest.approx(0.5775761901732048, abs=1e-15)
    for q in (2, 3, 5):
        val = pi_q(q)
        assert q - 1 - 1.0 / (q - 1) < val < q - 1


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_expected_vl_alternating_is_the_rounded_exact_sum(q):
    for d in range(1, 41):
        exact = sum(Fraction((-1) ** (k - 1) * math.comb(d, k), q**k - 1)
                    for k in range(1, d + 1))
        assert expected_vl_alternating(q, d) == float(exact)


def test_fixed_point_sums_match_mpmath():
    # the mpmath evaluations these replaced, bit for bit
    mpmath = pytest.importorskip("mpmath")
    for q in (2, 3, 5, 7):
        for d in list(range(1, 30)) + [97, 200, 400]:
            with mpmath.workdps(int(d * math.log10(q)) + 30):
                total = mpmath.mpf(0)
                for k in range(1, d + 1):
                    term = mpmath.mpf(math.comb(d, k)) / (q**k - 1)
                    total = total + term if k % 2 else total - term
                assert expected_vl_alternating(q, d) == float(total), (q, d)
    for q in (2, 3, 5, 7, 11, 101, 65537, 2**31 - 1, 3037000493, 2**61 - 1):
        with mpmath.workdps(40):
            x = 1 / mpmath.mpf(q)
            assert pi_q(q) == float(q * mpmath.qp(x, x)), q


def test_det_val_mean_frozen():
    # q = 2, d = 3: 1/(2-1) + 1/(4-1) + 1/(8-1) = 31/21.
    assert det_val_mean(2, 3) == pytest.approx(float(Fraction(31, 21)), abs=1e-12)


@pytest.mark.parametrize("q,d", [(2, 3), (3, 2), (5, 4)])
def test_det_val_mean_matches_cdf_tail_sum(q, d):
    # E[v] = sum_{v>=0} P[v(det) > v]; independent route through the CDF.
    total, v = 0.0, 0
    while True:
        tail = 1.0 - det_val_cdf(q, d, v)
        total += tail
        if tail < 1e-16:
            break
        v += 1
    assert total == pytest.approx(det_val_mean(q, d), abs=1e-10)


def test_det_val_cdf_monotone_to_one():
    vals = [det_val_cdf(2, 4, v) for v in range(0, 40)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)
    assert block_det_cdf(2, 4, 7) == det_val_cdf(2, 4, 7)


def test_vij_mass_is_a_probability_law():
    for q in (2, 3, 5):
        assert vij_mass(q, 0) == pytest.approx(1 - 1 / q, abs=1e-15)
        total = sum(vij_mass(q, v) for v in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_vl_tail_bound_frozen_and_decreasing():
    # (q/(q-1)) q^{-l} (2 + l ln q) at q = 2, l = 3:
    # 2 * (1/8) * (2 + 3 ln 2) = 1.0198603854199589...
    assert vl_tail_bound(2, 3) == pytest.approx(1.0198603854199589, abs=1e-12)
    seq = [vl_tail_bound(2, ell) for ell in range(3, 12)]
    assert all(b < a for a, b in zip(seq, seq[1:]))


def test_vl_upper_tail_caps_at_one():
    assert vl_upper_tail(2, 16, 0) == 1.0
    assert vl_upper_tail(2, 16, 10) == pytest.approx(16 * 2.0 ** -10, abs=1e-15)


def test_vl_centerings_and_gap_bound():
    lo_c = vl_centerings(2, 16)
    assert lo_c[0] - lo_c[1] == pytest.approx(1.0, abs=1e-12)
    assert lo_c[0] == pytest.approx(4.5, abs=1e-12)
    # at an exact power of q the distance term vanishes
    assert expected_vl_log_gap_bound(2, 16) == pytest.approx(2.0, abs=1e-12)
    # and it shrinks as d moves toward the midpoint between powers
    mid = expected_vl_log_gap_bound(2, 3)
    assert mid < expected_vl_log_gap_bound(2, 2)


# ---------------------------------------------------------------------------
# engine vs object path


def test_engine_digit_capacity():
    assert Engine(2).K == 64
    assert Engine(3).K == 19
    assert Engine(5).K == 13


@pytest.mark.parametrize("p,d", [(2, 3), (3, 3), (5, 4)])
def test_engine_matches_object_elimination(p, d):
    eng = Engine(p)
    k = eng.K
    rng = np.random.default_rng(1234 + p)
    mats = eng.random(rng, (25, d, d))
    out = simulate_matrices(p, mats, record_table=True)
    cfg = DvrConfig(p=p, prec=k)
    for b in range(mats.shape[0]):
        if out["ambiguous"][b]:
            continue  # engine could not decide a pivot; no object truth here
        m = PrecMatrix(
            [
                [PrecElem.from_int(cfg, int(mats[b, i, j]), abs_prec=k) for j in range(d)]
                for i in range(d)
            ]
        )
        prof = vij_statistics(m)
        assert prof.vl == int(out["vl"][b])
        assert prof.det_val == int(out["det_val"][b])
        assert prof.boundary_sums == [int(x) for x in out["boundary"][b]]
        for (i, j), v in prof.table.items():
            want = k if v is None else v
            assert int(out["table"][b][i][j]) == want


def test_engine_fixed_matrix():
    # [[5, 1], [1, 1]] over Z_5: pivot 5 is never challenged (reads happen
    # above the diagonal only), so the unit quotient 1/5 costs one digit.
    eng = Engine(5)
    mats = np.array([[[5, 1], [1, 1]]], dtype=eng.dtype)
    out = simulate_matrices(5, mats)
    assert int(out["vl"][0]) == 1
    assert int(out["det_val"][0]) == 0  # det = 4, a unit
    assert not out["ambiguous"][0]


def test_simulate_deterministic_and_jobs_invariant():
    a = simulate(2, 3, 5000, seed=11, jobs=1)
    b = simulate(2, 3, 5000, seed=11, jobs=1)
    c = simulate(2, 3, 5000, seed=11, jobs=2)
    for key in ("vl", "det_val"):
        assert np.array_equal(a[key], b[key])
        assert np.array_equal(a[key], c[key])
    assert a["dropped"] == 0
    # a fresh seed gives different draws
    d = simulate(2, 3, 5000, seed=12, jobs=1)
    assert not np.array_equal(a["vl"], d["vl"])


@pytest.mark.parametrize(
    "call",
    [
        lambda: Engine(4),
        lambda: simulate(9, 3, 100),
        lambda: simulate_matrices(6, np.ones((1, 2, 2), dtype=np.int64)),
        lambda: simulate_wi_2x2(1, 100),
        lambda: monte_carlo_vl(4, 1, 100),
        lambda: monte_carlo_det(15, 2, 100),
    ],
)
def test_engine_rejects_non_prime_p(call):
    with pytest.raises(ValueError, match="p must be"):
        call()


BIG_P = 4294967311  # prime, and (p - 1)^2 overflows int64
EDGE_P = 3037000493  # the largest prime with (p - 1)^2 < 2^63


@pytest.mark.parametrize(
    "call", [lambda: Engine(BIG_P), lambda: simulate(BIG_P, 3, 100)]
)
def test_engine_rejects_p_whose_products_overflow(call):
    with pytest.raises(ValueError, match=r"\(p - 1\)\^2 < 2\^63"):
        call()


def test_engine_at_int64_limit_matches_object_elimination():
    eng = Engine(EDGE_P)
    mats = eng.random(np.random.default_rng(5), (8, 4, 4))
    m = mats.copy()
    out = eng.eliminate(m)
    cfg = DvrConfig(p=EDGE_P, prec=eng.K)
    for b in range(mats.shape[0]):
        obj = PrecMatrix(
            [[PrecElem.from_int(cfg, int(x), abs_prec=eng.K) for x in row]
             for row in mats[b]]
        )
        prof = vij_statistics(obj)
        assert prof.vl == int(out["vl"][b])
        assert prof.det_val == int(out["det_val"][b])
        assert prof.boundary_sums == [int(x) for x in out["boundary"][b]]
        hp = lv_decomposition(obj).hp
        assert [[e.representative() for e in r] for r in hp.rows] == m[b].tolist()


def _prime_at_most(x: int) -> int:
    while not is_prime(x):
        x -= 1
    return x


@settings(max_examples=40)
@example(p=2, d=4, seed=0)
@example(p=EDGE_P, d=4, seed=0)
@given(
    p=st.integers(2, EDGE_P).map(_prime_at_most),
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32),
)
def test_engine_matches_object_elimination_at_random_primes(p, d, seed):
    # every profile read, V_L, v(det) and H' of the engine agree with the
    # tracked-element path on the same packed matrices
    eng = Engine(p)
    k = eng.K
    mats = eng.random(np.random.default_rng(seed), (4, d, d))
    out = simulate_matrices(p, mats, record_table=True)
    eliminated = mats.copy()
    eng.eliminate(eliminated)
    cfg = DvrConfig(p=p, prec=k)
    for b in range(mats.shape[0]):
        obj = PrecMatrix(
            [[PrecElem.from_int(cfg, int(x), abs_prec=k) for x in row] for row in mats[b]]
        )
        if out["ambiguous"][b]:
            with pytest.raises(AmbiguousValuation):
                vij_statistics(obj)
            continue
        prof = vij_statistics(obj)
        for (i, j), v in prof.table.items():
            assert out["table"][b, i, j] == (k if v is None else v)
        assert prof.boundary_sums == [None if x < 0 else int(x) for x in out["boundary"][b]]
        assert prof.det_val == (int(out["det_val"][b]) if out["det_ok"][b] else None)
        assert prof.vl == (int(out["vl"][b]) if out["vl_ok"][b] else None)
        hp = lv_decomposition(obj).hp
        assert [[e.representative() for e in r] for r in hp.rows] == eliminated[b].tolist()


def test_simulate_checks_p_once_per_call(monkeypatch):
    import dvrlu.stats.montecarlo as mc

    seen = []
    monkeypatch.setattr(mc, "require_prime", seen.append)
    out = simulate(2, 2, 3 * mc._chunk_size(2), seed=1)
    assert len(out["vl"]) + out["dropped"] == 3 * mc._chunk_size(2)
    assert seen == [2]


def test_monte_carlo_vl_d1_shortcut():
    s = monte_carlo_vl(5, 1, 1000, seed=3)
    assert isinstance(s, McSummary)
    assert s.mean == 0.0 and s.stddev == 0.0
    assert s.histogram == {0: 1000}


def test_monte_carlo_summary_sanity():
    s = monte_carlo_vl(2, 4, 20000, seed=7)
    lo, hi = vl_expectation_interval(2, 4)
    assert lo - s.ci99 <= s.mean <= hi + s.ci99
    assert s.used == 20000 - s.dropped
    assert sum(s.histogram.values()) == s.used
    det = monte_carlo_det(2, 3, 20000, seed=7)
    assert abs(det.mean - det_val_mean(2, 3)) <= det.ci99
    assert det.to_json()["mean"] == det.mean


def test_tail_frequency_definition():
    vl = np.array([0, 1, 2, 3, 8])
    # c = log2(4) + 0.5 = 2.5; |vl - c| > 1.5 keeps 0 and 8 -> 2/5
    assert tail_frequency(vl, 2, 4, 1) == pytest.approx(0.4)
    # proof centering shifts c to 1.5; |vl - c| > 1.5 keeps 8 only
    assert tail_frequency(vl, 2, 4, 1, centering="proof") == pytest.approx(0.2)


def test_wi_2x2_profile_law():
    w1, w2 = simulate_wi_2x2(2, 30000, seed=5)
    assert w1.shape == w2.shape and w1.size > 29000
    assert (w1 >= 0).all() and (w2 >= 0).all()
    # P[W_1 >= 1] = P[both row-1 entries even] = 1/4
    freq = float(np.mean(w1 >= 1))
    assert abs(freq - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / w1.size) + 1e-9


# ---------------------------------------------------------------------------
# empirical law agreement (light versions; the acceptance suite re-runs
# these at the full advertised trial counts and significance levels)


def test_vij_table_entry_follows_geometric_law():
    out = simulate(2, 3, 30000, seed=21, record_table=True)
    top = out["table"][:, 0, 1]  # first pre-swap read, Haar unit-or-worse
    top = top[top >= 0]
    n = top.size
    for v in range(3):
        emp = float(np.mean(top == v))
        want = vij_mass(2, v)
        sigma = math.sqrt(want * (1 - want) / n)
        assert abs(emp - want) <= 5 * sigma + 1e-9


def test_det_val_empirical_cdf_tracks_formula():
    out = simulate(2, 3, 30000, seed=22)
    dv = out["det_val"]
    for v in range(4):
        emp = float(np.mean(dv <= v))
        assert abs(emp - det_val_cdf(2, 3, v)) <= 0.02
