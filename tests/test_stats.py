"""Tests for the closed-form valuation laws and the Monte-Carlo engine.

The formula module is checked two ways: frozen constants computed by hand
(or by an independent summation route in this file), and internal
consistency between the series and inclusion-exclusion evaluations.  The
engine is cross-validated against the object-path elimination on the
*same* packed matrices, which is the strongest check available: every
valuation read, boundary sum and swap must agree digit for digit.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import simulate_wi_2x2, vij_mass
from dvrlu.config import DvrConfig, is_prime
from dvrlu.element import PrecElem
from dvrlu.errors import AmbiguousValuation
from dvrlu.lu_stable import lv_decomposition, vij_statistics
from dvrlu.matrix import PrecMatrix
from dvrlu.stats import montecarlo
from dvrlu.stats import (
    Engine,
    McSummary,
    det_val_cdf,
    det_val_mean,
    expected_vl_alternating,
    expected_vl_log_gap_bound,
    expected_vl_series,
    monte_carlo_det,
    monte_carlo_vl,
    pi_q,
    simulate,
    simulate_matrices,
    tail_frequency,
    vl_centerings,
    vl_expectation_interval,
    vl_tail_bound,
    vl_upper_tail,
)


# ---------------------------------------------------------------------------
# closed forms


def test_expected_vl_frozen_small_cases():
    # d = 1: E = sum_{v>=1} P[v(u) >= v] = sum q^{-v} = 1/(q-1).
    assert expected_vl_series(2, 1) == pytest.approx(1.0, abs=1e-12)
    assert expected_vl_series(3, 1) == pytest.approx(0.5, abs=1e-12)
    # q = 2, d = 4 by exact inclusion-exclusion:
    # sum_k (-1)^(k-1) C(4,k)/(2^k - 1) = 4 - 2 + 4/7 - 1/15 = 263/105.
    assert expected_vl_series(2, 4) == pytest.approx(float(Fraction(263, 105)), abs=1e-12)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 4, 7, 16, 45])
def test_expected_vl_routes_agree(q, d):
    a = expected_vl_series(q, d)
    b = expected_vl_alternating(q, d)
    assert abs(a - b) <= 1e-10


def test_expectation_interval_width_and_anchor():
    for q in (2, 3, 5):
        lo, hi = vl_expectation_interval(q, 8)
        assert hi == pytest.approx(expected_vl_series(q, 8), abs=1e-12)
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


def _formula_calls(q, d):
    """Every public formula, and tail_frequency, at residue cardinality q
    and dimension d."""
    return {
        "vij_mass": lambda: vij_mass(q, 0),
        "expected_vl_series": lambda: expected_vl_series(q, d),
        "expected_vl_alternating": lambda: expected_vl_alternating(q, d),
        "vl_expectation_interval": lambda: vl_expectation_interval(q, d),
        "pi_q": lambda: pi_q(q),
        "det_val_cdf": lambda: det_val_cdf(q, d, 0),
        "det_val_mean": lambda: det_val_mean(q, d),
        "vl_upper_tail": lambda: vl_upper_tail(q, d, 1.0),
        "vl_tail_bound": lambda: vl_tail_bound(q, 1),
        "vl_centerings": lambda: vl_centerings(q, d),
        "expected_vl_log_gap_bound": lambda: expected_vl_log_gap_bound(q, d),
        "tail_frequency": lambda: tail_frequency(np.array([0, 1, 2]), q, d, 1),
    }


WITHOUT_D = {"vij_mass", "pi_q", "vl_tail_bound"}


def _timed_out(signum, frame):
    raise TimeoutError("formula did not return within 5 s")


@pytest.mark.parametrize("q", [1, 0, -2, True], ids=repr)
@pytest.mark.parametrize("name", _formula_calls(2, 3))
def test_formulas_refuse_q_below_two(name, q):
    # pi_q(1) used to loop forever and q = 1 to divide by q - 1 = 0; the
    # alarm turns a hang brought back into a failure within seconds
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match=f"^q must be an integer >= 2, got {q!r}$"):
            _formula_calls(q, 3)[name]()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", sorted(set(_formula_calls(2, 3)) - WITHOUT_D))
@pytest.mark.parametrize("d", [0, -1])
def test_formulas_refuse_d_below_one(name, d):
    with pytest.raises(ValueError, match="^d must be positive$"):
        _formula_calls(2, d)[name]()


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


def test_simulate_starts_at_most_one_worker_per_chunk(monkeypatch):
    # a recording stand-in for the pool: it starts no process and runs the
    # chunks in this one
    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    trials = 2 * montecarlo._chunk_size(3)
    got = simulate(2, 3, trials, seed=4, jobs=5000)
    assert workers == [2]
    want = simulate(2, 3, trials, seed=4, jobs=1)
    for key in ("vl", "det_val", "boundary"):
        assert np.array_equal(got[key], want[key])


@pytest.mark.parametrize("jobs", [0, -2])
def test_simulate_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        simulate(2, 3, 100, jobs=jobs)


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


@pytest.mark.parametrize("k", [None, 1, 3, 40])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 65521, 65537, EDGE_P])
def test_inv_units_is_the_inverse_mod_p_to_the_k(p, k):
    # odd p <= 2^16 seed the Newton lift from a table mod p^k0, which can
    # hold more digits than K (k = 1, 3); larger p start from Fermat mod p;
    # p = 2 on machine words (k = None) has a lift of its own
    eng = Engine(p, k)
    modulus = 2**64 if eng.modulus is None else eng.modulus
    rng = random.Random(p)
    units = [x for x in (rng.randrange(1, modulus) for _ in range(60)) if x % p]
    got = eng.inv_units(np.array(units, dtype=eng.dtype))
    assert got.dtype == eng.dtype
    assert [int(x) for x in got] == [pow(x, -1, modulus) for x in units]


def test_engine_at_int64_limit_matches_object_elimination():
    eng = Engine(EDGE_P)
    mats = eng.random(np.random.default_rng(5), (8, 4, 4))
    before = mats.copy()
    out = eng.eliminate(mats)
    assert np.array_equal(mats, before)  # H' comes back as out["hp"]
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
        assert [[e.representative() for e in r] for r in hp.rows] == out["hp"][b].tolist()


def _prime_at_most(x: int) -> int:
    while not is_prime(x):
        x -= 1
    return x


@settings(max_examples=40)
@example(p=2, d=4, b=4, zeros=0.0, twice=False, seed=0)
@example(p=EDGE_P, d=4, b=4, zeros=0.0, twice=False, seed=0)
@example(p=3, d=8, b=16, zeros=0.3, twice=False, seed=1)
@example(p=2, d=5, b=8, zeros=0.3, twice=True, seed=2)
@given(
    p=st.one_of(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(2, 1 << 16).map(_prime_at_most),
        st.integers(2, EDGE_P).map(_prime_at_most),
    ),
    d=st.integers(1, 8),
    b=st.integers(1, 16),
    zeros=st.sampled_from([0.0, 0.3, 0.7]),
    twice=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_engine_matches_object_elimination_at_random_primes(p, d, b, zeros, twice, seed):
    # every profile read, flag, V_L, v(det) and the H' of the engine
    # agree with the tracked-element path on the same packed matrices; zeroed
    # entries bring swaps, dead pivots and undecided comparisons, p above
    # 2^16 the valuations by gcd, and `twice` the 2K-digit engine of retries
    eng = Engine(p)
    rng = np.random.default_rng(seed)
    mats = eng.random(rng, (b, d, d))
    mats[rng.random(mats.shape) < zeros] = 0
    if twice:
        high = eng.random(rng, mats.shape)
        high[rng.random(mats.shape) < zeros] = 0
        mats = mats.astype(object) + p**eng.K * high.astype(object)
        eng = Engine(p, 2 * eng.K)
    k = eng.K
    out = eng.eliminate(mats, record_table=True)
    cfg = DvrConfig(p=p, prec=k)
    for t in range(b):
        obj = PrecMatrix(
            [[PrecElem.from_int(cfg, int(x), abs_prec=k) for x in row] for row in mats[t]]
        )
        if out["ambiguous"][t]:
            with pytest.raises(AmbiguousValuation):
                vij_statistics(obj)
            continue
        prof = vij_statistics(obj)
        for (i, j), v in prof.table.items():
            assert out["table"][t, i, j] == (k if v is None else v)
        assert prof.boundary_sums == [None if x < 0 else int(x) for x in out["boundary"][t]]
        assert prof.det_val == (int(out["det_val"][t]) if out["det_ok"][t] else None)
        assert prof.vl == (int(out["vl"][t]) if out["vl_ok"][t] else None)
        hp = lv_decomposition(obj).hp
        assert [[e.representative() for e in r] for r in hp.rows] == out["hp"][t].tolist()


class _ZeroingRng:
    """A generator whose integer draws have about 30% of their entries set
    to zero, chosen by a second generator on the same seed words."""

    def __init__(self, make, seq):
        self._rng = make(seq)
        self._mask = make([*seq.entropy, 1])

    def integers(self, *args, **kwargs):
        x = self._rng.integers(*args, **kwargs)
        x[self._mask.random(x.shape) < 0.3] = 0
        return x


def _retry_truth(p, k, packed, ext, record_table):
    """vij_statistics of one trial extended to 2K digits: the fields a
    retry must return, or None for a trial that must be dropped."""
    cfg = DvrConfig(p=p, prec=2 * k)
    obj = PrecMatrix(
        [[PrecElem.from_int(cfg, int(a) + p**k * int(b), abs_prec=2 * k)
          for a, b in zip(ra, rb)] for ra, rb in zip(packed, ext)]
    )
    try:
        prof = vij_statistics(obj)
    except AmbiguousValuation:
        return None
    if prof.det_val is None or not isinstance(prof.vl, int):
        return None
    fix = {
        "vl": prof.vl,
        "det_val": prof.det_val,
        "boundary": [-1 if s is None else s for s in prof.boundary_sums],
    }
    if record_table:
        table = np.full(packed.shape, -1, dtype=np.int64)
        for (i, j), v in prof.table.items():
            table[i, j] = 2 * k if v is None else v
        fix["table"] = table
    return fix


@pytest.mark.parametrize("p", [2, EDGE_P])
@pytest.mark.parametrize("record_table", [True, False])
def test_simulate_retries_unresolved_trials_at_twice_the_digits(monkeypatch, p, record_table):
    # zeroed draws leave some trials unresolved at K digits; each is re-run
    # with K fresh digits above p^K and must equal the object elimination of
    # that 2K-digit matrix, or be dropped exactly when that one is undecided
    import dvrlu.stats.montecarlo as mc

    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seq: _ZeroingRng(real, seq))
    d, trials, seed = 3, 300, 4
    out = simulate(p, d, trials, seed=seed, record_table=record_table)

    eng = Engine(p)
    keys = ["vl", "det_val", "boundary"] + (["table"] if record_table else [])
    want = {key: [] for key in keys}
    retried = dropped = 0
    size = mc._chunk_size(d)
    for idx, start in enumerate(range(0, trials, size)):
        chunk_rng = _ZeroingRng(real, np.random.SeedSequence([seed, idx]))
        mats = eng.random(chunk_rng, (min(size, trials - start), d, d))
        res = simulate_matrices(p, mats, record_table=record_table)
        for t in range(mats.shape[0]):
            if res["ambiguous"][t] or not (res["vl_ok"][t] and res["det_ok"][t]):
                retried += 1
                ext_rng = _ZeroingRng(real, np.random.SeedSequence([seed, idx, t]))
                fix = _retry_truth(p, eng.K, mats[t], eng.random(ext_rng, (d, d)),
                                   record_table)
                if fix is None:
                    dropped += 1
                    continue
            else:
                fix = {key: res[key][t] for key in keys}
            for key in keys:
                want[key].append(np.asarray(fix[key], dtype=np.int64))
    assert (out["retried"], out["dropped"]) == (retried, dropped)
    assert retried > dropped >= 1
    for key in keys:
        assert np.array_equal(out[key], np.array(want[key]))


def _digest(out: dict) -> str:
    """sha256 over simulate's fields in key order: name, shape and int64
    bytes of each array, the value of each count."""
    h = hashlib.sha256()
    for key in sorted(out):
        val = out[key]
        h.update(key.encode())
        if isinstance(val, np.ndarray):
            a = np.ascontiguousarray(val, dtype=np.int64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        else:
            h.update(repr(int(val)).encode())
    return h.hexdigest()


# simulate's outputs for fixed seeds: the benchmark's three kinds, a
# recorded table, two worker processes, and zeroed draws that force 196
# retries at 2K digits (51 of them dropped)
MC_GOLDEN = {
    "p2_d16": ((2, 16, 1536), {"seed": 1},
               "429490441b10de15e08273a743ada19799b3c97c2936a7d7394f0c844df1b7ae"),
    "p5_d25": ((5, 25, 320), {"seed": 2},
               "0da72ea0bcf7529c77faf4f95b4d16078cd7c80135d975a03778bb4947df8c2a"),
    "p3_d32": ((3, 32, 144), {"seed": 3},
               "6ccbdf81f4d2e2aed148d932f563d2b80bcaca7a2d086ecdfec66597c687f6fc"),
    "table": ((7, 5, 600), {"seed": 5, "record_table": True},
              "c5c56f9225052c3f4d92c6bc6494322c5ec4872e8a832f02b1db96377e8ebcd5"),
    "jobs2": ((3, 3, 6000), {"seed": 6, "jobs": 2},
              "007c9aa02d43be6bc04975d0ff55f2da838242ebefd43133ee452ad97964709e"),
    "retry": ((3, 4, 400), {"seed": 8, "record_table": True},
              "79471368d718777b380c87dea66749167dd86012951ee9b3befe4be70cf12d2c"),
}


@pytest.mark.parametrize("case", MC_GOLDEN)
def test_simulate_matches_golden_hashes(monkeypatch, case):
    args, kwargs, want = MC_GOLDEN[case]
    if case == "retry":
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seq: _ZeroingRng(real, seq))
    out = simulate(*args, **kwargs)
    if case == "retry":
        assert (out["retried"], out["dropped"]) == (196, 51)
    assert _digest(out) == want


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


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p, trials, jobs, message", [
    (4, 10, 1, "p must be prime, got 4"),
    (4294967311, 10, 1, "p must satisfy (p - 1)^2 < 2^63"),
    (2, 0, 1, "trials must be at least 1, got 0"),
    (2, 10, 0, "jobs must be at least 1, got 0"),
])
def test_monte_carlo_vl_checks_arguments_at_every_d(d, p, trials, jobs, message):
    # the d = 1 shortcut draws nothing but refuses what simulate refuses
    with pytest.raises(ValueError, match=re.escape(message)):
        monte_carlo_vl(p, d, trials, jobs=jobs)


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
