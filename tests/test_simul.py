"""Tests for the simultaneous block factorization driver."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dvrlu import simul
from dvrlu.config import DvrConfig
from dvrlu.element import PrecElem
from dvrlu.errors import AmbiguousValuation, ExhaustedRetries
from dvrlu.lu_fast import matmul
from dvrlu.lu_stable import _full_pivot, _pivoted_det, lv_decomposition
from dvrlu.matrix import PrecMatrix, random_matrix
from dvrlu.sheaf import random_instance, solve_sheaf
from dvrlu.simul import (
    SimulFailure,
    SimulResult,
    attempt_simultaneous,
    family_from_json,
    min_val_bound,
    required_v,
    result_to_json,
    simultaneous_block_lu,
)

from dvrlu.stats.formulas import pi_q

from conftest import flat_from_ints


# ---------------------------------------------------------------------------
# the precision budget


def test_required_v_frozen_values():
    assert required_v(2, [4], 0.25, "base") == 4
    assert required_v(2, [4], 0.25, "pi") == 5
    # generous eps with one tiny block needs no budget at all
    assert required_v(5, [1], 0.9, "base") == 0


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_required_v_pi_never_below_base(q, eps):
    for r_list in ([1], [2, 2], [4, 1, 3]):
        base = required_v(q, r_list, eps, "base")
        sharp = required_v(q, r_list, eps, "pi")
        assert sharp >= base
        # both satisfy their defining inequality and are minimal for it
        s = sum(r_list)
        assert q**base >= s / ((q - 1) * eps) - 1e-9
        if base > 0:
            assert q ** (base - 1) < s / ((q - 1) * eps) + 1e-9


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_required_v_is_least_v_meeting_its_bound(q):
    # the least v >= 0 with q^v >= S / (c * eps): c = q - 1 exactly, with
    # eps at its decimal face value, for "base"; c = Pi(q) in floats for "pi"
    for s in range(1, 21):
        for k in range(1, 100):
            eps = k / 100
            for variant, bound in (
                ("base", Fraction(s) / ((q - 1) * Fraction(k, 100))),
                ("pi", s / (pi_q(q) * eps)),
            ):
                v = required_v(q, [s], eps, variant)
                assert v >= 0 and q**v >= bound, (s, eps, variant)
                assert v == 0 or q ** (v - 1) < bound, (s, eps, variant)


def test_required_v_monotone_in_eps_and_size():
    assert required_v(2, [2], 0.1) >= required_v(2, [2], 0.5)
    assert required_v(2, [2, 2], 0.25) >= required_v(2, [2], 0.25)


def test_required_v_validation():
    with pytest.raises(ValueError):
        required_v(2, [], 0.5)
    with pytest.raises(ValueError):
        required_v(2, [0], 0.5)
    with pytest.raises(ValueError):
        required_v(2, [1], 0.0)
    with pytest.raises(ValueError):
        required_v(2, [1], 1.0)
    with pytest.raises(ValueError):
        required_v(2, [1], 0.5, variant="sharpest")


# ---------------------------------------------------------------------------
# pieces


def test_min_val_bound_mixes_units_and_zeroish():
    cfg = DvrConfig(p=5, prec=8)
    a = PrecElem.from_int(cfg, 25, abs_prec=8)  # val 2
    b = PrecElem.from_int(cfg, 3, abs_prec=8)  # val 0
    z = PrecElem.bigoh(cfg, 3)  # zeroish at O(5^3)
    m = PrecMatrix([[a, b], [z, a]])
    assert min_val_bound(m) == 0
    q = a / PrecElem.from_int(cfg, 125, abs_prec=8)  # val -1
    assert min_val_bound(PrecMatrix([[q]])) == -1


def test_full_pivot_inverse_roundtrip():
    cfg = DvrConfig(p=5, prec=12)
    rng = random.Random(9)
    rows = [[rng.randrange(5**12) for _ in range(3)] for _ in range(3)]
    m = flat_from_ints(cfg, rows)
    _, inv = _full_pivot(m, inverse=True)
    prod = matmul(m, inv)
    for i in range(3):
        for j in range(3):
            e = prod[i, j]
            if i == j:
                diff = e - e.like_one(e.abs_prec)
            else:
                diff = e
            assert diff.is_zeroish
            assert diff.val_lower_bound >= 12 - 2 * max(0, -min_val_bound(inv))


def test_indeterminate_determinant_fails_invertibility():
    cfg = DvrConfig(p=2, prec=6)
    m = PrecMatrix([[PrecElem.bigoh(cfg, 6)]])
    assert _full_pivot(m, inverse=True) is None
    assert simul._certify(m, 0, 6, []).stage == "invertibility"


def test_unit_determinant_omega_passes_invertibility():
    # the full-pivot determinant of this draw is a unit, but the column
    # elimination meets a swap test between two O(2^2) entries; omega is
    # judged by the members' rule, so it is not redrawn
    cfg = DvrConfig(p=2, prec=2)
    omega = random_matrix(cfg, 4, random.Random(102))
    assert _pivoted_det(omega).valuation == 0
    with pytest.raises(AmbiguousValuation):
        lv_decomposition(omega)
    omega_inv, factors = simul._certify(omega, 0, 2, [])
    assert factors == [] and min_val_bound(omega_inv) >= 0


def test_simul_failure_str():
    assert str(SimulFailure("invertibility", detail="no pivot")) == (
        "invertibility: no pivot"
    )
    assert "matrix 2" in str(SimulFailure("factor", matrix_index=2, detail="x"))


# ---------------------------------------------------------------------------
# one attempt


def _random_family(cfg, rng, d, specs):
    fam = []
    for sizes in specs:
        rows = [[rng.randrange(cfg.p**cfg.prec) for _ in range(d)] for _ in range(d)]
        fam.append((flat_from_ints(cfg, rows), list(sizes)))
    return fam


def test_attempt_success_certifies_all_bounds():
    cfg = DvrConfig(p=2, prec=40)
    rng = random.Random(17)
    fam = _random_family(cfg, rng, 4, [[2, 2], [4]])
    v = required_v(2, [2, 1], 0.5)
    got = attempt_simultaneous(cfg, fam, v, random.Random(3))
    assert isinstance(got, SimulResult)
    assert min_val_bound(got.omega_inv) >= -v
    assert len(got.factors) == 2
    for fact in got.factors:
        assert min_val_bound(fact.lower) >= -v


def test_attempt_rejects_wrong_shape():
    cfg = DvrConfig(p=2, prec=10)
    rng = random.Random(0)
    fam = _random_family(cfg, rng, 3, [[3]])
    fam.append((flat_from_ints(cfg, [[1, 0], [0, 1]]), [2]))
    with pytest.raises(ValueError):
        attempt_simultaneous(cfg, fam, 1, random.Random(1))


def _no_draw(*args, **kwargs):
    raise AssertionError("omega was drawn")


@pytest.mark.parametrize("later", [
    lambda cfg: (flat_from_ints(cfg, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [3]),
    lambda cfg: (flat_from_ints(cfg, [[1, 0], [0, 1]]), [1, 2]),
], ids=["shape", "tiling"])
def test_family_checked_before_omega_is_drawn(later, monkeypatch):
    # member 0 fails the factor check on every draw, so a check made only
    # when member 1 is reached would never run
    cfg = DvrConfig(p=5, prec=10)
    hopeless = PrecMatrix([[PrecElem.bigoh(cfg, 10)] * 2 for _ in range(2)])
    fam = [(hopeless, [1, 1]), later(cfg)]
    rng = random.Random(4)
    state = rng.getstate()
    with pytest.raises(ValueError, match="family matrix 1"):
        attempt_simultaneous(cfg, fam, 1, rng)
    assert rng.getstate() == state
    monkeypatch.setattr("dvrlu.simul.random_matrix", _no_draw)
    with pytest.raises(ValueError, match="family matrix 1"):
        simultaneous_block_lu(cfg, fam, eps=0.5, seed=4)


def test_member_without_digits_refused_before_omega_is_drawn():
    # 3^-1 + O(3^0) is known to precision 0, so no draw can factor the member
    cfg = DvrConfig(p=3, prec=10)
    low, one = PrecElem.unit_form(cfg, -1, 1, 1), PrecElem.from_int(cfg, 1)
    fam = [(PrecMatrix([[low, one], [one, one]]), [1, 1])]
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"working precision N = 0"):
        attempt_simultaneous(cfg, fam, 1, rng)
    assert rng.getstate() == state


def test_attempt_factor_valuation_failure(monkeypatch):
    # pin omega to the identity so the product is the raw matrix, whose
    # unit-lower factor costs a 1/p entry; budget v = 0 must reject it
    cfg = DvrConfig(p=5, prec=10)
    ident = PrecMatrix.identity_like(
        flat_from_ints(cfg, [[1, 1], [1, 1]]), 2, 10
    )
    monkeypatch.setattr("dvrlu.simul.random_matrix", lambda *a, **k: ident.copy())
    fam = [(flat_from_ints(cfg, [[5, 1], [1, 1]]), [1, 1])]
    got = attempt_simultaneous(cfg, fam, 0, random.Random(0))
    assert isinstance(got, SimulFailure)
    assert got.stage == "factor-valuation"
    assert got.matrix_index == 0
    # a budget of one digit absorbs the same loss
    ok = attempt_simultaneous(cfg, fam, 1, random.Random(0))
    assert isinstance(ok, SimulResult)


def test_attempt_factor_stage_failure(monkeypatch):
    cfg = DvrConfig(p=2, prec=8)
    ident = PrecMatrix.identity_like(
        flat_from_ints(cfg, [[1, 1], [1, 1]]), 2, 8
    )
    monkeypatch.setattr("dvrlu.simul.random_matrix", lambda *a, **k: ident.copy())
    zero = flat_from_ints(cfg, [[0, 0], [0, 0]])
    got = attempt_simultaneous(cfg, [(zero, [1, 1])], 2, random.Random(0))
    assert isinstance(got, SimulFailure)
    assert got.stage == "factor"


@pytest.mark.parametrize("rows, detectable", [
    ([[1, 0], [0, 1]], True),
    ([[5, 0], [0, 1]], False),  # v(det) = 1
    ([[0, 0], [1, 1]], False),  # row 0 is O(5^10): det is indeterminate
    # unit determinants whose entries (0, 0) and (0, 1) are O(5^10): a
    # column elimination's first swap test cannot decide, full pivoting can
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], True),  # anti-identity, det -1
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], True),  # cyclic permutation, det 1
])
def test_det_unit_gate(rows, detectable):
    assert simul._det_unit_detectable(flat_from_ints(DvrConfig(p=5, prec=10), rows)) is detectable


@pytest.mark.parametrize("member_prec, stage, gate_reads", [
    (10, None, 0),  # every factor meets N - 2v: the gate is never read
    (5, "factor-precision", 1),  # below N - 2v with a unit determinant
])
def test_factor_precision_reads_the_gate_only_below_the_bound(
    monkeypatch, member_prec, stage, gate_reads
):
    cfg = DvrConfig(p=5, prec=10)
    ident = flat_from_ints(cfg, [[1, 0], [0, 1]])
    monkeypatch.setattr("dvrlu.simul.random_matrix", lambda *a, **k: ident.copy())
    reads = []
    real = simul._det_unit_detectable
    monkeypatch.setattr(simul, "_det_unit_detectable", lambda m: reads.append(m) or real(m))
    member = flat_from_ints(cfg, [[1, 0], [0, 1]], member_prec)
    got = attempt_simultaneous(cfg, [(member, [1, 1])], 1, random.Random(0))
    assert len(reads) == gate_reads
    if stage is None:
        assert isinstance(got, SimulResult)
    else:
        assert isinstance(got, SimulFailure)
        assert (got.stage, got.matrix_index) == (stage, 0)


def test_unit_member_with_zero_leading_entries_keeps_its_floor():
    # the anti-identity has det -1 but entries (0, 0) and (0, 1) are
    # O(2^6), so only a full-pivot determinant finds it a unit; at v = 3
    # three of these draws give a factor below N - 2v = 0, which the
    # certificate must refuse
    n = 6
    cfg = DvrConfig(p=2, prec=n)
    anti = flat_from_ints(cfg, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    v = required_v(2, [3], 0.5)
    rng = random.Random(7)
    stages = []
    for _ in range(400):
        got = attempt_simultaneous(cfg, [(anti, [1, 1, 1])], v, rng)
        if isinstance(got, SimulFailure):
            stages.append(got.stage)
        else:
            assert all(f.lower.min_abs_prec() >= n - 2 * v for f in got.factors)
    assert "factor-precision" in stages


# ---------------------------------------------------------------------------
# the retry driver


def test_simultaneous_block_lu_succeeds_quickly():
    cfg = DvrConfig(p=2, prec=40)
    rng = random.Random(23)
    fam = _random_family(cfg, rng, 4, [[1, 3], [2, 2]])
    res = simultaneous_block_lu(cfg, fam, eps=0.5, seed=5)
    assert res.v == required_v(2, [2, 2], 0.5)
    assert res.n == 40
    assert res.tries <= 10
    for fact in res.factors:
        assert min_val_bound(fact.lower) >= -res.v


def test_simultaneous_block_lu_exhausts_on_hopeless_draws(monkeypatch):
    cfg = DvrConfig(p=2, prec=8)
    bad = PrecMatrix(
        [[PrecElem.bigoh(cfg, 8) for _ in range(2)] for _ in range(2)]
    )
    monkeypatch.setattr("dvrlu.simul.random_matrix", lambda *a, **k: bad.copy())
    fam = [(flat_from_ints(cfg, [[1, 0], [0, 1]]), [1, 1])]
    with pytest.raises(ExhaustedRetries) as info:
        simultaneous_block_lu(cfg, fam, eps=0.5, seed=0, max_tries=5)
    assert info.value.tries == 5
    assert info.value.last_failure.stage == "invertibility"


@pytest.mark.parametrize("max_tries", [0, -3])
def test_retry_budget_below_one_is_refused_before_drawing(max_tries, monkeypatch):
    # both solvers retry through one loop: no tries at all is bad input,
    # refused before omega is drawn, not retries exhausted
    cfg = DvrConfig(p=5, prec=12)
    fam = [(flat_from_ints(cfg, [[1, 0], [0, 1]]), [1, 1])]
    inst = random_instance(cfg, random.Random(2), n_points=2, d=2, e_max=1)
    monkeypatch.setattr("dvrlu.simul.random_matrix", _no_draw)
    monkeypatch.setattr("dvrlu.sheaf.random_matrix", _no_draw)
    for solve in (
        lambda: simultaneous_block_lu(cfg, fam, eps=0.5, seed=4, max_tries=max_tries),
        lambda: solve_sheaf(inst, seed=4, max_tries=max_tries),
    ):
        with pytest.raises(ValueError, match=f"max_tries must be at least 1, got {max_tries}"):
            solve()


# ---------------------------------------------------------------------------
# JSON plumbing


def test_family_json_roundtrip():
    cfg = DvrConfig(p=3, prec=12)
    rng = random.Random(2)
    fam = _random_family(cfg, rng, 3, [[1, 2], [3]])
    obj = {
        "config": cfg.to_json(),
        "eps": 0.25,
        "variant": "pi",
        "family": [
            {"matrix": mat.to_json(), "block_type": sizes} for mat, sizes in fam
        ],
    }
    cfg2, eps, variant, fam2 = family_from_json(obj)
    assert (cfg2.p, cfg2.prec) == (3, 12)
    assert eps == 0.25 and variant == "pi"
    assert [sizes for _, sizes in fam2] == [[1, 2], [3]]
    for (a, _), (b, _) in zip(fam, fam2):
        assert a.to_json() == b.to_json()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.pop("config"),
        lambda o: o.pop("eps"),
        lambda o: o["family"].clear(),
        lambda o: o["family"][0].pop("block_type"),
        lambda o: o["family"][0].__setitem__("block_type", ["x"]),
    ],
)
def test_family_json_malformed(mutate):
    cfg = DvrConfig(p=2, prec=6)
    obj = {
        "config": cfg.to_json(),
        "eps": 0.5,
        "family": [
            {
                "matrix": flat_from_ints(cfg, [[1, 0], [0, 1]]).to_json(),
                "block_type": [1, 1],
            }
        ],
    }
    mutate(obj)
    with pytest.raises(ValueError, match="malformed instance"):
        family_from_json(obj)


def test_result_json_keys():
    cfg = DvrConfig(p=2, prec=30)
    rng = random.Random(4)
    fam = _random_family(cfg, rng, 3, [[1, 2]])
    res = simultaneous_block_lu(cfg, fam, eps=0.5, seed=1)
    obj = result_to_json(res)
    assert set(obj) == {"v", "n", "tries", "omega", "omega_inv", "factors"}
    assert obj["n"] == 30
    assert len(obj["factors"]) == 1
