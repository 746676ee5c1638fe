"""End-to-end tests of the command-line interface.

Everything goes through ``main(argv)`` in-process so exit codes and output
can be asserted directly; one test runs the entry point declared in
``pyproject.toml`` in a subprocess, and also the installed ``dvrlu`` script
when one is on ``PATH``.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shlex
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import dvrlu
from dvrlu import errors
from dvrlu.cli import build_parser, main
from dvrlu.config import DvrConfig
from dvrlu.element import PrecElem
from dvrlu.lu_stable import lift_recompute_l, naive_gauss_l, precision_loss, stable_l
from dvrlu.matrix import PrecMatrix, random_matrix
from dvrlu.sheaf import random_instance
from dvrlu.simul import SimulResult, attempt_simultaneous, required_v
from dvrlu.stats import tail_frequency, vl_tail_bound
from dvrlu.stats.montecarlo import simulate

from conftest import flat_from_ints


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _matrix_input(tmp_path, cfg, rows, name="m.json"):
    mat = flat_from_ints(cfg, rows)
    return _write(
        tmp_path, name, {"config": cfg.to_json(), "matrix": mat.to_json()}
    )


# ---------------------------------------------------------------------------
# lu


def test_lu_run_stable_reports_loss(tmp_path, capsys):
    cfg = DvrConfig(p=5, prec=10)
    path = _matrix_input(tmp_path, cfg, [[5, 1], [1, 1]])
    assert main(["lu", "run", "--input", path, "--algo", "stable"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["loss"] == 2
    assert out["col_vals"] == [1, 0]
    assert out["n"] == 10


@pytest.mark.parametrize(
    "extra",
    [
        ["--algo", "naive"],
        ["--algo", "lift"],
        ["--algo", "lv"],
        ["--algo", "recursive", "--threshold", "2"],
        ["--algo", "recursive", "--mul", "strassen"],
        ["--algo", "hermite"],
        ["--algo", "profile"],
        ["--algo", "block", "--block-type", "1,2"],
        ["--algo", "block-unit", "--block-type", "3"],
        ["--algo", "recursive", "--threshold", "1", "--mul", "strassen"],
    ],
)
def test_lu_run_all_algos(tmp_path, capsys, extra):
    cfg = DvrConfig(p=5, prec=12)
    rng = random.Random(6)
    rows = [[rng.randrange(1, 5**12) for _ in range(3)] for _ in range(3)]
    rows[0][0] |= 1  # keep the corner a unit so every algorithm proceeds
    path = _matrix_input(tmp_path, cfg, rows)
    assert main(["lu", "run", "--input", path] + extra) == 0
    out = capsys.readouterr().out
    json.loads(out)
    if "strassen" in extra:
        # Strassen products mod pi^N are exact: the classical run's output,
        # byte for byte
        classical = ["classical" if a == "strassen" else a for a in extra]
        assert main(["lu", "run", "--input", path] + classical) == 0
        assert capsys.readouterr().out == out


def test_lu_run_profile_table_keys(tmp_path, capsys):
    cfg = DvrConfig(p=2, prec=8)
    path = _matrix_input(tmp_path, cfg, [[1, 1], [1, 0]])
    assert main(["lu", "run", "--input", path, "--algo", "profile"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "0,1" in out["table"]
    assert "det_val" in out and "swaps" in out


def test_lu_block_requires_block_type(tmp_path, capsys):
    cfg = DvrConfig(p=5, prec=8)
    path = _matrix_input(tmp_path, cfg, [[1, 0], [0, 1]])
    assert main(["lu", "run", "--input", path, "--algo", "block"]) == 2
    assert "block-type" in capsys.readouterr().err


def test_lu_run_precision_failure_exit_code(tmp_path, capsys):
    # the unpivoted elimination divides by a pivot indistinguishable from 0
    cfg = DvrConfig(p=2, prec=6)
    path = _matrix_input(tmp_path, cfg, [[0, 1], [1, 1]])
    assert main(["lu", "run", "--input", path, "--algo", "naive"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["stable", "naive", "profile"])
def test_lu_run_working_precision_below_one_is_input_error(tmp_path, capsys, algo):
    # 3^-1 + O(3^0) is known to absolute precision 0
    cfg = DvrConfig(p=3, prec=10)
    rows = [[{"v": -1, "digits": "1", "rel": 1}]]
    path = _write(tmp_path, "m.json", {"config": cfg.to_json(), "matrix": {"d": 1, "rows": rows}})
    assert main(["lu", "run", "--input", path, "--algo", algo]) == 2
    assert capsys.readouterr() == (
        "", "error: working precision N = 0: an elimination needs N >= 1\n")


@pytest.mark.parametrize("extra, message", [
    (["--algo", "lv"],
     "cannot compare v(O(5^6)) with v(O(5^6)): both indistinguishable from zero"),
    (["--algo", "recursive", "--threshold", "2"],
     "cannot compare v(O(5^6)) with v(O(5^6)): both indistinguishable from zero"),
    (["--algo", "stable"],
     "leading minor indistinguishable from zero after round 1"),
])
def test_lu_run_undecided_comparison_exit_code(tmp_path, capsys, extra, message):
    # step (1, 2) compares two entries that are both 0 mod 5^6; stable_l
    # refuses the zero leading minor of round 1 before it gets there
    cfg = DvrConfig(p=5, prec=6)
    path = _matrix_input(tmp_path, cfg, [[1, 0, 0], [0, 0, 0], [0, 1, 1]])
    assert main(["lu", "run", "--input", path] + extra) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_lu_bench_summary(capsys):
    rc = main(
        ["lu", "bench", "--p", "2", "--prec", "20", "--dim", "3",
         "--count", "5", "--seed", "1"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 5
    assert "loss_mean" in out and out["failures"] == 0


def _bench_losses(factor, p, prec, dim, count, seed):
    """The precision losses `lu bench` reports for one seed, and the number
    of matrices whose elimination failed."""
    cfg, rng = DvrConfig(p=p, prec=prec), random.Random(seed)
    losses = []
    for _ in range(count):
        try:
            losses.append(precision_loss(factor(random_matrix(cfg, dim, rng)), prec))
        except errors.DvrError:
            pass
    return losses, count - len(losses)


@pytest.mark.parametrize("algo, factor", [
    ("naive", naive_gauss_l),
    ("stable", lambda m: stable_l(m).lower),
    ("lift", lift_recompute_l),
])
def test_lu_bench_reports_loss_spread(capsys, algo, factor):
    # the naive-against-stable precision-loss experiment: every algorithm
    # sees the same matrices for one seed
    argv = "lu bench --p 2 --prec 30 --dim 6 --count 9 --seed 5 --algo " + algo
    assert main(argv.split()) == 0
    out = json.loads(capsys.readouterr().out)
    losses, failures = _bench_losses(factor, 2, 30, 6, 9, 5)
    assert out["failures"] == failures == 0
    assert out["loss_mean"] == statistics.mean(losses)
    assert out["loss_sd"] == statistics.stdev(losses)
    assert out["two_log_q_d"] == 2 * math.log(6, 2)


def test_lu_bench_counts_failures(capsys):
    # three digits of Z_2 leave no room for the pivots of most 6x6 matrices
    assert main("lu bench --p 2 --prec 3 --dim 6 --count 20 --seed 1".split()) == 0
    out = json.loads(capsys.readouterr().out)
    losses, failures = _bench_losses(lambda m: stable_l(m).lower, 2, 3, 6, 20, 1)
    assert out["failures"] == failures == 11
    assert (out["loss_min"], out["loss_max"]) == (min(losses), max(losses))


def test_lu_bench_loss_sd_of_one_sample_is_zero(capsys):
    assert main("lu bench --p 5 --prec 20 --dim 3 --count 1 --seed 2".split()) == 0
    assert json.loads(capsys.readouterr().out)["loss_sd"] == 0.0


@pytest.mark.parametrize("argv", [
    "lu bench --p 2 --prec 10 --dim 3 --count COUNT",
    "simul bench --p 2 --prec 10 --dim 3 --block-type 1,2 --count COUNT",
], ids=["lu", "simul"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_bench_rejects_count_below_one(capsys, argv, count):
    assert main(argv.replace("COUNT", count).split()) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == f"error: --count must be at least 1, got {count}"


# ---------------------------------------------------------------------------
# malformed input


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"config": ')
    assert main(["lu", "run", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_file_is_input_error(capsys):
    assert main(["lu", "run", "--input", "/nonexistent/x.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_matrix_key(tmp_path, capsys):
    cfg = DvrConfig(p=2, prec=6)
    path = _write(tmp_path, "m.json", {"config": cfg.to_json()})
    assert main(["lu", "run", "--input", path]) == 2
    assert "malformed" in capsys.readouterr().err


def test_empty_matrix_is_input_error(tmp_path, capsys):
    cfg = DvrConfig(p=2, prec=6)
    path = _write(tmp_path, "m.json",
                  {"config": cfg.to_json(), "matrix": {"d": 0, "rows": []}})
    assert main(["lu", "run", "--input", path]) == 2
    assert "no rows" in capsys.readouterr().err


@pytest.mark.parametrize("prec", [True, 0, 2.0])
def test_config_prec_must_be_a_positive_int(tmp_path, capsys, prec):
    # JSON true is a Python bool, an int subclass: refused, not read as 1
    matrix = flat_from_ints(DvrConfig(p=5, prec=1), [[1]]).to_json()
    path = _write(tmp_path, "m.json", {"config": {"p": 5, "prec": prec}, "matrix": matrix})
    assert main(["lu", "run", "--input", path]) == 2
    err = capsys.readouterr().err
    assert f"prec must be a positive integer, got {prec!r}" in err


def _json_input(command):
    """A valid input of `command` run (or `sheaf solve`) to break one field of."""
    cfg = DvrConfig(p=5, prec=10)
    matrix = flat_from_ints(cfg, [[5, 1], [1, 1]]).to_json()
    if command == "lu":
        return {"config": cfg.to_json(), "matrix": matrix}
    if command == "simul":
        return {"config": cfg.to_json(), "eps": 0.5,
                "family": [{"matrix": matrix, "block_type": [1, 1]}]}
    return random_instance(cfg, random.Random(1), n_points=2, d=2, e_max=1).to_json()


def _halves(point):
    point["exponents"] = [e + 0.5 for e in point["exponents"]]


# each of these was read by truncation before (int(0.9) == 0, int(True) == 1)
@pytest.mark.parametrize("command, mutate, field, value", [
    ("lu", lambda o: o["matrix"]["rows"][1][1].update(v=0.9), "v", 0.9),
    ("lu", lambda o: o["matrix"]["rows"][0][0].update(rel=9.7), "rel", 9.7),
    ("lu", lambda o: o["matrix"]["rows"][0][0].update(v=True), "v", True),
    ("lu", lambda o: o["matrix"]["rows"][0][0].update(digits=1.5), "digits", 1.5),
    ("lu", lambda o: o["matrix"]["rows"][0].__setitem__(1, {"bigoh": 10.0}), "bigoh", 10.0),
    ("lu", lambda o: o["matrix"].update(d=2.0), "d", 2.0),
    ("simul", lambda o: o["family"][0]["matrix"].update(d=2.0), "d", 2.0),
    ("simul", lambda o: o["family"][0].update(block_type=[True, 1]), "block_type", True),
    ("sheaf", lambda o: _halves(o["points"][0]), "exponents", 0.5),
    ("sheaf", lambda o: o["points"][0]["matrix"].update(d=2.0), "d", 2.0),
    ("sheaf", lambda o: o["points"][1]["matrix"].update(order=2.0), "order", 2.0),
], ids=["lu-v", "lu-rel", "lu-v-bool", "lu-digits", "lu-bigoh", "lu-d", "simul-d",
        "simul-block-type", "sheaf-exponents", "sheaf-d", "sheaf-order"])
def test_json_integer_fields_refuse_other_types(tmp_path, capsys, command, mutate, field, value):
    obj = _json_input(command)
    mutate(obj)
    path = _write(tmp_path, "in.json", obj)
    argv = {"lu": ["lu", "run"], "simul": ["simul", "run", "--seed", "1"],
            "sheaf": ["sheaf", "solve", "--seed", "1"]}[command]
    assert main(argv + ["--input", path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{field} must be an integer" in out.err and f"got {value!r}" in out.err


@pytest.mark.parametrize("field, value, what", [
    ("eps", "0.5", "a number"), ("eps", True, "a number"), ("eps", None, "a number"),
    ("eps", [0.5], "a number"), ("variant", 3, "a string"), ("variant", None, "a string"),
])
def test_simul_family_refuses_mistyped_eps_and_variant(tmp_path, capsys, field, value, what):
    # "eps": "0.5" was read as 0.5 and "eps": true as 1.0 by float()
    obj = _json_input("simul")
    obj[field] = value
    path = _write(tmp_path, "in.json", obj)
    assert main(["simul", "run", "--seed", "1", "--input", path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{field} must be {what}, got {value!r}" in out.err


# ---------------------------------------------------------------------------
# stats


def test_stats_vl_csv_deterministic(capsys):
    argv = ["stats", "vl", "--q", "2", "--d", "3", "--trials", "2000",
            "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "v,count,freq,theory_bound,sandwich_lo,sandwich_hi"
    assert len(lines) > 1


def test_stats_vl_json(capsys):
    assert main(
        ["stats", "vl", "--q", "2", "--d", "3", "--trials", "1000",
         "--seed", "1", "--format", "json"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trials"] == 1000
    assert len(out["interval"]) == 2


@pytest.mark.parametrize("q, d", [(2, 16), (3, 5), (2, 1)])
def test_stats_vl_json_tails(capsys, q, d):
    # the two-sided concentration experiment, from the same simulation
    argv = f"stats vl --q {q} --d {d} --trials 4000 --seed 3 --format json"
    assert main(argv.split()) == 0
    out = json.loads(capsys.readouterr().out)
    vl = simulate(q, d, 4000, seed=3)["vl"]
    assert out["tails"] == [
        {"ell": ell, "empirical": tail_frequency(vl, q, d, ell),
         "bound": vl_tail_bound(q, ell)}
        for ell in range(1, 7)
    ]


def test_stats_eqd_routes_agree(capsys):
    assert main(["stats", "eqd", "--q", "3", "--d", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["series"] - out["alternating"]) < 1e-10


@pytest.mark.parametrize(
    "argv,message",
    [
        (["stats", "vl", "--q", "4", "--d", "4"], "error: p must be prime, got 4"),
        (["stats", "vl", "--q", "4", "--d", "1"], "error: p must be prime, got 4"),
        (["stats", "detval", "--q", "6", "--d", "3"], "error: p must be prime, got 6"),
        (["stats", "eqd", "--q", "1", "--d", "4"], "error: --q must be at least 2, got 1"),
        (["stats", "vl", "--q", "4294967311", "--d", "3"],
         "error: p must satisfy (p - 1)^2 < 2^63 for the engine's int64 arithmetic, "
         "got 4294967311"),
        (["stats", "vl", "--q", "2", "--d", "1", "--trials", "-5"],
         "error: trials must be at least 1, got -5"),
        (["stats", "vl", "--q", "2", "--d", "1", "--trials", "0"],
         "error: trials must be at least 1, got 0"),
        (["stats", "vl", "--q", "2", "--d", "3", "--trials", "0"],
         "error: trials must be at least 1, got 0"),
        (["stats", "detval", "--q", "2", "--d", "3", "--trials", "0"],
         "error: trials must be at least 1, got 0"),
        (["stats", "vl", "--q", "2", "--d", "3", "--jobs", "0"],
         "error: jobs must be at least 1, got 0"),
        (["stats", "detval", "--q", "2", "--d", "3", "--jobs", "0"],
         "error: jobs must be at least 1, got 0"),
        (["stats", "vl", "--q", "2", "--d", "1", "--jobs", "0"],
         "error: jobs must be at least 1, got 0"),
        (["stats", "vl", "--q", "4294967311", "--d", "1"],
         "error: p must satisfy (p - 1)^2 < 2^63 for the engine's int64 arithmetic, "
         "got 4294967311"),
    ],
)
def test_stats_rejects_what_it_cannot_compute(capsys, argv, message):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == message


def test_stats_detval_csv(capsys):
    assert main(
        ["stats", "detval", "--q", "2", "--d", "3", "--trials", "2000",
         "--seed", "2"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "v,count,freq,cdf_emp,cdf_theory"
    last = lines[-1].split(",")
    assert float(last[3]) == pytest.approx(1.0)


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("DVRLU_SEED", "7")
    assert main(["stats", "vl", "--q", "2", "--d", "3", "--trials", "2000"]) == 0
    via_env = capsys.readouterr().out
    monkeypatch.delenv("DVRLU_SEED")
    assert main(
        ["stats", "vl", "--q", "2", "--d", "3", "--trials", "2000",
         "--seed", "7"]
    ) == 0
    assert capsys.readouterr().out == via_env


def test_seed_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("DVRLU_SEED", "not-a-number")
    assert main(["stats", "vl", "--q", "2", "--d", "3", "--trials", "100"]) == 2
    assert "DVRLU_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simul


def _family_file(tmp_path, cfg, specs, seed=0):
    rng = random.Random(seed)
    fam = []
    for sizes in specs:
        d = sum(sizes)
        rows = [[rng.randrange(cfg.p**cfg.prec) for _ in range(d)] for _ in range(d)]
        fam.append({"matrix": flat_from_ints(cfg, rows).to_json(),
                    "block_type": sizes})
    return _write(
        tmp_path, "family.json",
        {"config": cfg.to_json(), "eps": 0.5, "family": fam},
    )


def test_simul_run(tmp_path, capsys):
    cfg = DvrConfig(p=2, prec=30)
    path = _family_file(tmp_path, cfg, [[1, 2], [3]])
    assert main(["simul", "run", "--input", path, "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"v", "n", "tries", "omega", "omega_inv", "factors"}
    assert out["n"] == 30


def _bigoh_matrix(d):
    return {"d": d, "rows": [[{"bigoh": 10}] * d] * d}


@pytest.mark.parametrize("later, message", [
    ({"matrix": _bigoh_matrix(3), "block_type": [3]}, "is not 2x2"),
    ({"matrix": _bigoh_matrix(2), "block_type": [1, 2]}, "does not tile"),
], ids=["shape", "tiling"])
def test_simul_run_rejects_bad_family_before_drawing(tmp_path, capsys, later, message):
    # member 0 is all O(5^10), so every draw fails at it; the later member's
    # defect must still be reported as bad input, not as exhausted retries
    cfg = DvrConfig(p=5, prec=10)
    fam = [{"matrix": _bigoh_matrix(2), "block_type": [1, 1]}, later]
    path = _write(tmp_path, "family.json",
                  {"config": cfg.to_json(), "eps": 0.5, "family": fam})
    assert main(["simul", "run", "--input", path, "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert "family matrix 1" in err and message in err


def test_simul_bench(capsys):
    rc = main(
        ["simul", "bench", "--p", "2", "--prec", "30", "--dim", "3",
         "--block-type", "1,2", "--count", "30", "--seed", "3"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["successes"] <= out["count"]
    assert out["success_rate"] >= out["target"] - 0.25  # crude smoke bound


def test_simul_bench_cycles_block_types(capsys):
    # member k of the family takes block type k mod the number of types
    argv = ["simul", "bench", "--p", "2", "--prec", "30", "--dim", "4",
            "--n-matrices", "3", "--block-type", "2,2;1,3", "--count", "60",
            "--seed", "4"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    cfg = DvrConfig(p=2, prec=30)
    rng = random.Random(4)
    family = [(random_matrix(cfg, 4, rng), sizes) for sizes in ([2, 2], [1, 3], [2, 2])]
    v = required_v(2, [2, 2, 2], 0.5)
    successes = sum(
        isinstance(attempt_simultaneous(cfg, family, v, rng), SimulResult)
        for _ in range(60)
    )
    assert (out["v"], out["successes"]) == (v, successes)


def test_simul_bench_block_type_mismatch(capsys):
    rc = main(
        ["simul", "bench", "--p", "2", "--prec", "10", "--dim", "4",
         "--block-type", "1,2", "--count", "1"]
    )
    assert rc == 2
    assert "tile" in capsys.readouterr().err


def test_simul_bench_rejects_each_untiled_block_type(capsys):
    rc = main(
        ["simul", "bench", "--p", "2", "--prec", "10", "--dim", "4",
         "--block-type", "2,2;1,2", "--count", "1"]
    )
    assert rc == 2
    assert "tile" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sheaf


def test_sheaf_solve_with_verification(tmp_path, capsys):
    cfg = DvrConfig(p=5, prec=24)
    inst = random_instance(cfg, random.Random(10), n_points=2, d=2, e_max=2)
    path = _write(tmp_path, "inst.json", inst.to_json())
    assert main(["sheaf", "solve", "--input", path, "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verification"]["ok"] is True
    assert main(
        ["sheaf", "solve", "--input", path, "--seed", "2", "--no-verify"]
    ) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert "verification" not in out2


def test_sheaf_solve_unsorted_exponents(tmp_path, capsys):
    cfg = DvrConfig(p=5, prec=12)
    inst = random_instance(cfg, random.Random(1), n_points=2, d=2, e_max=1)
    obj = inst.to_json()
    obj["points"][0]["exponents"] = [1, 0]
    # the matrix order no longer matters for the failure; keep it consistent
    path = _write(tmp_path, "inst.json", obj)
    rc = main(["sheaf", "solve", "--input", path, "--seed", "1"])
    assert rc == 2
    assert "non-decreasing" in capsys.readouterr().err


def _short_rows(obj):
    obj["points"][0]["matrix"]["rows"].pop()


def _no_points(obj):
    obj["points"] = []


def _empty_matrix(obj):
    obj["points"][0]["matrix"].update(d=0, rows=[])


def _coincident_points(obj):
    obj["points"][1]["a"] = obj["points"][0]["a"]


def _negative_exponent(obj):
    obj["points"][0]["exponents"] = [-1, 1]


def _negative_exponents(obj):
    obj["points"][0]["exponents"] = [-3, -3]


@pytest.mark.parametrize("mutate, message", [
    (_short_rows, "2x2 rows"),
    (_no_points, "at least one point"),
    (_empty_matrix, "no rows"),
    (_coincident_points, "error: points 0 and 1 coincide to working precision"),
    (_negative_exponent, "error: exponents must be nonnegative, got [-1, 1]"),
    (_negative_exponents, "error: exponents must be nonnegative, got [-3, -3]"),
], ids=["short-rows", "no-points", "empty-matrix", "coincident-points",
        "negative-exponent", "negative-exponents"])
def test_sheaf_solve_rejects_malformed_instance(tmp_path, capsys, mutate, message):
    cfg = DvrConfig(p=5, prec=12)
    obj = random_instance(cfg, random.Random(1), n_points=2, d=2, e_max=1).to_json()
    mutate(obj)
    path = _write(tmp_path, "inst.json", obj)
    assert main(["sheaf", "solve", "--input", path, "--seed", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_sheaf_solve_exhausted_retries(tmp_path, capsys, monkeypatch):
    cfg = DvrConfig(p=5, prec=12)
    inst = random_instance(cfg, random.Random(2), n_points=2, d=2, e_max=1)
    path = _write(tmp_path, "inst.json", inst.to_json())
    bad = PrecMatrix(
        [[PrecElem.bigoh(cfg, 12) for _ in range(2)] for _ in range(2)]
    )
    monkeypatch.setattr("dvrlu.sheaf.random_matrix", lambda *a, **k: bad.copy())
    rc = main(
        ["sheaf", "solve", "--input", path, "--seed", "0", "--max-tries", "3"]
    )
    assert rc == 4
    assert "3 tries" in capsys.readouterr().err


@pytest.mark.parametrize("tries", ["0", "-3"])
@pytest.mark.parametrize("command", ["simul run", "sheaf solve"])
def test_max_tries_below_one_is_input_error(tmp_path, capsys, command, tries):
    cfg = DvrConfig(p=5, prec=12)
    if command == "simul run":
        path = _family_file(tmp_path, cfg, [[1, 1]])
    else:
        inst = random_instance(cfg, random.Random(2), n_points=2, d=2, e_max=1)
        path = _write(tmp_path, "inst.json", inst.to_json())
    argv = [*command.split(), "--input", path, "--seed", "0", "--max-tries", tries]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == f"error: max_tries must be at least 1, got {tries}"


# ---------------------------------------------------------------------------
# exit codes


EXIT_CODES = {
    errors.AmbiguousValuation: 3,
    errors.DivisionByUnknownZero: 3,
    errors.DegenerateInput: 3,
    errors.DegenerateDecomposition: 3,
    errors.InsufficientLift: 3,
    errors.ExhaustedRetries: 4,
    errors.NotSorted: 2,
    errors.CoincidentPoints: 2,
    ValueError: 2,
    OSError: 2,
    json.JSONDecodeError: 2,
}


def _instance(cls):
    if cls is errors.InsufficientLift:
        return cls("needs more digits", required_prec=17)
    if cls is errors.ExhaustedRetries:
        return cls("no luck", tries=3)
    if cls is json.JSONDecodeError:
        return cls("Expecting value", "{\n x", 3)
    return cls("boom")


def test_exit_code_table_covers_every_dvr_error():
    assert set(errors.DvrError.__subclasses__()) <= set(EXIT_CODES)


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_exit_code_table(capsys, monkeypatch, cls):
    exc = _instance(cls)

    def raising(args):
        raise exc

    monkeypatch.setattr("dvrlu.cli._cmd_stats_eqd", raising)
    assert main(["stats", "eqd", "--q", "2", "--d", "4"]) == EXIT_CODES[cls]
    expected = {
        errors.InsufficientLift: "error: needs more digits (suggested precision: 17)",
        json.JSONDecodeError: "error: malformed JSON at line 2 column 2: Expecting value",
    }.get(cls, f"error: {exc}")
    assert capsys.readouterr() == ("", expected + "\n")


# ---------------------------------------------------------------------------
# console-script entry point

REPO_ROOT = Path(__file__).resolve().parents[1]


def _declared_entry_point():
    """``(module, attr)`` of ``[project.scripts].dvrlu`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["dvrlu"]
    module, _, attr = spec.partition(":")
    return module.strip(), attr.strip()


def _check_console_runs(cmd, tmp_path, env=None):
    def run(*args):
        return subprocess.run(
            cmd + list(args), capture_output=True, text=True, timeout=60,
            env=env,
        )

    proc = run("stats", "eqd", "--q", "2", "--d", "4")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["d"] == 4
    # a non-zero return from main must become the process exit status
    proc = run("lu", "run", "--input", str(tmp_path / "missing.json"))
    assert proc.returncode == 2, proc.stderr
    assert "error" in proc.stderr


def test_console_script_runs(tmp_path):
    # what pip's generated console-script wrapper does, run against the same
    # dvrlu source the rest of the suite imports, installed or not
    module, attr = _declared_entry_point()
    wrapper = f"import sys; from {module} import {attr} as f; sys.exit(f())"
    src_dir = str(Path(dvrlu.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (src_dir, os.environ.get("PYTHONPATH")) if x
    )
    _check_console_runs([sys.executable, "-c", wrapper], tmp_path, env=env)

    exe = shutil.which("dvrlu")
    if exe is not None:
        _check_console_runs([exe], tmp_path)


# ---------------------------------------------------------------------------
# README


def _readme_commands():
    """Every ``dvrlu`` line of README's sh blocks, with the values of the
    enclosing ``for NAME in VALUES; do`` loops substituted for ``$NAME``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        loops = dict(re.findall(r"for (\w+) in ([^;]+);", block))
        for line in block.splitlines():
            line = line.strip()
            if not line.startswith("dvrlu "):
                continue
            lines = [line]
            for name, values in loops.items():
                if "$" + name in line:
                    lines = [ln.replace("$" + name, v) for ln in lines for v in values.split()]
            yield from lines


README_COMMANDS = list(_readme_commands())


def test_readme_python_quick_start_prints_its_comments(capsys):
    # the library example runs as written, and its first two prints (the
    # precision losses of stable_l and naive_gauss_l at seed 1) are the
    # values its comments state
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    commented = re.findall(r"^print\(.*#\s*(\d+)\s", block, re.M)
    assert commented == ["4", "12"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[:2] == commented


def test_readme_has_the_experiment_recipes():
    joined = "\n".join(README_COMMANDS)
    assert "--algo naive" in joined and "--algo stable" in joined
    assert "dvrlu stats vl --q 2 --d 16 --trials 100000 --seed 0 --format json" in joined
    assert "--block-type '2,2;1,3'" in joined


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_parses(command):
    argv = shlex.split(command)[1:]
    assert "$" not in " ".join(argv)
    build_parser().parse_args(argv)
