"""Self-tests of the benchmark.

* The per-op checks bite: an output with one digit flipped (or a result the
  package itself reports as wrong) is counted as a failed op.
* Two traced runs at the same seed give identical per-layer counts.
* Without the package sources the benchmark exits non-zero and prints no
  result.
* The calibration probes are deterministic and scale each op by the
  brackets around it.

Run from the root of a source checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dvrlu.element import PrecElem  # noqa: E402


def flip(e: PrecElem) -> PrecElem:
    """The same element with its second unit digit changed."""
    p, u = e.cfg.p, e.unit_digits
    du = -p if (u // p) % p == p - 1 else p
    return PrecElem.unit_form(e.cfg, e.valuation, u + du, e.rel_prec)


def flip_below_diagonal(m, start: int = 1) -> None:
    """Flip one digit of the first strictly-lower entry from row `start` on
    that has two digits to spare."""
    for i in range(start, m.nrows):
        for j in range(i):
            e = m[i, j]
            if not e.is_zeroish and e.rel_prec >= 2:
                m[i, j] = flip(e)
                return
    raise AssertionError("no entry to corrupt")


def corrupt(name: str, kind: str, out):
    if name == "montecarlo":
        out["vl"][0] += 1
    elif name == "family_solve" and kind == "sheaf":
        out[1].local_ok[0] = False
    elif name == "family_solve":
        low = out.factors[0].lower
        flip_below_diagonal(low, start=4)  # below the first 4x4 diagonal block
    elif kind == "stable_l":
        flip_below_diagonal(out.lower)
    elif kind == "naive_gauss_l":
        flip_below_diagonal(out)
    elif kind == "lv_hermite":
        flip_below_diagonal(out[1])
    else:  # lv_decomposition, recursive_lv
        flip_below_diagonal(out.hp)
    return out


CASES = [
    (name, i)
    for name, cls in workloads.WORKLOADS.items()
    for i in range(len(cls.cycle))
]


@pytest.mark.parametrize("name,i", CASES)
def test_checks_count_corrupted_output_as_failed(name, i):
    wl = workloads.WORKLOADS[name](seed=5)
    wl.configure()
    led = run.Ledger()
    out, _ = led.call(wl, i)
    led.verify(wl, i, out)
    assert (led.attempted, led.failed) == (1, 0)
    led.verify(wl, i, corrupt(name, wl.kind(i), out))
    assert led.failed == 1


def test_workload_names_match():
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS


def _traced_counts(name: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_at_fixed_seed(name):
    first = _traced_counts(name, 7)
    assert first == _traced_counts(name, 7)
    assert any(k.endswith(".calls") and v > 0 for k, v in first.items())


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "lu_padic", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""


@pytest.mark.parametrize("kind", calibrate.PROBES)
def test_probe_is_deterministic(kind):
    fn, ref_s = calibrate.PROBES[kind]
    assert fn() == fn() and ref_s > 0


def test_calibrator_scales_each_op_by_the_brackets_around_it():
    cal = calibrate.Calibrator("python")
    cal.brackets = [[0.001, 0.001, 0.001], [0.002, 0.002, 0.002], [0.004, 0.004, 0.004]]
    ref = cal.ref_s
    assert cal.scales() == pytest.approx([ref / 0.0015, ref / 0.003])
    assert cal.scale(0, 0) == pytest.approx(ref / 0.001)


def test_workload_probes_exist():
    assert all(cls.probe in calibrate.PROBES for cls in workloads.WORKLOADS.values())
