#!/usr/bin/env python3
"""Benchmark of the dvrlu package: one closed-loop client, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lu_padic --seed 1 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of three
set-ups, each in a fresh process: this one, then two children), ops per
second, per-op latency p50 and p90, peak resident memory and the mean
digits lost.  Ops run until ``--seconds`` of wall time have passed and at
least 100 ops have run.  Every op's output is checked outside the timed
region; an op that raises or fails its check counts as failed.  Op and
set-up times are rescaled to a reference host speed by the probes of
:mod:`calibrate`; the raw figures are printed beside them.

``--trace 1`` runs the first ops of the workload as a fixed pass, alternately
untraced and traced by :mod:`tracer`, for ``--seconds`` seconds, and reports
per-layer counts and times (medians over the traced passes) together with
the tracing overhead.  The spans of the last traced pass are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("lu_padic", "lu_series", "montecarlo", "family_solve")
MIN_OPS = 100  # so that ten samples lie beyond the p90
WALL_CAP_S = 120.0  # the measured loop never runs longer than this
SETUP_SAMPLES = 3  # set-ups per run: this process, then two fresh ones
MAX_TRACEBACKS = 3


def environment() -> dict:
    import numpy

    u = platform.uname()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": f"{u.system} {u.release} {u.machine}",
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, trace_config: bool = False):
    """Import the package, build the workload's rings (the first DvrConfig)
    and generate the first cycle of inputs.  With trace_config, the ring
    construction runs under a new tracer, which is returned."""
    t0 = time.perf_counter()
    import workloads  # imports dvrlu

    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed)
    trc = None
    if trace_config:
        import tracer

        trc = tracer.Tracer()
        trc.install()
        trc.root("setup.configure", -1, wl.configure)
        trc.uninstall()
    else:
        wl.configure()
    t2 = time.perf_counter()
    wl.prepare()
    t3 = time.perf_counter()
    times = {"import_s": t1 - t0, "inputs_s": t3 - t2, "setup_s": t3 - t0}
    return wl, times, trc


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", name,
           "--seed", str(seed)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed ops, with the first few tracebacks on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digits: list = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= MAX_TRACEBACKS:
            print(f"op failed: {what}", file=sys.stderr)

    def call(self, wl, i: int):
        """Run op i; return (output or None, seconds)."""
        kind, inp = wl.kind(i), wl.input(i)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = wl.run(kind, inp)
        except Exception:  # an op that raises is a failed op; keep running
            dt = time.perf_counter() - t0
            self.fail(traceback.format_exc())
            return None, dt
        return out, time.perf_counter() - t0

    def verify(self, wl, i: int, out) -> None:
        """Check op i's output (outside the timed region)."""
        if out is None:
            return
        kind, inp = wl.kind(i), wl.input(i)
        try:
            wl.check(kind, inp, out)
            self.digits.extend(wl.digits(kind, inp, out))
        except Exception:  # a check that fails or cannot be computed
            self.fail(f"op {i} ({kind}): " + traceback.format_exc())


def measure(wl, seconds: float) -> dict:
    """Run ops for `seconds` of wall time (and at least MIN_OPS), each
    bracketed by calibration probes.  Returns raw and calibrated op times."""
    import calibrate  # after set-up, so that set-up pays for importing numpy

    ledger = Ledger()
    cal = calibrate.Calibrator(wl.probe)
    raw = []
    wall0 = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - wall0
        if (elapsed >= seconds and i >= MIN_OPS) or elapsed >= WALL_CAP_S:
            break
        cal.bracket()
        out, dt = ledger.call(wl, i)
        raw.append(dt)
        ledger.verify(wl, i, out)
        wl.release(i)
        i += 1
    cal.bracket()
    scaled = [d * s for d, s in zip(raw, cal.scales())]
    done = ledger.attempted - ledger.failed
    return {"ledger": ledger, "raw": raw, "scaled": scaled,
            "ops_per_s": done / sum(scaled), "raw_ops_per_s": done / sum(raw),
            "probe_s": cal.probe_median_s(), "probe_ref_s": cal.ref_s}


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def setup_samples(name: str, seed: int):
    """Set up in this process, then SETUP_SAMPLES - 1 times in fresh ones,
    with a python probe bracket after each.  Returns the workload and the
    raw and calibrated set-up times."""
    wl, times, _ = setup(name, seed)  # first, while nothing else is imported
    import calibrate

    cal = calibrate.Calibrator("python")
    cal.bracket()
    raw = [times["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        raw.append(probe_setup(name, seed))
        cal.bracket()
    scales = [cal.scale(0, 0)] + cal.scales()
    return wl, raw, [t * k for t, k in zip(raw, scales)]


def end_to_end(name: str, seed: int, seconds: float):
    wl, raw_setup, samples = setup_samples(name, seed)
    res = measure(wl, seconds)
    led, durs, raw = res["ledger"], res["scaled"], res["raw"]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90 = percentile(durs, 90)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "op_p50_s": (statistics.median(durs), "s"),
        "op_p90_s": (p90, "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "digits_lost_mean": (statistics.fmean(led.digits) if led.digits else 0.0, "digits"),
    }
    beyond = sum(d > p90 for d in durs)
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in samples)} calibrated, "
          f"{', '.join(f'{s:.4f}' for s in raw_setup)} raw")
    print(f"timed op time {sum(raw):.3f} s raw, {sum(durs):.3f} s calibrated, over "
          f"{len(durs)} ops; failed_ratio {led.failed / led.attempted:.4f} "
          f"({led.failed}/{led.attempted})")
    print(f"raw (uncalibrated): ops_per_s {res['raw_ops_per_s']:.6g}, op_p50_s "
          f"{statistics.median(raw):.6g}, op_p90_s {percentile(raw, 90):.6g}; "
          f"{wl.probe} probe median {res['probe_s']:.6g} s "
          f"(reference {res['probe_ref_s']} s)")
    print(f"op_p90_s from {len(durs)} samples, {beyond} beyond it; "
          f"digits_lost_mean over {len(led.digits)} samples")
    return led, metrics


# per-layer metrics: name -> (unit, how to read it from one pass's summary)
def _calls(span):
    return lambda s, x: s.get(span, {}).get("calls", 0)


def _self(*spans):
    return lambda s, x: sum(s.get(n, {}).get("self_s", 0.0) for n in spans)


def _total(*spans):
    return lambda s, x: sum(s.get(n, {}).get("total_s", 0.0) for n in spans)


def _layer_self(layer):
    return lambda s, x: sum(v["self_s"] for k, v in s.items() if k.startswith(layer + "."))


def _tally(key):
    return lambda s, x: x["tally"].get(key, 0)


def _ratio(num, den):
    return lambda s, x: num(s, x) / den(s, x) if den(s, x) else 0.0


_STAGES = ("invertibility", "inverse-valuation", "factor", "factor-valuation", "factor-precision")
_MC_USED = _tally("montecarlo.used")

PER_LAYER = {
    "config.dvrconfig.calls": ("count", _calls("config.dvrconfig")),
    "config.dvrconfig.self_s": ("s", _self("config.dvrconfig")),
    "setup.import_s": ("s", lambda s, x: x["setup"]["import_s"]),
    "setup.inputs_s": ("s", lambda s, x: x["setup"]["inputs_s"]),
    "element.add.calls": ("count", _calls("element.add")),
    "element.mul.calls": ("count", _calls("element.mul")),
    "element.div.calls": ("count", _calls("element.div")),
    "element.lift.calls": ("count", _calls("element.lift")),
    "element.self_s": ("s", _layer_self("element")),
    "matrix.sub_scaled_col.calls": ("count", _calls("matrix.sub_scaled_col")),
    "matrix.sub_scaled_col.self_s": ("s", _self("matrix.sub_scaled_col")),
    "matrix.swap_cols.calls": ("count", _calls("matrix.swap_cols")),
    "lu_stable.stable_l.total_s": ("s", _total("lu_stable.stable_l")),
    "lu_stable.lv_decomposition.total_s": ("s", _total("lu_stable.lv_decomposition")),
    "lu_stable.naive_gauss_l.total_s": ("s", _total("lu_stable.naive_gauss_l")),
    "lu_stable.hermite_from_lv.total_s": ("s", _total("lu_stable.hermite_from_lv")),
    "lu_stable.block_l.total_s": ("s", _total("lu_stable.block_l", "lu_stable.block_l_unitlower")),
    "lu_stable.lower_triangular_inverse.total_s": ("s", _total("lu_stable.lower_triangular_inverse")),
    "lu_stable.vij_statistics.calls": ("count", _calls("lu_stable.vij_statistics")),
    "lu_stable.self_s": ("s", _layer_self("lu_stable")),
    "lu_fast.matmul.calls": ("count", _calls("lu_fast.matmul")),
    "lu_fast.matmul.scalar_mults": ("count", lambda s, x: x["scalar_mults"]),
    "lu_fast.matmul.self_s": ("s", _self("lu_fast.matmul")),
    "lu_fast.clear_block.self_s": ("s", _self("lu_fast.clear_block")),
    "lu_fast.recursive_lv.total_s": ("s", _total("lu_fast.recursive_lv")),
    "series.mul.calls": ("count", _calls("series.mul")),
    "series.div.calls": ("count", _calls("series.div")),
    "series.self_s": ("s", _layer_self("series")),
    "montecarlo.eliminate.total_s": ("s", _total("montecarlo.eliminate")),
    "montecarlo.vals.calls": ("count", _calls("montecarlo.vals")),
    "montecarlo.vals.self_s": ("s", _self("montecarlo.vals")),
    "montecarlo.inv_units.self_s": ("s", _self("montecarlo.inv_units")),
    "montecarlo.retried": ("count", _tally("montecarlo.retried")),
    "montecarlo.dropped": ("count", _tally("montecarlo.dropped")),
    "montecarlo.used_ratio": ("ratio", _ratio(
        _MC_USED, lambda s, x: _MC_USED(s, x) + x["tally"].get("montecarlo.dropped", 0))),
    "simul.attempts": ("count", _calls("simul.attempt_simultaneous")),
    "simul.attempts_per_solve": ("ratio", _ratio(
        _calls("simul.attempt_simultaneous"), _calls("simul.simultaneous_block_lu"))),
    **{f"simul.fail.{st}": ("count", _tally(f"simul.fail.{st}")) for st in _STAGES},
    "simul.invert_via_lv.total_s": ("s", _total("simul.invert_via_lv")),
    "sheaf.attempts": ("count", _calls("sheaf.solve_with_omega")),
    "sheaf.attempts_per_solve": ("ratio", _ratio(
        _calls("sheaf.solve_with_omega"), _calls("sheaf.solve_sheaf"))),
    **{f"sheaf.fail.{st}": ("count", _tally(f"sheaf.fail.{st}")) for st in _STAGES},
    "sheaf.crt_combine.self_s": ("s", _self("sheaf.crt_combine")),
    "sheaf.poly_det.self_s": ("s", _self("sheaf.poly_det")),
    "sheaf.verify.total_s": ("s", _total("sheaf.verify_local_equivalence")),
    "trace.overhead": ("ratio", lambda s, x: x["overhead"]),
}

# spans whose total time a metric reads
_OUTER = (
    "lu_stable.stable_l", "lu_stable.lv_decomposition", "lu_stable.naive_gauss_l",
    "lu_stable.hermite_from_lv", "lu_stable.block_l", "lu_stable.block_l_unitlower",
    "lu_stable.lower_triangular_inverse", "lu_fast.recursive_lv", "montecarlo.eliminate",
    "simul.invert_via_lv", "sheaf.verify_local_equivalence",
)


def traced(name: str, seed: int, seconds: float):
    wl, times, trc = setup(name, seed, trace_config=True)
    import numpy as np

    import tracer as tracing
    from dvrlu import lu_fast

    setup_cols = trc.spans.take()
    ops = range(wl.trace_ops)
    for i in ops:
        wl.input(i)
    led = Ledger()
    passes, counts = [], None
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        outs = [led.call(wl, i)[0] for i in ops]
        wall_plain = time.perf_counter() - t0
        for i, out in zip(ops, outs):
            led.verify(wl, i, out)

        trc.tally.clear()
        mults0 = lu_fast.get_mul_count()
        trc.install()
        t0 = time.perf_counter()
        outs = [trc.root(f"op.{wl.kind(i)}", i, lambda: led.call(wl, i)[0]) for i in ops]
        wall_traced = time.perf_counter() - t0
        trc.uninstall()
        extra = {
            "setup": times,
            "tally": dict(trc.tally),
            "scalar_mults": lu_fast.get_mul_count() - mults0,
            "overhead": wall_traced / wall_plain,
        }
        cols = trc.spans.take()
        for i, out in zip(ops, outs):
            led.verify(wl, i, out)
        summary = tracing.summarize(trc.names, [setup_cols, cols], _OUTER)
        values = {m: fn(summary, extra) for m, (_, fn) in PER_LAYER.items()}
        passes.append(values)
        these = {m: v for m, v in values.items() if PER_LAYER[m][0] == "count"}
        if counts is None:
            counts = these
        elif these != counts:
            led.fail("per-layer counts differ between passes of the same ops")
    os.makedirs(OUT, exist_ok=True)
    np.savez_compressed(
        os.path.join(OUT, f"spans-{name}-{seed}.npz"),
        names=np.array(trc.names),
        **{f"setup_{k}": v for k, v in setup_cols.items()},
        **cols,
    )
    metrics = {}
    for m, (unit, _) in PER_LAYER.items():
        vals = [p[m] for p in passes]
        metrics[m] = (vals[0] if unit == "count" else statistics.median(vals), unit)
    print(f"traced passes: {len(passes)} of {len(ops)} ops each; "
          f"{len(cols['name'])} spans in the last, written to {os.path.relpath(OUT, ROOT)}/")
    return led, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dvrlu", "__init__.py")):
        print(f"error: no dvrlu sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.probe:
        _, times, _ = setup(args.workload, args.seed)
        print(json.dumps(times))
        return 0

    run = traced if args.trace else end_to_end
    led, metrics = run(args.workload, args.seed, args.seconds)
    print("env " + json.dumps(environment()))
    for m, (value, unit) in metrics.items():
        print(f"{m} {value:.6g} {unit}")
    result = {
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
