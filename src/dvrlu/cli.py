"""Command-line front end.

Subcommands mirror the library layers: ``lu`` (factorizations of a single
matrix, and precision-loss benchmarks), ``stats`` (closed-form values and
Monte-Carlo laws of the valuation statistics), ``simul`` (simultaneous block
factorization of a family), ``sheaf`` (global bases from local models).

Exit codes: 0 success; 2 usage errors and malformed input; 3 precision
failures (the input was too coarse to certify an answer); 4 retry budget
exhausted.  Output on stdout is deterministic for a fixed seed and flag set;
``DVRLU_SEED`` provides the seed when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys

import numpy as np

from .config import DvrConfig
from .errors import (
    AmbiguousValuation,
    CoincidentPoints,
    DegenerateDecomposition,
    DegenerateInput,
    DivisionByUnknownZero,
    ExhaustedRetries,
    InsufficientLift,
    NotSorted,
)
from .lu_fast import recursive_lv
from .lu_stable import (
    block_l,
    block_l_unitlower,
    hermite_from_lv,
    lift_recompute_l,
    lv_decomposition,
    naive_gauss_l,
    precision_loss,
    stable_l,
    vij_statistics,
)
from .matrix import PrecMatrix, random_matrix
from .sheaf import SheafInstance, solve_sheaf, verify_local_equivalence
from .simul import (
    SimulResult,
    attempt_simultaneous,
    family_from_json,
    required_v,
    result_to_json,
    simultaneous_block_lu,
)
from .stats import (
    det_val_cdf,
    det_val_mean,
    expected_vl_alternating,
    expected_vl_log_gap_bound,
    expected_vl_series,
    monte_carlo_det,
    monte_carlo_vl,
    tail_frequency,
    vl_expectation_interval,
    vl_tail_bound,
    vl_upper_tail,
)

_PRECISION_ERRORS = (
    AmbiguousValuation,
    DivisionByUnknownZero,
    InsufficientLift,
    DegenerateInput,
    DegenerateDecomposition,
)

# two-sided V_L deviations reported by ``stats vl --format json``: ell = 1..6
TAIL_RADII = 6


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("DVRLU_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"DVRLU_SEED must be an integer, got {env!r}")
    return 0


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True))
    sys.stdout.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_block_type(text: str) -> list[int]:
    try:
        sizes = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ValueError(f"bad block type {text!r}: expected comma-separated sizes")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"bad block type {text!r}: sizes must be positive")
    return sizes


def _matrix_input(obj: dict) -> tuple[DvrConfig, PrecMatrix]:
    try:
        cfg = DvrConfig.from_json(obj["config"])
        mat = PrecMatrix.from_json(cfg, obj["matrix"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix input: {exc}") from exc
    return cfg, mat


# ---------------------------------------------------------------------------
# lu
# ---------------------------------------------------------------------------


def _cmd_lu_run(args) -> int:
    cfg, mat = _matrix_input(_read_json(args.input))
    algo = args.algo
    if algo == "naive":
        _emit({"L": naive_gauss_l(mat).to_json()})
    elif algo == "lift":
        _emit({"L": lift_recompute_l(mat, extra=args.extra).to_json()})
    elif algo == "stable":
        res = stable_l(mat)
        _emit(
            {
                "L": res.lower.to_json(),
                "col_vals": res.col_vals,
                "n": res.n,
                "loss": precision_loss(res.lower, res.n),
            }
        )
    elif algo == "lv":
        _emit(lv_decomposition(mat).to_json())
    elif algo == "recursive":
        out = recursive_lv(mat, threshold=args.threshold, algo=args.mul)
        _emit(out.to_json())
    elif algo == "hermite":
        _emit({"H": hermite_from_lv(lv_decomposition(mat)).to_json()})
    elif algo == "profile":
        prof = vij_statistics(mat)
        _emit(
            {
                "table": {f"{i},{j}": v for (i, j), v in sorted(prof.table.items())},
                "boundary_sums": prof.boundary_sums,
                "det_val": prof.det_val,
                "swaps": prof.swaps,
                "vl": list(prof.vl) if isinstance(prof.vl, tuple) else prof.vl,
            }
        )
    else:  # block / block-unit
        if args.block_type is None:
            raise ValueError(f"--block-type is required for algo {algo!r}")
        sizes = _parse_block_type(args.block_type)
        fn = block_l if algo == "block" else block_l_unitlower
        res = fn(mat, sizes)
        _emit({"L": res.lower.to_json(), "block_vals": res.block_vals, "n": res.n})
    return 0


def _cmd_lu_bench(args) -> int:
    cfg = DvrConfig(p=args.p, prec=args.prec)
    rng = random.Random(_resolve_seed(args.seed))
    losses = []
    failures = 0
    for _ in range(args.count):
        mat = random_matrix(cfg, args.dim, rng)
        try:
            if args.algo == "naive":
                lower = naive_gauss_l(mat)
            elif args.algo == "lift":
                lower = lift_recompute_l(mat)
            else:
                lower = stable_l(mat).lower
            losses.append(precision_loss(lower, cfg.prec))
        except _PRECISION_ERRORS:
            failures += 1
    out = {
        "algo": args.algo,
        "p": args.p,
        "prec": args.prec,
        "dim": args.dim,
        "count": args.count,
        "failures": failures,
        "two_log_q_d": 2 * math.log(args.dim, args.p),
    }
    if losses:
        out["loss_mean"] = sum(losses) / len(losses)
        out["loss_sd"] = statistics.stdev(losses) if len(losses) > 1 else 0.0
        out["loss_min"] = min(losses)
        out["loss_max"] = max(losses)
    _emit(out)
    return 0


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def _cmd_stats_vl(args) -> int:
    q, d = args.q, args.d
    summary = monte_carlo_vl(q, d, args.trials, seed=_resolve_seed(args.seed),
                             jobs=args.jobs)
    if args.format == "json":
        obj = summary.to_json()
        obj["interval"] = list(vl_expectation_interval(q, d))
        hist = summary.histogram
        vl = np.repeat(list(hist), list(hist.values()))
        obj["tails"] = [
            {"ell": ell, "empirical": tail_frequency(vl, q, d, ell),
             "bound": vl_tail_bound(q, ell)}
            for ell in range(1, TAIL_RADII + 1)
        ]
        _emit(obj)
        return 0
    lo, hi = vl_expectation_interval(q, d)
    w = sys.stdout.write
    w("v,count,freq,theory_bound,sandwich_lo,sandwich_hi\n")
    for v in sorted(summary.histogram):
        count = summary.histogram[v]
        w(
            f"{v},{count},{_fmt(count / summary.used)},"
            f"{_fmt(vl_upper_tail(q, d, v))},{_fmt(lo)},{_fmt(hi)}\n"
        )
    return 0


def _cmd_stats_eqd(args) -> int:
    q, d = args.q, args.d
    if q < 2:
        raise ValueError(f"--q must be at least 2, got {q}")
    lo, hi = vl_expectation_interval(q, d)
    _emit(
        {
            "q": q,
            "d": d,
            "series": expected_vl_series(q, d),
            "alternating": expected_vl_alternating(q, d),
            "interval": [lo, hi],
            "log_gap_bound": expected_vl_log_gap_bound(q, d),
        }
    )
    return 0


def _cmd_stats_detval(args) -> int:
    q, d = args.q, args.d
    summary = monte_carlo_det(q, d, args.trials, seed=_resolve_seed(args.seed),
                              jobs=args.jobs)
    if args.format == "json":
        obj = summary.to_json()
        obj["theory_mean"] = det_val_mean(q, d)
        _emit(obj)
        return 0
    w = sys.stdout.write
    w("v,count,freq,cdf_emp,cdf_theory\n")
    acc = 0
    for v in sorted(summary.histogram):
        count = summary.histogram[v]
        acc += count
        w(
            f"{v},{count},{_fmt(count / summary.used)},"
            f"{_fmt(acc / summary.used)},{_fmt(det_val_cdf(q, d, v))}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# simul
# ---------------------------------------------------------------------------


def _cmd_simul_run(args) -> int:
    cfg, eps, variant, family = family_from_json(_read_json(args.input))
    res = simultaneous_block_lu(
        cfg, family, eps, variant=variant,
        seed=_resolve_seed(args.seed), max_tries=args.max_tries,
    )
    _emit(result_to_json(res))
    return 0


def _cmd_simul_bench(args) -> int:
    cfg = DvrConfig(p=args.p, prec=args.prec)
    types = [_parse_block_type(t) for t in args.block_type.split(";")]
    if any(sum(sizes) != args.dim for sizes in types):
        raise ValueError("block type must tile the dimension")
    rng = random.Random(_resolve_seed(args.seed))
    family = [
        (random_matrix(cfg, args.dim, rng), types[k % len(types)])
        for k in range(args.n_matrices)
    ]
    v = required_v(cfg.q, [len(s) for _, s in family], args.eps, args.variant)
    successes = 0
    for _ in range(args.count):
        got = attempt_simultaneous(cfg, family, v, rng)
        if isinstance(got, SimulResult):
            successes += 1
    _emit(
        {
            "p": args.p,
            "prec": args.prec,
            "dim": args.dim,
            "n_matrices": args.n_matrices,
            "eps": args.eps,
            "variant": args.variant,
            "v": v,
            "count": args.count,
            "successes": successes,
            "success_rate": successes / args.count,
            "target": 1 - args.eps,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# sheaf
# ---------------------------------------------------------------------------


def _cmd_sheaf_solve(args) -> int:
    inst = SheafInstance.from_json(_read_json(args.input))
    basis = solve_sheaf(
        inst, eps=args.eps, variant=args.variant,
        seed=_resolve_seed(args.seed), max_tries=args.max_tries,
    )
    out = basis.to_json()
    if not args.no_verify:
        out["verification"] = verify_local_equivalence(inst, basis).to_json()
    _emit(out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dvrlu",
        description="Precision-tracked LU-type factorizations over a DVR.",
    )
    sub = top.add_subparsers(dest="group", required=True)

    lu = sub.add_parser("lu", help="factor a single matrix").add_subparsers(
        dest="cmd", required=True
    )
    run = lu.add_parser("run", help="factor a matrix from a JSON file")
    run.add_argument("--input", required=True, help="JSON file, or - for stdin")
    run.add_argument(
        "--algo",
        default="stable",
        choices=["naive", "lift", "stable", "lv", "recursive", "hermite",
                 "profile", "block", "block-unit"],
    )
    run.add_argument("--block-type", help="comma-separated block sizes")
    run.add_argument("--threshold", type=int, default=32,
                     help="recursion cutoff for --algo recursive")
    run.add_argument("--mul", default="classical", choices=["classical", "strassen"])
    run.add_argument("--extra", type=int, default=None,
                     help="lift amount for --algo lift")
    run.set_defaults(func=_cmd_lu_run)
    bench = lu.add_parser("bench", help="precision loss on random matrices")
    bench.add_argument("--p", type=int, required=True)
    bench.add_argument("--prec", type=int, required=True)
    bench.add_argument("--dim", type=int, required=True)
    bench.add_argument("--count", type=int, default=100)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--algo", default="stable", choices=["naive", "lift", "stable"])
    bench.set_defaults(func=_cmd_lu_bench)

    stats = sub.add_parser("stats", help="valuation statistics").add_subparsers(
        dest="cmd", required=True
    )
    vl = stats.add_parser("vl", help="Monte-Carlo law of the denominator exponent")
    vl.add_argument("--q", type=int, required=True, help="residue cardinality (prime)")
    vl.add_argument("--d", type=int, required=True)
    vl.add_argument("--trials", type=int, default=100000)
    vl.add_argument("--seed", type=int, default=None)
    vl.add_argument("--jobs", type=int, default=1)
    vl.add_argument("--format", default="csv", choices=["csv", "json"])
    vl.set_defaults(func=_cmd_stats_vl)
    eqd = stats.add_parser("eqd", help="closed forms for E[V_L]")
    eqd.add_argument("--q", type=int, required=True)
    eqd.add_argument("--d", type=int, required=True)
    eqd.set_defaults(func=_cmd_stats_eqd)
    det = stats.add_parser("detval", help="Monte-Carlo law of v(det)")
    det.add_argument("--q", type=int, required=True)
    det.add_argument("--d", type=int, required=True)
    det.add_argument("--trials", type=int, default=100000)
    det.add_argument("--seed", type=int, default=None)
    det.add_argument("--jobs", type=int, default=1)
    det.add_argument("--format", default="csv", choices=["csv", "json"])
    det.set_defaults(func=_cmd_stats_detval)

    simul = sub.add_parser("simul", help="simultaneous block factorization").add_subparsers(
        dest="cmd", required=True
    )
    srun = simul.add_parser("run", help="solve a family from a JSON file")
    srun.add_argument("--input", required=True)
    srun.add_argument("--seed", type=int, default=None)
    srun.add_argument("--max-tries", type=int, default=200)
    srun.set_defaults(func=_cmd_simul_run)
    sbench = simul.add_parser("bench", help="single-draw success rate")
    sbench.add_argument("--p", type=int, required=True)
    sbench.add_argument("--prec", type=int, required=True)
    sbench.add_argument("--dim", type=int, required=True)
    sbench.add_argument("--n-matrices", type=int, default=2)
    sbench.add_argument("--block-type", required=True,
                        help="';'-separated block types; member k takes type "
                             "k mod their number, e.g. '2,2;1,3'")
    sbench.add_argument("--eps", type=float, default=0.5)
    sbench.add_argument("--variant", default="base", choices=["base", "pi"])
    sbench.add_argument("--count", type=int, default=1000)
    sbench.add_argument("--seed", type=int, default=None)
    sbench.set_defaults(func=_cmd_simul_bench)

    sheaf = sub.add_parser("sheaf", help="global bases from local models").add_subparsers(
        dest="cmd", required=True
    )
    solve = sheaf.add_parser("solve", help="solve an instance from a JSON file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--eps", type=float, default=0.5)
    solve.add_argument("--variant", default="pi", choices=["base", "pi"])
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--max-tries", type=int, default=200)
    solve.add_argument("--no-verify", action="store_true")
    solve.set_defaults(func=_cmd_sheaf_solve)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (NotSorted, CoincidentPoints) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExhaustedRetries as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _PRECISION_ERRORS as exc:
        msg = f"error: {exc}"
        if isinstance(exc, InsufficientLift) and exc.required_prec is not None:
            msg += f" (suggested precision: {exc.required_prec})"
        print(msg, file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
