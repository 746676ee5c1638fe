"""Byte-for-byte stdout of the CLI's experiment subcommands at fixed seeds,
and the option list of every subcommand.

CSV output is pinned by the sha256 of the whole of stdout.  JSON output is
pinned by the sha256 of the listed keys only, so new keys may be added to a
subcommand's report while every listed key keeps its value.
"""

from __future__ import annotations

import argparse
import hashlib
import json

import pytest

from dvrlu.cli import build_parser, main

LU_BENCH_KEYS = ("algo", "count", "dim", "failures", "loss_max", "loss_mean",
                 "loss_min", "p", "prec")
MC_KEYS = ("ci99", "d", "dropped", "histogram", "mean", "p", "retried",
           "stddev", "trials", "used")

# name -> (argv, JSON keys pinned or None for CSV, sha256)
CLI_GOLDEN = {
    "lu-bench-naive": (
        "lu bench --p 2 --prec 30 --dim 6 --count 12 --seed 4 --algo naive",
        LU_BENCH_KEYS,
        "7a98cb8c39cfb18ecf985792105884fad54e9a4d0e7481a4076bcfcbfc85c197"),
    "lu-bench-stable": (
        "lu bench --p 2 --prec 30 --dim 6 --count 12 --seed 4 --algo stable",
        LU_BENCH_KEYS,
        "811bb997d97040c1334e73f7994f73f10474f34ae94a431da0904458871c796c"),
    "lu-bench-stable-p5": (
        "lu bench --p 5 --prec 20 --dim 5 --count 8 --seed 9",
        LU_BENCH_KEYS,
        "e4c813073df90c03b2d7d33fca31157807d80d7aed68130bbea3be4014179db0"),
    "stats-vl-csv": (
        "stats vl --q 2 --d 8 --trials 3000 --seed 5", None,
        "15f90e4c3fabe92e199de4cf2e7c9e391c1ad1e67efd21bb8452501e75107ad4"),
    "stats-vl-json": (
        "stats vl --q 3 --d 6 --trials 3000 --seed 5 --format json",
        MC_KEYS + ("interval",),
        "8de5ff5a8394d8326f9922b16bc0bb192c614a204a659243ec094281f2d334f0"),
    "stats-vl-d1-json": (
        "stats vl --q 2 --d 1 --trials 500 --seed 5 --format json",
        MC_KEYS + ("interval",),
        "67cf04330d2c514a66fc48f981f82842a47f602fdd2a6ebe53224c627e7e68b3"),
    "stats-detval-csv": (
        "stats detval --q 2 --d 5 --trials 3000 --seed 6", None,
        "7af367da13d9b8cc1974ddb563b1f2de7402363c6ca8af53755b99d05908ac3e"),
    "stats-detval-json": (
        "stats detval --q 5 --d 4 --trials 3000 --seed 6 --format json",
        MC_KEYS + ("theory_mean",),
        "137b844102f09c5670eefdc44429b5f6aceca9073c7d2824ccdc3e55ee75c15b"),
    "stats-eqd": (
        "stats eqd --q 3 --d 40",
        ("alternating", "d", "interval", "log_gap_bound", "q", "series"),
        "775559d57c9dd73a57de6961bb868221984dae6f7a0af26c87eb08384ccdc093"),
    "stats-eqd-q2": (
        "stats eqd --q 2 --d 200",
        ("alternating", "d", "interval", "log_gap_bound", "q", "series"),
        "61129f4b3cfa4b6895c96ce8d4b1b6de4f8640f65a35f56a866f82592bd01a0f"),
    "simul-bench": (
        "simul bench --p 2 --prec 30 --dim 4 --block-type 2,2 --count 40 --seed 3",
        ("count", "dim", "eps", "n_matrices", "p", "prec", "success_rate",
         "successes", "target", "v", "variant"),
        "c68dc5f27342495e3de0c7a81a463b5c09ea49c5676da6029068b0e11b1c3ab2"),
    "simul-bench-pi": (
        "simul bench --p 3 --prec 20 --dim 3 --n-matrices 3 --block-type 1,2 "
        "--eps 0.25 --variant pi --count 30 --seed 8",
        ("count", "dim", "eps", "n_matrices", "p", "prec", "success_rate",
         "successes", "target", "v", "variant"),
        "2c7fa673d2850116eb57e3244b07e347462bd37a32edb3295823132c16c2abe8"),
}


def _stdout_digest(argv: str, keys, capsys) -> str:
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    if keys is not None:
        obj = json.loads(out)
        out = json.dumps({k: obj[k] for k in keys}, sort_keys=True)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", list(CLI_GOLDEN))
def test_cli_stdout_matches_golden(name, capsys):
    argv, keys, digest = CLI_GOLDEN[name]
    assert _stdout_digest(argv, keys, capsys) == digest


CLI_OPTIONS = {
    "lu run": "--algo --block-type --extra --input --mul --threshold",
    "lu bench": "--algo --count --dim --p --prec --seed",
    "stats vl": "--d --format --jobs --q --seed --trials",
    "stats eqd": "--d --q",
    "stats detval": "--d --format --jobs --q --seed --trials",
    "simul run": "--input --max-tries --seed",
    "simul bench": "--block-type --count --dim --eps --n-matrices --p --prec "
                   "--seed --variant",
    "sheaf solve": "--eps --input --max-tries --no-verify --seed --variant",
}


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_cli_options_are_pinned():
    got = {}
    for group, gp in _subparsers(build_parser()).items():
        for cmd, cp in _subparsers(gp).items():
            opts = (s for a in cp._actions for s in a.option_strings)
            got[f"{group} {cmd}"] = " ".join(sorted(set(opts) - {"-h", "--help"}))
    assert got == CLI_OPTIONS
