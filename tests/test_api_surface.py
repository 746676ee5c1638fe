"""The library surface, pinned the way ``CLI_OPTIONS`` pins the command line.

Every name that ``dvrlu`` and ``dvrlu.stats`` export is listed here, and so
is the signature of every callable among them and of every public method of
an exported class: parameter names, kinds and defaults, without the type
annotations, which name no knob.  A change that adds, removes or renames a
parameter or changes a default shows up as a one-line diff of this file.
Enums are values, not knobs, and their constructor signature belongs to the
standard library, so they are left out; so is an exception class that keeps
``Exception``'s constructor.  The public function names of the modules
whose names are not all exported are pinned too.
"""

from __future__ import annotations

import enum
import importlib
import inspect

import dvrlu
import dvrlu.stats

DVRLU_ALL = [
    "AmbiguousValuation", "Backend", "BlockL", "CoincidentPoints",
    "DegenerateDecomposition", "DegenerateInput", "DivisionByUnknownZero", "DvrConfig",
    "DvrError", "ExhaustedRetries", "GlobalBasis", "InsufficientLift", "LvOutput",
    "NotSorted", "PrecElem", "PrecMatrix", "SeriesElem", "SheafInstance", "SheafPoint",
    "SimulFailure", "SimulResult", "StableL", "VerifyReport", "VijProfile",
    "attempt_simultaneous", "block_l", "block_l_unitlower", "hermite_from_lv",
    "lift_recompute_l", "lower_triangular_inverse", "lv_decomposition", "lv_to_l",
    "matmul", "naive_gauss_l", "precision_loss", "random_instance", "random_matrix",
    "recursive_lv", "required_v", "simultaneous_block_lu", "solve_sheaf", "stable_l",
    "verify_local_equivalence", "vij_statistics",
]

STATS_ALL = [
    "det_val_cdf", "det_val_mean", "expected_vl_alternating", "expected_vl_series",
    "expected_vl_log_gap_bound", "pi_q", "vl_centerings",
    "vl_expectation_interval", "vl_tail_bound", "vl_upper_tail", "Engine", "McSummary",
    "monte_carlo_det", "monte_carlo_vl", "simulate", "simulate_matrices",
    "tail_frequency",
]

SIGNATURES = [
    "dvrlu.BlockL(lower, block_vals, n)",
    "dvrlu.DvrConfig(p, prec, backend=<Backend.PADIC: 'padic'>)",
    "dvrlu.DvrConfig.to_json(self)",
    "dvrlu.DvrConfig.from_json(obj)",
    "dvrlu.ExhaustedRetries(message, tries, last_failure=None)",
    "dvrlu.GlobalBasis(m, d_polys, block_types, omega, v, n, tries=1)",
    "dvrlu.GlobalBasis.to_json(self)",
    "dvrlu.InsufficientLift(message, required_prec)",
    "dvrlu.LvOutput(lp, vp, hp, wp, col_val, degenerate)",
    "dvrlu.LvOutput.to_json(self)",
    "dvrlu.PrecElem(cfg, fields)",
    "dvrlu.PrecElem.bigoh(cls, cfg, n)",
    "dvrlu.PrecElem.unit_form(cls, cfg, v, u, rel)",
    "dvrlu.PrecElem.from_int(cls, cfg, value, abs_prec=None)",
    "dvrlu.PrecElem.random(cls, cfg, rng)",
    "dvrlu.PrecElem.representative(self)",
    "dvrlu.PrecElem.residue(self, n)",
    "dvrlu.PrecElem.like_one(self, abs_prec)",
    "dvrlu.PrecElem.like_zero(self, abs_prec)",
    "dvrlu.PrecElem.pivot_scalar(self)",
    "dvrlu.PrecElem.lift_to_precision(self, n)",
    "dvrlu.PrecElem.cap_abs(self, n)",
    "dvrlu.PrecElem.to_json(self)",
    "dvrlu.PrecElem.from_json(cls, cfg, obj)",
    "dvrlu.PrecMatrix(rows)",
    "dvrlu.PrecMatrix.copy(self)",
    "dvrlu.PrecMatrix.map(self, fn)",
    "dvrlu.PrecMatrix.cap_abs(self, n)",
    "dvrlu.PrecMatrix.lift_to_precision(self, n)",
    "dvrlu.PrecMatrix.min_abs_prec(self)",
    "dvrlu.PrecMatrix.swap_cols(self, i, j)",
    "dvrlu.PrecMatrix.sub_scaled_col(self, s, src, dst)",
    "dvrlu.PrecMatrix.block(self, r0, r1, c0, c1)",
    "dvrlu.PrecMatrix.identity_like(proto, d, abs_prec)",
    "dvrlu.PrecMatrix.zero_like(proto, nrows, ncols, abs_prec)",
    "dvrlu.PrecMatrix.to_json(self)",
    "dvrlu.PrecMatrix.from_json(cfg, obj)",
    "dvrlu.SeriesElem(cfg, coeffs)",
    "dvrlu.SeriesElem.pivot_scalar(self)",
    "dvrlu.SeriesElem.like_one(self, abs_prec)",
    "dvrlu.SeriesElem.like_zero(self, abs_prec)",
    "dvrlu.SeriesElem.lift_to_precision(self, n)",
    "dvrlu.SeriesElem.cap_abs(self, n)",
    "dvrlu.SeriesElem.to_json(self)",
    "dvrlu.SeriesElem.from_json(cls, cfg, obj, order)",
    "dvrlu.SheafInstance(cfg, points)",
    "dvrlu.SheafInstance.to_json(self)",
    "dvrlu.SheafInstance.from_json(obj)",
    "dvrlu.SheafPoint(a, exponents, matrix)",
    "dvrlu.SimulFailure(stage, matrix_index=None, detail='')",
    "dvrlu.SimulResult(omega, omega_inv, factors, v, n, tries=1)",
    "dvrlu.StableL(lower, col_vals, n)",
    "dvrlu.VerifyReport(local_ok, det_ok, div_ok, margin, notes)",
    "dvrlu.VerifyReport.to_json(self)",
    "dvrlu.VijProfile(table=<factory>, boundary_sums=<factory>, det_val=None, swaps=<factory>, vl=None)",
    "dvrlu.attempt_simultaneous(cfg, family, v, rng)",
    "dvrlu.block_l(m, block_sizes)",
    "dvrlu.block_l_unitlower(m, block_sizes)",
    "dvrlu.hermite_from_lv(out)",
    "dvrlu.lift_recompute_l(m, extra=None)",
    "dvrlu.lower_triangular_inverse(m)",
    "dvrlu.lv_decomposition(m)",
    "dvrlu.lv_to_l(out)",
    "dvrlu.matmul(a, b)",
    "dvrlu.naive_gauss_l(m)",
    "dvrlu.precision_loss(lower, n)",
    "dvrlu.random_instance(cfg, rng, n_points, d, e_max)",
    "dvrlu.random_matrix(cfg, d, rng)",
    "dvrlu.recursive_lv(m, threshold=32, algo='classical')",
    "dvrlu.required_v(q, r_list, eps, variant='base')",
    "dvrlu.simultaneous_block_lu(cfg, family, eps, variant='base', seed=None, max_tries=200)",
    "dvrlu.solve_sheaf(inst, eps=0.5, variant='pi', seed=None, max_tries=200)",
    "dvrlu.stable_l(m)",
    "dvrlu.verify_local_equivalence(inst, basis)",
    "dvrlu.vij_statistics(m)",
    "dvrlu.stats.det_val_cdf(q, d, v)",
    "dvrlu.stats.det_val_mean(q, d)",
    "dvrlu.stats.expected_vl_alternating(q, d)",
    "dvrlu.stats.expected_vl_series(q, d)",
    "dvrlu.stats.expected_vl_log_gap_bound(q, d)",
    "dvrlu.stats.pi_q(q)",
    "dvrlu.stats.vl_centerings(q, d)",
    "dvrlu.stats.vl_expectation_interval(q, d)",
    "dvrlu.stats.vl_tail_bound(q, ell)",
    "dvrlu.stats.vl_upper_tail(q, d, x)",
    "dvrlu.stats.Engine(p, k=None)",
    "dvrlu.stats.Engine.random(self, rng, shape)",
    "dvrlu.stats.Engine.vals(self, x)",
    "dvrlu.stats.Engine.inv_units(self, u)",
    "dvrlu.stats.Engine.eliminate(self, m, record_table=False)",
    "dvrlu.stats.McSummary(p, d, trials, used, mean, stddev, ci99, histogram=<factory>, retried=0, dropped=0)",
    "dvrlu.stats.McSummary.to_json(self)",
    "dvrlu.stats.monte_carlo_det(p, d, trials, seed=0, jobs=1)",
    "dvrlu.stats.monte_carlo_vl(p, d, trials, seed=0, jobs=1)",
    "dvrlu.stats.simulate(p, d, trials, seed=0, jobs=1, record_table=False)",
    "dvrlu.stats.simulate_matrices(p, matrices, record_table=False)",
    "dvrlu.stats.tail_frequency(vl, q, d, ell)",
]


# Each has a caller in the CLI, README, perfbench or another module of the
# package; a helper only the tests call belongs in tests/conftest.py or
# tests/oracles.py.
MODULE_FUNCTIONS = {
    "dvrlu.sheaf": [
        "poly_add", "poly_scale", "poly_mul", "poly_pow", "poly_divmod", "taylor_coeffs",
        "poly_to_series", "series_to_poly", "block_type_from_exponents", "build_divisors",
        "series_matrix_to_json", "series_matrix_from_json", "random_instance",
        "poly_matrix_to_json", "scalar_poly_matmul", "solve_with_omega", "solve_sheaf",
        "verify_local_equivalence",
    ],
    "dvrlu.lu_stable": [
        "working_precision", "vij_statistics", "naive_gauss_l", "lift_recompute_l",
        "stable_l", "precision_loss", "lv_decomposition", "lv_to_l", "hermite_from_lv",
        "lower_triangular_inverse", "block_l", "block_l_unitlower",
    ],
    "dvrlu.series": [],
    "dvrlu.simul": [
        "required_v", "min_val_bound", "attempt_simultaneous",
        "simultaneous_block_lu", "family_from_json", "result_to_json",
    ],
}


def _bare(fn) -> str:
    sig = inspect.signature(fn)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def _signatures() -> list[str]:
    out = []
    for mod in (dvrlu, dvrlu.stats):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if isinstance(obj, type) and issubclass(obj, enum.Enum):
                continue
            try:
                out.append(f"{mod.__name__}.{name}{_bare(obj)}")
            except ValueError:  # no signature of its own (Exception's)
                pass
            if inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    fn = getattr(value, "__func__", value)  # classmethod, staticmethod
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        out.append(f"{mod.__name__}.{name}.{attr}{_bare(fn)}")
    return out


def test_exported_names_are_pinned():
    assert dvrlu.__all__ == DVRLU_ALL
    assert dvrlu.stats.__all__ == STATS_ALL


def test_signatures_are_pinned():
    assert _signatures() == SIGNATURES


def test_module_functions_are_pinned():
    got = {}
    for name in MODULE_FUNCTIONS:
        mod = importlib.import_module(name)
        got[name] = [attr for attr, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == name and not attr.startswith("_")]
    assert got == MODULE_FUNCTIONS
