"""The four benchmark workloads: seeded inputs, the timed op and its check.

Every workload is a closed loop with one client: op ``i + 1`` starts only
after op ``i`` has returned and been checked.  Op ``i`` runs the kind
``cycle[i % len(cycle)]`` on an input drawn from its own generator, seeded by
``(seed, i)``, so a seed fixes every input whatever the number of ops a run
reaches.  Checks compare each output with a relation computed by a different
routine of the package; they run outside the timed region.

Sizes are chosen so that each op kind costs what the benchmark design asks
for on a 2-core machine, that the p50 and the p90 of a run each fall inside
one op kind, and that a run reaches its 100 checked ops in about 25 seconds.

The package is imported through this module, so importing it is part of the
measured set-up time.
"""

from __future__ import annotations

import random

import numpy as np

from dvrlu import config, element, errors, lu_fast, lu_stable, matrix, sheaf, simul
from dvrlu.stats import montecarlo


class CheckFailed(Exception):
    """An op returned an output that does not satisfy its check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _all_zeroish(m, entries) -> bool:
    return all(m[i, j].is_zeroish for i, j in entries)


def _strictly_upper(d: int):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def _strictly_lower(d: int):
    return [(i, j) for i in range(d) for j in range(i)]


def _diff_zeroish(a, b) -> bool:
    """a and b agree at the precision both carry."""
    return all(
        (x - y).is_zeroish for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)
    )


def _check_lv_product(m, out) -> None:
    """H' = M * W' and H' is lower triangular: the split decomposition's
    defining relation, recomputed with the product kernel."""
    d = m.nrows
    _require(_all_zeroish(out.hp, _strictly_upper(d)), "H' is not lower triangular")
    _require(_diff_zeroish(lu_fast.matmul(m, out.wp), out.hp), "M * W' != H'")


class Workload:
    """One workload: a cycle of op kinds over seeded inputs.

    Subclasses define ``name``, ``cycle``, ``trace_ops`` (how many ops one
    pass of the traced run executes), ``configure`` (builds the rings; this
    is where the first ``DvrConfig`` is made), ``make_input``, ``run``,
    ``check`` and ``digits``.  ``probe`` names the reference probe of
    :mod:`calibrate` whose kind of work the ops resemble.
    """

    name: str
    cycle: tuple
    trace_ops: int
    probe = "python"

    def __init__(self, seed: int):
        self.seed = seed
        self._inputs: dict = {}

    def configure(self) -> None:
        raise NotImplementedError

    def kind(self, i: int) -> str:
        return self.cycle[i % len(self.cycle)]

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def input(self, i: int):
        """The input of op i, generated on first use and then kept until
        the op has run."""
        if i not in self._inputs:
            self._inputs[i] = self.make_input(self.kind(i), i)
        return self._inputs[i]

    def prepare(self) -> None:
        """Generate the inputs of the first cycle (part of set-up)."""
        for i in range(len(self.cycle)):
            self.input(i)

    def release(self, i: int) -> None:
        self._inputs.pop(i, None)

    def make_input(self, kind: str, i: int):
        raise NotImplementedError

    def run(self, kind: str, inp):
        raise NotImplementedError

    def check(self, kind: str, inp, out) -> None:
        raise NotImplementedError

    def digits(self, kind: str, inp, out) -> list:
        """Digits-lost samples of one op (empty when the op has none)."""
        return []


# ---------------------------------------------------------------------------
# factorizations of Haar-random matrices
# ---------------------------------------------------------------------------


class LuPadic(Workload):
    """Z_5 at N = 100, d = 25: the paper's headline path."""

    name = "lu_padic"
    cycle = ("stable_l", "naive_gauss_l", "stable_l", "lv_hermite", "recursive_lv")
    trace_ops = 5
    p, prec, dim = 5, 100, 25

    def configure(self) -> None:
        self.cfg = config.DvrConfig(p=self.p, prec=self.prec)

    def make_input(self, kind, i):
        return matrix.random_matrix(self.cfg, self.dim, self.rng(i))

    def run(self, kind, m):
        if kind == "stable_l":
            return lu_stable.stable_l(m)
        if kind == "naive_gauss_l":
            return lu_stable.naive_gauss_l(m)
        if kind == "lv_hermite":
            out = lu_stable.lv_decomposition(m)
            return out, lu_stable.hermite_from_lv(out)
        return lu_fast.recursive_lv(m, threshold=8)

    def check(self, kind, m, out) -> None:
        d = m.nrows
        if kind == "stable_l":
            ref = lu_stable.lv_to_l(lu_stable.lv_decomposition(m))
            _require(out.lower == ref, "stable_l differs from lv_to_l(lv_decomposition)")
        elif kind == "naive_gauss_l":
            # M = L U with U upper triangular, so L^-1 M must be upper
            for j in range(d):
                _require(out[j, j] == out[j, j].like_one(out[j, j].abs_prec), "L is not unit")
            _require(_all_zeroish(out, _strictly_upper(d)), "L is not lower triangular")
            u = lu_fast.matmul(lu_stable.lower_triangular_inverse(out), m)
            _require(_all_zeroish(u, _strictly_lower(d)), "L^-1 M is not upper triangular")
        elif kind == "lv_hermite":
            lv, h = out
            _check_lv_product(m, lv)
            self._check_hermite(lv, h)
        else:
            ref = lu_stable.lv_decomposition(m)
            same = (out.lp, out.vp, out.hp, out.wp, out.col_val, out.degenerate) == (
                ref.lp, ref.vp, ref.hp, ref.wp, ref.col_val, ref.degenerate
            )
            _require(same, "recursive_lv differs from lv_decomposition")

    @staticmethod
    def _check_hermite(lv, h) -> None:
        """H is H' with column j divided by the unit part u_j of H'[j, j]:
        H[j, j] = p^v_j and H[i, j] * u_j = H'[i, j] below the diagonal."""
        d = h.nrows
        _require(_all_zeroish(h, _strictly_upper(d)), "H is not lower triangular")
        cfg = h[0, 0].cfg
        for j in range(d):
            hjj = lv.hp[j, j]
            _require(h[j, j].valuation == hjj.valuation and h[j, j].unit_digits == 1,
                     "H diagonal is not a power of p")
            pv = element.PrecElem.unit_form(cfg, hjj.valuation, 1, hjj.rel_prec)
            uj = hjj / pv
            for i in range(j + 1, d):
                _require((h[i, j] * uj - lv.hp[i, j]).is_zeroish, "H * u != H'")

    def digits(self, kind, m, out) -> list:
        if kind == "stable_l":
            return [lu_stable.precision_loss(out.lower, self.prec)]
        if kind == "lv_hermite":
            return [lu_stable.precision_loss(lu_stable.lv_to_l(out[0]), self.prec)]
        if kind == "recursive_lv":
            return [lu_stable.precision_loss(lu_stable.lv_to_l(out), self.prec)]
        return []


class LuSeries(Workload):
    """F_5[[t]] at N = 30, d = 14: the series-digit branch of element."""

    name = "lu_series"
    cycle = ("stable_l", "stable_l", "lv_decomposition")
    trace_ops = 3
    probe = "series"
    p, prec, dim = 5, 30, 14

    def configure(self) -> None:
        self.cfg = config.DvrConfig(p=self.p, prec=self.prec, backend=config.Backend.SERIES)

    def make_input(self, kind, i):
        return matrix.random_matrix(self.cfg, self.dim, self.rng(i))

    def run(self, kind, m):
        if kind == "stable_l":
            return lu_stable.stable_l(m)
        return lu_stable.lv_decomposition(m)

    def check(self, kind, m, out) -> None:
        if kind == "stable_l":
            ref = lu_stable.lv_to_l(lu_stable.lv_decomposition(m))
            _require(out.lower == ref, "stable_l differs from lv_to_l(lv_decomposition)")
        else:
            _check_lv_product(m, out)

    def digits(self, kind, m, out) -> list:
        lower = out.lower if kind == "stable_l" else lu_stable.lv_to_l(out)
        return [lu_stable.precision_loss(lower, self.prec)]


# ---------------------------------------------------------------------------
# the vectorized Monte-Carlo engine
# ---------------------------------------------------------------------------


class MonteCarlo(Workload):
    """One simulate() call per op over three (p, d) kinds of similar cost;
    (3, 32) costs about 1.2x the others, so that the p90 lies inside it.

    Every batch fits in one chunk of the engine, so the check can redraw the
    op's matrices from the engine's per-chunk seed.
    """

    name = "montecarlo"
    cycle = ("p2_d16", "p5_d25", "p3_d32")
    params = {"p2_d16": (2, 16, 1536), "p5_d25": (5, 25, 320), "p3_d32": (3, 32, 144)}
    trace_ops = 3
    probe = "numpy"

    def configure(self) -> None:
        # the object-path configs of the cross-check, one per kind
        self.cfgs = {
            p: config.DvrConfig(p=p, prec=montecarlo.Engine(p).K)
            for p, _, _ in self.params.values()
        }

    def make_input(self, kind, i):
        p, d, trials = self.params[kind]
        rng = self.rng(i)
        return {"p": p, "d": d, "trials": trials, "seed": rng.randrange(1 << 62),
                "picks": [0, rng.randrange(1, trials)]}

    def run(self, kind, inp):
        return montecarlo.simulate(inp["p"], inp["d"], inp["trials"], seed=inp["seed"])

    def check(self, kind, inp, out) -> None:
        """used + dropped = trials; on the picked trials (redrawn from the
        engine's chunk seed) simulate agrees with simulate_matrices, and on
        the first of them the engine agrees with vij_statistics on the
        object path."""
        p, d, trials, picks = inp["p"], inp["d"], inp["trials"], inp["picks"]
        used = len(out["vl"])
        _require(used + out["dropped"] == trials, "used + dropped != trials")
        _require(len(out["det_val"]) == used, "per-trial arrays disagree in length")
        eng = montecarlo.Engine(p)
        rng = np.random.default_rng(np.random.SeedSequence([inp["seed"], 0]))
        batch = eng.random(rng, (trials, d, d))[picks]
        direct = montecarlo.simulate_matrices(p, batch)
        resolved = ~direct["ambiguous"] & direct["vl_ok"] & direct["det_ok"]
        if out["dropped"] == 0:
            for row, t in enumerate(picks):
                if resolved[row]:
                    _require(out["vl"][t] == direct["vl"][row] and
                             out["det_val"][t] == direct["det_val"][row],
                             "simulate disagrees with simulate_matrices")
        if resolved[0]:
            cfg = self.cfgs[p]
            obj = matrix.PrecMatrix(
                [[element.PrecElem.from_int(cfg, int(x), abs_prec=cfg.prec) for x in r]
                 for r in batch[0]]
            )
            prof = lu_stable.vij_statistics(obj)
            _require(prof.vl == direct["vl"][0] and prof.det_val == direct["det_val"][0],
                     "engine disagrees with vij_statistics")

    def digits(self, kind, inp, out) -> list:
        return [float(np.mean(out["vl"]))]


# ---------------------------------------------------------------------------
# randomized solvers over families
# ---------------------------------------------------------------------------


class FamilySolve(Workload):
    """Simultaneous block LU of a Z_5 family, then a sheaf solve over Z_7."""

    name = "family_solve"
    cycle = ("simul", "simul", "sheaf")
    trace_ops = 9
    simul_p, simul_prec, simul_dim, eps = 5, 50, 8, 0.25
    block_types = ([4, 4], [2, 3, 3], [8])
    sheaf_p, sheaf_prec, sheaf_points, sheaf_dim, sheaf_emax = 7, 40, 3, 4, 3

    def configure(self) -> None:
        self.cfg = config.DvrConfig(p=self.simul_p, prec=self.simul_prec)
        self.sheaf_cfg = config.DvrConfig(p=self.sheaf_p, prec=self.sheaf_prec)

    def make_input(self, kind, i):
        rng = self.rng(i)
        if kind == "simul":
            family = [
                (matrix.random_matrix(self.cfg, self.simul_dim, rng), list(sizes))
                for sizes in self.block_types
            ]
            return family, rng.randrange(1 << 62)
        inst = sheaf.random_instance(
            self.sheaf_cfg, rng, self.sheaf_points, self.sheaf_dim, self.sheaf_emax
        )
        return inst, rng.randrange(1 << 62)

    def run(self, kind, inp):
        if kind == "simul":
            family, seed = inp
            return simul.simultaneous_block_lu(self.cfg, family, self.eps, seed=seed)
        inst, seed = inp
        basis = sheaf.solve_sheaf(inst, seed=seed)
        return basis, sheaf.verify_local_equivalence(inst, basis)

    def check(self, kind, inp, out) -> None:
        if kind == "sheaf":
            basis, report = out
            _require(report.ok, "verify_local_equivalence rejects the basis")
            _require(basis.tries >= 1 and len(basis.m) == self.sheaf_dim, "malformed basis")
            return
        family, _ = inp
        self._check_certificates(family, out)

    def _check_certificates(self, family, res) -> None:
        """Recompute every certificate of a simultaneous factorization from
        omega and the family, without calling block_l."""
        n, v, d = res.n, res.v, self.simul_dim
        _require(v == simul.required_v(self.cfg.q, [len(s) for _, s in family], self.eps),
                 "wrong valuation budget")
        eye = matrix.PrecMatrix.identity_like(res.omega, d, n)
        _require(_diff_zeroish(lu_fast.matmul(res.omega, res.omega_inv), eye),
                 "omega * omega^-1 != 1")
        _require(simul.min_val_bound(res.omega_inv) >= -v, "omega^-1 leaves p^-v R")
        _require(len(res.factors) == len(family), "one factor per family member")
        for (mat, sizes), fact in zip(family, res.factors):
            low = fact.lower
            _require(simul.min_val_bound(low) >= -v, "factor leaves p^-v R")
            starts = np.cumsum([0] + sizes)
            block = np.repeat(np.arange(len(sizes)), sizes)
            above = [(i, j) for i in range(d) for j in range(d) if block[i] < block[j]]
            _require(_all_zeroish(low, above), "factor is not block lower triangular")
            for b, size in enumerate(sizes):
                lo = starts[b]
                for i in range(lo, lo + size):
                    for j in range(lo, lo + size):
                        e = low[i, j]
                        _require(e.is_zeroish if i != j else (e - e.like_one(e.abs_prec)).is_zeroish,
                                 "diagonal block is not the identity")
            # L^-1 (omega M) must be block upper triangular of the given type
            prod = lu_fast.matmul(res.omega, mat).cap_abs(n)
            t = lu_fast.matmul(lu_stable.lower_triangular_inverse(low), prod)
            below = [(i, j) for i in range(d) for j in range(d) if block[i] > block[j]]
            _require(_all_zeroish(t, below), "L^-1 omega M is not block upper triangular")
            try:
                unit_det = lu_stable.vij_statistics(mat).det_val == 0
            except errors.DvrError:
                unit_det = False
            if unit_det:
                _require(low.min_abs_prec() >= n - 2 * v, "factor precision below N - 2v")

    def digits(self, kind, inp, out) -> list:
        if kind == "simul":
            return [out.n - f.lower.min_abs_prec() for f in out.factors]
        return []


WORKLOADS = {w.name: w for w in (LuPadic, LuSeries, MonteCarlo, FamilySolve)}
