"""Simultaneous block factorization of a family against one random matrix.

Given matrices M_1..M_n with block types d_1..d_n, draw one Haar-random
omega and certify, at a precision budget v chosen in advance from the target
failure probability, that

* omega is invertible and every entry of omega^-1 has valuation >= -v;
* for every m, the block unit lower triangular factor L_m of omega * M_m
  exists and every entry has valuation >= -v (membership in p^-v R);
* whenever M_m is detectably invertible over the ring (determinant
  valuation 0), the factor's entries are known at absolute precision at
  least N - 2v.

One draw succeeds with probability >= 1 - eps when v = required_v(...); the
driver retries with fresh draws until success.  The certificate and the
retry loop also serve :mod:`dvrlu.sheaf`, whose members are local factors
over truncated series.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .config import DvrConfig
from .errors import DvrError, DegenerateInput, ExhaustedRetries
from .lu_fast import _capped, matmul
from .lu_stable import (
    LvOutput,
    _require_digits,
    block_l,
    lower_triangular_inverse,
    lv_decomposition,
    vij_statistics,
)
from .element import _json_int
from .matrix import PrecMatrix, random_matrix
from .stats.formulas import pi_q


def required_v(
    q: int, r_list: Sequence[int], eps: float, variant: str = "base"
) -> int:
    """Precision budget v for the simultaneous factorization.

    The least integer v >= 0 with q^v >= S / (c * eps), S = sum(r_list).
    Variant "base" takes c = q - 1 and evaluates the bound exactly in
    rational arithmetic (eps at its decimal face value); variant "pi" takes
    the sharper constant c = Pi(q) and a float bound.  The "pi" budget is
    never smaller than the "base" one.
    """
    if not r_list or any(r < 1 for r in r_list):
        raise ValueError("r_list must be a nonempty list of positive ints")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    s = sum(r_list)
    if variant == "base":
        bound = Fraction(s) / ((q - 1) * Fraction(str(eps)))
    elif variant == "pi":
        bound = s / (pi_q(q) * eps)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    v = 0
    while q**v < bound:  # int against Fraction or float: compared exactly
        v += 1
    return v


@dataclass
class SimulFailure:
    """Why one attempt was rejected."""

    stage: str
    matrix_index: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        at = "" if self.matrix_index is None else f" (matrix {self.matrix_index})"
        return f"{self.stage}{at}: {self.detail}"


@dataclass
class SimulResult:
    omega: PrecMatrix
    omega_inv: PrecMatrix
    factors: list
    v: int
    n: int
    tries: int = 1


def min_val_bound(m: PrecMatrix) -> int:
    """Guaranteed lower bound on entry valuations (valuation for unit-form
    entries, precision bound for zeroish ones)."""
    return min(e.val_lower_bound for r in m.rows for e in r)


def invert_via_lv(m: PrecMatrix) -> tuple[PrecMatrix, LvOutput]:
    """Inverse through the split decomposition: H' = M * W' with H' lower
    triangular, so M^-1 = W' * H'^-1 (forward substitution; no capping).
    Raises DegenerateInput when invertibility is not certifiable."""
    out = lv_decomposition(m)
    if any(c is None for c in out.col_val):
        raise DegenerateInput("determinant valuation undeterminable")
    h_inv = lower_triangular_inverse(out.hp)
    return matmul(out.wp, h_inv), out


def _det_unit_detectable(m: PrecMatrix) -> bool:
    try:
        return vij_statistics(m).det_val == 0
    except DvrError:
        return False


def _certify(omega: PrecMatrix, v: int, n: int, items):
    """The certificate of one draw of omega at budget v and precision n.

    Each item pairs a member's factor as a function of omega with the matrix
    whose detectably unit determinant demands precision n - 2v of that
    factor.  Returns (omega^-1, factors), or the SimulFailure of the first
    check that does not hold.
    """
    try:
        omega_inv, _ = invert_via_lv(omega)
    except DvrError as exc:
        return SimulFailure("invertibility", detail=str(exc))
    if min_val_bound(omega_inv) < -v:
        return SimulFailure(
            "inverse-valuation", detail=f"omega^-1 has an entry below valuation {-v}"
        )
    factors = []
    for idx, (factor, gate) in enumerate(items):
        try:
            fact = factor(omega)
        except DvrError as exc:
            return SimulFailure("factor", idx, str(exc))
        if min_val_bound(fact.lower) < -v:
            return SimulFailure(
                "factor-valuation", idx, f"factor has an entry below valuation {-v}"
            )
        got = fact.lower.min_abs_prec()
        if got < n - 2 * v and _det_unit_detectable(gate):
            return SimulFailure(
                "factor-precision", idx, f"absolute precision {got} < {n - 2 * v}"
            )
        factors.append(fact)
    return omega_inv, factors


def _retry(attempt: Callable, max_tries: int, what: str):
    """Call attempt() until it returns something other than a SimulFailure,
    stamp the number of tries on that result and return it.  Raises
    ExhaustedRetries (carrying the last failure) after max_tries failures,
    ValueError before any try when max_tries is below 1."""
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    last: Optional[SimulFailure] = None
    for t in range(1, max_tries + 1):
        got = attempt()
        if not isinstance(got, SimulFailure):
            got.tries = t
            return got
        last = got
    raise ExhaustedRetries(
        f"no {what} in {max_tries} tries (last: {last})",
        tries=max_tries,
        last_failure=last,
    )


def _family_dim(family: Sequence[tuple[PrecMatrix, Sequence[int]]]) -> int:
    """The common dimension d of a family whose every member is d x d, known
    to precision >= 1, and whose every block type tiles d; raises ValueError
    otherwise."""
    if not family:
        raise ValueError("family is empty")
    d = family[0][0].nrows
    for idx, (mat, sizes) in enumerate(family):
        if mat.nrows != d or mat.ncols != d:
            raise ValueError(f"family matrix {idx} is not {d}x{d}")
        _require_digits(mat.min_abs_prec())
        if any(s < 1 for s in sizes) or sum(sizes) != d:
            raise ValueError(
                f"block type {list(sizes)} of family matrix {idx} does not tile dimension {d}"
            )
    return d


def attempt_simultaneous(
    cfg: DvrConfig,
    family: Sequence[tuple[PrecMatrix, Sequence[int]]],
    v: int,
    rng: random.Random,
):
    """One draw of omega and the full certification.

    The family's shapes, block types and precisions are checked before
    omega is drawn.
    Returns a SimulResult on success, a SimulFailure otherwise.
    """
    n = cfg.prec
    omega = random_matrix(cfg, _family_dim(family), rng)
    got = _certify(omega, v, n, [
        (lambda w, mat=mat, sizes=sizes: block_l(_capped(w, [mat], n)[0], sizes), mat)
        for mat, sizes in family
    ])
    if isinstance(got, SimulFailure):
        return got
    omega_inv, factors = got
    return SimulResult(omega=omega, omega_inv=omega_inv, factors=factors, v=v, n=n)


def simultaneous_block_lu(
    cfg: DvrConfig,
    family: Sequence[tuple[PrecMatrix, Sequence[int]]],
    eps: float,
    variant: str = "base",
    seed: Optional[int] = None,
    max_tries: int = 200,
) -> SimulResult:
    """Retry :func:`attempt_simultaneous` with fresh draws from
    ``random.Random(seed)`` until success.

    The per-matrix failure weights are the block counts len(d_m); the budget
    is v = required_v(q, [len(d_m)], eps, variant).  Raises ExhaustedRetries
    (carrying the last failure) after max_tries rejected draws.
    """
    rng = random.Random(seed)
    v = required_v(cfg.q, [len(sizes) for _, sizes in family], eps, variant)
    return _retry(
        lambda: attempt_simultaneous(cfg, family, v, rng), max_tries, "successful draw"
    )


# ---------------------------------------------------------------------------
# instance (de)serialization for the command line
# ---------------------------------------------------------------------------


def family_from_json(obj: dict):
    """Parse {"config", "eps", "variant", "family": [{"matrix",
    "block_type"}]} into (cfg, eps, variant, family)."""
    try:
        cfg = DvrConfig.from_json(obj["config"])
        eps = obj["eps"]
        if type(eps) not in (int, float):  # a bool or a string is no number
            raise ValueError(f"eps must be a number, got {eps!r}")
        variant = obj.get("variant", "base")
        if type(variant) is not str:
            raise ValueError(f"variant must be a string, got {variant!r}")
        fam = []
        for ent in obj["family"]:
            mat = PrecMatrix.from_json(cfg, ent["matrix"])
            sizes = [_json_int(x, "block_type") for x in ent["block_type"]]
            fam.append((mat, sizes))
        if not fam:
            raise ValueError("family is empty")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance: {exc}") from exc
    return cfg, float(eps), variant, fam


def result_to_json(res: SimulResult) -> dict:
    return {
        "v": res.v,
        "n": res.n,
        "tries": res.tries,
        "omega": res.omega.to_json(),
        "omega_inv": res.omega_inv.to_json(),
        "factors": [f.lower.to_json() for f in res.factors],
    }
