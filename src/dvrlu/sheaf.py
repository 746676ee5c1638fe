"""Global bases for collections of local lattice models at linear points.

The input is a family of points ``a_1, ..., a_n`` in the base ring together
with, at each point, a matrix over the local power-series ring in
``X - a_m`` and a sorted list of exponents.  The task is to produce a single
polynomial matrix ``M`` and diagonal polynomials ``D_j`` such that at every
point ``M`` is locally column-equivalent to the prescribed model.  The
construction randomises a scalar change of basis, runs the block
elimination at each point over truncated series, and glues the local
unit-lower factors with an explicit Chinese-remainder basis.

Polynomials are plain lists of :class:`~dvrlu.element.PrecElem`
coefficients, lowest degree first.  Only linear primes ``X - a`` appear, so
Taylor shifts (synthetic division) move between the global and local
pictures without any polynomial factoring.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from functools import cached_property, partial

from .config import Backend, DvrConfig
from .element import PrecElem
from .errors import AmbiguousValuation, CoincidentPoints, DvrError, NotSorted
from .lu_fast import matmul
from .lu_stable import block_l_unitlower, lower_triangular_inverse
from .matrix import PrecMatrix, random_matrix
from .series import SeriesElem
from .simul import SimulFailure, _certify, _det_unit_detectable, _retry, required_v

Poly = list  # list[PrecElem], coefficients lowest-first


# ---------------------------------------------------------------------------
# polynomial helpers
# ---------------------------------------------------------------------------


def poly_add(f: Poly, g: Poly) -> Poly:
    """Add coefficient lists; missing high coefficients are exact zeros."""
    out = []
    for k in range(max(len(f), len(g))):
        if k < len(f) and k < len(g):
            out.append(f[k] + g[k])
        elif k < len(f):
            out.append(f[k])
        else:
            out.append(g[k])
    return out


def poly_neg(f: Poly) -> Poly:
    return [-c for c in f]


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_add(f, poly_neg(g))


def poly_scale(c: PrecElem, f: Poly) -> Poly:
    return [c * x for x in f]


def poly_mul(f: Poly, g: Poly) -> Poly:
    """Full (untruncated) product of two coefficient lists."""
    out: list = [None] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            term = fi * gj
            out[i + j] = term if out[i + j] is None else out[i + j] + term
    return out


def poly_pow(f: Poly, k: int, one: PrecElem) -> Poly:
    acc = [one]
    for _ in range(k):
        acc = poly_mul(acc, f)
    return acc


def poly_eval(f: Poly, x: PrecElem) -> PrecElem:
    acc = f[-1]
    for c in reversed(f[:-1]):
        acc = acc * x + c
    return acc


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Divide by a polynomial whose leading coefficient is a unit.

    Returns ``(q, r)`` with ``f = q*g + r`` and ``len(r) == len(g) - 1``
    (padded with big-oh zeros where the remainder has no support).
    """
    lead = g[-1]
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        pad = f[0].like_zero(f[0].cfg.prec)
        r = list(f) + [pad] * (len(g) - 1 - len(f))
        return [], r
    quot: list = [None] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + len(g) - 1] / lead
        quot[i] = c
        for j, gj in enumerate(g):
            rem[i + j] = rem[i + j] - c * gj
    return quot, rem[: len(g) - 1]


def taylor_coeffs(f: Poly, a: PrecElem) -> Poly:
    """Coefficients of ``f`` expanded around ``a`` (same length as ``f``).

    Uses repeated synthetic division by ``X - a``: each pass peels off the
    next Taylor coefficient as the remainder.
    """
    out = []
    cur = list(f)
    while cur:
        # divide cur by (X - a): quotient top-down, remainder = cur(a)
        quot = [None] * (len(cur) - 1)
        acc = cur[-1]
        for i in range(len(cur) - 2, -1, -1):
            quot[i] = acc
            acc = cur[i] + a * acc
        out.append(acc)
        cur = quot
    return out


def taylor_unshift(c: Poly, a: PrecElem, one: PrecElem) -> Poly:
    """Inverse of :func:`taylor_coeffs`: rebuild ``sum c_k (X-a)^k`` by Horner."""
    shift = [-a, one]
    acc = [c[-1]]
    for k in range(len(c) - 2, -1, -1):
        acc = poly_add(poly_mul(acc, shift), [c[k]])
    return acc


def poly_to_series(f: Poly, a: PrecElem, order: int, n: int) -> SeriesElem:
    """Reduce a polynomial modulo ``(X - a)^order`` into the local series ring."""
    c = taylor_coeffs(f, a)[:order]
    pad = a.like_zero(n)
    while len(c) < order:
        c.append(pad)
    return SeriesElem(a.cfg, c)


def series_to_poly(s: SeriesElem, a: PrecElem, one: PrecElem) -> Poly:
    """Polynomial of degree < order representing ``s`` around ``a``."""
    return taylor_unshift(list(s.coeffs), a, one)


def poly_det(rows: list[list[Poly]]) -> Poly:
    """Determinant of a small polynomial matrix by Laplace expansion.

    Exponential in the dimension; intended for the low-dimensional
    verification checks only.
    """
    d = len(rows)
    if d == 1:
        return rows[0][0]
    acc: Poly | None = None
    for i in range(d):
        minor = [[rows[r][c] for c in range(1, d)] for r in range(d) if r != i]
        term = poly_mul(rows[i][0], poly_det(minor))
        if i % 2 == 1:
            term = poly_neg(term)
        acc = term if acc is None else poly_add(acc, term)
    return acc


def scalar_det(m: PrecMatrix) -> PrecElem:
    """Laplace-expansion determinant of a small scalar matrix."""
    return poly_det([[[m[i, j]] for j in range(m.ncols)] for i in range(m.nrows)])[0]


# ---------------------------------------------------------------------------
# exponent bookkeeping and target divisors
# ---------------------------------------------------------------------------


def block_type_from_exponents(exponents: list[int]) -> list[int]:
    """Run lengths of a non-decreasing list of nonnegative exponents.

    Raises NotSorted if the list decreases anywhere, ValueError if it is
    empty or holds a negative exponent.
    """
    if not exponents:
        raise ValueError("empty exponent list")
    if min(exponents) < 0:
        raise ValueError(f"exponents must be nonnegative, got {exponents}")
    sizes = [1]
    for prev, cur in zip(exponents, exponents[1:]):
        if cur < prev:
            raise NotSorted(f"exponents must be non-decreasing, got {exponents}")
        if cur == prev:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def _require_distinct(pts: list[PrecElem]) -> None:
    """Raise CoincidentPoints if two points agree to working precision."""
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (pts[i] - pts[j]).is_zeroish:
                raise CoincidentPoints(
                    f"points {i} and {j} coincide to working precision"
                )


def build_divisors(cfg: DvrConfig, points: list[tuple[PrecElem, list[int]]]) -> list[Poly]:
    """Diagonal target polynomials ``D_j = prod_m (X - a_m)^{e_{m,j}}``.

    Points whose difference is indistinguishable from zero are rejected:
    the construction needs genuinely separate linear primes.
    """
    _require_distinct([a for a, _ in points])
    n = cfg.prec
    d = len(points[0][1])
    one = points[0][0].like_one(n)
    out = []
    for j in range(d):
        dj = [one]
        for a, exps in points:
            dj = poly_mul(dj, poly_pow([-a, one], exps[j], one))
        out.append(dj)
    return out


# ---------------------------------------------------------------------------
# Chinese-remainder basis for linear-prime powers
# ---------------------------------------------------------------------------


class CrtBasis:
    """Precomputed cofactors for interpolation modulo ``prod (X-a_m)^{o_m}``.

    ``combine`` maps per-point residue polynomials (degree < o_m) to the
    unique polynomial of degree < sum(o_m) with those residues.  The
    cofactor ``C_m`` is ``Qhat_m * (Qhat_m^{-1} mod (X-a_m)^{o_m})``, with
    the modular inverse computed by Taylor-shifting ``Qhat_m`` to ``a_m``
    and inverting the resulting truncated series.  Cofactors are computed
    once and reused across retries.
    """

    def __init__(self, cfg: DvrConfig, pts: list[PrecElem], orders: list[int]):
        self.cfg = cfg
        n = cfg.prec
        one = pts[0].like_one(n)
        self.one = one
        q_polys = [poly_pow([-a, one], o, one) for a, o in zip(pts, orders)]
        q_total = [one]
        for qp in q_polys:
            q_total = poly_mul(q_total, qp)
        self.modulus = q_total
        self.cofactors = []
        for m, (a, o) in enumerate(zip(pts, orders)):
            qhat = [one]
            for mm, qp in enumerate(q_polys):
                if mm != m:
                    qhat = poly_mul(qhat, qp)
            local = poly_to_series(qhat, a, o, n)
            if local.coeffs[0].is_zeroish:
                raise AmbiguousValuation(
                    "cannot invert CRT cofactor: evaluation at the point is "
                    "indistinguishable from zero"
                )
            inv = local.like_one(n) / local
            i_poly = series_to_poly(inv, a, one)
            self.cofactors.append(poly_mul(qhat, i_poly))

    def combine(self, residues: list[Poly]) -> Poly:
        acc: Poly | None = None
        for c_m, p_m in zip(self.cofactors, residues):
            term = poly_mul(c_m, p_m)
            acc = term if acc is None else poly_add(acc, term)
        _, rem = poly_divmod(acc, self.modulus)
        return rem


# ---------------------------------------------------------------------------
# instance model
# ---------------------------------------------------------------------------


@dataclass
class SheafPoint:
    """One local model: the point, its exponents, and a series matrix."""

    a: PrecElem
    exponents: list[int]
    matrix: PrecMatrix  # entries are SeriesElem of order max(exponents)+1

    @property
    def order(self) -> int:
        return max(self.exponents) + 1

    @property
    def block_sizes(self) -> list[int]:
        return block_type_from_exponents(self.exponents)


@dataclass
class SheafInstance:
    cfg: DvrConfig
    points: list[SheafPoint]

    def __post_init__(self):
        if not self.points:
            raise ValueError("a sheaf instance needs at least one point")
        d = self.points[0].matrix.nrows
        for pt in self.points:
            if len(pt.exponents) != d or pt.matrix.nrows != d:
                raise ValueError("all points must share the matrix dimension")
            block_type_from_exponents(pt.exponents)
            order = pt.order
            for i in range(d):
                for j in range(d):
                    if pt.matrix[i, j].order != order:
                        raise ValueError(
                            f"series order mismatch at point: expected {order}"
                        )
        _require_distinct([pt.a for pt in self.points])

    @property
    def dim(self) -> int:
        return self.points[0].matrix.nrows

    @cached_property
    def crt(self) -> CrtBasis:
        """The CRT cofactors of the points; they do not depend on omega."""
        return CrtBasis(self.cfg, [pt.a for pt in self.points], [pt.order for pt in self.points])

    def to_json(self) -> dict:
        obj = {"p": self.cfg.p, "prec": self.cfg.prec, "points": []}
        if self.cfg.backend is not Backend.PADIC:
            obj["backend"] = self.cfg.backend.value
        for pt in self.points:
            obj["points"].append(
                {
                    "a": pt.a.to_json(),
                    "exponents": list(pt.exponents),
                    "matrix": series_matrix_to_json(pt.matrix),
                }
            )
        return obj

    @staticmethod
    def from_json(obj: dict) -> "SheafInstance":
        try:
            cfg = DvrConfig(
                p=obj["p"],
                prec=obj["prec"],
                backend=Backend(obj.get("backend", "padic")),
            )
            pts = []
            for ent in obj["points"]:
                a = PrecElem.from_json(cfg, ent["a"])
                exps = [int(e) for e in ent["exponents"]]
                mat = series_matrix_from_json(cfg, ent["matrix"])
                pts.append(SheafPoint(a, exps, mat))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed sheaf instance: {exc}") from exc
        return SheafInstance(cfg, pts)


def series_matrix_to_json(m: PrecMatrix) -> dict:
    return {**m.to_json(), "order": m[0, 0].order}


def series_matrix_from_json(cfg: DvrConfig, obj: dict) -> PrecMatrix:
    d, order, rows = obj["d"], obj["order"], obj["rows"]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValueError(f"series matrix: expected {d}x{d} rows array")
    return PrecMatrix([[SeriesElem.from_json(cfg, e, order) for e in r] for r in rows])


def random_instance(
    cfg: DvrConfig,
    rng: random.Random,
    n_points: int,
    d: int,
    e_max: int,
) -> SheafInstance:
    """Random instance with distinct-residue points and unit local models.

    The constant term of each local matrix is redrawn until its reduction
    is invertible, so the per-point eliminations are solvable and failures
    of the global solver come only from the scalar randomisation.
    """
    if n_points > cfg.p:
        raise ValueError("need n_points <= p distinct residues")
    n = cfg.prec
    residues = rng.sample(range(cfg.p), n_points)
    pts = []
    for res in residues:
        val = res + cfg.p * rng.randrange(cfg.p ** (n - 1))
        if val == 0:
            val = cfg.p  # keep the point itself representable in unit form
        a = PrecElem.from_int(cfg, val, abs_prec=n)
        exps = sorted(rng.randint(0, e_max) for _ in range(d))
        order = max(exps) + 1
        while True:
            mats = [random_matrix(cfg, d, rng) for _ in range(order)]
            if _det_unit_detectable(mats[0]):
                break
        rows = [
            [
                SeriesElem(cfg, [mats[k][i, j] for k in range(order)])
                for j in range(d)
            ]
            for i in range(d)
        ]
        pts.append(SheafPoint(a, exps, PrecMatrix(rows)))
    return SheafInstance(cfg, pts)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


@dataclass
class GlobalBasis:
    """A solved instance: polynomial basis, divisors, and the witnesses."""

    m: list[list[Poly]]
    d_polys: list[Poly]
    block_types: list[list[int]]
    omega: PrecMatrix
    omega_inv: PrecMatrix
    v: int
    n: int
    tries: int = 1

    def to_json(self) -> dict:
        return {
            "M": poly_matrix_to_json(self.m),
            "D": [[c.to_json() for c in dj] for dj in self.d_polys],
            "block_types": self.block_types,
            "omega": self.omega.to_json(),
            "v": self.v,
            "n": self.n,
            "tries": self.tries,
        }


def poly_matrix_to_json(pm: list[list[Poly]]) -> dict:
    return {
        "d": len(pm),
        "rows": [[[c.to_json() for c in ent] for ent in row] for row in pm],
    }


def scalar_matrix_as_series(m: PrecMatrix, order: int, n: int) -> PrecMatrix:
    """Embed a scalar matrix as constant series of the given order."""
    rows = [
        [SeriesElem.constant(m[i, j], order, n) for j in range(m.ncols)]
        for i in range(m.nrows)
    ]
    return PrecMatrix(rows)


def scalar_poly_matmul(s: PrecMatrix, pm: list[list[Poly]]) -> list[list[Poly]]:
    """Product of a scalar matrix with a polynomial matrix (no truncation)."""
    d = len(pm)
    out = []
    for i in range(s.nrows):
        row = []
        for j in range(d):
            acc: Poly | None = None
            for k in range(d):
                term = poly_scale(s[i, k], pm[k][j])
                acc = term if acc is None else poly_add(acc, term)
            row.append(acc)
        out.append(row)
    return out


def _local_factor(omega: PrecMatrix, pt: SheafPoint, n: int):
    """Block unit-lower factor of omega * M_m over the series ring at pt."""
    omega_s = scalar_matrix_as_series(omega, pt.order, n)
    return block_l_unitlower(matmul(omega_s, pt.matrix).cap_abs(n), pt.block_sizes)


def solve_with_omega(
    inst: SheafInstance, v: int, omega: PrecMatrix
) -> GlobalBasis | SimulFailure:
    """One attempt at a global basis with a fixed scalar randomiser.

    Runs the simultaneous certificate of :mod:`dvrlu.simul` on the local
    factors (the constant term of each local matrix gates the precision
    check) and returns the SimulFailure of the first check that does not
    hold; retrying with a fresh omega is the caller's job.
    """
    cfg = inst.cfg
    n = cfg.prec
    d = inst.dim
    got = _certify(omega, v, n, [
        (partial(_local_factor, pt=pt, n=n), pt.matrix.map(lambda e: e.coeffs[0]))
        for pt in inst.points
    ])
    if isinstance(got, SimulFailure):
        return got
    omega_inv, factors = got
    crt = inst.crt
    one = inst.points[0].a.like_one(n)
    zero = inst.points[0].a.like_zero(n)
    l_poly: list[list[Poly]] = []
    for i in range(d):
        row = []
        for j in range(d):
            if i == j:
                row.append([one])
            elif i < j:
                row.append([zero])
            else:
                residues = [
                    series_to_poly(fact.lower[i, j], pt.a, one)
                    for fact, pt in zip(factors, inst.points)
                ]
                row.append(crt.combine(residues))
        l_poly.append(row)

    m_poly = scalar_poly_matmul(omega_inv, l_poly)
    d_polys = build_divisors(cfg, [(pt.a, pt.exponents) for pt in inst.points])
    return GlobalBasis(
        m=m_poly,
        d_polys=d_polys,
        block_types=[pt.block_sizes for pt in inst.points],
        omega=omega,
        omega_inv=omega_inv,
        v=v,
        n=n,
    )


def solve_sheaf(
    inst: SheafInstance,
    eps: float = 0.5,
    variant: str = "pi",
    seed: int | None = None,
    rng: random.Random | None = None,
    max_tries: int = 200,
) -> GlobalBasis:
    """Compute a global basis by randomised scalar change of coordinates.

    Each point contributes its block count as a failure weight when sizing
    the valuation budget ``v``; each try is :func:`solve_with_omega` on a
    fresh Haar-random omega.
    """
    if rng is None:
        rng = random.Random(seed)
    v = required_v(inst.cfg.q, [len(pt.block_sizes) for pt in inst.points], eps, variant)
    return _retry(
        lambda: solve_with_omega(inst, v, random_matrix(inst.cfg, inst.dim, rng)),
        max_tries,
        "global basis found",
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    """Per-condition outcome of the local-equivalence audit.

    ``margin`` is the smallest valuation bound among all entries that the
    checks required to be indistinguishable from zero -- the worst-case
    precision headroom behind the certificate.
    """

    local_ok: list[bool]
    det_ok: bool
    div_ok: bool
    margin: int | None
    notes: list[str]

    @property
    def ok(self) -> bool:
        return all(self.local_ok) and self.det_ok and self.div_ok

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "local_ok": self.local_ok,
            "det_ok": self.det_ok,
            "div_ok": self.div_ok,
            "margin": self.margin,
            "notes": self.notes,
        }


def verify_local_equivalence(inst: SheafInstance, basis: GlobalBasis) -> VerifyReport:
    """Audit a basis against the instance it claims to solve.

    Checks, per point: ``L_m^{-1} (omega M mod (X-a_m)^{o_m})`` is block
    upper of the prescribed type with invertible diagonal blocks (over the
    local series field).  Globally: ``det M`` is a nonzero constant, and
    the divisor chain ``D_j | D_{j+1}`` holds.  All recomputed from the
    inputs; nothing is trusted from the solve.
    """
    cfg = inst.cfg
    n = cfg.prec
    d = inst.dim
    notes: list[str] = []
    margins: list[int] = []

    def require_zeroish(e: PrecElem) -> bool:
        if e.is_zeroish:
            margins.append(e.val_lower_bound)
            return True
        return False

    omega_m = scalar_poly_matmul(basis.omega, basis.m)

    local_ok = []
    for idx, pt in enumerate(inst.points):
        order = pt.order
        sizes = pt.block_sizes
        ok = True
        try:
            l_inv = lower_triangular_inverse(_local_factor(basis.omega, pt, n).lower)
        except DvrError as exc:
            notes.append(f"point {idx}: factor recomputation failed: {exc}")
            local_ok.append(False)
            continue
        local = PrecMatrix(
            [
                [poly_to_series(omega_m[i][j], pt.a, order, n) for j in range(d)]
                for i in range(d)
            ]
        )
        t_mat = matmul(l_inv, local)

        bounds = list(itertools.accumulate(sizes))
        block = [bisect.bisect_right(bounds, k) for k in range(d)]
        for i in range(d):
            for j in range(d):
                if block[i] > block[j]:
                    for c in t_mat[i, j].coeffs:
                        if not require_zeroish(c):
                            notes.append(
                                f"point {idx}: entry ({i},{j}) below the block "
                                "diagonal is not zero to working precision"
                            )
                            ok = False
        lo = 0
        for s in sizes:
            blk = [
                [[t_mat[lo + bi, lo + bj].coeffs[0]] for bj in range(s)]
                for bi in range(s)
            ]
            if poly_det(blk)[0].is_zeroish:
                notes.append(
                    f"point {idx}: diagonal block at {lo} has "
                    "indeterminate constant-term determinant"
                )
                ok = False
            lo += s
        local_ok.append(ok)

    det_poly = poly_det(basis.m)
    det_ok = not det_poly[0].is_zeroish
    if not det_ok:
        notes.append("det M has indeterminate constant term")
    for c in det_poly[1:]:
        if not require_zeroish(c):
            notes.append("det M is not constant to working precision")
            det_ok = False
            break
    if det_ok:
        resid = det_poly[0] * scalar_det(basis.omega) - det_poly[0].like_one(n)
        if not require_zeroish(resid):
            notes.append("det M * det omega does not match the unit-lower factor")
            det_ok = False

    div_ok = True
    for j in range(len(basis.d_polys) - 1):
        _, rem = poly_divmod(basis.d_polys[j + 1], basis.d_polys[j])
        for c in rem:
            if not require_zeroish(c):
                notes.append(f"divisor {j} does not divide divisor {j + 1}")
                div_ok = False
                break

    margin = min(margins) if margins else None
    return VerifyReport(local_ok, det_ok, div_ok, margin, notes)
