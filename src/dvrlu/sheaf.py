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
import math
import random
from dataclasses import dataclass
from functools import cached_property, partial, reduce

from .config import Backend, DvrConfig
from .element import PrecElem, _fields, _json_int
from .errors import AmbiguousValuation, CoincidentPoints, DvrError, NotSorted
from .lu_fast import _capped
from .lu_stable import _lower_solve, block_l_unitlower
from .matrix import PrecMatrix, random_matrix
from .series import SeriesElem, _convolve, _elements
from .simul import SimulFailure, _certify, _det_unit_detectable, _retry, required_v

Poly = list  # list[PrecElem], coefficients lowest-first


# ---------------------------------------------------------------------------
# polynomial helpers
# ---------------------------------------------------------------------------


def poly_add(f: Poly, g: Poly) -> Poly:
    """Add coefficient lists; missing high coefficients are exact zeros."""
    k = min(len(f), len(g))
    return [a + b for a, b in zip(f, g)] + f[k:] + g[k:]


def poly_neg(f: Poly) -> Poly:
    return [-c for c in f]


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_add(f, poly_neg(g))


def poly_scale(c: PrecElem, f: Poly) -> Poly:
    return [c * x for x in f]


def poly_mul(f: Poly, g: Poly) -> Poly:
    """Full (untruncated) product of two coefficient lists, on their fields
    (:func:`dvrlu.series._convolve`)."""
    cfg = f[0].cfg
    prod = _convolve(cfg.ops, _fields(cfg, f), _fields(cfg, g), len(f) + len(g) - 1)
    return _elements(cfg, prod)


def poly_pow(f: Poly, k: int, one: PrecElem) -> Poly:
    return reduce(poly_mul, [f] * k, [one])


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


def taylor_coeffs(f: Poly, a: PrecElem, count: int) -> Poly:
    """The first ``count`` coefficients of ``f`` expanded around ``a`` (all
    ``len(f)`` of them when count is larger).

    Uses repeated synthetic division by ``X - a``: each pass peels off the
    next Taylor coefficient as the remainder.
    """
    out = []
    cur = list(f)
    while cur and len(out) < count:
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
    c = taylor_coeffs(f, a, order)
    return SeriesElem(a.cfg, c + [a.like_zero(n)] * (order - len(c)))


def series_to_poly(s: SeriesElem, a: PrecElem, one: PrecElem) -> Poly:
    """Polynomial of degree < order representing ``s`` around ``a``."""
    return taylor_unshift(list(s.coeffs), a, one)


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
    return [
        reduce(poly_mul, (poly_pow([-a, one], e[j], one) for a, e in points), [one])
        for j in range(d)
    ]


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
        q_polys = [poly_pow([-a, one], o, one) for a, o in zip(pts, orders)]
        self.modulus = reduce(poly_mul, q_polys, [one])
        self.cofactors = []
        for m, (a, o) in enumerate(zip(pts, orders)):
            qhat = reduce(poly_mul, q_polys[:m] + q_polys[m + 1:], [one])
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
        acc = reduce(poly_add, map(poly_mul, self.cofactors, residues))
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
            if len(pt.exponents) != d or (pt.matrix.nrows, pt.matrix.ncols) != (d, d):
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
                exps = [_json_int(e, "exponents") for e in ent["exponents"]]
                mat = series_matrix_from_json(cfg, ent["matrix"])
                pts.append(SheafPoint(a, exps, mat))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed sheaf instance: {exc}") from exc
        return SheafInstance(cfg, pts)


def series_matrix_to_json(m: PrecMatrix) -> dict:
    return {**m.to_json(), "order": m[0, 0].order}


def series_matrix_from_json(cfg: DvrConfig, obj: dict) -> PrecMatrix:
    d, order, rows = _json_int(obj["d"], "d"), _json_int(obj["order"], "order"), obj["rows"]
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


def scalar_poly_matmul(s: PrecMatrix, pm: list[list[Poly]]) -> list[list[Poly]]:
    """Product of a scalar matrix with a polynomial matrix (no truncation)."""
    d = len(pm)
    return [
        [reduce(poly_add, (poly_scale(s[i, k], pm[k][j]) for k in range(d))) for j in range(d)]
        for i in range(s.nrows)
    ]


def _local_product(omega: PrecMatrix, m: PrecMatrix, n: int) -> PrecMatrix:
    """omega * M_m capped at n.  omega is scalar, so coefficient l of the
    product is ``matmul(omega, M^(l)).cap_abs(n)`` for the coefficient
    matrix ``M^(l)`` of M_m, with no padding of omega to a series.
    """
    coeffs = [m.map(lambda e, l=l: e.coeffs[l]) for l in range(m[0, 0].order)]
    prods = _capped(omega, coeffs, n)
    cfg = omega[0, 0].cfg
    rows = zip(*(p.rows for p in prods))  # row i of every coefficient's product
    return PrecMatrix([[SeriesElem(cfg, c) for c in zip(*r)] for r in rows])


def _local_factor(omega: PrecMatrix, pt: SheafPoint, n: int):
    """Block unit-lower factor of omega * M_m over the series ring at pt."""
    return block_l_unitlower(_local_product(omega, pt.matrix, n), pt.block_sizes)


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

    def glued(i: int, j: int) -> Poly:
        if i <= j:
            return [one if i == j else zero]
        return crt.combine([
            series_to_poly(fact.lower[i, j], pt.a, one)
            for fact, pt in zip(factors, inst.points)
        ])

    l_poly = [[glued(i, j) for j in range(d)] for i in range(d)]

    m_poly = scalar_poly_matmul(omega_inv, l_poly)
    d_polys = build_divisors(cfg, [(pt.a, pt.exponents) for pt in inst.points])
    return GlobalBasis(
        m=m_poly,
        d_polys=d_polys,
        block_types=[pt.block_sizes for pt in inst.points],
        omega=omega,
        v=v,
        n=n,
    )


def solve_sheaf(
    inst: SheafInstance,
    eps: float = 0.5,
    variant: str = "pi",
    seed: int | None = None,
    max_tries: int = 200,
) -> GlobalBasis:
    """Compute a global basis by randomised scalar change of coordinates.

    Each point contributes its block count as a failure weight when sizing
    the valuation budget ``v``; each try is :func:`solve_with_omega` on a
    fresh Haar-random omega drawn from ``random.Random(seed)``.
    """
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


def _schur(rows: list[list[PrecElem]], r: int, c: int) -> list[list[PrecElem]]:
    """The Schur complement of the unit-form pivot ``rows[r][c]``: rows and
    column c without row r, less ``(a[i][c] / piv) * a[r][j]``."""
    piv, prow = rows[r][c], rows[r]
    out = []
    for i, row in enumerate(rows):
        if i != r:
            q = row[c] / piv
            out.append([x - q * y for k, (x, y) in enumerate(zip(row, prow)) if k != c])
    return out


def _pivots(rows: list[list[PrecElem]]) -> list[tuple[int, int]]:
    """The unit-form entries of a square block, best pivot first: full
    pivoting by valuation, ties to the larger relative precision."""
    keyed = [
        ((e.valuation, -e.rel_prec), i, j)
        for i, row in enumerate(rows) for j, e in enumerate(row) if not e.is_zeroish
    ]
    return [(i, j) for _, i, j in sorted(keyed)]


def _greedy_det(rows: list[list[PrecElem]], first: int) -> PrecElem | None:
    """Signed product of the pivots that take candidate ``first`` of
    :func:`_pivots` at the first step and the best one after, or None once
    a remaining block has no such candidate."""
    det, k = None, first
    while rows:
        cands = _pivots(rows)
        if len(cands) <= k:
            return None
        r, c = cands[k]
        piv = -rows[r][c] if (r + c) % 2 else rows[r][c]
        det = piv if det is None else det * piv
        rows, k = _schur(rows, r, c), 0
    return det


def _pivoted_det(m: PrecMatrix) -> PrecElem | None:
    """Determinant of a small scalar matrix by full-pivot elimination in
    element arithmetic, or None when it is indeterminate.

    Every entry keeps its own precision -- nothing is flattened -- so
    entries of negative valuation and ``O(pi^k)`` with k <= 0 are fine.  The
    determinant is determinable when every pivot is distinguishable from
    zero, and it is then the signed product of the pivots.  The greedy order
    of :func:`_pivots` takes O(d^3) operations; when it ends on a block with
    no unit-form entry, each other first pivot is tried before giving up
    (O(d^5), on indeterminate input only), since on uneven precision the
    order decides how far errors spread.
    """
    rows = [list(r) for r in m.rows]
    det = None
    for first in range(len(_pivots(rows))):
        det = _greedy_det(rows, first)
        if det is not None:
            break
    return det


def _det_bound(b: list[list[float]]) -> float:
    """A bound on the valuation of ``det(1 + E) - 1`` for a square E whose
    entries have valuation >= ``b[i][j]``: when the result is >= 1, so is
    that valuation; a result <= 0 proves nothing.

    Every term of the determinant but the diagonal's is a product of
    entries 1 + E_ii and of cycles of off-diagonal entries, so the bound is
    the least diagonal bound or cycle weight.  Floyd-Warshall gives each
    ``dist[i][i]`` as the weight of a closed walk and at most that of every
    cycle through i: the least cycle weight when every cycle weighs >= 1,
    and <= 0 otherwise.
    """
    d = len(b)
    dist = [[math.inf if i == j else b[i][j] for j in range(d)] for i in range(d)]
    for k in range(d):
        for i in range(d):
            for j in range(d):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return min(min(b[i][i], dist[i][i]) for i in range(d))


@dataclass
class VerifyReport:
    """Per-condition outcome of the local-equivalence audit.

    ``local_ok[m]`` is the check at point m, ``det_ok`` the global check
    that ``omega * M`` is unit lower triangular with ``det omega`` and the
    constant term of ``det M`` determinable (so ``det M`` is a nonzero
    constant), and ``div_ok`` the divisor chain;
    :func:`verify_local_equivalence` says what each proves.  ``margin`` is
    the smallest valuation bound among all entries that the checks required
    to be indistinguishable from zero -- the worst-case precision headroom
    behind the certificate.  Those entries are the below-block coefficients
    of each local ``T``, the coefficients of ``omega * M`` above its
    diagonal and of its diagonal minus 1, those of ``det(omega * M) - 1``
    (bounded by :func:`_det_bound`, so the entries below the diagonal count
    too), and the remainders of the divisor chain.
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

    All recomputed from the inputs; nothing is trusted from the solve, and
    every check is polynomial in the dimension d.

    * Per point m: with ``L_m`` the block unit-lower factor of ``omega *
      M_m``, ``T = L_m^{-1} (omega M mod (X-a_m)^{o_m})`` (by forward
      substitution) must be block upper of the prescribed type -- every
      coefficient below the block diagonal indistinguishable from zero --
      with each diagonal block's constant-term determinant determinable, so
      the blocks are invertible over the local series ring.
    * Globally: every coefficient of ``omega * M`` above the diagonal and of
      its diagonal minus 1 is indistinguishable from zero, and ``det omega``
      and the constant term ``det M(0)`` of ``det M`` are determinable.
      Every term of ``det(omega * M) - 1`` takes one of the zeroish
      entries, so ``det M = det(omega)^{-1} (1 + E)`` with E zeroish: its
      constant term is nonzero and its other coefficients are zeroish, so
      ``det M`` is a nonzero constant to working precision.  (At low
      precision the unit-lower shape alone does not show this: ``omega * M
      = [[1 + O(pi^0)]]`` has it.)  This check is sufficient but not
      necessary: a basis whose ``det M`` is a nonzero constant but whose
      ``omega * M`` is not unit lower fails it (the solver always builds
      ``M = omega^{-1} L`` with L unit lower).
    * The divisor chain ``D_j | D_{j+1}`` holds.

    Scalar determinants come from :func:`_pivoted_det`; a check that cannot
    be decided to working precision fails, with a note, and nothing raises.
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
        local = PrecMatrix([
            [poly_to_series(omega_m[i][j], pt.a, order, n) for j in range(d)] for i in range(d)
        ])
        try:
            t_mat = _lower_solve(_local_factor(basis.omega, pt, n).lower, local)
        except DvrError as exc:
            notes.append(f"point {idx}: factor recomputation failed: {exc}")
            local_ok.append(False)
            continue

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
            blk = PrecMatrix([
                [t_mat[lo + bi, lo + bj].coeffs[0] for bj in range(s)] for bi in range(s)
            ])
            if _pivoted_det(blk) is None:
                notes.append(
                    f"point {idx}: diagonal block at {lo} has "
                    "indeterminate constant-term determinant"
                )
                ok = False
            lo += s
        local_ok.append(ok)

    det_ok = _pivoted_det(basis.omega) is not None
    if not det_ok:
        notes.append("det omega is indeterminate")
    if _pivoted_det(PrecMatrix([[f[0] for f in row] for row in basis.m])) is None:
        notes.append("det M has indeterminate constant term")
        det_ok = False
    # omega * M = 1 + E with E zeroish on and above the diagonal
    bounds = []
    for i in range(d):
        bounds.append([])
        for j in range(d):
            f = omega_m[i][j]
            if i == j:
                f = [f[0] - f[0].like_one(n)] + f[1:]
            if j >= i and not all(require_zeroish(c) for c in f):
                notes.append(
                    f"omega * M is not unit lower triangular: entry ({i},{j}) "
                    f"is not {'1' if i == j else '0'} to working precision"
                )
                det_ok = False
            bounds[i].append(min(c.val_lower_bound for c in f))
    if det_ok:
        margins.append(_det_bound(bounds))

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
