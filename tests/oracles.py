"""Independent exact references for the factorization tests.

Everything in this module works over exact rationals (``fractions.Fraction``)
and plain integers — no precision tracking, no imports from the package under
test — except the element arithmetic written case by case (:func:`elem_add`
and its siblings), the reference for the precision rules the package writes
once on element fields, and the loops that run it one element at a time:
:func:`naive_elimination` and the series and polynomial products and
quotient, the references for the package's loops on entry fields, and the
Laplace-expansion determinants (:func:`poly_det`, :func:`scalar_det`), the
reference for the sheaf verification's polynomial-time checks, and
:func:`eager_stepper`, the step of the flat elimination on residues with
every entry reduced at every step, the reference for the package's step,
which leaves entries unreduced in mid-round.  The elimination oracle
mirrors the pivoted column elimination over the field of fractions, so the
package's finite-precision answers can be checked digit by digit against
ground truth; the determinant and minor helpers give a
second, independent route to the same quantities (Cramer quotients, principal
minor valuations) so the oracle itself is cross-checked.  The nice-order
helpers at the end specify the reorderings of the elimination that
``dvrlu.lu_fast.recursive_lv`` relies on.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from typing import Sequence


def val_of(x, p: int):
    """p-adic valuation of an int or Fraction; None for exact zero."""
    if x == 0:
        return None
    if isinstance(x, Fraction):
        return val_of(x.numerator, p) - val_of(x.denominator, p)
    x = abs(int(x))
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def exact_det(rows) -> Fraction:
    """Permutation-sum determinant (fine for the small oracle dimensions)."""
    d = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(d)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(
            1
            for a in range(d)
            for b in range(a + 1, d)
            if seen[a] > seen[b]
        )
        sign = -1 if inv % 2 else 1
        prod = Fraction(1)
        for i in range(d):
            prod *= Fraction(rows[i][perm[i]])
        total += sign * prod
    return total


def leading_minor(rows, k: int) -> Fraction:
    """Determinant of the leading principal k x k minor."""
    return exact_det([row[:k] for row in rows[:k]])


def cramer_quotient(rows, i: int, j: int) -> Fraction:
    """The unit-lower-factor entry L[i, j] as a ratio of minors.

    Numerator: the (j+1) x (j+1) minor on rows 0..j-1 plus i and columns
    0..j.  Denominator: the leading (j+1) x (j+1) principal minor.
    """
    sel = list(range(j)) + [i]
    num = exact_det([[rows[r][c] for c in range(j + 1)] for r in sel])
    den = leading_minor(rows, j + 1)
    return num / den


def exact_profile(rows, p: int) -> dict:
    """Pivoted column elimination over Q, recording the valuation profile.

    The swap rule is v(entry) < v(pivot) with exact valuations (an exact
    zero never has smaller valuation than anything).  Returns a dict with:

    - 'table': (i, j) -> valuation read before the swap test (i < j) or at
      the round end (i == j); None for exact zero;
    - 'boundary_sums': sum of diagonal valuations after each round (None if
      a diagonal entry is exactly zero);
    - 'det_val': the last boundary sum;
    - 'swaps': column swaps performed, in order;
    - 'vl': max(0, -min quotient valuation) over the round-end reads
      v(w[i, j]) - v(w[j, j]) for i > j (exact zeros contribute nothing);
    - 'lower': dict (i, j) -> Fraction, the exact unit-lower factor entries
      (quotients at the end of round j), for i > j;
    - 'col_vals': sum of diagonal valuations up to column j, per j;
    - 'permuted': the column-permuted input (Fractions) under the *final*
      permutation;
    - 'col_orders': per round j, the column order (original indices) in
      effect at the end of that round — later rounds may swap earlier
      columns, so minor identities for round j must use this snapshot, not
      the final permutation;
    - 'degenerate': True if some pivot was exactly zero (elimination stops).
    """
    d = len(rows)
    w = [[Fraction(x) for x in row] for row in rows]
    perm = [[Fraction(x) for x in row] for row in rows]
    order = list(range(d))
    out = {
        "table": {},
        "boundary_sums": [],
        "swaps": [],
        "lower": {},
        "col_vals": [],
        "col_orders": [],
        "degenerate": False,
    }
    known_min = 0
    for j in range(d):
        for i in range(j):
            out["table"][(i, j)] = val_of(w[i][j], p)
            ve, vp_ = val_of(w[i][j], p), val_of(w[i][i], p)
            less = ve is not None and (vp_ is None or ve < vp_)
            if less:
                for r in range(d):
                    w[r][i], w[r][j] = w[r][j], w[r][i]
                    perm[r][i], perm[r][j] = perm[r][j], perm[r][i]
                order[i], order[j] = order[j], order[i]
                out["swaps"].append((i, j))
            if w[i][i] == 0:
                out["degenerate"] = True
                return out
            s = w[i][j] / w[i][i]
            for r in range(d):
                w[r][j] -= s * w[r][i]
        out["table"][(j, j)] = val_of(w[j][j], p)
        out["col_orders"].append(list(order))
        vals = [val_of(w[k][k], p) for k in range(j + 1)]
        out["boundary_sums"].append(None if None in vals else sum(vals))
        if None not in vals:
            out["col_vals"].append(sum(vals))
        else:
            out["col_vals"].append(None)
        if w[j][j] != 0:
            vjj = val_of(w[j][j], p)
            for i in range(j + 1, d):
                out["lower"][(i, j)] = w[i][j] / w[j][j]
                if j < d - 1 and w[i][j] != 0:
                    known_min = min(known_min, val_of(w[i][j], p) - vjj)
    out["det_val"] = out["boundary_sums"][-1]
    out["vl"] = -known_min
    out["permuted"] = perm
    return out


def reorder_columns(rows, order):
    """The matrix with columns rearranged to the given original-index order."""
    return [[row[c] for c in order] for row in rows]


def fraction_matches_digits(x: Fraction, p: int, v: int, u: int, abs_prec: int) -> bool:
    """Does the exact rational x equal u * p^v up to O(p^abs_prec)?

    x must be a p-adic integer times p^v (denominator prime to p after
    clearing p^v); the claimed digits agree iff v_p(x - u * p^v) >= abs_prec.
    """
    diff = x - Fraction(u) * Fraction(p) ** v
    if diff == 0:
        return True
    return val_of(diff, p) >= abs_prec


def fraction_is_small(x: Fraction, p: int, abs_prec: int) -> bool:
    """Is the exact rational x inside O(p^abs_prec)?"""
    return x == 0 or val_of(x, p) >= abs_prec


def integral_hermite_checks(rows, p: int, h_reps) -> bool:
    """Certify a Hermite-form representative against the exact input.

    ``h_reps`` is a square integer/Fraction matrix (representatives of the
    claimed form).  Checks that H differs from the input by a unimodular
    column transform over the local ring: M^{-1} H must be p-integral with
    p-unit determinant.  Triangularity and the p-power diagonal are the
    caller's (cheap) checks.
    """
    d = len(rows)
    m_det = exact_det(rows)
    if m_det == 0:
        return False
    # adjugate route for M^{-1} H, keeping everything exact
    inv_h = []
    for i in range(d):
        inv_row = []
        for j in range(d):
            # (M^{-1} H)[i][j] = sum_k adj[i][k] H[k][j] / det
            acc = Fraction(0)
            for k in range(d):
                minor = [
                    [Fraction(rows[r][c]) for c in range(d) if c != i]
                    for r in range(d)
                    if r != k
                ]
                cof = exact_det(minor) * (-1) ** (i + k)
                acc += cof * Fraction(h_reps[k][j])
            inv_row.append(acc / m_det)
        inv_h.append(inv_row)
    for i in range(d):
        for j in range(d):
            x = inv_h[i][j]
            if x != 0 and val_of(x, p) < 0:
                return False
    w_det = exact_det(inv_h)
    return w_det != 0 and val_of(w_det, p) == 0


# ---------------------------------------------------------------------------
# schoolbook F_p[[t]] digit arithmetic on base-p packed ints
# ---------------------------------------------------------------------------
#
# Digit i of a truncated series is the i-th base-p digit of a packed int;
# every op unpacks n digits into a list, works coefficient by coefficient
# mod p and packs the result again.


def unpack(x: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        x, r = divmod(x, p)
        out.append(r)
    return out


def repack(digits, p: int) -> int:
    x = 0
    for c in reversed(digits):
        x = x * p + c
    return x


def series_add(x: int, y: int, p: int, n: int) -> int:
    """x + y keeping n digits."""
    if n <= 0:
        return 0
    return repack([(a + b) % p for a, b in zip(unpack(x, p, n), unpack(y, p, n))], p)


def series_neg(x: int, p: int, n: int) -> int:
    if n <= 0:
        return 0
    return repack([(-c) % p for c in unpack(x, p, n)], p)


def series_mul(x: int, y: int, p: int, n: int) -> int:
    """x * y keeping n digits."""
    if n <= 0:
        return 0
    dx = unpack(x, p, n)
    dy = unpack(y, p, n)
    out = [0] * n
    for i, a in enumerate(dx):
        if a == 0:
            continue
        for j in range(n - i):
            b = dy[j]
            if b:
                out[i + j] = (out[i + j] + a * b) % p
    return repack(out, p)


def series_inv(u: int, p: int, n: int) -> int:
    """Inverse of a unit (lowest digit nonzero), to n digits."""
    c = unpack(u, p, n)
    g0 = pow(c[0], -1, p)
    g = [g0]
    for k in range(1, n):
        s = 0
        for i in range(1, k + 1):
            if c[i] and g[k - i]:
                s += c[i] * g[k - i]
        g.append((-g0 * s) % p)
    return repack(g, p)


def series_strip(x: int, p: int) -> tuple[int, int]:
    """(v, x / p**v) for nonzero packed x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


class SchoolbookSeries:
    """A precision-tracked element of F_p[[t]] (or its fraction field) on the
    schoolbook digit ops: ``t^v * u + O(t^(v+rel))`` with ``u`` base-p
    packed, or ``O(t^v)`` when ``bigoh``.  Follows the same ultrametric
    precision rules as the package's elements, so every result can be
    compared through ``to_json`` and ``repr``."""

    def __init__(self, p: int, bigoh: bool, v: int, u: int = 0, rel: int = 0):
        self.p, self.bigoh, self.v, self.u, self.rel = p, bigoh, v, u, rel

    def abs_prec(self) -> int:
        return self.v if self.bigoh else self.v + self.rel

    def __add__(self, other):
        p = self.p
        n = min(self.abs_prec(), other.abs_prec())
        if self.bigoh and other.bigoh:
            return SchoolbookSeries(p, True, n)
        m = min(self.v, other.v)
        ndig = n - m
        if ndig <= 0:
            return SchoolbookSeries(p, True, n)
        x = 0 if self.bigoh else self.u * p ** (self.v - m)
        y = 0 if other.bigoh else other.u * p ** (other.v - m)
        s = series_add(x, y, p, ndig)
        if s == 0:
            return SchoolbookSeries(p, True, n)
        v, u = series_strip(s, p)
        return SchoolbookSeries(p, False, m + v, u, ndig - v)

    def __neg__(self):
        if self.bigoh:
            return self
        return SchoolbookSeries(self.p, False, self.v, series_neg(self.u, self.p, self.rel), self.rel)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        p = self.p
        if self.bigoh or other.bigoh:
            return SchoolbookSeries(p, True, self.v + other.v)
        rel = min(self.rel, other.rel)
        return SchoolbookSeries(p, False, self.v + other.v, series_mul(self.u, other.u, p, rel), rel)

    def __truediv__(self, other):
        """Division by a unit form (the caller rules out O(t^n) divisors)."""
        p = self.p
        if self.bigoh:
            return SchoolbookSeries(p, True, self.v - other.v)
        rel = min(self.rel, other.rel)
        u = series_mul(self.u, series_inv(other.u, p, rel), p, rel)
        return SchoolbookSeries(p, False, self.v - other.v, u, rel)

    def lift_to_precision(self, n: int):
        rel = n - self.v
        if self.bigoh or rel < 1:
            return SchoolbookSeries(self.p, True, n)
        return SchoolbookSeries(self.p, False, self.v, self.u % self.p**rel, rel)

    def to_json(self) -> dict:
        if self.bigoh:
            return {"bigoh": self.v}
        return {"v": self.v, "digits": str(self.u), "rel": self.rel}

    def __repr__(self) -> str:
        if self.bigoh:
            return f"O(t^{self.v})"
        head = f"{self.u}" if self.v == 0 else f"{self.u}*t^{self.v}"
        return f"{head} + O(t^{self.abs_prec()})"


# ---------------------------------------------------------------------------
# element arithmetic case by case
# ---------------------------------------------------------------------------
#
# The package writes its precision rules once, as one formula on an
# element's fields (v, u, rel) for both shapes.  These are the same rules
# written out per shape, big-oh zero or unit form, reading elements through
# their public face and computing on their ring's digit ops; results are
# built through the public constructors, which check that a unit form's
# unit is a unit.


def _shape(e) -> tuple[bool, int, int, int]:
    """(big-oh?, valuation or bound, stored unit, relative precision)."""
    if e.is_zeroish:
        return True, e.val_lower_bound, 0, 0
    return False, e.valuation, e.cfg.ops.encode(e.unit_digits), e.rel_prec


def _unit(like, v: int, u: int, rel: int):
    """pi^v u + O(pi^(v+rel)) in like's ring, u a stored unit."""
    return type(like).unit_form(like.cfg, v, like.cfg.ops.decode(u), rel)


def elem_neg(x):
    bigoh, v, u, rel = _shape(x)
    if bigoh:
        return x
    return _unit(x, v, x.cfg.ops.neg(u, rel), rel)


def elem_add(x, y):
    """The smaller absolute precision n stays; the digits from the smaller
    valuation m up to n are summed."""
    ops, bigoh = x.cfg.ops, type(x).bigoh
    xz, xv, xu, _ = _shape(x)
    yz, yv, yu, _ = _shape(y)
    n = min(x.abs_prec, y.abs_prec)
    if xz and yz:
        return bigoh(x.cfg, n)
    m = min(xv, yv)
    ndig = n - m
    if ndig <= 0:
        return bigoh(x.cfg, n)
    a = 0 if xz else ops.shift(xu, xv - m)
    b = 0 if yz else ops.shift(yu, yv - m)
    s = ops.add(a, b, ndig)
    if s == 0:
        return bigoh(x.cfg, n)
    v, stripped = ops.strip(s)
    return _unit(x, m + v, stripped, ndig - v)


def elem_sub(x, y):
    return elem_add(x, elem_neg(y))


def elem_mul(x, y):
    """Valuations add; the smaller relative precision stays."""
    xz, xv, xu, xr = _shape(x)
    yz, yv, yu, yr = _shape(y)
    if xz or yz:
        return type(x).bigoh(x.cfg, xv + yv)
    rel = min(xr, yr)
    return _unit(x, xv + yv, x.cfg.ops.mul(xu, yu, rel), rel)


def elem_div(x, y):
    """Valuations subtract; the smaller relative precision stays.  Raises
    DivisionByUnknownZero when y is a big-oh zero."""
    from dvrlu.errors import DivisionByUnknownZero

    ops = x.cfg.ops
    xz, xv, xu, xr = _shape(x)
    yz, yv, yu, yr = _shape(y)
    if yz:
        raise DivisionByUnknownZero(f"division by {y!r}, indistinguishable from zero")
    if xz:
        return type(x).bigoh(x.cfg, xv - yv)
    rel = min(xr, yr)
    return _unit(x, xv - yv, ops.mul(xu, ops.inv(yu, rel), rel), rel)


# ---------------------------------------------------------------------------
# the naive elimination on elements
# ---------------------------------------------------------------------------


def naive_elimination(m):
    """Textbook row elimination without pivoting on the matrix's own
    elements, in the case-by-case arithmetic above: (L, pivot valuations),
    or DivisionByUnknownZero at a pivot indistinguishable from zero.  This
    is the element loop that
    ``dvrlu.lu_stable._naive_elimination`` runs on entry fields; both must
    agree field for field on every input of working precision >= 1."""
    from dvrlu.errors import DivisionByUnknownZero

    d = m.nrows
    n = max(e.abs_prec for row in m.rows for e in row)
    u = m.copy()
    lower = type(m).identity_like(m, d, n)
    pivot_vals = []
    for j in range(d):
        piv = u[j, j]
        if piv.is_zeroish:
            raise DivisionByUnknownZero(
                f"naive elimination hit zeroish pivot at column {j}"
            )
        pivot_vals.append(piv.valuation)
        for i in range(j + 1, d):
            s = elem_div(u[i, j], piv)
            lower[i, j] = s
            for k in range(j + 1, d):  # no later step reads column j of u
                u[i, k] = elem_sub(u[i, k], elem_mul(s, u[j, k]))
    return lower, pivot_vals


def series_product(a, b):
    """Coefficients of the product of two series coefficient lists of one
    order, in R[[X]]/(X^order), by element arithmetic in ascending index."""
    out = []
    for k in range(len(a)):
        acc = elem_mul(a[0], b[k])
        for i in range(1, k + 1):
            acc = elem_add(acc, elem_mul(a[i], b[k - i]))
        out.append(acc)
    return out


def series_quotient(f, g):
    """Long division of two series coefficient lists of one order, by
    element arithmetic in ascending index; g[0] must be a unit form."""
    q = []
    for k in range(len(f)):
        acc = f[k]
        for i in range(1, k + 1):
            acc = elem_sub(acc, elem_mul(g[i], q[k - i]))
        q.append(elem_div(acc, g[0]))
    return q


def poly_product(f, g):
    """Full product of two coefficient lists by element arithmetic, each
    coefficient summed in ascending index of f."""
    out = [None] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            term = elem_mul(fi, gj)
            out[i + j] = term if out[i + j] is None else elem_add(out[i + j], term)
    return out


def _poly_sum(f, g):
    """Sum of two coefficient lists; missing high coefficients are exact zeros."""
    k = min(len(f), len(g))
    return [elem_add(a, b) for a, b in zip(f, g)] + f[k:] + g[k:]


def poly_det(rows):
    """Determinant of a small polynomial matrix (coefficient lists, lowest
    first) by Laplace expansion down the first column, in element
    arithmetic.  Exponential in the dimension: the reference that
    ``dvrlu.sheaf.verify_local_equivalence``'s polynomial-time checks are
    compared with at small d."""
    d = len(rows)
    if d == 1:
        return rows[0][0]
    terms = []
    for i in range(d):
        minor = [[rows[r][c] for c in range(1, d)] for r in range(d) if r != i]
        term = poly_product(rows[i][0], poly_det(minor))
        terms.append([elem_neg(c) for c in term] if i % 2 else term)
    return reduce(_poly_sum, terms)


def scalar_det(m):
    """Laplace-expansion determinant of a small scalar matrix."""
    return poly_det([[[m[i, j]] for j in range(m.ncols)] for i in range(m.nrows)])[0]


# ---------------------------------------------------------------------------
# the full-pivot elimination on elements
# ---------------------------------------------------------------------------


def _pivots(rows):
    """The unit-form entries of the square block that leads rows, best
    pivot first: full pivoting by valuation, ties to the larger relative
    precision."""
    keyed = [
        ((e.valuation, -e.rel_prec), i, j)
        for i, row in enumerate(rows) for j, e in enumerate(row[:len(rows)]) if not e.is_zeroish
    ]
    return [(i, j) for _, i, j in sorted(keyed)]


def greedy_elimination(rows, first: int):
    """One attempt of the full-pivot elimination on the elements of a square
    matrix's rows, in the case-by-case arithmetic above: candidate
    ``first`` of :func:`_pivots` at the first step and the best one after,
    each step taking the Schur complement of its pivot.  Returns the
    determinant and, when each row carries d more entries (the identity's),
    the rows of the inverse; or None once a remaining block has no
    unit-form entry.  For the inverse the rows of earlier pivots are
    cleared too (Gauss-Jordan)."""
    d = len(rows)
    inverse = len(rows[0]) > d
    cols, done = list(range(d)), []  # done: (column, pivot, row) of earlier steps
    det, k = None, first
    while rows:
        cands = _pivots(rows)
        if len(cands) <= k:
            return None
        r, c = cands[k]
        piv, prow = rows[r][c], rows[r]
        signed = elem_neg(piv) if (r + c) % 2 else piv
        det = signed if det is None else elem_mul(det, signed)

        def cleared(row):
            q = elem_div(row[c], piv)
            return [elem_sub(x, elem_mul(q, y)) for j, (x, y) in enumerate(zip(row, prow)) if j != c]

        if inverse:
            done = [(j, pv, cleared(row)) for j, pv, row in done]
        done.append((cols.pop(c), piv, [y for j, y in enumerate(prow) if j != c]))
        rows, k = [cleared(row) for i, row in enumerate(rows) if i != r], 0
    inv = [None] * d
    for j, piv, row in done:
        inv[j] = [elem_div(x, piv) for x in row]
    return det, inv


def full_pivot(m, inverse: bool = False):
    """(det, m^-1 or None) from the first :func:`greedy_elimination` of m
    that is not None, over its first pivots in order, or None.  For the
    inverse the identity, at the largest entry precision, rides along as d
    more columns.  This is the element loop that
    ``dvrlu.lu_stable._full_pivot`` runs on entry fields; both must agree
    field for field."""
    d = m.nrows
    rows = [list(row) for row in m.rows]
    if inverse:
        n = max(e.abs_prec for row in rows for e in row)
        one, zero = m[0, 0].like_one(n), m[0, 0].like_zero(n)
        rows = [row + [one if k == i else zero for k in range(d)] for i, row in enumerate(rows)]
    for first in range(len(_pivots(rows))):
        got = greedy_elimination(rows, first)
        if got is not None:
            return got[0], type(m)(got[1]) if inverse else None
    return None


# ---------------------------------------------------------------------------
# one step of the flat elimination on residues, reducing every entry
# ---------------------------------------------------------------------------


def eager_stepper(n: int, cfg):
    """step(mats, i, j) runs step (i, j) of the flat elimination over ring
    cfg on mats[0], given as columns of residues mod pi^n, and applies its
    swap and update to every column list of mats (accumulated transforms).

    The reference for ``dvrlu.kernel.stepper``: every entry of every column
    it writes is reduced mod pi^n, every row of every column is updated, and
    the column update is the ring's add, neg and mul.  The step replaces
    columns, never changes one in place.  Raises AmbiguousValuation when the
    swap comparison has both operands 0 mod pi^n.
    """
    from dvrlu.element import PrecElem, valuation_less

    ops = cfg.ops
    strip, unshift, mul = ops.strip, ops.unshift, ops.mul
    pivots = {}

    def update(xs, ys, s, n):
        return [ops.add(a, ops.neg(mul(s, b, n), n), n) for a, b in zip(xs, ys)]

    def pivot(x):
        # v and the unit's inverse mod pi^(n - v), for x != 0
        got = pivots.get(x)
        if got is None:
            v, u = strip(x)
            got = pivots[x] = (v, ops.inv(u, n - v))
        return got

    def step(mats, i, j):
        cols = mats[0]
        e, piv = cols[j][i], cols[i][i]
        if piv == 0 and e == 0:  # undecided: raises AmbiguousValuation
            valuation_less(PrecElem.bigoh(cfg, n), PrecElem.bigoh(cfg, n))
        if piv == 0 or (e != 0 and strip(e)[0] < pivot(piv)[0]):
            for x in mats:
                x[i], x[j] = x[j], x[i]
            e, piv = piv, e
        if e == 0:
            return
        v, inv = pivot(piv)
        s = mul(unshift(e, v), inv, n - v)
        for x in mats:
            x[j] = update(x[j], x[i], s, n)

    return step


# ---------------------------------------------------------------------------
# elimination orders
# ---------------------------------------------------------------------------


def is_nice_order(pairs: Sequence[tuple[int, int]], d: int) -> bool:
    """Check the two defining conditions of a nice elimination order on the
    strictly-upper positions (i, j), 0-indexed, i < j:

    1. within a column, earlier rows first: i <= i' < j implies (i, j)
       comes no later than (i', j);
    2. a column is complete before serving as pivot: j <= i' implies (i, j)
       comes no later than (i', j').
    """
    pos = {p: r for r, p in enumerate(pairs)}
    if len(pos) != d * (d - 1) // 2:
        return False
    for (i, j), r in pos.items():
        if not (0 <= i < j < d):
            return False
        for (a, b), r2 in pos.items():
            if b == j and i <= a and r > r2 and (a, b) != (i, j):
                return False
            if j <= a and r > r2:
                return False
    return True


def elimination_order(d: int, threshold: int = 32) -> list[tuple[int, int]]:
    """The global order in which :func:`recursive_lv` clears positions of
    an integral input (its bands of at most threshold rows by column-major
    scalar steps).

    Raises ValueError when threshold is below 1, as recursive_lv does.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")

    def scalar(cols: list[int]) -> list[tuple[int, int]]:
        return [(cols[i], cols[j]) for j in range(len(cols)) for i in range(j)]

    def band(rows: list[int], ycols: list[int]) -> list[tuple[int, int]]:
        k, w = len(rows), len(ycols)
        if w == 0:
            return []
        if k <= threshold:
            return [(row, yc) for yc in ycols for row in rows]
        c, w1 = k // 2, w // 2
        return (
            band(rows[:c], ycols[:w1])
            + band(rows[:c], ycols[w1:])
            + band(rows[c:], ycols[:w1])
            + band(rows[c:], ycols[w1:])
        )

    def rec(cols: list[int]) -> list[tuple[int, int]]:
        if len(cols) <= threshold:
            return scalar(cols)
        dp = len(cols) // 2
        return rec(cols[:dp]) + band(cols[:dp], cols[dp:]) + rec(cols[dp:])

    return rec(list(range(d)))
