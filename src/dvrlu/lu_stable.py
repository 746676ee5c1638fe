"""Precision-stable column elimination over a DVR.

Everything here computes variants of the LU factorization of a square
matrix whose entries carry finite precision, using the valuation-aware
pivoting rule: before clearing entry (i, j) we swap columns i and j whenever
v(entry) < v(pivot), so the pivot of every division has minimal valuation
among the candidates and the division loses as little relative precision as
possible.  The elimination scalar is re-lifted to the working absolute
precision N before every column update; for an integral input known at flat
precision N this keeps *every* intermediate entry at absolute precision
exactly N (the update subtracts a term of absolute precision >= N from an
entry of absolute precision N), which is what the precision guarantees — and
the bit-identical fast variants — rely on.  So every elimination that
returns a factor works on its input capped to the smallest entry precision
N (:func:`_flattened`): a cleared entry is exactly zero only up to the
precision of its row.

That step — swap test, pivot guard, re-lifted scalar, column update — is
:func:`_pivot_step`, the only code that swaps or updates columns of
elements, and :func:`_eliminate`, its only caller, is the one round loop:
every elimination here reads its yields.

On integral input :func:`_eliminate` runs its steps on the integer kernel,
on the residues mod pi^N :func:`_flattened` reads (:func:`vij_statistics`,
which reads entries uncapped, only when each is known to exactly N);
:mod:`dvrlu.kernel` says which input takes it.  The naive elimination under
:func:`naive_gauss_l` and :func:`lift_recompute_l` is not flat; it runs on
entry fields (:func:`_naive_elimination`), and so does the one full-pivot
elimination (:func:`_full_pivot`), which decides every invertibility the
randomized solvers certify and returns the determinant and, asked for it,
the inverse.

Provided algorithms:

* :func:`vij_statistics` — runs the elimination recording the valuation
  profile (the off-diagonal comparison reads, the round-end pivots, the
  partial diagonal sums) without producing a factor;
* :func:`naive_gauss_l` — textbook row elimination without pivoting, as the
  unstable baseline;
* :func:`lift_recompute_l` — the lift-and-recompute workaround: zero-pad the
  input, run the naive elimination at the higher precision, certify the
  result from the observed pivot valuations;
* :func:`stable_l` — the pivoted elimination returning the unit lower
  triangular factor with sharp per-entry precision;
* :func:`lv_decomposition` — same elimination, additionally accumulating the
  column transform and snapshotting (L', V') at round boundaries;
* :func:`lv_to_l`, :func:`hermite_from_lv` — conversions from the split
  decomposition to the triangular factor and to the Hermite normal form;
* :func:`block_l`, :func:`block_l_unitlower` — the block-unit-lower variants
  (generic over scalar and truncated-series entries).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import kernel
from .digits import PadicDigits
from .element import PrecElem, _fields, _neg, _plus, _refuse_mixed, _times, valuation_less
from .errors import (
    DegenerateDecomposition,
    DegenerateInput,
    DivisionByUnknownZero,
    InsufficientLift,
)
from .matrix import PrecMatrix
from .series import SeriesElem


def _square_dim(m: PrecMatrix) -> int:
    if m.nrows != m.ncols:
        raise ValueError("square matrix required")
    return m.nrows


def _scalar_dim(m: PrecMatrix, what: str) -> int:
    """The dimension of square m, after refusing any entry that is not a
    :class:`~dvrlu.element.PrecElem`: `what` reads scalar valuations, which
    a truncated series over the ring (``SeriesElem``) does not have."""
    d = _square_dim(m)
    for row in m.rows:
        for e in row:
            if not isinstance(e, PrecElem):
                raise ValueError(f"{what} needs PrecElem entries, got {type(e).__name__}")
    return d


def working_precision(m: PrecMatrix) -> int:
    """The largest precision any entry carries (= the flat precision for
    flat inputs)."""
    return max(e.abs_prec for r in m.rows for e in r)


def _require_digits(n: int) -> int:
    """n, or ValueError unless the working precision n leaves a digit to
    eliminate on."""
    if n < 1:
        raise ValueError(f"working precision N = {n}: an elimination needs N >= 1")
    return n


def _flattened(m: PrecMatrix) -> tuple[PrecMatrix, int, Optional[list[list[int]]]]:
    """(omega, N, cols): m at its smallest entry precision N, for
    :func:`_eliminate`.

    The eliminations that return a factor work on m capped at N: a cleared
    entry is treated as exactly zero, which it is only up to the precision
    of its row, so a digit beyond the smallest precision cannot be claimed.
    cols is m's columns as residues mod pi^N, read once by
    :func:`~dvrlu.kernel.ints`, which reads an entry as if capped at N, and
    omega is m itself, which the kernel never changes; or, when the kernel
    refuses m, cols is None and omega a copy of m capped at N.
    :func:`vij_statistics` reads entries uncapped, so it reads m itself.
    Raises ValueError when N is below 1 (an entry of negative valuation
    known to precision <= 0).
    """
    n = _require_digits(m.min_abs_prec())
    cols = kernel.ints(zip(*m.rows), n, m.rows[0][0].cfg)
    return (m if cols is not None else m.cap_abs(n)), n, cols


def _identity(size: int) -> list[list[int]]:
    return [[int(i == j) for j in range(size)] for i in range(size)]


def _pivot_step(omega: PrecMatrix, i: int, j: int, n: int, *extras: PrecMatrix) -> None:
    """One elimination step: clear (i, j) using pivot (i, i).

    Columns i and j are swapped first when v(omega[i, j]) < v(omega[i, i])
    (compared through ``pivot_scalar``).  The pivot is then of known
    valuation: :func:`~dvrlu.element.valuation_less` swaps in an entry of
    known valuation or raises AmbiguousValuation, so the division below never
    meets a zeroish pivot.  The scalar is lifted to absolute precision n
    before the column update (choosing a representative; the transform
    identity is exact for any representative, and for flat inputs this is
    what keeps precision flat).  Swap and update are applied to every extra
    matrix too (accumulated transforms).
    """
    mats = (omega, *extras)
    if valuation_less(omega[i, j].pivot_scalar(), omega[i, i].pivot_scalar()):
        for x in mats:
            x.swap_cols(i, j)
    s = (omega[i, j] / omega[i, i]).lift_to_precision(n)
    for x in mats:
        x.sub_scaled_col(s, i, j)


# ---------------------------------------------------------------------------
# valuation profile, and the one full-pivot elimination (determinant and
# inverse; no factor)
# ---------------------------------------------------------------------------


@dataclass
class VijProfile:
    """Valuation profile of one pivoted elimination.

    Attributes:
        table: (i, j) -> valuation read at that point of the elimination,
            0-indexed.  For i < j this is v of entry (i, j) *before* the
            round-j swap test at step i; for i == j it is the diagonal
            valuation at the end of round j.  None when the entry was
            indistinguishable from zero (only its precision bound is known).
        boundary_sums: partial sums sum(v(omega[k, k]) for k <= j) re-read at
            the end of round j (later swaps can change earlier diagonal
            entries, so these are genuine re-reads, not a running total;
            :func:`_minor_val`).
            These equal the valuations of the leading principal minors.
        det_val: valuation of det(M) = last boundary sum (None if any final
            diagonal entry was indistinguishable from zero).
        swaps: the (i, j) column swaps performed, in order.
        vl: the factor's max denominator exponent
            max(0, -min_j min_{i>j} (v(omega[i, j]) - v(omega[j, j]))), the
            quotient valuations read at the end of each round.  An int when
            determined; a (lo, hi) tuple when zeroish entries could hide
            smaller valuations than the known minimum; None when a diagonal
            read was indistinguishable from zero.
    """

    table: dict = field(default_factory=dict)
    boundary_sums: list = field(default_factory=list)
    det_val: Optional[int] = None
    swaps: list = field(default_factory=list)
    vl: object = None


def _val_or_none(e) -> Optional[int]:
    s = e.pivot_scalar()
    return None if s.is_zeroish else s.valuation


def _minor_val(at, j: int) -> Optional[int]:
    """S_j, the valuation of the leading principal minor of order j + 1
    at the end of round j: the sum of the diagonal valuations (of
    ``pivot_scalar``) through entry (j, j), read through ``at`` as
    :func:`_eliminate` yields it, or None when one of them is
    indistinguishable from zero.  S_(-1) = 0."""
    vals = [_val_or_none(at(0, k, k)) for k in range(j + 1)]
    return None if None in vals else sum(vals)


def vij_statistics(m: PrecMatrix) -> VijProfile:
    """Run the pivoted column elimination recording its valuation profile.

    Scalars are lifted to the smallest entry precision N, as in the
    eliminations that return a factor, but the entries are read uncapped,
    so a value read before any update keeps every digit its entry carries.

    Raises AmbiguousValuation when a swap decision is not forced by the
    known precision, ValueError for an entry that is not a PrecElem or when
    N is below 1.
    """
    d = _scalar_dim(m, "vij_statistics")
    precs = {e.abs_prec for row in m.rows for e in row}
    n = _require_digits(min(precs))
    # an entry known beyond N keeps its further digits on the object path
    cols = kernel.ints(zip(*m.rows), n, m.rows[0][0].cfg) if len(precs) == 1 else None
    prof = VijProfile()
    quotients = []  # (numerator, pivot valuation) below each round's pivot
    vl_defined = True
    pivot = None  # entry (i, i) before step (i, j)
    for i, j, at, col in _eliminate(m if cols is not None else m.copy(), n, cols):
        # only a swap changes column i - 1 in step (i - 1, j)
        if i and at(0, i - 1, i - 1) != pivot:
            prof.swaps.append((i - 1, j))
        prof.table[(i, j)] = _val_or_none(at(0, i, j))
        if i < j:
            pivot = at(0, i, i)
            continue
        prof.boundary_sums.append(_minor_val(at, j))
        if j < d - 1:
            piv = at(0, j, j)
            vl_defined = vl_defined and not piv.is_zeroish
            if vl_defined:
                quotients += [(e, piv.valuation) for e in col(0, j)[j + 1:]]
    prof.det_val = prof.boundary_sums[-1]
    prof.vl = _vl_bound(quotients) if vl_defined else None
    return prof


def _vl_bound(quotients):
    """max(0, -min v(q)) over quotients q given as (numerator, v(denominator))
    pairs: an int, or the interval (lo, hi) when a numerator
    indistinguishable from zero could hide a valuation below the known
    minimum."""
    quotients = list(quotients)
    known_min = min([0] + [e.valuation - v for e, v in quotients if not e.is_zeroish])
    hidden = [e.val_lower_bound - v for e, v in quotients if e.is_zeroish]
    if not hidden or min(hidden) >= known_min:
        return -known_min
    return (-known_min, -min(hidden))


def _greedy(ops, a: list[list], d: int, first: int):
    """One attempt of :func:`_full_pivot` on the fields a of d rows (the
    identity's columns after column d, if any), which it mutates: pivot
    candidate ``first`` at the first step, the best one after.  Returns the
    determinant's fields and the steps (r, c, pivot inverse), or None once
    the remaining block has no unit-form entry."""
    live_r, live_c, steps = list(range(d)), list(range(d)), []
    extra = list(range(d, len(a[0])))
    det, k = None, first
    while live_r:
        cands = sorted(
            ((a[i][j][0], -a[i][j][2]), x, y)
            for x, i in enumerate(live_r) for y, j in enumerate(live_c) if a[i][j][2]
        )
        if len(cands) <= k:
            return None
        _, x, y = cands[k]
        r, c = live_r.pop(x), live_c.pop(y)
        pv, pu, pr = piv = a[r][c]
        signed = _neg(ops, piv) if (x + y) % 2 else piv
        det = signed if det is None else _times(ops, det, signed)
        piv_inv = (-pv, ops.inv(pu, pr), pr)
        prow, ks = a[r], live_c + extra
        # Gauss-Jordan clears the rows of earlier pivots too
        for i in (live_r + [s[0] for s in steps]) if extra else live_r:
            row = a[i]
            q = _neg(ops, _times(ops, row[c], piv_inv))
            for kk in ks:
                row[kk] = _plus(ops, row[kk], _times(ops, q, prow[kk]))
        steps.append((r, c, piv_inv))
        k = 0
    return det, steps


def _full_pivot(m: PrecMatrix, inverse: bool):
    """(det, m^-1) of a small scalar matrix by one full-pivot elimination
    on entry fields, or None when the determinant is indeterminate; m^-1 is
    None unless asked for.

    Every entry keeps its own precision (nothing is flattened, so negative
    valuations and ``O(pi^k)`` with k <= 0 are fine) under the element
    rules ``_plus``, ``_times`` and ``_neg``, which are sound one operation
    at a time.  Each step pivots on the remaining unit-form entry of least
    valuation, ties to the larger relative precision, and clears its column
    in the other remaining rows; det is the signed product of the pivots.
    When that greedy order (O(d^3)) ends on a block with no unit-form
    entry, each other first pivot is tried (O(d^5), on indeterminate input
    only): on uneven precision the order decides how far errors spread.
    For m^-1 the identity, at the largest entry precision, rides along as d
    more columns and every other row is cleared (Gauss-Jordan).
    ``tests/oracles.py`` keeps this loop on elements as the reference.
    """
    d = _square_dim(m)
    cfg = m.rows[0][0].cfg
    ops = cfg.ops
    rows = [_fields(cfg, row) for row in m.rows]
    if inverse:
        n = _require_digits(working_precision(m))
        one, zero = _fields(cfg, [PrecElem.unit_form(cfg, 0, 1, n), PrecElem.bigoh(cfg, n)])
        rows = [row + [one if k == i else zero for k in range(d)] for i, row in enumerate(rows)]
    for first in range(sum(e[2] > 0 for row in rows for e in row[:d])):
        a = [list(row) for row in rows]
        got = _greedy(ops, a, d, first)
        if got is None:
            continue
        det, steps = got
        if not inverse:
            return PrecElem(cfg, det), None
        inv = [None] * d
        for r, c, piv_inv in steps:
            inv[c] = [PrecElem(cfg, _times(ops, x, piv_inv)) for x in a[r][d:]]
        return PrecElem(cfg, det), PrecMatrix(inv)
    return None


def _pivoted_det(m: PrecMatrix) -> PrecElem | None:
    """The determinant of :func:`_full_pivot`, or None when indeterminate."""
    got = _full_pivot(m, inverse=False)
    return None if got is None else got[0]


# ---------------------------------------------------------------------------
# naive elimination and the lift-and-recompute workaround
# ---------------------------------------------------------------------------


def _naive_elimination(m: PrecMatrix) -> tuple[PrecMatrix, list[int]]:
    """Textbook row elimination without pivoting: the unit lower triangular
    L and the successive pivot valuations.

    For i > j, step j sets L[i, j] = s = u[i, j] / u[j, j] and
    u[i, k] = u[i, k] - s * u[j, k] for k > j (no later step reads column j
    of u), in :class:`~dvrlu.element.PrecElem` arithmetic: every entry's
    precision evolves on its own, so this is no flat elimination and the
    integer kernel does not apply.  The loop runs on each entry's fields
    ``(v, u, rel)`` (:mod:`dvrlu.element`), read once, inverts the pivot's
    unit once per column and builds elements only for L, equal field for
    field to the element arithmetic's (``tests/oracles.py`` keeps that loop
    as the reference).  ``F_p[[t]]`` runs the element's rules ``_times``,
    ``_plus`` and ``_neg`` on the fields.

    ``Z_p`` runs the update on ints and a table of powers of p instead, the
    one inline copy of the rules: t = s * b, b = u[j, k], has valuation
    vt = vs + vb and keeps the smaller relative precision, and a - t,
    a = u[i, k], keeps n = min(abs(a), abs(t)) and is
    ``au p^(va - m) - su bu p^(vt - m)`` mod p^(n - m), m = min(va, vt),
    split into valuation and unit, or ``O(p^n)`` when that is zero or
    n <= m (the rule's truncation of t to rt digits drops only digits at
    or above p^n).  The copy is the measured speed-up of running this loop
    on fields: acceptance 02 (30 naive and 30 stable eliminations at
    d = 125, N = 100) went from 181 to 59 s with it, and calling the rules
    instead makes one such naive elimination about 2.5-3x slower (2-core
    x86_64 machine).

    Raises DivisionByUnknownZero when a pivot is indistinguishable from
    zero, ValueError when the largest entry precision N is below 1.
    """
    d = _square_dim(m)
    n = _require_digits(working_precision(m))
    cfg = m.rows[0][0].cfg
    ops = cfg.ops
    p, padic = ops.p, isinstance(ops, PadicDigits)
    rows = [_fields(cfg, row) for row in m.rows]
    lo = min(e[0] for row in rows for e in row)  # no valuation (bound) goes lower
    pows = [1]  # powers of p, grown per column as far as its exponents reach
    lower = PrecMatrix.identity_like(m, d, n)
    pivot_vals = []
    for j in range(d):
        prow = rows[j]
        pv, pu, pr = prow[j]
        if not pr:
            raise DivisionByUnknownZero(
                f"naive elimination hit zeroish pivot at column {j}"
            )
        pivot_vals.append(pv)
        ks = range(j + 1, d)
        if not ks:
            break
        inverse = (-pv, ops.inv(pu, pr), pr)
        if padic:
            # each exponent below (va - m, vt - m, n - m) is at most
            # max(N, vt) - lo: precisions stay <= N, valuations >= lo
            svs = [rows[i][j][0] - pv for i in ks]
            bvs = [prow[k][0] for k in ks]
            lo = min(lo, min(svs) + min(bvs))
            while len(pows) <= max(n, max(svs) + max(bvs)) - lo:
                pows.append(pows[-1] * p)
        for i in ks:
            row = rows[i]
            s = _times(ops, row[j], inverse)
            lower[i, j] = PrecElem(cfg, s)
            if not padic:
                for k in ks:
                    row[k] = _plus(ops, row[k], _neg(ops, _times(ops, s, prow[k])))
                continue
            sv, su, sr = s
            for k in ks:
                av, au, ar = row[k]
                bv, bu, br = prow[k]
                tv = sv + bv
                tr = sr if sr < br else br
                nn = av + ar
                if tv + tr < nn:
                    nn = tv + tr
                mm = av if av < tv else tv
                nd = nn - mm
                r = (au * pows[av - mm] - su * bu * pows[tv - mm]) % pows[nd] if nd > 0 else 0
                if not r:
                    row[k] = (nn, 0, 0)
                    continue
                rv = 0
                while not r % p:
                    r //= p
                    rv += 1
                row[k] = (mm + rv, r, nd - rv)
    return lower, pivot_vals


def naive_gauss_l(m: PrecMatrix) -> PrecMatrix:
    """Unit lower triangular L by textbook row elimination, no pivoting.

    Precision is whatever the plain arithmetic yields — this is the unstable
    baseline whose entries lose precision proportional to the accumulated
    pivot valuations.  Raises DivisionByUnknownZero when a pivot is
    indistinguishable from zero, ValueError for an entry that is not a
    PrecElem.
    """
    _scalar_dim(m, "naive_gauss_l")
    return _naive_elimination(m)[0]


def lift_recompute_l(m: PrecMatrix, extra: Optional[int] = None) -> PrecMatrix:
    """Naive elimination made reliable by lifting first.

    Zero-pads the input from its precision N to N' = N + extra (choosing the
    representative with zero high digits), runs the naive elimination at N',
    reads off the pivot valuations W_1..W_d, and checks the certificate

        N' - N >= 2 * (sum(W_i) - max(W_i)).

    On success L[i, j] is correct at absolute precision
    min(N - 2*max(W), N - S_j + min(0, v(L[i, j]))) and is truncated there,
    where N is the smallest entry precision of the input and S_j = W_1 + ..
    + W_(j+1) the valuation of L[i, j]'s Cramer denominator.  On failure an
    InsufficientLift carries the minimal sufficient N'; if a pivot valuation
    was itself undeterminable at N' the exception suggests trying ceil(2d/q)
    digits higher.  A leading minor whose valuation S_j reaches N is
    indistinguishable from zero and raises DegenerateInput.

    Args:
        m: square matrix over the scalar ring.
        extra: how many digits to lift; default ceil(2d/q), the expected
            total pivot valuation margin for Haar-random input.  Raises
            ValueError when negative.
    """
    if extra is not None and extra < 0:
        raise ValueError(f"extra must be non-negative, got {extra}")
    d = _scalar_dim(m, "lift_recompute_l")
    n = _require_digits(m.min_abs_prec())
    q = m.rows[0][0].cfg.q
    if extra is None:
        extra = max(1, math.ceil(2 * d / q))
    n_hi = n + extra
    # digits beyond N are not claimed: pad m capped at N, not m
    lifted = m.cap_abs(n).lift_to_precision(n_hi)
    try:
        lower, pivot_vals = _naive_elimination(lifted)
    except DivisionByUnknownZero as exc:
        raise InsufficientLift(
            f"pivot valuation undeterminable at precision {n_hi}; "
            f"retry higher",
            required_prec=n_hi + max(1, math.ceil(2 * d / q)),
        ) from exc
    w_max = max(pivot_vals)
    need = 2 * (sum(pivot_vals) - w_max)
    if n_hi - n < need:
        raise InsufficientLift(
            f"lift of {n_hi - n} digits too small: pivot valuations "
            f"{pivot_vals} need {need}",
            required_prec=n + need,
        )
    for j, s_j in enumerate(itertools.accumulate(pivot_vals[:-1])):
        if s_j >= n:
            raise DegenerateInput(
                f"leading minor indistinguishable from zero at column {j}"
            )
        for i in range(j + 1, d):
            e = lower[i, j]
            lower[i, j] = e.cap_abs(_cramer_cap(n, s_j, e.val_lower_bound))
    return lower.cap_abs(n - 2 * w_max)


# ---------------------------------------------------------------------------
# the stable factorization
# ---------------------------------------------------------------------------


@dataclass
class StableL:
    """Result of :func:`stable_l`.

    Attributes:
        lower: unit lower triangular factor of the input itself;
            strictly-lower entries carry the guaranteed precision
            O(pi^(N - v_j + min(0, w))) where v_j is the j-th principal
            minor valuation and w the quotient's valuation offset.
        col_vals: v_j = S_j = sum(v(omega[k, k]) for k <= j) read at the
            end of round j (:func:`_minor_val`; the leading principal minor
            valuations of the input).
        n: the working absolute precision N.
    """

    lower: PrecMatrix
    col_vals: list
    n: int


def _cramer_cap(n: int, s: int, w: int) -> int:
    """The absolute precision that a factor entry of valuation w (its
    precision bound when it is indistinguishable from zero) can claim when
    it is a Cramer quotient over a denominator minor of valuation s,
    computed at flat precision n: ``n - s + min(0, w)``.

    Every cap on a factor entry is this one rule; what differs between the
    eliminations is which minor is the denominator:

    * :func:`stable_l` and :func:`lv_to_l`: column j of L over S_j, the
      leading minor read at the end of round j, with w the quotient's
      valuation v(numerator) - v(pivot);
    * :func:`lift_recompute_l`: column j over S_j = W_1 + .. + W_(j+1),
      with w = v(L[i, j]);
    * :func:`block_l`: the entries below a block over S_(hi-1), the
      leading minor at the block's last column hi - 1, read at the block's
      end (the cleared identity block is exact and claims N);
    * :func:`block_l_unitlower`: every strictly-lower entry of a block's
      columns over the largest S_k, k < hi, each read at the end of its own
      round (a round whose diagonal is indistinguishable from zero never
      divides and is skipped; the diagonal 1s are exact).

    Coefficient l of a truncated-series entry is a quotient over the
    minor's (l + 1)-th power: the inverse of a series g has coefficients of
    valuation as low as -(l + 1) v(g_0), so its s is (l + 1) times the
    minor's.

    The simultaneous certificate's ``N - 2v`` (:func:`dvrlu.simul._certify`)
    is no cap: it is the paper's guarantee, which the certificate checks
    against the precision the factor claims here, and it changes no claim.
    """
    return n - s + min(0, w)


def _quotients(xs: Sequence[PrecElem], den: PrecElem, caps) -> list[PrecElem]:
    """``[(x / den).cap_abs(c) for x, c in zip(xs, caps)]`` for scalar
    entries, field for field.  den is inverted once, x / den is x * den^-1,
    and the product and its cap run on fields: the product of fields
    (v, u, r) keeps the smaller relative precision r, so capped at c it
    keeps k = min(r, c - v) digits, or is O(pi^min(v + r, c)) when k < 1.
    A cap of ``math.inf`` leaves the product ``x * den^-1`` as it is."""
    iv, iu, ir = (den.like_one(den.rel_prec) / den)._f
    ops = den.cfg.ops
    out = []
    for x, c in zip(xs, caps):
        if x.cfg.ops is not ops:
            _refuse_mixed(x.cfg, den.cfg)
        xv, xu, xr = x._f
        v, r = xv + iv, xr if xr < ir else ir
        k = r if r < c - v else c - v
        out.append(PrecElem(x.cfg, (v, ops.mul(xu, iu, k), k)) if k > 0
                   else PrecElem.bigoh(x.cfg, v + r if v + r < c else c))
    return out


def _quotient_column(lower: PrecMatrix, j: int, col: Sequence[PrecElem], den: PrecElem,
                     v_round: int, n: int) -> None:
    """Set lower[i, j] = col[i] / den for i > j, each capped at its
    guaranteed absolute precision.

    The cap is :func:`_cramer_cap` over the minor S_j = v_round, with w the
    quotient's valuation v(numerator) - v(den) (the numerator's precision
    bound when it is indistinguishable from zero).  For flat integral
    inputs it never exceeds the quotient's natural precision; capping
    (never raising) keeps the claim honest for arbitrary inputs.
    """
    nums, vd = col[j + 1:], den.valuation
    caps = [_cramer_cap(n, v_round, e.val_lower_bound - vd) for e in nums]
    for i, q in enumerate(_quotients(nums, den, caps), j + 1):
        lower[i, j] = q


def stable_l(m: PrecMatrix) -> StableL:
    """Unit lower triangular factor via the valuation-pivoted elimination.

    Runs the column elimination with swap rule v(entry) < v(pivot) and
    scalars re-lifted to N, then after each round j fills column j of L with
    the quotients omega[i, j] / omega[j, j] (i > j) at the guaranteed
    precision.  Every swap up to round j stays within columns 0..j, so
    column j of L lies in the span of the input's first j + 1 columns and
    the factor satisfies M = L * U for the input M itself and some upper
    triangular U, with every strictly-lower entry correct at least at
    O(pi^(N - 2 * V)) where V bounds the principal minor valuations.

    Raises:
        AmbiguousValuation: a swap decision was not forced at this precision.
        DegenerateInput: a leading principal minor is indistinguishable
            from zero (a pivot is, or the minor's valuation reaches N).
        ValueError: an entry is not a PrecElem.
    """
    d = _scalar_dim(m, "stable_l")
    omega, n, cols = _flattened(m)
    lower = PrecMatrix.identity_like(m, d, n)
    col_vals = []
    for i, j, at, col in _eliminate(omega, n, cols):
        if i < j:
            continue
        v = _minor_val(at, j)
        if v is None or v >= n:
            raise DegenerateInput(
                f"leading minor indistinguishable from zero after round {j}"
            )
        col_vals.append(v)
        _quotient_column(lower, j, col(0, j), at(0, j, j), v, n)
    return StableL(lower=lower, col_vals=col_vals, n=n)


def _eliminate(omega: PrecMatrix, n: int, cols: Optional[list[list[int]]],
               transform: bool = False):
    """Run the pivoted elimination of square omega (and, with transform,
    of the accumulated transform from the identity), yielding (i, j, at, col)
    before each step (i, j) and (j, j, at, col) once round j is done.
    at(x, r, c) is entry (r, c) of omega (x = 0) or the transform (x = 1)
    then, and col(x, c) the list of column c's entries, for any column at a
    (j, j) yield and any column but j before step (i, j).

    The steps are :func:`~dvrlu.kernel.stepper` on cols, omega's residues
    (:func:`_flattened`), or :func:`_pivot_step` on omega when cols is
    None; either way a step runs only when asked for, and its errors are
    the object path's.  On the kernel omega is left as it was, so every
    entry is read through ``at`` or ``col``; ``at`` reduces the entry it
    reads, since column j holds unreduced residues in mid-round.
    """
    d = omega.nrows
    if cols is None:
        mats = (omega, PrecMatrix.identity_like(omega, d, n)) if transform else (omega,)
        at = lambda x, r, c: mats[x][r, c]
        col = lambda x, c: [row[c] for row in mats[x].rows]
        step = lambda i, j: _pivot_step(omega, i, j, n, *mats[1:])
    else:
        cfg = omega.rows[0][0].cfg
        colsets = (cols, _identity(d)) if transform else (cols,)
        elem, kernel_step, trunc = kernel.elements(cfg, n), kernel.stepper(n, cfg), cfg.ops.trunc
        at = lambda x, r, c: elem(trunc(colsets[x][c][r], n))
        col = lambda x, c: list(map(elem, colsets[x][c]))
        step = lambda i, j: kernel_step(colsets, i, j, i == j - 1)
    for j in range(d):
        for i in range(j):
            yield i, j, at, col
            step(i, j)
        yield j, j, at, col


def precision_loss(lower: PrecMatrix, n: int) -> int:
    """N minus the worst absolute precision among strictly-lower entries
    (0 for 1x1: the diagonal carries no information)."""
    d = lower.nrows
    worst = n
    for i in range(d):
        for j in range(i):
            a = lower[i, j].abs_prec
            if a < worst:
                worst = a
    return n - worst


# ---------------------------------------------------------------------------
# the split (LV) decomposition
# ---------------------------------------------------------------------------


@dataclass
class LvOutput:
    """Split decomposition: column snapshots plus the accumulated transform.

    Attributes:
        lp: L' — column j is the state of omega's column j at the end of
            round j (lower triangular up to the pivoting, numerators of the
            eventual L).
        vp: V' — column j is the state of the transform's column j at the
            same moment (denominator data).
        hp: H' — final omega = M * W'.
        wp: W' — final accumulated column transform (det ±1).
        col_val: valuation of H'[j, j] per column (None when zeroish).
        degenerate: True when some diagonal entry of L' is indistinguishable
            from zero (the decomposition is returned anyway; conversions
            refuse it).
    """

    lp: PrecMatrix
    vp: PrecMatrix
    hp: PrecMatrix
    wp: PrecMatrix
    col_val: list
    degenerate: bool

    def to_json(self) -> dict:
        return {
            "L'": self.lp.to_json(),
            "V'": self.vp.to_json(),
            "H'": self.hp.to_json(),
            "W'": self.wp.to_json(),
            "col_val": self.col_val,
            "degenerate": self.degenerate,
        }


def lv_decomposition(m: PrecMatrix) -> LvOutput:
    """Pivoted elimination accumulating the transform: H' = M * W'.

    Same elimination as :func:`stable_l` (swaps and updates applied to the
    transform as well), with columns of (omega, transform) snapshotted at
    the end of their round into (L', V').  Degeneracy (a zeroish diagonal
    in L') is reported via the flag, not an exception; only an unforced
    swap comparison raises (AmbiguousValuation).
    """
    _square_dim(m)
    return _lv_eliminated(*_flattened(m))


def _lv_eliminated(omega: PrecMatrix, n: int, cols: Optional[list[list[int]]]) -> LvOutput:
    """:func:`lv_decomposition` of the (omega, N, cols) that
    :func:`_flattened` returns for it."""
    d = omega.nrows
    lp, vp = [], []  # by columns
    for i, j, _, col in _eliminate(omega, n, cols, transform=True):
        if i == j:
            lp.append(col(0, j))
            vp.append(col(1, j))
    hp, wp = ([col(x, c) for c in range(d)] for x in (0, 1))
    return _lv_output(*(PrecMatrix(list(zip(*cols))) for cols in (lp, vp, hp, wp)))


def _lv_output(lp: PrecMatrix, vp: PrecMatrix, hp: PrecMatrix, wp: PrecMatrix) -> LvOutput:
    """The LvOutput of (L', V', H', W'), col_val and degenerate read off."""
    col_val = [_val_or_none(hp[j, j]) for j in range(hp.nrows)]
    degenerate = any(lp[j, j].is_zeroish for j in range(lp.nrows))
    return LvOutput(lp=lp, vp=vp, hp=hp, wp=wp, col_val=col_val, degenerate=degenerate)


def lv_to_l(out: LvOutput) -> PrecMatrix:
    """Recover the unit lower triangular factor from a split decomposition.

    L[i, j] = L'[i, j] / L'[j, j] at prescribed precision
    O(pi^(N - v_j + min(0, w))), where v_j = sum over k <= j of
    (v(L'[k, k]) - v(V'[k, k])) equals the j-th principal minor valuation of
    the input, and w is the valuation offset of the quotient.
    Produces exactly the factor :func:`stable_l` returns, entry for entry
    and precision for precision.

    Raises DegenerateDecomposition if a needed diagonal entry of L' or V'
    is indistinguishable from zero, or a minor valuation v_j reaches N, and
    ValueError if an entry of L' is not a PrecElem.
    """
    d = _scalar_dim(out.lp, "lv_to_l")
    n = working_precision(out.lp)
    lower = PrecMatrix.identity_like(out.lp, d, n)
    v = 0
    for j in range(d):
        lkk, vkk = out.lp[j, j], out.vp[j, j]
        v = n if lkk.is_zeroish or vkk.is_zeroish else v + lkk.valuation - vkk.valuation
        if v >= n:
            raise DegenerateDecomposition(
                f"leading minor at column {j} indistinguishable from zero"
            )
        _quotient_column(lower, j, [row[j] for row in out.lp.rows], lkk, v, n)
    return lower


def hermite_from_lv(out: LvOutput) -> PrecMatrix:
    """Hermite normal form H of the input from its split decomposition.

    With v_j = v(H'[j, j]) and u_j the unit part of H'[j, j]:
    H[j, j] = pi^v_j exactly (represented at absolute precision N),
    H[i, j] = H'[i, j] / u_j for i > j at absolute precision N - v_j, and
    everything above the diagonal is an exact zero O(pi^N).

    Raises DegenerateDecomposition when a diagonal entry of H' is
    indistinguishable from zero (the form requires unit-detectable pivots),
    and ValueError if an entry of H' is not a PrecElem.
    """
    d = _scalar_dim(out.hp, "hermite_from_lv")
    n = working_precision(out.hp)
    proto = out.hp.rows[0][0]
    h = PrecMatrix.zero_like(out.hp, d, d, n)
    for j in range(d):
        hjj = out.hp[j, j]
        if hjj.is_zeroish:
            raise DegenerateDecomposition(
                f"H' diagonal at column {j} indistinguishable from zero"
            )
        vj = hjj.valuation
        uj = hjj / PrecElem.unit_form(proto.cfg, vj, 1, hjj.rel_prec)
        h[j, j] = PrecElem.unit_form(proto.cfg, vj, 1, n - vj)
        below = [row[j] for row in out.hp.rows[j + 1:]]
        for i, e in enumerate(_quotients(below, uj, [n - vj] * len(below)), j + 1):
            h[i, j] = e
    return h


def _lower_dim(m: PrecMatrix) -> int:
    """The dimension of a square lower triangular m, after checking that no
    diagonal entry is indistinguishable from zero (DegenerateInput)."""
    d = _square_dim(m)
    for j in range(d):
        if m[j, j].is_zeroish:
            raise DegenerateInput(
                f"diagonal entry {j} indistinguishable from zero"
            )
    return d


def lower_triangular_inverse(m: PrecMatrix) -> PrecMatrix:
    """Inverse of a lower triangular matrix by forward substitution.

    Strictly-upper entries are treated as the exact zeros they are (the
    elimination leaves O(pi^N) there).  Raises DegenerateInput when a
    diagonal entry is indistinguishable from zero.  Works for scalar and
    series entries alike; no precision capping is applied.
    """
    d = _lower_dim(m)
    n = working_precision(m)
    out = PrecMatrix.zero_like(m, d, d, n)
    for c in range(d):
        for i in range(c, d):
            if i == c:
                acc = m[i, i].like_one(n)
            else:
                acc = None
            for k in range(c, i):
                term = m[i, k] * out[k, c]
                acc = -term if acc is None else acc - term
            out[i, c] = acc / m[i, i]
    return out


def _lower_solve(m: PrecMatrix, b: PrecMatrix) -> PrecMatrix:
    """X with ``m X = b`` for lower triangular m, by forward substitution:
    ``X[i] = (b[i] - sum_{k<i} m[i, k] X[k]) / m[i, i]``, row by row.

    The same conventions as :func:`lower_triangular_inverse` (strictly-upper
    entries of m are exact zeros, DegenerateInput for a zeroish diagonal
    entry, scalar or series entries, no capping), at d(d-1)/2 products per
    column of b instead of the inverse's and then a full product.  The
    inverse keeps its own loop: it skips the identity's zeros above the
    diagonal, which this loop would carry as ``O(pi^N)`` divided by the
    diagonal, at a lower precision.
    """
    d = _lower_dim(m)
    x = b.copy()
    for i in range(d):
        for c in range(b.ncols):
            acc = b[i, c]
            for k in range(i):
                acc = acc - m[i, k] * x[k, c]
            x[i, c] = acc / m[i, i]
    return x


# ---------------------------------------------------------------------------
# block variants (generic over scalar / truncated-series entries)
# ---------------------------------------------------------------------------


@dataclass
class BlockL:
    """Result of the block elimination.

    Attributes:
        lower: block unit lower triangular factor (diagonal blocks are
            identities for :func:`block_l`; unit lower triangular ones for
            :func:`block_l_unitlower`).  Each entry claims the precision of
            its Cramer quotient (:func:`_cramer_cap`); the identity blocks
            and the diagonal 1s are exact.
        block_vals: per block starting at column j0, S_(j0-1)
            (:func:`_minor_val`), the sum of the diagonal valuations
            strictly above the block, read at the block's end; reported
            (``lu run --algo block``), no longer a cap.
        n: working absolute precision.
    """

    lower: PrecMatrix
    block_vals: list
    n: int


def _block_elimination(m: PrecMatrix, block_sizes: Sequence[int], clear: bool) -> BlockL:
    d = _square_dim(m)
    if any(b < 1 for b in block_sizes) or sum(block_sizes) != d:
        raise ValueError(f"block sizes {list(block_sizes)} do not tile dimension {d}")
    omega, n, cols = _flattened(m)
    lower = PrecMatrix.zero_like(m, d, d, n)
    block_vals = []
    j0 = 0
    ends = {hi: b for b, hi in enumerate(itertools.accumulate(block_sizes))}
    s_max = 0  # block_l_unitlower: the largest S_k of the rounds so far
    for i, j, at, col in _eliminate(omega, n, cols):
        if i < j or (clear and j + 1 not in ends):
            continue
        # the diagonal at the end of round j; only (j, j) can be
        # indistinguishable from zero, since a later swap only brings in an
        # entry of known valuation
        diag = [at(0, k, k) for k in range(j + 1)]
        vals = [_val_or_none(e) for e in diag]
        if None not in vals:
            s_max = max(s_max, sum(vals))
        if j + 1 not in ends:
            continue
        hi = j + 1  # block spans columns j0..hi-1
        if None in vals:
            raise DegenerateInput(
                f"block pivot at column {vals.index(None)} indistinguishable from zero"
            )
        s_end = sum(vals)  # S_(hi-1), the leading minor at the block boundary
        if s_end >= n:
            raise DegenerateInput(
                f"leading minor at the end of block {ends[hi]} (columns {j0}..{j}) "
                f"indistinguishable from zero"
            )
        block_vals.append(sum(vals[:j0]))
        # normalize: below the diagonal, L's block columns are omega's scaled
        # by the pivot; above it L is zero and its diagonal is 1 by definition
        one = diag[j].like_one(n)
        for jp in range(j0, hi):
            piv, below = diag[jp], col(0, jp)[jp + 1:]
            # uncapped: a pivot of negative valuation lifts x / piv above
            # N; a series keeps the long division, whose precision
            # x * piv^-1 does not always reproduce
            if type(piv) is PrecElem:
                quots = _quotients(below, piv, itertools.repeat(math.inf))
            else:
                quots = [e / piv for e in below]
            lower[jp, jp] = one
            for r, e in enumerate(quots, jp + 1):
                lower[r, jp] = e
        if clear:
            # make the diagonal block an identity: subtract the other
            # block columns one at a time, re-reading updated entries
            # (the one-shot simultaneous sum would leave second-order
            # residue below the first subdiagonal)
            zero = one.like_zero(n)
            for jp in range(j0, hi):
                for ip in range(jp + 1, hi):
                    s = lower[ip, jp]
                    lower[ip, jp] = zero
                    for r in range(ip + 1, d):
                        lower[r, jp] = lower[r, jp] - s * lower[r, ip]
                _cap_below(lower, jp, hi, n, s_end)
        else:
            for jp in range(j0, hi):
                _cap_below(lower, jp, jp + 1, n, s_max)
        j0 = hi
    return BlockL(lower=lower, block_vals=block_vals, n=n)


def _cap_below(lower: PrecMatrix, j: int, lo: int, n: int, s: int) -> None:
    """Cap lower[i, j], i >= lo, at its Cramer quotient's precision over a
    denominator minor of valuation s (:func:`_cramer_cap`; coefficient l of
    a truncated series over the minor's (l + 1)-th power)."""
    for i in range(lo, lower.nrows):
        e = lower[i, j]
        w = e.val_lower_bound
        if type(e) is PrecElem:
            lower[i, j] = e.cap_abs(_cramer_cap(n, s, w))
        else:
            lower[i, j] = SeriesElem(e.cfg, [c.cap_abs(_cramer_cap(n, (l + 1) * s, w))
                                             for l, c in enumerate(e.coeffs)])


def block_l(m: PrecMatrix, block_sizes: Sequence[int]) -> BlockL:
    """Block unit lower triangular factor for the given block type.

    Runs the pivoted elimination and, at each block boundary hi, normalizes
    the block's columns by their pivots and clears the diagonal block to
    the identity.  Below the block an entry is a Cramer quotient over the
    leading minor of order hi, so it claims O(pi^(N - S_(hi-1) + min(0, w)))
    (:func:`_cramer_cap`), S_(hi-1) read at the block's end and w the
    entry's valuation; the identity block is exact.  Entries only ever lose
    precision at the cap (the literal re-declaration could otherwise claim
    digits the arithmetic never produced).

    Raises DegenerateInput when a block pivot is indistinguishable from
    zero or the boundary minor's valuation S_(hi-1) reaches N; a leading
    minor inside a block that a later swap rescues is no obstacle.

    Works unchanged for scalar and truncated-series entries (pivoting looks
    at constant coefficients in the series case).
    """
    return _block_elimination(m, block_sizes, clear=True)


def block_l_unitlower(m: PrecMatrix, block_sizes: Sequence[int]) -> BlockL:
    """Same as :func:`block_l` but the diagonal blocks are left unit lower
    triangular instead of being cleared to identities (cheaper; equally
    valid as a block factor).  Every strictly-lower entry of a block's
    columns claims O(pi^(N - S + min(0, w))) (:func:`_cramer_cap`), S the
    largest leading minor S_k, k < hi, each read at the end of its own
    round; the diagonal 1s are exact."""
    return _block_elimination(m, block_sizes, clear=False)
