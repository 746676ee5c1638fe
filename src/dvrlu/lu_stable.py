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
returns a factor first caps its input to the smallest entry precision N
(:func:`_flattened`): a cleared entry is exactly zero only up to the
precision of its row.

That step — swap test, pivot guard, re-lifted scalar, column update — is
:func:`_pivot_step`, the only code that swaps or updates columns of
elements, and :func:`_eliminate`, its only caller, is the one round loop:
every elimination here reads its yields.

Flat integral input makes the elimination plain arithmetic in ``Z/p^N``
(``F_p[t]/(t^N)`` over ``F_p[[t]]``), so :func:`_eliminate` runs its steps
on the integer kernel :mod:`dvrlu.kernel` when every entry is an integral
:class:`~dvrlu.element.PrecElem` of either backend known to exactly N (a
flattened input, or flat input to :func:`vij_statistics`), and the callers
build elements only for what they read, which equals the object path's;
the kernel raises the object path's errors itself.
:class:`~dvrlu.series.SeriesElem` entries, an entry of negative valuation
and an entry known beyond N stay on the object path.  The naive
elimination under :func:`naive_gauss_l` and
:func:`lift_recompute_l` is not flat, so it has no kernel; it runs the
element's precision rules on each entry's fields ``(v, u, rel)`` (the
format of :mod:`dvrlu.element`; :func:`_naive_elimination`) and builds
elements only for L.

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
from .element import PrecElem, _fields, _neg, _plus, _times, valuation_less
from .errors import (
    DegenerateDecomposition,
    DegenerateInput,
    DivisionByUnknownZero,
    InsufficientLift,
)
from .matrix import PrecMatrix


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


def _flattened(m: PrecMatrix) -> tuple[PrecMatrix, int]:
    """A copy of m capped to its smallest entry precision N, and N.

    The eliminations that return a factor work on this copy at precision N:
    a cleared entry is treated as exactly zero, which it is only up to the
    precision of its row, so a digit beyond the smallest precision cannot be
    claimed.  Flat input comes back unchanged.  Raises ValueError when N is
    below 1 (an entry of negative valuation known to precision <= 0).
    """
    n = _require_digits(m.min_abs_prec())
    return m.cap_abs(n), n


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
# valuation profile (no factor)
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
    n = _require_digits(m.min_abs_prec())
    prof = VijProfile()
    quotients = []  # (numerator, pivot valuation) below each round's pivot
    vl_defined = True
    pivot = None  # entry (i, i) before step (i, j)
    for i, j, at in _eliminate(m.copy(), n):
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
                quotients += [(at(0, r, j), piv.valuation) for r in range(j + 1, d)]
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
    flat, n = _flattened(m)
    q = m.rows[0][0].cfg.q
    if extra is None:
        extra = max(1, math.ceil(2 * d / q))
    n_hi = n + extra
    lifted = flat.lift_to_precision(n_hi)
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
            lower[i, j] = e.cap_abs(n - s_j + min(0, e.val_lower_bound))
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


def _divide_by(den):
    """x -> x / den, field for field.  A scalar den is inverted once:
    x * den^-1 equals x / den.  A series den keeps the long division per
    entry, whose tracked precision the product with the inverse does not
    always reproduce."""
    if type(den) is not PrecElem:
        return lambda x: x / den
    inv = den.like_one(den.rel_prec) / den
    return lambda x: x * inv


def _quotient_column(lower: PrecMatrix, j: int, num, den, v_round: int, n: int) -> None:
    """Set lower[i, j] = num(i) / den for i > j, each capped at its
    guaranteed absolute precision.

    The cap is N - v_round - max(0, v(den) - w), with w the numerator
    valuation (its precision bound when the numerator is indistinguishable
    from zero).  For flat integral inputs it never exceeds the quotient's
    natural precision; capping (never raising) keeps the claim honest for
    arbitrary inputs.
    """
    div, vd = _divide_by(den), den.valuation
    for i in range(j + 1, lower.nrows):
        e = num(i)
        lower[i, j] = div(e).cap_abs(n - v_round - max(0, vd - e.val_lower_bound))


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
    omega, n = _flattened(m)
    lower = PrecMatrix.identity_like(m, d, n)
    col_vals = []
    for i, j, at in _eliminate(omega, n):
        if i < j:
            continue
        v = _minor_val(at, j)
        if v is None or v >= n:
            raise DegenerateInput(
                f"leading minor indistinguishable from zero after round {j}"
            )
        col_vals.append(v)
        _quotient_column(lower, j, lambda i: at(0, i, j), at(0, j, j), v, n)
    return StableL(lower=lower, col_vals=col_vals, n=n)


def _eliminate(omega: PrecMatrix, n: int, *extras: PrecMatrix):
    """Run the pivoted elimination of square omega (and the extras),
    yielding (i, j, at) before each step (i, j) and (j, j, at) once round j
    is done; at(x, r, c) is entry (r, c) of (omega, *extras)[x] then.

    The steps are :func:`~dvrlu.kernel.stepper` on the columns when
    :func:`~dvrlu.kernel.exact` takes omega's and the extras' columns, and
    :func:`_pivot_step` otherwise; either way a step runs only when asked
    for, and its errors are the object path's.  On the kernel the matrices
    are left as they were, so every entry is read through ``at``.
    """
    mats = (omega, *extras)
    on_kernel = kernel.exact(n, *(list(zip(*x.rows)) for x in mats))
    if on_kernel is None:
        at = lambda x, r, c: mats[x][r, c]
        step = lambda i, j: _pivot_step(omega, i, j, n, *extras)
    else:
        cfg, colsets = on_kernel
        elem, kernel_step = kernel.elements(cfg, n), kernel.stepper(n, cfg)
        at = lambda x, r, c: elem(colsets[x][c][r])
        step = lambda i, j: kernel_step(colsets, i, j)
    for j in range(omega.nrows):
        for i in range(j):
            yield i, j, at
            step(i, j)
        yield j, j, at


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


def vl_of_lower(lower: PrecMatrix):
    """max(0, -min valuation) over strictly-lower entries of L.

    Returns an int when every strictly-lower entry either has known
    valuation or is zero at a precision that cannot hide anything smaller
    than the known minimum; otherwise returns the interval (lo, hi) of
    possible values as a tuple.
    """
    return _vl_bound((lower[i, j], 0) for i in range(lower.nrows) for j in range(i))


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
    d = _square_dim(m)
    omega, n = _flattened(m)
    wp = PrecMatrix.identity_like(m, d, n)
    lp = PrecMatrix.zero_like(m, d, d, n)
    vp = PrecMatrix.zero_like(m, d, d, n)
    for i, j, at in _eliminate(omega, n, wp):
        if i < j:
            continue
        for r in range(d):
            lp[r, j] = at(0, r, j)
            vp[r, j] = at(1, r, j)
    hp, wp = (PrecMatrix([[at(x, r, c) for c in range(d)] for r in range(d)]) for x in (0, 1))
    col_val = [_val_or_none(hp[j, j]) for j in range(d)]
    degenerate = any(lp[j, j].is_zeroish for j in range(d))
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
    is indistinguishable from zero, or a minor valuation v_j reaches N.
    """
    d = out.lp.nrows
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
        _quotient_column(lower, j, lambda i: out.lp[i, j], lkk, v, n)
    return lower


def hermite_from_lv(out: LvOutput) -> PrecMatrix:
    """Hermite normal form H of the input from its split decomposition.

    With v_j = v(H'[j, j]) and u_j the unit part of H'[j, j]:
    H[j, j] = pi^v_j exactly (represented at absolute precision N),
    H[i, j] = H'[i, j] / u_j for i > j at absolute precision N - v_j, and
    everything above the diagonal is an exact zero O(pi^N).

    Raises DegenerateDecomposition when a diagonal entry of H' is
    indistinguishable from zero (the form requires unit-detectable pivots).
    """
    d = out.hp.nrows
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
        div = _divide_by(uj)
        h[j, j] = PrecElem.unit_form(proto.cfg, vj, 1, n - vj)
        for i in range(j + 1, d):
            h[i, j] = div(out.hp[i, j]).cap_abs(n - vj)
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
            :func:`block_l_unitlower`).
        block_vals: the precision-budget valuations v used at each block
            boundary: S_(j0-1) (:func:`_minor_val`), the sum of diagonal
            valuations strictly above the block starting at column j0.
        n: working absolute precision.
    """

    lower: PrecMatrix
    block_vals: list
    n: int


def _block_elimination(m: PrecMatrix, block_sizes: Sequence[int], clear: bool) -> BlockL:
    d = _square_dim(m)
    if any(b < 1 for b in block_sizes) or sum(block_sizes) != d:
        raise ValueError(f"block sizes {list(block_sizes)} do not tile dimension {d}")
    omega, n = _flattened(m)
    lower = PrecMatrix.zero_like(m, d, d, n)
    block_vals = []
    j0 = 0
    boundaries = set(itertools.accumulate(block_sizes))
    for i, j, at in _eliminate(omega, n):
        if i == j and j + 1 in boundaries:
            hi = j + 1  # block spans columns j0..hi-1
            # normalize: L's block columns are omega's scaled by the pivot
            for jp in range(j0, hi):
                piv = at(0, jp, jp)
                if piv.is_zeroish:
                    raise DegenerateInput(
                        f"block pivot at column {jp} indistinguishable from zero"
                    )
                div = _divide_by(piv)
                for r in range(d):
                    lower[r, jp] = div(at(0, r, jp))
            if clear:
                # make the diagonal block an identity: subtract the other
                # block columns one at a time, re-reading updated entries
                # (the one-shot simultaneous sum would leave second-order
                # residue below the first subdiagonal)
                for jp in range(j0, hi):
                    for ip in range(jp + 1, hi):
                        s = lower[ip, jp]
                        for r in range(d):
                            lower[r, jp] = lower[r, jp] - s * lower[r, ip]
            # precision budget: diagonal valuations strictly above the block,
            # each checked non-zeroish when its own block was normalized (a
            # later swap only brings in an entry of known valuation)
            v = _minor_val(at, j0 - 1)
            block_vals.append(v)
            for jp in range(j0, hi):
                for ip in range(j0, d):
                    lower[ip, jp] = lower[ip, jp].cap_abs(n - 2 * v)
            j0 = hi
    return BlockL(lower=lower, block_vals=block_vals, n=n)


def block_l(m: PrecMatrix, block_sizes: Sequence[int]) -> BlockL:
    """Block unit lower triangular factor for the given block type.

    Runs the pivoted elimination and, at each block boundary, normalizes the
    block's columns by their pivots and clears the diagonal block to the
    identity, capping the block's entries at O(pi^(N - 2v)) where v is the
    diagonal valuation budget above the block.  Entries only ever lose
    precision at the cap (the literal re-declaration could otherwise claim
    digits the arithmetic never produced).

    Works unchanged for scalar and truncated-series entries (pivoting looks
    at constant coefficients in the series case).
    """
    return _block_elimination(m, block_sizes, clear=True)


def block_l_unitlower(m: PrecMatrix, block_sizes: Sequence[int]) -> BlockL:
    """Same as :func:`block_l` but the diagonal blocks are left unit lower
    triangular instead of being cleared to identities (cheaper; equally
    valid as a block factor)."""
    return _block_elimination(m, block_sizes, clear=False)
