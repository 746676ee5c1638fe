"""Exact arithmetic mod pi^N under the flat eliminations and capped products.

For integral input at flat absolute precision N, every intermediate entry
of the pivoted elimination stays at absolute precision exactly N (see
:mod:`dvrlu.lu_stable`), and so does every entry of a product capped at N.
The tracked computation is then plain arithmetic in ``R/(pi^N)``: ``Z/p^N``
for ``Z_p`` and ``F_p[t]/(t^N)`` for ``F_p[[t]]``.  An element known to
precision N is its residue mod pi^N, and ``O(pi^N)`` is the residue 0.  This
module runs that arithmetic on Python ints in the ring's stored layout
(:mod:`dvrlu.digits`: the integer itself for ``Z_p``, one bit slot per
coefficient for ``F_p[[t]]``), through the ring's digit-ops object, and the
callers build :class:`~dvrlu.element.PrecElem` objects, in the field
format of :mod:`dvrlu.element`, only for their outputs (:func:`elements`).

The flat elimination
--------------------
This is the one spec of the pivoted elimination of a square matrix omega of
residues mod pi^N, whose steps :func:`stepper` runs on columns of ints.
Round j, for j = 0 .. d-1, runs the steps i = 0 .. j-1; step (i, j) clears
entry (i, j) against the pivot (i, i).  With e = omega[i, j] and the pivot
omega[i, i]:

* **Swap rule.**  Columns i and j are swapped, in omega and in every
  accumulated transform, when v(e) < v(pivot).  A nonzero residue has
  valuation < N and the residue 0 stands for ``O(pi^N)``, so the comparison
  is forced unless both operands are 0 mod pi^N.
* **Both zero.**  Then v(e) < v(pivot) depends on unknown digits, and the
  step raises ``AmbiguousValuation`` with the message of
  :func:`dvrlu.element.valuation_less` on two ``O(pi^N)`` elements.
* **Scalar.**  After the swap, e = 0 leaves column j as it is.  Otherwise
  the pivot is pi^v u with u a unit and v <= v(e), and column j becomes
  column j - s * column i mod pi^N with
  ``s = (e / pi^v) u^{-1} mod pi^(N - v)``.

:class:`dvrlu.stats.montecarlo.Engine` runs the same elimination on numpy
batches of ``Z_p`` residues; it differs only in that it flags the trials of
a batch that meet the both-zero case instead of raising.

Where columns are reduced
-------------------------
On ``Z_p`` the update of column j leaves its entries unreduced (the
digit-ops object's ``sub_scaled``; ``F_p[[t]]`` reduces them), and a step
reduces only the entry it decides on: the swap test, ``strip``, the pivot
cache and the scalar read reduced values.  Column j is reduced mod pi^N
once, after the last step on it, and before a swap makes it the pivot
column i.  The caller of :func:`stepper` says which step is the last: the
end of round j in :func:`dvrlu.lu_stable._eliminate` and in the leaves of
:func:`dvrlu.lu_fast.recursive_lv`, the end of a band column in its band
steps, which run column by column.  So a pivot column is always reduced, a
column at rest holds the canonical ints :func:`elements` expects, and an
entry read in mid-round is reduced before it is read.  The update of omega
runs on rows i..d-1 only: the rows above i are 0 mod pi^N in both columns
(cleared by the steps above, and a pivot column is reduced), so they stay
0 mod pi^N.  The accumulated transforms are updated on every row.

The module's functions:

* :func:`ints`, the one reader, reads a matrix times pi^s as residues mod
  pi^N, or refuses it; an entry known beyond N reads as if capped at N.
  :func:`dvrlu.lu_stable._flattened` asks for the s that makes scalar
  input integral, so it refuses only ``SeriesElem`` entries.  With s = 0
  it also refuses an entry of negative valuation or known to fewer than N
  digits: the capped products, and :func:`~dvrlu.lu_stable.vij_statistics`,
  which keeps the object path for input that is not flat and integral.
  Entries are matched by digit-ops object, as the element operators match
  them, and another ring's raises ValueError.
* :func:`stepper` is one step (i, j) above, swap rule and raise included;
  :func:`dvrlu.lu_stable._eliminate` runs it as the elimination above.
  The pieces that differ by ring, dividing out pi^v, the column update and
  its reduction, are the digit-ops object's ``unshift``, ``sub_scaled``
  and ``reduced``.  A step replaces the columns it changes, never changes
  one in place, so a caller may keep a column as a snapshot.
* :func:`capped_products` is ``matmul(a, b).cap_abs(N)`` on the digit-ops
  object's ``product``, for one or more right operands b, reading a once.
  :func:`dvrlu.lu_fast._capped` is its one caller and says which products
  take it and how they are counted.

The recursion of :func:`dvrlu.lu_fast.recursive_lv` runs on residues too;
:mod:`dvrlu.lu_fast` describes it.

Every output equals the object path's, value and tracked precision alike.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .config import DvrConfig
from .element import PrecElem, _fields, _shifted, valuation_less
from .matrix import PrecMatrix


def ints(
    lines: Iterable[Sequence], n: int, cfg: DvrConfig, s: int = 0
) -> Optional[list[list[int]]]:
    """The entries times pi^s as stored ints mod pi^n, one list per line,
    or None unless every entry is a :class:`~dvrlu.element.PrecElem` that
    pi^s makes integral and known to precision >= n (an entry known beyond
    n reads as ``e.cap_abs(n)`` does).  ValueError for an entry whose
    digit-ops object is not cfg's."""
    if n < 1:
        return None
    ops, out = cfg.ops, []
    for line in lines:
        row = [(_shifted(e, s) if s else e).residue(n) if type(e) is PrecElem and e.cfg.ops is ops
               else None for e in line]
        if None in row:
            _fields(cfg, [e for e in line if type(e) is PrecElem])  # another ring's: ValueError
            return None
        out.append(row)
    return out


def elements(cfg: DvrConfig, n: int) -> Callable[[int], PrecElem]:
    """x -> the element of ring cfg at absolute precision n whose residue
    mod pi^n is the stored int x, building one element per distinct residue
    (elements are immutable, so equal ones are shared)."""
    made: dict[int, PrecElem] = {}
    strip = cfg.ops.strip

    def elem(x: int) -> PrecElem:
        e = made.get(x)
        if e is None:
            if x == 0:
                e = PrecElem.bigoh(cfg, n)
            else:
                v, u = strip(x)
                e = PrecElem(cfg, (v, u, n - v))
            made[x] = e
        return e

    return elem


def stepper(n: int, cfg: DvrConfig) -> Callable[[Sequence[list], int, int, bool], None]:
    """step(mats, i, j, last) runs step (i, j) of the flat elimination over
    ring cfg on mats[0], given as columns of residues mod pi^n, and applies
    its swap and update to every column list of mats (accumulated
    transforms); last says that no further step updates column j.

    The step replaces the columns it changes, never changes one in place,
    and reduces and updates them as "Where columns are reduced" says.
    Raises AmbiguousValuation when the swap comparison has both operands
    0 mod pi^n.  Pivot data is cached per residue for the life of the
    returned function.
    """
    ops = cfg.ops
    strip, unshift, mul, trunc = ops.strip, ops.unshift, ops.mul, ops.trunc
    update, reduced = ops.sub_scaled, ops.reduced
    pivots: dict[int, tuple[int, int]] = {}

    def pivot(x: int) -> tuple[int, int]:
        # v and the unit's inverse mod pi^(n - v), for x != 0
        got = pivots.get(x)
        if got is None:
            v, u = strip(x)
            got = pivots[x] = (v, ops.inv(u, n - v))
        return got

    def step(mats: Sequence[list[list[int]]], i: int, j: int, last: bool) -> None:
        cols = mats[0]
        e, piv = trunc(cols[j][i], n), cols[i][i]
        if piv == 0 and e == 0:  # undecided: raises AmbiguousValuation
            valuation_less(PrecElem.bigoh(cfg, n), PrecElem.bigoh(cfg, n))
        if piv == 0 or (e != 0 and strip(e)[0] < pivot(piv)[0]):
            for x in mats:
                x[i], x[j] = reduced(x[j], n), x[i]
            e, piv = piv, e
        if e != 0:
            v, inv = pivot(piv)
            s = mul(unshift(e, v), inv, n - v)
            col = cols[j]
            cols[j] = col[:i] + update(col[i:], cols[i][i:], s, n)
            for x in mats[1:]:
                x[j] = update(x[j], x[i], s, n)
        if last:
            for x in mats:
                x[j] = reduced(x[j], n)

    return step


def capped_products(
    a: PrecMatrix, bs: Sequence[PrecMatrix], n: int
) -> Optional[list[PrecMatrix]]:
    """``[matmul(a, b).cap_abs(n) for b in bs]`` for integral operands of
    one ring known to precision >= n, on the ring's ``product``, reading a
    once, or None when :func:`ints` refuses any operand.

    Every term of the sum has absolute precision >= n, so the capped entry
    is the residue of the exact sum mod pi^n at precision exactly n.
    """
    cfg = a.rows[0][0].cfg
    ra, cbs = ints(a.rows, n, cfg), [ints(zip(*b.rows), n, cfg) for b in bs]
    if ra is None or None in cbs:
        return None
    elem = elements(cfg, n)
    return [PrecMatrix([[elem(x) for x in row] for row in cfg.ops.product(ra, cb, n)])
            for cb in cbs]
