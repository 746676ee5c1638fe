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
callers build :class:`~dvrlu.element.PrecElem` objects only for their
outputs.

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

The module's functions:

* :func:`ints` reads a matrix as residues mod pi^N, or refuses it.  It
  refuses an entry that is not a :class:`~dvrlu.element.PrecElem` (the
  sheaf factors' ``SeriesElem``), an entry of negative valuation, an entry
  known to fewer than N digits, entries of more than one ring object and
  N < 1, which all stay on the object path; :func:`columns` reads a
  matrix's columns.
* :func:`stepper` is one step (i, j) above, swap rule and raise included;
  :func:`rounds` runs it as the elimination above, yielding round by round,
  for :func:`dvrlu.lu_stable._eliminate`.  The two pieces that differ by
  ring, dividing out pi^v and the column update, are the digit-ops
  object's ``unshift`` and ``sub_scaled``.
* :func:`capped_product` is ``matmul(a, b).cap_abs(N)`` for ``Z_p``
  operands: each entry is ``sum(a_ik b_kj) mod p^N``.  It serves
  :func:`dvrlu.lu_fast._capped`, which every product truncated back to N
  goes through.  It refuses ``F_p[[t]]``, whose sum of d slot products
  could overflow a slot.

The int recursion of :func:`dvrlu.lu_fast.recursive_lv` (and of a
:func:`~dvrlu.lu_fast.clear_block` band all at precision exactly N) runs on
``Z_p`` residues from one read of its input to the output's elements: its
leaves are :func:`rounds`, its one-row band steps are :func:`stepper`, and
its products are the same sums mod p^N on row lists of ints.

Every output equals the object path's, value and tracked precision alike.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .config import Backend, DvrConfig
from .digits import pw
from .element import PrecElem, valuation_less
from .matrix import PrecMatrix


def ints(lines: Iterable[Sequence], n: int, cfg: DvrConfig) -> Optional[list[list[int]]]:
    """The entries as stored ints mod pi^n, one list per line, or None unless
    every entry is an integral element of ring cfg known to precision >= n."""
    if n < 1:
        return None
    out = []
    for line in lines:
        row = []
        for e in line:
            x = e.residue(n) if type(e) is PrecElem and e.cfg is cfg else None
            if x is None:
                return None
            row.append(x)
        out.append(row)
    return out


def columns(m: PrecMatrix, n: int) -> Optional[tuple[DvrConfig, list[list[int]]]]:
    """The ring of m's first entry and m's columns as ints mod pi^n, or None
    when that entry is not a :class:`PrecElem` or :func:`ints` refuses m."""
    e = m.rows[0][0] if m.rows[0] else None
    cols = ints(zip(*m.rows), n, e.cfg) if type(e) is PrecElem else None
    return None if cols is None else (e.cfg, cols)


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
                e = PrecElem(cfg, False, v, u, n - v)
            made[x] = e
        return e

    return elem


def stepper(n: int, cfg: DvrConfig) -> Callable[[Sequence[list], int, int], None]:
    """step(mats, i, j) runs step (i, j) of the flat elimination over ring
    cfg on mats[0], given as columns of residues mod pi^n, and applies its
    swap and update to every column list of mats (accumulated transforms).

    The step replaces columns, never changes one in place.  Raises
    AmbiguousValuation when the swap comparison has both operands 0 mod pi^n.
    Pivot data is cached per residue for the life of the returned function.
    """
    ops = cfg.ops
    strip, unshift, mul, update = ops.strip, ops.unshift, ops.mul, ops.sub_scaled
    pivots: dict[int, tuple[int, int]] = {}

    def pivot(x: int) -> tuple[int, int]:
        # v and the unit's inverse mod pi^(n - v), for x != 0
        got = pivots.get(x)
        if got is None:
            v, u = strip(x)
            got = pivots[x] = (v, ops.inv(u, n - v))
        return got

    def step(mats: Sequence[list[list[int]]], i: int, j: int) -> None:
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


def rounds(cols: list[list[int]], n: int, cfg: DvrConfig, *extras: list[list[int]]):
    """Run the flat elimination of square omega over ring cfg, given as its
    columns of residues mod pi^n, yielding j once round j is done.  Swaps and
    updates are applied to the extra column lists too (accumulated
    transforms).

    Columns are replaced, never changed in place, so a column list read
    after round j keeps that round's state.  Raises AmbiguousValuation when
    a swap comparison has both operands 0 mod pi^n.
    """
    step, mats = stepper(n, cfg), (cols, *extras)
    for j in range(len(cols)):
        for i in range(j):
            step(mats, i, j)
        yield j


def capped_product(a: PrecMatrix, b: PrecMatrix, n: int) -> Optional[PrecMatrix]:
    """``matmul(a, b).cap_abs(n)`` for integral Z_p operands known to
    precision >= n, or None when the ring is not ``Z_p`` or either operand
    is refused by :func:`ints`.

    Every term of the sum has absolute precision >= n, so the capped entry
    is the residue of the exact sum mod p^n at precision exactly n.
    """
    got = columns(b, n)
    if got is None or got[0].backend is not Backend.PADIC:
        return None
    cfg, cb = got
    ra = ints(a.rows, n, cfg)
    if ra is None:
        return None
    pn, elem = pw(cfg.p, n), elements(cfg, n)
    return PrecMatrix([[elem(sum(map(mul, r, c)) % pn) for c in cb] for r in ra])
