"""Exact ``Z/p^N`` arithmetic under the flat eliminations and capped products.

For integral ``Z_p`` input at flat absolute precision N, every intermediate
entry of the pivoted elimination stays at absolute precision exactly N
(see :mod:`dvrlu.lu_stable`), and so does every entry of a product capped
at N.  The tracked computation is then plain arithmetic in ``Z/p^N``: an
element known to precision N is its residue mod p^N, and ``O(p^N)`` is the
residue 0.  This module runs that arithmetic on Python ints, and the callers
build :class:`~dvrlu.element.PrecElem` objects only for their outputs.

* :func:`ints` reads a matrix as ints mod p^N, or refuses it.  It refuses
  series entries, an entry of negative valuation, an entry known to fewer
  than N digits, entries of more than one ring object and N < 1, which all
  stay on the object path.
* :func:`rounds` is the elimination of :func:`dvrlu.lu_stable._rounds` on
  column-major ints, with the same swap rule as ``_pivot_step``: swap when
  v(entry) < v(pivot).  A nonzero residue has valuation < N and the residue
  0 stands for ``O(p^N)``, so the comparison is forced unless both operands
  are 0 mod p^N; then :class:`Undecided` is raised and the caller re-runs
  the whole call on the object path, which raises ``AmbiguousValuation``
  with its own message.  With pivot p^v u the scalar is
  ``(e / p^v) u^{-1} mod p^(N - v)``, and the column update is mod p^N.
* :func:`capped_product` is ``matmul(a, b).cap_abs(N)``: each entry is
  ``sum(a_ik b_kj) mod p^N``.

Every output equals the object path's, value and tracked precision alike.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .config import Backend, DvrConfig
from .digits import pw
from .element import PrecElem
from .matrix import PrecMatrix


class Undecided(Exception):
    """A swap comparison with both operands 0 mod p^N."""


def ints(lines: Iterable[Sequence], n: int, cfg: DvrConfig) -> Optional[list[list[int]]]:
    """The entries as ints mod p^n, one list per line, or None unless every
    entry is an integral Z_p element of ring cfg known to precision >= n."""
    if cfg.backend is not Backend.PADIC or n < 1:
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


def ring_of(m: PrecMatrix) -> Optional[DvrConfig]:
    """The ring of m's first entry when it is a Z_p element, else None."""
    e = m.rows[0][0] if m.rows[0] else None
    return e.cfg if type(e) is PrecElem else None


def columns(m: PrecMatrix, n: int) -> Optional[tuple[DvrConfig, list[list[int]]]]:
    """m's ring and its columns as ints mod p^n, or None when :func:`ints`
    refuses m."""
    cfg = ring_of(m)
    cols = None if cfg is None else ints(zip(*m.rows), n, cfg)
    return None if cols is None else (cfg, cols)


def elements(cfg: DvrConfig, n: int) -> Callable[[int], PrecElem]:
    """x -> ``PrecElem.from_int(cfg, x, abs_prec=n)``, building one element
    per distinct residue (elements are immutable, so equal ones are shared)."""
    made: dict[int, PrecElem] = {}

    def elem(x: int) -> PrecElem:
        e = made.get(x)
        if e is None:
            e = made[x] = PrecElem.from_int(cfg, x, abs_prec=n)
        return e

    return elem


def valuation(x: int, p: int) -> int:
    """v_p of a nonzero int."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def rounds(cols: list[list[int]], n: int, p: int, *extras: list[list[int]]):
    """Run the pivoted elimination of square omega, given as its columns of
    residues mod p^n, yielding j once round j is done.  Swaps and updates
    are applied to the extra column lists too (accumulated transforms).

    Columns are replaced, never changed in place, so a column list read
    after round j keeps that round's state.  Raises Undecided when a swap
    comparison has both operands 0 mod p^n.
    """
    pn = pw(p, n)
    mats = (cols, *extras)
    pivots: dict[int, tuple[int, int, int, int]] = {}

    def pivot(x: int) -> tuple[int, int, int, int]:
        # v, p^v, p^(n - v) and the unit's inverse mod p^(n - v), for x != 0
        got = pivots.get(x)
        if got is None:
            v = valuation(x, p)
            pv, m = pw(p, v), pw(p, n - v)
            got = pivots[x] = (v, pv, m, pow(x // pv, -1, m))
        return got

    for j in range(len(cols)):
        for i in range(j):
            e, piv = cols[j][i], cols[i][i]
            if piv == 0:
                if e == 0:
                    raise Undecided
                swap = True
            else:
                swap = e != 0 and valuation(e, p) < pivot(piv)[0]
            if swap:
                for x in mats:
                    x[i], x[j] = x[j], x[i]
                e, piv = piv, e
            if e == 0:
                continue
            _, pv, m, inv = pivot(piv)
            s = e // pv * inv % m
            for x in mats:
                x[j] = [(a - s * b) % pn for a, b in zip(x[j], x[i])]
        yield j


def capped_product(a: PrecMatrix, b: PrecMatrix, n: int) -> Optional[PrecMatrix]:
    """``matmul(a, b).cap_abs(n)`` for integral Z_p operands known to
    precision >= n, or None when either operand is refused by :func:`ints`.

    Every term of the sum has absolute precision >= n, so the capped entry
    is the residue of the exact sum mod p^n at precision exactly n.
    """
    cfg = ring_of(a)
    if cfg is None:
        return None
    ra = ints(a.rows, n, cfg)
    cb = ints(zip(*b.rows), n, cfg) if ra is not None else None
    if cb is None:
        return None
    pn, elem = pw(cfg.p, n), elements(cfg, n)
    return PrecMatrix([[elem(sum(map(mul, r, c)) % pn) for c in cb] for r in ra])
