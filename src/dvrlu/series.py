"""Truncated power series with precision-tracked coefficients.

A :class:`SeriesElem` is a length-``order`` tuple of scalar coefficients
(:class:`~dvrlu.element.PrecElem`), i.e. an element of R[[X]]/(X^order) whose
coefficients may individually live in the fraction field.  It implements the
same element protocol as the scalars, so the block elimination runs on
series matrices unchanged; pivoting decisions are driven by the constant
coefficient (an entry counts as "indistinguishable from zero" when its
constant coefficient does).

Products and quotients read each coefficient once as its fields
``(v, u, rel)`` (the format of :mod:`dvrlu.element`), run the element's
precision rules :func:`~dvrlu.element._plus`, :func:`~dvrlu.element._times`
and :func:`~dvrlu.element._neg` on them and build elements only for the
result, equal field for field to the element loops that ``tests/oracles.py``
keeps as reference.
"""

from __future__ import annotations

from typing import Sequence

from .config import DvrConfig
from .element import Fields, PrecElem, _fields, _neg, _plus, _times
from .errors import DivisionByUnknownZero


def _elements(cfg: DvrConfig, fields: Sequence[Fields]) -> list[PrecElem]:
    return [PrecElem(cfg, f) for f in fields]


def _convolve(ops, a: Sequence[Fields], b: Sequence[Fields], k: int) -> list[Fields]:
    """The first k <= len(a) + len(b) - 1 coefficients of the product of
    coefficient lists a and b, each summed in ascending index of a."""
    out = []
    for s in range(k):
        lo, hi = max(0, s - len(b) + 1), min(s + 1, len(a))
        acc = _times(ops, a[lo], b[s - lo])
        for i in range(lo + 1, hi):
            acc = _plus(ops, acc, _times(ops, a[i], b[s - i]))
        out.append(acc)
    return out


def _quotient(ops, f: Sequence[Fields], g: Sequence[Fields]) -> list[Fields]:
    """Long division f / g in R[[X]]/(X^len(f)), g_0 in unit form:
    q_k = (f_k - g_1 q_(k-1) - ... - g_k q_0) / g_0, inverting g_0's unit
    once per relative precision the quotients need."""
    gv, gu, gr = g[0]
    invs: dict[int, int] = {}
    q: list[Fields] = []
    for k in range(len(f)):
        acc = f[k]
        for i in range(1, k + 1):
            acc = _plus(ops, acc, _neg(ops, _times(ops, g[i], q[k - i])))
        av, au, r = acc
        r = r if r < gr else gr
        if r not in invs:
            invs[r] = ops.inv(gu, r)
        q.append((av - gv, ops.mul(au, invs[r], r), r))
    return q


class SeriesElem:
    __slots__ = ("cfg", "coeffs")

    def __init__(self, cfg: DvrConfig, coeffs: Sequence[PrecElem]):
        if not coeffs:
            raise ValueError("series needs at least one coefficient")
        self.cfg = cfg
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    # -- element protocol ----------------------------------------------------

    @property
    def is_zeroish(self) -> bool:
        """Zero for pivoting purposes: constant coefficient indistinguishable
        from zero (such an entry is not invertible in the truncated ring)."""
        return self.coeffs[0].is_zeroish

    @property
    def abs_prec(self) -> int:
        return min(c.abs_prec for c in self.coeffs)

    @property
    def val_lower_bound(self) -> int:
        """Guaranteed lower bound on the pi-valuation of every coefficient."""
        return min(c.val_lower_bound for c in self.coeffs)

    def pivot_scalar(self) -> PrecElem:
        return self.coeffs[0]

    def like_one(self, abs_prec: int) -> "SeriesElem":
        one, pad = self.coeffs[0].like_one(abs_prec), PrecElem.bigoh(self.cfg, abs_prec)
        return SeriesElem(self.cfg, [one] + [pad] * (self.order - 1))

    def like_zero(self, abs_prec: int) -> "SeriesElem":
        z = self.coeffs[0].like_zero(abs_prec)
        return SeriesElem(self.cfg, [z] * self.order)

    def lift_to_precision(self, n: int) -> "SeriesElem":
        return SeriesElem(self.cfg, [c.lift_to_precision(n) for c in self.coeffs])

    def cap_abs(self, n: int) -> "SeriesElem":
        return SeriesElem(self.cfg, [c.cap_abs(n) for c in self.coeffs])

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "SeriesElem") -> None:
        if self.order != other.order:
            raise ValueError("series orders disagree")

    def __neg__(self) -> "SeriesElem":
        return SeriesElem(self.cfg, [-c for c in self.coeffs])

    def __add__(self, other: "SeriesElem") -> "SeriesElem":
        self._check(other)
        return SeriesElem(
            self.cfg, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "SeriesElem") -> "SeriesElem":
        self._check(other)
        return SeriesElem(
            self.cfg, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "SeriesElem") -> "SeriesElem":
        self._check(other)
        cfg = self.cfg
        prod = _convolve(cfg.ops, _fields(cfg, self.coeffs), _fields(cfg, other.coeffs), self.order)
        return SeriesElem(cfg, _elements(cfg, prod))

    def __truediv__(self, other: "SeriesElem") -> "SeriesElem":
        """Long division in R[[X]]/(X^order); the divisor's constant
        coefficient must be distinguishable from zero (it may have positive
        valuation — quotient coefficients then live in the fraction field)."""
        self._check(other)
        if other.coeffs[0].is_zeroish:
            raise DivisionByUnknownZero(
                "series division by element with zeroish constant coefficient"
            )
        cfg = self.cfg
        q = _quotient(cfg.ops, _fields(cfg, self.coeffs), _fields(cfg, other.coeffs))
        return SeriesElem(cfg, _elements(cfg, q))

    # -- comparison / io --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesElem):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "Series[" + ", ".join(map(repr, self.coeffs)) + "]"

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, cfg: DvrConfig, obj: list, order: int) -> "SeriesElem":
        if not isinstance(obj, list) or len(obj) != order:
            raise ValueError(f"expected a list of {order} coefficients")
        return cls(cfg, [PrecElem.from_json(cfg, c) for c in obj])
