"""Precision-tracked elements of a complete discrete valuation ring.

An element is stored in one of two shapes:

* **unit form** ``pi^v * u + O(pi^(v+r))`` — a known valuation ``v``, a unit
  ``u`` (its lowest base-p digit is nonzero) carried to ``r`` significant
  digits, hence absolute precision ``v + r``;
* **big-oh zero** ``O(pi^n)`` — indistinguishable from zero, only the lower
  bound ``n`` on the valuation is known.

The unit ``u`` is one Python int in the storage layout of the ring's
digit-ops object ``cfg.ops`` (:mod:`dvrlu.digits`): the integer itself for
``Z_p``, one bit slot per coefficient for ``F_p[[t]]``.  All digit arithmetic
goes through ``cfg.ops``; the public face of a unit (constructors,
``unit_digits``, ``representative``, JSON and ``repr``) is always the base-p
packing ``sum(c_i * p**i)``.

Valuations may be negative (elements of the fraction field use the same
representation), and all arithmetic follows the ultrametric precision rules:
addition keeps the minimum absolute precision, multiplication and division
keep the minimum relative precision.
"""

from __future__ import annotations

from typing import Optional

from .config import DvrConfig
from .digits import pw
from .errors import AmbiguousValuation, DivisionByUnknownZero

# ---------------------------------------------------------------------------
# the element itself
# ---------------------------------------------------------------------------


class PrecElem:
    """One precision-tracked element of the configured DVR (or its fraction
    field — valuations may be negative).

    Instances are immutable; all operators return fresh elements.  Do not call
    the constructor directly: use :meth:`from_int`, :meth:`unit_form`,
    :meth:`bigoh`, :meth:`one`, :meth:`zero` or :meth:`random`.
    """

    __slots__ = ("cfg", "_bigoh", "_v", "_u", "_rel")

    def __init__(self, cfg: DvrConfig, bigoh: bool, v: int, u: int, rel: int):
        self.cfg = cfg
        self._bigoh = bigoh
        self._v = v  # valuation (unit form) or absolute precision (big-oh)
        self._u = u
        self._rel = rel

    # -- constructors ------------------------------------------------------

    @classmethod
    def bigoh(cls, cfg: DvrConfig, n: int) -> "PrecElem":
        """The element O(pi^n): indistinguishable from zero below pi^n."""
        return cls(cfg, True, n, 0, 0)

    @classmethod
    def unit_form(cls, cfg: DvrConfig, v: int, u: int, rel: int) -> "PrecElem":
        """pi^v * u + O(pi^(v+rel)); u is reduced to rel digits and must stay
        a unit (lowest digit nonzero) after reduction."""
        if rel < 1:
            raise ValueError("unit form needs at least one significant digit")
        u = cfg.ops.encode(u % pw(cfg.p, rel))
        if cfg.ops.trunc(u, 1) == 0:
            raise ValueError("unit part has zero lowest digit")
        return cls(cfg, False, v, u, rel)

    @classmethod
    def from_int(
        cls,
        cfg: DvrConfig,
        value: int,
        rel_prec: Optional[int] = None,
        abs_prec: Optional[int] = None,
    ) -> "PrecElem":
        """Element from a packed-digit integer.

        For the padic backend ``value`` is the ordinary integer it represents
        (negative values are reduced); for the series backend it is the
        base-p packing of the coefficients and must be nonnegative.  A zero
        value gives O(pi^n) with n = ``abs_prec`` or ``rel_prec`` or the
        config default.  Otherwise the element is exact up to ``rel_prec``
        significant digits (default ``cfg.prec``), or up to absolute
        precision ``abs_prec`` if that is given instead.
        """
        if value == 0:
            n = abs_prec if abs_prec is not None else (rel_prec or cfg.prec)
            return cls.bigoh(cfg, n)
        ops = cfg.ops
        v, stripped = ops.strip(ops.encode(value))
        if abs_prec is not None:
            rel = abs_prec - v
            if rel < 1:
                return cls.bigoh(cfg, abs_prec)
        else:
            rel = rel_prec if rel_prec is not None else cfg.prec
        if rel < 1:
            raise ValueError("unit form needs at least one significant digit")
        return cls(cfg, False, v, ops.trunc(stripped, rel), rel)

    @classmethod
    def one(cls, cfg: DvrConfig, rel_prec: Optional[int] = None) -> "PrecElem":
        return cls.unit_form(cfg, 0, 1, rel_prec or cfg.prec)

    @classmethod
    def zero(cls, cfg: DvrConfig, abs_prec: Optional[int] = None) -> "PrecElem":
        return cls.bigoh(cfg, abs_prec if abs_prec is not None else cfg.prec)

    @classmethod
    def random(cls, cfg: DvrConfig, rng, abs_prec: Optional[int] = None) -> "PrecElem":
        """Haar-random ring element truncated at absolute precision N:
        uniform over the p^N residues, so exact zero comes out as O(pi^N)."""
        n = abs_prec if abs_prec is not None else cfg.prec
        packed = rng.randrange(pw(cfg.p, n))
        if packed == 0:
            return cls.bigoh(cfg, n)
        v, stripped = cfg.ops.strip(cfg.ops.encode(packed))
        return cls(cfg, False, v, stripped, n - v)

    # -- inspection --------------------------------------------------------

    @property
    def is_zeroish(self) -> bool:
        """True when the element is indistinguishable from zero."""
        return self._bigoh

    @property
    def valuation(self) -> int:
        """Exact valuation; raises AmbiguousValuation for big-oh zeros."""
        if self._bigoh:
            raise AmbiguousValuation(
                f"valuation of {self!r} is only bounded below by {self._v}"
            )
        return self._v

    @property
    def val_lower_bound(self) -> int:
        """Guaranteed lower bound on the valuation (the valuation itself in
        unit form, the precision bound for a big-oh zero)."""
        return self._v

    @property
    def abs_prec(self) -> int:
        return self._v if self._bigoh else self._v + self._rel

    @property
    def rel_prec(self) -> int:
        return 0 if self._bigoh else self._rel

    @property
    def unit_digits(self) -> int:
        """Packed digits of the unit part (unit form only)."""
        if self._bigoh:
            raise AmbiguousValuation("big-oh zero has no unit part")
        return self.cfg.ops.decode(self._u)

    def representative(self) -> int:
        """Packed representative u * p**v (0 for big-oh zeros).

        Only meaningful when the valuation is >= 0.  For the padic backend
        this is the smallest nonnegative integer representative.
        """
        if self._bigoh:
            return 0
        if self._v < 0:
            raise ValueError("no integral representative: negative valuation")
        return self.cfg.ops.decode(self._u) * pw(self.cfg.p, self._v)

    def residue(self, n: int) -> Optional[int]:
        """The element mod pi^n as a stored int of n digits (for ``Z_p`` the
        int in [0, p^n) itself), or None unless it is integral and known to
        absolute precision >= n."""
        v = self._v
        if self._bigoh:
            return 0 if v >= n else None
        if v < 0 or v + self._rel < n:
            return None
        ops = self.cfg.ops
        x = ops.shift(self._u, v)
        return x if v + self._rel == n else ops.trunc(x, n)

    # -- ring protocol (shared with series elements) --------------------------

    def like_one(self, abs_prec: int) -> "PrecElem":
        """Exact 1 in the same ring, at the given absolute precision."""
        return PrecElem.unit_form(self.cfg, 0, 1, abs_prec)

    def like_zero(self, abs_prec: int) -> "PrecElem":
        """Exact 0 in the same ring: O(pi^n)."""
        return PrecElem.bigoh(self.cfg, abs_prec)

    def pivot_scalar(self) -> "PrecElem":
        """The scalar whose valuation drives pivoting decisions (itself)."""
        return self

    # -- precision surgery ---------------------------------------------------

    def lift_to_precision(self, n: int) -> "PrecElem":
        """Re-declare the absolute precision to be exactly n.

        Raising the precision of a big-oh zero picks the representative 0,
        so O(pi^k) becomes O(pi^n) in either direction.  For unit forms the
        digits are truncated (n below the current precision) or zero-padded
        (n above it); if n dips to the valuation or below, the element
        degenerates to O(pi^n).
        """
        if self._bigoh:
            return PrecElem.bigoh(self.cfg, n)
        rel = n - self._v
        if rel < 1:
            return PrecElem.bigoh(self.cfg, n)
        if rel == self._rel:
            return self
        if rel > self._rel:  # zero-pad: same digits, more declared precision
            return PrecElem(self.cfg, False, self._v, self._u, rel)
        u = self.cfg.ops.trunc(self._u, rel)
        # lowest digit survives truncation, so u is still a unit
        return PrecElem(self.cfg, False, self._v, u, rel)

    def cap_abs(self, n: int) -> "PrecElem":
        """Truncate to absolute precision n if currently more precise."""
        return self.lift_to_precision(n) if self.abs_prec > n else self

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "PrecElem":
        if self._bigoh:
            return self
        return PrecElem(
            self.cfg, False, self._v, self.cfg.ops.neg(self._u, self._rel), self._rel
        )

    def __add__(self, other: "PrecElem") -> "PrecElem":
        cfg = self.cfg
        n = min(self.abs_prec, other.abs_prec)
        if self._bigoh and other._bigoh:
            return PrecElem.bigoh(cfg, n)
        # shift both to a common valuation floor and add packed digits
        m = min(self._v, other._v)
        ndig = n - m
        if ndig <= 0:
            return PrecElem.bigoh(cfg, n)
        ops = cfg.ops
        x = 0 if self._bigoh else ops.shift(self._u, self._v - m)
        y = 0 if other._bigoh else ops.shift(other._u, other._v - m)
        s = ops.add(x, y, ndig)
        if s == 0:
            return PrecElem.bigoh(cfg, n)
        v, stripped = ops.strip(s)
        return PrecElem(cfg, False, m + v, stripped, ndig - v)

    def __sub__(self, other: "PrecElem") -> "PrecElem":
        return self + (-other)

    def __mul__(self, other: "PrecElem") -> "PrecElem":
        cfg = self.cfg
        if self._bigoh or other._bigoh:
            if self._bigoh and other._bigoh:
                return PrecElem.bigoh(cfg, self._v + other._v)
            boz, unit = (self, other) if self._bigoh else (other, self)
            return PrecElem.bigoh(cfg, boz._v + unit._v)
        rel = min(self._rel, other._rel)
        u = cfg.ops.mul(self._u, other._u, rel)
        return PrecElem(cfg, False, self._v + other._v, u, rel)

    def __truediv__(self, other: "PrecElem") -> "PrecElem":
        cfg = self.cfg
        if other._bigoh:
            raise DivisionByUnknownZero(
                f"division by {other!r}, indistinguishable from zero"
            )
        if self._bigoh:
            return PrecElem.bigoh(cfg, self._v - other._v)
        rel = min(self._rel, other._rel)
        ops = cfg.ops
        u = ops.mul(self._u, ops.inv(other._u, rel), rel)
        return PrecElem(cfg, False, self._v - other._v, u, rel)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same shape, valuation, digits and precision.
        (Two elements can represent overlapping congruence classes and still
        compare unequal; use subtraction for congruence questions.)"""
        if not isinstance(other, PrecElem):
            return NotImplemented
        return (
            self.cfg == other.cfg
            and self._bigoh == other._bigoh
            and self._v == other._v
            and self._u == other._u
            and self._rel == other._rel
        )

    def __hash__(self) -> int:
        return hash((self.cfg.p, self.cfg.backend, self._bigoh, self._v, self._u, self._rel))

    # -- io -------------------------------------------------------------------

    def __repr__(self) -> str:
        sym = self.cfg.ops.symbol
        if self._bigoh:
            return f"O({sym}^{self._v})"
        u = self.cfg.ops.decode(self._u)
        head = f"{u}" if self._v == 0 else f"{u}*{sym}^{self._v}"
        return f"{head} + O({sym}^{self.abs_prec})"

    def to_json(self) -> dict:
        if self._bigoh:
            return {"bigoh": self._v}
        return {"v": self._v, "digits": str(self.cfg.ops.decode(self._u)), "rel": self._rel}

    @classmethod
    def from_json(cls, cfg: DvrConfig, obj: dict) -> "PrecElem":
        try:
            if "bigoh" in obj:
                return cls.bigoh(cfg, int(obj["bigoh"]))
            return cls.unit_form(cfg, int(obj["v"]), int(obj["digits"]), int(obj["rel"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed element {obj!r}: {exc}") from exc


def valuation_less(a: PrecElem, b: PrecElem) -> bool:
    """Decide v(a) < v(b), or raise AmbiguousValuation if precision cannot.

    The comparison is forced in three situations: both valuations are known;
    a is known and smaller than b's precision bound (then v(a) < v(b)
    whatever b hides); a is a big-oh zero whose bound already reaches b's
    known valuation (then v(a) >= v(b), so the strict comparison fails).
    Everything else would depend on unknown digits.
    """
    if not a._bigoh and not b._bigoh:
        return a._v < b._v
    if not a._bigoh:  # b = O(pi^n): v(b) >= n
        if a._v < b._v:
            return True
        raise AmbiguousValuation(
            f"cannot compare v({a!r}) with v({b!r}): pivot valuation unknown"
        )
    if not b._bigoh:  # a = O(pi^n): v(a) >= n
        if a._v >= b._v:
            return False
        raise AmbiguousValuation(
            f"cannot compare v({a!r}) with v({b!r}): entry valuation unknown"
        )
    raise AmbiguousValuation(
        f"cannot compare v({a!r}) with v({b!r}): both indistinguishable from zero"
    )
