"""Precision-tracked elements of a complete discrete valuation ring.

An element is stored as its **fields** ``(v, u, rel)``, three ints, in one
of two shapes:

* **unit form** (``rel >= 1``) ``pi^v * u + O(pi^(v+rel))`` — a known
  valuation ``v`` and a unit ``u`` (its lowest base-p digit is nonzero)
  carried to ``rel`` significant digits;
* **big-oh zero** (``rel == 0``) ``O(pi^v)`` — indistinguishable from zero,
  only the lower bound ``v`` on the valuation is known; ``u`` is 0.

Either way the absolute precision is ``v + rel``.  The unit ``u`` is one
Python int in the storage layout of the ring's digit-ops object ``cfg.ops``
(:mod:`dvrlu.digits`): the integer itself for ``Z_p``, one bit slot per
coefficient for ``F_p[[t]]``, whose slot width the config sizes for its
precision (the rule is :class:`~dvrlu.digits.SeriesDigits`'s).  All digit
arithmetic goes through ``cfg.ops``, and an operator whose operands have
different ``cfg.ops`` objects (another p or backend, or another slot
layout) raises ValueError, as does :func:`_fields` for the loops that read
fields.  The public face of a unit (constructors, ``unit_digits``,
``representative``, JSON and ``repr``) is always the base-p packing
``sum(c_i * p**i)``.

Valuations may be negative (elements of the fraction field use the same
representation), and all arithmetic follows the ultrametric precision rules
of zealous arithmetic (Caruso, "Computations with p-adic numbers", 2017):
a sum keeps the smaller absolute precision, a product or quotient the
smaller relative precision.  Those rules are written once, on fields, as
:func:`_plus`, :func:`_times` and :func:`_neg`, one formula for both shapes
(a big-oh zero's unit 0 shifts and multiplies to 0, and a digit op keeping
no digits gives 0).  :class:`PrecElem`'s operators apply them to their
operands' fields, and the loops that run element arithmetic without building
elements — series products and quotients (:mod:`dvrlu.series`) and the naive
elimination (:mod:`dvrlu.lu_stable`) — call them on fields too.
"""

from __future__ import annotations

from typing import NoReturn, Optional

from .config import Backend, DvrConfig
from .digits import pw
from .errors import AmbiguousValuation, DivisionByUnknownZero

Fields = tuple[int, int, int]

# ---------------------------------------------------------------------------
# the precision rules, on fields
# ---------------------------------------------------------------------------


def _neg(ops, x: Fields) -> Fields:
    """-x: same valuation and precision."""
    return x[0], ops.neg(x[1], x[2]), x[2]


def _times(ops, x: Fields, y: Fields) -> Fields:
    """x * y: valuations add, the smaller relative precision stays (so a
    big-oh factor gives a big-oh product)."""
    r = x[2] if x[2] < y[2] else y[2]
    return x[0] + y[0], ops.mul(x[1], y[1], r), r


def _plus(ops, x: Fields, y: Fields) -> Fields:
    """x + y: the smaller absolute precision n stays; the digits from the
    smaller valuation m up to n are summed and split into valuation and
    unit, or the sum is O(pi^n) when they are all zero or n <= m."""
    xv, xu, xr = x
    yv, yu, yr = y
    n = xv + xr if xv + xr < yv + yr else yv + yr
    m = xv if xv < yv else yv
    nd = n - m
    s = ops.add(ops.shift(xu, xv - m), ops.shift(yu, yv - m), nd)  # 0 if nd <= 0
    if not s:
        return n, 0, 0
    v, s = ops.strip(s)
    return m + v, s, nd - v


# ---------------------------------------------------------------------------
# the element itself
# ---------------------------------------------------------------------------


class PrecElem:
    """One precision-tracked element of the configured DVR (or its fraction
    field — valuations may be negative).

    Instances are immutable; all operators return fresh elements.  Do not call
    the constructor directly: use :meth:`from_int`, :meth:`unit_form`,
    :meth:`bigoh`, :meth:`random` or :meth:`from_json`.
    """

    __slots__ = ("cfg", "_f")

    def __init__(self, cfg: DvrConfig, fields: Fields):
        self.cfg = cfg
        self._f = fields  # (v, u, rel), rel == 0 for O(pi^v)

    # -- constructors ------------------------------------------------------

    @classmethod
    def bigoh(cls, cfg: DvrConfig, n: int) -> "PrecElem":
        """The element O(pi^n): indistinguishable from zero below pi^n."""
        return cls(cfg, (n, 0, 0))

    @classmethod
    def unit_form(cls, cfg: DvrConfig, v: int, u: int, rel: int) -> "PrecElem":
        """pi^v * u + O(pi^(v+rel)); u is reduced to rel digits and must stay
        a unit (lowest digit nonzero) after reduction."""
        if rel < 1:
            raise ValueError("unit form needs at least one significant digit")
        u = cfg.ops.encode(u % pw(cfg.p, rel))
        if cfg.ops.trunc(u, 1) == 0:
            raise ValueError("unit part has zero lowest digit")
        return cls(cfg, (v, u, rel))

    @classmethod
    def from_int(
        cls, cfg: DvrConfig, value: int, abs_prec: Optional[int] = None
    ) -> "PrecElem":
        """Element from a packed-digit integer.

        For the padic backend ``value`` is the ordinary integer it represents
        (negative values are reduced); for the series backend it is the
        base-p packing of the coefficients and must be nonnegative.  The
        element is exact up to absolute precision ``abs_prec`` when that is
        given (O(pi^abs_prec) when the value vanishes there), and otherwise
        up to ``cfg.prec`` significant digits (a zero value gives
        O(pi^cfg.prec)).
        """
        if value == 0:
            return cls.bigoh(cfg, cfg.prec if abs_prec is None else abs_prec)
        ops = cfg.ops
        v, stripped = ops.strip(ops.encode(value))
        rel = cfg.prec if abs_prec is None else abs_prec - v
        if rel < 1:
            return cls.bigoh(cfg, abs_prec)
        return cls(cfg, (v, ops.trunc(stripped, rel), rel))

    @classmethod
    def random(cls, cfg: DvrConfig, rng) -> "PrecElem":
        """Haar-random ring element truncated at absolute precision N =
        ``cfg.prec``: uniform over the p^N residues, so exact zero comes out
        as O(pi^N)."""
        n = cfg.prec
        packed = rng.randrange(pw(cfg.p, n))
        if packed == 0:
            return cls.bigoh(cfg, n)
        v, stripped = cfg.ops.strip(cfg.ops.encode(packed))
        return cls(cfg, (v, stripped, n - v))

    # -- inspection --------------------------------------------------------

    @property
    def is_zeroish(self) -> bool:
        """True when the element is indistinguishable from zero."""
        return not self._f[2]

    @property
    def valuation(self) -> int:
        """Exact valuation; raises AmbiguousValuation for big-oh zeros."""
        v, _, rel = self._f
        if not rel:
            raise AmbiguousValuation(
                f"valuation of {self!r} is only bounded below by {v}"
            )
        return v

    @property
    def val_lower_bound(self) -> int:
        """Guaranteed lower bound on the valuation (the valuation itself in
        unit form, the precision bound for a big-oh zero)."""
        return self._f[0]

    @property
    def abs_prec(self) -> int:
        return self._f[0] + self._f[2]

    @property
    def rel_prec(self) -> int:
        return self._f[2]

    @property
    def unit_digits(self) -> int:
        """Packed digits of the unit part (unit form only)."""
        if not self._f[2]:
            raise AmbiguousValuation("big-oh zero has no unit part")
        return self.cfg.ops.decode(self._f[1])

    def representative(self) -> int:
        """Packed representative u * p**v (0 for big-oh zeros).

        Only meaningful when the valuation is >= 0.  For the padic backend
        this is the smallest nonnegative integer representative.
        """
        v, u, rel = self._f
        if not rel:
            return 0
        if v < 0:
            raise ValueError("no integral representative: negative valuation")
        return self.cfg.ops.decode(u) * pw(self.cfg.p, v)

    def residue(self, n: int) -> Optional[int]:
        """The element mod pi^n as a stored int of n digits (for ``Z_p`` the
        int in [0, p^n) itself), or None unless it is integral and known to
        absolute precision >= n."""
        v, u, rel = self._f
        if not rel:
            return 0 if v >= n else None
        if v < 0 or v + rel < n:
            return None
        ops = self.cfg.ops
        x = ops.shift(u, v)
        return x if v + rel == n else ops.trunc(x, n)

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
        v, u, rel = self._f
        if not rel or n - v < 1:
            return PrecElem.bigoh(self.cfg, n)
        if n - v == rel:
            return self
        if n - v < rel:  # lowest digit survives truncation, so u stays a unit
            u = self.cfg.ops.trunc(u, n - v)
        return PrecElem(self.cfg, (v, u, n - v))

    def cap_abs(self, n: int) -> "PrecElem":
        """Truncate to absolute precision n if currently more precise."""
        return self.lift_to_precision(n) if self.abs_prec > n else self

    # -- arithmetic: the rules above on the operands' fields ------------------

    def __neg__(self) -> "PrecElem":
        return PrecElem(self.cfg, _neg(self.cfg.ops, self._f))

    def __add__(self, other: "PrecElem") -> "PrecElem":
        ops = self.cfg.ops
        if other.cfg.ops is not ops:
            _refuse_mixed(self.cfg, other.cfg)
        return PrecElem(self.cfg, _plus(ops, self._f, other._f))

    def __sub__(self, other: "PrecElem") -> "PrecElem":
        ops = self.cfg.ops
        if other.cfg.ops is not ops:
            _refuse_mixed(self.cfg, other.cfg)
        return PrecElem(self.cfg, _plus(ops, self._f, _neg(ops, other._f)))

    def __mul__(self, other: "PrecElem") -> "PrecElem":
        ops = self.cfg.ops
        if other.cfg.ops is not ops:
            _refuse_mixed(self.cfg, other.cfg)
        return PrecElem(self.cfg, _times(ops, self._f, other._f))

    def __truediv__(self, other: "PrecElem") -> "PrecElem":
        """self times the inverse of other, known to the smaller relative
        precision; other must be in unit form."""
        ops = self.cfg.ops
        if other.cfg.ops is not ops:
            _refuse_mixed(self.cfg, other.cfg)
        v, u, rel = other._f
        if not rel:
            raise DivisionByUnknownZero(
                f"division by {other!r}, indistinguishable from zero"
            )
        r = self._f[2] if self._f[2] < rel else rel
        return PrecElem(self.cfg, _times(ops, self._f, (-v, ops.inv(u, r), r)))

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same ring and fields.  (Two elements can
        represent overlapping congruence classes and still compare unequal;
        use subtraction for congruence questions.)"""
        if not isinstance(other, PrecElem):
            return NotImplemented
        return self.cfg == other.cfg and self._f == other._f

    def __hash__(self) -> int:
        return hash((self.cfg.p, self.cfg.backend, self._f))

    # -- io -------------------------------------------------------------------

    def __repr__(self) -> str:
        sym = self.cfg.ops.symbol
        v, u, rel = self._f
        if not rel:
            return f"O({sym}^{v})"
        u = self.cfg.ops.decode(u)
        head = f"{u}" if v == 0 else f"{u}*{sym}^{v}"
        return f"{head} + O({sym}^{v + rel})"

    def to_json(self) -> dict:
        v, u, rel = self._f
        if not rel:
            return {"bigoh": v}
        return {"v": v, "digits": str(self.cfg.ops.decode(u)), "rel": rel}

    @classmethod
    def from_json(cls, cfg: DvrConfig, obj: dict) -> "PrecElem":
        """Inverse of :meth:`to_json`: ``{"bigoh": n}`` or ``{"v", "digits",
        "rel"}``, with ints for n, v and rel and an int or a decimal string
        for digits; anything else raises ValueError."""
        try:
            if "bigoh" in obj:
                return cls.bigoh(cfg, _json_int(obj["bigoh"], "bigoh"))
            digits = obj["digits"]
            if type(digits) not in (int, str):
                raise ValueError(f"digits must be an integer or a decimal string, got {digits!r}")
            return cls.unit_form(
                cfg, _json_int(obj["v"], "v"), int(digits), _json_int(obj["rel"], "rel")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed element {obj!r}: {exc}") from exc


def _json_int(x, what: str) -> int:
    """x when it is an int; ValueError naming ``what`` for anything else (a
    float, a bool or a string), which would otherwise be truncated or
    converted silently."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _fields(cfg: DvrConfig, elems) -> list[Fields]:
    """The fields of elems, for a loop that runs the precision rules on
    fields in ring cfg's layout; ValueError, as from the operators, when an
    element's digit-ops object is not cfg's."""
    ops = cfg.ops
    for e in elems:
        if e.cfg.ops is not ops:
            _refuse_mixed(cfg, e.cfg)
    return [e._f for e in elems]


def _refuse_mixed(a: DvrConfig, b: DvrConfig) -> NoReturn:
    """Raise ValueError naming rings a and b, whose digit-ops objects differ:
    different p or backend, or ``F_p[[t]]`` slot layouts sized for different
    precisions, whose stored ints do not mean the same digits."""
    def name(cfg: DvrConfig) -> str:
        ring = f"Z_{cfg.p}" if cfg.backend is Backend.PADIC else f"F_{cfg.p}[[t]]"
        return f"{ring} at prec {cfg.prec}"

    same = a.p == b.p and a.backend is b.backend
    raise ValueError(f"cannot combine elements of {name(a)} and {name(b)}: "
                     + ("their slot layouts differ" if same else "different rings"))


def valuation_less(a: PrecElem, b: PrecElem) -> bool:
    """Decide v(a) < v(b), or raise AmbiguousValuation if precision cannot.

    The comparison is forced in three situations: both valuations are known;
    a is known and smaller than b's precision bound (then v(a) < v(b)
    whatever b hides); a is a big-oh zero whose bound already reaches b's
    known valuation (then v(a) >= v(b), so the strict comparison fails).
    Everything else would depend on unknown digits.
    """
    (av, _, ar), (bv, _, br) = a._f, b._f
    if ar and br:
        return av < bv
    if ar:  # b = O(pi^bv): v(b) >= bv
        if av < bv:
            return True
        raise AmbiguousValuation(
            f"cannot compare v({a!r}) with v({b!r}): pivot valuation unknown"
        )
    if br:  # a = O(pi^av): v(a) >= av
        if av >= bv:
            return False
        raise AmbiguousValuation(
            f"cannot compare v({a!r}) with v({b!r}): entry valuation unknown"
        )
    raise AmbiguousValuation(
        f"cannot compare v({a!r}) with v({b!r}): both indistinguishable from zero"
    )
