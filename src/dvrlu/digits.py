"""Digit arithmetic of the two complete DVRs, one ops object per backend.

A unit of precision n is stored as a single Python int holding its first n
digits.  The backend decides the layout and therefore the arithmetic:

* :class:`PadicDigits` (``Z_p``) stores the base-p packing ``sum(c_i p^i)``,
  which is the integer itself, so every op is integer arithmetic mod p^n.
* :class:`SeriesDigits` (``F_p[[t]]``) stores digit i in the bit slot
  ``[i*w, (i+1)*w)``.  Slots never borrow or carry into lower slots, so a
  series sum or product is one big-int operation followed by a slot-wise
  reduction mod p (Kronecker substitution; Harvey, J. Symb. Comput. 2009).
  The width w grows with the ring's precision (:func:`slot_bits`): every
  op costs in proportion to it, so the config picks the narrowest slots
  that hold a product of two operands of twice its precision.

Both expose the same methods, all taking and returning stored ints:
``add``, ``neg``, ``mul`` and ``inv`` keep n digits, ``shift`` multiplies by
pi^k and ``unshift`` divides a multiple of pi^k by it, ``strip`` splits off
the valuation of a nonzero value, ``trunc`` keeps n digits, ``sub_scaled``
is the column update ``[x - s*y mod pi^n]`` of the flat elimination and
``product`` the matrix product mod pi^n of the integer kernel
(:mod:`dvrlu.kernel`), and ``encode``/``decode`` convert from/to the public
base-p packing.  :class:`~dvrlu.config.DvrConfig` picks the object once per
ring: one per p for ``Z_p``, one per slot layout for ``F_p[[t]]``.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul as _times


_POW_BITS = 32  # PadicDigits.inv: pow below 2^32, Newton lifting above


@lru_cache(maxsize=1024)
def pw(p: int, n: int) -> int:
    """p**n (n >= 0), cached for the (p, n) pairs actually requested."""
    return p**n


class PadicDigits:
    """Z_p: stored digits are the integer value; arithmetic is mod p^n."""

    __slots__ = ("p", "symbol")

    def __init__(self, p: int):
        self.p = p
        self.symbol = str(p)

    def add(self, x: int, y: int, n: int) -> int:
        return (x + y) % pw(self.p, n) if n > 0 else 0

    def neg(self, x: int, n: int) -> int:
        return (-x) % pw(self.p, n) if n > 0 else 0

    def mul(self, x: int, y: int, n: int) -> int:
        return (x * y) % pw(self.p, n) if n > 0 else 0

    def inv(self, u: int, n: int) -> int:
        # pow below a modulus of 2^_POW_BITS; above, Newton's
        # g <- g*(2 - u*g) mod p^n from the inverse mod p^ceil(n/2), about
        # a quarter of pow's time at 5^100 and two thirds at 3^30
        if n <= 0:
            return 0
        p, mods = self.p, []
        pn = pw(p, n)
        while n > 1 and pn >> _POW_BITS:
            mods.append(pn)
            n = (n + 1) // 2
            pn = pw(p, n)
        g = pow(u, -1, pn)
        for pn in reversed(mods):
            g = g * (2 - u * g) % pn
        return g

    def shift(self, x: int, k: int) -> int:
        return x * pw(self.p, k)

    def unshift(self, x: int, k: int) -> int:
        return x // pw(self.p, k)

    def sub_scaled(self, xs: list[int], ys: list[int], s: int, n: int) -> list[int]:
        pn = pw(self.p, n)
        return [(a - s * b) % pn for a, b in zip(xs, ys)]

    def product(self, rows: list[list[int]], cols: list[list[int]], n: int) -> list[list[int]]:
        # one reduction per entry, of the exact sum in ascending index
        pn = pw(self.p, n)
        return [[sum(map(_times, r, c)) % pn for c in cols] for r in rows]

    def strip(self, x: int) -> tuple[int, int]:
        p = self.p
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v, x

    def trunc(self, x: int, n: int) -> int:
        return x % pw(self.p, n)

    def encode(self, x: int) -> int:
        return x

    def decode(self, x: int) -> int:
        return x


class SeriesDigits:
    """F_p[[t]]: digit i of a stored int lives in bits [i*w, (i+1)*w).

    The layout follows from b, the bits that hold a slot sum: CAP =
    floor((2^b - 1) / (p-1)^2) is the longest product of two operands whose
    slots never overflow, since each slot of it sums at most CAP products of
    digits below p.  k = b + bit_length(p-1) and the slot width is w = b + k.
    With m = ceil(2^k / p) the quotient of a slot s < 2^b by p is exactly
    (s*m) >> k, and (s*m) < 2^w stays inside its slot, so one multiply,
    shift, mask and multiply-subtract reduce every slot mod p at once.
    Longer multipliers are split into CAP-digit chunks whose partial
    products are reduced before they are summed, so any digit count is
    exact.

    Every big-int op costs in proportion to w, so b is sized for the ring's
    precision rather than for the longest operand:
    :class:`~dvrlu.config.DvrConfig` passes b = bit_length(2*prec*(p-1)^2)
    (:func:`slot_bits`), which makes CAP >= 2*prec.  A prec-digit
    ``sub_scaled`` then takes its one-reduction route and ``product`` sums
    at least two slot products per reduction.  Configs with the same p and
    b share one object; since the layout depends on prec, it lives in the
    config, and elements of two layouts refuse to combine
    (:mod:`dvrlu.element`).
    """

    __slots__ = ("p", "symbol", "b", "CAP", "k", "w", "m", "slot", "_tabs")

    def __init__(self, p: int, b: int):
        self.p = p
        self.symbol = "t"
        self.b = b
        self.CAP = ((1 << b) - 1) // (p - 1) ** 2
        self.k = b + (p - 1).bit_length()
        self.w = b + self.k
        self.m = -(-(1 << self.k) // p)
        self.slot = (1 << self.w) - 1
        self._tabs = _SlotMasks(self)

    def _reduce(self, x: int, n: int) -> int:
        """Every one of x's n slots (each below 2^b) reduced mod p.  add, neg,
        mul and sub_scaled repeat this expression inline: they are the hot
        path, and a call per entry would cost more than the reduction."""
        return x - self.p * (((x * self.m) >> self.k) & self._tabs[n][1])

    def add(self, x: int, y: int, n: int) -> int:
        if n <= 0:
            return 0
        full, low_b, _, _ = self._tabs[n]
        x = (x + y) & full
        return x - self.p * (((x * self.m) >> self.k) & low_b)

    def neg(self, x: int, n: int) -> int:
        if n <= 0:
            return 0
        full, low_b, pones, _ = self._tabs[n]
        x = pones - (x & full)
        return x - self.p * (((x * self.m) >> self.k) & low_b)

    def mul(self, x: int, y: int, n: int) -> int:
        # Digit i of a product only sums the i+1 products c_a * d_b with
        # a + b = i, and slots only overflow upwards, so the low n slots of
        # x*y are exact whatever lies above them as long as n <= CAP.
        if n <= 0:
            return 0
        if n <= self.CAP:
            full, low_b, _, _ = self._tabs[n]
            x = (x * y) & full
            return x - self.p * (((x * self.m) >> self.k) & low_b)
        cap, w, tabs = self.CAP, self.w, self._tabs
        x &= tabs[n][0]
        y &= tabs[n][0]
        acc = 0
        for c in range(0, n, cap):
            yc = (y >> (c * w)) & tabs[cap][0]
            rest = n - c  # every slot of x*yc sums at most CAP products
            part = self._reduce((x * yc) & tabs[rest][0], rest)
            acc = self._reduce(acc + (part << (c * w)), n)
        return acc

    def inv(self, u: int, n: int) -> int:
        # Newton: g <- g*(2 - u*g) doubles the number of correct digits.
        if n <= 0:
            return 0
        g = pow(u & self.slot, -1, self.p)
        steps = []
        while n > 1:
            steps.append(n)
            n = (n + 1) // 2
        for n in reversed(steps):
            e = self.mul(u, g, n)
            two_minus = self._reduce(self._tabs[n][2] + 2 - e, n)
            g = self.mul(g, two_minus, n)
        return g

    def shift(self, x: int, k: int) -> int:
        return x << (k * self.w)

    def unshift(self, x: int, k: int) -> int:
        return x >> (k * self.w)

    def sub_scaled(self, xs: list[int], ys: list[int], s: int, n: int) -> list[int]:
        # A slot of s*y is at most n*(p-1)^2 <= q (see _SlotMasks), so every
        # slot of x + q - s*y lies in [0, 2^b): no borrow, and one reduction
        # mod p gives x - s*y.
        if n > self.CAP - 2:
            return [self.add(a, self.neg(self.mul(s, b, n), n), n) for a, b in zip(xs, ys)]
        full, low_b, _, q = self._tabs[n]
        m, k, p = self.m, self.k, self.p
        return [
            (x := a + q - (s * b & full)) - p * (((x * m) >> k) & low_b)
            for a, b in zip(xs, ys)
        ]

    def product(self, rows: list[list[int]], cols: list[list[int]], n: int) -> list[list[int]]:
        # A slot of a sum of g = CAP // n slot products is at most
        # g*n*(p-1)^2 <= CAP*(p-1)^2 < 2^b, so the terms are summed raw g
        # at a time, each group is reduced once and the groups are added.
        # Past CAP digits each term is one mul, as in sub_scaled.
        if n > self.CAP:
            g, group = 1, lambda xs, ys: self.mul(xs[0], ys[0], n)
        else:
            full, low_b, _, _ = self._tabs[n]
            m, k, p, g = self.m, self.k, self.p, self.CAP // n

            def group(xs: list[int], ys: list[int]) -> int:
                x = sum(map(_times, xs, ys)) & full
                return x - p * (((x * m) >> k) & low_b)

        plus = lambda x, y: self.add(x, y, n)
        return [[reduce(plus, [group(r[s:s + g], c[s:s + g]) for s in range(0, len(r), g)])
                 for c in cols] for r in rows]

    def strip(self, x: int) -> tuple[int, int]:
        v = ((x & -x).bit_length() - 1) // self.w
        return v, x >> (v * self.w)

    def trunc(self, x: int, n: int) -> int:
        return x & self._tabs[n][0]

    def encode(self, x: int) -> int:
        """Slots of the base-p packing x (nonnegative)."""
        if x < 0:
            raise ValueError("series backend takes nonnegative packed digits")
        out = shift = 0
        while x:
            x, c = divmod(x, self.p)
            out |= c << shift
            shift += self.w
        return out

    def decode(self, x: int) -> int:
        """Base-p packing of the stored slots x."""
        out = 0
        for i in range((x.bit_length() + self.w - 1) // self.w - 1, -1, -1):
            out = out * self.p + ((x >> (i * self.w)) & self.slot)
        return out


def slot_bits(p: int, prec: int) -> int:
    """The b of the F_p[[t]] layout for precision prec: the bits of
    2*prec*(p-1)^2, the largest slot of a product of two 2*prec-digit
    operands."""
    return (2 * prec * (p - 1) ** 2).bit_length()


class _SlotMasks(dict):
    """Per digit count n of a :class:`SeriesDigits`, built on first use: the
    mask of n whole slots, the mask of the low b bits of n slots, p in each
    of n slots, and in each of n slots q, the largest multiple of p at most
    2^b - p.  A slot of a product of two n-slot operands is at most
    q when n <= CAP - 2, and p - 1 + q < 2^b."""

    def __init__(self, ops: SeriesDigits):
        super().__init__()
        self.ops = ops

    def __missing__(self, n: int) -> tuple[int, int, int, int]:
        ops = self.ops
        ones = (1 << (n * ops.w)) // ops.slot  # 1 in each of n slots
        spare = ops.p * ((1 << ops.b) // ops.p - 1)
        t = self[n] = (
            ones * ops.slot, ones * ((1 << ops.b) - 1), ones * ops.p, ones * spare
        )
        return t
