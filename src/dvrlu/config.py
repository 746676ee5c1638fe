"""Ring configuration shared by every precision-tracked object.

A :class:`DvrConfig` fixes the complete discrete valuation ring we compute in:
the p-adic integers ``Z_p`` (backend ``"padic"``) or the power-series ring
``F_p[[t]]`` (backend ``"series"``).  In both cases the residue field has
cardinality ``p`` and an element keeps finitely many base-``p`` digits.  The
digit arithmetic is the one thing the backends do differently: the config
picks its digit-ops object once (:class:`~dvrlu.digits.PadicDigits`, integer
arithmetic mod p^n, or :class:`~dvrlu.digits.SeriesDigits`, carry-free
digits in bit slots sized for the config's precision) and every element
calls it through ``cfg.ops``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cache

from .digits import PadicDigits, SeriesDigits, slot_bits


class Backend(enum.Enum):
    """Which concrete DVR the digits live in."""

    PADIC = "padic"
    SERIES = "series"


# Miller-Rabin with these bases is exact below _MR_EXACT (Sorenson and
# Webster, Math. Comp. 2017); _MR_EXACT itself is a strong pseudoprime to all.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: odd n > a passes base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 5."""
    if math.isqrt(n) ** 2 == n:
        return False
    dd = 5  # first of 5, -7, 9, -11, ... with (D / n) = -1
    while (j := _jacobi(dd, n)) != -1:
        if j == 0 and abs(dd) != n:
            return False
        dd = -dd - 2 if dd > 0 else 2 - dd
    q = (1 - dd) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    half = lambda x: (x + n * (x & 1)) // 2 % n  # x / 2 mod n, for 0 <= x
    u, v, qk = 1, 1, q  # U_k, V_k, Q^k at k = 1 (P = 1)
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half((u + v) % n), half((dd * u + v) % n), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality of an int: deterministic Miller-Rabin below 3.3e24, the
    Baillie-PSW test (no known counterexample) above."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < _MR_EXACT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def require_prime(p) -> None:
    """Raise ValueError unless p is a prime integer."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _digit_ops(backend: "Backend", p: int, prec: int) -> PadicDigits | SeriesDigits:
    """The digit-ops object of a ring: one per p for ``Z_p``, one per (p, b)
    for ``F_p[[t]]``, b the slot bits for prec (:func:`~dvrlu.digits.slot_bits`)."""
    if backend is Backend.PADIC:
        return _shared(PadicDigits, p)
    return _shared(SeriesDigits, p, slot_bits(p, prec))


@cache
def _shared(kind: type, *args: int) -> PadicDigits | SeriesDigits:
    return kind(*args)


@dataclass(frozen=True, slots=True)
class DvrConfig:
    """Immutable description of the working ring.

    Args:
        p: residue characteristic; must be prime.  This is both the residue
            field cardinality q and (for the padic backend) the uniformizer.
        prec: default relative precision for exact ring elements, i.e. the
            number of significant base-p digits carried by a freshly created
            unit.  Must be a positive int.
        backend: ``Backend.PADIC`` for Z_p, ``Backend.SERIES`` for F_p[[t]].

    The digit-ops object ``ops`` is derived from ``p``, ``backend`` and,
    for ``F_p[[t]]``, ``prec``, which sizes its bit slots; it takes no part
    in equality, hashing, ``repr``, JSON or pickling.  Elements combine only
    when their configs share ``ops``: every ``Z_p`` config of one p does,
    an ``F_p[[t]]`` config only with the configs of its slot layout.
    """

    p: int
    prec: int
    backend: Backend = Backend.PADIC
    ops: PadicDigits | SeriesDigits = field(
        init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        require_prime(self.p)
        if type(self.prec) is not int or self.prec < 1:  # a bool is not a precision
            raise ValueError(f"prec must be a positive integer, got {self.prec!r}")
        if not isinstance(self.backend, Backend):
            raise ValueError(f"backend must be a Backend, got {self.backend!r}")
        object.__setattr__(self, "ops", _digit_ops(self.backend, self.p, self.prec))

    def __reduce__(self):
        return DvrConfig, (self.p, self.prec, self.backend)

    @property
    def q(self) -> int:
        """Residue field cardinality (alias of p; both backends have q = p)."""
        return self.p

    def to_json(self) -> dict:
        return {"backend": self.backend.value, "p": self.p, "prec": self.prec}

    @staticmethod
    def from_json(obj: dict) -> "DvrConfig":
        try:
            backend = Backend(obj.get("backend", "padic"))
            return DvrConfig(p=obj["p"], prec=obj["prec"], backend=backend)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed ring config: {exc}") from exc
