"""Ring configuration shared by every precision-tracked object.

A :class:`DvrConfig` fixes the complete discrete valuation ring we compute in:
the p-adic integers ``Z_p`` (backend ``"padic"``) or the power-series ring
``F_p[[t]]`` (backend ``"series"``).  In both cases the residue field has
cardinality ``p`` and an element keeps finitely many base-``p`` digits.  The
digit arithmetic is the one thing the backends do differently: the config
picks its digit-ops object once (:class:`~dvrlu.digits.PadicDigits`, integer
arithmetic mod p^n, or :class:`~dvrlu.digits.SeriesDigits`, carry-free
digits in bit slots) and every element calls it through ``cfg.ops``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache

from .digits import PadicDigits, SeriesDigits


class Backend(enum.Enum):
    """Which concrete DVR the digits live in."""

    PADIC = "padic"
    SERIES = "series"


def require_prime(p) -> None:
    """Raise ValueError unless p is a prime integer."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    # sympy is heavy; import only when a prime is actually checked.
    from sympy import isprime

    if not isprime(p):
        raise ValueError(f"p must be prime, got {p}")


@cache
def _digit_ops(backend: "Backend", p: int):
    return (PadicDigits if backend is Backend.PADIC else SeriesDigits)(p)


@dataclass(frozen=True, slots=True)
class DvrConfig:
    """Immutable description of the working ring.

    Args:
        p: residue characteristic; must be prime.  This is both the residue
            field cardinality q and (for the padic backend) the uniformizer.
        prec: default relative precision for exact ring elements, i.e. the
            number of significant base-p digits carried by a freshly created
            unit.  Must be positive.
        backend: ``Backend.PADIC`` for Z_p, ``Backend.SERIES`` for F_p[[t]].

    The digit-ops object ``ops`` is derived from ``p`` and ``backend``; it
    takes no part in equality, hashing, ``repr``, JSON or pickling.
    """

    p: int
    prec: int
    backend: Backend = Backend.PADIC
    ops: PadicDigits | SeriesDigits = field(
        init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        require_prime(self.p)
        if not isinstance(self.prec, int) or self.prec < 1:
            raise ValueError(f"prec must be a positive integer, got {self.prec!r}")
        if not isinstance(self.backend, Backend):
            raise ValueError(f"backend must be a Backend, got {self.backend!r}")
        object.__setattr__(self, "ops", _digit_ops(self.backend, self.p))

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
