"""Dense matrices of precision-tracked elements.

Thin mutable container: a list of rows of elements.  Entries only need the
shared element protocol (arithmetic operators, ``is_zeroish``,
``lift_to_precision``/``cap_abs``, ``like_one``/``like_zero``,
``pivot_scalar``), so the same container holds scalar DVR entries and
truncated power-series entries.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .config import DvrConfig
from .element import PrecElem, _json_int


class PrecMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [list(r) for r in rows]
        if not self.rows:
            raise ValueError("matrix has no rows")
        w = len(self.rows[0])
        if any(len(r) != w for r in self.rows):
            raise ValueError("ragged rows")

    # -- shape / access ----------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.rows[i][j] = value

    def copy(self) -> "PrecMatrix":
        return PrecMatrix(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrecMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        body = ",\n ".join("[" + ", ".join(map(repr, r)) + "]" for r in self.rows)
        return f"PrecMatrix(\n {body})"

    # -- entrywise helpers ---------------------------------------------------

    def map(self, fn: Callable) -> "PrecMatrix":
        return PrecMatrix([[fn(e) for e in r] for r in self.rows])

    def cap_abs(self, n: int) -> "PrecMatrix":
        return self.map(lambda e: e.cap_abs(n))

    def lift_to_precision(self, n: int) -> "PrecMatrix":
        return self.map(lambda e: e.lift_to_precision(n))

    def min_abs_prec(self) -> int:
        return min(e.abs_prec for r in self.rows for e in r)

    # -- mutating column operations (the elimination primitives) ------------

    def swap_cols(self, i: int, j: int) -> None:
        for row in self.rows:
            row[i], row[j] = row[j], row[i]

    def sub_scaled_col(self, s, src: int, dst: int) -> None:
        """column dst -= s * column src"""
        for row in self.rows:
            row[dst] = row[dst] - s * row[src]

    # -- block assembly ------------------------------------------------------

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "PrecMatrix":
        return PrecMatrix([row[c0:c1] for row in self.rows[r0:r1]])

    @staticmethod
    def identity_like(proto: "PrecMatrix", d: int, abs_prec: int) -> "PrecMatrix":
        """d x d identity in the same ring as proto's entries, flat at the
        given absolute precision (exact zeros are O(pi^n))."""
        e = proto.rows[0][0]
        one, zero = e.like_one(abs_prec), e.like_zero(abs_prec)
        return PrecMatrix([[one if i == j else zero for j in range(d)] for i in range(d)])

    @staticmethod
    def zero_like(proto: "PrecMatrix", nrows: int, ncols: int, abs_prec: int) -> "PrecMatrix":
        zero = proto.rows[0][0].like_zero(abs_prec)
        return PrecMatrix([[zero] * ncols for _ in range(nrows)])

    # -- io -------------------------------------------------------------------

    def to_json(self) -> dict:
        if self.nrows != self.ncols:
            raise ValueError("only square matrices serialize")
        return {"d": self.nrows, "rows": [[e.to_json() for e in r] for r in self.rows]}

    @staticmethod
    def from_json(cfg: DvrConfig, obj: dict) -> "PrecMatrix":
        try:
            d = _json_int(obj["d"], "d")
            rows = obj["rows"]
            if len(rows) != d or any(len(r) != d for r in rows):
                raise ValueError(f"expected {d}x{d} rows array")
            return PrecMatrix(
                [[PrecElem.from_json(cfg, e) for e in r] for r in rows]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix: {exc}") from exc


def random_matrix(cfg: DvrConfig, d: int, rng) -> PrecMatrix:
    """d x d matrix with iid Haar-random entries at flat absolute precision
    N = ``cfg.prec`` (:meth:`PrecElem.random`)."""
    return PrecMatrix([[PrecElem.random(cfg, rng) for _ in range(d)] for _ in range(d)])
