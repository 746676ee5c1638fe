"""Subcubic variants: counted matrix products and the recursive elimination.

The recursive decomposition reproduces the scalar elimination of
:mod:`dvrlu.lu_stable` *bit for bit* while doing most of its work inside
matrix products.  Two facts make that possible:

* for flat-precision integral input every intermediate entry of the
  elimination stays at absolute precision exactly N, so all the assembled
  matrix products can be truncated back to N (truncation only — the natural
  precision of the products is never below N) and agree digit-for-digit with
  the sequential column operations;
* the elimination steps (i, j) may be reordered into any "nice" order
  (earlier rows of a column first; a column fully processed before it is
  used as a pivot column), and all nice orders produce the same output, so
  clearing whole bands at a time is just a reordering.

Matrix products route through :func:`matmul`, which counts scalar
multiplications in a module-level counter (used by the complexity tests) and
optionally uses Strassen's recursion — value-equal to the classical product,
possibly with coarser tracked precision, so the default everywhere here is
the classical order-deterministic kernel.  Every product truncated back to
N of elements (in simul, sheaf and the element recursion) goes through
:func:`_capped`, which runs a classical one of integral ``Z_p`` operands
known to precision N on :func:`dvrlu.kernel.capped_product`: same entries,
same count.  ``F_p[[t]]`` operands, ``SeriesElem`` entries (so sheaf's), an
entry of negative valuation, Strassen and the uncapped public product stay
on :func:`matmul`.

:func:`recursive_lv` and :func:`clear_block` are written once, over row
lists, and run in one of two representations chosen at the top:

* the **int recursion** (:class:`_Residues`), for a classical run on
  integral ``Z_p`` entries all at precision exactly N: the input is read
  once as ints mod p^N, the leaves are :func:`dvrlu.kernel.rounds`, the
  one-row band steps are :func:`dvrlu.kernel.stepper`, the products are
  sums mod p^N counted as the element products they stand for, and
  elements are built once, for the output;
* the **element recursion** (:class:`_Elements`), for everything else:
  the leaves are :func:`~dvrlu.lu_stable.lv_decomposition`, the band steps
  :func:`~dvrlu.lu_stable._pivot_step` and the products :func:`_capped`.
  It is the reference the int recursion reproduces field for field.  On
  flat ``F_p[[t]]`` input its leaves still run on the kernel, through
  :func:`~dvrlu.lu_stable.lv_decomposition`.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from . import kernel
from .config import Backend
from .digits import pw
from .element import PrecElem
from .lu_stable import LvOutput, lv_decomposition, working_precision
from .lu_stable import _flattened, _pivot_step, _square_dim, _val_or_none
from .matrix import PrecMatrix

_MUL_COUNT = 0


def reset_mul_count() -> None:
    global _MUL_COUNT
    _MUL_COUNT = 0


def get_mul_count() -> int:
    return _MUL_COUNT


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def _mat_add(a: PrecMatrix, b: PrecMatrix) -> PrecMatrix:
    return PrecMatrix(
        [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    )


def _mat_sub(a: PrecMatrix, b: PrecMatrix) -> PrecMatrix:
    return PrecMatrix(
        [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    )


def _matmul_classical(a: PrecMatrix, b: PrecMatrix) -> PrecMatrix:
    global _MUL_COUNT
    n, m, w = a.nrows, a.ncols, b.ncols
    bt = list(zip(*b.rows))  # column views
    out = []
    for i in range(n):
        ra = a.rows[i]
        row = []
        for j in range(w):
            cb = bt[j]
            acc = ra[0] * cb[0]
            for k in range(1, m):  # ascending k: deterministic summation order
                acc = acc + ra[k] * cb[k]
            row.append(acc)
        out.append(row)
    _MUL_COUNT += n * m * w
    return PrecMatrix(out)


def _capped(a: PrecMatrix, b: PrecMatrix, n: int, algo: str = "classical") -> PrecMatrix:
    """``matmul(a, b, algo).cap_abs(n)``.  A classical product of integral
    ``Z_p`` operands known to precision >= n runs on the integer kernel,
    which gives the same entries and the same count."""
    global _MUL_COUNT
    if algo == "classical" and a.ncols == b.nrows:
        out = kernel.capped_product(a, b, n)
        if out is not None:
            _MUL_COUNT += a.nrows * a.ncols * b.ncols
            return out
    return matmul(a, b, algo).cap_abs(n)


def _pad_even(a: PrecMatrix, n: int) -> PrecMatrix:
    """Extend an odd-sized square matrix by an identity row/column."""
    proto = a.rows[0][0]
    d = a.nrows
    rows = [list(r) + [proto.like_zero(n)] for r in a.rows]
    rows.append([proto.like_zero(n)] * d + [proto.like_one(n)])
    return PrecMatrix(rows)


def _matmul_strassen(a: PrecMatrix, b: PrecMatrix, cutoff: int, n: int) -> PrecMatrix:
    d = a.nrows
    if d == 1 or d < cutoff:
        return _matmul_classical(a, b)
    if d % 2:
        # identity extension: [[A,0],[0,1]] * [[B,0],[0,1]] = [[AB,0],[0,1]]
        big = _matmul_strassen(_pad_even(a, n), _pad_even(b, n), cutoff, n)
        return big.block(0, d, 0, d)
    h = d // 2
    a11, a12 = a.block(0, h, 0, h), a.block(0, h, h, d)
    a21, a22 = a.block(h, d, 0, h), a.block(h, d, h, d)
    b11, b12 = b.block(0, h, 0, h), b.block(0, h, h, d)
    b21, b22 = b.block(h, d, 0, h), b.block(h, d, h, d)
    rec = lambda x, y: _matmul_strassen(x, y, cutoff, n)
    m1 = rec(_mat_add(a11, a22), _mat_add(b11, b22))
    m2 = rec(_mat_add(a21, a22), b11)
    m3 = rec(a11, _mat_sub(b12, b22))
    m4 = rec(a22, _mat_sub(b21, b11))
    m5 = rec(_mat_add(a11, a12), b22)
    m6 = rec(_mat_sub(a21, a11), _mat_add(b11, b12))
    m7 = rec(_mat_sub(a12, a22), _mat_add(b21, b22))
    c11 = _mat_add(_mat_sub(_mat_add(m1, m4), m5), m7)
    c12 = _mat_add(m3, m5)
    c21 = _mat_add(m2, m4)
    c22 = _mat_add(_mat_add(_mat_sub(m1, m2), m3), m6)
    return PrecMatrix.from_blocks([[c11, c12], [c21, c22]])


def matmul(
    a: PrecMatrix, b: PrecMatrix, algo: str = "classical", cutoff: int = 8
) -> PrecMatrix:
    """Matrix product, never truncating the tracked precision.

    algo "classical": cubic kernel with a fixed (ascending) summation order,
    so results are deterministic entry by entry.  algo "strassen": Strassen's
    seven-product recursion for square operands (falls back to the classical
    kernel below `cutoff` and for rectangular shapes); value-equal to the
    classical product but the tracked precision of entries can come out
    coarser because of the extra additions.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} * {b.nrows}x{b.ncols}")
    if algo == "classical":
        return _matmul_classical(a, b)
    if algo == "strassen":
        if a.nrows == a.ncols == b.ncols:
            n = max(working_precision(a), working_precision(b))
            return _matmul_strassen(a, b, cutoff, n)
        return _matmul_classical(a, b)
    raise ValueError(f"unknown multiplication algorithm {algo!r}")


# ---------------------------------------------------------------------------
# the recursion's two representations
# ---------------------------------------------------------------------------


def _identity(r, size: int, n: int) -> list[list]:
    one, zero = r.one(n), r.zero(n)
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


def _transposed(m: Sequence[Sequence]) -> list[list]:
    return [list(line) for line in zip(*m)]


class _Residues:
    """Row lists of ints mod p^n: the integer kernel's operations, for
    integral ``Z_p`` entries at precision exactly n and classical products.
    The swap rule is the kernel's :func:`~dvrlu.kernel.stepper`, the leaves
    are :func:`~dvrlu.kernel.rounds`, and each product is counted as the
    element product it stands for."""

    def __init__(self, cfg, n: int):
        self.cfg, self.n, self.pn = cfg, n, pw(cfg.p, n)
        self.step = kernel.stepper(n, cfg)
        self.elem = kernel.elements(cfg, n)

    def zero(self, n: int) -> int:
        return 0

    def one(self, n: int) -> int:
        return 1

    def flat(self, m: list[list[int]]) -> tuple[list[list[int]], int]:
        return m, self.n

    def product(self, a: list[list[int]], b: list[list[int]], n: int) -> list[list[int]]:
        global _MUL_COUNT
        _MUL_COUNT += len(a) * len(b) * len(b[0])
        pn, cols = self.pn, list(zip(*b))
        return [[sum(map(mul, r, c)) % pn for c in cols] for r in a]

    def band(self, row: list[int], n: int) -> tuple[list[list[int]], list[list[int]]]:
        cols, t = [[e] for e in row], _identity(self, len(row), n)  # t by columns
        for c in range(1, len(row)):
            self.step((cols, t), 0, c)
        return [cols[0]], _transposed(t)

    def leaf(self, m: list[list[int]]) -> tuple[list[list[int]], ...]:
        cols, w = _transposed(m), _identity(self, len(m), self.n)
        lp, vp = [], []
        for j in kernel.rounds(cols, self.n, self.cfg, w):
            lp.append(cols[j])  # columns are replaced, so this is round j's state
            vp.append(w[j])
        return tuple(map(_transposed, (lp, vp, cols, w)))

    def elements(self, m: list[list[int]]) -> list[list[PrecElem]]:
        return [[self.elem(x) for x in row] for row in m]


class _Elements:
    """Row lists of elements: the object path, for ``F_p[[t]]`` and
    ``SeriesElem`` entries, an entry of negative valuation or known beyond
    n, and Strassen products."""

    def __init__(self, proto, algo: str):
        self.proto, self.algo = proto, algo

    def zero(self, n: int):
        return self.proto.like_zero(n)

    def one(self, n: int):
        return self.proto.like_one(n)

    def flat(self, m: list[list]) -> tuple[list[list], int]:
        m, n = _flattened(PrecMatrix(m))
        return m.rows, n

    def product(self, a: list[list], b: list[list], n: int) -> list[list]:
        return _capped(PrecMatrix(a), PrecMatrix(b), n, self.algo).rows

    def band(self, row: list, n: int) -> tuple[list[list], list[list]]:
        band = PrecMatrix([row])
        t = PrecMatrix(_identity(self, len(row), n))
        for c in range(1, len(row)):
            _pivot_step(band, 0, c, n, t)
        return [[band[0, 0]]], t.rows

    def leaf(self, m: list[list]) -> tuple[list[list], ...]:
        out = lv_decomposition(PrecMatrix(m))
        return out.lp.rows, out.vp.rows, out.hp.rows, out.wp.rows

    def elements(self, m: list[list]) -> list[list]:
        return m


def _representation(n: int, algo: str, *mats: PrecMatrix):
    """The representation to run on and the rows of mats in it: residues
    when algo is classical and every entry is an integral ``Z_p`` element
    of one ring at absolute precision exactly n, elements otherwise.

    An entry known beyond n stays an element: a swap comparison of two
    entries that are both 0 mod p^n is decided by their further digits,
    where the kernel, reading them mod p^n, would raise.  ``F_p[[t]]`` stays
    on elements: a product's sum of slot products could overflow a slot.
    """
    proto = mats[0].rows[0][0]
    if (
        algo == "classical"
        and type(proto) is PrecElem
        and proto.cfg.backend is Backend.PADIC
        and all(e.abs_prec == n for x in mats for row in x.rows for e in row)
    ):
        rows = [kernel.ints(x.rows, n, proto.cfg) for x in mats]
        if None not in rows:
            return _Residues(proto.cfg, n), rows
    return _Elements(proto, algo), [x.rows for x in mats]


# ---------------------------------------------------------------------------
# band clearing
# ---------------------------------------------------------------------------


def _hstack(a: list[list], b: list[list]) -> list[list]:
    return [ra + rb for ra, rb in zip(a, b)]


def _split(m: list[list], c: int) -> tuple[list[list], list[list]]:
    """The columns of m before c and from c on."""
    return [row[:c] for row in m], [row[c:] for row in m]


def _quarters(m: list[list], r: int, c: int) -> tuple[list[list], ...]:
    """The blocks of m above-left, above-right, below-left and below-right
    of row r and column c."""
    return (*_split(m[:r], c), *_split(m[r:], c))


def _joined(grid: Sequence[Sequence[list[list]]]) -> list[list]:
    return [row for band in grid for row in _hstack(*band)]


def _embed(t: list[list], idx: Sequence[int], size: int, n: int, r) -> list[list]:
    """Identity of the given size with t placed on the index set idx."""
    out = _identity(r, size, n)
    for a, ia in enumerate(idx):
        for b, ib in enumerate(idx):
            out[ia][ib] = t[a][b]
    return out


def _clear(x: list[list], y: list[list], n: int, r) -> tuple[list[list], list[list]]:
    """:func:`clear_block` on row lists in representation r."""
    k, w = len(x), len(y[0])
    if w == 0:
        return x, _identity(r, k, n)
    if k == 1:
        return r.band(x[0] + y[0], n)
    c, w1 = k // 2, w // 2
    x1, x2, x3, x4 = _quarters(x, c, c)  # x2: exact zeros, passed through
    y1, y2, y3, y4 = _quarters(y, c, w1)
    mm = lambda a, b: r.product(a, b, n)

    # 1) clear Y's top-left against X1, then carry the transform into the
    #    bottom rows of the touched columns
    x1, t1 = _clear(x1, y1, n, r)
    x3, y3 = _split(mm(_hstack(x3, y3), t1), c)

    # 2) clear Y's top-right against the updated X1
    x1, t2 = _clear(x1, y2, n, r)
    x3, y4 = _split(mm(_hstack(x3, y4), t2), c)

    # 3) clear Y's bottom-left against X4 (top rows of these columns are
    #    exact zeros at precision n and stay so: transform not applied)
    x4, t3 = _clear(x4, y3, n, r)

    # 4) clear Y's bottom-right against the updated X4
    x4, t4 = _clear(x4, y4, n, r)

    size = k + w
    s1 = list(range(0, c)) + list(range(k, k + w1))
    s2 = list(range(0, c)) + list(range(k + w1, k + w))
    s3 = list(range(c, k)) + list(range(k, k + w1))
    s4 = list(range(c, k)) + list(range(k + w1, k + w))
    t = _embed(t1, s1, size, n, r)
    for ti, si in ((t2, s2), (t3, s3), (t4, s4)):
        t = mm(t, _embed(ti, si, size, n, r))
    return _joined([[x1, x2], [x3, x4]]), t


def clear_block(
    x: PrecMatrix, y: PrecMatrix, n: int, algo: str = "classical"
) -> tuple[PrecMatrix, PrecMatrix]:
    """Clear the band [X | Y] to [Xf | 0] by an invertible column transform.

    X is k x k, already eliminated (lower triangular with pivoting applied,
    exact zeros above the diagonal at precision n); Y is the k x w band to
    its right.  Returns (Xf, T) with T square of size k + w such that
    [X | Y] * T agrees with [Xf | 0] at precision n — bit for bit when the
    band is integral at flat precision n.  T encodes the pivoting swaps, so
    rows outside the band are updated by multiplying with T afterwards.

    The recursion halves both the rows of X and the columns of Y.  When a
    sub-step operates on X's lower-right quadrant, the corresponding top
    rows of the touched columns are exact zeros O(pi^n) (cleared by the
    earlier sub-steps or the zero block of X), and column operations keep
    them exact zeros, so the transform is not applied to them at all.  A
    band of integral ``Z_p`` entries all at precision exactly n runs on
    ints mod p^n; any other band on elements.
    """
    if y.nrows != x.nrows or x.ncols != x.nrows:
        raise ValueError("band shapes disagree")
    r, (xr, yr) = _representation(n, algo, x, y)
    xf, t = _clear(xr, yr, n, r)
    return PrecMatrix(r.elements(xf)), PrecMatrix(r.elements(t))


# ---------------------------------------------------------------------------
# recursive split decomposition
# ---------------------------------------------------------------------------


def _lv(m: list[list], n: int, threshold: int, r) -> tuple[list[list], ...]:
    """(L', V', H', W') of the square row list m, flat at precision n, in
    representation r, as row lists."""
    d = len(m)
    if d <= threshold:
        return r.leaf(m)
    dp = d // 2
    m1, m2, m3, m4 = _quarters(m, dp, dp)
    mm = lambda a, b: r.product(a, b, n)

    lp1, vp1, hp1, wp1 = _lv(m1, n, threshold, r)

    # the top band at the split boundary is [H'_top | M2]; clear it
    xf, t = _clear(hp1, m2, n, r)

    # bottom rows at the boundary: [M3 * W'_top | M4], then the band transform
    bl, br = _split(mm(_hstack(mm(m3, wp1), m4), t), dp)

    lp2, vp2, hp2, wp2 = _lv(*r.flat(br), threshold, r)

    t11, t12, t21, t22 = _quarters(t, dp, dp)
    z_tr = [[r.zero(n)] * (d - dp) for _ in range(dp)]
    z_bl = [[r.zero(n)] * dp for _ in range(d - dp)]
    hp = _joined([[xf, z_tr], [bl, hp2]])
    lp = _joined([[lp1, z_tr], [mm(m3, vp1), lp2]])
    wt = mm(wp1, t12)
    wp = _joined([[mm(wp1, t11), mm(wt, wp2)], [t21, mm(t22, wp2)]])
    v_tr = mm(wt, vp2)
    vp = _joined([[vp1, v_tr], [z_bl, mm(t22, vp2)]])
    return lp, vp, hp, wp


def recursive_lv(
    m: PrecMatrix, threshold: int = 32, algo: str = "classical"
) -> LvOutput:
    """Divide-and-conquer form of :func:`~dvrlu.lu_stable.lv_decomposition`.

    Splits the columns at d' = floor(d/2): recurses on the top-left block,
    clears the top band against it with :func:`clear_block`, pushes the
    accumulated transforms into the bottom rows with (precision-capped)
    matrix products, and recurses on the remaining bottom-right block.  For
    integral input at flat precision the output equals the scalar
    elimination's *bit for bit* (same values, same tracked precision); with
    algo "strassen" the values still agree but tracked precision can be
    coarser.  With classical products, an integral ``Z_p`` input runs the
    whole recursion on ints mod p^N and builds elements only for the output.

    Args:
        m: square matrix over the scalar ring.
        threshold: dimensions <= threshold delegate to the scalar routine;
            ValueError when below 1.
        algo: multiplication kernel for the assembled products.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")
    d = _square_dim(m)
    if d <= threshold:
        return lv_decomposition(m)
    m, n = _flattened(m)
    r, (rows,) = _representation(n, algo, m)
    lp, vp, hp, wp = (PrecMatrix(r.elements(x)) for x in _lv(rows, n, threshold, r))
    col_val = [_val_or_none(hp[j, j]) for j in range(d)]
    degenerate = any(lp[j, j].is_zeroish for j in range(d))
    return LvOutput(lp=lp, vp=vp, hp=hp, wp=wp, col_val=col_val, degenerate=degenerate)


# ---------------------------------------------------------------------------
# elimination orders
# ---------------------------------------------------------------------------


def is_nice_order(pairs: Sequence[tuple[int, int]], d: int) -> bool:
    """Check the two defining conditions of a nice elimination order on the
    strictly-upper positions (i, j), 0-indexed, i < j:

    1. within a column, earlier rows first: i <= i' < j implies (i, j)
       comes no later than (i', j);
    2. a column is complete before serving as pivot: j <= i' implies (i, j)
       comes no later than (i', j').
    """
    pos = {p: r for r, p in enumerate(pairs)}
    if len(pos) != d * (d - 1) // 2:
        return False
    for (i, j), r in pos.items():
        if not (0 <= i < j < d):
            return False
        for (a, b), r2 in pos.items():
            if b == j and i <= a and r > r2 and (a, b) != (i, j):
                return False
            if j <= a and r > r2:
                return False
    return True


def elimination_order(d: int, threshold: int = 32) -> list[tuple[int, int]]:
    """The global order in which :func:`recursive_lv` clears positions.

    Raises ValueError when threshold is below 1, as recursive_lv does.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")

    def scalar(cols: list[int]) -> list[tuple[int, int]]:
        return [(cols[i], cols[j]) for j in range(len(cols)) for i in range(j)]

    def band(rows: list[int], ycols: list[int]) -> list[tuple[int, int]]:
        k, w = len(rows), len(ycols)
        if w == 0:
            return []
        if k == 1:
            return [(rows[0], yc) for yc in ycols]
        c, w1 = k // 2, w // 2
        return (
            band(rows[:c], ycols[:w1])
            + band(rows[:c], ycols[w1:])
            + band(rows[c:], ycols[:w1])
            + band(rows[c:], ycols[w1:])
        )

    def rec(cols: list[int]) -> list[tuple[int, int]]:
        if len(cols) <= threshold:
            return scalar(cols)
        dp = len(cols) // 2
        return rec(cols[:dp]) + band(cols[:dp], cols[dp:]) + rec(cols[dp:])

    return rec(list(range(d)))
