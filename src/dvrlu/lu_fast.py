"""Subcubic variants: counted matrix products and the recursive elimination.

The recursive decomposition reproduces the scalar elimination of
:mod:`dvrlu.lu_stable` *bit for bit* while doing most of its work inside
matrix products.  Two facts make that possible:

* for flat-precision integral input every intermediate entry of the
  elimination stays at absolute precision exactly N, so the whole
  elimination, every assembled matrix product included, is arithmetic mod
  pi^N (truncation only — the natural precision of the products is never
  below N) and agrees digit-for-digit with the sequential column
  operations;
* the elimination steps (i, j) may be reordered into any "nice" order
  (earlier rows of a column first; a column fully processed before it is
  used as a pivot column), and all nice orders produce the same output, so
  clearing whole bands at a time is just a reordering.  So is clearing a
  band of k rows by its scalar steps (i, c), i < k <= c, column by column
  (each column's k steps in row order, so the kernel reduces it once, at
  its last step), which :func:`recursive_lv` does for the bands of at most
  ``threshold`` rows; its leaves run the square rounds.

:func:`recursive_lv` runs on residues (:class:`_Residues`): the input is
read once as stored ints mod pi^N (:func:`dvrlu.lu_stable._flattened`),
the leaves' rounds and the band steps run on :func:`dvrlu.kernel.stepper`,
the products on the ring's digit-ops ``product`` (or :func:`_strassen`)
counted as the element products they stand for, and elements are built
once, for the output.  Strassen's recursion is exact mod pi^N too, so it changes the
count, never the output.  Input the kernel refuses (``SeriesElem`` entries,
an entry of negative valuation) takes the scalar elimination the recursion
reproduces, :func:`~dvrlu.lu_stable.lv_decomposition`.

The public :func:`matmul` is the classical product of elements; it counts
scalar multiplications in a module-level counter (read by
:func:`get_mul_count`), as do the products above.  Every product truncated
back to N goes through :func:`_capped`: simul's ``omega * M`` and the
sheaf's ``omega * M_m``, a scalar matrix times the coefficient matrices
``M^(l)`` of the series matrix M_m.  It runs on
:func:`dvrlu.kernel.capped_products` when the kernel takes every operand,
and on :func:`matmul` otherwise.
"""

from __future__ import annotations

from typing import Sequence

from . import kernel
from .lu_stable import LvOutput
from .lu_stable import _flattened, _identity, _lv_eliminated, _lv_output, _square_dim
from .matrix import PrecMatrix

_MUL_COUNT = 0
_STRASSEN_CUTOFF = 8  # square products of fewer rows are classical


def get_mul_count() -> int:
    """Scalar multiplications counted so far in this process; callers take
    differences around the work they measure."""
    return _MUL_COUNT


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def matmul(a: PrecMatrix, b: PrecMatrix) -> PrecMatrix:
    """Classical matrix product, never truncating the tracked precision: a
    cubic kernel with a fixed (ascending) summation order, so results are
    deterministic entry by entry."""
    global _MUL_COUNT
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} * {b.nrows}x{b.ncols}")
    bt = list(zip(*b.rows))  # column views
    out = []
    for ra in a.rows:
        row = []
        for cb in bt:
            acc = ra[0] * cb[0]
            for k in range(1, a.ncols):  # ascending k: deterministic summation order
                acc = acc + ra[k] * cb[k]
            row.append(acc)
        out.append(row)
    _MUL_COUNT += a.nrows * a.ncols * b.ncols
    return PrecMatrix(out)


def _capped(a: PrecMatrix, bs: Sequence[PrecMatrix], n: int) -> list[PrecMatrix]:
    """``[matmul(a, b).cap_abs(n) for b in bs]``.  On the integer kernel
    when it takes every operand, counted as the one product ``a * bs[0]``
    (the bs are one matrix, or the coefficient matrices of one series
    matrix); otherwise one :func:`matmul` per b, each counted."""
    global _MUL_COUNT
    out = kernel.capped_products(a, bs, n) if all(a.ncols == b.nrows for b in bs) else None
    if out is None:
        return [matmul(a, b).cap_abs(n) for b in bs]
    _MUL_COUNT += a.nrows * a.ncols * bs[0].ncols
    return out


def _product(ops, a: list[list[int]], b: list[list[int]], n: int) -> list[list[int]]:
    """a * b mod pi^n for row lists of residues, on the digit-ops object
    ops, counted as the element product it stands for."""
    global _MUL_COUNT
    _MUL_COUNT += len(a) * len(b) * len(b[0])
    return ops.product(a, list(zip(*b)), n)


def _strassen(ops, a: list[list[int]], b: list[list[int]], n: int, cutoff: int) -> list[list[int]]:
    """a * b mod pi^n for square row lists of residues by Strassen's
    seven-product recursion, classical (:func:`_product`) at one row and
    below cutoff rows; an odd size is padded with an identity row and
    column.  Arithmetic mod pi^n is exact, so this is the classical product
    digit for digit; a square of 2^k rows at cutoff 1 counts 7^k scalar
    multiplications, where the classical product counts 8^k."""
    d = len(a)
    if d == 1 or d < cutoff:
        return _product(ops, a, b, n)
    if d % 2:
        # identity extension: [[A,0],[0,1]] * [[B,0],[0,1]] = [[AB,0],[0,1]]
        pad = lambda m: [row + [0] for row in m] + [[0] * d + [1]]
        return [row[:d] for row in _strassen(ops, pad(a), pad(b), n, cutoff)[:d]]
    a11, a12, a21, a22 = _quarters(a, d // 2, d // 2)
    b11, b12, b21, b22 = _quarters(b, d // 2, d // 2)
    add = lambda x, y: [[ops.add(s, t, n) for s, t in zip(rx, ry)] for rx, ry in zip(x, y)]
    sub = lambda x, y: add(x, [[ops.neg(t, n) for t in row] for row in y])
    mul = lambda x, y: _strassen(ops, x, y, n, cutoff)
    m1 = mul(add(a11, a22), add(b11, b22))
    m2 = mul(add(a21, a22), b11)
    m3 = mul(a11, sub(b12, b22))
    m4 = mul(a22, sub(b21, b11))
    m5 = mul(add(a11, a12), b22)
    m6 = mul(sub(a21, a11), add(b11, b12))
    m7 = mul(sub(a12, a22), add(b21, b22))
    return _joined([[add(sub(add(m1, m4), m5), m7), add(m3, m5)],
                    [add(m2, m4), add(add(sub(m1, m2), m3), m6)]])


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


def _transposed(m: Sequence[Sequence]) -> list[list]:
    return [list(line) for line in zip(*m)]


def _hstack(a: list[list], b: list[list]) -> list[list]:
    return [ra + rb for ra, rb in zip(a, b)]


class _Residues:
    """Row lists of stored ints mod pi^n: the integer kernel's operations,
    for integral entries of either ring at precision exactly n.  Leaves and
    bands of k rows run their scalar steps on the kernel's
    :func:`~dvrlu.kernel.stepper`, products on the ring's digit-ops
    ``product``, or on :func:`_strassen` for square products under algo
    "strassen", each counted as the element products it stands for."""

    def __init__(self, cfg, n: int, algo: str):
        self.n, self.ops, self.algo = n, cfg.ops, algo
        self.step = kernel.stepper(n, cfg)
        self.elem = kernel.elements(cfg, n)

    def product(self, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        if self.algo == "strassen" and len(a) == len(b) == len(b[0]):
            return _strassen(self.ops, a, b, self.n, _STRASSEN_CUTOFF)
        return _product(self.ops, a, b, self.n)

    def band(self, x: list[list[int]], y: list[list[int]]) -> tuple[list[list[int]], ...]:
        k, cols = len(x), _transposed(_hstack(x, y))
        t = _identity(len(cols))  # by columns
        for c in range(k, len(cols)):
            for i in range(k):
                self.step((cols, t), i, c, i == k - 1)
        return _transposed(cols[:k]), _transposed(t)

    def leaf(self, m: list[list[int]]) -> tuple[list[list[int]], ...]:
        cols, w = _transposed(m), _identity(len(m))
        lp, vp = [], []
        for j in range(len(cols)):
            for i in range(j):
                self.step((cols, w), i, j, i == j - 1)
            lp.append(cols[j])  # columns are replaced, so this is round j's state
            vp.append(w[j])
        return tuple(map(_transposed, (lp, vp, cols, w)))

    def elements(self, m: list[list[int]]) -> PrecMatrix:
        return PrecMatrix([[self.elem(x) for x in row] for row in m])


# ---------------------------------------------------------------------------
# band clearing
# ---------------------------------------------------------------------------


def _split(m: list[list], c: int) -> tuple[list[list], list[list]]:
    """The columns of m before c and from c on."""
    return [row[:c] for row in m], [row[c:] for row in m]


def _quarters(m: list[list], r: int, c: int) -> tuple[list[list], ...]:
    """The blocks of m above-left, above-right, below-left and below-right
    of row r and column c."""
    return (*_split(m[:r], c), *_split(m[r:], c))


def _joined(grid: Sequence[Sequence[list[list]]]) -> list[list]:
    return [row for band in grid for row in _hstack(*band)]


def _clear(
    x: list[list[int]], y: list[list[int]], r: _Residues, cut: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Clear the band [X | Y] of residues to [Xf | 0]: return (Xf, T) with
    [X | Y] * T = [Xf | 0] mod pi^n.

    X is k x k and already eliminated (zeros above its diagonal); Y is the
    k x w band to its right.  T encodes the pivoting swaps, so rows outside
    the band are updated by multiplying with T afterwards.  A band of at
    most cut rows is cleared by its scalar steps, a wider one by a
    recursion that halves both the rows of X and the columns of Y.  The
    sub-steps on X's lower-right quadrant skip the top rows of the columns
    they touch: those are zeros (cleared by earlier sub-steps, or X's zero
    block) and column operations keep them so.  T is the product of the
    four sub-steps' transforms, each the identity outside the columns its
    sub-step touches."""
    k, w = len(x), len(y[0])
    if w == 0:
        return x, _identity(k)
    if k <= cut:
        return r.band(x, y)
    c, w1 = k // 2, w // 2
    x1, x2, x3, x4 = _quarters(x, c, c)  # x2: exact zeros, passed through
    y1, y2, y3, y4 = _quarters(y, c, w1)
    mm = r.product

    # 1) clear Y's top-left against X1, then carry the transform into the
    #    bottom rows of the touched columns
    x1, t1 = _clear(x1, y1, r, cut)
    x3, y3 = _split(mm(_hstack(x3, y3), t1), c)

    # 2) clear Y's top-right against the updated X1
    x1, t2 = _clear(x1, y2, r, cut)
    x3, y4 = _split(mm(_hstack(x3, y4), t2), c)

    # 3) clear Y's bottom-left against X4 (top rows of these columns are
    #    exact zeros at precision n and stay so: transform not applied)
    x4, t3 = _clear(x4, y3, r, cut)

    # 4) clear Y's bottom-right against the updated X4
    x4, t4 = _clear(x4, y4, r, cut)

    # T = E(t1) E(t2) E(t3) E(t4), E(ti) the identity with ti on the index
    # set si, the union of two of the spans below: right-multiplying by
    # E(ti) replaces only the columns si.  A row of T that no earlier
    # sub-step wrote on si is the identity's there, so it takes ti's row
    # when it lies in si and stays as it is otherwise; only the rows written
    # on si are multiplied.  A sub-step with no columns of Y (w1 = 0) has
    # the identity for ti and is skipped.
    spans = (range(c), range(c, k), range(k, k + w1), range(k + w1, k + w))
    written = [set() for _ in spans]  # per span of rows: the spans of columns written
    t = _identity(k + w)
    for ti, si in ((t1, (0, 2)), (t2, (0, 3)), (t3, (1, 2)), (t4, (1, 3))):
        if not spans[si[1]]:
            continue
        cols = [j for g in si for j in spans[g]]
        hit = {g for g in range(len(spans)) if written[g].intersection(si)}
        old = [i for g in sorted(hit) for i in spans[g]]
        lines = dict(zip(cols, ti))
        if old:
            lines.update(zip(old, mm([[t[i][j] for j in cols] for i in old], ti)))
        for i, line in lines.items():
            for j, e in zip(cols, line):
                t[i][j] = e
        for g in hit.union(si):
            written[g].update(si)
    return _joined([[x1, x2], [x3, x4]]), t


# ---------------------------------------------------------------------------
# recursive split decomposition
# ---------------------------------------------------------------------------


def _lv(m: list[list[int]], threshold: int, r: _Residues) -> tuple[list[list[int]], ...]:
    """(L', V', H', W') of the square row list m of residues, as row lists;
    blocks and bands of at most threshold rows run the scalar elimination."""
    d = len(m)
    if d <= threshold:
        return r.leaf(m)
    dp = d // 2
    m1, m2, m3, m4 = _quarters(m, dp, dp)
    mm = r.product

    lp1, vp1, hp1, wp1 = _lv(m1, threshold, r)

    # the top band at the split boundary is [H'_top | M2]; clear it
    xf, t = _clear(hp1, m2, r, threshold)

    # bottom rows at the boundary: [M3 * W'_top | M4], then the band transform
    bl, br = _split(mm(_hstack(mm(m3, wp1), m4), t), dp)

    lp2, vp2, hp2, wp2 = _lv(br, threshold, r)

    t11, t12, t21, t22 = _quarters(t, dp, dp)
    z_tr = [[0] * (d - dp) for _ in range(dp)]
    z_bl = [[0] * dp for _ in range(d - dp)]
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
    clears the top band against it (:func:`_clear`), pushes the
    accumulated transforms into the bottom rows with matrix products mod
    pi^N, and recurses on the remaining bottom-right block.  An integral
    input of either ring runs the whole recursion on ints mod pi^N, N its
    smallest entry precision (one leaf of scalar steps when d <= threshold),
    and builds elements only for the output, which equals the scalar
    elimination's *bit for bit* (same values, same tracked precision), with
    either algo.  Any other input (``SeriesElem`` entries, an entry of
    negative valuation) is that scalar elimination,
    :func:`~dvrlu.lu_stable.lv_decomposition`.

    Args:
        m: square matrix over the scalar ring.
        threshold: blocks and bands of at most threshold rows run the
            scalar elimination; ValueError when below 1.
        algo: "classical" or "strassen", the product of square blocks
            (Strassen's recursion, classical below 8 rows); it changes the
            product count, not the output.
    """
    if algo not in ("classical", "strassen"):
        raise ValueError(f"unknown multiplication algorithm {algo!r}")
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")
    _square_dim(m)
    omega, n, cols = _flattened(m)
    if cols is None:
        return _lv_eliminated(omega, n, cols)
    r = _Residues(m.rows[0][0].cfg, n, algo)
    return _lv_output(*map(r.elements, _lv(_transposed(cols), threshold, r)))
