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
the classical order-deterministic kernel.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
# band clearing
# ---------------------------------------------------------------------------


def _hstack(a: PrecMatrix, b: Optional[PrecMatrix]) -> PrecMatrix:
    if b is None:
        return a.copy()
    return PrecMatrix([ra + rb for ra, rb in zip(a.rows, b.rows)])


def _embed(t: PrecMatrix, idx: Sequence[int], size: int, n: int) -> PrecMatrix:
    """Identity of the given size with t placed on the index set idx."""
    out = PrecMatrix.identity_like(t, size, n)
    for a, ia in enumerate(idx):
        for b, ib in enumerate(idx):
            out[ia, ib] = t[a, b]
    return out


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
    them exact zeros, so the transform is not applied to them at all.
    """
    k, w = x.nrows, y.ncols
    if y.nrows != k or x.ncols != k:
        raise ValueError("band shapes disagree")
    if w == 0:
        return x.copy(), PrecMatrix.identity_like(x, k, n)
    if k == 1:
        band = _hstack(x, y)
        t = PrecMatrix.identity_like(band, 1 + w, n)
        for c in range(1, 1 + w):
            _pivot_step(band, 0, c, n, t)
        return PrecMatrix([[band[0, 0]]]), t
    c = k // 2
    w1 = w // 2
    x1 = x.block(0, c, 0, c)
    x2 = x.block(0, c, c, k)  # exact zeros for eliminated X; passed through
    x3 = x.block(c, k, 0, c)
    x4 = x.block(c, k, c, k)
    y1, y2 = y.block(0, c, 0, w1), y.block(0, c, w1, w)
    y3, y4 = y.block(c, k, 0, w1), y.block(c, k, w1, w)

    # 1) clear Y's top-left against X1, then carry the transform into the
    #    bottom rows of the touched columns
    x1, t1 = clear_block(x1, y1, n, algo)
    band = matmul(_hstack(x3, y3), t1, algo).cap_abs(n)
    x3, y3 = band.block(0, k - c, 0, c), band.block(0, k - c, c, c + w1)

    # 2) clear Y's top-right against the updated X1
    x1, t2 = clear_block(x1, y2, n, algo)
    band = matmul(_hstack(x3, y4), t2, algo).cap_abs(n)
    x3, y4 = band.block(0, k - c, 0, c), band.block(0, k - c, c, c + (w - w1))

    # 3) clear Y's bottom-left against X4 (top rows of these columns are
    #    exact zeros at precision n and stay so: transform not applied)
    x4, t3 = clear_block(x4, y3, n, algo)

    # 4) clear Y's bottom-right against the updated X4
    x4, t4 = clear_block(x4, y4, n, algo)

    size = k + w
    s1 = list(range(0, c)) + list(range(k, k + w1))
    s2 = list(range(0, c)) + list(range(k + w1, k + w))
    s3 = list(range(c, k)) + list(range(k, k + w1))
    s4 = list(range(c, k)) + list(range(k + w1, k + w))
    t = _embed(t1, s1, size, n)
    for ti, si in ((t2, s2), (t3, s3), (t4, s4)):
        t = matmul(t, _embed(ti, si, size, n), algo).cap_abs(n)
    xf = PrecMatrix.from_blocks([[x1, x2], [x3, x4]])
    return xf, t


# ---------------------------------------------------------------------------
# recursive split decomposition
# ---------------------------------------------------------------------------


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
    coarser.

    Args:
        m: square matrix over the scalar ring.
        threshold: dimensions <= threshold delegate to the scalar routine.
        algo: multiplication kernel for the assembled products.
    """
    d = _square_dim(m)
    if d <= threshold:
        return lv_decomposition(m)
    m, n = _flattened(m)
    dp = d // 2
    m1 = m.block(0, dp, 0, dp)
    m2 = m.block(0, dp, dp, d)
    m3 = m.block(dp, d, 0, dp)
    m4 = m.block(dp, d, dp, d)

    top = recursive_lv(m1, threshold, algo)

    # the top band at the split boundary is [H'_top | M2]; clear it
    xf, t = clear_block(top.hp, m2, n, algo)

    mm = lambda a, b: matmul(a, b, algo).cap_abs(n)

    # bottom rows at the boundary: [M3 * W'_top | M4], then the band transform
    bottom = mm(_hstack(mm(m3, top.wp), m4), t)
    bl = bottom.block(0, d - dp, 0, dp)
    br = bottom.block(0, d - dp, dp, d)

    low = recursive_lv(br, threshold, algo)

    t11, t12 = t.block(0, dp, 0, dp), t.block(0, dp, dp, d)
    t21, t22 = t.block(dp, d, 0, dp), t.block(dp, d, dp, d)

    z_tr = PrecMatrix.zero_like(m, dp, d - dp, n)
    hp = PrecMatrix.from_blocks([[xf, z_tr], [bl, low.hp]])
    lp = PrecMatrix.from_blocks([[top.lp, z_tr], [mm(m3, top.vp), low.lp]])
    w_tr = mm(mm(top.wp, t12), low.wp)
    wp = PrecMatrix.from_blocks([[mm(top.wp, t11), w_tr], [t21, mm(t22, low.wp)]])
    v_tr = mm(mm(top.wp, t12), low.vp)
    z_bl = PrecMatrix.zero_like(m, d - dp, dp, n)
    vp = PrecMatrix.from_blocks([[top.vp, v_tr], [z_bl, mm(t22, low.vp)]])

    col_val = [_val_or_none(hp[j, j]) for j in range(d)]
    degenerate = top.degenerate or low.degenerate
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
    """The global order in which :func:`recursive_lv` clears positions."""

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
