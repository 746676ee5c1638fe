"""Vectorized Monte-Carlo engine for the elimination's valuation statistics.

The engine runs the flat elimination specified in :mod:`dvrlu.kernel` (swap
rule, scalar, both-zero case) on batches of Haar-random matrices.  It
differs from that spec in one point: per batch, it flags the trials whose
swap comparison has both operands 0 mod p^K instead of raising.  The
arithmetic is exact in Z/p^K — 64-bit wraparound words for p = 2,
and the largest K >= 1 with p^K < 2^31 in signed words for odd p (an odd p
above 3037000500, whose residue products overflow, is refused).  For an
integral matrix at flat precision K the tracked-precision elimination is
literally arithmetic in Z/p^K (the re-lifted scalars are exactly the masked
machine quotients), so the engine agrees with the object path digit for
digit.  The flagged trials are re-run on an engine at 2K digits, which
holds Python ints instead of machine words, after fresh Haar digits extend
the matrix to precision 2K.

The engine works on a column-major, trial-minor copy ``c[col, row, trial]``
of the batch, so that one column of every trial is one contiguous (d, B)
block and each (i, j) step is a few in-place numpy calls on it.  Per
diagonal it caches the pivot's valuation v, the inverse of its unit part
and the powers p^v and p^(K - v) the scalar divides and reduces by,
refreshed only where a swap replaces the pivot.  Except on the p = 2
machine-word engine, which wraps around, the column update is reduced mod
p^K as ``x - (x // p^K) * p^K`` through one scratch block: numpy divides by
one scalar divisor by multiplying, but computes a remainder by dividing.
The both-zero case is tested once per round, from the round's reads and
the pivots dead at its start.  Odd-p valuations below
2^16 read a per-p table on ``x mod p^k0`` (p^k0 <= 2^16), built on first
use; the rare entries that p^k0 divides, larger p and the object engine
take ``gcd(x, p^K)``.  A unit inverse mod p^K is a Newton lift that starts,
for p <= 2^16, from a second such table, of the inverses mod p^k0.

Trials are processed in fixed-size chunks, each with its own generator
seeded by (seed, chunk index), so results are identical for any worker
count and the chunked merge is deterministic.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..config import require_prime
from .formulas import _require_q, vl_centerings

_CHUNK_TARGET = 1 << 22  # entries per chunk's matrix block


def _chunk_size(d: int) -> int:
    return max(256, min(4096, _CHUNK_TARGET // max(1, d * d)))


_TABLE_SPAN = 1 << 16  # largest p^k0 a valuation table covers


@functools.cache
def _valuation_table(p: int) -> tuple[int, np.ndarray]:
    """(p^k0, t) with p^k0 the largest power of p <= 2^16, t[r] = v_p(r)
    for 0 < r < p^k0 and t[0] = -1: x mod p^k0 = 0 says only v(x) >= k0.
    Read-only; one per p for the life of the process."""
    span = p
    while span * p <= _TABLE_SPAN:
        span *= p
    table = np.zeros(span, dtype=np.int8)
    q = p
    while q < span:
        table[::q] += 1
        q *= p
    table[0] = -1
    table.flags.writeable = False
    return span, table


@functools.cache
def _inverse_table(p: int) -> tuple[int, int, np.ndarray]:
    """(p^k0, k0, t) for the span p^k0 of :func:`_valuation_table`, with
    t[r] = r^-1 mod p^k0 for r prime to p and t[r] = 0 otherwise: the seed
    of :meth:`Engine.inv_units`' Newton lift.  Read-only; one per p for
    the life of the process."""
    span, _ = _valuation_table(p)
    k0 = 1
    while p**k0 < span:
        k0 += 1
    r = np.arange(span, dtype=np.uint32)  # a product of two residues fits
    t = _lift_inverse(r, _fermat_inverse(r, p), 1, k0, span).astype(np.uint16)
    t[r % p == 0] = 0
    t.flags.writeable = False
    return span, k0, t


def _fermat_inverse(u: np.ndarray, p: int) -> np.ndarray:
    """u^(p-2) mod p entrywise: the inverse mod p of every unit."""
    base, x, e = u % p, np.ones_like(u), p - 2
    while e:
        if e & 1:
            x = (x * base) % p
        base = (base * base) % p
        e >>= 1
    return x


def _lift_inverse(u: np.ndarray, x: np.ndarray, digits: int, k: int, modulus) -> np.ndarray:
    """x, the inverse of the units u mod p^digits, Newton-lifted to mod
    p^k = modulus: each step doubles the digits that are right."""
    while digits < k:  # 2 + modulus - ..., not 2 - ...: u may be unsigned
        x = (x * ((2 + modulus - (u * x) % modulus) % modulus)) % modulus
        digits *= 2
    return x


class Engine:
    """Exact batched arithmetic in Z/p^K with valuation bookkeeping.

    With k unset, K is the machine-word capacity above and entries are
    uint64 (p = 2) or int64 words; with k set, K = k and entries are Python
    ints in object arrays, exact at any k.

    Raises ValueError unless p is prime (the valuations and Fermat inverses
    mean nothing modulo a composite), and, with k unset, for an odd p whose
    residue products (p - 1)^2 do not fit in int64.

    :meth:`eliminate` runs on a column-major, trial-minor copy of the batch,
    caches each pivot's valuation, unit inverse and powers p^v, p^(K - v),
    reduces the column update by a scalar floor division and tests
    the both-zero case once per round (see there).
    :meth:`vals` takes the lowest set bit for p = 2, reads the module's
    valuation table on ``x mod p^k0`` for an odd p <= 2^16 on machine words,
    and otherwise looks ``gcd(x, p^K)`` up among the powers of p.  The
    engine holds no table itself, so pickling it to a worker sends none.
    """

    def __init__(self, p: int, k: Optional[int] = None):
        require_prime(p)
        self.p = p
        self.dtype = object if k is not None else np.uint64 if p == 2 else np.int64
        if self.dtype is np.uint64:
            self.K = 64
            self.modulus = None  # implicit 2^64 wraparound
            return
        if k is None:
            if (p - 1) ** 2 > np.iinfo(np.int64).max:
                raise ValueError(
                    f"p must satisfy (p - 1)^2 < 2^63 for the engine's int64 "
                    f"arithmetic, got {p}"
                )
            k = 1
            while p ** (k + 1) < 2**31:
                k += 1
        self.K = k
        self.modulus = p**k
        self.pows = np.array([p**i for i in range(k + 1)], dtype=self.dtype)

    def random(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Haar-random residues mod p^K (machine-word engines only)."""
        top = np.iinfo(np.uint64).max if self.modulus is None else self.modulus - 1
        return rng.integers(0, top, size=shape, dtype=self.dtype, endpoint=True)

    def vals(self, x: np.ndarray) -> np.ndarray:
        """Entrywise valuation; exact zeros get the sentinel K."""
        if self.modulus is None:
            # the lowest set bit 2^v is exact as a float: frexp gives v + 1
            lsb = x & ((~x) + np.uint64(1))
            out = np.frexp(lsb.astype(np.float64))[1].astype(np.int64) - 1
            out[x == 0] = 64
            return out
        if self.dtype is object or self.p > _TABLE_SPAN:
            return self._gcd_vals(x)
        span, table = _valuation_table(self.p)
        out = table[x % span].astype(np.int64)
        rest = out < 0
        if rest.any():
            out[rest] = self._gcd_vals(x[rest])
        return out

    def _gcd_vals(self, x: np.ndarray) -> np.ndarray:
        # gcd(x, p^K) = p^v(x), and p^K for an exact zero
        return np.searchsorted(self.pows, np.gcd(x, self.modulus)).astype(np.int64)

    def inv_units(self, u: np.ndarray) -> np.ndarray:
        """Inverse of odd/unit residues mod p^K by Newton iteration: from
        u itself on 2^64 words, otherwise from the module's table of
        inverses mod p^k0 for p <= 2^16 and from the Fermat inverse mod p
        above that."""
        if self.modulus is None:
            x = u.copy()
            two = np.uint64(2)
            for _ in range(5):  # 3 correct bits double per step: > 64 after 5
                x = x * (two - u * x)
            return x
        if self.p > _TABLE_SPAN:
            return _lift_inverse(u, _fermat_inverse(u, self.p), 1, self.K, self.modulus)
        span, k0, table = _inverse_table(self.p)
        x = table[np.asarray(u % span, dtype=np.int64)].astype(self.dtype, copy=False)
        if k0 >= self.K:
            return x % self.modulus
        return _lift_inverse(u, x, k0, self.K, self.modulus)

    def _pivot(self, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, inv) for the pivots x, whose valuations are v: lo and
        hi are p^v and p^(K - v) (on 2^64 words the shift v and the mask of
        K - v bits) and inv is the inverse of the unit part of x.  An exact
        zero (v = K) gets inv 0, which makes its scalar 0."""
        if self.modulus is None:
            lo = v.astype(np.uint64)
            return lo, (~np.uint64(0)) >> lo, self.inv_units(x >> lo)
        lo = self.pows[v]
        return lo, self.pows[self.K - v], self.inv_units(x // lo)

    def _scalar(self, e: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                inv: np.ndarray) -> np.ndarray:
        """The elimination scalar, exactly as the object path lifts it:
        strip the pivot's p^v = lo from e, multiply by the inverse of the
        pivot's unit part, keep K - v digits (reduce mod hi).  It is 0 for
        a dead pivot, since then e is an exact zero too (the swap rule left
        it there)."""
        if self.modulus is None:
            return ((e >> lo) * inv) & hi
        return ((e // lo) * inv) % hi

    def eliminate(self, m: np.ndarray, record_table: bool = False) -> dict:
        """Run the pivoted elimination on a (B, d, d) batch; m is not
        touched.

        Returns per-trial arrays:
          vl          max denominator exponent of the factor (int64)
          vl_ok       False when a diagonal read was exactly zero
          det_val     valuation of the determinant (boundary sum at d)
          det_ok      False when undeterminable at this precision
          boundary    (B, d) partial diagonal-valuation sums (-1 invalid)
          ambiguous   True when some swap comparison was not forced
          table       (B, d, d) valuation reads (sentinel K for zeros),
                      only when record_table
          hp          (B, d, d) H', the final omega: a transposed view of
                      the working array

        The work runs on c[col, row, trial].  By step (i, j) rows < i of
        columns i and j are exact zeros, so a swap or an update touches
        rows >= i only.  pv[i] caches the valuation of the diagonal entry
        (i, i), and lo[i], hi[i] and inv[i] its :meth:`_pivot` data: set
        at the end of round i, changed afterwards only by a swap at some
        (i, j).  Unless p^K is the 2^64 wraparound, the update of column j
        is reduced mod p^K by a floor division through one scratch block
        (see the module).  Within round j only step (i, j) changes pv[i],
        and only lowers it, so the both-zero flag of the round is decided
        once, from the round's reads and the pivots dead at its start.
        """
        b, d, _ = m.shape
        k, modulus = self.K, self.modulus
        c = np.array(m.transpose(2, 1, 0), order="C")
        pv = np.empty((d, b), dtype=np.int64)
        lo, hi, inv = (np.empty((d, b), dtype=self.dtype) for _ in range(3))
        reads = np.empty((d, b), dtype=np.int64)
        scratch = np.empty((d, b), dtype=self.dtype)
        ambiguous = np.zeros(b, dtype=bool)
        vl_ok = np.ones(b, dtype=bool)
        boundary = np.empty((d, b), dtype=np.int64)
        table = np.full((d, d, b), -1, dtype=np.int64) if record_table else None
        min_m = np.zeros(b, dtype=np.int64)
        for j in range(d):
            cj = c[j]
            dead = pv[:j] == k
            for i in range(j):
                ci, vp = c[i], pv[i]
                ve = reads[i] = self.vals(cj[i])
                sw = ve < vp
                if sw.any():
                    idx = np.nonzero(sw)[0]
                    tmp = ci[i:, idx]
                    ci[i:, idx] = cj[i:, idx]
                    cj[i:, idx] = tmp
                    vp[idx] = ve[idx]
                    lo[i, idx], hi[i, idx], inv[i, idx] = self._pivot(ci[i, idx], vp[idx])
                s = self._scalar(cj[i], lo[i], hi[i], inv[i])
                rows, t = cj[i:], scratch[i:]
                np.multiply(ci[i:], s, out=t)
                rows -= t
                if modulus is not None:
                    np.floor_divide(rows, modulus, out=t)
                    t *= modulus
                    rows -= t
            if dead.any():
                ambiguous |= (dead & (reads[:j] == k)).any(axis=0)
            vjj = reads[j] = self.vals(cj[j])
            pv[j] = vjj
            lo[j], hi[j], inv[j] = self._pivot(cj[j], vjj)
            if record_table:
                table[: j + 1, j] = reads[: j + 1]
            diag = pv[: j + 1]
            boundary[j] = np.where((diag == k).any(axis=0), -1, diag.sum(axis=0))
            if j < d - 1:
                vl_ok &= vjj != k
                # exact-zero entries have quotient valuation >= K - v_jj >= 1,
                # so they can never lower the (<= 0 clipped) minimum: the
                # sentinel K makes them harmlessly large here
                mj = self.vals(cj[j + 1 :]).min(axis=0) - vjj
                min_m = np.minimum(min_m, np.where(vl_ok, mj, min_m))
        boundary = np.ascontiguousarray(boundary.T)
        out = {
            "vl": -min_m,
            "vl_ok": vl_ok,
            "det_val": boundary[:, d - 1],
            "det_ok": boundary[:, d - 1] >= 0,
            "boundary": boundary,
            "ambiguous": ambiguous,
            "hp": c.transpose(2, 1, 0),
        }
        if record_table:
            out["table"] = np.ascontiguousarray(table.transpose(2, 0, 1))
        return out


# ---------------------------------------------------------------------------
# chunked simulation
# ---------------------------------------------------------------------------


def _unresolved(out: dict) -> np.ndarray:
    return out["ambiguous"] | ~out["vl_ok"] | ~out["det_ok"]


def _retry(eng: Engine, packed: np.ndarray, rng, record_table: bool) -> Optional[dict]:
    """Re-run one trial on an engine at 2K digits, extending every entry
    with fresh Haar digits above p^K.  Returns the engine's fields for the
    trial but H', which the chunk does not keep, or None if it is still
    unresolved."""
    hi = eng.p**eng.K
    m = packed.astype(object) + hi * eng.random(rng, packed.shape).astype(object)
    out = Engine(eng.p, 2 * eng.K).eliminate(m[None], record_table)
    if _unresolved(out)[0]:
        return None
    return {key: val[0] for key, val in out.items() if key != "hp"}


def _run_chunk(args) -> dict:
    eng, d, n, seed, chunk_idx, record_table = args
    rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_idx]))
    m = eng.random(rng, (n, d, d))
    out = eng.eliminate(m, record_table)
    bad = _unresolved(out)
    retried = 0
    dropped = 0
    for t in np.nonzero(bad)[0]:
        retried += 1
        rng_t = np.random.default_rng(np.random.SeedSequence([seed, chunk_idx, int(t)]))
        fix = _retry(eng, m[t], rng_t, record_table)
        if fix is None:
            dropped += 1
            continue
        for key, val in fix.items():
            out[key][t] = val
    keep = ~_unresolved(out)
    res = {
        "vl": out["vl"][keep],
        "det_val": out["det_val"][keep],
        "boundary": out["boundary"][keep],
        "retried": retried,
        "dropped": dropped,
    }
    if record_table:
        res["table"] = out["table"][keep]
    return res


def _checked_engine(p: int, d: int, trials: int, jobs: int) -> Engine:
    """The engine for p, once the arguments of a simulation are checked:
    ValueError for d < 1, trials < 1 or jobs < 1, and (from the engine) for
    a non-prime p or one too large for its int64 arithmetic."""
    if d < 1:
        raise ValueError("d must be positive")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return Engine(p)


def simulate(
    p: int,
    d: int,
    trials: int,
    seed: int = 0,
    jobs: int = 1,
    record_table: bool = False,
) -> dict:
    """Chunked engine simulation over Haar-random matrices.

    Returns concatenated per-trial arrays ('vl', 'det_val', 'boundary', and
    'table' if requested) plus 'retried'/'dropped' counts.  Identical output
    for any `jobs`; chunks are merged in index order.  Raises ValueError for
    a non-prime p, d < 1, trials < 1 or jobs < 1.  At most one worker
    process is started per chunk.
    """
    eng = _checked_engine(p, d, trials, jobs)
    size = _chunk_size(d)
    starts = list(range(0, trials, size))
    args = [
        (eng, d, min(size, trials - s), seed, idx, record_table)
        for idx, s in enumerate(starts)
    ]
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as ex:
            parts = list(ex.map(_run_chunk, args))
    else:
        parts = [_run_chunk(a) for a in args]
    out = {
        "vl": np.concatenate([c["vl"] for c in parts]),
        "det_val": np.concatenate([c["det_val"] for c in parts]),
        "boundary": np.concatenate([c["boundary"] for c in parts]),
        "retried": sum(c["retried"] for c in parts),
        "dropped": sum(c["dropped"] for c in parts),
    }
    if record_table:
        out["table"] = np.concatenate([c["table"] for c in parts])
    return out


def simulate_matrices(p: int, matrices: np.ndarray, record_table: bool = False) -> dict:
    """Run the engine on caller-supplied packed matrices (B, d, d).

    No retries: flags are returned as-is.  Used to cross-validate the engine
    against the tracked-element path on identical inputs.
    """
    eng = Engine(p)
    return eng.eliminate(np.asarray(matrices, dtype=eng.dtype), record_table)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


@dataclass
class McSummary:
    """Sample statistics of one simulated integer-valued quantity."""

    p: int
    d: int
    trials: int
    used: int
    mean: float
    stddev: float
    ci99: float
    histogram: dict = field(default_factory=dict)
    retried: int = 0
    dropped: int = 0

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "trials": self.trials,
            "used": self.used,
            "mean": self.mean,
            "stddev": self.stddev,
            "ci99": self.ci99,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "retried": self.retried,
            "dropped": self.dropped,
        }


def _summary(p, d, trials, arr, retried, dropped) -> McSummary:
    used = int(arr.size)
    mean = float(arr.mean()) if used else float("nan")
    std = float(arr.std(ddof=1)) if used > 1 else 0.0
    ci = 2.5758293035489004 * std / math.sqrt(used) if used else float("nan")
    vals, counts = np.unique(arr, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(vals, counts)}
    return McSummary(
        p=p, d=d, trials=trials, used=used, mean=mean, stddev=std, ci99=ci,
        histogram=hist, retried=retried, dropped=dropped,
    )


def monte_carlo_vl(p: int, d: int, trials: int, seed: int = 0, jobs: int = 1) -> McSummary:
    """Sample statistics of the factor's max denominator exponent V_L
    (always 0 for d = 1, which draws nothing but checks the arguments as
    :func:`simulate` does)."""
    if d == 1:
        _checked_engine(p, d, trials, jobs)
        return McSummary(p=p, d=d, trials=trials, used=trials, mean=0.0,
                         stddev=0.0, ci99=0.0, histogram={0: trials})
    sim = simulate(p, d, trials, seed=seed, jobs=jobs)
    return _summary(p, d, trials, sim["vl"], sim["retried"], sim["dropped"])


def monte_carlo_det(p: int, d: int, trials: int, seed: int = 0, jobs: int = 1) -> McSummary:
    """Sample statistics of v(det M) for Haar-random M."""
    sim = simulate(p, d, trials, seed=seed, jobs=jobs)
    return _summary(p, d, trials, sim["det_val"], sim["retried"], sim["dropped"])


def tail_frequency(vl: np.ndarray, q: int, d: int, ell: int) -> float:
    """Empirical P[|V_L - c| > ell + 1/2] with c = log_q d + 1/2, the
    asserted centering (the first of :func:`vl_centerings`)."""
    _require_q(q, d)
    c, _ = vl_centerings(q, d)
    return float(np.mean(np.abs(vl.astype(np.float64) - c) > ell + 0.5))
