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

Trials are processed in fixed-size chunks, each with its own generator
seeded by (seed, chunk index), so results are identical for any worker
count and the chunked merge is deterministic.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..config import require_prime
from .formulas import vl_centerings

_CHUNK_TARGET = 1 << 22  # entries per chunk's matrix block


def _chunk_size(d: int) -> int:
    return max(256, min(4096, _CHUNK_TARGET // max(1, d * d)))


class Engine:
    """Exact batched arithmetic in Z/p^K with valuation bookkeeping.

    With k unset, K is the machine-word capacity above and entries are
    uint64 (p = 2) or int64 words; with k set, K = k and entries are Python
    ints in object arrays, exact at any k.

    Raises ValueError unless p is prime (the valuations and Fermat inverses
    mean nothing modulo a composite), and, with k unset, for an odd p whose
    residue products (p - 1)^2 do not fit in int64.
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
            out = np.full(x.shape, 64, dtype=np.int64)
            nz = x != 0
            if nz.any():
                xs = x[nz]
                lsb = xs & ((~xs) + np.uint64(1))
                out[nz] = np.log2(lsb.astype(np.float64)).astype(np.int64)
            return out
        out = np.zeros(x.shape, dtype=np.int64)
        y = x.copy()
        nz = y != 0
        while True:
            div = nz & (y % self.p == 0)
            if not div.any():
                break
            y[div] //= self.p
            out[div] += 1
        out[~nz] = self.K
        return out

    def inv_units(self, u: np.ndarray) -> np.ndarray:
        """Inverse of odd/unit residues mod p^K (Newton iteration)."""
        if self.modulus is None:
            x = u.copy()
            two = np.uint64(2)
            for _ in range(5):  # 3 correct bits double per step: > 64 after 5
                x = x * (two - u * x)
            return x
        p, big = self.p, self.modulus
        base = u % p
        res = np.ones_like(base)
        e = p - 2
        while e:  # Fermat inverse mod p
            if e & 1:
                res = (res * base) % p
            base = (base * base) % p
            e >>= 1
        x = res
        bits = 1
        while bits < self.K:  # lift to mod p^K
            x = (x * ((2 - (u * x) % big) % big)) % big
            bits *= 2
        return x

    def _scaled_quotient(self, e, piv, vp, dead):
        """The elimination scalar, exactly as the object path lifts it:
        strip the pivot, multiply by its unit inverse, keep K - v_p digits."""
        if self.modulus is None:
            vp_safe = np.where(dead, 0, vp).astype(np.uint64)
            piv_safe = np.where(dead, np.uint64(1), piv)
            inv = self.inv_units(piv_safe >> vp_safe)
            mask = (~np.uint64(0)) >> vp_safe
            s = ((e >> vp_safe) * inv) & mask
            return np.where(dead, np.uint64(0), s)
        vp_safe = np.where(dead, 0, vp)
        piv_safe = np.where(dead, 1, piv)
        inv = self.inv_units(piv_safe // self.pows[vp_safe])
        s = ((e // self.pows[vp_safe]) * inv) % self.pows[self.K - vp_safe]
        return np.where(dead, 0, s)

    def _sub_scaled(self, dst, s, src):
        if self.modulus is None:
            return dst - s[:, None] * src
        return (dst - s[:, None] * src) % self.modulus

    def eliminate(self, m: np.ndarray, record_table: bool = False) -> dict:
        """Run the pivoted elimination in place on a (B, d, d) batch.

        Returns per-trial arrays:
          vl          max denominator exponent of the factor (int64)
          vl_ok       False when a diagonal read was exactly zero
          det_val     valuation of the determinant (boundary sum at d)
          det_ok      False when undeterminable at this precision
          boundary    (B, d) partial diagonal-valuation sums (-1 invalid)
          ambiguous   True when some swap comparison was not forced
          table       (B, d, d) valuation reads (sentinel K for zeros),
                      only when record_table
        """
        b, d, _ = m.shape
        k = self.K
        ambiguous = np.zeros(b, dtype=bool)
        vl_ok = np.ones(b, dtype=bool)
        boundary = np.full((b, d), -1, dtype=np.int64)
        table = np.full((b, d, d), -1, dtype=np.int64) if record_table else None
        min_m = np.zeros(b, dtype=np.int64)
        for j in range(d):
            for i in range(j):
                e = m[:, i, j]
                piv = m[:, i, i]
                ve = self.vals(e)
                vp = self.vals(piv)
                if record_table:
                    table[:, i, j] = ve
                ambiguous |= (ve == k) & (vp == k)
                sw = ve < vp
                if sw.any():
                    idx = np.nonzero(sw)[0]
                    tmp = m[idx, :, i].copy()
                    m[idx, :, i] = m[idx, :, j]
                    m[idx, :, j] = tmp
                    ve, vp = np.where(sw, vp, ve), np.where(sw, ve, vp)
                    e = m[:, i, j]
                    piv = m[:, i, i]
                dead = vp == k
                s = self._scaled_quotient(e, piv, vp, dead)
                m[:, :, j] = self._sub_scaled(m[:, :, j], s, m[:, :, i])
            idx = np.arange(j + 1)
            dvals = self.vals(np.ascontiguousarray(m[:, idx, idx]))
            if record_table:
                table[:, j, j] = dvals[:, j]
            good = ~(dvals == k).any(axis=1)
            boundary[good, j] = dvals[good].sum(axis=1)
            if j < d - 1:
                vjj = dvals[:, j]
                vl_ok &= vjj != k
                vsub = self.vals(np.ascontiguousarray(m[:, j + 1 :, j]))
                # exact-zero entries have quotient valuation >= K - v_jj >= 1,
                # so they can never lower the (<= 0 clipped) minimum: the
                # sentinel K makes them harmlessly large here
                mj = vsub.min(axis=1) - vjj
                min_m = np.minimum(min_m, np.where(vl_ok, mj, min_m))
        det_ok = boundary[:, d - 1] >= 0
        out = {
            "vl": -min_m,
            "vl_ok": vl_ok,
            "det_val": boundary[:, d - 1],
            "det_ok": det_ok,
            "boundary": boundary,
            "ambiguous": ambiguous,
        }
        if record_table:
            out["table"] = table
        return out


# ---------------------------------------------------------------------------
# chunked simulation
# ---------------------------------------------------------------------------


def _unresolved(out: dict) -> np.ndarray:
    return out["ambiguous"] | ~out["vl_ok"] | ~out["det_ok"]


def _retry(eng: Engine, packed: np.ndarray, rng, record_table: bool) -> Optional[dict]:
    """Re-run one trial on an engine at 2K digits, extending every entry
    with fresh Haar digits above p^K.  Returns the engine's fields for the
    trial, or None if it is still unresolved."""
    hi = eng.p**eng.K
    m = packed.astype(object) + hi * eng.random(rng, packed.shape).astype(object)
    out = Engine(eng.p, 2 * eng.K).eliminate(m[None], record_table)
    if _unresolved(out)[0]:
        return None
    return {key: val[0] for key, val in out.items()}


def _run_chunk(args) -> dict:
    eng, d, n, seed, chunk_idx, record_table = args
    rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_idx]))
    m = eng.random(rng, (n, d, d))
    packed = m.copy()
    out = eng.eliminate(m, record_table)
    bad = _unresolved(out)
    retried = 0
    dropped = 0
    for t in np.nonzero(bad)[0]:
        retried += 1
        rng_t = np.random.default_rng(np.random.SeedSequence([seed, chunk_idx, int(t)]))
        fix = _retry(eng, packed[t], rng_t, record_table)
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


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


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
    if d < 1:
        raise ValueError("d must be positive")
    _require_trials(trials)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    eng = Engine(p)
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
    m = np.array(matrices, dtype=eng.dtype, copy=True)
    return eng.eliminate(m, record_table)


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
    """Sample statistics of the factor's max denominator exponent V_L."""
    if d == 1:
        require_prime(p)
        _require_trials(trials)
        return McSummary(p=p, d=d, trials=trials, used=trials, mean=0.0,
                         stddev=0.0, ci99=0.0, histogram={0: trials})
    sim = simulate(p, d, trials, seed=seed, jobs=jobs)
    return _summary(p, d, trials, sim["vl"], sim["retried"], sim["dropped"])


def monte_carlo_det(p: int, d: int, trials: int, seed: int = 0, jobs: int = 1) -> McSummary:
    """Sample statistics of v(det M) for Haar-random M."""
    sim = simulate(p, d, trials, seed=seed, jobs=jobs)
    return _summary(p, d, trials, sim["det_val"], sim["retried"], sim["dropped"])


def tail_frequency(vl: np.ndarray, q: int, d: int, ell: int, centering: str = "statement") -> float:
    """Empirical P[|V_L - c| > ell + 1/2] with c = log_q d +- 1/2 (the
    asserted centering or the one its proof uses)."""
    statement, proof = vl_centerings(q, d)
    c = statement if centering == "statement" else proof
    return float(np.mean(np.abs(vl.astype(np.float64) - c) > ell + 0.5))


def simulate_wi_2x2(p: int, trials: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row-pivot profile (W_1, W_2) for random 2x2 matrices: W_1 is the
    minimal valuation in row 1, and W_1 + W_2 = v(det).  Trials where the
    determinant's valuation is undeterminable at precision K are dropped."""
    eng = Engine(p)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    m = eng.random(rng, (trials, 2, 2))
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    if eng.modulus is not None:
        det %= eng.modulus
    w1 = np.minimum(eng.vals(m[:, 0, 0]), eng.vals(m[:, 0, 1]))
    vdet = eng.vals(det)
    keep = (vdet < eng.K) & (w1 < eng.K)
    return w1[keep], (vdet - w1)[keep]
