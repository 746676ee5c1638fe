"""Closed-form laws and bounds for the elimination's valuation statistics.

All formulas are parameterized by the residue cardinality q and the matrix
dimension d, and raise ValueError unless q is an int >= 2 and d >= 1.
Everything returns plain floats; the alternating-sum variant of the
expected precision loss and the constant Pi(q) are evaluated in integer
fixed-point arithmetic and rounded to a float once, because the
alternating terms cancel catastrophically for large d.
"""

from __future__ import annotations

import math


def _require_q(q: int, d: int | None = None) -> None:
    """ValueError unless q is an int >= 2 and d, where given, is >= 1."""
    if type(q) is not int or q < 2:  # a bool is not a cardinality
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    if d is not None and d < 1:
        raise ValueError("d must be positive")


def vij_mass(q: int, v: int) -> float:
    """P[V = v] for the valuation of a Haar-random ring element restricted
    to being finite: geometric with ratio 1/q, mass (1 - 1/q) * q^-v."""
    _require_q(q)
    if v < 0:
        return 0.0
    return (1.0 - 1.0 / q) * q ** (-float(v))


def expected_vl_series(q: int, d: int) -> float:
    """Expected max-pivot valuation E(q, d) as the series
    sum_{v>=1} (1 - (1 - q^-v)^d), evaluated in float arithmetic with the
    terms computed as -expm1(d * log1p(-q^-v)) for accuracy."""
    _require_q(q, d)
    total = 0.0
    v = 1
    while True:
        x = float(q) ** (-v)
        term = -math.expm1(d * math.log1p(-x))
        total += term
        # remaining tail is below d * q^-v / (q - 1)
        if d * x / (q - 1) < 1e-17:
            return total
        v += 1


def expected_vl_alternating(q: int, d: int) -> float:
    """Same expectation as the alternating binomial sum
    sum_{k=1}^{d} (-1)^(k-1) C(d, k) / (q^k - 1).

    The terms reach magnitude far beyond the result, so each is taken in
    fixed point with B = d * log2(q) + 128 fractional bits (one floor per
    term) and the exact integer total is rounded to a float once.  C(d, k)
    and q^k are updated from k - 1, exactly.
    """
    _require_q(q, d)
    b = d * q.bit_length() + 128
    total, c, qk = 0, 1, 1
    for k in range(1, d + 1):
        c = c * (d - k + 1) // k
        qk *= q
        term = (c << b) // (qk - 1)
        total += term if k % 2 else -term
    return total / (1 << b)


def vl_expectation_interval(q: int, d: int) -> tuple[float, float]:
    """The half-open interval (E - 1/(q-1), E] that contains the true
    expectation of the factor's max denominator exponent V_L."""
    _require_q(q, d)
    e = expected_vl_series(q, d)
    return (e - 1.0 / (q - 1), e)


def pi_q(q: int) -> float:
    """The constant Pi(q) = q * prod_{i>=1} (1 - q^-i).

    Satisfies q - 1 - 1/(q-1) < Pi(q) < q - 1; enters the sharper required
    precision bound of the simultaneous factorization.  Evaluated in fixed
    point with 192 fractional bits; factors with q^i >= 2^192 round to 1.
    """
    _require_q(q)
    acc = q << 192
    qi = q
    while qi < 1 << 192:
        acc -= acc // qi
        qi *= q
    return acc / (1 << 192)


def det_val_cdf(q: int, d: int, v: int) -> float:
    """P[v(det M) <= v] for Haar-random M in M_d(R):
    prod_{i=1}^{d} (1 - q^-(v+i))."""
    _require_q(q, d)
    if v < 0:
        return 0.0
    out = 1.0
    for i in range(1, d + 1):
        out *= 1.0 - float(q) ** (-(v + i))
    return out


def det_val_mean(q: int, d: int) -> float:
    """E[v(det M)] = sum_{i=1}^{d} 1 / (q^i - 1)."""
    _require_q(q, d)
    return math.fsum(1.0 / (q**i - 1) for i in range(1, d + 1))


def vl_upper_tail(q: int, d: int, x: float) -> float:
    """The dimension-linear tail bound P[V_L >= x] <= min(1, d * q^-x)."""
    _require_q(q, d)
    return min(1.0, d * float(q) ** (-x))


def vl_tail_bound(q: int, ell: int) -> float:
    """Two-sided concentration bound for V_L around log_q d:
    P[|V_L - log_q d - 1/2| > ell + 1/2] <= (q/(q-1)) * q^-ell * (2 + ell*ln q).

    Independent of d.
    """
    _require_q(q)
    return (q / (q - 1.0)) * float(q) ** (-ell) * (2.0 + ell * math.log(q))


def vl_centerings(q: int, d: int) -> tuple[float, float]:
    """The two natural centerings for the V_L concentration statement:
    log_q d + 1/2 (as asserted) and log_q d - 1/2 (as used in its proof).
    The tail experiment (:func:`~dvrlu.stats.montecarlo.tail_frequency`)
    centers at the first."""
    _require_q(q, d)
    c = math.log(d) / math.log(q)
    return (c + 0.5, c - 0.5)


def expected_vl_log_gap_bound(q: int, d: int) -> float:
    """Bound on |E(q, d) - floor-near log_q d|: (q/(q-1)) * q^-dist, where
    dist is the distance from log_q d to the nearest integer.  Used as a
    sanity envelope for the expectation's proximity to log_q d."""
    _require_q(q, d)
    lg = math.log(d) / math.log(q)
    dist = abs(lg - round(lg))
    return (q / (q - 1.0)) * float(q) ** (-dist)
