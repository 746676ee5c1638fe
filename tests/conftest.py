import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from dvrlu import Backend, DvrConfig, PrecElem, PrecMatrix, SeriesElem, kernel, lu_fast
from dvrlu.lu_stable import _vl_bound
from dvrlu.sheaf import poly_add
from dvrlu.stats import Engine
from dvrlu.stats.formulas import _require_q

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def flat_from_ints(cfg: DvrConfig, rows, n=None) -> PrecMatrix:
    """Integer matrix at flat absolute precision n (default cfg.prec)."""
    n = cfg.prec if n is None else n
    return PrecMatrix(
        [[PrecElem.from_int(cfg, x, abs_prec=n) for x in row] for row in rows]
    )


def clear_band(x: PrecMatrix, y: PrecMatrix, n: int, cut: int = 1) -> tuple[PrecMatrix, ...]:
    """(Xf, T) of the band [X | Y], flat and integral at n, cleared on its
    residues by recursive_lv's band step, recursing down to bands of cut
    rows."""
    cfg = x.rows[0][0].cfg
    xr, yr = (kernel.ints(z.rows, n, cfg) for z in (x, y))
    r = lu_fast._Residues(cfg, n, "classical")
    return tuple(map(r.elements, lu_fast._clear(xr, yr, r, cut)))


def series_constant(scalar: PrecElem, order: int, pad_abs: int) -> SeriesElem:
    """The series of the given order with constant coefficient scalar and
    every higher coefficient O(pi^pad_abs)."""
    pad = [PrecElem.bigoh(scalar.cfg, pad_abs) for _ in range(order - 1)]
    return SeriesElem(scalar.cfg, [scalar] + pad)


def vl_of_lower(lower: PrecMatrix):
    """max(0, -min valuation) over strictly-lower entries of L.

    Returns an int when every strictly-lower entry either has known
    valuation or is zero at a precision that cannot hide anything smaller
    than the known minimum; otherwise returns the interval (lo, hi) of
    possible values as a tuple.
    """
    return _vl_bound((lower[i, j], 0) for i in range(lower.nrows) for j in range(i))


def poly_sub(f, g):
    return poly_add(f, [-c for c in g])


def poly_eval(f, x):
    acc = f[-1]
    for c in reversed(f[:-1]):
        acc = acc * x + c
    return acc


def vij_mass(q: int, v: int) -> float:
    """P[V = v] for the valuation of a Haar-random ring element restricted
    to being finite: geometric with ratio 1/q, mass (1 - 1/q) * q^-v."""
    _require_q(q)
    if v < 0:
        return 0.0
    return (1.0 - 1.0 / q) * q ** (-float(v))


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


PRIMES = [2, 3, 5, 2**31 - 1]


@st.composite
def residue_matrices(draw):
    """A flat integer matrix over Z_p or F_p[[t]] at precision N; entries
    are often 0 or divisible by a power of p (of t), so that swaps and
    undecided comparisons come up."""
    backend = draw(st.sampled_from(Backend))
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 8))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        if rng.random() < zeros:
            return 0
        return rng.randrange(p**n) * p ** rng.choice([0, 0, 1, 2, n // 2])

    cfg = DvrConfig(p=p, prec=n, backend=backend)
    return flat_from_ints(cfg, [[entry() for _ in range(d)] for _ in range(d)], n)


@st.composite
def tracked_elements(draw, cfg: DvrConfig, unit: bool = False):
    """An element of ring cfg in either shape: a big-oh zero O(pi^n) or a
    unit form pi^v u + O(pi^(v+rel)), with valuations and precisions from
    the fraction field (v, n >= -3) and mixed relative precisions."""
    if not unit and draw(st.integers(0, 3)) == 0:
        return PrecElem.bigoh(cfg, draw(st.integers(-3, 12)))
    rel = draw(st.integers(1, 10))
    u = draw(st.integers(1, cfg.p - 1)) + cfg.p * draw(st.integers(0, cfg.p ** (rel - 1)))
    return PrecElem.unit_form(cfg, draw(st.integers(-3, 6)), u, rel)


rings = st.builds(
    DvrConfig, p=st.sampled_from([2, 3, 5, 7]), prec=st.just(8), backend=st.sampled_from(Backend)
)


def random_int_rows(rng: random.Random, d: int, p: int, n: int):
    """Uniform integer representatives mod p^n, as plain ints."""
    hi = p**n
    return [[rng.randrange(hi) for _ in range(d)] for _ in range(d)]


def elem_matches_fraction(e: PrecElem, x: Fraction) -> bool:
    """Every claimed digit of e agrees with the exact rational x."""
    from oracles import fraction_is_small, fraction_matches_digits

    p = e.cfg.p
    if e.is_zeroish:
        return fraction_is_small(Fraction(x), p, e.val_lower_bound)
    return fraction_matches_digits(
        Fraction(x), p, e.valuation, e.unit_digits, e.abs_prec
    )


@pytest.fixture(scope="session")
def mc():
    """Session cache of engine runs keyed by (p, d, trials, seed)."""
    from dvrlu.stats.montecarlo import simulate

    cache = {}

    def get(p, d, trials, seed=0, record_table=False):
        key = (p, d, trials, seed, record_table)
        if key not in cache:
            cache[key] = simulate(p, d, trials, seed=seed, record_table=record_table)
        return cache[key]

    return get
