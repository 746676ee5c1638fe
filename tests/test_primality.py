"""The in-repo primality test behind DvrConfig's check on p."""

import math
import random

import pytest

from dvrlu.config import _strong_lucas_probable_prime, is_prime

LIMIT = 20000


def _sieve(n):
    flags = [True] * n
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(n - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def test_matches_trial_division_below_limit():
    flags = _sieve(LIMIT)
    assert [n for n in range(LIMIT) if is_prime(n)] == [
        n for n in range(LIMIT) if flags[n]
    ]


def test_strong_lucas_half_admits_exactly_the_known_pseudoprimes():
    # OEIS A217255: the strong Lucas pseudoprimes (Selfridge parameters)
    flags = _sieve(LIMIT)
    passing = [
        n for n in range(7, LIMIT, 2)
        if math.isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)
    ]
    assert [n for n in passing if not flags[n]] == [5459, 5777, 10877, 16109, 18971]
    assert {n for n in range(7, LIMIT, 2) if flags[n]} <= set(passing)


@pytest.mark.parametrize(
    "n",
    [
        # strong pseudoprimes to the first 1, 4, 9, 12 and 13 prime bases
        2047,
        3215031751,
        3825123056546413051,
        318665857834031151167461,
        3317044064679887385961981,
        # Carmichael numbers
        561,
        1105,
        1729,
        41041,
        825265,
        321197185,
        5394826801,
        232250619601,
        9746347772161,
        # above the Miller-Rabin bound: a semiprime and a square
        (2**61 - 1) * (2**89 - 1),
        (2**89 - 1) ** 2,
    ],
)
def test_rejects_pseudoprimes_and_composites(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 2**89 - 1, 2**127 - 1])
def test_accepts_mersenne_primes(n):
    assert is_prime(n)


def test_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    for bits in (16, 40, 64, 82, 100, 128):
        for _ in range(300):
            n = rng.getrandbits(bits) | 1
            assert is_prime(n) == sympy.isprime(n), n
            m = sympy.nextprime(n)
            assert is_prime(m), m
