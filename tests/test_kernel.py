"""The integer kernel (Z/p^N and F_p[t]/(t^N)) against the object path.

The object path is forced by making the kernel's eligibility check
(``kernel.ints``) refuse every matrix.  Both paths must then give equal
factors, field for field, the same exceptions with the same messages and the
same product counts, and an input the kernel accepts never reaches the
object elimination, not even to raise.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import oracles
import pytest
from hypothesis import example, given, strategies as st

from conftest import flat_from_ints
from dvrlu import kernel, lu_fast, lu_stable
from dvrlu.config import Backend, DvrConfig
from dvrlu.element import PrecElem
from dvrlu.errors import AmbiguousValuation, DegenerateInput, DvrError
from dvrlu.matrix import PrecMatrix, random_matrix
from dvrlu.series import SeriesElem
from dvrlu.simul import simultaneous_block_lu

PRIMES = [2, 3, 5, 2**31 - 1]


@contextmanager
def object_path():
    with mock.patch.object(kernel, "ints", lambda *args: None):
        yield


@contextmanager
def counting(module, name):
    """Record what each call of module.name returns, or the exception it
    raises, while the block runs."""
    calls = []
    orig = getattr(module, name)

    def spy(*args, **kwargs):
        try:
            out = orig(*args, **kwargs)
        except BaseException as exc:
            calls.append(exc)
            raise
        calls.append(out)
        return out

    with mock.patch.object(module, name, spy):
        yield calls


def _outcome(fn, m):
    """fn(m)'s fields and the product count, or the exception it raised."""
    lu_fast.reset_mul_count()
    try:
        out = fn(m)
    except DvrError as exc:
        return type(exc), str(exc)
    if isinstance(out, lu_stable.StableL):
        fields = (out.lower, out.col_vals, out.n)
    elif isinstance(out, lu_stable.BlockL):
        fields = (out.lower, out.block_vals, out.n)
    else:
        fields = (out.lp, out.vp, out.hp, out.wp, out.col_val, out.degenerate)
    return fields, lu_fast.get_mul_count()


def _tiling(d):
    """Blocks of 2 then 3, repeated, the last one cut to fit d."""
    sizes = []
    while sum(sizes) < d:
        sizes.append(min((2, 3)[len(sizes) % 2], d - sum(sizes)))
    return sizes


ELIMINATIONS = {
    "stable_l": lu_stable.stable_l,
    "lv_decomposition": lu_stable.lv_decomposition,
    "recursive_lv": lambda m: lu_fast.recursive_lv(m, threshold=2),
    "block_l": lambda m: lu_stable.block_l(m, _tiling(m.nrows)),
    "block_l_unitlower": lambda m: lu_stable.block_l_unitlower(m, _tiling(m.nrows)),
}
RAISE_DEGENERATE = {"stable_l", "block_l", "block_l_unitlower"}


def _ran_on_objects(fn, m):
    """Run fn(m); return whether an object elimination step ran, in
    lu_stable or in a one-row band of lu_fast.clear_block, and fn's
    outcome."""
    with counting(lu_stable, "_pivot_step") as steps:
        with counting(lu_fast, "_pivot_step") as bands:
            out = _outcome(fn, m)
    return bool(steps or bands), out


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


# row 0 is 0 mod t, so recursive_lv's first band step raises AmbiguousValuation
BAND_RAISES = flat_from_ints(DvrConfig(p=2, prec=1, backend=Backend.SERIES),
                             [[0, 0, 0], [0, 1, 1], [1, 1, 1]], 1)


@pytest.mark.parametrize("name", ELIMINATIONS)
@given(m=residue_matrices())
@example(m=BAND_RAISES)
def test_kernel_matches_object_path(name, m):
    fn = ELIMINATIONS[name]
    with counting(kernel, "rounds") as on_kernel:
        on_objects, got = _ran_on_objects(fn, m)
    with object_path():
        want = _outcome(fn, m)
    assert got == want
    # recursive_lv clears F_p[[t]] bands on elements, around kernel leaves
    bands = name == "recursive_lv" and m.rows[0][0].cfg.backend is Backend.SERIES
    assert on_kernel and on_objects <= bands


def test_a_step_that_raises_is_counted():
    ran, (exc, _) = _ran_on_objects(ELIMINATIONS["recursive_lv"], BAND_RAISES)
    assert ran and exc is AmbiguousValuation


@given(
    p=st.sampled_from(PRIMES),
    n=st.integers(1, 30),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
def test_capped_product_matches_matmul(p, n, shape, extra, seed):
    # operands known to more than n digits are read mod p^n
    rng = random.Random(seed)
    cfg = DvrConfig(p=p, prec=n)
    r, k, c = shape
    a, b = (
        PrecMatrix([[PrecElem.random(cfg, rng, n + rng.randint(0, extra))
                     for _ in range(w)] for _ in range(h)])
        for h, w in ((r, k), (k, c))
    )
    assert kernel.capped_product(a, b, n) == lu_fast.matmul(a, b).cap_abs(n)


@pytest.mark.parametrize("name", ELIMINATIONS)
def test_series_and_negative_valuation_take_object_path(name):
    # SeriesElem entries (the sheaf solver's local factors, which stable_l
    # does not take) and an entry of negative valuation have no residues
    fn = ELIMINATIONS[name]
    rng = random.Random(3)
    cfg = DvrConfig(p=3, prec=8)
    series = PrecMatrix([[SeriesElem(cfg, [PrecElem.random(cfg, rng) for _ in range(3)])
                          for _ in range(4)] for _ in range(4)])
    negative = random_matrix(cfg, 4, rng)
    negative[2, 1] = PrecElem.unit_form(cfg, -1, 2, 9)  # 2/3 + O(3^8)
    integral = random_matrix(cfg, 4, rng)
    for m in [negative] if name == "stable_l" else [negative, series]:
        assert kernel.columns(m, m.min_abs_prec()) is None
        assert _ran_on_objects(fn, m)[0]
    assert not _ran_on_objects(fn, integral)[0]


@pytest.mark.parametrize("name", ELIMINATIONS)
def test_flat_series_runs_on_kernel(name):
    # flat F_p[[t]] input is eliminated on slot ints; recursive_lv's leaves
    # run there too, while its bands and products stay on elements
    fn = ELIMINATIONS[name]
    m = random_matrix(DvrConfig(p=3, prec=8, backend=Backend.SERIES), 6, random.Random(3))
    assert kernel.columns(m, 8) is not None
    with counting(kernel, "rounds") as leaves, counting(kernel, "capped_product") as products:
        with counting(lu_stable, "_pivot_step") as steps:
            with counting(lu_fast, "_pivot_step") as bands:
                fn(m)
    assert leaves and not steps
    assert bool(bands) == bool(products) == (name == "recursive_lv")
    assert products.count(None) == len(products)


def _schoolbook(e):
    """The schoolbook-oracle copy of an F_p[[t]] element."""
    j = e.to_json()
    if "bigoh" in j:
        return oracles.SchoolbookSeries(e.cfg.p, True, j["bigoh"])
    return oracles.SchoolbookSeries(e.cfg.p, False, j["v"], int(j["digits"]), j["rel"])


@given(
    p=st.sampled_from(PRIMES),
    n=st.integers(1, 12),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 2**32),
)
def test_series_products_stay_on_elements(p, n, shape, seed):
    # a sum of slot products could overflow a slot, so F_p[[t]] products
    # stay on elements: the public matmul is the schoolbook classical
    # product, and recursive_lv (leaves on the kernel, products and bands on
    # elements) equals its all-element run
    rng = random.Random(seed)
    cfg = DvrConfig(p=p, prec=n, backend=Backend.SERIES)
    r, k, c = shape
    a, b = (
        PrecMatrix([[PrecElem.random(cfg, rng) for _ in range(w)] for _ in range(h)])
        for h, w in ((r, k), (k, c))
    )
    assert kernel.capped_product(a, b, n) is None
    sa, sb = ([[_schoolbook(e) for e in row] for row in x.rows] for x in (a, b))
    want = [[sum((x * y for x, y in zip(ra[1:], cb[1:])), ra[0] * cb[0]).to_json()
             for cb in zip(*sb)] for ra in sa]
    assert [[e.to_json() for e in row] for row in lu_fast.matmul(a, b).rows] == want
    m = random_matrix(cfg, r + c, rng)
    got = _outcome(lambda x: lu_fast.recursive_lv(x, threshold=2), m)
    with object_path():
        assert got == _outcome(lambda x: lu_fast.recursive_lv(x, threshold=2), m)


@pytest.mark.parametrize(
    "backend, algo", [(Backend.PADIC, "strassen"), (Backend.SERIES, "classical")]
)
def test_recursive_lv_bands_stay_on_elements(backend, algo):
    # Strassen's tracked precision is coarser than the kernel's, and a sum
    # of F_p[[t]] slot products could overflow a slot: both clear their
    # bands on elements
    m = random_matrix(DvrConfig(p=5, prec=10, backend=backend), 6, random.Random(4))
    with counting(lu_fast, "_pivot_step") as bands:
        lu_fast.recursive_lv(m, threshold=2, algo=algo)
    assert bands


def test_clear_block_decides_on_digits_beyond_n():
    # both band entries are 0 mod 5^3, so read mod 5^3 their comparison is
    # undecided; known to 5^6 they compare v(5^5) >= v(5^4), and the band
    # is cleared on elements without a swap
    cfg = DvrConfig(p=5, prec=6)
    x, y = (flat_from_ints(cfg, [[5**k]], 6) for k in (4, 5))
    with counting(lu_fast, "_pivot_step") as bands:
        xf, t = lu_fast.clear_block(x, y, 3)
    assert bands
    assert xf == x
    assert t == flat_from_ints(cfg, [[1, -5], [0, 1]], 3)


@pytest.mark.parametrize("name", ELIMINATIONS)
def test_undecided_comparison_raises_on_kernel(name):
    # step (1, 2) compares two entries that are both 0 mod 5^6; in
    # recursive_lv it is step (0, 1) of the bottom-right block.  stable_l
    # refuses the zero leading minor of round 1 before it gets there, and
    # the block eliminations the zero pivot of their first block.
    m = flat_from_ints(DvrConfig(p=5, prec=6), [[1, 0, 0], [0, 0, 0], [0, 1, 1]])
    fn = ELIMINATIONS[name]
    with counting(kernel, "rounds") as on_kernel:
        on_objects, got = _ran_on_objects(fn, m)
    with object_path():
        want = _outcome(fn, m)
    assert on_kernel and not on_objects
    assert got[0] is (DegenerateInput if name in RAISE_DEGENERATE else AmbiguousValuation)
    assert got == want


def _simul_outcome(cfg, family, seed):
    """simultaneous_block_lu's result and product count."""
    lu_fast.reset_mul_count()
    return simultaneous_block_lu(cfg, family, eps=0.5, seed=seed), lu_fast.get_mul_count()


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("short", [False, True])
def test_simul_products_match_object_path(seed, short):
    # omega * M_m runs on the kernel unless M_m is known to fewer than N
    # digits; the last member of the short family is known to N - 1 and
    # has det divisible by 5, so its factor faces no precision gate
    n, d = 10, 5
    cfg = DvrConfig(p=5, prec=n)
    rng = random.Random(seed)
    sizes = [[2, 3], [1, 4], [5]]
    family = [(random_matrix(cfg, d, rng), s) for s in sizes]
    if short:
        rows = [[rng.randrange(5**n) for _ in range(d)] for _ in range(d)]
        rows[0] = [5 * x for x in rows[0]]
        family.append((flat_from_ints(cfg, rows, n - 1), [2, 3]))
    with counting(kernel, "capped_product") as products:
        got = _simul_outcome(cfg, family, seed)
    with object_path():
        want = _simul_outcome(cfg, family, seed)
    assert got == want
    refused = [out is None for out in products]
    assert not all(refused) and any(refused) == short
