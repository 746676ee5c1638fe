"""The integer kernel (Z/p^N and F_p[t]/(t^N)) against the object path.

The object path is forced by making the kernel's eligibility check
(``kernel.ints``) refuse every matrix.  Both paths must then give equal
factors, field for field, the same exceptions with the same messages and the
same product counts, and an input the kernel accepts never reaches the
object elimination, not even to raise.  The forced run itself is checked
not to touch the kernel, so the comparison is never the kernel against
itself.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import oracles
import pytest
from hypothesis import example, given, strategies as st

from conftest import PRIMES, clear_band, flat_from_ints, residue_matrices
from dvrlu import kernel, lu_fast, lu_stable
from dvrlu.config import Backend, DvrConfig
from dvrlu.element import PrecElem
from dvrlu.errors import AmbiguousValuation, DegenerateInput, DvrError
from dvrlu.matrix import PrecMatrix, random_matrix
from dvrlu.series import SeriesElem
from dvrlu.simul import simultaneous_block_lu

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


@contextmanager
def object_path():
    """Run the block with the kernel refusing every matrix, and check that
    no kernel step ran and no kernel product was returned."""
    with mock.patch.object(kernel, "ints", lambda *args: None):
        with counting(kernel, "stepper") as steps, counting(kernel, "capped_products") as products:
            yield
    assert not steps and all(out is None for out in products)


def _outcome(fn, m):
    """fn(m)'s fields and the product count, or the exception it raised."""
    start = lu_fast.get_mul_count()
    try:
        out = fn(m)
    except DvrError as exc:
        return type(exc), str(exc)
    if isinstance(out, lu_stable.StableL):
        fields = (out.lower, out.col_vals, out.n)
    elif isinstance(out, lu_stable.BlockL):
        fields = (out.lower, out.block_vals, out.n)
    elif isinstance(out, lu_stable.VijProfile):
        fields = (out.table, out.boundary_sums, out.det_val, out.swaps, out.vl)
    else:
        fields = (out.lp, out.vp, out.hp, out.wp, out.col_val, out.degenerate)
    return fields, lu_fast.get_mul_count() - start


def _without_count(outcome):
    """outcome with its product count set to 0; an exception stays whole."""
    fields, count = outcome
    return (fields, 0) if isinstance(count, int) else outcome


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
    "vij_statistics": lu_stable.vij_statistics,
}
RAISE_DEGENERATE = {"stable_l", "block_l", "block_l_unitlower"}


def _ran_on_objects(fn, m):
    """Run fn(m); return whether an object elimination step ran, and fn's
    outcome."""
    with counting(lu_stable, "_pivot_step") as steps:
        out = _outcome(fn, m)
    return bool(steps), out


# row 0 is 0 mod t, so recursive_lv's first band step raises AmbiguousValuation
BAND_RAISES = flat_from_ints(DvrConfig(p=2, prec=1, backend=Backend.SERIES),
                             [[0, 0, 0], [0, 1, 1], [1, 1, 1]], 1)


def _zero_heavy_z2(n, seed, d=20):
    """A flat Z_2 matrix at N = n, about half of whose entries are 0 and
    the others often divisible by a power of 2: long rounds with many
    swaps in mid-round."""
    rng = random.Random(seed)
    entry = lambda: rng.randrange(2**n) * 2 ** rng.choice([0, 0, 1, 2, n // 2]) % 2**n
    rows = [[0 if rng.random() < 0.5 else entry() for _ in range(d)] for _ in range(d)]
    return flat_from_ints(DvrConfig(p=2, prec=n), rows, n)


@pytest.mark.parametrize("name", ELIMINATIONS)
@given(m=residue_matrices())
@example(m=BAND_RAISES)
# vij_statistics reads entry (i, j) before step (i, j), in mid-round: 24
# and 34 swaps, and stable_l finds a zero leading minor in the second; in
# the Z_3 matrix it reads entry (1, 2) at 1 - 4*7 = -27, which is 0 mod 3^2
@example(m=_zero_heavy_z2(16, 15))
@example(m=_zero_heavy_z2(10, 10))
@example(m=flat_from_ints(DvrConfig(p=3, prec=2), [[1, 0, 4], [7, 1, 1], [0, 0, 1]], 2))
def test_kernel_matches_object_path(name, m):
    fn = ELIMINATIONS[name]
    with counting(kernel, "stepper") as on_kernel:
        on_objects, got = _ran_on_objects(fn, m)
    with object_path():
        want = _outcome(fn, m)
    if name == "recursive_lv":
        # refused, it is lv_decomposition, which multiplies no matrices; the
        # kernel run's products are pinned in test_lu_fast
        got = _without_count(got)
    assert got == want
    assert on_kernel and not on_objects


@pytest.mark.parametrize("name", ["stable_l", "lv_decomposition", "block_l", "recursive_lv"])
def test_flat_input_is_read_once(name):
    # each entry is read once, as its residue, and the input is not copied;
    # lv_decomposition's transform starts from the identity's residues
    d = 7
    m = random_matrix(DvrConfig(p=5, prec=12), d, random.Random(4))
    with counting(PrecMatrix, "cap_abs") as caps, counting(PrecElem, "residue") as reads:
        on_objects, _ = _ran_on_objects(ELIMINATIONS[name], m)
    assert not on_objects and not caps and len(reads) == d * d


def test_refused_input_is_read_once_by_recursive_lv():
    # the kernel refuses the entry 2*3^-1 in the last column after reading
    # every residue; recursive_lv then eliminates the capped copy it made
    cfg = DvrConfig(p=3, prec=8)
    m = random_matrix(cfg, 6, random.Random(5))
    m[5, 5] = PrecElem.unit_form(cfg, -1, 2, 9)
    with counting(PrecMatrix, "cap_abs") as caps, counting(PrecElem, "residue") as reads:
        got = lu_fast.recursive_lv(m)
    assert len(caps) == 1 and len(reads) == 36
    assert got == lu_stable.lv_decomposition(m)


@st.composite
def deep_residue_matrices(draw):
    """An integral matrix over Z_p or F_p[[t]] that is not flat: entry
    (0, 0) is known to N digits, the others to up to 6 more, and entries
    are often 0 mod pi^N or divisible by a power of p (of t)."""
    backend = draw(st.sampled_from(Backend))
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 20))
    d = draw(st.integers(1, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cfg = DvrConfig(p=p, prec=n + 6, backend=backend)

    def entry(prec):
        x = rng.randrange(p**prec) * p ** rng.choice([0, 0, 1, n // 2, n])
        return PrecElem.from_int(cfg, x, abs_prec=prec)

    return PrecMatrix([[entry(n if i == j == 0 else n + rng.randint(0, 6)) for j in range(d)]
                       for i in range(d)])


@pytest.mark.parametrize("name", [name for name in ELIMINATIONS if name != "vij_statistics"])
@given(m=deep_residue_matrices())
def test_entries_known_beyond_n_run_on_kernel(name, m):
    # read mod pi^N, as if capped at N: the kernel runs and its outcome is
    # the object path's on the copy capped at N
    fn = ELIMINATIONS[name]
    with counting(kernel, "stepper") as on_kernel:
        on_objects, got = _ran_on_objects(fn, m)
    with object_path():
        want = _outcome(fn, m)
    if name == "recursive_lv":
        got = _without_count(got)
    assert got == want
    assert on_kernel and not on_objects


def test_a_step_that_raises_is_counted():
    # vij_statistics reads row 1 to 5^10, beyond N = 4, so it stays on
    # elements; both operands of its step (0, 1) are O(5^4)
    cfg = DvrConfig(p=5, prec=10)
    m = PrecMatrix([[PrecElem.bigoh(cfg, 4)] * 2, [PrecElem.from_int(cfg, 1, abs_prec=10)] * 2])
    assert m.min_abs_prec() == 4 and lu_stable.working_precision(m) == 10
    ran, (exc, _) = _ran_on_objects(lu_stable.vij_statistics, m)
    assert ran and exc is AmbiguousValuation


@given(
    backend=st.sampled_from(Backend),
    p=st.sampled_from(PRIMES),
    n=st.integers(1, 30),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
def test_capped_product_matches_matmul(backend, p, n, shape, extra, seed):
    # operands known to more than n digits are read mod pi^n
    rng = random.Random(seed)
    cfg = DvrConfig(p=p, prec=n, backend=backend)
    r, k, c = shape

    def entry(prec):
        return PrecElem.from_int(cfg, rng.randrange(cfg.p**prec), abs_prec=prec)

    a, b = (
        PrecMatrix([[entry(n + rng.randint(0, extra)) for _ in range(w)] for _ in range(h)])
        for h, w in ((r, k), (k, c))
    )
    assert kernel.capped_products(a, [b], n) == [lu_fast.matmul(a, b).cap_abs(n)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n, inner, prec, groups", [
    (1024, 64, 1024, 2), (4096, 8, 2048, 1), (4097, 2, 1024, 0),
], ids=["1024-64", "4096-8", "4097-2"])
def test_series_product_at_its_edges(p, n, inner, prec, groups):
    # a row and a column whose every digit is p - 1 give the largest slot
    # sums (n * inner > CAP overflows one unreduced sum of slot products).
    # The operands carry n digits in a ring of prec digits, whose CAP puts
    # n = 1024 on sums of CAP // n >= 2 slot products, n = 4096 on sums of
    # one and n = 4097 past CAP, on the one product per term route.
    cfg = DvrConfig(p=p, prec=prec, backend=Backend.SERIES)
    ops = cfg.ops
    assert n * inner > ops.CAP and min(ops.CAP // n, 2) == groups
    rng = random.Random(p * n)
    a = [[p**n - 1] * inner, [rng.randrange(p**n) for _ in range(inner)]]
    b = [[p**n - 1, rng.randrange(p**n)] for _ in range(inner)]
    rows = [[ops.encode(x) for x in row] for row in a]
    cols = [[ops.encode(x) for x in col] for col in zip(*b)]
    want = []
    for r in rows:
        want.append([])
        for c in cols:
            acc = 0
            for x, y in zip(r, c):
                acc = ops.add(acc, ops.mul(x, y, n), n)
            want[-1].append(acc)
    assert ops.product(rows, cols, n) == want
    elem = kernel.elements(cfg, n)
    ea, eb = (PrecMatrix([[elem(x) for x in line] for line in m]) for m in (rows, zip(*cols)))
    assert kernel.capped_products(ea, [eb], n) == [lu_fast.matmul(ea, eb).cap_abs(n)]


def _json(x):
    """x with every matrix in it as its JSON form."""
    if isinstance(x, PrecMatrix):
        return x.to_json()
    return [_json(y) for y in x] if isinstance(x, (list, tuple)) else x


@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("name", ["stable_l", "lv_decomposition", "block_l_unitlower", "recursive_lv"])
def test_slot_layout_does_not_change_outputs(p, name):
    # one integer matrix read at N under F_p[[t]] configs of prec N and 8N,
    # two slot layouts: the kernel takes both and the outputs agree
    n, d = 12, 7
    rng = random.Random(p)
    ints = [[rng.randrange(p**n) for _ in range(d)] for _ in range(d)]
    cfgs = [DvrConfig(p=p, prec=prec, backend=Backend.SERIES) for prec in (n, 8 * n)]
    assert cfgs[0].ops.w < cfgs[1].ops.w
    outs = []
    for cfg in cfgs:
        m = flat_from_ints(cfg, ints, n)
        assert lu_stable._flattened(m)[2] is not None
        with counting(kernel, "stepper") as on_kernel:
            on_objects, out = _ran_on_objects(ELIMINATIONS[name], m)
        assert on_kernel and not on_objects
        outs.append(_json(out))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name", ELIMINATIONS)
def test_series_and_negative_valuation_take_object_path(name):
    # SeriesElem entries (the sheaf solver's local factors, which stable_l
    # and vij_statistics do not take) and an entry of negative valuation
    # have no residues
    fn = ELIMINATIONS[name]
    rng = random.Random(3)
    cfg = DvrConfig(p=3, prec=8)
    series = PrecMatrix([[SeriesElem(cfg, [PrecElem.random(cfg, rng) for _ in range(3)])
                          for _ in range(4)] for _ in range(4)])
    negative = random_matrix(cfg, 4, rng)
    negative[2, 1] = PrecElem.unit_form(cfg, -1, 2, 9)  # 2/3 + O(3^8)
    integral = random_matrix(cfg, 4, rng)
    for m in [negative] if name in ("stable_l", "vij_statistics") else [negative, series]:
        assert lu_stable._flattened(m)[2] is None
        assert _ran_on_objects(fn, m)[0]
    assert not _ran_on_objects(fn, integral)[0]


@pytest.mark.parametrize("name", ELIMINATIONS)
def test_flat_series_runs_on_kernel(name):
    # flat F_p[[t]] input is eliminated on slot ints; recursive_lv's leaves,
    # bands and products run there too, and its products are counted
    fn = ELIMINATIONS[name]
    m = random_matrix(DvrConfig(p=3, prec=8, backend=Backend.SERIES), 6, random.Random(3))
    assert lu_stable._flattened(m)[2] is not None
    with counting(kernel, "stepper") as on_kernel, counting(lu_fast, "matmul") as products:
        on_objects, (_, count) = _ran_on_objects(fn, m)
    assert on_kernel and not on_objects and not products
    assert (count > 0) == (name == "recursive_lv")


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
def test_series_products_are_the_schoolbook_product(p, n, shape, seed):
    # the kernel's capped F_p[[t]] product and the public matmul are both
    # the schoolbook classical product, and recursive_lv (leaves, products
    # and bands on the kernel) equals lv_decomposition on elements
    rng = random.Random(seed)
    cfg = DvrConfig(p=p, prec=n, backend=Backend.SERIES)
    r, k, c = shape
    a, b = (
        PrecMatrix([[PrecElem.random(cfg, rng) for _ in range(w)] for _ in range(h)])
        for h, w in ((r, k), (k, c))
    )
    sa, sb = ([[_schoolbook(e) for e in row] for row in x.rows] for x in (a, b))
    want = [[sum((x * y for x, y in zip(ra[1:], cb[1:])), ra[0] * cb[0])
             for cb in zip(*sb)] for ra in sa]
    capped = [[e.lift_to_precision(n) if e.abs_prec() > n else e for e in row] for row in want]
    as_json = lambda rows: [[e.to_json() for e in row] for row in rows]
    assert as_json(lu_fast.matmul(a, b).rows) == as_json(want)
    assert as_json(kernel.capped_products(a, [b], n)[0].rows) == as_json(capped)
    m = random_matrix(cfg, r + c, rng)
    got = _outcome(lambda x: lu_fast.recursive_lv(x, threshold=2), m)
    with object_path():
        assert _without_count(got) == _outcome(lu_stable.lv_decomposition, m)


@pytest.mark.parametrize("backend", list(Backend))
def test_recursive_lv_strassen_bands_run_on_kernel(backend):
    # Strassen products mod pi^N are exact, so a Strassen run clears its
    # leaves and bands on the kernel, as the classical run does
    m = random_matrix(DvrConfig(p=5, prec=10, backend=backend), 6, random.Random(4))
    strassen = lambda x: lu_fast.recursive_lv(x, threshold=2, algo="strassen")
    with counting(kernel, "stepper") as on_kernel:
        on_objects, _ = _ran_on_objects(strassen, m)
    assert on_kernel and not on_objects


def _stored(cfg, n, x):
    """Whether x is a stored int of n digits: in [0, p^n) on Z_p, n slots
    each below p on F_p[[t]]."""
    ops = cfg.ops
    return 0 <= ops.decode(x) < cfg.p**n and ops.encode(ops.decode(x)) == x


def _raised(fn):
    """The type and message of what fn() raised, or None."""
    try:
        fn()
    except AmbiguousValuation as exc:
        return type(exc), str(exc)
    return None


def _assert_steps_agree(cfg, n, omega, k):
    """Run the kernel's step and the oracles' eager one side by side on the
    columns omega, with a transform: square rounds (k = 0), or a band whose
    first k columns are lower triangular.  Columns the step leaves at rest
    (its pivot column, column j after the last step on it) must be equal
    and stored ints of n digits; column j in mid-round must be equal mod
    pi^n, and on Z_p each of its ints below (updates + 1) * p^(2n) in
    absolute value.  Both must raise alike."""
    ops, p, d = cfg.ops, cfg.p, len(omega)
    ident = [[int(r == c) for r in range(d)] for c in range(d)]
    if k:
        steps = [(i, c, i == k - 1) for c in range(k, d) for i in range(k)]
    else:
        steps = [(i, j, i == j - 1) for j in range(d) for i in range(j)]
    mine, ref = ([[list(col) for col in m] for m in (omega, ident)] for _ in range(2))
    lazy, eager = kernel.stepper(n, cfg), oracles.eager_stepper(n, cfg)
    for i, j, last in steps:
        raised = _raised(lambda: lazy(mine, i, j, last))
        assert raised == _raised(lambda: eager(ref, i, j))
        if raised:
            return raised
        for a, b in zip(mine, ref):
            assert a[i] == b[i]
            if last:
                assert a[j] == b[j] and all(_stored(cfg, n, x) for x in a[j])
            else:
                assert [ops.trunc(x, n) for x in a[j]] == b[j]
                assert cfg.backend is Backend.SERIES or max(map(abs, a[j])) < (i + 2) * p ** (2 * n)
    if k:
        # the column-major band is the row-major band, and is the band step
        # of recursive_lv
        rows = [[list(col) for col in m] for m in (omega, ident)]
        for i, c in ((i, c) for i in range(k) for c in range(k, d)):
            eager(rows, i, c)
        assert mine == rows
        x, y = (lu_fast._transposed(cols) for cols in (omega[:k], omega[k:]))
        band = lu_fast._Residues(cfg, n, "classical").band(x, y)
        assert band == (lu_fast._transposed(mine[0][:k]), lu_fast._transposed(mine[1]))
    return None


@given(
    backend=st.sampled_from(Backend),
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(1, 100),
    d=st.integers(1, 24),
    k=st.integers(0, 24),
    zeros=st.sampled_from([0.0, 0.3, 0.7]),
    seed=st.integers(0, 2**32),
)
def test_stepper_matches_eager_stepper(backend, p, n, d, k, zeros, seed):
    # zero-heavy entries make swaps and undecided comparisons come up in
    # mid-round; k % d = 0 runs square rounds
    cfg = DvrConfig(p=p, prec=n, backend=backend)
    rng, k = random.Random(seed), k % d

    def entry():
        if rng.random() < zeros:
            return 0
        return cfg.ops.encode(rng.randrange(p**n) * p ** rng.choice([0, 0, 1, 2, n // 2]) % p**n)

    omega = [[entry() if r >= c or c >= k else 0 for r in range(k or d)] for c in range(d)]
    _assert_steps_agree(cfg, n, omega, k)


@pytest.mark.parametrize("k", [0, 2])
def test_stepper_decides_on_the_reduced_entry(k):
    # Z_3 at N = 1, by columns.  Step (0, 2) leaves entry (1, 2) at
    # 1 - 2*2 = -3, 0 mod 3 but not 0, against the zero pivot (1, 1): step
    # (1, 2) compares two zeros and raises.  As a band of k = 2 rows the
    # first two columns are lower triangular and the same steps run.
    cfg = DvrConfig(p=3, prec=1)
    omega = [[1, 2, 0], [0, 0, 1], [2, 1, 0]]
    if k:
        omega = [col[:2] for col in omega]
    raised = _assert_steps_agree(cfg, 1, omega, k)
    assert raised[0] is AmbiguousValuation and "both indistinguishable from zero" in raised[1]


def _cleared(clear):
    """clear()'s (Xf, T), or the message of the AmbiguousValuation it
    raised."""
    try:
        return tuple(clear())
    except AmbiguousValuation as exc:
        return str(exc)


def _assert_cuts_agree(x, y, n):
    """The band [X | Y], flat and integral at n, cleared on residues by
    scalar steps from cut 2 and from cut k on, equals its recursion down to
    one-row bands, field for field; return that outcome."""
    want = _cleared(lambda: clear_band(x, y, n))
    for cut in {2, x.nrows}:
        assert _cleared(lambda: clear_band(x, y, n, cut)) == want
    return want


@given(
    backend=st.sampled_from(Backend),
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(1, 12),
    shape=st.tuples(st.integers(1, 7), st.integers(0, 7)),
    seed=st.integers(0, 2**32),
)
def test_band_steps_are_the_band_recursion(backend, p, n, shape, seed):
    # the scalar steps (i, c), i < k <= c, in row-major order are a nice
    # order, so they reproduce the recursion on a flat integral band
    cfg = DvrConfig(p=p, prec=n, backend=backend)
    rng = random.Random(seed)
    k, w = shape
    entries = lambda h, v: [[rng.randrange(p**n) * p ** rng.choice([0, 0, 1, 2, n])
                             for _ in range(v)] for _ in range(h)]
    while True:
        try:
            x = lu_stable.lv_decomposition(flat_from_ints(cfg, entries(k, k), n)).hp
            break
        except AmbiguousValuation:
            continue
    _assert_cuts_agree(x, flat_from_ints(cfg, entries(k, w), n) if w else x.block(0, k, 0, 0), n)


# row 1's pivot is 0 mod t, and so is the band entry beside it once row 0
# is cleared: step (1, 3) raises AmbiguousValuation
BAND_RAISES_AT_ROW_1 = tuple(
    flat_from_ints(BAND_RAISES[0, 0].cfg, rows, 1)
    for rows in ([[1, 0, 0], [1, 0, 0], [0, 1, 1]], [[1, 1], [1, 1], [1, 0]])
)


@pytest.mark.parametrize("band", [BAND_RAISES_AT_ROW_1, (BAND_RAISES.block(0, 1, 0, 1),
                                                         BAND_RAISES.block(0, 1, 1, 3))])
def test_band_raises_the_same_at_every_cut(band):
    assert "cannot compare" in _assert_cuts_agree(*band, 1)


def test_bands_clear_threshold_rows_and_refused_input_none():
    # integral input clears its bands by scalar steps on residues, up to
    # threshold rows, with either product, and runs no object step; input
    # the kernel refuses (an entry of negative valuation, SeriesElem
    # entries) is lv_decomposition itself and clears no band
    rng = random.Random(5)
    cfg = DvrConfig(p=3, prec=8)
    integral = random_matrix(cfg, 8, rng)
    negative = random_matrix(cfg, 8, rng)
    negative[5, 6] = PrecElem.unit_form(cfg, -1, 2, 9)  # 2/3 + O(3^8)
    series = PrecMatrix([[SeriesElem(cfg, [PrecElem.random(cfg, rng) for _ in range(2)])
                          for _ in range(8)] for _ in range(8)])
    band = lu_fast._Residues.band
    for m, widest in ((integral, 4), (negative, None), (series, None)):
        for algo in ("classical", "strassen"):
            rows = []

            def spy(self, x, y):
                rows.append(len(x))
                return band(self, x, y)

            with mock.patch.object(lu_fast._Residues, "band", spy):
                with counting(lu_stable, "_pivot_step") as steps:
                    got = _outcome(lambda x: lu_fast.recursive_lv(x, threshold=4, algo=algo), m)
            assert max(rows, default=None) == widest and bool(steps) == (widest is None)
            if widest is None:
                assert got == _outcome(lu_stable.lv_decomposition, m)


@pytest.mark.parametrize("name", ELIMINATIONS)
def test_undecided_comparison_raises_on_kernel(name):
    # step (1, 2) compares two entries that are both 0 mod 5^6; in
    # recursive_lv it is step (0, 1) of the bottom-right block.  stable_l
    # refuses the zero leading minor of round 1 before it gets there, and
    # the block eliminations the zero pivot of their first block.
    m = flat_from_ints(DvrConfig(p=5, prec=6), [[1, 0, 0], [0, 0, 0], [0, 1, 1]])
    fn = ELIMINATIONS[name]
    with counting(kernel, "stepper") as on_kernel:
        on_objects, got = _ran_on_objects(fn, m)
    with object_path():
        want = _outcome(fn, m)
    assert on_kernel and not on_objects
    assert got[0] is (DegenerateInput if name in RAISE_DEGENERATE else AmbiguousValuation)
    assert got == want


def test_entry_known_beyond_n_stays_off_kernel():
    # N = 3, set by the O(5^3) entry; vij_statistics reads the others to
    # 5^10, so round 0's pivot has valuation 5 and V_L the interval (0, 2).
    # Read mod 5^3 on the kernel, that pivot would be O(5^3) and V_L None.
    cfg = DvrConfig(p=5, prec=10)
    m = PrecMatrix(
        [
            [PrecElem.unit_form(cfg, 5, 1, 5), PrecElem.from_int(cfg, 1, abs_prec=10)],
            [PrecElem.bigoh(cfg, 3), PrecElem.from_int(cfg, 1, abs_prec=10)],
        ]
    )
    assert m.min_abs_prec() == 3 and lu_stable.working_precision(m) == 10
    with counting(kernel, "stepper") as on_kernel:
        on_objects, got = _ran_on_objects(lu_stable.vij_statistics, m)
    assert on_objects and not on_kernel
    assert got[0][-1] == (0, 2)


@pytest.mark.parametrize("name", ["stable_l", "lv_decomposition", "vij_statistics", "block_l"])
def test_equal_configs_stay_on_kernel(name):
    # row 0 carries a second DvrConfig equal to the others': one ring, so
    # the kernel takes the matrix and the output is the one-config run's
    n, d = 12, 6
    rng = random.Random(8)
    ints = [[rng.randrange(5**n) for _ in range(d)] for _ in range(d)]
    cfg, twin = DvrConfig(p=5, prec=n), DvrConfig(p=5, prec=n)
    one = flat_from_ints(cfg, ints)
    mixed = PrecMatrix([flat_from_ints(twin, ints[:1]).rows[0], *one.rows[1:]])
    assert twin is not cfg
    on_objects, got = _ran_on_objects(ELIMINATIONS[name], mixed)
    assert not on_objects and got == _outcome(ELIMINATIONS[name], one)
    assert kernel.capped_products(one, [mixed], n) == kernel.capped_products(one, [one], n)


def _simul_outcome(cfg, family, seed):
    """simultaneous_block_lu's result and product count."""
    start = lu_fast.get_mul_count()
    return simultaneous_block_lu(cfg, family, eps=0.5, seed=seed), lu_fast.get_mul_count() - start


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
    with counting(kernel, "capped_products") as products:
        got = _simul_outcome(cfg, family, seed)
    with object_path():
        want = _simul_outcome(cfg, family, seed)
    assert got == want
    refused = [out is None for out in products]
    assert not all(refused) and any(refused) == short
