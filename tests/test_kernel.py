"""The batch kernel must agree bit for bit with a one-row MAD written
here, and with its formulation on ``np.sort``."""
import itertools
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from madkit import _kernel
from madkit._kernel import _NETWORK_MAX_WIDTH, _sort_rows, mad0_batch
from madkit.mad import mad_uncorrected
from madkit.quantiles import HD, SM, THD_SQRT, median_weights

ALL_KINDS = (SM, HD, THD_SQRT)


def _median_reference(v, w):
    """sum(w * v) for one sorted row ``v``, clamped to [v[0], v[-1]]."""
    return min(max(float(np.einsum("i,i->", w, v)), float(v[0])), float(v[-1]))


def _mad_reference(row, kind):
    """The raw MAD of one row, on ``np.sort`` and without the kernel."""
    v = np.sort(np.asarray(row, dtype=np.float64))
    w = median_weights(v.size, kind)
    return _median_reference(np.sort(np.abs(v - _median_reference(v, w))), w)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_batch_matches_scalar_path(kind):
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5, 7, 10, 12, 17, 33, 64, 301):
        samples = rng.standard_normal((40, n))
        batch = mad0_batch(samples, median_weights(n, kind))
        expected = [_mad_reference(row, kind) for row in samples]
        assert batch == pytest.approx(expected, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_mad_uncorrected_is_the_composed_mad_bitwise(kind):
    # mad_uncorrected runs the kernel on one row; at the boundary sizes it
    # gives the bits of the one-row reference.
    rng = np.random.default_rng(12)
    for n in (*range(2, 40), 99, 100, 101, 1000, 10001, 100_000):
        rows = [rng.standard_normal(n), rng.standard_cauchy(n) * 1e3,
                rng.integers(-3, 4, n).astype(np.float64)]
        if n <= 1000:
            rows.append(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300))
        for row in rows:
            got, want = mad_uncorrected(row, kind), _mad_reference(row, kind)
            assert got.hex() == want.hex(), (n, got, want)


def test_input_not_mutated():
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((50, 9))
    copy = samples.copy()
    mad0_batch(samples, median_weights(9, HD))
    assert np.array_equal(samples, copy)


def test_rejects_mismatched_weights():
    samples = np.zeros((4, 5))
    with pytest.raises(ValueError):
        mad0_batch(samples, np.full(3, 1 / 3))


def _mad0_matmul(samples, weights):
    """The kernel as formulated before einsum, with BLAS matrix-vector products."""
    xs = np.sort(samples, axis=1)
    dev = np.abs(xs - (xs @ weights)[:, None])
    dev.sort(axis=1)
    return dev @ weights


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_matches_matmul_formulation(kind):
    # einsum and BLAS sum in different orders: the rows may differ by ulps.
    rng = np.random.default_rng(9)
    for n in range(2, 302):
        samples = rng.standard_normal((16, n))
        weights = median_weights(n, kind)
        np.testing.assert_allclose(
            mad0_batch(samples, weights), _mad0_matmul(samples, weights), rtol=1e-13, atol=0
        )


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
@pytest.mark.parametrize("n", (2, 3, 10, 101))
def test_constant_rows_give_exact_zero(kind, n):
    rng = np.random.default_rng(10)
    constants = np.concatenate([
        [0.0, -0.0, 1.0, 0.1, -1e-300, 123456.789, 1e300],
        rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
    ])
    samples = np.repeat(constants[:, None], n, axis=1)
    assert np.array_equal(mad0_batch(samples, median_weights(n, kind)), np.zeros(len(constants)))
    assert all(_mad_reference(row, kind) == 0.0 for row in samples)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_huge_rows_stay_finite(kind):
    rng = np.random.default_rng(11)
    for n in (2, 3, 10, 101):
        samples = rng.standard_normal((40, n)) * 1e150
        batch = mad0_batch(samples, median_weights(n, kind))
        assert np.isfinite(batch).all()
        expected = [_mad_reference(row, kind) for row in samples]
        np.testing.assert_allclose(batch, expected, rtol=1e-12, atol=0)


# --- Sorting networks, blocks and stacked weights -------------------------

LIMIT = _NETWORK_MAX_WIDTH


def _block_rows(n):
    return _kernel._BLOCK_VALUES // n


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _mad0_np_sort(samples, weights):
    """The kernel as formulated on np.sort, before the networks and blocks."""
    xs = np.sort(np.asarray(samples, dtype=np.float64), axis=1)
    med = np.einsum("ij,j->i", xs, weights)
    med = np.clip(med, xs[:, 0], xs[:, -1], out=med)
    dev = np.abs(xs - med[:, None])
    dev.sort(axis=1)
    mad = np.einsum("ij,j->i", dev, weights)
    return np.clip(mad, dev[:, 0], dev[:, -1], out=mad)


@pytest.mark.parametrize("n", range(2, LIMIT + 3))
def test_sort_rows_is_np_sort(n):
    rng = np.random.default_rng(20 + n)
    for rows in (1, 7, _block_rows(n), _block_rows(n) + 1, 40000):
        a = rng.standard_normal((rows, n))
        copy = a.copy()
        assert np.array_equal(_bits(_sort_rows(a)), _bits(np.sort(a, axis=1)))
        assert np.array_equal(a, copy)


@pytest.mark.parametrize("n", range(2, LIMIT + 1))
def test_network_sorts_every_binary_row(n):
    # 0-1 principle (Knuth, TAOCP vol. 3, 5.3.4): a comparator network sorts
    # every input iff it sorts all 2**n rows of zeros and ones.
    rows = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    assert np.array_equal(_sort_rows(rows), np.sort(rows, axis=1))


def test_sort_rows_nan_and_inf_rows():
    rng = np.random.default_rng(21)
    for n in range(2, LIMIT + 3):
        a = rng.standard_normal((64, n))
        a[rng.random(a.shape) < 0.05] = np.nan
        a[rng.random(a.shape) < 0.05] = np.inf
        a[rng.random(a.shape) < 0.05] = -np.inf
        a[3] = np.nan
        np.testing.assert_array_equal(_sort_rows(a), np.sort(a, axis=1))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_bitwise_equal_to_np_sort_formulation(kind):
    rng = np.random.default_rng(22)
    for n in (*range(2, LIMIT + 3), 30, 101):
        weights = median_weights(n, kind)
        block = _block_rows(n)
        for rows in (1, 7, block - 1, block, block + 1, 2 * block + 3):
            samples = rng.standard_normal((rows, n))
            got = mad0_batch(samples, weights)
            assert np.array_equal(_bits(got), _bits(_mad0_np_sort(samples, weights))), (n, rows)


@pytest.mark.parametrize("n", (2, 3, 5, LIMIT, LIMIT + 1, 30, 100))
def test_stacked_weights_match_single_calls(n):
    rng = np.random.default_rng(23)
    samples = rng.standard_normal((2 * _block_rows(n) + 5, n))
    stack = np.stack([median_weights(n, kind) for kind in ALL_KINDS])
    got = mad0_batch(samples, stack)
    assert got.shape == (len(ALL_KINDS), len(samples))
    for k in range(len(ALL_KINDS)):
        assert np.array_equal(_bits(got[k]), _bits(mad0_batch(samples, stack[k])))
    assert mad0_batch(samples, stack[:1]).shape == (1, len(samples))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_non_finite_and_signed_zero_rows_match_reference(kind):
    rng = np.random.default_rng(24)
    for n in (2, 3, 5, LIMIT, LIMIT + 1, 30):
        samples = rng.standard_normal((300, n))
        samples[rng.random(samples.shape) < 0.02] = np.nan
        samples[rng.random(samples.shape) < 0.02] = np.inf
        samples[rng.random(samples.shape) < 0.02] = -np.inf
        zeros = rng.random(samples.shape) < 0.2
        samples[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        samples[:4] = rng.choice([0.0, -0.0], size=(4, n))
        weights = median_weights(n, kind)
        with np.errstate(invalid="ignore"):  # inf - inf
            got = mad0_batch(samples, weights)
            expected = _mad0_np_sort(samples, weights)
        nan = np.isnan(expected)
        assert nan.any() and np.array_equal(np.isnan(got), nan), n
        assert np.array_equal(_bits(got[~nan]), _bits(expected[~nan])), n


@pytest.mark.parametrize("n", (5, LIMIT + 30))
def test_rejects_mismatched_weights_any_width(n):
    samples = np.zeros((4, n))
    with pytest.raises(ValueError):
        mad0_batch(samples, np.full(n - 1, 1 / (n - 1)))
    with pytest.raises(ValueError):
        mad0_batch(samples, np.full((2, n + 1), 1 / (n + 1)))


def test_rejects_one_dimensional_samples():
    with pytest.raises(ValueError):
        mad0_batch(np.zeros(5), np.full(5, 0.2))


# --- Per-thread scratch -----------------------------------------------------


def _on_new_thread(fn, *args):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def _calls():
    """(samples, weights) pairs that grow, shrink and regrow the scratch."""
    rng = np.random.default_rng(30)
    out = []
    for n, rows, stacked in ((10, 40000, False), (3, 7, True), (101, 300, True),
                             (5, 40000, False), (10, 40000, True), (2, 1, False),
                             (LIMIT, 2 * _block_rows(LIMIT) + 1, True)):
        stack = np.stack([median_weights(n, kind) for kind in ALL_KINDS])
        out.append((rng.standard_normal((rows, n)), stack if stacked else stack[1]))
    return out


def test_reused_scratch_gives_fresh_thread_results():
    calls = _calls()
    warm = _on_new_thread(lambda: [mad0_batch(x, w) for x, w in calls])
    for (x, w), got in zip(calls, warm):
        assert np.array_equal(_bits(got), _bits(_on_new_thread(mad0_batch, x, w))), x.shape
        stack = np.atleast_2d(w)
        expected = np.stack([_mad0_np_sort(x, wk) for wk in stack])
        assert np.array_equal(_bits(np.atleast_2d(got)), _bits(expected)), x.shape


def test_concurrent_threads_keep_their_own_scratch():
    # More threads than cores and a short switch interval, so calls of
    # different widths interleave; a shared buffer would mix their rows.
    calls = [call for call in _calls() if len(call[0]) > 1000]
    expected = [mad0_batch(x, w) for x, w in calls]
    start = threading.Barrier(len(calls))

    def repeat(call):
        start.wait(timeout=60)
        return [mad0_batch(*call) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            results = list(pool.map(repeat, calls, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(expected, results):
        for mads in got:
            assert np.array_equal(_bits(mads), _bits(want))


def test_result_never_aliases_scratch():
    def two_calls():
        x, w = _calls()[0]
        first = mad0_batch(x, w)
        second = mad0_batch(x, w)
        return first, second, _kernel.thread_scratch("kernel", 0)

    first, second, scratch = _on_new_thread(two_calls)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, scratch)
    assert not np.shares_memory(second, scratch)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("n", (5, 10))
def test_warm_call_allocates_less_than_one_block(n):
    # A chunk-sized call on a thread that has made one before reuses its
    # scratch: what it still allocates (the result, per-block medians) is
    # well under one block buffer.
    samples = np.random.default_rng(31).standard_normal((16384, n))
    weights = median_weights(n, HD)

    def warm_peak():
        mad0_batch(samples, weights)
        tracemalloc.start()
        try:
            mad0_batch(samples, weights)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert _on_new_thread(warm_peak) < _kernel._BLOCK_VALUES * 8
