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
from madkit._kernel import _NARROW_MAX_WIDTH, _block_rows, _plan, _run, mad0_batch
from madkit.mad import mad_uncorrected
from madkit.quantiles import HD, SM, THD_SQRT, median_weights, thd

ALL_KINDS = (SM, HD, THD_SQRT)


NARROW = 12  # widest row whose weighted sum runs left to right


def _narrow_sum(v, w):
    """((w0*v0 + w1*v1) + w2*v2) + ..., in Python floats."""
    total = float(w[0]) * float(v[0])
    for wj, vj in zip(w[1:].tolist(), v[1:].tolist()):
        total += wj * vj
    return total


def _median_reference(v, w):
    """sum(w * v) for one sorted row ``v``, clamped to [v[0], v[-1]].

    Left to right in Python floats for up to 12 values, einsum above.
    """
    total = _narrow_sum(v, w) if v.size <= NARROW else float(np.einsum("i,i->", w, v))
    return min(max(total, float(v[0])), float(v[-1]))


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
        if n <= NARROW + 1:
            # In a call of several rows, rows of 2 to 12 values take the
            # wire path; alone, a row takes np.sort.  Both give its bits.
            with np.errstate(over="ignore", invalid="ignore"):
                batch = mad0_batch(np.stack(rows), median_weights(n, kind))
            alone = [mad_uncorrected(row, kind) for row in rows]
            assert _bits(batch).tolist() == _bits(np.array(alone)).tolist(), n


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_narrow_weighted_median_is_the_left_to_right_sum(kind):
    rng = np.random.default_rng(13)
    for n in range(1, NARROW + 1):
        w = median_weights(n, kind)
        for scale in (1.0, 1e300, 1e-300):
            rows = np.sort(rng.standard_normal((200, n)), axis=1) * scale
            got = _kernel._weighted_median(rows.T, w)
            want = [min(max(_narrow_sum(v, w), v[0]), v[-1]) for v in rows]
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want], (n, scale)


@pytest.mark.parametrize("rows", (1, 2, 3, 7, 8, 15, 16, 17, 63, 64, 255, 4097, 16387))
def test_clamp_has_the_bits_of_np_clip(rows):
    # _weighted_median clamps with np.maximum, then np.minimum: on the
    # installed NumPy that gives the bits of np.clip, signed zeros and NaN
    # payloads included.
    rng = np.random.default_rng(rows)
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000002, 0x7FF800000000BEEF],
                    dtype=np.uint64).view(np.float64)
    values = np.concatenate([[0.0, -0.0, 1.0, -1.0], nans])
    med, lo, hi = values[rng.integers(0, len(values), (3, rows))]
    clamped = np.maximum(med, lo)
    np.minimum(clamped, hi, out=clamped)
    assert np.array_equal(clamped.view(np.uint64), np.clip(med, lo, hi).view(np.uint64))
    for w in ([0.0, 1.0, 0.0], [0.25, 0.5, 0.25]):
        got = _kernel._weighted_median([lo, med, hi], np.array(w))
        total = lo * w[0]
        total += med * w[1]
        total += hi * w[2]
        want = np.clip(total, lo, hi)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), w


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

LIMIT = _NARROW_MAX_WIDTH  # widest row on the wire path


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _row_sums(rows, weights):
    """Per-row sum(weights * row): left to right up to 12 values, einsum above."""
    if rows.shape[1] > NARROW:
        return np.einsum("ij,j->i", rows, weights)
    total = rows[:, 0] * weights[0]
    for j in range(1, rows.shape[1]):
        total = total + rows[:, j] * weights[j]
    return total


def _mad0_np_sort(samples, weights):
    """The kernel as formulated on np.sort, before the networks and blocks."""
    xs = np.sort(np.asarray(samples, dtype=np.float64), axis=1)
    med = np.clip(_row_sums(xs, weights), xs[:, 0], xs[:, -1])
    dev = np.abs(xs - med[:, None])
    dev.sort(axis=1)
    return np.clip(_row_sums(dev, weights), dev[:, 0], dev[:, -1])


def _network_sort(a):
    """np.sort(a, axis=1) by the first network, from wire i at buffer row i."""
    n = a.shape[1]
    sort, where, _, _ = _plan(n, tuple(range(n)))
    buf = np.full((a.shape[1] + 1, len(a)), np.nan)
    buf[:-1] = a.T
    _run(list(buf), sort)
    return buf[list(where)].T


def _merge(v_rows, needed=None):
    """The bitonic merger, pruned to the wires ``needed`` (all by default),
    run on rows held in the first network's final layout."""
    n = v_rows.shape[1]
    needed = tuple(range(n)) if needed is None else needed
    _, where, merge, merged = _plan(n, needed)
    buf = np.full((n + 1, len(v_rows)), np.nan)
    buf[list(where)] = v_rows.T
    _run(list(buf), merge)
    return buf[list(merged)].T


@pytest.mark.parametrize("n", range(2, LIMIT + 1))
def test_network_sort_is_np_sort(n):
    rng = np.random.default_rng(20 + n)
    for rows in (1, 7, _block_rows(n), _block_rows(n) + 1, 40000):
        a = rng.standard_normal((rows, n))
        assert np.array_equal(_bits(_network_sort(a)), _bits(np.sort(a, axis=1)))


@pytest.mark.parametrize("n", range(2, LIMIT + 1))
def test_network_sorts_every_binary_row(n):
    # 0-1 principle (Knuth, TAOCP vol. 3, 5.3.4): a comparator network sorts
    # every input iff it sorts all 2**n rows of zeros and ones.
    rows = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    assert np.array_equal(_network_sort(rows), np.sort(rows, axis=1))


@pytest.mark.parametrize("n", range(2, LIMIT + 1))
def test_merger_sorts_every_v_shaped_binary_row(n):
    # The deviations of a sorted row fall, then rise.  A monotone map keeps
    # that shape, so by the 0-1 principle the merger sorts every such row
    # iff it sorts every row 1..1 0..0 1..1; its dropped pad wires are the
    # 1s that would follow them up to the next power of two.
    rows = np.array([[1.0] * a + [0.0] * b + [1.0] * (n - a - b)
                     for a in range(n + 1) for b in range(n + 1 - a)])
    assert np.array_equal(_merge(rows), np.sort(rows, axis=1))


@pytest.mark.parametrize("n, comparators", ((2, 1), (3, 2), (5, 5), (8, 12), (10, 15), (12, 20)))
def test_merger_drops_the_pad_comparators(n, comparators):
    # Padded to the next power of two P, the merger has (P / 2) log2(P)
    # comparators before those touching a pad wire are dropped: 32 at n = 10.
    # A comparator is two steps, its minimum and its maximum.
    _, _, merge, _ = _plan(n, tuple(range(n)))
    assert len(merge) == 2 * comparators


@pytest.mark.parametrize("n", range(2, LIMIT + 1))
def test_pruned_merger_sorts_the_wires_it_keeps(n):
    # Pruned to any set of output wires, the merger gives those wires the
    # values of the full merger on every V-shaped binary row, so by the 0-1
    # principle on every V-shaped row.
    rows = np.array([[1.0] * a + [0.0] * b + [1.0] * (n - a - b)
                     for a in range(n + 1) for b in range(n + 1 - a)])
    want = np.sort(rows, axis=1)
    for size in (1, 2, 3, n):
        for needed in itertools.islice(itertools.combinations(range(n), size), 60):
            assert np.array_equal(_merge(rows, needed)[:, needed], want[:, needed]), needed


def test_pruned_merger_does_only_the_work_sm_reads():
    # At n = 10 sm reads sorted wires 4 and 5 and the clamp wires 0 and 9:
    # the last stage keeps (4, 5) whole and the low half of (0, 1) and high
    # half of (8, 9), the stage before it four low halves, and the first
    # two stages stay whole: 20 steps where the full merger takes 30.
    needed = (0, 4, 5, 9)
    _, _, merge, _ = _plan(10, needed)
    assert len(merge) == 20
    assert [op.__name__ for op, *_ in merge[-4:]] == ["minimum", "minimum", "maximum", "maximum"]


def test_network_leaves_nan_rows_sorted_but_for_nan():
    # NaN takes both outputs of a comparator it meets, so a wire it never
    # reaches carries the value np.sort puts there (NaN last), and the
    # wire path's sums on a NaN row make no product the np.sort path does not.
    rng = np.random.default_rng(26)
    for n in range(2, LIMIT + 1):
        a = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 2.0], (2000, n))
        got, want = _network_sort(a), np.sort(a, axis=1)
        kept = ~np.isnan(got)
        assert np.array_equal(np.isnan(got[:, 0]), np.isnan(a).any(axis=1)), n
        assert np.array_equal(got[kept], want[kept]), n


def test_nan_rows_have_the_np_sort_kernels_nan():
    # A MAD meets NaNs of two payloads in the order its sums take them;
    # np.sort fixes that order, the networks do not.
    nans = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(np.float64)
    rng = np.random.default_rng(27)
    for n in range(2, LIMIT + 1):
        samples = rng.standard_normal((500, n))
        for row in samples:
            row[rng.choice(n, 2, replace=False)] = nans
        weights = median_weights(n, HD)
        assert np.array_equal(_bits(mad0_batch(samples, weights)),
                              _bits(_mad0_np_sort(samples, weights))), n


@pytest.mark.parametrize("n", (3, 5, LIMIT))
def test_nan_rows_raise_no_warning_of_their_own(n):
    # Sorted, each row is 1, ..., 1, +inf, NaN, and +inf meets the one
    # nonzero weight; on a weight of 0 it would warn (inf * 0), and
    # RuntimeWarnings are errors in Tier-1.
    row = np.array([np.nan, np.inf] + [1.0] * (n - 2))
    samples = np.array([np.roll(row, s) for s in range(n)] + [np.arange(n, dtype=float)])
    weights = np.eye(n)[n - 2]
    got = mad0_batch(samples, weights)
    expected = _mad0_np_sort(samples, weights)
    assert np.isnan(got[:-1]).all() and np.isnan(expected[:-1]).all()
    assert np.array_equal(_bits(got[-1:]), _bits(expected[-1:]))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_bitwise_equal_to_np_sort_formulation(kind):
    rng = np.random.default_rng(22)
    for n in (*range(2, NARROW + 2), 30, 101):
        weights = median_weights(n, kind)
        block = _block_rows(n)
        for rows in (1, 7, block - 1, block, block + 1, 2 * block + 3):
            samples = rng.standard_normal((rows, n))
            got = mad0_batch(samples, weights)
            assert np.array_equal(_bits(got), _bits(_mad0_np_sort(samples, weights))), (n, rows)


@pytest.mark.parametrize("n", range(2, LIMIT + 2))
def test_tied_rows_bitwise_equal_to_np_sort_formulation(n):
    # Rows of small integers, zeros of either sign: many values and
    # deviations tie, and the networks order tied values as they like.
    rng = np.random.default_rng(27 + n)
    stack = np.stack([median_weights(n, kind) for kind in ALL_KINDS])
    block = _block_rows(n)
    for rows in (1, block - 1, block + 1, 2 * block + 3):
        samples = rng.integers(-3, 4, (rows, n)) * rng.choice([1.0, -1.0], (rows, n))
        want = np.stack([_mad0_np_sort(samples, wk) for wk in stack])
        assert np.array_equal(_bits(mad0_batch(samples, stack)), _bits(want)), rows
        assert np.array_equal(_bits(mad0_batch(samples, stack[1])), _bits(want[1])), rows


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


def test_default_vectors_repeat_at_n_2_and_4():
    # The repeats the kernel runs once in calibrate's and efficiency's cells.
    def distinct(n):
        return len({median_weights(n, kind).tobytes() for kind in ALL_KINDS})

    assert (distinct(2), distinct(4)) == (1, 2)
    assert all(distinct(n) == 3 for n in (3, *range(5, 21)))


@pytest.mark.parametrize("n", (4, 7, LIMIT, LIMIT + 1, 30))
def test_repeated_vectors_run_once_with_their_own_bits(n, monkeypatch):
    # Rows of 4 to 12 values take the wire path, wider ones np.sort; NaN
    # rows take np.sort from either.  A -0.0 weight where sm has 0.0 is a
    # vector of its own.
    sm, hd = median_weights(n, SM), median_weights(n, HD)
    signed = sm.copy()
    signed[sm == 0.0] = -0.0
    stack = np.stack([hd, sm, hd, signed, sm])
    rng = np.random.default_rng(28)
    samples = rng.standard_normal((2 * _block_rows(n) + 5, n))
    samples[::97, 1] = np.nan
    runs = []

    def spy(fn):
        def run(block, stack, *rest):
            runs.append(stack.copy())
            return fn(block, stack, *rest)
        return run

    monkeypatch.setattr(_kernel, "_mad_wires", spy(_kernel._mad_wires))
    monkeypatch.setattr(_kernel, "_mad_np_sort", spy(_kernel._mad_np_sort))
    got = mad0_batch(samples, stack)
    assert runs and all(np.array_equal(_bits(run), _bits(stack[[0, 1, 3]])) for run in runs)
    for k, wk in enumerate(stack):
        assert np.array_equal(_bits(got[k]), _bits(mad0_batch(samples, wk))), k
    assert np.isnan(got[:, ::97]).all()
    one = samples[:1]
    assert np.array_equal(_bits(mad0_batch(one, stack)[:, 0]),
                          _bits([mad0_batch(one, wk)[0] for wk in stack]))


@pytest.mark.parametrize("n", (1, 5, LIMIT + 1, 100))
def test_out_gets_the_values_of_a_fresh_call(n):
    # As a study passes it: the columns of a larger result, stale contents
    # included; the columns outside stay as they were.
    rng = np.random.default_rng(25)
    samples = rng.standard_normal((2 * _block_rows(n) + 5, n))
    stack = np.stack([median_weights(n, kind) for kind in ALL_KINDS])
    rows = len(samples)
    mads = np.full((len(stack), rows + 7), np.nan)
    cols = mads[:, 3:3 + rows]
    assert mad0_batch(samples, stack, out=cols) is cols
    assert np.array_equal(_bits(cols), _bits(mad0_batch(samples, stack)))
    assert np.isnan(mads[:, :3]).all() and np.isnan(mads[:, 3 + rows:]).all()
    one = np.full(rows, np.nan)
    assert mad0_batch(samples, stack[1], out=one) is one
    assert np.array_equal(_bits(one), _bits(cols[1]))


@pytest.mark.parametrize("out", [np.empty((3, 9)), np.empty(10), np.empty((3, 10), np.float32)],
                         ids=["shape", "flat", "dtype"])
def test_rejects_mismatched_out(out):
    stack = np.stack([median_weights(5, kind) for kind in ALL_KINDS])
    with pytest.raises(ValueError, match="out must be a float64 array of shape"):
        mad0_batch(np.zeros((10, 5)), stack, out=out)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_non_finite_and_signed_zero_rows_match_reference(kind):
    rng = np.random.default_rng(24)
    for n in (*range(2, LIMIT + 2), 30):
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


# Zeros of either sign, ties, a value 1 ulp above another, subnormals,
# values whose differences overflow, infinities and NaN.
ADVERSARIAL = np.array([0.0, -0.0, 1.0, 1.0 + 2**-52, -1.0, 1e-310, -1e-310, 1e300, -1e300,
                        1.7e308, -1.7e308, np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("n", range(2, LIMIT + 1))
def test_adversarial_rows_keep_every_bit(n):
    # The wire path sums only the nonzero weights and prunes the deviation
    # merger to the wires those and the clamp read, so its stacks put zeros
    # in different places: sm reads one or two wires, thd(0.1) and thd-sqrt
    # a few, hd all.  A row of non-finite range (or whose range overflows)
    # must take np.sort, where a skipped 0 * inf still gives NaN.  Each part
    # is its own call, so a block of only finite values meets the overflow.
    stack = np.stack([median_weights(n, kind) for kind in (SM, HD, THD_SQRT, thd(0.1), thd(0.5))])
    rng = np.random.default_rng(40 + n)
    finite = np.isfinite(ADVERSARIAL)
    parts = [ADVERSARIAL[rng.integers(0, len(ADVERSARIAL), (20000, n))],
             ADVERSARIAL[finite][rng.integers(0, finite.sum(), (5000, n))],
             ADVERSARIAL[rng.integers(0, 4, (5000, n))]]
    if n <= 8:
        parts.append(np.array(list(itertools.product((-1.0, 0.0, 1.0, 2.0), repeat=n))))
    for samples in parts:
        with np.errstate(over="ignore", invalid="ignore"):
            got = mad0_batch(samples, stack)
            want = np.stack([_mad0_np_sort(samples, wk) for wk in stack])
        assert np.array_equal(_bits(got), _bits(want)), len(samples)


@pytest.mark.parametrize("n", (*range(2, LIMIT + 2), 100))
def test_drawn_block_keeps_every_bit(n):
    # A study draws each block into the start of the kernel's second
    # buffer, which the deviations then overwrite: the kernel must read
    # the samples, the wire path's rows of non-finite range included,
    # before it writes there.  A full block, a study's last chunk of 1e6
    # reps (576 rows) and one row, of mixed and of finite adversarial values.
    stack = np.stack([median_weights(n, kind) for kind in (SM, HD, THD_SQRT, thd(0.1), thd(0.5))])
    rng = np.random.default_rng(70 + n)
    finite = ADVERSARIAL[np.isfinite(ADVERSARIAL)]

    def run():
        block = _kernel._sample_block(n)
        results = []
        for values in (ADVERSARIAL, finite):
            for rows in (len(block), 576, 1):
                view = block[:rows]
                view[:] = values[rng.integers(0, len(values), view.shape)]
                samples = view.copy()
                with np.errstate(over="ignore", invalid="ignore"):
                    got = mad0_batch(view, stack)
                    want = np.stack([_mad0_np_sort(samples, wk) for wk in stack])
                results.append((rows, got, want))
        return results

    for rows, got, want in _on_new_thread(run):
        assert np.array_equal(_bits(got), _bits(want)), rows


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


@pytest.mark.parametrize("shape", [(5, 0), (1, 0), (0, 0)])
def test_rejects_rows_of_no_values(shape):
    with pytest.raises(ValueError, match=rf"at least one value per row, got shape \({shape[0]}, 0\)"):
        mad0_batch(np.zeros(shape), np.empty(0))


def test_no_rows_give_an_empty_result():
    weights = median_weights(3, SM)
    assert mad0_batch(np.zeros((0, 3)), weights).shape == (0,)
    assert mad0_batch(np.zeros((0, 3)), np.stack([weights] * 2)).shape == (2, 0)


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


def test_scratch_starts_on_a_cache_line():
    # Misaligned output rows doubled the time of the deviation pass.
    def sizes():
        return [_kernel.thread_scratch(size).ctypes.data % 64
                for size in (1, 1000, 1 << 18, 1 << 20, 3 << 20)]

    assert _on_new_thread(sizes) == [0] * 5


@pytest.mark.parametrize("n", (2, 7, 8, LIMIT, LIMIT + 1, 100, 1000))
def test_sample_block_is_the_start_of_the_second_buffer(n):
    # A study's samples and the kernel's two block buffers are one scratch
    # array, laid out for a full block whatever a call's row count.
    def layout():
        block = _kernel._sample_block(n)
        mad0_batch(np.ones((3, n)), median_weights(n, SM))
        first, second = _kernel._block_buffers(n)
        return block, first, second, dict(vars(_kernel._scratch))

    block, first, second, held = _on_new_thread(layout)
    assert block.shape == (_block_rows(n), n) and block.flags.c_contiguous
    assert block.ctypes.data == second.ctypes.data and block.size <= second.size
    assert first.shape == second.shape
    assert first.shape == ((n + 1, _block_rows(n)) if n <= LIMIT else (_block_rows(n), n))
    assert held.keys() == {"values"}
    assert all(np.shares_memory(a, held["values"]) for a in (block, first, second))
    assert not np.shares_memory(first, second)


def test_result_never_aliases_scratch():
    def two_calls():
        x, w = _calls()[0]
        first = mad0_batch(x, w)
        second = mad0_batch(x, w)
        return first, second, _kernel.thread_scratch(0)

    first, second, scratch = _on_new_thread(two_calls)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, scratch)
    assert not np.shares_memory(second, scratch)
    assert np.array_equal(first, second)


def test_one_row_call_takes_no_scratch():
    def one_row_calls():
        for n in (2, 10, 13, 1000):
            x = np.random.default_rng(n).standard_normal((1, n))
            mad0_batch(x, median_weights(n, HD))
            mad0_batch(x, np.stack([median_weights(n, kind) for kind in ALL_KINDS]))
        return dict(vars(_kernel._scratch))

    assert _on_new_thread(one_row_calls) == {}


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
