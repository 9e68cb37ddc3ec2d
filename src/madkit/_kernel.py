"""The batch MAD kernel of the Monte-Carlo harness.

One NumPy implementation: sort every row, take the weighted median as a
weighted sum with the estimator's weights, clamp it to the row's range,
then repeat on the sorted absolute deviations.  Its per-width throughput
is measured by ``perfbench/run.py --trace 1`` (the ``_kernel.sweep_n*``
metrics).

``_weighted_median`` is madkit's only clamped weighted sum: every estimate
in ``madkit.quantiles`` (``median``, ``hd_quantile``, ``thd_quantile``,
``hf7_quantile`` at p = 0.5) is it on the sorted sample as one row, as a
one-row ``mad.mad_uncorrected`` call is, so the studies, ``madkit mad``
and the public estimators move together when the sum changes.

The weighted sums are ``np.einsum`` (default ``optimize=False``), not
``@``: einsum runs NumPy's own loop and never calls BLAS.  OpenBLAS
threads its matrix-vector product on wide rows, and its idle workers
spin-wait on the CPUs the study's pool threads need.

Sorting.  ``np.sort(axis=1)`` pays a per-row call into its sort loop, which
dominates on rows of a few values.  Rows of 2 to ``_NETWORK_MAX_WIDTH``
values are therefore sorted by a comparator network: the block is copied
transposed into an ``(n + 1, rows)`` buffer, so wire ``i`` is one
contiguous buffer row, and each comparator ``(i, j)`` is one
``np.minimum`` and one ``np.maximum`` over whole rows with ``out=``.  The
minimum goes to the spare buffer row, which then becomes wire ``i``, so no
comparator allocates.  The comparator list is Batcher's odd-even merge
sort (Batcher 1968; Knuth, TAOCP vol. 3, 5.3.4), generated for any ``n``
and cached per ``n`` on first use.  Wider rows keep ``np.sort``.

Bitwise contract.  ``_sort_rows`` returns the values of ``np.sort(a,
axis=1)``: a sort is a permutation, so only the order of equal values can
differ, which for floats means ``-0.0`` against ``+0.0``.  ``np.minimum``
and ``np.maximum`` propagate NaN, and every wire of a sorting network
has a path to its first output (the row's minimum can start anywhere), so
a row holding NaN shows NaN there; such rows are re-sorted by ``np.sort``,
which puts NaN last.  Everything after the sort is the same elementwise
arithmetic and the same einsum per row as before, so every MAD is
bit-for-bit the value of sorting with ``np.sort`` (the sign of a zero
median does not reach ``|x - med|``).

Blocks.  ``mad0_batch`` walks the rows in blocks of about
``_BLOCK_VALUES`` values, so a block's sort, deviations and second sort
stay in cache.  ``weights`` may stack ``k`` estimators' vectors as a
``(k, n)`` array: the first sort of each block is then shared by all of
them.

Scratch.  The sorted block, its deviations and the network's buffer are
views of one float64 array per thread (``thread_scratch``), kept between
calls, grown when a call needs more and never shrunk.  A study calls the
kernel once per chunk; blocks of a few MB allocated per call are returned
to the OS when the call ends (glibc maps them), and the next call faults
the same pages in again.  The returned array is always a fresh
allocation, never a view of the scratch.  A study's worker threads live
for the whole study, so each keeps its scratch from one cell to the next
and takes it with it when the study ends; the calling thread releases its
own scratch when the study ends, as a one-row ``mad.mad_uncorrected`` call
does when it returns.
"""
from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

__all__ = ["mad0_batch"]

# Widest row sorted by the comparator network; wider rows use np.sort.
# Measured as mad0_batch rows per second, network against np.sort, both
# blocked, on a 2-vCPU AVX-512 Xeon: the network is 1.3-3x ahead up to
# n = 7, level at n = 8 and 9, and 3-6 % behind at n = 10 (32 comparators)
# and 14-21 % behind at n = 11 and 12.
_NETWORK_MAX_WIDTH = 9

# Values per block of rows: 1 MiB of float64 per block.  Smaller blocks
# fit the caches better but make more, shorter NumPy calls, which two study
# threads then contend for the interpreter lock to make.  On a kernel mix
# like calibrate's, blocks of 2**16 to 2**19 values ran alike and 2**14
# was slowest, worst with two threads.  A thread's scratch holds two blocks
# (sorted rows and deviations) plus, for network widths, the ``(n + 1,
# rows)`` network buffer: about 3.3 MB at most (n = 7 to 9), 2.1 MB for
# wide rows up to n = 2**17.
_BLOCK_VALUES = 1 << 17

_scratch = threading.local()


def thread_scratch(slot: str, size: int) -> np.ndarray:
    """This thread's flat float64 scratch array ``slot``, at least ``size`` long.

    The array is kept for the thread's next call with the same ``slot``,
    grown when a call needs more and never shrunk; what it holds is only
    valid until that next call.
    """
    values = getattr(_scratch, slot, None)
    if values is None or values.size < size:
        values = np.empty(size)
        setattr(_scratch, slot, values)
    return values


def release_thread_scratch() -> None:
    """Drop this thread's scratch arrays; the next call allocates afresh."""
    _scratch.__dict__.clear()


def _batcher_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort on ``n`` wires, as (low, high) pairs.

    The network for the next power of two with every comparator that
    touches a wire >= n dropped: those wires act as +inf and never move.
    """
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


@lru_cache(maxsize=None)  # one plan per width up to _NETWORK_MAX_WIDTH
def _network_plan(n: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """Buffer rows for each comparator, and the buffer row of each wire at the end.

    A step ``(a, b, lo)`` writes ``min(buf[a], buf[b])`` to ``buf[lo]`` and
    ``max(buf[a], buf[b])`` to ``buf[b]``; row ``a`` is then the spare.
    """
    where = list(range(n))
    spare = n
    steps = []
    for i, j in _batcher_pairs(n):
        a, b = where[i], where[j]
        steps.append((a, b, spare))
        where[i], spare = spare, a
    return tuple(steps), tuple(where)


def _sort_rows(a: np.ndarray, out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """``np.sort(a, axis=1)`` for a float64 ``(rows, n)`` array.

    ``out`` (C-contiguous, same shape, may be ``a``) receives the result;
    ``work`` is a flat float64 scratch array of at least ``(n + 1) * rows``
    values for the network.  Either is allocated when not given.
    """
    rows, n = a.shape
    if out is None:
        out = np.empty(a.shape)
    if not 2 <= n <= _NETWORK_MAX_WIDTH:
        if out is not a:
            np.copyto(out, a)
        out.sort(axis=1)
        return out
    steps, where = _network_plan(n)
    if work is None:
        work = np.empty((n + 1) * rows)
    buf = work[: (n + 1) * rows].reshape(n + 1, rows)
    np.copyto(buf[:n], a.T)
    for lo_in, hi, lo in steps:
        np.minimum(buf[lo_in], buf[hi], out=buf[lo])
        np.maximum(buf[lo_in], buf[hi], out=buf[hi])
    nan = np.isnan(buf[where[0]])
    has_nan = nan.any()
    if has_nan:  # read before ``out``, which may be ``a``, is written
        resorted = np.sort(a[nan], axis=1)
    cols = out.T
    for k, row in enumerate(where):
        np.copyto(cols[k], buf[row])
    if has_nan:
        out[nan] = resorted
    return out


def _weighted_median(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum(weights * row) per sorted row of ``rows``, clamped to [row[0], row[-1]]."""
    # Non-negative weights summing to 1 put the exact sum inside the row's
    # range; rounding can step past it, and a constant row must have a MAD
    # of exactly 0.
    med = np.einsum("ij,j->i", rows, weights)
    return np.clip(med, rows[:, 0], rows[:, -1], out=med)


def mad0_batch(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Raw MAD per row of ``samples``, median as sum(weights * sorted row).

    ``weights`` of shape ``(n,)`` give a ``(rows,)`` result; a stack of
    shape ``(k, n)`` gives ``(k, rows)``, row ``k`` equal to the call with
    ``weights[k]`` alone.
    """
    x = np.asarray(samples, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"samples must be a 2-D (rows, n) array, got shape {x.shape}")
    rows, n = x.shape
    stack = w.reshape(1, -1) if w.ndim == 1 else w
    if stack.ndim != 2 or stack.shape[1] != n:
        raise ValueError(f"weights of shape {w.shape} do not match rows of width {n}")
    mads = np.empty((len(stack), rows))
    step = max(1, min(rows, _BLOCK_VALUES // max(n, 1)))
    size = step * n
    network = 2 <= n <= _NETWORK_MAX_WIDTH  # wide rows never touch ``work``
    scratch = thread_scratch("kernel", 2 * size + ((n + 1) * step if network else 0))
    xs = scratch[:size].reshape(step, n)
    dev = scratch[size:2 * size].reshape(step, n)
    work = scratch[2 * size:] if network else None
    for start in range(0, rows, step):
        block = x[start:start + step]
        count = len(block)
        xs_b = _sort_rows(block, xs[:count], work)
        dev_b = dev[:count]
        for k, wk in enumerate(stack):
            np.subtract(xs_b, _weighted_median(xs_b, wk)[:, None], out=dev_b)
            np.abs(dev_b, out=dev_b)
            _sort_rows(dev_b, dev_b, work)
            mads[k, start:start + count] = _weighted_median(dev_b, wk)
    return mads[0] if w.ndim == 1 else mads
