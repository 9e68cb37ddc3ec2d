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

Weighted sums.  ``_weighted_median`` takes the sorted rows by column,
``rows.T`` of a ``(rows, n)`` array or the wire path's sorted buffer rows.
A row of up to ``_NARROW_MAX_WIDTH`` = 12 values sums left to right,
``((w0*x0 + w1*x1) + w2*x2) + ...``, one column at a time: each term and
each partial sum is rounded as in a plain loop over the row, so the bits
do not depend on how a library groups the terms.  Wider rows take
``np.einsum`` (default ``optimize=False``), not ``@``: einsum runs NumPy's
own loop and never calls BLAS.  OpenBLAS threads its matrix-vector product
on wide rows, and its idle workers spin-wait on the CPUs the study's pool
threads need.

Sorting.  ``np.sort(axis=1)`` pays a per-row call into its sort loop,
which dominates on rows of a few values.  In a call of more than one row,
rows of 2 to ``_NARROW_MAX_WIDTH`` values therefore take the wire path,
where a block stays in an ``(n + 1, rows)`` buffer from its one transposed
copy to its last sum: wire ``i`` is one contiguous buffer row, and each
comparator ``(i, j)`` is one ``np.minimum`` and one ``np.maximum`` over
whole rows with ``out=``.  The minimum goes to the spare buffer row, which
then becomes wire ``i``, so no comparator allocates, and the plan records
the buffer row each sorted wire ends on.  The sort is Batcher's odd-even
merge sort (Batcher 1968; Knuth, TAOCP vol. 3, 5.3.4).  The deviations
``|x - med|`` of a sorted row fall, then rise: ``med`` lies in the row's
range, and the rounded ``|x - med|`` is monotone in ``x`` on each side of
it.  One ``np.subtract`` and one ``np.abs`` over all ``n + 1`` buffer rows
write them to a second buffer in the same layout; the spare row there
holds the deviation of a stale copy of one of the row's values, so it
warns only where a real value does.  Batcher's bitonic merger, which sorts
such a sequence, then orders them from that layout: padded to the next
power of two, with the comparators that touch a pad wire dropped, it takes
15 comparators at n = 10 where the sort takes 32.  Both plans are
generated for any ``n`` and cached per ``n`` on first use.  Wider rows,
a call of one row and the wire path's NaN rows take ``_mad_np_sort``:
copy the block to a buffer, ``np.sort`` its rows, then both medians per
weight vector, the deviations sorted in a second buffer.

Bitwise contract.  The networks give the values of ``np.sort``: a sort is
a permutation, so only the order of equal values can differ, which for
floats means ``-0.0`` against ``+0.0`` (never among the deviations).
``np.minimum`` and ``np.maximum`` propagate NaN to both outputs, and every
wire of a sorting network has a path to its first output (the row's
minimum can start anywhere), so a row holding NaN shows NaN there.  Its
MAD is NaN either way; it is recomputed on ``np.sort`` rows, which put NaN
last, so it has the NaN and raises the warnings of the ``np.sort`` kernel.
A wire NaN never reaches holds the value ``np.sort`` puts there, so the
wire path's sums on such a row make no product the ``np.sort`` path does
not.  Everything after the sort is the same elementwise arithmetic and
the same weighted sum per row whichever sort ran, so every MAD is
bit-for-bit the value of sorting with ``np.sort`` (the sign of a zero
median does not reach ``|x - med|``).

Blocks.  ``mad0_batch`` walks the rows in blocks of about
``_BLOCK_VALUES`` values, so a block's wires and deviations stay in
cache.  ``weights`` may stack ``k`` estimators' vectors as a ``(k, n)``
array: the first sort of each block is then shared by all of them.

Scratch.  In a call of more than one row, a block's two buffers (wire
buffers, or sorted rows and their deviations) are views of one float64
array per thread (``thread_scratch``), grown when a call needs more and
never shrunk: blocks of a few MB allocated per call were returned to the
OS (glibc maps them) and faulted in again by the next call.  A one-row
call's two buffers share one fresh array.  The result is a fresh array
or the caller's ``out``, never scratch.
Only the kernel and ``simulate._run_cells`` use it.  ``_run_cells``
keeps one kernel block of samples there, ``_BLOCK_VALUES // n`` rows (at
least one), which it fills from the chunk's generator before each
kernel call, so a study worker holds three blocks of scratch whatever the
chunk size.  A study's chunks run on its pool's workers, so its scratch
ends with them and the calling thread holds none.
"""
from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

__all__ = ["mad0_batch"]

# Widest row on the wire path, sorted by the networks and summed left to
# right; wider rows take np.sort and einsum.  The sum fixes it: past 12
# values the left-to-right order would change the bits einsum gives.  On a
# (16384, n) chunk, best of 5, two runs on a 2-vCPU AVX-512 Xeon, the wire
# path took 0.41-0.74x the time of the kernel it replaced (row-form network
# up to n = 9, np.sort above) with three stacked weight vectors and
# 0.48-0.62x with one; at n = 12 it took 0.51-0.62x that of np.sort.
_NARROW_MAX_WIDTH = 12

# Values per block of rows: 1 MiB of float64 per block.  Smaller blocks
# fit the caches better but make more, shorter NumPy calls, which two study
# threads then contend for the interpreter lock to make.  Measured on the
# wire kernel (2-vCPU AVX-512 Xeon, 15 alternated rounds): calibrate's
# (16384, n) chunks at n = 2, 3, 5, 10, three stacked weight vectors, took
# 28, 28, 26 and 27 ms per 16 calls on one thread at 2**16 to 2**19, and
# 60, 51, 45 and 44 ms per 2 x 16 calls on two threads.  The two-thread
# gain of 2**18 comes from n = 10 and 12 (57 -> 41 and 70 -> 50 ms per
# 2 x 8 calls), where a chunk is then one block, not two.  It did not reach
# perfbench's calibrate (cycle 1.83 and 1.73 s at 2**17 against 1.95 and
# 1.79 s at 2**18, two alternated pairs), and 2**18 doubles the scratch of
# wide rows (sensitivity's peak RSS, one run each: 116 against 111 MB).
# A thread's kernel scratch holds two blocks: for wide rows the sorted rows
# and their deviations (2.1 MB), for rows of 2 to 12 values two ``(n + 1,
# rows)`` wire buffers ((n + 1) / n times that: 3.1 MB at n = 2).  A study
# draws each chunk and passes it to the kernel one block at a time
# (``simulate._run_cells``), so a study worker's samples are a third block;
# the samplers in ``madkit.distributions`` fill their output in pieces of
# this size, so a draw's temporaries are one piece long.
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


def _bitonic_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's bitonic merger on ``n`` wires, as (low, high) pairs.

    The merger for the next power of two with every comparator that
    touches a wire >= n dropped: those wires act as +inf, which keeps a
    V-shaped input V-shaped, and never move.
    """
    pairs = []
    k = 1 << ((n - 1).bit_length() - 1)  # half the next power of two
    while k >= 1:
        pairs.extend((i, i + k) for i in range(n - k) if not i & k)
        k //= 2
    return tuple(pairs)


def _schedule(pairs, where, spare):
    """Buffer-row steps for the comparators ``pairs`` on wires held at rows ``where``.

    A step ``(a, b, lo)`` writes ``min(buf[a], buf[b])`` to ``buf[lo]`` and
    ``max(buf[a], buf[b])`` to ``buf[b]``; row ``a`` is then the spare.
    Returns the steps, the buffer row of each wire at the end, and the
    spare row at the end.
    """
    where = list(where)
    steps = []
    for i, j in pairs:
        a, b = where[i], where[j]
        steps.append((a, b, spare))
        where[i], spare = spare, a
    return tuple(steps), tuple(where), spare


@lru_cache(maxsize=None)  # one plan per width up to _NARROW_MAX_WIDTH
def _plan(n: int):
    """The wire path's steps on ``n + 1`` buffer rows: ``(sort, where, merge, merged)``.

    ``sort`` is Batcher's odd-even merge sort from wire ``i`` at row ``i``
    (row ``n`` spare); it leaves sorted wire ``i`` at row ``where[i]``.
    ``merge`` is the bitonic merger from that layout; it leaves sorted wire
    ``i`` at row ``merged[i]``.
    """
    sort, where, spare = _schedule(_batcher_pairs(n), range(n), n)
    merge, merged, _ = _schedule(_bitonic_pairs(n), where, spare)
    return sort, where, merge, merged


def _run(wires: list, steps) -> None:
    """Apply the comparator ``steps`` in place to the buffer rows ``wires``."""
    for a, b, lo in steps:
        np.minimum(wires[a], wires[b], out=wires[lo])
        np.maximum(wires[a], wires[b], out=wires[b])


def _weighted_median(cols, weights: np.ndarray) -> np.ndarray:
    """sum(weights * row) per sorted row, clamped to [row[0], row[-1]].

    ``cols`` holds the rows by column: a sequence of ``n`` equal-length
    arrays, entry ``j`` holding value ``j`` of every row, such as ``rows.T``
    of a ``(rows, n)`` array or the wire path's sorted buffer rows.  Up to
    ``_NARROW_MAX_WIDTH`` columns sum left to right, ``((w0*x0 + w1*x1) +
    w2*x2) + ...``; more take einsum's sum.
    """
    if len(cols) <= _NARROW_MAX_WIDTH:
        w = weights.tolist()
        med = cols[0] * w[0]
        term = np.empty_like(med)
        for col, wj in zip(cols[1:], w[1:]):
            med += np.multiply(col, wj, out=term)
    else:
        med = np.einsum("ij,j->i", cols.T, weights)
    # Non-negative weights summing to 1 put the exact sum inside the row's
    # range; rounding can step past it, and a constant row must have a MAD
    # of exactly 0.  A maximum then a minimum give the bits of np.clip,
    # signed zeros and NaN payloads included, in half its time (16384 rows:
    # 11 against 23 us on a 2-vCPU AVX-512 Xeon).
    np.maximum(med, cols[0], out=med)
    return np.minimum(med, cols[-1], out=med)


def _mad_np_sort(block: np.ndarray, stack: np.ndarray, out: np.ndarray,
                 xs: np.ndarray, dev: np.ndarray) -> None:
    """MADs of the ``(rows, n)`` ``block`` into ``out[k]``, sorted by ``np.sort``.

    ``xs`` and ``dev``, of the block's shape, take its sorted rows and
    their sorted deviations.
    """
    np.copyto(xs, block)
    xs.sort(axis=1)
    for k, wk in enumerate(stack):
        np.subtract(xs, _weighted_median(xs.T, wk)[:, None], out=dev)
        np.abs(dev, out=dev)
        dev.sort(axis=1)
        out[k] = _weighted_median(dev.T, wk)


def _mad_wires(block: np.ndarray, stack: np.ndarray, out: np.ndarray,
               buf: np.ndarray, dbuf: np.ndarray) -> None:
    """MADs of the ``(rows, n)`` ``block`` into ``out[k]``, on ``(n + 1, rows)`` wire buffers."""
    sort, where, merge, merged = _plan(block.shape[1])
    np.copyto(buf[:-1], block.T)
    wires, devs = list(buf), list(dbuf)
    _run(wires, sort)
    sorted_wires = [wires[r] for r in where]
    sorted_devs = [devs[r] for r in merged]
    for k, wk in enumerate(stack):
        # The spare row is a stale copy of one of the row's values.
        np.subtract(buf, _weighted_median(sorted_wires, wk), out=dbuf)
        np.abs(dbuf, out=dbuf)
        _run(devs, merge)
        out[k] = _weighted_median(sorted_devs, wk)
    nan = np.isnan(wires[where[0]])  # NaN reaches the first wire
    if nan.any():
        bad = block[nan]
        mads = np.empty((len(stack), len(bad)))
        _mad_np_sort(bad, stack, mads, *np.empty((2, *bad.shape)))
        out[:, nan] = mads


def mad0_batch(samples: np.ndarray, weights: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Raw MAD per row of ``samples``, median as sum(weights * sorted row).

    ``weights`` of shape ``(n,)`` give a ``(rows,)`` result; a stack of
    shape ``(k, n)`` gives ``(k, rows)``, row ``k`` equal to the call with
    ``weights[k]`` alone.  ``out``, a float64 array of the result's shape
    (a view such as a study's columns ``mads[:, start:stop]``), receives
    the MADs and is returned.
    """
    x = np.asarray(samples, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"samples must be a 2-D (rows, n) array, got shape {x.shape}")
    rows, n = x.shape
    stack = w.reshape(1, -1) if w.ndim == 1 else w
    if stack.ndim != 2 or stack.shape[1] != n:
        raise ValueError(f"weights of shape {w.shape} do not match rows of width {n}")
    result = (rows,) if w.ndim == 1 else (len(stack), rows)
    if out is None:
        out = np.empty(result)
    elif out.shape != result or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {result}, "
                         f"got {out.dtype} {out.shape}")
    mads = out.reshape(len(stack), rows)
    step = max(1, min(rows, _BLOCK_VALUES // max(n, 1)))
    wired = rows > 1 and 2 <= n <= _NARROW_MAX_WIDTH
    shape = (n + 1, step) if wired else (step, n)
    size = shape[0] * shape[1]
    # A call takes at least two full blocks, so a study thread allocates its
    # scratch once for every width it meets: freeing a smaller array to grow
    # it raises glibc's dynamic mmap threshold, and the thread's later
    # temporaries then stay in its heap (sensitivity, n = 5 then 30: 3 MB
    # more peak RSS).  A ``madkit mad`` call keeps none; two arrays in place
    # of its one took about 1.35x the time on one row of 1e5 values (best
    # of 7, 2-vCPU Xeon).
    scratch = (thread_scratch("kernel", max(2 * size, 2 * _BLOCK_VALUES)) if rows > 1
               else np.empty(2 * size))
    first = scratch[:size].reshape(shape)
    second = scratch[size:2 * size].reshape(shape)
    for start in range(0, rows, step):
        block = x[start:start + step]
        count = len(block)
        part = mads[:, start:start + count]
        if wired:
            _mad_wires(block, stack, part, first[:, :count], second[:, :count])
        else:
            _mad_np_sort(block, stack, part, first[:count], second[:count])
    return out
