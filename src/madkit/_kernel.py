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
15 comparators at n = 10 where the sort takes 32.  Only the merger's
outputs a weight vector reads are needed: the wires of its nonzero
weights and the two ends the clamp reads.  So the merger is pruned to
the comparators that feed those wires, and a comparator with one output
needed computes only that one, in place (Knuth, TAOCP vol. 3, 5.3.4, on
networks for selection): at n = 10, sm's merger takes 20 steps where the
whole one takes 30.  Both weighted sums add only the nonzero terms.  The
plans are generated for any ``n`` and cached per ``n`` and set of wires
read on first use.  Wider rows, a call of one row and the wire path's
rows of non-finite range take ``_mad_np_sort``: copy the block to a
buffer, ``np.sort`` its rows, then both medians per weight vector, the
deviations sorted in a second buffer, every term summed.

Bitwise contract.  The networks give the values of ``np.sort``: a sort is
a permutation, so only the order of equal values can differ, which for
floats means ``-0.0`` against ``+0.0`` (never among the deviations).  The
pruned merger applies the same comparators to every wire it keeps, so
those wires hold the values of the whole merger.  ``np.minimum`` and
``np.maximum`` propagate NaN to both outputs, and every wire of a sorting
network has a path to its first output (the row's minimum can start
anywhere), so a row holding NaN shows NaN there; a row holding +-inf and
no NaN has it at an end.  A row whose range ``x[-1] - x[0]`` is finite
has finite values and deviations (``med`` lies in the range), so a zero
weight's term is a zero, and skipping it changes at most the sign of a
zero partial sum.  That sign never reaches ``|x - med|``, and the sum of
the deviations' terms is ``+0.0`` whenever it is zero.  A row of
non-finite range (NaN, an infinity, or a range that overflows) could have
an ``inf * 0`` term, which is NaN; its MAD is recomputed on ``np.sort``
rows with every term, so it has the NaN and raises the warnings of the
``np.sort`` kernel.  The block's widest range bounds every row's, so a
block of finite rows pays two reductions for the check.  Everything
else after the sort is the same elementwise arithmetic whichever sort
ran, so every MAD is bit-for-bit the value of sorting with ``np.sort``.

Blocks.  ``mad0_batch`` walks the rows in blocks, so a block's wires and
deviations stay in cache: ``_block_rows(n)`` rows, which is
``_WIRE_ROWS`` (a study chunk) on the wire path and ``_BLOCK_VALUES //
n`` (at least one) on the ``np.sort`` path.  ``weights`` may stack ``k``
estimators' vectors as a ``(k, n)`` array: the first sort of each block
is then shared by all of them, and a vector the stack repeats is run
once and its MADs copied (at n = 2 the three default vectors are equal,
at n = 4 sm's and thd-sqrt's).

Scratch.  In a call of more than one row, a block's two buffers (wire
buffers, or sorted rows and their deviations) are views of one float64
array per thread (``thread_scratch``), grown when a call needs more and
never shrunk: blocks of a few MB allocated per call were returned to the
OS (glibc maps them) and faulted in again by the next call.  The array
starts on a 64-byte boundary, where NumPy's binary ufuncs write fastest.  A one-row
call's two buffers share one fresh array.  The result is a fresh array
or the caller's ``out``, never scratch.
Only the kernel and ``simulate._run_cells`` use it.  ``_run_cells``
keeps one kernel block of samples there, ``_block_rows(n)`` rows, which
it fills from the chunk's generator before each kernel call, so a study
worker holds three blocks of scratch, never a chunk of samples (at n <=
12 the block is the chunk, drawn once).  A study's chunks run on its
pool's workers, so its scratch ends with them and the calling thread
holds none.
"""
from __future__ import annotations

import math
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

# Values per block of rows on the np.sort path: 1 MiB of float64 per
# block.  Smaller blocks fit the caches better but make more, shorter NumPy
# calls, which two study threads then contend for the interpreter lock to
# make; 2**18 doubled the scratch of wide rows (sensitivity's peak RSS, one
# run each: 116 against 111 MB).  A thread's kernel scratch holds two
# blocks, and at least two of these: for wide rows the sorted rows and
# their deviations (2.1 MB), for rows of 2 to 12 values two ``(n + 1,
# _WIRE_ROWS)`` wire buffers (up to 3.4 MB at n = 12).  A study draws each
# chunk and passes it to the kernel one block at a time
# (``simulate._run_cells``), so a study worker's samples are a third block;
# the samplers in ``madkit.distributions`` fill their output in pieces of
# this size, so a draw's temporaries are one piece long.
_BLOCK_VALUES = 1 << 17

# Rows per block on the wire path: a study chunk (``simulate._CHUNK_ROWS``),
# so a study runs a chunk of 2 to 12 values per row in one kernel call.  In
# blocks of ``_BLOCK_VALUES`` values a chunk at n = 10 was two calls, of
# 13107 and 3277 rows, and the second paid the same ~285 NumPy calls on a
# quarter of the rows.  A wire buffer is then at most 13 x 16384 floats
# (1.7 MB).
_WIRE_ROWS = 1 << 14

_scratch = threading.local()


def thread_scratch(slot: str, size: int) -> np.ndarray:
    """This thread's flat float64 scratch array ``slot``, at least ``size`` long.

    The array is kept for the thread's next call with the same ``slot``,
    grown when a call needs more and never shrunk; what it holds is only
    valid until that next call.  It starts on a 64-byte boundary, so the
    wire buffers' rows (16384 floats apart) do too.  ``np.empty`` of a few
    MB starts 16 bytes past one (glibc's mmap header), where NumPy's
    AVX-512 loop for ``np.subtract`` into a 16384-float row took about
    twice as long; on that scratch the narrow kernel took 1.1-1.2x the
    time of this one on a 16384-row chunk (n = 2 to 12, three stacked
    vectors, best of 40 alternated calls, 2-vCPU AVX-512 Xeon).
    """
    values = getattr(_scratch, slot, None)
    if values is None or values.size < size:
        values = np.empty(size + 7)
        start = -values.ctypes.data % 64 // 8
        values = values[start:start + size]
        setattr(_scratch, slot, values)
    return values


def _block_rows(n: int) -> int:
    """Rows per kernel block of width ``n``: ``_WIRE_ROWS`` on the wire path,
    else ``_BLOCK_VALUES // n`` (at least one)."""
    if 2 <= n <= _NARROW_MAX_WIDTH:
        return _WIRE_ROWS
    return max(1, _BLOCK_VALUES // max(n, 1))


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


def _schedule(pairs, where, spare, needed):
    """Buffer-row steps for the comparators ``pairs`` that feed the wires ``needed``.

    The wires start at buffer rows ``where``.  A comparator is kept if
    one of its outputs reaches a needed wire, and computes only the
    outputs that do; a step ``(op, a, b, c)`` writes ``op(buf[a],
    buf[b])`` to ``buf[c]``.  A whole comparator writes its minimum to
    the spare row, which then holds wire ``i``, and its maximum in place;
    a half one writes its output in place.  Returns the steps, the buffer
    row of each wire at the end, and the spare row at the end.
    """
    live = set(needed)
    kept = []
    for i, j in reversed(pairs):
        if i in live or j in live:
            kept.append((i, j, i in live, j in live))
            live.update((i, j))
    where = list(where)
    steps = []
    for i, j, low, high in reversed(kept):
        a, b = where[i], where[j]
        if low and high:
            steps += [(np.minimum, a, b, spare), (np.maximum, a, b, b)]
            where[i], spare = spare, a
        elif low:
            steps.append((np.minimum, a, b, a))
        else:
            steps.append((np.maximum, a, b, b))
    return tuple(steps), tuple(where), spare


# One plan per width and set of wires read: a weight vector's nonzero
# positions and the two ends, so a few per width.
@lru_cache(maxsize=None)
def _plan(n: int, needed: tuple[int, ...]):
    """The wire path's steps on ``n + 1`` buffer rows: ``(sort, where, merge, merged)``.

    ``sort`` is Batcher's odd-even merge sort from wire ``i`` at row ``i``
    (row ``n`` spare); it leaves sorted wire ``i`` at row ``where[i]``.
    ``merge`` is the bitonic merger from that layout, pruned to the
    comparators that feed the sorted wires ``needed``; it leaves sorted
    wire ``i`` of ``needed`` at row ``merged[i]``.
    """
    sort, where, spare = _schedule(_batcher_pairs(n), range(n), n, range(n))
    merge, merged, _ = _schedule(_bitonic_pairs(n), where, spare, needed)
    return sort, where, merge, merged


def _run(wires: list, steps) -> None:
    """Apply the ``steps`` in place to the buffer rows ``wires``."""
    for op, a, b, c in steps:
        op(wires[a], wires[b], out=wires[c])


def _weighted_median(cols, weights: np.ndarray, terms=None) -> np.ndarray:
    """sum(weights * row) per sorted row, clamped to [row[0], row[-1]].

    ``cols`` holds the rows by column: a sequence of ``n`` equal-length
    arrays, entry ``j`` holding value ``j`` of every row, such as ``rows.T``
    of a ``(rows, n)`` array or the wire path's sorted buffer rows.  Up to
    ``_NARROW_MAX_WIDTH`` columns sum left to right, ``((w0*x0 + w1*x1) +
    w2*x2) + ...``; more take einsum's sum.  ``terms``, the positions of
    the nonzero weights, restricts the narrow sum to those terms, in order.
    On rows whose sum has no non-finite term, that changes at most the sign
    of a zero partial sum.
    """
    if len(cols) <= _NARROW_MAX_WIDTH:
        w = weights.tolist()
        first, *rest = range(len(cols)) if terms is None else terms
        med = cols[first] * w[first]
        term = np.empty_like(med) if rest else None
        for j in rest:
            med += np.multiply(cols[j], w[j], out=term)
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
    """MADs of the ``(rows, n)`` ``block`` into ``out[k]``, on ``(n + 1, rows)`` wire buffers.

    Each weight vector's sums add only its nonzero terms, and its
    deviations go through the merger pruned to those wires and the two
    ends the clamp reads.  Rows of non-finite range take ``_mad_np_sort``.
    """
    n = block.shape[1]
    np.copyto(buf[:-1], block.T)
    wires, devs = list(buf), list(dbuf)
    sort, where, _, _ = _plan(n, tuple(range(n)))
    _run(wires, sort)
    sorted_wires = [wires[r] for r in where]
    for k, wk in enumerate(stack):
        terms = tuple(np.flatnonzero(wk).tolist()) or (0,)
        _, _, merge, merged = _plan(n, tuple(sorted({0, n - 1, *terms})))
        # The spare row is a stale copy of one of the row's values.
        np.subtract(buf, _weighted_median(sorted_wires, wk, terms), out=dbuf)
        np.abs(dbuf, out=dbuf)
        _run(devs, merge)
        out[k] = _weighted_median([devs[r] for r in merged], wk, terms)
    # NaN reaches the first wire, +-inf an end.  A finite range bounds a
    # row's values and deviations, so no skipped term was inf * 0; the
    # block's widest range bounds every row's, in two reductions.
    first, last = sorted_wires[0], sorted_wires[-1]
    if not math.isfinite(float(last.max()) - float(first.min())):
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~np.isfinite(last - first)
        rows = block[bad]
        mads = np.empty((len(stack), len(rows)))
        _mad_np_sort(rows, stack, mads, *np.empty((2, *rows.shape)))
        out[:, bad] = mads


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
    # Equal weight vectors give equal MADs, so each distinct vector runs
    # once, into the leading rows of ``mads``, which then fill the rows
    # that repeat them.  Vectors are compared by their bytes, so -0.0
    # stays apart from 0.0; a lone vector is not hashed (0.3 ms at n = 1e5).
    source = [0]
    if len(stack) > 1:
        index = {}
        source = [index.setdefault(wk.tobytes(), len(index)) for wk in stack]
        stack = stack[[source.index(j) for j in range(len(index))]]
    step = max(1, min(rows, _block_rows(n)))
    wired = rows > 1 and 2 <= n <= _NARROW_MAX_WIDTH
    shape = (n + 1, step) if wired else (step, n)
    size = shape[0] * shape[1]
    # A call takes at least two blocks of ``_BLOCK_VALUES``, so a study
    # thread allocates its scratch once for every width it meets but the
    # wire widths 8 to 12, whose buffers are larger: freeing a smaller array
    # to grow it raises glibc's dynamic mmap threshold, and the thread's
    # later temporaries then stay in its heap (sensitivity, n = 5 then 30:
    # 3 MB more peak RSS).  A ``madkit mad`` call keeps none; two arrays in
    # place of its one took about 1.35x the time on one row of 1e5 values
    # (best of 7, 2-vCPU Xeon).
    scratch = (thread_scratch("kernel", max(2 * size, 2 * _BLOCK_VALUES)) if rows > 1
               else np.empty(2 * size))
    first = scratch[:size].reshape(shape)
    second = scratch[size:2 * size].reshape(shape)
    for start in range(0, rows, step):
        block = x[start:start + step]
        count = len(block)
        part = mads[:len(stack), start:start + count]
        if wired:
            _mad_wires(block, stack, part, first[:, :count], second[:, :count])
        else:
            _mad_np_sort(block, stack, part, first[:count], second[:count])
    if len(stack) < len(source):
        mads[:] = mads[source]
    return out
