"""The batch MAD kernel of the Monte-Carlo harness.

One NumPy implementation: sort every row, take the weighted median as a
weighted sum with the estimator's weights, then repeat on the sorted
absolute deviations.  Its per-width throughput is measured by
``perfbench/run.py --trace 1`` (the ``_kernel.sweep_n*`` metrics).

The weighted sums are ``np.einsum`` (default ``optimize=False``), not
``@``: einsum runs NumPy's own loop and never calls BLAS.  OpenBLAS
threads its matrix-vector product on wide rows, and its idle workers
spin-wait on the CPUs the study's pool threads need.
"""
from __future__ import annotations

import numpy as np

__all__ = ["mad0_batch"]


def _weighted_median(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # Non-negative weights summing to 1 put the exact sum inside the row's
    # range; rounding can step past it, and a constant row must have a MAD
    # of exactly 0.
    med = np.einsum("ij,j->i", rows, weights)
    return np.clip(med, rows[:, 0], rows[:, -1], out=med)


def mad0_batch(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Raw MAD per row of ``samples``, median as sum(weights * sorted row)."""
    xs = np.sort(np.asarray(samples, dtype=np.float64), axis=1)
    dev = np.abs(xs - _weighted_median(xs, weights)[:, None])
    dev.sort(axis=1)
    return _weighted_median(dev, weights)
