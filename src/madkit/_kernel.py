"""The batch MAD kernel of the Monte-Carlo harness.

One NumPy implementation: sort every row, take the weighted median as a
dot product with the estimator's weights, then repeat on the sorted
absolute deviations.  Its per-width throughput is measured by
``perfbench/run.py --trace 1`` (the ``_kernel.sweep_n*`` metrics).
"""
from __future__ import annotations

import numpy as np

__all__ = ["mad0_batch"]


def mad0_batch(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Raw MAD per row of ``samples``, median as dot(weights, sorted row)."""
    xs = np.sort(np.asarray(samples, dtype=np.float64), axis=1)
    med = xs @ weights
    dev = np.abs(xs - med[:, None])
    dev.sort(axis=1)
    return dev @ weights
