"""The batch kernel must agree with the scalar MAD path."""
import numpy as np
import pytest

from madkit._kernel import mad0_batch
from madkit.mad import mad_uncorrected
from madkit.quantiles import HD, SM, THD_SQRT, median_weights

ALL_KINDS = (SM, HD, THD_SQRT)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_batch_matches_scalar_path(kind):
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5, 7, 10, 12, 17, 33, 64, 301):
        samples = rng.standard_normal((40, n))
        batch = mad0_batch(samples, median_weights(n, kind))
        expected = [mad_uncorrected(row, kind) for row in samples]
        assert batch == pytest.approx(expected, rel=1e-12, abs=1e-14)


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
