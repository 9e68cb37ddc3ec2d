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
    assert all(mad_uncorrected(row, kind) == 0.0 for row in samples)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_huge_rows_stay_finite(kind):
    rng = np.random.default_rng(11)
    for n in (2, 3, 10, 101):
        samples = rng.standard_normal((40, n)) * 1e150
        batch = mad0_batch(samples, median_weights(n, kind))
        assert np.isfinite(batch).all()
        expected = [mad_uncorrected(row, kind) for row in samples]
        np.testing.assert_allclose(batch, expected, rtol=1e-12, atol=0)
