"""Estimator behavior: exact small-case values, structural identities,
and the properties every weighted order-statistic estimator must satisfy."""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madkit.errors import DomainError, SampleError
from madkit.quantiles import (
    HD,
    SM,
    THD_SQRT,
    MedianEstimator,
    beta_hdi,
    hd_quantile,
    hd_weights,
    hf7_quantile,
    median,
    median_weights,
    parse_estimator,
    thd,
    thd_quantile,
    thd_weights,
)
from madkit.specfun import BetaParams, beta_pdf

ALL_KINDS = (SM, HD, THD_SQRT)


class TestInput:
    def test_rejects_non_finite(self):
        for bad in ([1.0, math.nan], [1.0, math.inf], [-math.inf]):
            for kind in ALL_KINDS:
                with pytest.raises(DomainError):
                    median(bad, kind)
            for estimate in (hf7_quantile, hd_quantile, thd_quantile):
                with pytest.raises(DomainError):
                    estimate(bad, 0.5)

    def test_estimators_reject_empty(self):
        for empty in ([], np.empty(0), ()):
            for kind in ALL_KINDS:
                with pytest.raises(SampleError, match="requires a nonempty sample"):
                    median(empty, kind)
            for estimate in (hf7_quantile, hd_quantile, thd_quantile):
                with pytest.raises(SampleError, match="requires a nonempty sample"):
                    estimate(empty, 0.5)

    def test_input_order_and_type_irrelevant(self):
        x = np.random.default_rng(5).standard_normal(9)
        for estimate in (
            lambda v: median(v, SM),
            lambda v: median(v, HD),
            lambda v: median(v, THD_SQRT),
            lambda v: hf7_quantile(v, 0.3),
            lambda v: hd_quantile(v, 0.3),
            lambda v: thd_quantile(v, 0.3),
        ):
            want = estimate(np.sort(x))
            assert estimate(x) == want
            assert estimate(x.tolist()) == want
            assert estimate(tuple(x)) == want
            assert estimate(x.reshape(3, 3)) == want

    def test_input_left_unchanged(self):
        x = np.array([3.0, 1.0, 2.0])
        assert median(x, HD) == 2.0
        assert hf7_quantile(x, 0.25) == 1.5
        assert x.tolist() == [3.0, 1.0, 2.0]


class TestHf7:
    def test_odd_median(self):
        assert hf7_quantile([1, 2, 3], 0.5) == 2.0

    def test_even_median(self):
        assert hf7_quantile([1, 2, 3, 4], 0.5) == 2.5

    def test_interpolation(self):
        # h = 3*0.25 + 1 = 1.75 -> between the first two order statistics
        assert hf7_quantile([1, 2, 3, 4], 0.25) == pytest.approx(1.75, abs=1e-15)

    def test_endpoints(self):
        assert hf7_quantile([5, 1, 9], 0.0) == 1.0
        assert hf7_quantile([5, 1, 9], 1.0) == 9.0

    def test_p_out_of_range(self):
        with pytest.raises(DomainError):
            hf7_quantile([1, 2], 1.5)

    def test_interpolation_bits_where_the_step_is_finite(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 10, 257):
            v = np.sort(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300))
            for p in (0.0, 0.01, 0.25, 0.3, 0.75, 0.9):
                h = (n - 1) * p
                i = math.floor(h)
                want = float(v[i] + (h - i) * (v[i + 1] - v[i]))
                assert hf7_quantile(v, p).hex() == want.hex(), (n, p)

    def test_interpolation_across_the_float64_range_stays_finite(self):
        lo, hi = -1.7e308, 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [hf7_quantile([lo, hi], p) for p in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)]
        assert got == sorted(got) and (got[0], got[-1]) == (lo, hi)
        assert hf7_quantile([lo, hi], 0.25) == pytest.approx(-0.85e308, rel=1e-15)
        assert hf7_quantile([lo, hi], 0.75) == pytest.approx(0.85e308, rel=1e-15)

    def test_even_median_of_huge_values_is_finite(self):
        assert median([1e308, 1.5e308], SM) == 1.25e308
        assert median([-1.7e308, -1e308, 1e308, 1.7e308], SM) == 0.0

    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_sm_median_is_the_kernels(self, n):
        from madkit._kernel import _weighted_median

        rng = np.random.default_rng(40 + n)
        big = 1.7976931348623157e308
        tiny = 5e-324
        rows = np.concatenate([
            rng.standard_normal((200, n)),
            rng.uniform(-1.0, 1.0, (200, n)) * big,
            rng.choice([-big, -1.5e308, -1e308, 1e308, 1.5e308, big], (200, n)),
            rng.integers(-6, 7, (200, n)) * tiny,
            rng.choice([tiny, 2 * tiny, 3 * tiny, -tiny, -3 * tiny, 2.2250738585072014e-308],
                       (200, n)),
        ])
        xs = np.sort(rows, axis=1)
        kernel = _weighted_median(xs.T, median_weights(n, SM))
        got = np.array([median(row, SM) for row in rows])
        assert np.array_equal(got.view(np.uint64), kernel.view(np.uint64))


class TestHdWeights:
    def test_n2_split_evenly(self):
        assert hd_weights(2, 0.5).tolist() == [0.5, 0.5]

    def test_n3_closed_form(self):
        # I_x(2,2) = x^2(3-2x) at x = 1/3, 2/3 gives 7/27, 20/27
        w = hd_weights(3, 0.5)
        assert w == pytest.approx([7 / 27, 13 / 27, 7 / 27], abs=1e-14)

    def test_n1_all_mass(self):
        assert hd_weights(1, 0.5).tolist() == [1.0]

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_rejects_boundary_p(self, p):
        with pytest.raises(DomainError):
            hd_weights(5, p)

    def test_symmetry_at_median(self):
        for n in (1, 2, 3, 4, 5, 10, 41, 100, 101, 1000, 100_000):
            for w in (hd_weights(n, 0.5), thd_weights(n, 0.5, 1 / math.sqrt(n))):
                assert np.array_equal(w, w[::-1])


class TestHdQuantile:
    def test_symmetric_three_points(self):
        assert hd_quantile([0, 1, 2], 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_constant_sample(self):
        for p in (0.2, 0.5, 0.9):
            assert hd_quantile([5, 5, 5, 5], p) == 5.0

    def test_two_points(self):
        assert hd_quantile([0, 1], 0.5) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(SampleError):
            hd_quantile([], 0.5)


class TestBetaHdi:
    def test_symmetric_middle(self):
        assert beta_hdi(BetaParams(2.5, 2.5), 0.5) == (0.25, 0.75)

    def test_degenerate_returns_none(self):
        assert beta_hdi(BetaParams(0.9, 0.9), 0.3) is None

    def test_left_border(self):
        assert beta_hdi(BetaParams(0.5, 3.0), 0.3) == (0.0, 0.3)

    def test_right_border(self):
        assert beta_hdi(BetaParams(3.0, 0.5), 0.3) == (0.7, 1.0)

    def test_full_width(self):
        assert beta_hdi(BetaParams(4.0, 7.0), 1.0) == (0.0, 1.0)

    @pytest.mark.parametrize("width", [0.0, -0.2, 1.2])
    def test_invalid_width(self, width):
        with pytest.raises(DomainError):
            beta_hdi(BetaParams(2.0, 2.0), width)

    def test_middle_case_root_within_tolerance(self):
        # Independent oracle: scipy density + Brent root finder at 1e-13.
        from scipy import optimize, stats

        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(60):
            a, b = rng.uniform(1.1, 60.0), rng.uniform(1.1, 60.0)
            width = float(rng.uniform(0.05, 0.9))
            left, right = beta_hdi(BetaParams(a, b), width)
            assert right - left == pytest.approx(width, abs=1e-9)
            assert 0.0 <= left < right <= 1.0

            def f(l):
                return stats.beta.pdf(l, a, b) - stats.beta.pdf(l + width, a, b)

            mode = (a - 1.0) / (a + b - 2.0)
            lo, hi = max(0.0, mode - width), min(mode, 1.0 - width)
            if hi - lo > 1e-12 and f(lo) * f(hi) < 0:
                expected = optimize.brentq(f, lo, hi, xtol=1e-13)
                assert left == pytest.approx(expected, abs=1e-9)
                checked += 1
        assert checked > 30

    def test_interval_actually_maximizes_mass(self):
        # Sliding the window off the solution must not increase the content.
        from madkit.specfun import reg_inc_beta

        params = BetaParams(3.7, 9.2)
        width = 0.25
        left, right = beta_hdi(params, width)
        best = reg_inc_beta(right, params) - reg_inc_beta(left, params)
        for shift in (-0.05, -0.01, 0.01, 0.05):
            lo = min(max(left + shift, 0.0), 1.0 - width)
            mass = reg_inc_beta(lo + width, params) - reg_inc_beta(lo, params)
            assert mass <= best + 1e-9


class TestThdWeights:
    def test_n4_half_width_collapses_to_middle_pair(self):
        w = thd_weights(4, 0.5, 0.5)
        assert w.tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_n1_single_weight(self):
        assert thd_weights(1, 0.5, 0.7).tolist() == [1.0]

    def test_full_width_equals_untrimmed(self):
        w_full = thd_weights(3, 0.5, 1.0)
        assert np.array_equal(w_full, hd_weights(3, 0.5))

    def test_degenerate_falls_back_to_hd(self):
        # n = 1 at p = 0.5 gives Beta(1, 1): degenerate HDI
        assert thd_weights(1, 0.5, 0.5).tolist() == [1.0]

    def test_weights_outside_window_are_zero(self):
        w = thd_weights(20, 0.5, 1 / math.sqrt(20))
        nz = np.nonzero(w)[0]
        assert nz.size < 20  # genuinely trimmed
        assert w.sum() == pytest.approx(1.0, abs=1e-10)


ZERO_WIDTH_NS = (2, 3, 4, 5, 8, 13, 30, 100, 101, 1000, 10_001)
ZERO_WIDTH_PS = (0.1, 0.25, 0.5, 0.75, 0.9)
ZERO_WIDTH_WIDTHS = (1.0, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-15,
                     1e-17, 1e-100, 1e-300)


class TestThdZeroWidthLimit:
    """A width whose HDI holds no float64 probability: the CDF steps at the HDI."""

    def test_median_weights_are_finite(self):
        assert thd_weights(5, 0.5, 1e-300).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert median([1, 2, 3, 4, 5], thd(1e-300)) == 3.0

    def test_hdi_at_one_takes_the_maximum(self):
        # The HDI's left end rounds to 1.0, past the last grid cell.
        assert thd_quantile([1.0, 2.0, 3.0], 0.9, 3e-17) == 3.0
        assert thd_quantile([1.0, 2.0, 3.0], 0.9, 1e-3) == 3.0

    def test_p_half_limit_is_the_sample_median(self):
        for n in (*range(1, 200), 1001, 10_000, 100_001):
            assert np.array_equal(thd_weights(n, 0.5, 1e-300), median_weights(n, SM)), n

    @pytest.mark.parametrize("n", ZERO_WIDTH_NS)
    def test_every_width_gives_a_weight_vector(self, n):
        for p in ZERO_WIDTH_PS:
            for width in ZERO_WIDTH_WIDTHS:
                w = thd_weights(n, p, width)
                assert np.isfinite(w).all() and (w >= 0.0).all(), (n, p, width)
                assert w.sum() == pytest.approx(1.0, abs=1e-12), (n, p, width)


class TestThdQuantile:
    def test_four_points_half_width(self):
        assert thd_quantile([1, 2, 3, 4], 0.5, 0.5) == 2.5

    def test_singleton(self):
        assert thd_quantile([7], 0.5) == 7.0

    def test_full_width_matches_hd(self):
        assert thd_quantile([0, 1, 2], 0.5, 1.0) == pytest.approx(
            hd_quantile([0, 1, 2], 0.5), abs=1e-15
        )


class TestMedianDispatch:
    def test_sm_ignores_outlier(self):
        assert median([1, 2, 100], SM) == 2.0

    def test_hd_two_points(self):
        assert median([0, 1], HD) == 0.5

    def test_thd_custom_width(self):
        assert median([1, 2, 3, 4], thd(0.5)) == 2.5

    def test_parse_estimator(self):
        assert parse_estimator("sm") == SM
        assert parse_estimator("HD") == HD
        assert parse_estimator("thd-sqrt") == THD_SQRT
        assert parse_estimator("thd(0.25)") == thd(0.25)
        with pytest.raises(DomainError):
            parse_estimator("median")
        with pytest.raises(DomainError, match=r"^bad thd width in 'thd\(x\)'$"):
            parse_estimator("thd(x)")

    @pytest.mark.parametrize("weights", [
        lambda: hd_weights(0, 0.5), lambda: thd_weights(0, 0.5, 0.5),
        lambda: median_weights(0, SM), lambda: median_weights(0, HD),
    ], ids=["hd", "thd", "median-sm", "median-hd"])
    def test_weights_need_a_sample(self, weights):
        with pytest.raises(SampleError, match="^need n >= 1, got 0$"):
            weights()

    def test_labels(self):
        assert SM.label == "sm" and HD.label == "hd"
        assert THD_SQRT.label == "thd-sqrt"
        assert [thd(w).label for w in (0.25, 0.3, 0.5, 1e-7)] == [
            "thd(0.25)", "thd(0.3)", "thd(0.5)", "thd(1e-07)"]
        assert thd(1 / 3).label == "thd(0.3333333333333333)"

    @pytest.mark.parametrize("width", [0.1234567, 1 / 3, 1e-7, 0.25, 0.3, 0.5, 1.0])
    def test_label_reads_back(self, width):
        # A provenance line names its estimators by label; a rebuilt run
        # must get the same widths back, not a 6-digit rounding of them.
        assert parse_estimator(thd(width).label) == thd(width)

    def test_kind_validation(self):
        with pytest.raises(DomainError, match="^unknown estimator kind 'foo'$"):
            MedianEstimator("foo")
        with pytest.raises(DomainError):
            MedianEstimator("sm", width=0.5)
        with pytest.raises(DomainError):
            thd(0.0)
        with pytest.raises(DomainError):
            thd(1.5)

    @pytest.mark.parametrize("kind", ["hd", None, ("sm",)])
    def test_refuses_an_estimator_that_is_not_a_median_estimator(self, kind):
        # A label is not an estimator: its name is not read as one.
        message = f"^the estimator must be a MedianEstimator, got {re.escape(repr(kind))}$"
        with pytest.raises(DomainError, match=message):
            median([1, 2, 3], kind)
        with pytest.raises(DomainError, match=message):
            median_weights(5, kind)


class TestStructuralIdentities:
    def test_two_point_collapse_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = rng.standard_normal(2) * rng.uniform(0.1, 100)
            s = np.sort(x)
            expected = 0.5 * (s[0] + s[1])
            for kind in ALL_KINDS:
                assert median(x, kind) == expected

    def test_n4_thd_sqrt_equals_sm_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            x = rng.standard_normal(4) * 10
            assert median(x, THD_SQRT) == median(x, SM)

    def test_median_weights_reproduce_median(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4, 5, 8, 13, 40):
            x = rng.standard_normal(n)
            for kind in ALL_KINDS:
                w = median_weights(n, kind)
                assert float(np.dot(w, np.sort(x))) == pytest.approx(
                    median(x, kind), rel=1e-13, abs=1e-13
                )


class TestWeightProperties:
    @pytest.mark.parametrize("kind", ["hd", "thd"])
    def test_normalization_quick_grid(self, kind):
        for n in (1, 2, 3, 7, 25, 80, 200):
            for p in (0.05, 0.25, 0.5, 0.75, 0.95):
                if kind == "hd":
                    w = hd_weights(n, p)
                else:
                    w = thd_weights(n, p, 1 / math.sqrt(n))
                assert w.sum() == pytest.approx(1.0, abs=1e-10)
                assert (w >= -1e-15).all()

    @pytest.mark.parametrize("n", [1_600_000, 3_000_000])
    def test_large_n_weights_converge(self, n):
        # The Beta continued fraction needs more iterations as n grows (510
        # at n = 1.6e6, 649 at 3e6); a fixed cap of 500 raised here.
        for w in (hd_weights(n, 0.5), thd_weights(n, 0.5, 1 / math.sqrt(n))):
            assert w.sum() == pytest.approx(1.0, abs=1e-10)
            assert (w >= 0.0).all()
            assert np.array_equal(w, w[::-1])

    def test_monotone_in_data(self):
        # Raising one observation never lowers a nonnegative-weight estimate.
        rng = np.random.default_rng(10)
        for kind in ALL_KINDS:
            for _ in range(60):
                n = int(rng.integers(2, 12))
                x = rng.standard_normal(n)
                base = median(x, kind)
                i = int(rng.integers(0, n))
                x2 = x.copy()
                x2[i] += abs(rng.standard_normal()) + 0.1
                assert median(x2, kind) >= base - 1e-12


def _dense_hd_reference(n, p):
    # The full grid, one Beta-CDF value per order statistic.
    from madkit.quantiles import _hd_params, _symmetrize
    from madkit.specfun import reg_inc_beta

    cdf = reg_inc_beta(np.arange(n + 1) / n, _hd_params(n, p))
    w = np.diff(cdf)
    return _symmetrize(w) if p == 0.5 else w


def _dense_thd_reference(n, p, width):
    # Clamp the CDF to the HDI and renormalize, order statistic by order statistic.
    from madkit.quantiles import _hd_params, _symmetrize
    from madkit.specfun import reg_inc_beta

    params = _hd_params(n, p)
    hdi = beta_hdi(params, width)
    if hdi is None:
        return _dense_hd_reference(n, p)
    left, right = hdi
    cells = range(math.floor(left * n) + 1, math.ceil(right * n) + 1)
    points = [left, right] + [min(max(i / n, left), right) for i in cells]
    cdf = reg_inc_beta(np.array(points), params)
    cdf_left = cdf[0]
    denom = cdf[1] - cdf_left
    w = np.zeros(n)
    prev = 0.0
    for i, value in zip(cells, cdf[2:].tolist()):
        c = (value - cdf_left) / denom
        w[i - 1] = c - prev
        prev = c
    return _symmetrize(w) if p == 0.5 else w


WINDOW_NS = (1, 2, 3, 4, 5, 10, 100, 101, 1000, 100_000)
WINDOW_PS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


class TestWeightWindow:
    """The windowed, cached weights against the dense per-order-statistic loop."""

    @pytest.mark.parametrize("n", WINDOW_NS)
    def test_hd_matches_dense_loop(self, n):
        for p in WINDOW_PS:
            w = hd_weights(n, p)
            assert np.max(np.abs(w - _dense_hd_reference(n, p))) <= 1e-15
            assert w.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", WINDOW_NS)
    def test_thd_matches_dense_loop(self, n):
        width = 1 / math.sqrt(n)
        for p in WINDOW_PS:
            w = thd_weights(n, p, width)
            assert np.max(np.abs(w - _dense_thd_reference(n, p, width))) <= 1e-15
            assert w.sum() == pytest.approx(1.0, abs=1e-14)

    def test_returned_arrays_cannot_corrupt_cache(self):
        for build in (lambda: hd_weights(50, 0.5), lambda: thd_weights(50, 0.5, 0.2)):
            first = build()
            with pytest.raises(ValueError):
                first[0] = 1.0
            second = build()
            with pytest.raises(ValueError):
                second[0] = 1.0
            assert np.array_equal(first, second)


def _first_true(lo, hi, pred):
    """Smallest i in [lo, hi] with pred(i), for pred monotone and pred(hi) true."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _window_reference(n, p, width, grid_cdf, hdi_cdf):
    """``_cdf_window`` rebuilt from the CDF on the full i/n grid.

    HD: the window edges by bisection.  THD: the grid cells of the HDI,
    each clamped to [left, right] and renormalized one by one, with
    ``hdi_cdf`` the CDF at (left, right).
    """
    from madkit.quantiles import _CDF_FLOOR, _hd_params

    hdi = None if width is None else beta_hdi(_hd_params(n, p), width)
    if hdi is None:
        first = _first_true(0, n, lambda i: grid_cdf[i] >= _CDF_FLOOR)
        stop = _first_true(first, n, lambda i: grid_cdf[i] >= 1.0)
        return first, grid_cdf[first:stop]
    left, right = hdi
    cdf_left, cdf_right = hdi_cdf
    first = math.floor(left * n) + 1
    cells = []
    for i in range(first, math.ceil(right * n) + 1):
        g = i / n
        value = cdf_left if g <= left else cdf_right if g >= right else float(grid_cdf[i])
        cells.append((value - cdf_left) / (cdf_right - cdf_left))
    return first, np.array(cells, dtype=np.float64)


CDF_WINDOW_NS = (range(1, 100), range(100, 200), range(200, 300), range(300, 400),
                 (500, 1000, 4097, 10_001, 100_000))
CDF_WINDOW_PS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9)


class TestCdfWindow:
    """One array call per window against bisection over the full grid, bit for bit."""

    @staticmethod
    def _check(n, p, thd=True):
        from madkit.quantiles import _cdf_window, _hd_params
        from madkit.specfun import reg_inc_beta

        params = _hd_params(n, p)
        width = 1 / math.sqrt(n)
        hdi = beta_hdi(params, width) if thd else None
        ends = [] if hdi is None else list(hdi)
        # One call for the HDI ends and the grid.
        cdf = reg_inc_beta(np.concatenate((ends, np.arange(n + 1) / n)), params)
        hdi_cdf, grid_cdf = cdf[: len(ends)].tolist(), cdf[len(ends):]
        for w in (None, width) if thd else (None,):
            first, window = _cdf_window.__wrapped__(n, p, w)
            ref_first, ref_window = _window_reference(n, p, w, grid_cdf, hdi_cdf)
            assert first == ref_first, (n, p, w)
            assert window.dtype == np.float64 and window.shape == ref_window.shape, (n, p, w)
            assert window.tobytes() == ref_window.tobytes(), (n, p, w)

    @pytest.mark.parametrize("ns", CDF_WINDOW_NS, ids=lambda ns: f"n{min(ns)}-{max(ns)}")
    def test_matches_bisection_reference(self, ns):
        for n in ns:
            for p in CDF_WINDOW_PS:
                self._check(n, p)

    def test_bracket_widens(self, monkeypatch):
        # A first bracket of half a deviation misses both edges; it must
        # double until it holds them, and give the same window.
        from madkit import quantiles

        calls = []
        real = quantiles.reg_inc_beta

        def counting(v, params):
            calls.append(np.size(v))
            return real(v, params)

        monkeypatch.setattr(quantiles, "_BRACKET_SDS", 0.5)
        monkeypatch.setattr(quantiles, "_BRACKET_POINTS", 1)
        monkeypatch.setattr(quantiles, "reg_inc_beta", counting)
        for n, p in ((1000, 0.5), (1000, 0.01), (1000, 0.99), (100_000, 0.9)):
            calls.clear()
            self._check(n, p, thd=False)
            assert len(calls) > 1 and calls == sorted(calls), (n, p, calls)

    def test_one_array_call_per_median_window(self, monkeypatch):
        from madkit import quantiles

        calls = []
        real = quantiles.reg_inc_beta

        def recording(v, params):
            calls.append(np.ndim(v))
            return real(v, params)

        monkeypatch.setattr(quantiles, "reg_inc_beta", recording)
        for n in (1, 2, 5, 100, 1001, 100_000):
            for width in (None, 1 / math.sqrt(n)):
                calls.clear()
                quantiles._cdf_window.__wrapped__(n, 0.5, width)
                assert calls == [1], (n, width, calls)


class TestWeightCost:
    @pytest.fixture
    def calls(self, monkeypatch):
        from madkit import quantiles

        quantiles._cdf_window.cache_clear()
        counter = {"calls": 0, "points": 0}
        real = quantiles.reg_inc_beta

        def counting(v, params):
            counter["calls"] += 1
            counter["points"] += np.size(v)
            return real(v, params)

        monkeypatch.setattr(quantiles, "reg_inc_beta", counting)
        yield counter
        quantiles._cdf_window.cache_clear()

    def test_hd_window_is_sublinear(self, calls):
        hd_weights(100_000, 0.5)
        assert calls["calls"] == 1
        assert 0 < calls["points"] <= 4000

    @pytest.mark.parametrize("kind", [HD, THD_SQRT])
    def test_one_build_per_n_and_estimator(self, calls, kind):
        from madkit import quantiles
        from madkit.mad import mad_corrected

        median_weights(5000, kind)
        one_build = calls["calls"]
        quantiles._cdf_window.cache_clear()
        calls["calls"] = 0
        rng = np.random.default_rng(3)
        # Centre and deviation medians share the build ...
        mad_corrected(rng.standard_normal(5000), kind)
        assert calls["calls"] == one_build > 0
        # ... and so does the next sample of the same size.
        calls["calls"] = 0
        mad_corrected(rng.standard_normal(5000), kind)
        assert calls["calls"] == 0

    def test_cache_is_bounded(self):
        from madkit import quantiles

        maxsize = quantiles._cdf_window.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


@settings(max_examples=120, deadline=None)
@given(
    data=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=24),
    scale=st.floats(0.01, 1e3),
    shift=st.floats(-1e4, 1e4),
    p=st.floats(0.01, 0.99),
)
def test_affine_equivariance(data, scale, shift, p):
    s = np.asarray(data)
    mapped = scale * s + shift
    for estimate in (
        lambda v: hf7_quantile(v, p),
        lambda v: hd_quantile(v, p),
        lambda v: thd_quantile(v, p),
    ):
        base = estimate(s)
        assert estimate(mapped) == pytest.approx(scale * base + shift, abs=1e-9 * max(1.0, abs(scale * base + shift)))
