"""Corrected MAD and every factor model: exact values, table fidelity,
historical schemes, and scale equivariance."""
import csv
import math

import mpmath
import numpy as np
import pytest

from madkit import factor_tables as tables
from madkit.errors import DomainError, FactorRangeError, SampleError
from madkit.mad import (
    _Q75,
    DEFAULT_MODEL,
    MODEL_CHOICES,
    _fitted_form,
    asymptotic_factor,
    correction_factor,
    factor_table,
    mad_corrected,
    mad_uncorrected,
)
from madkit.quantiles import HD, SM, THD_SQRT, thd
from madkit.simulate import fit_prediction

Q75 = 0.674489750196082
ALL_KINDS = (SM, HD, THD_SQRT)


class TestMadUncorrected:
    def test_three_points(self):
        assert mad_uncorrected([1, 2, 4], SM) == 1.0

    def test_two_points_any_estimator(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.standard_normal(2) * 10
            for kind in ALL_KINDS:
                assert mad_uncorrected([a, b], kind) == pytest.approx(
                    abs(a - b) / 2, rel=1e-14, abs=1e-300
                )

    def test_constant_sample(self):
        for kind in ALL_KINDS:
            assert mad_uncorrected([3, 3, 3, 3, 3], kind) == 0.0

    @pytest.mark.parametrize("data", [[], [1.0]])
    def test_too_small(self, data):
        with pytest.raises(SampleError):
            mad_uncorrected(data, SM)

    @pytest.mark.parametrize("data", [[1.0, math.nan], [math.inf, 1.0, 2.0], [-math.inf]])
    def test_non_finite_rejected(self, data):
        with pytest.raises(DomainError, match="must be finite"):
            mad_uncorrected(data, SM)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_huge_pair(self, kind):
        # Half the gap, although the sum of the two values overflows.
        assert mad_uncorrected([1e308, 1.5e308], kind) == 2.5e307
        assert mad_uncorrected([-1.5e308, -1e308], kind) == 2.5e307

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    @pytest.mark.parametrize("data", [[-1e308, 1e308, 1.5e308, 1.7e308],
                                      [-1.7e308, -1.6e308, 1.7e308]])
    def test_overflowing_deviations_rejected(self, kind, data):
        with pytest.raises(DomainError, match="deviations from the median overflow float64"):
            mad_uncorrected(data, kind)
        with pytest.raises(DomainError, match="overflow float64"):
            mad_corrected(data, kind)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_overflowing_corrected_mad_rejected(self, kind):
        # The raw MAD, 1.7e308, is finite; C_2 = sqrt(pi) times it is not.
        data = [-1.7e308, 1.7e308]
        assert mad_uncorrected(data, kind) == 1.7e308
        with pytest.raises(DomainError, match="corrected MAD overflows float64"):
            mad_corrected(data, kind)

    def test_input_order_and_type_irrelevant(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(101)
        for kind in ALL_KINDS:
            want = mad_uncorrected(np.sort(x), kind)
            assert mad_uncorrected(x, kind) == want
            assert mad_uncorrected(x.tolist(), kind) == want
            assert mad_uncorrected(tuple(x), kind) == want
            assert mad_uncorrected(x.reshape(1, -1), kind) == want

    def test_leaves_no_kernel_scratch(self):
        from concurrent.futures import ThreadPoolExecutor

        from madkit import _kernel

        def call():
            mad_corrected(np.random.default_rng(5).standard_normal(10_000), HD)
            return dict(vars(_kernel._scratch))

        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(call).result() == {}

    def test_keeps_the_threads_study_scratch(self):
        # Sensitivity's aggregator calls mad_corrected on a thread that may
        # hold the study's buffers; the call leaves them in place.
        from concurrent.futures import ThreadPoolExecutor

        from madkit import _kernel

        def call():
            held = _kernel.thread_scratch(1000)
            mad_corrected(np.random.default_rng(5).standard_normal(10_000), HD)
            return held, dict(vars(_kernel._scratch))

        with ThreadPoolExecutor(max_workers=1) as pool:
            held, after = pool.submit(call).result()
        assert after.keys() == {"values"}
        assert after["values"] is held


class TestDefaultModel:
    def test_n2_exact_for_every_estimator(self):
        for kind in ALL_KINDS + (thd(0.3),):
            assert correction_factor(2, kind) == math.sqrt(math.pi)

    @pytest.mark.parametrize(
        "n,kind,expected",
        [
            (3, SM, 2.2049),
            (10, HD, 1.5529),
            (20, THD_SQRT, 1.5449),
            (100, SM, 1.4944),
            (100, HD, 1.4910),
            (100, THD_SQRT, 1.4937),
        ],
    )
    def test_table_values(self, n, kind, expected):
        assert correction_factor(n, kind) == expected

    def test_n200_fitted_value(self):
        expected = 1.0 / (Q75 * (1.0 - 0.7668 / 200 - 2.1897 / 200**2))
        got = correction_factor(200, SM)
        assert got == pytest.approx(expected, abs=1e-12)
        # cross-check against the tabulated 1.4884
        assert got == pytest.approx(1.4884, abs=2e-4)

    def test_large_n_approaches_asymptote_from_above(self):
        diff = correction_factor(3000, SM) - asymptotic_factor()
        assert 0.0 < diff < 1e-3
        assert diff == pytest.approx(0.0004, abs=2e-4)

    def test_seam_is_smooth(self):
        for kind in ALL_KINDS:
            jump = abs(correction_factor(100, kind) - correction_factor(101, kind))
            assert jump < 0.002

    def test_rejects_n_below_two(self):
        with pytest.raises(FactorRangeError):
            correction_factor(1, SM)

    @pytest.mark.parametrize("n", [5.5, 100.5, 5.0, "5"])
    def test_rejects_n_that_is_not_an_integer(self, n):
        # 5.5 once raised a bare KeyError from the table, 100.5 returned a
        # factor from the fitted equation.
        with pytest.raises(FactorRangeError, match=f"must be an integer, got {n!r}"):
            correction_factor(n, HD)

    def test_numpy_integer_n_is_an_int(self):
        seen = []
        assert correction_factor(np.int64(150), HD) == correction_factor(150, HD)
        correction_factor(np.uint16(7), SM, lambda n, kind: seen.append(n) or 1.0)
        assert seen == [7] and type(seen[0]) is int

    def test_custom_thd_width_refused_beyond_n2(self):
        with pytest.raises(FactorRangeError):
            correction_factor(10, thd(0.3))

    def test_custom_thd_width_works_with_user_fitted_model(self):
        fit = fit_prediction({n: 1.0 / (Q75 * (1.0 - 0.7 / n - 3.0 / (n * n)))
                              for n in (150, 200, 300, 500)})
        assert correction_factor(50, thd(0.3), lambda n, kind: fit.predict(n)) > 1.0
        with pytest.raises(FactorRangeError):
            correction_factor(1, thd(0.3), lambda n, kind: fit.predict(n))


class TestFactorTables:
    def test_row_counts(self):
        assert len(tables.TABLES["sm"]) == 139
        assert len(tables.TABLES["hd"]) == 139
        assert len(tables.TABLES["thd-sqrt"]) == 139
        assert len(tables.TABLES["park"]) == 131

    def test_full_coverage_2_to_100(self):
        for table in tables.TABLES.values():
            assert all(n in table for n in range(2, 101))

    def test_values_are_four_decimal(self):
        for table in tables.TABLES.values():
            for value in table.values():
                assert value == round(value, 4)

    @pytest.mark.parametrize(
        "label,n,expected",
        [
            ("sm", 3, 2.2049),
            ("sm", 3000, 1.4830),
            ("hd", 10, 1.5529),
            ("thd-sqrt", 20, 1.5449),
            ("thd-sqrt", 4, 2.0172),
            ("sm", 4, 2.0172),
            ("park", 2, 1.7722),
            ("park", 500, 1.4848),
        ],
    )
    def test_spot_values(self, label, n, expected):
        assert factor_table(label)[n] == expected

    def test_all_exceed_asymptote(self):
        c_inf = asymptotic_factor()
        for table in (tables.TABLES["sm"], tables.TABLES["hd"], tables.TABLES["thd-sqrt"]):
            assert min(table.values()) > c_inf

    def test_monotone_regimes(self):
        # Each table is non-increasing once past its small-n wiggle
        # (sm from 5, hd from 6, thd-sqrt from 9); 4-decimal rounding
        # produces ties, so the comparison is non-strict.
        for table, start in ((tables.TABLES["sm"], 5), (tables.TABLES["hd"], 6),
                             (tables.TABLES["thd-sqrt"], 9)):
            ns = sorted(n for n in table if n >= start)
            values = [table[n] for n in ns]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_park_close_to_sm(self):
        diffs = [
            abs(tables.TABLES["park"][n] - tables.TABLES["sm"][n]) for n in range(2, 101)
        ]
        assert max(diffs) <= 0.00065

    def test_csv_matches_embedded_exactly(self):
        columns = {"c_sm": tables.TABLES["sm"], "c_hd": tables.TABLES["hd"],
                   "c_thd_sqrt": tables.TABLES["thd-sqrt"], "c_park": tables.TABLES["park"]}
        seen = {key: {} for key in columns}
        with tables.CSV_PATH.open("r", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                n = int(row["n"])
                for key in columns:
                    if row[key]:
                        seen[key][n] = float(row[key])
        for key, table in columns.items():
            assert seen[key] == table  # bit-identical floats, full coverage

    def test_unknown_table(self):
        with pytest.raises(FactorRangeError):
            factor_table("weird")

    def test_registry_follows_the_csv_header(self):
        # Column c_<name> is table <name>, in column order.
        with tables.CSV_PATH.open("r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
        assert header == ["n", "c_sm", "c_hd", "c_thd_sqrt", "c_park"]
        assert tuple(tables.TABLES) == ("sm", "hd", "thd-sqrt", "park")

    @pytest.mark.parametrize("name", ["sm", "hd", "thd-sqrt"])
    def test_fitted_coefficients_match_the_large_n_rows(self, name):
        assert set(tables.FITTED_COEFFS) == {"sm", "hd", "thd-sqrt"}
        alpha, beta = tables.FITTED_COEFFS[name]
        gaps = [abs(_fitted_form(n, alpha, beta) - c)
                for n, c in tables.TABLES[name].items() if 100 < n <= 500]
        assert len(gaps) == 32
        assert max(gaps) <= 1e-4


def legacy(name, n, kind=SM):
    return correction_factor(n, kind, MODEL_CHOICES[name])


class TestLegacyModels:
    def test_registry(self):
        assert sorted(MODEL_CHOICES) == [
            "asymptotic", "croux-rousseeuw", "default", "hayes", "park", "williams"
        ]
        assert MODEL_CHOICES["default"] is DEFAULT_MODEL

    def test_asymptotic_is_constant(self):
        assert legacy("asymptotic", 2, SM) == legacy("asymptotic", 5000, HD) == asymptotic_factor()

    @pytest.mark.parametrize("n,expected_b", [(2, 1.196), (9, 1.107)])
    def test_croux_rousseeuw_table(self, n, expected_b):
        assert legacy("croux-rousseeuw", n) == pytest.approx(expected_b / Q75, abs=1e-12)

    def test_croux_rousseeuw_formula(self):
        assert legacy("croux-rousseeuw", 20) == pytest.approx((20 / 19.2) / Q75, abs=1e-12)

    @pytest.mark.parametrize("n,expected_b", [(2, 1.197), (9, 1.101)])
    def test_williams_table(self, n, expected_b):
        assert legacy("williams", n) == pytest.approx(expected_b / Q75, abs=1e-12)

    def test_williams_formula(self):
        assert legacy("williams", 20) == pytest.approx((20 / 19.199) / Q75, abs=1e-12)

    def test_hayes_odd_n9(self):
        expected = 1.0 / (Q75 * (1.0 - 0.7635 / 9 - 0.565 / 81))
        assert legacy("hayes", 9) == pytest.approx(expected, abs=1e-12)

    def test_hayes_even(self):
        expected = 1.0 / (Q75 * (1.0 - 0.7612 / 10 - 1.123 / 100))
        assert legacy("hayes", 10) == pytest.approx(expected, abs=1e-12)

    def test_hayes_is_the_fitted_form_bit_for_bit(self):
        # The scheme's own expression, kept as the reference for its
        # _fitted_form(n, -alpha, -beta) spelling.
        for n in range(9, 100_001):
            alpha, beta = tables.HAYES_ODD if n % 2 else tables.HAYES_EVEN
            expected = 1.0 / (_Q75 * (1.0 - alpha / n - beta / (n * n)))
            assert legacy("hayes", n).hex() == expected.hex(), n

    def test_hayes_below_range(self):
        with pytest.raises(FactorRangeError, match="Hayes scheme requires n >= 9, got 8"):
            legacy("hayes", 8)

    def test_park_table_and_formulas(self):
        assert legacy("park", 2) == 1.7722
        assert legacy("park", 100) == 1.4942
        hayes_form = legacy("park", 200)
        # Park's other large-n form, A_n = -0.804168866 * n^(-1.008922).
        williams_form = 1.0 / (Q75 * (1.0 + -0.804168866 * 200 ** (-1.008922)))
        assert hayes_form == pytest.approx(williams_form, abs=1e-4)
        # near the tabulated 1.4883 at n=200
        assert hayes_form == pytest.approx(1.4883, abs=5e-4)

    @pytest.mark.parametrize("name", sorted(MODEL_CHOICES))
    def test_every_model_rejects_n_below_two(self, name):
        with pytest.raises(FactorRangeError):
            legacy(name, 1)

    def test_legacy_models_ignore_estimator_kind(self):
        for name in ("croux-rousseeuw", "williams", "hayes", "park"):
            assert legacy(name, 12, SM) == legacy(name, 12, HD)


class TestAsymptoticFactor:
    def test_value(self):
        assert asymptotic_factor() == pytest.approx(1.4826022185056, abs=1e-12)

    def test_reciprocal_identity(self):
        assert asymptotic_factor() * 0.674489750196082 == pytest.approx(1.0, abs=1e-12)

    def test_q75_is_correctly_rounded(self):
        # The same double on every Python: qnorm(0.75) to 60 digits,
        # rounded once.
        with mpmath.workdps(60):
            exact = float(mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(1) / 2))
        assert _Q75.hex() == "0x1.5956b87528a49p-1"
        assert _Q75 == exact
        assert asymptotic_factor() == 1.0 / exact


class TestMadCorrected:
    @pytest.mark.parametrize("call", [
        lambda: mad_corrected([1, 2, 3], "sm"),
        lambda: mad_uncorrected([1, 2, 3], "hd"),
        lambda: correction_factor(5, "hd"),
        lambda: correction_factor(5, "sm", MODEL_CHOICES["park"]),
    ])
    def test_refuses_an_estimator_that_is_not_a_median_estimator(self, call):
        with pytest.raises(DomainError, match="^the estimator must be a MedianEstimator, got '"):
            call()

    def test_two_points(self):
        result = mad_corrected([0, 1], SM)
        assert result.uncorrected == 0.5
        assert result.factor == math.sqrt(math.pi)
        assert result.corrected == pytest.approx(0.8862269254527579, abs=1e-12)

    def test_constant(self):
        assert mad_corrected([4.2] * 7, HD).corrected == pytest.approx(0.0, abs=1e-12)

    def test_product_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            x = rng.standard_normal(int(rng.integers(2, 40)))
            for kind in ALL_KINDS:
                r = mad_corrected(x, kind)
                assert r.corrected == pytest.approx(r.factor * r.uncorrected, rel=1e-12)

    def test_scale_translation_equivariance(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            x = rng.standard_normal(n)
            a = float(rng.uniform(-5, 5))
            if a == 0.0:
                a = 1.0
            b = float(rng.uniform(-100, 100))
            for kind in ALL_KINDS:
                base = mad_corrected(x, kind).corrected
                mapped = mad_corrected(a * x + b, kind).corrected
                assert mapped == pytest.approx(abs(a) * base, rel=1e-9, abs=1e-12)

    def test_large_sample_with_weights_past_the_old_iteration_cap(self):
        # hd and thd-sqrt weights at n = 1.6e6 need 510 iterations of the
        # Beta continued fraction; a fixed cap of 500 raised ArithmeticError.
        x = np.random.default_rng(23).standard_normal(1_600_000)
        for kind in (HD, THD_SQRT):
            result = mad_corrected(x, kind)
            assert result.factor_source == "fitted"
            assert result.corrected == pytest.approx(1.0, rel=0.01)

    def test_default_model_is_implicit(self):
        x = [1.0, 2.0, 4.0, 8.0]
        assert mad_corrected(x, SM).corrected == mad_corrected(x, SM, DEFAULT_MODEL).corrected

    @pytest.mark.parametrize(
        "n,source",
        [(2, "exact"), (3, "table"), (100, "table"), (101, "fitted"), (5000, "fitted")],
    )
    def test_factor_source_of_default_model(self, n, source):
        x = np.random.default_rng(n).standard_normal(n)
        for kind in ALL_KINDS:
            result = mad_corrected(x, kind)
            assert result.factor_source == source
            assert result.factor == correction_factor(n, kind)

    @pytest.mark.parametrize(
        "model",
        [MODEL_CHOICES["park"], MODEL_CHOICES["asymptotic"],
         lambda n, kind: 1.0 / (Q75 * (1.0 + 0.5 / n + 0.1 / (n * n)))],
    )
    def test_factor_source_of_other_models(self, model):
        for n in (2, 100, 101):
            assert mad_corrected(np.arange(float(n)), SM, model).factor_source == "model"
