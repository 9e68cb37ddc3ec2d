"""Simulation harness: determinism, report contracts, and statistical
agreement with the built-in tables at reduced scale (the acceptance suite
runs the full-scale versions)."""
import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import madkit.simulate as simulate
from madkit._kernel import mad0_batch
from madkit.distributions import RngStream, derive_stream_id, parse_spec
from madkit.errors import ConfigError
from madkit.mad import _Q75 as Q75
from madkit.mad import correction_factor, factor_table, mad_corrected
from madkit.quantiles import HD, SM, THD_SQRT, median_weights, thd
from madkit.simulate import (
    SimulationConfig,
    efficiency,
    estimate_factors,
    fit_embedded,
    fit_prediction,
    sensitivity,
)


def make_config(**overrides):
    base = dict(sample_sizes=(2, 5), repetitions=2000, master_seed=42)
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfig:
    def test_rejects_small_repetitions(self):
        with pytest.raises(ConfigError):
            make_config(repetitions=99)

    def test_rejects_empty_sizes(self):
        with pytest.raises(ConfigError):
            make_config(sample_sizes=())

    def test_rejects_n_below_two(self):
        with pytest.raises(ConfigError):
            make_config(sample_sizes=(1, 5))

    def test_rejects_empty_estimators(self):
        with pytest.raises(ConfigError):
            make_config(estimators=())

    def test_rejects_repeated_estimator(self):
        # A repeat would draw the same samples and compute the same rows twice.
        with pytest.raises(ConfigError, match="estimator hd is listed more than once"):
            make_config(estimators=(HD, SM, HD))
        make_config(estimators=(THD_SQRT, thd(0.5)))  # different widths are different

    def test_rejects_repeated_sample_size(self):
        with pytest.raises(ConfigError, match="sample size 5 is listed more than once"):
            make_config(sample_sizes=(3, 5, 4, 5, 3))

    def test_seed_range(self):
        # Philox keys are 64-bit: -1 and 2**64 + k would alias 2**64 - 1 and k.
        for seed in (-1, 2**64, 2**65 - 1):
            with pytest.raises(ConfigError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
                make_config(master_seed=seed)
        for seed in (0, 2**64 - 1):
            assert make_config(master_seed=seed).master_seed == seed

    def test_rejects_repeated_distribution(self):
        # Specs compare by family and parameter values, not by spelling.
        dists = (parse_spec("normal"), parse_spec("cauchy()"), parse_spec("normal(m=0,sd=1)"))
        with pytest.raises(ConfigError, match=r"distribution normal\(m=0,sd=1\) is listed"):
            make_config(distributions=dists)

    @pytest.mark.parametrize("field,scalar,items", [
        ("sample_sizes", 5, (2, 5)),
        ("estimators", SM, (SM, HD)),
        ("distributions", parse_spec("normal"), (parse_spec("normal"), parse_spec("cauchy"))),
    ])
    def test_tuple_field_takes_any_iterable_but_not_a_scalar(self, field, scalar, items):
        with pytest.raises(ConfigError, match=f"^{field} must be an iterable, got "):
            make_config(**{field: scalar})
        for iterable in (list(items), iter(items), (item for item in items)):
            assert getattr(make_config(**{field: iterable}), field) == items
        assert make_config(sample_sizes=range(2, 6, 3)).sample_sizes == (2, 5)

    def test_refuses_a_distribution_that_is_not_a_spec(self):
        # A label is not a spec: sensitivity would fail on it mid-run.
        with pytest.raises(ConfigError,
                           match="^each of distributions must be a DistributionSpec, got 'normal'$"):
            make_config(distributions=(parse_spec("cauchy"), "normal"))

    @pytest.mark.parametrize("estimators,bad", [(["sm"], "sm"), ((SM, "hd"), "hd")])
    def test_refuses_an_estimator_that_is_not_a_median_estimator(self, estimators, bad):
        # A label is not an estimator: a study would fail on it in median_weights.
        with pytest.raises(ConfigError,
                           match=f"^each of estimators must be a MedianEstimator, got {bad!r}$"):
            make_config(estimators=estimators)


    @pytest.mark.parametrize("field,value", [
        ("sample_sizes", (5.7,)), ("sample_sizes", (5.0,)), ("repetitions", 200.0),
        ("master_seed", 1.5), ("master_seed", "1"),
    ])
    def test_rejects_integer_field_that_is_not_an_integer(self, field, value):
        # 5.7 once ran as n = 5; the others failed in range() or the Philox key.
        shown = value[0] if field == "sample_sizes" else value
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {shown!r}"):
            make_config(**{field: value})

    def test_numpy_integer_fields_are_ints(self):
        cfg = make_config(sample_sizes=(np.int64(5), np.uint8(3)), repetitions=np.int32(200),
                          master_seed=np.uint64(2**64 - 1))
        assert cfg == make_config(sample_sizes=(5, 3), repetitions=200, master_seed=2**64 - 1)
        assert all(type(v) is int for v in (*cfg.sample_sizes, cfg.repetitions, cfg.master_seed))
        # A NumPy integer is a worker count too.
        assert estimate_factors(cfg, threads=np.int64(2)).rows == estimate_factors(cfg).rows


STUDIES = [
    (estimate_factors, {}),
    (efficiency, {}),
    (sensitivity, {"distributions": (parse_spec("normal"),)}),
]


class TestThreads:
    """The studies, not their callers, check the worker count."""

    @pytest.mark.parametrize("study,extra", STUDIES)
    @pytest.mark.parametrize("threads,message", [
        (0, "threads must be a positive integer, got 0"),
        (-3, "threads must be a positive integer, got -3"),
        (2.5, "threads must be an integer, got 2.5"),
        ("2", "threads must be an integer, got '2'"),
    ])
    def test_refuses_a_count_that_is_not_a_positive_integer(self, study, extra, threads,
                                                            message, monkeypatch):
        drawn = []
        monkeypatch.setattr(simulate, "RngStream", lambda *key: drawn.append(key))
        with pytest.raises(ConfigError, match=f"^{message}$"):
            study(make_config(sample_sizes=(5,), repetitions=200, **extra), threads=threads)
        assert drawn == []  # refused before any chunk ran


class TestEstimateFactors:
    def test_rows_and_invariant(self):
        report = estimate_factors(make_config())
        assert len(report.rows) == 2 * 3
        for row in report.rows:
            assert row.c_n * row.m_n == pytest.approx(1.0, abs=1e-12)
            assert row.repetitions == 2000
            assert row.std_error > 0.0

    def test_n2_recovers_sqrt_pi(self):
        report = estimate_factors(make_config(sample_sizes=(2,), repetitions=20_000))
        for row in report.rows:
            assert row.c_n == pytest.approx(math.sqrt(math.pi), abs=5 * row.std_error + 0.01)

    def test_deterministic_repeat(self):
        a = estimate_factors(make_config())
        b = estimate_factors(make_config())
        assert a.rows == b.rows

    def test_thread_count_invisible(self):
        a = estimate_factors(make_config(), threads=1)
        b = estimate_factors(make_config(), threads=4)
        assert a.rows == b.rows
        assert a.to_csv() == b.to_csv()

    def test_csv_shape(self):
        text = estimate_factors(make_config()).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,estimator,m_n,c_n,std_error,repetitions"
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "sm"

    def test_estimator_subset(self):
        report = estimate_factors(make_config(estimators=(SM,)))
        assert {row.estimator for row in report.rows} == {"sm"}

    def test_convergence_toward_table(self):
        # Doubling repetitions shrinks the median absolute error across seeds.
        table = factor_table("sm")
        errors = {2000: [], 8000: []}
        for seed in range(6):
            for reps in errors:
                report = estimate_factors(
                    SimulationConfig((5,), reps, seed, estimators=(SM,))
                )
                errors[reps].append(abs(report.rows[0].c_n - table[5]))
        assert np.median(errors[8000]) <= np.median(errors[2000])


def n3_quadrature(estimators, points=1 << 16):
    """Exact C_3 and var(MAD) / E[MAD]^2 of each estimator by midpoint quadrature.

    A standard-normal sample of 3, centred, is ``r * u`` with ``r`` ~ chi(2)
    and ``u`` uniform on the unit circle of the plane orthogonal to (1, 1, 1),
    independent.  The raw MAD is location-invariant and scale-equivariant,
    so E[MAD] = E[chi(2)] * E_u[MAD(u)], with E[chi(2)] = sqrt(pi / 2), and
    E[MAD^2] = E[chi(2)^2] * E_u[MAD(u)^2], with E[chi(2)^2] = n - 1 = 2.
    E_u is the mean over ``points`` equally spaced angles in a Helmert basis
    of the plane.  Returns the C_3 values, the relative variances, the
    ``(points, 3)`` samples and their ``(k, points)`` MADs.
    """
    theta = (np.arange(points) + 0.5) * (2 * math.pi / points)
    basis = np.array([[1, -1, 0], [1, 1, -2]]) / np.sqrt([[2], [6]])
    samples = np.column_stack([np.cos(theta), np.sin(theta)]) @ basis
    mads = mad0_batch(samples, np.stack([median_weights(3, est) for est in estimators]))
    mean = math.sqrt(math.pi / 2) * mads.mean(axis=1)
    return 1.0 / mean, 2 * (mads ** 2).mean(axis=1) / mean ** 2 - 1, samples, mads


class TestExactN3:
    """C_3 by quadrature on the circle: a reference no Monte-Carlo table gives."""

    ESTIMATORS = (SM, HD, THD_SQRT)

    def test_sm_mad_is_the_smaller_spacing(self):
        # The sample median of 3 is the middle point, so its MAD is the
        # smaller of the two spacings: a check of the helper without the kernel.
        _, _, samples, mads = n3_quadrature(self.ESTIMATORS)
        xs = np.sort(samples, axis=1)
        assert np.array_equal(mads[0], np.minimum(xs[:, 1] - xs[:, 0], xs[:, 2] - xs[:, 1]))

    # Efficiency at exact factors, var(MAD_sm) / E[MAD_sm]^2 over the same
    # for hd and for thd-sqrt.
    EFFICIENCY = (2.485018, 2.337044)

    def test_values_agree_with_the_shipped_table(self):
        exact, relvar, _, _ = n3_quadrature(self.ESTIMATORS)
        assert exact == pytest.approx([2.20496261, 1.56825186, 1.64553813], abs=1e-8)
        for est, c_3 in zip(self.ESTIMATORS, exact):
            assert abs(c_3 - factor_table(est.label)[3]) <= 1e-4, est
        assert relvar[0] / relvar[1:] == pytest.approx(self.EFFICIENCY, abs=1e-6)

    def test_monte_carlo_estimate_lies_within_four_standard_errors(self):
        exact, _, _, _ = n3_quadrature(self.ESTIMATORS)
        rows = estimate_factors(SimulationConfig((3,), 200_000, 1), threads=1).rows
        for row, c_3 in zip(rows, exact):
            assert abs(row.c_n - c_3) <= 4 * row.std_error, (row, c_3)


def n4_quadrature(estimators, polar=1000, azimuthal=2000):
    """Exact C_4 and var(MAD) / E[MAD]^2 of each estimator by midpoint quadrature on the sphere.

    As in ``n3_quadrature``, with ``u`` uniform on the unit 2-sphere of the
    space orthogonal to (1, 1, 1, 1), E[chi(3)] = 2 sqrt(2 / pi) and
    E[chi(3)^2] = 3.  E_u is the mean over a midpoint grid of ``polar`` x
    ``azimuthal`` angles in a Helmert basis of that space, each point
    weighted by the sine of its polar angle, the sphere's area element.
    """
    basis = np.array([[1, -1, 0, 0], [1, 1, -2, 0], [1, 1, 1, -3]]) / np.sqrt([[2], [6], [12]])
    weights = np.stack([median_weights(4, est) for est in estimators])
    phi = (np.arange(azimuthal) + 0.5) * (2 * math.pi / azimuthal)
    circle = np.column_stack([np.cos(phi), np.sin(phi)])
    total, squares, area = np.zeros(len(estimators)), np.zeros(len(estimators)), 0.0
    for theta in (np.arange(polar) + 0.5) * (math.pi / polar):
        ring = np.column_stack([math.sin(theta) * circle, np.full(azimuthal, math.cos(theta))])
        mads = mad0_batch(ring @ basis, weights)
        total += mads.sum(axis=1) * math.sin(theta)
        squares += (mads ** 2).sum(axis=1) * math.sin(theta)
        area += azimuthal * math.sin(theta)
    mean = 2 * math.sqrt(2 / math.pi) * total / area
    return 1.0 / mean, 3 * squares / area / mean ** 2 - 1


class TestExactN4:
    """C_4 by quadrature on the sphere: a reference no Monte-Carlo table gives."""

    ESTIMATORS = (SM, HD, THD_SQRT)
    # sm's and thd-sqrt's weights at n = 4 are both (0, 1/2, 1/2, 0).  The
    # grid of 1000 x 2000 angles reads 2.01717937 and 1.59590043; 2000 x
    # 4000 reads 2.01717884 and 1.59590028, and 4000 x 8000 2.01717870 and
    # 1.59590024, so the coarse grid lies within 1e-6 of these values.
    EXACT = (2.017179, 1.595900, 2.017179)
    # Efficiency at exact factors, as in TestExactN3.  hd's reads 1.6005495
    # on the grid of 1000 x 2000 angles, 1.6005479 on 2000 x 4000 and
    # 1.6005476 on 4000 x 8000.
    EFFICIENCY = (1.600548, 1.0)

    def test_values_agree_with_the_shipped_table(self):
        exact, relvar = n4_quadrature(self.ESTIMATORS)
        assert exact == pytest.approx(self.EXACT, abs=2e-6)
        for est, c_4 in zip(self.ESTIMATORS, exact):
            assert abs(c_4 - factor_table(est.label)[4]) <= 1e-4, est
        assert relvar[0] / relvar[1:] == pytest.approx(self.EFFICIENCY, abs=2e-6)

    def test_monte_carlo_estimate_lies_within_four_standard_errors(self):
        rows = estimate_factors(SimulationConfig((4,), 200_000, 1), threads=1).rows
        for row, c_4 in zip(rows, self.EXACT):
            assert abs(row.c_n - c_4) <= 4 * row.std_error, (row, c_4)


class TestEfficiency:
    def test_requires_sm_baseline(self):
        with pytest.raises(ConfigError):
            efficiency(make_config(estimators=(HD, THD_SQRT)))

    @pytest.mark.parametrize("estimators", [
        (SM,), (SM, HD), (SM, THD_SQRT, HD), (SM, HD, thd(0.5)), (SM, HD, THD_SQRT, thd(0.5)),
    ])
    def test_takes_only_the_default_trio(self, estimators):
        with pytest.raises(ConfigError, match="takes no estimator list"):
            efficiency(make_config(estimators=estimators))

    def test_n2_ratios_exactly_one(self):
        report = efficiency(make_config(sample_sizes=(2,), repetitions=1000))
        row = report.rows[0]
        assert row.e_hd == 1.0 and row.e_thd == 1.0
        assert row.var_sm == row.var_hd == row.var_thd

    def test_n4_thd_identity(self):
        report = efficiency(make_config(sample_sizes=(4,), repetitions=1000))
        assert report.rows[0].e_thd == 1.0

    def test_n3_n4_lie_within_four_standard_deviations_of_quadrature(self):
        # The report's shipped factors differ from the exact ones in the
        # fifth digit, far below these spreads.  Over seeds 1-8 at 200,000
        # reps the SD was 0.0102 for e_hd and 0.0068 for e_thd at n = 3,
        # and 0.0025 for e_hd at n = 4; e_thd(4) is 1 at every seed.
        sd = {3: (0.0102, 0.0068), 4: (0.0025, 0.0)}
        exact = {3: TestExactN3.EFFICIENCY, 4: TestExactN4.EFFICIENCY}
        for row in efficiency(SimulationConfig((3, 4), 200_000, 1)).rows:
            for got, want, spread in zip((row.e_hd, row.e_thd), exact[row.n], sd[row.n]):
                assert abs(got - want) <= 4 * spread, (row, want)

    def test_ratio_consistency(self):
        report = efficiency(make_config(sample_sizes=(3, 10), repetitions=3000))
        for row in report.rows:
            assert row.e_hd == pytest.approx(row.var_sm / row.var_hd, rel=1e-12)
            assert row.e_thd == pytest.approx(row.var_sm / row.var_thd, rel=1e-12)

    def test_csv_header(self):
        text = efficiency(make_config(sample_sizes=(2,), repetitions=500)).to_csv()
        assert text.startswith("n,var_sm,var_hd,var_thd,e_hd,e_thd\n")

    def test_thread_count_invisible(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 512)
        cfg = make_config(sample_sizes=(3,), repetitions=3000)
        assert efficiency(cfg, threads=1).rows == efficiency(cfg, threads=3).rows

    @pytest.mark.parametrize("threads", [1, 2])
    def test_reads_the_factor_study(self, threads, monkeypatch):
        # var = C_n**2 * var(MAD) on the samples behind the factor rows,
        # across the table -> equation switch at n = 100/101.
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 1000)
        cfg = SimulationConfig((2, 3, 4, 100, 101), 3000, 7)
        factors = {(row.n, row.estimator): row for row in estimate_factors(cfg, threads).rows}
        for row in efficiency(cfg, threads).rows:
            for est, var in zip((SM, HD, THD_SQRT), row[1:4]):
                f = factors[row.n, est.label]
                assert var / correction_factor(row.n, est) ** 2 == pytest.approx(
                    f.repetitions * (f.std_error * f.m_n ** 2) ** 2, rel=1e-12), (row.n, est)


class TestSensitivity:
    def test_requires_distributions(self):
        with pytest.raises(ConfigError):
            sensitivity(make_config())

    def test_report_shape_and_labels(self):
        cfg = make_config(
            sample_sizes=(5,),
            repetitions=300,
            distributions=(parse_spec("normal()"), parse_spec("cauchy()")),
        )
        report = sensitivity(cfg)
        assert len(report.rows) == 2 * 1 * 3 * 3
        assert {r.aggregator for r in report.rows} == {"sd", "iqr", "mad_sm"}
        assert {r.distribution for r in report.rows} == {
            "normal(m=0,sd=1)",
            "cauchy(x0=0,gamma=1)",
        }
        assert all(r.dispersion >= 0.0 for r in report.rows)

    def test_point_mass_gives_zero_dispersion(self):
        cfg = make_config(
            sample_sizes=(5,), repetitions=200,
            distributions=(parse_spec("constant(value=7)"),),
        )
        report = sensitivity(cfg)
        assert all(r.dispersion == 0.0 for r in report.rows)

    def test_deterministic_across_threads(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 128)
        cfg = make_config(
            sample_sizes=(5,), repetitions=500,
            distributions=(parse_spec("lognormal(mlog=0,sdlog=2)"),),
        )
        assert sensitivity(cfg, threads=1).rows == sensitivity(cfg, threads=4).rows

    def test_normal_sm_dispersion_level(self):
        # Ballpark for the corrected sample-median MAD spread at n=5 under
        # the standard normal.
        cfg = make_config(
            sample_sizes=(5,), repetitions=2000, master_seed=17,
            distributions=(parse_spec("normal(m=0,sd=1)"),),
        )
        report = sensitivity(cfg)
        value = next(
            r.dispersion for r in report.rows
            if r.estimator == "sm" and r.aggregator == "mad_sm"
        )
        assert value == pytest.approx(0.53, abs=0.1)

    def test_csv_header(self):
        cfg = make_config(
            sample_sizes=(5,), repetitions=200,
            distributions=(parse_spec("uniform"),),
        )
        text = sensitivity(cfg).to_csv()
        assert text.startswith("distribution,n,estimator,aggregator,dispersion\n")


class TestFitPrediction:
    def test_exact_model_recovery(self):
        alpha0, beta0 = -0.5, -3.0
        table = {
            n: 1.0 / (Q75 * (1.0 + alpha0 / n + beta0 / n**2))
            for n in range(101, 501, 7)
        }
        fit = fit_prediction(table, (100, 500), "synthetic")
        assert fit.alpha == pytest.approx(alpha0, abs=1e-9)
        assert fit.beta == pytest.approx(beta0, abs=1e-9)
        assert fit.residual_max < 1e-12

    def test_embedded_sm_matches_published_coefficients(self):
        fit = fit_embedded("sm")
        assert fit.alpha == pytest.approx(-0.7668, abs=0.02)
        assert fit.beta == pytest.approx(-2.1897, abs=0.5)
        assert fit.estimator == "sm"

    def test_embedded_hd_and_thd(self):
        # Wider bands: refitting on 4-decimal rounded tables shifts beta
        # by up to ~0.8 for hd.
        fit_hd = fit_embedded("hd")
        assert fit_hd.alpha == pytest.approx(-0.4912, abs=0.02)
        assert fit_hd.beta == pytest.approx(-7.6350, abs=1.0)
        fit_thd = fit_embedded("thd-sqrt")
        assert fit_thd.alpha == pytest.approx(-0.6954, abs=0.02)
        assert fit_thd.beta == pytest.approx(-4.9261, abs=1.0)

    def test_embedded_park(self):
        fit = fit_embedded("park")
        assert fit.alpha == pytest.approx(-0.7591, abs=0.02)

    def test_extrapolation_beyond_fit_range(self):
        fit = fit_embedded("sm")
        table = factor_table("sm")
        errs = [abs(fit.predict(n) - c) for n, c in table.items() if 500 < n <= 3000]
        assert errs and max(errs) <= 1.5e-4

    def test_insufficient_points(self):
        with pytest.raises(ConfigError):
            fit_prediction({110: 1.49, 120: 1.49}, (100, 500))

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            fit_prediction({110: 1.49}, (500, 100))

    def test_csv_row(self):
        text = fit_embedded("sm").to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "estimator,alpha,beta,residual_max,n_low,n_high"
        assert lines[1].startswith("sm,-0.76")

    def test_fit_from_report(self, monkeypatch):
        # A simulated FactorReport feeds the same fitting path.
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 1024)
        config = SimulationConfig(tuple(range(101, 160, 7)), 3000, 7, estimators=(SM,))
        report = estimate_factors(config)
        factors = {r.n: r.c_n for r in report.rows if r.estimator == "sm"}
        fit = fit_prediction(factors, (100, 160), "sm")
        assert math.isfinite(fit.alpha) and math.isfinite(fit.beta)


class TestStreamContract:
    """Each value rebuilt chunk by chunk from the streams the module docstring names.

    Chunk i of a cell draws from ``RngStream(seed, derive_stream_id(*key, i))``
    with key (1, n) for factors and (3, spec key, n) for sensitivity, the
    spec key being the first 8 bytes, little-endian, of the SHA-256 of the
    family and the ``float.hex`` of each parameter.  The cells checked are
    not the first of their loops.  ``_CHUNK_ROWS`` is set small, so a few
    hundred repetitions make several chunks.
    """

    @staticmethod
    def chunk_streams(seed, key, counts):
        return [
            RngStream(seed, derive_stream_id(*key, i)).generator() for i in range(len(counts))
        ]

    def test_factor_mean_from_chunks(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 128)
        cfg = SimulationConfig((3, 5), 300, 21, estimators=(SM, HD))
        counts = (128, 128, 44)
        row = estimate_factors(cfg).rows[3]
        assert (row.n, row.estimator) == (5, "hd")
        weights = median_weights(5, HD)
        sums = [
            float(np.sum(mad0_batch(rng.standard_normal((count, 5)), weights)))
            for rng, count in zip(self.chunk_streams(21, (1, 5), counts), counts)
        ]
        assert row.m_n == math.fsum(sums) / 300

    def test_sensitivity_sd_from_chunks(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 100)
        dists = (parse_spec("normal()"), parse_spec("student(df=3)"))
        cfg = SimulationConfig((4, 7), 250, 5, estimators=(SM, THD_SQRT), distributions=dists)
        counts = (100, 100, 50)
        row = next(
            r for r in sensitivity(cfg).rows
            if (r.distribution, r.n, r.estimator, r.aggregator)
            == ("student(df=3)", 7, "thd-sqrt", "sd")
        )
        spec_key = int.from_bytes(
            hashlib.sha256(b"student 0x1.8000000000000p+1").digest()[:8], "little")
        weights = median_weights(7, THD_SQRT)
        estimates = np.concatenate([
            mad0_batch(dists[1].draw(rng, (count, 7)), weights)
            for rng, count in zip(self.chunk_streams(5, (3, spec_key, 7), counts), counts)
        ]) * correction_factor(7, THD_SQRT)
        assert row.dispersion == float(np.std(estimates, ddof=1))

    @pytest.mark.parametrize("study", ["factors", "sensitivity"])
    def test_draws_fill_the_threads_one_sample_buffer(self, study, monkeypatch):
        # The samples live only for their block, so every draw of a study
        # thread fills the start of its kernel scratch's second buffer, at
        # a wire width and a wide one.
        from madkit import _kernel
        from madkit.distributions import DistributionSpec

        owner, name = ((simulate, "_normal_matrix") if study == "factors"
                       else (DistributionSpec, "draw"))
        draw = getattr(owner, name)
        seen = []

        def recording_draw(*args, **kwargs):
            out = kwargs.get("out", args[-1])
            seen.append((out, _kernel._block_buffers(out.shape[1])[1]))
            return draw(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording_draw)
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 100)
        cfg = make_config(sample_sizes=(7, 30), repetitions=300,
                          distributions=(parse_spec("student(df=3)"),))
        (estimate_factors if study == "factors" else sensitivity)(cfg, threads=1)
        # Each of the 2 x 3 chunks is one block, drawn once.
        assert len(seen) == 6
        assert all(out.ctypes.data == second.ctypes.data for out, second in seen)

    def test_a_worker_holds_one_kernel_block_of_samples(self, monkeypatch):
        # A chunk of 2000 rows at n = 1000 is drawn and run through the
        # kernel in blocks of 131 rows, so a draw never fills the chunk's
        # 2e6 values, for the families drawn by NumPy's own samplers too,
        # and the worker's scratch is one array: the kernel's, which holds
        # the block.
        from madkit import _kernel
        from madkit.distributions import DistributionSpec

        draw = DistributionSpec.draw
        seen = []

        def recording_draw(*args, **kwargs):
            out = kwargs["out"]
            held = dict(vars(_kernel._scratch))
            seen.append((out.shape, held.keys(), np.shares_memory(out, held["values"])))
            return draw(*args, **kwargs)

        monkeypatch.setattr(DistributionSpec, "draw", recording_draw)
        dists = tuple(parse_spec(t) for t in ("beta(a=2,b=4)", "student(df=3)", "uniform()"))
        cfg = SimulationConfig((1000,), 2000, 1, estimators=(SM,), distributions=dists)
        assert simulate._CHUNK_ROWS >= 2000  # the shipped unit: one chunk
        sensitivity(cfg, threads=1)
        block = _kernel._block_rows(1000)
        assert block == 131
        assert [shape for shape, _, _ in seen] == ([(block, 1000)] * 15 + [(35, 1000)]) * 3
        assert all(keys == {"values"} and shared for _, keys, shared in seen)

    def test_a_narrow_chunk_is_one_kernel_call(self, monkeypatch):
        # Rows of 2 to 12 values take the wire path in blocks of a whole
        # chunk, so at n = 10 and 12 (two blocks of 2**17 values before)
        # a chunk is drawn once and run through the kernel in one call.
        from madkit import _kernel

        blocks = []
        wires = _kernel._mad_wires

        def recording_wires(block, *rest):
            blocks.append(block.shape)
            return wires(block, *rest)

        monkeypatch.setattr(_kernel, "_mad_wires", recording_wires)
        size = simulate._CHUNK_ROWS
        estimate_factors(make_config(sample_sizes=(10, 12), repetitions=size + 100), threads=1)
        assert blocks == [(size, 10), (100, 10), (size, 12), (100, 12)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_study_leaves_the_calling_threads_scratch_as_it_was(self, threads, monkeypatch):
        # The chunks run on pool workers at every thread count, so the
        # calling thread's scratch is neither used, grown nor dropped.
        from madkit import _kernel

        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 100)

        def run():
            held = _kernel.thread_scratch(1500)
            estimate_factors(make_config(sample_sizes=(3, 5), repetitions=200), threads=threads)
            return held, dict(vars(_kernel._scratch))

        with ThreadPoolExecutor(max_workers=1) as pool:
            held, after = pool.submit(run).result()
        assert after.keys() == {"values"}
        assert after["values"] is held

    @pytest.mark.parametrize("study,extra", STUDIES)
    def test_one_thread_draws_on_one_worker_not_the_caller(self, study, extra, monkeypatch):
        from madkit.distributions import DistributionSpec

        drawers = []
        for owner, name in ((simulate, "_normal_matrix"), (DistributionSpec, "draw")):
            draw = getattr(owner, name)

            def recording(*args, draw=draw, **kwargs):
                drawers.append(threading.current_thread())
                return draw(*args, **kwargs)

            monkeypatch.setattr(owner, name, recording)
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 100)
        study(make_config(sample_sizes=(3, 5), repetitions=300, **extra), threads=1)
        assert len(drawers) == 6
        assert len(set(drawers)) == 1
        assert drawers[0] is not threading.current_thread()


class TestSubsetRuns:
    """A row depends on its own cell only: not on which other estimators or
    distributions share the run, nor on their order."""

    DISTS = tuple(parse_spec(t) for t in (
        "normal()", "cauchy(x0=0,gamma=1)", "triangular(a=0,b=2,c=0.2)", "student(df=3)"))

    @pytest.fixture(autouse=True)
    def several_chunks(self, monkeypatch):
        # So a few hundred repetitions make several chunks per cell.
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 128)

    def test_one_estimator_factor_run_is_its_rows_of_the_full_run(self):
        cfg = make_config(sample_sizes=(2, 3, 5, 10), repetitions=700)
        full = estimate_factors(cfg).rows
        for est in (SM, HD, THD_SQRT):
            alone = estimate_factors(make_config(sample_sizes=(2, 3, 5, 10), repetitions=700,
                                                 estimators=(est,))).rows
            assert alone == tuple(r for r in full if r.estimator == est.label)
        reordered = estimate_factors(make_config(sample_sizes=(2, 3, 5, 10), repetitions=700,
                                                 estimators=(THD_SQRT, thd(0.5), SM))).rows
        assert (sorted(r for r in reordered if r.estimator != "thd(0.5)")
                == sorted(r for r in full if r.estimator != "hd"))

    def test_n2_rows_equal_for_every_estimator(self):
        # One draw serves every estimator, and every estimator's median of
        # two points is their midpoint with weights (0.5, 0.5).
        rows = estimate_factors(make_config(sample_sizes=(2, 3), repetitions=3000)).rows
        assert [r.estimator for r in rows[:3]] == ["sm", "hd", "thd-sqrt"]
        assert rows[0][2:] == rows[1][2:] == rows[2][2:]
        assert rows[3][2:] != rows[4][2:]

    def sensitivity_rows(self, dists, threads=1):
        cfg = make_config(sample_sizes=(3, 8), repetitions=300, distributions=dists)
        return sensitivity(cfg, threads=threads).rows

    def test_one_distribution_run_is_its_rows_of_the_full_run(self):
        full = self.sensitivity_rows(self.DISTS)
        for dist in self.DISTS:
            alone = self.sensitivity_rows((dist,))
            assert alone == tuple(r for r in full if r.distribution == str(dist))

    def test_reordering_distributions_only_reorders_rows(self):
        full = self.sensitivity_rows(self.DISTS)
        order = (2, 0, 3, 1)
        reordered = self.sensitivity_rows(tuple(self.DISTS[i] for i in order), threads=2)
        blocks = [tuple(r for r in full if r.distribution == str(d)) for d in self.DISTS]
        assert reordered == tuple(r for i in order for r in blocks[i])

    def test_spelling_of_a_distribution_is_not_part_of_its_key(self):
        spelled = (parse_spec("Normal(sd=1)"), parse_spec("exponential"))
        canonical = (parse_spec("normal(m=0,sd=1)"), parse_spec("exp(rate=1)"))
        assert self.sensitivity_rows(spelled) == self.sensitivity_rows(canonical)

    def test_negative_zero_parameter_is_not_part_of_its_key(self):
        # -0.0 == 0.0, so the two specs are one distribution: one stream, one label.
        signed = (parse_spec("normal(m=-0,sd=1)"), parse_spec("uniform(a=-0.0,b=1)"))
        unsigned = (parse_spec("normal(m=0,sd=1)"), parse_spec("uniform(a=0,b=1)"))
        assert [simulate._spec_key(d) for d in signed] == [simulate._spec_key(d) for d in unsigned]
        assert self.sensitivity_rows(signed) == self.sensitivity_rows(unsigned)

    def test_sensitivity_body_does_not_depend_on_the_hash_seed(self):
        # The builtin str hash is salted per process; a key built from it
        # would change with PYTHONHASHSEED.  The child sets the class's small
        # unit before it runs the command.
        import madkit

        run = ("import sys, madkit.simulate; madkit.simulate._CHUNK_ROWS = 128; "
               "from madkit.cli import main; sys.exit(main(sys.argv[1:]))")
        argv = [sys.executable, "-c", run, "sensitivity", "--n", "3,5",
                "--reps", "300", "--seed", "4",
                "--dist", "normal(),pareto(loc=1,shape=2),lognormal(mlog=0,sdlog=2)"]
        src = os.path.dirname(os.path.dirname(madkit.__file__))
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 2 + 3 * 2 * 3 * 3


class TestNoBlasThreads:
    """A single-threaded call keeps to one CPU.

    The hot paths make no BLAS call: OpenBLAS threads a matrix-vector
    product on wide rows and a dot product over more than 10,000 values,
    and its idle workers spin-wait, so process CPU time ran at 1.7-1.9x
    the wall time.  On a one-CPU host the ratio stays under 1 either way.
    """

    @staticmethod
    def cpu_per_wall(call) -> float:
        call()  # warm-up: weight caches and first-use allocations
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(3):
            call()
        return (time.process_time() - cpu) / (time.perf_counter() - wall)

    def test_estimate_factors(self):
        cfg = SimulationConfig((5,), 200_000, 1)
        assert self.cpu_per_wall(lambda: estimate_factors(cfg, threads=1)) <= 1.3

    def test_sensitivity_wide_rows(self):
        cfg = SimulationConfig(
            (100,), 32768, 1, distributions=(parse_spec("normal(m=0,sd=1)"),)
        )
        assert self.cpu_per_wall(lambda: sensitivity(cfg, threads=1)) <= 1.3

    def test_mad_corrected_large_n(self):
        x = np.random.default_rng(3).standard_normal(100_000)

        def call():
            for _ in range(20):
                mad_corrected(x, HD)

        assert self.cpu_per_wall(call) <= 1.3


class TestWorkerCount:
    """One pool per study, fed every cell's chunks in report order."""

    @pytest.fixture(autouse=True)
    def several_chunks(self, monkeypatch):
        # So a few hundred repetitions make several chunks per cell.
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 100)

    @pytest.fixture
    def pools(self, monkeypatch):
        asked = []
        real = simulate.ThreadPoolExecutor

        def recording(max_workers):
            asked.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording)
        return asked

    def test_pool_capped_at_chunk_count(self, pools):
        estimate_factors(make_config(sample_sizes=(3,), repetitions=200, estimators=(SM,)),
                         threads=64)
        assert pools == [2]

    def test_one_pool_for_every_cell(self, pools):
        cfg = make_config(sample_sizes=(3, 5), repetitions=300)
        report = estimate_factors(cfg, threads=2)
        assert pools == [2]
        assert report.rows == estimate_factors(cfg, threads=1).rows
        assert pools == [2, 1]  # one thread is a pool of one worker

    def test_reads_items_only_a_window_ahead(self):
        fed = []

        def items():
            for i in itertools.count():
                fed.append(i)
                yield i

        results = simulate._map_ordered(lambda i: i * i, items(), 2)
        try:
            assert [next(results) for _ in range(5)] == [0, 1, 4, 9, 16]
            assert len(fed) <= 5 + 2 * 2
        finally:
            results.close()

    @pytest.mark.parametrize("where", ["chunk", "aggregation"])
    def test_failure_in_cell_two_stops_the_pool(self, where, monkeypatch):
        # Three cells of ten chunks each; cell two fails in its first chunk
        # or in its aggregation.
        started, workers = [], set()
        lock = threading.Lock()
        draw = simulate._normal_matrix

        def recording_draw(rng, out):
            with lock:
                started.append(out.shape[1])
                workers.add(threading.current_thread())
            if where == "chunk" and out.shape[1] == 5:
                raise RuntimeError("chunk failed")
            return draw(rng, out)

        moments = simulate._mean_variance
        calls = []

        def failing_moments(parts, reps):
            calls.append(len(parts))
            if where == "aggregation" and len(calls) == 2:
                raise RuntimeError("aggregation failed")
            return moments(parts, reps)

        monkeypatch.setattr(simulate, "_normal_matrix", recording_draw)
        monkeypatch.setattr(simulate, "_mean_variance", failing_moments)
        cfg = make_config(sample_sizes=(3, 5, 7), repetitions=1000, estimators=(SM,))
        with pytest.raises(RuntimeError, match=f"{where} failed"):
            estimate_factors(cfg, threads=2)
        # Chunks whose results were read before the failure, plus the window.
        consumed = 10 if where == "chunk" else 20
        assert started.count(3) == 10
        assert len(started) <= consumed + 2 * 2 < 30
        assert workers and not any(t.is_alive() for t in workers)
        assert threading.current_thread() not in workers

    def test_sensitivity_csv_same_at_any_thread_count(self):
        dists = tuple(parse_spec(t) for t in ("normal()", "cauchy()", "triangular(a=0,b=2,c=0.2)"))
        cfg = make_config(sample_sizes=(4, 30), repetitions=500, distributions=dists)
        one, two, three = (sensitivity(cfg, threads=t).to_csv() for t in (1, 2, 3))
        assert one == two == three
        assert len(one.splitlines()) == 1 + 3 * 2 * 3 * 3
