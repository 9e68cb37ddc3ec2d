"""Acceptance gate: one test per release criterion, each printing a
PASS line with its headline numbers (run with ``pytest -v -s`` to see them).

Monte-Carlo criteria pin master seeds and repetition counts, so every run
is deterministic; tolerances come from closed-form targets, the built-in
tables, and delta-method standard errors computed by the runs themselves.
"""
import csv
import math
import random

import numpy as np
import pytest

from madkit import factor_tables as tables
from madkit import simulate
from madkit._kernel import mad0_batch
from madkit.cli import main as cli_main
from madkit.distributions import parse_spec
from madkit.mad import (
    _Q75,
    asymptotic_factor,
    correction_factor,
    factor_table,
    mad_corrected,
    mad_uncorrected,
)
from madkit.quantiles import (
    HD,
    SM,
    THD_SQRT,
    beta_hdi,
    hd_quantile,
    hd_weights,
    hf7_quantile,
    median,
    median_weights,
    thd,
    thd_quantile,
    thd_weights,
)
from madkit.simulate import (
    SimulationConfig,
    efficiency,
    estimate_factors,
    fit_embedded,
    sensitivity,
)
from madkit.specfun import BetaParams, reg_inc_beta

ALL_KINDS = (SM, HD, THD_SQRT)
KIND_TABLES = {
    "sm": tables.TABLES["sm"],
    "hd": tables.TABLES["hd"],
    "thd-sqrt": tables.TABLES["thd-sqrt"],
}


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_criterion_01_exact_constants():
    c_inf = asymptotic_factor()
    q75 = _Q75
    assert abs(c_inf - 1.4826022185056) <= 1e-12
    assert abs(q75 - 0.674489750196082) <= 1e-12
    report(f"PASS [1] constants: 1/qnorm(.75)={c_inf:.13f}, qnorm(.75)={q75:.15f}")


def test_criterion_02_exact_n2_factor():
    root_pi = math.sqrt(math.pi)
    for kind in ALL_KINDS:
        assert abs(correction_factor(2, kind) - root_pi) <= 1e-14
    report(f"PASS [2] n=2 factor is sqrt(pi)={root_pi:.14f} for all estimators")


def test_criterion_03_table_fidelity():
    assert correction_factor(3, SM) == 2.2049
    assert correction_factor(10, HD) == 1.5529
    assert correction_factor(20, THD_SQRT) == 1.5449
    assert factor_table("sm")[3000] == 1.4830
    # structural fidelity of every embedded table
    for table in (tables.TABLES["sm"], tables.TABLES["hd"], tables.TABLES["thd-sqrt"]):
        assert len(table) == 139
        assert all(n in table for n in range(2, 101))
        assert all(v == round(v, 4) for v in table.values())
    assert len(tables.TABLES["park"]) == 131
    assert max(
        abs(tables.TABLES["park"][n] - tables.TABLES["sm"][n]) for n in range(2, 101)
    ) <= 0.00065
    # the shipped CSV is bit-identical to the embedded constants
    columns = {"c_sm": tables.TABLES["sm"], "c_hd": tables.TABLES["hd"],
               "c_thd_sqrt": tables.TABLES["thd-sqrt"], "c_park": tables.TABLES["park"]}
    seen = {key: {} for key in columns}
    with tables.CSV_PATH.open("r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            for key in columns:
                if row[key]:
                    seen[key][int(row["n"])] = float(row[key])
    assert all(seen[key] == table for key, table in columns.items())
    report("PASS [3] embedded tables: spot values, 4-decimal fidelity, CSV identical")


def test_criterion_04_monte_carlo_factor_reproduction():
    config = SimulationConfig(
        sample_sizes=(2, 3, 5, 10), repetitions=1_000_000, master_seed=42
    )
    result = estimate_factors(config, threads=4)
    assert len(result.rows) == 12
    worst = 0.0
    for row in result.rows:
        target = math.sqrt(math.pi) if row.n == 2 else KIND_TABLES[row.estimator][row.n]
        tolerance = max(0.006, 5.0 * row.std_error)
        diff = abs(row.c_n - target)
        assert diff <= tolerance, (
            f"n={row.n} {row.estimator}: {row.c_n:.5f} vs {target:.5f} "
            f"(diff {diff:.5f} > tol {tolerance:.5f})"
        )
        worst = max(worst, diff / tolerance)
    report(f"PASS [4] 1e6-rep factors match tables at every (n, estimator); "
           f"worst diff/tol={worst:.2f}")


def test_criterion_05_structural_identities():
    rng = np.random.default_rng(1234)
    # (a) n=2: every estimator yields the identical raw MAD, element-wise
    x2 = rng.standard_normal((1000, 2)) * 3.0
    results = [mad0_batch(x2, median_weights(2, kind)) for kind in ALL_KINDS]
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])
    for row in x2[:25]:
        values = {kind.label: mad_uncorrected(row, kind) for kind in ALL_KINDS}
        assert len(set(values.values())) == 1, values
    # (b) n=4: the sqrt-width trimmed estimator collapses onto the sample
    # median, which is why both tables print the same factor there
    x4 = rng.standard_normal((1000, 4)) * 2.0
    med_sm = [median(r, SM) for r in x4]
    med_thd = [median(r, THD_SQRT) for r in x4]
    assert med_sm == med_thd
    assert tables.TABLES["sm"][4] == tables.TABLES["thd-sqrt"][4] == 2.0172
    report("PASS [5] structural identities: n=2 all-estimator collapse, "
           "n=4 thd-sqrt == sm (both tables print 2.0172)")


def test_criterion_06_efficiency_reproduction():
    config = SimulationConfig(
        sample_sizes=(2, 3, 4, 10), repetitions=10_000, master_seed=42
    )
    rows = {row.n: row for row in efficiency(config, threads=4).rows}
    assert rows[2].e_hd == pytest.approx(1.000, abs=0.01)
    assert rows[3].e_hd == pytest.approx(2.473, abs=0.35)
    assert rows[4].e_thd == pytest.approx(1.000, abs=0.05)
    assert rows[10].e_hd == pytest.approx(1.342, abs=0.12)
    report(f"PASS [6] efficiency: e_hd(2)={rows[2].e_hd:.3f}, "
           f"e_hd(3)={rows[3].e_hd:.3f}, e_thd(4)={rows[4].e_thd:.3f}, "
           f"e_hd(10)={rows[10].e_hd:.3f}")


def test_criterion_07_prediction_equation():
    fit = fit_embedded("sm", (100, 500))
    assert fit.alpha == pytest.approx(-0.7668, abs=0.02)
    assert fit.beta == pytest.approx(-2.1897, abs=0.5)
    table = factor_table("sm")
    errors = [abs(fit.predict(n) - c) for n, c in table.items() if 500 < n <= 3000]
    assert errors and max(errors) <= 1.5e-4
    report(f"PASS [7] fit: alpha={fit.alpha:.4f}, beta={fit.beta:.4f}, "
           f"extrapolation max err={max(errors):.2e} <= 1.5e-4")


def test_criterion_08_property_suites():
    # weight normalization across the whole small-sample range
    worst_sum = 0.0
    probabilities = [round(0.05 * k, 2) for k in range(1, 20)]
    for n in range(1, 201):
        width = 1.0 / math.sqrt(n)
        for p in probabilities:
            worst_sum = max(
                worst_sum,
                abs(hd_weights(n, p).sum() - 1.0),
                abs(thd_weights(n, p, width).sum() - 1.0),
            )
    assert worst_sum <= 1e-10

    # affine equivariance of quantiles and MAD under 1e3 random maps
    rng = np.random.default_rng(77)
    x = rng.standard_normal(11)
    p = 0.3
    base = {
        "hf7": hf7_quantile(x, p),
        "hd": hd_quantile(x, p),
        "thd": thd_quantile(x, p),
        "mad": {kind.label: mad_corrected(x, kind).corrected for kind in ALL_KINDS},
    }
    def tol(ref):
        return 1e-9 * max(1.0, abs(ref))

    for _ in range(1000):
        a = float(rng.uniform(0.01, 50.0))
        b = float(rng.uniform(-100.0, 100.0))
        y = a * x + b
        for name, fn in (("hf7", hf7_quantile), ("hd", hd_quantile), ("thd", thd_quantile)):
            ref = a * base[name] + b
            assert abs(fn(y, p) - ref) <= tol(ref)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        for kind in ALL_KINDS:
            ref = a * base["mad"][kind.label]
            assert abs(mad_corrected(sign * a * x + b, kind).corrected - ref) <= tol(ref)

    # incomplete-beta reflection identity on 1e4 random points: 100 v for
    # each of 100 random shape pairs, one array call per side (an array
    # call gives each point the bits of the float call on it)
    scalar_rng = random.Random(99)
    for _ in range(100):
        a = scalar_rng.uniform(0.05, 800.0)
        b = scalar_rng.uniform(0.05, 800.0)
        v = np.array([scalar_rng.random() for _ in range(100)])
        total = reg_inc_beta(v, BetaParams(a, b)) + reg_inc_beta(1.0 - v, BetaParams(b, a))
        assert np.abs(total - 1.0).max() <= 1e-12

    # HDI widths are exact; border cases pin to the support edge
    for _ in range(300):
        a = scalar_rng.uniform(1.05, 80.0)
        b = scalar_rng.uniform(1.05, 80.0)
        width = scalar_rng.uniform(0.02, 0.98)
        left, right = beta_hdi(BetaParams(a, b), width)
        assert abs((right - left) - width) <= 1e-9
    assert beta_hdi(BetaParams(0.9, 0.9), 0.4) is None
    assert beta_hdi(BetaParams(0.5, 3.0), 0.3) == (0.0, 0.3)
    assert beta_hdi(BetaParams(3.0, 0.5), 0.3) == (0.7, 1.0)
    assert beta_hdi(BetaParams(5.0, 9.0), 1.0) == (0.0, 1.0)
    report(f"PASS [8] properties: weight sums (worst {worst_sum:.1e}), "
           "affine equivariance, reflection identity, HDI widths")


def test_criterion_09_sensitivity_orderings():
    # On the Cauchy the sm and thd-sqrt spreads differ by about 0.4 %: over
    # 30 seeds the gap had z = 0.3 at 2000 repetitions, where the ordering
    # failed on about half the seeds, and z = 2.7 at 600,000.
    cauchy = parse_spec("cauchy(x0=0,gamma=1)")
    uniform = parse_spec("uniform(a=0,b=1)")
    config = SimulationConfig(
        sample_sizes=(5,),
        repetitions=600_000,
        master_seed=17,
        distributions=(cauchy, uniform),
    )
    result = sensitivity(config, threads=4)

    def dispersion(dist, estimator):
        return next(
            r.dispersion
            for r in result.rows
            if r.distribution == str(dist)
            and r.estimator == estimator
            and r.aggregator == "mad_sm"
        )

    c_sm, c_hd, c_thd = (dispersion(cauchy, e) for e in ("sm", "hd", "thd-sqrt"))
    assert c_sm < c_thd < c_hd, (c_sm, c_thd, c_hd)
    u_sm, u_hd = dispersion(uniform, "sm"), dispersion(uniform, "hd")
    assert u_hd < u_sm, (u_hd, u_sm)
    report(f"PASS [9] heavy-tail ordering sm<thd<hd on cauchy "
           f"({c_sm:.2f}<{c_thd:.2f}<{c_hd:.2f}); light-tail reversal hd<sm "
           f"on uniform ({u_hd:.2f}<{u_sm:.2f})")


def _csv_body(path) -> str:
    return "\n".join(
        line for line in path.read_text().splitlines() if not line.startswith("#")
    )


def test_criterion_10_determinism_across_threads(tmp_path, monkeypatch):
    # A small stream unit, so every cell spans several chunks.
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 1024)
    runs = {}
    for threads in (1, 4):
        out = tmp_path / f"factors_t{threads}.csv"
        code = cli_main([
            "factors", "--n", "2,3,5", "--reps", "20000", "--seed", "9",
            "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        runs[threads] = _csv_body(out)
    assert runs[1] == runs[4]

    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 128)
    sens = {}
    for threads in (1, 4):
        out = tmp_path / f"sens_t{threads}.csv"
        code = cli_main([
            "sensitivity", "--n", "5", "--reps", "1000", "--seed", "9",
            "--threads", str(threads),
            "--dist", "lognormal(mlog=0,sdlog=2),cauchy(x0=0,gamma=1)",
            "--out", str(out),
        ])
        assert code == 0
        sens[threads] = _csv_body(out)
    assert sens[1] == sens[4]
    report("PASS [10] CSV bodies byte-identical across --threads 1 and 4")
