"""Monte-Carlo studies: factor estimation, efficiency, outlier sensitivity,
and the least-squares fit of the large-n prediction equation.

Every study is deterministic given its configuration.  Repetitions are
split into chunks of ``chunk_size``; chunk i of a cell draws its samples
from the Philox stream ``RngStream(master_seed, derive_stream_id(*key,
i))``, and partial results are reduced in chunk order.  A cell's key
starts with its study's tag:

* factors: ``(1, n, estimator index)``
* efficiency: ``(2, n)``, one draw for sm, hd and thd-sqrt
* sensitivity: ``(3, distribution index, n)``, one draw for all estimators

where an index is the position in the configured tuple.  Worker-thread
count therefore never affects the output, only the wall time.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from madkit._kernel import mad0_batch, release_thread_scratch, thread_scratch
from madkit.distributions import DistributionSpec, RngStream, derive_stream_id
from madkit.errors import ConfigError, InternalCheckError
from madkit.mad import DEFAULT_MODEL, correction_factor, factor_table, mad_corrected
from madkit.quantiles import (
    HD,
    SM,
    THD_SQRT,
    MedianEstimator,
    Sample,
    hf7_quantile,
    median_weights,
)
from madkit.specfun import normal_quantile

__all__ = [
    "SimulationConfig",
    "FactorRow",
    "FactorReport",
    "EfficiencyRow",
    "EfficiencyReport",
    "SensitivityRow",
    "SensitivityReport",
    "FitResult",
    "estimate_factors",
    "efficiency",
    "sensitivity",
    "fit_prediction",
    "fit_embedded",
]

_FLOAT_FMT = "%.10g"

# Study tags folded into stream derivation so different studies never share
# sample streams under one master seed.
_TAG_FACTORS = 1
_TAG_EFFICIENCY = 2
_TAG_SENSITIVITY = 3


@dataclass(frozen=True)
class SimulationConfig:
    """Shared Monte-Carlo configuration.

    ``chunk_size`` is the repetition count per work unit and is part of the
    reproducibility contract: the same config gives bit-identical reports,
    any thread count.  No estimator or distribution may repeat, because a
    stream key holds its position and a repeat would draw other samples; a
    repeated sample size would only compute the same rows twice.
    """

    sample_sizes: tuple[int, ...]
    repetitions: int
    master_seed: int
    estimators: tuple[MedianEstimator, ...] = (SM, HD, THD_SQRT)
    distributions: tuple[DistributionSpec, ...] = ()
    chunk_size: int = 16384

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "distributions", tuple(self.distributions))
        if not self.sample_sizes:
            raise ConfigError("sample_sizes must not be empty")
        if any(n < 2 for n in self.sample_sizes):
            raise ConfigError("every sample size must be >= 2")
        if self.repetitions < 100:
            raise ConfigError(
                f"repetitions must be >= 100 for a meaningful report, got {self.repetitions}"
            )
        if not self.estimators:
            raise ConfigError("estimators must not be empty")
        for kind, items in (("sample size", self.sample_sizes), ("estimator", self.estimators),
                            ("distribution", self.distributions)):
            repeats = [item for i, item in enumerate(items) if item in items[:i]]
            if repeats:
                raise ConfigError(f"{kind} {repeats[0]} is listed more than once")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be positive")


class FactorRow(NamedTuple):
    n: int
    estimator: str
    m_n: float
    c_n: float
    std_error: float
    repetitions: int


class EfficiencyRow(NamedTuple):
    n: int
    var_sm: float
    var_hd: float
    var_thd: float
    e_hd: float
    e_thd: float


class SensitivityRow(NamedTuple):
    distribution: str
    n: int
    estimator: str
    aggregator: str
    dispersion: float


def _csv(header: str, rows: Iterable[tuple]) -> str:
    lines = [header]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(_FLOAT_FMT % value)
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FactorReport:
    rows: tuple[FactorRow, ...]
    config: SimulationConfig

    def to_csv(self) -> str:
        return _csv("n,estimator,m_n,c_n,std_error,repetitions", self.rows)

    def factors(self, estimator_label: str) -> dict[int, float]:
        return {r.n: r.c_n for r in self.rows if r.estimator == estimator_label}


@dataclass(frozen=True)
class EfficiencyReport:
    rows: tuple[EfficiencyRow, ...]
    config: SimulationConfig

    def to_csv(self) -> str:
        return _csv("n,var_sm,var_hd,var_thd,e_hd,e_thd", self.rows)


@dataclass(frozen=True)
class SensitivityReport:
    rows: tuple[SensitivityRow, ...]
    config: SimulationConfig

    def to_csv(self) -> str:
        return _csv("distribution,n,estimator,aggregator,dispersion", self.rows)


class FitResult(NamedTuple):
    estimator: str
    alpha: float
    beta: float
    residual_max: float
    n_low: float
    n_high: float

    def to_csv(self) -> str:
        return _csv("estimator,alpha,beta,residual_max,n_low,n_high", [self])

    def predict(self, n: int) -> float:
        q75 = normal_quantile(0.75)
        return 1.0 / (q75 * (1.0 + self.alpha / n + self.beta / (n * n)))


def _chunks(repetitions: int, chunk_size: int) -> list[tuple[int, int]]:
    out = []
    done = 0
    index = 0
    while done < repetitions:
        count = min(chunk_size, repetitions - done)
        out.append((index, count))
        done += count
        index += 1
    return out


def _map_ordered(fn: Callable, items: Sequence, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def _moments(m: np.ndarray) -> tuple[float, float]:
    """One chunk's (sum, sum of squares).

    The square sum is einsum, not a BLAS dot product: OpenBLAS threads a
    dot product over a chunk this long, and its spinning worker would take
    a CPU from the pool threads.
    """
    return float(np.sum(m)), float(np.einsum("i,i->", m, m))


def _mean_variance(parts: Sequence[tuple[float, float]], reps: int) -> tuple[float, float]:
    """Mean and unbiased variance from per-chunk moments, summed exactly."""
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / reps
    return mean, max(0.0, (total_sq - reps * mean * mean) / (reps - 1))


def _sample_buffer(shape: tuple[int, int]) -> np.ndarray:
    # The draws go to this thread's reused buffer, like the kernel's scratch:
    # the samples die with their chunk, and a fresh matrix per chunk was
    # mapped and faulted in again (glibc maps blocks of this size when
    # nothing larger was freed before, as for n = 2 first in a process).
    size = shape[0] * shape[1]
    return thread_scratch("samples", size)[:size].reshape(shape)


def _normal_matrix(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return rng.standard_normal(out=_sample_buffer(shape))


def _spec_draw(dist: DistributionSpec) -> Callable:
    """``dist``'s draw for ``_chunk_parts``, into the thread's sample buffer."""
    return lambda rng, shape: dist.draw(rng, shape, out=_sample_buffer(shape))


def _chunk_parts(config: SimulationConfig, key: tuple[int, ...], draw: Callable,
                 weights: np.ndarray, reduce: Callable, threads: int) -> list:
    """``reduce(mad0_batch(samples, weights))`` for each chunk, in chunk order.

    Chunk i draws its ``(count, n)`` samples with ``draw(rng, shape)`` from
    the stream keyed by ``(*key, i)``; ``weights`` is one ``n``-vector or a
    ``(k, n)`` stack.  The samples are a view of the thread's scratch
    (``_sample_buffer``), so nothing keeps them past the chunk.
    """
    n = weights.shape[-1]

    def chunk_part(chunk):
        index, count = chunk
        stream = RngStream(config.master_seed, derive_stream_id(*key, index))
        # The generator is freed before the kernel runs.  Freeing the
        # samples before the reduction instead of after it measures the
        # same (page faults of a two-thread factors run, calibrate and
        # sensitivity cycle_s), since the kernel's buffers and the draws
        # live in thread scratch.
        samples = draw(stream.generator(), (count, n))
        return reduce(mad0_batch(samples, weights))

    try:
        return _map_ordered(chunk_part, _chunks(config.repetitions, config.chunk_size), threads)
    finally:
        release_thread_scratch()  # the calling thread's; pool threads' end with them


def estimate_factors(config: SimulationConfig, threads: int = 1) -> FactorReport:
    """Estimate C_n = 1 / mean(raw MAD) over standard-normal samples.

    The mean is accumulated per chunk and combined with exact summation;
    the reported std_error is the delta-method propagation of the standard
    error of the mean through the inversion.
    """
    rows = []
    for n in config.sample_sizes:
        for est_index, est in enumerate(config.estimators):
            parts = _chunk_parts(config, (_TAG_FACTORS, n, est_index), _normal_matrix,
                                 median_weights(n, est), _moments, threads)
            reps = config.repetitions
            m_n, variance = _mean_variance(parts, reps)
            se_m = math.sqrt(variance / reps)
            c_n = 1.0 / m_n
            rows.append(FactorRow(n, est.label, m_n, c_n, se_m / (m_n * m_n), reps))
    report = FactorReport(tuple(rows), config)
    _check_factor_report(report)
    return report


def _check_factor_report(report: FactorReport) -> None:
    for row in report.rows:
        if not (math.isfinite(row.c_n) and row.c_n > 0.0):
            raise InternalCheckError(f"non-finite factor estimate in row {row}")
        if abs(row.c_n * row.m_n - 1.0) > 1e-12:
            raise InternalCheckError(f"c_n * m_n != 1 in row {row}")


def efficiency(config: SimulationConfig, threads: int = 1) -> EfficiencyReport:
    """Relative efficiency of the HD- and THD-based MAD against the SM MAD.

    All three estimators are evaluated on the same samples (common random
    numbers), each corrected by the default factor model; efficiency is the
    ratio of estimate variances with SM in the numerator.  The config must
    keep the default estimators ``(SM, HD, THD_SQRT)``.
    """
    if config.estimators != (SM, HD, THD_SQRT):
        raise ConfigError("efficiency compares sm, hd and thd-sqrt and takes no estimator list")
    rows = []
    for n in config.sample_sizes:
        weights = np.stack([median_weights(n, est) for est in config.estimators])
        factors = [correction_factor(n, est) for est in config.estimators]
        parts = _chunk_parts(
            config, (_TAG_EFFICIENCY, n), _normal_matrix, weights,
            lambda mads: [_moments(m * f) for m, f in zip(mads, factors)],
            threads,
        )
        var_sm, var_hd, var_thd = (
            _mean_variance(moments, config.repetitions)[1] for moments in zip(*parts)
        )
        rows.append(
            EfficiencyRow(n, var_sm, var_hd, var_thd, var_sm / var_hd, var_sm / var_thd)
        )
    report = EfficiencyReport(tuple(rows), config)
    for row in report.rows:
        if not all(math.isfinite(v) and v > 0.0 for v in row[1:]):
            raise InternalCheckError(f"degenerate efficiency row {row}")
    return report


_AGGREGATORS = ("sd", "iqr", "mad_sm")


def _aggregate(kind: str, estimates: np.ndarray) -> float:
    if kind == "sd":
        return float(np.std(estimates, ddof=1))
    if kind == "iqr":
        s = Sample(estimates)
        return hf7_quantile(s, 0.75) - hf7_quantile(s, 0.25)
    return mad_corrected(estimates, SM, DEFAULT_MODEL).corrected


def sensitivity(config: SimulationConfig, threads: int = 1) -> SensitivityReport:
    """Dispersion of corrected-MAD estimates across repeated draws.

    For each (distribution, n) the corrected MAD is computed per estimator
    on shared samples; the spread of those estimates is summarized three
    ways (classic SD, type-7 interquartile range, and the corrected
    sample-median MAD).  Light- vs heavy-tailed inputs make the robustness
    differences between the estimators visible.
    """
    if not config.distributions:
        raise ConfigError("sensitivity requires at least one distribution")
    rows = []
    for dist_index, dist in enumerate(config.distributions):
        for n in config.sample_sizes:
            weights = np.stack([median_weights(n, est) for est in config.estimators])
            factors = [correction_factor(n, est) for est in config.estimators]
            parts = _chunk_parts(
                config, (_TAG_SENSITIVITY, dist_index, n), _spec_draw(dist), weights,
                lambda mads: [m * f for m, f in zip(mads, factors)],
                threads,
            )
            for est_index, est in enumerate(config.estimators):
                estimates = np.concatenate([p[est_index] for p in parts])
                for agg in _AGGREGATORS:
                    value = _aggregate(agg, estimates)
                    if not (math.isfinite(value) and value >= 0.0):
                        raise InternalCheckError(
                            f"bad dispersion for {dist} n={n} {est.label} {agg}: {value}"
                        )
                    rows.append(SensitivityRow(str(dist), n, est.label, agg, value))
    return SensitivityReport(tuple(rows), config)


def fit_prediction(
    factors: Mapping[int, float],
    n_range: tuple[float, float] = (100, 500),
    estimator: str = "",
) -> FitResult:
    """Least-squares fit of C_n = 1 / (qnorm(0.75) * (1 + alpha/n + beta/n^2)).

    Each table value is transformed to A_n = 1/(C_n * qnorm(0.75)) - 1,
    which is linear in (1/n, 1/n^2); ordinary least squares without
    intercept yields (alpha, beta).  ``residual_max`` is the largest
    absolute deviation between fitted and tabulated C_n over the fitted
    points.  Uses sizes with n_low < n <= n_high.
    """
    low, high = n_range
    if low >= high:
        raise ConfigError(f"empty fit range {n_range}")
    ns = np.array(sorted(n for n in factors if low < n <= high), dtype=np.float64)
    if ns.size < 3:
        raise ConfigError(
            f"need at least 3 tabulated sizes in ({low}, {high}], found {ns.size}"
        )
    c = np.array([factors[int(n)] for n in ns])
    q75 = normal_quantile(0.75)
    a_n = 1.0 / (c * q75) - 1.0
    design = np.column_stack([1.0 / ns, 1.0 / (ns * ns)])
    coef, *_ = np.linalg.lstsq(design, a_n, rcond=None)
    alpha, beta = float(coef[0]), float(coef[1])
    predicted = 1.0 / (q75 * (1.0 + design @ coef))
    residual_max = float(np.max(np.abs(predicted - c)))
    return FitResult(estimator, alpha, beta, residual_max, float(low), float(high))


def fit_embedded(estimator_label: str, n_range: tuple[float, float] = (100, 500)) -> FitResult:
    """Fit the prediction equation on a built-in factor table."""
    return fit_prediction(factor_table(estimator_label), n_range, estimator_label)
