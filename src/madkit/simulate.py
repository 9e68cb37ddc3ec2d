"""Monte-Carlo studies: factor estimation, efficiency, outlier sensitivity,
and the least-squares fit of the large-n prediction equation.

Every study is deterministic given its configuration.  A cell is one
sample size, or for sensitivity one (distribution, sample size).  Its
repetitions are split into chunks of ``_CHUNK_ROWS``; chunk i draws the
cell's samples once, from the Philox stream ``RngStream(master_seed,
derive_stream_id(*key, i))``, runs every estimator on them through one
``(k, n)`` stack of median weights, and the partial results are reduced
in chunk order.  A chunk is drawn and run through the kernel one block of
rows at a time, and its rows get the values one draw of the whole chunk
gives.  A cell's key starts with its study's tag:

* factors, whose cells ``efficiency`` reads too: ``(1, n)``
* sensitivity: ``(3, spec key, n)``, where the spec key is
  ``_spec_key(distribution)``, a hash of the family and its parameters

A key holds only what the cell computes, never a position in the
configured tuples, so a row does not depend on which other estimators,
distributions or sizes share the run or in what order they are listed.
The worker-thread count affects only the wall time.

A study runs all its cells through one pool of worker threads that lives
for the whole study, one worker or many.  The chunks of every cell are
fed to it in report order, a few ahead of the one the calling thread
waits for; the workers compute every chunk, and the calling thread only
feeds them and aggregates each cell's parts into its report rows.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from madkit._kernel import _sample_block, mad0_batch
from madkit.distributions import DistributionSpec, RngStream, derive_stream_id
from madkit.errors import ConfigError, DomainError, InternalCheckError
from madkit.mad import (
    _Q75,
    DEFAULT_MODEL,
    _fitted_form,
    _integer,
    correction_factor,
    factor_table,
    mad_corrected,
)
from madkit.quantiles import (
    HD,
    SM,
    THD_SQRT,
    MedianEstimator,
    _hf7_sorted,
    median_weights,
)

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

# The sizes n_low < n <= n_high the prediction equation is fitted on by default.
_FIT_RANGE = (100, 500)

# Study tags folded into stream derivation so the normal and sensitivity
# studies never share sample streams under one master seed.
_TAG_FACTORS = 1
_TAG_SENSITIVITY = 3

# The draw scheme, recorded in the provenance line: the stream keys of the
# module docstring and the samplers that read them.  A CSV made under
# another scheme has other rows for the same configuration (scheme 1 keyed
# cells by their position in the configured tuples; scheme 2 drew Beta and
# Student's t in two passes over each chunk; scheme 3 drew ``efficiency``
# from its own tag-2 streams).
_STREAMS = 4

# Repetitions per chunk, the unit of work and of the stream keys: no option
# moves it, and a cell of at most this many is one chunk, on one worker.
_CHUNK_ROWS = 16384


def _spec_key(dist: DistributionSpec) -> int:
    """The 64-bit stream key of a distribution, from its content alone.

    The first 8 bytes of the SHA-256 of the family name and the
    ``float.hex`` of each parameter in the family's order.  The builtin
    ``hash`` of a string is salted per process (``PYTHONHASHSEED``).
    """
    text = " ".join([dist.family, *(float(value).hex() for _, value in dist.params)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


@dataclass(frozen=True)
class SimulationConfig:
    """Shared Monte-Carlo configuration.

    The integer fields refuse a float such as 5.0 rather than truncate it.
    The same config gives bit-identical reports, any thread count.  No
    sample size, estimator or distribution may repeat: its cells would draw
    the same samples and compute the same rows twice.  ``master_seed`` lies
    in [0, 2**64), the range of a Philox key word: a seed outside it would
    alias one inside.  Seeds inside it alias too: where a chunk's stream id
    and the seed lie on opposite sides of 2**63, the key keeps 53
    significant bits of each, so seeds that differ only in their low bits
    can share that chunk's stream (``RngStream``; ROADMAP item 9, whose fix
    moves every seeded output).  The three tuple fields take any iterable.
    """

    sample_sizes: tuple[int, ...]
    repetitions: int
    master_seed: int
    estimators: tuple[MedianEstimator, ...] = (SM, HD, THD_SQRT)
    distributions: tuple[DistributionSpec, ...] = ()

    def __post_init__(self):
        for name in ("repetitions", "master_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), ConfigError))
        for name in ("sample_sizes", "estimators", "distributions"):
            items = getattr(self, name)
            if not isinstance(items, Iterable):
                raise ConfigError(f"{name} must be an iterable, got {items!r}")
            object.__setattr__(self, name, tuple(items))
        object.__setattr__(self, "sample_sizes", tuple(
            _integer("each of sample_sizes", n, ConfigError) for n in self.sample_sizes))
        for name, kind in (("estimators", MedianEstimator), ("distributions", DistributionSpec)):
            bad = [item for item in getattr(self, name) if not isinstance(item, kind)]
            if bad:
                raise ConfigError(f"each of {name} must be a {kind.__name__}, got {bad[0]!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
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


def _cells(row: NamedTuple) -> list[str]:
    """``row``'s values as text: each float by ``_FLOAT_FMT``, anything else by ``str``."""
    return [_FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row]


def _csv(rows: Sequence[NamedTuple]) -> str:
    """``rows``, at least one, as CSV headed by their field names.

    A field that holds a comma, such as the label ``uniform(a=0,b=1)``, is
    quoted, so every row reads back with as many fields as the header.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0]._fields)
    writer.writerows(_cells(row) for row in rows)
    return buffer.getvalue()


@dataclass(frozen=True)
class _Report:
    """A study's rows, in report order; its CSV header is their field names."""

    rows: tuple

    def to_csv(self) -> str:
        return _csv(self.rows)


class FactorReport(_Report):
    rows: tuple[FactorRow, ...]


class EfficiencyReport(_Report):
    rows: tuple[EfficiencyRow, ...]


class SensitivityReport(_Report):
    rows: tuple[SensitivityRow, ...]


class FitResult(NamedTuple):
    estimator: str
    alpha: float
    beta: float
    residual_max: float
    n_low: float
    n_high: float

    def to_csv(self) -> str:
        return _csv([self])

    def predict(self, n: int) -> float:
        return _fitted_form(n, self.alpha, self.beta)


def _map_ordered(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """``fn(item)`` for each of ``items``, yielded lazily and in order.

    One pool of ``threads`` workers runs the calls, with at most ``2 *
    threads`` of them submitted and not yet yielded, so ``items`` is read
    only that far ahead and the workers run on while the caller handles a
    result.  A call that raises, or closing the generator, cancels the
    calls not yet started; the pool's threads have ended when it returns
    or raises.
    """
    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        pending = deque(pool.submit(fn, item) for item in islice(items, 2 * threads))
        while pending:
            result = pending.popleft().result()
            for item in islice(items, 1):
                pending.append(pool.submit(fn, item))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


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


def _normal_matrix(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    return rng.standard_normal(out=out)


def _weight_stack(n: int, estimators: Sequence[MedianEstimator]) -> np.ndarray:
    """The ``(k, n)`` median weights of ``estimators``, for one kernel call per block."""
    return np.stack([median_weights(n, est) for est in estimators])


def _run_cells(config: SimulationConfig, cells: Sequence, prepare: Callable,
               aggregate: Callable, threads: int) -> list:
    """The report rows ``aggregate(cell, parts)`` of each cell of a study, in order.

    ``prepare(cell)`` gives the cell's ``(key, draw, weights, reduce)``:
    chunk i of ``count`` rows (``_CHUNK_ROWS``, fewer in the last) opens
    one generator on the stream keyed by ``(*key, i)``, and its part is
    ``reduce(mads)``, ``mads`` being ``mad0_batch(samples, weights)`` of
    the chunk's ``(count, n)`` samples for the ``(k, n)`` stack
    ``weights``.  ``parts`` are the cell's parts in chunk order.

    The samples are never one array: the chunk is taken in blocks of the
    kernel's ``_block_rows(n)`` rows (the whole chunk at n <= 12), each
    filled by ``draw(rng, block)`` in the worker's kernel scratch, at the
    start of the kernel's second buffer (``_kernel._sample_block``), and
    passed to one ``mad0_batch`` call that writes its columns of ``mads`` in
    place.  So a worker's scratch is the kernel's two buffers, and a chunk
    allocates one ``mads`` whatever its block count (a result per block
    tripled ``factors``' minor page faults, as glibc handed the freed
    arrays back to the OS).  Consecutive draws from one generator give the
    rows one draw of the chunk would, so the parts do not depend on the
    block size.  The scratch ends with the worker.

    Every chunk of every cell runs on one ``_map_ordered`` pool of
    ``threads`` workers, capped at the chunk count and fed lazily in report
    order, so the workers compute the next cell's chunks while this thread
    aggregates the last one.  A chunk's floating-point overflow is left to
    the study's checks on its parts and rows, not reported as a NumPy
    warning.
    ``threads``, the worker count, is an integer >= 1 or a ``ConfigError``.
    """
    if _integer("threads", threads, ConfigError) < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads}")
    reps, size = config.repetitions, _CHUNK_ROWS
    per_cell = (reps + size - 1) // size

    def chunk_part(item):
        key, draw, weights, reduce, index = item
        count = min(size, reps - index * size)
        block = _sample_block(weights.shape[-1])
        mads = np.empty((len(weights), count))
        with np.errstate(over="ignore", invalid="ignore"):
            # NumPy warns of an invalid cast when it builds a Philox key
            # from a seed at or above 2**63.
            rng = RngStream(config.master_seed, derive_stream_id(*key, index)).generator()
            for start in range(0, count, len(block)):
                samples = draw(rng, block[:count - start])
                mad0_batch(samples, weights, out=mads[:, start:start + len(samples)])
            return reduce(mads)

    def items():
        for cell in cells:
            job = prepare(cell)
            for index in range(per_cell):
                yield (*job, index)

    parts = _map_ordered(chunk_part, items(), min(threads, len(cells) * per_cell))
    try:
        return [row for cell in cells
                for row in aggregate(cell, [next(parts) for _ in range(per_cell)])]
    finally:
        parts.close()  # on an error, cancels the chunks not yet started


def _normal_study(config: SimulationConfig, threads: int) -> list[list[tuple[float, float]]]:
    """Per sample size, the ``(mean, variance)`` of each estimator's raw MAD.

    Over the factor cells' standard-normal samples, which every estimator
    shares; per-chunk moments are combined with exact summation.
    """
    def prepare(n):
        return ((_TAG_FACTORS, n), _normal_matrix, _weight_stack(n, config.estimators),
                lambda mads: [_moments(m) for m in mads])

    def aggregate(n, parts):
        return [[_mean_variance(moments, config.repetitions) for moments in zip(*parts)]]

    return _run_cells(config, config.sample_sizes, prepare, aggregate, threads)


def estimate_factors(config: SimulationConfig, threads: int = 1) -> FactorReport:
    """Estimate C_n = 1 / mean(raw MAD) over standard-normal samples.

    Every estimator runs on the same samples.  The reported std_error is
    the delta-method propagation of the standard error of the mean through
    the inversion.
    """
    reps = config.repetitions
    report = FactorReport(tuple(
        FactorRow(n, est.label, m_n, 1.0 / m_n, math.sqrt(variance / reps) / (m_n * m_n), reps)
        for n, cell in zip(config.sample_sizes, _normal_study(config, threads))
        for est, (m_n, variance) in zip(config.estimators, cell)
    ))
    for row in report.rows:
        if not (math.isfinite(row.c_n) and row.c_n > 0.0):
            raise InternalCheckError(f"non-finite factor estimate in row {row}")
        if abs(row.c_n * row.m_n - 1.0) > 1e-12:
            raise InternalCheckError(f"c_n * m_n != 1 in row {row}")
    return report


def efficiency(config: SimulationConfig, threads: int = 1) -> EfficiencyReport:
    """Relative efficiency of the HD- and THD-based MAD against the SM MAD.

    An estimator's variance is C_n**2 * var(MAD): its MAD corrected by the
    default factor model, over the factor study's samples, which all three
    share (common random numbers).  At one seed this report and
    ``estimate_factors`` describe the same draws.  Efficiency is the ratio
    of variances with SM in the numerator.  The config must keep the
    default estimators ``(SM, HD, THD_SQRT)``.
    """
    if config.estimators != (SM, HD, THD_SQRT):
        raise ConfigError("efficiency compares sm, hd and thd-sqrt and takes no estimator list")
    rows = []
    for n, cell in zip(config.sample_sizes, _normal_study(config, threads)):
        var_sm, var_hd, var_thd = (correction_factor(n, est) ** 2 * variance
                                   for est, (_, variance) in zip(config.estimators, cell))
        rows.append(EfficiencyRow(n, var_sm, var_hd, var_thd, var_sm / var_hd, var_sm / var_thd))
    report = EfficiencyReport(tuple(rows))
    for row in report.rows:
        if not all(math.isfinite(v) and v > 0.0 for v in row[1:]):
            raise InternalCheckError(f"degenerate efficiency row {row}")
    return report


_AGGREGATORS = ("sd", "iqr", "mad_sm")


def _aggregate(kind: str, estimates: np.ndarray) -> float:
    if kind == "sd":
        return float(np.std(estimates, ddof=1))
    if kind == "iqr":
        xs = np.sort(estimates)
        return _hf7_sorted(xs, 0.75) - _hf7_sorted(xs, 0.25)
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

    def prepare(cell):
        dist, n = cell
        factors = [correction_factor(n, est) for est in config.estimators]

        def reduce(mads):
            estimates = [m * f for m, f in zip(mads, factors)]
            if not all(np.isfinite(e).all() for e in estimates):
                raise DomainError(f"{dist} at n={n}: the corrected MADs are not finite "
                                  "in float64; rescale the distribution")
            return estimates

        return ((_TAG_SENSITIVITY, _spec_key(dist), n),
                lambda rng, out: dist.draw(rng, out.shape, out=out),
                _weight_stack(n, config.estimators), reduce)

    def aggregate(cell, parts):
        dist, n = cell
        rows = []
        for est, estimates in zip(config.estimators, zip(*parts)):
            estimates = np.concatenate(estimates)
            for agg in _AGGREGATORS:
                with np.errstate(over="ignore", invalid="ignore"):
                    value = _aggregate(agg, estimates)
                if value == math.inf:
                    raise DomainError(f"{dist} at n={n}: the {agg} of the {est.label} "
                                      "estimates overflows float64; rescale the distribution")
                if not (math.isfinite(value) and value >= 0.0):
                    raise InternalCheckError(
                        f"bad dispersion for {dist} n={n} {est.label} {agg}: {value}"
                    )
                rows.append(SensitivityRow(str(dist), n, est.label, agg, value))
        return rows

    cells = [(dist, n) for dist in config.distributions for n in config.sample_sizes]
    rows = _run_cells(config, cells, prepare, aggregate, threads)
    return SensitivityReport(tuple(rows))


def fit_prediction(
    factors: Mapping[int, float],
    n_range: tuple[float, float] = _FIT_RANGE,
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
    a_n = 1.0 / (c * _Q75) - 1.0
    design = np.column_stack([1.0 / ns, 1.0 / (ns * ns)])
    coef, *_ = np.linalg.lstsq(design, a_n, rcond=None)
    alpha, beta = float(coef[0]), float(coef[1])
    predicted = 1.0 / (_Q75 * (1.0 + design @ coef))
    residual_max = float(np.max(np.abs(predicted - c)))
    return FitResult(estimator, alpha, beta, residual_max, float(low), float(high))


def fit_embedded(estimator_label: str, n_range: tuple[float, float] = _FIT_RANGE) -> FitResult:
    """Fit the prediction equation on a built-in factor table."""
    return fit_prediction(factor_table(estimator_label), n_range, estimator_label)
