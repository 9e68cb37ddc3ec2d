"""Median absolute deviation with finite-sample bias correction.

``mad_uncorrected`` is the raw median of absolute deviations from the
median (both medians computed by the same estimator).  Multiplying by the
sample-size-dependent factor C_n makes it an unbiased estimator of the
standard deviation under normality; ``correction_factor`` checks n >= 2
and resolves C_n from a factor model: any function ``(n, kind) -> C_n``.

The default model, ``DEFAULT_MODEL``, is a composite: the exact value
sqrt(pi) at n = 2, the built-in tables for 3 <= n <= 100, and the fitted
large-n equation C_n = 1 / (qnorm(0.75) * (1 + alpha/n + beta/n^2))
beyond.  ``MODEL_CHOICES`` names it and the historical schemes of
Croux-Rousseeuw, Williams, Hayes, and Park, provided for comparison; they
predate the built-in tables and apply to the sample-median MAD only.
"""
from __future__ import annotations

import math
import operator
import statistics
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from madkit import factor_tables as tables
from madkit._kernel import mad0_batch
from madkit.errors import DomainError, FactorRangeError, SampleError
from madkit.quantiles import SM, MedianEstimator, _check_estimator, finite_values, median_weights

__all__ = [
    "MadValue",
    "DEFAULT_MODEL",
    "MODEL_CHOICES",
    "asymptotic_factor",
    "correction_factor",
    "mad_uncorrected",
    "mad_corrected",
    "factor_table",
]

_Q75 = statistics.NormalDist().inv_cdf(0.75)  # correctly rounded


def asymptotic_factor() -> float:
    """Large-sample scale constant 1 / qnorm(0.75) ~= 1.4826."""
    return 1.0 / _Q75


def _integer(name: str, value, error=FactorRangeError) -> int:
    """``value`` by ``operator.index``: an int or NumPy integer, not a float such as 5.0."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def _check_n(n: int) -> int:
    n = _integer("a sample size", n)
    if n < 2:
        raise FactorRangeError(f"no unbiased correction factor exists for n = {n}; need n >= 2")
    return n


def _table_key(kind: MedianEstimator) -> str:
    if kind.kind == "thd" and kind.width is not None:
        raise FactorRangeError(
            "built-in factors cover the 1/sqrt(n)-width thd estimator only; "
            "calibrate this width with madkit factors --estimators 'thd(W)', or use a "
            "width-free madkit mad --model such as asymptotic; in Python, pass a factor "
            "model function (n, kind) -> C_n"
        )
    return kind.label


def _fitted_form(n: int, alpha: float, beta: float) -> float:
    return 1.0 / (_Q75 * (1.0 + alpha / n + beta / (n * n)))


def _default_source(n: int) -> str:
    """"exact" at n = 2, "table" for 3 <= n <= 100, "fitted" beyond."""
    if n == 2:
        return "exact"
    return "table" if n <= 100 else "fitted"


def _default(n: int, kind: MedianEstimator) -> float:
    """Exact at n = 2, the built-in table for n <= 100, fitted beyond."""
    source = _default_source(n)
    if source == "exact":
        # The median of two points is their midpoint whatever the
        # estimator, so the factor is estimator-independent and exact.
        return math.sqrt(math.pi)
    key = _table_key(kind)
    if source == "table":
        return tables.TABLES[key][n]
    return _fitted_form(n, *tables.FITTED_COEFFS[key])


def _asymptotic(n: int, kind: MedianEstimator) -> float:
    """The constant large-sample factor; biased for small n."""
    return asymptotic_factor()


def _croux_rousseeuw(n: int, kind: MedianEstimator) -> float:
    """C_n = b_n / qnorm(0.75), b_n from the table to n = 9, n/(n-0.8) beyond."""
    b = tables.CROUX_BN[n] if n <= 9 else n / (n - 0.8)
    return b / _Q75


def _williams(n: int, kind: MedianEstimator) -> float:
    """Croux-Rousseeuw refined: b_n from the table to n = 9, n/(n-0.801) beyond."""
    b = tables.WILLIAMS_BN[n] if n <= 9 else n / (n - 0.801)
    return b / _Q75


def _hayes(n: int, kind: MedianEstimator) -> float:
    """Parity-dependent prediction equation, valid for n >= 9."""
    if n < 9:
        raise FactorRangeError(f"the Hayes scheme requires n >= 9, got {n}")
    alpha, beta = tables.HAYES_ODD if n % 2 else tables.HAYES_EVEN
    return _fitted_form(n, -alpha, -beta)


def _park(n: int, kind: MedianEstimator) -> float:
    """Park's aggregated table for n <= 100, the Hayes-style form beyond."""
    if n <= 100:
        return tables.TABLES["park"][n]
    alpha, beta = tables.PARK_AN_HAYES
    a_n = alpha / n + beta / (n * n)
    return 1.0 / (_Q75 * (1.0 + a_n))


DEFAULT_MODEL = _default

# The historical schemes apply to the sample-median MAD only and ignore ``kind``.
MODEL_CHOICES = {
    "default": DEFAULT_MODEL,
    "asymptotic": _asymptotic,
    "croux-rousseeuw": _croux_rousseeuw,
    "williams": _williams,
    "hayes": _hayes,
    "park": _park,
}

_Model = Callable[[int, MedianEstimator], float]


def correction_factor(
    n: int, kind: MedianEstimator = SM, model: _Model = DEFAULT_MODEL
) -> float:
    """Bias-correction factor C_n for the given estimator under ``model``."""
    _check_estimator(kind)
    return model(_check_n(n), kind)


@dataclass(frozen=True)
class MadValue:
    """A corrected MAD estimate and its ingredients.

    ``factor_source`` says where the factor came from: "exact" (n = 2),
    "table" (3 <= n <= 100), "fitted" (the large-n equation, n > 100) or
    "model" (a factor model other than the default).
    """

    uncorrected: float
    factor: float
    corrected: float
    n: int
    estimator: MedianEstimator
    factor_source: str


def _mad0(values: np.ndarray, kind: MedianEstimator) -> float:
    """The raw MAD of finite ``values`` (any order) by the batch kernel."""
    n = values.size
    if n < 2:
        raise SampleError(f"MAD requires at least two observations, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        mad = float(mad0_batch(values[None, :], median_weights(n, kind))[0])
    if not math.isfinite(mad):
        raise DomainError(
            "the absolute deviations from the median overflow float64; "
            "rescale the sample"
        )
    return mad


def mad_uncorrected(x: Iterable[float], kind: MedianEstimator = SM) -> float:
    """median(|x - median(x)|), both medians by the same estimator.

    Computed by the batch kernel ``mad0_batch`` on one row, so it is the
    MAD the Monte-Carlo studies compute, bit for bit.  Rejects n < 2: a
    single observation has zero deviation and no finite correction factor
    exists.  Raises ``DomainError`` for non-finite input and when the
    deviations overflow float64.
    """
    return _mad0(finite_values(x), kind)


def mad_corrected(
    x: Iterable[float], kind: MedianEstimator = SM, model: _Model = DEFAULT_MODEL
) -> MadValue:
    """Bias-corrected MAD: C_n times the raw MAD; ``DomainError`` if that overflows."""
    values = finite_values(x)
    raw = _mad0(values, kind)
    n = values.size
    c_n = correction_factor(n, kind, model)
    corrected = c_n * raw
    if not math.isfinite(corrected):
        raise DomainError("the corrected MAD overflows float64; rescale the sample")
    return MadValue(
        uncorrected=raw,
        factor=c_n,
        corrected=corrected,
        n=n,
        estimator=kind,
        factor_source=_default_source(n) if model is DEFAULT_MODEL else "model",
    )


def factor_table(kind_label: str) -> dict[int, float]:
    """A copy of the built-in factor table of that name, a key of ``factor_tables.TABLES``."""
    try:
        return dict(tables.TABLES[kind_label])
    except KeyError:
        raise FactorRangeError(f"no built-in table named {kind_label!r}") from None
