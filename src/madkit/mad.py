"""Median absolute deviation with finite-sample bias correction.

``mad_uncorrected`` is the raw median of absolute deviations from the
median (both medians computed by the same estimator).  Multiplying by the
sample-size-dependent factor C_n makes it an unbiased estimator of the
standard deviation under normality; ``correction_factor`` resolves C_n
from a pluggable :class:`FactorModel`.

The default model is a composite: the exact value sqrt(pi) at n = 2, the
built-in tables for 3 <= n <= 100, and the fitted large-n equation
C_n = 1 / (qnorm(0.75) * (1 + alpha/n + beta/n^2)) beyond.  The historical
schemes of Croux-Rousseeuw, Williams, Hayes, and Park are provided for
comparison; they predate the built-in tables and apply to the
sample-median MAD only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from madkit import factor_tables as tables
from madkit._kernel import mad0_batch, release_thread_scratch
from madkit.errors import DomainError, FactorRangeError, SampleError
from madkit.quantiles import (
    SM,
    MedianEstimator,
    Sample,
    SampleLike,
    finite_values,
    median_weights,
)
from madkit.specfun import normal_quantile

__all__ = [
    "MadValue",
    "FactorModel",
    "DefaultFactors",
    "FittedFactors",
    "AsymptoticFactors",
    "CrouxRousseeuwFactors",
    "WilliamsFactors",
    "HayesFactors",
    "ParkFactors",
    "DEFAULT_MODEL",
    "MODEL_CHOICES",
    "asymptotic_factor",
    "correction_factor",
    "mad_uncorrected",
    "mad_corrected",
    "factor_table",
    "factor_table_csv_path",
]

_Q75 = normal_quantile(0.75)

_TABLES = {
    "sm": tables.SM_FACTORS,
    "hd": tables.HD_FACTORS,
    "thd-sqrt": tables.THD_SQRT_FACTORS,
    "park": tables.PARK_FACTORS,
}


def asymptotic_factor() -> float:
    """Large-sample scale constant 1 / qnorm(0.75) ~= 1.4826."""
    return 1.0 / _Q75


def _check_n(n: int) -> None:
    if n < 2:
        raise FactorRangeError(
            f"no unbiased correction factor exists for n = {n}; need n >= 2"
        )


def _table_key(kind: MedianEstimator) -> str:
    if kind.kind == "thd" and kind.width is not None:
        raise FactorRangeError(
            "built-in factors cover the 1/sqrt(n)-width thd estimator only; "
            "supply a FittedFactors model calibrated for this width"
        )
    return kind.label


def _hayes_form(n: int, alpha: float, beta: float) -> float:
    return 1.0 / (_Q75 * (1.0 - alpha / n - beta / (n * n)))


def _fitted_form(n: int, alpha: float, beta: float) -> float:
    return 1.0 / (_Q75 * (1.0 + alpha / n + beta / (n * n)))


class FactorModel:
    """Provider of bias-correction factors C_n."""

    def factor(self, n: int, kind: MedianEstimator = SM) -> float:
        raise NotImplementedError

    def source(self, n: int) -> str:
        """Where ``factor(n, ...)`` comes from; "model" for any model but the default."""
        return "model"


class DefaultFactors(FactorModel):
    """Composite model: exact at n = 2, table for n <= 100, fitted beyond."""

    def source(self, n: int) -> str:
        """"exact" at n = 2, "table" for 3 <= n <= 100, "fitted" beyond."""
        _check_n(n)
        if n == 2:
            return "exact"
        return "table" if n <= 100 else "fitted"

    def factor(self, n: int, kind: MedianEstimator = SM) -> float:
        source = self.source(n)
        if source == "exact":
            # The median of two points is their midpoint whatever the
            # estimator, so the factor is estimator-independent and exact.
            return math.sqrt(math.pi)
        key = _table_key(kind)
        if source == "table":
            return _TABLES[key][n]
        return _fitted_form(n, *tables.FITTED_COEFFS[key])


@dataclass(frozen=True)
class FittedFactors(FactorModel):
    """The large-n prediction equation with explicit coefficients."""

    alpha: float
    beta: float

    def factor(self, n: int, kind: MedianEstimator = SM) -> float:
        _check_n(n)
        return _fitted_form(n, self.alpha, self.beta)


class AsymptoticFactors(FactorModel):
    """The constant large-sample factor; biased for small n."""

    def factor(self, n: int, kind: MedianEstimator = SM) -> float:
        _check_n(n)
        return asymptotic_factor()


class CrouxRousseeuwFactors(FactorModel):
    """Historical scheme: C_n = b_n / qnorm(0.75), b_n = n/(n-0.8) past the table."""

    def factor(self, n: int, kind: MedianEstimator = SM) -> float:
        _check_n(n)
        b = tables.CROUX_BN[n] if n <= 9 else n / (n - 0.8)
        return b / _Q75


class WilliamsFactors(FactorModel):
    """Refinement of the Croux-Rousseeuw scheme: b_n = n/(n-0.801) past the table."""

    def factor(self, n: int, kind: MedianEstimator = SM) -> float:
        _check_n(n)
        b = tables.WILLIAMS_BN[n] if n <= 9 else n / (n - 0.801)
        return b / _Q75


class HayesFactors(FactorModel):
    """Parity-dependent prediction equation, valid for n >= 9."""

    def factor(self, n: int, kind: MedianEstimator = SM) -> float:
        if n < 9:
            raise FactorRangeError(f"the Hayes scheme requires n >= 9, got {n}")
        alpha, beta = tables.HAYES_ODD if n % 2 else tables.HAYES_EVEN
        return _hayes_form(n, alpha, beta)


@dataclass(frozen=True)
class ParkFactors(FactorModel):
    """Park's aggregated table for n <= 100 plus either large-n form.

    ``variant`` picks the n > 100 equation: "hayes" (default) or
    "williams"; the two agree to within a few 1e-5.
    """

    variant: str = "hayes"

    def factor(self, n: int, kind: MedianEstimator = SM) -> float:
        _check_n(n)
        if n <= 100:
            return tables.PARK_FACTORS[n]
        if self.variant == "hayes":
            alpha, beta = tables.PARK_AN_HAYES
            a_n = alpha / n + beta / (n * n)
        elif self.variant == "williams":
            coef, power = tables.PARK_AN_WILLIAMS
            a_n = coef * n ** (-power)
        else:
            raise FactorRangeError(f"unknown Park variant {self.variant!r}")
        return 1.0 / (_Q75 * (1.0 + a_n))


DEFAULT_MODEL = DefaultFactors()

MODEL_CHOICES = {
    "default": DEFAULT_MODEL,
    "asymptotic": AsymptoticFactors(),
    "croux-rousseeuw": CrouxRousseeuwFactors(),
    "williams": WilliamsFactors(),
    "hayes": HayesFactors(),
    "park": ParkFactors(),
}


def correction_factor(
    n: int, kind: MedianEstimator = SM, model: FactorModel = DEFAULT_MODEL
) -> float:
    """Bias-correction factor C_n for the given estimator under ``model``."""
    return model.factor(n, kind)


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


def _values(x: SampleLike) -> np.ndarray:
    return x.values if isinstance(x, Sample) else finite_values(x)


def _mad0(values: np.ndarray, kind: MedianEstimator) -> float:
    """The raw MAD of finite ``values`` (any order) by the batch kernel."""
    n = values.size
    if n < 2:
        raise SampleError(f"MAD requires at least two observations, got {n}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            mad = float(mad0_batch(values[None, :], median_weights(n, kind))[0])
    finally:
        # One row's buffers are not worth keeping for the next call.
        release_thread_scratch()
    if not math.isfinite(mad):
        raise DomainError(
            "the absolute deviations from the median overflow float64; "
            "rescale the sample"
        )
    return mad


def mad_uncorrected(x: SampleLike, kind: MedianEstimator = SM) -> float:
    """median(|x - median(x)|), both medians by the same estimator.

    Computed by the batch kernel ``mad0_batch`` on one row, so it is the
    MAD the Monte-Carlo studies compute, bit for bit.  Rejects n < 2: a
    single observation has zero deviation and no finite correction factor
    exists.  Raises ``DomainError`` for non-finite input and when the
    deviations overflow float64.
    """
    return _mad0(_values(x), kind)


def mad_corrected(
    x: SampleLike, kind: MedianEstimator = SM, model: FactorModel = DEFAULT_MODEL
) -> MadValue:
    """Bias-corrected MAD: C_n times the raw MAD; ``DomainError`` if that overflows."""
    values = _values(x)
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
        factor_source=model.source(n),
    )


def factor_table(kind_label: str) -> dict[int, float]:
    """The built-in factor table for 'sm', 'hd', 'thd-sqrt', or 'park'."""
    try:
        return dict(_TABLES[kind_label])
    except KeyError:
        raise FactorRangeError(f"no built-in table named {kind_label!r}") from None


def factor_table_csv_path():
    """Path to the shipped CSV that holds the factor tables."""
    return tables.CSV_PATH
