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

from madkit import factor_tables as tables
from madkit.errors import FactorRangeError, SampleError
from madkit.quantiles import (
    SM,
    MedianEstimator,
    Sample,
    SampleLike,
    as_sample,
    median,
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


class DefaultFactors(FactorModel):
    """Composite model: exact at n = 2, table for n <= 100, fitted beyond."""

    def factor(self, n: int, kind: MedianEstimator = SM) -> float:
        _check_n(n)
        if n == 2:
            # The median of two points is their midpoint whatever the
            # estimator, so the factor is estimator-independent and exact.
            return math.sqrt(math.pi)
        key = _table_key(kind)
        if n <= 100:
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
    """A corrected MAD estimate and its ingredients."""

    uncorrected: float
    factor: float
    corrected: float
    n: int
    estimator: MedianEstimator


def mad_uncorrected(x: SampleLike, kind: MedianEstimator = SM) -> float:
    """median(|x - median(x)|), both medians by the same estimator.

    Rejects n < 2: a single observation has zero deviation and no finite
    correction factor exists.
    """
    x = as_sample(x)
    if x.n < 2:
        raise SampleError(f"MAD requires at least two observations, got {x.n}")
    center = median(x, kind)
    deviations = Sample(abs(x.values - center))
    return median(deviations, kind)


def mad_corrected(
    x: SampleLike, kind: MedianEstimator = SM, model: FactorModel = DEFAULT_MODEL
) -> MadValue:
    """Bias-corrected MAD: C_n times the raw MAD."""
    x = as_sample(x)
    raw = mad_uncorrected(x, kind)
    c_n = correction_factor(x.n, kind, model)
    return MadValue(
        uncorrected=raw,
        factor=c_n,
        corrected=c_n * raw,
        n=x.n,
        estimator=kind,
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
