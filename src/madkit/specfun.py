"""Special functions used by the quantile estimators.

Provides the regularized incomplete beta function (the Beta CDF) and the
Beta density.  Both are pure, deterministic, and accurate to roughly 1e-13
absolute over the parameter range the estimators need (Beta shapes up to
a few thousand).

``reg_inc_beta`` takes a float or an array.  An array runs the Beta CDF's
continued fraction (modified Lentz) over its points in lockstep, each
point with the operations of the one-point loop in the same order, so an
array call and float calls give the same bits.  A float is the one-point
case of the same code.  The estimators build each weight window with one
array call; ``beta_pdf`` is scalar.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from madkit.errors import DomainError

__all__ = [
    "BetaParams",
    "reg_inc_beta",
    "beta_pdf",
]


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution, both strictly positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")


_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(x: float) -> float:
    # log Gamma(x) - [(x - 0.5) log x - x + log sqrt(2 pi)], for x >= 10
    y = 1.0 / (x * x)
    s = (
        1.0 / 12.0,
        1.0 / 360.0,
        1.0 / 1260.0,
        1.0 / 1680.0,
        1.0 / 1188.0,
        691.0 / 360360.0,
    )
    return (((((-s[5] * y + s[4]) * y - s[3]) * y + s[2]) * y - s[1]) * y + s[0]) / x


def _log_beta(a: float, b: float) -> float:
    # Direct lgamma differences lose ~1e-11 absolute for shapes in the
    # thousands; the Stirling-corrected forms keep every term small.
    p, q = (a, b) if a <= b else (b, a)
    if p >= 10.0:
        corr = _stirlerr(p) + _stirlerr(q) - _stirlerr(p + q)
        return (
            -0.5 * math.log(q)
            + _LN_SQRT_2PI
            + corr
            + (p - 0.5) * math.log(p / (p + q))
            + q * math.log1p(-p / (p + q))
        )
    if q >= 10.0:
        corr = _stirlerr(q) - _stirlerr(p + q)
        return (
            math.lgamma(p)
            + corr
            + p
            - p * math.log(p + q)
            + (q - 0.5) * math.log1p(-p / (p + q))
        )
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 500
# The constants of the recurrence as 0-d arrays: NumPy converts a Python
# float operand on every call, which on a short array costs about as much
# as the operation itself.
_ONE, _EPS, _TINY = np.array(1.0), np.array(_CF_EPS), np.array(_CF_TINY)


def _clamp_tiny(values: np.ndarray) -> None:
    # Lentz's guard against a zero denominator, element by element.
    tiny = np.abs(values) < _TINY
    if np.count_nonzero(tiny):
        values[tiny] = _CF_TINY


def _beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz iteration).

    Valid for x < (a + 1) / (a + b + 2); the caller applies the symmetry
    switch for larger x.  The elements of the 1-D array ``x`` run the
    recurrence in lockstep, each with the operations of a one-point loop
    in the same order, so IEEE arithmetic gives every element the bits it
    would get alone.  An element keeps ``h`` from the iteration where it
    converged and leaves the live set.
    """
    out = np.empty_like(x)
    if not x.size:
        return out
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    live = np.arange(x.size)
    dc = np.ones((2, x.size))  # rows d and c of the recurrence, clamped together
    d, c = dc
    np.subtract(1.0, qab * x / qap, out=d)
    _clamp_tiny(d)
    np.divide(_ONE, d, out=d)
    h = d.copy()
    m = 0
    while x.size:
        m += 1
        if m > _CF_MAX_ITER:
            raise ArithmeticError(
                "incomplete beta continued fraction did not converge "
                f"(a={a}, b={b}, x={x[0]})"
            )
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d *= aa
            np.divide(aa, c, out=c)
            dc += _ONE
            _clamp_tiny(dc)
            np.divide(_ONE, d, out=d)
            delta = d * c
            h *= delta
        done = np.abs(delta - _ONE) < _EPS
        if np.count_nonzero(done):
            out[live[done]] = h[done]
            keep = ~done
            x, h, live, dc = x[keep], h[keep], live[keep], dc[:, keep]
            d, c = dc
    return out


def _check_unit_interval(v: float) -> None:
    if not (0.0 <= v <= 1.0):
        raise DomainError(f"v must lie in [0, 1], got {v}")


def reg_inc_beta(v, params: BetaParams):
    """Regularized incomplete beta function I_v(alpha, beta).

    Equals the CDF of Beta(alpha, beta) at ``v``.  Monotone nondecreasing
    in ``v``; exact 0/1 at the support bounds and exact 1/2 at the center
    of a symmetric Beta.  ``v`` is a float, giving a float, or an array,
    giving a float64 array of its shape.  The points of an array run the
    continued fraction in lockstep: one pass when alpha == beta (every
    median), else one per side of the symmetry switch.  Each element
    equals the float call on that element bit for bit.
    """
    x = np.asarray(v, dtype=np.float64)
    shape = x.shape
    x = x.reshape(-1)
    outside = ~((x >= 0.0) & (x <= 1.0))
    if outside.any():
        raise DomainError(f"v must lie in [0, 1], got {x[outside][0]}")
    a, b = params.alpha, params.beta
    out = np.zeros_like(x)
    out[x == 1.0] = 1.0
    inner = (x > 0.0) & (x < 1.0)
    if a == b:
        center = x == 0.5
        out[center] = 0.5
        inner &= ~center
    xs = x[inner]
    log_beta = _log_beta(a, b)
    front = np.array(
        [math.exp(a * math.log(t) + b * math.log1p(-t) - log_beta) for t in xs.tolist()]
    )
    # A point below the switch takes the fraction with shapes (a, b) at v,
    # one above it (b, a) at 1 - v.
    lower = xs < (a + 1.0) / (a + b + 2.0)
    if a == b:
        # Every median: both sides use the same fraction, in one pass.
        cf = _beta_cf(a, b, np.where(lower, xs, 1.0 - xs))
    else:
        cf = np.empty_like(xs)
        cf[lower] = _beta_cf(a, b, xs[lower])
        cf[~lower] = _beta_cf(b, a, 1.0 - xs[~lower])
    out[inner] = np.where(lower, front * cf / a, 1.0 - front * cf / b)
    if not shape:
        return float(out[0])
    return out.reshape(shape)


def beta_pdf(v: float, params: BetaParams) -> float:
    """Density of Beta(alpha, beta) at ``v``."""
    _check_unit_interval(v)
    a, b = params.alpha, params.beta
    if v == 0.0 or v == 1.0:
        exponent = a - 1.0 if v == 0.0 else b - 1.0
        if exponent > 0.0:
            return 0.0
        if exponent == 0.0:
            return math.exp(-_log_beta(a, b))
        return math.inf
    return math.exp(
        (a - 1.0) * math.log(v) + (b - 1.0) * math.log1p(-v) - _log_beta(a, b)
    )
