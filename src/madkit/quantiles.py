"""Median and quantile estimators built on weighted order statistics.

Three estimators are provided:

* ``SM`` -- the classic sample median, equivalently the Hyndman-Fan type 7
  quantile at p = 0.5 (middle order statistic, or the mean of the two
  middle ones for even n).
* ``HD`` -- the Harrell-Davis estimator: a weighted sum of *all* order
  statistics, with weights taken from consecutive differences of the
  Beta((n+1)p, (n+1)(1-p)) CDF.  Efficient, but a single wild observation
  can drag it anywhere (breakdown point 0).
* ``THD`` -- the trimmed Harrell-Davis estimator: the HD weights restricted
  to the highest-density interval of the weight-generating Beta
  distribution and renormalized.  ``THD_SQRT`` uses interval width
  1/sqrt(n), a practical efficiency/robustness compromise.

All estimators consume a :class:`Sample`, which sorts and validates its
data once at construction.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from madkit.errors import DomainError, SampleError
from madkit.specfun import BetaParams, beta_pdf, reg_inc_beta

__all__ = [
    "Sample",
    "MedianEstimator",
    "QuantileWeights",
    "SM",
    "HD",
    "THD_SQRT",
    "thd",
    "parse_estimator",
    "hf7_quantile",
    "hd_weights",
    "hd_quantile",
    "beta_hdi",
    "thd_weights",
    "thd_quantile",
    "median",
    "median_weights",
]

_HDI_EPS = 1e-9
_HDI_TOL = 1e-9


class Sample:
    """An immutable sorted sample of finite reals.

    Input order is irrelevant to every estimator, so values are sorted
    ascending once here.  Non-finite entries are rejected.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size and not np.isfinite(arr).all():
            raise DomainError("sample values must be finite (no NaN or infinity)")
        arr = np.sort(arr)
        arr.flags.writeable = False
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Sorted values as a read-only float64 array."""
        return self._values

    @property
    def n(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"Sample(n={self.n})"


SampleLike = Union[Sample, Iterable[float]]


def as_sample(x: SampleLike) -> Sample:
    return x if isinstance(x, Sample) else Sample(x)


@dataclass(frozen=True)
class MedianEstimator:
    """Identifies a median estimator: 'sm', 'hd', or 'thd'.

    For 'thd', ``width`` is the highest-density-interval width; ``None``
    means the 1/sqrt(n) rule resolved at call time (the THD-SQRT variant).
    """

    kind: str
    width: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("sm", "hd", "thd"):
            raise DomainError(f"unknown estimator kind {self.kind!r}")
        if self.width is not None:
            if self.kind != "thd":
                raise DomainError("width applies to the thd estimator only")
            if not (0.0 < self.width <= 1.0):
                raise DomainError(f"thd width must lie in (0, 1], got {self.width}")

    def resolve_width(self, n: int) -> float:
        if self.width is not None:
            return self.width
        return 1.0 / math.sqrt(n)

    @property
    def label(self) -> str:
        if self.kind != "thd":
            return self.kind
        if self.width is None:
            return "thd-sqrt"
        return f"thd({self.width:g})"

    def __str__(self) -> str:
        return self.label


SM = MedianEstimator("sm")
HD = MedianEstimator("hd")
THD_SQRT = MedianEstimator("thd")


def thd(width: float) -> MedianEstimator:
    """A trimmed Harrell-Davis estimator with a fixed interval width."""
    return MedianEstimator("thd", float(width))


def parse_estimator(text: str) -> MedianEstimator:
    """Parse 'sm' / 'hd' / 'thd-sqrt' / 'thd(0.25)' into an estimator."""
    s = text.strip().lower()
    if s == "sm":
        return SM
    if s == "hd":
        return HD
    if s in ("thd", "thd-sqrt", "thd_sqrt"):
        return THD_SQRT
    if s.startswith("thd(") and s.endswith(")"):
        try:
            return thd(float(s[4:-1]))
        except ValueError as exc:
            raise DomainError(f"bad thd width in {text!r}") from exc
    raise DomainError(f"unknown estimator {text!r} (expected sm, hd, thd-sqrt, or thd(w))")


@dataclass(frozen=True)
class QuantileWeights:
    """Per-order-statistic weights.

    ``hdi`` is (left, right, width) for trimmed weights, ``None`` otherwise.
    Weights are nonnegative and sum to 1.
    """

    weights: np.ndarray
    hdi: Optional[tuple[float, float, float]] = None


def _require_nonempty(x: Sample) -> None:
    if x.n == 0:
        raise SampleError("estimate requires a nonempty sample")


def _weighted_sum(w: QuantileWeights, x: Sample) -> float:
    """Sum of weights times order statistics, kept inside the sample range.

    einsum, not a BLAS dot product, which OpenBLAS runs multi-threaded at
    large n.  The clamp undoes rounding only: the exact sum lies in
    [min, max], and a constant sample must give exactly its constant.
    """
    v = x.values
    return min(max(float(np.einsum("i,i->", w.weights, v)), float(v[0])), float(v[-1]))


def _check_open_prob(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile order p must lie strictly in (0, 1), got {p}")


def hf7_quantile(x: SampleLike, p: float) -> float:
    """Hyndman-Fan type 7 sample quantile (linear order-statistic interpolation).

    At p = 0.5 this is exactly the classic sample median.
    """
    x = as_sample(x)
    _require_nonempty(x)
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"quantile order p must lie in [0, 1], got {p}")
    v = x.values
    n = x.n
    if p == 0.5:
        # Exact median forms, so SM agrees bitwise with weighted-sum medians
        # that collapse onto the same order statistics.
        mid = n // 2
        return float(v[mid]) if n % 2 else float(0.5 * (v[mid - 1] + v[mid]))
    h = (n - 1) * p
    i = int(math.floor(h))
    if i >= n - 1:
        return float(v[n - 1])
    g = h - i
    return float(v[i] + g * (v[i + 1] - v[i]))


def _hd_params(n: int, p: float) -> BetaParams:
    return BetaParams((n + 1) * p, (n + 1) * (1.0 - p))


def _symmetrize(w: np.ndarray) -> np.ndarray:
    # The exact weights at p = 0.5 are symmetric; averaging with the reversal
    # removes solver round-off so structural identities (e.g. the n = 2
    # collapse) hold bitwise.
    return 0.5 * (w + w[::-1])


# Grid points where the HD weight-generating CDF is below this floor are
# set to 0: each weight dropped is a difference of two such CDF values, so
# it is under 2**-64 (about 5.4e-20).
_CDF_FLOOR = 2.0 ** -64


def _first_true(lo: int, hi: int, pred) -> int:
    """Smallest i in [lo, hi] with pred(i), for pred monotone and pred(hi) true."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@functools.lru_cache(maxsize=64)
def _cdf_window(n: int, p: float, width: Optional[float]):
    """The part of the weight-generating CDF on the i/n grid that is not 0 or 1.

    Returns ``(first, cdf, hdi)``: the CDF at grid point ``first + k`` is
    ``cdf[k]``; it is 0 before ``first`` and 1 from ``first + len(cdf)`` on.
    ``width`` is None for HD and the HDI width for THD; ``hdi`` is the
    (left, right) interval, or None for HD and the degenerate-HDI fallback.

    For HD the window is where the CDF lies in [2**-64, 1), found by
    bisection on the monotone CDF, so a build costs O(log n) + O(sqrt(n))
    Beta-CDF evaluations instead of n + 1 (at p = 0.5 the window is about
    9/sqrt(n) wide; Harrell & Davis 1982).  Above the window the computed
    CDF is already exactly 1.0.  For THD the window is the HDI's grid
    cells; the clamped, renormalized CDF is exactly 1.0 at its right edge.

    The cache is bounded and holds only these windows, never dense
    n-vectors; the centre and deviation medians of one MAD share a build.
    """
    params = _hd_params(n, p)
    hdi = None if width is None else beta_hdi(params, width)
    if hdi is None:

        def cdf(i: int) -> float:
            return reg_inc_beta(i / n, params)

        first = _first_true(0, n, lambda i: cdf(i) >= _CDF_FLOOR)
        stop = _first_true(first, n, lambda i: cdf(i) >= 1.0)
        values = [cdf(i) for i in range(first, stop)]
    else:
        left, right = hdi
        cdf_left = reg_inc_beta(left, params)
        denom = reg_inc_beta(right, params) - cdf_left
        first = math.floor(left * n) + 1
        values = [
            (reg_inc_beta(min(max(i / n, left), right), params) - cdf_left) / denom
            for i in range(first, math.ceil(right * n) + 1)
        ]
    window = np.array(values, dtype=np.float64)
    window.flags.writeable = False
    return first, window, hdi


def _dense_weights(n: int, p: float, first: int, window: np.ndarray) -> np.ndarray:
    """Read-only weights: differences of the CDF rebuilt on the full grid."""
    cdf = np.zeros(n + 1)
    stop = first + window.size
    cdf[first:stop] = window
    cdf[stop:] = 1.0
    w = np.diff(cdf)
    if p == 0.5:
        w = _symmetrize(w)
    w.flags.writeable = False
    return w


def hd_weights(n: int, p: float) -> QuantileWeights:
    """Harrell-Davis weights: consecutive Beta CDF differences on the i/n grid.

    Only the grid window where the CDF lies in [2**-64, 1) is evaluated
    (O(sqrt(n)) Beta-CDF calls, see ``_cdf_window``); weights outside it
    are 0, and each is under 6e-20 in exact arithmetic.  Windows are kept
    in a small bounded cache; the returned dense array is fresh and
    read-only.
    """
    if n < 1:
        raise SampleError(f"need n >= 1, got {n}")
    _check_open_prob(p)
    first, window, _ = _cdf_window(n, p, None)
    return QuantileWeights(_dense_weights(n, p, first, window))


def hd_quantile(x: SampleLike, p: float) -> float:
    """Harrell-Davis quantile estimate: weighted sum of all order statistics."""
    x = as_sample(x)
    _require_nonempty(x)
    w = hd_weights(x.n, p)
    return _weighted_sum(w, x)


def beta_hdi(params: BetaParams, width: float) -> Optional[tuple[float, float]]:
    """Highest density interval of given width for Beta(alpha, beta).

    Returns ``None`` in the degenerate case (both shapes below 1, density
    bathtub-shaped, no unique interval); callers fall back to untrimmed
    weights.  Border cases pin the interval to the support edge; otherwise
    the left endpoint solves pdf(l) = pdf(l + width) by bisection to 1e-9.
    """
    if not (0.0 < width <= 1.0):
        raise DomainError(f"width must lie in (0, 1], got {width}")
    a, b = params.alpha, params.beta
    if a < 1.0 + _HDI_EPS and b < 1.0 + _HDI_EPS:
        return None
    if a < 1.0 + _HDI_EPS and b > 1.0:
        return (0.0, width)
    if a > 1.0 and b < 1.0 + _HDI_EPS:
        return (1.0 - width, 1.0)
    if width > 1.0 - _HDI_EPS:
        return (0.0, 1.0)
    mode = (a - 1.0) / (a + b - 2.0)
    if a == b:
        # Symmetric density: the interval is centered, exactly.
        left = 0.5 * (1.0 - width)
        return (left, left + width)
    lo = max(0.0, mode - width)
    hi = min(mode, 1.0 - width)
    if hi <= lo:
        return (lo, lo + width)

    def f(left: float) -> float:
        return beta_pdf(left, params) - beta_pdf(left + width, params)

    flo = f(lo)
    # f is increasing across [lo, hi]: the density at the left endpoint starts
    # below the right endpoint's and ends above it as the window slides left.
    while hi - lo > _HDI_TOL:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == (flo < 0.0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    left = 0.5 * (lo + hi)
    return (left, left + width)


def thd_weights(n: int, p: float, width: float) -> QuantileWeights:
    """Trimmed Harrell-Davis weights.

    The Beta CDF is clamped to the highest-density interval [L, R] and
    renormalized; only order statistics with index in (floor(L*n),
    ceil(R*n)] receive mass, so a build costs about width*n Beta-CDF
    calls.  That window shares HD's small bounded cache, keyed by
    (n, p, width); the returned dense array is fresh and read-only.
    Degenerate HDI falls back to the untrimmed weights.
    """
    if n < 1:
        raise SampleError(f"need n >= 1, got {n}")
    _check_open_prob(p)
    first, window, hdi = _cdf_window(n, p, width)
    if hdi is not None:
        left, right = hdi
        hdi = (left, right, right - left)
    return QuantileWeights(_dense_weights(n, p, first, window), hdi=hdi)


def thd_quantile(x: SampleLike, p: float, width: Optional[float] = None) -> float:
    """Trimmed Harrell-Davis quantile estimate; width defaults to 1/sqrt(n)."""
    x = as_sample(x)
    _require_nonempty(x)
    if width is None:
        width = 1.0 / math.sqrt(x.n)
    w = thd_weights(x.n, p, width)
    return _weighted_sum(w, x)


def median(x: SampleLike, kind: MedianEstimator = SM) -> float:
    """Median estimate using the chosen estimator."""
    x = as_sample(x)
    _require_nonempty(x)
    if kind.kind == "sm":
        return hf7_quantile(x, 0.5)
    if kind.kind == "hd":
        return hd_quantile(x, 0.5)
    return thd_quantile(x, 0.5, kind.resolve_width(x.n))


def median_weights(n: int, kind: MedianEstimator = SM) -> np.ndarray:
    """Weight vector w such that median(x, kind) == dot(w, sorted(x)).

    Every estimator's median is a fixed weighted sum of order statistics;
    this is what the batch simulation kernel consumes.  HD and THD weights
    come from the bounded window cache of ``hd_weights``/``thd_weights``:
    HD drops weights below 2**-64 and evaluates O(sqrt(n)) Beta CDFs.
    """
    if n < 1:
        raise SampleError(f"need n >= 1, got {n}")
    if kind.kind == "sm":
        w = np.zeros(n)
        mid = n // 2
        if n % 2:
            w[mid] = 1.0
        else:
            w[mid - 1] = w[mid] = 0.5
        w.flags.writeable = False
        return w
    if kind.kind == "hd":
        return hd_weights(n, 0.5).weights
    return thd_weights(n, 0.5, kind.resolve_width(n)).weights
