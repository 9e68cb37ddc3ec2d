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

Every estimator takes any iterable of finite reals, in any order, and
sorts it once per call; NaN or infinity raises ``DomainError`` and an
empty sample ``SampleError``.  Every estimate is a fixed weighted sum of
the order statistics, clamped to the sample's range: the batch kernel's
``_weighted_median`` on the sorted sample as one row, so
``median(x, kind)`` is the median that ``mad.mad_uncorrected`` and the
Monte-Carlo studies take.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from madkit._kernel import _weighted_median
from madkit.errors import DomainError, SampleError
from madkit.specfun import BetaParams, beta_pdf, reg_inc_beta

__all__ = [
    "MedianEstimator",
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


def finite_values(values: Iterable[float]) -> np.ndarray:
    """``values`` as a flat float64 array, unsorted; rejects NaN and infinity.

    An input that already is a flat float64 array is returned as it is,
    not copied.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size and not np.isfinite(arr).all():
        raise DomainError("sample values must be finite (no NaN or infinity)")
    return arr


def _sorted(x: Iterable[float]) -> np.ndarray:
    """The finite values of ``x``, sorted ascending; an empty sample raises."""
    xs = np.sort(finite_values(x))
    if xs.size == 0:
        raise SampleError("estimate requires a nonempty sample")
    return xs


def _sum(xs: np.ndarray, w: np.ndarray) -> float:
    """The kernel's clamped sum of ``w`` times the sorted sample ``xs``, as one row."""
    return float(_weighted_median(xs[:, None], w)[0])


def _format_param(value: float) -> str:
    """``:g`` when it reads back as the same float, else the shortest exact form."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


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
        return f"thd({_format_param(self.width)})"

    def __str__(self) -> str:
        return self.label


def _check_estimator(kind) -> None:
    if not isinstance(kind, MedianEstimator):
        raise DomainError(f"the estimator must be a MedianEstimator, got {kind!r}")


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
            width = float(s[4:-1])
        except ValueError as exc:
            raise DomainError(f"bad thd width in {text!r}") from exc
        return thd(width)  # a width outside (0, 1] raises, naming the range
    raise DomainError(f"unknown estimator {text!r} (expected sm, hd, thd-sqrt, or thd(w))")


def _check_open_prob(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile order p must lie strictly in (0, 1), got {p}")


def hf7_quantile(x: Iterable[float], p: float) -> float:
    """Hyndman-Fan type 7 sample quantile (linear order-statistic interpolation).

    At p = 0.5 this is ``median(x, SM)``, the classic sample median.
    """
    xs = _sorted(x)
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"quantile order p must lie in [0, 1], got {p}")
    return _hf7_sorted(xs, p)


def _hf7_sorted(xs: np.ndarray, p: float) -> float:
    """``hf7_quantile`` of the nonempty sorted sample ``xs``, p in [0, 1]."""
    if p == 0.5:
        return _sum(xs, median_weights(xs.size, SM))
    h = (xs.size - 1) * p
    i = int(math.floor(h))
    if i >= xs.size - 1:
        return float(xs[-1])
    g = h - i
    lo, hi = float(xs[i]), float(xs[i + 1])
    if math.isfinite(hi - lo):
        return lo + g * (hi - lo)
    # lo < 0 < hi: neither term nor their sum overflows, and it lies in [lo, hi].
    return (1.0 - g) * lo + g * hi


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

# Half-width of the first HD bracket: _BRACKET_SDS standard deviations of
# the weight-generating Beta, and at least _BRACKET_POINTS grid points.
# For a near-normal Beta the window's edges lie about 9.1 (CDF 2**-64) and
# 8.3 (CDF 1 - 2**-54) deviations from the mean.  A skewed Beta (p far
# from 0.5 at small n) has one long tail, which the floor in points covers
# up to about n = 1e4 at p = 0.01: on grids that short a call costs per
# iteration of the continued fraction, not per point, so a wide first
# bracket is cheaper than a second call.
_BRACKET_SDS = 10.0
_BRACKET_POINTS = 256


def _hd_bracket(n: int, p: float, params: BetaParams) -> tuple[int, np.ndarray]:
    """``(lo, cdf)``: the CDF on grid points lo, lo + 1, ... that hold the HD window.

    The bracket is centred on the Beta mean p; it is doubled until its
    first value is below the floor and its last is 1.0.  The CDF is
    exactly 0 at grid point 0 and exactly 1 at n, so an end that fails
    the test is never an end of the grid, and the window's edges lie
    outside that end.
    """
    half = max(_BRACKET_SDS * math.sqrt(p * (1.0 - p) / (n + 2)), _BRACKET_POINTS / n)
    while True:
        lo = max(0, math.floor((p - half) * n))
        hi = min(n, math.ceil((p + half) * n))
        cdf = reg_inc_beta(np.arange(lo, hi + 1) / n, params)
        if cdf[0] < _CDF_FLOOR and cdf[-1] >= 1.0:
            return lo, cdf
        half *= 2.0


@functools.lru_cache(maxsize=64)
def _cdf_window(n: int, p: float, width: Optional[float]):
    """The part of the weight-generating CDF on the i/n grid that is not 0 or 1.

    Returns ``(first, cdf)``: the CDF at grid point ``first + k`` is
    ``cdf[k]``; it is 0 before ``first`` and 1 from ``first + len(cdf)`` on.
    ``width`` is None for HD and the HDI width for THD; a degenerate HDI
    falls back to the HD window.

    Each build is one array call of ``reg_inc_beta``, which runs the Beta
    CDF's continued fraction over all its points in lockstep.  For HD the
    window is where the CDF lies in [2**-64, 1): the call covers a bracket
    of grid points about the Beta mean (``_hd_bracket``), and the window
    runs from the first point at or above the floor to the first point at
    1.0, so a build costs O(sqrt(n)) points instead of n + 1 (at p = 0.5
    the window is about 9/sqrt(n) wide; Harrell & Davis 1982).  Above the
    window the computed CDF is already exactly 1.0.  For THD the call
    covers the HDI's ends and its grid cells; the clamped, renormalized
    CDF is exactly 1.0 at its right edge, and a step there when the HDI
    holds no probability.

    The cache is bounded and holds only these windows, never dense
    n-vectors; it serves repeated builds of one (n, estimator), as warm
    ``madkit mad`` calls in one process and repeated estimates make.
    """
    params = _hd_params(n, p)
    hdi = None if width is None else beta_hdi(params, width)
    if hdi is None:
        lo, cdf = _hd_bracket(n, p, params)
        start = int(np.argmax(cdf >= _CDF_FLOOR))
        stop = start + int(np.argmax(cdf[start:] >= 1.0))
        first, window = lo + start, cdf[start:stop]
    else:
        left, right = hdi
        first = min(math.floor(left * n) + 1, n)  # left may round to 1.0
        grid = np.minimum(np.maximum(np.arange(first, math.ceil(right * n) + 1) / n, left), right)
        cdf = reg_inc_beta(np.concatenate(([left, right], grid)), params)
        cdf_left = cdf[0]
        if cdf[1] > cdf_left:
            window = (cdf[2:] - cdf_left) / (cdf[1] - cdf_left)
        else:  # no float64 probability in the HDI: the zero-width limit
            window = (grid >= right).astype(np.float64)
    window.flags.writeable = False
    return first, window


def _weights(n: int, p: float, width: Optional[float]) -> np.ndarray:
    """Fresh read-only HD (``width`` None) or THD weights from the cached ``_cdf_window``."""
    if n < 1:
        raise SampleError(f"need n >= 1, got {n}")
    _check_open_prob(p)
    first, window = _cdf_window(n, p, width)
    cdf = np.zeros(n + 1)
    stop = first + window.size
    cdf[first:stop] = window
    cdf[stop:] = 1.0
    w = np.diff(cdf)
    if p == 0.5:
        w = _symmetrize(w)
    w.flags.writeable = False
    return w


def hd_weights(n: int, p: float) -> np.ndarray:
    """Harrell-Davis weights: consecutive Beta CDF differences on the i/n grid.

    Only the grid window where the CDF lies in [2**-64, 1) is evaluated
    (O(sqrt(n)) points in one array call, see ``_cdf_window``); weights
    outside it are 0, and each is under 6e-20 in exact arithmetic.
    Windows are kept in a small bounded cache; the returned dense array is
    fresh and read-only.
    """
    return _weights(n, p, None)


def hd_quantile(x: Iterable[float], p: float) -> float:
    """Harrell-Davis quantile estimate: weighted sum of all order statistics."""
    xs = _sorted(x)
    return _sum(xs, hd_weights(xs.size, p))


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


def thd_weights(n: int, p: float, width: float) -> np.ndarray:
    """Trimmed Harrell-Davis weights.

    The Beta CDF is clamped to the highest-density interval [L, R] and
    renormalized; only order statistics with index in (floor(L*n),
    ceil(R*n)] receive mass, so a build evaluates the Beta CDF at about
    width*n points, in one array call.  That window shares HD's small
    bounded cache, keyed by (n, p, width); the returned dense array is
    fresh and read-only.  Degenerate HDI falls back to the untrimmed
    weights.  An HDI that holds no float64 probability, as at width 1e-300,
    gives the zero-width limit: the CDF steps from 0 to 1 at the HDI, so
    all the mass falls on one order statistic, and at p = 0.5 the weights
    are the sample median's.
    """
    return _weights(n, p, width)


def thd_quantile(x: Iterable[float], p: float, width: Optional[float] = None) -> float:
    """Trimmed Harrell-Davis quantile estimate; width defaults to 1/sqrt(n)."""
    xs = _sorted(x)
    n = xs.size
    return _sum(xs, thd_weights(n, p, THD_SQRT.resolve_width(n) if width is None else width))


def median(x: Iterable[float], kind: MedianEstimator = SM) -> float:
    """Median estimate: the clamped sum of ``median_weights(n, kind)`` times sorted x."""
    xs = _sorted(x)
    return _sum(xs, median_weights(xs.size, kind))


def median_weights(n: int, kind: MedianEstimator = SM) -> np.ndarray:
    """Weight vector w of ``median(x, kind)``: sum(w * sorted(x)), clamped.

    Every estimator's median is a fixed weighted sum of order statistics;
    this is what the batch simulation kernel consumes, and the one place
    that tells the estimators apart.  HD and THD weights
    come from the bounded window cache of ``hd_weights``/``thd_weights``:
    HD drops weights below 2**-64 and evaluates the Beta CDF at O(sqrt(n))
    points.
    """
    _check_estimator(kind)
    if n < 1:
        raise SampleError(f"need n >= 1, got {n}")
    if kind.kind == "sm":
        w = np.zeros(n)
        w[(n - 1) // 2 : n // 2 + 1] = 1.0 if n % 2 else 0.5  # the middle one or two
        w.flags.writeable = False
        return w
    if kind.kind == "hd":
        return hd_weights(n, 0.5)
    return thd_weights(n, 0.5, kind.resolve_width(n))
