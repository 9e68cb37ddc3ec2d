"""madkit: bias-corrected median absolute deviation.

The MAD is a robust dispersion measure; multiplied by the right
sample-size-dependent constant it becomes an unbiased estimator of the
standard deviation under normality.  This package provides those
constants for three median estimators (sample median, Harrell-Davis, and
trimmed Harrell-Davis), the estimators themselves, seeded samplers, and
the Monte-Carlo machinery to recalibrate everything from scratch.
"""

__version__ = "0.1.0"

from madkit.distributions import DistributionSpec, RngStream, parse_spec
from madkit.errors import MadkitError
from madkit.mad import (
    DEFAULT_MODEL,
    MadValue,
    asymptotic_factor,
    correction_factor,
    mad_corrected,
    mad_uncorrected,
)
from madkit.quantiles import (
    HD,
    SM,
    THD_SQRT,
    MedianEstimator,
    hd_quantile,
    hf7_quantile,
    median,
    thd,
    thd_quantile,
)

__all__ = [
    "__version__",
    "MadkitError",
    "MedianEstimator",
    "SM",
    "HD",
    "THD_SQRT",
    "thd",
    "median",
    "hf7_quantile",
    "hd_quantile",
    "thd_quantile",
    "MadValue",
    "mad_uncorrected",
    "mad_corrected",
    "correction_factor",
    "asymptotic_factor",
    "DEFAULT_MODEL",
    "DistributionSpec",
    "RngStream",
    "parse_spec",
]
