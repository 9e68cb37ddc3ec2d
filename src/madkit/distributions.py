"""Seeded, reproducible samplers for the simulation studies.

Each distribution draws by inverse-CDF transform where the quantile
function is closed-form; the normal uses the generator's exact method,
the Beta uses two Gamma variates, and Student's t uses normal over
root-chi-square.  Randomness comes from counter-based Philox streams
keyed by (master_seed, stream_id), so any (seed, stream) pair yields a
bit-identical sequence regardless of platform or thread count.

Specs parse from compact strings such as ``lognormal(mlog=0,sdlog=2)``
or ``pareto(loc=1,shape=0.5)``; family names are case-insensitive.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from madkit.errors import DistributionSpecError
from madkit.quantiles import Sample

__all__ = [
    "RngStream",
    "derive_stream_id",
    "DistributionSpec",
    "parse_spec",
    "sample",
    "DEFAULT_SENSITIVITY_SET",
]

_MASK64 = (1 << 64) - 1


def derive_stream_id(*parts: int) -> int:
    """Mix integer parts into a 64-bit stream id (splitmix64 finalizer chain).

    Deterministic and platform-independent, unlike the builtin ``hash``.
    """
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = (h ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        h ^= h >> 30
        h = h * 0x94D049BB133111EB & _MASK64
        h ^= h >> 27
        h = h * 0x2545F4914F6CDD1D & _MASK64
        h ^= h >> 31
    return h


@dataclass(frozen=True)
class RngStream:
    """A named position in the random-number space: (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.master_seed & _MASK64, self.stream_id & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


def _open_uniform(rng: np.random.Generator, size) -> np.ndarray:
    # Uniform on the open interval (0, 1): keeps every log/tan transform finite.
    return rng.integers(1, 1 << 53, size=size).astype(np.float64) * 2.0**-53


DrawFn = Callable[[np.random.Generator, tuple, dict], np.ndarray]


@dataclass(frozen=True)
class _Family:
    name: str
    params: tuple[str, ...]
    defaults: dict
    check: Callable[[dict], Union[str, None]]
    draw: DrawFn


def _draw_uniform(rng, size, p):
    return p["a"] + (p["b"] - p["a"]) * _open_uniform(rng, size)


def _draw_triangular(rng, size, p):
    a, b, c = p["a"], p["b"], p["c"]
    u = _open_uniform(rng, size)
    fc = (c - a) / (b - a)
    lower = a + np.sqrt(u * (b - a) * (c - a))
    upper = b - np.sqrt((1.0 - u) * (b - a) * (b - c))
    return np.where(u < fc, lower, upper)


def _draw_beta(rng, size, p):
    g1 = rng.standard_gamma(p["a"], size=size)
    g2 = rng.standard_gamma(p["b"], size=size)
    return g1 / (g1 + g2)


def _draw_normal(rng, size, p):
    return p["m"] + p["sd"] * rng.standard_normal(size=size)


def _draw_weibull(rng, size, p):
    u = _open_uniform(rng, size)
    return p["scale"] * (-np.log1p(-u)) ** (1.0 / p["shape"])


def _draw_student(rng, size, p):
    df = p["df"]
    z = rng.standard_normal(size=size)
    chi2 = 2.0 * rng.standard_gamma(df / 2.0, size=size)
    return z / np.sqrt(chi2 / df)


def _draw_gumbel(rng, size, p):
    u = _open_uniform(rng, size)
    return p["loc"] - p["scale"] * np.log(-np.log(u))


def _draw_exponential(rng, size, p):
    return -np.log1p(-_open_uniform(rng, size)) / p["rate"]


def _draw_cauchy(rng, size, p):
    u = _open_uniform(rng, size)
    return p["x0"] + p["gamma"] * np.tan(np.pi * (u - 0.5))


def _draw_pareto(rng, size, p):
    u = _open_uniform(rng, size)
    return p["loc"] * (1.0 - u) ** (-1.0 / p["shape"])


def _draw_lognormal(rng, size, p):
    return np.exp(p["mlog"] + p["sdlog"] * rng.standard_normal(size=size))


def _draw_frechet(rng, size, p):
    u = _open_uniform(rng, size)
    return (-np.log(u)) ** (-1.0 / p["shape"])


def _draw_constant(rng, size, p):
    return np.full(size, p["value"])


def _positive(*names):
    def check(p):
        for name in names:
            if not p[name] > 0.0:
                return f"{name} must be positive"
        return None

    return check


def _check_uniform(p):
    return None if p["a"] < p["b"] else "need a < b"


def _check_triangular(p):
    if not p["a"] < p["b"]:
        return "need a < b"
    if not (p["a"] <= p["c"] <= p["b"]):
        return "need a <= c <= b"
    return None


_FAMILIES = {
    f.name: f
    for f in (
        _Family("uniform", ("a", "b"), {"a": 0.0, "b": 1.0}, _check_uniform, _draw_uniform),
        _Family("triangular", ("a", "b", "c"), {}, _check_triangular, _draw_triangular),
        _Family("beta", ("a", "b"), {}, _positive("a", "b"), _draw_beta),
        _Family("normal", ("m", "sd"), {"m": 0.0, "sd": 1.0}, _positive("sd"), _draw_normal),
        _Family("weibull", ("scale", "shape"), {"scale": 1.0}, _positive("scale", "shape"), _draw_weibull),
        _Family("student", ("df",), {}, _positive("df"), _draw_student),
        _Family("gumbel", ("loc", "scale"), {"loc": 0.0, "scale": 1.0}, _positive("scale"), _draw_gumbel),
        _Family("exp", ("rate",), {"rate": 1.0}, _positive("rate"), _draw_exponential),
        _Family("cauchy", ("x0", "gamma"), {"x0": 0.0, "gamma": 1.0}, _positive("gamma"), _draw_cauchy),
        _Family("pareto", ("loc", "shape"), {"loc": 1.0}, _positive("loc", "shape"), _draw_pareto),
        _Family("lognormal", ("mlog", "sdlog"), {"mlog": 0.0}, _positive("sdlog"), _draw_lognormal),
        _Family("frechet", ("shape",), {}, _positive("shape"), _draw_frechet),
        # Point mass: degenerate but handy for exercising zero-dispersion paths.
        _Family("constant", ("value",), {"value": 0.0}, lambda p: None, _draw_constant),
    )
}

_ALIASES = {"exponential": "exp", "studentt": "student", "t": "student"}


@dataclass(frozen=True)
class DistributionSpec:
    """A named parametric distribution with a deterministic sampling recipe."""

    family: str
    params: tuple[tuple[str, float], ...]

    @classmethod
    def make(cls, family: str, **params: float) -> "DistributionSpec":
        name = family.strip().lower()
        name = _ALIASES.get(name, name)
        fam = _FAMILIES.get(name)
        if fam is None:
            raise DistributionSpecError(f"unknown distribution family {family!r}")
        values = dict(fam.defaults)
        for key, val in params.items():
            if key not in fam.params:
                raise DistributionSpecError(
                    f"{name} takes parameters {fam.params}, not {key!r}"
                )
            values[key] = float(val)
        missing = [k for k in fam.params if k not in values]
        if missing:
            raise DistributionSpecError(f"{name} is missing parameters: {missing}")
        problem = fam.check(values)
        if problem:
            raise DistributionSpecError(f"{name}: {problem}")
        return cls(name, tuple((k, values[k]) for k in fam.params))

    @property
    def _family(self) -> _Family:
        return _FAMILIES[self.family]

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Raw i.i.d. draws (unsorted), any shape."""
        return self._family.draw(rng, size, dict(self.params))

    def __str__(self) -> str:
        args = ",".join(f"{k}={_format_param(v)}" for k, v in self.params)
        return f"{self.family}({args})"


def _format_param(value: float) -> str:
    """``:g`` when it reads back as the same float, else the shortest exact form."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


_SPEC_RE = re.compile(r"^\s*([A-Za-z_]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")


def parse_spec(text: str) -> DistributionSpec:
    """Parse ``family(key=value,...)``; family names are case-insensitive."""
    m = _SPEC_RE.match(text)
    if not m:
        raise DistributionSpecError(f"cannot parse distribution spec {text!r}")
    family, args = m.group(1), m.group(2)
    params = {}
    if args:
        for item in args.split(","):
            if "=" not in item:
                raise DistributionSpecError(
                    f"expected key=value in {text!r}, got {item.strip()!r}"
                )
            key, _, val = item.partition("=")
            try:
                params[key.strip().lower()] = float(val)
            except ValueError:
                raise DistributionSpecError(
                    f"bad numeric value {val.strip()!r} in {text!r}"
                ) from None
    return DistributionSpec.make(family, **params)


def sample(spec: DistributionSpec, n: int, stream: RngStream) -> Sample:
    """n i.i.d. draws from ``spec`` as a Sample; deterministic given the stream."""
    if n < 1:
        raise DistributionSpecError(f"need n >= 1, got {n}")
    return Sample(spec.draw(stream.generator(), n))


def _specs(*texts: str) -> tuple[DistributionSpec, ...]:
    return tuple(parse_spec(t) for t in texts)


# The stock light-through-heavy-tailed benchmark set used by the
# sensitivity study (and the CLI default for it).
DEFAULT_SENSITIVITY_SET = _specs(
    "uniform(a=0,b=1)",
    "triangular(a=0,b=2,c=1)",
    "triangular(a=0,b=2,c=0.2)",
    "beta(a=2,b=4)",
    "beta(a=2,b=10)",
    "normal(m=0,sd=1)",
    "weibull(scale=1,shape=2)",
    "student(df=3)",
    "gumbel(loc=0,scale=1)",
    "exp(rate=1)",
    "cauchy(x0=0,gamma=1)",
    "pareto(loc=1,shape=0.5)",
    "pareto(loc=1,shape=2)",
    "lognormal(mlog=0,sdlog=1)",
    "lognormal(mlog=0,sdlog=2)",
    "lognormal(mlog=0,sdlog=3)",
    "weibull(shape=0.3)",
    "weibull(shape=0.5)",
    "frechet(shape=1)",
    "frechet(shape=3)",
)
