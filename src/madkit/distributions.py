"""Seeded, reproducible samplers for the simulation studies.

Each distribution draws by inverse-CDF transform where the quantile
function is closed-form; the normal, the Beta and Student's t use the
generator's own samplers.  Randomness comes from counter-based Philox
streams keyed by (master_seed, stream_id), so any (seed, stream) pair
yields a bit-identical sequence regardless of thread count.  Not every
pair has a stream of its own: a key with one word at or above 2**63 and
the other below it keeps 53 significant bits of each (see ``RngStream``;
ROADMAP item 9).  Across hosts only the normal, Beta and Student's t
draws are bit-identical: the lognormal, cauchy, weibull, gumbel, exp,
frechet and pareto transforms go through ``np.log``, ``exp``, ``tan``,
``log1p`` and ``power``, whose last bits follow the SIMD code NumPy picks
for the CPU (they change under ``NPY_DISABLE_CPU_FEATURES``).  The printed
CSVs held under that setting.

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
from madkit.quantiles import _format_param

__all__ = [
    "RngStream",
    "derive_stream_id",
    "DistributionSpec",
    "parse_spec",
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
    """A named position in the random-number space: (master_seed, stream_id).

    Each word is taken modulo 2**64 into a Philox key.  Two positions can
    share a stream: when one word is at or above 2**63 and the other below
    it, NumPy reads the key list as float64 and each word keeps 53
    significant bits, so ``RngStream(5, 2**63)`` and ``RngStream(5, 2**63
    + 1)`` draw the same values, as do ``RngStream(2**60, 2**63)`` and
    ``RngStream(2**60 + 1, 2**63)``; ``RngStream(5, 2**62)`` and
    ``RngStream(5, 2**62 + 1)`` do not.  The fix, ROADMAP item 9, moves
    every seeded output.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.master_seed & _MASK64, self.stream_id & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


def _open_uniform(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    # Uniform on the open interval (0, 1): keeps every log/tan transform finite.
    # The integers are below 2**53, so their cast to float64 is exact.
    return np.multiply(rng.integers(1, 1 << 53, size=out.shape), 2.0**-53, out=out)


# A family's draw fills ``out`` (float64, C-contiguous) in place and returns
# it.  The transforms run on ``out`` with ``out=`` ufuncs and in-place
# operators, each the same operation on the same operands as the
# expression in its comment, so the values do not depend on which buffer
# is filled.  A second array (the integers behind a uniform, a Beta or
# Student's t variate, triangular's upper branch) is the size of ``out``:
# a study draws one kernel block at a time, so it is one block long.  A
# bounded 64-bit ``integers``, ``standard_normal``, ``beta`` and
# ``standard_t`` draw each value's variates one after another and keep
# nothing from one call to the next, so consecutive draws of one
# generator read it as one draw does.  A chunk is therefore drawn block by
# block from one generator.
DrawFn = Callable[[np.random.Generator, np.ndarray, dict], np.ndarray]


@dataclass(frozen=True)
class _Family:
    name: str
    params: tuple[str, ...]
    defaults: dict
    check: Callable[[dict], Union[str, None]]
    draw: DrawFn


def _draw_uniform(rng, out, p):
    # a + (b - a) * u
    u = _open_uniform(rng, out)
    u *= p["b"] - p["a"]
    u += p["a"]
    return u


def _draw_triangular(rng, out, p):
    # where(u < fc, a + sqrt(u * (b - a) * (c - a)),
    #               b - sqrt((1 - u) * (b - a) * (b - c)))
    # Both branches are computed in full, each with the operations of its
    # expression in order, and the upper one is copied over the lower one
    # where ``u >= fc``: on a half-and-half mask this is faster than six
    # masked ufuncs, and every value has the bits the masked form gave it.
    # An invalid inf * 0 arises only where b - a overflows and c is at an
    # end, in the branch that no value takes.
    a, b, c = p["a"], p["b"], p["c"]
    fc = (c - a) / (b - a)
    u = _open_uniform(rng, out)
    upper = u >= fc
    with np.errstate(invalid="ignore"):
        hi = np.subtract(1.0, u)
        hi *= b - a
        hi *= b - c
        np.sqrt(hi, out=hi)
        np.subtract(b, hi, out=hi)
        u *= b - a
        u *= c - a
        np.sqrt(u, out=u)
        np.add(a, u, out=u)
    np.copyto(u, hi, where=upper)
    return u


def _draw_beta(rng, out, p):
    # rng.beta(a, b), which has no ``out=``
    np.copyto(out, rng.beta(p["a"], p["b"], size=out.shape))
    return out


def _draw_normal(rng, out, p):
    # m + sd * z
    z = rng.standard_normal(out=out)
    z *= p["sd"]
    z += p["m"]
    return z


def _draw_weibull(rng, out, p):
    # scale * e ** (1 / shape), e a standard exponential
    u = _draw_exponential(rng, out, {"rate": 1.0})
    u **= 1.0 / p["shape"]
    u *= p["scale"]
    return u


def _draw_student(rng, out, p):
    # rng.standard_t(df), which has no ``out=``
    np.copyto(out, rng.standard_t(p["df"], size=out.shape))
    return out


def _draw_gumbel(rng, out, p):
    # loc - scale * log(-log(u))
    u = _open_uniform(rng, out)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    u *= p["scale"]
    return np.subtract(p["loc"], u, out=u)


def _draw_exponential(rng, out, p):
    # -log1p(-u) / rate
    u = _open_uniform(rng, out)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    u /= p["rate"]
    return u


def _draw_cauchy(rng, out, p):
    # x0 + gamma * tan(pi * (u - 0.5))
    u = _open_uniform(rng, out)
    u -= 0.5
    u *= np.pi
    np.tan(u, out=u)
    u *= p["gamma"]
    u += p["x0"]
    return u


def _draw_pareto(rng, out, p):
    # loc * (1 - u) ** (-1 / shape)
    u = _open_uniform(rng, out)
    np.subtract(1.0, u, out=u)
    u **= -1.0 / p["shape"]
    u *= p["loc"]
    return u


def _draw_lognormal(rng, out, p):
    # exp(x), x a normal(mlog, sdlog)
    x = _draw_normal(rng, out, {"m": p["mlog"], "sd": p["sdlog"]})
    return np.exp(x, out=x)


def _draw_frechet(rng, out, p):
    # (-log(u)) ** (-1 / shape)
    u = _open_uniform(rng, out)
    np.log(u, out=u)
    np.negative(u, out=u)
    u **= -1.0 / p["shape"]
    return u


def _draw_constant(rng, out, p):
    out.fill(p["value"])
    return out


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
            value = float(val)
            if not math.isfinite(value):
                raise DistributionSpecError(f"{name}: {key} must be finite, got {value!r}")
            # + 0.0 turns -0.0 into 0.0: equal specs get one stream key and label.
            values[key] = value + 0.0
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

    def draw(self, rng: np.random.Generator, size, out: np.ndarray | None = None) -> np.ndarray:
        """Raw i.i.d. draws (unsorted), any shape.

        ``out``, a writeable C-contiguous float64 array of shape ``size``,
        receives the draws and is returned; it gets the values a fresh
        array would.  Beyond ``out``, a draw holds a few temporaries the
        size of ``out``, as NumPy's ``Generator.beta(size=...)`` does, so a
        caller bounds them by what it draws at once.  Consecutive draws
        from one generator give the values of one draw of their total size,
        so a chunk may be drawn block by block.
        """
        shape = tuple(size) if np.iterable(size) else (size,)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}"
            )
        elif not (out.flags.c_contiguous and out.flags.writeable):
            raise ValueError("out must be a writeable C-contiguous array")
        return self._family.draw(rng, out, dict(self.params))

    def __str__(self) -> str:
        args = ",".join(f"{k}={_format_param(v)}" for k, v in self.params)
        return f"{self.family}({args})"


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
            key = key.strip().lower()
            if key in params:
                raise DistributionSpecError(
                    f"{family.lower()}: parameter {key!r} is given more than once in {text!r}"
                )
            try:
                params[key] = float(val)
            except ValueError:
                raise DistributionSpecError(
                    f"bad numeric value {val.strip()!r} in {text!r}"
                ) from None
    return DistributionSpec.make(family, **params)


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
