"""Samplers: spec parsing, determinism, stream independence, and
distributional correctness via Kolmogorov-Smirnov against analytic CDFs."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from madkit._kernel import _BLOCK_VALUES
from madkit.distributions import (
    _FAMILIES,
    DEFAULT_SENSITIVITY_SET,
    DistributionSpec,
    RngStream,
    derive_stream_id,
    parse_spec,
)
from madkit.errors import DistributionSpecError


class TestParsing:
    def test_lognormal_example(self):
        spec = parse_spec("lognormal(mlog=0,sdlog=2)")
        assert spec.family == "lognormal"
        assert dict(spec.params) == {"mlog": 0.0, "sdlog": 2.0}

    def test_pareto_example(self):
        spec = parse_spec("pareto(loc=1,shape=0.5)")
        assert dict(spec.params) == {"loc": 1.0, "shape": 0.5}

    def test_case_insensitive(self):
        assert parse_spec("LogNormal(mlog=0, sdlog=1)") == parse_spec(
            "lognormal(mlog=0,sdlog=1)"
        )

    def test_aliases(self):
        assert parse_spec("exponential(rate=2)").family == "exp"
        assert parse_spec("studentt(df=3)").family == "student"

    def test_defaults(self):
        assert dict(parse_spec("uniform").params) == {"a": 0.0, "b": 1.0}
        assert dict(parse_spec("weibull(shape=0.3)").params) == {"scale": 1.0, "shape": 0.3}
        assert dict(parse_spec("normal()").params) == {"m": 0.0, "sd": 1.0}

    def test_str_round_trip(self):
        for spec in DEFAULT_SENSITIVITY_SET:
            assert parse_spec(str(spec)) == spec

    @pytest.mark.parametrize("text, label", [
        ("normal(m=0,sd=1.23456789)", "normal(m=0,sd=1.23456789)"),
        ("uniform(a=0,b=1234567)", "uniform(a=0,b=1234567.0)"),
        ("lognormal(mlog=0.1,sdlog=2)", "lognormal(mlog=0.1,sdlog=2)"),
    ])
    def test_str_keeps_every_digit(self, text, label):
        # Six significant digits (":g") would print sd=1.23457 and b=1.23457e+06.
        spec = parse_spec(text)
        assert str(spec) == label
        assert parse_spec(str(spec)) == spec

    def test_default_labels_unchanged(self):
        for spec in DEFAULT_SENSITIVITY_SET:
            args = ",".join(f"{k}={v:g}" for k, v in spec.params)
            assert str(spec) == f"{spec.family}({args})"

    @pytest.mark.parametrize(
        "bad",
        [
            "nosuch(a=1)",
            "normal(mean=0)",
            "beta(a=2)",
            "uniform(a=1,b=0)",
            "triangular(a=0,b=2,c=5)",
            "weibull(shape=-1)",
            "student(df=0)",
            "normal(sd=0)",
            "pareto(loc=1,shape=abc)",
            "normal(0,1)",
            "1234",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(DistributionSpecError):
            parse_spec(bad)

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_parameters(self, family, value):
        valid = {spec.family: dict(spec.params) for spec in DEFAULT_SENSITIVITY_SET}
        valid["constant"] = {"value": 0.0}
        for param in _FAMILIES[family].params:
            args = ",".join(f"{k}={value if k == param else repr(v)}" for k, v in valid[family].items())
            with pytest.raises(DistributionSpecError, match=f"^{family}: {param} must be finite"):
                parse_spec(f"{family}({args})")

    @pytest.mark.parametrize("text, family, key", [
        ("normal(m=1,m=2)", "normal", "m"),
        ("uniform(a=0,b=1,a=0.5)", "uniform", "a"),
        ("Normal(M=1,m=2)", "normal", "m"),
        ("normal(sd=1, sd =1)", "normal", "sd"),
    ])
    def test_rejects_repeated_parameter(self, text, family, key):
        # Keys compare after lower-casing; a repeat would let the last value win.
        with pytest.raises(DistributionSpecError,
                           match=f"^{family}: parameter '{key}' is given more than once"):
            parse_spec(text)

    def test_negative_zero_parameter_is_zero(self):
        spec = parse_spec("normal(m=-0,sd=1)")
        assert spec == parse_spec("normal(m=0,sd=1)")
        assert math.copysign(1.0, dict(spec.params)["m"]) == 1.0
        assert str(spec) == "normal(m=0,sd=1)"
        assert str(DistributionSpec.make("uniform", a=-0.0, b=1.0)) == "uniform(a=0,b=1)"

    def test_sensitivity_set_has_twenty(self):
        assert len(DEFAULT_SENSITIVITY_SET) == 20


class TestStreams:
    def test_derive_is_stable(self):
        assert derive_stream_id(1, 2, 3) == derive_stream_id(1, 2, 3)
        assert derive_stream_id(1, 2, 3) != derive_stream_id(1, 3, 2)

    def test_same_stream_bit_identical(self):
        spec = parse_spec("normal()")
        s1 = spec.draw(RngStream(42, 7).generator(), 1000)
        s2 = spec.draw(RngStream(42, 7).generator(), 1000)
        assert np.array_equal(s1, s2)

    def test_different_streams_differ(self):
        spec = parse_spec("normal()")
        s1 = spec.draw(RngStream(42, 7).generator(), 1000)
        s2 = spec.draw(RngStream(42, 8).generator(), 1000)
        assert not np.array_equal(s1, s2)

    def test_cross_correlation_of_disjoint_streams(self):
        n = 100_000
        g1 = RngStream(123, 1).generator().standard_normal(n)
        g2 = RngStream(123, 2).generator().standard_normal(n)
        r = np.corrcoef(g1, g2)[0, 1]
        assert abs(r) < 0.01


def _scipy_frozen(spec: DistributionSpec):
    p = dict(spec.params)
    family = spec.family
    if family == "uniform":
        return stats.uniform(loc=p["a"], scale=p["b"] - p["a"])
    if family == "triangular":
        return stats.triang(
            c=(p["c"] - p["a"]) / (p["b"] - p["a"]), loc=p["a"], scale=p["b"] - p["a"]
        )
    if family == "beta":
        return stats.beta(p["a"], p["b"])
    if family == "normal":
        return stats.norm(loc=p["m"], scale=p["sd"])
    if family == "weibull":
        return stats.weibull_min(c=p["shape"], scale=p["scale"])
    if family == "student":
        return stats.t(df=p["df"])
    if family == "gumbel":
        return stats.gumbel_r(loc=p["loc"], scale=p["scale"])
    if family == "exp":
        return stats.expon(scale=1.0 / p["rate"])
    if family == "cauchy":
        return stats.cauchy(loc=p["x0"], scale=p["gamma"])
    if family == "pareto":
        return stats.pareto(b=p["shape"], scale=p["loc"])
    if family == "lognormal":
        return stats.lognorm(s=p["sdlog"], scale=math.exp(p["mlog"]))
    if family == "frechet":
        return stats.invweibull(c=p["shape"])
    raise AssertionError(family)


@pytest.mark.parametrize(
    "index,spec", list(enumerate(DEFAULT_SENSITIVITY_SET)), ids=lambda v: str(v)
)
def test_kolmogorov_smirnov(index, spec):
    draws = spec.draw(RngStream(2024, derive_stream_id(index)).generator(), 10_000)
    result = stats.kstest(draws, _scipy_frozen(spec).cdf)
    assert result.pvalue > 0.001, f"{spec}: KS p={result.pvalue}"


class TestMomentSpotChecks:
    def test_uniform_mean(self):
        s = parse_spec("uniform(a=0,b=1)").draw(RngStream(1, 1).generator(), 10**6)
        assert float(s.mean()) == pytest.approx(0.5, abs=0.002)

    def test_normal_quartile_mass(self):
        s = parse_spec("normal(m=0,sd=1)").draw(RngStream(1, 2).generator(), 10**6)
        fraction = float(np.mean(s < 0.674489750196082))
        assert fraction == pytest.approx(0.75, abs=0.002)

    def test_exponential_median(self):
        s = parse_spec("exp(rate=1)").draw(RngStream(1, 3).generator(), 10**6)
        assert float(np.median(s)) == pytest.approx(math.log(2), abs=0.003)

    def test_constant_family(self):
        s = parse_spec("constant(value=3.5)").draw(RngStream(1, 4).generator(), 100)
        assert np.all(s == 3.5)

    def test_draws_stay_finite_at_scale(self):
        # Heavy tails must not degenerate to inf even on huge draws.
        for text in ("pareto(loc=1,shape=0.5)", "frechet(shape=1)", "cauchy()",
                     "gumbel()", "lognormal(sdlog=3)"):
            draws = parse_spec(text).draw(RngStream(9, 9).generator(), 10**6)
            assert np.isfinite(draws).all(), text


def _open_uniform_reference(rng, size):
    return rng.integers(1, 1 << 53, size=size).astype(np.float64) * 2.0**-53


def _reference_draw(spec: DistributionSpec, rng, size):
    """Each family's transform as one out-of-place expression."""
    p = dict(spec.params)
    u = lambda: _open_uniform_reference(rng, size)  # noqa: E731
    family = spec.family
    if family == "uniform":
        return p["a"] + (p["b"] - p["a"]) * u()
    if family == "triangular":
        a, b, c = p["a"], p["b"], p["c"]
        x = u()
        lower = a + np.sqrt(x * (b - a) * (c - a))
        upper = b - np.sqrt((1.0 - x) * (b - a) * (b - c))
        return np.where(x < (c - a) / (b - a), lower, upper)
    if family == "beta":
        g1 = rng.standard_gamma(p["a"], size=size)
        g2 = rng.standard_gamma(p["b"], size=size)
        return g1 / (g1 + g2)
    if family == "normal":
        return p["m"] + p["sd"] * rng.standard_normal(size=size)
    if family == "weibull":
        return p["scale"] * (-np.log1p(-u())) ** (1.0 / p["shape"])
    if family == "student":
        z = rng.standard_normal(size=size)
        chi2 = 2.0 * rng.standard_gamma(p["df"] / 2.0, size=size)
        return z / np.sqrt(chi2 / p["df"])
    if family == "gumbel":
        return p["loc"] - p["scale"] * np.log(-np.log(u()))
    if family == "exp":
        return -np.log1p(-u()) / p["rate"]
    if family == "cauchy":
        return p["x0"] + p["gamma"] * np.tan(np.pi * (u() - 0.5))
    if family == "pareto":
        return p["loc"] * (1.0 - u()) ** (-1.0 / p["shape"])
    if family == "lognormal":
        return np.exp(p["mlog"] + p["sdlog"] * rng.standard_normal(size=size))
    if family == "frechet":
        return (-np.log(u())) ** (-1.0 / p["shape"])
    if family == "constant":
        return np.full(size, p["value"])
    raise AssertionError(family)


# Every family at least once, the triangular mode at both ends and near one.
DRAW_SPECS = tuple(DEFAULT_SENSITIVITY_SET) + tuple(parse_spec(t) for t in (
    "constant(value=-2.5)", "triangular(a=-1,b=5,c=-1)", "triangular(a=-1,b=5,c=5)",
    "triangular(a=-3.5,b=1e3,c=7)",
    "beta(a=0.5,b=0.3)", "student(df=1)", "exp(rate=3)", "uniform(a=-3,b=-2)",
))


class TestDrawInto:
    @pytest.mark.parametrize("spec", DRAW_SPECS, ids=str)
    # (50001, 7) spans two pieces of _BLOCK_VALUES values and a remainder.
    @pytest.mark.parametrize("shape", [(50001, 7), (4096, 5), (3, 7), (11,)])
    def test_out_gets_the_values_of_a_fresh_draw(self, spec, shape):
        def rng():
            return RngStream(31, 7).generator()

        out = np.full(shape, np.nan)  # stale contents must not leak through
        got = spec.draw(rng(), shape, out=out)
        assert got is out
        fresh = spec.draw(rng(), shape)
        assert not np.shares_memory(fresh, out)
        expected = _reference_draw(spec, rng(), shape)
        for values in (got, fresh):
            assert values.shape == shape
            assert np.array_equal(values.view(np.uint64), expected.view(np.uint64)), spec

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [-1e308, 1e308])
    def test_triangular_branch_not_taken_is_silent(self, c):
        # b - a overflows, so the branch with the zero factor is inf * 0;
        # no value takes it, and it must raise no warning.
        spec = DistributionSpec.make("triangular", a=-1e308, b=1e308, c=c)
        got = spec.draw(RngStream(4).generator(), (50,))
        assert np.all(got == (-np.inf if c == -1e308 else np.inf))

    def test_view_of_a_larger_buffer(self):
        spec = parse_spec("lognormal(sdlog=2)")
        buffer = np.zeros(1000)
        got = spec.draw(RngStream(3).generator(), (30, 20), out=buffer[:600].reshape(30, 20))
        assert np.shares_memory(got, buffer)
        assert np.array_equal(got, spec.draw(RngStream(3).generator(), (30, 20)))
        assert not buffer[600:].any()

    @pytest.mark.parametrize("out", [np.empty((5, 4)), np.empty(20), np.empty((4, 5), np.float32)],
                             ids=["shape", "flat", "dtype"])
    def test_rejects_mismatched_out(self, out):
        with pytest.raises(ValueError):
            parse_spec("normal()").draw(RngStream(1).generator(), (4, 5), out=out)

    @pytest.mark.parametrize("spec", DRAW_SPECS, ids=str)
    @pytest.mark.parametrize("layout", ["transposed", "strided", "read-only"])
    def test_rejects_out_it_cannot_fill_in_place(self, spec, layout):
        # A flat piece of a strided out would be a copy, and the draw would
        # return out unfilled; the check comes before anything is drawn.
        if layout == "transposed":
            out = np.zeros((5, 4)).T
        elif layout == "strided":
            out = np.zeros((4, 10))[:, ::2]
        else:
            out = np.zeros((4, 5))
            out.flags.writeable = False
        rng = RngStream(1).generator()
        with pytest.raises(ValueError, match="writeable C-contiguous"):
            spec.draw(rng, (4, 5), out=out)
        assert rng.random() == RngStream(1).generator().random()
        assert not out.any()

    @pytest.mark.parametrize("spec", DRAW_SPECS, ids=str)
    @pytest.mark.parametrize("how", ["whole", "blocks"])
    def test_temporaries_are_pieces_not_a_chunk(self, spec, how):
        # Beyond out, a (16384, 100) chunk, drawn whole or by its sampler
        # in kernel blocks, allocates a few arrays of one piece each; a
        # second array the size of the chunk would be 12.5 MiB.  A two-pass
        # family's thrown-away first pass goes into the block.
        shape = (16384, 100)
        out = np.empty(shape if how == "whole" else (_BLOCK_VALUES // 100, 100))
        stream = RngStream(5)
        tracemalloc.start()
        try:
            if how == "whole":
                spec.draw(stream.generator(), shape, out=out)
            else:
                for _ in _blocks(spec.sampler(stream, shape[0] * shape[1]), shape[0], out):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * _BLOCK_VALUES * 8, spec


def _blocks(fill, count, block):
    """A chunk of ``count`` rows filled through ``fill`` in the rows of
    ``block``, one block after another: yields each filled block."""
    rows = len(block)
    for start in range(0, count, rows):
        yield fill(block[:count - start])


# (chunk shape, rows per block): one row per block; an odd block size that
# leaves a remainder; a chunk of more than one _BLOCK_VALUES piece in
# blocks of the kernel's size; a row wider than a piece.
BLOCKINGS = [((37, 5), 1), ((1000, 7), 13), ((50001, 7), _BLOCK_VALUES // 7),
             ((2, _BLOCK_VALUES + 3), 1)]


class TestSampler:
    """A sampler fills a chunk block by block with the values of one draw of it."""

    def test_draw_specs_cover_every_family(self):
        assert {spec.family for spec in DRAW_SPECS} == set(_FAMILIES)

    @staticmethod
    def check(sampler, whole, shape, rows):
        stream = RngStream(31, 7)
        block = np.full((rows, shape[1]), np.nan)  # stale contents must not leak through
        fill = sampler(stream, shape[0] * shape[1])
        got = np.concatenate([b.copy() for b in _blocks(fill, shape[0], block)])
        expected = whole(stream.generator(), shape)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("spec", DRAW_SPECS, ids=str)
    @pytest.mark.parametrize("shape,rows", BLOCKINGS)
    def test_blocks_get_the_values_of_one_draw(self, spec, shape, rows):
        self.check(spec.sampler, spec.draw, shape, rows)

    @pytest.mark.parametrize("shape,rows", BLOCKINGS)
    def test_studies_normal_sampler(self, shape, rows):
        from madkit.simulate import _normal_sampler

        self.check(_normal_sampler, lambda rng, size: rng.standard_normal(size), shape, rows)
