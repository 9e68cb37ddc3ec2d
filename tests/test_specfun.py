"""Special-function accuracy against high-precision oracles."""
import math
import random

import mpmath
import numpy as np
import pytest

from madkit.errors import DomainError
from madkit.specfun import (
    BetaParams,
    beta_pdf,
    reg_inc_beta,
)

mpmath.mp.dps = 40


def mp_betainc(v, a, b):
    return float(mpmath.betainc(a, b, 0, v, regularized=True))


class TestBetaParams:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_bad_shapes(self, a, b):
        with pytest.raises(DomainError):
            BetaParams(a, b)

    def test_accepts_positive(self):
        p = BetaParams(1.5, 2.5)
        assert p.alpha == 1.5 and p.beta == 2.5


class TestRegIncBeta:
    def test_lower_bound_is_zero(self):
        assert reg_inc_beta(0.0, BetaParams(3.0, 7.0)) == 0.0

    def test_upper_bound_is_one(self):
        assert reg_inc_beta(1.0, BetaParams(3.0, 7.0)) == 1.0

    def test_symmetric_center_is_exactly_half(self):
        assert reg_inc_beta(0.5, BetaParams(1.5, 1.5)) == 0.5

    def test_closed_form_quadratic(self):
        # I_x(2,2) = x^2 (3 - 2x)
        assert reg_inc_beta(0.25, BetaParams(2.0, 2.0)) == pytest.approx(0.15625, abs=1e-14)

    @pytest.mark.parametrize("v", [-0.1, 1.1])
    def test_domain_error_outside_unit_interval(self, v):
        with pytest.raises(DomainError):
            reg_inc_beta(v, BetaParams(2.0, 2.0))

    def test_accuracy_against_mpmath(self):
        # Shapes cover the (n+1)p range the estimators use, up to n = 3000.
        rng = random.Random(11)
        worst = 0.0
        for _ in range(400):
            n = rng.choice([1, 2, 3, 5, 10, 50, 100, 500, 1000, 3000])
            p = rng.uniform(0.001, 0.999)
            a, b = (n + 1) * p, (n + 1) * (1 - p)
            v = rng.randint(0, n) / n
            got = reg_inc_beta(v, BetaParams(a, b))
            worst = max(worst, abs(got - mp_betainc(v, a, b)))
        for _ in range(200):
            a, b = rng.uniform(0.01, 20), rng.uniform(0.01, 20)
            v = rng.random()
            got = reg_inc_beta(v, BetaParams(a, b))
            worst = max(worst, abs(got - mp_betainc(v, a, b)))
        assert worst <= 1e-12

    def test_reflection_identity(self):
        rng = random.Random(5)
        for _ in range(2000):
            a, b = rng.uniform(0.05, 1500), rng.uniform(0.05, 1500)
            v = rng.random()
            lhs = reg_inc_beta(v, BetaParams(a, b))
            rhs = reg_inc_beta(1.0 - v, BetaParams(b, a))
            assert lhs + rhs == pytest.approx(1.0, abs=1e-12)

    def test_nondecreasing_in_v(self):
        rng = random.Random(6)
        for _ in range(50):
            params = BetaParams(rng.uniform(0.1, 200), rng.uniform(0.1, 200))
            grid = sorted(rng.random() for _ in range(40))
            values = reg_inc_beta(np.array(grid), params)
            assert (np.diff(values) >= 0.0).all()


def _reg_inc_beta_one_point(v, a, b):
    """I_v(a, b) by the one-point modified-Lentz loop, Python floats only.

    The reference for the array code, which runs this loop's operations in
    the same order on every element.
    """
    from madkit.specfun import _CF_EPS, _CF_TINY, _cf_max_iter, _log_beta

    def fraction(a, b, x):
        qab, qap, qam = a + b, a + 1.0, a - 1.0
        c = 1.0
        d = 1.0 - qab * x / qap
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        d = 1.0 / d
        h = d
        for m in range(1, _cf_max_iter(a, b) + 1):
            m2 = 2 * m
            for aa in (
                m * (b - m) * x / ((qam + m2) * (a + m2)),
                -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
            ):
                d = 1.0 + aa * d
                if abs(d) < _CF_TINY:
                    d = _CF_TINY
                c = 1.0 + aa / c
                if abs(c) < _CF_TINY:
                    c = _CF_TINY
                d = 1.0 / d
                delta = d * c
                h *= delta
            if abs(delta - 1.0) < _CF_EPS:
                return h
        raise ArithmeticError("no convergence")

    if v == 0.0:
        return 0.0
    if v == 1.0:
        return 1.0
    if a == b and v == 0.5:
        return 0.5
    front = math.exp(a * math.log(v) + b * math.log1p(-v) - _log_beta(a, b))
    if v < (a + 1.0) / (a + b + 2.0):
        return front * fraction(a, b, v) / a
    return 1.0 - front * fraction(b, a, 1.0 - v) / b


ARRAY_SHAPES = [
    (2.5, 2.5), (1.0, 1.0), (1e-3, 1e-3), (0.05, 0.05), (50_000.5, 50_000.5),
    (1e-3, 2.0), (2.0, 1e-3), (0.05, 3.0), (7.5, 1e4), (400.2, 900.7),
]
EDGE_VS = [0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16]


class TestRegIncBetaArray:
    @pytest.mark.parametrize("a,b", ARRAY_SHAPES)
    def test_array_call_is_float_calls_bitwise(self, a, b):
        # Both equal the one-point loop to the bit, in the same call points
        # on both sides of the symmetry switch, edges included.
        rng = random.Random(f"{a},{b}")
        switch = (a + 1.0) / (a + b + 2.0)
        near = [math.nextafter(switch, 0.0), switch, math.nextafter(switch, 1.0)]
        vs = EDGE_VS + [v for v in near if 0.0 < v < 1.0] + [rng.random() for _ in range(40)]
        params = BetaParams(a, b)
        array = reg_inc_beta(np.array(vs), params)
        floats = [reg_inc_beta(v, params) for v in vs]
        assert all(type(f) is float for f in floats)
        assert array.dtype == np.float64 and array.shape == (len(vs),)
        assert array.tobytes() == np.array(floats).tobytes()
        loop = [_reg_inc_beta_one_point(v, a, b) for v in vs]
        assert array.tobytes() == np.array(loop).tobytes()

    def test_keeps_shape(self):
        params = BetaParams(3.0, 4.0)
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        out = reg_inc_beta(grid, params)
        assert out.shape == (3, 4)
        assert out.ravel().tolist() == [reg_inc_beta(v, params) for v in grid.ravel().tolist()]
        assert reg_inc_beta(np.array([]), params).shape == (0,)
        assert type(reg_inc_beta(np.float64(0.25), params)) is float

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1, -math.inf, math.inf])
    @pytest.mark.parametrize("where", [0, 3, -1])
    def test_any_bad_element_raises(self, bad, where):
        v = np.linspace(0.1, 0.9, 6)
        v[where] = bad
        with pytest.raises(DomainError):
            reg_inc_beta(v, BetaParams(2.0, 3.0))

    def test_nan_float_raises(self):
        with pytest.raises(DomainError):
            reg_inc_beta(math.nan, BetaParams(2.0, 3.0))

    def test_non_convergence_raises(self, monkeypatch):
        from madkit import specfun

        monkeypatch.setattr(specfun, "_cf_max_iter", lambda a, b: 1)
        params = BetaParams(50.0, 50.0)
        with pytest.raises(ArithmeticError):
            reg_inc_beta(0.45, params)
        with pytest.raises(ArithmeticError):
            reg_inc_beta(np.array([1e-300, 0.3, 0.45, 0.6]), params)


class TestBetaPdf:
    def test_uniform_density(self):
        assert beta_pdf(0.5, BetaParams(1.0, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_density(self):
        # 6 x (1 - x) at x = 0.5
        assert beta_pdf(0.5, BetaParams(2.0, 2.0)) == pytest.approx(1.5, abs=1e-14)

    def test_zero_at_boundary_when_shape_above_one(self):
        assert beta_pdf(0.0, BetaParams(2.0, 2.0)) == 0.0
        assert beta_pdf(1.0, BetaParams(2.0, 2.0)) == 0.0

    def test_integrates_to_one(self):
        import numpy as np

        params = BetaParams(3.5, 8.0)
        grid = np.linspace(0.0, 1.0, 20001)
        density = np.array([beta_pdf(float(v), params) for v in grid])
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-6)

    def test_matches_derivative_of_cdf(self):
        params = BetaParams(4.2, 2.9)
        h = 1e-6
        for v in (0.2, 0.5, 0.8):
            numeric = (reg_inc_beta(v + h, params) - reg_inc_beta(v - h, params)) / (2 * h)
            assert beta_pdf(v, params) == pytest.approx(numeric, rel=1e-6)
