"""Special-function kernel tests.

Independent oracles: scipy.integrate.quad, mpmath quadrature and sicnet's own
panel quadrature check the closed form of C(b, alpha), and the incomplete
beta checks its arctan route at alpha = 4; a direct sampling experiment
checks the received-power Pareto law.
"""

import heapq
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from sicnet.errors import DomainError, NumericsError
from sicnet.numerics import (
    DEFAULT_QUADRATURE,
    QuadratureSettings,
    adaptive_gauss,
    c_integral,
    c_integral_quadrature,
    _c_betainc,
    _c_tail_series,
    _c_zero,
    _validate_c_args,
    pareto_received_power_cdf,
)

B_GRID = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1e4, 1e6, 1e8)
ALPHA_GRID = (2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0)
TIGHT = QuadratureSettings(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=4000)
# b = 1 and its neighbours, the overflow tail of b^(alpha/2), and two spreads
_B_WIDE = np.concatenate((
    [0.0, 1.0 - 1e-16, 1.0, 1.0 + 1e-15, 1e150, 1e200, 1e300],
    np.geomspace(1e-12, 1e12, 2000),
    np.random.default_rng(3).uniform(0.0, 4.0, 1000),
))


class TestQuadratureSettings:
    def test_defaults(self):
        assert DEFAULT_QUADRATURE.rel_tol == 1e-10
        assert DEFAULT_QUADRATURE.abs_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-3},
            {"abs_tol": 0.0},
            {"abs_tol": math.nan},
            {"max_subdivisions": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSettings(**kwargs)


class TestAdaptiveGauss:
    def test_sine(self):
        assert adaptive_gauss(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_empty_interval(self):
        assert adaptive_gauss(np.sin, 1.0, 1.0) == 0.0

    def test_budget_exhaustion(self):
        starved = QuadratureSettings(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
        with pytest.raises(NumericsError):
            adaptive_gauss(lambda x: 1.0 / (1e-6 + x**2), 0.0, 100.0, starved)

    def test_nonfinite_bounds(self):
        with pytest.raises(DomainError):
            adaptive_gauss(np.sin, 0.0, math.inf)

    @staticmethod
    def _two_call_gauss(f, a, b, settings):
        """The panel loop with separate G7 and G15 integrand calls; returns
        the integral and the number of panels evaluated."""
        g7_x, g7_w = np.polynomial.legendre.leggauss(7)
        g15_x, g15_w = np.polynomial.legendre.leggauss(15)

        def panel(lo, hi):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            coarse = half * float(np.dot(g7_w, f(mid + half * g7_x)))
            fine = half * float(np.dot(g15_w, f(mid + half * g15_x)))
            return fine, abs(fine - coarse)

        val, err = panel(a, b)
        heap, count = [(-err, 0, a, b, val, err)], 1
        total_val, total_err = val, err
        while total_err > max(settings.abs_tol, settings.rel_tol * abs(total_val)):
            _, _, lo, hi, v, e = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            v1, e1 = panel(lo, mid)
            v2, e2 = panel(mid, hi)
            total_val += v1 + v2 - v
            total_err += e1 + e2 - e
            heapq.heappush(heap, (-e1, count, lo, mid, v1, e1))
            heapq.heappush(heap, (-e2, count + 1, mid, hi, v2, e2))
            count += 2
        return total_val, count

    def test_one_call_per_panel_matches_two_calls(self, monkeypatch):
        # the integrands that ps_ic, _sic_gain_integral and
        # c_integral_quadrature hand to adaptive_gauss, captured as passed
        from sicnet import analytic, numerics

        captured = []

        def spy(f, a, b, settings=DEFAULT_QUADRATURE):
            captured.append((f, a, b, settings))
            return 0.0

        monkeypatch.setattr(analytic, "adaptive_gauss", spy)
        monkeypatch.setattr(numerics, "adaptive_gauss", spy)
        for alpha in (3.0, 4.0):
            for n in (0, 2):
                analytic.ps_ic(2.0, n, 1e-4, 3e-4, alpha)
            analytic._sic_gain_integral(2.0, 3, alpha)
        c_integral_quadrature(0.5, 3.0, TIGHT)
        monkeypatch.undo()
        assert len(captured) == 7

        for f, a, b, settings in captured:
            calls = []

            def counting(x, f=f):
                calls.append(len(x))
                return f(x)

            got = adaptive_gauss(counting, a, b, settings)
            want, panels = self._two_call_gauss(f, a, b, settings)
            assert got == want
            assert calls == [22] * panels


class TestCIntegral:
    def test_b_zero_closed_form(self):
        for alpha in ALPHA_GRID:
            x = 2.0 * math.pi / alpha
            assert c_integral(0.0, alpha) == pytest.approx(x / math.sin(x), rel=1e-14)

    def test_alpha_four_is_arctan(self):
        assert c_integral(0.0, 4.0) == pytest.approx(math.pi / 2, rel=1e-14)
        assert c_integral(1.0, 4.0) == pytest.approx(math.pi / 4, rel=1e-12)
        for b in (0.01, 0.1, 1.0, 10.0, 100.0, 1e6):
            assert c_integral(b, 4.0) == pytest.approx(math.atan(1.0 / b), abs=1e-12)

    def test_scipy_quadrature_oracle(self):
        # independent oracle: QUADPACK on the raw integrand
        for b, alpha in ((2.0, 3.0), (0.5, 2.5), (10.0, 5.0)):
            ref, err = scipy.integrate.quad(
                lambda w: 1.0 / (1.0 + w ** (alpha / 2.0)), b, np.inf,
                epsabs=1e-13, epsrel=1e-12,
            )
            assert err < 1e-9
            assert c_integral(b, alpha) == pytest.approx(ref, rel=1e-9)

    def test_mpmath_oracle_at_large_and_small_b(self):
        # large b^(alpha/2), where head - b * 2F1(...; -b^(alpha/2)) cancels,
        # and small b, where x = 1/(1 + b^(alpha/2)) rounds to 1
        mpmath = pytest.importorskip("mpmath")
        for alpha, b in ((5.0, 1e8), (6.0, 1e8), (8.0, 1e6), (8.0, 1e-4)):
            with mpmath.workdps(30):
                h = mpmath.mpf(alpha) / 2
                ref = float(mpmath.quad(lambda w: 1 / (1 + w**h), [b, 2 * b + 1, mpmath.inf]))
            assert c_integral(b, alpha) == pytest.approx(ref, rel=1e-9, abs=0.0), (b, alpha)

    def test_array_matches_scalar_calls(self):
        b = np.array([[0.0, 1e-4, 0.5, 1.0], [2.0, 1e3, 1e8, 1e200]])
        for alpha in ALPHA_GRID:
            batch = c_integral(b, alpha)
            assert batch.shape == b.shape
            expected = [[c_integral(float(v), alpha) for v in row] for row in b]
            assert np.array_equal(batch, np.array(expected))

    def test_one_branch_per_element_matches_both_branches(self):
        # each element evaluates only its own incomplete beta; the expression
        # that evaluates both on every element and keeps one is the reference,
        # bit for bit, across b = 1, its neighbours and the overflow tail
        def both_branches(b, alpha):
            b_arr = np.asarray(b, dtype=float)
            e = 2.0 / alpha
            with np.errstate(over="ignore"):
                t = b_arr ** (0.5 * alpha)
            big = b_arr >= 1.0
            x = np.where(big, 1.0, t) / (1.0 + t)
            out = np.asarray(_c_zero(alpha) * np.where(
                big, scipy.special.betainc(1.0 - e, e, x),
                scipy.special.betaincc(e, 1.0 - e, x),
            ))
            over = np.isinf(t)
            out[over] = [_c_tail_series(lo, alpha) for lo in b_arr[over]]
            return out if out.ndim else float(out)

        b = _B_WIDE
        for alpha in ALPHA_GRID:
            assert np.array_equal(_c_betainc(b, alpha), both_branches(b, alpha)), alpha
            grid = b[:1000].reshape(20, 50)
            assert np.array_equal(_c_betainc(grid, alpha), both_branches(grid, alpha))
            for v in (0.5, 1.0, 3.0, 1e200):
                assert _c_betainc(np.array(v), alpha) == both_branches(v, alpha)
                if alpha != 4.0:
                    assert c_integral(v, alpha) == both_branches(v, alpha)

    def test_alpha_four_route_is_arctan2(self):
        # the alpha = 4 route is np.arctan2(1, b) bit for bit, and the
        # incomplete beta, its oracle, agrees to rounding from b = 1e-4 up to
        # b = 1e300; below 1e-4, betaincc(1/2, 1/2, x) itself drifts (next test)
        got = c_integral(_B_WIDE, 4.0)
        assert np.array_equal(got, np.arctan2(1.0, _B_WIDE))
        far = _B_WIDE >= 1e-4
        assert np.max(np.abs(got - _c_betainc(_B_WIDE, 4.0))[far]) <= 1e-15
        for v in (0.0, 0.5, 1.0, 1e200, 1e300):
            assert c_integral(v, 4.0) == np.arctan2(1.0, v)

    def test_alpha_four_small_b_mpmath_oracle(self):
        # near b = 0 the arctan route stays within an ulp of pi/2; the
        # incomplete beta there is off by up to 1.6e-10 (b near 2e-10)
        mpmath = pytest.importorskip("mpmath")
        b = _B_WIDE[(_B_WIDE > 0.0) & (_B_WIDE < 1e-4)]
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.atan(1 / mpmath.mpf(v))) for v in b])
        assert np.max(np.abs(c_integral(b, 4.0) - ref)) <= np.spacing(math.pi / 2)

    def test_scalar_returns_float(self):
        assert type(c_integral(2.0, 4.0)) is float
        assert type(c_integral(np.float64(0.0), 3.0)) is float

    def test_scalar_zero_is_c_zero(self):
        # the scalar b = 0 shortcut equals the incomplete-beta path bit for bit
        for alpha in np.linspace(2.1, 10.0, 11):
            got = c_integral(0.0, alpha)
            assert type(got) is float
            assert got == _c_zero(alpha)
            assert got == c_integral(np.array([0.0]), alpha)[0]

    def test_overflowing_power_uses_tail(self):
        # b^(alpha/2) overflows; C(b, 4) = arctan(1/b) = 1/b to double precision
        assert c_integral(1e200, 4.0) == pytest.approx(1e-200, rel=1e-12, abs=0.0)

    def test_closed_form_vs_own_quadrature_grid(self):
        for b in B_GRID:
            for alpha in ALPHA_GRID:
                cf = c_integral(b, alpha)
                qd = c_integral_quadrature(b, alpha, TIGHT)
                # abs=0: C(1e8, 8) is 3e-25, far below pytest's default abs slack
                assert cf == pytest.approx(qd, rel=1e-9, abs=0.0), (b, alpha)

    def test_strictly_decreasing_in_b(self):
        delta = 1e-4
        for b in B_GRID:
            for alpha in ALPHA_GRID:
                assert c_integral(b + delta, alpha) < c_integral(b, alpha)

    def test_positive_and_vanishing(self):
        assert all(
            c_integral(b, a) > 0.0 for b in B_GRID for a in ALPHA_GRID
        )
        assert c_integral(1e6, 4.0) < 1e-5

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 2.0),
            (1.0, 1.5),
            (-0.5, 4.0),
            (math.inf, 4.0),
            (1.0, math.nan),
            (np.array([0.5, -1.0, 2.0]), 4.0),
            (np.array([0.5, math.inf]), 4.0),
            (np.array([math.nan]), 4.0),
        ],
    )
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            c_integral(*args)
        with pytest.raises(DomainError):
            c_integral_quadrature(*args)


class TestCIntegralDomain:
    """c_integral screens its arguments with one min/max pair and falls back
    to _validate_c_args, so both routes reject exactly what the full
    validation rejects."""

    @staticmethod
    def _hidden(bad):
        b = np.linspace(0.0, 5.0, 50)
        b[17] = bad
        return b

    @pytest.mark.parametrize("alpha", (3.0, 4.0))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, -0.5))
    def test_bad_b_raises(self, alpha, bad):
        for b in (self._hidden(bad), self._hidden(bad).reshape(5, 10), np.array(bad), bad):
            with pytest.raises(DomainError):
                _validate_c_args(b, alpha)
            with pytest.raises(DomainError):
                c_integral(b, alpha)

    @pytest.mark.parametrize("alpha", (2.0, 1.5, math.nan, math.inf, -math.inf))
    def test_bad_alpha_raises(self, alpha):
        for b in (np.linspace(0.0, 5.0, 50), np.array(1.0), 1.0, 0.0, np.array([])):
            with pytest.raises(DomainError):
                _validate_c_args(b, alpha)
            with pytest.raises(DomainError):
                c_integral(b, alpha)

    @pytest.mark.parametrize("alpha", (3.0, 4.0))
    def test_valid_edges_pass(self, alpha):
        empty = c_integral(np.array([]), alpha)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        for b in (0.0, -0.0, 1, 2.5, np.float64(2.5), np.array(2.5), 1e300):
            _validate_c_args(b, alpha)
            assert type(c_integral(b, alpha)) is float
        assert c_integral(np.array([0.0, -0.0, 1e300]), alpha).shape == (3,)


class TestParetoReceivedPowerCdf:
    def test_limits(self):
        assert pareto_received_power_cdf(math.inf, 4.0, 10.0) == 1.0
        assert pareto_received_power_cdf(1e12, 4.0, 10.0) == pytest.approx(1.0, abs=1e-5)

    def test_root(self):
        # the expression crosses zero at y* = (Gamma(2/a+1)/R^2)^(a/2)
        y_star = (math.gamma(1.5) / 1.0) ** 2.0
        assert pareto_received_power_cdf(y_star, 4.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert pareto_received_power_cdf(y_star / 2.0, 4.0, 1.0) == 0.0

    def test_monotone(self):
        ys = np.logspace(-4, 4, 200)
        cdf = pareto_received_power_cdf(ys, 4.0, 10.0)
        assert np.all(np.diff(cdf) >= 0.0)

    def test_sampling_oracle(self):
        # Y = h X^-4 with X uniform-in-disk (R = 10) and h ~ Exp(1); the
        # closed form should match the empirical CDF in the tail region
        rng = np.random.default_rng(1234)
        n = 1_000_000
        x = 10.0 * np.sqrt(rng.random(n))
        y = rng.exponential(size=n) * x**-4.0
        y_grid = np.logspace(-2, 2, 60)
        emp = np.searchsorted(np.sort(y), y_grid, side="right") / n
        ana = pareto_received_power_cdf(y_grid, 4.0, 10.0)
        assert float(np.max(np.abs(emp - ana))) <= 0.01

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pareto_received_power_cdf(1.0, 2.0, 10.0)
        with pytest.raises(DomainError):
            pareto_received_power_cdf(1.0, 4.0, 0.0)
