"""Special-function kernel tests.

Independent oracles: scipy.integrate.quad, mpmath quadrature and sicnet's own
panel quadrature check the closed form of C(b, alpha), and the incomplete
beta checks its arctan route at alpha = 4; a direct sampling experiment
checks the received-power Pareto law.
"""

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
from oracles import two_call_gauss

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
    """Scalar bounds are a one-row lockstep integral: a scalar call returns
    a float equal, bit for bit, to the one-row array call of its integrand
    (``lambda x: f(x[0])[None]``), and to the panel-at-a-time reference."""

    @staticmethod
    def _scalar_and_row(f, a, b, settings=DEFAULT_QUADRATURE):
        got = adaptive_gauss(f, a, b, settings)
        row = adaptive_gauss(lambda x: f(x[0])[None], np.array([a]), np.array([b]), settings)
        assert type(got) is float and row.shape == (1,)
        assert got == row[0]
        return got

    def test_sine(self):
        assert self._scalar_and_row(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_empty_interval(self):
        assert self._scalar_and_row(np.sin, 1.0, 1.0) == 0.0
        assert self._scalar_and_row(np.sin, 2.0, 1.0) == 0.0

    def test_budget_exhaustion(self):
        starved = QuadratureSettings(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
        interval = r"after 3 subdivisions on \[0\.0, 100\.0\]$"
        with pytest.raises(NumericsError, match=interval):
            adaptive_gauss(lambda x: 1.0 / (1e-6 + x**2), 0.0, 100.0, starved)

    def test_nonfinite_bounds(self):
        with pytest.raises(DomainError):
            adaptive_gauss(np.sin, 0.0, math.inf)
        with pytest.raises(DomainError, match=r"got \[nan, 1\.0\]"):
            adaptive_gauss(np.sin, math.nan, 1.0)

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

            got = self._scalar_and_row(counting, a, b, settings)
            want, panels = two_call_gauss(f, a, b, settings)
            assert got == want
            # one call on the whole interval's 22 nodes, then one call per
            # round on both halves' 44, in each of the two runs above
            rounds = (panels - 1) // 2
            assert panels == 1 + 2 * rounds
            assert calls == ([22] + [44] * rounds) * 2


class TestLockstepGauss:
    """Array bounds run K integrals in lockstep; each row must be the
    panel-at-a-time run of its integral (``two_call_gauss``): its value (to
    the rounding of the batched panel sums), its panel count and its own
    convergence."""

    @staticmethod
    def _compare(make, params, a, b, settings=DEFAULT_QUADRATURE):
        """Integrate ``make(p)`` over [a[k], b[k]] for every p = params[k],
        in lockstep and with the reference.  Returns the lockstep values and,
        per row, its panel count in both runs.  A converged row is evaluated
        again at its last panels, so the lockstep count of a row is the
        number of distinct 22-node panels it saw."""
        f = make(np.asarray(params, dtype=float)[:, None])
        seen = [set() for _ in params]
        shapes = []

        def spy(x):
            shapes.append(x.shape)
            for k, row in enumerate(x):
                seen[k].update(panel.tobytes() for panel in row.reshape(-1, 22))
            return f(x)

        got = adaptive_gauss(spy, a, b, settings)
        assert got.shape == (len(params),)
        counts = []
        for k, p in enumerate(params):
            want, panels = two_call_gauss(make(p), a[k], b[k], settings)
            assert abs(got[k] - want) <= 1e-15 * abs(want), (k, got[k], want)
            counts.append((len(seen[k]), panels))
        # one (K, 22) call on the whole intervals, then one (K, 44) call per
        # round, as many rounds as the row with the most panels needs
        rounds = max(panels - 1 for _, panels in counts) // 2
        assert shapes == [(len(params), 22)] + [(len(params), 44)] * rounds
        return got, counts

    def test_rows_are_their_scalar_runs(self):
        # damped oscillations of growing frequency need ever more panels
        def make(w):
            return lambda x: np.exp(-0.3 * x) * np.cos(w * x) + 1.0

        params = [0.5, 2.0, 8.0, 20.0, 45.0]
        a, b = np.zeros(5), np.array([1.0, 3.0, 6.0, 10.0, 10.0])
        _, counts = self._compare(make, params, a, b)
        assert all(lock == ref for lock, ref in counts)
        assert len({ref for _, ref in counts}) >= 4

    def test_ps_ic_integrands_in_lockstep(self):
        # the decode levels that ps_sic integrates, at alpha = 3 and 4
        from sicnet.analytic import _decode_integral

        for alpha in (3.0, 4.0):
            for eta in (0.1, 1.0, 10.0):
                orders = np.arange(6, dtype=float)
                _, t0, t1 = _decode_integral(eta, orders, 1e-4, 1e-4, alpha)

                def make(n, eta=eta, alpha=alpha):
                    return _decode_integral(eta, n, 1e-4, 1e-4, alpha)[0]

                _, counts = self._compare(make, orders, t0, t1)
                assert all(lock == ref for lock, ref in counts)

    def test_rows_converge_in_different_rounds(self):
        # scale / (eps + x^2) on [-1, 2]: the sharp peak needs many rounds
        # and the smooth row few; the scaled-down row is held by abs_tol, so
        # it stops on its first panel, where rel_tol alone would bisect it
        eps = np.array([1.0, 1e-5, 1e-2])
        scale = np.array([1.0, 1.0, 1e-16])

        def make(k):
            k = np.asarray(k, dtype=int)
            return lambda x: scale[k] / (eps[k] + x * x)

        a, b = np.full(3, -1.0), np.full(3, 2.0)
        got, counts = self._compare(make, [0, 1, 2], a, b)
        assert all(lock == ref for lock, ref in counts)
        (smooth, _), (sharp, _), (held, _) = counts
        assert held == 1 and 1 < smooth and 5 * smooth < sharp
        assert 0.0 < got[2] < DEFAULT_QUADRATURE.abs_tol
        calls = []
        rel_only = QuadratureSettings(abs_tol=1e-300)
        adaptive_gauss(lambda x: calls.append(1) or make(2)(x), -1.0, 2.0, rel_only)
        assert len(calls) > 1

    def test_zero_width_rows_return_zero(self):
        got = adaptive_gauss(np.cos, np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.5]))
        assert got[0] == pytest.approx(math.sin(1.0), rel=1e-14)
        assert got[1:].tolist() == [0.0, 0.0]

        def never(x):
            raise AssertionError("no row to integrate")

        assert adaptive_gauss(never, np.ones(2), np.array([1.0, 0.5])).tolist() == [0.0, 0.0]

    def test_exhausted_budget_names_the_row(self):
        starved = QuadratureSettings(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
        eps = np.array([1e6, 1e-6])[:, None]  # row 0 converges on its first panel
        with pytest.raises(NumericsError, match=r"row 1: error .* after 3 subdivisions"):
            adaptive_gauss(lambda x: 1.0 / (eps + x**2), np.zeros(2), np.full(2, 100.0), starved)

    def test_bad_bounds_name_the_row(self):
        with pytest.raises(DomainError, match=r"row 2 must be finite"):
            adaptive_gauss(np.sin, np.zeros(3), np.array([1.0, 2.0, math.nan]))
        with pytest.raises(DomainError, match="1-D"):
            adaptive_gauss(np.sin, np.zeros((2, 2)), 1.0)


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
