import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracpast.errors import MaxSubdivisionsError, NonConvergentError
from fracpast import quadrature
from fracpast.quadrature import (
    _U_CFG,
    QuadResult,
    _checked,
    _graded_coordinate,
    integrate_2d,
    integrate_quantile,
)

# The (abs_tol, rel_tol) these tests run the refinement loop to.
_TOL = (1e-9, 1e-8)


def _bounded(f, a, b, cfg=_TOL) -> QuadResult:
    """The refinement loop on [a, b] from 8 panels, as a checked result."""
    return _checked(*quadrature._adaptive(f, a, b, cfg, 8), cfg)


def _tail(f, a=0.0) -> QuadResult:
    """int_a^inf f dx through the core under x = a + p / q, qd = 1 / q^2."""
    return integrate_quantile(lambda p, q: f(a + p / q), lambda p, q: 1.0 / q / q)


class TestBoundedIntervals:
    def test_monomial(self):
        res = _bounded(lambda x: x * x, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)

    def test_oscillatory(self):
        res = _bounded(math.sin, 0.0, math.pi)
        assert res.value == pytest.approx(2.0, rel=1e-10, abs=0.0)

    def test_integrable_endpoint_singularity(self):
        res = _bounded(lambda x: -math.log(x) if x > 0 else 0.0, 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-7)

    @given(
        c=st.floats(-5.0, 5.0),
        a=st.floats(-3.0, 3.0),
        width=st.floats(0.1, 4.0),
    )
    def test_constant_functions(self, c, a, width):
        res = _bounded(lambda _x: c, a, a + width)
        assert res.value == pytest.approx(c * width, rel=1e-11, abs=1e-11)


class TestLimitValidation:
    def test_non_finite_integrand_rejected(self):
        with pytest.raises(NonConvergentError):
            _bounded(lambda x: math.nan, 0.0, 1.0)


class TestSemiInfinite:
    def test_exponential_decay(self):
        res = _tail(lambda x: math.exp(-x))
        assert res.value == pytest.approx(1.0, rel=1e-8, abs=0.0)
        assert not res.diverged
        assert not res.low_confidence

    def test_shifted_origin(self):
        res = _tail(lambda x: math.exp(-(x - 3.0)), 3.0)
        assert res.value == pytest.approx(1.0, rel=1e-8, abs=0.0)

    def test_heavy_power_tail_completion(self):
        # Integrable but slowly decaying: int_0^inf (1+x)^-2 dx = 1. Under
        # x = p / q the integrand is 1, which the core integrates exactly.
        res = _tail(lambda x: (1.0 + x) ** -2.0)
        assert res.value == pytest.approx(1.0, rel=1e-3, abs=0.0)
        assert not res.diverged

    def test_divergent_tail_flagged(self):
        res = _tail(lambda x: (1.0 + x) ** -0.5)
        assert res.diverged
        assert res.value == math.inf
        assert math.isfinite(res.tail_exponent)
        assert res.tail_exponent == pytest.approx(-0.5, abs=0.1)

    def test_borderline_harmonic_tail_flagged(self):
        res = _tail(lambda x: 1.0 / (1.0 + x))
        assert res.diverged


class TestDivergenceScreen:
    def test_power_law_slope_recovered(self):
        res = _tail(lambda x: (1.0 + x) ** -0.7)
        assert res.diverged
        assert res.tail_exponent == pytest.approx(-0.7, abs=0.05)

    def test_fast_decay_convergent(self):
        res = _tail(lambda x: math.exp(-x))
        assert not res.diverged
        assert not res.low_confidence

    def test_steep_power_convergent(self):
        res = _tail(lambda x: (1.0 + x) ** -3.0)
        assert not res.diverged
        assert not res.low_confidence
        assert res.tail_exponent == pytest.approx(-3.0, abs=0.25)

    def test_mixed_sign_slow_decay_inconclusive(self):
        # With y = log(1 + x) this is cos(y) e^(y/2) dy, which has no limit.
        with pytest.raises(NonConvergentError, match="changes sign"):
            _tail(lambda x: math.cos(math.log1p(x)) / math.sqrt(1.0 + x))

    def test_conditionally_convergent_never_diverged(self):
        # The fitted end is not one-signed: refused, never called diverged.
        with pytest.raises(NonConvergentError, match="changes sign"):
            _tail(lambda x: math.sin(x) / math.sqrt(1.0 + x))

    @pytest.mark.parametrize("power", [0.5, 1.0])
    def test_log_power_tail_diverged(self, power):
        # int dx / ((1 + x) log(2 + x)^c) diverges for c <= 1.
        res = _tail(lambda x: 1.0 / ((1.0 + x) * math.log(2.0 + x) ** power))
        assert res.diverged

    def test_log_power_tail_convergent(self):
        # c = 2 converges; with y = log(2 + x) mpmath gives 1.99355968066536384786.
        res = _tail(lambda x: 1.0 / ((1.0 + x) * math.log(2.0 + x) ** 2))
        assert not res.diverged
        assert res.value == pytest.approx(1.99355968066536384786, rel=1e-10, abs=0.0)

    def test_nan_integrand_refused_not_diverged(self):
        # An end with NaN where the fit probes is no verdict on divergence.
        with pytest.raises(NonConvergentError, match="NaN near the upper end"):
            integrate_quantile(lambda p, q: math.nan, lambda p, q: 1.0)
        f = lambda x: math.nan if x < 1e-3 else (1.0 + x) ** -2
        with pytest.raises(NonConvergentError, match="NaN near the lower end"):
            _tail(f)

    @pytest.mark.parametrize("g", [lambda p, q: 1.0 / p / p,
                                   lambda p, q: math.inf if p < 1e-3 else 1.0])
    def test_overflowing_end_still_diverged(self, g):
        res = integrate_quantile(g, lambda p, q: 1.0)
        assert res.diverged and res.value == math.inf

    def test_negative_divergent_end_keeps_its_sign(self):
        res = _tail(lambda x: -1.0 / (1.0 + x))
        assert res.diverged and res.value == -math.inf
        assert res.tail_exponent == pytest.approx(-1.0, abs=1e-9)
        res = integrate_quantile(lambda p, q: -1.0 / p / p, lambda p, q: 1.0)
        assert res.diverged and res.value == -math.inf
        assert res.tail_exponent == pytest.approx(-2.0, abs=1e-9)

    @pytest.mark.parametrize("g, exponent", [(lambda p, q: 1.0 / p ** 2, -2.0),
                                             (lambda p, q: p ** -2.0, -2.0),
                                             (lambda p, q: 1.0 / p ** 4, -4.0)],
                             ids=["one_over_p_squared", "p_to_minus_2", "one_over_p_to_4"])
    def test_probe_that_raises_reads_as_non_finite(self, g, exponent):
        # At deep probes p**2 underflows to 0 (ZeroDivisionError, from
        # 2^-540 down) and p**-2.0 passes the float range (OverflowError, from
        # 2^-520); 1/p**4 raises from 2^-280 down, among the shallow probes.
        # Such a probe is past the float range, as one where 1/p/p returns
        # inf, not an error of the core.
        res = integrate_quantile(g, lambda p, q: 1.0)
        assert res.diverged and res.value == math.inf
        assert res.tail_exponent == pytest.approx(exponent, rel=1e-12, abs=0.0)

    def test_end_law_past_the_float_range_refused(self):
        # h s = L^100 s^(5e-5) converges, to about Gamma(101) / (5e-5)^101.
        g = lambda p, q: (-math.log(p)) ** 100 * p ** 5e-5 if p < 0.5 else 0.0
        with pytest.raises(NonConvergentError, match="float range"):
            integrate_quantile(g, lambda p, q: 1.0 / p)


class TestBudget:
    def test_budget_exhaustion_carries_partial_result(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
        with pytest.raises(MaxSubdivisionsError) as excinfo:
            _bounded(lambda x: math.sin(40.0 * x) ** 2, 0.0, 10.0, (1e-15, 1e-15))
        partial = excinfo.value.partial
        assert isinstance(partial, QuadResult)
        assert math.isfinite(partial.value)
        assert partial.value == pytest.approx(5.0, rel=0.2, abs=0.0)

    def test_unreachable_tolerance_refused_early(self):
        # The panel holding the step keeps an error near its width, so once
        # it is clamped no refinement meets 1e-30, and clamping the rest of
        # [0, 1] would take far more than the budget.
        with pytest.raises(MaxSubdivisionsError, match="width limit") as excinfo:
            _bounded(lambda x: 1.0 if x > 1.0 / 3.0 else 0.0, 0.0, 1.0, (1e-30, 0.0))
        partial = excinfo.value.partial
        assert partial.subdivisions_used < quadrature._MAX_SUBDIVISIONS // 10
        assert partial.value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_narrow_interval_clamps_every_panel(self):
        # On a 1e-10 wide interval every panel reaches the width limit in
        # about 120 subdivisions, so the heap empties within the budget and
        # the value comes back although 1e-30 is never met.
        lo, step = 1.0, 1.0 + 3.3e-11
        res = _bounded(lambda x: 1.0 if x > step else 0.0, lo, lo + 1e-10, (1e-30, 0.0))
        assert res.subdivisions_used < quadrature._MAX_SUBDIVISIONS
        assert res.error_estimate > 1e-30
        assert res.value == pytest.approx(lo + 1e-10 - step, rel=1e-3, abs=0.0)


class TestTwoDimensional:
    def test_rectangle(self):
        res = integrate_2d(lambda x: lambda y: x * y, 0.0, 1.0, 0.0, 1.0)
        assert res.value == pytest.approx(0.25, rel=1e-7, abs=0.0)

    def test_error_estimate_accounts_for_inner_axis(self):
        res = integrate_2d(lambda x: lambda y: x * y, 0.0, 1.0, 0.0, 1.0)
        assert res.error_estimate >= 0.0
        assert not res.diverged

    @pytest.mark.parametrize("u", [1e-300, 1e-100, 1e-20, 1e-16, 1e-10, 0.01, 0.3, 0.5])
    def test_kink_coordinate_keeps_its_digits(self, u):
        # t with t^2 (3 - 2t) = u, solved from the nearer end; the form
        # 0.5 - sin(asin(1 - 2u) / 3) was 11% off at u = 1e-16 and read 0 at
        # 1e-20. The back-map, in exact arithmetic, is within a few ulps,
        # and from the upper end, at 1 - u, the kink is 1 - t, also where
        # 1 - u rounds to 1.
        t = _graded_coordinate(u, 1.0 - u)
        ft = Fraction(t)
        assert float(abs(ft * ft * (3 - 2 * ft) - Fraction(u))) <= 1e-15 * u
        assert _graded_coordinate(1.0 - u, u) == 1.0 - t


def _meets_tolerance(res: QuadResult, cfg: tuple) -> bool:
    abs_tol, rel_tol = cfg
    return res.error_estimate <= max(abs_tol, rel_tol * abs(res.value))


class TestErrorInvariant:
    # Every result either meets max(abs_tol, rel_tol |value|) or carries
    # low_confidence; the flag never moves a value.
    def test_power_tail_meets_tolerance(self):
        # Under x = p / q, (1 + x)^-2 dx is dp: no tail is left to complete.
        res = _tail(lambda x: (1.0 + x) ** -2.0)
        assert _meets_tolerance(res, _U_CFG)
        assert not res.low_confidence
        assert res.value == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_clamped_panels_flagged(self):
        lo, step = 1.0, 1.0 + 3.3e-11
        res = _bounded(lambda x: 1.0 if x > step else 0.0, lo, lo + 1e-10, (1e-30, 0.0))
        assert res.low_confidence

    def test_two_dimensional_sum_checked(self):
        # Each axis meets 1e-7 on its own; the outer error plus the worst
        # inner one does not, for this kink at y = x.
        res = integrate_2d(lambda x: lambda y: min(x, y) ** 0.5, 0.0, 1.0, 0.0, 1.0)
        assert res.error_estimate > max(1e-8, 1e-7 * abs(res.value))
        assert res.low_confidence
        assert res.value == pytest.approx(8.0 / 15.0, rel=1e-7, abs=0.0)
        smooth = integrate_2d(lambda x: lambda y: x * y, 0.0, 1.0, 0.0, 1.0)
        assert not smooth.low_confidence

    def test_two_dimensional_kink_hint(self):
        # With the kink y = x named, a panel edge of every row lands on it.
        res = integrate_2d(lambda x: lambda y: min(x, y) ** 0.5, 0.0, 1.0, 0.0, 1.0,
                           lambda x: (x,))
        assert not res.low_confidence
        assert abs(res.value - 8.0 / 15.0) <= 1e-12

    def test_two_dimensional_hints_off_the_open_interval_ignored(self):
        # Hints on or outside the edges, NaN, and one on the grid's own edge
        # at y = 1/2 leave the points evaluated exactly as without a hint.
        points = []

        def row(x):
            def f(y):
                points.append((x, y))
                return min(x, y) ** 0.5
            return f

        plain = integrate_2d(row, 0.0, 1.0, 0.0, 1.0)
        plain_points = points[:]
        points.clear()
        hinted = integrate_2d(row, 0.0, 1.0, 0.0, 1.0,
                              lambda x: (0.0, 1.0, -2.0, 3.0, math.nan, 0.5, math.inf))
        assert repr(hinted) == repr(plain)
        assert points == plain_points

    def test_budget_partial_is_low_confidence(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
        with pytest.raises(MaxSubdivisionsError) as excinfo:
            _bounded(lambda x: math.sin(40.0 * x) ** 2, 0.0, 10.0, (1e-15, 1e-15))
        assert excinfo.value.partial.low_confidence

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: x * x, 0.0, 1.0),
        (lambda x: math.sqrt(x), 0.0, 1.0),
        (lambda x: math.exp(-x), 0.0, math.inf),
        (lambda x: (1.0 + x) ** -3.0, 0.0, math.inf),
        (lambda x: math.log(x) ** 2, 0.0, 1.0),
    ])
    def test_unflagged_results_meet_tolerance(self, f, a, b):
        res, cfg = (_tail(f, a), _U_CFG) if b == math.inf else (_bounded(f, a, b), _TOL)
        assert res.low_confidence or _meets_tolerance(res, cfg)


class TestProbabilitySpace:
    def test_uniform_kernel(self):
        # int_0^1 p (1 - p) dp with a constant quantile density 3.
        res = integrate_quantile(lambda p, q: p * q, lambda p, q: 3.0)
        assert res.value == pytest.approx(0.5, rel=1e-13, abs=0.0)
        assert not res.diverged
        assert not res.low_confidence

    def test_survival_side_swaps_the_pair(self):
        # g(p, q) = p with Exponential(1)'s quantile density 1/q: the
        # survival side is int S dx = 1, the mean; the past side int F dx
        # diverges.
        qd = lambda p, q: 1.0 / q
        res = integrate_quantile(lambda p, q: p, qd, survival=True)
        assert res.value == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert integrate_quantile(lambda p, q: p, qd).diverged

    def test_endpoint_singularity_substituted(self):
        # int_0^1 p^-0.9 dp = 10: exponent -0.9 at the lower end.
        res = integrate_quantile(lambda p, q: p ** -0.9, lambda p, q: 1.0)
        assert res.value == pytest.approx(10.0, rel=1e-10, abs=0.0)
        assert _meets_tolerance(res, _U_CFG)

    def test_divergent_end_reported_in_x_units(self):
        # Pareto(1) quantile density q^-2; g(p, q) = q^0.5 gives an upper
        # end exponent -1.5 in u, and (-1.5 + 1) / (-2 + 1) - 1 = -0.5 in x.
        res = integrate_quantile(lambda p, q: q ** 0.5, lambda p, q: q ** -2.0)
        assert res.diverged
        assert res.value == math.inf
        assert res.tail_exponent == pytest.approx(-0.5, abs=1e-9)

    def test_budget_partial_covers_both_halves(self, monkeypatch):
        # The upper half (g = 1) settles; the lower half's sin(1/p)^2 does
        # not, and the partial result adds the two.
        g = lambda p, q: math.sin(1.0 / p) ** 2 if p < 0.5 else 1.0
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 5)
        with pytest.raises(MaxSubdivisionsError) as excinfo:
            integrate_quantile(g, lambda p, q: 1.0)
        partial = excinfo.value.partial
        assert partial.value > 0.5
        assert partial.low_confidence
