import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from fracpast.distributions import (
    Beta,
    Distribution,
    Degenerate,
    Exponential,
    Frechet,
    LogUniform,
    ParetoType,
    TriangularSum,
    Uniform,
    UniformSum,
    Weibull,
    affine,
    independent_sum,
    prhr,
)
from fracpast.coherent import series_system, system_efcpe
from fracpast.entropy import (
    W_alpha,
    classic_fractional,
    dynamic_decomposition,
    dynamic_efcpe,
    efcpe,
    efcpe_closed_form,
    efcre,
    gini,
    gini_lower_bound_check,
    mean_inactivity_time,
    modified_efcpe,
    paired_phi_entropy,
    tau_alpha,
)
from fracpast.errors import DivergedError, DomainError, UnsupportedError
from fracpast.fraclog import LogMode, log_kernel
from fracpast import quadrature

# Reference expectation table for the standard uniform, computed with an
# independent high-precision evaluation and frozen.
UNIFORM_REFERENCE = {
    0.1: 1076.06825671,
    0.2: 1.22352765815,
    0.3: 0.320312119422,
    0.4: 0.217822707583,
    0.5: 0.196349540849,
    0.6: 0.196413208255,
    0.7: 0.205049744261,
    0.8: 0.21793372362,
    0.9: 0.23322331803,
}

EXPONENTIAL_REFERENCE = {
    0.3: 0.40398504,
    0.5: 0.31739024,
    0.7: 0.40923418,
}

WEIBULL_15_REFERENCE = {
    0.15: 81.25275807,
    0.2: 5.33714760,
    0.23: 2.11861364,
    0.3: 0.61790824,
    0.35: 0.38569745,
    0.4: 0.28660759,
    0.97: 0.19176104,
    0.98: 0.19272865,
    0.99: 0.19371702,
}

WEIBULL_15_CE = 0.1947254612


class TestPastMeasure:
    @pytest.mark.parametrize("alpha,expected", sorted(UNIFORM_REFERENCE.items()))
    def test_uniform_closed_form(self, alpha, expected):
        assert efcpe_closed_form(Uniform(1.0), alpha) == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_uniform_quadrature_matches_closed_form(self, alpha):
        got = efcpe(Uniform(1.0), alpha).value
        assert got == pytest.approx(efcpe_closed_form(Uniform(1.0), alpha), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_frechet_quadrature_matches_closed_form(self, alpha):
        X = Frechet(2.0, 1.0)
        got = efcpe(X, alpha).value
        assert got == pytest.approx(efcpe_closed_form(X, alpha), rel=1e-6, abs=0.0)

    def test_frechet_closed_form_order_limit(self):
        with pytest.raises(DomainError):
            efcpe_closed_form(Frechet(0.5, 1.0), 0.6)
        assert efcpe_closed_form(Frechet(0.5, 1.0), 0.4) > 0.0

    def test_closed_form_unknown_family(self):
        with pytest.raises(DomainError):
            efcpe_closed_form(Exponential(1.0), 0.5)

    @pytest.mark.parametrize("alpha,expected", sorted(EXPONENTIAL_REFERENCE.items()))
    def test_exponential_reference(self, alpha, expected):
        assert efcpe(Exponential(1.0), alpha).value == pytest.approx(expected, abs=5e-7)

    @pytest.mark.parametrize("alpha,expected", sorted(WEIBULL_15_REFERENCE.items()))
    def test_weibull_reference(self, alpha, expected):
        assert efcpe(Weibull(1.0, 5.0), alpha).value == pytest.approx(expected, rel=1e-6, abs=0.0)

    def test_degenerate_is_zero(self):
        res = efcpe(Degenerate(3.0), 0.5)
        assert res.value == 0.0
        assert not res.diverged
        assert res.diagnostics.subdivisions_used == 0

    def test_heavy_tail_divergence_flagged(self):
        res = efcpe(ParetoType(0.5), 0.5)
        assert res.diverged
        assert math.isnan(res.value)
        # The integrand F [Gamma(1+a) (-log F)]^(1/a) ~ x^(-k/a) in the tail.
        assert res.diagnostics.tail_exponent == pytest.approx(-1.0, abs=0.05)

    def test_heavy_tail_converges_at_smaller_order(self):
        res = efcpe(ParetoType(0.5), 0.4)
        assert not res.diverged
        assert math.isfinite(res.value)

    def test_scale_equivariance_frozen(self):
        assert efcpe(Uniform(2.0), 0.5).value == pytest.approx(
            2.0 * UNIFORM_REFERENCE[0.5], rel=1e-7, abs=0.0
        )


class TestExactMode:
    def test_exact_dominates_approx(self):
        exact = efcpe(Uniform(1.0), 0.75, LogMode.EXACT).value
        approx = efcpe(Uniform(1.0), 0.75, LogMode.APPROX).value
        assert exact >= approx

    def test_exact_runaway_at_small_order(self):
        # Exact -Ln_a p ~ 1 / (p Gamma(1 - a)) as p -> 0, so the integrand
        # F (-Ln_a F)**(1/a) behaves like F**(1 - 1/a) at the lower end,
        # which is not integrable for a <= 1/2: a diverged result whose
        # exponent, in x units on the uniform law, is 1 - 1/a.
        res = efcpe(Uniform(1.0), 0.4, LogMode.EXACT)
        assert res.diverged
        assert res.diagnostics.tail_exponent == pytest.approx(1.0 - 1.0 / 0.4, abs=1e-9)

    def test_order_075_matches_mpmath(self):
        # By parts, int_0^1 u (-Ln_a u)**(1/a) du = (1 / 2a) int_0^inf
        # E_a(-t)^2 t^(1/a - 1) dt; mpmath at 30 digits, with E_a from its
        # series below t = 40 and its large-argument expansion above, gives
        # 0.31886174898413369. The u^(1 - 1/a) lower end once held this
        # call at the x axis's width limit.
        res = efcpe(Uniform(1.0), 0.75, LogMode.EXACT)
        assert not res.diagnostics.low_confidence
        assert abs(res.value - 0.31886174898413369) <= res.error_estimate

    def test_order_075_value_to_1e14(self):
        # The same mpmath value; the EXACT kernel's roots are exact to
        # about 1e-16, so the measure is too, well inside its estimate.
        res = efcpe(Uniform(1.0), 0.75, LogMode.EXACT)
        assert res.value == pytest.approx(0.31886174898413369, rel=1e-14, abs=0.0)

    # Exact -Ln_a S ~ 1 / (S Gamma(1 - a)) as S -> 0, so the residual
    # integrand S (-Ln_a S)**(1/a) ~ S**(1 - 1/a) grows without bound in the
    # tail; on Weibull(1, 2), S**(1 - 1/a) = e^(x^2 (1/a - 1)).
    @pytest.mark.parametrize("measure,X,alpha", [
        pytest.param(efcre, Weibull(1.0, 2.0), 0.3, id="X0-0.3"),
        pytest.param(efcre, Exponential(1.0), 0.3, id="X1-0.3"),
        pytest.param(efcre, Weibull(1.0, 2.0), 0.6, id="efcre-0.6"),
        pytest.param(efcre, Weibull(1.0, 2.0), 0.9, id="efcre-0.9"),
        pytest.param(paired_phi_entropy, Weibull(1.0, 2.0), 0.9, id="paired_phi_entropy-0.9"),
    ])
    def test_exact_residual_kernel_overflow_is_diverged(self, measure, X, alpha):
        res = measure(X, alpha, LogMode.EXACT)
        assert res.diverged
        assert math.isnan(res.value)

    @pytest.mark.parametrize("law", ["uniform", "exponential"])
    @pytest.mark.parametrize("alpha", [0.75, 0.9])
    def test_scale_law(self, law, alpha):
        make = SCALED_LAWS[law]
        unit = efcpe(make(1.0), alpha, LogMode.EXACT).value
        for c in (1e-8, 1e-4, 1e4, 1e8):
            got = efcpe(make(c), alpha, LogMode.EXACT).value
            assert got == pytest.approx(c * unit, rel=1e-12, abs=0.0)

    def test_shift_drops_out(self):
        unit = efcpe(Exponential(1.0), 0.85, LogMode.EXACT).value
        shifted = efcpe(affine(Exponential(1.0), 1.0, 1e9), 0.85, LogMode.EXACT).value
        assert shifted == pytest.approx(unit, rel=1e-12, abs=0.0)


    @pytest.mark.parametrize("alpha", [0.87, 0.9, 0.93])
    def test_exact_residual_runaway_is_reported(self, alpha):
        # Exact Ln_a(p) ~ -1 / (p Gamma(1 - a)) as p -> 0, so the residual
        # integrand S (-Ln_a S)**(1/a) grows like S**(1 - 1/a) in the tail.
        # The root search for tiny S reaches mlf far beyond t ~ 1e154;
        # the measure must come back diverged, not as an OverflowError.
        res = efcre(Exponential(1.0), alpha, LogMode.EXACT)
        assert res.diverged
        assert math.isnan(res.value)


class TestModifiedMeasure:
    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.5, 0.7, 0.9, 1.0])
    def test_uniform_value(self, alpha):
        want = math.gamma(1.0 + alpha) / 4.0
        assert modified_efcpe(Uniform(1.0), alpha).value == pytest.approx(want, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_scales_the_first_power_integral(self, alpha):
        X = Beta(2.0, 2.0)
        base = classic_fractional(X, 1.0, past=True).value
        want = math.gamma(1.0 + alpha) * base
        assert modified_efcpe(X, alpha).value == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_exponential_order_one(self):
        # CE of the unit exponential is pi^2/6 - 1.
        want = math.pi**2 / 6.0 - 1.0
        assert modified_efcpe(Exponential(1.0), 1.0).value == pytest.approx(want, rel=1e-7, abs=0.0)


class TestClassicFractional:
    def test_zero_exponent_residual_is_mean(self):
        assert classic_fractional(Uniform(1.0), 0.0).value == pytest.approx(0.5, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 1.0])
    def test_uniform_past_closed_form(self, q):
        want = math.gamma(q + 1.0) / 2.0 ** (q + 1.0)
        got = classic_fractional(Uniform(1.0), q, past=True).value
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_exponent_validation(self):
        with pytest.raises(DomainError):
            classic_fractional(Uniform(1.0), 1.5)
        with pytest.raises(DomainError):
            classic_fractional(Uniform(1.0), -0.1)

    def test_weibull_cumulative_entropy(self):
        got = classic_fractional(Weibull(1.0, 5.0), 1.0, past=True).value
        assert got == pytest.approx(WEIBULL_15_CE, rel=1e-6, abs=0.0)


class TestSymmetryAndPairing:
    @pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
    def test_symmetric_supports_balance_both_sides(self, symmetric_catalog, alpha):
        for X in symmetric_catalog:
            past = efcpe(X, alpha).value
            residual = efcre(X, alpha).value
            assert past == pytest.approx(residual, rel=1e-7, abs=1e-9)

    def test_paired_measure_is_the_sum(self):
        X = Beta(2.0, 3.0)
        alpha = 0.6
        want = efcpe(X, alpha).value + efcre(X, alpha).value
        assert paired_phi_entropy(X, alpha).value == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_paired_fits_each_end_once(self, monkeypatch):
        # The paired measure is one integral, so the core fits each of its two
        # ends once; a past and a residual integral would fit four.
        fits = []
        end_fit = quadrature._EndFit

        def counted(*args):
            fits.append(args)
            return end_fit(*args)

        monkeypatch.setattr(quadrature, "_EndFit", counted)
        paired_phi_entropy(Beta(2.0, 3.0), 0.6)
        assert len(fits) == 2

    def test_paired_exponent_is_the_diverged_half(self):
        # Beta(5, 2)'s past half diverges at the lower end under EXACT 0.75;
        # its residual half converges, so the pair reports the past's exponent.
        X = Beta(5.0, 2.0)
        paired = paired_phi_entropy(X, 0.75, LogMode.EXACT)
        past = efcpe(X, 0.75, LogMode.EXACT)
        residual = efcre(X, 0.75, LogMode.EXACT)
        assert paired.diverged and past.diverged and not residual.diverged
        assert paired.diagnostics.tail_exponent == past.diagnostics.tail_exponent
        assert paired.record()["tail_exponent"] == past.diagnostics.tail_exponent

    def test_exponential_sides_differ(self):
        past = efcpe(Exponential(1.0), 0.5).value
        residual = efcre(Exponential(1.0), 0.5).value
        assert abs(past - residual) > 1e-3


class TestDynamicMeasure:
    def test_frozen_uniform_value(self):
        got = dynamic_efcpe(Uniform(1.0), 0.5, 0.5).value
        assert got == pytest.approx(0.09817477042475062, rel=1e-8, abs=0.0)

    def test_uniform_truncation_is_rescaling(self):
        # Conditioning U(0, 1) on X <= t gives U(0, t); the dynamic measure
        # must therefore equal t times the full one.
        for t in (0.25, 0.5, 0.8):
            got = dynamic_efcpe(Uniform(1.0), 0.5, t).value
            assert got == pytest.approx(t * UNIFORM_REFERENCE[0.5], rel=1e-7, abs=0.0)

    def test_limit_at_upper_support_is_full_measure(self):
        for X in (Uniform(1.0), Beta(2.0, 2.0)):
            full = efcpe(X, 0.5).value
            assert dynamic_efcpe(X, 0.5, X.upper).value == pytest.approx(full, rel=1e-8, abs=0.0)

    def test_limit_is_approached_monotonically(self):
        X = Beta(2.0, 2.0)
        grid = [0.9, 0.925, 0.95, 0.975, 1.0]
        values = [dynamic_efcpe(X, 0.5, t).value for t in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_needs_positive_cdf(self):
        with pytest.raises(DomainError):
            dynamic_efcpe(Uniform(1.0), 0.5, -0.1)

    def test_point_mass_needs_positive_cdf(self):
        # F(1) = 0 below the point at 2, as for every other law.
        with pytest.raises(DomainError):
            dynamic_efcpe(Degenerate(2.0), 0.5, 1.0)

    @pytest.mark.parametrize("t", [2.0, 3.0])
    def test_point_mass_at_or_below_t_is_zero(self, t):
        res = dynamic_efcpe(Degenerate(2.0), 0.5, t)
        assert res.value == 0.0
        assert res.diagnostics.subdivisions_used == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: dynamic_efcpe(Uniform(1.0), 0.5, t),
            lambda t: tau_alpha(Uniform(1.0), 0.5, t),
            lambda t: W_alpha(Uniform(1.0), 0.5, t),
            lambda t: mean_inactivity_time(Uniform(1.0), t),
        ],
        ids=["dynamic_efcpe", "tau_alpha", "W_alpha", "mean_inactivity_time"],
    )
    def test_nan_time_refused(self, call):
        # Every comparison with NaN is false, so no check on F(t) or the
        # support catches it.
        with pytest.raises(DomainError, match="NaN"):
            call(math.nan)

    @pytest.mark.parametrize("scale,shift", [(0.5, 0.0), (2.0, 3.0), (7.0, 0.0)])
    def test_affine_law(self, scale, shift):
        X = Beta(2.0, 2.0)
        Y = affine(X, scale, shift)
        t = 0.7
        lhs = dynamic_efcpe(Y, 0.5, scale * t + shift).value
        rhs = scale * dynamic_efcpe(X, 0.5, t).value
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("a", [1.0, 3.0])
    def test_uniform_past_residual_symmetry(self, a):
        # For U(0, a) the past measure truncated at t equals the residual
        # analogue truncated at a - t, computed here from the survival ratio.
        X = Uniform(a)
        alpha, t = 0.5, 0.3 * a
        s = a - t

        def residual_integrand(x):
            r = X.survival(x) / X.survival(s)
            if r <= 0.0 or r >= 1.0:
                return 0.0
            return r * log_kernel(alpha, r)

        dual, _ = integrate.quad(residual_integrand, s, a, epsabs=1e-9, epsrel=1e-8)
        got = dynamic_efcpe(X, alpha, t).value
        assert got == pytest.approx(dual, rel=1e-7, abs=0.0)


class TestDynamicDecomposition:
    def test_frozen_split(self):
        integral, boundary = dynamic_decomposition(Uniform(1.0), 0.5, 0.5)
        assert integral == pytest.approx(0.19251149910728163, rel=1e-8, abs=0.0)
        assert boundary == pytest.approx(-0.09433672868253101, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("t", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
    def test_parts_sum_to_dynamic_measure(self, alpha, t):
        X = Beta(2.0, 2.0)
        integral, boundary = dynamic_decomposition(X, alpha, t)
        total = dynamic_efcpe(X, alpha, t).value
        assert integral + boundary == pytest.approx(total, rel=1e-9, abs=1e-12)

    def test_boundary_term_is_nonpositive_lower_bound(self):
        X = TriangularSum()
        for t in (0.5, 1.0, 1.5):
            integral, boundary = dynamic_decomposition(X, 0.6, t)
            total = dynamic_efcpe(X, 0.6, t).value
            assert boundary <= 0.0
            assert total >= boundary

    def test_boundary_vanishes_at_upper_support(self):
        _, boundary = dynamic_decomposition(Uniform(1.0), 0.5, 1.0)
        assert boundary == 0.0

    def test_mean_inactivity_time_uniform(self):
        # For U(0, 1), mu(t) = t / 2.
        assert mean_inactivity_time(Uniform(1.0), 0.6) == pytest.approx(0.3, rel=1e-9, abs=0.0)


class TestTailFunctionals:
    def test_tau_frozen_value(self):
        assert tau_alpha(Uniform(1.0), 0.5, 0.5) == pytest.approx(0.05232818, abs=1e-7)

    def test_tau_expectation_recovers_past_measure(self):
        X = Uniform(1.0)
        value, _ = integrate.quad(lambda t: tau_alpha(X, 0.5, t), 0.0, 1.0,
                                  epsabs=1e-8, epsrel=1e-7)
        assert value == pytest.approx(UNIFORM_REFERENCE[0.5], rel=1e-5, abs=0.0)

    def test_tau_vanishes_beyond_support(self):
        assert tau_alpha(Uniform(1.0), 0.5, 1.0) == 0.0
        assert tau_alpha(Uniform(1.0), 0.5, 2.0) == 0.0

    def test_tau_heavy_tail_diverges(self):
        with pytest.raises(DivergedError):
            tau_alpha(ParetoType(0.5), 0.5, 1.0)

    def test_w_frozen_closed_form(self):
        # For U(0, 1): W_a(t) = Gamma(1 + a) * ((1 - t) + t * log t).
        got = W_alpha(Uniform(1.0), 0.5, 0.5)
        assert got == pytest.approx(0.135970615369435, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("X", [Exponential(1.0), Weibull(1.0, 2.0)], ids=repr)
    @pytest.mark.parametrize("t", [40.0, 1e19, 1e21, 1e22, 1e300])
    def test_tail_integrals_zero_where_cdf_is_one(self, X, t):
        # F(t) rounds to 1, so the integrand is 0 from t on: exactly 0, not
        # a quadrature of a lower limit too large to map.
        assert X.cdf(t) == 1.0
        assert W_alpha(X, 0.5, t) == 0.0
        assert tau_alpha(X, 0.5, t) == 0.0

    def test_w_nonincreasing(self):
        values = [W_alpha(Exponential(1.0), 0.5, t) for t in (0.2, 0.6, 1.2, 2.5)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_w_at_mean_bounds_modified_measure(self):
        for X, alpha in [(Uniform(1.0), 0.5), (Exponential(1.0), 1.0)]:
            bound = W_alpha(X, alpha, X.mean())
            assert modified_efcpe(X, alpha).value >= bound - 1e-9


class TestGini:
    @pytest.mark.parametrize(
        "dist,expected",
        [
            (Uniform(1.0), 1.0 / 3.0),
            (Exponential(1.0), 0.5),
            (Beta(2.0, 2.0), 9.0 / 35.0),
            (TriangularSum(), 7.0 / 30.0),
        ],
        ids=["uniform", "exponential", "beta22", "triangular"],
    )
    def test_catalog_values(self, dist, expected):
        assert gini(dist) == pytest.approx(expected, rel=1e-7, abs=0.0)

    def test_infinite_mean_rejected(self):
        with pytest.raises(DomainError):
            gini(ParetoType(0.5))

    @pytest.mark.parametrize("rate", [1e-8, 1e-4, 1e4, 1e8])
    def test_exponential_is_one_half_at_every_rate(self, rate):
        # 1 - E[min] / E[X] = 1 - (1 / 2 rate) / (1 / rate); the x-axis tail
        # screen once flagged rate 1e-4 as diverged.
        assert gini(Exponential(rate)) == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_degenerate_is_zero(self):
        assert gini(Degenerate(2.0)) == 0.0

    def test_point_mass_at_zero_refused(self):
        # E[min] / E[X] is 0 / 0.
        with pytest.raises(DomainError):
            gini(Degenerate(0.0))

    def test_lower_bound_frozen(self):
        bound, holds = gini_lower_bound_check(Uniform(1.0), 0.5)
        assert bound == pytest.approx(0.1477044875754596, rel=1e-9, abs=0.0)
        assert holds

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
    def test_lower_bound_holds_on_catalog(self, bounded_catalog, exp_unit, alpha):
        for X in bounded_catalog + [exp_unit]:
            _, holds = gini_lower_bound_check(X, alpha)
            assert holds, f"Gini bound failed for {X!r} at alpha={alpha}"


class TestOrderStructure:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_jensen_bound_on_unit_catalog(self, bounded_catalog, alpha):
        # Measures of catalog members with support inside [0, 2] dominate
        # the 1/alpha power of the modified measure.
        for X in bounded_catalog:
            lhs = efcpe(X, alpha).value
            rhs = modified_efcpe(X, alpha).value ** (1.0 / alpha)
            assert lhs >= rhs - 1e-9, f"{X!r} at alpha={alpha}"

    def test_jensen_bound_fails_under_scaling(self):
        # The bound is not scale invariant: both sides scale linearly only
        # in the past measure, while the powered side picks up scale**(1/a).
        X = Uniform(6.0)
        lhs = efcpe(X, 0.5).value
        rhs = modified_efcpe(X, 0.5).value ** 2.0
        assert lhs < rhs

    @pytest.mark.parametrize("scale", [0.5, 2.0, 7.0])
    @pytest.mark.parametrize("shift", [0.0, 3.0])
    def test_scale_shift_law(self, scale, shift):
        X = Beta(2.0, 2.0)
        want = scale * efcpe(X, 0.6).value
        got = efcpe(affine(X, scale, shift), 0.6).value
        assert got == pytest.approx(want, rel=1e-7, abs=0.0)

    @given(
        scale=st.floats(0.5, 7.0),
        shift=st.floats(0.0, 3.0),
        alpha=st.sampled_from([0.4, 0.6, 0.9]),
    )
    def test_scale_shift_law_random(self, scale, shift, alpha):
        X = Uniform(1.0)
        want = scale * efcpe(X, alpha).value
        got = efcpe(affine(X, scale, shift), alpha).value
        assert got == pytest.approx(want, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("delta", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_reversed_hazard_tilt_bound(self, delta, alpha):
        base = efcpe(Uniform(1.0), alpha).value
        tilted = efcpe(prhr(Uniform(1.0), delta), alpha).value
        assert tilted <= delta * base + 1e-9

    def test_reversed_hazard_tilt_bound_fails_at_small_order(self):
        # At alpha = 0.1 the delta = 2 tilt of the standard uniform exceeds
        # twice the base measure by an order of magnitude, so the linear
        # bound genuinely does not extend below alpha ~ 0.26.
        from fracpast.coherent import parallel_uniform_closed_form

        tilted = parallel_uniform_closed_form(2, 0.1)
        base = efcpe_closed_form(Uniform(1.0), 0.1)
        assert tilted > 2.0 * base

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_sum_dominates_components(self, alpha):
        total = efcpe(UniformSum(1.0, 1.0), alpha).value
        part = efcpe(Uniform(1.0), alpha).value
        assert total >= part

    def test_sum_reference_pairs(self):
        assert efcpe(UniformSum(1.0, 1.0), 0.2).value == pytest.approx(4.8615646, rel=1e-6, abs=0.0)
        got = efcpe(UniformSum(1.0, 1.0), 0.5).value
        assert got == pytest.approx(0.33874448, rel=1e-6, abs=0.0)


class TestResultRecord:
    def test_regular_record(self):
        X = Uniform(2.0)
        rec = efcpe(X, 0.5).record(X)
        assert rec["measure"] == "efcpe"
        assert rec["alpha"] == 0.5
        assert rec["mode"] == "approx"
        assert rec["diverged"] is False
        assert rec["value"] == pytest.approx(2.0 * UNIFORM_REFERENCE[0.5], rel=1e-7, abs=0.0)
        assert rec["family"] == "uniform"
        assert rec["params"] == {"scale": 2.0}
        assert "tail_exponent" not in rec

    def test_diverged_record(self):
        rec = efcpe(ParetoType(0.5), 0.5).record()
        assert rec["value"] is None
        assert rec["diverged"] is True
        assert rec["tail_exponent"] == pytest.approx(-1.0, abs=0.05)
        assert "family" not in rec


# Every univariate measure shares one integrand path; each case is
# (measure, tag, tail exponent on ParetoType(0.5) in x units). With S ~ x^-k
# in the tail, F (-log F)^c ~ x^(-k c) on the past side and S (-log S)^c ~
# x^-k times a power of log x on the residual side, so the exponents are
# -k/a, -k, -k, -k q, -k and -k.
SHARED_CONTRACT_CASES = {
    "efcpe": (lambda X: efcpe(X, 0.6), "efcpe", -0.5 / 0.6),
    "efcre": (lambda X: efcre(X, 0.6), "efcre", -0.5),
    "modified_efcpe": (lambda X: modified_efcpe(X, 0.6), "modified_efcpe", -0.5),
    "classic_past": (lambda X: classic_fractional(X, 0.5, past=True), "classic_fractional", -0.25),
    "classic_residual": (lambda X: classic_fractional(X, 0.5), "classic_fractional", -0.5),
    "paired_phi_entropy": (lambda X: paired_phi_entropy(X, 0.6), "paired_phi", -0.5),
}


class TestSharedResultContract:
    @pytest.mark.parametrize("name", sorted(SHARED_CONTRACT_CASES))
    def test_degenerate_zero_and_diverged_nan(self, name):
        measure, tag, exponent = SHARED_CONTRACT_CASES[name]
        zero = measure(Degenerate(2.0))
        assert zero.value == 0.0
        assert not zero.diverged
        assert zero.diagnostics.subdivisions_used == 0

        res = measure(ParetoType(0.5))
        assert res.diverged
        assert math.isnan(res.value)
        assert res.measure_tag.value == tag
        assert math.isfinite(res.diagnostics.tail_exponent)
        assert res.diagnostics.tail_exponent == pytest.approx(exponent, abs=0.01)


# Each family as a function of its scale c; at c = 1 it is the unit law.
SCALED_LAWS = {
    "uniform": lambda c: Uniform(c),
    "exponential": lambda c: Exponential(1.0 / c),
    "weibull": lambda c: Weibull(c, 1.7),
    "frechet": lambda c: Frechet(2.5, c ** 2.5),
    "pareto": lambda c: affine(ParetoType(2.5), c),
    "loguniform": lambda c: LogUniform(2.0 * c, 30.0 * c),
    "beta": lambda c: affine(Beta(2.0, 3.0), c),
    "uniformsum": lambda c: UniformSum(c, 3.0 * c),
    "triangularsum": lambda c: affine(TriangularSum(), c),
    "affine": lambda c: affine(Weibull(1.0, 0.8), 2.0 * c, 5.0 * c),
    "prhr": lambda c: prhr(Exponential(1.0 / c), 0.4),
}


# The truncated and tail measures as functions of (law, scale c), with the
# time t placed at the unit law's level-0.6 quantile times c. Each one of
# cX is c times that of X; gini is scale-free.
TRUNCATED_MEASURES = {
    "dynamic_0.1": lambda make, c: dynamic_efcpe(make(c), 0.1, c * make(1.0).quantile(0.6)).value,
    "dynamic_0.8": lambda make, c: dynamic_efcpe(make(c), 0.8, c * make(1.0).quantile(0.6)).value,
    "mean_inactivity_time": lambda make, c: mean_inactivity_time(make(c), c * make(1.0).quantile(0.6)),
    "tau_0.5": lambda make, c: tau_alpha(make(c), 0.5, c * make(1.0).quantile(0.6)),
    "W_0.5": lambda make, c: W_alpha(make(c), 0.5, c * make(1.0).quantile(0.6)),
    "prhr_mean": lambda make, c: prhr(make(c), 2.0).mean(),
    "gini_times_c": lambda make, c: c * gini(make(c)),
}


# Every 1-D measure as a function of (law, scale c): c times its unit value.
ONE_D_MEASURES = dict(
    TRUNCATED_MEASURES,
    **{name: (lambda make, c, run=run: run(make(c)).value)
       for name, (run, _, _) in SHARED_CONTRACT_CASES.items()},
    system_efcpe=lambda make, c: system_efcpe(series_system(3), make(c), 0.6).value,
)


class TestScaleLaw:
    # A law's scale is a constant factor of its quantile density, so the
    # probability-space measures obey E*(cX) = c E*(X) to rounding.
    @pytest.mark.parametrize("measure", [efcpe, efcre])
    @pytest.mark.parametrize("name", sorted(SCALED_LAWS))
    def test_scale_law_from_1e_minus_8_to_1e8(self, name, measure):
        make = SCALED_LAWS[name]
        for alpha in (0.3, 0.8):
            unit = measure(make(1.0), alpha).value
            for c in (1e-8, 1e-4, 1e4, 1e8):
                assert measure(make(c), alpha).value == pytest.approx(c * unit, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("measure", sorted(TRUNCATED_MEASURES))
    @pytest.mark.parametrize("name", sorted(SCALED_LAWS))
    def test_truncated_measures_scale(self, name, measure):
        make, run = SCALED_LAWS[name], TRUNCATED_MEASURES[measure]
        unit = run(make, 1.0)
        for c in (1e-8, 1e-4, 1e4, 1e8):
            assert run(make, c) == pytest.approx(c * unit, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [1e-13, 1e-100])
    @pytest.mark.parametrize("name", ["uniform", "beta"])
    def test_every_measure_on_a_narrow_support(self, name, c):
        # A support narrower than 1e-12 was once measured as exactly zero.
        make = SCALED_LAWS[name]
        for measure, run in ONE_D_MEASURES.items():
            assert run(make, c) == pytest.approx(c * run(make, 1.0), rel=1e-12, abs=0.0), measure

    def test_sum_law_on_the_x_axis(self):
        # A numeric convolution has no quantile density, so it runs over
        # levels of its x range, scaled by the range's width; on the x axis,
        # below c = 1e-4, it once came back 1.3e-10 off with 0 subdivisions.
        make = lambda c: independent_sum(affine(Beta(2.0, 3.0), c), Uniform(c))
        unit = efcpe(make(1.0), 0.5).value
        for c in (1e-8, 1e-4, 1e4, 1e8):
            assert efcpe(make(c), 0.5).value == pytest.approx(c * unit, rel=1e-12, abs=0.0)

    def test_sum_law_cdf_budget(self, monkeypatch):
        # Each cdf or survival of the sum is one graded row over the part of
        # the second support where the first law's side lies strictly inside
        # (0, 1), and the row reads either side; the whole-range row this
        # replaced took 33,420 Beta cdf calls here.
        calls = []
        for name in ("cdf", "survival"):
            side = getattr(Beta, name)
            monkeypatch.setattr(Beta, name,
                                lambda self, x, side=side: calls.append(x) or side(self, x))
        efcpe(independent_sum(Beta(2.003, 3.014), Uniform(0.5828)), 0.5386)
        assert 0 < len(calls) <= 10_000

    @pytest.mark.parametrize("shift", [1e6, 1e9, 1e15, 1e17])
    def test_shift_drops_out(self, shift):
        # Gamma(3/2)^2 Gamma(3) (zeta(3) - 1) = 0.3173902412866...
        res = efcpe(affine(Exponential(1.0), 1.0, shift), 0.5)
        assert res.value == pytest.approx(0.3173902412866, rel=1e-12, abs=0.0)


class _XAxisUniform(Uniform):
    """Uniform(0, scale) with no quantile density, so every measure of it
    runs over levels of its x range."""

    family = "x_axis_uniform"
    qd = None


# The numeric convolution Beta(2.003, 3.014) + Uniform(0.5828): it has no
# quantile density, so its measures run over levels of its x range. The
# references are 30-digit mpmath integrals over the closed-form cdf
# F_Z(z) = (G(z) - G(z - c)) / c, c = 0.5828, with
# G(u) = u I_u(a, b) - (a / (a + b)) I_u(a + 1, b) on [0, 1],
# G(u) = u - a / (a + b) above 1 and G(u) = 0 below 0.
SUM_LAW = (Beta(2.003, 3.014), Uniform(0.5828))


class TestSumLaw:
    def test_past_measure_reference(self):
        res = efcpe(independent_sum(*SUM_LAW), 0.5386)
        want = 0.20323585907802364
        assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert abs(res.value - want) <= res.error_estimate

    def test_residual_measure_reference(self):
        res = efcre(independent_sum(*SUM_LAW), 0.75)
        assert abs(res.value - 0.21291201748813597) <= res.error_estimate

    @pytest.mark.parametrize("measure", [efcre, paired_phi_entropy])
    def test_exact_residual_runaway_is_diverged(self, measure):
        # The EXACT kernel at order 0.75 grows like S^(1 - 1/a) as S -> 0, and
        # S vanishes like (upper - x)^(b + 1) at the upper end (the Beta end,
        # b = 3.014, plus 1 for the uniform): exponent -(b + 1) / 3. On the x
        # axis each call exhausted the 2000-subdivision budget in about 5 s.
        res = measure(independent_sum(*SUM_LAW), 0.75, LogMode.EXACT)
        assert res.diverged
        assert res.diagnostics.subdivisions_used == 0
        assert res.diagnostics.tail_exponent == pytest.approx(-(3.014 + 1.0) / 3.0, abs=1e-3)


class _XAxisExponential(Exponential):
    """Exponential with no quantile density."""

    family = "x_axis_exponential"
    qd = None


class TestXAxisBranch:
    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_semi_infinite_map_is_scaled(self, c):
        # The map onto [lower, inf) carries the median's distance from the
        # lower end; with x = lower + p / q, c = 1e-8 once read exactly 0.0
        # and c = 1e-4 was 8.1e-11 off.
        want = c * efcpe(Exponential(1.0), 0.5).value
        got = efcpe(affine(_XAxisExponential(1.0), c), 0.5).value
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_semi_infinite_map_refuses_a_lower_end_beyond_its_scale(self):
        # Where lower + m rounds to lower, the map x = lower + m p / q has no
        # levels left to tell apart; the shift leaves m at 0, so m = 1.
        with pytest.raises(UnsupportedError):
            efcpe(affine(_XAxisExponential(1.0), 1.0, 1e300), 0.5)

    def test_w_reads_the_survival_side(self):
        # int_30^inf -log(1 - e^-x) dx = Li2(e^-30), times Gamma(3/2). With
        # -log F read from 1 - S on the x axis it was 7.3e-4 off.
        got = W_alpha(_XAxisExponential(1.0), 0.5, 30.0)
        assert got == pytest.approx(8.292977433221545e-14, rel=1e-12, abs=0.0)

    def test_cdf_read_where_the_survival_passes_one_half(self):
        # F = 501 x^500 - 500 x^501 on Beta(500, 2): the levels above t = 0.5
        # read S first, and F from the law where S > 1/2. A read of F as
        # 1 - S across the whole upper half exhausts the subdivision budget.
        class XAxisBeta(Beta):
            qd = None

        got = tau_alpha(XAxisBeta(500.0, 2.0), 0.5, 0.5)
        assert got == pytest.approx(12480.175579136231, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("measure", ["dynamic_0.1", "dynamic_0.8", "mean_inactivity_time",
                                         "tau_0.5", "W_0.5"])
    def test_truncated_measures_match_the_levels(self, measure, c):
        # The truncated x ranges, below and above t, against the same
        # measures of Uniform over its quantile levels.
        run = TRUNCATED_MEASURES[measure]
        assert run(_XAxisUniform, c) == pytest.approx(run(Uniform, c), rel=1e-9, abs=0.0)

    def test_paired_heavy_tail(self):
        # The paired kernel reads the law's own S on the x axis. Read as
        # 1 - F, the tail (1 + x)^-1.5 loses its digits past x ~ 1e10, and
        # the integral exhausts the subdivision budget.
        class XAxisPareto(ParetoType):
            qd = None

        X = XAxisPareto(1.5)
        want = efcpe(X, 0.6).value + efcre(X, 0.6).value
        assert paired_phi_entropy(X, 0.6).value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_frechet_residual(self):
        # S = -expm1(-x^-2) keeps its digits in the tail, where 1 - F left
        # the residual integral to exhaust the subdivision budget.
        class XAxisFrechet(Frechet):
            qd = None

        want = efcre(Frechet(2.0, 1.0), 0.6).value
        assert efcre(XAxisFrechet(2.0, 1.0), 0.6).value == pytest.approx(want, rel=1e-12, abs=0.0)


class TestExactOrderOne:
    # E_1 is exp, so -Ln_1 p = -log p in both modes, from q above p = 1/2.
    @pytest.mark.parametrize("name", sorted(SCALED_LAWS))
    def test_exact_equals_approx(self, name):
        X = SCALED_LAWS[name](1.0)
        for measure in (efcpe, efcre):
            exact = measure(X, 1.0, LogMode.EXACT).value
            assert exact == pytest.approx(measure(X, 1.0).value, rel=1e-12, abs=0.0)


class TestTruncatedReferences:
    # 40-digit mpmath integrals over x: F(x) = 6x^2 - 8x^3 + 3x^4 for
    # Beta(2, 3) and 1 - (1 + x)^-2 for ParetoType(2). The order-0.3
    # kernel's (-log F)^(1/a) lower end once exhausted the x axis's budget.
    @pytest.mark.parametrize("X,want", [(Beta(2.0, 3.0), 27.425892935318762),
                                        (ParetoType(2.0), 3.555360955798948)], ids=repr)
    def test_tau_at_order_03(self, X, want):
        assert tau_alpha(X, 0.3, 0.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_frechet_lower_end_diverges(self, alpha, t):
        # On Frechet(2, 1), -log F(x) = x^-2, so int_0 (-log F)^c dx diverges
        # for every c >= 1/2: a divergence, not a subdivision-budget failure.
        with pytest.raises(DivergedError):
            tau_alpha(Frechet(2.0, 1.0), alpha, t)
        with pytest.raises(DivergedError):
            W_alpha(Frechet(2.0, 1.0), alpha, t)

    @pytest.mark.parametrize("t", [1.0, 1e6, 1e8])
    def test_w_frechet_closed_form(self, t):
        # int_t^inf -log F dx = int_t^inf x^-2 dx = 1/t on Frechet(2, 1). The
        # levels above t have width S(t), about 1/t^2, which 1 - F rounds.
        got = W_alpha(Frechet(2.0, 1.0), 0.6, t)
        assert got == pytest.approx(math.gamma(1.6) / t, rel=1e-13, abs=0.0)

    def test_w_prhr_dilogarithm(self):
        # G = F^delta on the unit exponential: int_t^inf -delta log(1 - e^-x) dx
        # = delta Li2(e^-t), and S_G(30) = 4.7e-14 is what 1 - G rounds.
        z = math.exp(-30.0)
        want = math.gamma(1.6) * 0.5 * sum(z ** k / k ** 2 for k in (1, 2, 3))
        got = W_alpha(prhr(Exponential(1.0), 0.5), 0.6, 30.0)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_w_beta_small_upper_tail(self):
        # A 50-digit mpmath integral of -log F with mpmath's incomplete beta
        # function. The levels above t have width S(t) = 4e-15, which 1 - F
        # once gave 1.1e-3 off.
        got = W_alpha(Beta(2.0, 3.0), 0.6, 0.99999)
        assert got == pytest.approx(8.9350998817933004e-21, rel=1e-13, abs=0.0)

    def test_dynamic_uniform_at_small_scale(self):
        # [U(0, 1e-8) | X <= t] is U(0, t): t times the closed form.
        want = 3.5e-9 * efcpe_closed_form(Uniform(1.0), 0.1)
        got = dynamic_efcpe(Uniform(1e-8), 0.1, 3.5e-9).value
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_dynamic_beta_at_order_01(self):
        # A 30-digit mpmath integral over x with mpmath's incomplete beta
        # function gives 0.594229094863447; the x axis refused it at the
        # width limit.
        X = Beta(0.5, 3.2)
        got = dynamic_efcpe(X, 0.1, X.quantile(0.3)).value
        assert got == pytest.approx(0.594229094863447, rel=1e-12, abs=0.0)

    def test_w_on_a_convolution_at_every_scale(self):
        # U(0, c) + c Beta(2, 2) has 0.95 quantile 1.603433176933322 c. A
        # 30-digit mpmath integral of -log F, with the closed-form CDF of
        # U(0, 1) + Beta(2, 2), gives W = 0.0047172445414350 at c = 1. On the
        # x axis in x units this took 6 s at c = 1 and burned the subdivision
        # budget at c = 100.
        values = []
        for c in (1.0, 100.0, 1e4):
            X = independent_sum(Uniform(c), affine(Beta(2.0, 2.0), c))
            start = time.perf_counter()
            values.append(W_alpha(X, 0.6, X.quantile(0.95)) / c)
            assert time.perf_counter() - start < 2.0
        for value in values:
            assert value == pytest.approx(values[0], rel=1e-9, abs=0.0)
            assert value == pytest.approx(0.0047172445414350, rel=1e-12, abs=0.0)

    def test_frechet_mean_and_gini_at_the_lower_end(self):
        # Near x = 0, S = 1 and the quantile density is ~ 1 / (p L^(1+1/k))
        # with L = -log p; the core fits that power of L, so the
        # survival-side integral keeps the closed-form mean.
        X = Frechet(2.5, 3.0)
        assert Distribution.mean(X) == pytest.approx(X.mean(), rel=1e-12, abs=0.0)
        assert classic_fractional(X, 0.0).value == pytest.approx(X.mean(), rel=1e-12, abs=0.0)
        # The larger of two copies, F^2 = exp(-6 x^-2.5), is Frechet(2.5, 6).
        assert prhr(X, 2.0).mean() == pytest.approx(Frechet(2.5, 6.0).mean(), rel=1e-12, abs=0.0)
        # E[min] = 2 E[X] - E[max] = (2 - 2^(1/2.5)) E[X].
        assert gini(X) == pytest.approx(2.0 ** 0.4 - 1.0, rel=1e-12, abs=0.0)


def _beta_a2_gini(a: int) -> float:
    """Exact Gini index of Beta(a, 2): S = 1 - (a+1) x^a + a x^(a+1) gives
    int S^2 = (a+1)^2/(2a+1) + a^2/(2a+3) + 2a/(a+2) - a - 1, mean a/(a+2)."""
    a = Fraction(a)
    e_min = (a + 1) ** 2 / (2 * a + 1) + a ** 2 / (2 * a + 3) + 2 * a / (a + 2) - a - 1
    return float(1 - e_min * (a + 2) / a)


class TestSlowEnds:
    # Ends where h s ~ L^c s^delta (L = -log s) with a slope in log s near
    # -1, which the two-probe exponent alone called diverged: a Weibull or
    # Beta lower end of large shape under S, a Frechet lower end, a kernel
    # in -log F times either. Closed forms or mpmath references.
    @pytest.mark.parametrize("k", [50, 60, 150, 300, 1000])
    def test_gini_at_large_shapes(self, k):
        # E[min] = 2^(-1/k) E[X] for Weibull, (2 - 2^(1/k)) E[X] for Frechet.
        assert gini(Weibull(1.0, k)) == pytest.approx(1.0 - 2.0 ** (-1.0 / k), rel=1e-9, abs=0.0)
        assert gini(Frechet(k, 1.0)) == pytest.approx(2.0 ** (1.0 / k) - 1.0, rel=1e-8, abs=0.0)

    def test_gini_beta_large_shape(self):
        # Below the deepest level the core evaluates, 2^-900, lie x < 0.0151
        # of Beta(150, 2); the fitted end law stands in there and is 1.6e-4
        # off in the Gini index (the result is low-confidence inside).
        assert gini(Beta(60.0, 2.0)) == pytest.approx(_beta_a2_gini(60), rel=1e-8, abs=0.0)
        assert gini(Beta(150.0, 2.0)) == pytest.approx(_beta_a2_gini(150), rel=1e-3, abs=0.0)

    def test_false_divergence_verdict_is_refused(self, monkeypatch):
        import fracpast.entropy as entropy_module

        diverged = quadrature.QuadResult(math.inf, math.inf, True, 0)
        monkeypatch.setattr(entropy_module, "_cumulative", lambda *args, **kw: diverged)
        with pytest.raises(DivergedError):
            gini(Exponential(1.0))

    def test_frechet_lower_end_with_c_near_minus_one(self):
        # S ~ 1 and qd ~ L^(-1 - 1/60) / (60 p): c = -1.0167 converges.
        X = Frechet(60.0, 1.0)
        res = classic_fractional(X, 0.0)
        assert not res.diverged
        assert res.value == pytest.approx(math.gamma(1.0 - 1.0 / 60.0), rel=1e-9, abs=0.0)
        assert prhr(X, 2.0).mean() == pytest.approx(Frechet(60.0, 2.0).mean(), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("k", [60.0, 150.0])
    def test_w_alpha_weibull_lower_end(self, k):
        # int -log(1 - exp(-x^k)) dx = Gamma(1 + 1/k) zeta(1 + 1/k); mpmath at
        # k = 60 gives 60.0120408109483270907.
        want = {60.0: 60.0120408109483270907, 150.0: 150.004841073745819893}[k]
        assert W_alpha(Weibull(1.0, k), 1.0, 0.0) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_tau_weibull_lower_end(self):
        # Gamma(3/2)^2 int (-log F)^2 dx, 30-digit mpmath over x = e^-t.
        got = tau_alpha(Weibull(1.0, 60.0), 0.5, 0.0)
        assert got == pytest.approx(5654.88149935008030266, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("q,want", [(0.01, 99.0129232699504611146),
                                        (0.0035, 284.718839646064273532)])
    @pytest.mark.parametrize("rate", [1.0, 1e-6])
    def test_classic_past_small_exponent(self, q, want, rate):
        # F (-log F)^q ~ e^(-q x) past the mass: 1/q + int_0^1 [(1 - u)
        # (-log(1 - u))^q / u - u^(q - 1)] du, in 30-digit mpmath.
        res = classic_fractional(Exponential(rate), q, past=True)
        assert not res.diverged
        assert res.value * rate == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("alpha,want", [(1.0, 10100.0), (0.5, 1602369.33296347404128)])
    def test_pareto_residual_near_tail_index_one(self, alpha, want):
        # S [Gamma(1+a) (-log S)]^(1/a) ~ x^-1.01 log(x)^(1/a): (k Gamma(1+a))^(1/a)
        # Gamma(1/a + 1) / (k - 1)^(1/a + 1) at k = 1.01.
        assert efcre(ParetoType(1.01), alpha).value == pytest.approx(want, rel=1e-10, abs=0.0)


class TestProbabilitySpaceReferences:
    @pytest.mark.parametrize("k,alpha", [(2.5, 0.3), (1.5, 0.7), (4.0, 1.0)])
    def test_pareto_residual_closed_form(self, k, alpha):
        # (k Gamma(1+a))^(1/a) Gamma(1/a + 1) / (k - 1)^(1/a + 1); at k = 2.5,
        # a = 0.3 mpmath gives 23.62877781659866.
        want = ((k * math.gamma(1.0 + alpha)) ** (1.0 / alpha) * math.gamma(1.0 / alpha + 1.0)
                / (k - 1.0) ** (1.0 / alpha + 1.0))
        assert efcre(ParetoType(k), alpha).value == pytest.approx(want, rel=1e-12, abs=0.0)
        if (k, alpha) == (2.5, 0.3):
            assert want == pytest.approx(23.62877781659866, rel=1e-14, abs=0.0)

    def test_uniform_sum_kink_split(self):
        # The quantile density of UniformSum(1, 8.046) has a slope jump at
        # p = a / (2b), which the lower half's substitution puts just inside
        # a panel end, past the outermost node; the panel is split there.
        # mpmath, in probability space with a breakpoint at the kink:
        # 2.1769210989429229.
        res = efcpe(UniformSum(1.0, 8.046), 0.3547)
        assert res.value == pytest.approx(2.1769210989429229, rel=1e-12, abs=0.0)

    def test_tail_exponent_in_x_units(self):
        # Past the mass, F [Gamma(1+a) (-log F)]^(1/a) ~ x^(-k/a).
        res = efcpe(ParetoType(0.5), 0.6)
        assert res.diverged
        assert res.diagnostics.tail_exponent == pytest.approx(-0.5 / 0.6, abs=1e-3)


# Finite measures that spent the whole 2000-split budget on the x axis,
# more than 60,000 integrand points each, and raised MaxSubdivisionsError.
# The references are 40-digit mpmath integrals: the Beta one over x with
# scipy-independent incomplete beta functions, the Frechet ones over
# t = scale x^-shape, with the past half of the paired measure from
# efcpe_closed_form's formula.
FORMER_BUDGET_BURNERS = {
    "classic_beta": (lambda: classic_fractional(Beta(3.245, 4.173), 0.064, past=True),
                     0.45035561270907849),
    "paired_frechet": (lambda: paired_phi_entropy(Frechet(2.964, 1.9e-24), 0.109),
                       0.072632119477581526),
    "efcre_frechet": (lambda: efcre(Frechet(2.078, 3.9e-17), 0.100), 18.378735644984318),
}


class TestCostGuard:
    @pytest.mark.parametrize("name", sorted(FORMER_BUDGET_BURNERS))
    def test_former_budget_burner(self, name, monkeypatch):
        run, want = FORMER_BUDGET_BURNERS[name]
        points = 0
        half = quadrature._half

        def counted_half(*args):
            f = half(*args)

            def counted(w):
                nonlocal points
                points += 1
                return f(w)

            return counted

        monkeypatch.setattr(quadrature, "_half", counted_half)
        res = run()
        assert not res.diverged
        assert abs(res.value - want) <= res.error_estimate
        assert 0 < points <= 2000
