import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracpast.distributions import (
    Beta,
    Degenerate,
    Exponential,
    Frechet,
    ParetoType,
    TriangularSum,
    Uniform,
    UniformSum,
    Weibull,
    affine,
    prhr,
)
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
from fracpast.errors import DivergedError, DomainError, MaxSubdivisionsError
from fracpast.fraclog import LogMode, log_kernel
from fracpast.quadrature import QuadConfig, integrate

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
        assert efcpe_closed_form(Uniform(1.0), alpha) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_uniform_quadrature_matches_closed_form(self, alpha):
        got = efcpe(Uniform(1.0), alpha).value
        assert got == pytest.approx(efcpe_closed_form(Uniform(1.0), alpha), rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_frechet_quadrature_matches_closed_form(self, alpha):
        X = Frechet(2.0, 1.0)
        got = efcpe(X, alpha).value
        assert got == pytest.approx(efcpe_closed_form(X, alpha), rel=1e-6)

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
        assert efcpe(Weibull(1.0, 5.0), alpha).value == pytest.approx(expected, rel=1e-6)

    def test_degenerate_is_zero(self):
        res = efcpe(Degenerate(3.0), 0.5)
        assert res.value == 0.0
        assert not res.diverged

    def test_heavy_tail_divergence_flagged(self):
        res = efcpe(ParetoType(0.5), 0.5)
        assert res.diverged
        assert math.isnan(res.value)
        assert res.diagnostics.tail_exponent == pytest.approx(-0.938, abs=0.05)

    def test_heavy_tail_converges_at_smaller_order(self):
        res = efcpe(ParetoType(0.5), 0.4)
        assert not res.diverged
        assert math.isfinite(res.value)

    def test_scale_equivariance_frozen(self):
        assert efcpe(Uniform(2.0), 0.5).value == pytest.approx(
            2.0 * UNIFORM_REFERENCE[0.5], rel=1e-7
        )


class TestExactMode:
    def test_exact_dominates_approx(self):
        cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-6, max_subdivisions=400)
        exact = efcpe(Uniform(1.0), 0.75, LogMode.EXACT, cfg).value
        approx = efcpe(Uniform(1.0), 0.75, LogMode.APPROX).value
        assert exact >= approx

    def test_exact_runaway_at_small_order(self):
        # For orders at or below one half the exact-mode integrand behaves
        # like F**(1 - 1/alpha) near the lower endpoint, which is not
        # integrable; the adaptive rule must give up rather than return a
        # quietly wrong number.
        cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-6, max_subdivisions=400)
        with pytest.raises(MaxSubdivisionsError):
            efcpe(Uniform(1.0), 0.4, LogMode.EXACT, cfg)


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
        assert modified_efcpe(Uniform(1.0), alpha).value == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_scales_the_first_power_integral(self, alpha):
        X = Beta(2.0, 2.0)
        base = classic_fractional(X, 1.0, past=True).value
        want = math.gamma(1.0 + alpha) * base
        assert modified_efcpe(X, alpha).value == pytest.approx(want, rel=1e-8)

    def test_exponential_order_one(self):
        # CE of the unit exponential is pi^2/6 - 1.
        want = math.pi**2 / 6.0 - 1.0
        assert modified_efcpe(Exponential(1.0), 1.0).value == pytest.approx(want, rel=1e-7)


class TestClassicFractional:
    def test_zero_exponent_residual_is_mean(self):
        assert classic_fractional(Uniform(1.0), 0.0).value == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 1.0])
    def test_uniform_past_closed_form(self, q):
        want = math.gamma(q + 1.0) / 2.0 ** (q + 1.0)
        got = classic_fractional(Uniform(1.0), q, past=True).value
        assert got == pytest.approx(want, rel=1e-8)

    def test_exponent_validation(self):
        with pytest.raises(DomainError):
            classic_fractional(Uniform(1.0), 1.5)
        with pytest.raises(DomainError):
            classic_fractional(Uniform(1.0), -0.1)

    def test_weibull_cumulative_entropy(self):
        got = classic_fractional(Weibull(1.0, 5.0), 1.0, past=True).value
        assert got == pytest.approx(WEIBULL_15_CE, rel=1e-6)


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
        assert paired_phi_entropy(X, alpha).value == pytest.approx(want, rel=1e-10)

    def test_exponential_sides_differ(self):
        past = efcpe(Exponential(1.0), 0.5).value
        residual = efcre(Exponential(1.0), 0.5).value
        assert abs(past - residual) > 1e-3


class TestDynamicMeasure:
    def test_frozen_uniform_value(self):
        got = dynamic_efcpe(Uniform(1.0), 0.5, 0.5).value
        assert got == pytest.approx(0.09817477042475062, rel=1e-8)

    def test_uniform_truncation_is_rescaling(self):
        # Conditioning U(0, 1) on X <= t gives U(0, t); the dynamic measure
        # must therefore equal t times the full one.
        for t in (0.25, 0.5, 0.8):
            got = dynamic_efcpe(Uniform(1.0), 0.5, t).value
            assert got == pytest.approx(t * UNIFORM_REFERENCE[0.5], rel=1e-7)

    def test_limit_at_upper_support_is_full_measure(self):
        for X in (Uniform(1.0), Beta(2.0, 2.0)):
            full = efcpe(X, 0.5).value
            assert dynamic_efcpe(X, 0.5, X.upper).value == pytest.approx(full, rel=1e-8)

    def test_limit_is_approached_monotonically(self):
        X = Beta(2.0, 2.0)
        grid = [0.9, 0.925, 0.95, 0.975, 1.0]
        values = [dynamic_efcpe(X, 0.5, t).value for t in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_needs_positive_cdf(self):
        with pytest.raises(DomainError):
            dynamic_efcpe(Uniform(1.0), 0.5, -0.1)

    @pytest.mark.parametrize("scale,shift", [(0.5, 0.0), (2.0, 3.0), (7.0, 0.0)])
    def test_affine_law(self, scale, shift):
        X = Beta(2.0, 2.0)
        Y = affine(X, scale, shift)
        t = 0.7
        lhs = dynamic_efcpe(Y, 0.5, scale * t + shift).value
        rhs = scale * dynamic_efcpe(X, 0.5, t).value
        assert lhs == pytest.approx(rhs, rel=1e-7)

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

        dual = integrate(residual_integrand, s, a).value
        got = dynamic_efcpe(X, alpha, t).value
        assert got == pytest.approx(dual, rel=1e-7)


class TestDynamicDecomposition:
    def test_frozen_split(self):
        integral, boundary = dynamic_decomposition(Uniform(1.0), 0.5, 0.5)
        assert integral == pytest.approx(0.19251149910728163, rel=1e-8)
        assert boundary == pytest.approx(-0.09433672868253101, rel=1e-8)

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
        assert mean_inactivity_time(Uniform(1.0), 0.6) == pytest.approx(0.3, rel=1e-9)


class TestTailFunctionals:
    def test_tau_frozen_value(self):
        assert tau_alpha(Uniform(1.0), 0.5, 0.5) == pytest.approx(0.05232818, abs=1e-7)

    def test_tau_expectation_recovers_past_measure(self):
        X = Uniform(1.0)
        res = integrate(
            lambda t: tau_alpha(X, 0.5, t),
            0.0,
            1.0,
            QuadConfig(abs_tol=1e-8, rel_tol=1e-7),
        )
        assert res.value == pytest.approx(UNIFORM_REFERENCE[0.5], rel=1e-5)

    def test_tau_vanishes_beyond_support(self):
        assert tau_alpha(Uniform(1.0), 0.5, 1.0) == 0.0
        assert tau_alpha(Uniform(1.0), 0.5, 2.0) == 0.0

    def test_tau_heavy_tail_diverges(self):
        with pytest.raises(DivergedError):
            tau_alpha(ParetoType(0.5), 0.5, 1.0)

    def test_w_frozen_closed_form(self):
        # For U(0, 1): W_a(t) = Gamma(1 + a) * ((1 - t) + t * log t).
        got = W_alpha(Uniform(1.0), 0.5, 0.5)
        assert got == pytest.approx(0.135970615369435, rel=1e-9)

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
        assert gini(dist) == pytest.approx(expected, rel=1e-7)

    def test_infinite_mean_rejected(self):
        with pytest.raises(DomainError):
            gini(ParetoType(0.5))

    def test_degenerate_is_zero(self):
        assert gini(Degenerate(2.0)) == 0.0

    def test_lower_bound_frozen(self):
        bound, holds = gini_lower_bound_check(Uniform(1.0), 0.5)
        assert bound == pytest.approx(0.1477044875754596, rel=1e-9)
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
        assert got == pytest.approx(want, rel=1e-7)

    @given(
        scale=st.floats(0.5, 7.0),
        shift=st.floats(0.0, 3.0),
        alpha=st.sampled_from([0.4, 0.6, 0.9]),
    )
    def test_scale_shift_law_random(self, scale, shift, alpha):
        X = Uniform(1.0)
        want = scale * efcpe(X, alpha).value
        got = efcpe(affine(X, scale, shift), alpha).value
        assert got == pytest.approx(want, rel=1e-7)

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
        assert efcpe(UniformSum(1.0, 1.0), 0.2).value == pytest.approx(4.8615646, rel=1e-6)
        assert efcpe(UniformSum(1.0, 1.0), 0.5).value == pytest.approx(0.33874448, rel=1e-6)


class TestResultRecord:
    def test_regular_record(self):
        X = Uniform(2.0)
        rec = efcpe(X, 0.5).record(X)
        assert rec["measure"] == "efcpe"
        assert rec["alpha"] == 0.5
        assert rec["mode"] == "approx"
        assert rec["diverged"] is False
        assert rec["value"] == pytest.approx(2.0 * UNIFORM_REFERENCE[0.5], rel=1e-7)
        assert rec["family"] == "uniform"
        assert rec["params"] == {"scale": 2.0}
        assert "tail_exponent" not in rec

    def test_diverged_record(self):
        rec = efcpe(ParetoType(0.5), 0.5).record()
        assert rec["value"] is None
        assert rec["diverged"] is True
        assert rec["tail_exponent"] == pytest.approx(-0.938, abs=0.05)
        assert "family" not in rec


# Every univariate measure shares one integrand path; each case is
# (measure, tag, fitted tail exponent on ParetoType(0.5)).
SHARED_CONTRACT_CASES = {
    "efcpe": (lambda X: efcpe(X, 0.6), "efcpe", -0.764),
    "efcre": (lambda X: efcre(X, 0.6), "efcre", -0.049),
    "modified_efcpe": (lambda X: modified_efcpe(X, 0.6), "modified_efcpe", -0.417),
    "classic_past": (lambda X: classic_fractional(X, 0.5, past=True), "classic_fractional", -0.156),
    "classic_residual": (lambda X: classic_fractional(X, 0.5), "classic_fractional", -0.346),
    "paired_phi_entropy": (lambda X: paired_phi_entropy(X, 0.6), "paired_phi", -0.049),
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
