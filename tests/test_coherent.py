import math

import pytest

from fracpast.coherent import (
    DistortionFunction,
    compare_systems,
    component_comparison,
    custom,
    density_bounds,
    distortion,
    identity_distortion,
    k_out_of_n,
    omega_bounds,
    parallel,
    parallel_uniform_closed_form,
    phi_alpha,
    sandwich_check,
    series_system,
    system_efcpe,
    two_out_of_four,
)
from fracpast.distributions import (
    _FACTORIES,
    Beta,
    Distribution,
    Exponential,
    Frechet,
    LogUniform,
    ParetoType,
    Uniform,
    affine,
    make,
    prhr,
)
from fracpast.entropy import efcpe
from fracpast.errors import DomainError

UNIFORM_PAST = {0.3: 0.320312119422, 0.5: 0.196349540849, 0.7: 0.205049744261}


# The four distortion kinds with a closed-form complement.
KINDS = {"p2": parallel(2), "s3": series_system(3), "k24": k_out_of_n(2, 4),
         "q24": two_out_of_four()}

# One law per catalog family, plus the two wrappers.
FAMILY_PARAMS = {
    "uniform": {"scale": 2.0},
    "exponential": {"rate": 1.5},
    "frechet": {"shape": 2.0, "scale": 1.0},
    "pareto": {"k": 2.0},
    "weibull": {"scale": 1.0, "shape": 0.8},
    "loguniform": {"a": 1.0, "b": 2.0},
    "beta": {"p": 2.0, "q": 3.0},
    "triangularsum": {},
    "degenerate": {"c": 1.0},
}
IDENTITY_LAWS = {name: make(name, **kw) for name, kw in FAMILY_PARAMS.items()}
IDENTITY_LAWS["affine"] = affine(Beta(2.0, 3.0), 3.0, 1.0)
IDENTITY_LAWS["prhr"] = prhr(Exponential(1.0), 0.4)


class _FlatSpot(Distribution):
    """Uniform CDF whose reported density vanishes on [0.4, 0.6], with no
    quantile density, so its measures run on the x axis, where f is not used.
    """

    family = "flat_spot"

    def __init__(self):
        super().__init__()
        self.params = {}
        self.lower, self.upper = 0.0, 1.0

    def cdf(self, x):
        return min(1.0, max(0.0, x))

    def pdf(self, x):
        if 0.4 <= x <= 0.6:
            return 0.0
        return 1.0 if 0.0 <= x <= 1.0 else 0.0


class TestDistortionShapes:
    def test_parallel_pointwise(self):
        q = parallel(2)
        assert q(0.5) == 0.25
        assert q(0.0) == 0.0
        assert q(1.0) == 1.0

    def test_series_pointwise(self):
        q = series_system(3)
        assert q(0.5) == pytest.approx(0.875, rel=1e-6, abs=0.0)
        assert q(0.0) == 0.0
        assert q(1.0) == 1.0

    def test_k_out_of_n_pointwise(self):
        q = k_out_of_n(2, 4)
        # Fails at the third component failure: 4u^3 - 3u^4.
        assert q(0.5) == pytest.approx(0.3125, rel=1e-13, abs=0.0)
        for u in (0.1, 0.4, 0.9):
            assert q(u) == pytest.approx(4.0 * u**3 - 3.0 * u**4, rel=1e-12, abs=0.0)

    def test_two_out_of_four_pointwise(self):
        q = two_out_of_four()
        assert q(0.5) == pytest.approx(0.125, rel=1e-13, abs=0.0)
        for u in (0.2, 0.6, 0.9):
            assert q(u) == pytest.approx(3.0 * u**2 - 8.0 * u**3 + 6.0 * u**4, rel=1e-12, abs=0.0)

    def test_two_out_of_four_is_monotone_distortion(self):
        q = two_out_of_four()
        grid = [i / 200.0 for i in range(201)]
        values = [q(u) for u in grid]
        assert values[0] == 0.0 and values[-1] == pytest.approx(1.0, rel=1e-6, abs=0.0)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_two_out_of_four_differs_from_binomial_form(self):
        # The quartic is NOT the 2-of-4 binomial distortion; they disagree
        # by 0.1875 at the midpoint.
        gap = abs(two_out_of_four()(0.5) - k_out_of_n(2, 4)(0.5))
        assert gap == pytest.approx(0.1875, rel=1e-6, abs=0.0)

    def test_two_out_of_four_is_transposed_order_statistic(self):
        # Reversing the coefficients of the 3-of-4 binomial distortion
        # B(u) = 6u^2 - 8u^3 + 3u^4 gives exactly this quartic:
        # P(u) = u^6 B(1/u) as polynomials.
        P = two_out_of_four()
        B = k_out_of_n(3, 4)
        for u in (0.2, 0.35, 0.5, 0.8, 0.95):
            assert P(u) == pytest.approx(u**6 * B(1.0 / u), rel=1e-10, abs=0.0)

    def test_counts_validated(self):
        with pytest.raises(DomainError):
            parallel(0)
        with pytest.raises(DomainError):
            series_system(-1)
        with pytest.raises(DomainError):
            k_out_of_n(5, 4)
        with pytest.raises(DomainError):
            k_out_of_n(0, 4)

    # Each side of the pair is exact where it is small: at u = 1e-30 the
    # value, at u = 1 - 1e-30 (the pair (1, 1e-30)) the complement.
    @pytest.mark.parametrize("q,v,w", [(parallel(2), 1e-60, 2e-30),
                                       (series_system(3), 3e-30, 1e-90),
                                       (k_out_of_n(2, 4), 4e-90, 6e-60),
                                       (k_out_of_n(4, 4), 4e-30, 1e-120),
                                       (two_out_of_four(), 3e-60, 6e-30),
                                       (identity_distortion(), 1e-30, 1e-30)],
                             ids=["p2", "s3", "k24", "k44", "q24", "id"])
    def test_both_sides_exact_at_the_ends(self, q, v, w):
        low, high = q.pair(1e-30, 1.0), q.pair(1.0, 1e-30)
        assert low[0] == pytest.approx(v, rel=1e-12, abs=0.0) and low[1] == 1.0
        assert high[0] == 1.0 and high[1] == pytest.approx(w, rel=1e-12, abs=0.0)

    def test_dispatch_constructor(self):
        assert distortion("parallel", n=2)(0.5) == 0.25
        assert distortion("series", n=2)(0.5) == 0.75
        assert distortion("koutofn", k=2, n=4)(0.5) == pytest.approx(0.3125, rel=1e-6, abs=0.0)
        assert distortion("twooutoffour")(0.5) == pytest.approx(0.125, rel=1e-6, abs=0.0)
        assert distortion("identity")(0.3) == 0.3
        with pytest.raises(DomainError):
            distortion("bridge")


class TestKernel:
    def test_endpoints_are_zero(self):
        assert phi_alpha(0.0, 0.5) == 0.0
        assert phi_alpha(1.0, 0.5) == 0.0

    def test_interior_positive(self):
        for u in (0.1, 0.5, 0.9):
            assert phi_alpha(u, 0.5) > 0.0

    def test_order_one_form(self):
        assert phi_alpha(0.5, 1.0) == pytest.approx(0.5 * math.log(2.0), rel=1e-13, abs=0.0)

    def test_argument_validated(self):
        with pytest.raises(DomainError):
            phi_alpha(1.2, 0.5)
        with pytest.raises(DomainError):
            phi_alpha(math.nan, 0.5)


class TestSystemMeasure:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_identity_recovers_component(self, alpha):
        got = system_efcpe(identity_distortion(), Uniform(1.0), alpha).value
        assert got == pytest.approx(UNIFORM_PAST[alpha], rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_parallel_uniform_closed_form(self, n, alpha):
        got = system_efcpe(parallel(n), Uniform(1.0), alpha).value
        assert got == pytest.approx(parallel_uniform_closed_form(n, alpha), rel=1e-7, abs=0.0)

    def test_parallel_on_rescaled_component(self):
        got = system_efcpe(parallel(2), Uniform(2.0), 0.5).value
        assert got == pytest.approx(2.0 * parallel_uniform_closed_form(2, 0.5), rel=1e-7, abs=0.0)

    def test_flat_spot_runs_on_the_x_axis(self):
        # No quantile density: int phi(q(F(x))) dx on the x axis never reads f.
        got = system_efcpe(parallel(2), _FlatSpot(), 0.5).value
        assert got == pytest.approx(parallel_uniform_closed_form(2, 0.5), rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("q", KINDS.values(), ids=KINDS.keys())
    @pytest.mark.parametrize("X", [Uniform(1.0), Exponential(1.0), Frechet(2.0, 1.0),
                                   ParetoType(1.5)], ids=["unif", "exp", "frechet", "pareto"])
    def test_scale_law_and_density_bounds(self, q, X):
        unit = system_efcpe(q, X, 0.5).value
        lower, _ = density_bounds(q, X, 0.5, M=10.0)
        for c in (1e-8, 1.0, 1e8):
            got = system_efcpe(q, affine(X, c), 0.5).value
            assert got == pytest.approx(c * unit, rel=1e-12, abs=0.0)
            got, _ = density_bounds(q, affine(X, c), 0.5, M=10.0 / c)
            assert got == pytest.approx(c * lower, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    @pytest.mark.parametrize("name", sorted(IDENTITY_LAWS))
    def test_identity_is_efcpe_bit_for_bit(self, name, alpha):
        X = IDENTITY_LAWS[name]
        system, component = system_efcpe(identity_distortion(), X, alpha), efcpe(X, alpha)
        assert system.value == component.value
        assert system.error_estimate == component.error_estimate

    def test_identity_laws_cover_the_catalog(self):
        assert set(FAMILY_PARAMS) == set(_FACTORIES)

    # 40-digit mpmath integrals over the survival level s = (1 + x)^-k.
    @pytest.mark.parametrize("n,k,alpha,want", [(3, 0.4, 1.0, 4.52947104284029159),
                                                (2, 0.6, 0.9, 2.48440621916297412)])
    def test_heavy_tailed_series(self, n, k, alpha, want):
        res = system_efcpe(series_system(n), ParetoType(k), alpha)
        assert not res.diverged
        assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_divergent_system_reports_a_verdict(self):
        res = system_efcpe(parallel(2), ParetoType(0.5), 0.5)
        assert res.diverged
        assert math.isnan(res.value)

    def test_closed_form_count_validated(self):
        with pytest.raises(DomainError):
            parallel_uniform_closed_form(0, 0.5)


class TestOmegaBounds:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(0.3, 2.0 ** (1.0 / 0.3)), (0.5, 4.0), (0.7, 2.0 ** (1.0 / 0.7))],
    )
    def test_parallel_pair_supremum(self, alpha, expected):
        w1, w2 = omega_bounds(parallel(2), alpha)
        assert w2 == pytest.approx(expected, rel=1e-3, abs=0.0)
        assert 0.0 <= w1 < 1e-2

    def test_small_order_supremum(self):
        # At alpha = 0.1 the supremum 2**10 = 1024 is reached only in the
        # u -> 1 limit; the grid value may overshoot by float rounding.
        _, w2 = omega_bounds(parallel(2), 0.1)
        assert w2 == pytest.approx(1024.0, rel=1e-4, abs=0.0)

    # The suprema are the end limits 3 (q/u at u -> 0) and 6**(1/a) (from
    # (1 - q)/(1 - u) at u -> 1), 30-digit mpmath for the second.
    @pytest.mark.parametrize("q,alpha,want", [(series_system(3), 0.4, 3.0),
                                              (two_out_of_four(), 0.55, 25.99084834959287699)],
                             ids=["s3", "q24"])
    def test_supremum_at_an_end_limit(self, q, alpha, want):
        assert omega_bounds(q, alpha)[1] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q", [parallel(2), series_system(3)], ids=["p2", "s3"])
    def test_supremum_bounds_kernel_pointwise(self, q):
        _, w2 = omega_bounds(q, 0.5)
        for i in range(1, 400):
            u = i / 400.0
            assert phi_alpha(q(u), 0.5) <= w2 * phi_alpha(u, 0.5) + 1e-9


class TestSandwich:
    def test_parallel_uniform_frozen(self):
        rep = sandwich_check(parallel(2), Uniform(1.0), 0.5)
        assert rep.system == pytest.approx(0.23271057, abs=5e-7)
        assert rep.upper == pytest.approx(0.7853982, abs=5e-6)
        assert rep.omega2 == pytest.approx(4.0, rel=1e-9, abs=0.0)
        assert rep.holds

    @pytest.mark.parametrize(
        "q", [parallel(2), series_system(3), k_out_of_n(2, 4)], ids=["p2", "s3", "k24"]
    )
    @pytest.mark.parametrize("X", [Uniform(1.0), Beta(2.0, 2.0)], ids=["unif", "beta"])
    def test_holds_across_catalog(self, q, X):
        assert sandwich_check(q, X, 0.5).holds

    def test_divergent_component_rejected(self):
        with pytest.raises(DomainError):
            sandwich_check(parallel(2), ParetoType(0.5), 0.5)


class TestDensityBounds:
    def test_upper_density_envelope_gives_lower_bound(self):
        lower, upper = density_bounds(parallel(2), ParetoType(2.0), 0.5, M=2.0)
        assert upper is None
        assert lower == pytest.approx(0.11635528, abs=5e-7)
        system = system_efcpe(parallel(2), ParetoType(2.0), 0.5).value
        assert system == pytest.approx(0.39531595, abs=5e-7)
        assert lower <= system

    def test_lower_density_envelope_gives_upper_bound(self):
        L = 1.0 / (2.0 * math.log(2.0))
        lower, upper = density_bounds(parallel(2), LogUniform(1.0, 2.0), 0.5, L=L)
        assert lower is None
        assert upper == pytest.approx(0.3226053467, abs=5e-8)
        system = system_efcpe(parallel(2), LogUniform(1.0, 2.0), 0.5).value
        assert system == pytest.approx(0.2180944375, abs=5e-8)
        assert system <= upper

    def test_both_sides_together(self):
        lower, upper = density_bounds(parallel(2), Uniform(1.0), 0.5, M=1.0, L=1.0)
        assert lower == pytest.approx(upper, rel=1e-6, abs=0.0)
        assert lower == pytest.approx(parallel_uniform_closed_form(2, 0.5), rel=1e-7, abs=0.0)

    def test_at_least_one_side_required(self):
        with pytest.raises(DomainError):
            density_bounds(parallel(2), Uniform(1.0), 0.5)

    def test_positive_lower_envelope_required(self):
        with pytest.raises(DomainError):
            density_bounds(parallel(2), Uniform(1.0), 0.5, L=0.0)

    def test_envelope_sanity_probes(self):
        # M below the actual density or L above it is caught immediately.
        with pytest.raises(DomainError):
            density_bounds(parallel(2), Uniform(1.0), 0.5, M=0.5)
        with pytest.raises(DomainError):
            density_bounds(parallel(2), Uniform(1.0), 0.5, L=2.0)

    def test_envelope_checked_over_every_level(self):
        # Beta(5, 2)'s density is 0 at both ends, so no L > 0 bounds it from
        # below: a bound just under its least value at the levels 0.25, 0.5
        # and 0.75 would give an "upper bound" of 0.0764 under a system
        # measure of 0.393.
        X = Beta(5.0, 2.0)
        L = 0.999 * min(X.pdf(X.quantile(v)) for v in (0.25, 0.5, 0.75))
        with pytest.raises(DomainError, match="infimum"):
            density_bounds(series_system(3), X, 0.3, L=L)
        # Beta(2, 5) peaks at 30 * 0.2 * 0.8**4 = 2.4576, between those levels.
        with pytest.raises(DomainError, match="supremum"):
            density_bounds(parallel(2), Beta(2.0, 5.0), 0.5, M=2.42)
        lower, _ = density_bounds(parallel(2), Beta(2.0, 5.0), 0.5, M=2.4576)
        assert lower <= system_efcpe(parallel(2), Beta(2.0, 5.0), 0.5).value

    def test_zero_density_of_a_law_without_quantile_density(self):
        # 1/pdf(quantile(v)) stands in for qd; the density's 0 on [0.4, 0.6]
        # reads 0, where the level 0.5 once skipped it.
        lower, _ = density_bounds(parallel(2), _FlatSpot(), 0.5, M=1.0)
        assert lower == pytest.approx(parallel_uniform_closed_form(2, 0.5), rel=1e-7, abs=0.0)
        with pytest.raises(DomainError, match="infimum 0.0"):
            density_bounds(parallel(2), _FlatSpot(), 0.5, L=0.5)

    def test_unbounded_density_certifies_no_upper_envelope(self):
        # Beta(1/2, 1/2)'s density is infinite at both ends; it reads 3.3e59
        # at 2^-200 from an end, and is still rising there.
        with pytest.raises(DomainError, match="end limit"):
            density_bounds(parallel(2), Beta(0.5, 0.5), 0.5, M=1e300)


class TestComparisons:
    def test_cross_system_bounds_hold(self):
        rep = compare_systems(parallel(2), series_system(2), Uniform(1.0), 0.5)
        assert rep.lower_holds and rep.upper_holds
        assert rep.inf_ratio <= rep.value_second / rep.value_first <= rep.sup_ratio

    def test_parallel_pair_beats_series_pair_on_uniform(self):
        rep = compare_systems(parallel(2), series_system(2), Uniform(1.0), 0.5)
        assert rep.value_second < rep.value_first

    def test_component_comparison_identity(self):
        rep = component_comparison(identity_distortion(), Uniform(1.0), 0.5)
        assert rep.direction == "ge"
        assert rep.consistent
        assert rep.system == pytest.approx(rep.component, rel=1e-6, abs=0.0)

    def test_component_comparison_parallel_inconclusive(self):
        # phi(u^2) crosses phi(u) inside (0, 1), so no uniform ordering
        # claim is available for the parallel pair at order one half.
        rep = component_comparison(parallel(2), Uniform(1.0), 0.5)
        assert rep.direction == "inconclusive"
        assert rep.consistent
        assert rep.system == pytest.approx(0.23271057, abs=5e-7)
        assert rep.component == pytest.approx(0.19634954, abs=5e-7)

    @pytest.mark.parametrize("q", [parallel(2), series_system(3), k_out_of_n(2, 4)],
                             ids=["p2", "s3", "k24"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_cross_ratio_against_identity_is_omega(self, q, alpha):
        # Against the component itself the cross-ratio is the omega ratio,
        # refined the same way.
        rep = compare_systems(identity_distortion(), q, Uniform(1.0), alpha)
        assert (rep.inf_ratio, rep.sup_ratio) == omega_bounds(q, alpha)

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    @pytest.mark.parametrize("X", [Uniform(1.0), Beta(2.0, 3.0)], ids=["unif", "beta"])
    @pytest.mark.parametrize("sign,direction", [(1.0, "ge"), (-1.0, "le")])
    def test_component_comparison_one_sided(self, alpha, X, sign, direction):
        # A distortion that moves every level toward the kernel's mode
        # m = exp(-1/a) raises the unimodal kernel pointwise; one that moves
        # away lowers it.
        m = math.exp(-1.0 / alpha)
        q = custom(lambda u: u + sign * 0.5 * (m - u) * u * (1.0 - u))
        rep = component_comparison(q, X, alpha)
        assert rep.direction == direction
        assert rep.consistent
        if direction == "ge":
            assert rep.system > rep.component
        else:
            assert rep.system < rep.component

    def test_custom_distortion_round_trip(self):
        q = custom(lambda u: u**1.5, "three-halves")
        assert isinstance(q, DistortionFunction)
        got = system_efcpe(q, Uniform(1.0), 0.5).value
        assert math.isfinite(got) and got > 0.0
