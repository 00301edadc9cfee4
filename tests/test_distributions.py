import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracpast.distributions import (
    AffineTransformed,
    Beta,
    Degenerate,
    Distribution,
    Exponential,
    Frechet,
    LogUniform,
    ParetoType,
    PrhrTransformed,
    TriangularSum,
    Uniform,
    UniformSum,
    Weibull,
    _FACTORIES,
    affine,
    independent_sum,
    make,
    parse_spec,
    prhr,
)
from fracpast.errors import DomainError, UnsupportedError
from fracpast.multivariate import fgm_law, triangle_law
from fracpast.quadrature import _graded

# The (abs_tol, rel_tol) of the pdf-normalisation integrals: the refinement
# loop under the graded map, whose mean of the pdf times the width is the mass.
_TOL = (1e-9, 1e-8)

BOUNDED_FAMILIES = [
    Uniform(1.0),
    Uniform(3.5),
    Beta(2.0, 2.0),
    Beta(0.5, 0.5),
    LogUniform(1.0, 2.0),
    TriangularSum(),
    UniformSum(1.0, 2.0),
]

UNBOUNDED_FAMILIES = [
    Exponential(1.0),
    Exponential(0.4),
    Weibull(1.0, 5.0),
    Frechet(2.0, 1.0),
    ParetoType(2.0),
]

ALL_FAMILIES = BOUNDED_FAMILIES + UNBOUNDED_FAMILIES


def interior_grid(dist, n=50):
    qs = [(i + 0.5) / n for i in range(n)]
    return [dist.quantile(q) for q in qs]


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
class TestSharedContract:
    def test_cdf_plus_survival(self, dist):
        for x in interior_grid(dist):
            assert dist.cdf(x) + dist.survival(x) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_monotone_and_bounded(self, dist):
        grid = interior_grid(dist)
        values = [dist.cdf(x) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_quantile_round_trip(self, dist):
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_pdf_normalized(self, dist):
        # Integrate between extreme quantiles: this avoids endpoint
        # singularities (Beta(0.5, 0.5)) and infinite upper limits while
        # still pinning the mass to within the clipped tails.
        eps = 1e-5
        lo, hi = dist.quantile(eps), dist.quantile(1.0 - eps)
        mass = _graded(dist.pdf, lo, hi, _TOL)[0] * (hi - lo)
        assert mass == pytest.approx(1.0 - 2.0 * eps, abs=1e-6)

    def test_pdf_nonnegative(self, dist):
        assert all(dist.pdf(x) >= 0.0 for x in interior_grid(dist))

    def test_sampling_respects_support(self, dist):
        rng = np.random.default_rng(7)
        draws = dist.sample(200, rng)
        assert draws.shape == (200,)
        assert np.all(draws >= dist.lower - 1e-12)
        assert np.all(draws <= dist.upper + 1e-12)

    def test_sampling_is_seed_deterministic(self, dist):
        a = dist.sample(50, np.random.default_rng(123))
        b = dist.sample(50, np.random.default_rng(123))
        assert np.array_equal(a, b)


# One law per catalog family; shapes above 1 make the Weibull and Frechet
# powers overflow at the extremes.
EXTREME_PARAMS = {
    "uniform": {"scale": 1.0},
    "exponential": {"rate": 1.0},
    "frechet": {"shape": 2.0, "scale": 1.0},
    "pareto": {"k": 0.5},
    "weibull": {"scale": 1.0, "shape": 2.0},
    "loguniform": {"a": 1.0, "b": 2.0},
    "beta": {"p": 2.0, "q": 3.0},
    "triangularsum": {},
    "degenerate": {"c": 1.0},
}


def _built_in_laws():
    """One law per catalog family, both wrappers, the sum laws and the
    triangle law's marginals. LogUniform(0.3, 0.7) is a law where
    a * (b / a) is not b."""
    tri = triangle_law()
    return [make(family, **EXTREME_PARAMS[family]) for family in sorted(_FACTORIES)] + [
        LogUniform(0.3, 0.7),
        affine(Exponential(1.0), 2.0, 3.0),
        prhr(Weibull(1.0, 2.0), 0.5),
        UniformSum(1.0, 2.0),
        independent_sum(Uniform(1.0), Beta(2.0, 2.0)),
        tri.marginal_x,
        tri.marginal_y,
    ]


# The catalog laws, and the two laws outside it that give their own interior
# closed forms: the wedge marginal and the numeric convolution.
EXTREME_LAWS = {family: make(family, **kw) for family, kw in EXTREME_PARAMS.items()}
EXTREME_LAWS["wedge_second"] = triangle_law().marginal_y
EXTREME_LAWS["sum"] = independent_sum(Beta(2.0, 3.0), Uniform(0.6))


def _argument(dist, x):
    """x, or the support end or the float just beyond it that x names."""
    return {
        "lower": dist.lower,
        "upper": dist.upper,
        "below_lower": math.nextafter(dist.lower, -math.inf),
        "above_upper": math.nextafter(dist.upper, math.inf),
    }.get(x, x)


@pytest.mark.parametrize("family", sorted(EXTREME_LAWS))
@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e300, 1.7e308, -math.inf, math.inf,
                               "lower", "upper", "below_lower", "above_upper"])
def test_cdf_and_survival_at_extreme_arguments(family, x):
    dist = EXTREME_LAWS[family]
    x = _argument(dist, x)
    F, S, density = dist.cdf(x), dist.survival(x), dist.pdf(x)
    for value in (F, S):
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0
    assert math.isfinite(density)
    assert density >= 0.0
    # The support rule: exact ends at and beyond the support, no density outside it.
    if x >= dist.upper:
        assert (F, S) == (1.0, 0.0)
    elif x <= dist.lower:
        assert (F, S) == (0.0, 1.0)
    if not dist.lower <= x <= dist.upper:
        assert density == 0.0


def test_nan_argument_refused():
    # One rule for every law and wrapper: a NaN argument is refused, where
    # families used to read nan, 0.0 or 1.0, and the sum law failed to converge.
    for dist in _built_in_laws():
        for method in (dist.cdf, dist.survival, dist.pdf):
            with pytest.raises(DomainError):
                method(math.nan)


class TestSpecificValues:
    def test_frechet_unit_point(self):
        assert Frechet(1.0, 1.0).cdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14, abs=0.0)

    def test_uniform_sum_midpoint(self):
        assert UniformSum(1.0, 1.0).cdf(1.0) == pytest.approx(0.5, abs=1e-13)

    def test_sum_density_at_a_rounded_lower_end(self):
        # 0.1 + 0.2 rounds 2.8e-17 above the true lower end, so the density
        # there is that distance times f1(0.1) f2(0.2), not 0.
        X = independent_sum(LogUniform(0.1, 1.0), LogUniform(0.2, 1.0))
        gap = 2.77555756156289135e-17  # 0.30000000000000004 - (0.1 + 0.2), exactly
        want = gap / (0.1 * math.log(10.0)) / (0.2 * math.log(5.0))
        assert X.pdf(X.lower) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_triangular_sum_matches_convolution(self):
        tri = TriangularSum()
        conv = independent_sum(Uniform(1.0), Uniform(1.0))
        for x in [0.1, 0.5, 0.9, 1.0, 1.3, 1.8]:
            assert tri.cdf(x) == pytest.approx(conv.cdf(x), abs=1e-12)
            assert tri.pdf(x) == pytest.approx(conv.pdf(x), abs=1e-12)

    def test_beta_mean(self):
        assert Beta(2.0, 2.0).mean() == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_loguniform_mean(self):
        assert LogUniform(1.0, 2.0).mean() == pytest.approx(1.0 / math.log(2.0), rel=1e-12, abs=0.0)

    def test_exponential_median(self):
        want = math.log(2.0) / 2.0
        assert Exponential(2.0).quantile(0.5) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_pareto_survival(self):
        assert ParetoType(0.5).survival(3.0) == pytest.approx(0.5, rel=1e-13, abs=0.0)

    def test_weibull_scale_shape(self):
        w = Weibull(2.0, 3.0)
        assert w.cdf(2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("dist", [Weibull(2.0, 3.0), Frechet(2.5, 3.0)], ids=repr)
    def test_closed_form_mean_matches_survival_integral(self, dist):
        assert dist.mean() == pytest.approx(Distribution.mean(dist), rel=1e-12, abs=0.0)

    def test_infinite_mean_families(self):
        assert ParetoType(0.5).mean() == math.inf
        assert Frechet(0.8, 1.0).mean() == math.inf

    @pytest.mark.parametrize(
        "shape,x,want",
        # Density shape * x**(shape - 1) at scale 1; 5e-324 is 2**-1074.
        [(1.0, 1e-310, 1.0), (0.5, 5e-324, 2.0**536)],
    )
    def test_weibull_pdf_at_subnormal_x(self, shape, x, want):
        # shape / x overflows here; the density itself is a finite float.
        assert Weibull(1.0, shape).pdf(x) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_uniform_sum_where_width_products_leave_the_float_range(self):
        # 2ab underflows to 0 (was ZeroDivisionError), and x*x and ab
        # overflow (were NaN and 0.0).
        assert UniformSum(1e-200, 1e-200).cdf(5e-201) == pytest.approx(0.125, rel=1e-15, abs=0.0)
        assert UniformSum(1e-200, 1e-200).pdf(5e-201) == pytest.approx(5e199, rel=1e-15, abs=0.0)
        assert UniformSum(1e200, 1e200).cdf(1e200) == pytest.approx(0.5, rel=1e-15, abs=0.0)
        assert UniformSum(1e200, 1e200).pdf(1e200) == pytest.approx(1e-200, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("c", [1e-200, 1e-150, 1e-8, 1e8, 1e150, 1e200])
    def test_uniform_sum_scale_law(self, c):
        # F_cX(cx) = F_X(x) and c * f_cX(cx) = f_X(x), on every piece.
        ref, law = UniformSum(1.0, 3.0), UniformSum(c, 3.0 * c)
        for x in (0.25, 0.5, 1.0, 2.0, 3.5, 3.9):
            assert law.cdf(c * x) == pytest.approx(ref.cdf(x), rel=1e-14, abs=0.0)
            assert c * law.pdf(c * x) == pytest.approx(ref.pdf(x), rel=1e-14, abs=0.0)


class TestUpperTails:
    # Each law's own survival function keeps a small upper tail that
    # 1 - F rounds away. References: 50-digit mpmath at the same float x.
    def test_uniform(self):
        got = Uniform(3.0).survival(3.0 * (1.0 - 1e-14))
        assert got == pytest.approx(1.0066022089934753e-14, rel=1e-13, abs=0.0)

    def test_loguniform(self):
        got = LogUniform(1.0, 10.0).survival(10.0 - 1e-12)
        assert got == pytest.approx(4.3433309093562223e-14, rel=1e-13, abs=0.0)

    def test_beta(self):
        got = Beta(2.0, 3.0).survival(0.99999)
        assert got == pytest.approx(3.9999699999453882e-15, rel=1e-13, abs=0.0)

    def test_uniform_sum(self):
        got = UniformSum(1.0, 2.0).survival(3.0 - 1e-6)
        assert got == pytest.approx(2.5000000006988898e-13, rel=1e-13, abs=0.0)

    def test_wedge_marginal(self):
        got = triangle_law().marginal_y.survival(1.0 - 1e-7)
        assert got == pytest.approx(9.999999989472883e-15, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("dist", BOUNDED_FAMILIES + [triangle_law().marginal_y], ids=repr)
    def test_survival_at_and_past_the_support_ends(self, dist):
        for x in (dist.lower - 1.0, dist.lower):
            assert dist.survival(x) == 1.0
        for x in (dist.upper, dist.upper + 1.0):
            assert dist.survival(x) == 0.0


class TestDegenerate:
    def test_step_cdf(self):
        d = Degenerate(2.0)
        assert d.cdf(1.999) == 0.0
        assert d.cdf(2.0) == 1.0
        assert d.quantile(0.37) == 2.0
        assert d.mean() == 2.0

    def test_sampling_constant(self):
        d = Degenerate(1.5)
        assert np.all(d.sample(10, np.random.default_rng(0)) == 1.5)

    def test_rejects_negative_point(self):
        with pytest.raises(DomainError):
            Degenerate(-1.0)


class TestTransforms:
    def test_affine_cdf_law(self):
        base = Exponential(1.0)
        y = affine(base, 2.0, 3.0)
        assert isinstance(y, AffineTransformed)
        for x in (3.1, 4.0, 7.0):
            assert y.cdf(x) == pytest.approx(base.cdf((x - 3.0) / 2.0), rel=1e-13, abs=0.0)
        assert y.mean() == pytest.approx(2.0 * base.mean() + 3.0, rel=1e-12, abs=0.0)
        assert y.lower == 3.0

    def test_affine_survival_and_quantile(self):
        y = affine(Exponential(2.0), 3.0, 1.5)
        assert y.survival(4.0) == pytest.approx(math.exp(-5.0 / 3.0), rel=1e-14, abs=0.0)
        assert y.quantile(0.3) == pytest.approx(1.5 - 1.5 * math.log1p(-0.3), rel=1e-14, abs=0.0)

    def test_affine_pdf_jacobian(self):
        y = affine(Uniform(1.0), 4.0)
        assert y.pdf(2.0) == pytest.approx(0.25, rel=1e-13, abs=0.0)

    def test_affine_validation(self):
        with pytest.raises(DomainError):
            affine(Uniform(1.0), -1.0)
        with pytest.raises(DomainError):
            affine(Uniform(1.0), 1.0, -0.5)

    def test_prhr_power_law(self):
        base = Uniform(1.0)
        g = prhr(base, 3.0)
        assert isinstance(g, PrhrTransformed)
        for x in (0.2, 0.5, 0.9):
            assert g.cdf(x) == pytest.approx(base.cdf(x) ** 3.0, rel=1e-13, abs=0.0)

    def test_prhr_integer_exponent_is_max_of_copies(self):
        # F**2 is the law of max(X1, X2); check the density identity too.
        g = prhr(TriangularSum(), 2.0)
        x = 0.8
        want = 2.0 * TriangularSum().cdf(x) * TriangularSum().pdf(x)
        assert g.pdf(x) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_prhr_validation(self):
        with pytest.raises(DomainError):
            prhr(Uniform(1.0), 0.0)


class TestIndependentSum:
    def test_uniform_pair_uses_closed_form(self):
        s = independent_sum(Uniform(2.0), Uniform(3.0))
        assert isinstance(s, UniformSum)
        assert s.upper == 5.0

    def test_mixed_pair_convolves(self):
        s = independent_sum(Uniform(1.0), Beta(2.0, 2.0))
        assert s.lower == 0.0
        assert s.upper == 2.0
        assert s.cdf(0.0) == 0.0
        assert s.cdf(2.0) == 1.0
        mid = s.cdf(1.0)
        assert 0.0 < mid < 1.0
        assert _graded(s.pdf, 0.0, 2.0, _TOL)[0] * 2.0 == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    def test_convolution_matches_its_closed_form(self, c):
        # Z = U(0, c) + c B with B ~ Beta(2, 2), I(t) = I_t(2, 2) = t^2 (3 - 2t):
        # F_Z(tc) = G1(t) - G1(t - 1), G1(t) = t I_t(2, 2) - I_t(3, 2) / 2,
        # which is t^3 - t^4 / 2 on [0, 1] and t - 1/2 above, and
        # f_Z(tc) = (I(t) - I(t - 1)) / c = I(min(t, 2 - t)) / c by symmetry.
        def G1(t):
            return 0.0 if t <= 0.0 else t - 0.5 if t >= 1.0 else t ** 3 - 0.5 * t ** 4

        def I(t):
            return t * t * (3.0 - 2.0 * t)

        Z = independent_sum(Uniform(c), affine(Beta(2.0, 2.0), c))
        # Above u1 + l2 = c the row starts at x - c, and F2(x - c) enters in
        # closed form.
        for t in (0.01, 0.1, 0.37, 0.5, 0.9, 1.0, 1.1, 1.5, 1.63, 1.9, 1.99):
            assert Z.cdf(t * c) == pytest.approx(G1(t) - G1(t - 1.0), rel=0.0, abs=1e-14)
            assert Z.pdf(t * c) == pytest.approx(I(min(t, 2.0 - t)) / c, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("c", [1e-8, 1e8])
    def test_convolution_pdf_obeys_the_scale_law(self, c):
        # c f_Z(c t) is the unit-scale pdf. The pdf's row carries the support
        # width, so its tolerance means the same at every scale; with the
        # row's own width alone this read 3.5e-5 off at c = 1e8.
        unit = independent_sum(Beta(0.7, 3.014), Uniform(0.5828))
        Z = independent_sum(affine(Beta(0.7, 3.014), c), Uniform(0.5828 * c))
        for t in (0.01, 0.2, 0.5, 0.9, 1.2, 1.5):
            assert c * Z.pdf(t * c) == pytest.approx(unit.pdf(t), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("e", [1e-2, 1e-3, 1e-4])
    def test_survival_keeps_its_digits_at_the_upper_end(self, e):
        # Z = B + U, B ~ Beta(a, b), U ~ Uniform(0, c): S_Z(z) = (K(z - c) - K(z)) / c
        # with K(v) = int_v^1 S_B = (a / (a + b)) I^c_v(a + 1, b) - v I^c_v(a, b),
        # I^c the regularized upper incomplete beta function, at 30 digits.
        # Read as 1 - F, S was 2.2e-5 off at e = 1e-3 and 0 at e = 1e-5.
        mp = pytest.importorskip("mpmath")
        Z = independent_sum(Beta(2.003, 3.014), Uniform(0.5828))
        z = Z.upper - e
        with mp.workdps(30):
            a, b, c = mp.mpf(2.003), mp.mpf(3.014), mp.mpf(0.5828)

            def K(v):
                v = min(v, 1)
                return (a / (a + b) * mp.betainc(a + 1, b, v, 1, regularized=True)
                        - v * mp.betainc(a, b, v, 1, regularized=True))

            want = float((K(mp.mpf(z) - c) - K(mp.mpf(z))) / c)
        assert Z.survival(z) == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_unbounded_rejected(self):
        with pytest.raises(UnsupportedError):
            independent_sum(Uniform(1.0), Exponential(1.0))

    @pytest.mark.parametrize("mass_first", [False, True])
    def test_point_mass_summand_shifts_the_other_law(self, mass_first):
        # X + c is X shifted by c. With the mass second, the convolution row
        # integrated against its pdf, 0, and read F = 1 inside the support.
        from fracpast.entropy import efcpe

        U, c = Uniform(1.0), Degenerate(0.5)
        Z = independent_sum(c, U) if mass_first else independent_sum(U, c)
        assert [Z.cdf(x) for x in (0.75, 1.0, 1.25)] == [0.25, 0.5, 0.75]
        assert efcpe(Z, 0.5).value == efcpe(U, 0.5).value

    def test_point_mass_shifts_an_unbounded_law(self):
        # The shift needs no bounded support, so it comes before the refusal.
        Z = independent_sum(Exponential(1.0), Degenerate(2.0))
        assert Z.cdf(3.0) == Exponential(1.0).cdf(1.0)

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    def test_mean_adds_without_a_cdf(self, c, monkeypatch):
        # E[X + Y] = E[X] + E[Y]: 0.4 c + 0.5 c, with no integral of the
        # numeric CDF.
        X = independent_sum(affine(Beta(2.0, 3.0), c), Uniform(c))
        calls = []
        monkeypatch.setattr(X, "cdf", lambda x: calls.append(x))
        assert X.mean() == pytest.approx(0.9 * c, rel=1e-15, abs=0.0)
        assert calls == []


class TestMake:
    def test_by_name(self):
        d = make("uniform", scale=2.0)
        assert isinstance(d, Uniform)
        assert d.scale == 2.0

    def test_alias_names(self):
        assert make("uniform", a=2.0).scale == 2.0
        f = make("frechet", a=1.0, b=1.0)
        assert f.shape == 1.0 and f.scale == 1.0
        assert make("exponential", lam=2.0).rate == 2.0

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(DomainError):
            make("uniform", a=2.0, scale=3.0)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            make("cauchy")

    def test_bad_parameter_name(self):
        with pytest.raises(DomainError):
            make("uniform", widht=2.0)


class TestParseSpec:
    def test_primitive(self):
        d = parse_spec("uniform:scale=2")
        assert isinstance(d, Uniform) and d.scale == 2.0

    def test_primitive_with_alias(self):
        d = parse_spec("uniform:a=1")
        assert isinstance(d, Uniform) and d.scale == 1.0

    def test_bare_name(self):
        assert isinstance(parse_spec("triangularsum"), TriangularSum)

    def test_multi_parameter(self):
        d = parse_spec("beta:p=2,q=3")
        assert isinstance(d, Beta) and (d.p, d.q) == (2.0, 3.0)

    def test_affine_wrapper(self):
        d = parse_spec("affine(uniform:scale=1; scale=2, shift=3)")
        assert isinstance(d, AffineTransformed)
        assert (d.scale, d.shift) == (2.0, 3.0)

    def test_prhr_wrapper(self):
        d = parse_spec("prhr(uniform:a=1; delta=2)")
        assert isinstance(d, PrhrTransformed)
        assert d.delta == 2.0

    def test_nested_wrappers(self):
        d = parse_spec("prhr(affine(uniform:a=1; scale=2, shift=0); delta=3)")
        assert isinstance(d, PrhrTransformed)
        assert isinstance(d.base, AffineTransformed)

    def test_wrapper_requires_semicolon(self):
        with pytest.raises(DomainError):
            parse_spec("affine(uniform:a=1, scale=2)")

    def test_non_numeric_value(self):
        with pytest.raises(DomainError):
            parse_spec("uniform:scale=big")

    def test_missing_equals(self):
        with pytest.raises(DomainError):
            parse_spec("uniform:2")


class TestQuantileFallback:
    def test_bisection_agrees_with_closed_form(self):
        # The base bisection, called directly, must match the trapezoid's
        # closed-form inverse on all three pieces. The convolution sum has
        # no quantile of its own, so quantile() walks the bisection path.
        s = independent_sum(Uniform(1.0), Uniform(2.0))
        conv = independent_sum(Uniform(1.0), Beta(2.0, 2.0))
        for p in (0.1, 0.5, 0.9):
            x = s.quantile(p)
            assert s.cdf(x) == pytest.approx(p, abs=1e-8)
            assert Distribution._quantile(s, p) == pytest.approx(x, abs=1e-9)
            assert conv.cdf(conv.quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_bisection_is_relative_at_every_scale(self):
        # The bisection once stopped at an absolute width of 1e-10 below
        # |x| = 1: at c = 1e-8 this quantile was 3e-4 off, with F(q) 0.94986.
        make = lambda c: independent_sum(affine(Beta(2.0, 3.0), c), Uniform(c))
        unit = make(1.0).quantile(0.95)
        for c in (1e-8, 1.0, 1e4):
            X = make(c)
            q = X.quantile(0.95)
            assert q == pytest.approx(c * unit, rel=1e-9, abs=0.0)
            assert X.cdf(q) == pytest.approx(0.95, abs=1e-9)

    def test_wedge_marginal_closed_forms(self):
        # Second coordinate of the wedge law: F(y) = y(2 - y), f(y) = 2(1 - y).
        wedge = triangle_law().marginal_y
        for p in (0.1, 0.5, 0.9):
            want = Distribution._quantile(wedge, p)
            assert wedge.quantile(p) == pytest.approx(want, rel=1e-9, abs=0.0)
        assert wedge.pdf(0.25) == 1.5
        assert wedge.pdf(-0.1) == wedge.pdf(1.5) == 0.0

    def test_quantile_rejects_bad_probability(self):
        # The contract on every family and wrapper: p = 0 and p = 1 give the
        # support ends, and p outside [0, 1] or NaN raises DomainError.
        for dist in _built_in_laws():
            assert dist.quantile(0.0) == dist.lower, dist
            assert dist.quantile(1.0) == dist.upper, dist
            for p in (-0.5, 1.5, math.nan):
                with pytest.raises(DomainError):
                    dist.quantile(p)


class TestQuantileDensity:
    def test_every_built_in_law_but_two_has_a_closed_form(self):
        # The README names the two built-in laws with no qd; every other family,
        # wrapper and joint-law marginal runs in levels, on a qd that is 1/f(Q).
        catalog = [make(family, **EXTREME_PARAMS[family]) for family in sorted(_FACTORIES)]
        wrapped = [w for d in catalog if d.family != "degenerate"
                   for w in (affine(d, 2.0, 3.0), prhr(d, 0.5))]
        tri, fgm = triangle_law(), fgm_law(-0.5)
        laws = catalog + wrapped + [
            UniformSum(1.0, 2.0), independent_sum(Uniform(1.0), Beta(2.0, 2.0)),
            tri.marginal_x, tri.marginal_y, fgm.marginal_x, fgm.marginal_y,
        ]
        assert [d.family for d in laws if d.qd is None] == ["degenerate", "sum"]
        for d in laws:
            if d.qd is not None:
                for p in (0.1, 0.5, 0.9):
                    assert d.qd(p, 1.0 - p) * d.pdf(d.quantile(p)) == pytest.approx(
                        1.0, rel=1e-9, abs=0.0), (d, p)


@given(
    x=st.floats(-1.0, 4.0),
    scale=st.floats(0.5, 3.0),
)
def test_uniform_cdf_closed_form(x, scale):
    d = Uniform(scale)
    want = min(1.0, max(0.0, x / scale))
    assert d.cdf(x) == pytest.approx(want, abs=1e-12)


@given(p=st.floats(0.001, 0.999), rate=st.floats(0.2, 4.0))
def test_exponential_quantile_round_trip(p, rate):
    d = Exponential(rate)
    assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-12)
