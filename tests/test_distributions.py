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
from fracpast.multivariate import from_density, triangle_law
from fracpast.quadrature import integrate

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
        res = integrate(dist.pdf, dist.quantile(eps), dist.quantile(1.0 - eps))
        assert res.value == pytest.approx(1.0 - 2.0 * eps, abs=1e-6)

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


@pytest.mark.parametrize("family", sorted(_FACTORIES))
@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e300, 1.7e308])
def test_cdf_and_survival_at_extreme_arguments(family, x):
    dist = make(family, **EXTREME_PARAMS[family])
    for value in (dist.cdf(x), dist.survival(x)):
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0
    density = dist.pdf(x)
    assert math.isfinite(density)
    assert density >= 0.0


class TestSpecificValues:
    def test_frechet_unit_point(self):
        assert Frechet(1.0, 1.0).cdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_uniform_sum_midpoint(self):
        assert UniformSum(1.0, 1.0).cdf(1.0) == pytest.approx(0.5, abs=1e-13)

    def test_triangular_sum_matches_convolution(self):
        tri = TriangularSum()
        conv = independent_sum(Uniform(1.0), Uniform(1.0))
        for x in [0.1, 0.5, 0.9, 1.0, 1.3, 1.8]:
            assert tri.cdf(x) == pytest.approx(conv.cdf(x), abs=1e-12)
            assert tri.pdf(x) == pytest.approx(conv.pdf(x), abs=1e-12)

    def test_beta_mean(self):
        assert Beta(2.0, 2.0).mean() == pytest.approx(0.5, rel=1e-12)

    def test_loguniform_mean(self):
        assert LogUniform(1.0, 2.0).mean() == pytest.approx(1.0 / math.log(2.0), rel=1e-12)

    def test_exponential_median(self):
        assert Exponential(2.0).quantile(0.5) == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)

    def test_pareto_survival(self):
        assert ParetoType(0.5).survival(3.0) == pytest.approx(0.5, rel=1e-13)

    def test_weibull_scale_shape(self):
        w = Weibull(2.0, 3.0)
        assert w.cdf(2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_infinite_mean_families(self):
        assert ParetoType(0.5).mean() == math.inf
        assert Frechet(0.8, 1.0).mean() == math.inf


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
            assert y.cdf(x) == pytest.approx(base.cdf((x - 3.0) / 2.0), rel=1e-13)
        assert y.mean() == pytest.approx(2.0 * base.mean() + 3.0, rel=1e-12)
        assert y.lower == 3.0

    def test_affine_pdf_jacobian(self):
        y = affine(Uniform(1.0), 4.0)
        assert y.pdf(2.0) == pytest.approx(0.25, rel=1e-13)

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
            assert g.cdf(x) == pytest.approx(base.cdf(x) ** 3.0, rel=1e-13)

    def test_prhr_integer_exponent_is_max_of_copies(self):
        # F**2 is the law of max(X1, X2); check the density identity too.
        g = prhr(TriangularSum(), 2.0)
        x = 0.8
        want = 2.0 * TriangularSum().cdf(x) * TriangularSum().pdf(x)
        assert g.pdf(x) == pytest.approx(want, rel=1e-13)

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
        res = integrate(s.pdf, 0.0, 2.0)
        assert res.value == pytest.approx(1.0, abs=1e-5)

    def test_unbounded_rejected(self):
        with pytest.raises(UnsupportedError):
            independent_sum(Uniform(1.0), Exponential(1.0))


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

    def test_quantile_rejects_bad_probability(self):
        # The contract on every family and wrapper: p = 0 and p = 1 give the
        # support ends, and p outside [0, 1] or NaN raises DomainError.
        # LogUniform(0.3, 0.7) is a law where a * (b / a) is not b.
        tri = triangle_law()
        grid = from_density(lambda x, y: x + y, (0.0, 1.0), (0.0, 2.0), grid=16)
        laws = [make(family, **EXTREME_PARAMS[family]) for family in sorted(_FACTORIES)] + [
            LogUniform(0.3, 0.7),
            affine(Exponential(1.0), 2.0, 3.0),
            prhr(Weibull(1.0, 2.0), 0.5),
            UniformSum(1.0, 2.0),
            independent_sum(Uniform(1.0), Beta(2.0, 2.0)),
            tri.marginal_x,
            tri.marginal_y,
            grid.marginal_x,
        ]
        for dist in laws:
            assert dist.quantile(0.0) == dist.lower, dist
            assert dist.quantile(1.0) == dist.upper, dist
            for p in (-0.5, 1.5, math.nan):
                with pytest.raises(DomainError):
                    dist.quantile(p)


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
