import math

import pytest
from scipy import integrate

from fracpast.distributions import Beta, Degenerate, Distribution, Exponential, Uniform, affine
from fracpast.entropy import _phi, efcpe
from fracpast.errors import DomainError, MaxSubdivisionsError
from fracpast.fraclog import as_order
from fracpast.multivariate import (
    BivariateLaw,
    bivariate_efcpe,
    conditional_efcpe,
    decomposition_theorem_check,
    fcpmi,
    fgm_law,
    iid_n_efcpe,
    independence_decomposition,
    independent_law,
    modified_bivariate_efcpe,
    triangle_law,
)

UNIFORM_PAST = 0.196349540849

# Reference expectation values for the wedge density (2 on 0 < y < x < 1),
# frozen from an independent high-precision evaluation.
TRIANGLE_BIVARIATE = {0.5: 0.23271057, 0.7: 0.20618254, 1.0: 2.0 / 9.0}
TRIANGLE_MODIFIED = {0.5: 0.20142544, 1.0: 0.22728427}
TRIANGLE_MUTUAL_AT_ONE = -0.03283983
FGM_MUTUAL = {0.5: 0.00135745, 1.0: 0.01296186}


class _WedgeFirst(Distribution):
    """CDF x(2 - x) on [0, 1]: the first coordinate of the mirrored wedge."""

    family = "wedge_first"

    def __init__(self):
        super().__init__()
        self.params = {}
        self.lower, self.upper = 0.0, 1.0

    def _cdf(self, x):
        return x * (2.0 - x)

    def _pdf(self, x):
        return 2.0 * (1.0 - x)


class _SquaredSecond(Distribution):
    """CDF y**2 on [0, 1]: the second coordinate of the mirrored wedge."""

    family = "squared_second"

    def __init__(self):
        super().__init__()
        self.params = {}
        self.lower, self.upper = 0.0, 1.0

    def _cdf(self, y):
        return y * y

    def _pdf(self, y):
        return 2.0 * y


def mirrored_triangle_law() -> BivariateLaw:
    """Density 2 on 0 < x < y < 1: the coordinate swap of triangle_law."""

    def joint(x, y):
        x = min(max(x, 0.0), 1.0)
        y = min(max(y, 0.0), 1.0)
        if x > y:
            return y * y
        return 2.0 * x * y - x * x

    def conditional(y, x):
        if not 0.0 <= x < 1.0:
            raise DomainError(f"conditioning point {x} outside [0, 1)")
        if y <= x:
            return 0.0
        return min(1.0, (y - x) / (1.0 - x))

    return BivariateLaw(
        joint_cdf=joint,
        marginal_x=_WedgeFirst(),
        marginal_y=_SquaredSecond(),
        conditional_cdf_y_given_x=conditional,
        label="mirrored-triangle",
        y_kinks=lambda x: (x,),
    )


def scaled_triangle_law(c: float) -> BivariateLaw:
    """triangle_law with both coordinates scaled by c: density 2/c**2 on 0 < y < x < c."""
    tri = triangle_law()
    return BivariateLaw(
        joint_cdf=lambda x, y: tri.joint_cdf(x / c, y / c),
        marginal_x=affine(tri.marginal_x, c, 0.0),
        marginal_y=affine(tri.marginal_y, c, 0.0),
        conditional_cdf_y_given_x=lambda y, x: tri.conditional_cdf_y_given_x(y / c, x / c),
        label=f"triangle*{c}",
        y_kinks=lambda x: (x,),
    )


def _ripple(u: float) -> float:
    """sin(pi u) cos(21 pi u) / (44 pi): zero at every midpoint (i + 1/2) / 21."""
    return math.sin(math.pi * u) * math.cos(21.0 * math.pi * u) / (44.0 * math.pi)


def _ripple_slope(u: float) -> float:
    return (math.cos(math.pi * u) * math.cos(21.0 * math.pi * u)
            - 21.0 * math.sin(math.pi * u) * math.sin(21.0 * math.pi * u)) / 44.0


def ripple_copula_law() -> BivariateLaw:
    """Copula C(u, v) = uv + r(u) r(v), r = _ripple, with density
    1 + r'(u) r'(v) > 0.77. C > uv on the diagonal, but C = uv wherever
    either coordinate is a midpoint of a 21-cell grid."""

    def joint(x: float, y: float) -> float:
        u, v = min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)
        return u * v + _ripple(u) * _ripple(v)

    def conditional(y: float, x: float) -> float:
        v = min(max(y, 0.0), 1.0)
        return v + _ripple_slope(x) * _ripple(v)

    return BivariateLaw(joint, Uniform(1.0), Uniform(1.0), conditional, label="ripple")


class TestTriangleLaw:
    def test_marginals(self):
        tri = triangle_law()
        for u in (0.2, 0.5, 0.9):
            assert tri.marginal_x.cdf(u) == pytest.approx(u * u, rel=1e-13, abs=0.0)
            assert tri.marginal_y.cdf(u) == pytest.approx(2.0 * u - u * u, rel=1e-13, abs=0.0)

    def test_conditional_is_uniform_on_wedge(self):
        tri = triangle_law()
        assert tri.conditional_cdf_y_given_x(0.25, 0.5) == pytest.approx(0.5, rel=1e-6, abs=0.0)
        assert tri.conditional_cdf_y_given_x(0.7, 0.5) == 1.0

    def test_joint_cdf_regions(self):
        tri = triangle_law()
        assert tri.joint_cdf(0.5, 0.8) == pytest.approx(0.25, rel=1e-6, abs=0.0)
        assert tri.joint_cdf(0.5, 0.2) == pytest.approx(2.0 * 0.5 * 0.2 - 0.04, rel=1e-6, abs=0.0)
        assert tri.joint_cdf(1.0, 1.0) == pytest.approx(1.0, rel=1e-6, abs=0.0)

    def test_marginal_normalization(self):
        tri = triangle_law()
        assert tri.marginal_x.mean() == pytest.approx(2.0 / 3.0, rel=1e-12, abs=0.0)
        assert tri.marginal_y.mean() == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    def test_second_marginal_measure_against_quadpack(self, alpha):
        # The wedge marginal runs in levels on its closed-form qd = 1/(2 sqrt(q)).
        # Reference: QUADPACK on the x axis, where F = y(2 - y) and 1 - F = (1 - y)**2.
        phi = _phi(as_order(alpha))
        want, _ = integrate.quad(lambda y: phi(y * (2.0 - y), (1.0 - y) ** 2), 0.0, 1.0,
                                 epsabs=0.0, epsrel=1e-13)
        wedge = triangle_law().marginal_y
        assert wedge.qd is not None
        assert efcpe(wedge, alpha).value == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBivariateMeasure:
    @pytest.mark.parametrize("alpha,expected", sorted(TRIANGLE_BIVARIATE.items()))
    def test_triangle_reference(self, alpha, expected):
        got = bivariate_efcpe(triangle_law(), alpha).value
        assert got == pytest.approx(expected, abs=5e-7)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_independent_pair_decomposes(self, alpha):
        J = independent_law(Uniform(1.0), Uniform(1.0))
        got = bivariate_efcpe(J, alpha).value
        want = independence_decomposition(Uniform(1.0), Uniform(1.0), alpha)
        assert got == pytest.approx(want, rel=2e-4, abs=0.0)

    def test_scale_square_law(self):
        # Scaling both coordinates by c multiplies the measure by c**2.
        small = bivariate_efcpe(independent_law(Uniform(1.0), Uniform(1.0)), 0.5).value
        large = bivariate_efcpe(independent_law(Uniform(2.0), Uniform(2.0)), 0.5).value
        assert large == pytest.approx(4.0 * small, rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("measure", [bivariate_efcpe, modified_bivariate_efcpe])
    def test_point_mass_marginal_is_zero(self, measure):
        # A support rectangle of zero area is integrate_2d's exact zero.
        for J in (independent_law(Degenerate(1.0), Uniform(1.0)),
                  independent_law(Uniform(1.0), Degenerate(1.0))):
            res = measure(J, 0.5)
            assert res.value == 0.0
            assert res.diagnostics.subdivisions_used == 0

    def test_unbounded_support_rejected(self):
        J = independent_law(Uniform(1.0), Exponential(1.0))
        with pytest.raises(DomainError):
            bivariate_efcpe(J, 0.5)

    # References computed outside fracpast. The triangle value at order 0.5
    # is 2 pi / 27 in closed form: the kernel is Gamma(3/2)^2 log^2 p there.
    # The FGM value is an mpmath tanh-sinh double integral that agrees to
    # 40 digits at 40 and 50 digits of working precision and with x and y
    # swapped.
    @pytest.mark.parametrize("law,alpha,reference", [
        (triangle_law(), 0.5, 2.0 * math.pi / 27.0),
        (fgm_law(-0.6), 0.7, 0.19338473387527116982),
    ], ids=["triangle-0.5", "fgm-0.7"])
    def test_value_within_error_of_independent_reference(self, law, alpha, reference):
        res = bivariate_efcpe(law, alpha)
        assert abs(res.value - reference) <= res.error_estimate
        assert repr(bivariate_efcpe(law, alpha).value) == repr(res.value)

    # The triangle law names its kink y = x, so every inner row has a panel
    # edge there. References from outside fracpast: 2 pi / 27 and 2 / 9 in
    # closed form; the modified measure and the mutual information at order
    # 1 from 40-digit mpmath double quadratures split at y = x.
    @pytest.mark.parametrize("measure,alpha,reference", [
        (bivariate_efcpe, 0.5, 2.0 * math.pi / 27.0),
        (bivariate_efcpe, 1.0, 2.0 / 9.0),
        (modified_bivariate_efcpe, 1.0, 0.22728427314668489686),
        (fcpmi, 1.0, -0.032839828702240452416),
    ], ids=["bivariate-0.5", "bivariate-1", "modified-1", "fcpmi-1"])
    def test_triangle_against_closed_form(self, measure, alpha, reference):
        res = measure(triangle_law(), alpha)
        value = getattr(res, "value", res)
        assert value == pytest.approx(reference, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("measure", [bivariate_efcpe, modified_bivariate_efcpe])
    @pytest.mark.parametrize("law", [
        lambda c: independent_law(affine(Beta(2.0, 3.0), c, 0.0), Uniform(3.0 * c)),
        lambda c: independent_law(Uniform(c), Uniform(c)),
        scaled_triangle_law,
    ], ids=["beta-uniform", "uniform-uniform", "triangle-kink"])
    def test_scale_law_at_every_scale(self, measure, law):
        # The 2-D tolerance is relative to the support rectangle, so scaling
        # both coordinates by c scales the value by c**2 to rounding; the
        # triangle's kink hint y = x scales with it. A rectangle with a side
        # below 1e-12 was once measured as exactly zero.
        unit = measure(law(1.0), 0.6).value
        for c in (1e-13, 1e-8, 3.7e-6, 1e-3, 0.37, 45.0, 6.1e5, 1e8):
            assert measure(law(c), 0.6).value == pytest.approx(c * c * unit, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("law,alpha,budget", [
        (triangle_law(), 0.5, 8_000),
        (fgm_law(-0.6), 0.7, 8_000),
    ], ids=["triangle-0.5", "fgm-0.7"])
    def test_conditional_cdf_calls_bounded(self, law, alpha, budget):
        # A host-independent cost: the graded map resolves the kernel's
        # endpoint behaviour in a few panels per row, and the triangle's
        # kink hint puts a panel edge on y = x.
        calls = 0
        conditional = law.conditional_cdf_y_given_x

        def counted(y, x):
            nonlocal calls
            calls += 1
            return conditional(y, x)

        bivariate_efcpe(law._replace(conditional_cdf_y_given_x=counted), alpha)
        assert calls <= budget


class TestModifiedBivariateMeasure:
    @pytest.mark.parametrize("alpha,expected", sorted(TRIANGLE_MODIFIED.items()))
    def test_triangle_reference(self, alpha, expected):
        got = modified_bivariate_efcpe(triangle_law(), alpha).value
        assert got == pytest.approx(expected, abs=5e-7)

    def test_gamma_prefactor(self):
        # Between orders only the gamma prefactor changes.
        tri = triangle_law()
        at_half = modified_bivariate_efcpe(tri, 0.5).value
        at_one = modified_bivariate_efcpe(tri, 1.0).value
        assert at_half / math.gamma(1.5) == pytest.approx(at_one, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.75])
    def test_powered_bound(self, alpha):
        for J in (triangle_law(), independent_law(Uniform(1.0), Uniform(1.0))):
            lhs = bivariate_efcpe(J, alpha).value
            rhs = modified_bivariate_efcpe(J, alpha).value ** (1.0 / alpha)
            assert lhs >= rhs - 1e-9


class TestIndependenceHelpers:
    def test_decomposition_shared_support_form(self):
        # Same support [0, l] and mean mu: the split collapses to
        # (l - mu) * (E*(X) + E*(Y)).
        got = independence_decomposition(Uniform(1.0), Uniform(1.0), 0.5)
        assert got == pytest.approx(UNIFORM_PAST, rel=1e-6, abs=0.0)

    def test_decomposition_mixed_supports(self):
        X, Y = Uniform(1.0), Uniform(2.0)
        ex = efcpe(X, 0.5).value
        ey = efcpe(Y, 0.5).value
        want = ex * (2.0 - 1.0) + ey * (1.0 - 0.5)
        got = independence_decomposition(X, Y, 0.5)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_decomposition_rejects_unbounded(self):
        with pytest.raises(DomainError):
            independence_decomposition(Uniform(1.0), Exponential(1.0), 0.5)

    def test_iid_pair_matches_decomposition(self):
        for alpha in (0.4, 0.8):
            got = iid_n_efcpe(Uniform(1.0), 2, alpha)
            want = independence_decomposition(Uniform(1.0), Uniform(1.0), alpha)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_iid_triple_formula(self):
        got = iid_n_efcpe(Uniform(1.0), 3, 0.5)
        assert got == pytest.approx(3.0 * 0.25 * UNIFORM_PAST, rel=1e-6, abs=0.0)

    def test_iid_validation(self):
        with pytest.raises(DomainError):
            iid_n_efcpe(Uniform(1.0), 1, 0.5)
        with pytest.raises(DomainError):
            iid_n_efcpe(Uniform(1.0), 2.5, 0.5)
        with pytest.raises(DomainError):
            iid_n_efcpe(Exponential(1.0), 2, 0.5)


class TestMutualInformation:
    def test_independent_law_is_exactly_zero(self):
        J = independent_law(Uniform(1.0), Uniform(1.0))
        assert fcpmi(J, 0.5) == 0.0
        assert fcpmi(J, 1.0) == 0.0

    @pytest.mark.parametrize("alpha,expected", sorted(FGM_MUTUAL.items()))
    def test_negatively_dependent_fgm_reference(self, alpha, expected):
        got = fcpmi(fgm_law(-0.5), alpha)
        assert got == pytest.approx(expected, abs=5e-7)
        assert got >= 0.0

    def test_positively_dependent_law_rejected_below_one(self):
        for alpha in (0.5, 0.7):
            with pytest.raises(DomainError):
                fcpmi(triangle_law(), alpha)

    def test_positively_dependent_law_signed_at_one(self):
        got = fcpmi(triangle_law(), 1.0)
        assert got == pytest.approx(TRIANGLE_MUTUAL_AT_ONE, abs=5e-7)
        assert got < 0.0

    def test_positive_dependence_between_grid_nodes_rejected_below_one(self):
        J = ripple_copula_law()
        grid = [i / 100 for i in range(101)]
        assert min(1.0 + _ripple_slope(u) * _ripple_slope(v) for u in grid for v in grid) > 0.77
        nodes = [(i + 0.5) / 21 for i in range(21)]
        assert all(J.joint_cdf(x, y) == x * y for x in nodes for y in nodes)
        assert J.joint_cdf(0.3, 0.3) > 0.09
        with pytest.raises(DomainError, match="undefined for order below 1"):
            fcpmi(J, 0.5)
        # At order 1 the signed logarithm is measured: the value is the
        # -(1/2) (int r(u)**2 / u du)**2 = -5.0814e-10 of quadpack, within
        # the 2-D absolute tolerance of 1e-8.
        got = fcpmi(J, 1.0)
        assert got == pytest.approx(-5.0813525e-10, rel=0.0, abs=1e-8)
        assert got < 0.0

    def test_coordinate_swap_symmetry_at_one(self):
        direct = fcpmi(triangle_law(), 1.0)
        swapped = fcpmi(mirrored_triangle_law(), 1.0)
        assert swapped == pytest.approx(direct, abs=1e-9)

    def test_fgm_parameter_validation(self):
        fgm_law(1.0)
        fgm_law(-1.0)
        with pytest.raises(DomainError):
            fgm_law(1.5)
        with pytest.raises(DomainError):
            fgm_law(math.nan)


class TestConditionalMeasure:
    @pytest.mark.parametrize("x", [0.3, 0.5, 1.0, 0.7, 1e-3, 5e-4, 1e-6, 1e-12])
    def test_triangle_conditional_is_scaled_uniform(self, x):
        # Given X = x the second coordinate is uniform on (0, x), so its
        # past measure is x times the standard uniform one, x pi / 16 at
        # order 1/2. The row ends at the kink y = x, also where x is small:
        # on the x axis the conditional read 0.0 from x = 5e-4 down.
        got = conditional_efcpe(triangle_law(), 0.5, x)
        assert got == pytest.approx(x * math.pi / 16.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "theta,alpha,x,want",
        # scipy.integrate.quad of C * (Gamma(1 + a) * -log C)**(1/a) over
        # [0, 1], with C(v) = v * (1 + theta * (1 - v) * (1 - 2x)).
        [(-0.3, 0.65, 0.6, 0.19651857741), (0.5, 0.4, 0.2, 0.18591755140)],
    )
    def test_fgm_conditional_against_quadpack(self, theta, alpha, x, want):
        got = conditional_efcpe(fgm_law(theta), alpha, x)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_independent_fgm_conditional_is_uniform(self):
        got = conditional_efcpe(fgm_law(0.0), 0.5, 0.3)
        assert got == pytest.approx(efcpe(Uniform(1.0), 0.5).value, rel=1e-9, abs=0.0)

    def test_scale_law_on_the_x_axis(self):
        # The conditional's row runs in units of the y support's width; on
        # the x axis in x units it was 1.6e-6 off at c = 1e-8.
        law = lambda c: independent_law(affine(Beta(2.0, 3.0), c), Uniform(c))
        unit = conditional_efcpe(law(1.0), 0.5, 0.5)
        for c in (1e-8, 1e8):
            got = conditional_efcpe(law(c), 0.5, 0.5 * c)
            assert got == pytest.approx(c * unit, rel=1e-12, abs=0.0)

    def test_kink_under_the_width_limit_refused(self):
        # At x = 1e-22 the panels below the kink y = x fall under the 1e-12
        # width limit of the adaptive loop: a typed refusal, not a number.
        with pytest.raises(MaxSubdivisionsError):
            conditional_efcpe(triangle_law(), 0.5, 1e-22)

    def test_unbounded_y_support_refused(self):
        with pytest.raises(DomainError, match="bounded y support"):
            conditional_efcpe(independent_law(Uniform(1.0), Exponential(1.0)), 0.5, 0.5)

    def test_conditioning_point_validated(self):
        with pytest.raises(DomainError):
            conditional_efcpe(triangle_law(), 0.5, 0.0)
        with pytest.raises(DomainError):
            conditional_efcpe(triangle_law(), 0.5, 1.2)


class TestDecompositionTheorem:
    def test_triangle_split(self):
        lhs, rhs = decomposition_theorem_check(triangle_law(), 0.5)
        assert lhs == pytest.approx(TRIANGLE_BIVARIATE[0.5], abs=5e-7)
        assert abs(lhs - rhs) <= 1e-10

    def test_independent_split(self):
        J = independent_law(Uniform(1.0), Uniform(1.0))
        lhs, rhs = decomposition_theorem_check(J, 0.75)
        assert lhs == pytest.approx(rhs, rel=2e-4, abs=0.0)

    def test_dependent_split_against_reference(self):
        # The FGM conditional moves with x, so each term's chain weights and
        # its conditional CDF both vary across rows. The reference is the
        # mpmath double integral of the bivariate measure itself.
        _, rhs = decomposition_theorem_check(fgm_law(-0.6), 0.7)
        assert rhs == pytest.approx(0.19338473387527116982, rel=1e-10, abs=0.0)

    def test_conditional_cdf_calls_bounded(self):
        # Three separate chain integrals plus the bivariate measure; a row
        # whose weights vanish never calls the conditional CDF.
        calls = 0
        law = triangle_law()
        conditional = law.conditional_cdf_y_given_x

        def counted(y, x):
            nonlocal calls
            calls += 1
            return conditional(y, x)

        decomposition_theorem_check(law._replace(conditional_cdf_y_given_x=counted), 0.5)
        assert calls <= 20_000
