import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracpast.errors import DomainError, NonConvergentError
from fracpast.fraclog import (
    FracOrder,
    LogMode,
    as_order,
    discrete_frac_entropy,
    frac_log,
    frac_log_power,
    gamma_fn,
    log_kernel,
    mlf,
)

# Reference values computed with 60-digit series/integral evaluation and
# frozen before the module was written.
MLF_REFERENCE = [
    (0.5, -1.0, 0.427583576156),
    (0.5, -10.0, 0.056140992744),
    (0.5, -49.0, 1.151167686388e-02),
    (0.5, -51.0, 1.106041548533e-02),
    (0.5, -200.0, 2.820912657212e-03),
    (0.3, -0.5, 0.632649005944),
    (0.3, -5.0, 0.137080869020),
    (0.7, -2.0, 0.213786727015),
    (0.9, -5.0, 0.034431324804),
]

EXACT_LOG_REFERENCE = [
    (0.5, 0.5, -0.769079771061),
    (0.5, 0.9, -0.096278647768),
    (0.5, 0.81, -0.198782860234),
    (0.3, 0.5, -0.845637008783),
    (0.7, 0.5, -0.718028069786),
]


class TestFracOrder:
    def test_accepts_interior_and_boundary(self):
        assert FracOrder(0.5).alpha == 0.5
        assert FracOrder(1.0).alpha == 1.0
        assert as_order(0.25).alpha == 0.25

    def test_as_order_passthrough(self):
        a = FracOrder(0.7)
        assert as_order(a) is a

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.0001, math.inf, math.nan, 2])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            FracOrder(bad)

    def test_rejects_bool(self):
        with pytest.raises(DomainError):
            FracOrder(True)


class TestGamma:
    def test_integer_values(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)


class TestMittagLeffler:
    def test_order_one_is_exp(self):
        for x in (-30.0, -2.0, -0.1, 0.0, 0.5, 5.0):
            assert mlf(1.0, x) == pytest.approx(math.exp(x), rel=1e-12)

    def test_at_zero(self):
        for a in (0.2, 0.5, 0.9, 1.0):
            assert mlf(a, 0.0) == 1.0

    @pytest.mark.parametrize("alpha,x,expected", MLF_REFERENCE)
    def test_reference_values(self, alpha, x, expected):
        assert mlf(alpha, x) == pytest.approx(expected, rel=5e-11)

    def test_branch_seams_are_continuous(self):
        # The evaluator switches methods at x = -1 and x = -50; values on
        # either side of each seam must agree to quadrature accuracy.
        for alpha in (0.4, 0.6, 0.8):
            for seam in (-1.0, -50.0):
                below = mlf(alpha, seam - 1e-7)
                above = mlf(alpha, seam + 1e-7)
                assert below == pytest.approx(above, rel=1e-5)

    @pytest.mark.parametrize("alpha", [0.5001, 0.6667, 0.7501, 0.4, 0.9])
    @pytest.mark.parametrize("x", [-60.0, -100.0, -1000.0])
    def test_asymptotic_branch_near_poles(self, alpha, x):
        # At a = 1/2, 2/3, 3/4 one coefficient 1/Gamma(1 - a*k) nearly
        # vanishes; the expansion must run past it. The reference is Pollard's
        # integral E_a(-t) = sin(a pi)/(a pi t) int_0^inf exp(-w^(1/a))
        # / ((w/t)^2 + 2 (w/t) cos(a pi) + 1) dw at 40 digits.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a, t = mp.mpf(alpha), -mp.mpf(x)
            c = mp.cos(a * mp.pi)
            f = lambda w: mp.exp(-w ** (1 / a)) / ((w / t) ** 2 + 2 * (w / t) * c + 1)
            ref = float(mp.sin(a * mp.pi) / (a * mp.pi * t) * mp.quad(f, [0, 1, 4, 16, 64, mp.inf]))
        assert mlf(alpha, x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("x", [-1e160, -1e300])
    def test_asymptotic_branch_where_powers_overflow(self, alpha, x):
        # t**k leaves the float range from t ~ 1.3e154 at k = 2; every term
        # after the first is then below 1e-154 of it, so E_a(-t) is the
        # first term 1 / (t Gamma(1 - a)) to the last bit.
        assert mlf(alpha, x) == pytest.approx(1.0 / (-x * math.gamma(1.0 - alpha)), rel=1e-15)

    def test_positive_overflow_raises(self):
        with pytest.raises(NonConvergentError):
            mlf(0.5, 900.0)

    def test_non_finite_argument_rejected(self):
        with pytest.raises(DomainError):
            mlf(0.5, math.nan)

    @given(
        alpha=st.floats(0.3, 1.0),
        x=st.floats(-40.0, 3.0),
    )
    def test_positive_on_negative_axis(self, alpha, x):
        # E_a(x) stays within (0, 1] for x <= 0 and is finite on the tested range.
        value = mlf(alpha, x)
        assert math.isfinite(value)
        if x <= 0.0:
            assert 0.0 < value <= 1.0


class TestFracLog:
    def test_at_one_is_zero(self):
        for mode in (LogMode.APPROX, LogMode.EXACT):
            assert frac_log(0.5, 1.0, mode) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            frac_log(0.5, bad)

    def test_order_one_is_log(self):
        for p in (0.1, 0.5, 0.9):
            assert frac_log(1.0, p, LogMode.APPROX) == pytest.approx(math.log(p), rel=1e-14)
            assert frac_log(1.0, p, LogMode.EXACT) == pytest.approx(math.log(p), rel=1e-14)

    def test_approx_form(self):
        for alpha in (0.3, 0.5, 0.8):
            for p in (0.2, 0.7):
                want = math.gamma(1.0 + alpha) * math.log(p)
                assert frac_log(alpha, p, LogMode.APPROX) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("alpha,p,expected", EXACT_LOG_REFERENCE)
    def test_exact_reference_values(self, alpha, p, expected):
        assert frac_log(alpha, p, LogMode.EXACT) == pytest.approx(expected, rel=1e-9)

    @given(alpha=st.floats(0.25, 1.0), p=st.floats(0.05, 0.999))
    def test_mlf_inverts_exact_log(self, alpha, p):
        x = frac_log(alpha, p, LogMode.EXACT)
        assert mlf(alpha, x) == pytest.approx(p, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.4, 0.6, 0.8])
    def test_exact_dominates_approx_in_magnitude(self, alpha):
        for p in [0.05, 0.2, 0.5, 0.8, 0.95, 0.99]:
            exact = frac_log(alpha, p, LogMode.EXACT)
            approx = frac_log(alpha, p, LogMode.APPROX)
            assert abs(exact) >= abs(approx) - 1e-12

    def test_modes_differ_beyond_naive_envelope(self):
        # The two logs do NOT agree within 0.01*|log p| everywhere; this is
        # the recorded counterexample. A quadratic envelope does hold.
        alpha, p = 0.5, 0.9
        diff = abs(frac_log(alpha, p, LogMode.EXACT) - frac_log(alpha, p, LogMode.APPROX))
        assert diff > 0.01 * abs(math.log(p))
        for a in (0.3, 0.5, 0.7, 0.9):
            for q in (0.5, 0.7, 0.9, 0.97, 0.999):
                gap = abs(frac_log(a, q, LogMode.EXACT) - frac_log(a, q, LogMode.APPROX))
                assert gap <= 2.0 * (1.0 - q) ** 2 + 1e-12


class TestPowerFormIdentities:
    @given(
        alpha=st.floats(0.2, 1.0),
        u=st.floats(0.05, 0.999),
        v=st.floats(0.05, 0.999),
    )
    def test_product_law(self, alpha, u, v):
        lhs = (-frac_log_power(alpha, u * v)) ** (1.0 / alpha)
        rhs = (-frac_log_power(alpha, u)) ** (1.0 / alpha) + (
            -frac_log_power(alpha, v)
        ) ** (1.0 / alpha)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(
        alpha=st.floats(0.2, 1.0),
        p=st.floats(0.05, 0.999),
        b=st.floats(0.1, 6.0),
    )
    def test_power_law(self, alpha, p, b):
        lhs = frac_log_power(alpha, p**b)
        rhs = (b**alpha) * frac_log_power(alpha, p)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_exact_mode_violates_power_law(self):
        # The power-form identities do not transfer to the exact inverse:
        # at alpha=0.5, p=0.5, b=2 the exact ratio is ~2.065, not 2**0.5.
        alpha, p, b = 0.5, 0.5, 2.0
        ratio = frac_log(alpha, p**b, LogMode.EXACT) / frac_log(alpha, p, LogMode.EXACT)
        assert abs(ratio - b**alpha) > 0.3


class TestLogKernel:
    def test_at_one_is_zero(self):
        assert log_kernel(0.5, 1.0) == 0.0

    def test_order_one(self):
        for p in (0.2, 0.8):
            assert log_kernel(1.0, p) == pytest.approx(-math.log(p), rel=1e-13)

    def test_matches_power_construction(self):
        for alpha in (0.3, 0.6, 0.9):
            for p in (0.1, 0.5, 0.9):
                want = (math.gamma(1.0 + alpha) * (-math.log(p))) ** (1.0 / alpha)
                assert log_kernel(alpha, p) == pytest.approx(want, rel=1e-12)


class TestDiscreteEntropy:
    def test_uniform_mass(self):
        alpha = 0.5
        value = discrete_frac_entropy([0.25] * 4, alpha)
        want = (math.gamma(1.5) * math.log(4.0)) ** 2.0
        assert value == pytest.approx(want, rel=1e-12)

    def test_point_mass_is_zero(self):
        assert discrete_frac_entropy([1.0], 0.5) == 0.0

    def test_zero_entries_skipped(self):
        a = discrete_frac_entropy([0.5, 0.5, 0.0], 0.4)
        b = discrete_frac_entropy([0.5, 0.5], 0.4)
        assert a == b

    def test_mass_must_sum_to_one(self):
        with pytest.raises(DomainError):
            discrete_frac_entropy([0.5, 0.4], 0.5)
