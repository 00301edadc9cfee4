import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracpast import fraclog
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


def _pollard_reference(alpha, x):
    """E_a(x), x < 0, from Pollard's integral at 40 digits.

    E_a(-t) = sin(a pi)/(a pi t) int_0^inf exp(-w^(1/a))
    / ((w/t)^2 + 2 (w/t) cos(a pi) + 1) dw. The quadrature loses digits as
    the denominator's spike at w = t sharpens, from about a = 0.999 on.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, t = mp.mpf(alpha), -mp.mpf(x)
        c = mp.cos(a * mp.pi)
        f = lambda w: mp.exp(-w ** (1 / a)) / ((w / t) ** 2 + 2 * (w / t) * c + 1)
        return float(mp.sin(a * mp.pi) / (a * mp.pi * t) * mp.quad(f, [0, 1, 4, 16, 64, mp.inf]))


def _series_reference(alpha, x):
    """E_a(x) from its power series at 100 digits, for |x| <= 60.

    The terms grow to about e^60 before they fall, so 100 digits leave
    more than 60 for the sum, however small it is.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(100):
        a, z = mp.mpf(alpha), mp.mpf(x)
        total, k = mp.mpf(0), 0
        while True:
            term = z**k / mp.gamma(a * k + 1)
            total += term
            if k > abs(x) and abs(term) < mp.mpf(10) ** -90:
                return float(total)
            k += 1


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
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14, abs=0.0)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)


class TestMittagLeffler:
    def test_order_one_is_exp(self):
        for x in (-30.0, -2.0, -0.1, 0.0, 0.5, 5.0):
            assert mlf(1.0, x) == pytest.approx(math.exp(x), rel=1e-12, abs=0.0)

    def test_at_zero(self):
        for a in (0.2, 0.5, 0.9, 1.0):
            assert mlf(a, 0.0) == 1.0

    @pytest.mark.parametrize("alpha,x,expected", MLF_REFERENCE)
    def test_reference_values(self, alpha, x, expected):
        assert mlf(alpha, x) == pytest.approx(expected, rel=5e-11, abs=0.0)

    def test_branch_seams_are_continuous(self):
        # The evaluator switches methods at x = -1 (series at -1, contour
        # below) and x = -50 (asymptotic at -50, contour above). A seam and
        # its neighbouring float lie on different branches, and E_a moves
        # by far less than 1e-9 between them, so the branches must agree.
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
            for seam, other in ((-1.0, math.nextafter(-1.0, -math.inf)),
                                (-50.0, math.nextafter(-50.0, 0.0))):
                assert mlf(alpha, other) == pytest.approx(mlf(alpha, seam), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99])
    def test_contour_branch_against_reference(self, alpha):
        # The fixed-node contour rule covers -50 < x < -1.
        for x in (-1.0001, -2.5, -7.0, -15.0, -30.0, -49.9):
            assert mlf(alpha, x) == pytest.approx(_pollard_reference(alpha, x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.999, 0.9999, 0.99999])
    @pytest.mark.parametrize("x", [-35.0, -49.0])
    def test_order_near_one(self, alpha, x):
        # E_a(-t) is about 1 / (t Gamma(1 - a)) here, not e^(-t): at
        # a = 0.9999, t = 35 it is 3.04e-6. The 12-term asymptotic expansion
        # is within 1e-8 of it, since its next term is below 1e-15.
        t = -x
        expansion = math.fsum(
            (-1.0) ** (k + 1) / (t**k * math.gamma(1.0 - alpha * k)) for k in range(1, 13)
        )
        assert mlf(alpha, x) == pytest.approx(expansion, rel=1e-6, abs=0.0)
        y = frac_log(alpha, expansion, LogMode.EXACT)
        assert y == pytest.approx(x, rel=1e-6, abs=0.0)
        assert mlf(alpha, y) == pytest.approx(expansion, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0**-52])
    @pytest.mark.parametrize("x", [-23.0, -35.0, -49.0, -60.0])
    def test_order_within_rounding_of_one(self, alpha, x):
        # Here E_a(-t) is e^(-t) plus a tail of order (1 - a)/t, down to
        # 1e-17, below the contour rule's absolute error of 2e-16. Every
        # asymptotic coefficient is of order 1 - a, which 1 - a*k in floats
        # does not keep.
        value = mlf(alpha, x)
        assert value > 0.0
        assert value == pytest.approx(_series_reference(alpha, x), rel=5e-6, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5001, 0.6667, 0.7501, 0.4, 0.9])
    @pytest.mark.parametrize("x", [-60.0, -100.0, -1000.0])
    def test_asymptotic_branch_near_poles(self, alpha, x):
        # At a = 1/2, 2/3, 3/4 one coefficient 1/Gamma(1 - a*k) nearly
        # vanishes; the expansion must run past it.
        assert mlf(alpha, x) == pytest.approx(_pollard_reference(alpha, x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("x", [-1e160, -1e300])
    def test_asymptotic_branch_where_powers_overflow(self, alpha, x):
        # t**k leaves the float range from t ~ 1.3e154 at k = 2; every term
        # after the first is then below 1e-154 of it, so E_a(-t) is the
        # first term 1 / (t Gamma(1 - a)) to the last bit.
        assert mlf(alpha, x) == pytest.approx(1.0 / (-x * math.gamma(1.0 - alpha)),
                                              rel=1e-15, abs=0.0)

    def test_positive_overflow_raises(self):
        with pytest.raises(NonConvergentError):
            mlf(0.5, 900.0)

    def test_non_finite_argument_rejected(self):
        with pytest.raises(DomainError):
            mlf(0.5, math.nan)

    @pytest.mark.parametrize("alpha", [0.025, 0.02, 0.01, 0.005])
    def test_series_settles_at_small_orders(self, alpha):
        # 1/Gamma(a k + 1) stays near 1 for about 20/a terms, more than the
        # 700 the series allowed at every order; the budget now grows as 25/a.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            a, total, k = mp.mpf(alpha), mp.mpf(0), 0
            while True:
                term = (-1) ** k / mp.gamma(a * k + 1)
                total += term
                if abs(term) < mp.mpf(10) ** -25:
                    break
                k += 1
        assert mlf(alpha, -1.0) == pytest.approx(float(total), rel=1e-12, abs=0.0)

    def test_series_budget_is_capped(self):
        # Below about order 0.0016 the series would need more than 12 500
        # terms at x = -1; that stays a typed refusal.
        with pytest.raises(NonConvergentError):
            mlf(0.001, -1.0)

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
            got = frac_log(1.0, p, LogMode.APPROX)
            assert got == pytest.approx(math.log(p), rel=1e-14, abs=0.0)
            assert frac_log(1.0, p, LogMode.EXACT) == pytest.approx(math.log(p), rel=1e-14, abs=0.0)

    def test_approx_form(self):
        for alpha in (0.3, 0.5, 0.8):
            for p in (0.2, 0.7):
                want = math.gamma(1.0 + alpha) * math.log(p)
                assert frac_log(alpha, p, LogMode.APPROX) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha,p,expected", EXACT_LOG_REFERENCE)
    def test_exact_reference_values(self, alpha, p, expected):
        assert frac_log(alpha, p, LogMode.EXACT) == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("q", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_exact_near_one_against_series_inversion(self, alpha, q):
        # Above p = 1/2, -Ln_a p is the root t of 1 - E_a(-t) = 1 - p, and
        # 1 - p is exact there. mpmath inverts the series at 40 digits. An
        # absolute tolerance on t once read 0.0 at q = 1e-12.
        mp = pytest.importorskip("mpmath")
        p = 1.0 - q
        with mp.workdps(40):
            a, r = mp.mpf(alpha), 1 - mp.mpf(p)
            rest = lambda t: -mp.nsum(lambda k: (-t) ** k / mp.gamma(a * k + 1), [1, mp.inf])
            want = -mp.findroot(lambda t: rest(t) - r, mp.gamma(1 + a) * r)
        assert frac_log(alpha, p, LogMode.EXACT) == pytest.approx(float(want), rel=1e-12, abs=0.0)

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
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=0.0)

    @given(
        alpha=st.floats(0.2, 1.0),
        p=st.floats(0.05, 0.999),
        b=st.floats(0.1, 6.0),
    )
    def test_power_law(self, alpha, p, b):
        lhs = frac_log_power(alpha, p**b)
        rhs = (b**alpha) * frac_log_power(alpha, p)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=0.0)

    def test_exact_mode_violates_power_law(self):
        # The power-form identities do not transfer to the exact inverse:
        # at alpha=0.5, p=0.5, b=2 the exact ratio is ~2.065, not 2**0.5.
        alpha, p, b = 0.5, 0.5, 2.0
        ratio = frac_log(alpha, p**b, LogMode.EXACT) / frac_log(alpha, p, LogMode.EXACT)
        assert abs(ratio - b**alpha) > 0.3


# The EXACT root grid: orders 0.45 to 0.97, and p from 1e-9 to 1/2 at every
# half decade.
ROOT_ORDERS = [0.45, 0.55, 0.65, 0.75, 0.85, 0.9, 0.93, 0.95, 0.97]
ROOT_LEVELS = [10.0 ** (-9 + 0.5 * j) for j in range(18)] + [0.5]


def _mlf_mp(alpha, t):
    """E_a(-t) in mpmath, for 0 < a < 1 and t > 0.

    With T = t^(1/a), the series terms grow to about e^T before they fall,
    so up to T = 200 the series runs at 30 + T/2 digits. Beyond it the
    large-argument expansion runs until its envelope Gamma(a k) / t^k falls
    below 1e-35 of the sum, which it does long before the terms turn.
    """
    mp = pytest.importorskip("mpmath")
    big_t = t ** (1.0 / alpha)
    if big_t <= 200.0:
        with mp.workdps(30 + int(big_t / 2)):
            a, z = mp.mpf(alpha), -mp.mpf(t)
            total, k = mp.mpf(0), 0
            while True:
                term = z**k * mp.rgamma(a * k + 1)
                total += term
                if k * alpha > 2 * big_t and abs(term) < mp.mpf(10) ** -35:
                    return total
                k += 1
    with mp.workdps(30):
        a, tt = mp.mpf(alpha), mp.mpf(t)
        total, k = mp.mpf(0), 1
        while True:
            total += (-1) ** (k + 1) * mp.rgamma(1 - a * k) / tt**k
            if k > 4 and mp.gamma(a * k) / tt**k < mp.mpf(10) ** -35 * total:
                return total
            k += 1


class TestExactRoot:
    """-Ln_a p: Newton's method on E_a(-t) = p from the larger of Simon's
    and Jensen's lower bounds, stopped at a relative step of 1e-8."""

    @pytest.mark.parametrize("alpha", ROOT_ORDERS)
    def test_root_against_mpmath(self, alpha):
        # The error left after the last step is of the order of its square,
        # 1e-16 relative, so E_a at the root is p to within the evaluator's
        # own error. The 17-node contour rule is off by up to 2.5e-15
        # absolute at orders near 0.97 (2.4e-13 relative at a = 0.97,
        # p = 1e-3, and 1.2e-13 with its weights summed exactly in mpmath),
        # which no root of it can beat.
        for p in ROOT_LEVELS:
            y = frac_log(alpha, p, LogMode.EXACT)
            assert abs(float(_mlf_mp(alpha, -y)) - p) <= 1e-13 * p + 2.5e-15, p

    def test_few_evaluations_per_root(self, monkeypatch):
        # Each Newton step is one evaluation of E_a(-t) and its derivative;
        # from Simon's bound the root takes about 3 on average.
        evaluations = []
        pair = fraclog._mlf_pair

        def counted(order, t, *rest):
            evaluations.append(t)
            return pair(order, t, *rest)

        monkeypatch.setattr(fraclog, "_mlf_pair", counted)
        roots = 0
        for alpha in ROOT_ORDERS:
            for p in ROOT_LEVELS:
                frac_log(alpha, p, LogMode.EXACT)
                roots += 1
        assert len(evaluations) <= 4 * roots

    @pytest.mark.parametrize("alpha", [1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12])
    def test_few_evaluations_near_order_one(self, monkeypatch, alpha):
        # Near order 1, E_a(-t) nears e^(-t) and Jensen's start
        # Gamma(1+a) (-log p) nears the root, where Simon's sits near 0.
        # Above p = 1/2 each evaluation is a series sum, counted through the
        # same _mlf_pair.
        counts = []
        pair = fraclog._mlf_pair

        def counted(order, t, *rest):
            counts[-1] += 1
            return pair(order, t, *rest)

        monkeypatch.setattr(fraclog, "_mlf_pair", counted)
        order = FracOrder(alpha)
        for p in ROOT_LEVELS + [1.0 - 10.0 ** -k for k in (1, 2, 3, 6, 9, 12, 15)]:
            counts.append(0)
            frac_log(order, p, LogMode.EXACT)
        assert max(counts) <= 6

    @pytest.mark.parametrize("alpha", [0.5, 0.8987, 0.9, 0.97])
    @pytest.mark.parametrize("p", [1e-160, 1e-300, 5e-309])
    def test_root_past_the_first_term_threshold(self, alpha, p):
        # From t = 1e154 on E_a(-t) is 1 / (t Gamma(1 - a)) to rounding, so
        # the root is its inverse, finite while it fits a float: at the
        # subnormal p = 5e-309, where 1/p overflows, it is about 2.1e307 for
        # a = 0.9.
        y = frac_log(alpha, p, LogMode.EXACT)
        assert y == pytest.approx(-1.0 / (p * math.gamma(1.0 - alpha)), rel=1e-14, abs=0.0)
        assert mlf(alpha, y) == pytest.approx(p, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [1e-320, 5e-324])
    def test_root_past_the_float_range(self, p):
        assert frac_log(0.9, p, LogMode.EXACT) == -math.inf
        assert log_kernel(0.9, p, LogMode.EXACT) == math.inf


class TestLogKernel:
    def test_at_one_is_zero(self):
        assert log_kernel(0.5, 1.0) == 0.0

    def test_order_one(self):
        for p in (0.2, 0.8):
            assert log_kernel(1.0, p) == pytest.approx(-math.log(p), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha,p,mode", [(0.001, 1e-300, LogMode.APPROX),
                                              (0.3, 1e-120, LogMode.EXACT)])
    def test_overflow_is_inf(self, alpha, p, mode):
        assert log_kernel(alpha, p, mode) == math.inf

    def test_matches_power_construction(self):
        for alpha in (0.3, 0.6, 0.9):
            for p in (0.1, 0.5, 0.9):
                want = (math.gamma(1.0 + alpha) * (-math.log(p))) ** (1.0 / alpha)
                assert log_kernel(alpha, p) == pytest.approx(want, rel=1e-12, abs=0.0)


# Orders at which the per-order tables are checked bit for bit: poles of the
# expansion (1/2, 2/3, 3/4) and orders near 1, where its coefficients are
# O(1 - a).
_TABLE_ORDERS = [0.1, 0.5, 2.0 / 3.0, 0.75, 0.97, 1.0 - 1e-9]


class TestPerOrderConstants:
    @pytest.mark.parametrize("alpha", _TABLE_ORDERS)
    def test_contour_weights_match_the_direct_formula(self, alpha):
        mu, h = fraclog._CONTOUR_MU, fraclog._CONTOUR_STEP
        for k, (weight, s_a) in enumerate(FracOrder(alpha)._contour):
            z = complex(1.0, k * h)
            s = mu * z * z
            direct = (h / math.pi) * mu * z * cmath.exp(s) * s**alpha / s
            assert s_a == s**alpha
            assert weight == (2.0 * direct if k else direct)

    @pytest.mark.parametrize("alpha", _TABLE_ORDERS)
    def test_inverse_gamma_scalar_is_the_tables_first_entry(self, alpha):
        scalar_first, table_first = FracOrder(alpha), FracOrder(alpha)
        scalar = scalar_first._inv_gamma_minus
        table = fraclog._longer_expansion(table_first, 20)
        assert scalar == table[0] == table_first._inv_gamma_minus
        assert fraclog._longer_expansion(scalar_first, 20) == table
        assert scalar == pytest.approx(1.0 / math.gamma(1.0 - alpha), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha", _TABLE_ORDERS)
    def test_expansion_signs_match_the_powers_of_minus_one(self, alpha):
        want = []
        for k in range(1, 21):
            n = round(alpha * k)
            sine = (-1.0) ** n * math.sin(math.pi * (k * (alpha - 1.0) + (k - n)))
            want.append((-1.0) ** (k + 1) * math.gamma(alpha * k) * sine / math.pi)
        whole = fraclog._longer_expansion(FracOrder(alpha), 20)
        assert [repr(c) for c in whole] == [repr(c) for c in want]
        # A table grown a few entries at a time ends as the one built whole.
        order = FracOrder(alpha)
        for n in (3, 7, 20):
            assert fraclog._longer_expansion(order, n) == whole[:n] == order._expansion

    def test_roots_off_the_expansion_leave_its_table_unbuilt(self):
        order = FracOrder(0.35)
        mlf(order, -3.0)
        frac_log(order, 0.3, LogMode.EXACT)
        assert "_expansion" not in order.__dict__
        mlf(order, -200.0)
        assert "_expansion" in order.__dict__

    # Orders 0.01 to 1 - 1e-6 and 1e-20, whose table is all zeros; t = 300
    # starts the envelope rule, and at 350 and 400 orders near 1 fail its
    # first test.
    @pytest.mark.parametrize("alpha", _TABLE_ORDERS + [1.0 / 3.0, 0.01, 0.2, 0.95, 0.99,
                                                       1.0 - 1e-6, 1e-20])
    @pytest.mark.parametrize("t", [21.0, 50.0, 169.9, 170.0, 171.0, 299.9, 300.0, 301.0, 350.0,
                                   400.0, 1e3, 3.6e4, 1e8, 1e100, 1e154, 1e300])
    def test_partial_expansion_sums_equal_the_full_sum(self, alpha, t):
        # The twenty-term sums as written before the envelope rule, over a
        # table built whole; the rule may stop early only where no later
        # term can move either sum.
        coefficients = fraclog._longer_expansion(FracOrder(alpha), 20)
        value = slope = 0.0
        for k, coefficient in enumerate(coefficients, 1):
            try:
                t_k = t**k
            except OverflowError:
                break
            term = coefficient / t_k
            value += term
            slope -= k * term
        want = (repr(value), repr(slope))
        cold, warm = FracOrder(alpha), FracOrder(alpha)
        fraclog._longer_expansion(warm, 20)
        for order in (cold, warm):
            assert tuple(map(repr, fraclog._asymptotic_pair(order, t))) == want

    def test_envelope_ratio_stays_below_its_bound(self):
        # The envelope rule bounds each later term by the last one summed
        # times 21/t, from Gamma(a(k+1)) / Gamma(a k) < 21; it peaks near 19
        # at a -> 1, k = 19.
        ratios = [math.gamma(a * (k + 1)) / math.gamma(a * k)
                  for a in [i / 4000 for i in range(1, 4000)] + [1.0 - 1e-9]
                  for k in range(1, 20)]
        assert max(ratios) < 21.0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.97, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12,
                                       1.0 - 2.0**-52])
    def test_envelope_covers_every_coefficient(self, alpha):
        # |sin(pi a k)| <= 20 pi (1 - a) for k <= 20 shrinks the envelope
        # near order 1; each coefficient stays within it, to rounding.
        order = FracOrder(alpha)
        scale = order._envelope[1]
        coefficients = fraclog._longer_expansion(order, 20)
        for k, coefficient in enumerate(coefficients, 1):
            assert abs(coefficient) <= scale * math.gamma(alpha * k) * (1.0 + 1e-12)

    @pytest.mark.parametrize("alpha, terms", [(0.01, 8), (0.1, 8), (0.2, 8), (0.6584, 9),
                                              (0.99, 10), (1.0 - 1e-6, 11), (1.0 - 1e-9, 11)])
    def test_failed_envelope_test_adds_one_term_at_a_time(self, alpha, terms):
        # At t = 400 orders 1 - 1e-6 and 1 - 1e-9 fail the first test, at ten
        # terms, and read an eleventh; the others pass it at eight to ten.
        order = FracOrder(alpha)
        mlf(order, -400.0)
        assert len(order.__dict__["_expansion"]) == terms

    def test_cold_root_builds_only_the_expansion_terms_it_reads(self):
        # The root lies near t = 3.6e4, where five terms settle both sums.
        order = FracOrder(0.6584)
        frac_log(order, 1.063e-5, LogMode.EXACT)
        assert len(order.__dict__["_expansion"]) < 20
        mlf(order, -60.0)
        assert order.__dict__["_expansion"] == fraclog._longer_expansion(FracOrder(0.6584), 20)

    def test_series_table_grows_only_as_far_as_a_sum_reads(self):
        # The whole table, as built before it grew on demand: to the first
        # k > 4 below 1e-18, within the term budget.
        a = 0.01
        whole = []
        for k in range(1, min(12_500, max(700, math.ceil(25.0 / a)))):
            whole.append(1.0 / math.gamma(a * k + 1.0))
            if whole[-1] < 1e-18 and k > 4:
                break
        assert len(whole) == 1971
        order = FracOrder(a)
        mlf(order, -0.5)
        assert len(order.__dict__["_series"]) <= 128
        mlf(order, -1.0)
        assert order.__dict__["_series"] == tuple(whole)

    def test_approx_kernel_builds_no_exact_kernel(self):
        order = FracOrder(0.35)
        log_kernel(order, 0.3)
        assert list(order.__dict__["_kernels"]) == [LogMode.APPROX]
        log_kernel(order, 0.3, LogMode.EXACT)
        assert list(order.__dict__["_kernels"]) == [LogMode.APPROX, LogMode.EXACT]


class TestDiscreteEntropy:
    def test_uniform_mass(self):
        alpha = 0.5
        value = discrete_frac_entropy([0.25] * 4, alpha)
        want = (math.gamma(1.5) * math.log(4.0)) ** 2.0
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_point_mass_is_zero(self):
        assert discrete_frac_entropy([1.0], 0.5) == 0.0

    def test_zero_entries_skipped(self):
        a = discrete_frac_entropy([0.5, 0.5, 0.0], 0.4)
        b = discrete_frac_entropy([0.5, 0.5], 0.4)
        assert a == b

    def test_mass_must_sum_to_one(self):
        with pytest.raises(DomainError):
            discrete_frac_entropy([0.5, 0.4], 0.5)
