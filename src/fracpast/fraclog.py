"""Mittag-Leffler function, fractional-order logarithms, and the discrete
fractional entropy.

The one-parameter Mittag-Leffler function E_a(x) = sum_k x^k / Gamma(a*k + 1)
generalizes the exponential. Its inverse on (0, 1] acts as a fractional-order
logarithm Ln_a. Three evaluation strategies are exposed:

* ``LogMode.APPROX``: Ln_a(p) ~= Gamma(1+a) * log(p), the linearization that
  every closed-form measure in this library is built on.
* ``LogMode.EXACT``: the root t = -Ln_a p of E_a(-t) = p by one Newton
  iteration on one residual, E_a(-t) - p, started from the larger of two
  closed-form lower bounds on the root (Simon's and Jensen's).
* ``frac_log_power``: the power-scaled form -Gamma(1+a) * (-log p)**a, the
  unique variant for which the product rule
  ``[-Ln_a(uv)]**(1/a) = [-Ln_a(u)]**(1/a) + [-Ln_a(v)]**(1/a)``
  and the power rule ``Ln_a(x**b) = b**a * Ln_a(x)`` hold exactly. Both sides
  of the product rule reduce to Gamma(1+a)**(1/a) * (-log u - log v).

Negative-argument evaluation of E_a switches between three branches: the
power series for -1 <= x < 0; for -50 < x < -1, the Bromwich integral
E_a(-t) = 1/(2 pi i) int_C e^s s^(a-1) / (s^a + t) ds by the trapezoidal rule
on the parabolic contour s(u) = mu (1 + iu)^2 (Weideman & Trefethen, Math.
Comp. 2007; Garrappa, SIAM J. Numer. Anal. 2015), with N = 16, mu = pi N / 12
and step h = 3 / N, so 17 nodes after conjugate symmetry; and the 20-term
large-argument expansion for x <= -50. Against 40-digit references the
contour branch is within 4e-13 relative for orders 0.1 to 0.99, and within
5e-10 up to order 0.99999; larger N is less accurate, because the factor
e^mu at the nodes cancels. That cancellation leaves an absolute error of
3e-16 to 2.5e-15 against series sums at 30 + T/2 digits, T = t^(1/a) (the
most near order 0.97, 7e-16 from 0.99999 on), so where E_a(-t) falls below
1e-10 (orders within about 5e-9 of 1) the branch returns e^(-t) plus the
asymptotic expansion instead, within 4e-7 relative; at any order up to 1
the branch is within 2e-6.
Each branch gives the t-derivative of E_a(-t) from the same pass, which the
EXACT inversion's Newton steps use: about 3 evaluations a root, at most 6
near order 1.

The series coefficients 1/Gamma(a k + 1), the contour nodes and weights, the
powers s^a, Gamma(1 + a), the expansion's coefficients and the measure
kernel's closure per mode depend on the order only, so each ``FracOrder``
computes them once, on first use, and every point of a public call shares
them.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple

from .errors import DomainError, NonConvergentError

__all__ = [
    "FracOrder",
    "LogMode",
    "as_order",
    "discrete_frac_entropy",
    "frac_log",
    "frac_log_power",
    "gamma_fn",
    "log_kernel",
    "mlf",
]

# Branch boundaries for E_a(-t) on t > 0: the series up to t = 1, the
# asymptotic expansion from t = 50 on, the contour rule between.
_SERIES_MAX_T = 1.0
_ASYMPTOTIC_MIN_T = 50.0

# Trapezoidal rule on the parabolic contour s(u) = mu (1 + iu)^2, u = k h for
# |k| <= N; see the module docstring.
_CONTOUR_N = 16
_CONTOUR_MU = math.pi * _CONTOUR_N / 12.0
_CONTOUR_STEP = 3.0 / _CONTOUR_N
_CONTOUR_FLOOR = 1e-10
_ASYMPTOTIC_TERMS = 20

# Term budget of the power series: 700 terms, or 25/alpha at small orders,
# where 1/Gamma(alpha*k + 1) stays near 1 for hundreds of terms, capped so
# that orders below about 0.0016 are refused at x = -1 in bounded time.
_SERIES_TERMS = 700
_SERIES_MAX_TERMS = 12_500

_ROOT_MAXITER = 200
# Relative step at which the Newton iteration for E_a(-t) = p stops; the
# error left after that step is of the order of its square (see _neg_ln).
_NEWTON_RTOL = 1e-8
# Beyond this t every asymptotic term after the first is below 1e-154 of it,
# so E_a(-t) is 1 / (t Gamma(1 - a)) to rounding.
_FIRST_TERM_EXACT = 1e154


class _per_order:
    """``functools.cached_property`` without its lock, which CPython 3.11
    takes on every first access: the value goes straight into the instance
    ``__dict__``, where every later read finds it first."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __get__(self, order, owner=None):
        if order is None:
            return self
        value = order.__dict__[self.fn.__name__] = self.fn(order)
        return value


class _FracOrderFields(NamedTuple):
    alpha: float


class FracOrder(_FracOrderFields):
    """Validated fractional order, the single parameter of every measure.

    The admissible range is 0 < alpha <= 1; alpha = 1 recovers the classical
    (non-fractional) measures. It keeps an instance ``__dict__``, which
    ``_per_order`` fills with its per-order constants; assignment is refused.
    """

    def __new__(cls, alpha):
        if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
            raise DomainError(f"fractional order must be a real number, got {alpha!r}")
        if not math.isfinite(alpha):
            raise DomainError(f"fractional order must be finite, got {alpha}")
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"fractional order must lie in (0, 1], got {alpha}")
        return super().__new__(cls, float(alpha))

    # _replace builds through _make, so it checks its fields too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    # Per-order constants of the kernel, each computed on first use and then
    # shared by every point evaluated at this order.

    @_per_order
    def _gamma_plus(self) -> float:
        """Gamma(1 + alpha)."""
        return math.gamma(1.0 + self.alpha)

    @_per_order
    def _series_coefficients(self) -> tuple:
        """1/Gamma(alpha*k + 1) for k = 1, 2, ..., up to the first k > 4 where
        it falls below 1e-18, or to the series' term budget.

        On 0 < t <= 1 each term of E_alpha(-t) is at most its coefficient, so
        a table that ends below 1e-18 holds every term the series needs; one
        that ends at the budget (orders below about 0.0016) may not.
        """
        a = self.alpha
        budget = min(_SERIES_MAX_TERMS, max(_SERIES_TERMS, math.ceil(25.0 / a)))
        coefficients = []
        for k in range(1, budget):
            coefficients.append(1.0 / math.gamma(a * k + 1.0))
            if coefficients[-1] < 1e-18 and k > 4:
                break
        return tuple(coefficients)

    @_per_order
    def _asymptotic_coefficients(self) -> tuple:
        """(-1)^(k+1) / Gamma(1 - alpha*k) for k = 1..20.

        By reflection 1/Gamma(1 - a*k) = Gamma(a*k) sin(pi*a*k) / pi, and
        sin(pi*a*k) = (-1)^n sin(pi*f) with n the integer nearest a*k and
        f = k*(a - 1) + (k - n). As the order nears 1 every coefficient is
        O(1 - a), and this f keeps 1 - a to the last bit, where 1 - a*k
        rounded to a float loses it. At a pole (a*k an integer) f is 0.
        """
        a = self.alpha
        coefficients = []
        for k in range(1, _ASYMPTOTIC_TERMS + 1):
            n = round(a * k)
            sine = (-1.0) ** n * math.sin(math.pi * (k * (a - 1.0) + (k - n)))
            coefficients.append((-1.0) ** (k + 1) * math.gamma(a * k) * sine / math.pi)
        return tuple(coefficients)

    @_per_order
    def _contour(self) -> tuple:
        """Pairs (weight, s^alpha) of the contour nodes u = k h, k = 0..N.

        The weight is h/pi * e^s s^(alpha-1) * s'(u)/(2i), doubled for k > 0
        to count the conjugate node -k, so E_alpha(-t) is the real part of
        sum(weight / (s^alpha + t)).
        """
        a, mu, h = self.alpha, _CONTOUR_MU, _CONTOUR_STEP
        nodes = []
        for k in range(_CONTOUR_N + 1):
            z = complex(1.0, k * h)
            s = mu * z * z
            s_a = s**a
            weight = (h / math.pi) * mu * z * cmath.exp(s) * s_a / s
            nodes.append((2.0 * weight if k else weight, s_a))
        return tuple(nodes)

    @_per_order
    def _kernels(self) -> dict:
        """The kernel (p, q) -> (-Ln_alpha p)**(1/alpha) for 0 < p < 1 and
        q = 1 - p, per LogMode.

        Both modes read q above p = 1/2, so a caller that knows q exactly
        (the upper half of a probability-space integral, where p rounds to 1)
        keeps the kernel's relative accuracy there: APPROX forms -log p as
        -log1p(-q), and EXACT hands the pair to ``_neg_ln``, whose residual
        is q - (1 - E_alpha(-t)) wherever t <= 1. ``log_kernel`` is its
        argument checks plus this closure, and every integrand calls the
        closure directly. Where the power overflows the closure returns inf,
        which the quadrature reads as a divergent or non-finite integrand.
        """
        a, gamma_plus = self.alpha, self._gamma_plus
        exp, log, log1p = math.exp, math.log, math.log1p

        # The power is written out in both closures: a shared helper would
        # cost a call at every integrand point.
        def approx(p: float, q: float) -> float:
            try:
                return exp(log(gamma_plus * (-log(p) if p < 0.5 else -log1p(-q))) / a)
            except OverflowError:
                return math.inf

        def exact(p: float, q: float) -> float:
            neg_ln = _neg_ln(self, p, q)
            try:
                return exp(log(neg_ln) / a)
            except OverflowError:
                return math.inf

        return {LogMode.APPROX: approx, LogMode.EXACT: exact}


def as_order(alpha) -> FracOrder:
    """Coerce a float or FracOrder into a validated FracOrder.

    The per-point kernels (``mlf``, ``frac_log``, ``log_kernel``) test for a
    FracOrder inline first, sparing this call at every point.
    """
    if isinstance(alpha, FracOrder):
        return alpha
    return FracOrder(float(alpha))


class LogMode(enum.Enum):
    """Evaluation strategy for the fractional logarithm."""

    APPROX = "approx"
    EXACT = "exact"


def gamma_fn(x: float) -> float:
    """Complete gamma function restricted to positive arguments."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def _mlf_positive(alpha: float, x: float) -> float:
    """E_alpha(x) for x > 0 by its power series, with compensated addition.

    Its terms grow before they fall, so each is formed from its logarithm
    and the sum refused once a term would overflow.
    """
    terms = [1.0]
    log_x = math.log(x)
    budget = min(_SERIES_MAX_TERMS, max(_SERIES_TERMS, math.ceil(25.0 / alpha)))
    for k in range(1, budget):
        log_mag = k * log_x - math.lgamma(alpha * k + 1.0)
        if log_mag > 695.0:
            raise NonConvergentError(
                f"mlf series overflow at alpha={alpha}, x={x}: term exponent {log_mag:.1f}"
            )
        terms.append(math.exp(log_mag))
        if terms[-1] < 1e-18 * terms[0] and k > 4:
            break
    else:
        raise NonConvergentError(f"mlf series did not settle for alpha={alpha}, x={x}")
    return math.fsum(terms)


def _series_pair(order: FracOrder, t: float, offset: float) -> tuple:
    """offset + E_a(-t) - 1 and t dE_a(-t)/dt from the power series, 0 < t <= 1.

    The terms (-t)^k / Gamma(a k + 1), k >= 1, are read off the order's
    table and summed to the first k > 4 below 1e-18 of the first, with
    ``offset`` in the same compensated sum: 1 gives E_a(-t) itself, and q
    gives q - (1 - E_a(-t)) without cancelling against the leading 1.
    """
    coefficients = order._series_coefficients
    floor = 1e-18 * coefficients[0] * t
    terms = []
    for k, coefficient in enumerate(coefficients, 1):
        term = coefficient * t**k
        terms.append(-term if k % 2 else term)
        if term <= floor and k > 4:
            break
    else:
        raise NonConvergentError(f"mlf series did not settle for alpha={order.alpha}, t={t}")
    return math.fsum([offset, *terms]), math.fsum([k * v for k, v in enumerate(terms, 1)])


def _asymptotic_pair(order: FracOrder, t: float) -> tuple:
    """Large-argument expansion E_a(-t) ~ sum_k (-1)^(k+1) t^(-k) / Gamma(1-a*k),
    and t dE_a(-t)/dt ~ -sum_k k (-1)^(k+1) t^(-k) / Gamma(1-a*k).

    All twenty terms are summed. By reflection the k-th term has size
    Gamma(a*k) |sin(pi*a*k)| / (pi * t^k). Its envelope Gamma(a*k) / t^k
    falls over k <= 20 for every t >= 20, so on this branch (t >= 50) the
    expansion has not begun to diverge, and at t = 50 the first term left
    out is below 3e-15 of the sum for orders up to 0.99, where twelve terms
    left up to 2e-11. A term can still be tiny where
    a*k is near an integer and the sine nearly vanishes; that says nothing
    about the terms after it, so no small term ends the sum early. Only
    t^k leaving the float range does: from there on every term is below
    1e-154 of the first, so the partial sum is already exact.
    """
    value = slope = 0.0
    for k, coefficient in enumerate(order._asymptotic_coefficients, 1):
        try:
            t_k = t**k
        except OverflowError:
            break
        term = coefficient / t_k
        value += term
        slope -= k * term
    return value, slope


def _mlf_pair(order: FracOrder, t: float, p: float = 0.0, q: float = 1.0) -> tuple:
    """E_a(-t) - p and t dE_a(-t)/dt for t > 0 and 0 < a < 1, from one pass.

    The branch is the power series for t <= 1, the contour rule for
    1 < t < 50 and the asymptotic expansion from t = 50 on; see the module
    docstring. The series gives q - (1 - E_a(-t)), q = 1 - p, without the
    leading 1, so no digit of q is lost as p nears 1. The contour rule's
    derivative is -Re sum(weight / (s^a + t)^2) on the same 17 nodes. The
    rule's error is absolute, about 7e-16 near order 1, so below
    _CONTOUR_FLOOR its relative error would pass 7e-6. E_a(-t) falls that low on (1, 50) only for orders within about 5e-9 of 1 and t > 20,
    and there it is e^(-t) plus the asymptotic expansion's algebraic tail,
    to within 4e-7 relative against 140-digit series sums.

    The derivative comes scaled by t, so it neither underflows nor
    overflows wherever E_a(-t) itself is a normal float.
    """
    if t <= _SERIES_MAX_T:
        return _series_pair(order, t, q)
    if t >= _ASYMPTOTIC_MIN_T:
        value, slope = _asymptotic_pair(order, t)
        return value - p, slope
    value = slope = 0.0
    for weight, s_a in order._contour:
        denominator = s_a + t
        share = weight / denominator
        value += share.real
        slope += (share / denominator).real
    if value >= _CONTOUR_FLOOR:
        return value - p, -t * slope
    value, slope = _asymptotic_pair(order, t)
    decay = math.exp(-t)
    return decay + value - p, slope - t * decay


def mlf(alpha, x: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(x).

    For x <= 0 the result lies in (0, 1] and is strictly increasing in x.
    The negative axis is split into three branches: the power series on
    [-1, 0), the 17-node parabolic-contour rule on (-50, -1), and the
    20-term asymptotic expansion on (-inf, -50]. The contour rule is within
    4e-13 relative of 40-digit references for orders 0.1 to 0.99 and within
    2e-6 for any order up to 1; see the module docstring. Raises
    NonConvergentError when the power series overflows or does not settle.
    """
    order = alpha if isinstance(alpha, FracOrder) else as_order(alpha)
    a = order.alpha
    if not math.isfinite(x):
        raise DomainError(f"mlf requires finite x, got {x}")
    if a == 1.0:
        return math.exp(x)
    if x == 0.0:
        return 1.0
    if x > 0.0:
        return _mlf_positive(a, x)
    return _mlf_pair(order, -x)[0]


def _neg_ln(order: FracOrder, p: float, q: float) -> float:
    """The t > 0 with E_a(-t) = p, that is -Ln_a p, for 0 < p < 1, q = 1 - p.

    E_a(-t) is completely monotone, so it is decreasing and convex in t, and
    Simon's 1/(1 + Gamma(1-a) t) <= E_a(-t) <= 1/(1 + t/Gamma(1+a)) (Integral
    Transforms Spec. Funct. 2015) and Jensen's exp(-t/Gamma(1+a)) <= E_a(-t),
    from its mean rate 1/Gamma(1+a), bound it. Newton's method on
    E_a(-t) - p (``_mlf_pair``) runs from the larger root of the two lower
    bounds, (q/p)/Gamma(1-a) or Gamma(1+a) (-log p); Jensen's tends to
    Gamma(1+a) q as p -> 1 and to the root itself as a -> 1. Every tangent
    of a decreasing convex function lies below it, so the iterates rise to
    the root, and the upper bound's root Gamma(1+a) q/p only caps them
    against rounding. The error left after a step of size d is about
    E''/(2|E'|) d^2. That factor is 1/t on the algebraic tail
    1/(t Gamma(1-a)), O(1) on the series branch and 1/2 on the e^(-t) that
    E_a(-t) nears as a -> 1, so stopping once d <= 1e-8 t leaves a relative
    error of 1e-16, or 1e-16 t/2 near order 1, where t <= -log p < 40 once
    the e^(-t) part dominates: below the evaluator's own error.

    Beyond t = 1e154 the expansion is its first term to rounding, and so is
    its inverse 1/(p Gamma(1-a)); that is returned without iterating, and is
    inf past the float range.
    """
    neg_log = -math.log(p) if p < 0.5 else -math.log1p(-q)
    a = order.alpha
    if a == 1.0:
        return neg_log
    first = order._asymptotic_coefficients[0]  # 1/Gamma(1-a)
    simon = q * first / p
    if simon > _FIRST_TERM_EXACT:
        return first / p
    t = max(simon, order._gamma_plus * neg_log)
    cap = order._gamma_plus * q / p
    for _ in range(_ROOT_MAXITER):
        residual, slope = _mlf_pair(order, t, p, q)
        step = -residual * t / slope
        t = min(t + step, cap)
        if abs(step) <= _NEWTON_RTOL * t:
            return t
    raise NonConvergentError(f"frac_log root did not settle for alpha={a}, p={p}")


def frac_log(alpha, p: float, mode: LogMode = LogMode.APPROX) -> float:
    """Fractional-order logarithm Ln_alpha(p) on (0, 1], always <= 0.

    APPROX evaluates Gamma(1+alpha) * log(p). EXACT is ``-_neg_ln(p, 1 - p)``:
    Newton's method on E_alpha(-t) = p from the larger of Simon's and
    Jensen's lower bounds on the root, stopped at a relative step of 1e-8,
    which leaves a relative error of about 1e-16 (about 3 evaluations of
    E_alpha and its derivative a root, at most 6 near order 1). Where the
    root passes the float range the result is -inf. The order's constants
    are built once per public call, not once per iteration.
    """
    order = alpha if isinstance(alpha, FracOrder) else as_order(alpha)
    if not math.isfinite(p) or p <= 0.0 or p > 1.0:
        raise DomainError(f"frac_log requires 0 < p <= 1, got {p}")
    if p == 1.0:
        return 0.0
    if mode is LogMode.APPROX:
        return order._gamma_plus * math.log(p)
    return -_neg_ln(order, p, 1.0 - p)


def frac_log_power(alpha, p: float) -> float:
    """Power-scaled fractional logarithm -Gamma(1+alpha) * (-log p)**alpha.

    This is the variant under which the product and power identities of the
    fractional logarithm hold exactly; see the module docstring.
    """
    a = as_order(alpha).alpha
    if not math.isfinite(p) or p <= 0.0 or p > 1.0:
        raise DomainError(f"frac_log_power requires 0 < p <= 1, got {p}")
    if p == 1.0:
        return 0.0
    return -math.gamma(1.0 + a) * (-math.log(p)) ** a


def log_kernel(alpha, p: float, mode: LogMode = LogMode.APPROX) -> float:
    """The measure kernel (-Ln_alpha p)**(1/alpha), short-circuited to 0 at p=1.

    In APPROX mode this is (Gamma(1+alpha) * (-log p))**(1/alpha); every
    cumulative measure integrand is the CDF (or survival) times this kernel.
    Past the float range the kernel is inf.
    """
    order = alpha if isinstance(alpha, FracOrder) else as_order(alpha)
    if not math.isfinite(p) or p <= 0.0 or p > 1.0:
        raise DomainError(f"log_kernel requires 0 < p <= 1, got {p}")
    if p == 1.0:
        return 0.0
    return order._kernels[mode](p, 1.0 - p)


def discrete_frac_entropy(probs, alpha, mode: LogMode = LogMode.APPROX) -> float:
    """Discrete fractional entropy sum_i p_i * (-Ln_alpha p_i)**(1/alpha).

    Zero-probability entries contribute nothing (the 0 * (Ln_alpha 0)**(1/a)
    convention). The vector must be nonnegative and sum to 1 within 1e-12.
    """
    a = as_order(alpha)
    probs = [float(p) for p in probs]
    if not probs:
        raise DomainError("probability vector is empty")
    if any((not math.isfinite(p)) or p < 0.0 for p in probs):
        raise DomainError("probabilities must be finite and nonnegative")
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"probabilities sum to {total}, expected 1 within 1e-12")
    return math.fsum(p * log_kernel(a, min(p, 1.0), mode) for p in probs if p > 0.0)
