"""Mittag-Leffler function, fractional-order logarithms, and the discrete
fractional entropy.

The one-parameter Mittag-Leffler function E_a(x) = sum_k x^k / Gamma(a*k + 1)
generalizes the exponential. Its inverse on (0, 1] acts as a fractional-order
logarithm Ln_a. Three evaluation strategies are exposed:

* ``LogMode.APPROX``: Ln_a(p) ~= Gamma(1+a) * log(p), the linearization that
  every closed-form measure in this library is built on.
* ``LogMode.EXACT``: numeric inversion of E_a by bracketed root search.
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
and step h = 3 / N, so 17 nodes after conjugate symmetry; and the 12-term
large-argument expansion for x <= -50. Against 40-digit references the
contour branch is within 4e-13 relative for orders 0.1 to 0.99, and within
5e-10 up to order 0.99999; larger N is less accurate, because the factor
e^mu at the nodes cancels. That cancellation leaves an absolute error of
about 2e-16, so where E_a(-t) falls below 1e-10 (orders within about 5e-9
of 1) the branch returns e^(-t) plus the asymptotic expansion instead,
within 4e-7 relative; at any order up to 1 the branch is within 2e-6.

The contour nodes and weights, the powers s^a, Gamma(1 +- a), the
expansion's coefficients and the measure kernel's closure per mode depend on
the order only, so each ``FracOrder`` computes them once, on first use, and
every point of a public call shares them.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

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

# Branch boundaries for mlf on the negative axis.
_SERIES_FLOOR = -1.0
_ASYMPTOTIC_CEILING = -50.0

# Trapezoidal rule on the parabolic contour s(u) = mu (1 + iu)^2, u = k h for
# |k| <= N; see the module docstring.
_CONTOUR_N = 16
_CONTOUR_MU = math.pi * _CONTOUR_N / 12.0
_CONTOUR_STEP = 3.0 / _CONTOUR_N
_CONTOUR_FLOOR = 1e-10
_ASYMPTOTIC_TERMS = 12

# Term budget of the power series: 700 terms, or 25/alpha at small orders,
# where 1/Gamma(alpha*k + 1) stays near 1 for hundreds of terms, capped so
# that orders below about 0.0016 are refused at x = -1 in bounded time.
_SERIES_TERMS = 700
_SERIES_MAX_TERMS = 12_500

_ROOT_XTOL = 1e-10
_ROOT_MAXITER = 200
# Relative step at which the complement root's Newton iteration stops.
_ROOT_RTOL = 1e-15


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


@dataclass(frozen=True)
class FracOrder:
    """Validated fractional order, the single parameter of every measure.

    The admissible range is 0 < alpha <= 1; alpha = 1 recovers the classical
    (non-fractional) measures.
    """

    alpha: float

    def __post_init__(self):
        a = self.alpha
        if not isinstance(a, (int, float)) or isinstance(a, bool):
            raise DomainError(f"fractional order must be a real number, got {a!r}")
        if not math.isfinite(a):
            raise DomainError(f"fractional order must be finite, got {a}")
        if not 0.0 < a <= 1.0:
            raise DomainError(f"fractional order must lie in (0, 1], got {a}")
        object.__setattr__(self, "alpha", float(a))

    # Per-order constants of the kernel, each computed on first use and then
    # shared by every point evaluated at this order.

    @_per_order
    def _gamma_plus(self) -> float:
        """Gamma(1 + alpha)."""
        return math.gamma(1.0 + self.alpha)

    @_per_order
    def _gamma_minus(self) -> float:
        """Gamma(1 - alpha), for alpha < 1."""
        return math.gamma(1.0 - self.alpha)

    @_per_order
    def _asymptotic_coefficients(self) -> tuple:
        """(-1)^(k+1) / Gamma(1 - alpha*k) for k = 1..12.

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

        Above p = 1/2 both modes read q, so a caller that knows q exactly
        (the upper half of a probability-space integral, where p rounds to 1)
        keeps the kernel's relative accuracy there: APPROX forms -log p as
        -log1p(-q), and EXACT solves 1 - E_alpha(-t) = q for t = -Ln_alpha p
        (``_complement_root``). ``log_kernel`` is its argument checks plus
        this closure, and every integrand calls the closure directly. Where
        the power overflows the closure returns inf, which the quadrature
        reads as a divergent or non-finite integrand.
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
            neg_ln = _complement_root(self, q) if q < 0.5 else -frac_log(self, p, LogMode.EXACT)
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


def _mlf_series(alpha: float, x: float) -> float:
    """Power series sum_k x^k / Gamma(alpha*k + 1) with compensated addition."""
    terms = [1.0]
    log_ax = math.log(abs(x)) if x != 0.0 else None
    budget = min(_SERIES_MAX_TERMS, max(_SERIES_TERMS, math.ceil(25.0 / alpha)))
    for k in range(1, budget):
        if log_ax is None:
            break
        log_mag = k * log_ax - math.lgamma(alpha * k + 1.0)
        if log_mag > 695.0:
            raise NonConvergentError(
                f"mlf series overflow at alpha={alpha}, x={x}: term exponent {log_mag:.1f}"
            )
        term = math.exp(log_mag)
        if x < 0.0 and k % 2 == 1:
            term = -term
        terms.append(term)
        if abs(term) < 1e-18 * max(1.0, abs(terms[0])) and k > 4:
            break
    else:
        raise NonConvergentError(f"mlf series did not settle for alpha={alpha}, x={x}")
    return math.fsum(terms)


def _mlf_contour(order: FracOrder, x: float) -> float:
    """E_a(-t) by the trapezoidal rule on the parabolic contour, 0 < a < 1.

    The rule's error is absolute, about 2e-16, so below _CONTOUR_FLOOR its
    relative error would pass 2e-6. E_a(-t) falls that low on (-50, -1)
    only for orders within about 5e-9 of 1 and t > 20, and there it is
    e^(-t) plus the asymptotic expansion's algebraic tail, to within 4e-7
    relative against 140-digit series sums.
    """
    t = -x
    value = sum((weight / (s_a + t)).real for weight, s_a in order._contour)
    if value >= _CONTOUR_FLOOR:
        return value
    return math.exp(x) + _mlf_asymptotic(order, x)


def _mlf_asymptotic(order: FracOrder, x: float) -> float:
    """Large-argument expansion E_a(-t) ~ sum_k (-1)^(k+1) t^(-k) / Gamma(1-a*k).

    All twelve terms are summed. By reflection the k-th term has size
    Gamma(a*k) |sin(pi*a*k)| / (pi * t^k). Its envelope Gamma(a*k) / t^k
    falls over k <= 12 for every t >= 12, so on this branch (t >= 50) the
    expansion has not begun to diverge. A term can still be tiny where
    a*k is near an integer and the sine nearly vanishes; that says nothing
    about the terms after it, so no small term ends the sum early. Only
    t^k leaving the float range does: from there on every term is below
    1e-154 of the first, so the partial sum is already exact.
    """
    t = -x
    total = 0.0
    for k, coefficient in enumerate(order._asymptotic_coefficients, 1):
        try:
            t_k = t**k
        except OverflowError:
            break
        total += coefficient / t_k
    return total


def mlf(alpha, x: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(x).

    For x <= 0 the result lies in (0, 1] and is strictly increasing in x.
    The negative axis is split into three branches: the power series on
    [-1, 0), the 17-node parabolic-contour rule on (-50, -1), and the
    12-term asymptotic expansion on (-inf, -50]. The contour rule is within
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
    if x >= _SERIES_FLOOR:
        return _mlf_series(a, x)
    if x > _ASYMPTOTIC_CEILING:
        return _mlf_contour(order, x)
    return _mlf_asymptotic(order, x)


def _complement_root(order: FracOrder, q: float) -> float:
    """The t > 0 with 1 - E_a(-t) = q, that is -Ln_a(1 - q), for 0 < q < 1/2.

    There t < 1 (0.9885 at a = 0.02, q = 1/2), and the series of 1 - E_a(-t)
    without its leading 1 loses no digit of q. Newton's method runs from
    t = Gamma(1+a) q, the root of its first term, to a relative step of
    1e-15; 1 - E_a(-t) is increasing and concave (E_a(-t) is completely
    monotone), so the iterates rise to the root from below.
    """
    a = order.alpha
    if a == 1.0:
        return -math.log1p(-q)
    budget = min(_SERIES_MAX_TERMS, max(_SERIES_TERMS, math.ceil(25.0 / a)))
    t = order._gamma_plus * q
    for _ in range(_ROOT_MAXITER):
        terms = []  # (-1)^(k+1) t^k / Gamma(a k + 1), k >= 1
        for k in range(1, budget):
            terms.append((-1.0) ** (k + 1) * t**k / math.gamma(a * k + 1.0))
            if abs(terms[-1]) < 1e-18 * terms[0] and k > 4:
                break
        else:
            raise NonConvergentError(f"complement series did not settle for alpha={a}, t={t}")
        # The derivative of the series is sum_k k term_k / t.
        step = (q - math.fsum(terms)) * t / math.fsum([k * v for k, v in enumerate(terms, 1)])
        t += step
        if abs(step) <= _ROOT_RTOL * t:
            return t
    raise NonConvergentError(f"complement root did not settle for alpha={a}, q={q}")


def frac_log(alpha, p: float, mode: LogMode = LogMode.APPROX) -> float:
    """Fractional-order logarithm Ln_alpha(p) on (0, 1], always <= 0.

    APPROX evaluates Gamma(1+alpha) * log(p). EXACT above p = 1/2, where
    q = 1 - p is exact, is ``-_complement_root(q)``, to a relative 1e-15.
    At or below 1/2 it solves E_alpha(y) = p by bracketing plus Brent
    iteration (tolerance 1e-10 on y, where |y| > 0.69; at most 200
    iterations), seeding the bracket from the asymptotic inverse
    y ~= -1 / (p * Gamma(1-alpha)) when p is small. Each iteration is one
    ``mlf`` call with this call's ``FracOrder``, so the order's constants
    (see ``mlf``) are built once per public call, not once per iteration.
    """
    order = alpha if isinstance(alpha, FracOrder) else as_order(alpha)
    a = order.alpha
    if not math.isfinite(p) or p <= 0.0 or p > 1.0:
        raise DomainError(f"frac_log requires 0 < p <= 1, got {p}")
    if p == 1.0:
        return 0.0
    if mode is LogMode.APPROX:
        return order._gamma_plus * math.log(p)
    if a == 1.0:
        return math.log(p)
    if p > 0.5:
        return -_complement_root(order, 1.0 - p)

    lo = min(order._gamma_plus * math.log(p), -2.0 / (p * order._gamma_minus))
    for _ in range(80):
        if mlf(order, lo) < p:
            break
        lo *= 2.0
    else:
        raise NonConvergentError(f"no bracket for frac_log(alpha={a}, p={p})")
    # Imported here, not with the package: scipy.optimize costs about 0.3 s
    # at import, which no APPROX caller should pay.
    from scipy.optimize import brentq

    try:
        root = brentq(
            lambda y: mlf(order, y) - p, lo, 0.0, xtol=_ROOT_XTOL, maxiter=_ROOT_MAXITER
        )
    except (ValueError, RuntimeError) as exc:
        raise NonConvergentError(f"frac_log root search failed: {exc}") from exc
    return float(root)


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
