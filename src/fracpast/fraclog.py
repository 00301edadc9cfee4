"""Mittag-Leffler function, fractional-order logarithms, and the discrete
fractional entropy.

The one-parameter Mittag-Leffler function E_a(x) = sum_k x^k / Gamma(a*k + 1)
generalizes the exponential. Its inverse on (0, 1] acts as a fractional-order
logarithm Ln_a. Three evaluation strategies are exposed:

* ``LogMode.APPROX``: Ln_a(p) ~= Gamma(1+a) * log(p), the linearization that
  every closed-form measure in this library is built on.
* ``LogMode.EXACT``: the root t = -Ln_a p of E_a(-t) = p by Halley's
  method on one residual, E_a(-t) - p, started from the larger of two
  closed-form lower bounds on the root (Simon's and Jensen's), with a Newton
  step wherever Halley's denominator is not safely positive.
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
and step h = 3 / N, so 17 nodes after conjugate symmetry; and the
large-argument expansion for x <= -50, whose sums stop before its twentieth
term where no later one can move them. Against 40-digit references the
contour branch is within 4e-13 relative for orders 0.1 to 0.99, and within
5e-10 up to order 0.99999; larger N is less accurate, because the factor
e^mu at the nodes cancels. That cancellation leaves an absolute error of
3e-16 to 2.5e-15 against series sums at 30 + T/2 digits, T = t^(1/a) (the
most near order 0.97, 7e-16 from 0.99999 on), so where E_a(-t) falls below
1e-10 (orders within about 5e-9 of 1) the branch returns e^(-t) plus the
asymptotic expansion instead, within 4e-7 relative; at any order up to 1
the branch is within 2e-6.
Each branch gives the first and second t-derivatives of E_a(-t) from the
same pass, which the EXACT inversion's Halley steps use. Halley's method
converges cubically, so stopping at a relative step of 1e-6 leaves an error
near 1e-16, and a root takes about 2 evaluations, at most 4.

The contour nodes s_k and the order-free part of their weights,
(h/pi) mu z_k e^(s_k), are module constants built at import. Everything
else that depends on the order only is a per-order constant that each
``FracOrder`` builds on its first read and keeps: Gamma(1 + a), the series
coefficients 1/Gamma(a k + 1), the powers s_k^a and the weights that use
them, the expansion's coefficients, whose first is 1/Gamma(1 - a), the two
scalars of its envelope rule, and the measure kernels, whose two closures,
one per mode, are built together. A call builds only what its branch reads,
so a root on the series or contour branch reads the expansion's first
coefficient and builds no other, and every point of a public call, or of
every call given the same ``FracOrder``, shares them.
The two coefficient tables are built only as far as a sum reads them: the
series' first 32 entries, doubled when a sum runs off the end, and the
expansion's terms up to the last one summed. A table grows by storing a
longer tuple in place of the old, so threads that share a ``FracOrder``
may read a shorter table but never a torn one.
"""

from __future__ import annotations

import cmath
import enum
import math
from operator import mul
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
# Below this order the expansion's sine argument is formed from a*k, above it
# from a - 1; see _expansion_coefficients.
_TINY_ORDER = 2.0**-10
# The expansion's envelope rule (see _asymptotic_pair): over the whole
# branch, t >= 50, a guess at the terms after which every later one is below
# 2^-55 of each sum, then a test that it is.
_ENVELOPE_BITS = 63.0
_ENVELOPE_SHARE = 2.0**-55

# Term budget of the power series: 700 terms, or 25/alpha at small orders,
# where 1/Gamma(alpha*k + 1) stays near 1 for hundreds of terms, capped so
# that orders below about 0.0016 are refused at x = -1 in bounded time.
_SERIES_TERMS = 700
_SERIES_MAX_TERMS = 12_500
# Length of the series table's first build.
_SERIES_FIRST = 32

_ROOT_MAXITER = 200
# Relative step at which the Halley iteration for E_a(-t) = p stops; the
# error left after that step is of the order of its cube (see _neg_ln).
_HALLEY_RTOL = 1e-6
# Beyond this t every asymptotic term after the first is below 1e-154 of it,
# so E_a(-t) is 1 / (t Gamma(1 - a)) to rounding.
_FIRST_TERM_EXACT = 1e154


def _contour_nodes() -> tuple:
    """Pairs (c, s) of the nodes u = k h, k = 0..N: s = mu z^2 with
    z = 1 + iu, and c = h/pi * mu z e^s, the part of the node's weight that
    is free of the order, doubled for k > 0 to count the conjugate node -k.
    """
    mu, h = _CONTOUR_MU, _CONTOUR_STEP
    nodes = []
    for k in range(_CONTOUR_N + 1):
        z = complex(1.0, k * h)
        s = mu * z * z
        c = (h / math.pi) * mu * z * cmath.exp(s)
        nodes.append((2.0 * c if k else c, s))
    return tuple(nodes)


_CONTOUR_NODES = _contour_nodes()


def _expansion_coefficients(a: float, ks: range) -> list:
    """(-1)^(k+1) / Gamma(1 - a*k) for k in ks, the expansion's coefficients.

    By reflection 1/Gamma(1 - a*k) = Gamma(a*k) sin(pi*a*k) / pi, and
    sin(pi*a*k) = (-1)^n sin(pi*f) with n the integer nearest a*k and
    f = a*k - n. As the order nears 1 every coefficient is O(1 - a), and
    f = k*(a - 1) + (k - n) keeps 1 - a to the last bit, where a*k rounded
    to a float loses it. Below order 2^-10 it is the other way round: a - 1
    keeps fewer bits of the order the smaller it is, none below 2^-54, and
    there f = a*k - n, which keeps them all. At a pole (a*k an integer) f is
    0. The two signs combine to (-1)^(n+k+1), taken from the parity of n + k.
    """
    gamma, sin, pi = math.gamma, math.sin, math.pi
    tiny, a_less_1 = a < _TINY_ORDER, a - 1.0
    coefficients = []
    for k in ks:
        ak = a * k
        n = round(ak)
        value = gamma(ak) * sin(pi * (ak - n if tiny else k * a_less_1 + (k - n))) / pi
        coefficients.append(value if (n + k) % 2 else -value)
    return coefficients


def _series_budget(a: float) -> int:
    """Term budget of the power series at order a; see _SERIES_TERMS."""
    return min(_SERIES_MAX_TERMS, max(_SERIES_TERMS, math.ceil(25.0 / a)))


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
    def _series(self) -> tuple:
        """1/Gamma(alpha*k + 1) for k = 1, 2, ..., as far as ``_longer_series``
        has grown it, to the first k > 4 below 1e-18 or the term budget.

        On 0 < t <= 1 each term of E_alpha(-t) is at most its coefficient, so
        a table that ends below 1e-18 holds every term the series needs; one
        that ends at the budget (orders below about 0.0016) may not.
        """
        return _longer_series(self, ())

    @_per_order
    def _expansion(self) -> tuple:
        """(-1)^(k+1) / Gamma(1 - alpha*k) for k = 1, 2, ..., as far as
        ``_longer_expansion`` has grown it. It starts as its first entry,
        1/Gamma(1 - alpha), which the EXACT root's start and the envelope
        rule read, so a root off the expansion's branch builds no other."""
        return tuple(_expansion_coefficients(self.alpha, range(1, 2)))

    @_per_order
    def _envelope(self) -> tuple:
        """(h, w / pi) of the expansion's envelope rule, h = log2(2^63 w
        Gamma(1 - alpha)) and w = min(1, 20 pi (1 - alpha)); see
        ``_asymptotic_pair``.
        """
        sine = min(1.0, 20.0 * math.pi * (1.0 - self.alpha))
        return _ENVELOPE_BITS + math.log2(sine / self._expansion[0]), sine / math.pi

    @_per_order
    def _contour(self) -> tuple:
        """Pairs (weight, s^alpha) of the contour nodes u = k h, k = 0..N.

        The weight is h/pi * e^s s^(alpha-1) * s'(u)/(2i), doubled for k > 0
        to count the conjugate node -k, so E_alpha(-t) is the real part of
        sum(weight / (s^alpha + t)). Only s^alpha depends on the order; the
        rest of the weight is the node's constant c.
        """
        a = self.alpha
        nodes = []
        for c, s in _CONTOUR_NODES:
            s_a = s**a
            nodes.append((c * s_a / s, s_a))
        return tuple(nodes)

    @_per_order
    def _kernels(self) -> dict:
        """The kernel (p, q) -> (-Ln_alpha p)**(1/alpha) for 0 < p < 1 and
        q = 1 - p, per LogMode. Both modes' closures are built together, and
        that reads only Gamma(1 + alpha), which every EXACT root reads too.

        Both modes read q above p = 1/2, so a caller that knows q exactly
        (the upper half of a probability-space integral, where p rounds to 1)
        keeps the kernel's relative accuracy there: APPROX forms -log p as
        -log1p(-q), and EXACT hands the pair to ``_neg_ln``, whose residual
        is q - (1 - E_alpha(-t)) wherever t <= 1. ``log_kernel`` is its
        argument checks plus this closure, and every integrand calls the
        closure directly. Where the power overflows the closure returns inf,
        which the quadrature reads as a divergent or non-finite integrand.
        """
        # The power is written out in both closures: a shared helper would
        # cost a call at every integrand point.
        a, gamma_plus = self.alpha, self._gamma_plus
        exp, log, log1p = math.exp, math.log, math.log1p

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
    for k in range(1, _series_budget(alpha)):
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
    """offset + E_a(-t) - 1, t dE_a(-t)/dt and t^2 d^2E_a(-t)/dt^2 from the
    power series, 0 < t <= 1.

    The terms (-t)^k / Gamma(a k + 1), k >= 1, are read off the order's
    table and summed to the first k > 4 below 1e-18 of the first, with
    ``offset`` in the same compensated sum: 1 gives E_a(-t) itself, and q
    gives q - (1 - E_a(-t)) without cancelling against the leading 1. The
    derivatives sum the same terms times k and k (k - 1). A sum that runs
    off the end of the table built so far doubles it and goes on.
    """
    coefficients = order._series
    floor = 1e-18 * coefficients[0] * t
    terms = []
    while True:
        for k, coefficient in enumerate(coefficients[len(terms):], len(terms) + 1):
            term = coefficient * t**k
            terms.append(-term if k % 2 else term)
            if term <= floor and k > 4:
                slopes = list(map(mul, range(1, k + 1), terms))
                return (math.fsum([offset, *terms]), math.fsum(slopes),
                        math.fsum(map(mul, range(k), slopes)))
        coefficients = _longer_series(order, coefficients)
        if coefficients is None:
            raise NonConvergentError(f"mlf series did not settle for alpha={order.alpha}, t={t}")


def _longer_series(order: FracOrder, table: tuple) -> tuple | None:
    """``order._series`` doubled in length, or first built, and stored in
    its place; None where ``table`` already ends below 1e-18 or at the term
    budget."""
    a, n = order.alpha, len(table)
    last = _series_budget(a) - 1
    if n >= last or (n > 4 and table[-1] < 1e-18):
        return None
    entries = list(table)
    for k in range(n + 1, min(max(2 * n, _SERIES_FIRST), last) + 1):
        entries.append(1.0 / math.gamma(a * k + 1.0))
        if entries[-1] < 1e-18 and k > 4:
            break
    table = order.__dict__["_series"] = tuple(entries)
    return table


def _longer_expansion(order: FracOrder, n: int) -> tuple:
    """``order._expansion`` extended to n entries and stored in its place."""
    table = order._expansion
    ks = range(len(table) + 1, n + 1)
    table = order.__dict__["_expansion"] = (*table, *_expansion_coefficients(order.alpha, ks))
    return table


def _asymptotic_pair(order: FracOrder, t: float) -> tuple:
    """Large-argument expansion E_a(-t) ~ sum_k (-1)^(k+1) t^(-k) / Gamma(1-a*k),
    with t dE_a(-t)/dt and t^2 d^2E_a(-t)/dt^2 from the same terms times -k
    and k (k + 1), k <= 20.

    By reflection the k-th term has size Gamma(a*k) |sin(pi*a*k)| / (pi t^k),
    at most its envelope G_k / t^k with G_k = Gamma(a*k) / pi. The envelope
    falls over k <= 20 for every t >= 20, so on this branch (t >= 50) the
    expansion has not begun to diverge, and at t = 50 the twentieth term
    is below 3e-15 of the sum for orders up to 0.99, where twelve terms
    left up to 2e-11. A term can be tiny where a*k is near an integer and
    the sine nearly vanishes; that says nothing about the terms after it,
    so no small term ends the sum.

    One loop sums the first n terms, n = 20 wherever no envelope test
    applies: below t = 50, where the contour rule hands over near order 1,
    and where the first guess below is 20 or more. Elsewhere on the branch
    n is that guess, and terms are added one at a time until an envelope
    test passes. As |sin(pi*a*k)| = |sin(pi*k*(1-a))|
    <= 20 pi (1-a) for k <= 20, the envelope can be G_k = w Gamma(a*k) / pi
    with w = min(1, 20 pi (1-a)), which is small near order 1.
    Gamma(a(k+1)) / Gamma(a*k) < 21 for a < 1 and k < 20, so wherever
    21/t < 1 every term after the n-th is at most B_n = G_n / t^n * 21/t,
    and its slope term at most 20 B_n. Where both are below 2^-55 of their
    sums, half what rounding needs at a power of two, no later term can move
    either sum, and the partial sums equal those of all twenty terms bit for
    bit. The first guess is the least n with
    t^n >= 2^63 w Gamma(1-a) Gamma(a(n0+1)), n0 the same without the last
    factor: there 20 B_n is just below 2^-55 of the first term
    1/(Gamma(1-a) t). After a failed test the next term is added and the
    test repeated with B_n t/21 in place of B_n. Each later curvature term
    is at most 21 times the slope's bound, so the curvature's partial sum
    is within about 2^-50 of the twenty-term one, far closer than a Halley
    step needs. From where t^k leaves the float range every term is below
    1e-154 of the first, so the partial sum is already exact.
    """
    n = _ASYMPTOTIC_TERMS
    if t >= _ASYMPTOTIC_MIN_T:
        head, scale = order._envelope
        log2_t = math.log2(t)
        guess = math.ceil((head + math.log2(math.gamma(order.alpha * (head / log2_t + 1.0)))) / log2_t)
        if guess < n:
            n = guess
    coefficients = order._expansion
    if len(coefficients) < n:
        coefficients = _longer_expansion(order, n)
    value = slope = curve = 0.0
    for k, coefficient in enumerate(coefficients[:n], 1):
        try:
            t_k = t**k
        except OverflowError:
            break
        term = coefficient / t_k
        value += term
        term *= k
        slope -= term
        curve += (k + 1) * term
    if n == _ASYMPTOTIC_TERMS:
        return value, slope, curve
    # n > 1 only where t < 2^123, so t^n < 2^246: no power above overflowed.
    ratio = 21.0 / t
    bound = scale * math.gamma(order.alpha * n) / t_k * ratio
    while (bound > _ENVELOPE_SHARE * abs(value)
           or 20.0 * bound > _ENVELOPE_SHARE * abs(slope)):
        if k == _ASYMPTOTIC_TERMS:
            break
        k += 1
        if len(coefficients) < k:
            coefficients = _longer_expansion(order, k)
        try:
            t_k = t**k
        except OverflowError:
            break
        term = coefficients[k - 1] / t_k
        value += term
        term *= k
        slope -= term
        curve += (k + 1) * term
        bound *= ratio
    return value, slope, curve


def _mlf_pair(order: FracOrder, t: float, p: float = 0.0, q: float = 1.0) -> tuple:
    """E_a(-t) - p, t dE_a(-t)/dt and t^2 d^2E_a(-t)/dt^2 for t > 0 and
    0 < a < 1, from one pass.

    The branch is the power series for t <= 1, the contour rule for
    1 < t < 50 and the asymptotic expansion from t = 50 on; see the module
    docstring. The series gives q - (1 - E_a(-t)), q = 1 - p, without the
    leading 1, so no digit of q is lost as p nears 1. The contour rule's
    derivatives are -Re sum(weight / (s^a + t)^2) and
    2 Re sum(weight / (s^a + t)^3) on the same 17 nodes. The
    rule's error is absolute, about 7e-16 near order 1, so below
    _CONTOUR_FLOOR its relative error would pass 7e-6. E_a(-t) falls that low on (1, 50) only for orders within about 5e-9 of 1 and t > 20,
    and there it is e^(-t) plus the asymptotic expansion's algebraic tail,
    to within 4e-7 relative against 140-digit series sums.

    The derivatives come scaled by t and t^2, so they neither underflow nor
    overflow wherever E_a(-t) itself is a normal float.
    """
    if t <= _SERIES_MAX_T:
        return _series_pair(order, t, q)
    if t >= _ASYMPTOTIC_MIN_T:
        value, slope, curve = _asymptotic_pair(order, t)
        return value - p, slope, curve
    value = slope = curve = 0.0
    for weight, s_a in order._contour:
        denominator = s_a + t
        share = weight / denominator
        value += share.real
        share /= denominator
        slope += share.real
        curve += (share / denominator).real
    if value >= _CONTOUR_FLOOR:
        return value - p, -t * slope, 2.0 * t * t * curve
    value, slope, curve = _asymptotic_pair(order, t)
    decay = math.exp(-t)
    return decay + value - p, slope - t * decay, curve + t * t * decay


def mlf(alpha, x: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(x).

    For x <= 0 the result lies in (0, 1] and is strictly increasing in x.
    The negative axis is split into three branches: the power series on
    [-1, 0), the 17-node parabolic-contour rule on (-50, -1), and the
    asymptotic expansion on (-inf, -50], up to 20 terms, only those that
    can move the result. The contour rule is within
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
    from its mean rate 1/Gamma(1+a), bound it. Halley's method on
    f(t) = E_a(-t) - p runs from the larger root of the two lower bounds,
    (q/p)/Gamma(1-a) or Gamma(1+a) (-log p); Jensen's tends to Gamma(1+a) q
    as p -> 1 and to the root itself as a -> 1. ``_mlf_pair`` gives
    r = f, s = t f' and c = t^2 f'' from one pass, and Halley's step
    -2 f f' / (2 f'^2 - f f'') is Newton's, -r t / s, times
    2 s^2 / (2 s^2 - r c). Left of the root r and c are positive, so the
    factor is above 1: the step is longer than Newton's, which stops short
    of the root on a decreasing convex function, and it can pass the root.
    Where r c >= s^2, so that the denominator 2 s^2 - r c is below s^2 and
    the factor would pass 2, Newton's step is taken instead. Every step from
    the left is then at most twice Newton's, so one that passes the root
    lands no farther past it than the iterate it left was short of it, and
    the upper bound's root Gamma(1+a) q/p caps it as well. From the right r
    is negative and the factor below 1, a shorter step than Newton's.

    The error left after a step of size d is about K d^3 / t^2, with
    K = t^2 (c2^2 - c3) and ck = f^(k) / (k! f') (Gander, Amer. Math.
    Monthly 1985). K is 0 on the algebraic tail 1/(t Gamma(1-a)), where
    Halley's step is exact, and t^2/12 on the e^(-t) that E_a(-t) nears as
    a -> 1; against mpmath it stays below max(1, t^2/12) at orders 0.1 to
    0.999 and t from 0.3 to 1000. So stopping once d <= 1e-6 t leaves a
    relative error of 1e-18, or 1e-18 t^2/12 near order 1, where
    t <= -log p < 40 once the e^(-t) part dominates: at most about 1e-16,
    below the evaluator's own error. A root takes 2.0 evaluations on
    average over orders 0.45 to 0.97 and p from 1e-9 to 1/2, and at most 4.

    Beyond t = 1e154 the expansion is its first term to rounding, and so is
    its inverse 1/(p Gamma(1-a)); that is returned without iterating, and is
    inf past the float range.
    """
    neg_log = -math.log(p) if p < 0.5 else -math.log1p(-q)
    a = order.alpha
    if a == 1.0:
        return neg_log
    first = order._expansion[0]
    simon = q * first / p
    if simon > _FIRST_TERM_EXACT:
        return first / p
    t = max(simon, order._gamma_plus * neg_log)
    cap = order._gamma_plus * q / p
    for _ in range(_ROOT_MAXITER):
        residual, slope, curve = _mlf_pair(order, t, p, q)
        step = -residual * t / slope
        rc, s2 = residual * curve, slope * slope
        if rc < s2:
            step *= 2.0 * s2 / (2.0 * s2 - rc)
        t = min(t + step, cap)
        if abs(step) <= _HALLEY_RTOL * t:
            return t
    raise NonConvergentError(f"frac_log root did not settle for alpha={a}, p={p}")


def frac_log(alpha, p: float, mode: LogMode = LogMode.APPROX) -> float:
    """Fractional-order logarithm Ln_alpha(p) on (0, 1], always <= 0.

    APPROX evaluates Gamma(1+alpha) * log(p). EXACT is ``-_neg_ln(p, 1 - p)``:
    Halley's method on E_alpha(-t) = p from the larger of Simon's and
    Jensen's lower bounds on the root, with a Newton step wherever Halley's
    denominator is not safely positive, stopped at a relative step of 1e-6,
    which leaves a relative error of about 1e-16 (about 2 evaluations of
    E_alpha and its two derivatives a root, at most 4). Where the root
    passes the float range the result is -inf. A float order builds
    the per-order constants its root reads (Gamma(1+alpha), the expansion
    table's first entry 1/Gamma(1-alpha), and the table of each branch its
    iterates visit, as far as their sums read it) once per call, not once
    per iteration; it builds no kernel closure, where ``log_kernel`` builds
    both modes' together. The contour's order-free constants are built at
    import, and a FracOrder passed in keeps its constants across calls.
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
