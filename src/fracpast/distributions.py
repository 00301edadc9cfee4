"""Lifetime distribution catalog with a uniform numeric contract.

Every distribution exposes cdf, pdf, survival, quantile, mean, and sampling,
plus finite-or-infinite support endpoints that integration routines rely on.
The base class owns one support rule: cdf reads 0 at and below ``lower`` and
1 at and above ``upper``, survival the mirror, pdf 0 outside [lower, upper],
quantile the ends at p = 0 and 1, and each refuses a NaN argument. A family
gives only its closed forms inside: ``_cdf`` and ``_survival`` on the open
support, ``_pdf`` on the closed one, ``_quantile`` on 0 < p < 1. The base
``_survival`` is 1 - cdf, and the base ``_quantile`` and ``mean`` bisect the
cdf and integrate the survival function. A subclass may still override the
public methods, and then answers at the ends itself.

Transforms (affine rescaling, proportional reversed hazard, independent sum)
wrap an existing distribution and preserve the same contract, so measure code
never needs to distinguish primitive from derived families.

Each catalog family, and an affine or prhr wrapper around one, also gives its
quantile density ``qd``: a closure ``(p, q) -> 1/f(Q(p))``, ``q = 1 - p``,
that the probability-space measures bind once per call. It reads p where p
is the small side and q where q is, so neither end loses digits, and it may
raise OverflowError where its value passes the float range. A law with no
closed form (a numeric convolution, a point mass) leaves ``qd`` at None, and
its measures run over levels of its x range, reading its own cdf and survival.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Callable, List, Tuple

from .errors import DomainError, UnsupportedError
from .quadrature import _ROW_CFG, _graded

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AffineTransformed",
    "Beta",
    "Degenerate",
    "Distribution",
    "Exponential",
    "Frechet",
    "LogUniform",
    "ParetoType",
    "PrhrTransformed",
    "TriangularSum",
    "Uniform",
    "UniformSum",
    "Weibull",
    "affine",
    "independent_sum",
    "make",
    "parse_spec",
    "prhr",
]

_QUANTILE_TOL = 1e-10


def _positive(what: str, *values) -> None:
    """Raise DomainError unless every value is finite and > 0."""
    if not all(math.isfinite(v) and v > 0 for v in values):
        got = values[0] if len(values) == 1 else f"({', '.join(map(str, values))})"
        raise DomainError(f"{what} must be positive, got {got}")


class Distribution:
    """Base class: subclasses set family, params, lower and upper, and give
    ``_cdf`` and ``_pdf`` (or override the public ``cdf`` and ``pdf``)."""

    family: str = "abstract"
    # The quantile density closure (p, q) -> 1/f(Q(p)); None where the law
    # has no closed form, which puts its measures on levels of x. The
    # levels p in (0, 1) where its slope jumps are qd_kinks.
    qd = None
    qd_kinks = ()

    def __init__(self):
        self.params: dict = {}
        self.lower: float = 0.0
        self.upper: float = math.inf

    def cdf(self, x: float) -> float:
        """1 at and above ``upper``, 0 at and below ``lower``, else ``_cdf(x)``."""
        if x >= self.upper:
            return 1.0
        if x > self.lower:
            return self._cdf(x)
        if x <= self.lower:
            return 0.0
        raise DomainError(f"cdf requires a number, got {x}")

    def survival(self, x: float) -> float:
        """0 at and above ``upper``, 1 at and below ``lower``, else ``_survival(x)``."""
        if x >= self.upper:
            return 0.0
        if x > self.lower:
            return self._survival(x)
        if x <= self.lower:
            return 1.0
        raise DomainError(f"survival requires a number, got {x}")

    def pdf(self, x: float) -> float:
        """``_pdf(x)`` on [lower, upper], 0 outside it."""
        if self.lower <= x <= self.upper:
            return self._pdf(x)
        if math.isnan(x):
            raise DomainError(f"pdf requires a number, got {x}")
        return 0.0

    def quantile(self, p: float) -> float:
        """Inverse CDF: the support ends at p = 0 and 1, else ``_quantile(p)``."""
        if 0.0 < p < 1.0:
            return self._quantile(p)
        if p == 0.0:
            return self.lower
        if p == 1.0:
            return self.upper
        raise DomainError(f"quantile requires p in [0, 1], got {p}")

    def _cdf(self, x: float) -> float:
        raise NotImplementedError

    def _survival(self, x: float) -> float:
        return 1.0 - self.cdf(x)

    def _pdf(self, x: float) -> float:
        raise NotImplementedError

    def _quantile(self, p: float) -> float:
        """Inverse CDF for 0 < p < 1 by bracketed bisection to a relative
        width, or until no float lies between the ends (subclasses override
        with closed forms where available)."""
        lo = self.lower
        if math.isinf(self.upper):
            hi = max(lo + 1.0, 1.0)
            for _ in range(400):
                if self.cdf(hi) >= p:
                    break
                hi = lo + 2.0 * (hi - lo)
            else:
                raise DomainError(f"could not bracket quantile({p})")
        else:
            hi = self.upper
        mid = 0.5 * (lo + hi)
        while hi - lo > _QUANTILE_TOL * max(abs(lo), abs(hi)) and lo < mid < hi:
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        return mid

    def mean(self) -> float:
        """E[X] = lower + integral of the survival function over the support."""
        from .entropy import _cumulative  # entropy imports this module

        res = _cumulative(self, lambda p, q: p, survival=True)
        if res.diverged:
            return math.inf
        return self.lower + res.value

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-transform sampling, written over the generator's own uniforms."""
        u = rng.random(n)
        for i, ui in enumerate(u):
            u[i] = self.quantile(float(ui))
        return u

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{self.family}({inner})"


class Uniform(Distribution):
    """Uniform law on [0, scale]."""

    family = "uniform"

    def __init__(self, scale: float = 1.0):
        super().__init__()
        _positive("uniform scale", scale)
        self.scale = float(scale)
        self.params = {"scale": self.scale}
        self.lower, self.upper = 0.0, self.scale

    def _cdf(self, x):
        return x / self.scale

    def _survival(self, x):
        return (self.scale - x) / self.scale

    def _pdf(self, x):
        return 1.0 / self.scale

    def _quantile(self, p):
        return p * self.scale

    @property
    def qd(self):
        scale = self.scale
        return lambda p, q: scale

    def mean(self):
        return 0.5 * self.scale


class Exponential(Distribution):
    """Exponential law with rate parameter."""

    family = "exponential"

    def __init__(self, rate: float = 1.0):
        super().__init__()
        _positive("exponential rate", rate)
        self.rate = float(rate)
        self.params = {"rate": self.rate}

    def _cdf(self, x):
        return -math.expm1(-self.rate * x)

    def _survival(self, x):
        return math.exp(-self.rate * x)

    def _pdf(self, x):
        return self.rate * math.exp(-self.rate * x)

    def _quantile(self, p):
        return -math.log1p(-p) / self.rate

    @property
    def qd(self):
        mean = 1.0 / self.rate
        return lambda p, q: mean / q

    def mean(self):
        return 1.0 / self.rate


class Frechet(Distribution):
    """Frechet law F(x) = exp(-scale * x**(-shape)) on x > 0.

    The mean is finite only for shape > 1.
    """

    family = "frechet"

    def __init__(self, shape: float, scale: float = 1.0):
        super().__init__()
        _positive("frechet shape", shape)
        _positive("frechet scale", scale)
        self.shape, self.scale = float(shape), float(scale)
        self.params = {"shape": self.shape, "scale": self.scale}

    def _cdf(self, x):
        try:
            return math.exp(-self.scale * x ** (-self.shape))
        except OverflowError:  # x**(-shape) beyond the float range: F underflows
            return 0.0

    def _survival(self, x):
        try:
            return -math.expm1(-self.scale * x ** (-self.shape))
        except OverflowError:  # x**(-shape) beyond the float range: S rounds to 1
            return 1.0

    def _pdf(self, x):
        F = self.cdf(x)
        if F == 0.0:  # at x = 0, or the power below may overflow: the limit is 0
            return 0.0
        try:
            return self.scale * self.shape * x ** (-self.shape - 1.0) * F
        except OverflowError:  # F > 0 means x**(-shape) is in range; divide by x last
            return self.scale * self.shape * (x ** (-self.shape) * F) / x

    def _quantile(self, p):
        return (self.scale / (-math.log(p))) ** (1.0 / self.shape)

    @property
    def qd(self):
        shape, scale, inv = self.shape, self.scale, 1.0 / self.shape
        log, log1p = math.log, math.log1p

        def qd(p, q):  # Q / (shape p L), L = -log p
            L = -log(p) if p < 0.5 else -log1p(-q)
            return (scale / L) ** inv / shape / p / L

        return qd

    def mean(self):
        if self.shape <= 1.0:
            return math.inf
        return self.scale ** (1.0 / self.shape) * math.gamma(1.0 - 1.0 / self.shape)


class ParetoType(Distribution):
    """Heavy-tailed law F(x) = 1 - (1 + x)**(-k) on x >= 0 (Lomax form)."""

    family = "pareto"

    def __init__(self, k: float):
        super().__init__()
        _positive("pareto index", k)
        self.k = float(k)
        self.params = {"k": self.k}

    def _cdf(self, x):
        return 1.0 - (1.0 + x) ** (-self.k)

    def _survival(self, x):
        return (1.0 + x) ** (-self.k)

    def _pdf(self, x):
        return self.k * (1.0 + x) ** (-self.k - 1.0)

    def _quantile(self, p):
        return (1.0 - p) ** (-1.0 / self.k) - 1.0

    @property
    def qd(self):
        k, power = self.k, -1.0 / self.k - 1.0
        return lambda p, q: q ** power / k

    def mean(self):
        return 1.0 / (self.k - 1.0) if self.k > 1.0 else math.inf


class Weibull(Distribution):
    """Weibull law F(x) = 1 - exp(-(x / scale)**shape)."""

    family = "weibull"

    def __init__(self, scale: float = 1.0, shape: float = 1.0):
        super().__init__()
        _positive("weibull scale", scale)
        _positive("weibull shape", shape)
        self.scale, self.shape = float(scale), float(shape)
        self.params = {"scale": self.scale, "shape": self.shape}

    def _cdf(self, x):
        try:
            return -math.expm1(-((x / self.scale) ** self.shape))
        except OverflowError:  # (x/scale)**shape beyond the float range: F rounds to 1
            return 1.0

    def _survival(self, x):
        try:
            return math.exp(-((x / self.scale) ** self.shape))
        except OverflowError:  # (x/scale)**shape beyond the float range: S underflows
            return 0.0

    def _pdf(self, x):
        try:
            z = (x / self.scale) ** self.shape
        except OverflowError:  # z beyond the float range, so exp(-z) is 0
            return 0.0
        if z == 0.0 or z > 746.0:  # at x = 0, or exp(-z) is exactly 0; shape / x * z may be inf
            return 0.0
        density = self.shape / x * z
        if density == math.inf:  # shape / x overflows at subnormal x: divide by x last
            density = self.shape * z / x
        return density * math.exp(-z)

    def _quantile(self, p):
        return self.scale * (-math.log1p(-p)) ** (1.0 / self.shape)

    @property
    def qd(self):
        c, power = self.scale / self.shape, 1.0 / self.shape - 1.0
        log, log1p = math.log, math.log1p

        def qd(p, q):  # scale L^(1/shape - 1) / (shape q), L = -log q
            L = -log1p(-p) if p < 0.5 else -log(q)
            return c * L ** power / q

        return qd

    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)


class LogUniform(Distribution):
    """Log-uniform law on [a, b], density proportional to 1/x."""

    family = "loguniform"

    def __init__(self, a: float, b: float):
        super().__init__()
        if not (math.isfinite(a) and math.isfinite(b) and 0 < a < b):
            raise DomainError(f"loguniform requires 0 < a < b, got ({a}, {b})")
        self.a, self.b = float(a), float(b)
        self.params = {"a": self.a, "b": self.b}
        self.lower, self.upper = self.a, self.b
        self._log_ratio = math.log(self.b / self.a)

    def _cdf(self, x):
        return math.log(x / self.a) / self._log_ratio

    def _survival(self, x):
        """log(b/x) / log(b/a), with log(b/x) as log1p((b - x)/x): b/x rounds
        near 1, b - x does not."""
        return math.log1p((self.b - x) / x) / self._log_ratio

    def _pdf(self, x):
        return 1.0 / (x * self._log_ratio)

    def _quantile(self, p):
        return self.a * (self.b / self.a) ** p

    @property
    def qd(self):
        a, ratio, log_ratio = self.a, self.b / self.a, self._log_ratio
        return lambda p, q: a * ratio ** p * log_ratio

    def mean(self):
        return (self.b - self.a) / self._log_ratio


class Beta(Distribution):
    """Beta law on [0, 1] with positive shape parameters p and q."""

    family = "beta"

    def __init__(self, p: float, q: float):
        super().__init__()
        _positive("beta shapes", p, q)
        self.p, self.q = float(p), float(q)
        self.params = {"p": self.p, "q": self.q}
        self.lower, self.upper = 0.0, 1.0
        self._log_beta = math.lgamma(self.p) + math.lgamma(self.q) - math.lgamma(self.p + self.q)
        # scipy costs about 0.3 s to import, and only this law uses it, so
        # it loads with the first Beta, not with the package.
        # Bound once per law, so cdf and quantile pay no import per call.
        from scipy.special import betainc, betaincinv

        self._betainc, self._betaincinv = betainc, betaincinv

    def _cdf(self, x):
        return float(self._betainc(self.p, self.q, x))

    def _survival(self, x):
        """The CDF of the reflected law Beta(q, p) at 1 - x."""
        return float(self._betainc(self.q, self.p, 1.0 - x))

    def _pdf(self, x):
        if not 0.0 < x < 1.0:  # log(x) or log1p(-x) fails at an end
            return 0.0
        return math.exp(
            (self.p - 1.0) * math.log(x)
            + (self.q - 1.0) * math.log1p(-x)
            - self._log_beta
        )

    def _quantile(self, p):
        return float(self._betaincinv(self.p, self.q, p))

    @property
    def qd(self):
        a, b, log_beta, inv = self.p, self.q, self._log_beta, self._betaincinv
        exp, log, log1p = math.exp, math.log, math.log1p

        def qd(p, q):  # B(a, b) x^(1 - a) (1 - x)^(1 - b) at x = Q(p)
            # Above 1/2, y = 1 - x comes from the reflected law Beta(b, a)
            # at q, so it keeps its digits as x nears 1.
            if p <= 0.5:
                x = float(inv(a, b, p))
                if x == 0.0:  # past the float range: the point counts as 0
                    return 0.0
                log_x, log_y = log(x), log1p(-x)
            else:
                y = float(inv(b, a, q))
                if y == 0.0:
                    return 0.0
                log_x, log_y = log1p(-y), log(y)
            return exp(log_beta - (a - 1.0) * log_x - (b - 1.0) * log_y)

        return qd

    def mean(self):
        return self.p / (self.p + self.q)


class Degenerate(Distribution):
    """Point mass at c; every cumulative measure of it is zero."""

    family = "degenerate"

    def __init__(self, c: float = 0.0):
        super().__init__()
        if not math.isfinite(c) or c < 0:
            raise DomainError(f"degenerate point must be finite and >= 0, got {c}")
        self.c = float(c)
        self.params = {"c": self.c}
        self.lower = self.upper = self.c

    def _pdf(self, x):
        return 0.0

    def _quantile(self, p):
        return self.c

    def mean(self):
        return self.c


class AffineTransformed(Distribution):
    """Y = scale * X + shift with scale > 0 and shift >= 0."""

    family = "affine"

    def __init__(self, base: Distribution, scale: float, shift: float = 0.0):
        super().__init__()
        _positive("affine scale", scale)
        if not (math.isfinite(shift) and shift >= 0):
            raise DomainError(f"affine shift must be >= 0, got {shift}")
        self.base = base
        self.scale, self.shift = float(scale), float(shift)
        self.params = {"base": base, "scale": self.scale, "shift": self.shift}
        self.lower = self.scale * base.lower + self.shift
        self.upper = self.scale * base.upper + self.shift

    def _cdf(self, x):
        return self.base.cdf((x - self.shift) / self.scale)

    def _survival(self, x):
        return self.base.survival((x - self.shift) / self.scale)

    def _pdf(self, x):
        return self.base.pdf((x - self.shift) / self.scale) / self.scale

    def _quantile(self, p):
        return self.scale * self.base.quantile(p) + self.shift

    @property
    def qd_kinks(self):
        return self.base.qd_kinks

    @property
    def qd(self):
        """scale * qd of the base; the shift drops out."""
        base, scale = self.base.qd, self.scale
        if base is None:
            return None
        return lambda p, q: scale * base(p, q)

    def mean(self):
        return self.scale * self.base.mean() + self.shift


class PrhrTransformed(Distribution):
    """Proportional reversed hazard tilt: G(x) = F(x)**delta, delta > 0.

    Integer delta is the distribution of the maximum of delta iid copies.
    """

    family = "prhr"

    def __init__(self, base: Distribution, delta: float):
        super().__init__()
        _positive("prhr exponent", delta)
        self.base = base
        self.delta = float(delta)
        self.params = {"base": base, "delta": self.delta}
        self.lower, self.upper = base.lower, base.upper

    def cdf(self, x):
        return self.base.cdf(x) ** self.delta

    def survival(self, x):
        """1 - F^delta as -expm1(delta log F), log F from log1p(-S) once F >= 1/2."""
        F = self.base.cdf(x)
        if F <= 0.0:
            return 1.0
        log_F = math.log(F) if F < 0.5 else math.log1p(-self.base.survival(x))
        return -math.expm1(self.delta * log_F)

    def pdf(self, x):
        F = self.base.cdf(x)
        if F <= 0.0:
            return 0.0
        return self.delta * F ** (self.delta - 1.0) * self.base.pdf(x)

    def _quantile(self, p):
        return self.base.quantile(p ** (1.0 / self.delta))

    @property
    def qd_kinks(self):
        return tuple(p ** self.delta for p in self.base.qd_kinks)

    @property
    def qd(self):
        """qd0(v, 1 - v) * v^(1 - delta) / delta at v = p^(1/delta), from
        l = log p (log1p(-q) above 1/2), with 1 - v = -expm1(l / delta)."""
        base, delta = self.base.qd, self.delta
        if base is None:
            return None
        inv, power = 1.0 / delta, 1.0 / delta - 1.0
        exp, expm1, log, log1p = math.exp, math.expm1, math.log, math.log1p

        def qd(p, q):
            ell = log(p) if p < 0.5 else log1p(-q)
            t = ell * inv
            v, w = exp(t), -expm1(t)
            if v == 0.0 or w == 0.0:  # past the float range: the point counts as 0
                return 0.0
            return base(v, w) * exp(power * ell) / delta

        return qd


class UniformSum(Distribution):
    """Sum of independent Uniform(0, a) and Uniform(0, b), trapezoidal."""

    family = "uniformsum"

    def __init__(self, a: float, b: float):
        super().__init__()
        _positive("uniformsum widths", a, b)
        self.a, self.b = (float(min(a, b)), float(max(a, b)))
        self.params = {"a": self.a, "b": self.b}
        self.lower, self.upper = 0.0, self.a + self.b

    # y^2 / (2ab) and y / (ab) in ratios: the products y*y and ab leave the
    # float range at widths near 1e+-150, the ratios y/a and y/b do not.

    def _half_square(self, y):
        return 0.5 * (y / self.a) * (y / self.b)

    def _cdf(self, x):
        a, b = self.a, self.b
        if x <= a:
            return self._half_square(x)
        if x <= b:
            return (x - 0.5 * a) / b
        return 1.0 - self._half_square(a + b - x)

    def _survival(self, x):
        a, b = self.a, self.b
        if x <= a:
            return 1.0 - self._half_square(x)
        if x <= b:
            return (b + 0.5 * a - x) / b
        return self._half_square(a + b - x)

    def _pdf(self, x):
        a, b = self.a, self.b
        if x <= a:
            return x / a / b
        if x <= b:
            return 1.0 / b
        return (a + b - x) / a / b

    @property
    def qd_kinks(self):
        r = self.a / self.b
        return (0.5 * r, 1.0 - 0.5 * r)

    @property
    def qd(self):
        """a / sqrt(2 r m) on the two ramps, m = min(p, q), b on the flat."""
        a, b, r = self.a, self.b, self.a / self.b
        ramp, sqrt = 0.5 * r, math.sqrt
        c = a / sqrt(2.0 * r)

        def qd(p, q):
            m = p if p < q else q
            return c / sqrt(m) if m < ramp else b

        return qd

    def _quantile(self, p):
        r = self.a / self.b  # in (0, 1]: no product a * b to overflow or underflow
        if p <= 0.5 * r:
            return self.b * math.sqrt(2.0 * p * r)
        if p < 1.0 - 0.5 * r:
            return self.b * p + 0.5 * self.a
        return self.a + self.b - self.b * math.sqrt(2.0 * (1.0 - p) * r)

    def mean(self):
        return 0.5 * (self.a + self.b)


class TriangularSum(UniformSum):
    """Sum of two independent standard uniforms: triangular on [0, 2]."""

    family = "triangularsum"

    def __init__(self):
        super().__init__(1.0, 1.0)
        self.params = {}


class _ConvolutionSum(Distribution):
    """Numeric convolution of two bounded distributions."""

    family = "sum"

    def __init__(self, d1: Distribution, d2: Distribution):
        super().__init__()
        self.d1, self.d2 = d1, d2
        self.params = {"first": d1, "second": d2}
        self.lower = d1.lower + d2.lower
        self.upper = d1.upper + d2.upper

    def _cdf(self, x):
        lo, value = self._row(x, self.d1.cdf, 1.0)
        # Below lo, F1(x - y) = 1: that part is F2(lo), in closed form.
        return min(1.0, max(0.0, self.d2.cdf(lo) + value))

    def _survival(self, x):
        value = self._row(x, self.d1.survival, 1.0)[1]
        # Above hi, S1(x - y) = 1: that part is S2(hi), in closed form.
        return min(1.0, max(0.0, self.d2.survival(min(self.d2.upper, x - self.d1.lower)) + value))

    def _pdf(self, x):
        return max(0.0, self._row(x, self.d1.pdf, self.upper - self.lower)[1])

    def _row(self, x: float, side: Callable[[float], float], unit: float) -> Tuple[float, float]:
        """``(lo, int_lo^hi side(x - y) f2(y) dy)``, where [lo, hi] =
        [max(l2, x - u1), min(u2, x - l1)] is the part of the second
        support where x - y lies inside the first.

        The row runs under the graded map, which flattens a Beta side's
        endpoint powers, with ``(hi - lo)·unit`` inside the integrand and
        divided out after: ``unit`` is 1 for the cdf, whose row is then a
        probability, and the support width for the pdf, whose row is then
        a density in those units, so the tolerance means the same at every
        scale.
        """
        d1, d2 = self.d1, self.d2
        lo = max(d2.lower, x - d1.upper)
        hi = min(d2.upper, x - d1.lower)
        if not lo < hi:
            return lo, 0.0
        w = (hi - lo) * unit
        return lo, _graded(lambda y: w * side(x - y) * d2.pdf(y), lo, hi, _ROW_CFG)[0] / unit

    def mean(self):
        return self.d1.mean() + self.d2.mean()


def affine(base: Distribution, scale: float, shift: float = 0.0) -> Distribution:
    """Rescale and shift a lifetime: Y = scale * X + shift."""
    return AffineTransformed(base, scale, shift)


def prhr(base: Distribution, delta: float) -> Distribution:
    """Proportional reversed hazard transform G = F**delta."""
    return PrhrTransformed(base, delta)


def independent_sum(d1: Distribution, d2: Distribution) -> Distribution:
    """Distribution of X + Y for independent X and Y with bounded supports,
    or with a point mass c on either side, which is the other law shifted
    by c."""
    for d, other in ((d1, d2), (d2, d1)):
        if d.lower == d.upper:
            return affine(other, 1.0, d.lower)
    if math.isinf(d1.upper) or math.isinf(d2.upper):
        raise UnsupportedError("independent_sum requires bounded supports")
    if isinstance(d1, Uniform) and isinstance(d2, Uniform):
        return UniformSum(d1.scale, d2.scale)
    return _ConvolutionSum(d1, d2)


_FACTORIES = {
    "uniform": Uniform,
    "exponential": Exponential,
    "frechet": Frechet,
    "pareto": ParetoType,
    "weibull": Weibull,
    "loguniform": LogUniform,
    "beta": Beta,
    "triangularsum": TriangularSum,
    "degenerate": Degenerate,
}
_WRAPPERS = {"affine": affine, "prhr": prhr}
_PARAM = re.compile(r"\s*[A-Za-z_]\w*\s*=")  # a spec piece that starts "key="

# Conventional one-letter parameter names accepted alongside the
# constructor keywords, e.g. uniform:a=2 for Uniform(scale=2).
_PARAM_ALIASES = {
    "uniform": {"a": "scale"},
    "frechet": {"a": "shape", "b": "scale"},
    "exponential": {"lam": "rate"},
}


def _build(table: dict, what: str, name: str, *args, **params):
    """``table[name](*args, **params)``; an unknown name or a parameter set
    the constructor does not take raises DomainError."""
    if name not in table:
        raise DomainError(f"unknown {what} {name!r}; known: {sorted(table)}")
    try:
        return table[name](*args, **params)
    except TypeError as exc:
        raise DomainError(f"bad parameters for {what} {name!r}: {exc}") from exc


def make(name: str, **params) -> Distribution:
    """Construct a catalog distribution by family name."""
    key = name.strip().lower()
    aliases = _PARAM_ALIASES.get(key, {})
    fixed = {}
    for pname, value in params.items():
        canonical = aliases.get(pname, pname)
        if canonical in fixed:
            raise DomainError(f"duplicate parameter {canonical!r} for {name!r}")
        fixed[canonical] = value
    return _build(_FACTORIES, "distribution", key, **fixed)


def _split_top(text: str, sep: str) -> List[str]:
    """Split text at each ``sep`` outside parentheses. An unbalanced
    parenthesis stays in a piece, and the name or value it lands in is refused."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    return pieces + [text[start:]]


def _read_spec(spec: str, convert: Callable[[str], object] = float) -> Tuple[str, List[str], dict]:
    """Split a spec into ``(name, inner specs, parameters)``.

    ``name:k=v,k=v`` has no inner specs. ``name(<spec>, <spec>; k=v, k=v)``
    lists inner specs, left for the caller to read, before an optional ``;``
    and the parameters; a ``k=v`` piece after an inner spec's comma stays
    with it, as in ``indep(beta:p=2,q=3,uniform:a=1)``. The name is
    lower-cased and each parameter value goes through ``convert``; a key
    given twice is refused.
    """
    head, paren, rest = spec.strip().partition("(")
    inner: List[str] = []
    if paren and rest.endswith(")") and ":" not in head:
        specs, *tail = _split_top(rest[:-1], ";")
        for piece in _split_top(specs, ","):
            if inner and _PARAM.match(piece):
                inner[-1] += "," + piece
            else:
                inner.append(piece)
        name, body = head, ";".join(tail)  # a second ';' stays in a piece and is refused
    else:
        name, _, body = spec.partition(":")
    params = {}
    for piece in filter(str.strip, body.split(",")):
        if not _PARAM.match(piece):
            raise DomainError(f"expected param=value, got {piece.strip()!r} in {spec!r}")
        key, _, value = piece.partition("=")
        key = key.strip()
        if key in params:
            raise DomainError(f"parameter {key!r} given twice in {spec!r}")
        try:
            params[key] = convert(value)
        except ValueError as exc:
            raise DomainError(f"bad value for {key!r} in {spec!r}: {exc}") from exc
    return name.strip().lower(), inner, params


def parse_spec(spec: str) -> Distribution:
    """Parse a distribution spec string.

    Primitive form: ``name:param=value,param=value`` (``triangularsum`` takes
    no parameters). Wrapped forms compose transforms around an inner spec:

    * ``affine(<spec>; scale=2, shift=3)``
    * ``prhr(<spec>; delta=2)``
    """
    name, inner, params = _read_spec(spec)
    if inner:
        return _build(_WRAPPERS, "wrapper", name, *map(parse_spec, inner), **params)
    return make(name, **params)
