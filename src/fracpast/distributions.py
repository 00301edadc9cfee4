"""Lifetime distribution catalog with a uniform numeric contract.

Every distribution exposes cdf, pdf, survival, quantile, mean, and sampling,
plus finite-or-infinite support endpoints that integration routines rely on.
The base quantile checks p and returns the support ends at p = 0 and 1; a
family gives only its interior closed form, and the base class fills in
bisection quantiles and survival-function means for the rest.

Transforms (affine rescaling, proportional reversed hazard, independent sum)
wrap an existing distribution and preserve the same contract, so measure code
never needs to distinguish primitive from derived families.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Callable, List, Tuple

from .errors import DomainError, UnsupportedError
from .quadrature import _MEASURE_CFG, integrate

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
_NORMAL_MIN = 2.2250738585072014e-308  # smallest positive normal float


def _positive(what: str, *values) -> None:
    """Raise DomainError unless every value is finite and > 0."""
    if not all(math.isfinite(v) and v > 0 for v in values):
        got = values[0] if len(values) == 1 else f"({', '.join(map(str, values))})"
        raise DomainError(f"{what} must be positive, got {got}")


class Distribution:
    """Base class: subclasses set family, params, lower, upper, cdf, pdf."""

    family: str = "abstract"

    def __init__(self):
        self.params: dict = {}
        self.lower: float = 0.0
        self.upper: float = math.inf

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def survival(self, x: float) -> float:
        return 1.0 - self.cdf(x)

    def quantile(self, p: float) -> float:
        """Inverse CDF: the support ends at p = 0 and 1, else ``_quantile(p)``."""
        if not 0.0 <= p <= 1.0 or math.isnan(p):
            raise DomainError(f"quantile requires p in [0, 1], got {p}")
        if p == 0.0:
            return self.lower
        if p == 1.0:
            return self.upper
        return self._quantile(p)

    def _quantile(self, p: float) -> float:
        """Inverse CDF for 0 < p < 1 by bracketed bisection (subclasses
        override with closed forms where available)."""
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
        while hi - lo > _QUANTILE_TOL * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def mean(self) -> float:
        """E[X] = lower + integral of the survival function over the support."""
        res = integrate(self.survival, self.lower, self.upper, _MEASURE_CFG)
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

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        if x >= self.scale:
            return 1.0
        return x / self.scale

    def pdf(self, x):
        return 1.0 / self.scale if 0.0 <= x <= self.scale else 0.0

    def _quantile(self, p):
        return p * self.scale

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

    def cdf(self, x):
        return -math.expm1(-self.rate * x) if x > 0.0 else 0.0

    def survival(self, x):
        return math.exp(-self.rate * x) if x > 0.0 else 1.0

    def pdf(self, x):
        return self.rate * math.exp(-self.rate * x) if x >= 0.0 else 0.0

    def _quantile(self, p):
        return -math.log1p(-p) / self.rate

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

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        try:
            return math.exp(-self.scale * x ** (-self.shape))
        except OverflowError:  # x**(-shape) beyond the float range: F underflows
            return 0.0

    def pdf(self, x):
        if x <= 0.0:
            return 0.0
        F = self.cdf(x)
        if F == 0.0:  # the power below may overflow, but the limit is 0
            return 0.0
        try:
            return self.scale * self.shape * x ** (-self.shape - 1.0) * F
        except OverflowError:  # F > 0 means x**(-shape) is in range; divide by x last
            return self.scale * self.shape * (x ** (-self.shape) * F) / x

    def _quantile(self, p):
        return (self.scale / (-math.log(p))) ** (1.0 / self.shape)

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

    def cdf(self, x):
        return 1.0 - (1.0 + x) ** (-self.k) if x > 0.0 else 0.0

    def survival(self, x):
        return (1.0 + x) ** (-self.k) if x > 0.0 else 1.0

    def pdf(self, x):
        return self.k * (1.0 + x) ** (-self.k - 1.0) if x >= 0.0 else 0.0

    def _quantile(self, p):
        return (1.0 - p) ** (-1.0 / self.k) - 1.0

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

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        try:
            return -math.expm1(-((x / self.scale) ** self.shape))
        except OverflowError:  # (x/scale)**shape beyond the float range: F rounds to 1
            return 1.0

    def survival(self, x):
        if x <= 0.0:
            return 1.0
        try:
            return math.exp(-((x / self.scale) ** self.shape))
        except OverflowError:  # (x/scale)**shape beyond the float range: S underflows
            return 0.0

    def pdf(self, x):
        if x <= 0.0:
            return 0.0
        try:
            z = (x / self.scale) ** self.shape
        except OverflowError:  # z beyond the float range, so exp(-z) is 0
            return 0.0
        if z == 0.0 or z > 746.0:  # z or exp(-z) is exactly 0; shape / x * z may be inf
            return 0.0
        density = self.shape / x * z
        if density == math.inf:  # shape / x overflows at subnormal x: divide by x last
            density = self.shape * z / x
        return density * math.exp(-z)

    def _quantile(self, p):
        return self.scale * (-math.log1p(-p)) ** (1.0 / self.shape)

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

    def cdf(self, x):
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return math.log(x / self.a) / self._log_ratio

    def pdf(self, x):
        if self.a <= x <= self.b:
            return 1.0 / (x * self._log_ratio)
        return 0.0

    def _quantile(self, p):
        return self.a * (self.b / self.a) ** p

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
        # scipy costs about 0.3 s to import, and only this law and EXACT mode
        # use it, so it loads with the first Beta, not with the package.
        # Bound once per law, so cdf and quantile pay no import per call.
        from scipy.special import betainc, betaincinv

        self._betainc, self._betaincinv = betainc, betaincinv

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return float(self._betainc(self.p, self.q, x))

    def pdf(self, x):
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp(
            (self.p - 1.0) * math.log(x)
            + (self.q - 1.0) * math.log1p(-x)
            - self._log_beta
        )

    def _quantile(self, p):
        return float(self._betaincinv(self.p, self.q, p))

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

    def cdf(self, x):
        return 1.0 if x >= self.c else 0.0

    def pdf(self, x):
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

    def cdf(self, x):
        return self.base.cdf((x - self.shift) / self.scale)

    def survival(self, x):
        return self.base.survival((x - self.shift) / self.scale)

    def pdf(self, x):
        return self.base.pdf((x - self.shift) / self.scale) / self.scale

    def _quantile(self, p):
        return self.scale * self.base.quantile(p) + self.shift

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

    def pdf(self, x):
        F = self.base.cdf(x)
        if F <= 0.0:
            return 0.0
        return self.delta * F ** (self.delta - 1.0) * self.base.pdf(x)

    def _quantile(self, p):
        return self.base.quantile(p ** (1.0 / self.delta))


class UniformSum(Distribution):
    """Sum of independent Uniform(0, a) and Uniform(0, b), trapezoidal."""

    family = "uniformsum"

    def __init__(self, a: float, b: float):
        super().__init__()
        _positive("uniformsum widths", a, b)
        self.a, self.b = (float(min(a, b)), float(max(a, b)))
        self.params = {"a": self.a, "b": self.b}
        self.lower, self.upper = 0.0, self.a + self.b

    # The products y*y, 2ab and ab leave the normal float range at widths
    # near 1e+-150; there the ratios y/a and y/b take their place. Where the
    # products are normal floats the product form is kept, so its values do
    # not move.

    def _half_square(self, y):
        """y^2 / (2ab)."""
        a, b = self.a, self.b
        num, den = y * y, 2.0 * a * b
        if _NORMAL_MIN <= num < math.inf and _NORMAL_MIN <= den < math.inf:
            return num / den
        return 0.5 * (y / a) * (y / b)

    def _over_ab(self, y):
        """y / (ab)."""
        ab = self.a * self.b
        if _NORMAL_MIN <= ab < math.inf:
            return y / ab
        return y / self.a / self.b

    def cdf(self, x):
        a, b = self.a, self.b
        if x <= 0.0:
            return 0.0
        if x >= a + b:
            return 1.0
        if x <= a:
            return self._half_square(x)
        if x <= b:
            return (x - 0.5 * a) / b
        return 1.0 - self._half_square(a + b - x)

    def pdf(self, x):
        a, b = self.a, self.b
        if x < 0.0 or x > a + b:
            return 0.0
        if x <= a:
            return self._over_ab(x)
        if x <= b:
            return 1.0 / b
        return self._over_ab(a + b - x)

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

    def cdf(self, x):
        if x <= self.lower:
            return 0.0
        if x >= self.upper:
            return 1.0
        lo = self.d2.lower
        hi = min(self.d2.upper, x - self.d1.lower)
        if hi <= lo:
            return 0.0
        res = integrate(lambda y: self.d1.cdf(x - y) * self.d2.pdf(y), lo, hi)
        return min(1.0, max(0.0, res.value))

    def pdf(self, x):
        if x <= self.lower or x >= self.upper:
            return 0.0
        lo = max(self.d2.lower, x - self.d1.upper)
        hi = min(self.d2.upper, x - self.d1.lower)
        if hi <= lo:
            return 0.0
        res = integrate(lambda y: self.d1.pdf(x - y) * self.d2.pdf(y), lo, hi)
        return max(0.0, res.value)


def affine(base: Distribution, scale: float, shift: float = 0.0) -> Distribution:
    """Rescale and shift a lifetime: Y = scale * X + shift."""
    return AffineTransformed(base, scale, shift)


def prhr(base: Distribution, delta: float) -> Distribution:
    """Proportional reversed hazard transform G = F**delta."""
    return PrhrTransformed(base, delta)


def independent_sum(d1: Distribution, d2: Distribution) -> Distribution:
    """Distribution of X + Y for independent X and Y with bounded supports."""
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
    lower-cased and each parameter value goes through ``convert``.
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
        try:
            params[key.strip()] = convert(value)
        except ValueError as exc:
            raise DomainError(f"bad value for {key.strip()!r} in {spec!r}: {exc}") from exc
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
