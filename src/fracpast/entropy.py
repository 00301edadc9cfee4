"""Univariate cumulative entropy measures of fractional order.

The central quantity is the fractional cumulative past measure

    E*(X) = int F(x) * [-Ln_a F(x)]**(1/a) dx

over the support, together with its modified (first-power) form, the
survival-side dual, classic exponent-q variants, the paired two-sided sum,
dynamic (truncated past) versions, the tau/W integral representations, and
the Gini-index lower bound. All default to the APPROX fractional logarithm;
the past and residual measures also accept EXACT mode as a cross-check.

Every measure here is int g(p(x)) dx, with p the CDF or the survival function
and g a kernel on [0, 1] that takes the pair (p, 1 - p). In either mode it
runs through one helper, ``_cumulative``, as int g(u) qd(u) du over a range
of levels with the law's quantile density (``quadrature.integrate_quantile``):
the whole of (0, 1), or the levels below or above F(t) for the truncated
measures. A divergence is reported through the result diagnostics, not
reproduced as a large truncation artifact. A law with no quantile density
(a numeric convolution, a point mass, a subclass that gives none) runs in
the same core, over levels of its x range scaled by the range's width or
by its median's distance from the lower end, so scale-free too; a point
mass's range of zero width is an exact zero with no subdivision.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple, Optional, Tuple

from .distributions import Distribution, Frechet, Uniform
from .errors import DivergedError, DomainError, UnsupportedError
from .fraclog import FracOrder, LogMode, as_order, log_kernel
from .quadrature import QuadResult, integrate_quantile

__all__ = [
    "EntropyResult",
    "MeasureTag",
    "W_alpha",
    "classic_fractional",
    "dynamic_decomposition",
    "dynamic_efcpe",
    "efcpe",
    "efcpe_closed_form",
    "efcre",
    "gini",
    "gini_lower_bound_check",
    "mean_inactivity_time",
    "modified_efcpe",
    "paired_phi_entropy",
    "tau_alpha",
]

class MeasureTag(enum.Enum):
    EFCPE = "efcpe"
    MODIFIED_EFCPE = "modified_efcpe"
    EFCRE = "efcre"
    CLASSIC_FRACTIONAL = "classic_fractional"
    PAIRED_PHI = "paired_phi"
    DYNAMIC_EFCPE = "dynamic_efcpe"
    BIVARIATE_EFCPE = "bivariate_efcpe"
    MODIFIED_BIVARIATE_EFCPE = "modified_bivariate_efcpe"
    SYSTEM_EFCPE = "system_efcpe"


class EntropyResult(NamedTuple):
    """Measure value with quadrature diagnostics.

    A diverged result carries value NaN; the fitted tail exponent lives in
    ``diagnostics.tail_exponent``.
    """

    value: float
    diagnostics: QuadResult
    mode: LogMode
    measure_tag: MeasureTag
    alpha: float

    @property
    def diverged(self) -> bool:
        return self.diagnostics.diverged

    @property
    def error_estimate(self) -> float:
        return self.diagnostics.error_estimate

    def record(self, dist: Optional[Distribution] = None) -> dict:
        """JSON-ready summary record."""
        rec = {
            "measure": self.measure_tag.value,
            "alpha": self.alpha,
            "mode": self.mode.value,
            "value": None if self.diverged else self.value,
            "error_estimate": self.error_estimate if math.isfinite(self.error_estimate) else None,
            "diverged": self.diverged,
        }
        if dist is not None:
            rec["family"] = dist.family
            rec["params"] = {
                k: (v if isinstance(v, (int, float)) else repr(v))
                for k, v in dist.params.items()
            }
        if self.diverged and math.isfinite(self.diagnostics.tail_exponent):
            rec["tail_exponent"] = self.diagnostics.tail_exponent
        return rec


def _result(
    res: QuadResult, tag: MeasureTag, alpha: float, mode: LogMode = LogMode.APPROX
) -> EntropyResult:
    """Wrap a quadrature result; a diverged integral reads NaN."""
    return EntropyResult(math.nan if res.diverged else res.value, res, mode, tag, alpha)


def _scaled(res: QuadResult, factor: float) -> QuadResult:
    """Multiply value and error estimate by a constant, keeping every diagnostic."""
    return res._replace(value=factor * res.value, error_estimate=factor * res.error_estimate)


_Kernel = Callable[[float, float], float]


def _phi(a: FracOrder, mode: LogMode = LogMode.APPROX) -> _Kernel:
    """The kernel (p, q) -> p * [-Ln_a p]**(1/a) at a fixed order, q = 1 - p,
    zero unless p > 0 and q > 0."""
    k = a._kernels[mode]

    def phi(p: float, q: float) -> float:
        if p <= 0.0 or q <= 0.0:
            return 0.0
        return p * k(p, q)

    return phi


def _neg_log(p: float, q: float) -> float:
    """-log p for 0 < p < 1, formed from q = 1 - p above p = 1/2."""
    return -math.log(p) if p < 0.5 else -math.log1p(-q)


def _first_power(p: float, q: float) -> float:
    """The first-power kernel -p * log p, q = 1 - p, zero unless p > 0 and q > 0."""
    if p <= 0.0 or q <= 0.0:
        return 0.0
    return p * _neg_log(p, q)


def _x_levels(X: Distribution, g: _Kernel, survival: bool, lo: float, hi: float,
              Ft: Optional[float]) -> Tuple[_Kernel, _Kernel]:
    """(h, qd) with int h qd du over the levels u in (0, 1) equal to int_lo^hi
    g(F, S) dx, g(S, F) with ``survival``, or g(F / Ft, 1 - F / Ft) given Ft:
    x = lo + w p below u = 1/2 and hi - w q above, qd = w = hi - lo, or on
    [lo, inf) x = lo + m p / q, qd = m / q^2, m = Q(1/2) - lower (1 where that
    is 0 or not finite). h reads the law's cdf first below u = 1/2 and its
    survival first above, and the other side too where the first passes 1/2."""
    if hi < math.inf and lo > -math.inf:
        w = hi - lo
        x, qd = (lambda p, q: lo + w * p if p < 0.5 else hi - w * q), (lambda p, q: w)
    else:
        m = X.quantile(0.5) - X.lower
        m = m if 0.0 < m < math.inf else 1.0
        if not lo + m > lo:
            raise UnsupportedError(f"no map of [{lo:g}, {hi:g}] onto levels: lo + m rounds to lo")
        x, qd = (lambda p, q: lo + m * p / q), (lambda p, q: m / q / q)

    def h(p: float, q: float) -> float:
        z = x(p, q)
        if Ft is not None:
            F = X.cdf(z) / Ft
            return g(F, 1.0 - F)
        if p < 0.5:
            F = X.cdf(z)
            S = X.survival(z) if F > 0.5 else 1.0 - F
        else:
            S = X.survival(z)
            F = X.cdf(z) if S > 0.5 else 1.0 - S
        return g(S, F) if survival else g(F, S)

    return h, qd


def _cumulative(X: Distribution, g: _Kernel, survival: bool = False, t: Optional[float] = None,
                below: bool = True) -> QuadResult:
    """int g(side(x)) dx over the support of X, side its CDF or, with
    ``survival``, its survival function: every measure is this one integral,
    the paired one too. With t it runs over the part below t with side
    F / F(t) (the law of X given X <= t), refused where F(t) = 0, or unless
    ``below``, over the part above t with side F, an exact 0 once t >= upper
    or F(t) = 1; a NaN t is refused. In levels, a truncated range maps onto
    (0, 1) as level l + d v with complement r + d w, w = 1 - v exact:
    (l, d, r) is (0, F(t), S(t)) below t, where g reads (v, w), and
    (F(t), S(t), 0) above, where g reads the level; qd gains the factor d,
    and the kinks move with the range. A law with no qd: ``_x_levels``.
    """
    qd, kinks, lo, hi, Ft = X.qd, X.qd_kinks, X.lower, X.upper, None
    if t is not None:
        if math.isnan(t):
            raise DomainError("truncation time t must not be NaN")
        Ft = X.cdf(t)
        if below and not Ft > 0.0:
            raise DomainError(f"a range truncated below t needs F(t) > 0; F({t}) = {Ft}")
        if not below and (t >= X.upper or Ft == 1.0):
            # F is nondecreasing, so F = 1 and the integrand is 0 from t on.
            return QuadResult(0.0, 0.0, False, 0)
        lo, hi = (lo, min(t, hi)) if below else (max(t, lo), hi)
    if qd is None:
        g, qd = _x_levels(X, g, survival, lo, hi, Ft if below else None)
        survival = False
    elif t is not None:
        l, d, r = (0.0, Ft, X.survival(t)) if below else (Ft, X.survival(t), 0.0)
        qd0, g0 = qd, g
        qd = lambda v, w: d * qd0(l + d * v, r + d * w)
        g = g if below else (lambda v, w: g0(l + d * v, r + d * w))
        kinks = tuple((k - l) / d for k in kinks if l < k < l + d)
    return integrate_quantile(g, qd, survival, kinks=kinks)


def _measure(X: Distribution, g: _Kernel, tag: MeasureTag, alpha: float,
             mode: LogMode = LogMode.APPROX, survival: bool = False, t: Optional[float] = None,
             factor: Optional[float] = None) -> EntropyResult:
    """``_cumulative(X, g, survival, t)`` as an EntropyResult, times factor;
    exactly zero, with no subdivision, on a point mass (lower == upper)."""
    res = _cumulative(X, g, survival, t)
    return _result(res if factor is None else _scaled(res, factor), tag, alpha, mode)


def efcpe(X: Distribution, alpha, mode: LogMode = LogMode.APPROX) -> EntropyResult:
    """Fractional cumulative past measure int F * [-Ln_a F]**(1/a) dx.

    A point mass gives exactly zero. Each end of the levels goes
    through the divergence screen; a diverged end is reported, not integrated.
    """
    a = as_order(alpha)
    return _measure(X, _phi(a, mode), MeasureTag.EFCPE, a.alpha, mode)


def efcpe_closed_form(X: Distribution, alpha) -> float:
    """Closed-form past measure for the uniform and Frechet families.

    Uniform(0, s): s * (a!)**(1/a) * Gamma(1/a + 1) / 2**(1/a + 1).
    Frechet(shape, scale): (a!)**(1/a) * scale**(1/shape)
    * Gamma(1/a - 1/shape) / shape, valid for 0 < a < min(1, shape).
    """
    a = as_order(alpha).alpha
    fac = math.gamma(1.0 + a) ** (1.0 / a)
    if isinstance(X, Uniform):
        return X.scale * fac * math.gamma(1.0 / a + 1.0) / 2.0 ** (1.0 / a + 1.0)
    if isinstance(X, Frechet):
        if not a < min(1.0, X.shape):
            raise DomainError(
                f"closed form requires alpha < min(1, shape); got alpha={a}, shape={X.shape}"
            )
        return (
            fac
            * X.scale ** (1.0 / X.shape)
            * math.gamma(1.0 / a - 1.0 / X.shape)
            / X.shape
        )
    raise DomainError(f"no closed form for family {X.family!r}")


def modified_efcpe(X: Distribution, alpha) -> EntropyResult:
    """First-power variant int F * (-Ln_a F) dx = Gamma(1+a) * CE(X),

    where CE is the cumulative entropy -int F log F dx.
    """
    a = as_order(alpha)
    return _measure(X, _first_power, MeasureTag.MODIFIED_EFCPE, a.alpha,
                    factor=math.gamma(1.0 + a.alpha))


def efcre(X: Distribution, alpha, mode: LogMode = LogMode.APPROX) -> EntropyResult:
    """Survival-side dual int S * [-Ln_a S]**(1/a) dx."""
    a = as_order(alpha)
    return _measure(X, _phi(a, mode), MeasureTag.EFCRE, a.alpha, mode, survival=True)


def classic_fractional(X: Distribution, q: float, past: bool = False) -> EntropyResult:
    """Exponent-q measure int F_side * (-log F_side)**q dx with q in [0, 1].

    ``past=False`` integrates the survival function (residual side),
    ``past=True`` the CDF. The fractional order here appears only as the
    plain exponent q, with no gamma prefactor.
    """
    if not (math.isfinite(q) and 0.0 <= q <= 1.0):
        raise DomainError(f"exponent q must lie in [0, 1], got {q}")
    at_one = 1.0 if q == 0.0 else 0.0

    def kernel(p: float, r: float) -> float:
        if p <= 0.0:
            return 0.0
        if r <= 0.0:
            return at_one
        return p * _neg_log(p, r) ** q

    return _measure(X, kernel, MeasureTag.CLASSIC_FRACTIONAL, q, survival=not past)


def paired_phi_entropy(X: Distribution, alpha, mode: LogMode = LogMode.APPROX) -> EntropyResult:
    """Two-sided measure int [phi(F) + phi(1 - F)] dx as one integral, whose
    ``subdivisions_used`` and ``tail_exponent`` it reports. The kernel is
    symmetric, so it reads the survival side."""
    a = as_order(alpha)
    phi = _phi(a, mode)
    return _measure(X, lambda p, q: phi(p, q) + phi(q, p), MeasureTag.PAIRED_PHI, a.alpha, mode,
                    survival=True)


def dynamic_efcpe(X: Distribution, alpha, t: float,
                  mode: LogMode = LogMode.APPROX) -> EntropyResult:
    """Past measure of the truncated lifetime [X | X <= t].

    Integrates (F(x)/F(t)) * kernel(F(x)/F(t)) from the lower support bound
    to t, over the levels (0, F(t)), or over levels of [lower, t] for a law
    with no quantile density. As t reaches the upper bound this is the full
    past measure. F(t) = 0 is refused with DomainError, a point mass included.
    """
    a = as_order(alpha)
    return _measure(X, _phi(a, mode), MeasureTag.DYNAMIC_EFCPE, a.alpha, mode, t=t)


def mean_inactivity_time(X: Distribution, t: float) -> float:
    """mu(t) = int_0^t F(x) dx / F(t), the mean of t - X given X <= t."""
    return _cumulative(X, lambda p, q: p, t=t).value


def dynamic_decomposition(X: Distribution, alpha, t: float,
                          mode: LogMode = LogMode.APPROX) -> Tuple[float, float]:
    """Split the dynamic past measure into an integral and a boundary part.

    The boundary part is -mu(t) * kernel(F(t)), which is nonpositive and is
    a valid lower bound for the dynamic measure; the integral part is the
    exact complement, so the two always sum to dynamic_efcpe. At alpha = 1
    the integral part coincides with (1/F(t)) * int_0^t F * (-log F) dx.
    """
    a = as_order(alpha)
    boundary = _dynamic_boundary(X, a, t, mode)
    return dynamic_efcpe(X, a, t, mode).value - boundary, boundary


def _dynamic_boundary(X: Distribution, alpha, t: float, mode: LogMode) -> float:
    """The boundary part -mu(t) * kernel(F(t)) of the dynamic past measure."""
    Ft = X.cdf(t)
    if Ft >= 1.0:
        return 0.0
    return -mean_inactivity_time(X, t) * log_kernel(alpha, Ft, mode)


def _tail_integral(X: Distribution, t: float, k: _Kernel, what: str, factor: float = 1.0) -> float:
    """factor * int_t^upper k(F(x)) dx over the levels (F(t), 1), k read as 0
    where F is 0 or 1; DivergedError on a divergent integral."""
    res = _cumulative(X, lambda p, q: 0.0 if p <= 0.0 or q <= 0.0 else k(p, q), t=t, below=False)
    if res.diverged:
        raise DivergedError(f"{what} integral diverges (exponent {res.tail_exponent:.3f})")
    return factor * res.value


def tau_alpha(X: Distribution, alpha, t: float, mode: LogMode = LogMode.APPROX) -> float:
    """Upper-tail kernel integral int_t^upper [-Ln_a F(x)]**(1/a) dx.

    Its expectation over X reproduces the past measure. Raises DivergedError
    when the integral diverges, in the tail or where F vanishes.
    """
    return _tail_integral(X, t, as_order(alpha)._kernels[mode], "tau")


def W_alpha(X: Distribution, alpha, t: float) -> float:
    """First-power tail integral Gamma(1+a) * int_t^upper (-log F(x)) dx.

    Convex and nonincreasing in t; its value at the mean lower-bounds the
    modified past measure. Raises DivergedError on a divergent integral.
    """
    return _tail_integral(X, t, _neg_log, "W", math.gamma(1.0 + as_order(alpha).alpha))


def gini(X: Distribution) -> float:
    """Gini concentration index 1 - E[min(X1, X2)] / E[X] in [0, 1], with
    E[min(X1, X2)] = lower + int S(x)^2 dx; DomainError unless 0 < E[X] < inf."""
    mu = X.mean()
    if not math.isfinite(mu) or mu <= 0.0:
        raise DomainError("Gini index requires a finite positive mean")
    res = _cumulative(X, lambda p, q: p * p, survival=True)
    if res.diverged:  # S^2 <= S, so only a false verdict comes here
        raise DivergedError("Gini integral of S^2 reported diverged where the mean is finite")
    return 1.0 - (X.lower + res.value) / mu


def gini_lower_bound_check(X: Distribution, alpha) -> Tuple[float, bool]:
    """Bound Gamma(1+a) * mean * Gini against the modified past measure.

    Returns the bound and whether modified_efcpe(X, a) dominates it.
    """
    a = as_order(alpha).alpha
    bound = math.gamma(1.0 + a) * X.mean() * gini(X)
    modified = modified_efcpe(X, a).value
    return bound, bool(modified >= bound - 1e-10)
