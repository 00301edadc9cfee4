"""Univariate cumulative entropy measures of fractional order.

The central quantity is the fractional cumulative past measure

    E*(X) = int F(x) * [-Ln_a F(x)]**(1/a) dx

over the support, together with its modified (first-power) form, the
survival-side dual, classic exponent-q variants, the paired two-sided sum,
dynamic (truncated past) versions, the tau/W integral representations, and
the Gini-index lower bound. All default to the APPROX fractional logarithm;
the past and residual measures also accept EXACT mode as a cross-check.

Every measure here is int g(p(x)) dx, with p the CDF or the survival function
and g a kernel on [0, 1] that takes the pair (p, 1 - p). Divergence on
unbounded supports is detected and reported through the result diagnostics
rather than reproduced as a large truncation artifact.

In APPROX mode ``efcpe``, ``efcre``, ``modified_efcpe`` and
``classic_fractional`` (and through them ``paired_phi_entropy``) integrate in
probability space, int_0^1 g(u) qd(u) du with the law's quantile density
(``quadrature.integrate_quantile``): the scale law holds by construction,
and the endpoint verdicts are decided in u, which has no units. EXACT mode,
``dynamic_efcpe``, ``tau_alpha``, ``W_alpha``, ``gini``,
``mean_inactivity_time`` and laws with no quantile density (numeric
convolutions, tabulated marginals) keep the x-axis path: their integrands
need a truncation point, an EXACT kernel accurate at p near 1, or a density
in closed form, none of which the probability-space core has yet.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from .distributions import Distribution, Frechet, Uniform
from .errors import DivergedError, DomainError
from .fraclog import FracOrder, LogMode, as_order, log_kernel
from .quadrature import _MEASURE_CFG, QuadConfig, QuadResult, integrate, integrate_quantile

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

_DEGENERATE_WIDTH = 1e-12
_ZERO = QuadResult(0.0, 0.0, False, 0)


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
    EMPIRICAL_EFCPE = "empirical_efcpe"


@dataclass(frozen=True)
class EntropyResult:
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
    return replace(res, value=factor * res.value, error_estimate=factor * res.error_estimate)


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


def _first_power(p: float, q: float) -> float:
    """The first-power kernel -p * log p, q = 1 - p, zero unless p > 0 and q > 0."""
    if p <= 0.0 or q <= 0.0:
        return 0.0
    return p * (-math.log(p) if p < 0.5 else -math.log1p(-q))


def _integral(
    g: _Kernel,
    side: Callable[[float], float],
    lo: float,
    hi: float,
    factor: Optional[float] = None,
    cfg: Optional[QuadConfig] = None,
) -> QuadResult:
    """int_lo^hi g(side(x)) dx on the x axis, where side is a CDF, survival or
    distortion."""

    def f(x: float) -> float:
        p = side(x)
        return g(p, 1.0 - p)

    res = integrate(f, lo, hi, cfg or _MEASURE_CFG)
    return res if factor is None else _scaled(res, factor)


def _measure(
    X: Distribution,
    g: _Kernel,
    side: Callable[[float], float],
    tag: MeasureTag,
    alpha: float,
    mode: LogMode = LogMode.APPROX,
    hi: Optional[float] = None,
    factor: Optional[float] = None,
    cfg: Optional[QuadConfig] = None,
) -> EntropyResult:
    """Cumulative measure int g(side(x)) dx from the lower support bound to hi
    (default the upper bound); exactly zero on a degenerate support.

    Side is X.cdf or X.survival, or for a truncated measure any function of
    x. An APPROX measure over the whole support of a law with a quantile
    density runs in probability space; the rest on the x axis.
    """
    if X.upper - X.lower < _DEGENERATE_WIDTH:
        return _result(_ZERO, tag, alpha, mode)
    qd = X.qd
    if qd is not None and hi is None and mode is LogMode.APPROX:
        res = integrate_quantile(g, qd, side == X.survival, cfg, X.qd_kinks)
        res = res if factor is None else _scaled(res, factor)
    else:
        res = _integral(g, side, X.lower, X.upper if hi is None else hi, factor, cfg)
    return _result(res, tag, alpha, mode)


def efcpe(
    X: Distribution,
    alpha,
    mode: LogMode = LogMode.APPROX,
    cfg: Optional[QuadConfig] = None,
) -> EntropyResult:
    """Fractional cumulative past measure int F * [-Ln_a F]**(1/a) dx.

    Degenerate supports give exactly zero. Unbounded supports go through the
    divergence screen; a diverged tail is reported, not integrated.
    """
    a = as_order(alpha)
    return _measure(X, _phi(a, mode), X.cdf, MeasureTag.EFCPE, a.alpha, mode, cfg=cfg)


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


def modified_efcpe(
    X: Distribution, alpha, cfg: Optional[QuadConfig] = None
) -> EntropyResult:
    """First-power variant int F * (-Ln_a F) dx = Gamma(1+a) * CE(X),

    where CE is the cumulative entropy -int F log F dx.
    """
    a = as_order(alpha)
    return _measure(X, _first_power, X.cdf, MeasureTag.MODIFIED_EFCPE, a.alpha,
                    factor=math.gamma(1.0 + a.alpha), cfg=cfg)


def efcre(
    X: Distribution,
    alpha,
    mode: LogMode = LogMode.APPROX,
    cfg: Optional[QuadConfig] = None,
) -> EntropyResult:
    """Survival-side dual int S * [-Ln_a S]**(1/a) dx."""
    a = as_order(alpha)
    return _measure(X, _phi(a, mode), X.survival, MeasureTag.EFCRE, a.alpha, mode, cfg=cfg)


def classic_fractional(
    X: Distribution, q: float, past: bool = False, cfg: Optional[QuadConfig] = None
) -> EntropyResult:
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
        return p * (-math.log(p) if p < 0.5 else -math.log1p(-r)) ** q

    side = X.cdf if past else X.survival
    return _measure(X, kernel, side, MeasureTag.CLASSIC_FRACTIONAL, q, cfg=cfg)


def paired_phi_entropy(
    X: Distribution,
    alpha,
    mode: LogMode = LogMode.APPROX,
    cfg: Optional[QuadConfig] = None,
) -> EntropyResult:
    """Two-sided measure: past plus residual halves of the same order."""
    a = as_order(alpha)
    past = efcpe(X, a, mode, cfg)
    residual = efcre(X, a, mode, cfg)
    combined = QuadResult(
        past.diagnostics.value + residual.diagnostics.value,
        past.error_estimate + residual.error_estimate,
        past.diverged or residual.diverged,
        max(past.diagnostics.subdivisions_used, residual.diagnostics.subdivisions_used),
        past.diagnostics.low_confidence or residual.diagnostics.low_confidence,
        residual.diagnostics.tail_exponent,
    )
    return _result(combined, MeasureTag.PAIRED_PHI, a.alpha, mode)


def dynamic_efcpe(
    X: Distribution,
    alpha,
    t: float,
    mode: LogMode = LogMode.APPROX,
    cfg: Optional[QuadConfig] = None,
) -> EntropyResult:
    """Past measure of the truncated lifetime [X | X <= t].

    Integrates (F(x)/F(t)) * kernel(F(x)/F(t)) from the lower support bound
    to t. As t reaches the upper bound this is the full past measure.
    """
    a = as_order(alpha)
    Ft = X.cdf(t)
    # A degenerate support is measured as zero whatever t is.
    if Ft <= 0.0 and X.upper - X.lower >= _DEGENERATE_WIDTH:
        raise DomainError(f"dynamic measure needs F(t) > 0; F({t}) = {Ft}")
    return _measure(X, _phi(a, mode), lambda x: X.cdf(x) / Ft, MeasureTag.DYNAMIC_EFCPE,
                    a.alpha, mode, hi=min(t, X.upper), cfg=cfg)


def mean_inactivity_time(X: Distribution, t: float) -> float:
    """mu(t) = int_0^t F(x) dx / F(t), the mean of t - X given X <= t."""
    Ft = X.cdf(t)
    if Ft <= 0.0:
        raise DomainError(f"mean inactivity time needs F(t) > 0; F({t}) = {Ft}")
    return _integral(lambda p, q: p, X.cdf, X.lower, min(t, X.upper)).value / Ft


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
    if Ft <= 0.0:
        raise DomainError(f"dynamic decomposition needs F(t) > 0; F({t}) = {Ft}")
    if Ft >= 1.0:
        return 0.0
    return -mean_inactivity_time(X, t) * log_kernel(alpha, Ft, mode)


def _tail_integral(X: Distribution, t: float, g: _Kernel, what: str,
                   factor: Optional[float] = None) -> float:
    """int_t^upper g(F(x)) dx, g zero at F = 1; DivergedError on a divergent tail."""
    lo = max(t, X.lower)
    if t >= X.upper or X.cdf(lo) == 1.0:
        # F is nondecreasing, so F = 1 and the integrand is 0 on [lo, upper].
        return 0.0
    res = _integral(g, X.cdf, lo, X.upper, factor)
    if res.diverged:
        raise DivergedError(
            f"{what} integral diverges (tail exponent {res.tail_exponent:.3f})"
        )
    return res.value


def tau_alpha(X: Distribution, alpha, t: float, mode: LogMode = LogMode.APPROX) -> float:
    """Upper-tail kernel integral int_t^upper [-Ln_a F(x)]**(1/a) dx.

    Its expectation over X reproduces the past measure. Raises DivergedError
    when the tail is not integrable.
    """
    k = as_order(alpha)._kernels[mode]
    return _tail_integral(X, t, lambda p, q: 0.0 if p <= 0.0 or q <= 0.0 else k(p, q), "tau")


def W_alpha(X: Distribution, alpha, t: float) -> float:
    """First-power tail integral Gamma(1+a) * int_t^upper (-log F(x)) dx.

    Convex and nonincreasing in t; its value at the mean lower-bounds the
    modified past measure. Raises DivergedError on non-integrable tails.
    """
    a = as_order(alpha).alpha
    return _tail_integral(X, t, lambda p, q: 0.0 if p <= 0.0 or q <= 0.0 else -math.log(p),
                          "W", factor=math.gamma(1.0 + a))


def gini(X: Distribution) -> float:
    """Gini concentration index 1 - E[min(X1, X2)] / E[X] in [0, 1]."""
    if X.upper - X.lower < _DEGENERATE_WIDTH:
        return 0.0
    mu = X.mean()
    if not math.isfinite(mu) or mu <= 0.0:
        raise DomainError("Gini index requires a finite positive mean")
    res = _integral(lambda p, q: p ** 2, X.survival, X.lower, X.upper)
    if res.diverged:
        raise DivergedError(f"Gini index integral diverges (tail exponent {res.tail_exponent:.3f})")
    return 1.0 - (X.lower + res.value) / mu


def gini_lower_bound_check(X: Distribution, alpha) -> Tuple[float, bool]:
    """Bound Gamma(1+a) * mean * Gini against the modified past measure.

    Returns the bound and whether modified_efcpe(X, a) dominates it.
    """
    a = as_order(alpha).alpha
    bound = math.gamma(1.0 + a) * X.mean() * gini(X)
    modified = modified_efcpe(X, a).value
    return bound, bool(modified >= bound - 1e-10)
