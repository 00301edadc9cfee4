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
reproduced as a large truncation artifact. Laws with no quantile density
(numeric convolutions, tabulated marginals) are integrated on the x axis.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple, Optional, Tuple

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


def _integral(g: _Kernel, side: Callable[[float], float], lo: float, hi: float,
              cfg: Optional[QuadConfig] = None) -> QuadResult:
    """int_lo^hi g(side(x)) dx on the x axis, where side is a CDF or a
    survival function."""

    def f(x: float) -> float:
        p = side(x)
        return g(p, 1.0 - p)

    return integrate(f, lo, hi, cfg or _MEASURE_CFG)


def _cumulative(X: Distribution, g: _Kernel, survival: bool = False, t: Optional[float] = None,
                below: bool = True, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """int g(side(x)) dx over the support of X, side its CDF or, with
    ``survival``, its survival function; with t, over the part below t with
    side F / F(t) (the law of X given X <= t), or unless ``below``, over the
    part above t with side F. In levels, a truncated range maps onto (0, 1)
    as level l + d v with complement r + d w, w = 1 - v exact: (l, d, r) is
    (0, F(t), S(t)) below t, where g reads (v, w), and (F(t), S(t), 0)
    above, where g reads the level; qd gains the factor d, and the kinks
    move with the range. A law with no quantile density runs on the x axis.
    """
    qd, kinks = X.qd, X.qd_kinks
    if qd is None:
        side, lo, hi = X.survival if survival else X.cdf, X.lower, X.upper
        if t is not None and below:
            F = X.cdf(t)
            side, hi = (lambda x: X.cdf(x) / F), min(t, hi)
        elif t is not None:
            lo = max(t, lo)
        return _integral(g, side, lo, hi, cfg)
    if t is not None:
        l, d, r = (0.0, X.cdf(t), X.survival(t)) if below else (X.cdf(t), X.survival(t), 0.0)
        qd0, g0 = qd, g
        qd = lambda v, w: d * qd0(l + d * v, r + d * w)
        g = g if below else (lambda v, w: g0(l + d * v, r + d * w))
        kinks = tuple((k - l) / d for k in kinks if l < k < l + d)
    return integrate_quantile(g, qd, survival, cfg, kinks)


def _measure(X: Distribution, g: _Kernel, tag: MeasureTag, alpha: float,
             mode: LogMode = LogMode.APPROX, survival: bool = False, t: Optional[float] = None,
             factor: Optional[float] = None, cfg: Optional[QuadConfig] = None) -> EntropyResult:
    """``_cumulative(X, g, survival, t)`` as an EntropyResult, times factor;
    exactly zero on a degenerate support."""
    if X.upper - X.lower < _DEGENERATE_WIDTH:
        return _result(_ZERO, tag, alpha, mode)
    res = _cumulative(X, g, survival, t, cfg=cfg)
    return _result(res if factor is None else _scaled(res, factor), tag, alpha, mode)


def efcpe(
    X: Distribution,
    alpha,
    mode: LogMode = LogMode.APPROX,
    cfg: Optional[QuadConfig] = None,
) -> EntropyResult:
    """Fractional cumulative past measure int F * [-Ln_a F]**(1/a) dx.

    Degenerate supports give exactly zero. Each end of the levels goes
    through the divergence screen; a diverged end is reported, not integrated.
    """
    a = as_order(alpha)
    return _measure(X, _phi(a, mode), MeasureTag.EFCPE, a.alpha, mode, cfg=cfg)


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
    return _measure(X, _first_power, MeasureTag.MODIFIED_EFCPE, a.alpha,
                    factor=math.gamma(1.0 + a.alpha), cfg=cfg)


def efcre(
    X: Distribution,
    alpha,
    mode: LogMode = LogMode.APPROX,
    cfg: Optional[QuadConfig] = None,
) -> EntropyResult:
    """Survival-side dual int S * [-Ln_a S]**(1/a) dx."""
    a = as_order(alpha)
    return _measure(X, _phi(a, mode), MeasureTag.EFCRE, a.alpha, mode, survival=True, cfg=cfg)


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
        return p * _neg_log(p, r) ** q

    return _measure(X, kernel, MeasureTag.CLASSIC_FRACTIONAL, q, survival=not past, cfg=cfg)


def paired_phi_entropy(
    X: Distribution,
    alpha,
    mode: LogMode = LogMode.APPROX,
    cfg: Optional[QuadConfig] = None,
) -> EntropyResult:
    """Two-sided measure: past plus residual halves of the same order.

    ``tail_exponent`` is the diverged half's: the past half's when only it
    diverged, else the residual half's. Subdivisions add over the halves.
    """
    a = as_order(alpha)
    past = efcpe(X, a, mode, cfg).diagnostics
    residual = efcre(X, a, mode, cfg).diagnostics
    combined = QuadResult(
        past.value + residual.value,
        past.error_estimate + residual.error_estimate,
        past.diverged or residual.diverged,
        past.subdivisions_used + residual.subdivisions_used,
        past.low_confidence or residual.low_confidence,
        (past if past.diverged and not residual.diverged else residual).tail_exponent,
    )
    return _result(combined, MeasureTag.PAIRED_PHI, a.alpha, mode)


def _check_time(t: float) -> None:
    """Refuse a NaN truncation time, which every comparison with t would pass over."""
    if math.isnan(t):
        raise DomainError("truncation time t must not be NaN")


def dynamic_efcpe(
    X: Distribution,
    alpha,
    t: float,
    mode: LogMode = LogMode.APPROX,
    cfg: Optional[QuadConfig] = None,
) -> EntropyResult:
    """Past measure of the truncated lifetime [X | X <= t].

    Integrates (F(x)/F(t)) * kernel(F(x)/F(t)) from the lower support bound
    to t, over the levels (0, F(t)). As t reaches the upper bound this is
    the full past measure.
    """
    a = as_order(alpha)
    _check_time(t)
    Ft = X.cdf(t)
    # A degenerate support is measured as zero whatever t is.
    if Ft <= 0.0 and X.upper - X.lower >= _DEGENERATE_WIDTH:
        raise DomainError(f"dynamic measure needs F(t) > 0; F({t}) = {Ft}")
    return _measure(X, _phi(a, mode), MeasureTag.DYNAMIC_EFCPE, a.alpha, mode, t=t, cfg=cfg)


def mean_inactivity_time(X: Distribution, t: float) -> float:
    """mu(t) = int_0^t F(x) dx / F(t), the mean of t - X given X <= t."""
    _check_time(t)
    Ft = X.cdf(t)
    if Ft <= 0.0:
        raise DomainError(f"mean inactivity time needs F(t) > 0; F({t}) = {Ft}")
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
    if Ft <= 0.0:
        raise DomainError(f"dynamic decomposition needs F(t) > 0; F({t}) = {Ft}")
    if Ft >= 1.0:
        return 0.0
    return -mean_inactivity_time(X, t) * log_kernel(alpha, Ft, mode)


def _tail_integral(X: Distribution, t: float, k: _Kernel, what: str, factor: float = 1.0) -> float:
    """factor * int_t^upper k(F(x)) dx over the levels (F(t), 1), k read as 0
    where F is 0 or 1; DivergedError on a divergent integral."""
    _check_time(t)
    if t >= X.upper or X.cdf(max(t, X.lower)) == 1.0:
        # F is nondecreasing, so F = 1 and the integrand is 0 from t on.
        return 0.0
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
    """Gini concentration index 1 - E[min(X1, X2)] / E[X] in [0, 1]:
    E[min(X1, X2)] = lower + int S(x)^2 dx, finite wherever the mean is."""
    if X.upper - X.lower < _DEGENERATE_WIDTH:
        return 0.0
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
