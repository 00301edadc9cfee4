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

Negative-argument evaluation of E_a switches between the power series, the
Pollard spectral integral, and the large-argument asymptotic expansion.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergentError
from .quadrature import QuadConfig, integrate

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

_ROOT_XTOL = 1e-10
_ROOT_MAXITER = 200


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


def as_order(alpha) -> FracOrder:
    """Coerce a float or FracOrder into a validated FracOrder."""
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


def _rgamma(y: float) -> float:
    """Reciprocal gamma 1/Gamma(y), zero at the poles y = 0, -1, -2, ..."""
    if y <= 0.0 and abs(y - round(y)) < 1e-12:
        return 0.0
    return 1.0 / math.gamma(y)


def _mlf_series(alpha: float, x: float) -> float:
    """Power series sum_k x^k / Gamma(alpha*k + 1) with compensated addition."""
    terms = [1.0]
    log_ax = math.log(abs(x)) if x != 0.0 else None
    for k in range(1, 700):
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


def _mlf_spectral(alpha: float, x: float) -> float:
    """Pollard's spectral integral for E_a(-t), valid for 0 < a < 1, t > 0.

    E_a(-t) = sin(a*pi)/(a*pi) * int_0^inf exp(-(v*t)**(1/a))
              / (v**2 + 2*v*cos(a*pi) + 1) dv.
    """
    t = -x
    inv_alpha = 1.0 / alpha
    # The denominator is (v - v0)^2 + w^2 with v0 = -cos(a*pi), w = sin(a*pi),
    # a Lorentzian spike that sharpens as a -> 1. Substituting
    # v = v0 + w*tan(theta) absorbs it exactly: the integral becomes
    # 1/(a*pi) * int exp(-((v0 + w*tan(theta)) * t)**(1/a)) d(theta)
    # over [atan(-v0/w), pi/2), a bounded smooth integrand for every order.
    v0 = -math.cos(alpha * math.pi)
    width = math.sin(alpha * math.pi)

    def integrand(theta: float) -> float:
        tan_theta = math.tan(theta)
        if not math.isfinite(tan_theta):
            return 0.0
        v = v0 + width * tan_theta
        if v <= 0.0:
            return 0.0
        arg = (v * t) ** inv_alpha
        if arg > 700.0:
            return 0.0
        return math.exp(-arg)

    cfg = QuadConfig(abs_tol=1e-11, rel_tol=1e-10)
    res = integrate(integrand, math.atan(-v0 / width), math.pi / 2.0, cfg)
    return res.value / (alpha * math.pi)


def _mlf_asymptotic(alpha: float, x: float) -> float:
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
    for k in range(1, 13):
        try:
            t_k = t**k
        except OverflowError:
            break
        total += ((-1.0) ** (k + 1)) * _rgamma(1.0 - alpha * k) / t_k
    return total


def mlf(alpha, x: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(x).

    For x <= 0 the result lies in (0, 1] and is strictly increasing in x.
    Raises NonConvergentError when no evaluation branch meets tolerance.
    """
    a = as_order(alpha).alpha
    if not math.isfinite(x):
        raise DomainError(f"mlf requires finite x, got {x}")
    if a == 1.0:
        return math.exp(x)
    if x == 0.0:
        return 1.0
    if x >= _SERIES_FLOOR:
        return _mlf_series(a, x)
    if x > _ASYMPTOTIC_CEILING:
        return _mlf_spectral(a, x)
    return _mlf_asymptotic(a, x)


def frac_log(alpha, p: float, mode: LogMode = LogMode.APPROX) -> float:
    """Fractional-order logarithm Ln_alpha(p) on (0, 1], always <= 0.

    APPROX evaluates Gamma(1+alpha) * log(p). EXACT solves E_alpha(y) = p by
    bracketing plus Brent iteration (tolerance 1e-10 on y, at most 200
    iterations), seeding the bracket from the asymptotic inverse
    y ~= -1 / (p * Gamma(1-alpha)) when p is small.
    """
    a = as_order(alpha).alpha
    if not math.isfinite(p) or p <= 0.0 or p > 1.0:
        raise DomainError(f"frac_log requires 0 < p <= 1, got {p}")
    if p == 1.0:
        return 0.0
    if mode is LogMode.APPROX:
        return math.gamma(1.0 + a) * math.log(p)
    if a == 1.0:
        return math.log(p)

    lo = math.gamma(1.0 + a) * math.log(p)
    if a < 1.0:
        lo = min(lo, -2.0 / (p * math.gamma(1.0 - a)))
    lo = min(lo, -1e-8)
    for _ in range(80):
        if mlf(a, lo) < p:
            break
        lo *= 2.0
    else:
        raise NonConvergentError(f"no bracket for frac_log(alpha={a}, p={p})")
    # Imported here, not with the package: scipy.optimize costs about 0.3 s
    # at import, against about 4 ms for one EXACT frac_log.
    from scipy.optimize import brentq

    try:
        root = brentq(
            lambda y: mlf(a, y) - p, lo, 0.0, xtol=_ROOT_XTOL, maxiter=_ROOT_MAXITER
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
    """
    a = as_order(alpha).alpha
    if not math.isfinite(p) or p <= 0.0 or p > 1.0:
        raise DomainError(f"log_kernel requires 0 < p <= 1, got {p}")
    if p == 1.0:
        return 0.0
    neg_ln = -frac_log(a, p, mode)
    if neg_ln <= 0.0:
        return 0.0
    return math.exp(math.log(neg_ln) / a)


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
