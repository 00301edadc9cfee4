"""System-lifetime measures through distortion functions.

For a coherent system of iid components, the system lifetime CDF is a
distortion q of the component CDF. The system past measure is then the
u-substituted integral

    E*(T) = int_0^1 phi_a(q(u)) / f(F^{-1}(u)) du,

with phi_a(u) = u * [-Ln_a u]**(1/a) the universal kernel. The module also
provides the inf/sup ratio bounds around the component measure, bounds that
need only a density envelope, and system-vs-system and system-vs-component
comparison reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .distributions import Distribution, _build
from .entropy import EntropyResult, MeasureTag, _integral, _phi, _result, efcpe
from .errors import DomainError
from .fraclog import FracOrder, LogMode, as_order
from .quadrature import _MEASURE_CFG, integrate

__all__ = [
    "ComponentReport",
    "CrossSystemReport",
    "DistortionFunction",
    "SandwichReport",
    "compare_systems",
    "component_comparison",
    "density_bounds",
    "distortion",
    "k_out_of_n",
    "omega_bounds",
    "parallel",
    "phi_alpha",
    "sandwich_check",
    "series_system",
    "system_efcpe",
    "two_out_of_four",
]

@dataclass(frozen=True)
class DistortionFunction:
    """Continuous nondecreasing map q of [0, 1] onto itself."""

    q: Callable[[float], float]
    label: str

    def __call__(self, u: float) -> float:
        return self.q(u)


def parallel(n: int) -> DistortionFunction:
    """Largest of n iid lifetimes: q(u) = u**n."""
    _check_n(n)
    return DistortionFunction(lambda u: u**n, f"parallel:{n}")


def series_system(n: int) -> DistortionFunction:
    """Smallest of n iid lifetimes: q(u) = 1 - (1-u)**n."""
    _check_n(n)
    return DistortionFunction(lambda u: 1.0 - (1.0 - u) ** n, f"series:{n}")


def k_out_of_n(k: int, n: int) -> DistortionFunction:
    """Lifetime of a system needing k of n components.

    The system fails at the (n-k+1)-th component failure, so
    q(u) = sum_{j=n-k+1}^{n} C(n, j) u**j (1-u)**(n-j).
    """
    _check_n(n)
    if not isinstance(k, int) or not 1 <= k <= n:
        raise DomainError(f"need integer 1 <= k <= n, got k={k}, n={n}")
    j_lo = n - k + 1

    def q(u: float) -> float:
        return math.fsum(
            math.comb(n, j) * u**j * (1.0 - u) ** (n - j) for j in range(j_lo, n + 1)
        )

    return DistortionFunction(q, f"koutofn:{k},{n}")


def two_out_of_four() -> DistortionFunction:
    """The quartic distortion 6u**4 - 8u**3 + 3u**2.

    Its derivative 6u(2u - 1)**2 is nonnegative, so it is a valid
    distortion. Note the coefficient pattern is the power-transpose of the
    binomial form of k_out_of_n(2, 4); the two do not coincide pointwise
    (0.125 versus 0.3125 at u = 0.5).
    """
    return DistortionFunction(
        lambda u: u * u * (3.0 + u * (-8.0 + 6.0 * u)), "twooutoffour"
    )


def identity_distortion() -> DistortionFunction:
    return DistortionFunction(lambda u: u, "identity")


def custom(fn: Callable[[float], float], label: str = "custom") -> DistortionFunction:
    return DistortionFunction(fn, label)


def _check_n(n: int):
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"component count must be a positive integer, got {n}")


_DISTORTIONS = {
    "parallel": parallel,
    "series": series_system,
    "koutofn": k_out_of_n,
    "twooutoffour": two_out_of_four,
    "identity": identity_distortion,
}


def distortion(kind: str, **kw) -> DistortionFunction:
    """Dispatch constructor, e.g. distortion("parallel", n=2)."""
    return _build(_DISTORTIONS, "distortion kind", kind.strip().lower(), **kw)


def phi_alpha(u: float, alpha, mode: LogMode = LogMode.APPROX) -> float:
    """Kernel value; zero at both endpoints, positive and unimodal between."""
    a = as_order(alpha)
    if not (math.isfinite(u) and 0.0 <= u <= 1.0):
        raise DomainError(f"kernel argument must lie in [0, 1], got {u}")
    return _phi(a, mode)(u)


def system_efcpe(q: DistortionFunction, X: Distribution, alpha) -> EntropyResult:
    """System past measure by the quantile-substituted integral.

    Requires a strictly positive component density on the support interior;
    vanishing density at isolated probe points raises DomainError.
    """
    a = as_order(alpha)
    for probe in (0.2, 0.35, 0.5, 0.65, 0.8):
        fv = X.pdf(X.quantile(probe))
        if not (math.isfinite(fv) and fv > 0.0):
            raise DomainError(
                f"component density must be positive on the interior; "
                f"f(F^-1({probe})) = {fv}"
            )

    k = a._kernels[LogMode.APPROX]

    def integrand(u: float) -> float:
        quv = q(u)
        if quv <= 0.0 or quv >= 1.0:
            return 0.0
        fv = X.pdf(X.quantile(u))
        if fv <= 0.0:
            raise DomainError(f"density vanished at quantile level {u}")
        return quv * k(quv) / fv

    res = integrate(integrand, 0.0, 1.0, _MEASURE_CFG)
    return _result(res, MeasureTag.SYSTEM_EFCPE, a.alpha)


def parallel_uniform_closed_form(n: int, alpha) -> float:
    """Closed form for Parallel(n) on Uniform(0, 1):

    (n a!)**(1/a) * Gamma(1/a + 1) / (n+1)**(1/a + 1).
    """
    _check_n(n)
    a = as_order(alpha).alpha
    inv_a = 1.0 / a
    return (
        (n * math.gamma(1.0 + a)) ** inv_a
        * math.gamma(inv_a + 1.0)
        / (n + 1.0) ** (inv_a + 1.0)
    )


def _ratio_grid(grid: int) -> list:
    """512-style uniform grid plus geometric tails near both endpoints."""
    pts = [(i + 0.5) / grid for i in range(grid)]
    tail = [2.0 ** (-k) for k in range(10, 74)]
    pts.extend(tail)
    pts.extend(1.0 - t for t in tail)
    return sorted(p for p in pts if 0.0 < p < 1.0)


def _golden_refine(fn, lo: float, hi: float, maximize: bool, iters: int = 80):
    """Golden-section search for an interior extremum of fn on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if (fc > fd) == maximize:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    u = 0.5 * (a + b)
    return u, fn(u)


def _ratio_bounds(num: Callable[[float], float], den: Callable[[float], float], a: FracOrder,
                  what: str = "ratio") -> Tuple[float, float]:
    """Infimum and supremum of phi_a(num(u)) / phi_a(den(u)) on (0, 1).

    The ratio is scanned on the 512-point grid with geometric end tails; a
    golden-section pass then refines around the best grid points. Endpoint
    degeneracies (0/0) are approached but never evaluated at 0 or 1.
    """
    phi = _phi(a)

    def ratio(u: float) -> float:
        d = phi(den(u))
        if d <= 0.0:
            return math.nan
        return phi(num(u)) / d

    pts = _ratio_grid(512)
    vals = [(ratio(u), u) for u in pts]
    vals = [(r, u) for r, u in vals if math.isfinite(r)]
    if not vals:
        raise DomainError(f"{what} undefined on the whole grid")

    lo_r, lo_u = min(vals)
    hi_r, hi_u = max(vals)

    def neighbors(u0: float) -> Tuple[float, float]:
        idx = pts.index(u0)
        left = pts[idx - 1] if idx > 0 else pts[0] / 2.0
        right = pts[idx + 1] if idx + 1 < len(pts) else (1.0 + pts[-1]) / 2.0
        return left, right

    l, r = neighbors(lo_u)
    _, refined_lo = _golden_refine(ratio, l, r, maximize=False)
    l, r = neighbors(hi_u)
    _, refined_hi = _golden_refine(ratio, l, r, maximize=True)
    lower = min(lo_r, refined_lo if math.isfinite(refined_lo) else lo_r)
    upper = max(hi_r, refined_hi if math.isfinite(refined_hi) else hi_r)
    return lower, upper


def _slack(*values: float) -> float:
    """Tolerance for comparing measures: 1e-9 absolute plus 1e-5 of the largest."""
    return 1e-9 + 1e-5 * max(abs(v) for v in values)


def omega_bounds(q: DistortionFunction, alpha) -> Tuple[float, float]:
    """Infimum and supremum of phi_a(q(u)) / phi_a(u) on (0, 1)."""
    return _ratio_bounds(q, lambda u: u, as_order(alpha))


@dataclass(frozen=True)
class SandwichReport:
    lower: float
    system: float
    upper: float
    omega1: float
    omega2: float
    holds: bool


def sandwich_check(q: DistortionFunction, X: Distribution, alpha) -> SandwichReport:
    """Check omega1 * E*(X) <= E*(T) <= omega2 * E*(X)."""
    a = as_order(alpha)
    component = efcpe(X, a).value
    if not math.isfinite(component):
        raise DomainError("sandwich check requires a finite component measure")
    system = system_efcpe(q, X, a).value
    w1, w2 = omega_bounds(q, a)
    lower, upper = w1 * component, w2 * component
    slack = _slack(system)
    holds = (lower <= system + slack) and (system <= upper + slack)
    return SandwichReport(lower, system, upper, w1, w2, holds)


def density_bounds(
    q: DistortionFunction,
    X: Distribution,
    alpha,
    M: Optional[float] = None,
    L: Optional[float] = None,
) -> Tuple[Optional[float], Optional[float]]:
    """Bounds needing only a density envelope: (1/M) I <= E*(T) <= (1/L) I,

    with I = int_0^1 phi_a(q(u)) du, M an upper and L a positive lower
    bound on the component density. Either side may be omitted.
    """
    a = as_order(alpha)
    if M is None and L is None:
        raise DomainError("supply at least one of M (upper) or L (lower density bound)")
    if L is not None and L <= 0.0:
        raise DomainError(f"lower density bound must be positive, got {L}")
    for probe in (0.25, 0.5, 0.75):
        fv = X.pdf(X.quantile(probe))
        if M is not None and fv > M * (1.0 + 1e-9):
            raise DomainError(f"M={M} is below the density value {fv} at level {probe}")
        if L is not None and 0.0 < fv < L * (1.0 - 1e-9):
            raise DomainError(f"L={L} exceeds the density value {fv} at level {probe}")
    I = _integral(_phi(a), q, 0.0, 1.0).value
    lower = I / M if M is not None else None
    upper = I / L if L is not None else None
    return lower, upper


@dataclass(frozen=True)
class CrossSystemReport:
    inf_ratio: float
    sup_ratio: float
    value_first: float
    value_second: float
    lower_holds: bool
    upper_holds: bool


def compare_systems(
    q1: DistortionFunction, q2: DistortionFunction, X: Distribution, alpha
) -> CrossSystemReport:
    """Two-sided bound on E*(T2) from E*(T1) via the cross-ratio

    phi_a(q2(u)) / phi_a(q1(u)): inf * E*(T1) <= E*(T2) <= sup * E*(T1).
    """
    a = as_order(alpha)
    inf_r, sup_r = _ratio_bounds(q2, q1, a, "cross-ratio")
    v1 = system_efcpe(q1, X, a).value
    v2 = system_efcpe(q2, X, a).value
    slack = _slack(v2)
    return CrossSystemReport(
        inf_r,
        sup_r,
        v1,
        v2,
        inf_r * v1 <= v2 + slack,
        v2 <= sup_r * v1 + slack,
    )


@dataclass(frozen=True)
class ComponentReport:
    direction: str  # "ge", "le", or "inconclusive"
    system: float
    component: float
    consistent: bool


def component_comparison(q: DistortionFunction, X: Distribution, alpha) -> ComponentReport:
    """Pointwise kernel comparison phi_a(q(u)) vs phi_a(u) and its implication.

    When the kernel ratio stays on one side of 1 (omega1 >= 1 or omega2 <= 1)
    the implied ordering of system and component measures is checked; a
    ratio on both sides of 1 yields an inconclusive direction with no
    ordering claim.
    """
    a = as_order(alpha)
    w1, w2 = omega_bounds(q, a)
    system = system_efcpe(q, X, a).value
    component = efcpe(X, a).value
    slack = _slack(system, component)
    if w1 >= 1.0 and w2 <= 1.0:
        return ComponentReport("ge", system, component, abs(system - component) <= slack)
    if w1 >= 1.0:
        return ComponentReport("ge", system, component, system >= component - slack)
    if w2 <= 1.0:
        return ComponentReport("le", system, component, system <= component + slack)
    return ComponentReport("inconclusive", system, component, True)
