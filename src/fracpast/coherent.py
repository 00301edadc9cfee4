"""System-lifetime measures through distortion functions.

For a coherent system of iid components, the system lifetime CDF is a
distortion q of the component CDF, F_T = q(F). The system past measure

    E*(T) = int phi_a(q(F(x))) dx,

with phi_a(u) = u * [-Ln_a u]**(1/a) the universal kernel, is then one more
kernel on the core that every cumulative measure shares
(``entropy._measure``), with its end fit, divergence verdict and scale-free
tolerance. A distortion maps the exact pair (p, 1 - p) to (q, 1 - q), each
side formed from the exact side, so the kernel keeps its relative accuracy
at both ends. The module also provides the inf/sup ratio bounds around the
component measure, bounds that need only a density envelope, and
system-vs-system and system-vs-component comparison reports.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Tuple

from .distributions import Distribution, _build
from .entropy import EntropyResult, MeasureTag, _measure, _phi, efcpe
from .errors import DomainError
from .fraclog import FracOrder, LogMode, as_order
from .quadrature import integrate_quantile

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


class DistortionFunction(NamedTuple):
    """Continuous nondecreasing map q of [0, 1] onto itself, as the pair map
    (p, r) -> (v, w) with r = 1 - p, v = q(p) and w = 1 - v, each side
    formed from the exact side of its argument."""

    pair: Callable[[float, float], Tuple[float, float]]
    label: str

    def __call__(self, u: float) -> float:
        return self.pair(u, 1.0 - u)[0]


def _power_pair(n: int, p: float, r: float) -> Tuple[float, float]:
    """(p**n, 1 - p**n), the complement formed from r = 1 - p above p = 1/2;
    below it p**n <= 1/2, and 1 - p**n loses nothing."""
    v = p**n
    return v, -math.expm1(n * math.log1p(-r)) if p > 0.5 else 1.0 - v


def parallel(n: int) -> DistortionFunction:
    """Largest of n iid lifetimes: q(u) = u**n."""
    _check_n(n)
    return DistortionFunction(lambda p, r: _power_pair(n, p, r), f"parallel:{n}")


def series_system(n: int) -> DistortionFunction:
    """Smallest of n iid lifetimes: q(u) = 1 - (1-u)**n, parallel's mirror."""
    _check_n(n)
    return DistortionFunction(lambda p, r: _power_pair(n, r, p)[::-1], f"series:{n}")


def k_out_of_n(k: int, n: int) -> DistortionFunction:
    """Lifetime of a system needing k of n components.

    The system fails at the (n-k+1)-th component failure, so
    q(u) = sum_{j=n-k+1}^{n} C(n, j) u**j (1-u)**(n-j), and 1 - q(u) is
    the same sum below n-k+1.
    """
    _check_n(n)
    if not isinstance(k, int) or not 1 <= k <= n:
        raise DomainError(f"need integer 1 <= k <= n, got k={k}, n={n}")
    j_lo = n - k + 1

    def pair(p: float, r: float) -> Tuple[float, float]:
        terms = [math.comb(n, j) * p**j * r ** (n - j) for j in range(n + 1)]
        return math.fsum(terms[j_lo:]), math.fsum(terms[:j_lo])

    return DistortionFunction(pair, f"koutofn:{k},{n}")


def two_out_of_four() -> DistortionFunction:
    """The quartic distortion 6u**4 - 8u**3 + 3u**2, whose complement in
    r = 1 - u is r(6 - 15r + 16r**2 - 6r**3).

    Its derivative 6u(2u - 1)**2 is nonnegative, so it is a valid
    distortion. Note the coefficient pattern is the power-transpose of the
    binomial form of k_out_of_n(2, 4); the two do not coincide pointwise
    (0.125 versus 0.3125 at u = 0.5).
    """
    return DistortionFunction(lambda p, r: (p * p * (3.0 + p * (-8.0 + 6.0 * p)),
                                            r * (6.0 + r * (-15.0 + r * (16.0 - 6.0 * r)))),
                              "twooutoffour")


def identity_distortion() -> DistortionFunction:
    return DistortionFunction(lambda p, r: (p, r), "identity")


def custom(fn: Callable[[float], float], label: str = "custom") -> DistortionFunction:
    """A distortion from q alone; its complement 1 - q(p) loses the digits
    of q near 1."""

    def pair(p: float, r: float) -> Tuple[float, float]:
        v = fn(p)
        return v, 1.0 - v

    return DistortionFunction(pair, label)


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
    return _phi(a, mode)(u, 1.0 - u)


def system_efcpe(q: DistortionFunction, X: Distribution, alpha) -> EntropyResult:
    """System past measure int phi_a(q(F(x))) dx, on the path of ``efcpe``."""
    a = as_order(alpha)
    phi = _phi(a)
    return _measure(X, lambda p, r: phi(*q.pair(p, r)), MeasureTag.SYSTEM_EFCPE, a.alpha)


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


def _golden_refine(fn, lo: float, hi: float, maximize: bool, iters: int = 80) -> float:
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
    return fn(0.5 * (a + b))


def _ratio_bounds(num: DistortionFunction, den: DistortionFunction, a: FracOrder,
                  what: str = "ratio") -> Tuple[float, float]:
    """Infimum and supremum of phi_a(num(u)) / phi_a(den(u)) on (0, 1).

    The ratio is scanned on a 512-point uniform grid plus geometric tails
    2^-k, k = 10..73, at both ends; a golden-section pass then refines
    between the neighbours of the best grid points. The end limits,
    q_num / q_den at u -> 0 and ((1 - q_num) / (1 - q_den))**(1/a) at
    u -> 1, are approached only logarithmically, so no grid reaches them:
    each is read from the pairs at distance 2^-200 from its end, and counts
    only where it reads finite and positive there.
    """
    phi = _phi(a)

    def ratio(u: float) -> float:
        r = 1.0 - u
        d = phi(*den.pair(u, r))
        if d <= 0.0:
            return math.nan
        return phi(*num.pair(u, r)) / d

    tail = [2.0 ** (-k) for k in range(10, 74)]
    grid = [(i + 0.5) / 512 for i in range(512)] + tail + [1.0 - t for t in tail]
    pts = sorted(u for u in grid if u < 1.0)
    vals = [(r, u) for r, u in ((ratio(u), u) for u in pts) if math.isfinite(r)]
    if not vals:
        raise DomainError(f"{what} undefined on the whole grid")

    def refined(r0: float, u0: float, maximize: bool) -> float:
        i = pts.index(u0)
        left = pts[i - 1] if i > 0 else pts[0] / 2.0
        right = pts[i + 1] if i + 1 < len(pts) else (1.0 + pts[-1]) / 2.0
        r1 = _golden_refine(ratio, left, right, maximize)
        return (max if maximize else min)(r0, r1 if math.isfinite(r1) else r0)

    limits = []
    for side, end, power in ((0, (2.0**-200, 1.0), 1.0), (1, (1.0, 2.0**-200), 1.0 / a.alpha)):
        d = den.pair(*end)[side]
        limit = num.pair(*end)[side] / d if d > 0.0 else math.nan
        if 0.0 < limit < math.inf:
            try:
                limits.append(limit**power)
            except OverflowError:  # the ratio grows past the float range
                limits.append(math.inf)
    return (min([refined(*min(vals), False)] + limits),
            max([refined(*max(vals), True)] + limits))


def _slack(*values: float) -> float:
    """Tolerance for comparing measures: 1e-9 absolute plus 1e-5 of the largest."""
    return 1e-9 + 1e-5 * max(abs(v) for v in values)


def omega_bounds(q: DistortionFunction, alpha) -> Tuple[float, float]:
    """Infimum and supremum of phi_a(q(u)) / phi_a(u) on (0, 1)."""
    return _ratio_bounds(q, identity_distortion(), as_order(alpha))


class SandwichReport(NamedTuple):
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
    phi = _phi(a)
    I = integrate_quantile(lambda p, r: phi(*q.pair(p, r)), lambda p, r: 1.0).value
    lower = I / M if M is not None else None
    upper = I / L if L is not None else None
    return lower, upper


class CrossSystemReport(NamedTuple):
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


class ComponentReport(NamedTuple):
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
