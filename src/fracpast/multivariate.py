"""Bivariate cumulative past measures, mutual information, and conditionals.

A bivariate law carries its joint CDF, both marginals, and the conditional
CDF of Y given X = x. The bivariate past measure factorizes the joint weight
through the conditioning chain F_X(x) * F_{Y|X}(y|x) and adds the two
single-coordinate kernels:

    E*(X, Y) = iint F_X F_{Y|X} * [k(F_X) + k(F_{Y|X})] dy dx,
    k(p) = [-Ln_a p]**(1/a).

At a = 1 the kernel is additive over products, so this agrees with the
joint-CDF form F * (-log F); for independent coordinates it reproduces the
marginal decomposition E*(X)[s2 - EY] + E*(Y)[s1 - EX] exactly at every
order, which is the identity the decomposition routines check.

This measure and the three terms of its decomposition theorem share one
chain form, with C = F_{Y|X}(y|x) and a weight triple fixed by F_X alone:

    iint w C (u + s k(C)) dy dx,   (w, u, s) = weights(F_X, k(F_X)):
    E* (F_X, k(F_X), 1),  T1 (F_X, k(F_X), 0),  T2 (1, 0, 1),  T3 (1 - F_X, 0, 1).

The modified bivariate measure and the mutual information integrate the true
joint CDF directly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Tuple

from .distributions import Distribution, Uniform, prhr
from .entropy import (
    _DEGENERATE_WIDTH,
    _ZERO,
    EntropyResult,
    MeasureTag,
    _first_power,
    _integral,
    _phi,
    _result,
    _scaled,
    efcpe,
)
from .errors import DomainError
from .fraclog import LogMode, as_order
from .quadrature import _DEFAULT, QuadResult, integrate_2d

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BivariateLaw",
    "bivariate_efcpe",
    "conditional_efcpe",
    "decomposition_theorem_check",
    "fcpmi",
    "from_density",
    "fgm_law",
    "independence_decomposition",
    "independent_law",
    "iid_n_efcpe",
    "modified_bivariate_efcpe",
    "triangle_law",
]

_RATIO_SLACK = 1e-9


class BivariateLaw(NamedTuple):
    """Joint law of a nonnegative pair with bounded or unbounded rectangle
    support.

    ``conditional_cdf_y_given_x`` takes (y, x). ``supports`` is
    ((x_lo, x_hi), (y_lo, y_hi)). ``y_kinks(x)`` gives the y at which the
    joint and conditional CDFs are not smooth in y at that x, such as the
    edge ``y = x`` of a wedge support; the 2-D measures end an inner panel
    there. It is data about the law, like ``Distribution.qd_kinks``; None,
    the default, names no kinks.
    """

    joint_cdf: Callable[[float, float], float]
    marginal_x: Distribution
    marginal_y: Distribution
    conditional_cdf_y_given_x: Callable[[float, float], float]
    supports: Tuple[Tuple[float, float], Tuple[float, float]]
    label: str = "bivariate"
    y_kinks: Optional[Callable[[float], Tuple[float, ...]]] = None

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.supports[0][1]) and math.isfinite(self.supports[1][1])


def independent_law(X: Distribution, Y: Distribution) -> BivariateLaw:
    """Product law of two independent coordinates."""
    return BivariateLaw(
        joint_cdf=lambda x, y: X.cdf(x) * Y.cdf(y),
        marginal_x=X,
        marginal_y=Y,
        conditional_cdf_y_given_x=lambda y, _x: Y.cdf(y),
        supports=((X.lower, X.upper), (Y.lower, Y.upper)),
        label=f"indep({X!r},{Y!r})",
    )


class _WedgeSecond(Distribution):
    """Law with CDF 2y - y**2 on [0, 1] (second coordinate of the wedge)."""

    family = "wedge_second"

    def __init__(self):
        super().__init__()
        self.lower, self.upper = 0.0, 1.0

    def cdf(self, y):
        if y <= 0.0:
            return 0.0
        if y >= 1.0:
            return 1.0
        return y * (2.0 - y)

    def pdf(self, y):
        return 2.0 * (1.0 - y) if 0.0 <= y <= 1.0 else 0.0

    def _quantile(self, p):
        return 1.0 - math.sqrt(1.0 - p)

    def mean(self):
        return 1.0 / 3.0


def triangle_law() -> BivariateLaw:
    """Uniform density 2 on the wedge 0 < y < x < 1.

    Joint CDF: 2xy - y**2 for y <= x, else x**2. Given X = x, Y is uniform
    on (0, x). Both CDFs have a kink at y = x, the law's ``y_kinks``.
    """

    def joint(x: float, y: float) -> float:
        x = min(max(x, 0.0), 1.0)
        y = min(max(y, 0.0), 1.0)
        if y > x:
            return x * x
        return 2.0 * x * y - y * y

    def conditional(y: float, x: float) -> float:
        if x <= 0.0:
            raise DomainError(f"conditioning point {x} outside (0, 1]")
        if y <= 0.0:
            return 0.0
        return min(1.0, y / x)

    return BivariateLaw(
        joint_cdf=joint,
        marginal_x=prhr(Uniform(1.0), 2.0),
        marginal_y=_WedgeSecond(),
        conditional_cdf_y_given_x=conditional,
        supports=((0.0, 1.0), (0.0, 1.0)),
        label="triangle",
        y_kinks=lambda x: (x,),
    )


def fgm_law(theta: float) -> BivariateLaw:
    """Eyraud-Gumbel-Morgenstern law on the unit square.

    C(u, v) = u v (1 + theta (1-u)(1-v)), theta in [-1, 1]. Negative theta
    gives negative quadrant dependence (joint CDF below the product of the
    marginals), which keeps the mutual-information integrand in domain.
    """
    if not (math.isfinite(theta) and -1.0 <= theta <= 1.0):
        raise DomainError(f"dependence parameter must lie in [-1, 1], got {theta}")

    def joint(x: float, y: float) -> float:
        u = min(max(x, 0.0), 1.0)
        v = min(max(y, 0.0), 1.0)
        return u * v * (1.0 + theta * (1.0 - u) * (1.0 - v))

    def conditional(y: float, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"conditioning point {x} outside [0, 1]")
        v = min(max(y, 0.0), 1.0)
        return v * (1.0 + theta * (1.0 - v) * (1.0 - 2.0 * x))

    return BivariateLaw(
        joint_cdf=joint,
        marginal_x=Uniform(1.0),
        marginal_y=Uniform(1.0),
        conditional_cdf_y_given_x=conditional,
        supports=((0.0, 1.0), (0.0, 1.0)),
        label=f"fgm(theta={theta})",
    )


class _GridDistribution(Distribution):
    """Marginal recovered from a tabulated CDF by linear interpolation."""

    family = "grid"

    def __init__(self, xs: np.ndarray, cdf_values: np.ndarray):
        super().__init__()
        import numpy as np  # loaded by from_density's tabulation, not with the package

        self._interp = np.interp
        self._xs = xs
        self._cdf = np.clip(cdf_values, 0.0, 1.0)
        self._cdf[-1] = 1.0
        self.params = {"points": len(xs)}
        self.lower, self.upper = float(xs[0]), float(xs[-1])

    def cdf(self, x):
        return float(self._interp(x, self._xs, self._cdf))

    def pdf(self, x):
        h = (self.upper - self.lower) * 1e-6
        return (self.cdf(x + h) - self.cdf(x - h)) / (2.0 * h)


def from_density(
    pdf: Callable[[float, float], float],
    x_support: Tuple[float, float],
    y_support: Tuple[float, float],
    grid: int = 256,
    label: str = "density",
) -> BivariateLaw:
    """Tabulate a joint density on a grid and interpolate the law contract.

    The density is integrated by the trapezoid rule into conditional rows
    and the joint CDF, then renormalized so the far corner is exactly 1.
    """
    import numpy as np

    x_lo, x_hi = x_support
    y_lo, y_hi = y_support
    if not (math.isfinite(x_hi) and math.isfinite(y_hi)):
        raise DomainError("density construction requires bounded supports")
    xs = np.linspace(x_lo, x_hi, grid + 1)
    ys = np.linspace(y_lo, y_hi, grid + 1)
    dx = (x_hi - x_lo) / grid
    dy = (y_hi - y_lo) / grid
    P = np.array([[max(0.0, pdf(float(x), float(y))) for y in ys] for x in xs])

    # Row-wise cumulative mass in y: R[i, j] ~ int_{y_lo}^{y_j} p(x_i, t) dt.
    R = np.zeros_like(P)
    R[:, 1:] = np.cumsum(0.5 * (P[:, 1:] + P[:, :-1]) * dy, axis=1)
    # Joint CDF by cumulating the rows in x.
    J = np.zeros_like(P)
    J[1:, :] = np.cumsum(0.5 * (R[1:, :] + R[:-1, :]) * dx, axis=0)
    total = J[-1, -1]
    if total <= 0.0:
        raise DomainError("density integrates to zero on the given rectangle")
    J /= total

    row_mass = R[:, -1]
    C = np.divide(R, row_mass[:, None], out=np.zeros_like(R), where=row_mass[:, None] > 0)

    def joint(x: float, y: float) -> float:
        xi = min(max(x, x_lo), x_hi)
        yi = min(max(y, y_lo), y_hi)
        fx = (xi - x_lo) / dx
        fy = (yi - y_lo) / dy
        i = min(int(fx), grid - 1)
        j = min(int(fy), grid - 1)
        tx, ty = fx - i, fy - j
        return float(
            J[i, j] * (1 - tx) * (1 - ty)
            + J[i + 1, j] * tx * (1 - ty)
            + J[i, j + 1] * (1 - tx) * ty
            + J[i + 1, j + 1] * tx * ty
        )

    def conditional(y: float, x: float) -> float:
        if not x_lo <= x <= x_hi:
            raise DomainError(f"conditioning point {x} outside [{x_lo}, {x_hi}]")
        yi = min(max(y, y_lo), y_hi)
        fx = (x - x_lo) / dx
        i = min(int(fx), grid - 1)
        tx = fx - i
        lowrow = float(np.interp(yi, ys, C[i]))
        highrow = float(np.interp(yi, ys, C[i + 1]))
        return (1 - tx) * lowrow + tx * highrow

    return BivariateLaw(
        joint_cdf=joint,
        marginal_x=_GridDistribution(xs, J[:, -1].copy()),
        marginal_y=_GridDistribution(ys, J[-1, :].copy()),
        conditional_cdf_y_given_x=conditional,
        supports=((x_lo, x_hi), (y_lo, y_hi)),
        label=label,
    )


def _rectangle_integral(J: BivariateLaw, row: Callable[[float], Callable[[float], float]],
                        what: str) -> QuadResult:
    """iint row(x)(y) dy dx over the support rectangle, each row split at the
    law's y_kinks; exactly zero on a degenerate one."""
    if not J.bounded:
        raise DomainError(f"{what} requires bounded supports, got {J.supports}")
    (x_lo, x_hi), (y_lo, y_hi) = J.supports
    if (x_hi - x_lo) < _DEGENERATE_WIDTH or (y_hi - y_lo) < _DEGENERATE_WIDTH:
        return _ZERO
    return integrate_2d(row, x_lo, x_hi, y_lo, y_hi, J.y_kinks)


def _chain(J: BivariateLaw, k, weights: Callable[[float, float], Tuple[float, float, float]],
           what: str) -> QuadResult:
    """iint w C (u + s k(C)) dy dx along the conditioning chain.

    C = F_{Y|X}(y|x), and (w, u, s) = weights(F_X(x), k(F_X(x))) is fixed
    per row, with k(p) taken as 0 at p <= 0 and p >= 1. A row with w = 0 or
    u = s = 0 is zero and never calls the conditional CDF; one with s = 0
    never evaluates k(C).
    """
    conditional, cdf_x = J.conditional_cdf_y_given_x, J.marginal_x.cdf

    def row(x: float) -> Callable[[float], float]:
        Fx = cdf_x(x)
        w, u, s = weights(Fx, k(Fx, 1.0 - Fx) if 0.0 < Fx < 1.0 else 0.0)
        if w == 0.0 or (u == 0.0 and s == 0.0):
            return lambda _y: 0.0

        def integrand(y: float) -> float:
            C = conditional(y, x)
            if C <= 0.0:
                return 0.0
            kC = k(C, 1.0 - C) if s and C < 1.0 else 0.0
            return w * C * (u + s * kC)

        return integrand

    return _rectangle_integral(J, row, what)


def bivariate_efcpe(J: BivariateLaw, alpha) -> EntropyResult:
    """Bivariate past measure in the factorized-kernel form.

    Integrand: F_X(x) F_{Y|X}(y|x) [k(F_X(x)) + k(F_{Y|X}(y|x))] over the
    support rectangle, with k the order-alpha kernel: the chain row with
    (w, u, s) = (F_X, k(F_X), 1). Reduces to the joint F (-log F) form at
    alpha = 1 and to the marginal decomposition under independence.
    """
    a = as_order(alpha)
    res = _chain(J, a._kernels[LogMode.APPROX], lambda Fx, kx: (Fx, kx, 1.0),
                 "bivariate past measure")
    return _result(res, MeasureTag.BIVARIATE_EFCPE, a.alpha)


def modified_bivariate_efcpe(J: BivariateLaw, alpha) -> EntropyResult:
    """First-power bivariate measure Gamma(1+a) * iint F(x,y) (-log F) dy dx

    taken over the support rectangle with the true joint CDF.
    """
    a = as_order(alpha)
    joint = J.joint_cdf

    def row(x: float) -> Callable[[float], float]:
        def integrand(y: float) -> float:
            F = joint(x, y)
            return _first_power(F, 1.0 - F)

        return integrand

    res = _rectangle_integral(J, row, "modified bivariate past measure")
    return _result(_scaled(res, math.gamma(1.0 + a.alpha)),
                   MeasureTag.MODIFIED_BIVARIATE_EFCPE, a.alpha)


def independence_decomposition(X: Distribution, Y: Distribution, alpha) -> float:
    """Marginal decomposition E*(X)[s2 - EY] + E*(Y)[s1 - EX].

    When the two coordinates share support [0, l] and mean mu this is
    (l - mu)(E*(X) + E*(Y)).
    """
    a = as_order(alpha)
    if math.isinf(X.upper) or math.isinf(Y.upper):
        raise DomainError("independence decomposition requires bounded supports")
    ex = efcpe(X, a).value
    ey = efcpe(Y, a).value
    return ex * (Y.upper - Y.mean()) + ey * (X.upper - X.mean())


def iid_n_efcpe(X: Distribution, n: int, alpha) -> float:
    """n-coordinate iid product measure n (l - mu)**(n-1) E*(X)."""
    a = as_order(alpha)
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"coordinate count must be an integer >= 2, got {n}")
    if math.isinf(X.upper):
        raise DomainError("iid product measure requires a bounded support")
    return n * (X.upper - X.mean()) ** (n - 1) * efcpe(X, a).value


def _ratio_violations(J: BivariateLaw, probes: int = 21):
    """Scan the support rectangle for points where F(x,y) > F_X F_Y."""
    (x_lo, x_hi), (y_lo, y_hi) = J.supports
    worst = None
    for i in range(probes):
        x = x_lo + (x_hi - x_lo) * (i + 0.5) / probes
        Fx = J.marginal_x.cdf(x)
        if Fx <= 0.0:
            continue
        for j in range(probes):
            y = y_lo + (y_hi - y_lo) * (j + 0.5) / probes
            Fy = J.marginal_y.cdf(y)
            if Fy <= 0.0:
                continue
            ratio = J.joint_cdf(x, y) / (Fx * Fy)
            if ratio > 1.0 + _RATIO_SLACK and (worst is None or ratio > worst[2]):
                worst = (x, y, ratio)
    return worst


def fcpmi(J: BivariateLaw, alpha) -> float:
    """Fractional cumulative past mutual information.

    iint F(x,y) [-Ln_a (F / (F_X F_Y))]**(1/a) over the support rectangle.
    Zero for independent laws. For fractional orders below 1 the ratio must
    stay in (0, 1]; positively quadrant dependent laws violate that and
    raise DomainError. At alpha = 1 the integrand is the plain signed
    logarithm, so those laws are still measurable there.
    """
    a = as_order(alpha)
    worst = _ratio_violations(J)
    if worst is not None and a.alpha < 1.0:
        x, y, ratio = worst
        raise DomainError(
            "mutual information undefined for order below 1: "
            f"F/(Fx Fy) = {ratio:.6f} > 1 at ({x:.4f}, {y:.4f})"
        )

    k = a._kernels[LogMode.APPROX]
    signed = a.alpha == 1.0
    cdf_y, joint = J.marginal_y.cdf, J.joint_cdf

    def row(x: float) -> Callable[[float], float]:
        Fx = J.marginal_x.cdf(x)
        if Fx <= 0.0:
            return lambda _y: 0.0

        def integrand(y: float) -> float:
            Fy = cdf_y(y)
            F = joint(x, y)
            if F <= 0.0 or Fy <= 0.0:
                return 0.0
            ratio = F / (Fx * Fy)
            if signed:
                return -F * math.log(ratio)
            if ratio >= 1.0:
                return 0.0
            return F * k(ratio, 1.0 - ratio)

        return integrand

    return _rectangle_integral(J, row, "mutual information").value


def conditional_efcpe(J: BivariateLaw, alpha, x: float) -> float:
    """Past measure of the conditional law of Y given X = x."""
    a = as_order(alpha)
    (x_lo, x_hi), (y_lo, y_hi) = J.supports
    if not x_lo < x <= x_hi:
        raise DomainError(f"conditioning point {x} outside ({x_lo}, {x_hi}]")
    res = _integral(_phi(a), lambda y: J.conditional_cdf_y_given_x(y, x), y_lo, y_hi,
                    cfg=_DEFAULT)
    return res.value


def decomposition_theorem_check(J: BivariateLaw, alpha) -> Tuple[float, float]:
    """Three-term split of the bivariate past measure.

    lhs is bivariate_efcpe. rhs adds the conditionally weighted X-measure
    and the conditional Y-measure, then subtracts the survival-weighted
    conditional Y-measure:

        T1 = iint F_{Y|X} F_X k(F_X),   T2 = iint F_{Y|X} k(F_{Y|X}),
        T3 = iint (1 - F_X) F_{Y|X} k(F_{Y|X}),   rhs = T1 + T2 - T3.

    Each term is integrated separately so the identity is a genuine
    numerical check rather than an algebraic rearrangement.
    """
    a = as_order(alpha)
    k = a._kernels[LogMode.APPROX]
    # The chain row's (w, u, s) for T1, T2 and T3.
    weights = (lambda Fx, kx: (Fx, kx, 0.0),
               lambda Fx, kx: (1.0, 0.0, 1.0),
               lambda Fx, kx: (1.0 - Fx, 0.0, 1.0))
    # The three terms go first, so an unbounded law is refused under this check's name.
    T1, T2, T3 = (_chain(J, k, w, "decomposition check").value for w in weights)
    return bivariate_efcpe(J, a).value, T1 + T2 - T3
