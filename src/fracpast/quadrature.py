"""Adaptive Gauss-Kronrod quadrature with divergence screening.

A 7/15-point Gauss-Kronrod rule drives a worst-panel-first refinement loop.

Every cumulative measure, ``int g(F(x)) dx`` or ``int g(S(x)) dx``, becomes
``int g(u) qd(u) du`` under ``x = Q(u)``, where ``qd = 1/f(Q)`` is the law's
quantile density (Parzen, JASA 1979); ``integrate_quantile`` integrates it
over (0, 1) with one endpoint fit per half, one divergence verdict and one
substitution, all decided in ``u``, which has no units, so the scale law
holds by construction. ``integrate`` over a bounded interval is the
refinement loop alone; over ``[a, inf)`` it is the same core under the map
``x = a + p / q``, whose quantile density ``1 / q^2`` makes the endpoint fit
at ``q -> 0`` the tail's law, run to the caller's own tolerances.

Rectangles are integrated as iterated 1-D integrals, each axis mapped onto
[0, 1] by the graded map ``lo + w t^2 (3 - 2t)``, which flattens endpoint
singularities; the tolerances then apply to the dimensionless integral, so
the value scales exactly with the area of the rectangle. Each inner row can
be split at the y where the caller says it has a kink.

The engine reports diagnostics (error estimate, subdivision count, divergence
flag) rather than silently degrading. Every QuadResult built here either
meets ``error_estimate <= max(abs_tol, rel_tol * |value|)`` or carries
``low_confidence``. Callers that need a hard failure get
MaxSubdivisionsError with the partial result attached. That error also comes
early, before the budget is spent, once panels at the width limit hold more
error than the tolerance allows and the budget cannot clamp the rest: the
tolerance is then unreachable, and refining further would only burn time.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import DomainError, MaxSubdivisionsError, NonConvergentError, UnsupportedError

__all__ = [
    "QuadConfig",
    "QuadResult",
    "integrate",
    "integrate_2d",
    "integrate_quantile",
]

# 15-point Kronrod abscissae on [-1, 1] (nonnegative half) and weights,
# with the embedded 7-point Gauss weights.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_WIDTH_CLAMP = 1e-12

# The probability-space core: endpoint probes at u = 2^-k, k = 20, ..., 320,
# and from 2^-900 where the endpoint exponent is at or below _U_DIVERGED;
# and the panels each half starts from.
_U_PROBES = tuple(2.0 ** -k for k in range(320, 0, -20))
_U_DEEP = tuple(2.0 ** -k for k in range(900, 320, -20)) + _U_PROBES
_U_DIVERGED = -0.98
_U_PANELS = 4
# Where the integrand or the quantile density, extrapolated from the deepest
# probe, would pass _U_BIG, and in any case below _U_FLOOR, the core stops
# evaluating and completes the half from the endpoint fit: near an end
# h ~ s^gamma with gamma near -1, or a steep qd, leaves the float range
# while the integral stays finite.
_U_FLOOR = 2.0 ** -900
_U_BIG = 1e300
# A fitted c or delta within _U_FLAT of 0 counts as 0: that is far above
# the fit's rounding, and L^c or s^delta then moves h by under 1e-3 at every
# float s > 0 (L < 745).
_U_FLAT = 1e-6


class _QuadConfigFields(NamedTuple):
    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000


class QuadConfig(_QuadConfigFields):
    """Tolerances and budgets for the adaptive integrator; a NaN or negative
    tolerance, which no error estimate could ever meet, or a negative
    subdivision budget is refused here."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.abs_tol >= 0.0 and self.rel_tol >= 0.0 and self.max_subdivisions >= 0):
            raise DomainError(f"tolerances and budget must be >= 0; got abs_tol={self.abs_tol}, "
                              f"rel_tol={self.rel_tol}, max_subdivisions={self.max_subdivisions}")
        return self

    # _replace builds through _make, so it checks its fields too.
    _make = classmethod(lambda cls, fields: cls(*fields))


class QuadResult(NamedTuple):
    """Integral value plus the diagnostics callers are expected to inspect."""

    value: float
    error_estimate: float
    diverged: bool
    subdivisions_used: int
    low_confidence: bool = False
    tail_exponent: float = math.nan


_DEFAULT = QuadConfig()
# The univariate measures' tolerances.
_MEASURE_CFG = QuadConfig(abs_tol=1e-10, rel_tol=1e-9)
# The probability-space core's own tolerances: relative only, so scale-free.
_U_CFG = QuadConfig(abs_tol=0.0, rel_tol=1e-10)


# _gk15's node pairs j = 0..6 as (abscissa, Kronrod weight, Gauss weight or
# None), and the weights of its node order: the center, then each pair.
_PAIRS = tuple((_XGK[j], _WGK[j], _WG[j // 2] if j % 2 else None) for j in range(7))
_WGK_NODES = (_WGK[7],) + tuple(w for w in _WGK[:7] for _ in (0, 1))


def _checked(value: float, err: float, splits: int, cfg: QuadConfig,
             tail_exponent: float = math.nan) -> QuadResult:
    """A finite result, flagged low-confidence unless its error estimate
    meets ``max(abs_tol, rel_tol * |value|)``."""
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return QuadResult(value, err, False, splits, not err <= tol, tail_exponent)


def _nonfinite(y: float, x: float) -> NonConvergentError:
    return NonConvergentError(f"integrand returned {y} at x={x}")


def _gk15(f, lo: float, hi: float):
    """One Gauss-Kronrod panel: returns (value, refined_error_estimate)."""
    isfinite = math.isfinite
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(center)
    if not isfinite(fc):
        raise _nonfinite(fc, center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    values = [fc]
    for xk, wk, wg in _PAIRS:
        dx = half * xk
        f1 = f(center - dx)
        if not isfinite(f1):
            raise _nonfinite(f1, center - dx)
        f2 = f(center + dx)
        if not isfinite(f2):
            raise _nonfinite(f2, center + dx)
        pair = f1 + f2
        resk += wk * pair
        if wg is not None:
            resg += wg * pair
        values += (f1, f2)
    reskh = 0.5 * resk
    resasc = sum([w * abs(v - reskh) for w, v in zip(_WGK_NODES, values)]) * half
    value = resk * half
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return value, err


def _adaptive(f, lo: float, hi: float, cfg: QuadConfig, n_init: int = 8, kinks=()):
    """Refine the worst panel, from n_init equal ones, each also split at the
    kinks inside it, until the summed error meets tolerance.

    A panel narrower than _WIDTH_CLAMP is accepted as it is, and its error
    stays in the sum for good. Once that clamped error alone exceeds the
    tolerance the remaining panels can still reach, and the budget is too
    small to clamp every remaining panel, the loop can only end by
    exhausting the budget; it raises MaxSubdivisionsError at once instead.
    """
    step = (hi - lo) / n_init
    edges = [lo + i * step for i in range(n_init)]
    edges = sorted(edges + [k for k in set(kinks) if lo < k < hi and k not in edges])
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for a, b in zip(edges, edges[1:] + [hi]):
        val, err = _gk15(f, a, b)
        heapq.heappush(heap, (-err, counter, a, b, val, err))
        counter += 1
        total += val
        total_err += err

    splits = 0
    clamped_err = 0.0
    while heap and total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if splits >= cfg.max_subdivisions:
            raise MaxSubdivisionsError(
                f"subdivision budget {cfg.max_subdivisions} exhausted; "
                f"error estimate {total_err:.3e}",
                QuadResult(total, total_err, False, splits, low_confidence=True),
            )
        _, _, a, b, val, err = heapq.heappop(heap)
        if b - a < _WIDTH_CLAMP:
            # Panel is at resolution limit: accept its contribution as-is.
            clamped_err += err
            open_err = sum(item[5] for item in heap)
            total_err = clamped_err + open_err
            reachable = max(cfg.abs_tol, cfg.rel_tol * (abs(total) + open_err))
            # Clamping an open panel of width w takes more than
            # w / _WIDTH_CLAMP - 1 splits, so the sum bounds from below the
            # splits that emptying the heap needs.
            if clamped_err > reachable and (
                    sum(item[3] - item[2] for item in heap) / _WIDTH_CLAMP - len(heap)
                    > cfg.max_subdivisions - splits):
                raise MaxSubdivisionsError(
                    f"tolerance unreachable: error {clamped_err:.3e} of panels at the "
                    f"width limit exceeds {reachable:.3e}; {splits} of "
                    f"{cfg.max_subdivisions} subdivisions used",
                    QuadResult(total, total_err, False, splits, low_confidence=True),
                )
            continue
        mid = 0.5 * (a + b)
        val1, err1 = _gk15(f, a, mid)
        val2, err2 = _gk15(f, mid, b)
        total += (val1 + val2) - val
        total_err += (err1 + err2) - err
        heapq.heappush(heap, (-err1, counter, a, mid, val1, err1))
        counter += 1
        heapq.heappush(heap, (-err2, counter, mid, b, val2, err2))
        counter += 1
        splits += 1
    return total, total_err, splits


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: Optional[QuadConfig] = None,
) -> QuadResult:
    """Integrate f over [a, b], where b may be math.inf.

    Bounded intervals never set the diverged flag. ``[a, inf)`` goes
    through the core of ``integrate_quantile`` under ``x = a + p / q``, to
    cfg's own tolerances, half of abs_tol on each half of (0, 1): a tail
    that decays no faster than ``x^-1`` with one sign returns value=inf with
    the flag set and its exponent in ``tail_exponent``, and one that changes
    sign without decaying that fast raises NonConvergentError.
    """
    cfg = cfg or _DEFAULT
    if math.isnan(a) or math.isnan(b):
        raise UnsupportedError("integration limits must not be NaN")
    if a == -math.inf:
        raise UnsupportedError("lower limit -inf is not supported")
    if b == math.inf:
        if a + 1.0 == a:
            raise UnsupportedError(
                f"lower limit {a:g} is too large for the semi-infinite map: a + 1 rounds to a")
        return _quantile(lambda p, q: f(a + p / q), lambda p, q: 1.0 / q / q, False, cfg)
    if a == b:
        return QuadResult(0.0, 0.0, False, 0)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    total, err, splits = _adaptive(f, a, b, cfg)
    return _checked(sign * total, err, splits, cfg)


_2D_CFG = QuadConfig(abs_tol=1e-8, rel_tol=1e-7)
_2D_PANELS = 2


def integrate_2d(row: Callable[[float], Callable[[float], float]], x_lo: float, x_hi: float,
                 y_lo: float, y_hi: float,
                 y_kinks: Optional[Callable[[float], Iterable[float]]] = None) -> QuadResult:
    """Iterated integral of f(x, y) = row(x)(y) over [x_lo, x_hi] x [y_lo, y_hi].

    ``row(x)`` is called once per outer node and returns the inner integrand
    in y, so a factor of x alone is computed once per row, not per point.
    ``y_kinks(x)``, if given, names the y where that row is not smooth; each
    one strictly inside (y_lo, y_hi) becomes a panel edge of the row, so no
    Gauss-Kronrod panel straddles it. Others, and NaN, are ignored.

    Each axis is integrated over t in [0, 1] through the graded map
    ``lo + w t^2 (3 - 2t)``, w the axis width, with weight ``6t (1 - t)``;
    the area of the rectangle multiplies the value and the error estimate
    once, at the end. The map flattens an endpoint singularity such as the
    ``y |log y|^c`` of a kernel at a vanishing CDF into ``t^3 log t``, which
    the Gauss-Kronrod rule resolves in a few panels. Both axes start from
    two panels. The tolerances apply to the dimensionless integral in
    (s, t), so scaling both coordinates by c scales the value by c^2 and
    leaves the refinement as it is.
    """
    wx = x_hi - x_lo
    wy = y_hi - y_lo
    inner_err = 0.0
    inner_subs = 0

    def outer(s: float) -> float:
        nonlocal inner_err, inner_subs
        x = x_lo + wx * (s * s * (3.0 - 2.0 * s))
        f = row(x)

        def inner(t: float) -> float:
            return f(y_lo + wy * (t * t * (3.0 - 2.0 * t))) * (6.0 * t * (1.0 - t))

        # The graded coordinate of each kink: t^2 (3 - 2t) = u inverted.
        kinks = [0.5 - math.sin(math.asin(1.0 - 2.0 * (y - y_lo) / wy) / 3.0)
                 for y in y_kinks(x) if y_lo < y < y_hi] if y_kinks else ()
        value, err, splits = _adaptive(inner, 0.0, 1.0, _2D_CFG, _2D_PANELS, kinks)
        inner_err = max(inner_err, err)
        inner_subs = max(inner_subs, splits)
        return value * (6.0 * s * (1.0 - s))

    value, err, splits = _adaptive(outer, 0.0, 1.0, _2D_CFG, _2D_PANELS)
    # The outer and the worst inner error together must meet the tolerance
    # of the dimensionless integral.
    flag = _checked(value, err + inner_err, 0, _2D_CFG).low_confidence
    area = wx * wy
    return QuadResult(value * area, (err + inner_err) * abs(area), False,
                      max(splits, inner_subs), flag)


def _half(g, qd, survival: bool, upper: bool, m: int, floor: float) -> Callable[[float], float]:
    """One half of (0, 1) as a function of w on (0, 1]: the probability-space
    integrand h at distance s = w^m / 2 from the half's end, times ds/dw, and
    0 below ``floor``. The lower half passes p = s, the upper half q = s,
    the other 1 - s."""
    c, k = 0.5 * m, m - 1
    flip = survival != upper  # g reads (1 - s, s)

    def f(w: float) -> float:
        wk = w ** k
        s = 0.5 * w * wk
        if s < floor:
            return 0.0
        r = 1.0 - s
        v = g(r, s) if flip else g(s, r)
        if v == 0.0:
            return 0.0
        try:
            return v * (qd(r, s) if upper else qd(s, r)) * c * wk
        except OverflowError:  # qd passed the float range
            return math.inf

    return f


class _EndFit:
    """The law h s = A L^c s^delta at one end of (0, 1), s the distance to
    it and L = -log s. The slopes gamma of log h and beta of log qd in log s
    between the two deepest probes s1 < s2 of 2^-320 ... 2^-20 where h is
    finite and nonzero give c = 0 and delta = gamma + 1. At gamma <= -0.98
    that slope cannot tell s^delta from a power of L (a Frechet lower end, a
    Weibull one of large shape, a kernel in -log p): c and delta are then
    solved through the three deepest probes from 2^-900, the deepest
    becoming s1, and delta is NaN without three. Without two probes gamma
    and delta are inf if h vanished at every probe, else NaN."""

    def __init__(self, g, qd, survival: bool, upper: bool):
        self.gamma = self.beta = math.nan
        self.c = 0.0
        self.half = _half(g, qd, survival, upper, 1, 0.0)  # half(2s) = h(s) / 2
        self.qd = (lambda s: qd(1.0 - s, s)) if upper else (lambda s: qd(s, 1.0 - s))
        found = self._probe(_U_PROBES, 2)
        if len(found) < 2:
            nonfinite = any(not math.isfinite(self.half(2.0 * s)) for s in _U_PROBES)
            self.gamma = self.delta = math.nan if nonfinite else math.inf
            return
        (self.s1, self.h1, self.q1), (s2, h2, q2) = found
        span = math.log(self.s1 / s2)
        self.gamma = math.log(self.h1 / h2) / span
        self.beta = math.log(self.q1 / q2) / span
        self.delta = self.gamma + 1.0 if self.gamma > _U_DIVERGED else math.nan
        found = self._probe(_U_DEEP, 3) if self.gamma <= _U_DIVERGED else ()
        if len(found) == 3:  # log(h s) = log A + c log L - delta L at each probe
            self.s1, self.h1, self.q1 = found[0]
            L = [-math.log(s) for s, _, _ in found]
            l = list(map(math.log, L))
            y = [math.log(h * s) if h * s > 0.0 else math.log(h) - x
                 for (s, h, _), x in zip(found, L)]
            dL, dl, dy = ([v[i] - v[i + 1] for i in (0, 1)] for v in (L, l, y))
            det = dL[0] * dl[1] - dL[1] * dl[0]
            self.c = (dL[0] * dy[1] - dL[1] * dy[0]) / det
            self.delta = (dl[0] * dy[1] - dl[1] * dy[0]) / det
            # A pure power of L or of s: its one exponent, which rounding moves less.
            if abs(self.delta) <= _U_FLAT:
                self.c, self.delta = (y[0] - y[2]) / (l[0] - l[2]), 0.0
            elif abs(self.c) <= _U_FLAT:
                self.c, self.delta = 0.0, (y[2] - y[0]) / (L[0] - L[2])

    def _probe(self, ladder, n: int) -> list:
        """The n deepest (s, |h|, qd) on ladder where h is finite and nonzero."""
        found = []
        for s in ladder:
            h = abs(2.0 * self.half(2.0 * s))
            if 0.0 < h < math.inf:
                found.append((s, h, self.qd(s)))
                if len(found) == n:
                    break
        return found

    def diverged(self) -> bool:
        """Unless h s decays in L: delta > 0, or delta = 0 and c < -1."""
        return not (self.delta > _U_FLAT or self.delta >= -_U_FLAT and self.c < -1.0)

    def one_signed(self) -> bool:
        """Whether h has one sign at every probe where it is nonzero."""
        signs = {h > 0.0 for h in map(self.half, (2.0 * s for s in _U_PROBES)) if h == h and h}
        return len(signs) < 2

    def x_exponent(self) -> float:
        """The exponent in x units, (gamma + 1) / (beta + 1) - 1. Where beta
        is within 0.01 of -1 the end is exponential in x (x ~ -log s), and
        the exponent is -inf, or inf where the end diverges."""
        gamma, beta = self.gamma, self.beta
        if not math.isfinite(gamma):
            return math.nan
        if abs(beta + 1.0) < 0.01:
            return math.inf if self.diverged() else -math.inf
        return (gamma - beta) / (beta + 1.0)

    def floor(self) -> float:
        """The depth where h or qd, extrapolated from s1, would pass _U_BIG,
        or _U_FLOOR if that is deeper; at most s1, where both were finite."""
        if not math.isfinite(self.gamma):
            return _U_FLOOR
        floor = _U_FLOOR
        for exponent, value in ((self.gamma, self.h1), (self.beta, self.q1)):
            if exponent < 0.0:
                try:
                    floor = max(floor, self.s1 * (_U_BIG / value) ** (1.0 / exponent))
                except OverflowError:
                    floor = self.s1
        return min(floor, self.s1)

    def rest(self, floor: float) -> float:
        """int_0^floor h ds under the fitted law: with a = c + 1 and
        Lf = -log floor, (h s)(Lf) Lf int_0^inf exp(a t - delta Lf (e^t - 1)) dt
        in t = log(L / Lf), which is 1 / (delta Lf) where c = 0 and 1 / -a
        where delta = 0."""
        if not math.isfinite(self.gamma):
            return 0.0
        if self.c == 0.0:
            return self.h1 * self.s1 * (floor / self.s1) ** self.delta / self.delta
        L1, Lf = -math.log(self.s1), -math.log(floor)
        a, x = self.c + 1.0, self.delta * Lf
        hs = self.h1 * self.s1 * (Lf / L1) ** self.c * math.exp(self.delta * (L1 - Lf))
        if abs(self.delta) <= _U_FLAT:
            return hs * Lf / -a
        # Past t = 700 the integrand is 0 for every delta above _U_FLAT.
        t = lambda p, q: min(p / q, 700.0)
        try:
            rest = hs * Lf * _quantile(lambda p, q: math.exp(a * t(p, q) - x * math.expm1(t(p, q))),
                                       lambda p, q: 1.0 / q / q, False, _U_CFG).value
            if rest < math.inf:
                return rest
        except OverflowError:
            pass
        raise NonConvergentError(f"the end law h s ~ L^{self.c:.4g} s^{self.delta:.4g} "
                                 "integrates past the float range")


def integrate_quantile(
    g: Callable[[float, float], float],
    qd: Callable[[float, float], float],
    survival: bool = False,
    cfg: Optional[QuadConfig] = None,
    kinks: tuple = (),
) -> QuadResult:
    """Integrate g(p, q) * qd(p, q) over 0 < p < 1, where q = 1 - p.

    With g a nonnegative kernel and qd a law's quantile density this is
    int g(F(x)) dx over the support; ``survival=True`` passes g the pair
    (q, p), which gives int g(S(x)) dx. Both arguments of each pair are
    exact: the lower half of (0, 1) passes p = u, the upper half q = 1 - u.

    Each end is fitted as ``h s ~ L^c s^delta`` at distance s from it, with
    L = -log s (``_EndFit``). A slow end, endpoint exponent gamma <= -0.98,
    raises NonConvergentError if h changes sign among its probes: a slow end
    that changes sign has no limit the fit can see. An end where h s does
    not decay in L is a diverged result, value inf. Otherwise ``s = w^m / 2``
    with ``m = clamp(ceil(3 / max(gamma + 1, 0.05)), 2, 60)`` makes the
    endpoint smooth and the refinement loop runs from 4 panels per half, to
    a relative tolerance of 1e-10 or the caller's rel_tol if tighter, with
    no absolute tolerance, each half under the caller's subdivision budget.

    A panel holding one of the levels ``kinks``, where qd's slope jumps, is
    split there: a kink between a panel's outermost node and its end is
    invisible to the error estimate. Below the depth where h or qd would
    leave the float range (``_EndFit.floor``, 2^-900 at most) the fitted
    law stands in for h; its integral is added to the value and to the
    error estimate. ``tail_exponent`` is the diverged end's exponent, or
    else the upper end's, in x units.
    """
    cfg = cfg or _MEASURE_CFG
    return _quantile(g, qd, survival,
                     QuadConfig(0.0, min(cfg.rel_tol, _U_CFG.rel_tol), cfg.max_subdivisions), kinks)


def _quantile(g, qd, survival: bool, cfg: QuadConfig, kinks: tuple = ()) -> QuadResult:
    """``integrate_quantile`` to cfg as it is, half its abs_tol per half."""
    fits = {upper: _EndFit(g, qd, survival, upper) for upper in (True, False)}
    for upper, fit in fits.items():
        if not fit.gamma > _U_DIVERGED and not fit.one_signed():
            raise NonConvergentError(
                f"integrand changes sign near the {'upper' if upper else 'lower'} end "
                f"without decaying (endpoint exponent {fit.gamma:.3f}): no limit")
        if fit.diverged():
            return QuadResult(math.inf, math.inf, True, 0, tail_exponent=fit.x_exponent())
    half_cfg = QuadConfig(0.5 * cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions)
    total = err = 0.0
    splits = 0
    for upper, fit in fits.items():
        m = min(60, max(2, math.ceil(3.0 / max(fit.gamma + 1.0, 0.05))))
        floor = fit.floor()
        # Where gamma <= -0.98, h ds/dw can be far from 0 at the floor: start there.
        start = (2.0 * floor) ** (1.0 / m) if fit.gamma <= _U_DIVERGED else 0.0
        ends = [1.0 - p if upper else p for p in kinks if (p > 0.5 if upper else p < 0.5)]
        try:
            value, e, n = _adaptive(_half(g, qd, survival, upper, m, floor), start, 1.0, half_cfg,
                                    _U_PANELS, [(2.0 * s) ** (1.0 / m) for s in ends])
        except MaxSubdivisionsError as exc:  # the partial result covers both halves
            part = exc.partial
            exc.partial = part._replace(value=total + part.value,
                                        error_estimate=err + part.error_estimate,
                                        subdivisions_used=splits + part.subdivisions_used)
            raise
        rest = fit.rest(floor)
        total += value + rest
        err += e + rest
        splits += n
    return _checked(total, err, splits, cfg, tail_exponent=fits[True].x_exponent())
