"""Adaptive Gauss-Kronrod quadrature with divergence screening.

A 7/15-point Gauss-Kronrod rule drives a worst-panel-first refinement loop.
Semi-infinite integrals are screened for power-law divergence by probing the
integrand along a geometric ladder, then mapped onto a bounded interval with
``x = a + t / (1 - t)`` and finished with an analytic power-law tail
completion beyond the last probe; the verdict travels in the QuadResult.

The engine reports diagnostics (error estimate, subdivision count, divergence
flag) rather than silently degrading; callers that need a hard failure get
MaxSubdivisionsError with the partial result attached. That error also comes
early, before the budget is spent, once panels at the width limit hold more
error than the tolerance allows and the budget cannot clamp the rest: the
tolerance is then unreachable, and refining further would only burn time.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import MaxSubdivisionsError, NonConvergentError, UnsupportedError

__all__ = [
    "QuadConfig",
    "QuadResult",
    "integrate",
    "integrate_2d",
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
_DIVERGENCE_EXPONENT = -1.05
_PROBE_BASE = 4.0
_PROBE_POINTS = 8


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for the adaptive integrator."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000


@dataclass(frozen=True)
class QuadResult:
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


# _gk15's node pairs j = 0..6 as (abscissa, Kronrod weight, Gauss weight or
# None), and the weights of its node order: the center, then each pair.
_PAIRS = tuple((_XGK[j], _WGK[j], _WG[j // 2] if j % 2 else None) for j in range(7))
_WGK_NODES = (_WGK[7],) + tuple(w for w in _WGK[:7] for _ in (0, 1))


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


def _adaptive(f, lo: float, hi: float, cfg: QuadConfig):
    """Refine the worst panel until the summed error meets tolerance.

    A panel narrower than _WIDTH_CLAMP is accepted as it is, and its error
    stays in the sum for good. Once that clamped error alone exceeds the
    tolerance the remaining panels can still reach, and the budget is too
    small to clamp every remaining panel, the loop can only end by
    exhausting the budget; it raises MaxSubdivisionsError at once instead.
    """
    n_init = 8
    step = (hi - lo) / n_init
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for i in range(n_init):
        a = lo + i * step
        b = hi if i == n_init - 1 else lo + (i + 1) * step
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
                QuadResult(total, total_err, False, splits),
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
                    QuadResult(total, total_err, False, splits),
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

    Bounded intervals never set the diverged flag. A semi-infinite upper
    limit triggers the divergence screen first; a diverged verdict returns
    value=inf with the flag set instead of chasing a runaway refinement.
    """
    cfg = cfg or _DEFAULT
    if math.isnan(a) or math.isnan(b):
        raise UnsupportedError("integration limits must not be NaN")
    if a == -math.inf:
        raise UnsupportedError("lower limit -inf is not supported")
    if b == math.inf:
        return _integrate_semi_infinite(f, a, cfg)
    if a == b:
        return QuadResult(0.0, 0.0, False, 0)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    total, err, splits = _adaptive(f, a, b, cfg)
    return QuadResult(sign * total, err, False, splits)


def _integrate_semi_infinite(f, a: float, cfg: QuadConfig) -> QuadResult:
    """Integrate f over [a, inf) after screening its tail for divergence.

    A least-squares fit of log|f| against log(x - a) on the ladder
    x = a + 4**k gives the tail exponent. A non-finite sample, or a
    same-sign tail at or above -1.05, is diverged; a mixed-sign one that
    slow is low-confidence. Beyond the last probe X, the tail is completed
    as f(X) * X / (-1 - p), with p the exponent of the last two probes.
    """
    offsets = [_PROBE_BASE**k for k in range(_PROBE_POINTS)]
    xs = [a + d for d in offsets]
    fs = [f(x) for x in xs]
    if any(not math.isfinite(v) for v in fs):
        return QuadResult(math.inf, math.inf, True, 0, tail_exponent=math.nan)

    pts = [(math.log(d), math.log(abs(v))) for d, v in zip(offsets, fs) if v != 0.0]
    # Fewer than four nonzero samples: the tail underflowed almost at once.
    slope = -math.inf
    if len(pts) >= 4:
        n = len(pts)
        sx = sum(p[0] for p in pts)
        sy = sum(p[1] for p in pts)
        sxx = sum(p[0] * p[0] for p in pts)
        sxy = sum(p[0] * p[1] for p in pts)
        denom = n * sxx - sx * sx
        slope = (n * sxy - sx * sy) / denom
    slow = slope >= _DIVERGENCE_EXPONENT
    if slow and not (any(v > 0 for v in fs) and any(v < 0 for v in fs)):
        return QuadResult(math.inf, math.inf, True, 0, tail_exponent=slope)

    if xs[-1] == a:
        raise UnsupportedError(
            f"lower limit {a:g} is too large for the semi-infinite map: "
            f"a + {offsets[-1]:g} rounds to a"
        )
    t_cut = (xs[-1] - a) / (1.0 + xs[-1] - a)

    def transformed(t: float) -> float:
        u = 1.0 - t
        return f(a + t / u) / (u * u)

    total, err, splits = _adaptive(transformed, 0.0, t_cut, cfg)
    remainder = 0.0
    if fs[-1] > 0.0 and fs[-2] > 0.0:
        p_local = math.log(fs[-1] / fs[-2]) / math.log(xs[-1] / xs[-2])
        if p_local < -1.0:
            remainder = fs[-1] * xs[-1] / (-1.0 - p_local)
    return QuadResult(
        total + remainder,
        err + 0.05 * abs(remainder),
        False,
        splits,
        low_confidence=slow,
        tail_exponent=slope,
    )


_2D_CFG = QuadConfig(abs_tol=1e-8, rel_tol=1e-7)


def integrate_2d(row: Callable[[float], Callable[[float], float]], x_lo: float, x_hi: float,
                 y_lo: float, y_hi: float) -> QuadResult:
    """Iterated integral of f(x, y) = row(x)(y) over [x_lo, x_hi] x [y_lo, y_hi].

    ``row(x)`` is called once per outer node and returns the inner integrand
    in y, so a factor of x alone is computed once per row, not per point.
    Both axes are bounded; each uses the one-dimensional adaptive rule.
    """
    inner_err = 0.0
    inner_subs = 0

    def outer(x: float) -> float:
        nonlocal inner_err, inner_subs
        res = integrate(row(x), y_lo, y_hi, _2D_CFG)
        inner_err = max(inner_err, res.error_estimate)
        inner_subs = max(inner_subs, res.subdivisions_used)
        return res.value

    res = integrate(outer, x_lo, x_hi, _2D_CFG)
    span = abs(x_hi - x_lo)
    return QuadResult(
        res.value,
        res.error_estimate + inner_err * span,
        False,
        max(res.subdivisions_used, inner_subs),
    )
