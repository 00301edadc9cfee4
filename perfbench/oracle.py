"""Reference values for every benchmark call, computed without fracpast.

Nothing here calls fracpast's quadrature, kernel or distributions. Laws are
described by plain tuples (see ``workloads.py``) and re-implemented here
from their closed-form CDFs. References come from

* closed forms (Uniform and Frechet past measures, the exponential
  cumulative residual measure, the parallel-Uniform system measure);
* the scale law: a scaled law's measure is the scale times the measure of
  the unit-scale law, which is what gets integrated;
* ``scipy.integrate.quad``/``dblquad`` on the APPROX integrand;
* a high-precision mpmath series for the Mittag-Leffler function E_a, or
  mpmath quadrature of its Gorenflo-Mainardi spectral integral where the
  series would need more than a few hundred digits;
* divergence verdicts from each family's tail exponent.

scipy and mpmath are imported inside the functions, so importing this
module costs nothing before the timed region.
"""

from __future__ import annotations

import math

REL_TOL = 1e-6          # 1-D measures: the program asks its quadrature for 1e-9
REL_TOL_2D = 1e-6       # 2-D measures: the program asks for 1e-7 per axis
ABS_TOL_2D = 1e-9
REL_TOL_MLF = 1e-8      # the spectral branch asks for 1e-10
REL_TOL_SAMPLE = 1e-12  # spacing sums are exact up to summation order
TAIL_MARGIN = 0.1       # integrand tail exponents this close to -1 are not drawn

_QUAD = dict(epsabs=0.0, epsrel=1e-11, limit=800)


# ---------------------------------------------------------------------------
# laws


def _log_p(F, S):
    """-log F computed from whichever of F and S = 1 - F is more accurate."""
    if F > 0.5:
        return -math.log1p(-S)
    return -math.log(F)


def _unit_fs(spec, x):
    """(F, S) of a unit-scale law at x, both to full relative accuracy."""
    fam = spec[0]
    if fam == "uniform":
        return x, 1.0 - x
    if fam == "exponential":
        return -math.expm1(-x), math.exp(-x)
    if fam == "weibull":
        z = x ** spec[2]
        return -math.expm1(-z), math.exp(-z)
    if fam == "frechet":
        if x <= 0.0:
            return 0.0, 1.0
        z = x ** (-spec[1])
        return math.exp(-z), -math.expm1(-z)
    if fam == "pareto":
        return -math.expm1(-spec[1] * math.log1p(x)), (1.0 + x) ** (-spec[1])
    if fam == "loguniform":
        lr = math.log(spec[2])
        return math.log(x) / lr, math.log(spec[2] / x) / lr
    if fam == "beta":
        from scipy.special import betainc

        return float(betainc(spec[1], spec[2], x)), float(betainc(spec[2], spec[1], 1.0 - x))
    if fam == "triangularsum":
        if x <= 1.0:
            return 0.5 * x * x, 1.0 - 0.5 * x * x
        return 1.0 - 0.5 * (2.0 - x) ** 2, 0.5 * (2.0 - x) ** 2
    if fam == "uniformsum":
        a, b = spec[1], spec[2]
        if x <= a:
            F = x * x / (2.0 * a * b)
            return F, 1.0 - F
        if x <= b:
            F = (x - 0.5 * a) / b
            return F, 1.0 - F
        S = (a + b - x) ** 2 / (2.0 * a * b)
        return 1.0 - S, S
    if fam == "prhr":
        F, S = _unit_fs(spec[1], x)
        if F <= 0.0:
            return 0.0, 1.0
        lf = math.log(F) if F <= 0.5 else math.log1p(-S)
        return math.exp(spec[2] * lf), -math.expm1(spec[2] * lf)
    if fam == "conv":
        return _conv_fs(spec, x)
    raise ValueError(f"no reference CDF for {fam!r}")


def _conv_fs(spec, z):
    """Beta(p, q) + Uniform(0, w): F(z) = (1/w) int_{z-w}^{z} F_beta(v) dv."""
    from scipy.integrate import quad

    _, (_, p, q), w = spec
    lo, hi = max(0.0, z - w), min(1.0, z)
    inside = 0.0
    if hi > lo:
        inside = quad(lambda v: _unit_fs(("beta", p, q), v)[0], lo, hi, **_QUAD)[0]
    full = max(0.0, z - max(1.0, z - w))  # part of [z-w, z] beyond 1, where F_beta = 1
    F = (inside + full) / w
    return F, 1.0 - F


def support(spec):
    fam = spec[0]
    if fam in ("uniform", "beta"):
        return 0.0, 1.0
    if fam in ("exponential", "weibull", "frechet", "pareto"):
        return 0.0, math.inf
    if fam == "loguniform":
        return 1.0, spec[2]
    if fam == "triangularsum":
        return 0.0, 2.0
    if fam == "uniformsum":
        return 0.0, spec[1] + spec[2]
    if fam == "prhr":
        return support(spec[1])
    if fam == "conv":
        return 0.0, 1.0 + spec[2]
    raise ValueError(fam)


def reduce_scale(spec):
    """Split a law into (unit-scale law, scale, shift): X = scale * U + shift."""
    fam = spec[0]
    if fam == "uniform":
        return ("uniform",), spec[1], 0.0
    if fam == "exponential":
        return ("exponential",), 1.0 / spec[1], 0.0
    if fam == "weibull":
        return ("weibull", 1.0, spec[2]), spec[1], 0.0
    if fam == "frechet":
        return ("frechet", spec[1], 1.0), spec[2] ** (1.0 / spec[1]), 0.0
    if fam == "loguniform":
        return ("loguniform", 1.0, spec[2] / spec[1]), spec[1], 0.0
    if fam == "affine":
        unit, c, d = reduce_scale(spec[1])
        return unit, c * spec[2], d * spec[2] + spec[3]
    if fam == "prhr":
        unit, c, d = reduce_scale(spec[1])
        return ("prhr", unit, spec[2]), c, d
    if fam == "sum" and spec[1][0] == spec[2][0] == "uniform":
        a, b = sorted((spec[1][1], spec[2][1]))
        return ("uniformsum", 1.0, b / a), a, 0.0
    if fam == "sum":
        (_, p, q), (_, w) = spec[1], spec[2]
        return ("conv", ("beta", p, q), w), 1.0, 0.0
    return spec, 1.0, 0.0


def tail_index(unit):
    """Power-law index of the survival function, inf for lighter tails."""
    fam = unit[0]
    if fam == "pareto":
        return unit[1]
    if fam == "frechet":
        return unit[1]
    if fam == "prhr":
        return tail_index(unit[1])
    if support(unit)[1] < math.inf:
        return None
    return math.inf


def tail_decay(measure, spec, alpha, q=None):
    """Decay exponent e of the measure's integrand, ~ x**(-e); None if bounded."""
    idx = tail_index(reduce_scale(spec)[0])
    if idx is None or measure == "dynamic":
        return None
    if measure in ("efcpe", "system"):
        return idx / alpha
    if measure == "classic" and q[1]:
        return idx * q[0]
    if measure == "paired":
        return min(idx / alpha, idx)
    return idx


def near_threshold(measure, spec, alpha, q=None):
    e = tail_decay(measure, spec, alpha, q)
    return e is not None and math.isfinite(e) and abs(e - 1.0) < TAIL_MARGIN


def diverges(measure, spec, alpha, q=None):
    e = tail_decay(measure, spec, alpha, q)
    return e is not None and e <= 1.0


# ---------------------------------------------------------------------------
# APPROX univariate references


def _kernel(alpha, L):
    """APPROX kernel (Gamma(1+a) * L)**(1/a) given L = -log p."""
    return (math.gamma(1.0 + alpha) * L) ** (1.0 / alpha)


def _quad(f, lo, hi):
    from scipy.integrate import quad

    if hi == math.inf:
        return quad(f, lo, hi, **_QUAD)[0]
    # Split at the midpoint so kinks of the piecewise laws sit on a panel edge.
    return math.fsum(quad(f, a, b, **_QUAD)[0] for a, b in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)))


def uniform_efcpe(alpha):
    return math.gamma(1.0 + alpha) ** (1.0 / alpha) * math.gamma(1.0 / alpha + 1.0) / 2.0 ** (1.0 / alpha + 1.0)


def _unit_measure(measure, unit, alpha, extra):
    lo, hi = support(unit)
    fam = unit[0]
    if measure == "efcpe" and fam == "uniform":
        return uniform_efcpe(alpha)
    if measure == "efcpe" and fam == "frechet":
        shape = unit[1]
        return math.gamma(1.0 + alpha) ** (1.0 / alpha) * math.gamma(1.0 / alpha - 1.0 / shape) / shape
    if measure == "efcre" and fam == "exponential":
        return math.gamma(1.0 + alpha) ** (1.0 / alpha) * math.gamma(1.0 + 1.0 / alpha)
    if measure == "efcre" and fam == "uniform":
        return uniform_efcpe(alpha)

    if measure == "efcpe":
        def g(x):
            F, S = _unit_fs(unit, x)
            return 0.0 if F <= 0.0 or S <= 0.0 else F * _kernel(alpha, _log_p(F, S))
    elif measure == "efcre":
        def g(x):
            F, S = _unit_fs(unit, x)
            return 0.0 if F <= 0.0 or S <= 0.0 else S * _kernel(alpha, _log_p(S, F))
    elif measure == "modified":
        def g(x):
            F, S = _unit_fs(unit, x)
            return 0.0 if F <= 0.0 or S <= 0.0 else math.gamma(1.0 + alpha) * F * _log_p(F, S)
    elif measure == "classic":
        q, past = extra

        def g(x):
            F, S = _unit_fs(unit, x)
            p, r = (F, S) if past else (S, F)
            return 0.0 if p <= 0.0 or r <= 0.0 else p * _log_p(p, r) ** q
    elif measure == "dynamic":
        t = extra
        Ft, St = _unit_fs(unit, t)
        log_ft = -_log_p(Ft, St)
        hi = min(t, hi)

        def g(x):
            F, S = _unit_fs(unit, x)
            if F <= 0.0:
                return 0.0
            L = log_ft + _log_p(F, S)  # -log(F / F(t))
            return 0.0 if L <= 0.0 else math.exp(-L) * _kernel(alpha, L)
    elif measure == "system":
        dist = extra

        def g(x):
            G, H = distort(dist, *_unit_fs(unit, x))
            return 0.0 if G <= 0.0 or H <= 0.0 else G * _kernel(alpha, _log_p(G, H))
    else:
        raise ValueError(measure)
    return _quad(g, lo, hi)


def measure_reference(measure, spec, alpha, extra=None):
    """Finite reference value of a univariate APPROX measure (scale law applied)."""
    if spec[0] == "degenerate":
        return 0.0
    if measure == "paired":
        return measure_reference("efcpe", spec, alpha) + measure_reference("efcre", spec, alpha)
    unit, scale, shift = reduce_scale(spec)
    if measure == "dynamic":
        extra = (extra - shift) / scale
    return scale * _unit_measure(measure, unit, alpha, extra)


# ---------------------------------------------------------------------------
# distortions: (G, 1 - G) from (F, 1 - F), exact in both tails


def distort(dist, F, S):
    kind = dist[0]
    if kind == "parallel":
        n = dist[1]
        if F <= 0.0:
            return 0.0, 1.0
        lf = math.log(F) if F <= 0.5 else math.log1p(-S)
        return math.exp(n * lf), -math.expm1(n * lf)
    if kind == "series":
        n = dist[1]
        if S <= 0.0:
            return 1.0, 0.0
        ls = math.log(S) if S <= 0.5 else math.log1p(-F)
        return -math.expm1(n * ls), math.exp(n * ls)
    if kind == "koutofn":
        k, n = dist[1], dist[2]
        lo = n - k + 1
        G = math.fsum(math.comb(n, j) * F**j * S ** (n - j) for j in range(lo, n + 1))
        H = math.fsum(math.comb(n, j) * F**j * S ** (n - j) for j in range(0, lo))
        return G, H
    if kind == "twooutoffour":
        # G = 6F^4 - 8F^3 + 3F^2, and 1 - G expanded in S = 1 - F.
        G = F * F * (3.0 + F * (-8.0 + 6.0 * F))
        H = S * (6.0 + S * (-15.0 + S * (16.0 - 6.0 * S)))
        return G, H
    raise ValueError(kind)


def omega_reference(dist, alpha):
    """Infimum and supremum of phi(q(u)) / phi(u) on (0, 1).

    A grid of 20001 uniform points and geometric tails 2**-k, k <= 73, at
    both ends finds interior extremes, each refined by a bounded scalar
    search; the limits at both ends are taken in closed form.
    """
    import numpy as np
    from scipy.optimize import minimize_scalar

    inv_a = 1.0 / alpha
    ga = math.gamma(1.0 + alpha)

    def log_phi(p, r):
        return math.log(p) + inv_a * math.log(ga * _log_p(p, r))

    def ratio(u):
        G, H = distort(dist, u, 1.0 - u)
        if G <= 0.0 or H <= 0.0:
            return math.nan
        return math.exp(log_phi(G, H) - log_phi(u, 1.0 - u))

    lim0, lim1 = _ratio_limits(dist, alpha)
    tail = [2.0 ** -k for k in range(1, 74)]
    grid = sorted(set(np.linspace(0.0, 1.0, 20001)[1:-1].tolist() + tail + [1.0 - t for t in tail]))
    grid = [u for u in grid if 0.0 < u < 1.0]
    vals = [(ratio(u), u) for u in grid]
    vals = [(r, u) for r, u in vals if math.isfinite(r)]
    best = []
    for sign in (1.0, -1.0):
        r0, u0 = min(vals, key=lambda t: sign * t[0])
        i = grid.index(u0)
        lo = grid[i - 1] if i > 0 else u0 / 2.0
        hi = grid[i + 1] if i + 1 < len(grid) else (1.0 + u0) / 2.0
        res = minimize_scalar(lambda u: sign * ratio(u), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
        r1 = ratio(res.x)
        best.append(min(r0, r1, lim0, lim1) if sign > 0 else max(r0, r1, lim0, lim1))
    return tuple(best)


def _ratio_limits(dist, alpha):
    """Limits of phi(q(u)) / phi(u) at u -> 0 and u -> 1.

    With q(u) ~ c u**m at 0 the ratio tends to c when m = 1, else to 0;
    with 1 - q(u) ~ d (1-u)**r at 1 it tends to d**(1/a) when r = 1, else
    to 0. The extremes can sit at these limits, approached only
    logarithmically, so no finite grid reaches them.
    """
    kind = dist[0]
    if kind == "parallel":
        return 0.0, dist[1] ** (1.0 / alpha)
    if kind == "series":
        return float(dist[1]), 0.0
    if kind == "koutofn":
        k, n = dist[1], dist[2]
        return (float(n) if k == n else 0.0), (n ** (1.0 / alpha) if k == 1 else 0.0)
    if kind == "twooutoffour":
        return 0.0, 6.0 ** (1.0 / alpha)
    raise ValueError(kind)


def spacing_sum(data, alpha):
    """Order-statistics spacing estimator, recomputed with numpy and fsum."""
    import numpy as np

    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    r = np.arange(1, n) / n
    u = np.diff(x)
    keep = u != 0.0
    terms = u[keep] * r[keep] * (-np.log(r[keep])) ** (1.0 / alpha)
    return math.gamma(1.0 + alpha) ** (1.0 / alpha) * math.fsum(terms.tolist())


def logistic_orbit(s, x0=0.1, burn_in=1000, length=5000):
    x = x0
    for _ in range(burn_in):
        x = s * x * (1.0 - x)
    out = []
    for _ in range(length):
        x = s * x * (1.0 - x)
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# bivariate references


def _dblquad(g):
    from scipy.integrate import dblquad

    return dblquad(lambda y, x: g(x, y), 0.0, 1.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11)[0]


def _neg_f_log_f(F):
    return 0.0 if F <= 0.0 or F >= 1.0 else -F * math.log(F)


def _k(alpha, p):
    return 0.0 if p <= 0.0 or p >= 1.0 else _kernel(alpha, -math.log(p))


def bivariate_reference(kind, law, alpha):
    """Reference for bivariate/modified/fcpmi on triangle, fgm and indep laws."""
    from scipy.integrate import quad

    ga = math.gamma(1.0 + alpha)
    if law[0] == "triangle":
        if kind == "bivariate":
            c = uniform_efcpe(alpha)

            def g(x):
                fx = x * x
                kx = _k(alpha, fx)
                return fx * (kx * x / 2.0 + x * c + (1.0 - x) * kx)

            return _quad(g, 0.0, 1.0)
        if kind == "modified":
            def row(x):
                inner = quad(lambda y: _neg_f_log_f(2.0 * x * y - y * y), 0.0, x,
                             epsabs=1e-14, epsrel=1e-11)[0] if x > 0 else 0.0
                return inner + (1.0 - x) * _neg_f_log_f(x * x)

            return ga * _quad(row, 0.0, 1.0)
    if law[0] == "fgm":
        th = law[1]
        if kind == "bivariate":
            def g(x, y):
                c = y * (1.0 + th * (1.0 - y) * (1.0 - 2.0 * x))
                return 0.0 if c <= 0.0 else x * c * (_k(alpha, x) + _k(alpha, c))

            return _dblquad(g)
        if kind == "modified":
            return ga * _dblquad(lambda x, y: _neg_f_log_f(x * y * (1.0 + th * (1.0 - x) * (1.0 - y))))
        if kind == "fcpmi":
            def g(x, y):
                F = x * y * (1.0 + th * (1.0 - x) * (1.0 - y))
                lr = -math.log1p(th * (1.0 - x) * (1.0 - y))
                if alpha == 1.0:
                    return F * lr
                return 0.0 if lr <= 0.0 else F * (ga * lr) ** (1.0 / alpha)

            return _dblquad(g)
    if law[0] == "indep":
        X, Y = law[1], law[2]
        if kind == "fcpmi":
            return 0.0
        sx, sy = support_of(X)[1], support_of(Y)[1]
        mx, my = mean_of(X), mean_of(Y)
        if kind == "bivariate":
            ex = measure_reference("efcpe", X, alpha)
            ey = measure_reference("efcpe", Y, alpha)
            return ex * (sy - my) + ey * (sx - mx)
        if kind == "modified":
            # The modified measure at order 1 is the cumulative entropy itself.
            cx = measure_reference("modified", X, 1.0)
            cy = measure_reference("modified", Y, 1.0)
            return ga * (cx * (sy - my) + cy * (sx - mx))
    raise ValueError((kind, law[0]))


def support_of(spec):
    unit, scale, shift = reduce_scale(spec)
    lo, hi = support(unit)
    return scale * lo + shift, scale * hi + shift


def mean_of(spec):
    """Mean of a bounded law: upper - int F dx."""
    unit, scale, shift = reduce_scale(spec)
    lo, hi = support(unit)
    return shift + scale * (hi - _quad(lambda x: _unit_fs(unit, x)[0], lo, hi))


def conditional_reference(law, alpha, x):
    if law[0] == "triangle":
        return x * uniform_efcpe(alpha)
    th = law[1]

    def g(y):
        c = y * (1.0 + th * (1.0 - y) * (1.0 - 2.0 * x))
        return 0.0 if c <= 0.0 or c >= 1.0 else c * _kernel(alpha, -math.log(c))

    return _quad(g, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Mittag-Leffler references


def mlf_mp(alpha, x, dps=30):
    """E_alpha(x) for x <= 0 in mpmath: series, or the spectral integral

    E_a(-t) = sin(a pi)/pi * int_0^inf r**(a-1) exp(-r t**(1/a))
              / (r**(2a) + 2 r**a cos(a pi) + 1) dr      (0 < a < 1).
    """
    import mpmath as mp

    if x == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(x)
    T = abs(x) ** (1.0 / alpha)
    if T <= 200.0:
        with mp.workdps(dps + int(T / 2.0) + 10):
            a = mp.mpf(alpha)
            xv = mp.mpf(x)
            total = mp.mpf(0)
            k = 0
            while True:
                term = xv**k * mp.rgamma(a * k + 1)
                total += term
                if k > 10 and k * alpha > 2 * T and abs(term) < mp.mpf(10) ** (-dps - 5):
                    break
                k += 1
            return float(total)
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        tt = mp.mpf(T)
        s, c = mp.sin(a * mp.pi), mp.cos(a * mp.pi)
        f = lambda r: r ** (a - 1) * mp.exp(-r * tt) / (r ** (2 * a) + 2 * r**a * c + 1)
        return float(s / mp.pi * mp.quad(f, [0, 1 / tt, 1, mp.inf]))


def _mlf_series_f(alpha, t):
    """(E(-t), 1 - E(-t), -dE(-t)/dt) for 0 <= t <= 1 by the power series."""
    terms_e, terms_d = [], []
    for k in range(1, 80):
        g = math.exp(-math.lgamma(alpha * k + 1.0))
        sign = -1.0 if k % 2 else 1.0
        terms_e.append(sign * t**k * g)
        terms_d.append(-sign * k * t ** (k - 1) * g)
    one_minus = -math.fsum(terms_e)
    return 1.0 - one_minus, one_minus, math.fsum(terms_d)


def mlf_float(alpha, t):
    """(E(-t), 1 - E(-t), -dE(-t)/dt) in double precision, scipy quadrature."""
    from scipy.integrate import quad

    if t <= 1.0:
        return _mlf_series_f(alpha, t)
    T = t ** (1.0 / alpha)
    s, c = math.sin(alpha * math.pi), math.cos(alpha * math.pi)

    def den(r):
        ra = r**alpha
        return ra * ra + 2.0 * ra * c + 1.0

    def part(mult):
        head = quad(lambda r: mult(r) * math.exp(-r * T) / den(r), 0.0, 1.0,
                    weight="alg", wvar=(alpha - 1.0, 0.0), epsabs=0.0, epsrel=1e-12, limit=200)[0]
        rest = quad(lambda r: r ** (alpha - 1.0) * mult(r) * math.exp(-r * T) / den(r), 1.0, math.inf,
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]
        return s / math.pi * (head + rest)

    E = part(lambda r: 1.0)
    D = part(lambda r: r) * T / (alpha * t)
    return E, 1.0 - E, D


def exact_measure_reference(measure, spec, alpha):
    """EXACT-kernel efcpe on Uniform/Exponential by the substitution u = E(-t).

    efcpe(Uniform(1)) = int_0^inf E(-t) t**(1/a) D(t) dt, and
    efcpe(Exponential(1)) = int_0^inf E(-t) t**(1/a) D(t) / (1 - E(-t)) dt,
    with D = -dE(-t)/dt. efcre(Exponential) diverges for a < 1: None.
    """
    from scipy.integrate import quad

    unit, scale, _ = reduce_scale(spec)
    if measure == "efcre" and unit[0] == "exponential":
        return None if alpha < 1.0 else scale * _unit_measure("efcre", unit, 1.0, None)
    if alpha == 1.0:
        return measure_reference(measure, spec, 1.0)

    def g(t):
        E, one_minus, D = mlf_float(alpha, t)
        val = E * t ** (1.0 / alpha) * D
        return val / one_minus if unit[0] == "exponential" else val

    total = math.fsum(quad(g, a, b, epsabs=0.0, epsrel=1e-10, limit=400)[0]
                      for a, b in ((0.0, 1.0), (1.0, math.inf)))
    return scale * total


def exact_log_reference(alpha, p):
    """Ln_alpha(p) by Brent inversion of the double-precision oracle E."""
    from scipy.optimize import brentq

    if p == 1.0:
        return 0.0
    lo = -1.0
    while mlf_float(alpha, -lo)[0] > p:
        lo *= 2.0
    return brentq(lambda y: mlf_float(alpha, -y)[0] - p, lo, 0.0, xtol=1e-14, rtol=1e-14)
