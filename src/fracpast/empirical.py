"""Sample-based estimation of the fractional cumulative past measure.

The estimator is the spacing sum of Eq-form

    (a!)**(1/a) * sum_{i=1}^{n-1} U_i * (i/n) * (-log(i/n))**(1/a),

with U_i the gaps between consecutive order statistics. For exponential and
uniform sampling the spacings have known laws, which yields closed-form mean
and variance of the estimator; those feed the normal confidence interval.
A stability probe and a seeded Monte-Carlo convergence study round out the
inference toolkit.
"""

from __future__ import annotations

import csv
import math
from operator import index
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError
from .fraclog import as_order

if TYPE_CHECKING:
    from .distributions import Distribution

__all__ = [
    "MomentPair",
    "Sample",
    "confidence_interval",
    "convergence_study",
    "empirical_cdf",
    "empirical_efcpe",
    "exp_spacing_moments",
    "load_sample_csv",
    "stability_probe",
    "unif_spacing_moments",
]


class _SampleFields(NamedTuple):
    data: Tuple[float, ...]


class Sample(_SampleFields):
    """Sorted nonnegative observations, at least two of them."""

    __slots__ = ()

    def __new__(cls, values: Sequence[float]):
        vals = [float(v) for v in values]
        if len(vals) < 2:
            raise DomainError(f"sample needs at least 2 observations, got {len(vals)}")
        if any((not math.isfinite(v)) or v < 0.0 for v in vals):
            raise DomainError("observations must be finite and nonnegative")
        return super().__new__(cls, tuple(sorted(vals)))

    # _replace builds through _make, so it checks and sorts its data too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def n(self) -> int:
        return len(self.data)

    @property
    def spacings(self) -> Tuple[float, ...]:
        d = self.data
        return tuple(d[i + 1] - d[i] for i in range(len(d) - 1))


class _MomentPairFields(NamedTuple):
    mean: float
    variance: float


class MomentPair(_MomentPairFields):
    """Mean and variance of the estimator under a sampling model."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.variance >= 0.0:
            raise DomainError(f"variance must be nonnegative, got {self.variance}")
        return self

    # _replace builds through _make, so it checks its fields too.
    _make = classmethod(lambda cls, fields: cls(*fields))


def load_sample_csv(path: str) -> Sample:
    """Read a single-column numeric CSV; '#' comments and a header allowed."""
    values: List[float] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            cell = row[0].strip()
            if not cell or cell.startswith("#"):
                continue
            try:
                values.append(float(cell))
            except ValueError:
                if not values:
                    continue  # header line before the data
                raise DomainError(f"non-numeric value {cell!r} in {path}")
    return Sample(values)


def empirical_cdf(S: Sample, x: float) -> float:
    """Step function: fraction of observations at or below x."""
    import bisect

    return bisect.bisect_right(S.data, x) / S.n


def empirical_efcpe(S: Sample, alpha) -> float:
    """Spacing-sum estimator of the past measure.

    The i = n term vanishes since -log(n/n) = 0, so the sum runs to n-1.
    Constant samples give exactly zero.
    """
    a = as_order(alpha).alpha
    n = S.n
    inv_a = 1.0 / a
    pref = math.gamma(1.0 + a) ** inv_a
    terms = []
    data = S.data
    for i in range(1, n):
        u = data[i] - data[i - 1]
        if u == 0.0:
            continue
        r = i / n
        terms.append(u * r * (-math.log(r)) ** inv_a)
    return pref * math.fsum(terms)


def _check_count(what: str, value, least: int) -> int:
    """``value`` as an int, refused with DomainError unless it is an integer
    (a numpy integer counts) of at least ``least``."""
    try:
        count = index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return count


def _spacing_cores(n: int, a: float) -> Tuple[float, List[float]]:
    """(a!)**(1/a) and the cores (i/n) (-log(i/n))**(1/a), i = 1..n-1."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"sample size must be an integer >= 2, got {n}")
    inv_a = 1.0 / a
    cores = [r * (-math.log(r)) ** inv_a for r in (i / n for i in range(1, n))]
    return math.gamma(1.0 + a) ** inv_a, cores


def exp_spacing_moments(n: int, lam: float, alpha) -> MomentPair:
    """Estimator mean and variance under Exponential(lam) sampling.

    Spacings of an exponential sample are independent exponentials with
    rates lam * (n - i), giving

        mean = (a!)**(1/a) sum (1/(lam (n-i))) (i/n) (-log(i/n))**(1/a)
        var  = (a!)**(2/a) sum (1/(lam (n-i)))**2 (i/n)**2 (-log(i/n))**(2/a).
    """
    pref, cores = _spacing_cores(n, as_order(alpha).alpha)
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"rate must be positive, got {lam}")
    terms = [1.0 / (lam * (n - i)) * core for i, core in enumerate(cores, 1)]
    return MomentPair(pref * math.fsum(terms), pref**2 * math.fsum(t**2 for t in terms))


def unif_spacing_moments(n: int, alpha) -> MomentPair:
    """Estimator mean and variance under Uniform(0, 1) sampling.

    Each spacing follows Beta(1, n), hence mean 1/(n+1) and variance
    n / ((n+1)**2 (n+2)); the variance formula keeps the squared-core sum.
    """
    pref, cores = _spacing_cores(n, as_order(alpha).alpha)
    mean = pref / (n + 1) * math.fsum(cores)
    variance = pref**2 / ((n + 1) ** 2 * (n + 2)) * math.fsum(c * c for c in cores)
    return MomentPair(mean, variance)


def confidence_interval(S: Sample, alpha, gamma: float, variance: float) -> Tuple[float, float]:
    """Normal interval: point estimate +/- z_{gamma/2} * sqrt(variance)."""
    if not (math.isfinite(gamma) and 0.0 < gamma < 1.0):
        raise DomainError(f"confidence level gamma must lie in (0, 1), got {gamma}")
    if not variance >= 0.0:
        raise DomainError(f"variance must be nonnegative, got {variance}")
    from statistics import NormalDist

    point = empirical_efcpe(S, alpha)
    z = NormalDist().inv_cdf(1.0 - gamma / 2.0)
    half = z * math.sqrt(variance)
    return point - half, point + half


def stability_probe(S: Sample, alpha, delta: float, trials: int, seed: int = 0) -> float:
    """Largest estimator change over random perturbations of total size delta.

    Each trial spreads an L1 budget of delta across the observations with
    random weights and signs, clamps at zero, re-sorts, and recomputes the
    estimator. Returns the maximum absolute change observed.
    """
    a = as_order(alpha)
    if delta < 0.0:
        raise DomainError(f"perturbation budget must be >= 0, got {delta}")
    trials = _check_count("trials", trials, 1)
    if delta == 0.0:
        return 0.0
    import numpy as np  # only the two seeded studies use numpy; the package loads without it

    rng = np.random.default_rng(seed)
    base = empirical_efcpe(S, a)
    data = np.array(S.data)
    worst = 0.0
    for _ in range(trials):
        weights = rng.random(len(data))
        weights /= weights.sum()
        signs = rng.choice((-1.0, 1.0), size=len(data))
        perturbed = np.maximum(0.0, data + delta * weights * signs)
        changed = empirical_efcpe(Sample(perturbed.tolist()), a)
        worst = max(worst, abs(changed - base))
    return worst


def convergence_study(
    X: Distribution,
    alpha,
    n_grid: Sequence[int],
    replications: int,
    seed: int,
) -> List[dict]:
    """Monte-Carlo mean absolute estimation error per sample size.

    Each row reports the average |estimate - analytic| over the seeded
    replications, plus the mean estimate itself.
    """
    from .entropy import efcpe  # the estimator itself runs without the laws and quadrature

    sizes = [_check_count("sample sizes", n, 2) for n in n_grid]
    replications = _check_count("replications", replications, 1)
    a = as_order(alpha)
    truth = efcpe(X, a).value
    if not math.isfinite(truth):
        raise DomainError("convergence study requires a finite population measure")
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        errors = []
        estimates = []
        for _ in range(replications):
            sample = Sample(X.sample(n, rng).tolist())
            est = empirical_efcpe(sample, a)
            estimates.append(est)
            errors.append(abs(est - truth))
        rows.append(
            {
                "n": n,
                "mean_abs_error": math.fsum(errors) / len(errors),
                "mean_estimate": math.fsum(estimates) / len(estimates),
                "analytic": truth,
            }
        )
    return rows
