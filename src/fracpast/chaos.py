"""Logistic-map trajectories as empirical samples for the past measure.

The logistic recursion x_{k+1} = s x_k (1 - x_k) produces orbits ranging
from fixed points through period doubling to chaos as s sweeps [0, 4].
Feeding the post-burn-in orbit to the empirical estimator gives a scalar
trace of attractor complexity against the control parameter.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence, Tuple

from .empirical import Sample, _check_count, empirical_efcpe
from .errors import DomainError
from .fraclog import as_order

__all__ = [
    "LogisticConfig",
    "logistic_series",
    "efcpe_vs_s",
    "bifurcation_sweep",
]


class _LogisticConfigFields(NamedTuple):
    s: float
    x0: float = 0.1
    burn_in: int = 1000
    length: int = 5000


class LogisticConfig(_LogisticConfigFields):
    """Parameters of one logistic-map run.

    ``burn_in`` iterations are discarded before ``length`` values are
    collected, so transients do not contaminate the attractor sample.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (isinstance(self.s, (int, float)) and math.isfinite(self.s)):
            raise DomainError(f"control parameter must be finite, got {self.s!r}")
        if not 0.0 <= self.s <= 4.0:
            raise DomainError(f"control parameter must lie in [0, 4], got {self.s}")
        if not (isinstance(self.x0, (int, float)) and math.isfinite(self.x0)):
            raise DomainError(f"seed point must be finite, got {self.x0!r}")
        if not 0.0 <= self.x0 <= 1.0:
            raise DomainError(f"seed point must lie in [0, 1], got {self.x0}")
        _check_count("burn_in", self.burn_in, 0)
        _check_count("length", self.length, 2)
        return self

    # _replace builds through _make, so it checks its fields too.
    _make = classmethod(lambda cls, fields: cls(*fields))


def _iterate(s: float, x: float, count: int) -> List[float]:
    out = []
    for _ in range(count):
        x = s * x * (1.0 - x)
        out.append(x)
    return out


def logistic_series(cfg: LogisticConfig) -> Sample:
    """Run the map, drop the burn-in, and wrap the orbit as a Sample."""
    x = cfg.x0
    for _ in range(cfg.burn_in):
        x = cfg.s * x * (1.0 - x)
    return Sample(_iterate(cfg.s, x, cfg.length))


def efcpe_vs_s(
    s_values: Sequence[float],
    alpha_grid: Sequence[float],
    cfg: LogisticConfig = LogisticConfig(s=4.0),
) -> List[dict]:
    """Empirical past measure of the logistic attractor over an (s, alpha) grid.

    One orbit is generated per control value and reused across the whole
    order grid, so rows at the same s differ only through alpha.
    """
    rows = []
    for s in s_values:
        series = logistic_series(cfg._replace(s=float(s)))
        for alpha in alpha_grid:
            a = as_order(alpha)
            rows.append(
                {"s": float(s), "alpha": a.alpha, "value": empirical_efcpe(series, a)}
            )
    return rows


def bifurcation_sweep(
    s_min: float,
    s_max: float,
    steps: int,
    cfg: LogisticConfig = LogisticConfig(s=4.0),
    retain: int = 100,
) -> List[Tuple[float, float]]:
    """Post-transient orbit points over a control-parameter sweep.

    Returns (s, value) pairs with ``retain`` attractor samples per control
    value, the raw material of the standard bifurcation portrait.
    """
    steps = _check_count("steps", steps, 2)
    retain = _check_count("retain", retain, 1)
    points = []
    for i in range(steps):
        s = s_min + (s_max - s_min) * i / (steps - 1)
        run = cfg._replace(s=float(s), length=max(retain, 2))
        series = logistic_series(run)
        tail = series.data[-retain:] if retain <= series.n else series.data
        for v in tail:
            points.append((float(s), float(v)))
    return points
