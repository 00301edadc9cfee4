"""Dispersive-order checking and its entropy-ordering consequence.

X is below Y in the dispersive order when f(F^{-1}(v)) >= g(G^{-1}(v)) for
every level v, i.e. Y spreads probability at least as thinly everywhere.
The check evaluates the defining inequality on a dense level grid and
returns a verdict with a witness on failure. ordering_validation then
confirms that the past measure respects the order at every fractional
order where both integrals converge, reporting divergent orders as skipped
rather than comparing truncation artifacts.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence

from .distributions import Distribution
from .entropy import efcpe
from .errors import DomainError
from .fraclog import as_order

__all__ = ["OrderReport", "dispersive_check", "ordering_validation"]

_LEVEL_EPS = 1e-4
_MARGIN = 1e-10


class _OrderReportFields(NamedTuple):
    holds: str
    witness: Optional[float]
    grid_size: int


class OrderReport(_OrderReportFields):
    """Verdict of a stochastic-order check.

    ``holds`` is "Yes", "No", or "Inconclusive"; a "No" always carries the
    level at which the defining inequality failed.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.holds not in ("Yes", "No", "Inconclusive"):
            raise DomainError(f"invalid verdict {self.holds!r}")
        if self.holds == "No" and self.witness is None:
            raise DomainError("a No verdict requires a witness level")
        return self

    # _replace builds through _make, so it checks its fields too.
    _make = classmethod(lambda cls, fields: cls(*fields))


def dispersive_check(X: Distribution, Y: Distribution, grid: int = 4096) -> OrderReport:
    """Grid test of f(F^{-1}(v)) >= g(G^{-1}(v)) on v in (eps, 1 - eps).

    Equality within the 1e-10 margin counts toward Yes; undefined density
    values anywhere on the grid yield Inconclusive.
    """
    if grid < 2:
        raise DomainError(f"grid must have at least 2 points, got {grid}")
    worst_v = None
    worst_gap = 0.0
    for i in range(grid):
        v = _LEVEL_EPS + (1.0 - 2.0 * _LEVEL_EPS) * i / (grid - 1)
        fx = X.pdf(X.quantile(v))
        gy = Y.pdf(Y.quantile(v))
        if not (math.isfinite(fx) and math.isfinite(gy)):
            return OrderReport("Inconclusive", None, grid)
        gap = fx - gy
        if gap < -_MARGIN and gap < worst_gap:
            worst_gap = gap
            worst_v = v
    if worst_v is not None:
        return OrderReport("No", worst_v, grid)
    return OrderReport("Yes", None, grid)


def ordering_validation(
    X: Distribution, Y: Distribution, alpha_grid: Sequence[float]
) -> List[dict]:
    """Check E*(X) <= E*(Y) along an order grid for a dispersively ordered pair.

    Requires dispersive_check to certify the pair first. Rows where either
    measure diverges are marked skipped with the diverged flags; convergent
    rows carry the explicit inequality verdict.
    """
    report = dispersive_check(X, Y)
    if report.holds != "Yes":
        raise DomainError(
            f"pair is not certified dispersively ordered (verdict {report.holds})"
        )
    return _ordering_rows(X, Y, alpha_grid)


def _ordering_rows(X: Distribution, Y: Distribution, alpha_grid: Sequence[float]) -> List[dict]:
    """ordering_validation's rows, for a pair its caller has already certified."""
    rows = []
    for alpha in alpha_grid:
        a = as_order(alpha)
        rx = efcpe(X, a)
        ry = efcpe(Y, a)
        skipped = rx.diverged or ry.diverged
        rows.append(
            {
                "alpha": a.alpha,
                "value_x": None if rx.diverged else rx.value,
                "value_y": None if ry.diverged else ry.value,
                "x_diverged": rx.diverged,
                "y_diverged": ry.diverged,
                "holds": None if skipped else bool(rx.value <= ry.value + 1e-9),
            }
        )
    return rows
