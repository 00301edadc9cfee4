"""Dispersive-order checking and its entropy-ordering consequence.

X is below Y in the dispersive order when qd_X(v) <= qd_Y(v) at every level
v in (0, 1), qd = 1/f(Q) the quantile density (Shaked & Shanthikumar,
*Stochastic Orders*, 2007, section 3.B): Y spreads probability at least as
thinly everywhere. The check scans the ratio qd_Y / qd_X over levels that
reach 2^-73 into each tail and 2^-200 at each end, and returns "Yes", "No"
with a witness level, or "Inconclusive". ordering_validation then
confirms that the past measure respects the order at every fractional
order where both integrals converge, reporting divergent orders as skipped
rather than comparing truncation artifacts.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from .distributions import Distribution, _quantile_density
from .entropy import efcpe
from .errors import DomainError
from .fraclog import as_order
from .quadrature import _level_scan

__all__ = ["OrderReport", "dispersive_check", "ordering_validation"]

_MARGIN = 1e-10


class _OrderReportFields(NamedTuple):
    holds: str
    witness: Optional[float]


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


def dispersive_check(X: Distribution, Y: Distribution) -> OrderReport:
    """Test qd_X(v) <= qd_Y(v) on 0 < v < 1 by ``_level_scan`` of qd_Y / qd_X.

    A law without a ``qd`` reads 1/pdf(quantile(v)). "No" carries a witness
    w whose complement 1 - w is exact, with qd_X(w) > qd_Y(w) (1 + 1e-10).
    "Yes" needs the ratio at least 1 - 1e-10 at every level and end read,
    and not falling by more than that margin between the reads at 2^-199
    and 2^-200 from either end. Anything else, a ratio that is not finite
    somewhere or still falls at an end, is "Inconclusive". The margins are
    relative, so the verdict is the same at any scale.
    """
    qx, qy = _quantile_density(X), _quantile_density(Y)
    scan = _level_scan(lambda p, q: qy(p, q) / qx(p, q))
    # The least ratio's level, moved to the nearest level whose complement
    # is exact: the lower tail stops at 2^-53.
    w = 1.0 - (1.0 - max(scan.lo_at, 2.0 ** -53))
    if scan.lo < 1.0 and qx(w, 1.0 - w) > qy(w, 1.0 - w) * (1.0 + _MARGIN):
        return OrderReport("No", w)
    ends = [r for pair in scan.ends for r in pair]
    falling = any(r200 < r199 * (1.0 - _MARGIN) for r199, r200 in scan.ends)
    holds = scan.finite and not falling and min([scan.lo] + ends) >= 1.0 - _MARGIN
    return OrderReport("Yes" if holds else "Inconclusive", None)


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
                "holds": None if skipped else bool(rx.value <= ry.value + 1e-9 * abs(ry.value)),
            }
        )
    return rows
