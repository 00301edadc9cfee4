"""Tests for dispersive-order certification and its ordering consequence."""

import math

import pytest

from fracpast.distributions import (
    Beta,
    Distribution,
    Exponential,
    Frechet,
    ParetoType,
    Uniform,
    Weibull,
    affine,
)
from fracpast.errors import DomainError
from fracpast.orders import OrderReport, _ordering_rows, dispersive_check, ordering_validation


class _UndefinedDensity(Distribution):
    """Uniform CDF whose density is reported as NaN everywhere.

    Exercises the Inconclusive path of the check without touching any real
    family.
    """

    family = "undefined_density"

    def __init__(self):
        super().__init__()
        self.params = {}
        self.lower, self.upper = 0.0, 1.0

    def cdf(self, x: float) -> float:
        return min(1.0, max(0.0, x))

    def pdf(self, x: float) -> float:
        return math.nan


class _NoQd(Uniform):
    """Uniform law that gives no quantile density of its own."""

    qd = None


class TestOrderReport:
    def test_fields(self):
        report = OrderReport("Yes", None)
        assert report.holds == "Yes"
        assert report.witness is None
        assert report._fields == ("holds", "witness")

    def test_no_carries_witness(self):
        report = OrderReport("No", 0.25)
        assert report.witness == 0.25

    def test_invalid_verdict_rejected(self):
        with pytest.raises(DomainError):
            OrderReport("Maybe", None)

    def test_no_without_witness_rejected(self):
        with pytest.raises(DomainError):
            OrderReport("No", None)

    def test_frozen(self):
        report = OrderReport("Yes", None)
        with pytest.raises(Exception):
            report.holds = "No"


class TestDispersiveCheck:
    def test_identical_distributions_ordered(self):
        report = dispersive_check(Uniform(1.0), Uniform(1.0))
        assert report.holds == "Yes"
        assert report.witness is None

    def test_narrow_uniform_below_wide_uniform(self):
        report = dispersive_check(Uniform(1.0), Uniform(2.0))
        assert report.holds == "Yes"

    def test_heavier_pareto_spreads_more(self):
        # At level v the density quantile composition is k * (1 - v)^{1 + 1/k},
        # so the shape-0.7 law dominates the shape-0.5 law at every level.
        report = dispersive_check(ParetoType(0.7), ParetoType(0.5))
        assert report.holds == "Yes"

    def test_reversed_pareto_pair_refused_with_witness(self):
        X, Y = ParetoType(0.5), ParetoType(0.7)
        report = dispersive_check(X, Y)
        assert report.holds == "No"
        assert report.witness is not None
        fx = X.pdf(X.quantile(report.witness))
        gy = Y.pdf(Y.quantile(report.witness))
        assert fx < gy * (1.0 - 1e-10)

    def test_reversed_pareto_witness_in_the_upper_tail(self):
        # The ratio qd_Y / qd_X = (5/7)(1-v)^{4/7} falls as v -> 1, so the
        # witness is the scan's last level, whose complement 2^-53 is exact.
        w = dispersive_check(ParetoType(0.5), ParetoType(0.7)).witness
        assert 1.0 - w <= 2.0**-50
        assert 1.0 - (1.0 - w) == w

    def test_crossing_densities_fail_both_ways(self):
        flat, humped = Uniform(1.0), Beta(2.0, 2.0)
        forward = dispersive_check(flat, humped)
        backward = dispersive_check(humped, flat)
        assert forward.holds == "No"
        assert backward.holds == "No"
        # The flat density loses at the centre, the humped one at the edges.
        assert 0.4 < forward.witness < 0.6
        assert min(backward.witness, 1.0 - backward.witness) < 0.01

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    def test_verdicts_do_not_change_with_scale(self, c):
        # The margin is relative to the densities, which scale as 1 / c: a
        # shift leaves the spread equal, and a narrower copy spreads less.
        X = affine(Beta(2.0, 3.0), c)
        assert dispersive_check(X, affine(Beta(2.0, 3.0), c, c)).holds == "Yes"
        assert dispersive_check(X, affine(Beta(2.0, 3.0), c * (1.0 - 1e-6))).holds == "No"

    def test_undefined_density_inconclusive(self):
        report = dispersive_check(_UndefinedDensity(), Uniform(1.0))
        assert report.holds == "Inconclusive"
        assert report.witness is None

    def test_undefined_density_on_either_side(self):
        report = dispersive_check(Uniform(1.0), _UndefinedDensity())
        assert report.holds == "Inconclusive"

    def test_law_without_quantile_density_reads_its_pdf(self):
        # 1 / pdf(quantile(v)) stands in for qd, up to the support's ends.
        assert dispersive_check(_NoQd(1.0), Uniform(2.0)).holds == "Yes"
        assert dispersive_check(_NoQd(2.0), Uniform(1.0)).holds == "No"

    def test_ratio_still_falling_at_an_end_is_inconclusive(self):
        # qd_Y / qd_X = 3 L^(-1/6), L = -log v, is above 1 at every level
        # the scan reads, yet falls toward 0 as v -> 0: never "Yes".
        assert dispersive_check(Frechet(3.0, 1.0), Frechet(2.0, 4.0)).holds == "Inconclusive"


# The cross-family pairs cross 1 only below v ~ 2e-5 (Exponential(1) against
# Weibull(3, 0.9), ratio (10/3) L^(1/9) at v -> 0 with L = -log(1 - v)) and
# v ~ 1.1e-5 (Frechet(3, 1) against Frechet(2, 1), ratio 1.5 L^(-1/6) with
# L = -log v), so neither is ordered.
SCALED_PAIRS = {
    "exp-weibull": (Exponential(1.0), Weibull(3.0, 0.9), "No"),
    "frechet": (Frechet(3.0, 1.0), Frechet(2.0, 1.0), "No"),
    "pareto": (ParetoType(0.7), ParetoType(0.5), "Yes"),
    "pareto-reversed": (ParetoType(0.5), ParetoType(0.7), "No"),
    "beta-shifted": (Beta(2.0, 3.0), affine(Beta(2.0, 3.0), 1.0, 1.0), "Yes"),
}


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("name", sorted(SCALED_PAIRS))
def test_scaled_pair_verdicts_and_witnesses(name, c):
    base_x, base_y, verdict = SCALED_PAIRS[name]
    X, Y = affine(base_x, c), affine(base_y, c, c)
    report = dispersive_check(X, Y)
    assert report.holds == verdict
    if verdict == "No":
        w = report.witness
        assert 0.0 < w < 1.0 and 1.0 - (1.0 - w) == w
        assert X.qd(w, 1.0 - w) > Y.qd(w, 1.0 - w) * (1.0 + 1e-10)


class TestOrderingValidation:
    def test_uniform_pair_rows(self):
        rows = ordering_validation(Uniform(1.0), Uniform(2.0), [0.3, 0.6, 0.9])
        assert [row["alpha"] for row in rows] == [0.3, 0.6, 0.9]
        for row in rows:
            assert set(row) == {
                "alpha",
                "value_x",
                "value_y",
                "x_diverged",
                "y_diverged",
                "holds",
            }
            assert row["holds"] is True
            assert not row["x_diverged"]
            assert not row["y_diverged"]
            # Doubling the scale doubles the past measure.
            assert row["value_y"] == pytest.approx(2.0 * row["value_x"], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("c", [1e-10, 1.0])
    def test_row_margin_is_relative(self, c):
        # A pair in the wrong order fails its rows at every scale; an
        # absolute margin of 1e-9 passed every measure below 1e-9.
        rows = _ordering_rows(Uniform(2.0 * c), Uniform(c), [0.5])
        assert rows[0]["holds"] is False

    def test_divergent_order_skipped_not_compared(self):
        rows = ordering_validation(ParetoType(0.7), ParetoType(0.5), [0.4, 0.5])
        by_alpha = {row["alpha"]: row for row in rows}
        convergent = by_alpha[0.4]
        assert convergent["holds"] is True
        # A 40-digit mpmath integral in probability space gives 3.131954522019860.
        assert convergent["value_y"] == pytest.approx(3.131954522019860, rel=1e-6, abs=0.0)
        skipped = by_alpha[0.5]
        assert skipped["y_diverged"] is True
        assert skipped["x_diverged"] is False
        assert skipped["value_y"] is None
        assert skipped["holds"] is None
        # The convergent side of the skipped row is still reported; mpmath,
        # the same way, gives 1.823024104053768.
        assert skipped["value_x"] == pytest.approx(1.823024104053768, rel=1e-6, abs=0.0)

    def test_uncertified_pair_rejected(self):
        with pytest.raises(DomainError):
            ordering_validation(Uniform(2.0), Uniform(1.0), [0.5])

    def test_inconclusive_pair_rejected(self):
        with pytest.raises(DomainError):
            ordering_validation(_UndefinedDensity(), Uniform(1.0), [0.5])

    def test_empty_alpha_grid(self):
        assert ordering_validation(Uniform(1.0), Uniform(2.0), []) == []
