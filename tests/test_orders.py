"""Tests for dispersive-order certification and its ordering consequence."""

import math

import pytest

from fracpast.distributions import Beta, Distribution, ParetoType, Uniform, affine
from fracpast.errors import DomainError
from fracpast.orders import OrderReport, _ordering_rows, dispersive_check, ordering_validation


class _UndefinedDensity(Distribution):
    """Uniform CDF whose density is reported as NaN everywhere.

    Exercises the Inconclusive path of the grid check without touching any
    real family.
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


class TestOrderReport:
    def test_fields(self):
        report = OrderReport("Yes", None, 4096)
        assert report.holds == "Yes"
        assert report.witness is None
        assert report.grid_size == 4096

    def test_no_carries_witness(self):
        report = OrderReport("No", 0.25, 128)
        assert report.witness == 0.25

    def test_invalid_verdict_rejected(self):
        with pytest.raises(DomainError):
            OrderReport("Maybe", None, 10)

    def test_no_without_witness_rejected(self):
        with pytest.raises(DomainError):
            OrderReport("No", None, 10)

    def test_frozen(self):
        report = OrderReport("Yes", None, 16)
        with pytest.raises(Exception):
            report.holds = "No"


class TestDispersiveCheck:
    def test_identical_distributions_ordered(self):
        report = dispersive_check(Uniform(1.0), Uniform(1.0))
        assert report.holds == "Yes"
        assert report.witness is None
        assert report.grid_size == 4096

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
        assert fx < gy - 1e-10

    def test_reversed_pareto_witness_at_low_levels(self):
        # The gap 0.5(1-v)^3 - 0.7(1-v)^{17/7} is most negative as v -> 0,
        # so the reported witness is the first grid level.
        report = dispersive_check(ParetoType(0.5), ParetoType(0.7))
        assert report.witness == pytest.approx(1e-4, rel=1e-12, abs=0.0)

    def test_crossing_densities_fail_both_ways(self):
        flat, humped = Uniform(1.0), Beta(2.0, 2.0)
        forward = dispersive_check(flat, humped)
        backward = dispersive_check(humped, flat)
        assert forward.holds == "No"
        assert backward.holds == "No"
        # The flat density loses at the centre, the humped one at the edges.
        assert 0.4 < forward.witness < 0.6
        assert backward.witness > 0.99

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

    def test_custom_grid_size_recorded(self):
        report = dispersive_check(Uniform(1.0), Uniform(2.0), grid=64)
        assert report.grid_size == 64

    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            dispersive_check(Uniform(1.0), Uniform(2.0), grid=1)


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
