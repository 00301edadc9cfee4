"""Tests for logistic-map orbit generation and its entropy trace."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from fracpast.chaos import (
    LogisticConfig,
    bifurcation_sweep,
    efcpe_vs_s,
    logistic_series,
)
from fracpast.errors import DomainError

S_VALUES = [3.58, 3.6, 3.7, 3.8, 4.0]
ALPHA_GRID = [0.3, 0.5, 0.7, 0.9]

# Empirical past measure of the attractor orbit (x0 = 0.1, burn-in 1000,
# length 5000) at order 0.3, frozen from a direct run of the estimator.
ONSET_GRID_REFERENCE = {
    3.58: 0.14134,
    3.6: 0.15499,
    3.7: 0.30769,
    3.8: 0.31198,
    4.0: 0.23042,
}


@pytest.fixture(scope="module")
def attractor_rows():
    return efcpe_vs_s(S_VALUES, ALPHA_GRID)


def _rows_by_alpha(rows):
    table = {}
    for row in rows:
        table.setdefault(row["alpha"], {})[row["s"]] = row["value"]
    return table


class TestLogisticConfig:
    def test_defaults(self):
        cfg = LogisticConfig(s=4.0)
        assert cfg.x0 == 0.1
        assert cfg.burn_in == 1000
        assert cfg.length == 5000

    @pytest.mark.parametrize("s", [-0.1, 4.1, math.nan, math.inf])
    def test_control_parameter_rejected(self, s):
        with pytest.raises(DomainError):
            LogisticConfig(s=s)

    @pytest.mark.parametrize("x0", [-0.2, 1.5, math.nan])
    def test_seed_point_rejected(self, x0):
        with pytest.raises(DomainError):
            LogisticConfig(s=3.5, x0=x0)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(DomainError):
            LogisticConfig(s=3.5, burn_in=-1)

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            LogisticConfig(s=3.5, length=1)

    @pytest.mark.parametrize("field, value", [("length", 2.5), ("length", math.nan),
                                              ("length", 5.0), ("burn_in", math.nan),
                                              ("burn_in", 2.5), ("burn_in", "5")])
    def test_count_that_is_not_an_integer_rejected(self, field, value):
        with pytest.raises(DomainError):
            LogisticConfig(4.0, **{field: value})

    def test_numpy_integer_counts(self):
        cfg = LogisticConfig(4.0, burn_in=np.int64(10), length=np.int64(25))
        want = logistic_series(LogisticConfig(4.0, burn_in=10, length=25))
        assert logistic_series(cfg).data == want.data


class TestLogisticSeries:
    def test_deterministic(self):
        cfg = LogisticConfig(s=3.9, x0=0.37, burn_in=50, length=40)
        assert logistic_series(cfg).data == logistic_series(cfg).data

    def test_hand_iteration_from_half(self):
        # 0.5 -> 4 * 0.5 * 0.5 = 1, then the orbit is absorbed at 0.
        series = logistic_series(LogisticConfig(s=4.0, x0=0.5, burn_in=0, length=3))
        assert series.data == (0.0, 0.0, 1.0)

    def test_fixed_point_at_s_two(self):
        series = logistic_series(LogisticConfig(s=2.0, x0=0.3, burn_in=500, length=4))
        for value in series.data:
            assert value == pytest.approx(0.5, abs=1e-12)

    def test_fixed_point_at_s_two_and_a_half(self):
        # The interior fixed point 1 - 1/s sits at 0.6.
        series = logistic_series(LogisticConfig(s=2.5, x0=0.1, burn_in=500, length=4))
        for value in series.data:
            assert value == pytest.approx(0.6, abs=1e-12)

    def test_period_two_cycle(self):
        series = logistic_series(LogisticConfig(s=3.2, x0=0.1, burn_in=1000, length=50))
        distinct = {round(v, 9) for v in series.data}
        assert len(distinct) == 2
        low, high = sorted(distinct)
        assert low == pytest.approx(0.51304451, abs=1e-7)
        assert high == pytest.approx(0.79945549, abs=1e-7)

    def test_chaotic_orbit_rarely_repeats(self):
        series = logistic_series(LogisticConfig(s=4.0, x0=0.1, burn_in=1000, length=100))
        distinct = {round(v, 9) for v in series.data}
        assert len(distinct) >= 50

    def test_onset_orbit_spreads_out(self):
        series = logistic_series(LogisticConfig(s=3.58, x0=0.1, burn_in=1000, length=100))
        assert series.data[-1] - series.data[0] > 0.1

    @given(
        s=st.floats(min_value=0.0, max_value=4.0),
        x0=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_orbit_stays_in_unit_interval(self, s, x0):
        series = logistic_series(LogisticConfig(s=s, x0=x0, burn_in=10, length=25))
        assert 0.0 <= series.data[0]
        assert series.data[-1] <= 1.0


class TestEfcpeVsS:
    def test_empty_control_list(self):
        assert efcpe_vs_s([], [0.5]) == []

    def test_row_structure(self, attractor_rows):
        assert len(attractor_rows) == len(S_VALUES) * len(ALPHA_GRID)
        for row in attractor_rows:
            assert set(row) == {"s", "alpha", "value"}
            assert row["value"] > 0.0

    def test_reference_values_at_low_order(self, attractor_rows):
        values = _rows_by_alpha(attractor_rows)[0.3]
        for s, expected in ONSET_GRID_REFERENCE.items():
            assert values[s] == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_chaotic_band_dominates_onset_band(self, attractor_rows, alpha):
        values = _rows_by_alpha(attractor_rows)[alpha]
        weakest_chaotic = min(values[3.8], values[4.0])
        strongest_onset = max(values[3.58], values[3.6])
        assert weakest_chaotic > strongest_onset

    def test_rank_correlation_with_control(self, attractor_rows):
        values = _rows_by_alpha(attractor_rows)[0.7]
        ordered = [values[s] for s in S_VALUES]
        rho = stats.spearmanr(S_VALUES, ordered).statistic
        assert rho == pytest.approx(1.0, abs=1e-9)


class TestBifurcationSweep:
    def test_point_counts_and_controls(self):
        points = bifurcation_sweep(2.4, 2.6, 3, retain=5)
        assert len(points) == 15
        assert sorted({s for s, _ in points}) == [2.4, 2.5, 2.6]

    def test_points_in_unit_interval(self):
        points = bifurcation_sweep(3.0, 4.0, 5, retain=20)
        for _, value in points:
            assert 0.0 <= value <= 1.0

    def test_fixed_point_region_collapses(self):
        points = bifurcation_sweep(2.4, 2.6, 3, retain=5)
        middle = [v for s, v in points if s == 2.5]
        for value in middle:
            assert value == pytest.approx(0.6, abs=1e-9)

    def test_too_few_steps(self):
        with pytest.raises(DomainError):
            bifurcation_sweep(3.0, 4.0, 1)

    def test_bad_retain(self):
        with pytest.raises(DomainError):
            bifurcation_sweep(3.0, 4.0, 5, retain=0)

    @pytest.mark.parametrize("steps, retain", [(2.5, 5), (3, 2.5), (math.nan, 5), (3, "5")])
    def test_count_that_is_not_an_integer_rejected(self, steps, retain):
        with pytest.raises(DomainError):
            bifurcation_sweep(3.0, 4.0, steps, retain=retain)

    def test_numpy_integer_counts(self):
        assert (bifurcation_sweep(2.4, 2.6, np.int64(3), retain=np.int32(5))
                == bifurcation_sweep(2.4, 2.6, 3, retain=5))
