import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracpast.distributions import ParetoType, Uniform
from fracpast.empirical import (
    MomentPair,
    Sample,
    confidence_interval,
    convergence_study,
    empirical_cdf,
    empirical_efcpe,
    exp_spacing_moments,
    load_sample_csv,
    stability_probe,
    unif_spacing_moments,
)
from fracpast.errors import DomainError

DATA_FILE = Path(__file__).resolve().parent.parent / "data" / "odisha_covid_weekly.csv"

# Reference expectation values for the packaged weekly-counts series.
WEEKLY_SERIES_REFERENCE = {
    0.2: 424.4105095,
    0.4: 123.7407835,
    0.8: 125.5586462,
    1.0: 140.1155942,
}


class TestSample:
    def test_sorted_storage(self):
        s = Sample([3.0, 1.0, 2.0])
        assert s.data == (1.0, 2.0, 3.0)
        assert s.n == 3
        assert s.spacings == (1.0, 1.0)

    def test_too_few_observations(self):
        with pytest.raises(DomainError):
            Sample([1.0])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Sample([1.0, -0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Sample([1.0, math.inf])
        with pytest.raises(DomainError):
            Sample([1.0, math.nan])


class TestEmpiricalCdf:
    def test_step_values(self):
        s = Sample([1.0, 2.0, 4.0, 8.0])
        assert empirical_cdf(s, 0.5) == 0.0
        assert empirical_cdf(s, 1.0) == 0.25
        assert empirical_cdf(s, 3.0) == 0.5
        assert empirical_cdf(s, 8.0) == 1.0
        assert empirical_cdf(s, 100.0) == 1.0

    def test_ties_jump_together(self):
        s = Sample([2.0, 2.0, 3.0])
        assert empirical_cdf(s, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-6, abs=0.0)


class TestEstimator:
    def test_two_point_hand_value(self):
        # One spacing of length 1 at rank 1/2: value is (1/2) log 2.
        got = empirical_efcpe(Sample([0.0, 1.0]), 1.0)
        assert got == pytest.approx(0.5 * math.log(2.0), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha,expected", sorted(WEEKLY_SERIES_REFERENCE.items()))
    def test_weekly_series_reference(self, alpha, expected):
        s = load_sample_csv(str(DATA_FILE))
        assert empirical_efcpe(s, alpha) == pytest.approx(expected, rel=1e-6, abs=0.0)

    def test_constant_sample_is_zero(self):
        assert empirical_efcpe(Sample([5.0, 5.0, 5.0]), 0.5) == 0.0

    def test_duplicates_contribute_nothing(self):
        # Ranks shift with n, so only the zero spacings drop out; the value
        # stays finite and positive.
        got = empirical_efcpe(Sample([1.0, 1.0, 2.0, 2.0, 3.0]), 0.5)
        assert math.isfinite(got) and got > 0.0

    @given(
        values=st.lists(
            st.floats(0.0, 100.0), min_size=2, max_size=12, unique=True
        ),
        c=st.floats(0.1, 9.0),
    )
    def test_scale_equivariance(self, values, c):
        base = empirical_efcpe(Sample(values), 0.6)
        scaled = empirical_efcpe(Sample([c * v for v in values]), 0.6)
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-12)

    @given(
        values=st.lists(
            st.floats(0.0, 100.0), min_size=2, max_size=12, unique=True
        ),
        c=st.floats(0.0, 50.0),
    )
    def test_shift_invariance(self, values, c):
        base = empirical_efcpe(Sample(values), 0.6)
        shifted = empirical_efcpe(Sample([v + c for v in values]), 0.6)
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestMomentFormulas:
    def test_exponential_reference_cell(self):
        m = exp_spacing_moments(50, 0.3, 1.0)
        assert m.mean == pytest.approx(2.12, abs=0.005)
        assert m.variance == pytest.approx(0.10, abs=0.005)

    def test_uniform_reference_cell(self):
        m = unif_spacing_moments(100, 0.7)
        assert m.mean == pytest.approx(0.202, abs=0.001)
        assert m.variance == pytest.approx(5.3e-6, abs=1.5e-7)

    def test_uniform_mean_approaches_population_value(self):
        target = 0.196349540849
        gaps = [abs(unif_spacing_moments(n, 0.5).mean - target) for n in (20, 100, 400)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_uniform_variance_decreases_with_n(self):
        variances = [unif_spacing_moments(n, 0.5).variance for n in (5, 10, 20, 50)]
        assert all(a > b for a, b in zip(variances, variances[1:]))

    def test_exponential_scale_in_rate(self):
        # Means scale like 1/lam, variances like 1/lam**2.
        base = exp_spacing_moments(10, 1.0, 0.5)
        scaled = exp_spacing_moments(10, 2.0, 0.5)
        assert scaled.mean == pytest.approx(base.mean / 2.0, rel=1e-12, abs=0.0)
        assert scaled.variance == pytest.approx(base.variance / 4.0, rel=1e-12, abs=0.0)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            exp_spacing_moments(1, 1.0, 0.5)
        with pytest.raises(DomainError):
            unif_spacing_moments(1, 0.5)

    def test_rate_validation(self):
        with pytest.raises(DomainError):
            exp_spacing_moments(10, 0.0, 0.5)

    def test_moment_pair_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            MomentPair(1.0, -0.1)

    def test_moment_pair_rejects_nan_variance(self):
        with pytest.raises(DomainError, match="variance must be nonnegative"):
            MomentPair(1.0, math.nan)


class TestConfidenceInterval:
    def test_centered_on_estimate(self):
        s = Sample([1.0, 2.0, 3.0, 5.0])
        lo, hi = confidence_interval(s, 0.5, 0.05, 0.04)
        point = empirical_efcpe(s, 0.5)
        assert lo < point < hi
        assert (lo + hi) / 2.0 == pytest.approx(point, rel=1e-12, abs=0.0)

    def test_width_uses_normal_quantile(self):
        s = Sample([1.0, 2.0, 3.0])
        lo, hi = confidence_interval(s, 0.5, 0.05, 1.0)
        assert hi - lo == pytest.approx(2.0 * 1.959963985, rel=1e-8, abs=0.0)

    def test_zero_variance_collapses(self):
        s = Sample([1.0, 2.0])
        lo, hi = confidence_interval(s, 0.5, 0.05, 0.0)
        assert lo == hi

    def test_gamma_validation(self):
        s = Sample([1.0, 2.0])
        for bad in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                confidence_interval(s, 0.5, bad, 1.0)

    def test_variance_validation(self):
        with pytest.raises(DomainError):
            confidence_interval(Sample([1.0, 2.0]), 0.5, 0.05, -1.0)

    def test_nan_variance_is_refused(self):
        with pytest.raises(DomainError, match="variance must be nonnegative"):
            confidence_interval(Sample([1, 2, 3, 5]), 0.5, 0.05, math.nan)


class TestCsvLoading:
    def test_header_and_comments_skipped(self, tmp_path):
        f = tmp_path / "values.csv"
        f.write_text("# weekly counts\nvalue\n1.0\n2.5\n\n4.0\n")
        s = load_sample_csv(str(f))
        assert s.data == (1.0, 2.5, 4.0)

    def test_non_numeric_after_data_rejected(self, tmp_path):
        f = tmp_path / "broken.csv"
        f.write_text("1.0\n2.0\noops\n")
        with pytest.raises(DomainError):
            load_sample_csv(str(f))

    def test_too_few_rows_rejected(self, tmp_path):
        f = tmp_path / "short.csv"
        f.write_text("header\n1.0\n")
        with pytest.raises(DomainError):
            load_sample_csv(str(f))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_sample_csv(str(tmp_path / "absent.csv"))

    def test_packaged_series_loads(self):
        s = load_sample_csv(str(DATA_FILE))
        assert s.n == 20
        assert s.data[-1] == 473.0


class TestStabilityProbe:
    def test_zero_budget_is_zero(self):
        s = Sample([1.0, 2.0, 4.0])
        assert stability_probe(s, 0.5, 0.0, 5) == 0.0

    def test_small_budget_small_change(self):
        s = load_sample_csv(str(DATA_FILE))
        small = stability_probe(s, 0.5, 0.5, 5, seed=1)
        large = stability_probe(s, 0.5, 20.0, 5, seed=1)
        assert small < large
        assert small < 0.1

    def test_validation(self):
        s = Sample([1.0, 2.0])
        with pytest.raises(DomainError):
            stability_probe(s, 0.5, -1.0, 5)
        with pytest.raises(DomainError):
            stability_probe(s, 0.5, 1.0, 0)
        for trials in (2.5, math.nan, "5"):
            with pytest.raises(DomainError):
                stability_probe(s, 0.5, 1.0, trials)
        assert stability_probe(s, 0.5, 1.0, np.int64(3)) == stability_probe(s, 0.5, 1.0, 3)


class TestConvergenceStudy:
    def test_row_structure_and_error_decay(self):
        rows = convergence_study(Uniform(1.0), 0.5, [10, 50], 10, seed=99)
        assert [r["n"] for r in rows] == [10, 50]
        for row in rows:
            assert set(row) == {"n", "mean_abs_error", "mean_estimate", "analytic"}
            assert row["analytic"] == pytest.approx(0.196349540849, rel=1e-6, abs=0.0)
            assert row["mean_abs_error"] > 0.0
        assert rows[0]["mean_abs_error"] > rows[1]["mean_abs_error"]

    def test_seed_reproducibility(self):
        a = convergence_study(Uniform(1.0), 0.5, [10], 5, seed=7)
        b = convergence_study(Uniform(1.0), 0.5, [10], 5, seed=7)
        assert a == b

    def test_sample_size_validation(self):
        with pytest.raises(DomainError):
            convergence_study(Uniform(1.0), 0.5, [1], 5, seed=0)

    @pytest.mark.parametrize("n_grid, replications", [([2.5], 5), ([10, 2.5], 5), (["10"], 5),
                                                      ([10], 0), ([10], 2.5), ([10], math.nan)])
    def test_count_that_is_not_an_integer_rejected(self, n_grid, replications):
        with pytest.raises(DomainError):
            convergence_study(Uniform(1.0), 0.5, n_grid, replications, seed=0)

    def test_numpy_integer_counts(self):
        rows = convergence_study(Uniform(1.0), 0.5, np.array([10]), np.int64(3), seed=7)
        assert rows == convergence_study(Uniform(1.0), 0.5, [10], 3, seed=7)
        assert type(rows[0]["n"]) is int

    def test_divergent_population_rejected(self):
        with pytest.raises(DomainError):
            convergence_study(ParetoType(0.5), 0.5, [10], 5, seed=0)
