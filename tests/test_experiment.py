import math

import numpy as np
import pytest

from abmix.core import ApparatusGeometry, Grid, PhysicalConstants, Solenoid, fringe_period
from abmix.dual import BranchAmplitudes, DualSolenoidConfig, classical_totals
from abmix.errors import ValidationError
from abmix.experiment import report_text, run_experiment

CONSTANTS = PhysicalConstants()
GEOMETRY = ApparatusGeometry(screen_distance=1.0, slit_separation=1e-5, speed=1e6)
PERIOD = fringe_period(CONSTANTS, GEOMETRY)
ENVELOPE = 2.5 * PERIOD
RADIUS = 2.5e-7
ROOT_HALF = 1.0 / math.sqrt(2.0)
EQUAL_WEIGHTS = BranchAmplitudes(c1=complex(ROOT_HALF), c2=complex(ROOT_HALF))


def antisymmetric_config(delta=1.0):
    """Solenoid pair whose branch phase differences are exactly +-delta."""
    field = delta * (CONSTANTS.hbar / CONSTANTS.e) / (math.pi * RADIUS**2)
    return DualSolenoidConfig(
        solenoid1=Solenoid(field=field, radius=RADIUS),
        solenoid2=Solenoid(field=-field, radius=RADIUS),
        geometry=GEOMETRY,
        constants=CONSTANTS,
    )


def wide_screen(n=4096):
    return Grid(x_min=-8.0 * PERIOD, x_max=8.0 * PERIOD, n=n)


class TestRunExperimentBasics:
    def test_counts_sum_to_requested_electrons(self):
        report = run_experiment(
            antisymmetric_config(), EQUAL_WEIGHTS, 5000, 3, wide_screen(1024), ENVELOPE,
            n_bootstrap=0,
        )
        assert report.branch1.count + report.branch2.count == 5000
        assert np.array_equal(
            report.pooled_histogram.intensity,
            report.branch1.histogram.intensity + report.branch2.histogram.intensity,
        )

    def test_rejects_empty_run(self):
        with pytest.raises(ValidationError):
            run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 0, 3, wide_screen(), ENVELOPE)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValidationError):
            run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 10, -1, wide_screen(), ENVELOPE)

    def test_pure_branch_one_gets_every_detection(self):
        pure = BranchAmplitudes(c1=1.0 + 0.0j, c2=0.0j)
        report = run_experiment(
            antisymmetric_config(), pure, 20_000, 7, wide_screen(), ENVELOPE, n_bootstrap=20
        )
        assert report.branch1.count == 20_000
        assert report.branch2.count == 0
        assert report.branch2.estimate is None
        assert report.branch2.histogram is None
        assert np.array_equal(report.pooled_histogram.intensity, report.branch1.histogram.intensity)
        estimate = report.branch1.estimate
        tolerance = wide_screen().dx / 2.0 + 3.0 * estimate.uncertainty
        assert abs(estimate.shift - report.branch1.predicted_shift) <= tolerance

    def test_unestimated_branch_with_detections_leaves_the_mean_undefined(self):
        # 8 electrons, seed 5: branch 1 is estimated from 4 detections, the
        # 4 of branch 2 are too few; counting them as a 0 m shift would give
        # half the branch-1 estimate
        report = run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 8, 5, wide_screen(), ENVELOPE)
        assert report.branch2.count > 0 and report.branch2.estimate is None
        assert report.branch1.estimate is not None
        assert math.isnan(report.mean_shift) and math.isnan(report.mean_shift_sigma)
        assert "mean_shift_m = nan" in report_text(report)

    def test_missing_branch_sigma_leaves_the_mean_sigma_undefined(self):
        # without resamples both branch sigmas are nan; counting them as 0
        # understated the 1-sigma of the mean
        args = (antisymmetric_config(), EQUAL_WEIGHTS, 20_000, 5, wide_screen(), ENVELOPE)
        report = run_experiment(*args, n_bootstrap=0)
        assert math.isnan(report.branch1.estimate.uncertainty)
        assert math.isnan(report.branch2.estimate.uncertainty)
        assert math.isnan(report.mean_shift_sigma)
        resampled = run_experiment(*args, n_bootstrap=20)
        assert report.mean_shift == resampled.mean_shift
        assert math.isfinite(resampled.mean_shift_sigma)

    def test_report_echo_pins_rng_and_seed(self):
        report = run_experiment(
            antisymmetric_config(), EQUAL_WEIGHTS, 100, 99, wide_screen(1024), ENVELOPE,
            n_bootstrap=0,
        )
        echo = dict(report.config_echo)
        assert echo["seed"] == "99"
        assert "PCG64" in echo["rng"]
        assert "branch uniform" in echo["draw_order"]


class TestDeterminism:
    def test_identical_seed_gives_byte_identical_reports(self):
        kwargs = dict(
            config=antisymmetric_config(),
            amplitudes=EQUAL_WEIGHTS,
            n_electrons=20_000,
            seed=20240601,
            screen=wide_screen(),
            envelope_width=ENVELOPE,
            n_bootstrap=25,
        )
        first = report_text(run_experiment(**kwargs))
        second = report_text(run_experiment(**kwargs))
        assert first == second

    def test_different_seed_changes_the_detections(self):
        base = dict(
            config=antisymmetric_config(),
            amplitudes=EQUAL_WEIGHTS,
            n_electrons=5000,
            screen=wide_screen(1024),
            envelope_width=ENVELOPE,
            n_bootstrap=0,
        )
        first = run_experiment(seed=1, **base)
        second = run_experiment(seed=2, **base)
        assert not np.array_equal(
            first.pooled_histogram.intensity, second.pooled_histogram.intensity
        )


class TestTwoPointStatistics:
    def test_branch_estimates_recover_opposite_shifts(self):
        report = run_experiment(
            antisymmetric_config(), EQUAL_WEIGHTS, 100_000, 4242, wide_screen(), ENVELOPE,
            n_bootstrap=50,
        )
        epsilon = abs(report.branch1.predicted_shift)
        for branch in (report.branch1, report.branch2):
            estimate = branch.estimate
            tolerance = wide_screen().dx / 2.0 + 3.0 * estimate.uncertainty
            assert abs(estimate.shift - branch.predicted_shift) <= tolerance
        assert report.branch1.estimate.shift < -0.5 * epsilon
        assert report.branch2.estimate.shift > +0.5 * epsilon

    def test_pooled_mean_compatible_with_zero(self):
        report = run_experiment(
            antisymmetric_config(), EQUAL_WEIGHTS, 100_000, 4242, wide_screen(), ENVELOPE,
            n_bootstrap=50,
        )
        assert abs(report.mean_shift) <= 3.0 * report.mean_shift_sigma

    def test_washed_out_pooled_pattern_is_flagged_unmeasurable(self):
        # equal-weight quarter-turn mixture: pooled visibility ~ |cos(pi/2)|
        report = run_experiment(
            antisymmetric_config(delta=math.pi / 2.0), EQUAL_WEIGHTS, 400_000, 4242,
            wide_screen(), ENVELOPE, n_bootstrap=10,
        )
        assert report.pooled_estimate is None
        assert report.pooled_visibility < 0.05
        # the branch-separated view still resolves full-magnitude shifts
        assert report.branch1.estimate is not None
        assert report.branch2.estimate is not None


class TestConvergence:
    def test_errors_shrink_as_inverse_root_n(self):
        # mean error over 20 seeds at n vs 16n; O(1/sqrt(n)) predicts 4
        config = antisymmetric_config()
        screen = wide_screen(1024)

        def mean_errors(n, seeds):
            frequency, shift = [], []
            for seed in seeds:
                report = run_experiment(
                    config, EQUAL_WEIGHTS, n, seed, screen, ENVELOPE, n_bootstrap=0
                )
                frequency.append(abs(report.branch1.count / n - 0.5))
                shift.append(abs(report.mean_shift))
            return np.mean(frequency), np.mean(shift)

        frequency_small, shift_small = mean_errors(4000, range(20))
        frequency_large, shift_large = mean_errors(64_000, range(100, 120))
        assert 2.5 <= frequency_small / frequency_large <= 6.0
        assert 2.5 <= shift_small / shift_large <= 6.0


class TestDiscriminator:
    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.0, 2.7])
    def test_mixture_resolves_shifts_the_classical_case_forbids(self, delta):
        mixture = antisymmetric_config(delta)
        # classical twin at half magnitude sums to exactly zero
        classical = DualSolenoidConfig(
            solenoid1=Solenoid(field=mixture.solenoid1.field / 2.0, radius=RADIUS),
            solenoid2=Solenoid(field=mixture.solenoid2.field / 2.0, radius=RADIUS),
            geometry=GEOMETRY,
            constants=CONSTANTS,
        )
        assert classical_totals(classical) == (0.0, 0.0)
        report = run_experiment(
            mixture, EQUAL_WEIGHTS, 100_000, 4242, wide_screen(), ENVELOPE, n_bootstrap=50
        )
        for branch in (report.branch1, report.branch2):
            estimate = branch.estimate
            assert abs(estimate.shift) > 5.0 * estimate.uncertainty
        assert report.branch1.estimate.shift * report.branch2.estimate.shift < 0.0
        assert report.pooled_visibility == pytest.approx(abs(math.cos(delta)), abs=0.05)


class TestReportText:
    def test_flat_key_value_layout(self):
        report = run_experiment(
            antisymmetric_config(), EQUAL_WEIGHTS, 2000, 5, wide_screen(1024), ENVELOPE,
            n_bootstrap=0,
        )
        text = report_text(report)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert all(" = " in line for line in lines)
        keys = [line.split(" = ")[0] for line in lines]
        assert "config.seed" in keys
        assert "branch1.count" in keys
        assert "branch2.predicted_shift_m" in keys
        assert "pooled.visibility" in keys
        assert "mean_shift_m" in keys
        assert len(keys) == len(set(keys))
