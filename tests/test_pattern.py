import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abmix.core import ApparatusGeometry, Grid, PhysicalConstants, fringe_period, fringe_shift, phase_shift
from abmix.current import GridWavefunction
from abmix.dual import BranchAmplitudes
from abmix.errors import ValidationError
from abmix.experiment import _count_chunk, _edge_table
from abmix.pattern import (
    HISTOGRAM_REBIN,
    VISIBILITY_FLOOR,
    IntensityPattern,
    ScreenOptics,
    ShiftEstimator,
    cdf_edges,
    estimate_shift,
    histogram_pattern,
    inverse_cdf_positions,
    mixture_pattern,
    pattern_csv,
    two_slit_pattern,
    visibility,
)

CONSTANTS = PhysicalConstants()
GEOMETRY = ApparatusGeometry(screen_distance=1.0, slit_separation=1e-5, speed=1e6)
PERIOD = fringe_period(CONSTANTS, GEOMETRY)
ENVELOPE = 2.5 * PERIOD
EQUAL_WEIGHTS = BranchAmplitudes(complex(math.sqrt(0.5)), complex(math.sqrt(0.5)))


def detection_counts(pattern, quantiles):
    """Per-cell counts of `quantiles` on `pattern` by the experiment's chunk
    count, every electron on branch 1 (branch uniform 0, p1 = 1)."""
    uniforms = np.column_stack([np.zeros(len(quantiles)), quantiles])
    return _count_chunk(_edge_table([pattern, pattern]), 1.0, [uniforms], len(uniforms))[0]


def screen(n=4096, periods=16.0):
    half = periods * PERIOD / 2.0
    return Grid(x_min=-half, x_max=half, n=n)


def pattern_at(phase, n=4096, periods=16.0, envelope=ENVELOPE):
    return two_slit_pattern(ScreenOptics(screen(n, periods), PERIOD, envelope), phase)


def flat(grid):
    """Optics on `grid`, which starts at x = 0, with a fringe period of 32
    cells, the fewest the screen rules allow, and an envelope flat to within
    rounding: for patterns whose shape the test sets itself."""
    return ScreenOptics(grid, 2 * HISTOGRAM_REBIN * grid.dx, 1e12)


def flux_for_phase(phase):
    return phase * CONSTANTS.hbar / CONSTANTS.e


class TestScreenGrid:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValidationError):
            Grid(x_min=1.0, x_max=-1.0, n=64)

    def test_rejects_tiny_grids(self):
        # a Grid needs 2 points for its step; a screen needs 4 periods of 32
        # cells, 129 cells at least
        with pytest.raises(ValidationError):
            Grid(x_min=0.0, x_max=1.0, n=1)
        with pytest.raises(ValidationError, match="do not resolve"):
            ScreenOptics(Grid(x_min=0.0, x_max=1.0, n=8), 0.25, 1.0)
        with pytest.raises(ValidationError, match="do not resolve"):
            ScreenOptics(Grid(x_min=0.0, x_max=1.0, n=128), 0.25, 1.0)
        assert ScreenOptics(Grid(x_min=0.0, x_max=1.0, n=129), 0.25, 1.0).grid.n == 129

    def test_spacing(self):
        grid = Grid(x_min=0.0, x_max=1.0, n=101)
        assert grid.dx == pytest.approx(0.01, rel=1e-12)


class TestIntensityPattern:
    def test_rejects_negative_intensity(self):
        with pytest.raises(ValidationError):
            IntensityPattern(flat(Grid(0.0, 12.9, 130)), np.linspace(-1, 1, 130))

    def test_a_zero_pattern_constructs_and_only_its_cdf_refuses_zero_mass(self):
        # a branch without detections holds an all-zero histogram; only the CDF divides by the mass
        pattern = IntensityPattern(flat(Grid(0.0, 12.9, 130)), np.zeros(130))
        assert np.array_equal(histogram_pattern(np.array([]), pattern).intensity, pattern.intensity)
        with pytest.raises(ValidationError, match="zero mass"):
            cdf_edges(pattern)
        with pytest.raises(ValidationError, match="zero mass"):
            inverse_cdf_positions(pattern, np.array([0.5]))
        with pytest.raises(ValidationError, match="reference visibility 0.0 is at or below"):
            ShiftEstimator(pattern)

    @pytest.mark.parametrize("shape", [(129,), (131,), (130, 1), (2, 130), ()], ids=str)
    def test_rejects_an_intensity_not_one_value_per_cell(self, shape):
        with pytest.raises(ValidationError, match=re.escape(f"got shape {shape} on 130 cells")):
            IntensityPattern(flat(Grid(0.0, 12.9, 130)), np.ones(shape))


@pytest.mark.parametrize(
    "make, dtype, field",
    [
        (lambda grid, values: IntensityPattern(flat(grid), values), float, "intensity"),
        (GridWavefunction, complex, "samples"),
    ],
    ids=["IntensityPattern", "GridWavefunction"],
)
def test_a_value_type_holds_a_read_only_copy_and_leaves_the_callers_array_writeable(make, dtype, field):
    values = np.ones(160, dtype=dtype)
    held = make(Grid(0.0, 15.9, 160), values)
    values[0] = 2.0
    array = getattr(held, field)
    assert array[0] == 1.0 and not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 3.0


class TestTwoSlitPattern:
    def test_zero_phase_peaks_on_axis(self):
        pattern = pattern_at(0.0, n=4097)  # odd grid so x = 0 is sampled
        assert pattern.optics.grid.positions[int(np.argmax(pattern.intensity))] == pytest.approx(0.0, abs=1e-18)

    def test_full_turn_is_indistinguishable_from_zero(self):
        base = pattern_at(0.0)
        turned = pattern_at(2.0 * math.pi)
        assert np.allclose(turned.intensity, base.intensity, rtol=0.0, atol=1e-12)

    def test_quarter_turn_moves_the_peak_a_quarter_period(self):
        pattern = pattern_at(math.pi / 2.0)
        expected = fringe_shift(CONSTANTS, GEOMETRY, flux_for_phase(math.pi / 2.0))
        assert expected == pytest.approx(-PERIOD / 4.0, rel=1e-12)
        peak_x = pattern.optics.grid.positions[int(np.argmax(pattern.intensity))]
        assert abs(peak_x - expected) <= pattern.optics.grid.dx

    @pytest.mark.parametrize("phase", [0.4, 1.0, -1.3])
    def test_peak_calibrated_against_closed_form_shift(self, phase):
        # the sign of the phase insertion must reproduce the closed form
        pattern = pattern_at(phase)
        expected = fringe_shift(CONSTANTS, GEOMETRY, flux_for_phase(phase))
        peak_x = pattern.optics.grid.positions[int(np.argmax(pattern.intensity))]
        assert abs(peak_x - expected) <= pattern.optics.grid.dx

    def test_rejects_narrow_screen(self):
        with pytest.raises(ValidationError, match="narrower"):
            pattern_at(0.0, periods=3.0)

    def test_rejects_bad_envelope(self):
        with pytest.raises(ValidationError):
            pattern_at(0.0, envelope=0.0)

    @pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
    def test_a_phase_that_is_not_finite_gives_intensities_that_are_rejected(self, phase):
        # the cos of such a phase is nan, and no RuntimeWarning escapes on the way
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValidationError, match="finite"):
            warnings.simplefilter("always")
            pattern_at(phase)
        assert [str(w.message) for w in caught] == []


class TestMixturePattern:
    def test_pure_weight_returns_first_pattern(self):
        one = pattern_at(0.7)
        two = pattern_at(-0.7)
        mixed = mixture_pattern(BranchAmplitudes(1.0, 0.0), one, two)
        assert np.array_equal(mixed.intensity, one.intensity)

    def test_rejects_grid_mismatch(self):
        one = pattern_at(0.7)
        two = pattern_at(-0.7, n=2048)
        with pytest.raises(ValidationError):
            mixture_pattern(EQUAL_WEIGHTS, one, two)

    def test_rejects_mismatched_optics(self):
        one = pattern_at(0.7)
        two = pattern_at(-0.7, envelope=2.0 * ENVELOPE)
        with pytest.raises(ValidationError, match="envelope width"):
            mixture_pattern(EQUAL_WEIGHTS, one, two)

    def test_opposite_quarter_turns_cancel_the_fringes(self):
        # cos(t - pi/2) + cos(t + pi/2) = 0: the patterns are mutually out
        # of phase and the mixture flattens to the bare envelope
        mixed = mixture_pattern(EQUAL_WEIGHTS, pattern_at(math.pi / 2.0), pattern_at(-math.pi / 2.0))
        assert visibility(mixed) < 0.01

    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.0, 2.8])
    def test_visibility_is_cos_delta(self, delta):
        # 0.5 cos(t - d) + 0.5 cos(t + d) = cos(d) cos(t); sampled at an
        # odd point count with an integer cell count per period so the
        # fringe extremes land exactly on grid points
        mixed = mixture_pattern(EQUAL_WEIGHTS, pattern_at(delta, n=4097), pattern_at(-delta, n=4097))
        assert visibility(mixed) == pytest.approx(abs(math.cos(delta)), abs=1e-6)

    def test_visibility_law_20_point_sweep(self):
        for delta in np.linspace(0.0, math.pi, 20):
            mixed = mixture_pattern(EQUAL_WEIGHTS, pattern_at(delta), pattern_at(-delta))
            assert visibility(mixed) == pytest.approx(abs(math.cos(delta)), abs=1e-3)


class TestEstimateShift:
    def test_self_correlation_is_zero(self):
        pattern = pattern_at(0.0)
        estimate = estimate_shift(pattern, pattern)
        assert abs(estimate.shift) <= pattern.optics.grid.dx / 10.0

    def test_one_radian_shift_recovered(self):
        reference = pattern_at(0.0)
        pattern = pattern_at(1.0)
        expected = fringe_shift(CONSTANTS, GEOMETRY, flux_for_phase(1.0))
        estimate = estimate_shift(pattern, reference)
        assert abs(estimate.shift - expected) <= pattern.optics.grid.dx / 2.0

    @pytest.mark.parametrize("phase", [0.1, 0.5, 1.0, 2.0])
    def test_estimator_consistency_sweep(self, phase):
        reference = pattern_at(0.0)
        estimate = estimate_shift(pattern_at(phase), reference)
        expected = fringe_shift(CONSTANTS, GEOMETRY, flux_for_phase(phase))
        assert abs(estimate.shift - expected) <= reference.optics.grid.dx / 2.0

    def test_three_cell_circular_shift_with_flat_envelope(self):
        n = 1024
        dx = 0.25
        grid = Grid(0.0, dx * (n - 1), n)
        cycles = 32   # 32 cells a period, the finest fringes the screen rules allow
        base = 1.0 + np.cos(2.0 * math.pi * cycles * np.arange(n) / n)
        optics = ScreenOptics(grid, n * dx / cycles, 1e12)
        reference = IntensityPattern(optics, base)
        shifted = IntensityPattern(optics, np.roll(base, 3))
        estimate = estimate_shift(shifted, reference)
        assert abs(estimate.shift - 3.0 * dx) <= dx / 10.0

    def test_estimate_carries_the_visibility_of_visibility(self):
        # one contrast rule, bit for bit, on 4090 cells; counts, which the
        # 16-cell merging of a histogram leaves 10 cells over, are judged by
        # the estimator's block, which must equal the per-row formula
        reference = pattern_at(0.0, n=4090)
        synthesized = pattern_at(0.6, n=4090)
        assert estimate_shift(synthesized, reference).visibility == visibility(synthesized)
        counts = detection_counts(synthesized, np.random.default_rng(5).random(50_000))
        _, visibilities = ShiftEstimator(reference).shifts(counts[np.newaxis].astype(float))
        assert visibilities[0] == scalar_visibility(reference, counts, holds_counts=True)

    def test_washed_out_mixture_is_unmeasurable(self):
        # the equal-weight quarter-turn mixture has visibility |cos(pi/2)| ~ 0
        mixed = mixture_pattern(EQUAL_WEIGHTS, pattern_at(math.pi / 2.0), pattern_at(-math.pi / 2.0))
        estimate = estimate_shift(mixed, pattern_at(0.0))
        assert math.isnan(estimate.shift)
        assert estimate.visibility <= VISIBILITY_FLOOR
        assert estimate.uncertainty == 0.0

    def test_flat_reference_is_rejected(self):
        flat = mixture_pattern(EQUAL_WEIGHTS, pattern_at(math.pi / 2.0), pattern_at(-math.pi / 2.0))
        with pytest.raises(ValidationError):
            estimate_shift(pattern_at(0.0), flat)

    @pytest.mark.parametrize(
        "make_pattern",
        [
            lambda: pattern_at(0.0, n=2048),
            lambda: pattern_at(0.0, envelope=2.0 * ENVELOPE),
            lambda: two_slit_pattern(ScreenOptics(screen(), 1.5 * PERIOD, ENVELOPE), 0.0),
        ],
        ids=["grid", "envelope_width", "period"],
    )
    def test_grid_mismatch_is_rejected(self, make_pattern):
        with pytest.raises(ValidationError, match="must share"):
            estimate_shift(make_pattern(), pattern_at(0.0))


def scalar_shift(estimator, intensity):
    """One pattern's shift by scalar arithmetic on 1-D transforms, as the
    estimator computed it before it took blocks: the reference that
    ShiftEstimator.shifts must equal bit for bit."""
    envelope, nfft = estimator.reference.optics.envelope, estimator.nfft
    n, dx = estimator.reference.n, estimator.reference.optics.grid.dx
    coefficient = float(np.dot(intensity, envelope) / np.dot(envelope, envelope))
    spectrum = np.fft.rfft(intensity - coefficient * envelope, nfft)
    c = np.fft.irfft(spectrum * estimator.reference_spectrum, nfft)
    correlation = np.concatenate([c[-(n - 1):], c[:n]])
    peak = int(np.argmax(correlation))
    offset = 0.0
    if 0 < peak < correlation.size - 1:
        curvature = correlation[peak - 1] - 2.0 * correlation[peak] + correlation[peak + 1]
        if curvature != 0.0:
            offset = 0.5 * (correlation[peak - 1] - correlation[peak + 1]) / curvature
    half_span = 0.5 * (n - 1) * dx
    return float(np.clip((peak - (n - 1) + offset) * dx, -half_span, half_span))


def scalar_visibility(reference, intensity, holds_counts):
    """One intensity row's visibility on the reference's optics by the
    per-row formula the contrast rule used before it took blocks: the
    reference that the block contrast must equal bit for bit."""
    optics = reference.optics
    rebin = HISTOGRAM_REBIN if holds_counts else 1
    keep = (optics.grid.n // rebin) * rebin
    x = optics.grid.positions
    envelope = np.exp(-(x**2) / (2.0 * optics.envelope_width**2))
    central = np.abs(x[:keep].reshape(-1, rebin).mean(axis=1)) <= optics.period
    merged = intensity[:keep].reshape(-1, rebin).sum(axis=1)[central]
    profile = merged / envelope[:keep].reshape(-1, rebin).sum(axis=1)[central]
    hi, lo = float(np.max(profile)), float(np.min(profile))
    if hi + lo <= 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


class TestShiftEstimatorBlocks:
    @pytest.mark.parametrize("n", [4096, 4090])   # 4090 cells: the 16-cell merging leaves 10 over
    def test_block_equals_one_pattern_estimates_bit_for_bit(self, n):
        reference = pattern_at(0.0, n=n)
        estimator = ShiftEstimator(reference)
        shifted = pattern_at(0.6, n=n).intensity
        rows = np.random.default_rng(n).multinomial(20_000, shifted / shifted.sum(), size=5)
        block = np.vstack([rows, np.full(n, 3.0)])   # the flat last row is washed out
        shifts, visibilities = estimator.shifts(block)
        assert visibilities[-1] <= VISIBILITY_FLOOR < visibilities[:-1].min()
        for row, shift, row_visibility in zip(block, shifts, visibilities):
            assert row_visibility == scalar_visibility(reference, row, holds_counts=True)
            one_shift, one_visibility = estimator.shifts(row[np.newaxis])   # a 1-row block
            assert one_visibility[0] == row_visibility
            assert np.array_equal(one_shift, [shift], equal_nan=True)
            if row_visibility > VISIBILITY_FLOOR:
                assert shift == scalar_shift(estimator, row)
            else:
                assert math.isnan(shift)

    @pytest.mark.parametrize("n", [4096, 4090])
    def test_block_contrast_equals_the_per_row_formula_bit_for_bit(self, n):
        reference = pattern_at(0.0, n=n)
        estimator = ShiftEstimator(reference)
        shifted = pattern_at(0.6, n=n).intensity
        counts = np.random.default_rng(n).multinomial(5_000, shifted / shifted.sum(), size=4)
        counts = np.vstack([counts, np.zeros(n)])   # an empty row has contrast 0.0
        synthesized = np.vstack([
            pattern_at(phase, n=n).intensity for phase in (0.0, 0.6, -2.0)
        ] + [mixture_pattern(EQUAL_WEIGHTS, pattern_at(delta, n=n), pattern_at(-delta, n=n)).intensity
             for delta in (1.0, math.pi / 2.0)])
        for block, holds_counts in ((counts, True), (synthesized, False)):
            _, visibilities = estimator.shifts(block, holds_counts)
            assert visibilities.tolist() == [scalar_visibility(reference, row, holds_counts) for row in block]

    def test_shifts_are_nan_exactly_at_or_below_the_floor(self):
        # equal-weight mixtures of 0.3 +- delta have visibility |cos delta|:
        # rows on both sides of the floor, and a measured row's shift unchanged
        reference = pattern_at(0.0)
        estimator = ShiftEstimator(reference)
        deltas = [math.acos(v) for v in (0.02, 0.045, 0.055, 0.3)]
        block = np.vstack([pattern_at(0.6).intensity] + [
            mixture_pattern(EQUAL_WEIGHTS, pattern_at(0.3 + delta), pattern_at(0.3 - delta)).intensity
            for delta in deltas
        ])
        shifts, visibilities = estimator.shifts(block, holds_counts=False)
        assert (visibilities <= VISIBILITY_FLOOR).any() and (visibilities > VISIBILITY_FLOOR).any()
        assert np.array_equal(np.isnan(shifts), visibilities <= VISIBILITY_FLOOR)
        for row, shift in zip(block[visibilities > VISIBILITY_FLOOR], shifts[visibilities > VISIBILITY_FLOOR]):
            assert shift == scalar_shift(estimator, row)
        for row, shift, row_visibility in zip(block, shifts, visibilities):   # estimate_shift: one synthesized row
            one = estimate_shift(replace(reference, intensity=row), reference)
            assert np.array_equal([one.shift, one.visibility, one.uncertainty], [shift, row_visibility, 0.0],
                                  equal_nan=True)

    def test_numpy_transforms_a_block_of_rows_as_it_does_each_row(self):
        # ShiftEstimator.shifts takes one rfft and one irfft of a whole block;
        # 5 rows, so an odd row is left over if rows are paired inside the FFT
        rows = np.random.default_rng(3).random((5, 4000))
        spectra = np.fft.rfft(rows, 8192, axis=-1)
        back = np.fft.irfft(spectra, 8192, axis=-1)
        for row, spectrum, inverse in zip(rows, spectra, back):
            assert np.array_equal(spectrum, np.fft.rfft(row, 8192))
            assert np.array_equal(inverse, np.fft.irfft(spectrum, 8192))


def concatenated_shifts(estimator, block):
    """The shifts of the rows of a (k, n) block, with no visibility floor, and
    the index of each row's peak in its lags -(n-1) .. n-1, by the correlation
    assembly the estimator used before it read the lags in place: rfft of
    each fringe part padded to nfft, times the reference spectrum, irfft, the
    lags concatenated into one run, its first argmax, three-point refinement
    and the clip to half the span.  ShiftEstimator.shifts must equal it bit
    for bit."""
    envelope, nfft = estimator.reference.optics.envelope, estimator.nfft
    n, dx = estimator.reference.n, estimator.reference.optics.grid.dx
    coefficients = np.array([np.dot(row, envelope) for row in block]) / np.dot(envelope, envelope)
    fringe = block - coefficients[:, np.newaxis] * envelope
    c = np.fft.irfft(np.fft.rfft(fringe, nfft, axis=-1) * estimator.reference_spectrum, nfft, axis=-1)
    correlation = np.concatenate([c[:, -(n - 1):], c[:, :n]], axis=1)
    peaks = np.argmax(correlation, axis=1)
    shifts = []
    for row, peak in zip(correlation, peaks):
        offset = 0.0
        if 0 < peak < 2 * n - 2:
            left, middle, right = row[peak - 1:peak + 2]
            if (curvature := left - 2.0 * middle + right) != 0.0:
                offset = 0.5 * (left - right) / curvature
        half_span = 0.5 * (n - 1) * dx
        shifts.append(np.clip((peak - (n - 1) + offset) * dx, -half_span, half_span))
    return np.array(shifts), peaks


class TestCorrelationAssembly:
    """ShiftEstimator.shifts writes each row's correlation into one padded
    buffer and reads the peak and its neighbours from its two lag runs in
    place: every shift must equal the concatenated assembly bit for bit,
    on whichever numpy is installed."""

    @pytest.fixture(autouse=True)
    def no_floor(self, monkeypatch):
        # the floor's nan would hide the peak of a washed-out row, such as an all-zero one
        monkeypatch.setattr("abmix.pattern.VISIBILITY_FLOOR", -1.0)

    @staticmethod
    def assert_same_bits(estimator, block, holds_counts):
        shifts, _ = estimator.shifts(block, holds_counts)
        expected, peaks = concatenated_shifts(estimator, block)
        assert shifts.tobytes() == expected.tobytes()
        return peaks

    @pytest.mark.parametrize("n", [4096, 4090])   # nfft = 2n and nfft > 2n
    def test_seeded_count_blocks(self, n):
        estimator = ShiftEstimator(pattern_at(0.0, n=n))
        for seed, phase in enumerate((0.6, -2.0, 3.0)):
            shifted = pattern_at(phase, n=n).intensity
            for k in (1, 4, 5):
                rows = np.random.default_rng((n, seed, k)).multinomial(20_000, shifted / shifted.sum(), size=k)
                self.assert_same_bits(estimator, rows.astype(float), True)

    def test_synthesized_rows(self):
        estimator = ShiftEstimator(pattern_at(0.0, n=4090))
        block = np.vstack([pattern_at(phase, n=4090).intensity for phase in (0.0, 0.6, -2.0, math.pi)] + [
            mixture_pattern(EQUAL_WEIGHTS, pattern_at(0.3 + delta, n=4090), pattern_at(0.3 - delta, n=4090)).intensity
            for delta in (1.0, math.pi / 2.0)])
        self.assert_same_bits(estimator, block, False)

    def test_a_peak_at_lag_0_reads_its_neighbours_across_the_seam(self):
        # lag 0 opens the buffer and lag -1 closes it
        reference = pattern_at(0.0)
        peaks = self.assert_same_bits(ShiftEstimator(reference), reference.intensity[np.newaxis], False)
        assert peaks.tolist() == [reference.n - 1]

    @pytest.mark.parametrize("reference_at, row_at, peak", [(0, -1, 2 * 1024 - 2), (-1, 0, 0)],
                             ids=["last_lag", "first_lag"])
    def test_a_peak_at_an_end_lag(self, reference_at, row_at, peak):
        # on a flat envelope, a spike at one end of the reference and one at the
        # other end of the row overlap only at the extreme lag, where their
        # product outweighs every other lag's sum
        n = 1024
        optics = flat(Grid(0.0, n - 1.0, n))
        base = 1.0 + np.cos(2.0 * math.pi * np.arange(n) / (2 * HISTOGRAM_REBIN))
        reference, row = base.copy(), base.copy()
        reference[reference_at] += 1e4
        row[row_at] += 1e4
        peaks = self.assert_same_bits(ShiftEstimator(IntensityPattern(optics, reference)), row[np.newaxis], False)
        assert peaks.tolist() == [peak]

    def test_an_all_zero_row_ties_at_every_lag(self):
        # every lag ties at 0: the first, lag -(n-1), is the peak
        estimator = ShiftEstimator(pattern_at(0.0))
        block = np.vstack([np.zeros(4096), pattern_at(0.6).intensity])
        peaks = self.assert_same_bits(estimator, block, False)
        assert peaks.tolist()[0] == 0


class TestSampleDetections:
    def test_delta_like_pattern_confines_samples(self):
        intensity = np.zeros(160)
        intensity[17] = 5.0
        pattern = IntensityPattern(flat(Grid(0.0, 79.5, 160)), intensity)
        samples = inverse_cdf_positions(pattern, np.random.default_rng(7).random(500))
        center = 0.0 + 0.5 * 17
        assert np.all(np.abs(samples - center) <= 0.25 + 1e-12)

    def test_uniform_pattern_moments(self):
        n = 100_000
        pattern = IntensityPattern(flat(Grid(0.0, 1.0, 256)), np.ones(256))
        samples = inverse_cdf_positions(pattern, np.random.default_rng(11).random(n))
        # uniform on ~[0, 1]: mean 1/2, sd 1/sqrt(12)
        tolerance = 3.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(n)
        assert np.mean(samples) == pytest.approx(0.5, abs=tolerance + 0.5 / 255.0)

    def test_fixed_seed_reproduces_samples(self):
        pattern = pattern_at(1.0)
        first = inverse_cdf_positions(pattern, np.random.default_rng(123).random(1000))
        second = inverse_cdf_positions(pattern, np.random.default_rng(123).random(1000))
        assert np.array_equal(first, second)

    def test_quantile_endpoints_map_to_screen_edges(self):
        pattern = IntensityPattern(flat(Grid(0.0, 79.5, 160)), np.ones(160))
        positions = inverse_cdf_positions(pattern, np.array([0.0, 1.0 - 1e-16]))
        assert positions[0] == pytest.approx(-0.25, abs=1e-12)
        assert positions[1] == pytest.approx(79.75, abs=1e-9)

    def test_histogram_chi_square_against_the_pattern(self):
        # goodness of fit at significance 0.01, coarse bins with >= 5 expected
        pattern = pattern_at(1.0)
        n = 100_000
        samples = inverse_cdf_positions(pattern, np.random.default_rng(77).random(n))
        grid = pattern.optics.grid
        merge = 64
        edges = np.concatenate(
            [grid.positions - 0.5 * grid.dx, [grid.positions[-1] + 0.5 * grid.dx]]
        )[::merge]
        counts, _ = np.histogram(samples, bins=edges)
        cell_probability = pattern.intensity / pattern.intensity.sum()
        coarse = cell_probability[: (pattern.n // merge) * merge].reshape(-1, merge).sum(axis=1)
        expected = n * coarse
        usable = expected >= 5.0
        chi2 = float(np.sum((counts[usable] - expected[usable]) ** 2 / expected[usable]))
        dof = int(usable.sum()) - 1
        assert dof == 62   # a changed screen or pattern changes the bound below
        assert chi2 < 90.80153203083871   # the 0.99 quantile of chi-square with 62 degrees of freedom


class TestDetectionCounts:
    @pytest.mark.parametrize("phase", [1.0, -1.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_histogram_of_sampled_positions(self, seed, phase):
        pattern = pattern_at(phase)
        quantiles = np.random.default_rng(seed).random(20_000)
        counts = detection_counts(pattern, quantiles)
        assert counts.dtype == np.int64
        expected = histogram_pattern(inverse_cdf_positions(pattern, quantiles), pattern).intensity
        assert np.array_equal(counts, expected)

    def test_quantile_on_a_cell_edge_lands_in_that_cell(self):
        # a drawn quantile is on the 2^-53 lattice: the first one at or above
        # an edge lands in that edge's cell, and the one a lattice step below
        # it in the cell before (a position that close to a cell's right edge
        # may round onto it, so only the count is checked there)
        pattern = IntensityPattern(flat(Grid(0.0, 159.0, 160)), np.arange(1.0, 161.0))
        cumulative = np.concatenate([[0.0], np.cumsum(pattern.intensity)])
        cdf = cumulative / cumulative[-1]
        for cell in (0, 5, 159):
            on_edge = math.ceil(cdf[cell] * 2**53) * 2**-53
            counts = detection_counts(pattern, np.array([on_edge]))
            assert np.flatnonzero(counts).tolist() == [cell]
            sampled = inverse_cdf_positions(pattern, np.array([on_edge]))
            assert np.flatnonzero(histogram_pattern(sampled, pattern).intensity).tolist() == [cell]
            if cell > 0:
                counts = detection_counts(pattern, np.array([on_edge - 2**-53]))
                assert np.flatnonzero(counts).tolist() == [cell - 1]

    def test_zero_weight_cells_get_nothing_and_every_quantile_is_counted(self):
        intensity = np.zeros(160)
        intensity[[5, 17, 18, 40, 58]] = [1.0, 5.0, 0.5, 2.0, 3.0]   # zero-weight cells at both ends
        pattern = IntensityPattern(flat(Grid(0.0, 79.5, 160)), intensity)
        quantiles = np.concatenate([np.random.default_rng(3).random(5000), [0.0, 1.0 - 2**-53]])
        counts = detection_counts(pattern, quantiles)
        assert np.all(counts[intensity == 0.0] == 0)
        assert np.all(counts[intensity > 0.0] > 0)
        assert counts.sum() == len(quantiles)

    def test_no_quantiles_give_no_counts(self):
        counts = detection_counts(pattern_at(0.0, n=200, periods=6.0), np.array([]))
        assert counts.shape == (200,) and not counts.any()


class TestHistogramPattern:
    def test_counts_land_in_the_right_cells(self):
        optics = ScreenOptics(Grid(x_min=0.0, x_max=159.0, n=160), 32.0, 3.0)
        reference = IntensityPattern(optics, np.ones(160))
        samples = np.array([0.1, 0.2, 7.4, 158.9])
        histogram = histogram_pattern(samples, reference)
        assert histogram.intensity[0] == 2.0
        assert histogram.intensity[7] == 1.0
        assert histogram.intensity[159] == 1.0
        assert histogram.optics is optics

    def test_csv_round_trip(self):
        pattern = pattern_at(0.3, n=200, periods=6.0)
        text = pattern_csv(pattern)
        lines = text.splitlines()
        assert lines[0] == "x_m,intensity"
        assert len(lines) == 201
        x, value = (float(part) for part in lines[1].split(","))
        assert x == pytest.approx(pattern.optics.grid.x_min)
        assert value == pytest.approx(pattern.intensity[0])


def test_two_slit_pattern_mass_positive():
    assert pattern_at(0.0).intensity.sum() > 0.0


def test_screen_optics_require_a_positive_period_and_envelope_width():
    with pytest.raises(ValidationError, match="period"):
        ScreenOptics(Grid(0.0, 3.1, 32), 0.0, 1.0)
    for width in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=f"envelope_width must be finite and positive, got {width!r}"):
            ScreenOptics(Grid(0.0, 3.1, 32), 1.0, width)
    for huge in (1e300, 1.2e154, 9.5e153):   # w^2 overflows; w^2 is finite but 2 w^2 overflows
        message = f"envelope_width {huge!r} m is too large: 2 w^2 overflows"
        with pytest.raises(ValidationError, match=re.escape(message)):
            ScreenOptics(Grid(0.0, 3.1, 32), 1.0, huge)
    ScreenOptics(Grid(-4.0, 4.0, 513), 1.0, 9.4e153)   # 2 w^2 is finite: accepted
    # 2 w^2 underflows to 0: the envelope is 0 on every cell, or nan at x = 0, on a screen
    # that passes the span and resolution rules
    for tiny in (1e-200, 1e-300):
        with pytest.raises(ValidationError, match=f"envelope_width {tiny!r} m is too narrow: the envelope underflows"):
            ScreenOptics(Grid(-4.0, 4.0, 513), 1.0, tiny)


def test_screen_optics_need_the_central_fringes_on_the_screen():
    offset = Grid(x_min=2.0 * PERIOD, x_max=8.0 * PERIOD, n=1024)
    with pytest.raises(ValidationError, match="within one fringe period"):
        ScreenOptics(offset, PERIOD, ENVELOPE)
    # the first cell is within one period of x = 0, but the centre of the
    # first 16 cells, merged as a histogram's are, is not
    dx = 6.0 * PERIOD / 1023
    edge = Grid(x_min=PERIOD - 2.0 * dx, x_max=PERIOD - 2.0 * dx + 6.0 * PERIOD, n=1024)
    assert abs(edge.x_min) <= PERIOD
    with pytest.raises(ValidationError, match="within one fringe period"):
        ScreenOptics(edge, PERIOD, ENVELOPE)


@st.composite
def screens(draw):
    """(grid, P, w) that pass every screen rule but the central ones: 160 to
    4096 cells over 4 periods to 32 cells a period, P from 1e-9 to 1e3 m,
    the left edge from 2 P right of x = 0 to 2 P beyond the span left of it."""
    n = draw(st.integers(160, 4096))
    period = 10.0 ** draw(st.floats(-9.0, 3.0))
    span = period * draw(st.floats(4.01, (n - 1) / (2.0 * HISTOGRAM_REBIN) - 0.01))
    x_min = period * draw(st.floats(-2.0, 2.0)) - span * draw(st.floats(0.0, 1.0))
    return Grid(x_min, x_min + span, n), period, period * draw(st.floats(1.0, 100.0))


EDGE_DX = 6.0 * PERIOD / 1023


@settings(max_examples=300, deadline=None)
@given(screens())
# the first cell is within one period of x = 0, but the centre of the first 16 cells is not
@example((Grid(PERIOD - 2.0 * EDGE_DX, PERIOD - 2.0 * EDGE_DX + 6.0 * PERIOD, 1024), PERIOD, ENVELOPE))
@example((screen(), PERIOD, ENVELOPE))
def test_the_central_window_holds_the_cells_within_one_period_of_the_axis(screen_optics):
    # the window is the run of cells that |centre| <= P picks, read cell by
    # cell and merged, on off-axis and asymmetric screens; a screen with no
    # such cell is refused
    grid, period, width = screen_optics
    x, keep = grid.positions, grid.n // HISTOGRAM_REBIN * HISTOGRAM_REBIN
    masks = {rebin: (-period <= centers) & (centers <= period)
             for rebin, centers in ((1, x), (HISTOGRAM_REBIN, x[:keep].reshape(-1, HISTOGRAM_REBIN).mean(axis=1)))}
    if not all(mask.any() for mask in masks.values()):
        with pytest.raises(ValidationError) as refused:
            ScreenOptics(grid, period, width)
        assert str(refused.value) == f"the screen has no cell within one fringe period ({period!r} m) of x = 0"
        return
    optics = ScreenOptics(grid, period, width)
    for rebin, mask in masks.items():
        window, central_envelope = optics.central[rebin]
        assert isinstance(window, slice)
        assert np.array_equal(np.arange(grid.n)[window], np.flatnonzero(np.repeat(mask, rebin)))
        assert len(central_envelope) == mask.sum() and not central_envelope.flags.writeable


def test_pattern_carries_its_period_and_phase_shift_round_trips():
    pattern = pattern_at(0.8)
    assert pattern.optics.period == pytest.approx(PERIOD, rel=1e-15)
    assert phase_shift(CONSTANTS, flux_for_phase(0.8)) == pytest.approx(0.8, rel=1e-12)
