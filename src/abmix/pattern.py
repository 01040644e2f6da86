"""Detection-screen patterns: synthesis, mixing, sampling and estimation.

The far-field two-slit intensity with an inserted phase dphi is modeled
as

    I(x) = [1 + cos(2 pi x / P + dphi)] * exp(-x^2 / (2 w^2))

with P = lambda L / d the fringe period and w the Gaussian envelope
width.  The sign of the phase insertion is calibrated so the fringe
maximum nearest the axis sits at the closed-form translation dx
(tests pin this calibration).

A statistical mixture of two branches is realized on the screen as the
incoherent, intensity-level weighted sum of the branch patterns; the
wire-electron branches are orthogonal, so no cross term survives.
Mixing equal-weight patterns of phase +delta and -delta multiplies the
fringe contrast by |cos delta| while the envelope is unchanged.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import ApparatusGeometry, Grid, PhysicalConstants, fringe_period
from .dual import NORMALIZATION_TOL
from .errors import UnmeasurableShiftError, ValidationError

MIN_PERIODS = 4.0        # required screen span in fringe periods
VISIBILITY_FLOOR = 0.05  # below this the correlation peak is unreliable
HISTOGRAM_REBIN = 16     # cell merging for counts histograms


@dataclass(frozen=True)
class IntensityPattern:
    """Sampled non-negative screen intensity, usable as an unnormalized density.

    `period` and `envelope_width` are the fringe period and the Gaussian
    envelope width the estimator needs to undo the envelope; `holds_counts`
    marks a histogram of detections, whose extremes `visibility` reads
    after merging cells.
    """

    grid: Grid
    intensity: np.ndarray
    period: float            # m
    envelope_width: float    # m
    holds_counts: bool = False

    def __post_init__(self):
        _check_optics(self.period, self.envelope_width)
        intensity = np.asarray(self.intensity, dtype=float)
        intensity.flags.writeable = False
        object.__setattr__(self, "intensity", intensity)
        if intensity.shape != (self.grid.n,) or self.grid.n < 16:
            raise ValidationError(
                f"intensity must be 1-D with one value per cell of a grid of >= 16 cells, "
                f"got shape {intensity.shape} on {self.grid.n} cells"
            )
        if np.any(~np.isfinite(intensity)) or np.any(intensity < 0.0):
            raise ValidationError("intensities must be finite and non-negative")
        if not self.total > 0.0:
            raise ValidationError("pattern has zero mass, cannot serve as a density")

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def dx(self) -> float:
        return self.grid.dx

    @property
    def positions(self) -> np.ndarray:
        return self.grid.positions

    @property
    def total(self) -> float:
        """Unnormalized mass sum I dx."""
        return float(np.sum(self.intensity) * self.dx)


def _check_optics(period: float, envelope_width: float) -> None:
    """A pattern's fringe period and envelope width must be finite and positive."""
    for name, value in (("period", period), ("envelope_width", envelope_width)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValidationError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class FringeEstimate:
    shift: float         # m
    visibility: float    # in [0, 1]
    uncertainty: float   # m; 0 for noise-free synthesized patterns


def two_slit_pattern(
    constants: PhysicalConstants,
    geometry: ApparatusGeometry,
    phase: float,
    screen: Grid,
    envelope_width: float,
) -> IntensityPattern:
    """Synthesize the two-slit pattern with phase difference `phase` inserted.

    The screen must span at least four fringe periods and the Gaussian
    envelope width must be positive.
    """
    period = fringe_period(constants, geometry)
    _check_optics(period, envelope_width)
    if screen.span < MIN_PERIODS * period:
        raise ValidationError(
            f"screen span {screen.span!r} m is narrower than {MIN_PERIODS} fringe "
            f"periods ({MIN_PERIODS * period!r} m)"
        )
    x = screen.positions
    intensity = (1.0 + np.cos(2.0 * math.pi * x / period + phase)) * _envelope(x, envelope_width)
    return IntensityPattern(screen, intensity, period, envelope_width)


def _envelope(x: np.ndarray, width: float) -> np.ndarray:
    return np.exp(-(x**2) / (2.0 * width**2))


def mixture_pattern(
    p1: float, pattern1: IntensityPattern, p2: float, pattern2: IntensityPattern
) -> IntensityPattern:
    """Incoherent weighted sum p1 I1 + p2 I2 of two patterns on the same grid
    with the same fringe period and envelope width."""
    if pattern1.grid != pattern2.grid:
        raise ValidationError("mixture requires both patterns on the identical grid")
    if (pattern1.period, pattern1.envelope_width) != (pattern2.period, pattern2.envelope_width):
        raise ValidationError("mixture requires both patterns to share fringe period and envelope width")
    if not (p1 >= 0.0 and p2 >= 0.0 and abs(p1 + p2 - 1.0) <= NORMALIZATION_TOL):
        raise ValidationError(f"weights must be non-negative and sum to 1, got ({p1!r}, {p2!r})")
    return IntensityPattern(
        pattern1.grid,
        p1 * pattern1.intensity + p2 * pattern2.intensity,
        pattern1.period,
        pattern1.envelope_width,
    )


def visibility(pattern: IntensityPattern) -> float:
    """(I_max - I_min)/(I_max + I_min) of the envelope-normalized pattern
    over the central two fringe periods.

    A detection histogram (`holds_counts`) has every 16 adjacent cells
    merged first, so its extremes are not set by per-cell counting noise.
    """
    period = pattern.period
    x = pattern.positions
    intensity = pattern.intensity
    envelope = _envelope(x, pattern.envelope_width)
    if pattern.holds_counts:
        rebin = HISTOGRAM_REBIN
        keep = (pattern.n // rebin) * rebin
        intensity = intensity[:keep].reshape(-1, rebin).sum(axis=1)
        envelope = envelope[:keep].reshape(-1, rebin).sum(axis=1)
        x = x[:keep].reshape(-1, rebin).mean(axis=1)
    central = np.abs(x) <= period
    if not np.any(central):
        raise ValidationError(f"the screen has no cell within one fringe period ({period!r} m) of x = 0")
    profile = intensity[central] / envelope[central]
    hi, lo = float(np.max(profile)), float(np.min(profile))
    if hi + lo <= 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def _baseline_removed(pattern: IntensityPattern) -> np.ndarray:
    """Subtract the pattern's envelope baseline, leaving the fringe part.

    The baseline is the least-squares envelope multiple a*G(x): for a model
    pattern (1 + V cos)G this removes the non-oscillatory hump exactly,
    which would otherwise bias the correlation peak toward zero lag.
    """
    envelope = _envelope(pattern.positions, pattern.envelope_width)
    coefficient = float(np.dot(pattern.intensity, envelope) / np.dot(envelope, envelope))
    return pattern.intensity - coefficient * envelope


def shift_estimator(reference: IntensityPattern) -> Callable[[IntensityPattern], FringeEstimate]:
    """Estimator of fringe translations relative to `reference`, which is
    checked and transformed once; ValidationError if it has no usable contrast.

    `estimate(pattern)` is the argmax of the cross-correlation of the two
    baseline-removed patterns, refined by quadratic interpolation around
    the peak and clipped to half the grid span.  Shifts are resolved
    within half a fringe period; beyond that the nearest-period alias wins
    because the envelope weights it higher.  It raises
    UnmeasurableShiftError when the pattern's visibility is at or below
    0.05 (the physically washed-out regime) and ValidationError for a
    pattern on another grid.
    """
    reference_visibility = visibility(reference)
    if reference_visibility <= VISIBILITY_FLOOR:
        raise ValidationError(
            f"reference visibility {reference_visibility!r} is at or below {VISIBILITY_FLOOR}"
        )
    n = reference.n
    nfft = 1 << (2 * n - 2).bit_length()   # smallest power of 2 >= 2n - 1
    reference_spectrum = np.conj(np.fft.rfft(_baseline_removed(reference), nfft))
    half_span = 0.5 * (n - 1) * reference.dx

    def estimate(pattern: IntensityPattern) -> FringeEstimate:
        if pattern.grid != reference.grid:
            raise ValidationError("pattern and reference must share the identical grid")
        pattern_visibility = visibility(pattern)
        if pattern_visibility <= VISIBILITY_FLOOR:
            raise UnmeasurableShiftError(
                f"pattern visibility {pattern_visibility!r} is at or below {VISIBILITY_FLOOR}: "
                "the fringes are washed out and the shift is unmeasurable"
            )
        c = np.fft.irfft(np.fft.rfft(_baseline_removed(pattern), nfft) * reference_spectrum, nfft)
        correlation = np.concatenate([c[-(n - 1):], c[:n]])   # lags -(n-1) .. n-1
        peak = int(np.argmax(correlation))
        offset = 0.0
        if 0 < peak < correlation.size - 1:
            curvature = correlation[peak - 1] - 2.0 * correlation[peak] + correlation[peak + 1]
            if curvature != 0.0:
                offset = 0.5 * (correlation[peak - 1] - correlation[peak + 1]) / curvature
        shift = float(np.clip((peak - (n - 1) + offset) * pattern.dx, -half_span, half_span))
        return FringeEstimate(shift=shift, visibility=pattern_visibility, uncertainty=0.0)

    return estimate


def estimate_shift(pattern: IntensityPattern, reference: IntensityPattern) -> FringeEstimate:
    """Fringe translation of `pattern` relative to `reference`, by a one-off estimator."""
    return shift_estimator(reference)(pattern)


def inverse_cdf_positions(pattern: IntensityPattern, quantiles: np.ndarray) -> np.ndarray:
    """Map uniform quantiles to screen positions through the pattern's CDF.

    The pattern is read as a histogram density, constant on each cell
    [x_i - dx/2, x_i + dx/2), so the cumulative sum is piecewise linear
    and inversion is exact.
    """
    weights = pattern.intensity
    cdf = np.concatenate([[0.0], np.cumsum(weights)])
    cdf /= cdf[-1]
    cells = np.clip(np.searchsorted(cdf, quantiles, side="right") - 1, 0, pattern.n - 1)
    width = np.maximum(cdf[cells + 1] - cdf[cells], np.finfo(float).tiny)
    fraction = np.clip((quantiles - cdf[cells]) / width, 0.0, 1.0)
    left_edges = pattern.grid.x_min - 0.5 * pattern.dx + pattern.dx * cells
    return left_edges + fraction * pattern.dx


def histogram_pattern(samples: np.ndarray, reference: IntensityPattern) -> IntensityPattern:
    """Bin detection positions onto the cells of `reference`'s grid, as a
    counts pattern with the reference's fringe period and envelope width."""
    grid = reference.grid
    edges = np.concatenate([grid.positions - 0.5 * grid.dx, [grid.x_max + 0.5 * grid.dx]])
    counts, _ = np.histogram(np.asarray(samples, dtype=float), bins=edges)
    return IntensityPattern(
        grid, counts.astype(float), reference.period, reference.envelope_width, holds_counts=True
    )


def csv_table(header: str, *columns: np.ndarray) -> str:
    """CSV text: the header row, then one row per sample of the equal-length
    columns, each value written as the repr of a Python float."""
    rows = zip(*(map(repr, np.asarray(column, dtype=float).tolist()) for column in columns))
    return "\n".join([header, *map(",".join, rows), ""])


def pattern_csv(pattern: IntensityPattern, value_column: str = "intensity") -> str:
    """CSV text for a pattern: header row, columns x_m and `value_column`."""
    return csv_table(f"x_m,{value_column}", pattern.positions, pattern.intensity)
