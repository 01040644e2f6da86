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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import ApparatusGeometry, PhysicalConstants, fringe_period
from .dual import NORMALIZATION_TOL
from .errors import UnmeasurableShiftError, ValidationError

MIN_PERIODS = 4.0        # required screen span in fringe periods
VISIBILITY_FLOOR = 0.05  # below this the correlation peak is unreliable
HISTOGRAM_REBIN = 16     # default cell merging for counts histograms


@dataclass(frozen=True)
class ScreenGrid:
    """Uniform detector grid of n sample positions from x_min to x_max."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max) and self.x_max > self.x_min):
            raise ValidationError(f"need x_max > x_min, got [{self.x_min!r}, {self.x_max!r}]")
        if self.n < 16:
            raise ValidationError(f"screen grid needs at least 16 samples, got {self.n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def positions(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @property
    def span(self) -> float:
        return self.x_max - self.x_min


@dataclass(frozen=True)
class IntensityPattern:
    """Sampled non-negative screen intensity, usable as an unnormalized density.

    `metadata` carries what the estimator needs to undo the envelope:
    fringe_period_m and envelope_width_m, plus a free-form description of
    how the pattern was generated.
    """

    x0: float
    dx: float
    intensity: np.ndarray
    metadata: Mapping[str, object]

    def __post_init__(self):
        intensity = np.asarray(self.intensity, dtype=float)
        intensity.flags.writeable = False
        object.__setattr__(self, "intensity", intensity)
        if intensity.ndim != 1 or intensity.size < 16:
            raise ValidationError(f"intensity must be 1-D with >= 16 samples, got shape {intensity.shape}")
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise ValidationError(f"dx must be finite and positive, got {self.dx!r}")
        if np.any(~np.isfinite(intensity)) or np.any(intensity < 0.0):
            raise ValidationError("intensities must be finite and non-negative")
        if not self.total > 0.0:
            raise ValidationError("pattern has zero mass, cannot serve as a density")

    @property
    def n(self) -> int:
        return self.intensity.size

    @property
    def positions(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def total(self) -> float:
        """Unnormalized mass sum I dx."""
        return float(np.sum(self.intensity) * self.dx)

    def same_grid(self, other: "IntensityPattern") -> bool:
        return self.x0 == other.x0 and self.dx == other.dx and self.n == other.n


@dataclass(frozen=True)
class FringeEstimate:
    shift: float         # m
    visibility: float    # in [0, 1]
    uncertainty: float   # m; 0 for noise-free synthesized patterns


def two_slit_pattern(
    constants: PhysicalConstants,
    geometry: ApparatusGeometry,
    phase: float,
    screen: ScreenGrid,
    envelope_width: float,
) -> IntensityPattern:
    """Synthesize the two-slit pattern with phase difference `phase` inserted.

    The screen must span at least four fringe periods and the Gaussian
    envelope width must be positive.
    """
    if not (envelope_width > 0.0 and math.isfinite(envelope_width)):
        raise ValidationError(f"envelope width must be positive, got {envelope_width!r}")
    period = fringe_period(constants, geometry)
    if screen.span < MIN_PERIODS * period:
        raise ValidationError(
            f"screen span {screen.span!r} m is narrower than {MIN_PERIODS} fringe "
            f"periods ({MIN_PERIODS * period!r} m)"
        )
    x = screen.positions
    intensity = (1.0 + np.cos(2.0 * math.pi * x / period + phase)) * _envelope(x, envelope_width)
    return IntensityPattern(
        x0=screen.x_min,
        dx=screen.dx,
        intensity=intensity,
        metadata={
            "kind": "two_slit",
            "phase_rad": float(phase),
            "fringe_period_m": period,
            "envelope_width_m": float(envelope_width),
        },
    )


def _envelope(x: np.ndarray, width: float) -> np.ndarray:
    return np.exp(-(x**2) / (2.0 * width**2))


def mixture_pattern(
    p1: float, pattern1: IntensityPattern, p2: float, pattern2: IntensityPattern
) -> IntensityPattern:
    """Incoherent weighted sum p1 I1 + p2 I2 of two same-grid patterns."""
    if not pattern1.same_grid(pattern2):
        raise ValidationError("mixture requires both patterns on the identical grid")
    if not (p1 >= 0.0 and p2 >= 0.0 and abs(p1 + p2 - 1.0) <= NORMALIZATION_TOL):
        raise ValidationError(f"weights must be non-negative and sum to 1, got ({p1!r}, {p2!r})")
    metadata = {
        "kind": "mixture",
        "weights": (float(p1), float(p2)),
        "components": (dict(pattern1.metadata), dict(pattern2.metadata)),
    }
    for key in ("fringe_period_m", "envelope_width_m"):
        if pattern1.metadata.get(key) == pattern2.metadata.get(key) and key in pattern1.metadata:
            metadata[key] = pattern1.metadata[key]
    return IntensityPattern(
        x0=pattern1.x0,
        dx=pattern1.dx,
        intensity=p1 * pattern1.intensity + p2 * pattern2.intensity,
        metadata=metadata,
    )


def _grid_metadata(pattern: IntensityPattern) -> tuple[float, float]:
    try:
        period = float(pattern.metadata["fringe_period_m"])
        width = float(pattern.metadata["envelope_width_m"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            "pattern metadata must carry fringe_period_m and envelope_width_m"
        ) from exc
    return period, width


def visibility(pattern: IntensityPattern, rebin: int | None = None) -> float:
    """(I_max - I_min)/(I_max + I_min) of the envelope-normalized pattern
    over the central two fringe periods.

    `rebin` > 1 merges that many adjacent cells first so the extremes of a
    noisy detection histogram are not set by per-cell counting noise.  By
    default synthesized patterns are not rebinned and patterns of kind
    "histogram" are rebinned by 16 cells.
    """
    if rebin is None:
        rebin = HISTOGRAM_REBIN if pattern.metadata.get("kind") == "histogram" else 1
    period, width = _grid_metadata(pattern)
    x = pattern.positions
    intensity = pattern.intensity
    envelope = _envelope(x, width)
    if rebin > 1:
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
    _, width = _grid_metadata(pattern)
    envelope = _envelope(pattern.positions, width)
    coefficient = float(np.dot(pattern.intensity, envelope) / np.dot(envelope, envelope))
    return pattern.intensity - coefficient * envelope


def _cross_correlate_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """FFT cross-correlation, identical to np.correlate(a, b, 'full')."""
    n = a.size
    nfft = 1
    while nfft < 2 * n - 1:
        nfft *= 2
    spectrum = np.fft.rfft(a, nfft) * np.conj(np.fft.rfft(b, nfft))
    c = np.fft.irfft(spectrum, nfft)
    return np.concatenate([c[-(n - 1):], c[:n]])


def estimate_shift(pattern: IntensityPattern, reference: IntensityPattern) -> FringeEstimate:
    """Estimate the fringe translation of `pattern` relative to `reference`.

    The shift is the argmax of the cross-correlation of the two
    baseline-removed patterns, refined by quadratic interpolation around
    the peak and clipped to half the grid span.  Shifts are resolved
    within half a fringe period; beyond that the nearest-period alias
    wins because the envelope weights it higher.

    Raises UnmeasurableShiftError when the pattern's visibility is at or
    below 0.05 (the physically washed-out regime) and ValidationError
    when the reference itself has no usable contrast.
    """
    if not pattern.same_grid(reference):
        raise ValidationError("pattern and reference must share the identical grid")
    reference_visibility = visibility(reference)
    if reference_visibility <= VISIBILITY_FLOOR:
        raise ValidationError(
            f"reference visibility {reference_visibility!r} is at or below {VISIBILITY_FLOOR}"
        )
    pattern_visibility = visibility(pattern)
    if pattern_visibility <= VISIBILITY_FLOOR:
        raise UnmeasurableShiftError(
            f"pattern visibility {pattern_visibility!r} is at or below {VISIBILITY_FLOOR}: "
            "the fringes are washed out and the shift is unmeasurable"
        )
    correlation = _cross_correlate_full(_baseline_removed(pattern), _baseline_removed(reference))
    peak = int(np.argmax(correlation))
    offset = 0.0
    if 0 < peak < correlation.size - 1:
        curvature = correlation[peak - 1] - 2.0 * correlation[peak] + correlation[peak + 1]
        if curvature != 0.0:
            offset = 0.5 * (correlation[peak - 1] - correlation[peak + 1]) / curvature
    shift = (peak - (pattern.n - 1) + offset) * pattern.dx
    half_span = 0.5 * (pattern.n - 1) * pattern.dx
    shift = float(np.clip(shift, -half_span, half_span))
    return FringeEstimate(shift=shift, visibility=pattern_visibility, uncertainty=0.0)


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
    left_edges = pattern.x0 - 0.5 * pattern.dx + pattern.dx * cells
    return left_edges + fraction * pattern.dx


def sample_detections(pattern: IntensityPattern, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. detection positions from the normalized pattern.

    Sampling inverts the piecewise-linear cumulative sum of the pattern;
    the generator is numpy's default PCG64 seeded with `seed`, so results
    are reproducible bit for bit.
    """
    if n < 1:
        raise ValidationError(f"need at least one detection, got n={n!r}")
    rng = np.random.default_rng(seed)
    return inverse_cdf_positions(pattern, rng.random(n))


def histogram_pattern(
    samples: np.ndarray, screen: ScreenGrid, metadata: Mapping[str, object]
) -> IntensityPattern:
    """Bin detection positions onto the screen cells as an IntensityPattern."""
    edges = np.concatenate([screen.positions - 0.5 * screen.dx, [screen.x_max + 0.5 * screen.dx]])
    counts, _ = np.histogram(np.asarray(samples, dtype=float), bins=edges)
    merged = {"kind": "histogram", "n_samples": int(np.size(samples))}
    merged.update(metadata)
    return IntensityPattern(x0=screen.x_min, dx=screen.dx, intensity=counts.astype(float), metadata=merged)


def csv_table(header: str, *columns: np.ndarray) -> str:
    """CSV text: the header row, then one row per sample of the equal-length
    columns, each value written as the repr of a Python float."""
    rows = zip(*(map(repr, np.asarray(column, dtype=float).tolist()) for column in columns))
    return "\n".join([header, *map(",".join, rows), ""])


def pattern_csv(pattern: IntensityPattern, value_column: str = "intensity") -> str:
    """CSV text for a pattern: header row, columns x_m and `value_column`."""
    return csv_table(f"x_m,{value_column}", pattern.positions, pattern.intensity)
