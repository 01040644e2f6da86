"""Seeded Monte Carlo detection experiment for the two-solenoid mixture.

Each simulated electron first draws its branch (probability |c_k|^2),
then draws a detection position from the two-slit pattern synthesized at
that branch's phase difference.  The generator is numpy's PCG64; per
electron the branch uniform is consumed first and the position uniform
second, and derived streams get fixed entropy tuples:

    (seed, 0)      branch and position draws
    (seed, 1, 1)   bootstrap of the branch-1 shift estimate
    (seed, 1, 2)   bootstrap of the branch-2 shift estimate
    (seed, 1, 0)   bootstrap of the pooled-pattern shift estimate

so a report is reproducible bit for bit from (configuration, seed).

The report carries both views of the outcome statistics: the
branch-separated estimates (which recover the two-point law, shifts of
+epsilon and -epsilon) and the pooled estimates a branch-blind detector
would see (mean shift compatible with zero, visibility reduced to
|cos delta|).  The pooled histogram is the sum of the two branch
histograms, and all three are measured by one shift estimator bound to
the phase-0 reference pattern.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import Grid
from .dual import BranchAmplitudes, DualSolenoidConfig, outcome_distribution
from .errors import UnmeasurableShiftError, ValidationError
from .pattern import (
    FringeEstimate,
    IntensityPattern,
    histogram_pattern,
    inverse_cdf_positions,
    shift_estimator,
    two_slit_pattern,
    visibility,
)

BOOTSTRAP_DEFAULT = 200

RNG_ALGORITHM = f"numpy.random.PCG64 via default_rng, numpy {np.__version__}"

# how report_text renders a missing estimate
_UNESTIMATED = FringeEstimate(shift=math.nan, visibility=math.nan, uncertainty=math.nan)


@dataclass(frozen=True)
class BranchReport:
    """Per-branch tally and shift estimate (None when it could not be made)."""

    branch: int
    probability: float      # |c_k|^2
    predicted_phase: float  # rad, closed form
    predicted_shift: float  # m, closed form
    count: int
    estimate: FringeEstimate | None
    histogram: IntensityPattern | None


@dataclass(frozen=True)
class ExperimentReport:
    seed: int
    n_electrons: int
    branch1: BranchReport
    branch2: BranchReport
    pooled_histogram: IntensityPattern   # branch1 + branch2 histograms
    pooled_estimate: FringeEstimate | None   # None when unmeasurable
    pooled_visibility: float
    mean_shift: float              # sum of count/n * branch shift estimate, m
    mean_shift_sigma: float        # propagated 1-sigma on mean_shift, m
    config_echo: tuple[tuple[str, str], ...]


def run_experiment(
    config: DualSolenoidConfig,
    amplitudes: BranchAmplitudes,
    n_electrons: int,
    seed: int,
    screen: Grid,
    envelope_width: float,
    n_bootstrap: int = BOOTSTRAP_DEFAULT,
) -> ExperimentReport:
    """Simulate n_electrons detections and estimate the shifts back.

    Reference behavior is single-threaded and sequential; the documented
    draw order makes the whole report a pure function of (config, seed).
    """
    if n_electrons < 1:
        raise ValidationError(f"need at least one electron, got {n_electrons!r}")
    if not (0 <= seed < 2**64):
        raise ValidationError(f"seed must be an unsigned 64-bit integer, got {seed!r}")

    outcomes = outcome_distribution(config, amplitudes)
    reference = two_slit_pattern(config.constants, config.geometry, 0.0, screen, envelope_width)
    estimator = shift_estimator(reference)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    uniforms = rng.random((n_electrons, 2))
    in_branch1 = uniforms[:, 0] < outcomes[0].probability
    branch_reports = []
    for outcome, mask in zip(outcomes, (in_branch1, ~in_branch1)):
        count = int(np.count_nonzero(mask))
        histogram = estimate = None
        if count > 0:
            pattern = two_slit_pattern(
                config.constants, config.geometry, outcome.phase, screen, envelope_width
            )
            histogram = histogram_pattern(inverse_cdf_positions(pattern, uniforms[mask, 1]), reference)
            estimate = _measure(histogram, count, estimator, (seed, 1, outcome.branch), n_bootstrap)
        branch_reports.append(BranchReport(
            branch=outcome.branch, probability=outcome.probability, predicted_phase=outcome.phase,
            predicted_shift=outcome.shift, count=count, estimate=estimate, histogram=histogram,
        ))

    # counts are integers binned on the same edges, so the sum is exact
    counts = sum(r.histogram.intensity for r in branch_reports if r.histogram is not None)
    pooled = replace(reference, intensity=counts, holds_counts=True)
    mean_shift, mean_sigma = _weighted_mean_shift(branch_reports, n_electrons)

    return ExperimentReport(
        seed=seed,
        n_electrons=n_electrons,
        branch1=branch_reports[0],
        branch2=branch_reports[1],
        pooled_histogram=pooled,
        pooled_estimate=_measure(pooled, n_electrons, estimator, (seed, 1, 0), n_bootstrap),
        pooled_visibility=visibility(pooled),
        mean_shift=mean_shift,
        mean_shift_sigma=mean_sigma,
        config_echo=_config_echo(
            config, amplitudes, n_electrons, seed, screen, envelope_width, n_bootstrap
        ),
    )


def _measure(
    histogram: IntensityPattern,
    count: int,
    estimator: Callable[[IntensityPattern], FringeEstimate],
    entropy: tuple[int, ...],
    n_bootstrap: int,
) -> FringeEstimate | None:
    """Shift estimate of a histogram of `count` detections with its bootstrap
    1-sigma, or None when the histogram's fringes are washed out."""
    try:
        point = estimator(histogram)
    except UnmeasurableShiftError:
        return None
    sigma = _bootstrap_sigma(histogram, count, estimator, entropy, n_bootstrap)
    return replace(point, uncertainty=sigma)


def _bootstrap_sigma(
    histogram: IntensityPattern,
    n_samples: int,
    estimator: Callable[[IntensityPattern], FringeEstimate],
    entropy: tuple[int, ...],
    n_bootstrap: int,
) -> float:
    """Std dev of the shift estimate over multinomial histogram resamples."""
    if n_bootstrap < 2 or n_samples < 2:
        return float("nan")
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    probabilities = histogram.intensity / histogram.intensity.sum()
    shifts = []
    for _ in range(n_bootstrap):
        counts = rng.multinomial(n_samples, probabilities).astype(float)
        try:
            shifts.append(estimator(replace(histogram, intensity=counts)).shift)
        except UnmeasurableShiftError:
            continue
    if len(shifts) < 2:
        return float("nan")
    return float(np.std(shifts, ddof=1))


def _weighted_mean_shift(reports: list[BranchReport], n: int) -> tuple[float, float]:
    """Empirical-frequency weighted mean of the branch shift estimates.

    The 1-sigma combines the per-branch bootstrap uncertainties with the
    binomial uncertainty of the branch frequencies (delta method).  A
    branch without detections has weight 0; a branch with detections but
    no estimate leaves the mean undefined, so both values are nan.  A
    branch with detections but no finite bootstrap 1-sigma leaves the
    1-sigma undefined (nan).
    """
    if any(r.count > 0 and r.estimate is None for r in reports):
        return float("nan"), float("nan")
    fractions = [r.count / n for r in reports]
    shifts = [r.estimate.shift if r.estimate is not None else 0.0 for r in reports]
    sigmas = [r.estimate.uncertainty if r.estimate is not None else 0.0 for r in reports]
    mean = sum(f * s for f, s in zip(fractions, shifts))
    if not all(math.isfinite(sigma) for sigma in sigmas):
        return mean, float("nan")
    variance = sum((f * s) ** 2 for f, s in zip(fractions, sigmas))
    variance += (shifts[0] - shifts[1]) ** 2 * fractions[0] * fractions[1] / n
    return mean, math.sqrt(variance)


def _config_echo(
    config: DualSolenoidConfig,
    amplitudes: BranchAmplitudes,
    n_electrons: int,
    seed: int,
    screen: Grid,
    envelope_width: float,
    n_bootstrap: int,
) -> tuple[tuple[str, str], ...]:
    c = config.constants
    g = config.geometry
    items = [
        ("constants.e_C", c.e),
        ("constants.m_kg", c.m),
        ("constants.hbar_Js", c.hbar),
        ("constants.h_Js", c.h),
        ("geometry.L_m", g.screen_distance),
        ("geometry.d_m", g.slit_separation),
        ("geometry.v_m_per_s", g.speed),
        ("solenoid1.B_T", config.solenoid1.field),
        ("solenoid1.R_m", config.solenoid1.radius),
        ("solenoid2.B_T", config.solenoid2.field),
        ("solenoid2.R_m", config.solenoid2.radius),
        ("amplitudes.c1_re", amplitudes.c1.real),
        ("amplitudes.c1_im", amplitudes.c1.imag),
        ("amplitudes.c2_re", amplitudes.c2.real),
        ("amplitudes.c2_im", amplitudes.c2.imag),
        ("screen.x_min_m", screen.x_min),
        ("screen.x_max_m", screen.x_max),
        ("screen.n", screen.n),
        ("envelope_width_m", envelope_width),
        ("n_electrons", n_electrons),
        ("seed", seed),
        ("n_bootstrap", n_bootstrap),
        ("rng", RNG_ALGORITHM),
        ("draw_order", "per electron: branch uniform, then position uniform"),
    ]
    return tuple((key, value if isinstance(value, str) else repr(value)) for key, value in items)


def report_text(report: ExperimentReport) -> str:
    """Flat key = value rendering of the report, fixed key order.

    Keys: the config echo block first (config.*), then per-branch counts,
    closed-form predictions and estimates, pooled statistics and the
    frequency-weighted mean.  Unavailable estimates render as nan.
    """
    lines = [f"config.{key} = {value}" for key, value in report.config_echo]
    for r in (report.branch1, report.branch2):
        prefix = f"branch{r.branch}"
        lines.append(f"{prefix}.count = {r.count}")
        lines.append(f"{prefix}.probability = {r.probability!r}")
        lines.append(f"{prefix}.predicted_phase_rad = {r.predicted_phase!r}")
        lines.append(f"{prefix}.predicted_shift_m = {r.predicted_shift!r}")
        estimate = r.estimate if r.estimate is not None else _UNESTIMATED
        lines.append(f"{prefix}.estimated_shift_m = {estimate.shift!r}")
        lines.append(f"{prefix}.estimated_shift_sigma_m = {estimate.uncertainty!r}")
        lines.append(f"{prefix}.visibility = {estimate.visibility!r}")
    pooled = report.pooled_estimate if report.pooled_estimate is not None else _UNESTIMATED
    lines.append(f"pooled.shift_m = {pooled.shift!r}")
    lines.append(f"pooled.shift_sigma_m = {pooled.uncertainty!r}")
    lines.append(f"pooled.visibility = {report.pooled_visibility!r}")
    lines.append(f"pooled.measurable = {str(report.pooled_estimate is not None).lower()}")
    lines.append(f"mean_shift_m = {report.mean_shift!r}")
    lines.append(f"mean_shift_sigma_m = {report.mean_shift_sigma!r}")
    return "\n".join(lines) + "\n"
