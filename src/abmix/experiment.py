"""Seeded Monte Carlo detection experiment for the two-solenoid mixture.

Each simulated electron first draws its branch (probability |c_k|^2),
then draws its detection cell from the two-slit pattern synthesized at
that branch's phase difference: the position uniform q lands in the cell
i with cdf[i] <= q < cdf[i+1] of the pattern's CDF.  Only per-cell counts
are kept, never positions.  The generator is numpy's PCG64; per electron
the branch uniform is consumed first and the position uniform second.
Draws run in fixed chunks of DRAW_CHUNK electrons taken in order from the
same stream, which yields the same uniforms as one draw of all of them,
so memory is independent of n_electrons.  Derived streams get fixed
entropy tuples, each read in order under its own lock, by either thread:

    (seed, 0)      branch and position draws
    (seed, 1, 1)   bootstrap of the branch-1 shift estimate
    (seed, 1, 2)   bootstrap of the branch-2 shift estimate
    (seed, 1, 0)   bootstrap of the pooled-pattern shift estimate

The calling thread and one worker take each phase's tasks from one list
(`_share`): one per draw chunk of the first stream, then one per
resample block of the bootstrap streams, interleaved.  A block's
position in its stream is taken under the stream's lock with its draw,
and every result lands by that position: detection counts are summed as
integers, and bootstrap shifts are joined in block order.  So a report
is reproducible bit for bit from (configuration, seed), on any number of
CPUs and whichever thread draws which block.  A bootstrap draws its
resamples a block at a time, `rng.multinomial(n, p, size=k)`, which is
k successive draws from its stream.

The report carries both views of the outcome statistics: the
branch-separated estimates (which recover the two-point law, shifts of
+epsilon and -epsilon) and the pooled estimates a branch-blind detector
would see (mean shift compatible with zero, visibility reduced to
|cos delta|).  The pooled histogram is the sum of the two branch
histograms.  One shift estimator, bound to the phase-0 reference
pattern, estimates the three count rows as one block, and one floor
rule holds for them and for every bootstrap resample: a row is measured,
and only then bootstrapped, when its visibility is above VISIBILITY_FLOOR.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import Grid
from .dual import BranchAmplitudes, DualSolenoidConfig, MixtureOutcome, outcome_distribution
from .errors import ValidationError
from .pattern import (
    VISIBILITY_FLOOR,
    FringeEstimate,
    IntensityPattern,
    ShiftEstimator,
    detection_counts,
    shift_estimator,
    two_slit_pattern,
    visibility,
)

BOOTSTRAP_DEFAULT = 200

DRAW_CHUNK = 1 << 17   # electrons drawn per chunk, one chunk in flight per thread; memory is
                       # bounded by this, not by n_electrons

BOOTSTRAP_BLOCK_CELLS = 1 << 15   # FFT cells per block of resamples: 4 rows of the default screen's 8192

RNG_ALGORITHM = f"numpy.random.PCG64 via default_rng, numpy {np.__version__}"

# how report_text renders a missing estimate
_UNESTIMATED = FringeEstimate(shift=math.nan, visibility=math.nan, uncertainty=math.nan)


@dataclass(frozen=True)
class BranchReport:
    """Per-branch tally and shift estimate (None when it could not be made)."""

    outcome: MixtureOutcome   # branch, |c_k|^2 and the closed-form phase and shift
    count: int
    estimate: FringeEstimate | None
    histogram: IntensityPattern | None


@dataclass(frozen=True)
class ExperimentReport:
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

    This thread and one worker count the detections and bootstrap the
    estimates (`_share`); as the module docstring sets out, the report is
    still a pure function of (config, seed).
    """
    if n_electrons < 1:
        raise ValidationError(f"need at least one electron, got {n_electrons!r}")
    if not (0 <= seed < 2**64):
        raise ValidationError(f"seed must be an unsigned 64-bit integer, got {seed!r}")

    outcomes = outcome_distribution(config, amplitudes)
    reference = two_slit_pattern(config.constants, config.geometry, 0.0, screen, envelope_width)
    estimator = shift_estimator(reference)

    counts = _count_detections(config, outcomes, n_electrons, seed, screen, envelope_width)
    pooled = replace(reference, intensity=counts[0] + counts[1], holds_counts=True)
    rows = np.vstack([counts, pooled.intensity]).astype(float)   # branch 1, branch 2, pooled
    shifts, visibilities = estimator.shifts(rows)
    measured = [k for k in range(3) if visibilities[k] > VISIBILITY_FLOOR]   # an empty row has contrast 0
    entropies = [(seed, 1, outcome.branch) for outcome in outcomes] + [(seed, 1, 0)]
    sigmas = _bootstrap_sigma(rows[measured], estimator, [entropies[k] for k in measured], n_bootstrap)
    estimates: list[FringeEstimate | None] = [None, None, None]
    for k, sigma in zip(measured, sigmas):
        estimates[k] = FringeEstimate(float(shifts[k]), float(visibilities[k]), sigma)
    histograms = [
        replace(reference, intensity=branch_counts, holds_counts=True) if branch_counts.any() else None
        for branch_counts in counts
    ]
    branch_reports = [
        BranchReport(outcome, int(branch_counts.sum()), estimate, histogram)
        for outcome, branch_counts, estimate, histogram in zip(outcomes, counts, estimates, histograms)
    ]
    mean_shift, mean_sigma = _weighted_mean_shift(branch_reports, n_electrons)

    return ExperimentReport(
        branch1=branch_reports[0],
        branch2=branch_reports[1],
        pooled_histogram=pooled,
        pooled_estimate=estimates[2],
        pooled_visibility=visibility(pooled),
        mean_shift=mean_shift,
        mean_shift_sigma=mean_sigma,
        config_echo=_config_echo(
            config, amplitudes, n_electrons, seed, screen, envelope_width, n_bootstrap
        ),
    )


class _Stream:
    """A random stream read in order under its own lock, by either thread."""

    def __init__(self, entropy: tuple[int, ...], length: int, block: int):
        self._rng = np.random.default_rng(np.random.SeedSequence(entropy))
        self._lock = threading.Lock()
        self._length, self._block, self._next = length, block, 0

    def take(self, draw: Callable[[np.random.Generator, int], np.ndarray]) -> tuple[int, np.ndarray]:
        """`(start, draw(rng, size))` for the next block of at most `block`
        of the stream's `length` draws, the position and the draw both taken
        under the lock.  The caller takes each of the
        ceil(length / block) blocks once."""
        with self._lock:
            start = self._next
            size = min(self._block, self._length - start)
            self._next = start + size
            return start, draw(self._rng, size)


def _share(tasks: Sequence[int], work: Callable[[int, int], None]) -> None:
    """Call `work(slot, task)` once per task, on this thread (slot 0) and,
    when there are at least 2 tasks, on one worker thread (slot 1).

    Both threads take the tasks from one list in order under one lock; a
    task works outside that lock, possibly into results of its own slot.
    This thread works the first task before the worker starts.  A failure
    on either thread, KeyboardInterrupt included, stops the other before
    its next task and is raised here, once.
    """
    pending, lock = iter(tasks), threading.Lock()
    stop = threading.Event()
    worker_errors: list[BaseException] = []

    def run(slot: int) -> None:
        try:
            while not stop.is_set():
                with lock:
                    task = next(pending, None)
                if task is None:
                    return
                work(slot, task)
        except BaseException:
            stop.set()
            raise

    def run_worker() -> None:
        try:
            run(1)
        except BaseException as exc:   # raised again below, on this thread
            worker_errors.append(exc)

    if len(tasks) < 2:
        run(0)
        return
    work(0, next(pending))
    worker = threading.Thread(target=run_worker, name="abmix-worker")
    worker.start()
    try:
        run(0)
    finally:
        # every task is taken once run returns, so this cuts the worker short only after a failure
        stop.set()
        worker.join()
    if worker_errors:
        raise worker_errors[0]


def _count_detections(
    config: DualSolenoidConfig,
    outcomes: tuple[MixtureOutcome, MixtureOutcome],
    n_electrons: int,
    seed: int,
    screen: Grid,
    envelope_width: float,
) -> np.ndarray:
    """(2, screen.n) int64 detection counts of the two branches, drawn from
    the (seed, 0) stream DRAW_CHUNK electrons at a time, one task per chunk;
    each thread adds the chunks it draws into counts of its own."""
    stream = _Stream((seed, 0), n_electrons, DRAW_CHUNK)
    counts = np.zeros((2, 2, screen.n), dtype=np.int64)   # by thread slot, then branch
    # a branch's pattern is built at its first detection: a branch of weight 0
    # may carry a phase no pattern can show, such as inf
    patterns: list[IntensityPattern | None] = [None, None]
    patterns_lock = threading.Lock()

    def pattern(k: int) -> IntensityPattern:
        with patterns_lock:
            if patterns[k] is None:
                patterns[k] = two_slit_pattern(
                    config.constants, config.geometry, outcomes[k].phase, screen, envelope_width
                )
            return patterns[k]

    def count(slot: int, _chunk: int) -> None:
        _, uniforms = stream.take(lambda rng, size: rng.random((size, 2)))
        in_branch1 = uniforms[:, 0] < outcomes[0].probability
        # compress on a contiguous copy splits twice as fast as a boolean index of the column
        position_uniforms = np.ascontiguousarray(uniforms[:, 1])
        del uniforms
        for k, mask in enumerate((in_branch1, ~in_branch1)):
            quantiles = np.compress(mask, position_uniforms)
            if quantiles.size > 0:
                counts[slot, k] += detection_counts(pattern(k), quantiles)

    _share(range(-(-n_electrons // DRAW_CHUNK)), count)
    return counts[0] + counts[1]


def _bootstrap_sigma(
    rows: np.ndarray,
    estimator: ShiftEstimator,
    entropies: list[tuple[int, ...]],
    n_bootstrap: int,
) -> list[float]:
    """Std dev of the shift estimate over n_bootstrap multinomial resamples
    of each row of detection counts, each of as many detections as the row
    holds.  A resample is kept by the rule the point estimates follow, a
    visibility above VISIBILITY_FLOOR; with fewer than 2 kept the std dev
    is nan.

    Row i is resampled from the stream of entropies[i],
    BOOTSTRAP_BLOCK_CELLS // nfft (at least 1) resamples at a time.  The
    blocks of all streams, interleaved, are one task list for this thread
    and one worker (`_share`); each block's shifts are kept by its start in
    its stream and joined in stream order.
    """
    block = max(1, BOOTSTRAP_BLOCK_CELLS // estimator.nfft)
    resampled = {}   # row index -> (stream, detections, cell probabilities)
    for i, (row, entropy) in enumerate(zip(rows, entropies)):
        n_samples = int(row.sum())
        if n_bootstrap >= 2 and n_samples >= 2:
            resampled[i] = (_Stream(entropy, n_bootstrap, block), n_samples, row / row.sum())
    kept = {}   # (row index, block start) -> the block's kept shifts

    def resample(slot: int, i: int) -> None:
        stream, n_samples, probabilities = resampled[i]
        start, resamples = stream.take(
            lambda rng, size: rng.multinomial(n_samples, probabilities, size=size)
        )
        shifts, visibilities = estimator.shifts(resamples.astype(float))
        kept[i, start] = shifts[visibilities > VISIBILITY_FLOOR]

    _share([i for _ in range(0, n_bootstrap, block) for i in resampled], resample)   # streams interleaved

    def sigma(i: int) -> float:
        if i not in resampled:
            return float("nan")
        shifts = np.concatenate([kept[i, start] for start in range(0, n_bootstrap, block)])
        return float(np.std(shifts, ddof=1)) if len(shifts) >= 2 else float("nan")

    return [sigma(i) for i in range(len(rows))]


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
        prefix = f"branch{r.outcome.branch}"
        lines.append(f"{prefix}.count = {r.count}")
        lines.append(f"{prefix}.probability = {r.outcome.probability!r}")
        lines.append(f"{prefix}.predicted_phase_rad = {r.outcome.phase!r}")
        lines.append(f"{prefix}.predicted_shift_m = {r.outcome.shift!r}")
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
