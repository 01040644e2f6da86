"""Seeded Monte Carlo detection experiment for the two-solenoid mixture.

Each simulated electron first draws its branch (probability |c_k|^2),
then draws its detection cell from the two-slit pattern synthesized at
that branch's phase difference: the position uniform q lands in the cell
i with cdf[i] <= q < cdf[i+1] of the pattern's CDF.  Only per-cell counts
are kept, never positions.  The generator is numpy's PCG64; per electron
the branch uniform is consumed first and the position uniform second;
a branch uniform below p1 = |c1|^2 picks branch 1.  Before the first
draw, the calling thread builds both branch patterns, whatever the weights.
Draws run in fixed chunks of DRAW_CHUNK electrons taken in order from the
same stream, which yields the same uniforms as one draw of all of them,
so memory is independent of n_electrons.  Derived streams get fixed
entropy tuples, each read in order under its own lock, by either thread:

    (seed, 0)      branch and position draws
    (seed, 1, 1)   bootstrap of the branch-1 shift estimate
    (seed, 1, 2)   bootstrap of the branch-2 shift estimate
    (seed, 1, 0)   bootstrap of the pooled-pattern shift estimate

The calling thread and one worker, started before either takes a task,
take each phase's tasks from one list (`_share`): one per draw chunk of
the first stream, then one per resample block of the bootstrap streams,
interleaved.  A block's position in its stream is taken under the
stream's lock with its draw, and every result lands by that position:
detection counts are summed as integers, and bootstrap shifts are
written at their place in their stream.  So a report is reproducible bit
for bit from (configuration, seed), on any number of CPUs and whichever
thread draws which block.  A bootstrap draws its resamples a block at a
time, `rng.multinomial(n, p, size=k)`, which is k successive draws from
its stream.

The report carries both views of the outcome statistics: the
branch-separated estimates (which recover the two-point law, shifts of
+epsilon and -epsilon) and the pooled estimates a branch-blind detector
would see (mean shift compatible with zero, visibility reduced to
|cos delta|).  The pooled histogram is the sum of the two branch
histograms.  One shift estimator, bound to the phase-0 reference
pattern, estimates the three count rows as one block.  Its `shifts` is
the one home of the floor rule: it returns nan as the shift of a row it
does not measure, count row or bootstrap resample, and a count row is
bootstrapped only when its shift is not nan; an unmeasured row's estimate
has a nan shift and 1-sigma beside the visibility it was judged by.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import fringe_period, is_integer
from .dual import BranchAmplitudes, DualSolenoidConfig, MixtureOutcome, outcome_distribution
from .errors import ValidationError
from .pattern import (FringeEstimate, IntensityPattern, ScreenOptics, ShiftEstimator, detection_counts,
                      shift_estimator, two_slit_pattern)

BOOTSTRAP_DEFAULT = 200

DRAW_CHUNK = 1 << 17   # electrons drawn per chunk, one chunk in flight per thread; memory is
                       # bounded by this, not by n_electrons

BOOTSTRAP_BLOCK_CELLS = 1 << 15   # FFT cells per block of resamples: 4 rows of the default screen's 8192

RNG_ALGORITHM = f"numpy.random.PCG64 via default_rng, numpy {np.__version__}"

DRAW_ORDER = "per electron: branch uniform, then position uniform"


@dataclass(frozen=True)
class BranchReport:
    """Per-branch tally and shift estimate (a nan shift when not measured)."""

    outcome: MixtureOutcome   # branch, |c_k|^2 and the closed-form phase and shift
    count: int
    estimate: FringeEstimate
    histogram: IntensityPattern | None   # None when the branch has no detections


@dataclass(frozen=True)
class ExperimentReport:
    branch1: BranchReport
    branch2: BranchReport
    pooled_histogram: IntensityPattern   # branch1 + branch2 histograms
    pooled_estimate: FringeEstimate   # a nan shift when unmeasurable
    mean_shift: float              # sum of count/n * branch shift estimate, m
    mean_shift_sigma: float        # propagated 1-sigma on mean_shift, m


def run_experiment(
    config: DualSolenoidConfig,
    amplitudes: BranchAmplitudes,
    n_electrons: int,
    seed: int,
    optics: ScreenOptics,
    n_bootstrap: int = BOOTSTRAP_DEFAULT,
) -> ExperimentReport:
    """Simulate n_electrons detections on the screen `optics`, built for the
    fringe period of `config` (else ValidationError before any draw), and
    estimate the shifts back.

    This thread builds both branch patterns, from the finite closed forms
    `config` guarantees; it and one worker then count the detections and
    bootstrap the estimates (`_share`); the report is still a pure function
    of (config, seed), as the module docstring sets out.
    """
    if not is_integer(n_electrons) or n_electrons < 1:
        raise ValidationError(f"need a positive integer number of electrons, got {n_electrons!r}")
    if not (is_integer(seed) and 0 <= seed < 2**64):
        raise ValidationError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    if not is_integer(n_bootstrap) or n_bootstrap < 0:
        raise ValidationError(f"need a non-negative integer number of resamples, got {n_bootstrap!r}")
    if optics.period != (period := fringe_period(config.constants, config.geometry)):
        raise ValidationError(f"the screen's fringe period {optics.period!r} m is not the apparatus's {period!r} m")
    n_electrons, seed, n_bootstrap = int(n_electrons), int(seed), int(n_bootstrap)   # numpy integers would leak

    outcomes = outcome_distribution(config, amplitudes)
    reference = two_slit_pattern(optics, 0.0)
    estimator = shift_estimator(reference)
    patterns = [two_slit_pattern(optics, outcome.phase) for outcome in outcomes]

    counts = _count_detections(patterns, outcomes[0].probability, n_electrons, seed)
    pooled = replace(reference, intensity=counts[0] + counts[1])
    rows = np.vstack([counts, pooled.intensity])   # branch 1, branch 2, pooled; float64, as the pool is
    shifts, visibilities = estimator.shifts(rows)   # an empty row has contrast 0: nan
    entropies = [(seed, 1, outcome.branch) for outcome in outcomes] + [(seed, 1, 0)]
    sigmas = _bootstrap_sigma(rows, shifts, estimator, entropies, n_bootstrap)
    estimates = [FringeEstimate(float(s), float(v), sigma) for s, v, sigma in zip(shifts, visibilities, sigmas)]
    branch_reports = [
        BranchReport(outcome, int(branch_counts.sum()), estimate,
                     replace(reference, intensity=branch_counts) if branch_counts.any() else None)
        for outcome, branch_counts, estimate in zip(outcomes, counts, estimates)
    ]
    mean_shift, mean_sigma = _weighted_mean_shift(branch_reports, n_electrons)

    return ExperimentReport(
        branch1=branch_reports[0],
        branch2=branch_reports[1],
        pooled_histogram=pooled,
        pooled_estimate=estimates[2],
        mean_shift=mean_shift,
        mean_shift_sigma=mean_sigma,
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

    The worker starts before any task runs, and both threads take the tasks
    from one list in order under one lock; a task works outside that lock,
    possibly into results of its own slot.  A failure on either thread,
    KeyboardInterrupt included, stops the other before its next task and is
    raised here, once.
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
        except BaseException as exc:
            stop.set()
            if slot == 0:
                raise
            worker_errors.append(exc)   # raised again below, on this thread

    if len(tasks) < 2:
        run(0)
        return
    worker = threading.Thread(target=run, args=(1,), name="abmix-worker")
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
    patterns: list[IntensityPattern], p1: float, n_electrons: int, seed: int
) -> np.ndarray:
    """(2, n) int64 detection counts of the two branches on the patterns'
    n cells, drawn from the (seed, 0) stream DRAW_CHUNK electrons at a time,
    one task per chunk; each thread adds the chunks it draws into counts of
    its own.  A branch uniform below p1 picks branch 1."""
    stream = _Stream((seed, 0), n_electrons, DRAW_CHUNK)
    cells = patterns[0].n
    counts = np.zeros((2, 2, cells), dtype=np.int64)   # by thread slot, then branch

    def count(slot: int, _chunk: int) -> None:
        _, uniforms = stream.take(lambda rng, size: rng.random((size, 2)))
        in_branch1 = uniforms[:, 0] < p1
        # compress on a contiguous copy splits twice as fast as a boolean index of the column
        position_uniforms = np.ascontiguousarray(uniforms[:, 1])
        del uniforms
        for k, (pattern, mask) in enumerate(zip(patterns, (in_branch1, ~in_branch1))):
            counts[slot, k] += detection_counts(pattern, np.compress(mask, position_uniforms))

    _share(range(-(-n_electrons // DRAW_CHUNK)), count)
    return counts[0] + counts[1]


def _bootstrap_sigma(
    rows: np.ndarray,
    shifts: np.ndarray,
    estimator: ShiftEstimator,
    entropies: list[tuple[int, ...]],
    n_bootstrap: int,
) -> list[float]:
    """Std dev of the shift estimate over n_bootstrap multinomial resamples
    of each measured row of detection counts (its point shift in `shifts` is
    not nan), each of as many detections as the row holds; nan for a row not
    measured.  A resample is kept, as a point estimate is, when its shift is
    not nan; with fewer than 2 kept the std dev is nan.

    Row i is resampled from the stream of entropies[i],
    BOOTSTRAP_BLOCK_CELLS // nfft (at least 1) resamples at a time.  The
    blocks of all streams, interleaved, are one task list for this thread
    and one worker (`_share`).  Each block writes its shifts into row i of
    one (rows, n_bootstrap) array at its start in its stream, so they stand
    in stream order; a resample not measured, or not drawn, stays nan.
    """
    block = max(1, BOOTSTRAP_BLOCK_CELLS // estimator.nfft)
    resampled = {}   # row index -> (stream, detections, cell probabilities)
    for i, (row, shift, entropy) in enumerate(zip(rows, shifts, entropies)):
        n_samples = int(row.sum())
        if not math.isnan(shift) and n_bootstrap >= 2 and n_samples >= 2:
            resampled[i] = (_Stream(entropy, n_bootstrap, block), n_samples, row / row.sum())
    bootstrap_shifts = np.full((len(rows), n_bootstrap), math.nan)

    def resample(slot: int, i: int) -> None:
        stream, n_samples, probabilities = resampled[i]
        start, resamples = stream.take(
            lambda rng, size: rng.multinomial(n_samples, probabilities, size=size)
        )
        bootstrap_shifts[i, start:start + len(resamples)], _ = estimator.shifts(resamples.astype(float))

    _share([i for _ in range(0, n_bootstrap, block) for i in resampled], resample)   # streams interleaved
    kept = [row[~np.isnan(row)] for row in bootstrap_shifts]
    return [float(np.std(shifts, ddof=1)) if len(shifts) >= 2 else math.nan for shifts in kept]


def _weighted_mean_shift(reports: list[BranchReport], n: int) -> tuple[float, float]:
    """Empirical-frequency weighted mean of the branch shift estimates.

    The 1-sigma combines the per-branch bootstrap uncertainties with the
    binomial uncertainty of the branch frequencies (delta method).  A
    branch without detections has weight 0; a branch with detections but
    a nan shift (and so a nan 1-sigma) leaves both values nan.  A branch
    with detections but no finite bootstrap 1-sigma leaves the 1-sigma
    undefined (nan).
    """
    fractions = [r.count / n for r in reports]
    shifts = [r.estimate.shift if r.count > 0 else 0.0 for r in reports]
    sigmas = [r.estimate.uncertainty if r.count > 0 else 0.0 for r in reports]
    mean = sum(f * s for f, s in zip(fractions, shifts))
    if not all(math.isfinite(sigma) for sigma in sigmas):
        return mean, float("nan")
    variance = sum((f * s) ** 2 for f, s in zip(fractions, sigmas))
    variance += (shifts[0] - shifts[1]) ** 2 * fractions[0] * fractions[1] / n
    return mean, math.sqrt(variance)


def report_text(report: ExperimentReport) -> str:
    """Flat key = value rendering of the results, fixed key order.

    Keys: per-branch counts, closed-form predictions and estimates, pooled
    statistics and the frequency-weighted mean.  An unmeasured row (a nan
    shift) renders its shift, its 1-sigma and, for a branch, its visibility
    as nan; `pooled.visibility` is always the block's contrast.  The
    configuration is not part of the report: report.txt opens with the
    `config.*` block that the command line writes from the resolved
    configuration.
    """
    lines = []
    for r in (report.branch1, report.branch2):
        prefix = f"branch{r.outcome.branch}"
        lines.append(f"{prefix}.count = {r.count}")
        lines.append(f"{prefix}.probability = {r.outcome.probability!r}")
        lines.append(f"{prefix}.predicted_phase_rad = {r.outcome.phase!r}")
        lines.append(f"{prefix}.predicted_shift_m = {r.outcome.shift!r}")
        shift, sigma, visibility = r.estimate.shift, r.estimate.uncertainty, r.estimate.visibility
        lines.append(f"{prefix}.estimated_shift_m = {shift!r}")
        lines.append(f"{prefix}.estimated_shift_sigma_m = {sigma!r}")
        lines.append(f"{prefix}.visibility = {math.nan if math.isnan(shift) else visibility!r}")
    pooled = report.pooled_estimate
    lines.append(f"pooled.shift_m = {pooled.shift!r}")
    lines.append(f"pooled.shift_sigma_m = {pooled.uncertainty!r}")
    lines.append(f"pooled.visibility = {pooled.visibility!r}")
    lines.append(f"pooled.measurable = {str(not math.isnan(pooled.shift)).lower()}")
    lines.append(f"mean_shift_m = {report.mean_shift!r}")
    lines.append(f"mean_shift_sigma_m = {report.mean_shift_sigma!r}")
    return "\n".join(lines) + "\n"
