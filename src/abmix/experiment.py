"""Seeded Monte Carlo detection experiment for the two-solenoid mixture.

Each simulated electron first draws its branch (probability |c_k|^2),
then draws its detection cell from the two-slit pattern synthesized at
that branch's phase difference: the position uniform q lands in the cell
i with cdf[i] <= q < cdf[i+1] of the pattern's CDF.  Only per-cell counts
are kept, never positions.  The generator is numpy's PCG64; per electron
the branch uniform is consumed first and the position uniform second;
a branch uniform below p1 = |c1|^2 picks branch 1.  Before the first
draw, the calling thread builds both branch patterns, whatever the weights.
Draws run in fixed chunks of DRAW_CHUNK electrons, each drawn DRAW_BLOCK
electrons at a time into one reused buffer, so a counting thread holds
one chunk's keys (8 DRAW_CHUNK bytes) plus one draw block (16 DRAW_BLOCK
bytes), whatever n_electrons.  Chunk k starts at output 2 k DRAW_CHUNK of
the first stream below: whichever thread counts it advances a PCG64 at
the stream's start state there, with no lock.  `Generator.random` makes
one double of each 64-bit output u, (u >> 11) 2^-53, and its successive
`random(out=...)` blocks continue one sequence, so the chunks hold the
uniforms of one draw of all of them.  Derived streams get fixed
entropy tuples:

    (seed, 0)      branch and position draws, each chunk at its offset
    (seed, 1, 1)   bootstrap of the branch-1 shift estimate
    (seed, 1, 2)   bootstrap of the branch-2 shift estimate
    (seed, 1, 0)   bootstrap of the pooled-pattern shift estimate

A multinomial spends a variable number of outputs, so a bootstrap stream
cannot be advanced to a block: each is read in order under its own lock,
by either thread, and a block's position in its stream is taken under
that lock with its draw.  The calling thread and one worker, started
before either takes a task, take each phase's tasks from one list
(`_share`): one per draw chunk, then one per resample block of the
bootstrap streams, interleaved.  Every result lands by its position:
detection counts are summed as integers, and bootstrap shifts are
written at their place in their stream.  So, for one numpy release on one
x86 SIMD level, a report is reproducible bit for bit from (configuration,
seed), on any number of CPUs and whichever thread draws which chunk or
block.  numpy picks its SIMD code at import, and three sites give other
bits on another level: float64 exp at X86_V4 (the screen envelope), and
complex abs and complex multiply at X86_V3 (the wire currents, and the
estimator's product of spectra).  A bootstrap draws its resamples a block
at a time, `rng.multinomial(n, p, size=k)`, which is k successive draws
from its stream.

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
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import fringe_period, is_integer
from .dual import BranchAmplitudes, DualSolenoidConfig, MixtureOutcome, outcome_distribution
from .errors import ValidationError
from .pattern import FringeEstimate, IntensityPattern, ScreenOptics, ShiftEstimator, cdf_edges, two_slit_pattern

BOOTSTRAP_DEFAULT = 200

DRAW_CHUNK = 1 << 17   # electrons per chunk, one chunk in flight per thread: its keys are sorted at once

DRAW_BLOCK = 1 << 15   # electrons drawn at a time into one reused buffer of a chunk's uniforms

BOOTSTRAP_BLOCK_CELLS = 1 << 15   # FFT cells per block of resamples: 4 rows of the default screen's 8192

RNG_ALGORITHM = f"numpy.random.PCG64 via default_rng, numpy {np.__version__}"

DRAW_ORDER = "per electron: branch uniform, then position uniform"


@dataclass(frozen=True)
class BranchReport:
    """Per-branch tally and shift estimate (a nan shift when not measured)."""

    outcome: MixtureOutcome   # branch, |c_k|^2 and the closed-form phase and shift
    count: int
    estimate: FringeEstimate
    histogram: IntensityPattern   # all zero when the branch has no detections


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
    estimator = ShiftEstimator(reference)
    patterns = [two_slit_pattern(optics, outcome.phase) for outcome in outcomes]

    counts = _count_detections(patterns, outcomes[0].probability, n_electrons, seed)
    rows = np.vstack([counts, counts.sum(axis=0)])   # branch 1, branch 2, pooled: int64 counts
    shifts, visibilities = estimator.shifts(rows)   # an empty row has contrast 0: nan
    entropies = [(seed, 1, outcome.branch) for outcome in outcomes] + [(seed, 1, 0)]
    sigmas = _bootstrap_sigma(rows, shifts, estimator, entropies, n_bootstrap)
    estimates = [FringeEstimate(float(s), float(v), sigma) for s, v, sigma in zip(shifts, visibilities, sigmas)]
    branch_reports = [BranchReport(outcome, int(row.sum()), estimate, replace(reference, intensity=row))
                      for outcome, row, estimate in zip(outcomes, counts, estimates)]
    mean_shift, mean_sigma = _weighted_mean_shift(branch_reports, n_electrons)

    return ExperimentReport(
        branch1=branch_reports[0],
        branch2=branch_reports[1],
        pooled_histogram=replace(reference, intensity=rows[2]),
        pooled_estimate=estimates[2],
        mean_shift=mean_shift,
        mean_shift_sigma=mean_sigma,
    )


class _Stream:
    """The bootstrap stream of one measured row of counts: `length`
    multinomial resamples of the row's detections over its cells, drawn from
    the stream of `entropy` in order, under its own lock, by either thread:
    a multinomial spends a variable number of outputs, so a block cannot
    start at an offset known before the blocks ahead of it."""

    def __init__(self, entropy: tuple[int, ...], row: np.ndarray, length: int, block: int):
        self._rng = np.random.default_rng(np.random.SeedSequence(entropy))
        self._lock = threading.Lock()
        self._n_samples, self._probabilities = int(row.sum()), row / row.sum()
        self._length, self._block, self._next = length, block, 0

    def take(self) -> tuple[int, np.ndarray]:
        """`(start, resamples)` of the next block of at most `block` resamples,
        both taken under the lock.  The caller takes each of the ceil(length / block) blocks once."""
        with self._lock:
            start = self._next
            size = min(self._block, self._length - start)
            self._next = start + size
            return start, self._rng.multinomial(self._n_samples, self._probabilities, size=size)


def _share(tasks: Sequence[int], work: Callable[[int, int], None]) -> None:
    """Call `work(slot, task)` once per task, on this thread (slot 0) and
    on one worker thread (slot 1).

    The worker starts before any task runs, and both threads take the tasks
    from one list in order under one lock; a task works outside that lock,
    possibly into results of its own slot.  A failure on either thread,
    KeyboardInterrupt included, stops the other before its next task and is
    raised here, once.
    """
    pending, lock = iter(tasks), threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []

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
            errors.append(exc)   # the first is raised below, on this thread

    worker = threading.Thread(target=run, args=(1,), name="abmix-worker")
    worker.start()
    try:
        run(0)
    finally:
        # every task is taken once run returns, so this cuts the worker short only after a failure
        stop.set()
        worker.join()
    if errors:
        raise errors[0]


def _draw_chunk(start: np.random.SeedSequence, chunk: int, size: int) -> Iterator[np.ndarray]:
    """The `size` rows from chunk * DRAW_CHUNK onwards of one `random((n, 2))`
    of the `start` stream, as successive blocks of at most DRAW_BLOCK rows,
    drawn by a PCG64 advanced past the two outputs of each electron before
    them.  Every block is a view of one buffer: the next overwrites it."""
    rng = np.random.Generator(np.random.PCG64(start).advance(2 * chunk * DRAW_CHUNK))
    buffer = np.empty((min(DRAW_BLOCK, size), 2))
    for first in range(0, size, DRAW_BLOCK):
        yield rng.random(out=buffer[:min(DRAW_BLOCK, size - first)])


def _edge_table(patterns: list[IntensityPattern]) -> np.ndarray:
    """The ascending edges `_count_chunk` counts against: pattern 2's
    interior CDF edges less 1, then 0, then pattern 1's, each edge c raised
    to ceil(c * 2^53) / 2^53.  A uniform q on the 2^-53 lattice is at or
    above c exactly when it is at or above that ceiling, and q - 1 and the
    ceiling less 1 are exact doubles."""
    lifted = [np.ceil(cdf_edges(pattern)[1:-1] * 2.0**53) * 2.0**-53 for pattern in patterns]
    return np.concatenate([lifted[1] - 1.0, [0.0], lifted[0]])


def _count_chunk(edges: np.ndarray, p1: float, blocks: Iterable[np.ndarray], size: int) -> np.ndarray:
    """(2, n) int64 branch counts on the n cells of the patterns of `edges`
    (`_edge_table`) of `size` (branch, position) uniform pairs on the 2^-53
    lattice, given as successive (m, 2) blocks, by the module's rule.  Each
    block writes one key per electron, q on branch 1 and q - 1 on branch 2,
    into its slice of one key array; that is sorted once, and one binary
    search per edge counts both branches."""
    keys = np.empty(size)
    first = 0
    for block in blocks:
        block_keys = keys[first:first + len(block)]
        np.greater_equal(block[:, 0], p1, out=block_keys)   # 1 on branch 2
        np.subtract(block[:, 1], block_keys, out=block_keys)
        first += len(block)
    keys.sort()
    below = np.searchsorted(keys, edges, side="left")
    return np.diff(below, prepend=0, append=len(keys)).reshape(2, -1)[::-1]


def _count_detections(
    patterns: list[IntensityPattern], p1: float, n_electrons: int, seed: int
) -> np.ndarray:
    """(2, n) int64 detection counts of the two branches on the patterns'
    n cells, from the (seed, 0) stream, one task per chunk of DRAW_CHUNK
    electrons, each drawn at its own offset (`_draw_chunk`) with no lock.
    Each thread adds the chunks it counts into counts of its own."""
    start = np.random.SeedSequence((seed, 0))
    edges = _edge_table(patterns)
    counts = np.zeros((2, 2, patterns[0].n), dtype=np.int64)   # by thread slot, then branch

    def count(slot: int, chunk: int) -> None:
        size = min(DRAW_CHUNK, n_electrons - chunk * DRAW_CHUNK)
        counts[slot] += _count_chunk(edges, p1, _draw_chunk(start, chunk, size), size)

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
    measured, and for a row of fewer than 2 detections, whose resamples all
    equal it and would claim a std dev of 0.  A resample is kept, as a point
    estimate is, when its shift is not nan; with fewer than 2 kept (as for
    n_bootstrap < 2) the std dev is nan.

    Row i is resampled from the stream of entropies[i],
    BOOTSTRAP_BLOCK_CELLS // nfft (at least 1) resamples at a time.  The
    blocks of all streams, interleaved, are one task list for this thread
    and one worker (`_share`).  Each block writes its shifts into row i of
    one (rows, n_bootstrap) array at its start in its stream, so they stand
    in stream order; a resample not measured, or not drawn, stays nan.
    """
    block = max(1, BOOTSTRAP_BLOCK_CELLS // estimator.nfft)
    resampled = {i: _Stream(entropy, row, n_bootstrap, block)   # row index -> its stream
                 for i, (row, shift, entropy) in enumerate(zip(rows, shifts, entropies))
                 if not math.isnan(shift) and row.sum() >= 2}
    bootstrap_shifts = np.full((len(rows), n_bootstrap), math.nan)

    def resample(slot: int, i: int) -> None:
        start, resamples = resampled[i].take()
        bootstrap_shifts[i, start:start + len(resamples)], _ = estimator.shifts(resamples)

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
