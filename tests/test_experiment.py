import math
import statistics
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from abmix.core import ApparatusGeometry, Grid, PhysicalConstants, Solenoid, fringe_period, fringe_shift
from abmix.dual import BranchAmplitudes, DualSolenoidConfig, classical_totals, mixture_mean, outcome_distribution
from abmix import experiment, pattern
from abmix.config import RunConfig
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


def field_config(field1, field2):
    """Solenoid pair of the given fields, in T, on the test radius."""
    return DualSolenoidConfig(Solenoid(field=field1, radius=RADIUS), Solenoid(field=field2, radius=RADIUS),
                              GEOMETRY, CONSTANTS)


def wide_screen(n=4096):
    return pattern.ScreenOptics(Grid(x_min=-8.0 * PERIOD, x_max=8.0 * PERIOD, n=n), PERIOD, ENVELOPE)


def kept_bootstrap_shifts(estimator, counts, entropy, n_bootstrap):
    """The measured shifts of the n_bootstrap multinomial resamples of the
    `counts` row, drawn from the stream of `entropy` block after block, in
    stream order: the bootstrap re-derived from its entropy tuple."""
    block = max(1, experiment.BOOTSTRAP_BLOCK_CELLS // estimator.nfft)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    n_samples = int(counts.sum())
    expected = []
    for start in range(0, n_bootstrap, block):
        resamples = rng.multinomial(n_samples, counts / counts.sum(), size=min(block, n_bootstrap - start))
        block_shifts, visibilities = estimator.shifts(resamples.astype(float))
        expected.extend(block_shifts[visibilities > pattern.VISIBILITY_FLOOR])
    return expected


def reference_counts(patterns, p1, uniforms):
    """The two branch count rows of (branch, position) uniform pairs, by the
    contract's rule: a branch uniform below p1 picks branch 1, and position
    uniform q falls in cell searchsorted(cdf, q, side="right") - 1, clipped,
    of its branch's pattern."""
    in_branch1 = uniforms[:, 0] < p1
    counts = []
    for branch_pattern, drawn in zip(patterns, (in_branch1, ~in_branch1)):
        cdf = np.concatenate([[0.0], np.cumsum(branch_pattern.intensity)])
        cdf /= cdf[-1]
        cells = np.clip(np.searchsorted(cdf, uniforms[drawn, 1], side="right") - 1, 0, branch_pattern.n - 1)
        counts.append(np.bincount(cells, minlength=branch_pattern.n))
    return counts


def contract_reference(config, amplitudes, n_electrons, seed, optics, n_bootstrap):
    """The two branch count rows and the three bootstrap 1-sigmas (branch 1,
    branch 2, pooled) that the determinism contract fixes, written from
    `experiment`'s module docstring and DRAW_ORDER alone: one thread, every
    electron in one draw, no chunks."""
    outcomes = outcome_distribution(config, amplitudes)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    uniforms = rng.random((n_electrons, 2))   # per electron: branch uniform, then position uniform
    patterns = [pattern.two_slit_pattern(optics, outcome.phase) for outcome in outcomes]
    counts = reference_counts(patterns, outcomes[0].probability, uniforms)
    rows = np.array([*counts, counts[0] + counts[1]], dtype=float)
    estimator = pattern.ShiftEstimator(pattern.two_slit_pattern(optics, 0.0))
    sigmas = []
    for row, shift, stream in zip(rows, estimator.shifts(rows)[0], (1, 2, 0)):
        kept = [] if math.isnan(shift) else kept_bootstrap_shifts(estimator, row, (seed, 1, stream), n_bootstrap)
        sigmas.append(float(np.std(kept, ddof=1)) if len(kept) >= 2 else math.nan)
    return counts, sigmas


class TestRunExperimentBasics:
    def test_counts_sum_to_requested_electrons(self):
        report = run_experiment(
            antisymmetric_config(), EQUAL_WEIGHTS, 5000, 3, wide_screen(1024),
            n_bootstrap=0,
        )
        assert report.branch1.count + report.branch2.count == 5000
        assert np.array_equal(
            report.pooled_histogram.intensity,
            report.branch1.histogram.intensity + report.branch2.histogram.intensity,
        )

    def test_rejects_empty_run(self):
        with pytest.raises(ValidationError):
            run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 0, 3, wide_screen())

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValidationError):
            run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 10, -1, wide_screen())

    @pytest.mark.parametrize("n_electrons, seed", [(1000.0, 3), (True, 3), (10, 1.5), (10, True)])
    def test_rejects_non_integer_counts_and_seeds(self, n_electrons, seed):
        with pytest.raises(ValidationError):
            run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, n_electrons, seed, wide_screen())

    def test_numpy_integers_run_as_python_integers(self):
        runs = [run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, n, seed, wide_screen(1024),
                               n_bootstrap=resamples)
                for n, seed, resamples in [(5000, 3, 3), (np.int64(5000), np.uint64(3), np.int64(3))]]
        assert report_text(runs[0]) == report_text(runs[1])

    @pytest.mark.parametrize("period", [1.5 * PERIOD, math.nextafter(PERIOD, math.inf)], ids=["wider", "next_float"])
    def test_rejects_optics_of_another_fringe_period_before_any_draw(self, monkeypatch, period):
        draws = []
        monkeypatch.setattr(experiment, "_draw_chunk", lambda *args: draws.append(args))
        monkeypatch.setattr(experiment, "_Stream", lambda *args: draws.append(args))
        optics = pattern.ScreenOptics(wide_screen().grid, period, ENVELOPE)
        with pytest.raises(ValidationError, match="fringe period"):
            run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 1000, 3, optics)
        assert draws == []

    @pytest.mark.parametrize("n_bootstrap", [2.5, True, -3])
    def test_rejects_non_integer_and_negative_resample_counts(self, n_bootstrap):
        with pytest.raises(ValidationError, match="resamples"):
            run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 10, 3, wide_screen(),
                           n_bootstrap=n_bootstrap)

    def test_pure_branch_one_gets_every_detection(self):
        pure = BranchAmplitudes(c1=1.0 + 0.0j, c2=0.0j)
        report = run_experiment(
            antisymmetric_config(), pure, 20_000, 7, wide_screen(), n_bootstrap=20
        )
        assert report.branch1.count == 20_000
        assert report.branch2.count == 0
        assert math.isnan(report.branch2.estimate.shift)
        assert not report.branch2.histogram.intensity.any()
        assert np.array_equal(report.pooled_histogram.intensity, report.branch1.histogram.intensity)
        estimate = report.branch1.estimate
        tolerance = wide_screen().grid.dx / 2.0 + 3.0 * estimate.uncertainty
        assert abs(estimate.shift - report.branch1.outcome.shift) <= tolerance

    @pytest.mark.parametrize("fields, branch", [((1e308, -1.0), 1), ((1.0, 1e308), 2)], ids=["branch1", "branch2"])
    def test_a_branch_without_a_finite_phase_fails_when_the_config_is_built(self, fields, branch):
        # B = 1e308 T gives the branch an infinite phase: whatever the branch's
        # weight, no apparatus exists to run an experiment on
        message = fr"branch {branch} phase difference dphi_{branch} \[rad\] = inf is not finite"
        with pytest.raises(ValidationError, match=message):
            field_config(*fields)

    def test_unestimated_branch_with_detections_leaves_the_mean_undefined(self):
        # 8 electrons, seed 5: branch 1 is estimated from 4 detections, the
        # 4 of branch 2 are too few; counting them as a 0 m shift would give
        # half the branch-1 estimate
        report = run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 8, 5, wide_screen())
        assert report.branch2.count > 0 and math.isnan(report.branch2.estimate.shift)
        assert not math.isnan(report.branch1.estimate.shift)
        assert math.isnan(report.mean_shift) and math.isnan(report.mean_shift_sigma)
        assert "mean_shift_m = nan" in report_text(report)

    def test_missing_branch_sigma_leaves_the_mean_sigma_undefined(self):
        # without resamples both branch sigmas are nan; counting them as 0
        # understated the 1-sigma of the mean
        args = (antisymmetric_config(), EQUAL_WEIGHTS, 20_000, 5, wide_screen())
        report = run_experiment(*args, n_bootstrap=0)
        assert math.isnan(report.branch1.estimate.uncertainty)
        assert math.isnan(report.branch2.estimate.uncertainty)
        assert math.isnan(report.mean_shift_sigma)
        resampled = run_experiment(*args, n_bootstrap=20)
        assert report.mean_shift == resampled.mean_shift
        assert math.isfinite(resampled.mean_shift_sigma)


class TestWeightedMeanShift:
    """The mean sum f_k s_k of the branch shifts s_k, with f_k = count_k / n,
    and its delta-method 1-sigma sqrt(sum (f_k sigma_k)^2 + (s_1 - s_2)^2
    f_1 f_2 / n), on hand-built reports: a branch without detections has
    weight 0, and a branch of 1 detection counts at its own shift."""

    @staticmethod
    def reports(counts, shifts, sigmas):
        optics = wide_screen(1024)
        empty = pattern.IntensityPattern(optics, np.zeros(optics.grid.n))
        outcomes = outcome_distribution(antisymmetric_config(), EQUAL_WEIGHTS)
        return [experiment.BranchReport(outcome, count, pattern.FringeEstimate(shift, 0.9, sigma), empty)
                for outcome, count, shift, sigma in zip(outcomes, counts, shifts, sigmas, strict=True)]

    @pytest.mark.parametrize("counts, shifts, sigmas, mean, sigma", [
        ((6, 4), (3e-6, -2e-6), (1e-7, 2e-7), 0.6 * 3e-6 + 0.4 * -2e-6,
         math.sqrt((0.6 * 1e-7) ** 2 + (0.4 * 2e-7) ** 2 + (3e-6 + 2e-6) ** 2 * 0.6 * 0.4 / 10)),
        ((10, 0), (3e-6, math.nan), (1e-7, math.nan), 3e-6, 1e-7),
        ((9, 1), (3e-6, -2e-6), (1e-7, math.nan), 0.9 * 3e-6 + 0.1 * -2e-6, math.nan),
    ], ids=["two_measured_branches", "a_branch_without_detections", "a_branch_of_one_detection"])
    def test_the_delta_method(self, counts, shifts, sigmas, mean, sigma):
        got_mean, got_sigma = experiment._weighted_mean_shift(self.reports(counts, shifts, sigmas), sum(counts))
        assert got_mean == pytest.approx(mean, rel=1e-12)
        assert got_sigma == pytest.approx(sigma, rel=1e-12, nan_ok=True)


class TestPointEstimates:
    @pytest.mark.parametrize(
        "delta, amplitudes, measured",
        [
            (1.0, EQUAL_WEIGHTS, [True, True, True]),
            (1.0, BranchAmplitudes(c1=1.0 + 0.0j, c2=0.0j), [True, False, True]),   # an empty row
            (math.pi / 2.0, EQUAL_WEIGHTS, [True, True, False]),   # the pooled fringes wash out
        ],
        ids=["antisymmetric", "pure_branch1", "washed_out_pool"],
    )
    def test_block_estimates_equal_one_pattern_estimates(self, delta, amplitudes, measured):
        # run_experiment estimates the three count rows as one block; each row
        # must equal, bit for bit, a one-row block of its own histogram, and
        # have a nan shift exactly where that block does
        screen = wide_screen()
        # at 1e6 detections the pooled contrast of delta = pi/2 is shot noise, about 0.02
        report = run_experiment(antisymmetric_config(delta), amplitudes, 1_000_000, 11, screen,
                                n_bootstrap=0)
        reference = pattern.two_slit_pattern(screen, 0.0)
        estimator = pattern.ShiftEstimator(reference)
        rows = [
            (report.branch1.estimate, report.branch1.histogram),
            (report.branch2.estimate, report.branch2.histogram),
            (report.pooled_estimate, report.pooled_histogram),
        ]
        for (estimate, histogram), expected in zip(rows, measured, strict=True):
            assert (not math.isnan(estimate.shift)) == expected
            assert math.isnan(estimate.uncertainty)
            # the visibility is the block's own, and equals a fresh one of the row's histogram
            shifts, visibilities = estimator.shifts(histogram.intensity[np.newaxis])
            assert np.array_equal(shifts, [estimate.shift], equal_nan=True)
            assert estimate.visibility == visibilities[0]


class TestDeterminism:
    def test_identical_seed_gives_byte_identical_reports(self):
        kwargs = dict(
            config=antisymmetric_config(),
            amplitudes=EQUAL_WEIGHTS,
            n_electrons=20_000,
            seed=20240601,
            optics=wide_screen(),
            n_bootstrap=25,
        )
        first = report_text(run_experiment(**kwargs))
        second = report_text(run_experiment(**kwargs))
        assert first == second

    def test_draw_chunking_keeps_the_stream(self, monkeypatch):
        # chunks of an odd size split the draws at other electrons than the
        # default chunk does; the counts and the report must not move
        kwargs = dict(
            config=antisymmetric_config(),
            amplitudes=EQUAL_WEIGHTS,
            n_electrons=20_000,
            seed=20240601,
            optics=wide_screen(),
            n_bootstrap=10,
        )
        default = run_experiment(**kwargs)
        assert experiment.DRAW_CHUNK > kwargs["n_electrons"]
        monkeypatch.setattr(experiment, "DRAW_CHUNK", 997)
        # the default draw block, larger than the chunk, then 61, which divides
        # neither the chunk nor n and exceeds the last chunk's 60 electrons
        for block in (experiment.DRAW_BLOCK, 61):
            monkeypatch.setattr(experiment, "DRAW_BLOCK", block)
            chunked = run_experiment(**kwargs)
            assert report_text(chunked) == report_text(default)
            for name in ("branch1", "branch2"):
                assert np.array_equal(getattr(chunked, name).histogram.intensity,
                                      getattr(default, name).histogram.intensity)
            assert np.array_equal(chunked.pooled_histogram.intensity, default.pooled_histogram.intensity)

    def test_envelope_builds_do_not_grow_with_the_bootstrap(self, monkeypatch):
        # the estimator judges every resample with the reference's envelope
        build = pattern._envelope
        calls = []

        def counted(x, width):
            calls.append(width)
            return build(x, width)

        monkeypatch.setattr(pattern, "_envelope", counted)
        per_run = []
        for n_bootstrap in (2, 30):
            calls.clear()
            run_experiment(
                antisymmetric_config(), EQUAL_WEIGHTS, 2000, 3, wide_screen(1024),
                n_bootstrap=n_bootstrap,
            )
            per_run.append(len(calls))
        assert per_run[0] == per_run[1]

    def test_different_seed_changes_the_detections(self):
        base = dict(
            config=antisymmetric_config(),
            amplitudes=EQUAL_WEIGHTS,
            n_electrons=5000,
            optics=wide_screen(1024),
            n_bootstrap=0,
        )
        first = run_experiment(seed=1, **base)
        second = run_experiment(seed=2, **base)
        assert not np.array_equal(
            first.pooled_histogram.intensity, second.pooled_histogram.intensity
        )

    @pytest.mark.parametrize(
        "n_electrons, seed, p1, chunk",
        [(1000, 3, 0.36, None), (2**17 + 5, 0, 0.36, None), (30_001, 11, 0.36, 997),
         (5000, 5, 0.0, None), (5000, 7, 1.0, 997)],
    )
    def test_the_run_matches_the_contract_reference(self, monkeypatch, n_electrons, seed, p1, chunk):
        # on any numpy: the counts and each 1-sigma equal those the documented
        # draw order and entropy tuples give, whatever the chunking and the
        # draw blocks: the default, 61 (which divides no chunk and no n here)
        # and one larger than the chunk
        if chunk is not None:
            monkeypatch.setattr(experiment, "DRAW_CHUNK", chunk)
        amplitudes = BranchAmplitudes(complex(math.sqrt(p1)), complex(0.0, math.sqrt(1.0 - p1)))
        args = (antisymmetric_config(), amplitudes, n_electrons, seed, wide_screen(1024), 20)
        counts, sigmas = contract_reference(*args)
        for block in (experiment.DRAW_BLOCK, 61, 2 * experiment.DRAW_CHUNK):
            monkeypatch.setattr(experiment, "DRAW_BLOCK", block)
            report = run_experiment(*args)
            for branch, expected in zip((report.branch1, report.branch2), counts):
                assert branch.count == expected.sum() and np.array_equal(branch.histogram.intensity, expected)
            assert np.array_equal(report.pooled_histogram.intensity, counts[0] + counts[1])
            reported = [report.branch1.estimate.uncertainty, report.branch2.estimate.uncertainty,
                        report.pooled_estimate.uncertainty]
            assert np.array_equal(reported, sigmas, equal_nan=True)
        assert math.isnan(sigmas[0]) == (p1 == 0.0) and math.isnan(sigmas[1]) == (p1 == 1.0)


class TestChunkCount:
    LATTICE = 2.0**-53   # Generator.random's doubles are k * 2^-53

    def test_numpy_maps_each_pcg64_output_to_one_double(self):
        # _draw_chunk relies on both: random() spends one 64-bit output per
        # double, as (u >> 11) * 2^-53, so advancing the bit generator by
        # 2 k chunk outputs starts chunk k of one sequential random((n, 2))
        entropy = np.random.SeedSequence((20240601, 0))
        raw = np.random.PCG64(entropy).random_raw(1000)
        doubles = np.random.Generator(np.random.PCG64(entropy)).random(1000)
        assert np.array_equal(doubles, (raw >> np.uint64(11)).astype(float) * self.LATTICE)
        chunk, n = 997, 5 * 997 + 13
        sequential = np.random.Generator(np.random.PCG64(entropy)).random((n, 2))
        for k in range(-(-n // chunk)):
            advanced = np.random.PCG64(entropy).advance(2 * k * chunk)
            rows = sequential[k * chunk:(k + 1) * chunk]
            assert np.array_equal(np.random.Generator(advanced).random(rows.shape), rows)

    def test_numpy_random_out_blocks_continue_one_sequence(self):
        # _draw_chunk relies on it: successive random(out=...) blocks of one
        # reused buffer, from a PCG64 advanced to a chunk, hold that chunk's
        # rows of one sequential random((n, 2)); 61 divides neither the chunk
        # nor n, and the last chunk's 13 rows are fewer than one block
        entropy = np.random.SeedSequence((20240601, 0))
        chunk, block, n = 997, 61, 3 * 997 + 13
        sequential = np.random.Generator(np.random.PCG64(entropy)).random((n, 2))
        buffer = np.empty((block, 2))
        for k in range(-(-n // chunk)):
            rng = np.random.Generator(np.random.PCG64(entropy).advance(2 * k * chunk))
            rows = sequential[k * chunk:(k + 1) * chunk]
            for first in range(0, len(rows), block):
                drawn = rng.random(out=buffer[:min(block, len(rows) - first)])
                assert np.shares_memory(drawn, buffer)
                assert np.array_equal(drawn, rows[first:first + block])

    def test_counts_lattice_uniforms_on_and_beside_every_edge_exactly(self):
        # zero-intensity cells at both ends and inside give repeated edges,
        # trailing edges of exactly 1.0 among them
        optics = wide_screen(1024)
        intensities = [np.random.default_rng(seed).random(1024) for seed in (1, 2)]
        intensities[0][:40] = intensities[0][300:340] = intensities[0][-50:] = 0.0
        intensities[1][[0, 1, 2, 511, 512, 1020, 1021, 1022, 1023]] = 0.0
        patterns = [pattern.IntensityPattern(optics, intensity) for intensity in intensities]
        positions = [0.0, 1.0 - self.LATTICE]
        for branch_pattern in patterns:
            cdf = np.concatenate([[0.0], np.cumsum(branch_pattern.intensity)])
            cdf /= cdf[-1]
            ceilings = np.ceil(cdf * 2**53) * self.LATTICE
            assert np.any(ceilings != cdf)   # some edges are off the lattice
            positions += [*ceilings, *(ceilings - self.LATTICE)]
        positions = np.unique(np.clip(positions, 0.0, 1.0 - self.LATTICE))
        edges = experiment._edge_table(patterns)
        for p1 in (0.0, math.ceil(0.36 * 2**53) * self.LATTICE, 1.0):
            # a branch uniform equal to p1 picks branch 2
            branch_uniforms = {0.0, p1 - self.LATTICE, p1, 1.0 - self.LATTICE}
            uniforms = np.array([(b, q) for b in sorted(branch_uniforms) if 0.0 <= b < 1.0 for q in positions])
            counts = experiment._count_chunk(edges, p1, [uniforms], len(uniforms))
            assert counts.dtype == np.int64 and counts.shape == (2, 1024)
            assert np.array_equal(counts, reference_counts(patterns, p1, uniforms))


def traced(call):
    """call() and the bytes tracemalloc traced at its peak above those traced
    before it; tracemalloc traces numpy's buffers."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestCountingMemory:
    """A counting thread holds one chunk's keys and one draw block of
    uniforms, not the chunk's uniforms."""

    @staticmethod
    def per_thread_bound(edges):
        keys, block = 8 * experiment.DRAW_CHUNK, 16 * experiment.DRAW_BLOCK
        # slack: the search's and np.diff's int64 arrays, about one entry per edge each, and 64 KiB of the rest
        return keys + block + 4 * edges.nbytes + (64 << 10)

    def patterns(self):
        return [pattern.two_slit_pattern(wide_screen(1024), phase) for phase in (1.0, -1.0)]

    def test_one_chunk_holds_its_keys_and_one_draw_block(self):
        edges = experiment._edge_table(self.patterns())
        start, size = np.random.SeedSequence((20240601, 0)), experiment.DRAW_CHUNK
        counts, peak = traced(
            lambda: experiment._count_chunk(edges, 0.36, experiment._draw_chunk(start, 0, size), size))
        assert counts.sum() == size
        assert peak <= self.per_thread_bound(edges)

    def test_two_threads_hold_one_chunk_each(self):
        patterns = self.patterns()
        n_electrons = 4 * experiment.DRAW_CHUNK
        counts, peak = traced(lambda: experiment._count_detections(patterns, 0.36, n_electrons, 20240601))
        assert counts.sum() == n_electrons
        assert peak <= 2 * self.per_thread_bound(experiment._edge_table(patterns))


class TestBootstrapMemory:
    """A resample block is estimated from its int64 rows as drawn, one
    zero-padded (k, nfft) buffer, which they are cast into once, and its
    spectra: no other float copy of the block is made, and no copy of the
    correlation outlives the step that spends it."""

    def test_one_resample_block_holds_its_rows_one_buffer_and_the_spectra(self):
        optics = wide_screen()   # the default screen: 4096 cells, so nfft = 8192 and k = 4
        estimator = pattern.ShiftEstimator(pattern.two_slit_pattern(optics, 0.0))
        shifted = pattern.two_slit_pattern(optics, 0.6).intensity
        rows = np.random.default_rng(5).multinomial(100_000, shifted / shifted.sum())[np.newaxis]
        shifts, _ = estimator.shifts(rows)
        n, nfft = optics.grid.n, estimator.nfft
        k = experiment.BOOTSTRAP_BLOCK_CELLS // nfft
        assert (n, nfft, k) == (4096, 8192, 4)
        sigmas, peak = traced(lambda: experiment._bootstrap_sigma(rows, shifts, estimator, [(5, 1, 0)], k))
        assert math.isfinite(sigmas[0])
        block, buffer, spectra = 8 * k * n, 8 * k * nfft, 16 * k * (nfft // 2 + 1)
        probabilities = 8 * n   # the stream's cell probabilities
        # slack: the stream's generator and lock, the worker thread, the task
        # list, the (rows, k) shifts and the per-row scalars of one block
        slack = 32 << 10
        assert peak <= block + buffer + spectra + probabilities + slack


class TestBlockBootstrap:
    def test_numpy_multinomial_block_equals_successive_draws(self):
        # _bootstrap_sigma draws its resamples a block at a time
        probabilities = np.random.default_rng(0).random(300)
        probabilities /= probabilities.sum()
        block = np.random.default_rng(7).multinomial(5000, probabilities, size=5)
        rng = np.random.default_rng(7)
        assert np.array_equal(block, [rng.multinomial(5000, probabilities) for _ in range(5)])

    def test_block_size_moves_no_bit(self, monkeypatch):
        # 7 resamples are estimated 4 + 3 by default; 1 at a time, or all 7
        # in one block, they must give the same report
        args = (antisymmetric_config(), EQUAL_WEIGHTS, 20_000, 8, wide_screen(), 7)
        expected = report_text(run_experiment(*args))
        nfft = 8192   # the transform length of the 4096-cell screen
        for block_cells in (nfft, 7 * nfft):
            monkeypatch.setattr(experiment, "BOOTSTRAP_BLOCK_CELLS", block_cells)
            assert report_text(run_experiment(*args)) == expected

    def test_a_measured_row_of_one_detection_gets_a_nan_sigma(self):
        # every resample of 1 detection equals the row: a std dev of 0 would claim an exact shift
        optics = wide_screen()
        estimator = pattern.ShiftEstimator(pattern.two_slit_pattern(optics, 0.0))
        row = np.zeros((1, optics.grid.n), dtype=np.int64)
        row[0, optics.grid.n // 2] = 1   # a cell at the axis: contrast 1, measured
        shifts, _ = estimator.shifts(row)
        assert math.isfinite(shifts[0])
        assert math.isnan(experiment._bootstrap_sigma(row, shifts, estimator, [(5, 1, 1)], 20)[0])

    def test_one_kept_resample_gets_a_nan_sigma_and_no_warning(self):
        # a std dev of one value has no degrees of freedom: it is nan, without the
        # RuntimeWarning numpy's std gives for it, which cli.main would print as a warning line
        optics = wide_screen()
        estimator = pattern.ShiftEstimator(pattern.two_slit_pattern(optics, 0.0))
        shifted = pattern.two_slit_pattern(optics, 0.6).intensity
        row = np.random.default_rng(5).multinomial(100_000, shifted / shifted.sum())[np.newaxis]
        shifts, _ = estimator.shifts(row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(experiment._bootstrap_sigma(row, shifts, estimator, [(5, 1, 1)], 1)[0])


class TestSharedSchedule:
    ARGS = (antisymmetric_config(), EQUAL_WEIGHTS, 20_000, 20240601, wide_screen(), 25)

    @pytest.mark.parametrize("delayed", ["caller", "worker"])
    @pytest.mark.parametrize("phase", ["counting", "bootstrap"])
    def test_forced_interleavings_move_no_bit(self, monkeypatch, schedule, phase, delayed):
        # which thread draws which chunk or resample block, and where the
        # interpreter switches threads, must not matter
        expected = run_experiment(*self.ARGS)   # one chunk: counted by one thread
        monkeypatch.setattr(experiment, "DRAW_CHUNK", 997)   # 21 chunks; the bootstrap has 3 x 7 blocks
        schedule.reset()
        schedule.delay[phase, delayed] = 0.002
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = run_experiment(*self.ARGS)
        finally:
            sys.setswitchinterval(interval)
        assert schedule.takers(phase) == {"caller", "worker"}
        assert report_text(report) == report_text(expected)
        for name in ("branch1", "branch2"):
            assert np.array_equal(getattr(report, name).histogram.intensity,
                                  getattr(expected, name).histogram.intensity)
        assert np.array_equal(report.pooled_histogram.intensity, expected.pooled_histogram.intensity)
        assert threading.active_count() == threads and not schedule.workers_alive()

    @pytest.mark.parametrize("delayed", ["caller", "worker"])
    def test_bootstrap_shifts_join_in_stream_order(self, monkeypatch, schedule, delayed):
        # blocks finish out of order when one thread is slowed; the shifts
        # must still reach np.std as one stream estimated block after block
        reported = []
        std = np.std

        def recorded(shifts, **kwargs):
            reported.append(np.array(shifts))
            return std(shifts, **kwargs)

        monkeypatch.setattr(np, "std", recorded)
        schedule.delay["bootstrap", delayed] = 0.002
        config, amplitudes, n_electrons, seed, optics, n_bootstrap = self.ARGS
        report = run_experiment(*self.ARGS)
        estimator = pattern.ShiftEstimator(pattern.two_slit_pattern(optics, 0.0))
        histograms = (report.branch1.histogram, report.branch2.histogram, report.pooled_histogram)
        for histogram, stream, shifts in zip(histograms, (1, 2, 0), reported, strict=True):
            expected = kept_bootstrap_shifts(estimator, histogram.intensity, (seed, 1, stream), n_bootstrap)
            assert np.array_equal(shifts, expected)
        assert schedule.takers("bootstrap") == {"caller", "worker"}

    @pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
    @pytest.mark.parametrize("failing", ["caller", "worker"])
    @pytest.mark.parametrize("phase", ["counting", "bootstrap"])
    def test_a_failure_stops_the_other_thread_within_one_unit(
        self, monkeypatch, schedule, phase, failing, error
    ):
        monkeypatch.setattr(experiment, "DRAW_CHUNK", 100)   # 200 chunks; the bootstrap has 3 x 50 blocks
        other = {"caller": "worker", "worker": "caller"}[failing]
        # the caller fails its second take, after a unit of its own, and the worker its first;
        # the other thread is slowed so that units are still left when the fault hits
        schedule.fault = (phase, failing, 2 if failing == "caller" else 1, error())
        schedule.delay[phase, other] = 0.001
        args = (*self.ARGS[:5], 200)
        with pytest.raises(error):
            run_experiment(*args)
        units = {"counting": 200, "bootstrap": 150}[phase]
        assert sum(1 for p, _, what in schedule.events if p == phase and what == "take") < units
        assert schedule.takes_after_the_fault(other) <= 1
        assert not schedule.workers_alive()


class TestTwoPointStatistics:
    def test_branch_estimates_recover_opposite_shifts(self):
        report = run_experiment(
            antisymmetric_config(), EQUAL_WEIGHTS, 100_000, 4242, wide_screen(),
            n_bootstrap=50,
        )
        epsilon = abs(report.branch1.outcome.shift)
        for branch in (report.branch1, report.branch2):
            estimate = branch.estimate
            tolerance = wide_screen().grid.dx / 2.0 + 3.0 * estimate.uncertainty
            assert abs(estimate.shift - branch.outcome.shift) <= tolerance
        assert report.branch1.estimate.shift < -0.5 * epsilon
        assert report.branch2.estimate.shift > +0.5 * epsilon

    def test_pooled_mean_compatible_with_zero(self):
        report = run_experiment(
            antisymmetric_config(), EQUAL_WEIGHTS, 100_000, 4242, wide_screen(),
            n_bootstrap=50,
        )
        assert abs(report.mean_shift) <= 3.0 * report.mean_shift_sigma

    def test_washed_out_pooled_pattern_is_flagged_unmeasurable(self):
        # equal-weight quarter-turn mixture: pooled visibility ~ |cos(pi/2)|
        report = run_experiment(
            antisymmetric_config(delta=math.pi / 2.0), EQUAL_WEIGHTS, 400_000, 4242,
            wide_screen(), n_bootstrap=10,
        )
        assert math.isnan(report.pooled_estimate.shift)
        assert report.pooled_estimate.visibility < 0.05
        # the branch-separated view still resolves full-magnitude shifts
        assert not math.isnan(report.branch1.estimate.shift)
        assert not math.isnan(report.branch2.estimate.shift)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the fixed VISIBILITY_FLOOR passes a fringe-free "
                                           "pool's shot-noise contrast, 0.046-0.078 at 1e5 detections")
    def test_a_fringe_free_pool_is_unmeasured_at_the_default_count(self):
        # quarter-turn branches at equal weights: the pool has no fringes, so at
        # most one seed in 20 may read its noise as a measured contrast
        reports = [run_experiment(antisymmetric_config(delta=math.pi / 2.0), EQUAL_WEIGHTS, 100_000, seed,
                                  wide_screen(), n_bootstrap=0) for seed in range(20)]
        assert sum(math.isnan(report.pooled_estimate.shift) for report in reports) >= 19

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a row of a few detections reads contrast 1.0 "
                                           "and passes the fixed VISIBILITY_FLOOR")
    def test_a_row_of_a_few_detections_is_unmeasured(self):
        # 8 electrons, seed 5: branch 1 holds 4 detections and the pool 8
        cfg = RunConfig({"n_electrons": 8, "seed": 5})
        assert cfg.validate() == []
        report = run_experiment(cfg.objects["apparatus"], cfg.objects["amplitudes"], cfg["n_electrons"],
                                cfg["seed"], cfg.objects["screen"])
        assert report.branch1.count == 4
        assert math.isnan(report.branch1.estimate.shift) and math.isnan(report.pooled_estimate.shift)

    def test_the_branch_bootstrap_sigma_is_calibrated(self):
        # With an honest sigma, each branch z = (estimate - predicted shift) / sigma
        # is about N(0, 1), and the 40 z of 20 seeds x 2 branches are about
        # independent (disjoint electrons, separate bootstrap streams), so
        # S = sum z^2 is about chi-square with k = 40 degrees of freedom, and
        # `chi_square_bounds` gives about 17.8 and 73.5.  A sigma off by a factor
        # f scales S by 1/f^2: halved, S is about 160 on average.
        reports = seed_batch()
        branches = [branch for report in reports for branch in (report.branch1, report.branch2)]
        # every branch row is measured, with a sigma to judge it by (a nan sigma fails too)
        assert len(branches) == 40 and all(b.estimate.uncertainty > 0.0 for b in branches)
        z = [(b.estimate.shift - b.outcome.shift) / b.estimate.uncertainty for b in branches]
        low, high = chi_square_bounds(len(z))
        assert low < sum(value * value for value in z) < high

    def test_the_mean_and_pooled_sigmas_are_calibrated(self):
        # At weights 0.7 and 0.3, for each of 20 seeds: z = (mean_shift - the
        # mixture mean of the branch shifts) / mean_shift_sigma, and z = (pooled
        # shift - the shift at the phasor's arg, as in TestPooledPhasorLaw) /
        # pooled sigma.  The 20 runs share no electron, so with honest sigmas
        # each S = sum z^2 is about chi-square with k = 20 degrees of freedom,
        # and `chi_square_bounds` gives about 5.8 and 45.4.  Halved, a sigma
        # makes its S about 80 on average.
        c1, c2 = [math.sqrt(0.7), 0.0], [math.sqrt(0.3), 0.0]
        reports = seed_batch({"amplitudes": {"c1": c1, "c2": c2}})
        amplitudes = BranchAmplitudes(c1=complex(*c1), c2=complex(*c2))
        mean_z, pooled_z = [], []
        for report in reports:
            branches = (report.branch1, report.branch2)
            expected = mixture_mean(amplitudes, *(b.outcome.shift for b in branches))
            mean_z.append((report.mean_shift - expected) / report.mean_shift_sigma)
            z = phasor([b.count / BATCH_N for b in branches], [b.outcome.phase for b in branches])
            pooled = report.pooled_estimate
            pooled_z.append((pooled.shift - shift_at(math.atan2(z.imag, z.real))) / pooled.uncertainty)
        # every mean and pool is measured, with a sigma to judge it by (a nan sigma fails too)
        assert all(r.mean_shift_sigma > 0.0 and r.pooled_estimate.uncertainty > 0.0 for r in reports)
        low, high = chi_square_bounds(20)
        for z in (mean_z, pooled_z):
            assert low < sum(value * value for value in z) < high


BATCH_N = 10_000


def seed_batch(data=None):
    """The reports of `data`'s config on a 520-cell screen at BATCH_N electrons,
    seeds 0-19; 520 cells (32 a period) keep the 20 runs under a second."""
    cfg = RunConfig({"screen": {"n": 520}, **(data or {})})
    assert cfg.validate() == []
    return [run_experiment(cfg.objects["apparatus"], cfg.objects["amplitudes"], BATCH_N, seed, cfg.objects["screen"])
            for seed in range(20)]


def chi_square_bounds(k):
    """The 1e-3 and 1 - 1e-3 quantiles of chi-square with k degrees of freedom,
    so that a sum of k squared N(0, 1) z fails them with probability 2e-3.
    Wilson and Hilferty (1931): (S/k)^(1/3) is about normal with mean
    1 - 2/(9k) and variance 2/(9k), so the p quantile is
    k (1 - 2/(9k) + z_p sqrt(2/(9k)))^3."""
    v = 2.0 / (9.0 * k)
    return tuple(k * (1.0 - v + statistics.NormalDist().inv_cdf(p) * math.sqrt(v)) ** 3 for p in (1e-3, 1.0 - 1e-3))


def phasor(weights, phases):
    """z = sum of p_k exp(i phi_k): a mixture of fringes (1 + cos(t + phi_k))
    with weights p_k is the fringe (1 + |z| cos(t + arg z))."""
    return sum(p * complex(math.cos(phi), math.sin(phi)) for p, phi in zip(weights, phases, strict=True))


def shift_at(phase):
    """The closed-form fringe translation of a phase difference, m."""
    return fringe_shift(CONSTANTS, GEOMETRY, phase * CONSTANTS.hbar / CONSTANTS.e)


class TestPooledPhasorLaw:
    # the branch-blind view shows one fringe at the phasor's phase, not at
    # the mixture mean of the branch phases
    @pytest.mark.parametrize(
        "p1, phases",
        [(p1, (d, -d)) for p1 in (0.5, 0.6, 0.75, 0.9, 0.97) for d in (0.3, 0.8, 1.0, 1.4, 2.0)]
        + [(0.6, (1.1, -0.4))],   # one asymmetric flux pair
    )
    def test_mixture_pattern_is_the_phasor_fringe(self, p1, phases):
        optics = wide_screen()
        amplitudes = BranchAmplitudes(c1=complex(math.sqrt(p1)), c2=complex(math.sqrt(1.0 - p1)))
        branches = [pattern.two_slit_pattern(optics, phi) for phi in phases]
        mixed = pattern.mixture_pattern(amplitudes, *branches)
        z = phasor((amplitudes.p1, amplitudes.p2), phases)
        assert abs(pattern.visibility(mixed) - abs(z)) <= 1e-3
        reference = pattern.two_slit_pattern(optics, 0.0)
        estimate = pattern.estimate_shift(mixed, reference)
        # arg z = pi (p1 = 0.5, delta = 2) is half a period either way: compare modulo the period
        offset = (estimate.shift - shift_at(math.atan2(z.imag, z.real)) + PERIOD / 2.0) % PERIOD - PERIOD / 2.0
        assert abs(offset) <= optics.grid.dx / 2.0

    def test_pooled_shift_follows_the_phasor_not_the_mean(self):
        p1 = 0.75
        amplitudes = BranchAmplitudes(c1=complex(math.sqrt(p1)), c2=complex(math.sqrt(1.0 - p1)))
        n = 100_000
        report = run_experiment(antisymmetric_config(1.0), amplitudes, n, 4242, wide_screen(),
                                n_bootstrap=50)
        branches = (report.branch1, report.branch2)
        z = phasor([b.count / n for b in branches], [b.outcome.phase for b in branches])
        pooled = report.pooled_estimate
        predicted = shift_at(math.atan2(z.imag, z.real))
        assert abs(pooled.shift - predicted) <= wide_screen().grid.dx / 2.0 + 3.0 * pooled.uncertainty
        mixture_mean = p1 * branches[0].outcome.shift + (1.0 - p1) * branches[1].outcome.shift
        assert abs(report.mean_shift - mixture_mean) <= 3.0 * report.mean_shift_sigma
        sigma = math.hypot(pooled.uncertainty, report.mean_shift_sigma)
        assert abs(pooled.shift - report.mean_shift) > 10.0 * sigma


class TestConvergence:
    def test_errors_shrink_as_inverse_root_n(self):
        # mean error over 20 seeds at n vs 16n; O(1/sqrt(n)) predicts 4
        config = antisymmetric_config()
        screen = wide_screen(1024)

        def mean_errors(n, seeds):
            frequency, shift = [], []
            for seed in seeds:
                report = run_experiment(
                    config, EQUAL_WEIGHTS, n, seed, screen, n_bootstrap=0
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
            mixture, EQUAL_WEIGHTS, 100_000, 4242, wide_screen(), n_bootstrap=50
        )
        for branch in (report.branch1, report.branch2):
            estimate = branch.estimate
            assert abs(estimate.shift) > 5.0 * estimate.uncertainty
        assert report.branch1.estimate.shift * report.branch2.estimate.shift < 0.0
        assert report.pooled_estimate.visibility == pytest.approx(abs(math.cos(delta)), abs=0.05)


class TestReportText:
    def test_a_branch_with_detections_but_no_estimate_prints_nan(self):
        # 8 electrons, seed 5: branch 2's 4 detections have a contrast at or
        # below the floor; its estimate keeps that contrast, the report prints nan
        report = run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 8, 5, wide_screen())
        assert report.branch2.count > 0
        assert math.isfinite(report.branch2.estimate.visibility)
        assert report.branch2.estimate.visibility <= pattern.VISIBILITY_FLOOR
        lines = report_text(report).splitlines()
        for key in ("estimated_shift_m", "estimated_shift_sigma_m", "visibility"):
            assert f"branch2.{key} = nan" in lines

    def test_a_washed_out_pool_prints_its_visibility_and_is_not_measurable(self):
        screen = wide_screen()
        report = run_experiment(antisymmetric_config(math.pi / 2.0), EQUAL_WEIGHTS, 1_000_000, 11, screen,
                                n_bootstrap=0)
        reference = pattern.two_slit_pattern(screen, 0.0)
        estimator = pattern.ShiftEstimator(reference)
        _, visibilities = estimator.shifts(report.pooled_histogram.intensity[np.newaxis])
        lines = report_text(report).splitlines()
        assert "pooled.shift_m = nan" in lines and "pooled.measurable = false" in lines
        assert f"pooled.visibility = {float(visibilities[0])!r}" in lines
        assert report.pooled_estimate.visibility == visibilities[0]

    def test_a_measured_pool_without_resamples_is_measurable(self):
        # with no resamples the pool's 1-sigma is nan; measurable follows its shift
        report = run_experiment(antisymmetric_config(), EQUAL_WEIGHTS, 100_000, 11, wide_screen(), n_bootstrap=0)
        lines = report_text(report).splitlines()
        assert math.isfinite(report.pooled_estimate.shift)
        assert "pooled.shift_sigma_m = nan" in lines and "pooled.measurable = true" in lines

    def test_flat_key_value_layout(self):
        report = run_experiment(
            antisymmetric_config(), EQUAL_WEIGHTS, 2000, 5, wide_screen(1024),
            n_bootstrap=0,
        )
        text = report_text(report)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert all(" = " in line for line in lines)
        keys = [line.split(" = ")[0] for line in lines]
        assert "branch1.count" in keys
        assert "branch2.predicted_shift_m" in keys
        assert "pooled.visibility" in keys
        assert "mean_shift_m" in keys
        assert len(keys) == len(set(keys))
