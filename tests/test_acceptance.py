"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is stated inline; nothing is deferred to later
calibration.
"""

import math
import time

import numpy as np

from abmix.core import (
    HBAR,
    ApparatusGeometry,
    Grid,
    PhysicalConstants,
    Solenoid,
    fringe_period,
    fringe_shift,
    fringe_shift_classical_form,
)
from abmix.current import current_density, gaussian_packet, mixture_current_check, plane_wave
from abmix.dual import BranchAmplitudes, DualSolenoidConfig, classical_totals, outcome_distribution
from abmix.experiment import report_text, run_experiment
from abmix.pattern import ScreenOptics, estimate_shift, mixture_pattern, two_slit_pattern, visibility

CONSTANTS = PhysicalConstants()
GEOMETRY = ApparatusGeometry(screen_distance=1.0, slit_separation=1e-5, speed=1e6)
PERIOD = fringe_period(CONSTANTS, GEOMETRY)
ENVELOPE = 2.5 * PERIOD
RADIUS = 2.5e-7
ROOT_HALF = 1.0 / math.sqrt(2.0)
EQUAL_WEIGHTS = BranchAmplitudes(c1=complex(ROOT_HALF), c2=complex(ROOT_HALF))
SCREEN = Grid(x_min=-8.0 * PERIOD, x_max=8.0 * PERIOD, n=4096)


def antisymmetric_config(delta=1.0):
    field = delta * (CONSTANTS.hbar / CONSTANTS.e) / (math.pi * RADIUS**2)
    return DualSolenoidConfig(
        solenoid1=Solenoid(field=field, radius=RADIUS),
        solenoid2=Solenoid(field=-field, radius=RADIUS),
        geometry=GEOMETRY,
        constants=CONSTANTS,
    )


def _verdict(number, description, ok, elapsed, limit):
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[acceptance] criterion {number}: {status} - {description} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert in_time, f"criterion {number} exceeded its {limit}s budget: {elapsed:.2f}s"


def test_criterion_1_dual_form_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(20240601)
    worst = 0.0
    for _ in range(1000):
        geometry = ApparatusGeometry(
            screen_distance=10.0 ** rng.uniform(-1.0, 1.0),
            slit_separation=10.0 ** rng.uniform(-6.0, -3.0),
            speed=10.0 ** rng.uniform(4.0, 8.0),
        )
        flux_wb = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-20.0, -12.0)
        quantum = fringe_shift(CONSTANTS, geometry, flux_wb)
        classical = fringe_shift_classical_form(CONSTANTS, geometry, flux_wb)
        worst = max(worst, abs(quantum - classical) / abs(classical))
    _verdict(1, f"two fringe-shift forms agree to 1e-12 relative (worst {worst:.2e})",
             worst < 1e-12, time.perf_counter() - start, 1.0)


def test_criterion_2_planck_constant_cancels():
    start = time.perf_counter()
    base = fringe_shift(CONSTANTS, GEOMETRY, 2e-15)
    scaled = [PhysicalConstants(hbar=hbar, h=2.0 * math.pi * hbar) for hbar in (0.1 * HBAR, 10.0 * HBAR)]
    worst = max(abs(fringe_shift(constants, GEOMETRY, 2e-15) - base) / abs(base) for constants in scaled)
    _verdict(2, f"scaling hbar by 0.1 and 10 changes the shift by < 1e-12 (worst {worst:.2e})",
             worst < 1e-12, time.perf_counter() - start, 1.0)


def test_criterion_3_classical_antisymmetric_case_is_exactly_zero():
    start = time.perf_counter()
    beta = 3.0e-3
    config = DualSolenoidConfig(
        solenoid1=Solenoid(field=+beta / 2.0, radius=RADIUS),
        solenoid2=Solenoid(field=-beta / 2.0, radius=RADIUS),
        geometry=GEOMETRY,
        constants=CONSTANTS,
    )
    dphi, dx = classical_totals(config)
    _verdict(3, "classical +-beta/2 fields give bitwise dphi = 0 and dx = 0",
             dphi == 0.0 and dx == 0.0, time.perf_counter() - start, 1.0)


def test_criterion_4_mixture_two_point_law():
    start = time.perf_counter()
    outcomes = outcome_distribution(antisymmetric_config(), EQUAL_WEIGHTS)
    delta = outcomes[0].phase
    epsilon = outcomes[0].shift
    mean_shift = sum(o.probability * o.shift for o in outcomes)
    mean_phase = sum(o.probability * o.phase for o in outcomes)
    ok = (
        abs(outcomes[0].probability - 0.5) < 1e-12
        and abs(outcomes[1].probability - 0.5) < 1e-12
        and delta > 0.0
        and epsilon < 0.0
        and outcomes[1].phase == -delta
        and outcomes[1].shift == -epsilon
        and abs(mean_shift) <= 1e-12 * abs(epsilon)
        and abs(mean_phase) <= 1e-12 * abs(delta)
    )
    _verdict(4, "equal weights + antisymmetric fluxes give the half/half +-(delta, epsilon) law "
                f"with zero mean (|mean| = {abs(mean_shift):.2e})",
             ok, time.perf_counter() - start, 1.0)


def test_criterion_5_current_decomposition_and_convergence():
    start = time.perf_counter()
    width = 16.0
    separation = 12.0 * width
    half = separation / 2.0 + 8.0 * width
    wire = Grid(-half, half, 4096)
    psi1 = gaussian_packet(wire, -separation / 2.0, width, +1.5)
    psi2 = gaussian_packet(wire, +separation / 2.0, width, -1.5)
    _, _, deviation, _, _ = mixture_current_check(EQUAL_WEIGHTS, psi1, psi2, CONSTANTS)
    scale = max(
        float(np.max(np.abs(current_density(psi1, CONSTANTS)))),
        float(np.max(np.abs(current_density(psi2, CONSTANTS)))),
    )
    decomposition_ok = deviation < 1e-9 * scale

    k = 2.0
    errors = {}
    for n in (2048, 4096):
        step = 100.0 / n
        wave = plane_wave(Grid(0.0, step * (n - 1), n), k)
        j = current_density(wave, CONSTANTS)
        analytic = (CONSTANTS.e * CONSTANTS.hbar * k / CONSTANTS.m) * np.abs(wave.samples) ** 2
        errors[n] = float(np.max(np.abs(j - analytic)))
    ratio = errors[2048] / errors[4096]
    _verdict(5, f"12-sigma packets decompose below 1e-9 * max|j_k| "
                f"(dev/scale = {deviation / scale:.2e}) and the plane-wave error "
                f"drops by {ratio:.2f} when d_eta halves",
             decomposition_ok and ratio >= 3.5, time.perf_counter() - start, 5.0)


def test_criterion_6_estimator_recovery():
    start = time.perf_counter()
    reference = two_slit_pattern(ScreenOptics(SCREEN, PERIOD, ENVELOPE), 0.0)
    worst = 0.0
    for phase in (0.1, 0.5, 1.0, 2.0):
        pattern = two_slit_pattern(ScreenOptics(SCREEN, PERIOD, ENVELOPE), phase)
        expected = fringe_shift(CONSTANTS, GEOMETRY, phase * CONSTANTS.hbar / CONSTANTS.e)
        worst = max(worst, abs(estimate_shift(pattern, reference).shift - expected))
    _verdict(6, f"synthesized shifts recovered within dx/2 = {SCREEN.dx / 2.0:.2e} m "
                f"(worst error {worst:.2e} m)",
             worst < SCREEN.dx / 2.0, time.perf_counter() - start, 5.0)


def test_criterion_7_mixture_visibility_law():
    start = time.perf_counter()
    worst = 0.0
    for delta in np.linspace(0.0, math.pi, 20):
        one = two_slit_pattern(ScreenOptics(SCREEN, PERIOD, ENVELOPE), +delta)
        two = two_slit_pattern(ScreenOptics(SCREEN, PERIOD, ENVELOPE), -delta)
        mixed = mixture_pattern(EQUAL_WEIGHTS, one, two)
        worst = max(worst, abs(visibility(mixed) - abs(math.cos(delta))))
    _verdict(7, f"equal-weight +-delta mixtures have visibility |cos delta| within 1e-3 "
                f"over a 20-point sweep (worst {worst:.2e})",
             worst < 1e-3, time.perf_counter() - start, 5.0)


def test_criterion_8_monte_carlo_experiment():
    start = time.perf_counter()
    n = 100_000
    seed = 4242
    config = antisymmetric_config()
    kwargs = dict(config=config, amplitudes=EQUAL_WEIGHTS, n_electrons=n, seed=seed,
                  optics=ScreenOptics(SCREEN, PERIOD, ENVELOPE))
    report = run_experiment(**kwargs)
    rerun = run_experiment(**kwargs)

    count_window = 3.0 * math.sqrt(n / 4.0)
    counts_ok = (
        abs(report.branch1.count - n / 2.0) <= count_window
        and abs(report.branch2.count - n / 2.0) <= count_window
    )
    branch_ok = all(
        abs(branch.estimate.shift - branch.outcome.shift)
        <= SCREEN.dx / 2.0 + 3.0 * branch.estimate.uncertainty
        for branch in (report.branch1, report.branch2)
    )
    mean_ok = abs(report.mean_shift) <= 3.0 * report.mean_shift_sigma
    identical = report_text(report) == report_text(rerun)
    _verdict(8, f"n=1e5 run: counts within {count_window:.0f} of n/2, branch shifts within "
                f"dx/2 + 3 bootstrap-sigma of +-epsilon, pooled mean {report.mean_shift:.2e} "
                f"within 3 sigma of 0, rerun byte-identical",
             counts_ok and branch_ok and mean_ok and identical,
             time.perf_counter() - start, 30.0)


def test_criterion_9_classical_vs_mixture_discriminator():
    start = time.perf_counter()
    delta = 1.0
    mixture = antisymmetric_config(delta)

    # classical twin: same magnitude parameters, both windings at half strength
    classical = DualSolenoidConfig(
        solenoid1=Solenoid(field=mixture.solenoid1.field / 2.0, radius=RADIUS),
        solenoid2=Solenoid(field=mixture.solenoid2.field / 2.0, radius=RADIUS),
        geometry=GEOMETRY,
        constants=CONSTANTS,
    )
    classical_dphi, classical_dx = classical_totals(classical)
    classical_pattern = two_slit_pattern(ScreenOptics(SCREEN, PERIOD, ENVELOPE), classical_dphi)
    classical_ok = (
        classical_dphi == 0.0 and classical_dx == 0.0
        and visibility(classical_pattern) > 0.999
    )

    report = run_experiment(mixture, EQUAL_WEIGHTS, 100_000, 4242, ScreenOptics(SCREEN, PERIOD, ENVELOPE))
    epsilon = abs(report.branch1.outcome.shift)
    bimodal_ok = (
        report.branch1.estimate.shift < -5.0 * report.branch1.estimate.uncertainty
        and report.branch2.estimate.shift > +5.0 * report.branch2.estimate.uncertainty
        and abs(abs(report.branch1.estimate.shift) - epsilon)
        <= SCREEN.dx / 2.0 + 3.0 * report.branch1.estimate.uncertainty
        and abs(abs(report.branch2.estimate.shift) - epsilon)
        <= SCREEN.dx / 2.0 + 3.0 * report.branch2.estimate.uncertainty
    )
    visibility_ok = abs(report.pooled_estimate.visibility - abs(math.cos(delta))) <= 0.05
    _verdict(9, "same magnitude parameters: classical case pins shift 0 at full visibility, "
                f"mixture shows bimodal +-{epsilon:.2e} m with pooled visibility "
                f"{report.pooled_estimate.visibility:.3f} ~ |cos {delta}| = {abs(math.cos(delta)):.3f}",
             classical_ok and bimodal_ok and visibility_ok,
             time.perf_counter() - start, 30.0)
