import cmath
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from abmix import current
from abmix.core import Grid, PhysicalConstants
from abmix.current import (
    MIN_SAMPLES,
    GridWavefunction,
    current_density,
    current_table,
    ensemble_current,
    gaussian_packet,
    mixture_current_check,
    overlap,
    plane_wave,
    plane_wave_check,
    pointwise_product_max,
    superpose,
    wavefunction_table,
)
from abmix.dual import BranchAmplitudes
from abmix.errors import InterferenceError, ValidationError

CONSTANTS = PhysicalConstants()
POSITIVE_FINITE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
ROOT_HALF = 1.0 / math.sqrt(2.0)
EQUAL_WEIGHTS = BranchAmplitudes(ROOT_HALF, ROOT_HALF)
FIRST_BRANCH = BranchAmplitudes(1.0, 0.0)


def disjoint_packets(n=4096, width=16.0, separation=None, k1=1.5, k2=-1.5):
    """Counter-propagating packets far enough apart for non-interference."""
    separation = separation if separation is not None else 12.0 * width
    half = separation / 2.0 + 8.0 * width
    grid = Grid(-half, half, n)
    psi1 = gaussian_packet(grid, -separation / 2.0, width, k1)
    psi2 = gaussian_packet(grid, +separation / 2.0, width, k2)
    return psi1, psi2


class TestGridWavefunction:
    def test_rejects_small_grid(self):
        with pytest.raises(ValidationError):
            GridWavefunction(Grid(0.0, 0.6, 7), samples=np.ones(7, dtype=complex))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValidationError):
            GridWavefunction(Grid(0.0, 0.0, 16), samples=np.ones(16, dtype=complex))

    def test_rejects_non_finite_samples(self):
        samples = np.ones(16, dtype=complex)
        samples[3] = complex("nan")
        with pytest.raises(ValidationError, match="finite"):
            GridWavefunction(Grid(0.0, 1.5, 16), samples=samples)

    def test_grid_positions(self):
        psi = GridWavefunction(Grid(-1.0, 2.5, 8), samples=np.ones(8, dtype=complex))
        assert np.allclose(psi.grid.positions, -1.0 + 0.5 * np.arange(8))

    def test_samples_are_read_only(self):
        psi = plane_wave(Grid(0.0, 6.3, 64), 1.0)
        with pytest.raises(ValueError):
            psi.samples[0] = 0.0


class TestFactories:
    def test_a_plane_wave_whose_discretization_bound_overflows_is_refused(self):
        grid = Grid(-256.0, 256.0, 4096)
        with pytest.raises(ValidationError, match=r"plane wave with k 1e\+200: \(k d_eta\)\^2 overflows"):
            plane_wave(grid, 1e200)
        assert math.isfinite(plane_wave_check(plane_wave(grid, 1e100), 1e100, CONSTANTS)[2])

    @pytest.mark.parametrize("width", [0.0, -16.0, math.inf, math.nan])
    def test_a_packet_width_that_is_not_finite_and_positive_is_refused(self, width):
        # an inf width would give a flat packet, a plane wave that normalizes
        with pytest.raises(ValidationError, match=f"packet width must be finite and positive, got {width!r}"):
            gaussian_packet(Grid(-256.0, 256.0, 4096), 0.0, width, 1.5)

    def test_a_packet_whose_weight_is_subnormal_is_refused(self):
        # its weight, 2.7e-316, has lost digits: divided by its root the packet's
        # norm would be off by 9e-9, which superpose's NORM_TOL refuses
        with pytest.raises(ValidationError, match=r"weight 2\.\d+e-316 .*: it cannot be normalized"):
            gaussian_packet(Grid(-256.0, 256.0, 4096), -687.0, 16.0, 1.5)
        assert abs(gaussian_packet(Grid(-256.0, 256.0, 4096), -680.0, 16.0, 1.5).norm_squared - 1.0) <= 1e-9


class TestOverlap:
    def test_self_overlap_is_one(self):
        psi, _ = disjoint_packets(n=1024)
        assert abs(overlap(psi, psi) - 1.0) < 1e-9

    def test_scalar_linearity(self):
        psi, _ = disjoint_packets(n=1024)
        rotated = GridWavefunction(psi.grid, 1j * psi.samples)
        assert overlap(psi, rotated) == pytest.approx(1j, abs=1e-9)

    def test_twelve_widths_apart_is_negligible(self):
        # analytic bound for equal widths: exp(-s^2 / (4 w^2)) = exp(-36) ~ 2.3e-16
        psi1, psi2 = disjoint_packets(separation=12.0 * 16.0)
        assert abs(overlap(psi1, psi2)) < 1e-12

    def test_grid_mismatch_raises(self):
        psi1, _ = disjoint_packets(n=1024)
        other = plane_wave(Grid(0.0, psi1.grid.span, 1024), 1.0)
        with pytest.raises(ValidationError):
            overlap(psi1, other)


class TestNonInterfering:
    """mixture_current_check's non-interference condition: |overlap| and
    max|psi1 psi2| both below NON_INTERFERENCE_TOL."""

    def test_separated_packets_qualify(self):
        psi1, psi2 = disjoint_packets()
        mixture_current_check(EQUAL_WEIGHTS, psi1, psi2, CONSTANTS)
        assert abs(overlap(psi1, psi2)) < 1e-9
        assert pointwise_product_max(psi1, psi2) < 1e-9

    def test_overlapping_packets_do_not_and_the_message_names_both_measures(self):
        psi1, psi2 = disjoint_packets(separation=2.0 * 16.0, k2=1.5)
        measured = f"|overlap|={abs(overlap(psi1, psi2))!r}, max|psi1*psi2|={pointwise_product_max(psi1, psi2)!r}"
        with pytest.raises(InterferenceError, match=re.escape(measured)):
            mixture_current_check(EQUAL_WEIGHTS, psi1, psi2, CONSTANTS)

    @pytest.mark.parametrize("measure", ["overlap", "pointwise_product_max"])
    def test_a_nan_measure_fails(self, monkeypatch, measure):
        psi1, psi2 = disjoint_packets(n=1024)
        monkeypatch.setattr(current, measure, lambda a, b: math.nan)
        with pytest.raises(InterferenceError, match="=nan"):
            mixture_current_check(EQUAL_WEIGHTS, psi1, psi2, CONSTANTS)

    # packets of one k two widths apart fail both measures; packets of opposite
    # k are orthogonal, so co-located ones fail the pointwise product only
    @pytest.mark.parametrize("separation, k2", [(2.0 * 16.0, 1.5), (0.0, -1.5)], ids=["both", "product_only"])
    def test_each_measure_is_computed_once_on_the_failure_path(self, monkeypatch, separation, k2):
        psi1, psi2 = disjoint_packets(n=1024, separation=separation, k2=k2)
        calls = {}
        for name in ("overlap", "pointwise_product_max"):
            def counted(a, b, measure=getattr(current, name), name=name):
                calls[name] = calls.get(name, 0) + 1
                return measure(a, b)

            monkeypatch.setattr(current, name, counted)
        with pytest.raises(InterferenceError):
            mixture_current_check(EQUAL_WEIGHTS, psi1, psi2, CONSTANTS)
        assert calls == {"overlap": 1, "pointwise_product_max": 1}


class TestSuperpose:
    def test_pure_branch_returns_first_input(self):
        psi1, psi2 = disjoint_packets(n=1024)
        combined = superpose(FIRST_BRANCH, psi1, psi2)
        assert np.array_equal(combined.samples, psi1.samples)

    def test_disjoint_equal_weights_stay_normalized(self):
        psi1, psi2 = disjoint_packets()
        combined = superpose(EQUAL_WEIGHTS, psi1, psi2)
        assert abs(combined.norm_squared - 1.0) < 1e-9

    def test_identical_branches_double_the_norm(self):
        # analytic: |c1 psi + c2 psi|^2 integrates to |c1 + c2|^2 = 2
        psi, _ = disjoint_packets(n=1024)
        combined = superpose(EQUAL_WEIGHTS, psi, psi)
        assert combined.norm_squared == pytest.approx(2.0, rel=1e-9)

    def test_rejects_unnormalized_branch(self):
        psi, _ = disjoint_packets(n=1024)
        doubled = GridWavefunction(psi.grid, 2.0 * psi.samples)
        with pytest.raises(ValidationError):
            superpose(EQUAL_WEIGHTS, psi, doubled)


class TestCurrent:
    def test_real_wavefunction_carries_no_current(self):
        psi1, _ = disjoint_packets(n=1024, k1=0.0)
        j = current_density(psi1, CONSTANTS)
        assert np.all(j == 0.0)

    def test_plane_wave_matches_analytic_current(self):
        k = 2.0
        n = 2048
        spacing = 100.0 / n
        psi = plane_wave(Grid(0.0, spacing * (n - 1), n), k)
        j = current_density(psi, CONSTANTS)
        analytic = (CONSTANTS.e * CONSTANTS.hbar * k / CONSTANTS.m) * np.abs(psi.samples) ** 2
        # second-order stencils: interior (k d_eta)^2/6, one-sided ends (k d_eta)^2/3
        bound = 0.4 * (k * spacing) ** 2 * float(np.max(np.abs(analytic)))
        deviation = float(np.max(np.abs(j - analytic)))
        assert deviation < bound
        assert plane_wave_check(psi, k, CONSTANTS)[1:] == (deviation, bound)

    def test_gaussian_packet_matches_analytic_current(self):
        # envelope is real, so j = e hbar k / m |psi|^2 exactly in the continuum
        psi, _ = disjoint_packets(k1=1.5)
        j = current_density(psi, CONSTANTS)
        analytic = (CONSTANTS.e * CONSTANTS.hbar * 1.5 / CONSTANTS.m) * np.abs(psi.samples) ** 2
        bound = 0.4 * (1.5 * psi.grid.dx) ** 2 * float(np.max(np.abs(analytic)))
        assert float(np.max(np.abs(j - analytic))) < bound

    def test_conjugation_flips_the_sign(self):
        psi, _ = disjoint_packets(n=1024)
        conjugated = GridWavefunction(psi.grid, np.conj(psi.samples))
        j = current_density(psi, CONSTANTS)
        j_conj = current_density(conjugated, CONSTANTS)
        assert np.array_equal(j_conj, -j)

    @settings(max_examples=25, deadline=None)
    @given(theta=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_global_phase_leaves_current_unchanged(self, theta):
        psi, _ = disjoint_packets(n=512)
        rotated = GridWavefunction(psi.grid, cmath.exp(1j * theta) * psi.samples)
        j = current_density(psi, CONSTANTS)
        j_rotated = current_density(rotated, CONSTANTS)
        scale = float(np.max(np.abs(j)))
        assert float(np.max(np.abs(j_rotated - j))) <= 1e-13 * scale

    # the bracket's two products differ only by exact sign flips, so its real
    # part is exactly 0 and, times the purely imaginary prefactor, so is the
    # imaginary part of every finite sample of j: no residue is left to check
    @settings(max_examples=60, deadline=None)
    @given(
        samples=arrays(complex, st.integers(MIN_SAMPLES, 512), elements=st.complex_numbers(
            min_magnitude=1e-150, max_magnitude=1e150, allow_nan=False, allow_infinity=False)),
        spacing=st.floats(1e-100, 1e100),
        hbar=POSITIVE_FINITE,
        e=POSITIVE_FINITE,
        m=POSITIVE_FINITE,
    )
    def test_a_finite_current_is_exactly_real(self, samples, spacing, hbar, e, m):
        psi = GridWavefunction(Grid(0.0, spacing * (len(samples) - 1), len(samples)), samples)
        constants = SimpleNamespace(hbar=hbar, e=e, m=m)   # any positive triple; h is not read
        prefactor = 1j * hbar * e / (2.0 * m)
        with np.errstate(all="ignore"):
            dpsi = current._derivative(psi.samples, psi.grid.dx)
            j_complex = prefactor * (psi.samples * np.conj(dpsi) - np.conj(psi.samples) * dpsi)
        finite = np.isfinite(j_complex)
        assert np.all(j_complex.imag[finite] == 0.0)
        if finite.all():
            assert np.array_equal(current_density(psi, constants), j_complex.real)
        else:
            with pytest.raises(ArithmeticError, match="current is not finite"):
                current_density(psi, constants)

    def test_halving_spacing_cuts_error_by_at_least_3_5(self):
        k = 2.0
        errors = {}
        for n in (2048, 4096):
            spacing = 100.0 / n
            psi = plane_wave(Grid(0.0, spacing * (n - 1), n), k)
            j = current_density(psi, CONSTANTS)
            analytic = (CONSTANTS.e * CONSTANTS.hbar * k / CONSTANTS.m) * np.abs(psi.samples) ** 2
            errors[n] = float(np.max(np.abs(j - analytic)))
        assert errors[2048] / errors[4096] >= 3.5


class TestMixtureCurrentCheck:
    def test_disjoint_counter_propagating_decomposition(self):
        psi1, psi2 = disjoint_packets()
        j_total, j_mixture, deviation, bound, abs_overlap = mixture_current_check(
            EQUAL_WEIGHTS, psi1, psi2, CONSTANTS)
        j1 = current_density(psi1, CONSTANTS)
        j2 = current_density(psi2, CONSTANTS)
        scale = max(float(np.max(np.abs(j1))), float(np.max(np.abs(j2))))
        assert deviation < 1e-9 * scale
        assert bound == 1e-9 * scale
        assert abs_overlap == abs(overlap(psi1, psi2))
        assert np.allclose(
            j_mixture, 0.5 * j1 + 0.5 * j2, rtol=1e-12, atol=0.0
        )

    def test_pure_branch_total_equals_branch_current(self):
        psi1, psi2 = disjoint_packets(n=1024)
        j_total, _, _, _, _ = mixture_current_check(FIRST_BRANCH, psi1, psi2, CONSTANTS)
        j1 = current_density(psi1, CONSTANTS)
        assert np.array_equal(j_total, j1)

    def test_overlapping_packets_are_refused(self):
        psi1, psi2 = disjoint_packets(separation=2.0 * 16.0)
        with pytest.raises(InterferenceError, match="non-interference"):
            mixture_current_check(EQUAL_WEIGHTS, psi1, psi2, CONSTANTS)

    def test_bypassing_the_check_exposes_the_cross_term(self):
        # contrapositive: for overlapping branches the decomposition fails
        psi1, psi2 = disjoint_packets(separation=2.0 * 16.0)
        total = superpose(EQUAL_WEIGHTS, psi1, psi2)
        j_total = current_density(total, CONSTANTS)
        j1 = current_density(psi1, CONSTANTS)
        j2 = current_density(psi2, CONSTANTS)
        mixture = 0.5 * j1 + 0.5 * j2
        scale = max(float(np.max(np.abs(j1))), float(np.max(np.abs(j2))))
        assert float(np.max(np.abs(j_total - mixture))) > 1e-3 * scale


class TestCurrentCost:
    def test_every_current_is_an_owned_contiguous_float_array(self):
        # 8 bytes a point, and no view that keeps a 16-byte complex bracket
        # alive: config.WIRE_N_MAX counts on at most 16 bytes a wire point
        psi1, psi2 = disjoint_packets(n=1024)
        j_total, j_mixture, _, _, _ = mixture_current_check(EQUAL_WEIGHTS, psi1, psi2, CONSTANTS)
        wave = plane_wave(Grid(0.0, 99.0, 1024), 2.0)
        currents = {
            "current_density": current_density(psi1, CONSTANTS),
            "mixture_current_check total": j_total,
            "mixture_current_check mixture": j_mixture,
            "plane_wave_check": plane_wave_check(wave, 2.0, CONSTANTS)[0],
            "ensemble_current": ensemble_current(1000, j_total),
        }
        for name, j in currents.items():
            assert isinstance(j, np.ndarray) and j.dtype == np.float64 and j.shape == (1024,), name
            assert j.flags.c_contiguous and j.flags.owndata, name
            assert j.nbytes == 8 * 1024, name


class TestEnsembleCurrent:
    def test_single_electron_is_identity(self):
        psi, _ = disjoint_packets(n=1024)
        j = current_density(psi, CONSTANTS)
        assert np.array_equal(ensemble_current(1, j), j)

    def test_scaling_by_ten(self):
        j = np.full(32, 2.5)
        assert np.array_equal(ensemble_current(10, j), np.full(32, 25.0))

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_rejects_non_positive_counts(self, bad):
        j = np.zeros(16)
        with pytest.raises(ValidationError):
            ensemble_current(bad, j)

    @pytest.mark.parametrize("n", [int(1e308), 10**400], ids=["product_overflows", "size_overflows"])
    def test_rejects_a_current_that_is_not_finite(self, n):
        j = np.linspace(0.0, 1e30, 16)
        with pytest.raises(ArithmeticError, match="ensemble current is not finite"):
            ensemble_current(n, j)

    def test_ensemble_decomposes_linearly(self):
        # brute force: n * (mixture of j1, j2) vs mixture of (n j1, n j2)
        psi1, psi2 = disjoint_packets()
        _, j_mixture, _, _, _ = mixture_current_check(EQUAL_WEIGHTS, psi1, psi2, CONSTANTS)
        j1 = current_density(psi1, CONSTANTS)
        j2 = current_density(psi2, CONSTANTS)
        n = 1000
        left = ensemble_current(n, j_mixture)
        right = 0.5 * ensemble_current(n, j1) + 0.5 * ensemble_current(n, j2)
        assert np.allclose(left, right, rtol=1e-12, atol=0.0)


class TestSerialization:
    def test_wavefunction_table_columns(self):
        psi = plane_wave(Grid(0.0, 1.75, 8), 1.0)
        lines = wavefunction_table(psi).splitlines()
        assert lines[0] == "eta_m,re_psi,im_psi"
        assert len(lines) == 9
        eta, re, im = (float(part) for part in lines[3].split(","))
        assert eta == pytest.approx(0.5)
        assert complex(re, im) == pytest.approx(complex(psi.samples[2]))

    def test_current_table_columns(self):
        lines = current_table(Grid(-1.0, 2.5, 8), np.arange(8.0)).splitlines()
        assert lines[0] == "eta_m,j_A"
        assert lines[1] == "-1.0,0.0"
        assert len(lines) == 9
