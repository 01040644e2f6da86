import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import abmix
from abmix.core import (
    ApparatusGeometry,
    Grid,
    PhysicalConstants,
    Solenoid,
    de_broglie_wavelength,
    flux,
    fringe_period,
    fringe_shift,
    fringe_shift_classical_form,
    phase_shift,
    require_gaussian_width,
    require_positive,
)
from abmix.errors import ValidationError

CONSTANTS = PhysicalConstants()
GEOMETRY = ApparatusGeometry(screen_distance=1.0, slit_separation=1e-5, speed=1e6)

# frozen independently: h/(m v) and -(L/d)(e/m)(Phi/v) evaluated at 50
# digits with the CODATA 2018 values before the implementation existed
LAMBDA_V1E6 = 7.273895103253709e-10
SHIFT_ORACLE = -3.517640021544326e-05
FLUX_ORACLE = 6.283185307179587e-10

# physical flux magnitudes around the h/e flux quantum; magnitudes far
# below that push intermediate products subnormal, which is out of scope
finite_flux = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-20, max_value=1e-10),
    st.floats(min_value=-1e-10, max_value=-1e-20),
)


def synthetic_constants(e=1.0, m=1.0, hbar=1.0):
    return PhysicalConstants(e=e, m=m, hbar=hbar, h=2.0 * math.pi * hbar)


def planck_scaled(constants, factor):
    """`constants` with hbar, and h = 2*pi*hbar, scaled by `factor`."""
    scaled = factor * constants.hbar
    return replace(constants, hbar=scaled, h=2.0 * math.pi * scaled)


class TestPhysicalConstants:
    def test_defaults_satisfy_planck_pair_identity(self):
        assert abs(CONSTANTS.h - 2.0 * math.pi * CONSTANTS.hbar) <= math.ulp(CONSTANTS.h)

    def test_defaults_positive(self):
        assert CONSTANTS.e > 0 and CONSTANTS.m > 0 and CONSTANTS.hbar > 0 and CONSTANTS.h > 0

    @pytest.mark.parametrize("field,value", [("e", -1.0), ("m", 0.0), ("hbar", float("nan"))])
    def test_rejects_nonpositive(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValidationError, match=f"^constant {field} must be finite and positive, got {value!r}$"):
            PhysicalConstants(**kwargs)

    def test_rejects_inconsistent_planck_pair(self):
        with pytest.raises(ValidationError):
            PhysicalConstants(h=CONSTANTS.h * 1.001)


class TestGeometryAndSolenoid:
    @pytest.mark.parametrize("kwargs", [
        dict(screen_distance=0.0, slit_separation=1e-5, speed=1e6),
        dict(screen_distance=1.0, slit_separation=-1e-5, speed=1e6),
        dict(screen_distance=1.0, slit_separation=1e-5, speed=0.0),
    ])
    def test_rejects_degenerate_geometry(self, kwargs):
        name, value = next((name, value) for name, value in kwargs.items() if value <= 0.0)
        with pytest.raises(ValidationError, match=f"^{name} must be finite and positive, got {value!r}$"):
            ApparatusGeometry(**kwargs)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValidationError, match="^solenoid radius must be finite and positive, got 0.0$"):
            Solenoid(field=1.0, radius=0.0)

    @pytest.mark.parametrize("field", [math.inf, -math.inf, math.nan])
    def test_rejects_a_field_that_is_not_finite(self, field):
        with pytest.raises(ValidationError, match=f"solenoid field must be finite, got {field!r}"):
            Solenoid(field=field, radius=1.0)

    def test_solenoid_area(self):
        assert Solenoid(field=0.0, radius=2.0).area == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_an_area_beyond_the_float_range_is_inf(self):
        # R^2 overflows: an inf area, not an OverflowError
        assert Solenoid(field=0.0, radius=1e200).area == math.inf


class TestMagnitudeRules:
    """The finite-and-positive rule and the Gaussian-width rule, each with its one line."""

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_a_value_that_is_not_finite_and_positive_is_refused(self, value):
        for rule in (require_positive, require_gaussian_width):
            with pytest.raises(ValidationError, match=f"^w must be finite and positive, got {value!r}$"):
                rule("w", value)

    def test_a_width_whose_twice_square_overflows_is_refused(self):
        # w^2 overflows at 1e300; at 9.5e153 it is finite, but 2 w^2 is not
        for width in (1e300, 9.5e153):
            with pytest.raises(ValidationError, match=f"^{re.escape(f'w {width!r} m is too large: 2 w^2 overflows')}$"):
                require_gaussian_width("w", width)
        require_gaussian_width("w", 9.4e153)   # 2 w^2 is finite
        require_positive("w", 1e300)


class TestDeBroglieWavelength:
    def test_a_momentum_that_underflows_gives_an_infinite_wavelength(self):
        # m v underflows to 0: an inf wavelength, not a ZeroDivisionError
        geometry = ApparatusGeometry(screen_distance=1.0, slit_separation=1.0, speed=1e-200)
        assert de_broglie_wavelength(synthetic_constants(m=1e-200), geometry) == math.inf

    def test_unit_momentum_to_h_ratio(self):
        # m v = h in synthetic units
        constants = synthetic_constants()
        geometry = ApparatusGeometry(screen_distance=1.0, slit_separation=1.0, speed=2.0 * math.pi)
        assert de_broglie_wavelength(constants, geometry) == pytest.approx(1.0, rel=1e-15)

    def test_codata_value(self):
        assert de_broglie_wavelength(CONSTANTS, GEOMETRY) == pytest.approx(LAMBDA_V1E6, rel=1e-12)

    @given(speed=st.floats(min_value=1e3, max_value=1e8))
    def test_doubling_speed_halves_wavelength(self, speed):
        slow = ApparatusGeometry(screen_distance=1.0, slit_separation=1e-5, speed=speed)
        fast = ApparatusGeometry(screen_distance=1.0, slit_separation=1e-5, speed=2.0 * speed)
        assert de_broglie_wavelength(CONSTANTS, fast) == pytest.approx(
            de_broglie_wavelength(CONSTANTS, slow) / 2.0, rel=1e-15
        )


class TestFlux:
    def test_zero_field(self):
        assert flux(Solenoid(field=0.0, radius=1.0)) == 0.0

    def test_unit_area_by_construction(self):
        assert flux(Solenoid(field=1.0, radius=1.0 / math.sqrt(math.pi))) == pytest.approx(1.0, rel=1e-15)

    def test_derived_value(self):
        assert flux(Solenoid(field=0.02, radius=1e-4)) == pytest.approx(FLUX_ORACLE, rel=1e-12)

    def test_sign_follows_field(self):
        assert flux(Solenoid(field=-0.02, radius=1e-4)) < 0.0


class TestPhaseShift:
    def test_zero_flux(self):
        assert phase_shift(CONSTANTS, 0.0) == 0.0

    def test_one_radian_at_hbar_over_e(self):
        assert phase_shift(CONSTANTS, CONSTANTS.hbar / CONSTANTS.e) == pytest.approx(1.0, rel=1e-14)

    def test_two_pi_at_h_over_e(self):
        assert phase_shift(CONSTANTS, CONSTANTS.h / CONSTANTS.e) == pytest.approx(
            2.0 * math.pi, rel=1e-14
        )

    @given(flux_wb=finite_flux)
    def test_odd_in_flux(self, flux_wb):
        assert phase_shift(CONSTANTS, -flux_wb) == -phase_shift(CONSTANTS, flux_wb)

    @given(f1=finite_flux, f2=finite_flux,
           a=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10),
                       st.floats(min_value=-10, max_value=-1e-3)),
           b=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10),
                       st.floats(min_value=-10, max_value=-1e-3)))
    def test_linearity(self, f1, f2, a, b):
        combined = phase_shift(CONSTANTS, a * f1 + b * f2)
        split = a * phase_shift(CONSTANTS, f1) + b * phase_shift(CONSTANTS, f2)
        scale = abs(a * phase_shift(CONSTANTS, f1)) + abs(b * phase_shift(CONSTANTS, f2))
        assert abs(combined - split) <= 1e-13 * scale + 1e-300


valid_geometries = st.builds(
    ApparatusGeometry,
    screen_distance=st.floats(min_value=0.1, max_value=10.0),
    slit_separation=st.floats(min_value=1e-6, max_value=1e-3),
    speed=st.floats(min_value=1e4, max_value=1e8),
)


class TestFringeShift:
    def test_zero_flux(self):
        assert fringe_shift(CONSTANTS, GEOMETRY, 0.0) == 0.0

    @given(flux_wb=finite_flux)
    def test_negating_flux_negates_shift(self, flux_wb):
        assert fringe_shift(CONSTANTS, GEOMETRY, -flux_wb) == -fringe_shift(
            CONSTANTS, GEOMETRY, flux_wb
        )

    def test_derived_value_both_forms(self):
        assert fringe_shift(CONSTANTS, GEOMETRY, 2e-15) == pytest.approx(SHIFT_ORACLE, rel=1e-12)
        assert fringe_shift_classical_form(CONSTANTS, GEOMETRY, 2e-15) == pytest.approx(
            SHIFT_ORACLE, rel=1e-12
        )

    @given(geometry=valid_geometries, flux_wb=finite_flux)
    def test_dual_form_identity_within_4_ulp(self, geometry, flux_wb):
        quantum = fringe_shift(CONSTANTS, geometry, flux_wb)
        classical = fringe_shift_classical_form(CONSTANTS, geometry, flux_wb)
        assert abs(quantum - classical) <= 4.0 * math.ulp(max(abs(quantum), abs(classical)))

    @pytest.mark.parametrize("factor", [0.1, 1.0, 10.0])
    def test_hbar_independence_within_8_ulp(self, factor):
        base = fringe_shift(CONSTANTS, GEOMETRY, 2e-15)
        scaled = fringe_shift(planck_scaled(CONSTANTS, factor), GEOMETRY, 2e-15)
        assert abs(scaled - base) <= 8.0 * math.ulp(abs(base))

    def test_classical_form_ignores_planck_scale(self):
        base = fringe_shift_classical_form(CONSTANTS, GEOMETRY, 2e-15)
        scaled = fringe_shift_classical_form(planck_scaled(CONSTANTS, 10.0), GEOMETRY, 2e-15)
        assert scaled == base  # hbar never enters this form


def test_every_public_name_resolves():
    # each top-level name is the very object its defining module holds
    for name in abmix.__all__:
        value = getattr(abmix, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


class TestGrid:
    @pytest.mark.parametrize("n", [4096.0, True, "4096", np.float64(4096.0)],
                             ids=["float", "bool", "str", "numpy_float"])
    def test_rejects_a_non_integer_point_count(self, n):
        with pytest.raises(ValidationError):
            Grid(-1.0, 1.0, n)

    def test_a_grid_needs_two_points(self):
        with pytest.raises(ValidationError, match="^a grid needs at least 2 points, got 1$"):
            Grid(-1.0, 1.0, 1)
        assert Grid(-1.0, 1.0, 2).dx == 2.0

    def test_accepts_a_numpy_integer_point_count(self):
        assert Grid(-1.0, 1.0, np.int64(4096)).positions.shape == (4096,)


def test_fringe_period_is_wavelength_scaled_by_geometry():
    expected = de_broglie_wavelength(CONSTANTS, GEOMETRY) * 1.0 / 1e-5
    assert fringe_period(CONSTANTS, GEOMETRY) == pytest.approx(expected, rel=1e-15)
