import cmath
import math
import sys

import pytest
from hypothesis import given, strategies as st

from abmix.core import ApparatusGeometry, PhysicalConstants, Solenoid, flux, fringe_shift, phase_shift
from abmix.dual import (
    BranchAmplitudes,
    DualSolenoidConfig,
    classical_totals,
    mixture_expectations,
    mixture_mean,
    outcome_distribution,
)
from abmix.errors import ValidationError

CONSTANTS = PhysicalConstants()
GEOMETRY = ApparatusGeometry(screen_distance=1.0, slit_separation=1e-5, speed=1e6)
ROOT_HALF = 1.0 / math.sqrt(2.0)
EQUAL_WEIGHTS = BranchAmplitudes(c1=complex(ROOT_HALF), c2=complex(ROOT_HALF))


def antisymmetric_config(field=3e-3, radius=2.5e-7):
    return DualSolenoidConfig(
        solenoid1=Solenoid(field=field, radius=radius),
        solenoid2=Solenoid(field=-field, radius=radius),
        geometry=GEOMETRY,
        constants=CONSTANTS,
    )


def config_with_fields(b1, b2, radius=2.5e-7):
    return DualSolenoidConfig(
        solenoid1=Solenoid(field=b1, radius=radius),
        solenoid2=Solenoid(field=b2, radius=radius),
        geometry=GEOMETRY,
        constants=CONSTANTS,
    )


unit_phases = st.floats(min_value=-math.pi, max_value=math.pi)


class TestBranchAmplitudes:
    def test_accepts_normalized(self):
        amps = BranchAmplitudes(c1=0.6 + 0.0j, c2=0.0 + 0.8j)
        assert amps.p1 == pytest.approx(0.36, rel=1e-15)
        assert amps.p2 == pytest.approx(0.64, rel=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            BranchAmplitudes(c1=0.6 + 0.0j, c2=0.8001 + 0.0j)

    def test_rejects_rather_than_renormalizes(self):
        # just outside the 1e-12 window
        c = math.sqrt(0.5) * (1.0 + 1e-6)
        with pytest.raises(ValidationError):
            BranchAmplitudes(c1=complex(c), c2=complex(c))

    @pytest.mark.parametrize(
        "c1", [1e200 + 0j, 1e200j, complex(1e308, 1e308)], ids=["square", "imaginary", "modulus"]
    )
    def test_a_weight_beyond_the_float_range_fails_the_normalization_check(self, c1):
        # |c1|^2 (or |c1| itself) overflows: an inf weight, not an OverflowError
        with pytest.raises(ValidationError, match=r"weights \(inf, 0\.0\) violate normalization"):
            BranchAmplitudes(c1=c1, c2=0j)

    def test_a_finite_weight_is_the_square_of_the_modulus(self):
        # abs(c) ** 2, not abs(c) * abs(c): the two differ in the last bit here
        c1 = 0.37796883434360806
        assert abs(c1) ** 2 != abs(c1) * abs(c1)
        amplitudes = BranchAmplitudes(c1=complex(c1), c2=complex(math.sqrt(1.0 - c1**2)))
        assert amplitudes.p1 == abs(c1) ** 2


@pytest.mark.parametrize("p1, p2", [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5 + 9e-13)])
def test_amplitudes_accept_normalized_weights(p1, p2):
    BranchAmplitudes(complex(math.sqrt(p1)), complex(math.sqrt(p2)))


# BranchAmplitudes is the one normalization check: these are the weights that
# mixtures, superpositions and the check itself once refused.  No amplitude
# has a negative |c|^2, so a pair such as (-0.5, 1.5) cannot be formed at all
@pytest.mark.parametrize(
    "c1, c2, weights",
    [
        (math.sqrt(0.6), math.sqrt(0.6), "(0.6000000000000001, 0.6000000000000001)"),
        (1.0, 1.0, "(1.0, 1.0)"),
        (ROOT_HALF, math.sqrt(0.5 + 2e-12), "(0.4999999999999999, 0.5000000000019998)"),
        (math.nan, 1.0, "(nan, 1.0)"),
        (complex(0.0, math.nan), 0.0, "(nan, 0.0)"),
        (math.inf, 0.0, "(inf, 0.0)"),
        (math.inf, complex(math.inf, math.nan), "(inf, inf)"),
    ],
    ids=["sum_1.2", "sum_2", "sum_just_over_tolerance", "nan", "nan_imaginary", "inf", "both_inf"],
)
def test_amplitudes_reject_unnormalized_and_non_finite_weights(c1, c2, weights):
    message = f"weights {weights} violate normalization: both must be non-negative and sum to 1 within 1e-12"
    with pytest.raises(ValidationError) as raised:
        BranchAmplitudes(c1, c2)
    assert str(raised.value) == message


def synthetic_constants(e=1.0, m=1.0, hbar=1.0):
    return PhysicalConstants(e=e, m=m, hbar=hbar, h=2.0 * math.pi * hbar)


UNIT_AREA_RADIUS = 1.0 / math.sqrt(math.pi)   # pi R^2 = 1 m^2: the flux is the field

# apparatus -> the first closed form that is not finite; every other closed
# form listed before it is finite
NON_FINITE_CLOSED_FORMS = {
    # m v underflows to 0
    "lambda": ((1.0, 1.0, 2.5e-7), ApparatusGeometry(1.0, 1e-5, 1e-300), synthetic_constants(m=1e-300),
               "de Broglie wavelength lambda [m] = inf"),
    "period": ((0.0, 0.0, 1.0), ApparatusGeometry(1e308, 10.0, 1.0), synthetic_constants(),
               "fringe period [m] = inf"),
    "flux": ((1e308, 0.0, 1.0), ApparatusGeometry(1.0, 10.0, 1e6), CONSTANTS, "branch 1 flux Phi_1 [Wb] = inf"),
    # R^2 overflows
    "area": ((0.0, 1.0, 1e200), ApparatusGeometry(1.0, 1e201, 1e6), CONSTANTS, "branch 1 flux Phi_1 [Wb] = nan"),
    "phase": ((1.0, -1e308, 2.5e-7), GEOMETRY, CONSTANTS, "branch 2 phase difference dphi_2 [rad] = -inf"),
    "shift": ((1.0, -1.0, 2.5e-7), ApparatusGeometry(1e308, 1e-5, 1e6), CONSTANTS,
              "branch 1 fringe shift dx_1 [m] = -inf"),
    # Phi / v overflows; the hbar form goes through lambda = h / (m v) instead
    "classical_form": ((5e22, 0.0, 2.5e-7), ApparatusGeometry(1.0, 1e-5, 1e-300), synthetic_constants(e=1e-300),
                       "branch 1 fringe shift dx_1, classical form [m] = -inf"),
    "total_flux": ((1e308, 1e308, UNIT_AREA_RADIUS), ApparatusGeometry(1.0, 10.0, 1e6),
                   synthetic_constants(e=1e-300), "classical total flux Phi [Wb] = inf"),
    "total_phase": ((1e300, 1e300, UNIT_AREA_RADIUS), ApparatusGeometry(10.0, 10.0, 1.0),
                    synthetic_constants(hbar=1e-8), "classical total phase difference dphi [rad] = inf"),
    "total_shift": ((10.0, 10.0, UNIT_AREA_RADIUS), ApparatusGeometry(1e308, 10.0, 1.0),
                    synthetic_constants(hbar=0.1), "classical total fringe shift dx [m] = -inf"),
    # each branch phase overflows, and inf - inf would be a nan total
    "antisymmetric": ((1e308, -1e308, 2.5e-7), GEOMETRY, CONSTANTS, "branch 1 phase difference dphi_1 [rad] = inf"),
}


class TestDualSolenoidConfig:
    def test_rejects_solenoids_wider_than_slits(self):
        # each solenoid alone is only marginal (warning), the pair is fatal
        with pytest.warns(UserWarning), pytest.raises(ValidationError):
            config_with_fields(1e-3, -1e-3, radius=2.6e-6)  # 2(R1+R2) > d

    def test_clearance_rejects_slits_through_a_solenoid(self):
        # d <= 2 R1 alone: the pair rule 2(R1 + R2) covers it
        with pytest.warns(UserWarning), pytest.raises(ValidationError, match=r"must exceed 2\(R1\+R2\)"):
            DualSolenoidConfig(Solenoid(1.0, 5.1e-6), Solenoid(1.0, 2.5e-7), GEOMETRY, CONSTANTS)

    def test_clearance_warns_when_marginal(self):
        with pytest.warns(UserWarning, match="marginal"):
            DualSolenoidConfig(Solenoid(1.0, 2e-6), Solenoid(1.0, 2.5e-7), GEOMETRY, CONSTANTS)

    def test_clearance_silent_when_comfortable(self, recwarn):
        antisymmetric_config()
        assert not recwarn.list

    @pytest.mark.parametrize("fields, geometry, constants, quantity", NON_FINITE_CLOSED_FORMS.values(),
                             ids=NON_FINITE_CLOSED_FORMS.keys())
    def test_a_closed_form_that_is_not_finite_is_named(self, fields, geometry, constants, quantity):
        b1, b2, radius = fields
        with pytest.raises(ValidationError) as error:
            DualSolenoidConfig(Solenoid(b1, radius), Solenoid(b2, radius), geometry, constants)
        assert str(error.value) == f"{quantity} is not finite"

    def test_flux_accessors_match_core(self):
        config = antisymmetric_config()
        assert config.flux1 == flux(config.solenoid1)
        assert config.flux2 == flux(config.solenoid2)


class TestClassicalCase:
    # the classical total flux is printed by `abmix classical` as flux1 + flux2
    def test_antisymmetric_fluxes_cancel(self):
        config = antisymmetric_config()
        assert config.flux1 + config.flux2 == 0.0

    def test_additive_identity(self):
        config = config_with_fields(0.0, 3e-3)
        assert config.flux1 + config.flux2 == config.flux2

    def test_exact_addition(self):
        config = config_with_fields(3e-3, 3e-3)
        assert config.flux1 + config.flux2 == 2.0 * config.flux1

    def test_antisymmetric_totals_are_bitwise_zero(self):
        dphi, dx = classical_totals(antisymmetric_config())
        assert dphi == 0.0 and dx == 0.0

    def test_degenerate_second_solenoid_reduces_to_single(self):
        config = config_with_fields(3e-3, 0.0)
        dphi, dx = classical_totals(config)
        assert dphi == phase_shift(CONSTANTS, config.flux1)
        assert dx == fringe_shift(CONSTANTS, GEOMETRY, config.flux1)

    def test_equal_fluxes_double_the_single_solenoid_values(self):
        config = config_with_fields(3e-3, 3e-3)
        dphi, dx = classical_totals(config)
        assert dphi == 2.0 * phase_shift(CONSTANTS, config.flux1)
        assert dx == 2.0 * fringe_shift(CONSTANTS, GEOMETRY, config.flux1)


class TestMixtureMeans:
    def test_pure_branch_flux(self):
        amps = BranchAmplitudes(c1=1.0 + 0.0j, c2=0.0j)
        assert mixture_mean(amps, 3e-15, 9e-15) == 3e-15

    def test_equal_weights_antisymmetric_fluxes_vanish(self):
        gamma = 5e-15
        assert mixture_mean(EQUAL_WEIGHTS, gamma, -gamma) == 0.0

    def test_hand_evaluated_convex_combination(self):
        amps = BranchAmplitudes(c1=0.6 + 0.0j, c2=0.8j)
        assert mixture_mean(amps, 1e-15, 2e-15) == pytest.approx(1.64e-15, rel=1e-12)

    def test_pure_branch_field(self):
        amps = BranchAmplitudes(c1=0.0 + 1.0j, c2=0.0j)
        assert mixture_mean(amps, 0.25, 4.0) == 0.25

    def test_equal_weights_antisymmetric_fields_vanish(self):
        assert mixture_mean(EQUAL_WEIGHTS, 2e-3, -2e-3) == 0.0

    def test_a_mean_beyond_the_float_range_is_refused(self):
        # |c|^2 rounds to 0.5000000000000001: the weights sum to 1 within tolerance
        c = complex(0.7071067811865476)
        with pytest.raises(ValidationError, match="mixture mean inf .* is not finite"):
            mixture_mean(BranchAmplitudes(c1=c, c2=c), sys.float_info.max, sys.float_info.max)

    def test_quarter_three_quarter_weights(self):
        amps = BranchAmplitudes(c1=0.5 + 0.0j, c2=complex(math.sqrt(0.75)))
        assert mixture_mean(amps, 4.0, 8.0) == pytest.approx(7.0, rel=1e-12)

    @given(
        phase1=unit_phases,
        phase2=unit_phases,
        weight=st.floats(min_value=0.0, max_value=1.0),
        f1=st.floats(min_value=-1e-13, max_value=1e-13),
        f2=st.floats(min_value=-1e-13, max_value=1e-13),
    )
    def test_convexity_and_phase_invariance(self, phase1, phase2, weight, f1, f2):
        magnitude1 = math.sqrt(weight)
        magnitude2 = math.sqrt(1.0 - weight)
        plain = BranchAmplitudes(c1=complex(magnitude1), c2=complex(magnitude2))
        rotated = BranchAmplitudes(
            c1=magnitude1 * cmath.exp(1j * phase1), c2=magnitude2 * cmath.exp(1j * phase2)
        )
        value = mixture_mean(plain, f1, f2)
        assert min(f1, f2) - 1e-25 <= value <= max(f1, f2) + 1e-25
        assert mixture_mean(rotated, f1, f2) == pytest.approx(value, rel=1e-12, abs=1e-25)


class TestMixtureExpectations:
    def test_equal_weights_antisymmetric_mean_is_zero(self):
        dphi_mean, dx_mean = mixture_expectations(antisymmetric_config(), EQUAL_WEIGHTS)
        outcomes = outcome_distribution(antisymmetric_config(), EQUAL_WEIGHTS)
        epsilon = abs(outcomes[0].shift)
        delta = abs(outcomes[0].phase)
        assert abs(dphi_mean) <= 1e-12 * delta
        assert abs(dx_mean) <= 1e-12 * epsilon

    def test_pure_branch_two(self):
        config = config_with_fields(3e-3, -5e-3)
        amps = BranchAmplitudes(c1=0.0j, c2=1.0 + 0.0j)
        dphi_mean, dx_mean = mixture_expectations(config, amps)
        assert dphi_mean == phase_shift(CONSTANTS, config.flux2)
        assert dx_mean == fringe_shift(CONSTANTS, GEOMETRY, config.flux2)

    def test_matches_weighted_mean_of_outcomes(self):
        config = config_with_fields(2e-3, 7e-3)
        amps = BranchAmplitudes(c1=0.6 + 0.0j, c2=0.8j)
        dphi_mean, dx_mean = mixture_expectations(config, amps)
        outcomes = outcome_distribution(config, amps)
        assert dphi_mean == pytest.approx(
            sum(o.probability * o.phase for o in outcomes), rel=1e-12
        )
        assert dx_mean == pytest.approx(
            sum(o.probability * o.shift for o in outcomes), rel=1e-12
        )


class TestOutcomeDistribution:
    def test_two_point_law_for_antisymmetric_fluxes(self):
        config = antisymmetric_config()
        outcomes = outcome_distribution(config, EQUAL_WEIGHTS)
        assert [o.branch for o in outcomes] == [1, 2]
        assert outcomes[0].probability == pytest.approx(0.5, abs=1e-12)
        assert outcomes[1].probability == pytest.approx(0.5, abs=1e-12)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)
        # full-magnitude branch values, opposite in sign
        assert outcomes[0].phase > 0.0 and outcomes[0].shift < 0.0
        assert outcomes[1].phase == -outcomes[0].phase
        assert outcomes[1].shift == -outcomes[0].shift

    def test_outcomes_consistent_with_single_solenoid_formulas(self):
        config = config_with_fields(2e-3, 7e-3)
        for outcome, flux_k in zip(outcome_distribution(config, EQUAL_WEIGHTS),
                                   (config.flux1, config.flux2)):
            assert outcome.flux == flux_k
            assert outcome.phase == phase_shift(CONSTANTS, flux_k)
            assert outcome.shift == fringe_shift(CONSTANTS, GEOMETRY, flux_k)

    def test_pure_branch_one_starves_branch_two(self):
        outcomes = outcome_distribution(
            antisymmetric_config(), BranchAmplitudes(c1=1.0 + 0.0j, c2=0.0j)
        )
        assert outcomes[0].probability == 1.0
        assert outcomes[1].probability == 0.0

    def test_mean_flux_matches_mixture_flux(self):
        config = config_with_fields(2e-3, 7e-3)
        amps = BranchAmplitudes(c1=0.6 + 0.0j, c2=0.8j)
        outcomes = outcome_distribution(config, amps)
        mean_flux = sum(o.probability * o.flux for o in outcomes)
        expected = mixture_mean(amps, config.flux1, config.flux2)
        assert abs(mean_flux - expected) <= 4.0 * math.ulp(abs(expected))


class TestClassicalVsMixtureDistinction:
    def test_antisymmetric_case_separates_the_two_descriptions(self):
        # classical: both windings energized at half magnitude -> exact zero
        beta = 3e-3
        classical = config_with_fields(beta / 2.0, -beta / 2.0)
        assert classical_totals(classical) == (0.0, 0.0)
        # mixture: one electron, full magnitude per branch -> two-point law
        mixture = config_with_fields(beta, -beta)
        outcomes = outcome_distribution(mixture, EQUAL_WEIGHTS)
        assert abs(outcomes[0].phase) > 0.0 and abs(outcomes[0].shift) > 0.0
        assert abs(outcomes[1].phase) > 0.0 and abs(outcomes[1].shift) > 0.0

    def test_mixture_mean_differs_from_classical_sum_generically(self):
        # generic witness: unequal fluxes, equal weights; classically both
        # solenoids count at full strength, the mixture halves each
        config = config_with_fields(2e-3, 7e-3)
        classical = classical_totals(config)
        mixture = mixture_expectations(config, EQUAL_WEIGHTS)
        assert mixture[0] != classical[0]
        assert mixture[1] != classical[1]
