"""Two-solenoid algebra: classical additive totals vs the quantum mixture.

Two parameterizations of the same apparatus are deliberately kept apart:

* classical case: both solenoid windings carry ordinary currents, the
  fluxes simply add, and an antisymmetric pair (+gamma/2, -gamma/2)
  cancels to a total of exactly zero;

* mixture case: a single wire electron is in a superposition of sitting
  in winding 1 or winding 2 with amplitudes (c1, c2), so the flux seen by
  the interfering electron is the two-point statistical mixture
  {Phi_1 with probability |c1|^2, Phi_2 with |c2|^2} whose mean is
  |c1|^2 Phi_1 + |c2|^2 Phi_2.

With equal weights and antisymmetric fluxes the mixture mean also
vanishes, but each detected electron still shows a full-magnitude phase
difference of +delta or -delta; that two-point distribution is what
distinguishes the mixture from the classical sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import (
    ApparatusGeometry,
    PhysicalConstants,
    Solenoid,
    de_broglie_wavelength,
    flux,
    fringe_period,
    fringe_shift,
    fringe_shift_classical_form,
    phase_shift,
)
from .errors import ValidationError

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class BranchAmplitudes:
    """Complex amplitudes (c1, c2) of the wire-electron superposition.

    Only the moduli enter any physics here, but the amplitudes are kept
    complex so phase invariance is a testable property.  This is the one
    normalization check: weights |c1|^2 + |c2|^2 off 1 by more than
    NORMALIZATION_TOL are rejected, never silently renormalized; a nan
    weight fails, and so does a |c_k|^2 beyond the float range, an inf weight.
    """

    c1: complex
    c2: complex

    def __post_init__(self):
        if not abs(self.p1 + self.p2 - 1.0) <= NORMALIZATION_TOL:
            raise ValidationError(f"weights ({self.p1!r}, {self.p2!r}) violate normalization: both must be "
                                  f"non-negative and sum to 1 within {NORMALIZATION_TOL}")

    @property
    def p1(self) -> float:
        return _weight(self.c1)

    @property
    def p2(self) -> float:
        return _weight(self.c2)


def _weight(c: complex) -> float:
    """|c|^2, or inf where |c| or its square overflows."""
    try:
        return abs(c) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class DualSolenoidConfig:
    """Two solenoids behind the diaphragm, and the one home of the apparatus
    rules: the electron passes around the pair, never between them,
    d > 2 (R1 + R2) (below d = 10 R_k a warning says the model is marginal),
    and every closed form a command prints from the apparatus is finite."""

    solenoid1: Solenoid
    solenoid2: Solenoid
    geometry: ApparatusGeometry
    constants: PhysicalConstants

    def __post_init__(self):
        c, g, radii = self.constants, self.geometry, (self.solenoid1.radius, self.solenoid2.radius)
        if g.slit_separation < 10.0 * max(radii):
            warnings.warn(f"slit separation d={g.slit_separation!r} is below 10R={10.0 * max(radii)!r}; "
                          "the around-the-solenoid model is marginal", stacklevel=3)
        if g.slit_separation <= (clearance := 2.0 * (radii[0] + radii[1])):
            raise ValidationError(f"slit separation d={g.slit_separation!r} must exceed 2(R1+R2)="
                                  f"{clearance!r} so the electron passes around both solenoids")
        closed_forms = {"de Broglie wavelength lambda [m]": de_broglie_wavelength(c, g),
                        "fringe period [m]": fringe_period(c, g)}
        for k, phi in ((1, self.flux1), (2, self.flux2)):
            closed_forms |= {f"branch {k} flux Phi_{k} [Wb]": phi,
                             f"branch {k} phase difference dphi_{k} [rad]": phase_shift(c, phi),
                             f"branch {k} fringe shift dx_{k} [m]": fringe_shift(c, g, phi),
                             f"branch {k} fringe shift dx_{k}, classical form [m]":
                                 fringe_shift_classical_form(c, g, phi)}
        total_phase, total_shift = classical_totals(self)
        closed_forms |= {"classical total flux Phi [Wb]": self.flux1 + self.flux2,
                         "classical total phase difference dphi [rad]": total_phase,
                         "classical total fringe shift dx [m]": total_shift}
        for quantity, value in closed_forms.items():
            if not math.isfinite(value):
                raise ValidationError(f"{quantity} = {value!r} is not finite")

    @property
    def flux1(self) -> float:
        return flux(self.solenoid1)

    @property
    def flux2(self) -> float:
        return flux(self.solenoid2)


@dataclass(frozen=True)
class MixtureOutcome:
    """One branch of the two-point outcome distribution."""

    branch: int          # 1 or 2
    probability: float   # |c_k|^2
    flux: float          # Phi_k, Wb
    phase: float         # dphi_k = e Phi_k / hbar, rad
    shift: float         # dx_k, m


def classical_totals(config: DualSolenoidConfig) -> tuple[float, float]:
    """Classical case: (dphi_1 + dphi_2, dx_1 + dx_2), the plain sums of the
    per-solenoid terms.  For an antisymmetric pair the terms are exact
    floating-point negations, so both sums are bitwise zero."""
    c, g = config.constants, config.geometry
    return (phase_shift(c, config.flux1) + phase_shift(c, config.flux2),
            fringe_shift(c, g, config.flux1) + fringe_shift(c, g, config.flux2))


def mixture_mean(amplitudes: BranchAmplitudes, value1: float, value2: float) -> float:
    """Mixture mean |c1|^2 value1 + |c2|^2 value2 of a per-branch quantity, such as the
    field B_k or the flux Phi_k; ValidationError if weights summing to 1 within
    tolerance carry it past the float range."""
    if not math.isfinite(mean := amplitudes.p1 * value1 + amplitudes.p2 * value2):
        raise ValidationError(f"mixture mean {mean!r} of ({value1!r}, {value2!r}) with weights "
                              f"({amplitudes.p1!r}, {amplitudes.p2!r}) is not finite")
    return mean


def mixture_expectations(
    config: DualSolenoidConfig, amplitudes: BranchAmplitudes
) -> tuple[float, float]:
    """Mixture means (|c1|^2 dphi_1 + |c2|^2 dphi_2, |c1|^2 dx_1 + |c2|^2 dx_2)
    of the phases and shifts of :func:`outcome_distribution`."""
    o1, o2 = outcome_distribution(config, amplitudes)
    return mixture_mean(amplitudes, o1.phase, o2.phase), mixture_mean(amplitudes, o1.shift, o2.shift)


def outcome_distribution(
    config: DualSolenoidConfig, amplitudes: BranchAmplitudes
) -> list[MixtureOutcome]:
    """The two-point outcome law: branch k occurs with probability |c_k|^2
    and carries the full single-branch (Phi_k, dphi_k, dx_k).

    Branch 1 is always listed first.
    """
    return [
        MixtureOutcome(branch, probability, flux_k, phase_shift(config.constants, flux_k),
                       fringe_shift(config.constants, config.geometry, flux_k))
        for branch, probability, flux_k in ((1, amplitudes.p1, config.flux1), (2, amplitudes.p2, config.flux2))
    ]
