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
from dataclasses import dataclass

from .core import (
    ApparatusGeometry,
    PhysicalConstants,
    Solenoid,
    flux,
    fringe_shift,
    phase_shift,
)
from .errors import ValidationError

NORMALIZATION_TOL = 1e-12


def check_weights(p1: float, p2: float) -> None:
    """The one normalization check: ValidationError unless both weights are
    non-negative and sum to 1 within NORMALIZATION_TOL (nan and inf fail)."""
    if not (p1 >= 0.0 and p2 >= 0.0 and abs(p1 + p2 - 1.0) <= NORMALIZATION_TOL):
        raise ValidationError(f"weights ({p1!r}, {p2!r}) violate normalization: both must be "
                              f"non-negative and sum to 1 within {NORMALIZATION_TOL}")


@dataclass(frozen=True)
class BranchAmplitudes:
    """Complex amplitudes (c1, c2) of the wire-electron superposition.

    Only the moduli enter any physics here, but the amplitudes are kept
    complex so phase invariance is a testable property.  Inputs violating
    |c1|^2 + |c2|^2 = 1 (tolerance 1e-12) are rejected, never silently
    renormalized; a |c_k|^2 beyond the float range is an inf weight.
    """

    c1: complex
    c2: complex

    def __post_init__(self):
        check_weights(self.p1, self.p2)

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
    """Two solenoids behind the diaphragm, close enough that the electron
    passes around the pair, never between them: d > 2 (R1 + R2)."""

    solenoid1: Solenoid
    solenoid2: Solenoid
    geometry: ApparatusGeometry
    constants: PhysicalConstants

    def __post_init__(self):
        self.geometry.check_solenoid(self.solenoid1)
        self.geometry.check_solenoid(self.solenoid2)
        clearance = 2.0 * (self.solenoid1.radius + self.solenoid2.radius)
        if self.geometry.slit_separation <= clearance:
            raise ValidationError(
                f"slit separation d={self.geometry.slit_separation!r} must exceed "
                f"2(R1+R2)={clearance!r} so the electron passes around both solenoids"
            )

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
    """Classical case: (dphi, dx) are the plain sums of per-solenoid terms.

    Returns (dphi_1 + dphi_2, dx_1 + dx_2).  For an antisymmetric pair the
    per-solenoid terms are exact floating-point negations, so both sums
    are bitwise zero.
    """
    dphi1 = phase_shift(config.constants, config.flux1)
    dphi2 = phase_shift(config.constants, config.flux2)
    dx1 = fringe_shift(config.constants, config.geometry, config.flux1)
    dx2 = fringe_shift(config.constants, config.geometry, config.flux2)
    return dphi1 + dphi2, dx1 + dx2


def mixture_mean(amplitudes: BranchAmplitudes, value1: float, value2: float) -> float:
    """Mixture mean |c1|^2 value1 + |c2|^2 value2 of a per-branch quantity,
    such as the field B_k or the flux Phi_k."""
    return amplitudes.p1 * value1 + amplitudes.p2 * value2


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
