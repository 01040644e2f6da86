"""Single-solenoid Aharonov-Bohm relations, the apparatus value types and their rules.

An electron passing through a two-slit diaphragm and around a long thin
solenoid of flux Phi picks up the phase difference

    dphi = e * Phi / hbar

between the two slit paths, and its interference pattern on a screen at
distance L translates along x by

    dx = -(L/d) * (lambda/(2*pi)) * (e*Phi/hbar) = -(L/d) * (e/m) * Phi/v

where d is the slit separation, v the electron speed and
lambda = h/(m*v) the de Broglie wavelength.  Substituting lambda makes
the Planck constant cancel, so the second (classical) form carries no
hbar; both forms are provided and must agree to rounding.

Sign convention: `e` is stored as the positive elementary-charge
magnitude, the formulas are evaluated literally with it, and the signs
of dphi and dx simply track the sign of Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# CODATA 2018 defaults (e and h are exact in the 2019 SI)
ELEMENTARY_CHARGE = 1.602176634e-19     # C
ELECTRON_MASS = 9.1093837015e-31        # kg
PLANCK = 6.62607015e-34                 # J s
HBAR = PLANCK / (2.0 * math.pi)         # J s


@dataclass(frozen=True)
class PhysicalConstants:
    """Electron charge magnitude, electron mass and the Planck pair.

    All four values are overridable (the hbar-independence checks scale
    the Planck pair), but h must always equal 2*pi*hbar to within one
    unit in the last place.
    """

    e: float = ELEMENTARY_CHARGE    # elementary charge magnitude, C
    m: float = ELECTRON_MASS        # electron mass, kg
    hbar: float = HBAR              # reduced Planck constant, J s
    h: float = PLANCK               # Planck constant, J s

    def __post_init__(self):
        for name in ("e", "m", "hbar", "h"):
            require_positive(f"constant {name}", getattr(self, name))
        if abs(self.h - 2.0 * math.pi * self.hbar) > math.ulp(self.h):
            raise ValidationError(
                f"h must equal 2*pi*hbar to 1 ulp: h={self.h!r}, 2*pi*hbar={2.0 * math.pi * self.hbar!r}"
            )


@dataclass(frozen=True)
class Solenoid:
    """Long thin solenoid: homogeneous interior field and base radius.

    `field` is signed; its sign encodes the winding orientation along z
    and is taken as direct input (the field-to-current proportionality of
    the winding is never needed numerically).
    """

    field: float    # interior magnetic field B, tesla (signed)
    radius: float   # base radius R, meter

    def __post_init__(self):
        require_positive("solenoid radius", self.radius)
        if not math.isfinite(self.field):
            raise ValidationError(f"solenoid field must be finite, got {self.field!r}")

    @property
    def area(self) -> float:
        return base_area(self.radius)


def base_area(radius: float) -> float:
    """Base area S = pi R^2 of a solenoid of radius R, m^2, or inf where R^2 overflows."""
    try:
        return math.pi * radius**2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ApparatusGeometry:
    """Two-slit interferometer geometry and electron speed."""

    screen_distance: float   # diaphragm-to-screen distance L, m
    slit_separation: float   # slit spacing d, m
    speed: float             # electron speed v, m/s

    def __post_init__(self):
        for name in ("screen_distance", "slit_separation", "speed"):
            require_positive(name, getattr(self, name))


def is_integer(value: object) -> bool:
    """True for an int or numpy integer, False for a bool or any other type:
    the type rule of every integer argument (grid sizes, counts, seeds)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_positive(label: str, value: float) -> None:
    """The rule of every magnitude (a constant, a length, a speed): finite and positive."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValidationError(f"{label} must be finite and positive, got {value!r}")


def require_gaussian_width(label: str, width: float) -> None:
    """The rule of a Gaussian's width w: finite and positive, with 2 w^2, the divisor in exp(-x^2 / 2w^2), finite."""
    require_positive(label, width)
    if math.isinf(2.0 * width * width):   # (2w)w rounds as 2 w^2; w**2 would raise, not give inf
        raise ValidationError(f"{label} {width!r} m is too large: 2 w^2 overflows")


@dataclass(frozen=True)
class Grid:
    """n uniformly spaced sample positions from x_min to x_max, meters.

    Both the detection screen and the wire coordinate are Grids; two
    sampled functions share a grid exactly when their Grids are equal.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.span < math.inf:
            raise ValidationError(f"need x_max > x_min, got [{self.x_min!r}, {self.x_max!r}]")
        if not is_integer(self.n):
            raise ValidationError(f"a grid's point count must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValidationError(f"a grid needs at least 2 points, got {self.n}")

    @property
    def span(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.span / (self.n - 1)

    @property
    def positions(self) -> np.ndarray:
        positions = np.arange(self.n, dtype=float)   # x_min + dx * i, built in one array
        positions *= self.dx
        return np.add(positions, self.x_min, out=positions)


def de_broglie_wavelength(constants: PhysicalConstants, geometry: ApparatusGeometry) -> float:
    """lambda = h / (m v), meters, or inf where m v underflows to 0."""
    momentum = constants.m * geometry.speed
    return constants.h / momentum if momentum > 0.0 else math.inf


def flux(solenoid: Solenoid) -> float:
    """Magnetic flux Phi = B * pi R^2 through the solenoid base, weber."""
    return solenoid.field * solenoid.area


def phase_shift(constants: PhysicalConstants, flux_wb: float) -> float:
    """Phase difference dphi = e Phi / hbar between the slit paths, radians."""
    return constants.e * flux_wb / constants.hbar


def fringe_shift(constants: PhysicalConstants, geometry: ApparatusGeometry, flux_wb: float) -> float:
    """Pattern translation dx = -(L/d) (lambda/2pi) (e Phi/hbar), meters."""
    lam = de_broglie_wavelength(constants, geometry)
    return (
        -(geometry.screen_distance / geometry.slit_separation)
        * (lam / (2.0 * math.pi))
        * phase_shift(constants, flux_wb)
    )


def fringe_shift_classical_form(
    constants: PhysicalConstants, geometry: ApparatusGeometry, flux_wb: float
) -> float:
    """Pattern translation in the Planck-free form dx = -(L/d)(e/m) Phi/v, meters.

    Algebraically identical to :func:`fringe_shift`; exposed separately so
    the cancellation of hbar can be verified rather than assumed.
    """
    return (
        -(geometry.screen_distance / geometry.slit_separation)
        * (constants.e / constants.m)
        * (flux_wb / geometry.speed)
    )


def fringe_period(constants: PhysicalConstants, geometry: ApparatusGeometry) -> float:
    """Fringe spacing lambda L / d on the screen, meters.

    The translation formula is treated as exact; the period is reported
    alongside so callers can judge how many fringes a given shift spans.
    """
    return de_broglie_wavelength(constants, geometry) * geometry.screen_distance / geometry.slit_separation
