"""Wire-electron wavefunctions on a 1-D grid and their electric current.

The wire electron is described by a complex wavefunction psi(eta) sampled
uniformly along the wire coordinate eta.  Its electric current is

    j = (i hbar e / 2m) (psi dpsi*/deta - psi* dpsi/deta)

evaluated literally with e the positive charge magnitude (no textbook
sign correction is applied).  With psi of dimension length^-1/2 the
result has dimension charge/time, i.e. a 1-D current in amperes.

Derivatives use second-order central differences on interior points and
second-order one-sided stencils at the two boundary points, so halving
the spacing cuts the discretization error by about four.

For a superposition c1 psi1 + c2 psi2 whose branches do not interfere
(vanishing pointwise product and inner product), the total current decomposes as
|c1|^2 j1 + |c2|^2 j2; `mixture_current_check` verifies this numerically and refuses
interfering branches.  The factories refuse a packet whose width breaks the screen
envelope's rule, `core.require_gaussian_width`, or that cannot be normalized, and a
plane wave whose bound overflows, so `config.validate` refuses them before any command runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, PhysicalConstants, is_integer, require_gaussian_width
from .dual import BranchAmplitudes
from .errors import InterferenceError, ValidationError
from .pattern import csv_table

MIN_SAMPLES = 8              # central differences need interior points
NORM_TOL = 1e-9              # on |psi|^2 integral of a normalized grid function
NON_INTERFERENCE_TOL = 1e-9  # on overlap and pointwise product
DECOMPOSITION_TOL = 1e-9     # on |j_total - j_mixture|, relative to max|j_k|


@dataclass(frozen=True)
class GridWavefunction:
    """Complex wavefunction sampled on a grid of the wire coordinate."""

    grid: Grid
    samples: np.ndarray    # finite complex amplitudes, one per grid point, >= 8; a read-only copy

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)   # a copy: the caller's array stays writeable
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.n,) or self.grid.n < MIN_SAMPLES:
            raise ValidationError(
                f"need one sample per point of a grid of at least {MIN_SAMPLES} points, "
                f"got shape {samples.shape} on {self.grid.n} points"
            )
        if not np.all(np.isfinite(samples)):
            raise ValidationError("wavefunction samples must be finite")

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.dx)


def _require_shared_grid(psi1: GridWavefunction, psi2: GridWavefunction) -> None:
    if psi1.grid != psi2.grid:
        raise ValidationError("wavefunctions live on different grids")


def _derivative(samples: np.ndarray, spacing: float) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided ends."""
    out = np.empty_like(samples)
    out[1:-1] = (samples[2:] - samples[:-2]) / (2.0 * spacing)
    out[0] = (-3.0 * samples[0] + 4.0 * samples[1] - samples[2]) / (2.0 * spacing)
    out[-1] = (3.0 * samples[-1] - 4.0 * samples[-2] + samples[-3]) / (2.0 * spacing)
    return out


def overlap(psi1: GridWavefunction, psi2: GridWavefunction) -> complex:
    """Discrete inner product sum conj(psi1) psi2 d_eta."""
    _require_shared_grid(psi1, psi2)
    return complex(np.sum(np.conj(psi1.samples) * psi2.samples) * psi1.grid.dx)


def pointwise_product_max(psi1: GridWavefunction, psi2: GridWavefunction) -> float:
    """The pointwise non-interference measure max_i |psi1_i psi2_i|."""
    _require_shared_grid(psi1, psi2)
    return float(np.max(np.abs(psi1.samples * psi2.samples)))


def superpose(amplitudes: BranchAmplitudes, psi1: GridWavefunction, psi2: GridWavefunction) -> GridWavefunction:
    """Form c1 psi1 + c2 psi2 on the shared grid.

    Both inputs must be individually normalized.  The result's norm is 1
    exactly when the branches do not overlap, and is not for e.g. psi1 == psi2.
    """
    _require_shared_grid(psi1, psi2)
    for k, psi in ((1, psi1), (2, psi2)):
        if abs(psi.norm_squared - 1.0) > NORM_TOL:
            raise ValidationError(f"branch {k} wavefunction is not normalized: {psi.norm_squared!r}")
    return GridWavefunction(psi1.grid, amplitudes.c1 * psi1.samples + amplitudes.c2 * psi2.samples)


def current_density(psi: GridWavefunction, constants: PhysicalConstants) -> np.ndarray:
    """Electric current j = (i hbar e / 2m)(psi dpsi* - psi* dpsi), amperes.

    The complex bracket is evaluated literally.  Its two products differ
    only by exact sign flips, so its real part is exactly 0, and times the
    imaginary prefactor so is the imaginary part of every finite sample of
    j.  ArithmeticError when a sample of j is not finite (the derivative,
    the bracket or hbar e overflows); else the real part is returned, one
    float per point of psi's grid, copied so that no complex array stays alive.
    """
    prefactor = 1j * constants.hbar * constants.e / (2.0 * constants.m)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite current is refused below
        dpsi = _derivative(psi.samples, psi.grid.dx)
        j_complex = prefactor * (psi.samples * np.conj(dpsi) - np.conj(psi.samples) * dpsi)
    if not np.all(np.isfinite(j_complex)):
        raise ArithmeticError(
            f"current is not finite on the wire grid of spacing {psi.grid.dx!r} m: "
            "its derivative or its bracket overflows"
        )
    return j_complex.real.copy()


def mixture_current_check(
    amplitudes: BranchAmplitudes, psi1: GridWavefunction, psi2: GridWavefunction, constants: PhysicalConstants
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Compare the superposition current with its mixture decomposition.

    Returns (j_total, j_mixture, max_abs_deviation, bound, abs_overlap): the
    current of c1 psi1 + c2 psi2, j_mixture_i = |c1|^2 j1_i + |c2|^2 j2_i, bound =
    DECOMPOSITION_TOL * max|j_k| over both branch currents, and the |overlap| measured.
    Raises InterferenceError unless |overlap| and max|psi1 psi2| are both
    below NON_INTERFERENCE_TOL, since the decomposition needs vanishing cross terms.
    """
    measured = abs(overlap(psi1, psi2)), pointwise_product_max(psi1, psi2)
    if not all(measure < NON_INTERFERENCE_TOL for measure in measured):   # a nan measure fails
        raise InterferenceError(
            "branch wavefunctions interfere: the non-interference condition "
            f"requires |overlap| < {NON_INTERFERENCE_TOL} and max|psi1*psi2| < "
            f"{NON_INTERFERENCE_TOL}, measured |overlap|={measured[0]!r}, max|psi1*psi2|={measured[1]!r}"
        )
    j_total = current_density(superpose(amplitudes, psi1, psi2), constants)
    j1 = current_density(psi1, constants)
    j2 = current_density(psi2, constants)
    j_mixture = amplitudes.p1 * j1 + amplitudes.p2 * j2
    deviation = float(np.max(np.abs(j_total - j_mixture)))
    bound = DECOMPOSITION_TOL * max(float(np.max(np.abs(j))) for j in (j1, j2))
    return j_total, j_mixture, deviation, bound, measured[0]


def plane_wave_check(
    psi: GridWavefunction, wavenumber: float, constants: PhysicalConstants
) -> tuple[np.ndarray, float, float]:
    """Compare the current of `psi`, the :func:`plane_wave` of `wavenumber`,
    with its closed form e hbar k / m |psi|^2: returns (j, max_abs_deviation,
    bound), where bound = 0.4 (k d_eta)^2 max|e hbar k / m |psi|^2| is the
    discretization bound of the central differences."""
    j = current_density(psi, constants)
    analytic = (constants.e * constants.hbar * wavenumber / constants.m) * np.abs(psi.samples) ** 2
    deviation = float(np.max(np.abs(j - analytic)))
    bound = 0.4 * (wavenumber * psi.grid.dx) ** 2 * float(np.max(np.abs(analytic)))
    return j, deviation, bound


def ensemble_current(n: int, j: np.ndarray) -> np.ndarray:
    """Current of a beam of n identically prepared electrons: n * j;
    ArithmeticError when a sample of it is not finite."""
    if not is_integer(n) or n < 1:
        raise ValidationError(f"ensemble size must be a positive integer, got {n!r}")
    try:
        scale = float(n)
    except OverflowError:   # n is beyond the float range
        scale = math.inf
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite current is refused below
        j_ensemble = scale * j
    if not np.all(np.isfinite(j_ensemble)):
        raise ArithmeticError("ensemble current is not finite: the ensemble size times the current of one "
                              f"electron (largest |j| = {float(np.max(np.abs(j)))!r} A) overflows")
    return j_ensemble


def gaussian_packet(grid: Grid, center: float, width: float, wavenumber: float) -> GridWavefunction:
    """Normalized Gaussian wavepacket exp(-(eta-center)^2/(2 width^2) + i k eta).

    Two packets of equal width separated by s have analytic overlap
    magnitude exp(-s^2 / (4 width^2)), so a separation of 12 widths
    guarantees non-interference to well below 1e-12.
    """
    require_gaussian_width("packet width", width)
    eta = grid.positions
    packet = f"packet with center {center!r}, width {width!r} and k {wavenumber!r}"
    with np.errstate(all="ignore"):   # a weight or norm that is not finite fails the check below
        samples = np.exp(-((eta - center) ** 2) / (2.0 * width**2)) * np.exp(1j * wavenumber * eta)
        weight = float(np.sum(np.abs(samples) ** 2)) * grid.dx
        try:
            psi = GridWavefunction(grid, samples / math.sqrt(weight)) if weight > 0.0 else None
        except ValidationError as exc:
            raise ValidationError(f"{packet}: {exc}") from None
        if psi is None or not abs(psi.norm_squared - 1.0) <= NORM_TOL:   # a weight of 0, nan or subnormal
            raise ValidationError(f"{packet} has weight {weight!r} on the wire grid "
                                  f"[{grid.x_min!r}, {grid.x_max!r}]: it cannot be normalized")
    return psi


def plane_wave(grid: Grid, wavenumber: float) -> GridWavefunction:
    """Grid-normalized plane wave exp(i k eta); its current is e hbar k / m |psi|^2.
    ValidationError when a sample is not finite or (k d_eta)^2, in `plane_wave_check`'s bound, overflows."""
    with np.errstate(all="ignore"):
        samples = np.exp(1j * wavenumber * grid.positions) / cmath.sqrt(grid.n * grid.dx)
    try:
        psi = GridWavefunction(grid, samples)
        (wavenumber * grid.dx) ** 2
    except ValidationError as exc:
        raise ValidationError(f"plane wave with k {wavenumber!r}: {exc}") from None
    except OverflowError:
        raise ValidationError(f"plane wave with k {wavenumber!r}: (k d_eta)^2 overflows at d_eta {grid.dx!r}") from None
    return psi


def wavefunction_table(psi: GridWavefunction) -> str:
    """CSV table of the wavefunction, columns eta_m, re_psi, im_psi."""
    return csv_table("eta_m,re_psi,im_psi", psi.grid, psi.samples.real, psi.samples.imag)


def current_table(grid: Grid, j: np.ndarray) -> str:
    """CSV table of the current `j` on `grid`, columns eta_m, j_A."""
    return csv_table("eta_m,j_A", grid, j)
