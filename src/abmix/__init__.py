"""Two-solenoid Aharonov-Bohm effect with a quantum-mixture flux.

The flux threading the interferometer is sourced by a single wire
electron superposed between the two solenoid windings, so the phase
difference and fringe translation of the interfering electron form a
two-point statistical mixture rather than one classical value.  The
package provides the closed-form relations, the wire-electron current
density and its mixture decomposition, interference-pattern synthesis
and estimation, and a seeded Monte Carlo detection experiment.
"""

from .core import (
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
)
from .current import (
    CurrentDensity,
    GridWavefunction,
    current_density,
    current_table,
    ensemble_current,
    gaussian_packet,
    mixture_current_check,
    non_interfering,
    overlap,
    plane_wave,
    superpose,
    wavefunction_table,
)
from .dual import (
    BranchAmplitudes,
    DualSolenoidConfig,
    MixtureOutcome,
    classical_totals,
    mixture_expectations,
    mixture_mean,
    outcome_distribution,
)
from .errors import InterferenceError, UnmeasurableShiftError, ValidationError
from .experiment import BranchReport, ExperimentReport, report_text, run_experiment
from .pattern import (
    FringeEstimate,
    IntensityPattern,
    estimate_shift,
    histogram_pattern,
    mixture_pattern,
    pattern_csv,
    shift_estimator,
    two_slit_pattern,
    visibility,
)

__version__ = "0.1.0"

__all__ = [
    "ApparatusGeometry",
    "BranchAmplitudes",
    "BranchReport",
    "CurrentDensity",
    "DualSolenoidConfig",
    "ExperimentReport",
    "FringeEstimate",
    "Grid",
    "GridWavefunction",
    "IntensityPattern",
    "InterferenceError",
    "MixtureOutcome",
    "PhysicalConstants",
    "Solenoid",
    "UnmeasurableShiftError",
    "ValidationError",
    "classical_totals",
    "current_density",
    "current_table",
    "de_broglie_wavelength",
    "ensemble_current",
    "estimate_shift",
    "flux",
    "fringe_period",
    "fringe_shift",
    "fringe_shift_classical_form",
    "gaussian_packet",
    "histogram_pattern",
    "mixture_current_check",
    "mixture_expectations",
    "mixture_mean",
    "mixture_pattern",
    "non_interfering",
    "outcome_distribution",
    "overlap",
    "pattern_csv",
    "phase_shift",
    "plane_wave",
    "report_text",
    "run_experiment",
    "shift_estimator",
    "superpose",
    "two_slit_pattern",
    "visibility",
    "wavefunction_table",
]
