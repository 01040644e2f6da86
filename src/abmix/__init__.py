"""Two-solenoid Aharonov-Bohm effect with a quantum-mixture flux.

The flux threading the interferometer is sourced by a single wire
electron superposed between the two solenoid windings, so the phase
difference and fringe translation of the interfering electron form a
two-point statistical mixture rather than one classical value.  The
package provides the closed-form relations, the wire-electron current
density and its mixture decomposition, interference-pattern synthesis
and estimation, and a seeded Monte Carlo detection experiment.

The top level exports only the names of README's library example; every
other public name is imported from its own module.
"""

from .core import ApparatusGeometry, Grid, PhysicalConstants, Solenoid, fringe_period
from .dual import BranchAmplitudes, DualSolenoidConfig, outcome_distribution
from .experiment import run_experiment
from .pattern import ScreenOptics

__version__ = "0.1.0"

__all__ = [
    "ApparatusGeometry",
    "BranchAmplitudes",
    "DualSolenoidConfig",
    "Grid",
    "PhysicalConstants",
    "ScreenOptics",
    "Solenoid",
    "fringe_period",
    "outcome_distribution",
    "run_experiment",
]
