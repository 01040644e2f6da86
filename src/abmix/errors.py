"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2, the physical
precondition failures (InterferenceError, UnmeasurableShiftError) -> 3,
I/O failures -> 4.
"""


class ValidationError(ValueError):
    """An input value or configuration violates a documented invariant."""


class InterferenceError(RuntimeError):
    """The two wire-electron branches overlap: the non-interference
    condition (vanishing pointwise product and inner product) does not
    hold, so the mixture decomposition of the current is not valid."""


class UnmeasurableShiftError(RuntimeError):
    """Raised only by `pattern.estimate_shift`: the pattern's fringe
    visibility is too low for the shift estimator to lock onto a
    correlation peak (e.g. an equal-weight mixture near quarter-turn phase
    difference washes the fringes out).  Blocks of rows get nan instead."""
