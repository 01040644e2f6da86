"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2; the physical
precondition failure InterferenceError, a numerical failure
(ArithmeticError, e.g. a current that overflows) and MemoryError -> 3;
I/O failures -> 4.
"""


class ValidationError(ValueError):
    """An input value or configuration violates a documented invariant."""


class InterferenceError(RuntimeError):
    """The two wire-electron branches overlap: the non-interference
    condition (vanishing pointwise product and inner product) does not
    hold, so the mixture decomposition of the current is not valid."""

