"""Package-wide exception types.

The CLI maps these onto exit codes: validation errors return 1,
numerical non-convergence returns 2, capacity overruns return 3.
"""

from __future__ import annotations


class InvalidInputError(ValueError):
    """Malformed input data: bad matrix, dimension mismatch, broken schema."""


class InvalidParameterError(ValueError):
    """A parameter outside its documented range (e.g. alpha outside (0, 2])."""


class CapacityError(RuntimeError):
    """An enumeration or dimension exceeds the configured desk-scale cap."""


class ConvergenceError(RuntimeError):
    """A fixed-point solve stopped unconverged; ``best`` is what it reached.

    One order: an AugustinResult at the last iterate, None if not finite.
    An array of orders: the value array.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
