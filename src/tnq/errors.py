"""Exception types shared across the package."""


class TnqError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TnqError, ValueError):
    """Leg dimensions, orientations, or shapes are incompatible."""


class SizeCapError(TnqError):
    """An array tnq would build has more legs than NumPy allows or more
    entries than ``SIZE_CAP``; ``shape`` is its shape (None if too long
    to build)."""

    def __init__(self, message, shape=None):
        super().__init__(message)
        self.shape = tuple(shape) if shape is not None else None


class ParseError(TnqError, ValueError):
    """A text input (TNTX, CHX, DIMACS, edge list) is malformed.

    ``code`` distinguishes failure kinds, e.g. ``"bad-header"``,
    ``"literal-range"``, ``"clause-count"``, ``"bad-token"``.
    """

    def __init__(self, message, code="malformed", line=None):
        super().__init__(message)
        self.code = code
        self.line = line


class NumericalError(TnqError):
    """A numerical procedure failed (SVD non-convergence, singular
    recovery operator, excessive rounding residue)."""
