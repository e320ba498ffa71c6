"""Exceptions shared across the package."""


class StringyKitError(Exception):
    """Base class for all errors raised by this package."""


class NotPointed(StringyKitError):
    """The generated cone contains a line."""


class NotFullDimensional(StringyKitError):
    """The rays do not span the ambient space."""


class NotGorenstein(StringyKitError):
    """No integral degree element on one of the two sides."""


class DegeneratePolytope(StringyKitError):
    """Polytope vertices do not affinely span the ambient space."""


class UnboundedSlice(StringyKitError):
    """The grading functional vanishes on a nonzero ray of the face."""


class NotEulerian(StringyKitError):
    """A poset interval fails the even/odd rank-count test."""


class TruncationTooSmall(StringyKitError):
    """The requested truncation degree leaves no certified window."""


class StabilizationFailed(StringyKitError):
    """Filtered dimensions do not match the graded oracle at two
    consecutive truncations."""


class DegenerateCoefficients(StringyKitError):
    """Coefficient function fails the nondegeneracy certificate."""


class ParseError(StringyKitError):
    """Malformed input document."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = "%s (at %s)" % (message, location)
        super().__init__(message)


class ValidationError(StringyKitError):
    """Well-formed input with inconsistent content."""
