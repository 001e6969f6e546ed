"""Exception types shared across the package.

Every failure mode raised by the library is a subclass of
:class:`MetricLabError`, so callers can catch one type at the boundary.
Validation errors carry the indices of the offending entries so that a
diagnosis can name a concrete witness.
"""

from __future__ import annotations


class MetricLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MetricLabError):
    """A distance matrix failed an axiom check.

    Attributes
    ----------
    axiom:
        Short name of the violated axiom.
    indices:
        Tuple of matrix indices witnessing the violation: ``(i, j)`` for
        entry-level axioms, ``(i, j, k)`` for triangle-type axioms.
    """

    axiom = "invalid"

    def __init__(self, message: str, indices: tuple = ()):
        super().__init__(message)
        self.indices = tuple(indices)


class AsymmetricMatrix(ValidationError):
    axiom = "symmetry"


class NonzeroDiagonal(ValidationError):
    axiom = "zero_diagonal"


class NonpositiveOffDiagonal(ValidationError):
    axiom = "positivity"


class TriangleViolation(ValidationError):
    axiom = "triangle"


class StrongTriangleViolation(ValidationError):
    axiom = "strong_triangle"


class LabelMismatch(MetricLabError):
    """Two spaces do not share the same ordered label list."""


class ValueOutsideRangeSet(MetricLabError):
    """A distance value does not belong to the required range set."""


class ZeroOffDiagonal(MetricLabError):
    """A raw matrix has a zero off-diagonal entry (would merge points)."""


class SeparationUndefined(MetricLabError):
    """Separation requested for a subset with fewer than two points."""


class DegenerateSpace(MetricLabError):
    """An estimator needs at least two points."""


class BadScaleCutoff(MetricLabError):
    """The scale cutoff r_min lies outside (0, diameter)."""


class PieceMismatch(MetricLabError):
    """A piece metric is not defined on exactly the points of its piece."""


class NotUltrametric(MetricLabError):
    """An ultrametric-flavored input was required."""


class SequenceTooShort(MetricLabError):
    """A shrinking sequence has fewer values than the requested depth."""


class WindowMiss(MetricLabError):
    """An exponential window failed to intersect the range set."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class GenerationFailed(MetricLabError):
    """A type recipe missed its moduli band at the requested depth."""


class TooFewPoints(MetricLabError):
    """A construction needs more points than the input provides."""
