"""Exception types raised across the package."""


class GaloisPairsError(Exception):
    """Base class for all package-specific errors."""


class ZeroInverse(GaloisPairsError):
    """Multiplicative inverse of zero requested.

    Still exported, but nothing in the package raises it: inverses are
    taken with the built-in pow(x, -1, p).
    """


class SingularMatrix(GaloisPairsError):
    """A 2x2 matrix with zero determinant cannot represent a PGL(2) class."""


class ModulusMismatch(GaloisPairsError):
    """Operands live over different prime fields."""


class ClosureCapExceeded(GaloisPairsError):
    """Subgroup closure grew past the configured cap."""


class NotBlockPreserving(GaloisPairsError):
    """A matrix maps some block of a partition onto a non-block."""


class UnknownCase(GaloisPairsError):
    """No bundled reference case for the requested prime/label."""


class NotFound(GaloisPairsError):
    """A deterministic scan was exhausted without a hit."""


class DegenerateInvariant(GaloisPairsError):
    """No coefficient combination reached the full invariant degree."""


class IrregularOrbit(GaloisPairsError):
    """The base-point orbit is shorter than the group order."""


class EvaluationAtPole(GaloisPairsError):
    """Pole structure of an adjusted invariant does not match the orbit."""


class ResultantVanishes(GaloisPairsError):
    """The components of a parametrization share a factor."""
