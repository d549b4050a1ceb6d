"""Exception types raised across the package."""


class GaloisPairsError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(GaloisPairsError):
    """A 2x2 matrix with zero determinant cannot represent a PGL(2) class."""


class ModulusOutOfRange(GaloisPairsError, ValueError):
    """A modulus p >= 2**31, rejected before any primality test."""


class ModulusMismatch(GaloisPairsError):
    """Operands live over different prime fields (subgroups.intersect), or a
    point is not reduced mod p (subgroups.orbit)."""


class ClosureCapExceeded(GaloisPairsError):
    """Subgroup closure grew past its prime's cap."""


class UnknownCase(GaloisPairsError):
    """No bundled reference case for the requested prime/label."""


class DegenerateInvariant(GaloisPairsError):
    """A parametrization whose degree its certificate does not prove."""


class IrregularOrbit(GaloisPairsError):
    """The base-point orbit is shorter than the group order."""


class EvaluationAtPole(GaloisPairsError):
    """The polar set of an invariant is not the base-point orbit: raised by
    quotient.moebius_adjust for each invariant, and by emit_parametrization
    when a pair's two invariants have different denominators."""
