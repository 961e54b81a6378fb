"""Exception types raised by the pontsys package."""

__all__ = [
    "PontsysError",
    "InputError",
    "DimensionMismatchError",
    "NotHermitianError",
    "NonRegularSubspaceError",
    "IndefiniteDefectError",
    "PoleProximityError",
    "AmbiguousSpectrumError",
    "OrderAmbiguityError",
    "PreconditionError",
    "InternalConsistencyError",
]


class PontsysError(Exception):
    """Base class for all pontsys errors."""


class InputError(PontsysError, ValueError):
    """Invalid user-supplied data (bad shapes, non-finite entries, bad files)."""


class DimensionMismatchError(InputError):
    """Operands whose dimensions or signatures do not line up."""


class NotHermitianError(InputError):
    """A matrix required to be Hermitian was not, beyond the allowed slack."""


class NonRegularSubspaceError(InputError):
    """Subspace whose Gram matrix is singular where a regular one is required."""


class IndefiniteDefectError(InputError):
    """A defect matrix required to be positive semidefinite was indefinite."""


class PoleProximityError(PontsysError):
    """Evaluation point too close to a pole of a transfer function."""

    def __init__(self, point, nearest_pole=None):
        self.point = point
        self.nearest_pole = nearest_pole
        msg = f"evaluation point {point} is too close to a pole"
        if nearest_pole is not None:
            msg += f" (nearest pole estimate {nearest_pole})"
        super().__init__(msg)


class AmbiguousSpectrumError(PontsysError):
    """Eigenvalues too close to a region boundary to classify reliably."""


class OrderAmbiguityError(PontsysError):
    """Hankel rank did not stabilize; realization order cannot be trusted."""


class PreconditionError(InputError):
    """An operation's documented precondition does not hold for the input."""


class InternalConsistencyError(PontsysError):
    """Two independent computations of the same quantity disagreed."""


def certify(name, value, bound):
    """Return value when value <= bound; otherwise the certificate named
    name fails with InternalConsistencyError.

    The comparison is written so that a NaN value fails.  A quantity
    bounded from below is certified through its negation and the negated
    bound, which is exact in floating point.
    """
    if not value <= bound:
        raise InternalConsistencyError(
            f"{name}: {value:.3e} exceeds the bound {bound:.3e}")
    return value
