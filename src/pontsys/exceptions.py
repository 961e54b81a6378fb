"""Exception types raised by the pontsys package."""

import numpy as np

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


def _certify_scaled(name, value, bound, scale):
    """certify(name, value, bound * scale()) for a scale() >= 1 that is
    evaluated only when value > bound.

    A value within bound is within bound * s for every s >= 1, so the
    scale, typically a spectral norm, can change the verdict only above
    bound; there the certificate is the one stated with the full bound.
    """
    if value <= bound:
        return value
    return certify(name, value, bound * scale())


def _norm2(M):
    """Spectral norm of M; 0 when empty, NaN when not finite (the SVD raises)."""
    if not M.size:
        return 0.0
    if not np.isfinite(M).all():
        return np.nan
    return float(np.linalg.norm(M, 2))


def _certify_residual(name, R, bound, scale=lambda: 1.0):
    """_certify_scaled(name, ||R||_2, bound, scale) for a residual matrix R
    whose value no caller reads.

    ||R||_F >= ||R||_2, so a Frobenius norm within bound * (1 - 1e-14)
    passes without an SVD; the deflation, about 45 ulps, covers the
    rounding of either norm where the two coincide (rank one).  Above it
    the spectral norm is certified, so a failing certificate reports the
    same value as one that always took the SVD.
    """
    if np.linalg.norm(R) <= bound * (1.0 - 1e-14):
        return
    _certify_scaled(name, _norm2(R), bound, scale)
