"""Exception types raised by the pontsys package."""

import math

import numpy as np

from ._lapack import ztrtrs

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


def _fro(M):
    """Frobenius norm ||M||_F of a float64 or complex128 array, as one BLAS
    dot of its entries: M flattened in memory order, with no copy for a C-
    or F-ordered M, a complex one viewed as its interleaved float64 real
    and imaginary parts, so ||M||_F^2 is the sum of their squares.

    The sum runs in another order than np.linalg.norm(M), which adds the
    dots of the real and the imaginary parts, so the two agree to a few
    ulps for complex M and exactly for real M.  Non-finite values behave
    as in np.linalg.norm: an infinite entry gives inf, a NaN gives NaN, and
    entries past about 1e154 overflow their squares to inf.  np.vdot is
    not used: its complex product turns an infinite entry into NaN.
    """
    x = M.ravel(order="K")
    if x.dtype.kind == "c":
        x = x.view(x.real.dtype)
    return math.sqrt(x.dot(x))


def _norm2(M):
    """Spectral norm of one matrix M, its largest singular value, as
    _spectral_norms of the one-matrix stack: 0 when empty, NaN when not
    finite, and within a few ulps of np.linalg.norm(M, 2)."""
    return float(_spectral_norms(M[None])[0])


def _trsolve(a, b, lower=False, trans=0, check_finite=False):
    """The solution x of a x = b, or of a^H x = b with trans 2, for a
    triangular complex128 a (upper, or lower with lower): one LAPACK
    ztrtrs call, made as scipy's triangular-solve wrapper makes it, so x
    is bitwise the wrapper's with the same arguments.  An F-ordered a, or
    one with trans 2, goes in as it is; any other a goes in transposed,
    with the other triangle and trans 1, which lays it out in Fortran
    order without a copy.  check_finite refuses a non-finite a or b with
    ValueError, as the wrapper does; an empty b takes no call (ztrtrs
    refuses n = 0), and a zero pivot raises LinAlgError."""
    if check_finite and not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if not b.size:
        return np.zeros(b.shape, dtype=complex)
    if a.flags.f_contiguous or trans == 2:
        x, info = ztrtrs(a, b, lower=lower, trans=trans)
    else:
        x, info = ztrtrs(a.T, b, lower=not lower, trans=1)
    if info:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}" if info > 0
            else f"illegal value in argument {-info} of ztrtrs")
    return x


def _gram_eigenvalues(stack):
    """(w, scale) for a (k, p, m) stack: w[i] the min(p, m) ascending
    eigenvalues of the smaller Gram matrix of stack[i] / scale[i], so that
    stack[i] has the singular values sqrt(w[i]) * scale[i].  The one route
    to singular values read as norms.

    scale[i] is the power of two just above the largest entry, at most
    2^1023 so that it is finite: the division is exact and no Gram entry
    overflows or underflows.  Up to 2 rows take the closed form, the
    diagonal or (a + c)/2 -+ hypot((a - c)/2, |b|) for [[a, b], [b^*, c]],
    within a few ulps of a + c as an eigen-solve's are (the discriminant
    form cancels near a unitary value); larger Grams take one stacked
    eigvalsh.  A non-finite matrix gets NaN, with no floating-point
    warning."""
    k, p, m = stack.shape
    if not p * m:
        return np.zeros((k, 0)), np.ones(k)
    peak = np.abs(stack).max(axis=(1, 2))
    finite = np.isfinite(peak)
    if not finite.all():
        w, scale = _gram_eigenvalues(np.where(finite[:, None, None], stack, 0.0))
        return np.where(finite[:, None], w, np.nan), scale
    scale = np.ldexp(1.0, np.minimum(np.frexp(peak)[1], 1023))
    unit = stack / scale[:, None, None]
    if p > m:
        unit = unit.conj().transpose(0, 2, 1)
    gram = unit @ unit.conj().transpose(0, 2, 1)
    if gram.shape[1] == 1:
        w = gram[:, 0, :].real
    elif gram.shape[1] == 2:
        a, c = gram[:, 0, 0].real, gram[:, 1, 1].real
        mid = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), np.abs(gram[:, 0, 1]))
        w = np.stack([mid - rad, mid + rad], axis=1)
    else:
        w = np.linalg.eigvalsh(gram)
    return w, scale


def _spectral_norms(stack):
    """Spectral norm of each matrix of a (k, p, m) stack, the square root
    of the largest of its _gram_eigenvalues times its scale: 0 for an empty
    matrix, NaN for one that is not finite, and within a few ulps of
    np.linalg.norm(M, 2) at every finite scale."""
    w, scale = _gram_eigenvalues(stack)
    return np.sqrt(np.maximum(w.max(axis=1, initial=0.0), 0.0)) * scale


def _residual_norm(R, bound):
    """The value that certifies a residual matrix R against bound: an upper
    bound on ||R||_2, and ||R||_2 itself wherever ||R||_F cannot decide.

    ||R||_F >= ||R||_2, so a Frobenius norm (_fro) within
    bound * (1 - 1e-14) is returned with no spectral norm taken; the
    deflation, about 45 ulps, covers the rounding of either norm where the
    two coincide (rank one, a single row or column among them), the few
    ulps of _fro's one dot included.  Above it _norm2(R) is returned, so a
    value above bound, and every failing certificate, is the one that
    always taking _norm2 gives.
    """
    fro = _fro(R)
    if fro <= bound * (1.0 - 1e-14):
        return fro
    return _norm2(R)


def _certify_residual(name, R, bound, scale=lambda: 1.0):
    """_certify_scaled(name, _residual_norm(R, bound), bound, scale): the
    certified value, the Frobenius norm where that passes and the spectral
    norm otherwise."""
    return _certify_scaled(name, _residual_norm(R, bound), bound, scale)
