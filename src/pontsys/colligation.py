"""Operator colligations and their transfer functions.

A colligation { A, B, C, D } couples a signature state space with a
Hilbert input and output.  The system operator acts block-wise:

    [ x_next ]   [ A  B ] [ x ]
    [ y      ] = [ C  D ] [ u ]

and the transfer function is D + z C (I - z A)^(-1) B, holomorphic at 0.
transfer_values evaluates it at a batch of points on the system's cached
Schur form A = Z T Z^H: one back-substitution on I - z T (_sweep),
vectorized over the points, with one pole guard read off the same sweep;
the circle surveys, and transfer_eval as its one-point case, run on it.
The guard decides most points by a comparison-matrix bound and runs the
stacked SVD only on the points that bound leaves open.  Every resolvent
sample is a sweep of its drive, Z^H B or Z^H C^H (_samples).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum as _Enum
from functools import cached_property

import numpy as np

from ._lapack import zgeev, zgesvd
from .exceptions import (
    DimensionMismatchError,
    IndefiniteDefectError,
    InputError,
    OrderAmbiguityError,
    PoleProximityError,
    PontsysError,
    PreconditionError,
    _certify_scaled,
    _fro,
    _norm2,
    _residual_norm,
    _spectral_norms,
    certify,
)
from .indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    MetricClass,
    SignatureSpace,
    SubspaceKind,
    _defect_class,
    _DiscSchur,
    _metric_defects,
    _rank_cut,
    _UNIT_ROUNDOFF,
    as_matrix,
    column_space,
    is_psd,
    j_adjoint,
    metric_classify,
    nullspace,
    orthocomplement_basis,
    subspace_classify,
)

__all__ = [
    "BareRealization",
    "Colligation",
    "SystemKind",
    "SystemClass",
    "KrylovReport",
    "SimilarityResult",
    "system_operator",
    "classify",
    "system_kind",
    "adjoint_system",
    "transfer_eval",
    "transfer_values",
    "markov",
    "krylov_report",
    "state_change",
    "to_canonical",
    "unitary_similarity",
    "weak_similarity",
    "realize_from_taylor",
]


@dataclass(frozen=True)
class BareRealization:
    """State-space data A, B, C, D with no metric attached to the state."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, name="A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionMismatchError("A must be square")
        D = as_matrix(self.D, name="D")
        B = as_matrix(self.B, rows=n, cols=D.shape[1], name="B")
        C = as_matrix(self.C, rows=D.shape[0], cols=n, name="C")
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, val)

    @property
    def state_dim(self):
        return self.A.shape[0]

    @property
    def input_dim(self):
        return self.D.shape[1]

    @property
    def output_dim(self):
        return self.D.shape[0]


@dataclass(frozen=True)
class Colligation:
    """System node with a signature state space and Hilbert input/output."""

    state: SignatureSpace
    input_dim: int
    output_dim: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        if self.input_dim < 0 or self.output_dim < 0:
            raise InputError("input_dim and output_dim must be nonnegative")
        n = self.state.dim
        A = as_matrix(self.A, rows=n, cols=n, name="A")
        B = as_matrix(self.B, rows=n, cols=self.input_dim, name="B")
        C = as_matrix(self.C, rows=self.output_dim, cols=n, name="C")
        D = as_matrix(self.D, rows=self.output_dim, cols=self.input_dim, name="D")
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, val)

    @classmethod
    def _built(cls, state, A, B, C, D):
        """Colligation on complex128 blocks that the library computed from
        validated ones, in the shapes that state and D fix, without the
        copies and shape checks of __post_init__.

        The finiteness scan stays, in the order A, B, C, D of
        __post_init__: products of finite blocks can overflow, and a
        block that did is refused with the same InputError.  Each block is
        held read-only in the layout of the copy that __post_init__ makes
        (np.array keeps the order of its input): a contiguous block is
        kept without a copy, and only a strided slice is copied, so every
        later product meets the memory layout, and so the BLAS route and
        the rounding, of the validated copy.  The callers are cascade,
        the factors of kl_factorize_system and julia_embedding, which
        passes the blocks of its completed operator.
        """
        system = object.__new__(cls)
        object.__setattr__(system, "state", state)
        object.__setattr__(system, "input_dim", D.shape[1])
        object.__setattr__(system, "output_dim", D.shape[0])
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D)):
            if val.size and not np.isfinite(val).all():
                raise InputError(f"{name} contains non-finite entries")
            if not (val.flags.c_contiguous or val.flags.f_contiguous):
                val = val.copy(order="K")
            view = val.view()
            view.setflags(write=False)
            object.__setattr__(system, name, view)
        return system

    @property
    def state_dim(self):
        return self.state.dim

    @property
    def kappa(self):
        return self.state.neg

    @cached_property
    def _spectrum(self):
        """Complex Schur form of A, taken on first use; every eigenvalue
        question about the system reads it."""
        return _DiscSchur(self.A)

    @cached_property
    def _eigenvectors(self):
        """The unit eigenvectors of the Schur form, by _schur_vectors."""
        return _schur_vectors(self._spectrum)

    @cached_property
    def _spans(self):
        """The results of _schur_spans on the system, by (sides, tol)."""
        return {}


def system_operator(system):
    """Block matrix [[A, B], [C, D]] with its domain and codomain signs.

    Domain is the state space extended by the Hilbert input coordinates,
    codomain the state space extended by the output coordinates; the sign
    patterns keep the state block in place.
    """
    n = system.state_dim
    T = np.empty((n + system.output_dim, n + system.input_dim), dtype=complex)
    T[:n, :n] = system.A
    T[:n, n:] = system.B
    T[n:, :n] = system.C
    T[n:, n:] = system.D
    state_signs = system.state.signs
    return (T, np.concatenate([state_signs, np.ones(system.input_dim)]),
            np.concatenate([state_signs, np.ones(system.output_dim)]))


class SystemKind(str, _Enum):
    """Metric class of the system operator."""

    NONE = "none"
    PASSIVE = "passive"
    ISOMETRIC = "isometric"
    COISOMETRIC = "coisometric"
    CONSERVATIVE = "conservative"


_METRIC_TO_KIND = {
    MetricClass.NONE: SystemKind.NONE,
    MetricClass.CONTRACTION: SystemKind.PASSIVE,
    MetricClass.ISOMETRY: SystemKind.ISOMETRIC,
    MetricClass.COISOMETRY: SystemKind.COISOMETRIC,
    MetricClass.UNITARY: SystemKind.CONSERVATIVE,
}


@dataclass(frozen=True)
class SystemClass:
    """Certified metric kind of a system and the Krylov report its flags come from."""

    kind: SystemKind
    krylov: KrylovReport = field(compare=False, repr=False)

    @property
    def is_passive(self):
        return self.kind != SystemKind.NONE

    @property
    def controllable(self):
        return self.krylov.controllable

    @property
    def observable(self):
        return self.krylov.observable

    @property
    def simple(self):
        return self.krylov.simple

    @property
    def minimal(self):
        return self.krylov.controllable and self.krylov.observable


def classify(system, tol=DEFAULT_TOL):
    """SystemClass of the system: the certified kind of system_kind and the
    krylov_report that its flags are read from.

    The flags are decided by the Hautus test on the system's one Schur
    form, which the pole, split and stability questions about the system
    read as well: an eigenvalue is hidden when its eigenvector meets the
    input (output) map at or below the Arnoldi cut
    rank_tol max(1, |A|_F, |B|_F) (|C|_F), and eigenvalues within
    rank_tol^(1/3) max(1, |A|_F) of each other, or nearly defective, are
    decided together by a block Arnoldi recurrence on their small block
    of the form.  _schur_spans argues why these thresholds hold.
    """
    return SystemClass(system_kind(system, tol), krylov_report(system, tol))


# the bicontraction certificate allows this multiple of psd_tol, at most 1/2
_BICONTRACTION_SLACK = 10.0


def system_kind(system, tol=DEFAULT_TOL):
    """Metric kind of the system operator T = [[A, B], [C, D]], certified
    a bicontraction when passive.

    T maps diag(J, I_m) into diag(J, I_p), of one negative index, so a
    contraction T has both defects positive semidefinite.  The one defect
    the verdict did not find zero is certified by is_psd with slack
    min(1/2, 10 psd_tol): the dual defect of a passive or isometric T, the
    primal defect of a coisometric one.  That covers the corners A, [A; C]
    and [A, B]: primal([A; C]) and dual([A, B]) are state blocks of
    primal(T) and dual(T), and primal(A), primal([A, B]), dual(A) and
    dual([A; C]) add C^*C, [C, D]^*[C, D], BB^* and [B; D][B; D]^* to
    primal([A; C]), primal(T), dual([A, B]) and dual(T).
    """
    return _operator_kind(*system_operator(system), tol)[0]


def _operator_kind(T, dom, cod, tol):
    """system_kind of the system operator T from dom to cod, given by
    their sign vectors, with the primal and dual defects of T it was
    decided on.  T is a fresh complex array built from validated blocks,
    so its defects are formed unchecked."""
    primal, dual = _metric_defects(T, dom, cod)
    verdict = _defect_class(T, primal, dual, tol)
    _certify_bicontraction(verdict, primal, dual, tol)
    return _METRIC_TO_KIND[verdict], primal, dual


def _certify_bicontraction(verdict, primal, dual, tol):
    """Refuse a passive verdict whose defect not found zero is indefinite
    beyond the slack of system_kind, with IndefiniteDefectError: such an
    operator lies within a few metric_tol of a passive one without being
    one, an input that is ambiguous at the stated tolerances."""
    defect = {MetricClass.CONTRACTION: dual, MetricClass.ISOMETRY: dual,
              MetricClass.COISOMETRY: primal}.get(verdict)
    if defect is not None and not is_psd(defect, replace(
            tol, psd_tol=min(0.5, _BICONTRACTION_SLACK * tol.psd_tol))):
        raise IndefiniteDefectError(
            "passive system operator with an indefinite defect")


def adjoint_system(system):
    """Adjoint system: metric adjoints of the blocks, input and output swapped.

    Its transfer function is z -> transfer(conj(z))* of the original.
    """
    sp = system.state
    return Colligation(
        sp, system.output_dim, system.input_dim,
        j_adjoint(system.A, sp, sp),
        j_adjoint(system.C, sp, system.output_dim),
        j_adjoint(system.B, system.input_dim, sp),
        system.D.conj().T,
    )


# a point whose comparison bound stays below this fraction of the pole rule
# passes the rule; the factor 2 absorbs the rounding of the Schur form, of
# the sweep and of the SVD
_GUARD_MARGIN = 0.5


def _sweep(system, W, z, tol, adjoint=False):
    """(X, ok) for W of shape (n, m) in the coordinates of the system's
    cached Schur form A = Z T Z^H and N points z: X[:, k] =
    (I - z_k T)^(-1) W, or with adjoint (I - conj(z_k) T^H)^(-1) W, shape
    (n, N, m), and ok marking the points at which I - z_k A passes the
    pole rule s_min > rank_tol max(1, s_max) (README rule 5).  Every
    transfer value and every resolvent sample is one sweep of its drive.

    One back-substitution serves every point and column, n steps of
    O(n N m) work; the adjoint one runs on the upper triangular R T^H R, R
    the index reversal, and R W.  The same steps solve M_k y_k = e for the
    comparison matrix M_k of the triangle, so s_min >= 1 / (sqrt(n)
    |y_k|_inf), and s_max <= |I - z_k T|_F.  A point whose bounds pass the
    rule within _GUARD_MARGIN passes; the rest, non-finite sweeps included,
    take the stacked SVD of I - z A, which has the singular values of
    I - conj(z) A^H."""
    T, A = system._spectrum.T, system.A
    n, m = W.shape
    N = z.size
    U, w = (np.ascontiguousarray(T.conj().T[::-1, ::-1]), z.conj()) if adjoint else (T, z)
    with np.errstate(all="ignore"):
        inv = 1.0 / (1.0 - np.diagonal(U)[:, None] * w)
        # row i starts at W_i / d_i and gains w / d_i times U[i, i+1:] X[i+1:]
        X = ((W[::-1] if adjoint else W)[:, None, :] * inv[:, :, None]).reshape(n, N * m)
        step = np.repeat(w * inv, m, axis=1)
        y = np.abs(inv)
        grow = np.abs(w) * y
        absolute = np.abs(U)
        for i in range(n - 2, -1, -1):
            X[i] += step[i] * np.dot(U[i, i + 1:], X[i + 1:])
            y[i] += grow[i] * np.dot(absolute[i, i + 1:], y[i + 1:])
        # max(1, |I - z T|_F)^2; a non-finite square or bound fails the test
        fro2 = np.maximum(1.0, n + (np.abs(z) * _fro(T)) ** 2 - 2.0 * (z * T.trace()).real)
        ok = y.max(axis=0, initial=0.0) * np.sqrt(n) * np.sqrt(fro2) * tol.rank_tol < _GUARD_MARGIN
    if not ok.all():
        s = np.linalg.svd(np.eye(n) - z[~ok, None, None] * A, compute_uv=False)
        ok[~ok] = s[:, -1] > _rank_cut(s, tol)
    X = X.reshape(n, N, m)
    return (X[::-1] if adjoint else X), ok


def _pole_proximity(system, z):
    """PoleProximityError for the point z, naming the system's nearest pole."""
    poles = system._spectrum.poles
    return PoleProximityError(
        z, poles[np.argmin(np.abs(poles - z))] if poles.size else None)


def transfer_values(system, points, tol=DEFAULT_TOL, raise_on_pole=False):
    """Values D + z C (I - z A)^(-1) B of the transfer function at every point.

    One _sweep of Z^H B on the system's Schur form A = Z T Z^H, whose pole
    rule rejects a point when s_min <= rank_tol * max(1, s_max) of I - z A,
    and one product by C Z.  Returns (values, ok) with values of shape
    (N, p, m) and ok marking the accepted points; rejected rows are NaN.
    With raise_on_pole the first rejected point raises PoleProximityError,
    reporting the nearest reciprocal eigenvalue of A as the offending pole.
    """
    z = np.asarray(points, dtype=complex).ravel()
    n = system.A.shape[0]
    p, m = system.D.shape
    if n == 0:
        values = np.broadcast_to(system.D, (z.size, p, m)).copy()
        return values, np.ones(z.size, dtype=bool)
    form = system._spectrum
    X, ok = _sweep(system, form.Z.conj().T @ system.B, z, tol)
    rejected = ~ok
    if rejected.any():
        if raise_on_pole:
            raise _pole_proximity(system, complex(z[np.argmax(rejected)]))
        # a rejected point's sweep may have overflowed; its row is NaN below
        X[:, rejected] = 0.0
    CX = ((system.C @ form.Z) @ X.reshape(n, z.size * m)).reshape(p, z.size, m)
    values = np.multiply(z[:, None, None], CX.transpose(1, 0, 2),
                         out=np.empty((z.size, p, m), dtype=complex))
    values += system.D
    values[rejected] = np.nan
    return values, ok


# the resolvent at a sample point may exceed 1 / (g |A|_F) by this factor,
# g = rank_tol^(1/3), and amplify a sample's rounding along a hidden mode
# by as much
_SAMPLE_SLACK = 16.0
# a point at r from an eigenvalue of condition number kappa holds its own
# term kappa / r within 1 / _KAPPA_MARGIN of the slack
_KAPPA_MARGIN = 2.0


def _sample_points(system, tol):
    """z_k = 1 / sigma_k, one point beside each eigenvalue lam_k of the
    Schur form, sigma_k = lam_k + r_k e^(2 pi i j / c), with j the rank of
    lam_k among the c eigenvalues within r_k of it, placed so that
    |(sigma_k - A)^(-1)|_F |A|_F <= _SAMPLE_SLACK / g, g = rank_tol^(1/3).
    The resolvent is the sum of P_j / (sigma - lam_j) over the spectral
    projectors, |P_j|_F = kappa_j = 1 / |y_j^H x_j| for the unit vectors
    of _schur_vectors, so r_k = g |A|_F max(1, _KAPPA_MARGIN kappa_k /
    _SAMPLE_SLACK) places a point with no other eigenvalue within twice
    the larger radius.  The rest are measured: the clusters of
    _schur_spans, which start at g |A|_F, and the eigenvalues with such a
    neighbour or whose ring meets a measured one's.  Their radii double
    with their cluster until the bound holds on (sigma_k - T)^(-1), from
    one _sweep of the identity at their points only, so a cluster or a
    Jordan chain moves out.  The samples (I - z_k A)^(-1) B span the
    reachable space, a rational Krylov space (Ruhe, 1984).  Each is inverse
    iteration at sigma_k: the solve's rounding, a small multiple of
    u |A|_F, reaches a hidden mode amplified by at most
    |(sigma_k - A)^(-1)|_2: by about 16 u / g, 4e-12 relative at the
    default rank_tol, 25 times below it.  The bound also keeps the points
    off a spectrum crowded far inside |A|_F, which the samples then do not
    resolve.
    """
    g = tol.rank_tol ** (1.0 / 3.0)
    # in units of |A|_F (1 for A = 0), so no resolvent norm overflows
    scale = _fro(system.A) or 1.0
    lam = system._spectrum.eigenvalues / scale
    gap = np.abs(lam[:, None] - lam)
    left, right = (np.abs(np.diagonal(v)) for v in system._eigenvectors)
    # the clusters of _schur_spans: within its gap g max(1, |A|_F) of another
    # eigenvalue, or with an eigenvector grown past 1/g
    clustered = ((gap <= g * max(1.0, 1.0 / scale)).sum(axis=1) > 1) | ~(
        np.minimum(left, right) >= g)
    # kappa_k = 1 / |conj(y_k[k]) x_k[k]|: y_k vanishes above k and x_k below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        stretch = _KAPPA_MARGIN / _SAMPLE_SLACK / (left * right)
        radius = np.where(clustered, g, g * np.maximum(1.0, stretch))
    below = np.tri(lam.size, k=-1, dtype=bool)
    while True:
        reach = np.maximum(radius[:, None], radius)
        close = gap <= reach
        sigma = lam + radius * np.exp(2j * np.pi * (close & below).sum(axis=1) / close.sum(axis=1))
        clustered |= close[:, clustered].any(axis=1) | ((gap <= 2.0 * reach).sum(axis=1) > 1)
        if not clustered.any():
            return 1.0 / (scale * sigma)
        # (I - T / (scale s))^(-1) = s (s - T / scale)^(-1) at s = sigma_k
        X = _sweep(system, np.eye(lam.size), 1.0 / (scale * sigma[clustered]), tol)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            near = ~(np.linalg.norm(X, axis=(0, 2)) / np.abs(sigma[clustered]) * g
                     <= _SAMPLE_SLACK)
        if not near.any():
            return 1.0 / (scale * sigma)
        radius[close[:, np.flatnonzero(clustered)[near]].any(axis=1)] *= 2.0


def _samples(systems, z, tol, observe=False):
    """[S_1, S_2, ...]: the resolvent samples (I - z_k A)^(-1) B of each
    system, or with observe (I - conj(z_k) A^H)^(-1) C^H, Z times one
    _sweep of Z^H B (Z^H C^H) on its Schur form A = Z T Z^H, at the points
    every sweep accepts (so no overflowed sweep reaches a product), as
    n x (points m) matrices, each column divided by the norm of the first
    system's column, whose zero columns are dropped."""
    sweeps = [_sweep(s, s._spectrum.Z.conj().T @ (s.C.conj().T if observe else s.B),
                     z, tol, observe) for s in systems]
    ok = np.logical_and.reduce([ok for _, ok in sweeps])
    k = int(np.count_nonzero(ok))
    S = [s._spectrum.Z @ X[:, ok].reshape(X.shape[0], k * X.shape[2])
         for s, (X, _) in zip(systems, sweeps)]
    norms = np.linalg.norm(S[0], axis=0)
    keep = norms > 0
    return [Si[:, keep] / norms[keep] for Si in S]


def _sampled_hidden(system, observe, tol):
    """The hidden space of _schur_spans on one side, from samples: the
    orthogonal complement of the span of (I - z A)^(-1) B at the
    _sample_points, or with observe of (I - conj(z) A^H)^(-1) C^H, one
    _sweep of m (p) columns per point."""
    S, = _samples([system], _sample_points(system, tol), tol, observe)
    return nullspace(S.conj().T, tol)


def transfer_eval(system, z, tol=DEFAULT_TOL):
    """Value D + z C (I - z A)^(-1) B of the transfer function at z.

    The one-point case of transfer_values: rejects points where I - z A
    is numerically singular with PoleProximityError.
    """
    return transfer_values(system, [complex(z)], tol, raise_on_pole=True)[0][0]


def markov(system, k):
    """Taylor coefficient of the transfer function: D at k=0, C A^(k-1) B after."""
    if k < 0:
        raise InputError("coefficient index must be nonnegative")
    if k == 0:
        return system.D.copy()
    return system.C @ np.linalg.matrix_power(system.A, k - 1) @ system.B


def _taylor_stack(system, order):
    """Taylor coefficients 0..order as an (order + 1, p, m) stack, one
    product by C for all orders on the block [B, AB, ..., A^(order-1) B],
    built by doubling: its first 2^j blocks times A^(2^j) are the next 2^j."""
    p, m = system.D.shape
    out = np.empty((order + 1, p, m), dtype=complex)
    out[0] = system.D
    if order == 0:
        return out
    K = np.empty((system.state_dim, order * m), dtype=complex)  # block r is A^r B
    K[:, :m] = system.B
    done, P = 1, system.A
    while done < order:
        step = min(done, order - done)
        K[:, done * m:(done + step) * m] = P @ K[:, :step * m]
        done += step
        if done < order:
            P = P @ P
    out[1:] = (system.C @ K).reshape(p, order, m).transpose(1, 0, 2)
    return out


def _krylov_basis(A, B, tol, cut=None):
    """Block Arnoldi: orthonormal basis Q of span[B, AB, A^2 B, ...].

    Each new block is orthogonalized twice against the basis so far, and
    singular values at or below the cut, by default
    rank_tol * max(1, |A|_F, |B|_F), are deflated.  _hidden_split passes
    the cut of the whole system when it runs the recurrence on a block of
    the system's Schur form.  The basis is written into one n x n buffer,
    and its conjugate transpose into a second one beside it, so no step
    copies the basis so far.  Also returns the recurrence steps
    (H_k, Vh_k, s_k): block k of Q is (X_k - Q_<k H_k) Vh_k^H / s_k, with
    X_0 = B and X_k = A (block k-1); _krylov_map replays them on a second
    system.
    """
    n = A.shape[0]
    if cut is None:
        cut = tol.rank_tol * max(1.0, _fro(A), _fro(B))
    Q = np.empty((n, n), dtype=complex)
    # row j is the conjugate of column j of Q; Fortran order lays the first
    # k rows out as the conjugate transpose of Q[:, :k] is laid out
    Qt = np.empty((n, n), dtype=complex, order="F")
    steps = []
    k = 0
    X = B
    while X.shape[1] and k < n:
        Qk = Q[:, :k]
        # one row makes a BLAS dot, which rounds a strided row differently
        Qh = Qt[:k] if k > 1 else Qk.conj().T
        H = Qh @ X
        H += Qh @ (X - Qk @ H)
        U, s, Vh, info = zgesvd(X - Qk @ H, full_matrices=0)
        if info:
            raise np.linalg.LinAlgError("SVD did not converge")
        r = min(sum(v > cut for v in s.tolist()), n - k)
        if r == 0:
            break
        steps.append((H, Vh[:r], s[:r]))
        Q[:, k:k + r] = U[:, :r]
        Qt[k:k + r] = U[:, :r].conj().T
        X = A @ U[:, :r]
        k += r
    return Q[:, :k], steps


# zgeev scales a matrix whose largest entry lies outside about
# [1e-138, 1e138], and the LAPACK bundled with scipy 1.17 then returns the
# eigenvalues of the scaled matrix; _schur_spans first scales T into this
# range by a power of two, which is exact and keeps the eigenvectors
_EIG_RANGE = (2.0 ** -400, 2.0 ** 400)
# eigenvalues within this many unit roundoffs of the largest modulus of
# each other lie within the cluster gap of _schur_spans, so their vectors
# decide nothing; any other vector returned out of the order of diag(T)
# fails the bound
_ORDER_ULPS = 64.0


def _schur_spans(system, sides, tol):
    """[(span, hidden) for observe in sides]: orthonormal bases of the
    reachable space span[B, AB, ...] and of its orthogonal complement, or,
    with observe, of span[C^H, A^H C^H, ...] and of the unobservable kernel
    {x : C A^k x = 0 for all k}, decided on the Schur form A = Z T Z^H of
    system._spectrum by the Hautus test (Paige, IEEE TAC 26(1), 1981).

    The hidden space is invariant under A^H (under A with observe), so it
    splits along the spectrum.  The one zgeev call of _schur_vectors,
    memoized on the system, gives the unit left eigenvectors y_k of T (the
    right ones x_k with observe), vector k for the k-th diagonal entry;
    _sample_points reads the same call.  The vector
    y_k / y_k[k], unit at its place on the diagonal, has grown to
    1 / |y_k[k]|.  An eigenvalue is isolated when it lies farther than the
    gap g max(1, |A|_F) from every other one, g = rank_tol^(1/3), and its
    vector grew by at most 1/g; it is then simple, and hidden exactly
    when y^H B = 0 (C x = 0).  It is a candidate when |y^H Z^H B| (or
    |C Z x|) is at or below the deflation cut of _krylov_basis,
    c = rank_tol max(1, |A|_F, |B|_F) (|C|_F in place of |B|_F with
    observe).  Every eigenvalue that is not isolated, that is clustered,
    is a candidate too.  One reordering moves the candidates to the
    trailing block W of the form (the leading block with observe), whose
    span holds the whole hidden space.
    - With a cluster among them, _krylov_basis, with the cut c, decides
      on the small block (W^H A W, W^H B): the span gains W Q for its
      basis Q, and the hidden space is W times the orthogonal complement
      of Q.
    - Without one, the candidates are hidden when |W^H B|_2 <= c, and the
      span is the rest of the Schur vectors.  Isolated candidates can meet
      the cut one by one but not together, when their eigenvectors are
      far from orthogonal; the hidden set is then the one found by adding
      them in the order of their own drive, each kept while the block of
      the set meets the cut.  A recurrence on that block would start from
      a vector of norm near c, whose direction carries the rounding of
      W^H B, about u |B| / c, and could read an exactly hidden mode as
      reached.
    - With no candidate the span is the whole state, and a side without
      input (output) columns hides the whole state; neither reorders.

    Below scale s = max(|A|_F, |B|_F) < 1 a drive that only the floor of c
    hides is refused (_reached), and a recurrence must reach its rank at
    rank_tol s too; a gap only the floor closes just routes a recurrence.

    Why the thresholds hold.  The back-substitution of ztrevc divides by
    the differences lam_j - lam_k of the diagonal, so the computed
    eigenvector of an eigenvalue at distance d from the rest of the
    spectrum is off by about u |A|_F / d, u the unit roundoff, times the
    departure from normality; above the gap rounding adds about u |B| / g
    to |y^H B|: 5e-13 |B| at the default rank_tol, a factor 200 below c,
    so an exactly hidden isolated mode is found, however dominant.  ztrevc
    raises a pivot lam_j - lam_k below ulp |lam_k| to that size, which
    happens only within a cluster, whose eigenvalues are candidates
    anyway.  A defective eigenvalue of a Jordan chain of length k is split
    by about (u |A|)^(1/k) in the computed form, within the gap for
    chains up to length four at the default rank_tol; longer chains split
    further, but their vectors grow by about (1 / split)^(k - 1), past
    1e12 from length six on, while those of the seeded passive and
    conservative systems of the tests, n <= 40, grow by at most 12.
    Either way such eigenvalues reach the recurrence, whose block holds
    only candidates, so no dominant reachable mode amplifies the rounding
    along a hidden one, which is how the recurrence on the whole state
    misses hidden modes.

    The result is memoized on the system by (sides, tol), with its arrays
    read-only; a call that raises stores nothing.
    """
    form = system._spectrum
    Z = form.Z
    if not Z.size:
        return [(Z, Z)] * len(sides)
    spans = system._spans.get((sides, tol))
    if spans is not None:
        return spans
    norm_a = _fro(system.A)
    lam = form.eigenvalues
    g = tol.rank_tol ** (1.0 / 3.0)
    close = np.abs(lam[:, None] - lam[None, :]) <= g * max(1.0, norm_a)
    near = np.count_nonzero(close, axis=1) > 1
    # a side without input (output) columns hides the whole state
    driven = [observe for observe in sides if (system.C if observe else system.B).size]
    pair = system._eigenvectors if driven else None
    spans = []
    for observe in sides:
        if observe not in driven:
            spans.append((Z[:, :0], Z))
            continue
        drive, axis, vectors = (system.C, 0, pair[1]) if observe else (system.B, 1, pair[0])
        images = (drive @ Z @ vectors if observe
                  else vectors.conj().T @ (Z.conj().T @ drive))
        # the drive of each eigenvector, np.linalg.norm(images, axis=axis)
        # without its wrapper
        ratio = np.sqrt(np.add.reduce((images.conj() * images).real, axis=axis))
        scale = max(norm_a, _fro(drive))
        # a growth 1 / |y_k[k]| past 1/g, or a vector lost to overflow,
        # marks a nearly defective eigenvalue, decided with the clusters
        clustered = near | ~(np.abs(np.diagonal(vectors)) >= g)
        candidate = clustered | ~_reached(ratio, scale, tol)
        spans.append(_hidden_split(system, observe, clustered, candidate, ratio, scale, tol)
                     if candidate.any() else (Z, Z[:, :0]))
    for pair in spans:
        for basis in pair:
            basis.flags.writeable = False
    system._spans[sides, tol] = spans
    return spans


def _schur_vectors(form):
    """(left, right): the unit left and right eigenvectors of the triangular
    T of the Schur form, read-only, from one LAPACK zgeev call.  Balancing
    isolates each eigenvalue of a triangular matrix in place, so no QR
    sweep runs and ztrevc back-substitutes on T itself, returning vector k
    for the k-th diagonal entry; a certificate holds the returned
    eigenvalues to diag(T) to rounding.  T goes in scaled by a power of two
    when its largest entry leaves _EIG_RANGE, so zgeev never scales it."""
    if not form.T.size:
        return form.Z, form.Z
    lam = form.eigenvalues
    top = float(np.abs(form.T).max())
    shift = 0
    if not _EIG_RANGE[0] <= top <= _EIG_RANGE[1]:
        shift = int(np.clip(np.frexp(top)[1], -1000, 1000))
    w, left, right, info = zgeev(form.T * 2.0 ** -shift if shift else form.T, 1, 1)
    if info:
        raise np.linalg.LinAlgError("eigenvectors of the Schur form did not converge")
    certify("Schur form eigenvalue order", float(np.abs(w * 2.0 ** shift - lam).max()),
            _ORDER_ULPS * _UNIT_ROUNDOFF * float(np.abs(lam).max()))
    left.flags.writeable = right.flags.writeable = False
    return left, right


def _reached(drives, scale, tol):
    """drives > rank_tol max(1, s), the cut of _schur_spans at the system's
    scale s; a drive that only the floor hides, above rank_tol s, is refused."""
    reached = drives > tol.rank_tol * max(1.0, scale)
    if scale < 1.0 and np.any(~reached & (drives > tol.rank_tol * scale)):
        raise PreconditionError(
            f"system scale {scale:.3e} lies below 1, where the floor of the "
            "Hautus cut, not the system, decides a drive: rescale A, B and C")
    return reached


def _hidden_split(system, observe, clustered, candidate, ratio, scale, tol):
    """(span, hidden) of one side of _schur_spans from its masks of
    clustered and candidate eigenvalues, at least one a candidate, and the
    drive of each eigenvector against the cut at the system's scale."""
    form = system._spectrum
    Z = form.Z
    n = Z.shape[0]
    drive = system.C.conj().T if observe else system.B

    def moved(select):
        """(rest, block): the Schur vectors with the selected eigenvalues
        moved to the end of the form that holds the hidden space."""
        k = int(np.count_nonzero(select))
        if observe:
            Zr, _ = form.reordered(select)
            return Zr[:, k:], Zr[:, :k]
        Zr, _ = form.reordered(~select)
        return Zr[:, :n - k], Zr[:, n - k:]

    rest, block = moved(candidate)
    if clustered.any():
        Tb = block.conj().T @ system.A @ block
        krylov = lambda c: _krylov_basis(
            Tb.conj().T if observe else Tb, block.conj().T @ drive, tol, cut=c)[0]
        Q = krylov(tol.rank_tol * max(1.0, scale))
        if scale < 1.0 and krylov(tol.rank_tol * scale).shape[1] != Q.shape[1]:
            _reached(tol.rank_tol, scale, tol)  # the floor decided a deflation
        span = np.hstack([rest, block @ Q])
        # the complement of the whole span rather than block times that of
        # Q: one SVD keeps it orthonormal, and orthogonal to the span, to
        # about 2 u, where the product loses about 20 u on a Jordan chain
        return span, nullspace(span.conj().T, tol)
    if _reached(_norm2(block.conj().T @ drive), scale, tol):
        rest, block, hidden = Z, Z[:, :0], np.zeros(n, dtype=bool)
        for k in np.flatnonzero(candidate)[np.argsort(ratio[candidate], kind="stable")]:
            trial = hidden.copy()
            trial[k] = True
            r, b = moved(trial)
            if not _reached(_norm2(b.conj().T @ drive), scale, tol):
                rest, block, hidden = r, b, trial
    return rest, block


@dataclass(frozen=True)
class KrylovReport:
    """Reachable, observable and combined state subspaces with their flags."""

    controllable_space: IndefiniteSubspace
    observable_space: IndefiniteSubspace
    simple_space: IndefiniteSubspace
    controllable: bool
    observable: bool
    simple: bool
    complement_kinds: dict

    @property
    def index_preserving(self):
        """Whether every Krylov complement is a Hilbert subspace."""
        return all(k == SubspaceKind.HILBERT for k in self.complement_kinds.values())


def krylov_report(system, tol=DEFAULT_TOL):
    """Reachable span[B, AB, ...], observable J span[C^H, A^H C^H, ...] and
    combined spans, with the kinds of their metric complements.

    Both spans and their orthogonal complements come from one
    _schur_spans call on the one Schur form of the system, which takes the
    eigenvectors of both sides from one LAPACK call and states the cut and
    the cluster gap they are decided at; no Arnoldi recurrence runs on the
    whole state.  The observable span is the reachable span of
    adjoint_system(system), whose blocks J A^H J and J C^H make it J times
    span[C^H, A^H C^H, ...].  The combined span is the whole state when
    either span is.  As J is unitary, the metric complement of the
    reachable span is J times its orthogonal complement, and that of the
    observable span is the unobservable kernel, so neither takes an SVD;
    the complement of the combined span is the intersection of the two.
    """
    sp = system.state
    n = sp.dim
    signs = sp.signs[:, None]
    (Qc, hidden_c), (span_o, hidden_o) = _schur_spans(system, (False, True), tol)
    Qo = signs * span_o
    full = [Q for Q in (Qc, Qo) if Q.shape[1] == n]
    Qs = full[0] if full else column_space(np.hstack([Qc, Qo]), tol)
    Xc, Xo, Xs = (IndefiniteSubspace._orthonormal(sp, Q) for Q in (Qc, Qo, Qs))
    kinds = {}
    for name, X, complement in (("controllable", Xc, signs * hidden_c),
                                ("observable", Xo, hidden_o), ("simple", Xs, None)):
        # a span that is the whole state has the zero subspace as complement
        kinds[name] = SubspaceKind.HILBERT if X.dim == n else subspace_classify(
            IndefiniteSubspace._orthonormal(sp, orthocomplement_basis(X, tol)
                                            if complement is None else complement), tol)
    return KrylovReport(Xc, Xo, Xs, Xc.dim == n, Xo.dim == n, Xs.dim == n, kinds)


def state_change(system, Z, new_state):
    """Rewrite the system in new state coordinates x_new = Z x."""
    Zi = np.linalg.inv(Z)
    return Colligation(new_state, system.input_dim, system.output_dim,
                       Z @ system.A @ Zi, Z @ system.B, system.C @ Zi, system.D)


def to_canonical(system):
    """Permute state coordinates so the metric is diag(I_pos, -I_neg)."""
    if system.state.is_canonical:
        return system
    perm = system.state.canonical_permutation()
    P = np.eye(system.state_dim, dtype=complex)[perm, :]
    return state_change(system, P, system.state.canonical())


@dataclass(frozen=True)
class SimilarityResult:
    """State-space similarity between two systems: x2 = Z x1.

    residuals holds, for each block A, B, C and D, the _residual_norm of its
    intertwining relation at the bound that certifies it, 100 metric_tol
    (unitary) or 1e-8 max(1, |Z|_2) (weak): an upper bound on its spectral
    norm that is that norm whenever the Frobenius norm misses the bound
    (README rule 4).  A weak result also holds Z's inverse_condition.
    """

    kind: str  # "unitary" or "weak"
    Z: np.ndarray
    residuals: dict


def _intertwining_residuals(s1, s2, Z, bound):
    """The _residual_norm of each intertwining relation of x2 = Z x1 at the
    bound that certifies it."""
    return {
        "A": _residual_norm(Z @ s1.A - s2.A @ Z, bound),
        "B": _residual_norm(Z @ s1.B - s2.B, bound),
        "C": _residual_norm(s1.C - s2.C @ Z, bound),
        "D": _residual_norm(s1.D - s2.D, bound),
    }


def _krylov_map(recurrence, s2):
    """Z = V2 Q1^H, (Q1, steps) the Krylov recurrence of a system s1 and V2
    its replay on s2, which is Z Q1 when s2 is s1 in the coordinates
    x2 = Z x1.  Block k of V2 is (X_k - V2_<k H_k) Vh_k^H / s_k, written
    into one buffer."""
    Q1, steps = recurrence
    V = np.empty((s2.state_dim, Q1.shape[1]), dtype=complex)
    X = s2.B
    k = 0
    for H, Vh, s in steps:
        Vk = V[:, k:k + s.size]
        Vk[...] = (X - V[:, :k] @ H) @ (Vh.conj().T / s)
        X = s2.A @ Vk
        k += s.size
    return V @ Q1.conj().T


def _similarity_samples(s1, s2, tol):
    """[X1, X2]: the samples [(I - zA)^(-1) B, J (I - conj(z) A^H)^(-1) C^H]
    of s1 and s2 at the _sample_points of s1, each column divided by the
    norm of s1's: one _sweep of m and one of p columns per system and
    point, each side at the points both systems accept."""
    z = _sample_points(s1, tol)
    reach, observe = (_samples((s1, s2), z, tol, side) for side in (False, True))
    # J (I - conj(z) A^H)^(-1) C^H samples the adjoint system at conj(z)
    return [np.hstack([r, s.state.signs[:, None] * o])
            for s, r, o in zip((s1, s2), reach, observe)]


# rows times unknowns squared of the largest complement solve, about 1 s on
# a 2-vCPU Xeon, one BLAS thread: unitary_similarity(s, s) with the whole
# state of a one-channel s hidden took 0.18, 0.85, 1.17 and 1.57 s at 24,
# 32, 34 and 36 states, 2.0e8, 1.1e9, 1.6e9 and 2.2e9 of it
_COMPLEMENT_WORK = 1.4e9


def unitary_similarity(s1, s2, tol=DEFAULT_TOL):
    """Metric-unitary state similarity, or None when none exists.

    A metric unitary Z, x2 = Z x1, maps the samples (I - zA)^(-1) B of s1
    and of its adjoint onto those of s2 (_similarity_samples).  One SVD
    gives Z0 = X2 X1^+, Z on the simple space that X1 spans; on the
    complement P of that span, of dimension h, Z = Z0 + (P + E) P^H with
    the n h entries of E from the intertwining relations in least
    squares.  E corrects the identity on P, so where the identity
    intertwines on the hidden part (the whole state, say) the minimum-norm
    E is zero and Z keeps it.  A problem of n^2 + p n rows whose rows times
    unknowns squared exceed _COMPLEMENT_WORK is refused, typed, unformed.
    Z is certified metric-unitary, its four intertwining residuals within
    100 metric_tol max(1, |Z|_2).
    """
    if (s1.state_dim != s2.state_dim or s1.kappa != s2.kappa
            or s1.input_dim != s2.input_dim or s1.output_dim != s2.output_dim):
        return None
    n = s1.state_dim
    # the verdict of ||dD||_2 against metric_tol max(1, ||D||_2), with no
    # spectral norm where _residual_norm's Frobenius norm already passes
    diff = _residual_norm(s1.D - s2.D, tol.metric_tol)
    if diff > tol.metric_tol and diff > tol.metric_tol * max(1.0, _norm2(s1.D)):
        return None
    bound = tol.metric_tol * 100
    if n == 0:
        return SimilarityResult("unitary", np.zeros((0, 0), dtype=complex),
                                _intertwining_residuals(s1, s2, np.zeros((0, 0)), bound))
    X1, X2 = _similarity_samples(s1, s2, tol)
    # the full U only where fewer samples than states leave it short
    U, sv, Vh = np.linalg.svd(X1, full_matrices=X1.shape[1] < n)
    r = int(np.sum(sv > _rank_cut(sv, tol)))
    Z = (X2 @ (Vh[:r].conj().T / sv[:r])) @ U[:, :r].conj().T
    P = U[:, r:]
    h = P.shape[1]
    if h:
        if (n * n + s1.output_dim * n) * float(n * h) ** 2 > _COMPLEMENT_WORK:
            raise PreconditionError(
                f"the samples leave h = {h} of n = {n} states unspanned: the "
                f"complement's least-squares problem in n h = {n * h} unknowns "
                "is too large to solve densely")
        # D = P + E, so the least-squares E is a correction to the identity
        # on P: vec(E P^H A1 - A2 E P^H) = A2 Z0' - Z0' A1 and
        # vec(C2 E P^H) = C1 - C2 Z0' with Z0' = Z0 + P P^H; P^H B1
        # vanishes, so the B relation holds already
        Z = Z + P @ P.conj().T
        M = np.vstack([np.kron((P.conj().T @ s1.A).T, np.eye(n)) - np.kron(P.conj(), s2.A),
                       np.kron(P.conj(), s2.C)])
        rhs = np.concatenate([(s2.A @ Z - Z @ s1.A).ravel(order="F"),
                              (s1.C - s2.C @ Z).ravel(order="F")])
        E = np.linalg.lstsq(M, rhs, rcond=None)[0].reshape(n, h, order="F")
        Z = Z + E @ P.conj().T
    residuals = _intertwining_residuals(s1, s2, Z, bound)
    worst = max(residuals.values())
    if worst > bound and worst > bound * max(1.0, _norm2(Z)):
        return None
    if metric_classify(Z, s1.state, s2.state, tol) != MetricClass.UNITARY:
        return None
    return SimilarityResult("unitary", Z, residuals)


def _minimal_recurrence(system, tol):
    """The reachable Arnoldi recurrence (Q, steps) of the system, refused
    unless the system is minimal.

    weak_similarity replays the recurrence on a second system
    (_krylov_map), so its reachable span comes from _krylov_basis on the
    whole state rather than from _schur_spans, and a weak job takes no
    Schur form.  Minimality is read off
    the ranks of the reachable span and of span[C^H, A^H C^H, ...], each
    at the cut rank_tol max(1, |A|_F, |B|_F) (|C|_F for the second), and
    the observable recurrence runs only when the reachable span is the
    whole state.  No complement is classified.
    """
    n = system.state_dim
    recurrence = _krylov_basis(system.A, system.B, tol)
    if (recurrence[0].shape[1] != n
            or _krylov_basis(system.A.conj().T, system.C.conj().T, tol)[0].shape[1] != n):
        raise PreconditionError("weak similarity requires minimal systems")
    return recurrence


def weak_similarity(s1, s2, tol=DEFAULT_TOL):
    """Similarity defined on the reachable vectors, certified invertible.

    Requires minimal systems whose Taylor coefficients agree through twice
    the larger state dimension.  Z replays the first system's orthonormal
    Krylov recurrence on the second and is invertible at finite dimension.
    The second system's minimality is checked only when the state
    dimensions differ or a later check fails: at equal dimensions the
    certified invertible intertwiner makes it similar to the minimal first
    one.  A failing input is refused as non-minimal when the second system
    is, before any other reason.
    """
    recurrence = _minimal_recurrence(s1, tol)
    if s1.state_dim != s2.state_dim:
        _minimal_recurrence(s2, tol)
    try:
        return _weak_map(s1, s2, recurrence, tol)
    except PontsysError:
        if s1.state_dim == s2.state_dim:
            _minimal_recurrence(s2, tol)
        raise


def _weak_map(s1, s2, recurrence, tol):
    """weak_similarity past the minimality of s1 (and of s2 at unequal
    state dimensions).

    The Taylor window holds when each ||T1_k - T2_k||_2 is within
    metric_tol times the running maximum of max(1, ||T1_j||_2), j <= k.
    Frobenius norms settle it first: ||X||_2 <= ||X||_F, and
    ||T||_F / sqrt(min(p, m)) <= ||T||_2 bounds the growth from below, so
    a window whose every ||T1_k - T2_k||_F is within metric_tol times the
    running maximum of max(1, ||T1_k||_F / sqrt(min(p, m))), deflated by
    1e-14 for the rounding of norms that coincide, holds.  Only a window
    that one order fails takes one call of _spectral_norms on both stacks,
    so a refusal names the first order at which the spectral test fails.
    """
    if s1.input_dim != s2.input_dim or s1.output_dim != s2.output_dim:
        raise PreconditionError("weak similarity requires matching input/output")
    N = 2 * max(s1.state_dim, s2.state_dim)
    t1 = _taylor_stack(s1, N)
    delta = t1 - _taylor_stack(s2, N)
    # order k is compared against the largest coefficient norm up to k, the
    # norm of D = t1[0] included
    root = max(1, min(s1.output_dim, s1.input_dim)) ** 0.5
    growth = np.maximum.accumulate(np.maximum(1.0, np.linalg.norm(t1, axis=(1, 2)) / root))
    if not np.all(np.linalg.norm(delta, axis=(1, 2))
                  <= tol.metric_tol * (1.0 - 1e-14) * growth):
        size, diff = _spectral_norms(np.concatenate([t1, delta])).reshape(2, -1)
        growth = np.maximum.accumulate(np.maximum(1.0, size))
        bad = np.flatnonzero(diff > tol.metric_tol * growth)
        if bad.size:
            raise PreconditionError(
                f"Taylor coefficients differ at order {bad[0]}; no weak similarity")
    Z = _krylov_map(recurrence, s2)
    # its largest value is ||Z||_2, so no second norm of Z is taken
    sv = np.linalg.svd(Z, compute_uv=False)
    zscale = max(1.0, sv[0]) if sv.size else 1.0
    residuals = _intertwining_residuals(s1, s2, Z, 1e-8 * zscale)
    _certify_scaled("Krylov map intertwining residual",
                    np.max(list(residuals.values())), 1e-8 * zscale,
                    lambda: max(1.0, _norm2(s1.A)))
    residuals["inverse_condition"] = float(sv[-1] / sv[0]) if sv.size else 1.0
    if sv.size:
        certify("weak similarity smallest singular value", -sv[-1],
                -_rank_cut(sv, tol))
    return SimilarityResult("weak", Z, residuals)


def realize_from_taylor(coeffs, tol=DEFAULT_TOL, order_bound=None):
    """State-space realization from Taylor coefficients via block Hankel factorization.

    Needs at least 2 n + 2 coefficients for the order bound n.  The Hankel
    rank must agree across window sizes; otherwise the order is ambiguous.
    Returns a BareRealization whose coefficients reproduce the data.
    """
    coeffs = [as_matrix(c, name=f"coefficient {i}") for i, c in enumerate(coeffs)]
    if not coeffs:
        raise InputError("need at least one Taylor coefficient")
    p, m = coeffs[0].shape
    for c in coeffs:
        if c.shape != (p, m):
            raise DimensionMismatchError("all coefficients must share one shape")
    if order_bound is not None and order_bound < 0:
        raise InputError(f"order bound must be nonnegative, got {order_bound}")
    if len(coeffs) < 2:
        raise PreconditionError(f"need at least 2 coefficients, got {len(coeffs)}")
    n = (len(coeffs) - 2) // 2 if order_bound is None else int(order_bound)
    if len(coeffs) < 2 * n + 2:
        raise PreconditionError(
            f"need at least {2 * n + 2} coefficients for order bound {n}")
    if n == 0:
        return BareRealization(np.zeros((0, 0)), np.zeros((0, m)),
                               np.zeros((p, 0)), coeffs[0])

    stack = np.stack(coeffs)

    def hankel(start, rows, cols):
        # block (i, j) is coeffs[start + i + j]
        index = start + np.add.outer(np.arange(rows), np.arange(cols))
        return stack[index].transpose(0, 2, 1, 3).reshape(rows * p, cols * m)

    H = hankel(1, n + 1, n)
    Hup = hankel(2, n + 1, n)

    def rank(s):
        return int(np.sum(s > _rank_cut(s, tol)))

    def window_rank(rows, cols):
        return rank(np.linalg.svd(hankel(1, rows, cols), compute_uv=False))

    # the window H takes its rank from the singular values of its one full SVD
    U, s, Vh = np.linalg.svd(H, full_matrices=False)
    ranks = {window_rank(n, n), rank(s), window_rank(n, n + 1), window_rank(n + 1, n + 1)}
    if len(ranks) != 1:
        raise OrderAmbiguityError(
            f"Hankel rank keeps growing past the order bound {n}: {sorted(ranks)}")
    r = ranks.pop()
    if r == 0:
        return BareRealization(np.zeros((0, 0)), np.zeros((0, m)),
                               np.zeros((p, 0)), coeffs[0])
    U, s, Vh = U[:, :r], s[:r], Vh[:r]
    sqrt_s = np.sqrt(s)
    obs = U * sqrt_s[None, :]           # (n+1)p x r observability factor
    con = sqrt_s[:, None] * Vh          # r x n m controllability factor
    A = (U.conj().T @ Hup @ Vh.conj().T) / np.outer(sqrt_s, sqrt_s)
    B = con[:, :m]
    C = obs[:p, :]
    return BareRealization(A, B, C, coeffs[0])
