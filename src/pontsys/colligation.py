"""Operator colligations and their transfer functions.

A colligation { A, B, C, D } couples a signature state space with a
Hilbert input and output.  The system operator acts block-wise:

    [ x_next ]   [ A  B ] [ x ]
    [ y      ] = [ C  D ] [ u ]

and the transfer function is D + z C (I - z A)^(-1) B, holomorphic at 0.
transfer_values evaluates it at a batch of points with one stacked pole
guard and one stacked solve; every sampled check in the package, and
transfer_eval as its one-point case, runs on it.  The guard decides most
points by a Frobenius bound on one stacked inverse and runs the stacked
SVD only on the points that bound leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum as _Enum
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import zgeev, zgesvd

from .exceptions import (
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    OrderAmbiguityError,
    PoleProximityError,
    PontsysError,
    PreconditionError,
    _certify_scaled,
    _norm2,
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
    _UNIT_ROUNDOFF,
    as_matrix,
    canonical_basis,
    column_space,
    intersect_spans,
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
    "SimpKarReport",
    "DilationReport",
    "SimilarityResult",
    "system_operator",
    "classify",
    "system_kind",
    "adjoint_system",
    "transfer_eval",
    "transfer_values",
    "markov",
    "krylov_report",
    "simp_kar_check",
    "restriction",
    "state_change",
    "to_canonical",
    "is_dilation_of",
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
    beyond the slack of system_kind."""
    defect = {MetricClass.CONTRACTION: dual, MetricClass.ISOMETRY: dual,
              MetricClass.COISOMETRY: primal}.get(verdict)
    if defect is not None and not is_psd(defect, replace(
            tol, psd_tol=min(0.5, _BICONTRACTION_SLACK * tol.psd_tol))):
        raise InternalConsistencyError(
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


# a point whose Frobenius bound stays below this fraction of the pole rule
# passes the rule; the factor 2 absorbs the rounding of inv and of the SVD
_GUARD_MARGIN = 0.5


def _pole_guard(M, rank_tol):
    """Mask of the matrices in the stack M with s_min > rank_tol * max(1,
    s_max), the pole rule of transfer_values.

    s_min(M) >= 1/|M^-1|_F and s_max(M) <= |M|_F, so a matrix with
    |M^-1|_F * rank_tol * max(1, |M|_F) below _GUARD_MARGIN passes the
    rule; one stacked inv decides those.  The rest, including non-finite
    bounds and the whole stack when inv meets an exactly singular member,
    take the stacked SVD and the rule itself.
    """
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        ok = np.zeros(len(M), dtype=bool)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            ok = (np.linalg.norm(inv, axis=(1, 2)) * rank_tol
                  * np.maximum(1.0, np.linalg.norm(M, axis=(1, 2)))
                  < _GUARD_MARGIN)
    if not ok.all():
        s = np.linalg.svd(M[~ok], compute_uv=False)
        ok[~ok] = s[:, -1] > rank_tol * np.maximum(1.0, s[:, 0])
    return ok


def _pole_proximity(system, z):
    """PoleProximityError for the point z, naming the system's nearest pole."""
    poles = system._spectrum.poles
    return PoleProximityError(
        z, poles[np.argmin(np.abs(poles - z))] if poles.size else None)


def transfer_values(system, points, tol=DEFAULT_TOL, raise_on_pole=False):
    """Values D + z C (I - z A)^(-1) B of the transfer function at every point.

    One batch: the stack I - z A is built once, guarded as a whole (a
    point is rejected when s_min <= rank_tol * max(1, s_max); _pole_guard
    runs the stacked SVD only where a Frobenius bound on one stacked
    inverse cannot decide) and solved by one stacked solve.  Returns
    (values, ok) with values of shape (N, p, m) and ok marking the
    accepted points; rejected rows are NaN.  With raise_on_pole the first
    rejected point raises PoleProximityError, reporting the nearest
    reciprocal eigenvalue of A as the offending pole.
    """
    z = np.asarray(points, dtype=complex).ravel()
    n = system.A.shape[0]
    p, m = system.D.shape
    if n == 0:
        values = np.broadcast_to(system.D, (z.size, p, m)).copy()
        return values, np.ones(z.size, dtype=bool)
    M = np.eye(n) - z[:, None, None] * system.A
    ok = _pole_guard(M, tol.rank_tol)
    if raise_on_pole and not ok.all():
        raise _pole_proximity(system, complex(z[np.argmin(ok)]))
    values = np.full((z.size, p, m), np.nan, dtype=complex)
    X = np.linalg.solve(M[ok], np.broadcast_to(system.B, (int(ok.sum()), n, m)))
    values[ok] = system.D + z[ok, None, None] * (system.C @ X)
    return values, ok


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
    """Taylor coefficients 0..order as an (order + 1, p, m) stack.

    The block [B, AB, ..., A^(order-1) B] is built by doubling: its first
    2^j blocks times A^(2^j) are the next 2^j, so it takes one product by
    A^(2^j) and one squaring per step, and one product by C for all orders.
    """
    n = system.A.shape[0]
    p, m = system.D.shape
    out = np.empty((order + 1, p, m), dtype=complex)
    out[0] = system.D
    if order == 0:
        return out
    K = np.empty((n, order * m), dtype=complex)  # block k is A^k B
    K[:, :m] = system.B
    P, done = system.A, 1  # P = A^done
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
        cut = tol.rank_tol * max(1.0, np.linalg.norm(A), np.linalg.norm(B))
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


def _observable_span(system, tol):
    """Orthonormal basis of span[C^H, A^H C^H, ...], the orthogonal
    complement of the unobservable kernel {x : C A^k x = 0 for all k}."""
    return _krylov_basis(system.A.conj().T, system.C.conj().T, tol)[0]


def _unobservable(system, tol):
    """Kernel of the observability map, {x : C A^k x = 0 for all k}."""
    return nullspace(_observable_span(system, tol).conj().T, tol)


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
    splits along the spectrum.  One LAPACK zgeev call on the triangular T
    gives the unit left eigenvectors y_k of T (the right ones x_k with
    observe) of every side asked for.  Balancing isolates each eigenvalue
    of a triangular matrix in place, so no QR sweep runs and ztrevc
    back-substitutes on T itself, returning vector k for the k-th diagonal
    entry; a certificate holds the returned eigenvalues to diag(T) to
    rounding.  T goes in scaled by a power of two when its largest entry
    leaves _EIG_RANGE, so zgeev never scales it itself.  The vector
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
    """
    form = system._spectrum
    Z = form.Z
    if not Z.size:
        return [(Z, Z)] * len(sides)
    norm_a = float(np.linalg.norm(system.A))
    lam = form.eigenvalues
    g = tol.rank_tol ** (1.0 / 3.0)
    close = np.abs(lam[:, None] - lam[None, :]) <= g * max(1.0, norm_a)
    near = np.count_nonzero(close, axis=1) > 1
    # a side without input (output) columns hides the whole state
    driven = [observe for observe in sides if (system.C if observe else system.B).size]
    if driven:
        top = float(np.max(np.abs(form.T)))
        shift = 0
        if not _EIG_RANGE[0] <= top <= _EIG_RANGE[1]:
            shift = int(np.clip(np.frexp(top)[1], -1000, 1000))
        w, left, right, info = zgeev(form.T * 2.0 ** -shift if shift else form.T,
                                     int(False in driven), int(True in driven))
        if info:
            raise np.linalg.LinAlgError("eigenvectors of the Schur form did not converge")
        certify("Schur form eigenvalue order", float(np.max(np.abs(w * 2.0 ** shift - lam))),
                _ORDER_ULPS * _UNIT_ROUNDOFF * float(np.max(np.abs(lam))))
    spans = []
    for observe in sides:
        if observe not in driven:
            spans.append((Z[:, :0], Z))
            continue
        if observe:
            vectors, drive = right, system.C
            ratio = np.linalg.norm(system.C @ Z @ right, axis=0)
        else:
            vectors, drive = left, system.B
            ratio = np.linalg.norm(left.conj().T @ (Z.conj().T @ system.B), axis=1)
        cut = tol.rank_tol * max(1.0, norm_a, float(np.linalg.norm(drive)))
        # a growth 1 / |y_k[k]| past 1/g, or a vector lost to overflow,
        # marks a nearly defective eigenvalue, decided with the clusters
        clustered = near | ~(np.abs(np.diagonal(vectors)) >= g)
        candidate = clustered | ~(ratio > cut)
        spans.append(_hidden_split(system, observe, clustered, candidate, ratio, cut, tol)
                     if candidate.any() else (Z, Z[:, :0]))
    return spans


def _hidden_split(system, observe, clustered, candidate, ratio, cut, tol):
    """(span, hidden) of one side of _schur_spans from its masks of
    clustered and candidate eigenvalues, at least one a candidate, and the
    drive of each eigenvector against the cut."""
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
        Q = _krylov_basis(Tb.conj().T if observe else Tb, block.conj().T @ drive,
                          tol, cut=cut)[0]
        return np.hstack([rest, block @ Q]), block @ nullspace(Q.conj().T, tol)
    if _norm2(block.conj().T @ drive) > cut:
        rest, block, hidden = Z, Z[:, :0], np.zeros(n, dtype=bool)
        for k in np.flatnonzero(candidate)[np.argsort(ratio[candidate], kind="stable")]:
            trial = hidden.copy()
            trial[k] = True
            r, b = moved(trial)
            if _norm2(b.conj().T @ drive) <= cut:
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


@dataclass(frozen=True)
class SimpKarReport:
    """Index-preservation verdict from the Krylov complement classifications."""

    index_preserving: bool
    complement_kinds: dict
    kappa: int


def simp_kar_check(system, tol=DEFAULT_TOL):
    """Whether the transfer function keeps the full negative index.

    Holds exactly when the complements of the Krylov subspaces are Hilbert
    (positive) subspaces.
    """
    rep = krylov_report(system, tol)
    return SimpKarReport(rep.index_preserving, rep.complement_kinds, system.kappa)


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


def restriction(big, subspace, tol=DEFAULT_TOL):
    """Compress a system to a regular subspace of its state space.

    The compressed main operator is P A restricted to the subspace; the
    output map restricts, the input map compresses, D is unchanged.
    """
    if subspace.ambient != big.state:
        raise DimensionMismatchError("subspace does not live in the state space")
    W, signs = canonical_basis(subspace, tol)
    state = SignatureSpace.from_signs(signs)
    ambient_signs = big.state.signs
    # coordinates of the metric projection: c = diag(signs) W* J x
    proj = signs[:, None] * (W.conj().T * ambient_signs[None, :])
    return Colligation(state, big.input_dim, big.output_dim,
                       proj @ big.A @ W, proj @ big.B, big.C @ W, big.D)


@dataclass(frozen=True)
class DilationReport:
    """Outcome of a dilation check with the residuals of each condition."""

    ok: bool
    defects: dict
    reason: str = ""

    def __bool__(self):
        return self.ok


def is_dilation_of(big, small, tol=DEFAULT_TOL, decomposition=None):
    """Check that big dilates small across a three-part state decomposition.

    The decomposition (D, X, D_star) must be mutually metric-orthogonal and
    spanning, with A-invariant D annihilated by C, and adjoint-invariant
    D_star annihilated by the adjoint input map.  When no decomposition is
    supplied, D is the unobservable kernel of big and D_star that of its
    adjoint system, which realizes the canonical search; both are read off
    the Hautus spans of big's Schur form (_schur_spans).
    Transfer functions must agree on the disc sample plan, whose rings
    hold tol.disc_samples // 3 points each (at least four).
    """
    from .sampling import disc_grid

    sp = big.state
    n = sp.dim
    defects = {}
    if decomposition is None:
        (_, hidden_c), (_, D_basis) = _schur_spans(big, (False, True), tol)
        # the unobservable kernel of the adjoint system is J times the
        # orthogonal complement of the reachable space
        Dstar_basis = sp.signs[:, None] * hidden_c
        if intersect_spans(D_basis, Dstar_basis, tol).shape[1]:
            return DilationReport(False, defects,
                                  "search failed: candidate parts overlap; "
                                  "supply a decomposition")
        rest = IndefiniteSubspace(sp, np.hstack([D_basis, Dstar_basis]))
        if subspace_classify(rest, tol) == SubspaceKind.DEGENERATE:
            return DilationReport(False, defects,
                                  "search failed: degenerate candidate sum; "
                                  "supply a decomposition")
        X_basis = orthocomplement_basis(rest, tol)
    else:
        D_basis, X_basis, Dstar_basis = (
            part.basis if isinstance(part, IndefiniteSubspace)
            else as_matrix(part, rows=n) for part in decomposition)

    if D_basis.shape[1] + X_basis.shape[1] + Dstar_basis.shape[1] != n:
        return DilationReport(False, defects, "decomposition does not span the state")
    if X_basis.shape[1] != small.state_dim:
        return DilationReport(False, defects, "middle part has the wrong dimension")

    signs = sp.signs
    for (na, va), (nb, vb) in [(("D", D_basis), ("X", X_basis)),
                               (("D", D_basis), ("Dstar", Dstar_basis)),
                               (("X", X_basis), ("Dstar", Dstar_basis))]:
        if va.shape[1] and vb.shape[1]:
            cross = float(np.linalg.norm(va.conj().T @ (signs[:, None] * vb), 2))
            defects[f"orthogonality[{na},{nb}]"] = cross
            if cross > tol.metric_tol * 10:
                return DilationReport(False, defects,
                                      f"parts {na} and {nb} are not metric-orthogonal")

    adj = adjoint_system(big)
    checks = {
        "A-invariance of D": _invariance_defect(big.A, D_basis),
        "C annihilates D": float(np.linalg.norm(big.C @ D_basis, 2)) if D_basis.size else 0.0,
        "adjoint invariance of Dstar": _invariance_defect(adj.A, Dstar_basis),
        "adjoint input annihilates Dstar": float(
            np.linalg.norm(adj.C @ Dstar_basis, 2)) if Dstar_basis.size else 0.0,
    }
    defects.update(checks)
    for name, value in checks.items():
        if value > tol.metric_tol * 10:
            return DilationReport(False, defects, f"failed condition: {name}")

    mid = IndefiniteSubspace(sp, X_basis)
    if subspace_classify(mid, tol) == SubspaceKind.DEGENERATE:
        return DilationReport(False, defects, "middle part is degenerate")
    compressed = restriction(big, mid, tol)
    pts = disc_grid(max(4, tol.disc_samples // 3), seed=tol.seed)
    vbig, ok_big = transfer_values(big, pts, tol)
    vsmall, ok_small = transfer_values(small, pts, tol)
    ok = ok_big & ok_small
    worst = float(np.max(np.linalg.norm(vbig[ok] - vsmall[ok], 2, axis=(1, 2)),
                         initial=0.0))
    defects["transfer mismatch"] = worst
    if worst > 1e-9 * max(1.0, np.linalg.norm(small.D, 2)):
        return DilationReport(False, defects, "transfer functions differ on samples")
    if compressed.kappa != small.kappa:
        return DilationReport(False, defects, "compressed negative index differs")
    return DilationReport(True, defects)


def _invariance_defect(A, V):
    if V.shape[1] == 0:
        return 0.0
    coeff = np.linalg.lstsq(V, A @ V, rcond=None)[0]
    return float(np.linalg.norm(A @ V - V @ coeff, 2))


@dataclass(frozen=True)
class SimilarityResult:
    """State-space similarity between two systems: x2 = Z x1."""

    kind: str  # "unitary" or "weak"
    Z: np.ndarray
    residuals: dict


def _intertwining_residuals(s1, s2, Z):
    return {
        "A": _norm2(Z @ s1.A - s2.A @ Z),
        "B": _norm2(Z @ s1.B - s2.B),
        "C": _norm2(s1.C - s2.C @ Z),
        "D": _norm2(s1.D - s2.D),
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


def unitary_similarity(s1, s2, tol=DEFAULT_TOL):
    """Metric-unitary state similarity, or None when none exists.

    Solves the intertwining relations in least squares and certifies that
    the solution is a metric unitary between the state spaces.
    """
    if (s1.state_dim != s2.state_dim or s1.kappa != s2.kappa
            or s1.input_dim != s2.input_dim or s1.output_dim != s2.output_dim):
        return None
    n = s1.state_dim
    if np.linalg.norm(s1.D - s2.D, 2) > tol.metric_tol * max(1.0, np.linalg.norm(s1.D, 2)):
        return None
    if n == 0:
        return SimilarityResult("unitary", np.zeros((0, 0), dtype=complex),
                                _intertwining_residuals(s1, s2, np.zeros((0, 0))))
    I = np.eye(n)
    rows = [np.kron(I, s2.A) - np.kron(s1.A.T, I)]
    rhs = [np.zeros(n * n, dtype=complex)]
    rows.append(np.kron(s1.B.T, I))
    rhs.append(s2.B.reshape(-1, order="F"))
    rows.append(np.kron(I, s2.C))
    rhs.append(s1.C.reshape(-1, order="F"))
    M = np.vstack(rows)
    v = np.concatenate(rhs)
    sol = np.linalg.lstsq(M, v, rcond=None)[0]
    # the least-squares solution is unique for minimal systems; otherwise the
    # Krylov-matched map is a second candidate worth testing
    candidates = [sol.reshape(n, n, order="F"),
                  _krylov_map(_krylov_basis(s1.A, s1.B, tol), s2)]
    for Z in candidates:
        residuals = _intertwining_residuals(s1, s2, Z)
        scale = max(1.0, np.linalg.norm(Z, 2))
        if max(residuals.values()) > tol.metric_tol * 100 * scale:
            continue
        if metric_classify(Z, s1.state, s2.state, tol) != MetricClass.UNITARY:
            continue
        return SimilarityResult("unitary", Z, residuals)
    return None


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
            or _observable_span(system, tol).shape[1] != n):
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
    state dimensions)."""
    if s1.input_dim != s2.input_dim or s1.output_dim != s2.output_dim:
        raise PreconditionError("weak similarity requires matching input/output")
    N = 2 * max(s1.state_dim, s2.state_dim)
    t1 = _taylor_stack(s1, N)
    size, diff = _spectral_norms(
        np.concatenate([t1, t1 - _taylor_stack(s2, N)])).reshape(2, -1)
    # order k is compared against the largest coefficient norm up to k, the
    # norm of D = t1[0] included
    growth = np.maximum.accumulate(np.maximum(1.0, size))
    bad = np.flatnonzero(diff > tol.metric_tol * growth)
    if bad.size:
        raise PreconditionError(
            f"Taylor coefficients differ at order {bad[0]}; no weak similarity")
    Z = _krylov_map(recurrence, s2)
    residuals = _intertwining_residuals(s1, s2, Z)
    # np.linalg.norm(Z, 2) is the largest of these same singular values
    sv = np.linalg.svd(Z, compute_uv=False)
    zscale = max(1.0, sv[0]) if sv.size else 1.0
    _certify_scaled("Krylov map intertwining residual",
                    np.max(list(residuals.values())), 1e-8 * zscale,
                    lambda: max(1.0, np.linalg.norm(s1.A, 2)))
    residuals["inverse_condition"] = float(sv[-1] / sv[0]) if sv.size else 1.0
    if sv.size:
        certify("weak similarity smallest singular value", -sv[-1],
                -tol.rank_tol * max(1.0, sv[0]))
    return SimilarityResult("weak", Z, residuals)


def _spectral_norms(stack):
    """Spectral norms of a stack of matrices, each the square root of the
    largest eigenvalue of its smaller Gram matrix, from one stacked
    Hermitian eigen-solve; 0 for an empty matrix."""
    k, p, m = stack.shape
    if not p * m:
        return np.zeros(k)
    gram = (stack @ stack.conj().transpose(0, 2, 1) if p <= m
            else stack.conj().transpose(0, 2, 1) @ stack)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


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
    if order_bound is None:
        order_bound = (len(coeffs) - 2) // 2
    n = int(order_bound)
    if n < 0 or len(coeffs) < 2 * n + 2:
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

    def window_rank(rows, cols):
        s = np.linalg.svd(hankel(1, rows, cols), compute_uv=False)
        cut = tol.rank_tol * max(1.0, s[0]) if s.size else 0.0
        return int(np.sum(s > cut))

    ranks = {window_rank(n, n), window_rank(n + 1, n),
             window_rank(n, n + 1), window_rank(n + 1, n + 1)}
    if len(ranks) != 1:
        raise OrderAmbiguityError(
            f"Hankel rank keeps growing past the order bound {n}: {sorted(ranks)}")
    r = ranks.pop()
    if r == 0:
        return BareRealization(np.zeros((0, 0)), np.zeros((0, m)),
                               np.zeros((p, 0)), coeffs[0])
    U, s, Vh = np.linalg.svd(H, full_matrices=False)
    U, s, Vh = U[:, :r], s[:r], Vh[:r]
    sqrt_s = np.sqrt(s)
    obs = U * sqrt_s[None, :]           # (n+1)p x r observability factor
    con = sqrt_s[:, None] * Vh          # r x n m controllability factor
    A = (U.conj().T @ Hup @ Vh.conj().T) / np.outer(sqrt_s, sqrt_s)
    B = con[:, :m]
    C = obs[:p, :]
    return BareRealization(A, B, C, coeffs[0])
