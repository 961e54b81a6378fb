"""Operator colligations and their transfer functions.

A colligation { A, B, C, D } couples a signature state space with a
Hilbert input and output.  The system operator acts block-wise:

    [ x_next ]   [ A  B ] [ x ]
    [ y      ] = [ C  D ] [ u ]

and the transfer function is D + z C (I - z A)^(-1) B, holomorphic at 0.
transfer_values evaluates it at a batch of points with one stacked pole
guard and one stacked solve; every sampled check in the package, and
transfer_eval as its one-point case, runs on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum as _Enum

import numpy as np
from scipy.linalg.lapack import zgesvd

from .exceptions import (
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    OrderAmbiguityError,
    PoleProximityError,
    PreconditionError,
    certify,
)
from .indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    MetricClass,
    SignatureSpace,
    SubspaceKind,
    as_matrix,
    canonical_basis,
    column_space,
    intersect_spans,
    is_psd,
    j_adjoint,
    metric_classify,
    metric_defects,
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
    "adjoint_system",
    "transfer_eval",
    "transfer_values",
    "markov",
    "krylov_report",
    "simp_kar_check",
    "restriction",
    "state_change",
    "to_canonical",
    "direct_sum",
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


def system_operator(system):
    """Block matrix [[A, B], [C, D]] with its domain and codomain spaces.

    Domain is the state space extended by the Hilbert input coordinates,
    codomain the state space extended by the output coordinates; the sign
    patterns keep the state block in place.
    """
    T = np.block([[system.A, system.B], [system.C, system.D]])
    state_signs = system.state.signs
    dom = SignatureSpace.from_signs(
        np.concatenate([state_signs, np.ones(system.input_dim)]))
    cod = SignatureSpace.from_signs(
        np.concatenate([state_signs, np.ones(system.output_dim)]))
    return T, dom, cod


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
    """Metric kind plus Krylov flags (None when not computed)."""

    kind: SystemKind
    controllable: bool | None = None
    observable: bool | None = None
    simple: bool | None = None
    minimal: bool | None = None

    @property
    def is_passive(self):
        return self.kind != SystemKind.NONE


def classify(system, tol=DEFAULT_TOL, with_krylov=True):
    """Metric classification of the system operator, with Krylov flags.

    Passive systems additionally satisfy the two-sided contraction checks
    on A, [A; C] and [A, B]; a failure there is an internal inconsistency.
    """
    kind = _metric_kind(system, tol)
    if not with_krylov:
        return SystemClass(kind)
    return _krylov_class(kind, krylov_report(system, tol))


def _metric_kind(system, tol):
    """Metric kind of the system operator, corner blocks certified."""
    T, dom, cod = system_operator(system)
    kind = _METRIC_TO_KIND[metric_classify(T, dom, cod, tol)]
    if kind != SystemKind.NONE:
        _check_bicontraction_corners(system, tol)
    return kind


def _krylov_class(kind, rep):
    """SystemClass from a metric kind and an already computed Krylov report."""
    return SystemClass(kind, rep.controllable, rep.observable, rep.simple,
                       rep.controllable and rep.observable)


def _relaxed(tol, factor=10.0):
    return replace(tol, psd_tol=min(0.5, factor * tol.psd_tol))


def _check_bicontraction_corners(system, tol):
    state_signs = system.state.signs
    loose = _relaxed(tol)
    corners = [
        (system.A, state_signs, state_signs),
        (np.vstack([system.A, system.C]), state_signs,
         np.concatenate([state_signs, np.ones(system.output_dim)])),
        (np.hstack([system.A, system.B]),
         np.concatenate([state_signs, np.ones(system.input_dim)]), state_signs),
    ]
    for M, dom, cod in corners:
        primal, dual = metric_defects(M, dom, cod)
        if not (is_psd(primal, loose) and is_psd(dual, loose)):
            raise InternalConsistencyError(
                "passive system operator with a non-bicontractive corner block")


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


def transfer_values(system, points, tol=DEFAULT_TOL, raise_on_pole=False):
    """Values D + z C (I - z A)^(-1) B of the transfer function at every point.

    One batch: the stack I - z A is built once, guarded by one stacked
    SVD (a point is rejected when s_min <= rank_tol * max(1, s_max)) and
    solved by one stacked solve.  Returns (values, ok) with values of
    shape (N, p, m) and ok marking the accepted points; rejected rows are
    NaN.  With raise_on_pole the first rejected point raises
    PoleProximityError, reporting the nearest reciprocal eigenvalue of A
    as the offending pole.
    """
    z = np.asarray(points, dtype=complex).ravel()
    n = system.A.shape[0]
    p, m = system.D.shape
    if n == 0:
        values = np.broadcast_to(system.D, (z.size, p, m)).copy()
        return values, np.ones(z.size, dtype=bool)
    M = np.eye(n) - z[:, None, None] * system.A
    s = np.linalg.svd(M, compute_uv=False)
    ok = s[:, -1] > tol.rank_tol * np.maximum(1.0, s[:, 0])
    if raise_on_pole and not ok.all():
        from .schur import TransferFunction

        bad = complex(z[np.argmin(ok)])
        poles = TransferFunction(system).poles
        raise PoleProximityError(
            bad, poles[np.argmin(np.abs(poles - bad))] if poles.size else None)
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
    """Taylor coefficients 0..order as an (order + 1, p, m) stack, C A^(k-1) B
    taken from one running product A^(k-1) B."""
    out = np.empty((order + 1,) + system.D.shape, dtype=complex)
    out[0] = system.D
    X = system.B
    for k in range(1, order + 1):
        out[k] = system.C @ X
        X = system.A @ X
    return out


def _krylov_basis(A, B, tol):
    """Block Arnoldi: orthonormal basis Q of span[B, AB, A^2 B, ...].

    Each new block is orthogonalized twice against the basis so far, and
    singular values at or below rank_tol * max(1, |A|_F, |B|_F) are
    deflated.  Also returns the recurrence coefficients (H_k, T_k): block
    k of Q is (X_k - Q_<k H_k) T_k, with X_0 = B and X_k = A (block k-1);
    _krylov_map replays them on a second system.
    """
    n = A.shape[0]
    cut = tol.rank_tol * max(1.0, np.linalg.norm(A), np.linalg.norm(B))
    Q = np.zeros((n, 0), dtype=complex)
    steps = []
    X = B
    while X.shape[1] and Q.shape[1] < n:
        Qh = Q.conj().T
        H = Qh @ X
        H += Qh @ (X - Q @ H)
        U, s, Vh, info = zgesvd(X - Q @ H, full_matrices=0)
        if info:
            raise np.linalg.LinAlgError("SVD did not converge")
        r = min(int(np.sum(s > cut)), n - Q.shape[1])
        if r == 0:
            break
        steps.append((H, Vh[:r].conj().T / s[:r]))
        Q = np.hstack([Q, U[:, :r]])
        X = A @ U[:, :r]
    return Q, steps


def _unobservable(system, tol):
    """Kernel of the observability map, {x : C A^k x = 0 for all k}: the
    orthogonal complement of span[C^H, A^H C^H, ...]."""
    Q, _ = _krylov_basis(system.A.conj().T, system.C.conj().T, tol)
    return nullspace(Q.conj().T, tol)


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


def krylov_report(system, tol=DEFAULT_TOL):
    """Spans of the iterated B and adjoint-C columns and their complements.

    Each span is the orthonormal basis of one block Arnoldi recurrence; the
    combined span is the whole state when either span is.  The complement
    of the combined space is the intersection of the two complements.
    """
    return _krylov_report(system, tol)[0]


def _krylov_report(system, tol):
    """krylov_report with the recurrence (Q, steps) of the reachable span."""
    sp = system.state
    n = sp.dim
    adj = adjoint_system(system)
    Qc, steps = _krylov_basis(system.A, system.B, tol)
    Qo, _ = _krylov_basis(adj.A, adj.B, tol)  # spans the observable subspace
    full = [Q for Q in (Qc, Qo) if Q.shape[1] == n]
    Qs = full[0] if full else column_space(np.hstack([Qc, Qo]), tol)
    Xc = IndefiniteSubspace(sp, Qc)
    Xo = IndefiniteSubspace(sp, Qo)
    Xs = IndefiniteSubspace(sp, Qs)
    # a span that is the whole state has the zero subspace as complement
    kinds = {name: SubspaceKind.HILBERT if X.dim == n else subspace_classify(
        IndefiniteSubspace(sp, orthocomplement_basis(X, tol)), tol)
        for name, X in (("controllable", Xc), ("observable", Xo), ("simple", Xs))}
    return (KrylovReport(Xc, Xo, Xs, Xc.dim == n, Xo.dim == n, Xs.dim == n, kinds),
            (Qc, steps))


@dataclass(frozen=True)
class SimpKarReport:
    """Index-preservation verdict from the Krylov complement classifications."""

    index_preserving: bool
    complement_kinds: dict
    kappa: int
    kappa_estimate: int | None = None
    cross_validated: bool | None = None


def simp_kar_check(system, tol=DEFAULT_TOL, cross_validate=False):
    """Whether the transfer function keeps the full negative index.

    Holds exactly when the complements of the Krylov subspaces are Hilbert
    (positive) subspaces.  With cross_validate the kernel-based negative
    squares estimate of the transfer function is compared against the
    state negative index.
    """
    return _simp_kar(system, krylov_report(system, tol), tol, cross_validate)


def _simp_kar(system, rep, tol, cross_validate=False):
    """simp_kar_check on an already computed Krylov report of the system."""
    kinds = rep.complement_kinds
    verdict = all(k == SubspaceKind.HILBERT for k in kinds.values())
    estimate = None
    agrees = None
    if cross_validate:
        from .schur import TransferFunction, negative_squares_estimate

        cert = negative_squares_estimate(TransferFunction(system), tol)
        estimate = cert.estimate
        agrees = bool(estimate == system.kappa) if verdict else None
    return SimpKarReport(verdict, kinds, system.kappa, estimate, agrees)


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


def direct_sum(first, second):
    """Block-diagonal juxtaposition of two systems (inputs and outputs stacked)."""
    state = SignatureSpace.from_signs(
        np.concatenate([first.state.signs, second.state.signs]))
    n1, n2 = first.state_dim, second.state_dim
    A = np.block([
        [first.A, np.zeros((n1, n2))],
        [np.zeros((n2, n1)), second.A]])
    B = np.block([
        [first.B, np.zeros((n1, second.input_dim))],
        [np.zeros((n2, first.input_dim)), second.B]])
    C = np.block([
        [first.C, np.zeros((first.output_dim, n2))],
        [np.zeros((second.output_dim, n1)), second.C]])
    D = np.block([
        [first.D, np.zeros((first.output_dim, second.input_dim))],
        [np.zeros((second.output_dim, first.input_dim)), second.D]])
    return Colligation(state, first.input_dim + second.input_dim,
                       first.output_dim + second.output_dim, A, B, C, D)


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
    adjoint system, which realizes the canonical search.
    Transfer functions must agree on the disc sample plan, whose rings
    hold tol.disc_samples // 3 points each (at least four).
    """
    from .sampling import disc_grid

    sp = big.state
    n = sp.dim
    defects = {}
    if decomposition is None:
        D_basis = _unobservable(big, tol)
        Dstar_basis = _unobservable(adjoint_system(big), tol)
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
        "A": float(np.linalg.norm(Z @ s1.A - s2.A @ Z, 2)),
        "B": float(np.linalg.norm(Z @ s1.B - s2.B, 2)),
        "C": float(np.linalg.norm(s1.C - s2.C @ Z, 2)),
        "D": float(np.linalg.norm(s1.D - s2.D, 2)),
    }


def _krylov_map(recurrence, s2):
    """Z = V2 Q1^H, (Q1, steps) the Krylov recurrence of a system s1 and V2
    its replay on s2, which is Z Q1 when s2 is s1 in the coordinates
    x2 = Z x1."""
    Q1, steps = recurrence
    V = np.zeros((s2.state_dim, 0), dtype=complex)
    X = s2.B
    for H, T in steps:
        V = np.hstack([V, (X - V @ H) @ T])
        X = s2.A @ V[:, -T.shape[1]:]
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


def weak_similarity(s1, s2, tol=DEFAULT_TOL):
    """Similarity defined on the reachable vectors, certified invertible.

    Requires minimal systems whose Taylor coefficients agree through twice
    the larger state dimension.  Z replays the first system's orthonormal
    Krylov recurrence on the second and is invertible at finite dimension.
    """
    recurrences = []
    for s in (s1, s2):
        rep, recurrence = _krylov_report(s, tol)
        if not (rep.controllable and rep.observable):
            raise PreconditionError("weak similarity requires minimal systems")
        recurrences.append(recurrence)
    if s1.input_dim != s2.input_dim or s1.output_dim != s2.output_dim:
        raise PreconditionError("weak similarity requires matching input/output")
    N = 2 * max(s1.state_dim, s2.state_dim)
    scale = max(1.0, np.linalg.norm(s1.D, 2))
    t1, t2 = _taylor_stack(s1, N), _taylor_stack(s2, N)
    # order k is compared against the largest coefficient norm up to k
    growth = np.maximum.accumulate(
        np.maximum(1.0, np.linalg.norm(t1, 2, axis=(1, 2))))
    bad = np.flatnonzero(np.linalg.norm(t1 - t2, 2, axis=(1, 2))
                         > tol.metric_tol * np.maximum(scale, growth))
    if bad.size:
        raise PreconditionError(
            f"Taylor coefficients differ at order {bad[0]}; no weak similarity")
    Z = _krylov_map(recurrences[0], s2)
    residuals = _intertwining_residuals(s1, s2, Z)
    zscale = max(1.0, np.linalg.norm(Z, 2))
    certify("Krylov map intertwining residual", np.max(list(residuals.values())),
            1e-8 * zscale * max(1.0, np.linalg.norm(s1.A, 2)))
    sv = np.linalg.svd(Z, compute_uv=False)
    residuals["inverse_condition"] = float(sv[-1] / sv[0]) if sv.size else 1.0
    if sv.size:
        certify("weak similarity smallest singular value", -sv[-1],
                -tol.rank_tol * max(1.0, sv[0]))
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
    if order_bound is None:
        order_bound = (len(coeffs) - 2) // 2
    n = int(order_bound)
    if n < 0 or len(coeffs) < 2 * n + 2:
        raise PreconditionError(
            f"need at least {2 * n + 2} coefficients for order bound {n}")
    if n == 0:
        return BareRealization(np.zeros((0, 0)), np.zeros((0, m)),
                               np.zeros((p, 0)), coeffs[0])

    def hankel(start, rows, cols):
        return np.block([[coeffs[start + i + j] for j in range(cols)]
                         for i in range(rows)])

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
