"""Rational generalized Schur functions carried by finite realizations.

Functions here are never free-form symbolic objects: every one is backed
by a colligation, so pole data, adjoints and products stay exact.  On top
of that backing the module builds kernel Gram matrices and their inertia,
negative-square estimates, Blaschke-Potapov constructors, state-space
inversion, the two-sided Krein-Langer factorization into a Schur factor
and a Blaschke product, peeled pole by pole off the Schur form of a
minimal realization (README rule 7), boundary reports, scalar defect
functions via trigonometric spectral factorization, and canonical
co-isometric realizations from one Stein equation on a minimal
realization (rule 8).

Boundary conditions are decided at finitely many samples.  All functions
involved are rational, and a rational function that vanishes on a subset
of full measure of the circle vanishes identically, so sampled verdicts
upgrade to identities; every report that relies on this records the
rationale.  Samples bound nothing between them, so the Krein-Langer
factorization certifies its Schur factors passive on the state space.  The
scalar defect needs no second sampling: times
|det(I - zA)|^2, 1 - |S|^2 is a trigonometric polynomial of degree n = dim A
on the circle, and the defect survey has N >= 2n + 1 roots of unity, so
one FFT of the survey's values gives its coefficients with no aliasing.
Those values are backward-stable evaluations on the backing's Schur form
(README rule 5), so the coefficients carry only their rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import zpotrf, ztrexc
from .colligation import (
    Colligation,
    SystemKind,
    _operator_kind,
    _pole_proximity,
    _schur_spans,
    _sweep,
    adjoint_system,
    system_kind,
    system_operator,
    transfer_eval,
    transfer_values,
)
from .exceptions import (
    AmbiguousSpectrumError,
    DimensionMismatchError,
    IndefiniteDefectError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    _certify_residual,
    _fro,
    _gram_eigenvalues,
    _norm2,
    _spectral_norms,
    _trsolve,
    certify,
)
from .indefinite import (
    DEFAULT_TOL,
    SignatureSpace,
    _DiscSchur,
    _rank_cut,
    column_space,
    inertia,
)
from .products import cascade
from .sampling import boundary_points, disc_points

__all__ = [
    "TransferFunction",
    "KernelGram",
    "NegativeSquaresEstimate",
    "RationalScalar",
    "DefectResult",
    "FactorizationResult",
    "BoundaryReport",
    "as_transfer",
    "kernel_gram",
    "negative_squares_estimate",
    "blaschke_potapov_factor",
    "invert_system",
    "blaschke_product",
    "kl_factorize_function",
    "boundary_behavior",
    "defect",
    "canonical_coisometric_realization",
]

RATIONAL_NOTE = ("sampled boundary verdict; rational functions agreeing at "
                 "a set of full measure on the circle agree identically")

# sample points this close to a pole are dropped or rejected
_POLE_MARGIN = 1e-6


class TransferFunction:
    """Rational matrix function presented through a backing realization.

    Evaluation, adjoints and factorizations all delegate to the backing
    colligation.  The poles, reciprocals of the eigenvalues of A, are read
    off the backing's one Schur form, shared by every TransferFunction on
    it; eigenvalues outside the disc give the poles in the open disc.
    """

    def __init__(self, backing):
        if not isinstance(backing, Colligation):
            raise InputError("backing must be a colligation")
        self.backing = backing
        self.input_dim = backing.input_dim
        self.output_dim = backing.output_dim
        # circle surveys by (samples, tol); see _circle_survey
        self._surveys = {}

    @property
    def poles(self):
        """Sorted reciprocals of the nonzero eigenvalues of A, read-only."""
        return self.backing._spectrum.poles

    @property
    def disc_pole_count(self):
        """Eigenvalues of the main operator outside the closed disc, with
        multiplicity; equals the number of poles inside the disc."""
        return int(np.sum(np.abs(self.backing._spectrum.eigenvalues) > 1.0))

    def values(self, points, tol=DEFAULT_TOL):
        """Values at every point as an (N, p, m) stack; a point too close
        to a pole raises PoleProximityError."""
        return transfer_values(self.backing, points, tol, raise_on_pole=True)[0]

    def __call__(self, z, tol=DEFAULT_TOL):
        return transfer_eval(self.backing, z, tol)


def as_transfer(S):
    """Accept a transfer function or a bare colligation."""
    if isinstance(S, TransferFunction):
        return S
    if isinstance(S, Colligation):
        return TransferFunction(S)
    raise InputError("expected a TransferFunction or a Colligation")


def _relative_mismatch(got, want):
    """max_k ||got_k - want_k||_2 / max(1, ||want_k||_2) over two (N, p, m)
    value stacks."""
    return float(np.max(_spectral_norms(got - want)
                        / np.maximum(1.0, _spectral_norms(want))))


@dataclass
class KernelGram:
    """Sampled Schur-kernel Gram matrix with its inertia.

    matrix holds the block Hermitian array whose (i, j) block is
    (I - S(w_i) S(w_j)^*) / (1 - w_i conj(w_j)); inertia counts
    (positive, zero, negative) eigenvalues at the working rank
    tolerance.
    """

    points: np.ndarray
    matrix: np.ndarray
    inertia: tuple
    block_dim: int

    @property
    def n_minus(self):
        return self.inertia[2]

    @property
    def rank(self):
        return self.inertia[0] + self.inertia[2]


def kernel_gram(S, points, tol=DEFAULT_TOL):
    """Schur-kernel Gram matrix of the function at the given disc points.

    The Hermitian certificate reuses the inertia eigenvalues: the
    Frobenius norm of G - G^* must stay within 1e-12 max(1, |eig|max)
    of the symmetrized G.
    """
    return _gram_from_values(*_kernel_values(as_transfer(S), points, tol), tol)


def _kernel_values(S, points, tol):
    """Check kernel sample points (open disc, clear of every pole by
    _POLE_MARGIN) and evaluate S there; returns the points as a flat
    complex array and the (N, p, m) values."""
    points = np.asarray(points, dtype=complex).ravel()
    if points.size == 0:
        raise InputError("need at least one sample point")
    if np.any(np.abs(points) >= 1.0):
        raise InputError("kernel samples must lie in the open unit disc")
    if S.poles.size:
        dist = np.min(np.abs(points[:, None] - S.poles[None, :]), axis=1)
        if np.any(dist <= _POLE_MARGIN):
            raise _pole_proximity(S.backing, points[int(np.argmin(dist))])
    return points, S.values(points, tol)


def _gram_from_values(points, values, tol):
    """Kernel Gram, Hermitian certificate and inertia from the values
    (N, p, m) of the function at the points."""
    N, p, m = values.shape
    V = values.reshape(N * p, m)
    denom = 1.0 - points[:, None] * np.conj(points)[None, :]
    G = ((np.eye(p)[None, :, None, :] - (V @ V.conj().T).reshape(N, p, N, p))
         / denom[:, None, :, None]).reshape(N * p, N * p)
    herm = _fro(G - G.conj().T)
    G = 0.5 * (G + G.conj().T)
    w = np.linalg.eigvalsh(G)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    certify("kernel Gram Hermitian residual", herm, 1e-12 * scale)
    thr = _rank_cut(np.abs(w), tol)
    plus = int(np.sum(w > thr))
    minus = int(np.sum(w < -thr))
    return KernelGram(points, G, (plus, w.size - plus - minus, minus), p)


@dataclass
class NegativeSquaresEstimate:
    """Estimated number of negative squares with the record of its stages.

    route names how the estimate was reached.  On "minimal_part" it is the
    number of eigenvalues outside the closed disc of a minimal realization
    of a passive backing, certified by the inertia of that realization's
    state metric, and history is empty.  On "kernel_ladder" history holds
    the Gram's negative count at each stage, and the estimate is stable
    when the count stayed unchanged over four stages; it is None when it
    did not (verdict "inconclusive").  pole_count is the backing's count
    of main-operator eigenvalues outside the closed disc, and agrees
    compares the two: it is False on a backing with a hidden pole.
    """

    estimate: int | None
    stable: bool
    history: tuple
    pole_count: int
    agrees: bool | None
    verdict: str
    route: str = "kernel_ladder"


def _backing_kind(S, tol):
    """system_kind of the backing, or None when it is refused as passive
    with an indefinite defect."""
    try:
        return system_kind(S.backing, tol)
    except IndefiniteDefectError:
        return None


def negative_squares_estimate(S, tol=DEFAULT_TOL):
    """The kernel's number of negative squares, from the minimal part of a
    passive backing, else by growing sample sets.

    A passive backing realizes a generalized Schur function, whose index
    is its number of poles in the disc (Krein-Langer): the eigenvalues
    outside the closed disc of a minimal realization.  They are counted on
    _minimal_part and certified against the negative index of its state
    metric (_minimal_index).  Every other backing, and a passive one whose
    minimal part has an eigenvalue within metric_tol of the circle or a
    metric that does not certify the count, takes the kernel ladder: the
    sample set doubles from 8 to at most 256 disc points; supersets never
    lose negative directions, so the Gram's negative count is a lower
    bound on the index that grows along the way.  The estimate is declared
    when the count is unchanged over four consecutive stages, and is
    cross-checked against the pole count; non-stabilization yields an
    inconclusive verdict rather than a wrong certainty.
    """
    S = as_transfer(S)
    return _negative_squares(S, _backing_kind(S, tol), tol)


def _minimal_index(S, tol):
    """The negative index of S, whose backing is passive, read off the
    backing's minimal part, or None when the part does not settle it.

    The count is the number of eigenvalues outside the closed disc of
    the minimal part (A_m, B, C, D) with state metric H = W^H J W.  A
    minimal passive system is index-preserving, so by the paper's
    characterization the count equals the negative index of H, which is
    at most the state index kappa.  An eigenvalue of A_m within metric_tol
    of the circle, a singular H and a compressed part whose H disagrees
    with the count give None.  On a backing that is its own minimal part,
    H = J, whose inertia its signature gives with no eigen-solve, a
    disagreement raises InternalConsistencyError.
    """
    try:
        _, _, _, H, inside = _minimal_part(S.backing, tol)
    except AmbiguousSpectrumError:
        return None
    count = int(np.count_nonzero(~inside))
    own = len(H) == S.backing.state_dim
    _, zero, minus = (0, 0, S.backing.kappa) if own else inertia(H, tol)
    if zero:
        return None
    if minus != count:
        if own:
            raise InternalConsistencyError(
                f"outside count {count} of a minimal passive backing differs "
                f"from its index {minus}")
        return None
    return certify("minimal part outside count within the state index",
                   count, S.backing.kappa)


def _negative_squares(S, kind, tol):
    """negative_squares_estimate of the TransferFunction S whose backing's
    _backing_kind is kind, for callers that have already decided it."""
    if kind not in (None, SystemKind.NONE):
        count = _minimal_index(S, tol)
        if count is not None:
            poles = S.disc_pole_count
            return NegativeSquaresEstimate(count, True, (), poles, count == poles,
                                           "stable", "minimal_part")
    exclude = S.poles
    history = []
    points = np.zeros(0, dtype=complex)
    values = np.zeros((0, S.output_dim, S.input_dim), dtype=complex)
    size = 8
    for stage in range(6):
        fresh = disc_points(size - points.size, seed=tol.seed * 977 + stage,
                            radius=0.93, exclude=exclude,
                            min_dist=_POLE_MARGIN)
        # values are per point, so only the fresh samples need evaluating
        fresh, fresh_values = _kernel_values(S, fresh, tol)
        points = np.concatenate([points, fresh])
        values = np.concatenate([values, fresh_values])
        count = _gram_from_values(points, values, tol).n_minus
        history.append(count)
        size *= 2
        if len(history) >= 4 and len(set(history[-4:])) == 1:
            est = history[-1]
            return NegativeSquaresEstimate(
                est, True, tuple(history), S.disc_pole_count,
                est == S.disc_pole_count, "stable")
    return NegativeSquaresEstimate(
        None, False, tuple(history), S.disc_pole_count, None, "inconclusive")


def blaschke_potapov_factor(alpha, rho, u, ambient_dim, tol=DEFAULT_TOL):
    """Conservative one-state realization of a rank-one Blaschke rotation.

    The transfer function is I - P + rho * ((z - alpha)/(1 - conj(alpha) z)) P
    with P the orthogonal projection onto the unit vector u.
    """
    alpha = complex(alpha)
    rho = complex(rho)
    if not abs(alpha) < 1.0:
        raise InputError("zero location must satisfy |alpha| < 1")
    if abs(abs(rho) - 1.0) > 1e-12:
        raise InputError("rotation must be unimodular")
    u = np.asarray(u, dtype=complex).reshape(-1, 1)
    if u.shape[0] != ambient_dim:
        raise DimensionMismatchError("direction length must match ambient_dim")
    nrm = _fro(u)
    if abs(nrm - 1.0) > 1e-9:
        raise InputError("direction must be a unit vector")
    u = u / nrm
    r = np.sqrt(1.0 - abs(alpha) ** 2)
    P = u @ u.conj().T
    return Colligation(
        SignatureSpace(1, 0), ambient_dim, ambient_dim,
        np.array([[np.conj(alpha)]]), r * u.conj().T, rho * r * u,
        np.eye(ambient_dim) - (1.0 + rho * alpha) * P)


def invert_system(system, tol=DEFAULT_TOL):
    """Realization of the pointwise inverse transfer function.

    The state operators follow the usual feedback inversion
    (A - B D^-1 C, B D^-1, -D^-1 C, D^-1); the state metric is negated,
    which turns a conservative realization into a conservative
    realization of the inverse (certified).  The product of the two
    transfer functions is checked against the identity at disc samples.
    """
    if system.input_dim != system.output_dim:
        raise DimensionMismatchError("inversion needs a square feedthrough")
    D = system.D
    if D.size == 0:
        raise PreconditionError("cannot invert an empty feedthrough")
    sv = np.linalg.svd(D, compute_uv=False)
    if sv[-1] <= _rank_cut(sv, tol):
        raise PreconditionError("feedthrough is numerically singular")
    Dinv = np.linalg.inv(D)
    out = Colligation(
        SignatureSpace.from_signs(-system.state.signs),
        system.input_dim, system.output_dim,
        system.A - system.B @ Dinv @ system.C,
        system.B @ Dinv, -Dinv @ system.C, Dinv)
    if system_kind(system, tol) == SystemKind.CONSERVATIVE:
        if system_kind(out, tol) != SystemKind.CONSERVATIVE:
            raise InternalConsistencyError(
                "inverse of a conservative system failed the conservativity "
                "certificate under the negated state metric")
    Sf = TransferFunction(system)
    So = TransferFunction(out)
    pts = disc_points(6, seed=tol.seed * 31 + 5, radius=0.85,
                      exclude=np.concatenate([Sf.poles, So.poles]),
                      min_dist=_POLE_MARGIN)
    vo, vf = So.values(pts, tol), Sf.values(pts, tol)
    miss = _spectral_norms(vo @ vf - np.eye(system.input_dim))
    scale = _spectral_norms(vo) * _spectral_norms(vf)
    certify("inverse transfer product residual",
            np.max(miss / np.maximum(1.0, scale)), 1e-8)
    return out


def blaschke_product(factors, tol=DEFAULT_TOL):
    """Cascade of conservative Hilbert-state factors.

    Later factors multiply on the left of the product's values; the
    degree is the sum of the state dimensions.
    """
    factors = list(factors)
    if not factors:
        raise InputError("need at least one factor")
    for f in factors:
        if f.state.neg != 0:
            raise PreconditionError("factors must have Hilbert state spaces")
        if system_kind(f, tol) != SystemKind.CONSERVATIVE:
            raise PreconditionError("factors must be conservative")
    out = factors[0]
    for f in factors[1:]:
        out = cascade(out, f)
    return out


# ---------------------------------------------------------------------------
# function-level factorization


@dataclass
class FactorizationResult:
    """Two-sided Krein-Langer factorization of a generalized Schur function.

    The function equals schur_right * blaschke_right^-1 and also
    blaschke_left^-1 * schur_left.  Both Schur factors are minimal passive
    Hilbert-state systems, so Schur functions; both Blaschke products are
    conservative Hilbert-state systems whose state dimension kappa, the
    number of poles in the disc, is the negative index.
    """

    schur_right: TransferFunction
    blaschke_right: TransferFunction
    schur_left: TransferFunction
    blaschke_left: TransferFunction
    kappa: int
    right_residual: float
    left_residual: float
    notes: str = ""


def _minimal_part(system, tol):
    """(form, B, C, H, inside): a minimal realization (A_m, B, C, D) of the
    system's transfer function, A_m given by its Schur form, with the
    metric H of its state and the mask of the eigenvalues inside the disc:
    the system itself, on its cached form, with its signature J, when both
    Hautus spans of _schur_spans are the whole state.  Otherwise it is
    (W^H A W, W^H B, C W, D) and W^H J W, W an orthonormal basis of the
    reachable space R orthogonal to R & N, N the unobservable kernel: R
    and R & N are A-invariant, B lies in R and C vanishes on R & N.  W is
    Q times the range of Q^H O, for orthonormal bases Q of R and O of the
    observable span, the complement of N.  An eigenvalue of A_m within
    metric_tol of the circle raises AmbiguousSpectrumError.  Both
    kl_factorize_function and the index count of _minimal_index read it.
    """
    (reach, _), (observed, hidden) = _schur_spans(system, (False, True), tol)
    signs = system.state.signs
    if reach.shape[1] == system.state_dim and not hidden.shape[1]:
        form, B, C, H = system._spectrum, system.B, system.C, np.diag(signs)
    else:
        W = reach @ column_space(reach.conj().T @ observed, tol)
        form, B, C, H = (_DiscSchur(W.conj().T @ system.A @ W), W.conj().T @ system.B,
                         system.C @ W, (W.conj().T * signs) @ W)
    near, inside, _ = form.regions(tol.metric_tol)
    if near.any():
        raise AmbiguousSpectrumError(
            f"eigenvalue {form.eigenvalues[near][0]} lies within "
            f"{tol.metric_tol:g} of the unit circle")
    return form, B, C, H, inside


def _hilbert_system(T, B, C, D):
    """Colligation of the realization (T, B, C, D) on a Hilbert state."""
    return Colligation(SignatureSpace(T.shape[0], 0), B.shape[1], C.shape[0],
                       T, B, C, D)


def _reflect_poles(T, B, C, D, tol):
    """((T, B, C, D), moves): the realization (T, B, C, D), T upper
    triangular with no eigenvalue within metric_tol of the circle, with
    each eigenvalue lam outside the disc moved to 1/conj(lam), one at a
    time (README rule 7): ztrexc brings lam to the bottom of T, with b the
    last row of B, the feedback f = -x b^H / conj(lam), x = (|lam|^2 - 1)
    / |b|^2, on the last state moves it, and B and D are scaled on the
    right by I - (1 - 1/|lam|) u u^H, u = b^H / |b|.  The result is
    (Q^H (T + B F) Q, Q^H B R, (C + D F) Q, D R) for a unitary Q, a
    feedback F and an invertible R.  A row b at or below the Hautus cut is
    refused.  moves lists each step's (Q_k, lam, u, x), Q_k its
    reordering or None.
    """
    T, B, C, D = np.triu(T), B.copy(), C.copy(), D.copy()
    n, m = B.shape
    cut = tol.rank_tol * max(1.0, _fro(T), _fro(B))
    moves = []
    while True:
        outside = np.flatnonzero(np.abs(np.diagonal(T)) > 1.0)
        if not outside.size:
            return (T, B, C, D), moves
        Q = None
        if outside[-1] < n - 1:
            T, Q, info = ztrexc(T, np.eye(n, dtype=complex), outside[-1] + 1, n)
            if info:
                raise np.linalg.LinAlgError("Schur reordering failed")
            B, C = Q.conj().T @ B, C @ Q
        lam, b = T[-1, -1], B[-1]
        size = _fro(b)
        if not size > cut:
            raise PreconditionError(
                f"the pole {1.0 / lam} is reached from the input by {size:.3e}, "
                f"at or below the cut {cut:.3e}")
        u = b.conj() / size
        mod = abs(lam)
        x = (mod * mod - 1.0) / (size * size)
        f = -(x * size / np.conj(lam)) * u
        T[:, -1] += B @ f
        C[:, -1] += D @ f
        half = np.eye(m) - (1.0 - 1.0 / mod) * np.outer(u, u.conj())
        B, D = B @ half, D @ half
        moves.append((Q, lam, u, x))


def _peel(T, B, C, D, H, tol):
    """((T, B, C, D), M): the right coprime factorization S = N M^-1 of the
    function of the minimal realization (T, B, C, D), T upper triangular
    with no eigenvalue within metric_tol of the circle, passive in the
    Hermitian metric H of its state.  M is inner, realized conservative on
    a Hilbert state, and N minimal and passive on a Hilbert state.

    Each move of _reflect_poles splits off the one-state factor of M with
    zero 1/lam, conservative in the metric x, so the realization stays
    passive in H + x e_n e_n^T.  N is the result on the orthogonal
    complement O of its unobservable kernel, which holds the kernel of H,
    in the state U x for O^H H O = U^H U; a metric not positive definite
    there is refused.
    """
    (T, B, C, D), moves = _reflect_poles(T, B, C, D, tol)
    m = B.shape[1]
    M = Colligation(SignatureSpace(0, 0), m, m, np.zeros((0, 0)),
                    np.zeros((0, m)), np.zeros((m, 0)), np.eye(m))
    H = H.copy()
    for Q, lam, u, x in moves:
        M = cascade(blaschke_potapov_factor(1.0 / lam, -lam / abs(lam), u, m, tol), M)
        if Q is not None:
            H = Q.conj().T @ H @ Q
        H[-1, -1] += x
    (O, hidden), = _schur_spans(_hilbert_system(T, B, C, D), (True,), tol)
    if hidden.shape[1]:
        T, B, C, H = O.conj().T @ T @ O, O.conj().T @ B, C @ O, O.conj().T @ H @ O
    U, info = zpotrf(H)
    if info:
        raise PreconditionError("the peeled metric is not positive definite: "
                                "the backing is not passive on its minimal part")
    T = _trsolve(U, (U @ T).conj().T, trans=2, check_finite=True).conj().T
    C = _trsolve(U, C.conj().T, trans=2, check_finite=True).conj().T
    return (T, U @ B, C, D), M


def _flip(T, B, C, D):
    """The realization (T^H, C^H, B^H, D^H) of the function sharp(S) in the
    reversed basis, which keeps T upper triangular."""
    return (T.conj().T[::-1, ::-1], C.conj().T[::-1], B.conj().T[:, ::-1],
            D.conj().T)


def kl_factorize_function(S, tol=DEFAULT_TOL):
    """Factor a rational generalized Schur function on both sides.

    On a minimal realization of S (_minimal_part), whose kappa eigenvalues
    outside the disc are the reciprocals of the poles of S in the disc,
    S = S_r B_r^-1 is the coprime factorization with an inner denominator,
    peeled one pole at a time off the Schur form ordered with those
    eigenvalues last (_peel).  The left one, S = B_l^-1 S_l, is the same
    peel on sharp(S), whose realization (A^H, C^H, B^H, D^H) has the Schur
    form (Z P, P T^H P) of the same form, P the flip.  Both peels start
    from the backing's signature J: a passive backing's adjoint is passive
    in J^-1 = J.

    Certificates (README rule 7): each Blaschke product is a conservative
    Hilbert-state system and each Schur factor a passive one, so a Schur
    function, with no boundary sample; the factors reconstruct S at disc
    samples; and no pair has a common zero by construction, which would be
    an unobservable eigenvector of the minimal realization.  An eigenvalue
    within metric_tol of the circle raises AmbiguousSpectrumError.  A pole
    the peel does not reach, and a backing that is not passive on its
    minimal part, raise PreconditionError.
    """
    S = as_transfer(S)
    form, B, C, H, inside = _minimal_part(S.backing, tol)
    D = S.backing.D
    T, Z, _ = form.ordered(inside)
    right, inner_r = _peel(T, Z.conj().T @ B, C @ Z, D, Z.conj().T @ H @ Z, tol)
    T, Z, _ = form.ordered(~inside)
    left, inner_l = _peel(*_flip(T, Z.conj().T @ B, C @ Z, D),
                          (Z.conj().T @ H @ Z)[::-1, ::-1], tol)
    S_r = TransferFunction(_hilbert_system(*right))
    S_l = TransferFunction(_hilbert_system(*_flip(*left)))
    B_r = TransferFunction(inner_r)
    B_l = TransferFunction(adjoint_system(inner_l))
    # the peel keeps the diagonal of the form bitwise, so both products
    # vanish exactly at the reciprocals of the outside eigenvalues
    zeros = 1.0 / form.eigenvalues[~inside]

    for name, Sf, Bf in (("right", S_r, B_r), ("left", S_l, B_l)):
        if system_kind(Bf.backing, tol) != SystemKind.CONSERVATIVE:
            raise InternalConsistencyError(
                f"{name} Blaschke factor is not a conservative Hilbert-state "
                "system")
        if system_kind(Sf.backing, tol) == SystemKind.NONE:
            raise PreconditionError(
                f"{name} Schur factor is not passive in the metric carried "
                "from the backing: the backing is not passive on its minimal "
                "part")

    # reconstruction at samples kept away from every pole involved
    pts = disc_points(64, seed=tol.seed * 613 + 7, radius=0.9,
                      exclude=np.concatenate([S.poles, zeros]), min_dist=1e-4)
    val = S.values(pts, tol)
    res_r = certify("right factor reconstruction", _relative_mismatch(
        S_r.values(pts, tol) @ np.linalg.inv(B_r.values(pts, tol)), val), 1e-7)
    res_l = certify("left factor reconstruction", _relative_mismatch(
        np.linalg.solve(B_l.values(pts, tol), S_l.values(pts, tol)), val), 1e-7)
    return FactorizationResult(S_r, B_r, S_l, B_l, zeros.size, res_r, res_l,
                               notes=RATIONAL_NOTE)


# ---------------------------------------------------------------------------
# boundary behavior


@dataclass
class BoundaryReport:
    """Boundary sample survey: top singular values and defect norms.

    Flags upgrade sampled smallness to identities by rationality (see
    note).  Skipped samples sat too close to a reciprocal pole pair.
    """

    angles: np.ndarray
    sigma_max: np.ndarray
    defect_right: np.ndarray
    defect_left: np.ndarray
    contractive: bool
    inner: bool
    co_inner: bool
    bi_inner: bool
    skipped: int
    note: str = RATIONAL_NOTE

    def rows(self):
        """Rows (theta, sigma_max, defect_right_norm, defect_left_norm)."""
        for k in range(self.angles.size):
            yield (float(self.angles[k]), float(self.sigma_max[k]),
                   float(self.defect_right[k]), float(self.defect_left[k]))


def _circle_survey(S, samples, tol):
    """Top singular values and the norms of I - V^*V and I - VV^* at the
    samples-th roots of unity, as three arrays that are NaN where a point
    sat too close to a pole, followed by the values V themselves, whose
    rows are NaN there.

    Surveys are memoized on S by (samples, tol), as read-only arrays.  A
    survey of count samples serves a request for samples when samples
    divides count and boundary_points(samples) is bitwise its stride
    count // samples (true for power-of-two strides, not for every
    stride).  Every entry is per point, with the pole mask of the point's
    own guard, and every value is a backward-stable evaluation (README
    rule 5), so the served arrays differ from a fresh survey's only by
    the rounding of two such evaluations."""
    points = boundary_points(samples)
    for (count, key_tol), survey in S._surveys.items():
        if (key_tol == tol and count % samples == 0 and np.array_equal(
                points, boundary_points(count)[::count // samples])):
            return tuple(x[::count // samples] for x in survey)
    survey = _fresh_survey(S, samples, tol)
    for x in survey:
        x.flags.writeable = False
    S._surveys[samples, tol] = survey
    return survey


def _fresh_survey(S, samples, tol):
    """The arrays of _circle_survey, computed by one transfer_values batch
    on the backing."""
    vals, ok = transfer_values(S.backing, boundary_points(samples), tol)
    out = np.full((3, samples), np.nan)
    out[:, ok] = _survey_norms(vals[ok])
    return (*out, vals)


def _survey_norms(V):
    """|V|_2, |I - V^*V|_2 and |I - VV^*|_2 over a (K, p, m) stack.

    All three come from the squared singular values s^2 = w * scale * scale
    of each value's _gram_eigenvalues, exact and never 0 * inf: the defects
    are max_i |1 - s_i^2|, and the side of the larger dimension has |p - m|
    more eigenvalues 1.  Each s^2 is within a few ulps of a + c, so the
    defects keep their absolute accuracy; one beyond the range is inf."""
    _, p, m = V.shape
    w, scale = _gram_eigenvalues(V)
    top = np.sqrt(np.maximum(w.max(axis=1, initial=0.0), 0.0)) * scale
    with np.errstate(over="ignore"):
        d = np.max(np.abs(1.0 - w * scale[:, None] * scale[:, None]), axis=1, initial=0.0)
    return (top,
            np.maximum(d, 1.0) if m > p else d,
            np.maximum(d, 1.0) if p > m else d)


def boundary_behavior(S, tol=DEFAULT_TOL):
    """Survey the function on the circle and flag inner behavior: the
    flags need 2n + 1 usable points for n states, where a defect times
    |det(I - zA)|^2 is a trigonometric polynomial of degree n."""
    S = as_transfer(S)
    floor = 2 * S.backing.state_dim + 1
    n = max(tol.boundary_samples, floor)
    angles = 2.0 * np.pi * np.arange(n) / n
    sig, dr, dl = _circle_survey(S, n, tol)[:3]
    good = ~np.isnan(sig)
    skipped = int(np.sum(~good))
    if not np.any(good):
        return BoundaryReport(angles, sig, dr, dl, False, False, False,
                              False, skipped,
                              note="all boundary samples pole-proximal")
    contractive = bool(np.max(sig[good]) <= 1.0 + tol.metric_tol)
    proven = n - skipped >= floor
    inner = proven and bool(np.max(dr[good]) <= tol.metric_tol)
    co_inner = proven and bool(np.max(dl[good]) <= tol.metric_tol)
    note = RATIONAL_NOTE if proven else (f"{n - skipped} usable boundary samples, "
                                         f"fewer than the {floor} an inner verdict needs")
    return BoundaryReport(angles, sig, dr, dl, contractive, inner, co_inner,
                          inner and co_inner, skipped, note)


# ---------------------------------------------------------------------------
# defect functions


@dataclass
class RationalScalar:
    """Scalar rational function as ascending complex128 coefficient lists."""

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        self.numerator = np.asarray(self.numerator, dtype=complex)
        self.denominator = np.asarray(self.denominator, dtype=complex)

    def __call__(self, z):
        num = np.polynomial.polynomial.polyval(z, self.numerator)
        den = np.polynomial.polynomial.polyval(z, self.denominator)
        return num / den


@dataclass
class DefectResult:
    """Outer minorants of the boundary defects, or their vanishing flags.

    phi bounds I - S^*S from below on the circle (right side), psi the
    dual I - SS^*; for scalar S both are 1 - |S|^2, so psi is phi.  For
    matrix functions only the zero flags are decided; the scalar
    factorization certificate lives in boundary_residual (match of
    |phi|^2 with 1 - |S|^2 at samples).
    """

    phi: RationalScalar | None
    phi_is_zero: bool
    psi: RationalScalar | None
    psi_is_zero: bool
    right_defect_max: float
    left_defect_max: float
    boundary_residual: float
    note: str = RATIONAL_NOTE


def _outer_denominator(eigenvalues):
    """det(I - zA) with inside-disc zeros reflected out, ascending coeffs."""
    coeffs = np.array([1.0 + 0.0j])
    for lam in eigenvalues:
        if abs(lam) > 1.0:
            factor = np.array([-np.conj(lam), 1.0])  # z - conj(lam)
        else:
            factor = np.array([1.0, -lam])  # 1 - lam z
        coeffs = np.polynomial.polynomial.polymul(coeffs, factor)
    return coeffs


def _right_defect_scalar(S, values, tol):
    """Outer phi with |phi|^2 = 1 - |S|^2 on the circle, or None if zero.

    values holds S at the N = len(values)-th roots of unity, NaN where a
    point sat too close to a pole; any such point raises PoleProximityError.
    Returns (phi, boundary_residual).  defect calls it only once the
    survey has found max |1 - |S|^2| above metric_tol.  With d(z) =
    det(I - zA), the product of 1 - lam z over the backing's Schur
    diagonal, S d is a polynomial of degree at most n = dim A, so on the
    circle |d|^2 (1 - |S|^2) = |d|^2 - |S d|^2 is a trigonometric
    polynomial sum_{|k| <= n} c_k w^k.
    As N >= 2n + 1, no frequency aliases onto another, and c_k is entry k
    of one FFT of its N samples, divided by N.  The samples are
    backward-stable evaluations (README rule 5): an error e in a value
    moves a sample by at most |d|^2 e (2 |S| + e) and each c_k by at most
    the mean of that.  Spectral factorization of the Laurent polynomial:
    its roots come in pairs (r, 1/conj(r)); keeping the outside-closed-disc
    half of every pair gives the outer numerator, and reflecting the
    inside-disc zeros of d gives the outer denominator with the same
    boundary modulus.
    |phi|^2 is certified within 1e-8 max(1, max |1 - |S|^2|) of the
    surveyed 1 - |S|^2, a bound the coefficients under test do not enter.
    """
    circle = boundary_points(values.size)
    bad = np.isnan(values)
    if bad.any():
        raise _pole_proximity(S.backing, complex(circle[np.argmax(bad)]))
    target = 1.0 - np.abs(values) ** 2
    worst = float(np.max(np.abs(target)))
    lam = S.backing._spectrum.eigenvalues
    dvals = np.prod(1.0 - circle[:, None] * lam, axis=1)
    c = np.fft.fft(np.abs(dvals) ** 2 * target)[:lam.size + 1] / values.size
    cmax = float(np.max(np.abs(c)))
    keep = np.flatnonzero(np.abs(c) > 1e-12 * max(1.0, cmax))
    if keep.size == 0:
        return None, worst
    neff = int(keep[-1])
    c = c[:neff + 1]
    # p(z) = z^neff * sum c_k z^k including conjugate tail
    p = np.concatenate([c[:0:-1].conj(), [c[0].real], c[1:]])
    if neff == 0:
        roots_out = np.zeros(0, dtype=complex)
    else:
        roots = np.roots(p[::-1])
        order = np.argsort(-np.abs(roots))
        roots_out = roots[order[:neff]]
    q = np.polynomial.polynomial.polyfromroots(roots_out)

    lvals = 2.0 * np.polynomial.polynomial.polyval(circle, c).real - c[0].real
    qvals = np.abs(np.polynomial.polynomial.polyval(circle, q)) ** 2
    star = int(np.argmax(lvals))
    # |q|^2 at the peak sets the scale: only an exact zero is refused
    certify("spectral factor scaling denominator", -qvals[star],
            -np.finfo(float).smallest_subnormal)
    gamma = np.sqrt(max(lvals[star], 0.0) / qvals[star])
    phi = RationalScalar(gamma * q, _outer_denominator(lam))
    resid = float(np.max(np.abs(np.abs(phi(circle)) ** 2 - target)))
    certify("spectral factor boundary defect mismatch", resid,
            1e-8 * max(1.0, worst))
    certify("spectral factor root modulus", -np.min(np.abs(roots_out), initial=np.inf),
            -(1.0 - tol.metric_tol))
    return phi, resid


def _defect_samples(n):
    """Circle points of the defect survey for n states: 128, or the least
    power of two >= 2n + 1, enough to read a trigonometric polynomial of
    degree n off its samples without aliasing."""
    return max(128, 1 << (2 * n).bit_length())


def defect(S, tol=DEFAULT_TOL):
    """Outer defect functions for scalar S; vanishing flags for any S.

    The vanishing tests sample I - S^*S and I - SS^* on the circle, at the
    N-th roots of unity with N = 128 or the least power of two >= 2n + 1
    for n states; a rational defect vanishing there vanishes identically.
    The scalar branch factors 1 - |S|^2 into an outer rational phi from
    the survey's own values: times |det(I - zA)|^2 it is a trigonometric
    polynomial of degree n, which N >= 2n + 1 samples fix exactly, so its
    coefficients inherit only the rounding of the survey's values.  For
    scalar S the left defect 1 - |S|^2 is the same function, so psi is
    phi.  With every sample pole-proximal there is nothing to decide on,
    and the first sample raises PoleProximityError.
    """
    S = as_transfer(S)
    samples = _defect_samples(S.backing.state_dim)
    sig, dr, dl, vals = _circle_survey(S, samples, tol)
    if np.isnan(sig).all():
        raise _pole_proximity(S.backing, complex(boundary_points(samples)[0]))
    right_max = float(np.nanmax(dr, initial=0.0))
    left_max = float(np.nanmax(dl, initial=0.0))
    phi_zero = right_max <= tol.metric_tol
    psi_zero = left_max <= tol.metric_tol
    scalar = S.input_dim == 1 and S.output_dim == 1
    if not scalar:
        return DefectResult(None, phi_zero, None, psi_zero, right_max,
                            left_max, 0.0,
                            note=RATIONAL_NOTE + "; matrix case decides "
                            "vanishing only")
    phi = None
    resid = 0.0
    if not phi_zero:
        phi, resid = _right_defect_scalar(S, vals[:, 0, 0], tol)
        phi_zero = phi is None
    return DefectResult(phi, phi_zero, phi, phi_zero, right_max, left_max,
                        resid)


# ---------------------------------------------------------------------------
# canonical co-isometric realization


def _stein(T, Q):
    """The solution X of X - T^H X T = Q, T upper triangular with every
    eigenvalue in the open disc.  Column j of T^H X T is
    T^H (X[:, :j] T[:j, j]) + T[j, j] T^H X[:, j], so the columns follow in
    order, each from one lower triangular solve."""
    n = T.shape[0]
    L = T.conj().T
    X = np.zeros((n, n), dtype=complex)
    for j in range(n):
        X[:, j] = _trsolve(np.eye(n) - T[j, j] * L,
                           Q[:, j] + L @ (X[:, :j] @ T[:j, j]), lower=True)
    return X


def canonical_coisometric_realization(S, tol=DEFAULT_TOL):
    """Co-isometric observable realization of S, unique up to unitary
    similarity (README rule 8).

    On a minimal realization (A, B, C, D) of S (_minimal_part) the model's
    metric solves the co-isometry equations P - A P A^H = B B^H,
    C P A^H + D B^H = 0 and C P C^H + D D^H = I, which have a Hermitian
    solution exactly when the left defect I - S S^* vanishes on the
    circle.  For every output injection G they give
    P - A_G P A_G^H = B_G B_G^H - G G^H with A_G = A + G C and
    B_G = B + G D; G is the pole-moving feedback of _reflect_poles on the
    flipped adjoint, so A_G has every eigenvalue in the disc, and this
    Stein equation has one solution, back-substituted on its triangular
    form.  For P = V diag(w) V^H, positives first, the model has the state
    |w|^-1/2 V^H x and the signature sign(w).

    An eigenvalue of A within metric_tol of the circle raises
    AmbiguousSpectrumError.  The residual of the three equations, carried
    to the model's state, is the model's dual defect: system_kind must
    read the model co-isometric or conservative, or the left defect is
    nonzero and PreconditionError is raised, as the kernel then has
    infinite rank.  Certificates: the model is observable, by the Hautus
    test on the observable side of its Schur form alone (_schur_spans,
    one zgeev with right eigenvectors), its values match S at 8 held-out
    disc points, and it reproduces the kernel at one held-out pair.
    """
    S = as_transfer(S)
    form, B, C, _, inside = _minimal_part(S.backing, tol)
    D = S.backing.D
    p, m = D.shape
    n = inside.size
    T, Z, _ = form.ordered(~inside)
    T, Ba, Ca, Da = _flip(T, Z.conj().T @ B, C @ Z, D)
    # outputs added to the adjoint: identity feedthrough reads its input
    # u = F x + R v, so returns the feedback F, and the state map Ba^H with
    # none returns the output map of S, in the final state basis
    (T, _, out, _), _ = _reflect_poles(
        T, Ba, np.vstack([Ca, np.zeros((p, n)), Ba.conj().T]),
        np.vstack([Da, np.eye(p), np.zeros((p, p))]), tol)
    BG, G, C = out[:m].conj().T, out[m:m + p].conj().T, out[m + p:]
    P = _stein(T, BG @ BG.conj().T - G @ G.conj().T)
    w, V = np.linalg.eigh(0.5 * (P + P.conj().T))
    order = np.argsort(-np.sign(w), kind="stable")
    w, V = w[order], V[:, order]
    root = np.sqrt(np.abs(w))
    model = Colligation(
        SignatureSpace(int(np.sum(w > 0)), int(np.sum(w < 0))), m, p,
        (V.conj().T @ (T.conj().T - G @ C) @ V) * (root[None, :] / root[:, None]),
        (V.conj().T @ (BG - G @ D)) / root[:, None], (C @ V) * root[None, :], D)
    # the model's dual defect is the residual of the co-isometry equations
    kind, _, dual = _operator_kind(*system_operator(model), tol)
    if kind not in (SystemKind.COISOMETRIC, SystemKind.CONSERVATIVE):
        raise PreconditionError(
            f"left defect {_norm2(dual):.3e} of the co-isometry equations is "
            f"not zero at metric_tol {tol.metric_tol:g} times max(1, |T|_2^2): "
            "the kernel has infinite rank, or the equations are too "
            "ill-conditioned to show it finite")
    if _schur_spans(model, (True,), tol)[0][0].shape[1] != n:
        raise InternalConsistencyError("canonical model is not observable")
    held = disc_points(8, seed=tol.seed * 499 + 11, radius=0.8,
                       exclude=S.poles, min_dist=1e-4)
    ref = S.values(held, tol)
    got = TransferFunction(model).values(held, tol)
    certify("canonical model transfer mismatch",
            _relative_mismatch(got, ref), 1e-7)
    if n:
        # C (I - zA)^-1 J (I - wA)^-H C^H = Rz^H J Rw against the kernel at
        # z, w, Rz = (I - conj(z) A^H)^-1 C^H; the values passed the pole rule
        w_ref, z_ref = held[0], held[1]
        Z = model._spectrum.Z
        X = _sweep(model, Z.conj().T @ model.C.conj().T, held[:2], tol, adjoint=True)[0]
        Rw, Rz = Z @ X[:, 0], Z @ X[:, 1]
        lhs = Rz.conj().T @ (model.state.signs[:, None] * Rw)
        rhs = (np.eye(p) - ref[1] @ ref[0].conj().T) / (1.0 - z_ref * np.conj(w_ref))
        _certify_residual("reproducing identity residual", lhs - rhs, 1e-6,
                          lambda: max(1.0, _norm2(rhs)))
    return model
