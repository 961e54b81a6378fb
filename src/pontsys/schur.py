"""Rational generalized Schur functions carried by finite realizations.

Functions here are never free-form symbolic objects: every one is backed
by a colligation, so pole data, adjoints and products stay exact.  On top
of that backing the module builds kernel Gram matrices and their inertia,
negative-square estimates, Blaschke-Potapov constructors, state-space
inversion, function-level factorization into a Schur factor and an
inverse Blaschke product, boundary reports, scalar defect functions via
trigonometric spectral factorization, canonical kernel-model
realizations, and kernel-decomposition checks for products.

Boundary conditions are decided at finitely many samples.  All functions
involved are rational, and a rational function that vanishes on a subset
of full measure of the circle vanishes identically, so sampled verdicts
upgrade to identities; every report that relies on this records the
rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .colligation import (
    Colligation,
    SystemKind,
    _pole_proximity,
    _schur_spans,
    adjoint_system,
    classify,
    system_kind,
    transfer_eval,
    transfer_values,
)
from .exceptions import (
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    certify,
)
from .indefinite import DEFAULT_TOL, SignatureSpace
from .products import (
    _kl_factorize,
    _qualifies,
    cascade,
    kl_factorize_system,
    obstruction_observable,
)
from .sampling import boundary_points, disc_points

__all__ = [
    "TransferFunction",
    "KernelGram",
    "NegativeSquaresEstimate",
    "RationalScalar",
    "DefectResult",
    "FactorizationResult",
    "BoundaryReport",
    "KernelDecompositionReport",
    "as_transfer",
    "sharp",
    "kernel_gram",
    "negative_squares_estimate",
    "blaschke_potapov_factor",
    "invert_system",
    "blaschke_product",
    "kl_factorize_function",
    "boundary_behavior",
    "defect",
    "canonical_coisometric_realization",
    "check_kernel_decomposition",
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
    return float(np.max(np.linalg.norm(got - want, 2, axis=(1, 2))
                        / np.maximum(1.0, np.linalg.norm(want, 2, axis=(1, 2)))))


def sharp(S):
    """The function z -> S(conj(z))^*, realized by the adjoint system.

    Applying it twice returns to the original function exactly.
    """
    return TransferFunction(adjoint_system(as_transfer(S).backing))


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
    herm = np.linalg.norm(G - G.conj().T)
    G = 0.5 * (G + G.conj().T)
    w = np.linalg.eigvalsh(G)
    scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
    certify("kernel Gram Hermitian residual", herm, 1e-12 * scale)
    thr = tol.rank_tol * scale
    plus = int(np.sum(w > thr))
    minus = int(np.sum(w < -thr))
    return KernelGram(points, G, (plus, w.size - plus - minus, minus), p)


@dataclass
class NegativeSquaresEstimate:
    """Estimated number of negative squares with the record of its stages.

    history holds the Gram's negative count at each stage.  The estimate
    is stable when the count met the disc pole count of a passive backing
    or stayed unchanged over four stages; it is None when neither
    happened (verdict "inconclusive").  pole_count is the independent
    count of main-operator eigenvalues outside the closed disc, and
    agrees compares the two.
    """

    estimate: int | None
    stable: bool
    history: tuple
    pole_count: int
    agrees: bool | None
    verdict: str


def _backing_kind(S, tol):
    """system_kind of the backing, or None when its certificate refuses."""
    try:
        return system_kind(S.backing, tol)
    except InternalConsistencyError:
        return None


def _negative_index_bound(S, kind, tol):
    """disc_pole_count when it bounds the negative index from above, else
    None; kind is the backing's _backing_kind.

    A passive backing, of any kind but NONE, realizes a generalized Schur
    function, whose negative index is its number of poles in the disc;
    each is 1/lam for an eigenvalue lam of A with |lam| > 1.  The count is
    trusted only with no eigenvalue within metric_tol of the circle.
    """
    if (kind in (None, SystemKind.NONE)
            or S.backing._spectrum.regions(tol.metric_tol)[0].any()):
        return None
    return S.disc_pole_count


def negative_squares_estimate(S, tol=DEFAULT_TOL):
    """Estimate the kernel's negative squares by growing sample sets.

    The sample set doubles from 8 to at most 256 disc points; supersets
    never lose negative directions, so the Gram's negative count is a
    lower bound on the index that grows along the way.  When the backing
    is passive and no eigenvalue of its main operator lies within
    metric_tol of the circle, the disc pole count is an upper bound, and
    the first stage whose count meets it certifies the index; a count
    above it raises InternalConsistencyError.  Otherwise, or while the
    bound is not met, the estimate is declared when the count is
    unchanged over four consecutive stages, and is cross-checked against
    the pole count; non-stabilization yields an inconclusive verdict
    rather than a wrong certainty.
    """
    S = as_transfer(S)
    return _negative_squares(S, _backing_kind(S, tol), tol)


def _negative_squares(S, kind, tol):
    """negative_squares_estimate of the TransferFunction S whose backing's
    _backing_kind is kind, for callers that have already decided it."""
    exclude = S.poles
    bound = _negative_index_bound(S, kind, tol)
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
        if bound is not None:
            certify("kernel negative count within the disc pole count",
                    count, bound)
            if count == bound:
                return NegativeSquaresEstimate(
                    count, True, tuple(history), bound, True, "stable")
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
    nrm = np.linalg.norm(u)
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
    return _invert_system(system, tol)


def _invert_system(system, tol, known_conservative=False):
    """invert_system; known_conservative skips classifying a system already
    certified conservative.  The inverse of a conservative system comes
    back certified conservative."""
    if system.input_dim != system.output_dim:
        raise DimensionMismatchError("inversion needs a square feedthrough")
    D = system.D
    if D.size == 0:
        raise PreconditionError("cannot invert an empty feedthrough")
    sv = np.linalg.svd(D, compute_uv=False)
    if sv[-1] <= tol.rank_tol * max(1.0, sv[0]):
        raise PreconditionError("feedthrough is numerically singular")
    Dinv = np.linalg.inv(D)
    out = Colligation(
        SignatureSpace.from_signs(-system.state.signs),
        system.input_dim, system.output_dim,
        system.A - system.B @ Dinv @ system.C,
        system.B @ Dinv, -Dinv @ system.C, Dinv)
    if known_conservative or system_kind(system, tol) == SystemKind.CONSERVATIVE:
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
    miss = np.linalg.norm(vo @ vf - np.eye(system.input_dim), 2, axis=(1, 2))
    scale = np.linalg.norm(vo, 2, axis=(1, 2)) * np.linalg.norm(vf, 2, axis=(1, 2))
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
    """Two-sided factorization of a generalized Schur function.

    The function equals schur_right * blaschke_right^-1 and also
    blaschke_left^-1 * schur_left; both Schur factors have no negative
    squares, and both Blaschke products are conservative with Hilbert
    state dimension equal to the function's negative index.
    """

    schur_right: TransferFunction
    blaschke_right: TransferFunction
    schur_left: TransferFunction
    blaschke_left: TransferFunction
    kappa: int
    right_residual: float
    left_residual: float
    notes: str = ""


def _side_factorization(S, cls, mode, tol):
    """kl_factorize_system on the side's backing: the given one, classified
    as cls, when it qualifies, else a canonical one."""
    if _qualifies(cls, mode):
        return _kl_factorize(S.backing, cls, mode, tol)
    if mode == "right":
        backing = _canonical_realization(S, cls.kind, tol)
    else:
        backing = adjoint_system(_canonical_realization(
            sharp(S), _ADJOINT_KIND.get(cls.kind, cls.kind), tol))
    return kl_factorize_system(backing, mode, tol)


def _scalar_denominator_system(zeros, tol):
    """Conservative realization of the scalar Blaschke product vanishing
    at the given points (with multiplicity); identity when none."""
    if len(zeros) == 0:
        return Colligation(SignatureSpace(0, 0), 1, 1,
                           np.zeros((0, 0)), np.zeros((0, 1)),
                           np.zeros((1, 0)), np.eye(1))
    return blaschke_product(
        [blaschke_potapov_factor(w, 1.0, [1.0], 1, tol) for w in zeros], tol)


def kl_factorize_function(S, tol=DEFAULT_TOL):
    """Factor a rational generalized Schur function on both sides.

    Routes through the state-space factorization: the right side runs on
    a conservative or co-isometric observable backing (built canonically
    when the given one does not qualify), the left side on a
    conservative or isometric controllable backing obtained from the
    reflected function.  A side can be unavailable by shape (non-square
    functions realize on one side only) or because the one-shot state
    similarity declines to certify itself at an ill-conditioned
    instance; when the other side succeeded and the unavailable side has
    scalar input or output, its Blaschke factor is the scalar product
    over the pole locations certified by the first side, and its Schur
    factor is certified by sampled negative-squares and boundary
    contractivity instead of state positivity.  Certifies matching
    Blaschke degrees, reconstruction at samples, and the absence of
    common zeros.
    """
    S = as_transfer(S)
    right = left = None
    right_err = left_err = None
    # the given backing is classified once, for both sides
    cls = classify(S.backing, tol)
    try:
        right = _side_factorization(S, cls, "right", tol)
    except (PreconditionError, InternalConsistencyError) as exc:
        right_err = exc
    try:
        left = _side_factorization(S, cls, "left", tol)
    except (PreconditionError, InternalConsistencyError) as exc:
        left_err = exc
    if right is None and left is None:
        raise right_err

    # each side's negative factor was certified conservative by its
    # factorization, and its inverse comes back certified conservative
    if right is not None:
        S_r = TransferFunction(right.schur_factor)
        B_r = TransferFunction(_invert_system(
            right.inverse_blaschke_factor, tol, known_conservative=True))
        kappa_r = right.inverse_blaschke_factor.state_dim
        # reciprocal eigenvalues of the inverse factor: the product's zeros
        zeros_r = 1.0 / right.inverse_blaschke_factor._spectrum.eigenvalues
    if left is not None:
        S_l = TransferFunction(left.schur_factor)
        B_l = TransferFunction(_invert_system(
            left.inverse_blaschke_factor, tol, known_conservative=True))
        kappa_l = left.inverse_blaschke_factor.state_dim
        zeros_l = 1.0 / left.inverse_blaschke_factor._spectrum.eigenvalues

    if left is None:
        if S.output_dim != 1:
            raise left_err
        bl_sys = _scalar_denominator_system(zeros_r, tol)
        S_l = TransferFunction(cascade(S.backing, bl_sys))
        B_l = TransferFunction(bl_sys)
        kappa_l = bl_sys.state_dim
        zeros_l = np.asarray(zeros_r, dtype=complex)
    if right is None:
        if S.input_dim != 1:
            raise right_err
        br_sys = _scalar_denominator_system(zeros_l, tol)
        S_r = TransferFunction(cascade(br_sys, S.backing))
        B_r = TransferFunction(br_sys)
        kappa_r = br_sys.state_dim
        zeros_r = np.asarray(zeros_l, dtype=complex)

    if kappa_r != kappa_l:
        raise InternalConsistencyError(
            f"right and left Blaschke degrees disagree ({kappa_r} vs {kappa_l})")

    for name, fac, via_state in (("right", S_r, right is not None),
                                 ("left", S_l, left is not None)):
        if via_state:
            if fac.backing.state.neg != 0:
                raise InternalConsistencyError(
                    f"{name} Schur factor kept a negative state direction")
        else:
            est = negative_squares_estimate(fac, tol)
            if est.estimate != 0 or not est.stable:
                raise InternalConsistencyError(
                    f"{name} Schur factor failed the sampled zero-index "
                    f"certificate (estimate {est.estimate!r})")
        sigma = _decisive_survey(fac, 64, tol)[0]
        certify(f"{name} Schur factor boundary norm",
                np.nanmax(sigma, initial=0.0), 1.0 + tol.metric_tol)
    for name, fac, inverted in (("right", B_r, right is not None),
                                ("left", B_l, left is not None)):
        conservative = inverted or system_kind(fac.backing, tol) == SystemKind.CONSERVATIVE
        if fac.backing.state.neg != 0 or not conservative:
            raise InternalConsistencyError(
                f"{name} Blaschke factor is not a conservative Hilbert-state "
                "system")

    # reconstruction at samples kept away from every pole involved
    pts = disc_points(64, seed=tol.seed * 613 + 7, radius=0.9,
                      exclude=np.concatenate([S.poles, zeros_r, zeros_l]),
                      min_dist=1e-4)
    val = S.values(pts, tol)
    res_r = certify("right factor reconstruction", _relative_mismatch(
        S_r.values(pts, tol) @ np.linalg.inv(B_r.values(pts, tol)), val), 1e-7)
    res_l = certify("left factor reconstruction", _relative_mismatch(
        np.linalg.solve(B_l.values(pts, tol), S_l.values(pts, tol)), val), 1e-7)

    # no common zeros: at each zero of the Blaschke product the stacked
    # (right) or flanked (left) pair keeps full rank; a fallback side is
    # probed just off the zero because its raw cascade state is singular
    # exactly there (the transfer value itself stays regular)
    off_r = 0.0 if right is not None else 1e-5 * np.exp(0.7j)
    off_l = 0.0 if left is not None else 1e-5 * np.exp(0.7j)
    for name, B, Sf, w, axis in (("right", B_r, S_r, zeros_r + off_r, 1),
                                 ("left", B_l, S_l, zeros_l + off_l, 2)):
        sv = np.linalg.svd(np.concatenate(
            [B.values(w, tol), Sf.values(w, tol)], axis=axis), compute_uv=False)
        certify(f"{name} factors' relative singular value at the zeros",
                -np.min(sv[:, -1] / np.maximum(1.0, sv[:, 0]), initial=np.inf),
                -1e-8)

    notes = RATIONAL_NOTE
    if right is None:
        notes += "; right factors came from the scalar route"
    if left is None:
        notes += "; left factors came from the scalar route"
    return FactorizationResult(S_r, B_r, S_l, B_l, kappa_r, res_r, res_l,
                               notes=notes)


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
    stride); every entry is per point, so the served arrays are the ones
    a fresh survey would compute."""
    points = boundary_points(samples)
    for (count, key_tol), survey in S._surveys.items():
        if (key_tol == tol and count % samples == 0 and np.array_equal(
                points, boundary_points(count)[::count // samples])):
            return tuple(x[::count // samples] for x in survey)
    vals, ok = transfer_values(S.backing, points, tol)
    V = vals[ok]
    VH = V.conj().transpose(0, 2, 1)
    out = np.full((3, samples), np.nan)
    out[:, ok] = [np.linalg.norm(X, 2, axis=(1, 2)) for X in (
        V, np.eye(S.input_dim) - VH @ V, np.eye(S.output_dim) - V @ VH)]
    survey = (*out, vals)
    for x in survey:
        x.flags.writeable = False
    S._surveys[samples, tol] = survey
    return survey


def _decisive_survey(S, samples, tol):
    """The circle survey behind a sampled verdict.  With every sample
    pole-proximal there is nothing to decide on, and the first sample
    raises PoleProximityError."""
    out = _circle_survey(S, samples, tol)
    if np.isnan(out[0]).all():
        raise _pole_proximity(S.backing, complex(boundary_points(samples)[0]))
    return out


def boundary_behavior(S, tol=DEFAULT_TOL):
    """Survey the function on the circle and flag inner behavior."""
    S = as_transfer(S)
    n = tol.boundary_samples
    angles = 2.0 * np.pi * np.arange(n) / n
    sig, dr, dl, _ = _circle_survey(S, n, tol)
    good = ~np.isnan(sig)
    skipped = int(np.sum(~good))
    if not np.any(good):
        return BoundaryReport(angles, sig, dr, dl, False, False, False,
                              False, skipped,
                              note="all boundary samples pole-proximal")
    contractive = bool(np.max(sig[good]) <= 1.0 + tol.metric_tol)
    inner = bool(np.max(dr[good]) <= tol.metric_tol)
    co_inner = bool(np.max(dl[good]) <= tol.metric_tol)
    return BoundaryReport(angles, sig, dr, dl, contractive, inner, co_inner,
                          inner and co_inner, skipped)


# ---------------------------------------------------------------------------
# defect functions


@dataclass
class RationalScalar:
    """Scalar rational function as ascending coefficient lists."""

    numerator: np.ndarray
    denominator: np.ndarray

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


def _denominator_coeffs(lam):
    """Ascending coefficients of det(I - zA) from the eigenvalues of A."""
    if lam.size == 0:
        return np.array([1.0 + 0.0j])
    # np.poly gives x^n + ... for prod (x - lam); read backwards those are
    # the ascending coefficients of prod (1 - lam z)
    return np.asarray(np.poly(lam), dtype=complex)


def _numerator_coeffs(S, dcoeffs, tol):
    """Ascending coefficients of S(z) * det(I - zA) for scalar S."""
    n = dcoeffs.size - 1
    N = n + 1
    moduli = np.abs(S.poles)
    radius = None
    for cand in (0.5, 0.41, 0.63, 0.37, 0.71, 0.29, 0.83):
        if moduli.size == 0 or np.min(np.abs(moduli - cand)) > 0.03:
            radius = cand
            break
    if radius is None:
        raise InternalConsistencyError("could not place a sampling circle "
                                       "between the pole moduli")
    nodes = radius * np.exp(2j * np.pi * np.arange(N) / N)
    fvals = S.values(nodes, tol)[:, 0, 0] * np.polynomial.polynomial.polyval(
        nodes, dcoeffs)
    coeffs = np.fft.fft(fvals) / N
    return coeffs / radius ** np.arange(N)


def _laurent_coeffs(dcoeffs, ncoeffs):
    """c_k of |d|^2 - |n|^2 on the circle, k = 0..deg."""
    n = dcoeffs.size - 1
    c = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        for j in range(n + 1 - k):
            c[k] += (dcoeffs[j + k] * np.conj(dcoeffs[j])
                     - ncoeffs[j + k] * np.conj(ncoeffs[j]))
    return c


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

    values holds S at the len(values)-th roots of unity, NaN where a point
    sat too close to a pole; any such point raises PoleProximityError.
    Returns (phi, boundary_residual).  Spectral factorization of the
    trigonometric polynomial |d|^2 - |n|^2: its roots come in pairs
    (r, 1/conj(r)); keeping the outside-closed-disc half of every pair
    gives the outer numerator, and reflecting the inside-disc zeros of d
    gives the outer denominator with the same boundary modulus.
    """
    circle = boundary_points(values.size)
    bad = np.isnan(values)
    if bad.any():
        raise _pole_proximity(S.backing, complex(circle[np.argmax(bad)]))
    target = 1.0 - np.abs(values) ** 2
    worst = float(np.max(np.abs(target)))
    if worst <= tol.metric_tol:
        return None, worst
    lam = S.backing._spectrum.eigenvalues
    dcoeffs = _denominator_coeffs(lam)
    ncoeffs = _numerator_coeffs(S, dcoeffs, tol)
    c = _laurent_coeffs(dcoeffs, ncoeffs)
    cmax = float(np.max(np.abs(c)))
    keep = np.flatnonzero(np.abs(c) > 1e-12 * max(1.0, cmax))
    if keep.size == 0:
        return None, worst
    neff = int(keep[-1])
    # p(z) = z^neff * sum c_k z^k including conjugate tail
    p = np.zeros(2 * neff + 1, dtype=complex)
    p[neff] = c[0].real
    for k in range(1, neff + 1):
        p[neff + k] = c[k]
        p[neff - k] = np.conj(c[k])
    if neff == 0:
        roots_out = np.zeros(0, dtype=complex)
    else:
        roots = np.roots(p[::-1])
        order = np.argsort(-np.abs(roots))
        roots_out = roots[order[:neff]]
    q = np.polynomial.polynomial.polyfromroots(roots_out)

    lvals = np.full(circle.size, c[0].real + 0.0)
    for k in range(1, neff + 1):
        lvals += 2.0 * (c[k] * circle ** k).real
    qvals = np.abs(np.polynomial.polynomial.polyval(circle, q)) ** 2
    star = int(np.argmax(lvals))
    # |q|^2 at the peak sets the scale: only an exact zero is refused
    certify("spectral factor scaling denominator", -qvals[star],
            -np.finfo(float).smallest_subnormal)
    gamma = np.sqrt(max(lvals[star], 0.0) / qvals[star])
    phi = RationalScalar(gamma * q, _outer_denominator(lam))
    resid = float(np.max(np.abs(np.abs(phi(circle)) ** 2 - target)))
    scale = max(1.0, float(np.max(np.abs(lvals))), worst)
    certify("spectral factor boundary defect mismatch", resid, 1e-8 * scale)
    certify("spectral factor root modulus", -np.min(np.abs(roots_out), initial=np.inf),
            -(1.0 - tol.metric_tol))
    return phi, resid


def defect(S, tol=DEFAULT_TOL):
    """Outer defect functions for scalar S; vanishing flags for any S.

    The vanishing tests sample I - S^*S and I - SS^* on the circle; a
    rational defect vanishing there vanishes identically.  The scalar
    branch factors 1 - |S|^2 by root reflection into an outer rational
    phi, from the survey's own circle values.  For scalar S the left
    defect 1 - |S|^2 is the same function, so psi is phi.  With every
    sample pole-proximal there is nothing to decide on, and the first
    sample raises PoleProximityError.
    """
    S = as_transfer(S)
    _, dr, dl, vals = _decisive_survey(S, 128, tol)
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
# canonical kernel-model realization


def _model_plan(S, per_ring, tol):
    pts = []
    for r in (0.3, 0.6, 0.9):
        offset = np.random.default_rng(
            tol.seed * 131 + per_ring).random() * 2 * np.pi / per_ring
        ring = r * np.exp(1j * (offset + 2 * np.pi *
                                np.arange(per_ring) / per_ring))
        pts.append(ring)
    pts = np.concatenate(pts)
    if S.poles.size:
        dist = np.min(np.abs(pts[:, None] - S.poles[None, :]), axis=1)
        pts = pts[dist > max(10 * tol.rank_tol, 1e-4)]
    return pts


def _observable_dimension(system, tol):
    """Dimension of the observable space of the system, the rank of its
    observability map x -> (C A^k x)_k, read off the system's Schur form
    (colligation._schur_spans)."""
    return _schur_spans(system, (True,), tol)[0][0].shape[1]


# kind of adjoint_system(system) by the kind of system: the adjoint's
# system operator is the metric adjoint of the original's, so the two
# defects trade places
_ADJOINT_KIND = {SystemKind.ISOMETRIC: SystemKind.COISOMETRIC,
                 SystemKind.COISOMETRIC: SystemKind.ISOMETRIC}


def _model_rank_bound(S, kind, tol):
    """Upper bound on the rank of every kernel Gram of S, or None; kind is
    the backing's _backing_kind.  Raises PreconditionError when the left
    defect psi = I - SS^* is nonzero, since the kernel then has infinite
    rank.

    Let M be the space of the functions C(I - zA)^-1 x, of the dimension
    of the backing's observable space.  For a co-isometric or
    conservative backing I - S(z)S(w)^* = (1 - z conj(w)) C(I - zA)^-1 J
    (I - wA)^-* C^*, so every kernel section lies in M.  Any other
    backing is decided on defect's 128-point circle survey, with the
    metric_tol cut of DefectResult.psi_is_zero; a sample on a pole
    leaves the survey undecided (None).  The rational function F(z) =
    I - S(z)S(1/conj(z))^* equals psi on the circle.  The section at w
    is f(z) = (u - S(z)v)/(1 - z conj(w)) with v = S(w)^*u, and its
    numerator takes the value F(z0)u at z0 = 1/conj(w).
    - psi nonzero: f has a pole at z0 for all but finitely many w, so
      sections at distinct points are independent and the rank is
      infinite.  Refused at once.
    - psi zero: F vanishes identically, the numerator vanishes at z0,
      and its difference quotient gives f(z) = C(I - zA)^-1 (I - z0 A)^-1
      Bv / conj(w), which lies in M.  The bound holds for every negative
      index and needs no passivity; it is trusted only with no
      eigenvalue of A within metric_tol of the circle.
    """
    if kind in (SystemKind.COISOMETRIC, SystemKind.CONSERVATIVE):
        return _observable_dimension(S.backing, tol)
    left = _circle_survey(S, 128, tol)[2]
    if np.isnan(left).any():
        return None
    psi = float(np.max(left))
    if psi > tol.metric_tol:
        raise PreconditionError(
            f"left defect {psi:.3e} on the circle exceeds metric_tol: the "
            "kernel has infinite rank")
    if S.backing._spectrum.regions(tol.metric_tol)[0].any():
        return None
    return _observable_dimension(S.backing, tol)


def canonical_coisometric_realization(S, tol=DEFAULT_TOL):
    """Co-isometric observable realization on the kernel's section space.

    Kernel sections at a saturating sample plan span a finite model
    space; the main operator acts as the difference quotient
    (h(z) - h(0))/z, the input map sends u to (S(z) - S(0))u/z, the
    output map evaluates at zero.  The plan grows from 4 to 64 points
    per ring on three rings.  The section space is finite-dimensional
    only when the left defect I - SS^* vanishes on the circle: a
    function whose 128-point circle survey shows it nonzero is refused
    with PreconditionError before any plan is built.  When it vanishes,
    or the backing is co-isometric or conservative, the Gram rank is at
    most the dimension of the backing's observable space (see
    _model_rank_bound), and saturation is certified at the first plan
    whose rank equals it with at least twice as many Gram rows as the
    rank.  Otherwise (a survey sample on a pole, an eigenvalue of A
    within metric_tol of the circle) or while that has not happened (a
    non-minimal backing), saturation is declared when the Gram rank is
    unchanged across three successive sample doublings, and a function
    whose rank never settles is rejected as outside the finite-rank
    scope.
    """
    S = as_transfer(S)
    return _canonical_realization(S, _backing_kind(S, tol), tol)


def _canonical_realization(S, kind, tol):
    """canonical_coisometric_realization of the TransferFunction S whose
    backing's _backing_kind is kind, for callers that have already
    decided it."""
    p = S.output_dim
    m = S.input_dim
    plans = [4, 8, 16, 32, 64]
    bound = _model_rank_bound(S, kind, tol)
    ranks = []
    for per_ring in plans:
        pts, vals0 = _kernel_values(S, _model_plan(S, per_ring, tol), tol)
        gram = _gram_from_values(pts, vals0, tol)
        ranks.append(gram.rank)
        if gram.rank == bound and gram.matrix.shape[0] >= 2 * bound:
            break
        if len(ranks) >= 4 and len(set(ranks[-4:])) == 1:
            break
    else:
        raise PreconditionError(
            f"kernel rank did not saturate; observed growth {ranks}")
    G = gram.matrix
    w, V = np.linalg.eigh(G)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    kept = np.flatnonzero(np.abs(w) > tol.rank_tol * scale)
    # positives first to match the canonical signature order
    kept = kept[np.argsort(-np.sign(w[kept]), kind="stable")]
    signs = np.sign(w[kept])
    coeff = V[:, kept] / np.sqrt(np.abs(w[kept]))[None, :]
    r = kept.size
    state = SignatureSpace(int(np.sum(signs > 0)), int(np.sum(signs < 0)))

    S0 = S.values([0.0], tol)[0]
    N = pts.size
    # values of the basis functions at the samples: (N*p) x r
    Val = G @ coeff
    # kernel sections evaluated at zero give the basis values at zero
    K0 = np.eye(p) - S0 @ vals0.conj().transpose(0, 2, 1)
    E0 = K0.transpose(1, 0, 2).reshape(p, N * p) @ coeff  # p x r

    wcol = np.repeat(pts, p).reshape(-1, 1)
    shifted = (Val - np.tile(E0, (N, 1))) / wcol
    A = (signs[:, None] * (coeff.conj().T @ shifted))
    # membership certificate: the shifted functions must stay in the model
    back = G @ coeff @ A
    resid = np.linalg.norm(back - shifted, 2) if shifted.size else 0.0
    certify("difference quotient model residual", resid,
            1e-7 * max(1.0, np.linalg.norm(shifted, 2) if shifted.size else 1.0))

    invec = ((vals0 - S0) / pts[:, None, None]).reshape(N * p, m)
    B = signs[:, None] * (coeff.conj().T @ invec)
    backB = G @ coeff @ B
    residB = np.linalg.norm(backB - invec, 2) if invec.size else 0.0
    certify("shifted input section model residual", residB,
            1e-7 * max(1.0, np.linalg.norm(invec, 2) if invec.size else 1.0))

    model = Colligation(state, m, p, A, B, E0, S0)

    cls = classify(model, tol)
    if cls.kind not in (SystemKind.COISOMETRIC, SystemKind.CONSERVATIVE):
        raise InternalConsistencyError(
            f"canonical model failed the co-isometry certificate ({cls.kind})")
    if not cls.observable:
        raise InternalConsistencyError("canonical model is not observable")
    held = disc_points(8, seed=tol.seed * 499 + 11, radius=0.8,
                       exclude=S.poles, min_dist=1e-4)
    ref = S.values(held, tol)
    got = TransferFunction(model).values(held, tol)
    certify("canonical model transfer mismatch",
            _relative_mismatch(got, ref), 1e-7)
    # reproducing identity on a held-out section
    if r:
        wref, zref = held[0], held[1]
        Sw = ref[0].conj().T
        Kw = ((np.eye(p) - vals0 @ Sw)
              / (1.0 - pts * np.conj(wref))[:, None, None]).reshape(N * p, p)
        coords = signs[:, None] * (coeff.conj().T @ Kw)  # r x p
        lhs = E0 @ np.linalg.solve(
            np.eye(r) - zref * A, coords)
        rhs = (np.eye(p) - ref[1] @ Sw) / (1.0 - zref * np.conj(wref))
        certify("reproducing identity residual", np.linalg.norm(lhs - rhs, 2),
                1e-6 * max(1.0, np.linalg.norm(rhs, 2)))
    return model


# ---------------------------------------------------------------------------
# kernel decomposition for products


@dataclass
class KernelDecompositionReport:
    """Verdict on the kernel split of a product of Schur functions.

    holds means the sampled section space of the product splits as the
    second factor's space plus its isometric multiple of the first's;
    the state-space observability obstruction on canonical models must
    agree, and a disagreement raises instead of reporting.
    """

    holds: bool
    rank_first: int
    rank_second: int
    rank_product: int
    rank_additive: bool
    isometry_residual: float
    isometric: bool
    obstruction_dimension: int
    variant: str
    note: str = RATIONAL_NOTE


def _schur_precondition(S, name, tol):
    if S.disc_pole_count != 0:
        raise PreconditionError(
            f"{name} must be Schur class; backing has poles in the disc")
    if np.nanmax(_decisive_survey(S, 32, tol)[0], initial=0.0) > 1.0 + 1e-6:
        raise PreconditionError(
            f"{name} must be Schur class; boundary values exceed one")


def _pinv_hermitian(G, rank_tol):
    w, V = np.linalg.eigh(G)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    kept = np.abs(w) > rank_tol * scale
    inv = np.zeros_like(w)
    inv[kept] = 1.0 / w[kept]
    return (V * inv[None, :]) @ V.conj().T


def check_kernel_decomposition(S1, S2, tol=DEFAULT_TOL, variant="observable"):
    """Decide the kernel split behind product observability.

    For the controllable variant the same test runs on the reflected
    functions in swapped order, mirroring the duality between
    controllability of a product and observability of the adjoint
    product.
    """
    if variant not in ("observable", "controllable"):
        raise InputError("variant must be 'observable' or 'controllable'")
    S1 = as_transfer(S1)
    S2 = as_transfer(S2)
    if variant == "controllable":
        rep = check_kernel_decomposition(sharp(S2), sharp(S1), tol,
                                         "observable")
        return replace(rep, variant="controllable")
    if S2.input_dim != S1.output_dim:
        raise DimensionMismatchError(
            "second factor must accept the first factor's values")
    _schur_precondition(S1, "first factor", tol)
    _schur_precondition(S2, "second factor", tol)
    S12 = TransferFunction(cascade(S1.backing, S2.backing))

    pts = disc_points(24, seed=tol.seed * 271 + 3, radius=0.9)
    g1 = kernel_gram(S1, pts, tol)
    pts, v2 = _kernel_values(S2, pts, tol)
    g2 = _gram_from_values(pts, v2, tol)
    g12 = kernel_gram(S12, pts, tol)
    r1, r2, r12 = g1.rank, g2.rank, g12.rank
    rank_additive = r12 == r1 + r2

    # images of the first factor's sections under multiplication by the
    # second factor, written in the product space's sampled coordinates
    p1 = S1.output_dim
    p2 = S2.output_dim
    N = pts.size
    images = (v2 @ g1.matrix.reshape(N, p1, N * p1)).reshape(
        N * p2, N * p1)
    Gpinv = _pinv_hermitian(g12.matrix, tol.rank_tol)
    membership = np.linalg.norm(
        g12.matrix @ (Gpinv @ images) - images, 2)
    gram_images = images.conj().T @ Gpinv @ images
    iso_resid = float(np.linalg.norm(gram_images - g1.matrix, 2)
                      / max(1.0, np.linalg.norm(g1.matrix, 2)))
    iso_resid = max(iso_resid,
                    float(membership / max(1.0, np.linalg.norm(images, 2))))
    isometric = iso_resid <= 1e-6
    holds = rank_additive and isometric

    m1 = canonical_coisometric_realization(S1, tol)
    m2 = canonical_coisometric_realization(S2, tol)
    rep = obstruction_observable(m1, m2, tol)
    clean = rep.dimension == 0
    if clean != holds:
        raise InternalConsistencyError(
            "kernel decomposition and state-space obstruction disagree "
            f"(kernel holds={holds}, obstruction dim={rep.dimension})")
    return KernelDecompositionReport(
        holds, r1, r2, r12, rank_additive, iso_resid, isometric,
        rep.dimension, "observable")
