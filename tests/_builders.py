"""Deterministic example systems shared across the test modules."""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from pontsys.colligation import (
    _METRIC_TO_KIND,
    Colligation,
    SystemKind,
    _sampled_hidden,
    _schur_spans,
    adjoint_system,
    classify,
    system_kind,
    system_operator,
)
from pontsys import colligation
from pontsys.exceptions import (
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    NonRegularSubspaceError,
    PreconditionError,
    _norm2,
)
from pontsys.indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    SignatureSpace,
    SubspaceKind,
    _rank_cut,
    column_space,
    is_psd,
    metric_classify,
    metric_defects,
    orthocomplement_basis,
    subspace_classify,
)
from pontsys.products import cascade, obstruction_observable
from pontsys.sampling import disc_points
from pontsys.schur import (
    RATIONAL_NOTE,
    TransferFunction,
    _gram_from_values,
    _kernel_values,
    as_transfer,
    canonical_coisometric_realization,
)

ROOT3 = math.sqrt(3.0)


def blaschke_system(alpha):
    """Conservative one-state realization of (z - alpha)/(1 - conj(alpha) z),
    up to the conventional sign: the transfer value at 0 is -alpha."""
    alpha = complex(alpha)
    r = math.sqrt(1.0 - abs(alpha) ** 2)
    return Colligation(SignatureSpace(1, 0), 1, 1,
                       [[np.conj(alpha)]], [[r]], [[r]], [[-alpha]])


def inverse_blaschke_system(alpha):
    """Conservative negative-state realization of the reciprocal function."""
    alpha = complex(alpha)
    r = math.sqrt(1.0 - abs(alpha) ** 2)
    return Colligation(SignatureSpace(0, 1), 1, 1,
                       [[1.0 / alpha]], [[-r / alpha]], [[r / alpha]],
                       [[-1.0 / alpha]])


def identity_feedthrough(dim):
    return Colligation(SignatureSpace(0, 0), dim, dim,
                       np.zeros((0, 0)), np.zeros((0, dim)),
                       np.zeros((dim, 0)), np.eye(dim))


def shift_system():
    """One-state realization of the function z itself."""
    return Colligation(SignatureSpace(1, 0), 1, 1,
                       [[0.0]], [[1.0]], [[1.0]], [[0.0]])


def shift_chain_system(k):
    """Minimal k-state shift realization of z^k: one Jordan chain of k links
    at exactly 0, driven at its first state and read at its last."""
    return Colligation(SignatureSpace(k, 0), 1, 1, np.diag(np.ones(k - 1), -1),
                       np.eye(k)[:, :1], np.eye(k)[-1:], [[0.0]])


def half_shift_system():
    """Strictly passive realization of z/2."""
    return Colligation(SignatureSpace(1, 0), 1, 1,
                       [[0.0]], [[1.0]], [[0.5]], [[0.0]])


def isometric_column_system():
    """Controllable isometric system with a one-dimensional negative state.

    The transfer function is the column [(1 - z/2)/(1 - 2z), sqrt(3)/2],
    which has unit norm on the circle and one negative square.
    """
    return Colligation(SignatureSpace(0, 1), 1, 2,
                       [[2.0]], [[ROOT3 / 2.0]],
                       [[ROOT3], [0.0]], [[1.0], [ROOT3 / 2.0]])


def row_schur_left_system(alpha_a=1.0 / 3.0, alpha_b=0.5):
    """Hilbert-state realization of the row (a(z) b(z), 1)/sqrt(2)
    with scalar Blaschke factors a and b at the two zero locations."""
    ab = cascade(blaschke_system(alpha_a), blaschke_system(alpha_b))
    return Colligation(
        SignatureSpace(2, 0), 2, 1,
        ab.A, np.hstack([ab.B, np.zeros((2, 1))]),
        ab.C / math.sqrt(2.0),
        np.array([[ab.D[0, 0] / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]]))


def counterexample_observable_system(alpha_a=1.0 / 3.0, alpha_b=0.5):
    """Coisometric observable realization of 2^(-1/2) (a, 1/b).

    Assembled as a cascade of the conservative realization of diag(1, 1/b)
    with a coisometric realization of the row (a, 1)/sqrt(2); the pair has
    no common zero, so the cascade stays observable.
    """
    ra = math.sqrt(1.0 - alpha_a ** 2)
    rb = math.sqrt(1.0 - alpha_b ** 2)
    inv_diag = Colligation(
        SignatureSpace(0, 1), 2, 2,
        [[1.0 / alpha_b]],
        [[0.0, -rb / alpha_b]],
        [[0.0], [rb / alpha_b]],
        [[1.0, 0.0], [0.0, -1.0 / alpha_b]])
    row = Colligation(
        SignatureSpace(1, 0), 2, 1,
        [[alpha_a]], [[ra, 0.0]],
        [[ra / math.sqrt(2.0)]],
        [[-alpha_a / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]])
    assert system_kind(row) == SystemKind.COISOMETRIC
    sys1 = cascade(inv_diag, row)
    cls = classify(sys1)
    assert cls.kind == SystemKind.COISOMETRIC and cls.observable
    return sys1


def shift_numerator_counterexample(alpha_b=0.5):
    """Coisometric observable realization of (z, 1/b)/sqrt(2).

    This is the worked counterexample with the inner factor taken to be
    the plain shift: a block-diagonal realization of diag(z, 1/b)
    composed with the constant co-isometric row (1, 1)/sqrt(2).
    """
    rb = math.sqrt(1.0 - alpha_b ** 2)
    diag_sys = Colligation(
        SignatureSpace.from_signs([1.0, -1.0]), 2, 2,
        np.diag([0.0, 1.0 / alpha_b]),
        np.diag([1.0, -rb / alpha_b]),
        np.diag([1.0, rb / alpha_b]),
        np.diag([0.0, -1.0 / alpha_b]))
    row = Colligation(
        SignatureSpace(0, 0), 2, 1,
        np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)),
        np.array([[1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]]))
    sys1 = cascade(diag_sys, row)
    cls = classify(sys1)
    assert cls.kind == SystemKind.COISOMETRIC and cls.observable
    return sys1


def corner_checked_kind(system, tol=DEFAULT_TOL):
    """Reference for system_kind: the metric kind of the system operator,
    refused unless both defects of each corner block A, [A; C] and [A, B]
    of a passive one are positive semidefinite within min(1/2, 10 psd_tol).
    """
    T, dom, cod = system_operator(system)
    kind = _METRIC_TO_KIND[metric_classify(T, dom, cod, tol)]
    if kind == SystemKind.NONE:
        return kind
    signs = system.state.signs
    loose = replace(tol, psd_tol=min(0.5, 10.0 * tol.psd_tol))
    corners = [
        (system.A, signs, signs),
        (np.vstack([system.A, system.C]), signs,
         np.concatenate([signs, np.ones(system.output_dim)])),
        (np.hstack([system.A, system.B]),
         np.concatenate([signs, np.ones(system.input_dim)]), signs),
    ]
    for M, d, c in corners:
        if not all(is_psd(P, loose) for P in metric_defects(M, d, c)):
            raise InternalConsistencyError(
                "passive system operator with a non-bicontractive corner block")
    return kind


def route_bound(system, points):
    """What two backward-stable evaluations of the transfer function may
    differ by at each point.  A backward error 4 n u max(1, |A|_F) in
    I - zA reaches the value |C| |B| |(I - zA)^-1|^2 times; the
    perturbation of A enters I - zA times z and the resolvent enters the
    value times z, so it carries |z| max(1, |z|), 1 on the circle, the
    identity's own rounding keeping the second factor at 1 or more inside
    the disc.  Forming D + z C X rounds besides, at (n + 2) u times the
    sizes |D| + |z| |C| |B| |(I - zA)^-1| of its terms, on each side."""
    n = system.state_dim
    z = np.asarray(points)
    if n == 0:
        return np.zeros(z.size)
    M = np.eye(n) - z[:, None, None] * system.A
    s = np.linalg.svd(M, compute_uv=False)[:, -1]
    u = np.finfo(float).eps / 2
    r = np.abs(z)
    cb = np.linalg.norm(system.B, 2) * np.linalg.norm(system.C, 2)
    with np.errstate(divide="ignore"):
        return (4 * n * u * max(1.0, np.linalg.norm(system.A)) * cb / s ** 2
                * r * np.maximum(1.0, r)
                + 2 * (n + 2) * u * (np.linalg.norm(system.D, 2) + r * cb / s))


def spy(monkeypatch, fn):
    """Record every call of fn, wherever a pontsys module binds it.

    Returns the list the spy appends each call's positional arguments to,
    as a tuple, before the call runs.
    """
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pontsys" or name.startswith("pontsys."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recording)
    return calls


def spy_attr(monkeypatch, owner, name):
    """Record every call of a library function, such as np.linalg.eigvalsh,
    looked up as an attribute of its module (owner.name) at call time.

    Returns the list the spy appends each call's positional arguments to.
    """
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def spy_callers(monkeypatch, owner, name):
    """spy_attr recording, for each call, the name of the function that
    made it, such as "_gram_eigenvalues" for the stacked eigen-solve of the
    spectral-norm primitive."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def spectral_norms(calls):
    """The np.linalg.norm calls recorded by spy_attr that took the 2-norm
    of a single matrix, one SVD each."""
    return [args for args in calls
            if len(args) > 1 and args[1] == 2 and np.ndim(args[0]) == 2]


def roots_of_unity_system(count=128):
    """Hilbert-state system with A = diag of the count-th roots of unity,
    B = 1/count and C = 1: a pole at every count-th root of unity."""
    roots = np.exp(2j * np.pi * np.arange(count) / count)
    return Colligation(SignatureSpace(count, 0), 1, 1, np.diag(roots),
                       np.full((count, 1), 1.0 / count), np.ones((1, count)),
                       np.zeros((1, 1)))


def same_span(A, B, tol=DEFAULT_TOL, angle_tol=1e-8):
    """Whether two matrices span the same column space within angle_tol."""
    QA, QB = column_space(A, tol), column_space(B, tol)
    return (QA.shape[1] == QB.shape[1]
            and float(np.max(principal_angles(QA, QB, tol), initial=0.0)) <= angle_tol)


def direct_sum(first, second):
    """Block-diagonal juxtaposition of two systems (inputs and outputs stacked)."""
    state = SignatureSpace.from_signs(
        np.concatenate([first.state.signs, second.state.signs]))
    return Colligation(state, first.input_dim + second.input_dim,
                       first.output_dim + second.output_dim,
                       scipy.linalg.block_diag(first.A, second.A),
                       scipy.linalg.block_diag(first.B, second.B),
                       scipy.linalg.block_diag(first.C, second.C),
                       scipy.linalg.block_diag(first.D, second.D))


def obstruction_angle_oracle(first, second, observe, tol=DEFAULT_TOL):
    """The largest principal angle between the two hidden spaces of an
    obstruction of cascade(first, second), both times J on the reachable
    side, by principal_angles: two column_space SVDs and scipy's
    subspace_angles."""
    cas = cascade(first, second)
    spaces = (_schur_spans(cas, (observe,), tol)[0][1],
              _sampled_hidden(cas, observe, tol))
    if not observe:
        spaces = [cas.state.signs[:, None] * v for v in spaces]
    return float(np.max(principal_angles(*spaces, tol), initial=0.0))


def scipy_trsolve(a, b, lower=False, trans=0, check_finite=False):
    """The oracle of exceptions._trsolve: scipy's triangular-solve wrapper
    with the same arguments, which _trsolve matches bitwise."""
    return scipy.linalg.solve_triangular(a, b, lower=lower, trans=trans,
                                         check_finite=check_finite)


def bitwise_equal(got, want):
    """Whether two arrays, or two nested tuples or lists of them, hold the
    same shapes, dtypes and bits."""
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(map(bitwise_equal, got, want))
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def two_pass_samples(systems, z, rank_tol, observe=False):
    """[S_1, S_2, ...]: the resolvent samples (I - z_k A)^(-1) B of each
    system, or with observe (I - conj(z_k) A^H)^(-1) C^H, at the points
    z: the oracle of the samples the library reads off one vectorized
    sweep of the drive.  Each system solves one triangular system per
    point with scipy's solve_triangular on its Schur form, the observe
    side on its flip (P T^H P, Z P), P the reversal, the Schur form of
    A^H, and decides the pole rule by the SVD of I - z_k A at every point.
    The samples at the points that all of them accept stand side by side
    as an n x (points m) matrix, each column divided by the norm of the
    first system's column, whose zero columns are dropped.  No
    colligation._sweep runs, so a spy on it sees the library's sweeps
    only."""
    sides = []
    for s in systems:
        T, Z, A, B, w = s._spectrum.T, s._spectrum.Z, s.A, s.B, z
        if observe:
            T, Z, A, B, w = T.conj().T[::-1, ::-1], Z[:, ::-1], A.conj().T, s.C.conj().T, z.conj()
        n = T.shape[0]
        sv = np.linalg.svd(np.eye(n) - w[:, None, None] * A, compute_uv=False)
        ok = sv[:, -1] > rank_tol * np.maximum(1.0, sv[:, 0])
        W = Z.conj().T @ B
        X = np.full((n, w.size, W.shape[1]), np.nan, dtype=complex)
        for k in np.flatnonzero(ok):
            X[:, k] = scipy.linalg.solve_triangular(np.eye(n) - w[k] * T, W)
        sides.append((Z, X, ok))
    accepted = np.logical_and.reduce([ok for _, _, ok in sides])
    k = int(np.count_nonzero(accepted))
    S = [Z @ X[:, accepted].reshape(X.shape[0], k * X.shape[2]) for Z, X, _ in sides]
    norms = np.linalg.norm(S[0], axis=0)
    return [Si[:, norms > 0] / norms[norms > 0] for Si in S]


def two_pass_similarity_samples(s1, s2, tol):
    """The samples [X1, X2] of unitary_similarity by two_pass_samples at
    the _sample_points of s1, the observe side on flipped forms."""
    z = colligation._sample_points(s1, tol)
    reach = two_pass_samples((s1, s2), z, tol.rank_tol)
    observe = two_pass_samples((s1, s2), z, tol.rank_tol, observe=True)
    return [np.hstack([r, s.state.signs[:, None] * o])
            for s, r, o in zip((s1, s2), reach, observe)]


# independent oracles that the tests compare the library's routes against


def markov(system, k):
    """Taylor coefficient of the transfer function: D at k=0, C A^(k-1) B after."""
    if k < 0:
        raise InputError("coefficient index must be nonnegative")
    if k == 0:
        return system.D.copy()
    return system.C @ np.linalg.matrix_power(system.A, k - 1) @ system.B


def disc_grid(per_ring, radii=(0.3, 0.6, 0.9), seed=0):
    """Radial grid in the open disc: rings of seed-rotated roots of unity."""
    rng = np.random.default_rng(seed)
    points = []
    for r in radii:
        offset = rng.random() * 2 * np.pi / per_ring
        angles = offset + 2 * np.pi * np.arange(per_ring) / per_ring
        points.append(r * np.exp(1j * angles))
    return np.concatenate(points)


def j_complement(space, tol=DEFAULT_TOL):
    """Metric-orthogonal complement of a regular subspace.

    The ambient space splits as a direct sum with the complement; the
    dimensions add up to the ambient dimension.
    """
    kind = subspace_classify(space, tol)
    if kind == SubspaceKind.DEGENERATE:
        raise NonRegularSubspaceError("complement of a degenerate subspace is not direct")
    basis = orthocomplement_basis(space, tol)
    return IndefiniteSubspace._orthonormal(space.ambient, basis)


def canonical_basis(space, tol=DEFAULT_TOL):
    """Metric-orthonormal basis of a regular subspace, positive columns first.

    Returns (W, signs) where W* J W = diag(signs) and signs is sorted with
    the +1 entries first.
    """
    V = space.basis
    if V.shape[1] == 0:
        return V.copy(), np.zeros(0)
    w, U = np.linalg.eigh(space.gram)
    if np.min(np.abs(w)) <= _rank_cut(np.abs(w), tol):
        raise NonRegularSubspaceError("subspace is not regular; no metric basis")
    order = np.argsort(-np.sign(w), kind="stable")
    w = w[order]
    U = U[:, order]
    W = V @ (U / np.sqrt(np.abs(w))[None, :])
    return W, np.sign(w)


def principal_angles(A, B, tol=DEFAULT_TOL):
    """Principal angles between the column spans of A and B (radians)."""
    QA = column_space(A, tol)
    QB = column_space(B, tol)
    if QA.shape[1] == 0 or QB.shape[1] == 0:
        return np.zeros(0)
    return scipy.linalg.subspace_angles(QA, QB)


def sharp(S):
    """The function z -> S(conj(z))^*, realized by the adjoint system.

    Applying it twice returns to the original function exactly.
    """
    return TransferFunction(adjoint_system(as_transfer(S).backing))


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


def _pinv_hermitian(G, tol):
    w, V = np.linalg.eigh(G)
    kept = np.abs(w) > _rank_cut(np.abs(w), tol)
    inv = np.zeros_like(w)
    inv[kept] = 1.0 / w[kept]
    return (V * inv[None, :]) @ V.conj().T


_KERNEL_PLAN_CAP = 384


def check_kernel_decomposition(S1, S2, tol=DEFAULT_TOL, variant="observable"):
    """Decide the kernel split behind product observability.

    Both factors must be Schur class: their canonical models have no
    negative state.  The kernel Grams of both factors and the product are
    sampled on a disc plan that doubles from 24 points, evaluating only
    the fresh ones (disc_points extends its own prefix), until their ranks
    are the models' state dimensions n1, n2 and n1 + n2 minus the
    dimension of the observability obstruction of their cascade; past
    _KERNEL_PLAN_CAP points PreconditionError is raised.  The obstruction
    must agree with the sampled split, or InternalConsistencyError is
    raised.  For the controllable variant the same test runs on the
    reflected functions in swapped order, mirroring the duality between
    controllability of a product and observability of the adjoint product.
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
    m1 = canonical_coisometric_realization(S1, tol)
    m2 = canonical_coisometric_realization(S2, tol)
    for name, model in (("first factor", m1), ("second factor", m2)):
        if model.state.neg:
            raise PreconditionError(
                f"{name} must be Schur class; its kernel has "
                f"{model.state.neg} negative squares")
    obstruction = obstruction_observable(m1, m2, tol).dimension
    want = (m1.state_dim, m2.state_dim,
            m1.state_dim + m2.state_dim - obstruction)
    S12 = TransferFunction(cascade(S1.backing, S2.backing))

    factors = (S1, S2, S12)
    pts = np.zeros(0, dtype=complex)
    vals = [np.zeros((0, S.output_dim, S.input_dim), dtype=complex)
            for S in factors]
    size = 24
    while True:
        fresh = disc_points(size, seed=tol.seed * 271 + 3, radius=0.9)[pts.size:]
        for k, S in enumerate(factors):
            fresh, v = _kernel_values(S, fresh, tol)
            vals[k] = np.concatenate([vals[k], v])
        pts = np.concatenate([pts, fresh])
        g1, g2, g12 = (_gram_from_values(pts, v, tol) for v in vals)
        ranks = (g1.rank, g2.rank, g12.rank)
        if ranks == want:
            break
        if size >= _KERNEL_PLAN_CAP:
            raise PreconditionError(
                f"kernel Gram ranks {ranks} at {size} disc points do not meet "
                f"the state-space ranks {want}")
        size *= 2
    r1, r2, r12 = ranks
    rank_additive = r12 == r1 + r2

    # images of the first factor's sections under multiplication by the
    # second factor, written in the product space's sampled coordinates
    p1 = S1.output_dim
    p2 = S2.output_dim
    N = pts.size
    images = (vals[1] @ g1.matrix.reshape(N, p1, N * p1)).reshape(
        N * p2, N * p1)
    Gpinv = _pinv_hermitian(g12.matrix, tol)
    membership = _norm2(g12.matrix @ (Gpinv @ images) - images)
    gram_images = images.conj().T @ Gpinv @ images
    iso_resid = max(_norm2(gram_images - g1.matrix) / max(1.0, _norm2(g1.matrix)),
                    membership / max(1.0, _norm2(images)))
    isometric = iso_resid <= 1e-6
    holds = rank_additive and isometric

    clean = obstruction == 0
    if clean != holds:
        raise InternalConsistencyError(
            "kernel decomposition and state-space obstruction disagree "
            f"(kernel holds={holds}, obstruction dim={obstruction})")
    return KernelDecompositionReport(
        holds, r1, r2, r12, rank_additive, iso_resid, isometric,
        obstruction, "observable")
