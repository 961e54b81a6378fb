"""Deterministic example systems shared across the test modules."""

import math
import sys
from dataclasses import replace

import numpy as np
import scipy.linalg

from pontsys.colligation import (
    _METRIC_TO_KIND,
    Colligation,
    SystemKind,
    _sampled_hidden,
    _schur_spans,
    classify,
    system_kind,
    system_operator,
)
from pontsys import colligation
from pontsys.exceptions import InternalConsistencyError
from pontsys.indefinite import (
    DEFAULT_TOL,
    SignatureSpace,
    column_space,
    is_psd,
    metric_classify,
    metric_defects,
    principal_angles,
)
from pontsys.products import cascade

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
    QA = column_space(A, tol)
    QB = column_space(B, tol)
    if QA.shape[1] != QB.shape[1]:
        return False
    if QA.shape[1] == 0:
        return True
    return float(np.max(scipy.linalg.subspace_angles(QA, QB))) <= angle_tol


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
    side, by indefinite.principal_angles: two column_space SVDs and scipy's
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
