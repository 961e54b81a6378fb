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
    classify,
    system_kind,
    system_operator,
)
from pontsys.exceptions import InternalConsistencyError
from pontsys.indefinite import (
    DEFAULT_TOL,
    SignatureSpace,
    column_space,
    is_psd,
    metric_classify,
    metric_defects,
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
