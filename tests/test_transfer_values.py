"""Batched transfer evaluation against per-point reference loops.

The loops in this module are the reference: each evaluates one point at
a time with the pole guard and solve of the one-point evaluator.  The
batched primitive, and the boundary survey and kernel Gram built on it,
must reproduce them.
"""

import numpy as np
import pytest

from _builders import spy_attr
from pontsys.colligation import Colligation, transfer_eval, transfer_values
from pontsys.exceptions import PoleProximityError
from pontsys.indefinite import DEFAULT_TOL, SignatureSpace, Tolerances
from pontsys.sampling import (
    boundary_points,
    disc_points,
    random_conservative_colligation,
    random_passive_colligation,
)
from pontsys.schur import TransferFunction, boundary_behavior, kernel_gram

SHAPES = [(0, 0), (4, 1), (12, 3), (40, 8)]


def _family(kind, n, kappa, io, seed):
    rng = np.random.default_rng([seed, n, kappa, io])
    state = SignatureSpace(n - kappa, kappa)
    if kind == "conservative":
        return random_conservative_colligation(rng, state, io)
    return random_passive_colligation(rng, state, io, io, strict=0.2)


def _narrowed(system, inputs, outputs):
    """The same state part with only the leading inputs and outputs kept."""
    return Colligation(system.state, inputs, outputs, system.A,
                       system.B[:, :inputs], system.C[:outputs],
                       system.D[:outputs, :inputs])


def _systems():
    for kind in ("conservative", "passive"):
        for n, kappa in SHAPES:
            for io in (1, 2):
                system = _family(kind, n, kappa, io, seed=11)
                yield f"{kind}-{n}-{kappa}-{io}", system
                if io == 2:
                    yield f"{kind}-{n}-{kappa}-2to0", _narrowed(system, 2, 0)
                    yield f"{kind}-{n}-{kappa}-0to2", _narrowed(system, 0, 2)


SYSTEMS = dict(_systems())


def _one_point(system, z, tol=DEFAULT_TOL):
    """Reference evaluation at one point: SVD guard, then one solve."""
    n = system.A.shape[0]
    if n == 0:
        return system.D.copy()
    M = np.eye(n) - z * system.A
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= tol.rank_tol * max(1.0, s[0]):
        raise PoleProximityError(z)
    return system.D + z * (system.C @ np.linalg.solve(M, system.B))


def _loop(system, points, evaluate=_one_point, tol=DEFAULT_TOL):
    vals = np.full((len(points), system.output_dim, system.input_dim), np.nan,
                   dtype=complex)
    ok = np.zeros(len(points), dtype=bool)
    for k, z in enumerate(points):
        try:
            vals[k] = evaluate(system, complex(z), tol)
            ok[k] = True
        except PoleProximityError:
            pass
    return vals, ok


def _points(system, seed):
    """Disc and circle samples plus points at and just off every pole, at
    relative distances that straddle the rejection threshold of every
    rank_tol tested."""
    poles = TransferFunction(system).poles
    poles = poles[np.abs(poles) < 3.0]
    return np.concatenate([
        disc_points(24, seed=seed, radius=0.95),
        boundary_points(16, seed=seed),
        poles,
        poles * (1.0 + 1e-7),
        poles + 1e-6 * np.exp(0.3j),
        *(poles * (1.0 + delta) for delta in np.logspace(-4, -14, 11)),
    ])


# the default rank_tol and one on each side of it
RANK_TOLS = (1e-6, 1e-10, 1e-14)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_values_and_mask_match_the_loop(name):
    system = SYSTEMS[name]
    pts = _points(system, seed=len(name))
    for rank_tol in RANK_TOLS:
        tol = Tolerances(rank_tol=rank_tol)
        vals, ok = transfer_values(system, pts, tol)
        assert vals.shape == (pts.size, system.output_dim, system.input_dim)
        # transfer_eval is transfer_values on one point; checking it at the
        # default rank_tol alone keeps its per-point pole search affordable
        evaluators = ((_one_point, transfer_eval) if tol == DEFAULT_TOL
                      else (_one_point,))
        for evaluate in evaluators:
            ref, ref_ok = _loop(system, pts, evaluate, tol)
            assert np.array_equal(ok, ref_ok)
            assert np.array_equal(vals, ref, equal_nan=True)
        if system.state_dim:
            assert not ok.all()


def test_exactly_singular_member_takes_the_svd():
    # I - zA is exactly singular at z = 1/2 and z = 2, so the stacked inv
    # raises and the whole stack is decided by the SVD rule
    system = Colligation(SignatureSpace(2, 0), 1, 1, np.diag([2.0, 0.5]),
                         [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    pts = np.array([0.1, 0.5, 0.3j, 2.0, -0.7, 0.5 + 1e-9])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.eye(2) - pts[:, None, None] * system.A)
    for rank_tol in RANK_TOLS:
        tol = Tolerances(rank_tol=rank_tol)
        vals, ok = transfer_values(system, pts, tol)
        ref, ref_ok = _loop(system, pts, _one_point, tol)
        assert np.array_equal(ok, ref_ok)
        assert np.array_equal(vals, ref, equal_nan=True)
        assert not ok[1] and not ok[3] and ok[[0, 2, 4]].all()


def test_circle_far_from_every_pole_takes_no_svd(monkeypatch):
    system = SYSTEMS["passive-40-8-2"]
    poles = TransferFunction(system).poles
    assert np.min(np.abs(np.abs(poles) - 1.0)) > 1e-2
    calls = spy_attr(monkeypatch, np.linalg, "svd")
    _, ok = transfer_values(system, boundary_points(256))
    assert ok.all() and not calls


def test_some_points_sit_within_the_pole_margin():
    # the parametrized comparison only means something if it met rejected
    # points and accepted points closer to a pole than the kernel margin
    rejected = accepted_close = 0
    for system in SYSTEMS.values():
        if not system.state_dim:
            continue
        poles = TransferFunction(system).poles
        pts = _points(system, seed=1)
        _, ok = transfer_values(system, pts)
        close = np.min(np.abs(pts[:, None] - poles[None, :]), axis=1) <= 1e-6
        rejected += int(np.sum(~ok))
        accepted_close += int(np.sum(ok & close))
    assert rejected > 0 and accepted_close > 0


@pytest.mark.parametrize("name", ["conservative-12-3-2", "passive-40-8-1",
                                  "conservative-4-1-2to0"])
def test_raise_on_pole_reports_the_first_rejected_point(name):
    system = SYSTEMS[name]
    pts = _points(system, seed=3)
    _, ok = transfer_values(system, pts)
    first = int(np.argmin(ok))
    with pytest.raises(PoleProximityError) as exc:
        transfer_values(system, pts, raise_on_pole=True)
    assert exc.value.point == pts[first]
    with pytest.raises(PoleProximityError):
        transfer_eval(system, pts[first])
    poles = TransferFunction(system).poles
    assert exc.value.nearest_pole == poles[np.argmin(np.abs(poles - pts[first]))]


def test_stateless_and_empty_batches():
    system = SYSTEMS["passive-0-0-2"]
    vals, ok = transfer_values(system, [0.0, 0.5j, 2.0])
    assert ok.all() and np.array_equal(vals, np.stack([system.D] * 3))
    vals, ok = transfer_values(SYSTEMS["passive-4-1-2"], np.zeros(0))
    assert vals.shape == (0, 2, 2) and ok.shape == (0,)


def _boundary_loop(system, n):
    """The boundary survey one point at a time."""
    sig = np.full(n, np.nan)
    dr = np.full(n, np.nan)
    dl = np.full(n, np.nan)
    for k, theta in enumerate(2.0 * np.pi * np.arange(n) / n):
        try:
            val = transfer_eval(system, np.exp(1j * theta))
        except PoleProximityError:
            continue
        sig[k] = np.linalg.norm(val, 2)
        dr[k] = np.linalg.norm(np.eye(system.input_dim) - val.conj().T @ val, 2)
        dl[k] = np.linalg.norm(np.eye(system.output_dim) - val @ val.conj().T, 2)
    return sig, dr, dl


def _pole_at_one():
    # pole at z = 1, the first boundary sample
    return Colligation(SignatureSpace(1, 0), 1, 1, [[1.0]], [[1.0]], [[0.5]],
                       [[0.0]])


@pytest.mark.parametrize("name", sorted(SYSTEMS) + ["pole-at-one"])
def test_boundary_arrays_match_the_loop(name):
    system = _pole_at_one() if name == "pole-at-one" else SYSTEMS[name]
    rep = boundary_behavior(system)
    n = DEFAULT_TOL.boundary_samples
    sig, dr, dl = _boundary_loop(system, n)
    assert np.array_equal(rep.sigma_max, sig, equal_nan=True)
    assert np.array_equal(rep.defect_right, dr, equal_nan=True)
    assert np.array_equal(rep.defect_left, dl, equal_nan=True)
    assert rep.skipped == int(np.sum(np.isnan(sig)))
    if name == "pole-at-one":
        assert rep.skipped == 1


def _gram_loop(system, points):
    """Kernel Gram matrix built block by block, then symmetrized."""
    vals = [transfer_eval(system, w) for w in points]
    p = system.output_dim
    N = len(points)
    G = np.zeros((N * p, N * p), dtype=complex)
    for i in range(N):
        for j in range(N):
            G[i * p:(i + 1) * p, j * p:(j + 1) * p] = (
                np.eye(p) - vals[i] @ vals[j].conj().T) / (
                    1.0 - points[i] * np.conj(points[j]))
    return 0.5 * (G + G.conj().T)


def _inertia(G):
    if G.size == 0:
        return (0, 0, 0)
    w = np.linalg.eigvalsh(G)
    thr = DEFAULT_TOL.rank_tol * max(1.0, float(np.max(np.abs(w))))
    plus, minus = int(np.sum(w > thr)), int(np.sum(w < -thr))
    return (plus, G.shape[0] - plus - minus, minus)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_kernel_gram_matches_the_loop(name):
    system = SYSTEMS[name]
    pts = disc_points(32, seed=5, radius=0.93,
                      exclude=TransferFunction(system).poles, min_dist=1e-6)
    gram = kernel_gram(system, pts)
    ref = _gram_loop(system, pts)
    bound = 64 * np.finfo(float).eps * max(1.0, np.linalg.norm(ref, 2))
    assert np.linalg.norm(gram.matrix - ref, 2) <= bound
    assert gram.inertia == _inertia(ref)
