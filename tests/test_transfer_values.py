"""Batched transfer evaluation against per-point reference loops.

The loops in this module are the reference: each evaluates one point at
a time with the SVD pole rule and a dense LU solve.  The batched
primitive, which back-substitutes on the system's Schur form, must
reproduce their pole masks bitwise and stay within what two
backward-stable evaluations may differ by of their values (README rule
5), and so must the kernel Gram and the boundary survey built on it, on
the test systems and on an adversarial set.
"""

import numpy as np
import pytest

from _builders import route_bound, spy_attr
from pontsys import indefinite, schur
from pontsys.colligation import (
    Colligation,
    _sample_points,
    _sampled_hidden,
    transfer_eval,
    transfer_values,
)
from pontsys.exceptions import PoleProximityError
from pontsys.indefinite import DEFAULT_TOL, SignatureSpace, Tolerances
from pontsys.sampling import (
    boundary_points,
    disc_points,
    random_conservative_colligation,
    random_passive_colligation,
)
from pontsys.schur import (
    TransferFunction,
    boundary_behavior,
    canonical_coisometric_realization,
    kernel_gram,
)

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
    """Reference evaluation at one point: SVD guard, then one dense LU
    solve for (I - zA)^-1 B."""
    n = system.state_dim
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
        boundary_points(16) * np.exp(2j * np.pi * np.random.default_rng(seed).random() / 16),
        poles,
        poles * (1.0 + 1e-7),
        poles + 1e-6 * np.exp(0.3j),
        *(poles * (1.0 + delta) for delta in np.logspace(-4, -14, 11)),
    ])


# the default rank_tol and one on each side of it
RANK_TOLS = (1e-6, 1e-10, 1e-14)


def _assert_close(system, points, got, want):
    """The same NaN rows, and every other value within route_bound."""
    bad = np.isnan(want).any(axis=(1, 2))
    assert np.array_equal(np.isnan(got).any(axis=(1, 2)), bad)
    gap = np.linalg.norm(got[~bad] - want[~bad], 2, axis=(1, 2))
    assert np.all(gap <= route_bound(system, np.asarray(points)[~bad]))


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
            _assert_close(system, pts, vals, ref)
        if system.state_dim:
            assert not ok.all()


def test_exactly_singular_member_takes_the_svd():
    # I - zA is exactly singular at z = 1/2 and z = 2: the sweep divides by
    # zero there, so the comparison bound is not finite and the SVD rule
    # decides those points
    system = Colligation(SignatureSpace(2, 0), 1, 1, np.diag([2.0, 0.5]),
                         [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    pts = np.array([0.1, 0.5, 0.3j, 2.0, -0.7, 0.5 + 1e-9])
    assert np.count_nonzero(1.0 - np.outer(pts, np.diag(system.A)) == 0) == 2
    for rank_tol in RANK_TOLS:
        tol = Tolerances(rank_tol=rank_tol)
        vals, ok = transfer_values(system, pts, tol)
        ref, ref_ok = _loop(system, pts, _one_point, tol)
        assert np.array_equal(ok, ref_ok)
        _assert_close(system, pts, vals, ref)
        assert not ok[1] and not ok[3] and ok[[0, 2, 4]].all()


def test_circle_far_from_every_pole_takes_no_svd(monkeypatch):
    system = SYSTEMS["passive-40-8-2"]
    poles = TransferFunction(system).poles
    assert np.min(np.abs(np.abs(poles) - 1.0)) > 1e-2
    calls = spy_attr(monkeypatch, np.linalg, "svd")
    _, ok = transfer_values(system, boundary_points(256))
    assert ok.all() and not calls


def _dense_spies(monkeypatch):
    """Spies on every dense factorization a resolvent route could take:
    np.linalg.solve, np.linalg.inv, np.linalg.svd and the LAPACK zgees of
    a Schur form."""
    return {name: spy_attr(monkeypatch, owner, name) for owner, name in (
        (np.linalg, "solve"), (np.linalg, "inv"), (np.linalg, "svd"),
        (indefinite, "zgees"))}


@pytest.mark.parametrize("name", ["conservative-12-3-2", "passive-40-8-1"])
def test_no_dense_solve_on_any_route(monkeypatch, name):
    # a disc batch, a passing 256-point circle survey, the sample points
    # and the sampled hidden spaces of both sides all back-substitute on
    # the one Schur form, taken once: no solve, no inv, no guard SVD and
    # no second Schur form
    system = SYSTEMS[name]
    fresh = Colligation(system.state, system.input_dim, system.output_dim,
                        system.A, system.B, system.C, system.D)
    spies = _dense_spies(monkeypatch)
    pts = disc_points(40, seed=5, radius=0.9, exclude=TransferFunction(fresh).poles,
                      min_dist=1e-2)
    assert len(spies["zgees"]) == 1
    assert transfer_values(fresh, pts)[1].all()
    sig = schur._fresh_survey(TransferFunction(fresh), 256, DEFAULT_TOL)[0]
    assert not np.isnan(sig).any()
    assert _sample_points(fresh, DEFAULT_TOL).size == fresh.state_dim
    for observe in (False, True):
        _sampled_hidden(fresh, observe, DEFAULT_TOL)
    assert len(spies["zgees"]) == 1
    assert not spies["solve"] and not spies["inv"]
    # the only SVDs are the null spaces of the two sample matrices
    assert [args[0].ndim for args in spies["svd"]] == [2, 2]
    # the canonical model's reproducing identity reads C (I - zA)^-1 off one
    # sweep on the model's Schur form, at the conservative system of the
    # same shape
    canonical_coisometric_realization(SYSTEMS[name.replace("passive", "conservative")])
    assert not spies["solve"] and not spies["inv"]


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


_U = np.finfo(float).eps / 2


def _boundary_loop(system, n, tol=DEFAULT_TOL):
    """The boundary survey one point at a time: the loop's LU values, the
    pole mask and the SVD norms of V, I - V^*V and I - VV^*."""
    vals, ok = _loop(system, boundary_points(n), tol=tol)
    norms = np.full((3, n), np.nan)
    for k in np.flatnonzero(ok):
        V = vals[k]
        norms[:, k] = [np.linalg.norm(X, 2) for X in (
            V, np.eye(system.input_dim) - V.conj().T @ V,
            np.eye(system.output_dim) - V @ V.conj().T)]
    return vals, ok, norms


def _flags(sig, dr, dl, tol):
    good = ~np.isnan(sig)
    return (bool(np.max(sig[good], initial=0.0) <= 1.0 + tol.metric_tol),
            bool(np.max(dr[good], initial=0.0) <= tol.metric_tol),
            bool(np.max(dl[good], initial=0.0) <= tol.metric_tol))


def _check_survey(system, samples, tol=DEFAULT_TOL):
    """A fresh circle survey against the LU loop: the same pole mask and
    verdict flags, every value within route_bound of the loop's, and every
    norm within what that gap allows.  Returns the pole mask."""
    sig, dr, dl, vals = schur._circle_survey(TransferFunction(system), samples, tol)
    ref, ok, norms = _boundary_loop(system, samples, tol)
    assert np.array_equal(~np.isnan(sig), ok)
    assert np.array_equal(np.isnan(vals).any(axis=(1, 2)), ~ok)
    assert _flags(sig, dr, dl, tol) == _flags(*norms, tol)
    gap = np.linalg.norm(vals[ok] - ref[ok], 2, axis=(1, 2))
    assert np.all(gap <= route_bound(system, boundary_points(samples))[ok])
    # Weyl: sigma_max moves by at most the gap, the defects by the gap
    # times |V| + |V'|; both also round at a few ulps of their scale
    top = norms[0, ok]
    ulps = 16 * _U * np.maximum(1.0, top * top)
    assert np.all(np.abs(sig[ok] - top) <= gap + ulps)
    for got, want in ((dr, norms[1]), (dl, norms[2])):
        assert np.all(np.abs(got[ok] - want[ok]) <= gap * (2 * top + gap) + ulps)
    if system.input_dim * system.output_dim > 1:
        # the stacked SVD's norm, bitwise with more than two channels on
        # each side, else the closed form of _survey_norms within a few ulps
        svd = np.linalg.norm(vals[ok], 2, axis=(1, 2))
        if min(system.input_dim, system.output_dim) > 2:
            assert np.array_equal(sig[ok], svd)
        else:
            assert np.all(np.abs(sig[ok] - svd) <= 16 * _U * np.maximum(1.0, svd))
    return ok


def _pole_at_one():
    # pole at z = 1, the first boundary sample
    return Colligation(SignatureSpace(1, 0), 1, 1, [[1.0]], [[1.0]], [[0.5]],
                       [[0.0]])


@pytest.mark.parametrize("name", sorted(SYSTEMS) + ["pole-at-one"])
def test_boundary_arrays_match_the_loop(name):
    system = _pole_at_one() if name == "pole-at-one" else SYSTEMS[name]
    _check_survey(system, DEFAULT_TOL.boundary_samples)
    rep = boundary_behavior(system)
    assert rep.skipped == int(np.sum(np.isnan(rep.sigma_max)))
    if name == "pole-at-one":
        assert rep.skipped == 1


# ---------------------------------------------------------------------------
# circle surveys on an adversarial set


def _moved(system, index, lam):
    """The system with diagonal entry index of its Schur form set to lam."""
    T = np.array(system._spectrum.T)
    Z = system._spectrum.Z
    T[index, index] = lam
    return Colligation(system.state, system.input_dim, system.output_dim,
                       Z @ T @ Z.conj().T, system.B, system.C, system.D)


def _guard_svd_points(monkeypatch, system, samples=256, tol=DEFAULT_TOL):
    """(points, mask): how many points of a fresh circle survey the pole
    guard left to the stacked SVD of I - zA, and the survey's pole mask.
    No dense solve may run."""
    spies = _dense_spies(monkeypatch)
    sig = schur._fresh_survey(TransferFunction(system), samples, tol)[0]
    n = system.state_dim
    assert not spies["solve"] and not spies["inv"]
    return (sum(len(args[0]) for args in spies["svd"]
                if args[0].ndim == 3 and args[0].shape[1:] == (n, n)),
            ~np.isnan(sig))


NEAR_CIRCLE = [1 - 1e-6, 1 - 1e-9, 1 + 1e-9, 1 + 1e-6, 0.99999, 1.00001,
               (1 - 1e-6) * np.exp(0.3j), (1 + 1e-9) * np.exp(0.3j),
               (1 - 1e-7) * np.exp(0.3j), (1 + 1e-4) * np.exp(0.3j),
               (1 - 1e-7) * boundary_points(256)[3]]


def _near_circle(kind, lam):
    return _moved(_family(kind, 12, 3, 2, seed=11), 2, lam)


@pytest.mark.parametrize("rank_tol", RANK_TOLS)
@pytest.mark.parametrize("kind", ["conservative", "passive"])
@pytest.mark.parametrize("lam", NEAR_CIRCLE, ids=lambda lam: f"{lam:.9f}")
def test_eigenvalue_near_the_circle(kind, lam, rank_tol):
    system = _near_circle(kind, lam)
    assert np.min(np.abs(np.linalg.eigvals(system.A) - lam)) < 1e-6
    _check_survey(system, 256, Tolerances(rank_tol=rank_tol))


def test_near_circle_set_meets_every_branch(monkeypatch):
    # the set means something only if some surveys pass on the comparison
    # bound alone and others reach the guard's stacked SVD, with some point
    # rejected there
    svd_points, rejected = [], 0
    for rank_tol in RANK_TOLS:
        tol = Tolerances(rank_tol=rank_tol)
        for kind in ("conservative", "passive"):
            for lam in NEAR_CIRCLE:
                count, ok = _guard_svd_points(monkeypatch, _near_circle(kind, lam), 256, tol)
                svd_points.append(count)
                rejected += int(np.sum(~ok))
    assert 0 in svd_points and max(svd_points) > 0
    assert rejected > 0


@pytest.mark.parametrize("kind", ["conservative", "passive"])
def test_only_open_points_take_the_svd(monkeypatch, kind):
    # at rank_tol 1e-6 an eigenvalue 1e-6 inside the circle puts a pole
    # 1e-6 from z = 1: the comparison bound leaves that one point open, and
    # the SVD rule rejects it; the other 255 pass on the bound alone
    tol = Tolerances(rank_tol=1e-6)
    system = _near_circle(kind, 1 - 1e-6)
    count, ok = _guard_svd_points(monkeypatch, system, 256, tol)
    assert count == 1 and np.flatnonzero(~ok).tolist() == [0]
    assert np.array_equal(_check_survey(system, 256, tol), ok)


@pytest.mark.parametrize("kind", ["conservative", "passive"])
def test_eigenvalue_at_a_root_of_unity_is_masked(kind):
    # 1/lambda is sample 251 of 256, up to the rounding of the Schur form
    system = _moved(_family(kind, 12, 3, 2, seed=11), 2,
                    boundary_points(256)[5])
    ok = _check_survey(system, 256)
    assert np.flatnonzero(~ok).tolist() == [251]
    S = TransferFunction(system)
    assert np.isnan(schur._circle_survey(S, 256, DEFAULT_TOL)[0][251])


def test_coupled_inside_and_outside_eigenvalues():
    # eigenvalues 1e-7 inside and outside the circle, coupled by 1: a
    # block-diagonalizing Sylvester solution would have norm 5e6
    lam = np.exp(0.3j)
    system = Colligation(SignatureSpace(2, 0), 1, 1,
                         [[(1 - 1e-7) * lam, 1.0], [0.0, (1 + 1e-7) * lam]],
                         [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    _check_survey(system, 256)


@pytest.mark.parametrize("signs", [(6, 0), (0, 6)], ids=["k=n", "k=0"])
def test_all_eigenvalues_on_one_side(signs):
    # a contraction on a Hilbert state has its eigenvalues inside the disc,
    # one on an anti-Hilbert state outside
    rng = np.random.default_rng(sum(signs) + signs[0])
    system = random_passive_colligation(rng, SignatureSpace(*signs), 2, 2,
                                        strict=0.2)
    moduli = np.abs(np.linalg.eigvals(system.A))
    assert np.all(moduli < 1.0) if signs[0] else np.all(moduli > 1.0)
    assert _check_survey(system, 256).all()


def _jordan(diagonal):
    """One input and output on a Jordan-type A: the diagonal given, ones
    on the superdiagonal, so A is as far from normal as its size allows."""
    n = len(diagonal)
    A = np.diag(np.asarray(diagonal, dtype=complex)) + np.diag(np.ones(n - 1), 1)
    return Colligation(SignatureSpace(n, 0), 1, 1, A, np.ones((n, 1)),
                       np.ones((1, n)), [[0.0]])


def _scaled(a=1.0, bc=1.0):
    system = SYSTEMS["passive-12-3-2"]
    return Colligation(system.state, 2, 2, a * system.A, bc * system.B,
                       bc * system.C, system.D)


ODD_SYSTEMS = {
    "nilpotent": lambda: _jordan([0.0] * 6),
    "jordan-inside": lambda: _jordan([0.9] * 6),
    "jordan-outside": lambda: _jordan([1.5] * 6),
    "jordan-both-sides": lambda: _jordan([0.9] * 3 + [1.2] * 3),
    "jordan-near-circle": lambda: _jordan([0.999] * 6),
    "tiny-A": lambda: _scaled(a=1e-150),
    "huge-A": lambda: _scaled(a=1e150),
    "tiny-B-and-C": lambda: _scaled(bc=1e-150),
}


@pytest.mark.parametrize("name", sorted(ODD_SYSTEMS))
def test_defective_and_scaled_systems(monkeypatch, name):
    # the comparison bound of a 6 x 6 Jordan block at 0.9 reaches about
    # 1e6 on the circle, still decisive at the default rank_tol, so that
    # survey takes no SVD; at 0.999 it leaves the points beside z = 1 open
    system = ODD_SYSTEMS[name]()
    _check_survey(system, 256)
    count, _ = _guard_svd_points(monkeypatch, system)
    assert (count > 0) == (name == "jordan-near-circle")


@pytest.mark.parametrize("samples", [1, 3, 100, 256, 512])
@pytest.mark.parametrize("name", ["conservative-12-3-2", "passive-40-8-1",
                                  "conservative-4-1-1"])
def test_sample_counts(name, samples):
    assert _check_survey(SYSTEMS[name], samples).all()


@pytest.mark.parametrize("name", ["passive-0-0-2", "passive-12-3-2to0",
                                  "conservative-4-1-0to2"])
def test_no_state_or_zero_width(name):
    assert _check_survey(SYSTEMS[name], 256).all()


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
