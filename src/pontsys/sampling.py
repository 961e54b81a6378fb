"""Seeded sample plans and random ensembles of metric operators and systems.

Everything here is deterministic given a seed.  Sample plans serve the
kernel and boundary estimators; the ensembles generate metric unitaries,
metric contractions and passive systems for estimators and tests.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InputError
from .indefinite import DEFAULT_TOL, SignatureSpace, metric_signs

__all__ = [
    "boundary_points",
    "disc_grid",
    "disc_points",
    "random_unitary",
    "random_j_unitary",
    "random_j_contraction",
    "random_passive_colligation",
    "random_conservative_colligation",
]


def boundary_points(n, seed=None):
    """n points on the unit circle: roots of unity, optionally seed-rotated."""
    if n < 1:
        raise InputError("need at least one boundary point")
    offset = 0.0
    if seed is not None:
        offset = np.random.default_rng(seed).random() * 2 * np.pi / n
    angles = offset + 2 * np.pi * np.arange(n) / n
    return np.exp(1j * angles)


def disc_grid(per_ring, radii=(0.3, 0.6, 0.9), seed=0):
    """Radial grid in the open disc: rings of seed-rotated roots of unity."""
    rng = np.random.default_rng(seed)
    points = []
    for r in radii:
        offset = rng.random() * 2 * np.pi / per_ring
        angles = offset + 2 * np.pi * np.arange(per_ring) / per_ring
        points.append(r * np.exp(1j * angles))
    return np.concatenate(points)


def disc_points(n, seed=0, radius=0.95, exclude=(), min_dist=None):
    """n seeded points in the open disc, keeping clear of excluded points.

    Exclusion guards evaluations against poles; min_dist defaults to a
    conservative multiple of rank_tol per the evaluation contract.  Each
    candidate draws its radius and then its angle, in blocks from one
    stream; a radius is the Python float x ** 0.5, as numpy's array power
    rounds differently.  After 1000 max(n, 1) candidates it refuses.
    """
    if min_dist is None:
        min_dist = 10 * DEFAULT_TOL.rank_tol
    rng = np.random.default_rng(seed)
    exclude = np.asarray(list(exclude), dtype=complex)
    budget = 1000 * max(n, 1)
    out = []
    while len(out) < n:
        if budget == 0:
            raise InputError("could not place disc samples away from excluded points")
        k = min(n - len(out), budget)
        budget -= k
        u = rng.random(2 * k)
        z = (np.array([x ** 0.5 for x in u[0::2].tolist()]) * radius
             * np.exp(2j * np.pi * u[1::2]))
        if exclude.size:
            z = z[np.min(np.abs(exclude[None, :] - z[:, None]), axis=1) > min_dist]
        out.extend(z)
    return np.array(out)


def random_unitary(rng, n):
    """Haar-ish unitary from the QR factorization of a Gaussian matrix."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))[None, :].conj()


def random_j_unitary(rng, space, mixing=0.6):
    """Random metric unitary for a signature: block unitaries plus hyperbolic mixes.

    mixing bounds the hyperbolic angle, which keeps conditioning moderate.
    """
    signs = metric_signs(space)
    n = signs.size
    plus = np.flatnonzero(signs > 0)
    minus = np.flatnonzero(signs < 0)
    U = np.eye(n, dtype=complex)
    Ublock = np.eye(n, dtype=complex)
    if plus.size:
        Ublock[np.ix_(plus, plus)] = random_unitary(rng, plus.size)
    if minus.size:
        Ublock[np.ix_(minus, minus)] = random_unitary(rng, minus.size)
    U = Ublock @ U
    if plus.size and minus.size:
        for _ in range(2 * min(plus.size, minus.size)):
            i = int(rng.choice(plus))
            j = int(rng.choice(minus))
            t = mixing * rng.random()
            phase = np.exp(2j * np.pi * rng.random())
            G = np.eye(n, dtype=complex)
            G[i, i] = np.cosh(t)
            G[j, j] = np.cosh(t)
            G[i, j] = np.sinh(t) * phase
            G[j, i] = np.sinh(t) * np.conj(phase)
            U = G @ U
        if plus.size:
            Ublock2 = np.eye(n, dtype=complex)
            Ublock2[np.ix_(plus, plus)] = random_unitary(rng, plus.size)
            U = Ublock2 @ U
    return U


def _pattern_from_canonical(T, dom_signs, cod_signs):
    # rebuild a canonically ordered operator in the requested sign pattern
    perm_dom = np.argsort(-dom_signs, kind="stable")
    perm_cod = np.argsort(-cod_signs, kind="stable")
    out = np.zeros_like(T)
    out[np.ix_(perm_cod, perm_dom)] = T
    return out


def random_j_contraction(rng, dom, cod, strict=0.0):
    """Random metric contraction between spaces of equal negative index.

    Built as U2 @ diag(plus-contraction, minus-expansion) @ U1 with metric
    unitaries U1, U2.  strict > 0 bounds the defect away from zero.
    """
    dom_s = metric_signs(dom)
    cod_s = metric_signs(cod)
    kd = int(np.sum(dom_s < 0))
    kc = int(np.sum(cod_s < 0))
    if kd != kc:
        raise InputError("contraction ensembles need equal negative indices")
    p_dom = dom_s.size - kd
    p_cod = cod_s.size - kc
    C = rng.standard_normal((p_cod, p_dom)) + 1j * rng.standard_normal((p_cod, p_dom))
    if C.size:
        top = np.linalg.norm(C, 2)
        target = (1.0 - strict) * (0.3 + 0.7 * rng.random())
        C = C * (target / max(top, 1e-12))
    if kd:
        E = rng.standard_normal((kd, kd)) + 1j * rng.standard_normal((kd, kd))
        u, s, vh = np.linalg.svd(E)
        s = 1.0 + strict + 0.8 * rng.random(kd)
        E = u @ np.diag(s) @ vh
    else:
        E = np.zeros((0, 0), dtype=complex)
    core = np.zeros((cod_s.size, dom_s.size), dtype=complex)
    core[:p_cod, :p_dom] = C
    core[p_cod:, p_dom:] = E
    U1 = random_j_unitary(rng, SignatureSpace(p_dom, kd))
    U2 = random_j_unitary(rng, SignatureSpace(p_cod, kc))
    T = U2 @ core @ U1
    return _pattern_from_canonical(T, dom_s, cod_s)


def random_passive_colligation(rng, state, input_dim, output_dim, strict=0.0):
    """Random passive system: a metric contraction cut into colligation blocks."""
    from .colligation import Colligation

    dom = np.concatenate([state.signs, np.ones(input_dim)])
    cod = np.concatenate([state.signs, np.ones(output_dim)])
    T = random_j_contraction(rng, dom, cod, strict=strict)
    n = state.dim
    return Colligation(state, input_dim, output_dim,
                       T[:n, :n], T[:n, n:], T[n:, :n], T[n:, n:])


def random_conservative_colligation(rng, state, io_dim):
    """Random conservative system: a metric unitary cut into colligation blocks."""
    from .colligation import Colligation

    signs = np.concatenate([state.signs, np.ones(io_dim)])
    T = random_j_unitary(rng, signs)
    n = state.dim
    return Colligation(state, io_dim, io_dim,
                       T[:n, :n], T[:n, n:], T[n:, :n], T[n:, n:])
