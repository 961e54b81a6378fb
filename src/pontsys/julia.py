"""Metric-unitary completion of a contraction by defect coordinates.

A contraction between signature spaces with equal negative indices has
positive semidefinite defects on both sides.  Adjoining the two defect
spaces as extra Hilbert coordinates completes the operator to a metric
unitary; applied to a system operator, with the state coordinates kept
in place, this embeds any passive system into a conservative one with
the original transfer function in the corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import orthogonal_procrustes

from .colligation import Colligation, SystemKind, classify, system_operator
from .exceptions import InternalConsistencyError, PreconditionError, certify
from .indefinite import (
    DEFAULT_TOL,
    MetricClass,
    metric_classify,
    metric_defects,
    metric_signs,
    psd_factor,
)

__all__ = [
    "JuliaParts",
    "defect_operators",
    "julia_operator",
    "julia_equivalent",
    "julia_embedding",
]


@dataclass(frozen=True)
class JuliaParts:
    """Completion of a contraction to a metric unitary, with its pieces.

    ``block`` is the original operator.  ``defect`` and ``dual_defect``
    map plain Hilbert channels into the domain and codomain and factor
    the two defects:

        defect @ adjoint(defect)           = I - adjoint(block) @ block
        dual_defect @ adjoint(dual_defect) = I - block @ adjoint(block)

    where adjoints are taken between the stated metrics.  ``link``
    couples the two channels; the completed operator is

        [[block, dual_defect], [adjoint(defect), -link^H]]

    and is metric-unitary from dom_signs to cod_signs.  Both factors
    have full column rank, so the adjoined channels are as narrow as
    the defects allow.
    """

    operator: np.ndarray
    dom_signs: np.ndarray
    cod_signs: np.ndarray
    block: np.ndarray
    defect: np.ndarray
    dual_defect: np.ndarray
    link: np.ndarray

    @property
    def defect_rank(self):
        return self.defect.shape[1]

    @property
    def dual_defect_rank(self):
        return self.dual_defect.shape[1]


def defect_operators(M, dom, cod, tol=DEFAULT_TOL):
    """Full-column-rank factors of both metric defects of a contraction.

    Returns (defect, dual_defect) mapping Hilbert channels into the domain
    and the codomain.  The primal factor carries the domain metric so that

        defect @ adjoint(defect) = I - adjoint(M) @ M

    holds exactly, and likewise on the dual side.  Requires equal negative
    indices; an indefinite defect (the operator is not a contraction for
    this index pairing) raises IndefiniteDefectError.
    """
    dom_s = metric_signs(dom)
    cod_s = metric_signs(cod)
    if int(np.sum(dom_s < 0)) != int(np.sum(cod_s < 0)):
        raise PreconditionError(
            "defect factorization needs equal negative indices on both sides")
    primal, dual = metric_defects(M, dom, cod)
    E1 = psd_factor(primal, tol)
    E2 = psd_factor(dual, tol)
    return dom_s[:, None] * E1, E2


def julia_operator(M, dom, cod, tol=DEFAULT_TOL):
    """Complete a metric contraction to a metric unitary by defect coordinates.

    Requires both metric defects positive semidefinite (automatic for a
    contraction between spaces of equal negative index).  The completion is
    certified unitary before being returned.
    """
    dom_s = metric_signs(dom)
    cod_s = metric_signs(cod)
    M = np.asarray(M, dtype=complex)
    D_primal, D_dual = defect_operators(M, dom, cod, tol)
    E1 = dom_s[:, None] * D_primal
    E2 = D_dual
    r1, r2 = E1.shape[1], E2.shape[1]

    # corner solving E1 G = -M* J_cod E2; solvable since the defect ranges
    # intertwine, the residual certifies that
    rhs = -(M.conj().T @ (cod_s[:, None] * E2))
    if r1 and r2:
        G = np.linalg.lstsq(E1, rhs, rcond=None)[0]
        resid = np.linalg.norm(E1 @ G - rhs, 2)
        scale = max(1.0, float(np.linalg.norm(M, 2)) ** 2)
        certify("defect range intertwining residual", resid,
                1e3 * tol.rank_tol * scale)
    else:
        G = np.zeros((r1, r2), dtype=complex)

    U = np.block([[M, E2], [E1.conj().T, G]])
    new_dom = np.concatenate([dom_s, np.ones(r2)])
    new_cod = np.concatenate([cod_s, np.ones(r1)])
    if metric_classify(U, new_dom, new_cod, tol) != MetricClass.UNITARY:
        raise InternalConsistencyError("defect completion is not metric-unitary")
    return JuliaParts(U, new_dom, new_cod, M, D_primal, E2, -G.conj().T)


def julia_equivalent(first, second, tol=DEFAULT_TOL):
    """Whether two completions differ only by rotating the defect channels.

    The completion of a fixed block is unique up to unitary changes of
    basis of the two adjoined Hilbert channels.  This aligns the defect
    factors by orthogonal Procrustes fits and checks that the rotated
    operator of ``first`` reproduces ``second``.
    """
    if first.block.shape != second.block.shape:
        return False
    if first.defect_rank != second.defect_rank:
        return False
    if first.dual_defect_rank != second.dual_defect_rank:
        return False
    scale = max(1.0, float(np.linalg.norm(first.operator, 2)))
    thresh = 100.0 * tol.metric_tol * scale
    if np.linalg.norm(first.block - second.block, 2) > thresh:
        return False
    r1, r2 = first.defect_rank, first.dual_defect_rank
    # second.dual_defect ~ first.dual_defect @ W2 and
    # second.defect ~ first.defect @ W1^H rotate the adjoined channels
    W2 = (orthogonal_procrustes(first.dual_defect, second.dual_defect)[0]
          if r2 else np.zeros((0, 0)))
    W1 = (orthogonal_procrustes(first.defect, second.defect)[0].conj().T
          if r1 else np.zeros((0, 0)))
    p = first.block.shape[0]
    m = first.block.shape[1]
    left = np.block([
        [np.eye(p), np.zeros((p, r1))],
        [np.zeros((r1, p)), W1]])
    right = np.block([
        [np.eye(m), np.zeros((m, r2))],
        [np.zeros((r2, m)), W2]])
    rotated = left @ first.operator @ right
    return bool(np.linalg.norm(rotated - second.operator, 2) <= thresh)


def julia_embedding(system, tol=DEFAULT_TOL):
    """Conservative system with the given passive one in its corner.

    The state space is unchanged.  The defect coordinates of the system
    operator are appended to the input and the output; the block of the
    new transfer function on the original channels equals the original
    transfer function everywhere.
    """
    cls = classify(system, tol, with_krylov=False)
    if not cls.is_passive:
        raise PreconditionError("defect embedding needs a passive system")
    T, dom, cod = system_operator(system)
    ju = julia_operator(T, dom, cod, tol)
    n = system.state_dim
    dom_s = metric_signs(dom)
    E1h = (dom_s[:, None] * ju.defect).conj().T
    E2 = ju.dual_defect
    B_extra = E2[:n, :]
    C_extra = E1h[:, :n]
    D_new = np.block([
        [system.D, E2[n:, :]],
        [E1h[:, n:], -ju.link.conj().T]])
    embedded = Colligation(
        system.state,
        system.input_dim + ju.dual_defect_rank,
        system.output_dim + ju.defect_rank,
        system.A,
        np.hstack([system.B, B_extra]),
        np.vstack([system.C, C_extra]),
        D_new,
    )
    if classify(embedded, tol, with_krylov=False).kind != SystemKind.CONSERVATIVE:
        raise InternalConsistencyError("embedded system failed the conservativity check")
    return embedded
