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

from .colligation import (
    Colligation,
    SystemKind,
    _operator_kind,
    system_kind,
    system_operator,
)
from .exceptions import InternalConsistencyError, PreconditionError, _certify_residual
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
    "julia_operator",
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


def _defect_factors(dom_s, primal, dual, tol):
    """Full-column-rank factors (defect, dual_defect) of the two metric
    defects, as metric_defects forms them; the primal factor carries the
    domain metric (see JuliaParts)."""
    return dom_s[:, None] * psd_factor(primal, tol), psd_factor(dual, tol)


def julia_operator(M, dom, cod, tol=DEFAULT_TOL):
    """Complete a metric contraction to a metric unitary by defect coordinates.

    Requires equal negative indices on both sides, and both metric defects
    positive semidefinite (automatic for a contraction between such
    spaces); an indefinite defect raises IndefiniteDefectError.  The
    completion is certified unitary before being returned.
    """
    dom_s = metric_signs(dom)
    if int(np.sum(dom_s < 0)) != int(np.sum(metric_signs(cod) < 0)):
        raise PreconditionError(
            "defect factorization needs equal negative indices on both sides")
    M = np.asarray(M, dtype=complex)
    factors = _defect_factors(dom_s, *metric_defects(M, dom, cod), tol)
    ju = _julia_completion(M, dom, cod, factors, tol)
    kind = metric_classify(ju.operator, ju.dom_signs, ju.cod_signs, tol)
    if kind != MetricClass.UNITARY:
        raise InternalConsistencyError("defect completion is not metric-unitary")
    return ju


def _julia_completion(M, dom, cod, factors, tol):
    """julia_operator before its metric-unitary certificate, from M's
    defect factors as _defect_factors returns them."""
    dom_s = metric_signs(dom)
    cod_s = metric_signs(cod)
    M = np.asarray(M, dtype=complex)
    D_primal, D_dual = factors
    E1 = dom_s[:, None] * D_primal
    E2 = D_dual
    r1, r2 = E1.shape[1], E2.shape[1]

    # corner solving E1 G = -M* J_cod E2; solvable since the defect ranges
    # intertwine, the residual certifies that.  E1 = V diag(sqrt(w)) with
    # orthonormal V (psd_factor), so its columns are orthogonal with squared
    # norms w and G = diag(1/w) E1^H rhs = diag(1/sqrt(w)) V^H rhs
    rhs = -(M.conj().T @ (cod_s[:, None] * E2))
    if r1 and r2:
        w = np.einsum("ij,ij->j", E1.conj(), E1).real
        G = (E1.conj().T @ rhs) / w[:, None]
        _certify_residual("defect range intertwining residual", E1 @ G - rhs,
                          1e3 * tol.rank_tol,
                          lambda: max(1.0, float(np.linalg.norm(M, 2)) ** 2))
    else:
        G = np.zeros((r1, r2), dtype=complex)

    U = np.block([[M, E2], [E1.conj().T, G]])
    new_dom = np.concatenate([dom_s, np.ones(r2)])
    new_cod = np.concatenate([cod_s, np.ones(r1)])
    return JuliaParts(U, new_dom, new_cod, M, D_primal, E2, -G.conj().T)


def julia_embedding(system, tol=DEFAULT_TOL):
    """Conservative system with the given passive one in its corner.

    The state space is unchanged.  The defect coordinates of the system
    operator are appended to the input and the output; the block of the
    new transfer function on the original channels equals the original
    transfer function everywhere.  Its system operator is the completed
    operator of julia_operator, bit for bit, so the conservativity check
    of the embedded system is the completion's one metric-unitary
    certificate.  The defects of the system operator that decide its kind
    are the ones the completion factors.
    """
    T, dom_s, cod_s = system_operator(system)
    kind, primal, dual = _operator_kind(T, dom_s, cod_s, tol)
    if kind == SystemKind.NONE:
        raise PreconditionError("defect embedding needs a passive system")
    ju = _julia_completion(T, dom_s, cod_s,
                           _defect_factors(dom_s, primal, dual, tol), tol)
    n = system.state_dim
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
    if system_kind(embedded, tol) != SystemKind.CONSERVATIVE:
        raise InternalConsistencyError("embedded system failed the conservativity check")
    return embedded
