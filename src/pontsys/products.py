"""Cascades of systems and the structure theory built on them.

Cascade connection of two systems, the kernel obstructions to
observability and controllability of a cascade, invariant fundamental
decompositions of a passive state space, factorization of a system into
a stable part and an invertible part carrying the whole negative state
index, and stability classification of the two restricted flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._lapack import zpotrf
from .colligation import (
    Colligation,
    SystemKind,
    _sampled_hidden,
    _schur_spans,
    classify,
    krylov_report,
    system_kind,
)
from .exceptions import (
    AmbiguousSpectrumError,
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    NonRegularSubspaceError,
    PreconditionError,
    _certify_residual,
    _certify_scaled,
    _fro,
    _norm2,
    _residual_norm,
    _trsolve,
    certify,
)
from .indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    SignatureSpace,
    SubspaceKind,
    _UNIT_ROUNDOFF,
    _hermitian_verdict,
    _subspace_kind,
    subspace_classify,
)

__all__ = [
    "FundamentalSplit",
    "ObstructionReport",
    "StabilityClass",
    "SplitKind",
    "SystemFactorization",
    "cascade",
    "obstruction_observable",
    "obstruction_controllable",
    "invariant_fundamental_decompositions",
    "kl_factorize_system",
    "stability_classify",
]


def cascade(first, second):
    """Feed the output of the first system into the input of the second.

    The state is the direct sum of the two state spaces, first block on
    top; the transfer function of the result is the pointwise product
    theta_second(z) @ theta_first(z).  Passive, isometric, coisometric
    and conservative inputs give a product of the same class.  The blocks
    are written into fresh arrays, as system_operator writes its operator,
    and held read-only by Colligation._built, which refuses a product
    that overflowed as the public constructor does.
    """
    if first.output_dim != second.input_dim:
        raise DimensionMismatchError(
            f"output dimension {first.output_dim} does not feed input "
            f"dimension {second.input_dim}")
    state = SignatureSpace.from_signs(
        np.concatenate([first.state.signs, second.state.signs]))
    return Colligation._built(state, *_cascade_blocks(first, second))


def _cascade_blocks(first, second):
    """The blocks (A, B, C, D) of cascade(first, second), each a fresh
    contiguous complex array, for systems whose channels line up."""
    n1 = first.state_dim
    n = n1 + second.state_dim
    A = np.empty((n, n), dtype=complex)
    A[:n1, :n1] = first.A
    A[:n1, n1:] = 0.0
    A[n1:, :n1] = second.B @ first.C
    A[n1:, n1:] = second.A
    B = np.empty((n, first.input_dim), dtype=complex)
    B[:n1] = first.B
    B[n1:] = second.B @ first.D
    C = np.empty((second.output_dim, n), dtype=complex)
    C[:, :n1] = second.D @ first.C
    C[:, n1:] = second.C
    return A, B, C, second.D @ first.D


@dataclass(frozen=True)
class ObstructionReport:
    """Solutions of the coupled kernel equations of a cascade.

    Columns of basis are stacked pairs; the first ``split`` rows live in
    the state space of the first factor, the rest in the second.
    Dimension zero means the cascade has the corresponding property.
    agreement_residual is the largest principal angle between the two
    independent computations of the solution space.
    """

    basis: np.ndarray
    split: int
    agreement_residual: float

    @property
    def dimension(self):
        return self.basis.shape[1]


def _obstruction(first, second, observe, where, tol):
    """ObstructionReport of the cascade on one side: the hidden space that
    _schur_spans reads off its Schur form against the _sampled_hidden one,
    both times J on the reachable side.

    The primary basis holds Schur vectors, or J times them, and the
    secondary one right singular vectors of nullspace, so both are
    orthonormal to a few u; once their dimensions agree, the largest
    principal angle between them is arcsin |S - P G^-1 P^H S|_2 for
    primary P and secondary S, G = P^H P: one small solve, one product and
    one spectral norm.  The plain projector P P^H would read the few u by
    which G misses I as an angle, and on spaces closer than that it would
    read nothing else."""
    cas = cascade(first, second)
    spaces = _schur_spans(cas, (observe,), tol)[0][1], _sampled_hidden(cas, observe, tol)
    primary, secondary = spaces if observe else (cas.state.signs[:, None] * v for v in spaces)
    if primary.shape[1] != secondary.shape[1]:
        raise InternalConsistencyError(
            f"{where}: kernel dimensions disagree "
            f"({primary.shape[1]} vs {secondary.shape[1]})")
    # both bases have the same number of columns, so the sine of their
    # largest principal angle is the norm of the part of the secondary
    # basis outside the primary span
    Ph = primary.conj().T
    gap = _norm2(secondary - primary @ np.linalg.solve(Ph @ primary, Ph @ secondary))
    worst = float(np.arcsin(np.minimum(1.0, gap)))
    return ObstructionReport(primary, first.state_dim,
                             certify(f"{where}: solution space angle", worst, 1e-8))


def obstruction_observable(first, second, tol=DEFAULT_TOL):
    """Kernel of the observability map of the cascade, cross-checked.

    The Hautus test reads it off the cascade's Schur form; the resolvent
    samples (I - conj(z) A^H)^(-1) C^H next to its eigenvalues, which keep
    rounding along a hidden mode far below rank_tol (_sample_points), must
    leave the same space.
    """
    return _obstruction(first, second, True, "observability obstruction", tol)


def obstruction_controllable(first, second, tol=DEFAULT_TOL):
    """Metric-orthogonal annihilator of the reachable space of the cascade.

    J times the orthogonal complement of the reachable space, which the
    Hautus test reads off the cascade's Schur form; the resolvent samples
    (I - zA)^(-1) B next to its eigenvalues must leave the same space.
    """
    return _obstruction(first, second, False, "controllability obstruction", tol)


class SplitKind(str, Enum):
    """Which half of a fundamental split is invariant under the main operator."""

    PLUS_INVARIANT = "plus_invariant"
    MINUS_INVARIANT = "minus_invariant"


@dataclass(frozen=True)
class FundamentalSplit:
    """Fundamental decomposition with one half invariant under A.

    Xplus is a hilbert subspace, Xminus an antihilbert one, mutually
    metric-orthogonal with dimensions summing to the state dimension.
    ``which`` names the invariant half.  invariance_residual is the
    _residual_norm of the invariance residual at its bound 1e-9: an upper
    bound on its spectral norm, its Frobenius norm when that is within the
    bound and its spectral norm otherwise (README rule 4).
    """

    which: SplitKind
    Xplus: IndefiniteSubspace
    Xminus: IndefiniteSubspace
    invariance_residual: float


def invariant_fundamental_decompositions(system, tol=DEFAULT_TOL):
    """The two fundamental splits determined by the main operator.

    For a passive index-preserving system the spectrum of A outside the
    closed disc spans an antihilbert subspace of dimension kappa; its
    metric complement completes the minus-invariant split.  The rest of
    the spectrum spans the hilbert half of the other split, which is
    invariant under A as well; its metric complement is J times the
    outside-disc subspace of A^H.  Returns (plus-invariant split,
    minus-invariant split).
    """
    _splittable(system, tol)
    return _fundamental_splits(system, tol)


def _splittable(system, tol):
    """Classification of a passive index-preserving system; any other
    system is refused as the fundamental splits refuse it."""
    cls = classify(system, tol)
    if cls.kind == SystemKind.NONE:
        raise PreconditionError("fundamental splits need a passive system")
    if not cls.krylov.index_preserving:
        raise PreconditionError(
            "fundamental splits need an index-preserving system")
    return cls


def _positive_band(near, basis, state, tol):
    """Refuse the eigenvalues near the unit circle unless their spectral
    subspace (basis) is positive; then they belong with the inside ones."""
    if subspace_classify(IndefiniteSubspace._orthonormal(state, basis),
                         tol) != SubspaceKind.HILBERT:
        raise AmbiguousSpectrumError(
            f"eigenvalue {near[0]} lies within {tol.metric_tol:g} of the unit circle")


def _split_spectrum(system, tol):
    """The refusals of the fundamental splits that a passive index-preserving
    system can meet, decided on its Schur form before any half is formed.

    Near-circle eigenvalues are allowed only when their spectral
    subspaces, of A and of A^H, are both positive; the one of A^H is the
    Euclidean complement of the rest of the spectrum of A, so Schur
    reorderings happen only when such eigenvalues exist.  The outside-disc
    spectrum, the negative half of either split, must count kappa.
    Returns the mask of the eigenvalues outside the closed disc.
    """
    form = system._spectrum
    near, _, outside = form.regions(tol.metric_tol)
    if near.any():
        Z, k = form.reordered(near)
        _positive_band(form.eigenvalues[near], Z[:, :k], system.state, tol)
        Z, k = form.reordered(~near)
        _positive_band(form.eigenvalues[near], Z[:, k:], system.state, tol)
    count = int(np.count_nonzero(outside))
    if count != system.kappa:
        raise InternalConsistencyError(
            f"negative half has dimension {count}, expected {system.kappa}")
    return outside


def _fundamental_splits(system, tol):
    """invariant_fundamental_decompositions past its preconditions:
    _split_spectrum, then the minus-invariant and the plus-invariant
    split, each by _fundamental_split."""
    outside = _split_spectrum(system, tol)
    split_minus = _fundamental_split(system, outside, SplitKind.MINUS_INVARIANT, tol)[0]
    return (_fundamental_split(system, outside, SplitKind.PLUS_INVARIANT, tol)[0],
            split_minus)


def _fundamental_split(system, outside, which, tol):
    """One fundamental split past _split_spectrum, whose outside mask it
    takes, from one reordering A = Z T Z^H of the system's Schur form, and
    the data a factorization reads: (split, (T, Z, k, F_i, F_c)).

    The invariant half Z[:, :k] is the outside-disc spectral subspace, or
    the rest of the spectrum's; its metric complement is J Z[:, k:], with
    no SVD.  F_i and F_c, the Cholesky pairs of _half on the two halves,
    certify their signs.  A degenerate invariant half, whose complement
    is not direct, raises NonRegularSubspaceError before a half of the
    wrong sign raises InternalConsistencyError.  The invariance residual is
    Euclidean on the Schur vectors: a metric projection onto a half near
    neutrality would amplify roundoff.
    """
    state = system.state
    plus_invariant = which == SplitKind.PLUS_INVARIANT
    T, Z, k = system._spectrum.ordered(~outside if plus_invariant else outside)
    invariant = IndefiniteSubspace._orthonormal(state, Z[:, :k])
    complement = IndefiniteSubspace._orthonormal(state, state.signs[:, None] * Z[:, k:])
    invariant_kind, *F_i = _half(invariant, False, tol)
    if invariant_kind == SubspaceKind.DEGENERATE:
        raise NonRegularSubspaceError("complement of a degenerate subspace is not direct")
    complement_kind, *F_c = _half(complement, True, tol)
    halves = (invariant, invariant_kind), (complement, complement_kind)
    (plus, plus_kind), (minus, minus_kind) = halves if plus_invariant else halves[::-1]
    if system.kappa and minus_kind != SubspaceKind.ANTIHILBERT:
        raise InternalConsistencyError("negative half is not uniformly negative")
    if plus.dim and plus_kind != SubspaceKind.HILBERT:
        raise InternalConsistencyError("positive half is not positive")
    A, Q = system.A, invariant.basis
    resid = _certify_residual(
        "invariance residual", A @ Q - Q @ (Q.conj().T @ (A @ Q)),
        1e-9, lambda: max(1.0, _norm2(A)))
    return FundamentalSplit(which, plus, minus, resid), (T, Z, k, F_i, F_c)


def _half(space, upper, tol):
    """(kind, F, F^-1) of one half of a split, from the one Hermitian
    verdict of indefinite on the Gram G of its basis Q, README rules 1, 3:
    F F^H = s G with s the sign of G's diagonal, -1 on a negative half, so
    Q F^-H is metric orthonormal.  F is lower, or with upper the reversed
    upper factor.  A half whose factorization certifies its sign,
    lambda_min(s G) >= 7/4 c with c = psd_tol max(1, |G|_F), takes no
    eigen-solve; any other takes one, and a Gram whose diagonal has mixed
    signs, never that of a half of one sign, takes no factorization and
    gives F = F^-1 = None.  The zero half is hilbert.
    """
    if space.dim == 0:
        return SubspaceKind.HILBERT, space.basis[:0, :0], space.basis[:0, :0]
    inertia, F, Finv = _hermitian_verdict(space.gram, tol, "Gram matrix", None, upper=upper)
    return _subspace_kind(inertia), F, Finv


@dataclass(frozen=True)
class SystemFactorization:
    """Factor pair from splitting a system along a fundamental split.

    schur_factor has a Hilbert state space and a Schur-class transfer
    function; inverse_blaschke_factor is conservative and minimal with a
    purely negative state of dimension kappa, so its transfer function is
    the reciprocal of a finite Blaschke product.  In right mode the
    product theta_schur * theta_invb reproduces the input transfer
    function, in left mode theta_invb * theta_schur does.  state_map
    carries the cascade state basis, on which both factors' main operators
    are upper triangular.  The inverse factor's value at 0 is triangular
    with a positive diagonal, upper in right mode and lower in left mode,
    which fixes both transfer functions: they do not depend on the state
    basis of the input.  reconstruction_residual is the largest
    _residual_norm of the four cascade blocks at the bound 1e-8, an upper
    bound on their largest spectral norm that is that norm whenever a
    Frobenius norm misses the bound (README rule 4).  Unpacking yields
    (schur_factor, inverse_blaschke_factor).
    """

    schur_factor: Colligation
    inverse_blaschke_factor: Colligation
    mode: str
    state_map: np.ndarray
    reconstruction_residual: float

    def __iter__(self):
        return iter((self.schur_factor, self.inverse_blaschke_factor))


def _block_norm(system):
    return max(1.0, *(
        _norm2(M) for M in (system.A, system.B, system.C, system.D)))


def _schur_complement(A, B_n, X, B_p, C_n, D, lower):
    """The rows completing the negative block row R = [A, B_n] of a
    metric-unitary colligation in closed form, and the Schur complement
    they leave: (C_i, D_i, B_s, D_s).

    R diag(-I, I) R^H = -I, certified here, is A A^H = I + B_n B_n^H, so
    sigma_min(A) >= 1 and G = A^-1 B_n is one triangular solve on A
    (_trsolve, with no LAPACK call when kappa = 0 leaves A empty), upper
    triangular or, with lower, lower triangular.  The rows
    S = L^H [G^H, I], with the lower Cholesky factor
    L L^H = I + B_n^H B_n = (I - G^H G)^-1, are metric
    orthonormal and metric orthogonal to R; their feedthrough block L^H is
    upper triangular with a positive diagonal, which fixes them.  The rows
    below R, [X, B_p] and [C_n, D], times diag(-I, I) S^H give
    B_s = (B_p - X G) L and D_s = (D - C_n G) L.
    """
    k = A.shape[0]
    _certify_residual(
        f"negative block {'column' if lower else 'row'} metric-isometry residual",
        B_n @ B_n.conj().T - A @ A.conj().T + np.eye(k), 1e-8)
    G = _trsolve(A, B_n, lower=lower)
    L = zpotrf(np.eye(B_n.shape[1]) + B_n.conj().T @ B_n, lower=1, clean=1)[0]
    Lh = L.conj().T
    return Lh @ G.conj().T, Lh, (B_p - X @ G) @ L, (D - C_n @ G) @ L


def _factorize_simple(system, halves, mode, tol):
    """Schur and inverse Blaschke factors and the state map V, on the
    halves (T, Z, k, F_i, F_c) of the split _fundamental_split formed for
    the mode: plus-invariant in right mode, minus-invariant in left.

    V = [J Z_2 F_c^-H, Z_1 F_i^-H], Z_1 = Z[:, :k], Z_2 = Z[:, k:].  As
    A Z_1 = Z_1 T_11 and Z_2^H A = T_22 Z_2^H, V^-1 A V is lower block
    triangular with diagonal blocks F_c^-1 T_22 F_c and F_i^H T_11 F_i^-H,
    formed so, exactly upper triangular (README rule 4); the block X below
    is a product.  V^-1 = diag(pattern) V^H J has V^-1 V - I =
    diag(pattern) (V^H J V - diag(pattern)), the one Gram residual of V,
    certified here; the cascade's state pattern is the adapted one, so it
    also makes V metric orthonormal for _certify_factorization.  The
    inverse Blaschke factor's negative half is the complement in right
    mode, whose block row _schur_complement completes; in left mode it
    completes the conjugate transpose of the invariant half's block
    column, so the inverse factor's feedthrough is lower triangular.
    """
    T, Z, k, (Fi, Fi_inv), (Fc, Fc_inv) = halves
    n, kappa = system.state_dim, system.kappa
    J_X, j = system.state.signs, n - k
    V = np.empty_like(Z)
    V[:, :j] = (J_X[:, None] * Z[:, k:]) @ Fc_inv.conj().T
    V[:, j:] = Z[:, :k] @ Fi_inv.conj().T
    pattern = np.concatenate([np.ones(j), -np.ones(k)]) * (1.0 if mode == "left" else -1.0)
    _certify_residual("adapted basis inverse residual",
                      V.conj().T @ (J_X[:, None] * V) - np.diag(pattern), 1e-8)
    Vinv = pattern[:, None] * (V.conj().T * J_X[None, :])
    A_c = Fc_inv @ T[k:, k:] @ Fc
    A_i = Fi.conj().T @ T[:k, :k] @ Fi_inv.conj().T
    X = Vinv[j:] @ (system.A @ V[:, :j])
    B_ad, C_ad = Vinv @ system.B, system.C @ V
    if mode == "right":
        C_i, D_i, B_s, D_s = _schur_complement(
            A_c, B_ad[:j], X, B_ad[j:], C_ad[:, :j], system.D, False)
        invb = Colligation._built(SignatureSpace(0, kappa), A_c, B_ad[:j], C_i, D_i)
        schur = Colligation._built(SignatureSpace(k, 0), A_i, B_s, C_ad[:, j:], D_s)
    else:
        B_i, D_i, C_s, D_s = (M.conj().T for M in _schur_complement(
            A_i.conj().T, C_ad[:, j:].conj().T, X.conj().T, C_ad[:, :j].conj().T,
            B_ad[j:].conj().T, system.D.conj().T, True))
        invb = Colligation._built(SignatureSpace(0, kappa), A_i, B_i, C_ad[:, j:], D_i)
        schur = Colligation._built(SignatureSpace(j, 0), A_c, B_ad[:j], C_s, D_s)
    return schur, invb, V


def _antihilbert_conservative_minimal(system, tol):
    """Whether a system on a purely negative state, which system_kind
    certified conservative, is controllable and observable (README rule 6).

    With J = -I, conservativity gives |Cx|^2 = |Ax|^2 - 1 for unit x and
    |B^H y|^2 = |A^H y|^2 - 1 for unit y, so A is isometric on an invariant
    subspace that C annihilates, dually for A^H and B^H: the system is
    minimal exactly when no eigenvalue of A lies on the circle.  Within
    the conservative bound d = metric_tol max(1, |T|_F^2) of system_kind,
    T the system operator, and the Hautus cut c = rank_tol max(1, |A|_F,
    |B|_F, |C|_F), each eigenvalue of a hidden subspace has |lam|^2 - 1
    within d + c^2 of zero, so eigenvalues all beyond that margin prove
    minimality with no Krylov report; inside it krylov_report decides.
    The eigenvalues are read off the system's Schur form; the factor of
    _factorize_simple has an upper triangular main operator, its own Schur
    form, so they are its diagonal and no decomposition is taken.
    """
    norms = [_fro(M) for M in (system.A, system.B, system.C, system.D)]
    cut = tol.rank_tol * max(1.0, *norms[:3])
    margin = tol.metric_tol * max(1.0, sum(x * x for x in norms)) + cut * cut
    lam = system._spectrum.eigenvalues
    if float((np.abs(lam) ** 2).min(initial=np.inf)) - 1.0 > margin:
        return True
    rep = krylov_report(system, tol)
    return rep.controllable and rep.observable


def _certify_factorization(system, schur, invb, Z, mode, tol):
    """The certificates of a factorization from _factorize_simple, and its
    reconstruction residual: the cascade of the factors against the system
    through the state map Z, whose metric-orthonormality _factorize_simple
    certified, the inverse factor's signature (0, kappa), its
    conservativity by system_kind and its minimality by
    _antihilbert_conservative_minimal, and the Schur factor's positive
    state and kind.  The cascade's blocks come from _cascade_blocks, with
    no Colligation built.  The residual is the largest _residual_norm of
    the four blocks at the bound 1e-8; above that bound it is the largest
    spectral norm, as every block within it has a spectral norm below
    1e-8.  A failing residual within the
    rounding scale 4 n u |Z|_2^3 max(1, |A|_2, |B|_2, |C|_2, |D|_2) of a
    metric-orthonormal Z is refused as PreconditionError (README rule 4).
    """
    kappa = system.kappa
    A, B, C, D = _cascade_blocks(*((invb, schur) if mode == "right" else (schur, invb)))
    # np.max, unlike max, carries a NaN residual through to the certificate
    resid = float(np.max([_residual_norm(R, 1e-8) for R in (
        system.A @ Z - Z @ A, system.B - Z @ B, system.C @ Z - C, system.D - D)]))
    scale = _block_norm(system) if resid > 1e-8 else 1.0
    if resid > 1e-8 * scale:
        growth = _norm2(Z)
        rounding = 4 * system.state_dim * _UNIT_ROUNDOFF * growth ** 3 * scale
        if resid <= rounding:
            raise PreconditionError(
                f"cascade reconstruction residual {resid:.3e} lies within the "
                f"rounding scale {rounding:.3e} of the state map Z, "
                f"|Z|_2 = {growth:.3e}: the split is too ill-conditioned to "
                "certify the factors")
    _certify_scaled("cascade reconstruction residual", resid, 1e-8,
                    lambda: _block_norm(system))
    if (invb.state.pos, invb.state.neg) != (0, kappa):
        raise InternalConsistencyError(
            "negative factor state has the wrong signature")
    if (system_kind(invb, tol) != SystemKind.CONSERVATIVE
            or not _antihilbert_conservative_minimal(invb, tol)):
        raise InternalConsistencyError(
            "negative factor failed its conservative minimality certificate")
    if schur.state.neg != 0:
        raise InternalConsistencyError("Schur factor state is not positive")
    schur_kind = system_kind(schur, tol)
    wanted = (SystemKind.COISOMETRIC if mode == "right" else SystemKind.ISOMETRIC)
    if schur_kind not in (wanted, SystemKind.CONSERVATIVE):
        raise InternalConsistencyError(
            f"Schur factor came out {schur_kind.value}, "
            f"expected {wanted.value} or conservative")
    return resid


def kl_factorize_system(system, mode="right", tol=DEFAULT_TOL):
    """Split a system into a Schur-class part and an antistable inverse part.

    In right mode the product theta_schur(z) theta_invb(z) equals the
    transfer function of the input; in left mode the order is reversed.
    The negative factor is conservative and minimal with a kappa-dimensional
    purely negative state, so its transfer function is the reciprocal of a
    Blaschke product of degree kappa.  Requires a conservative system, or a
    coisometric observable one in right mode, or an isometric controllable
    one in left mode; the index of the transfer function must match kappa.
    The cascade of the returned factors is certified unitarily similar to
    the input through an explicit state map before returning.

    Every qualifying system factors on the one fundamental split its mode
    reads, plus-invariant in right mode and minus-invariant in left mode,
    simple or not, from the system's one Schur form.  For an
    index-preserving conservative system the orthocomplement of the simple
    space reduces A to a unitary on a Hilbert subspace: _positive_band
    admits its eigenvalues, on the circle, and they stay in the plus half
    and in the Schur factor.
    """
    if mode not in ("right", "left"):
        raise InputError(f"mode must be 'right' or 'left', got {mode!r}")
    cls = classify(system, tol)
    if not cls.krylov.index_preserving:
        raise PreconditionError("factorization needs an index-preserving system")
    if not _qualifies(cls, mode):
        raise PreconditionError(
            "right mode needs a conservative or coisometric observable system"
            if mode == "right" else
            "left mode needs a conservative or isometric controllable system")
    # the checks above imply the split preconditions: the kind is passive
    # and the report index-preserving
    which = SplitKind.PLUS_INVARIANT if mode == "right" else SplitKind.MINUS_INVARIANT
    halves = _fundamental_split(system, _split_spectrum(system, tol), which, tol)[1]
    schur, invb, Z = _factorize_simple(system, halves, mode, tol)
    resid = _certify_factorization(system, schur, invb, Z, mode, tol)
    return SystemFactorization(schur, invb, mode, Z, resid)


def _qualifies(cls, mode):
    """Whether a system classified as cls has a factorization in mode:
    conservative, or coisometric and observable (right), or isometric and
    controllable (left)."""
    if cls.kind == SystemKind.CONSERVATIVE:
        return True
    if mode == "right":
        return cls.kind == SystemKind.COISOMETRIC and cls.observable
    return cls.kind == SystemKind.ISOMETRIC and cls.controllable


@dataclass(frozen=True)
class StabilityClass:
    """Forward and backward stability of the two restricted flows.

    ``forward`` holds when powers of A die out on the positive invariant
    half, ``backward`` when powers of the adjoint of A die out on the
    positive half of the other split.  At finite dimension both radii are
    the largest modulus among the eigenvalues of A that are not outside
    the closed disc, so they coincide, the two flags agree and the label
    is one of C00, I0., I*.0, P00 or none.  ``label`` combines the flags
    with the metric class of the system; kappa is carried for reporting.
    """

    label: str
    kappa: int
    forward: bool
    backward: bool
    forward_radius: float
    backward_radius: float

    @property
    def bistable(self):
        return self.forward and self.backward


def stability_classify(system, tol=DEFAULT_TOL):
    """Assign the stability class of a passive index-preserving system.

    At finite dimension the restriction of A to the positive invariant
    half is a Hilbert-space contraction, and its powers tend to zero
    exactly when its spectral radius is below one; dually for the adjoint
    flow.  The restriction carries the inside and near-circle spectrum of
    A, and the adjoint flow on the positive half of the other split its
    conjugate, so one radius, read off the diagonal of the system's Schur
    form, serves both.  The spectral refusals of the splits hold here:
    AmbiguousSpectrumError for a near-circle eigenvalue whose spectral
    subspace, of A or of A^H, is not positive, and InternalConsistencyError
    when the outside-disc spectrum does not count kappa.  The sign,
    degeneracy and invariance certificates of the halves do not apply, as
    no half is formed.  Conservative connected systems give the C class,
    one-sided metric classes with the matching Krylov property the I
    classes, the rest of the passive systems the P class.
    """
    cls = _splittable(system, tol)
    outside = _split_spectrum(system, tol)
    radius = float(np.max(np.abs(system._spectrum.eigenvalues[~outside]),
                          initial=0.0))
    stable = radius < 1.0 - tol.metric_tol
    if not stable:
        label = "none"
    elif cls.kind == SystemKind.CONSERVATIVE and cls.simple:
        label = "C00"
    elif cls.kind == SystemKind.ISOMETRIC and cls.controllable:
        label = "I0."
    elif cls.kind == SystemKind.COISOMETRIC and cls.observable:
        label = "I*.0"
    else:
        label = "P00"
    return StabilityClass(label, system.kappa, stable, stable, radius, radius)
