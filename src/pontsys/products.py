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

from .colligation import (
    Colligation,
    SystemKind,
    _krylov_class,
    _metric_kind,
    _simp_kar,
    _unobservable,
    adjoint_system,
    classify,
    krylov_report,
    markov,
)
from .exceptions import (
    AmbiguousSpectrumError,
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
    certify,
)
from .indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    SignatureSpace,
    SubspaceKind,
    _DiscSchur,
    canonical_basis,
    j_complement,
    nullspace,
    orthocomplement_basis,
    principal_angles,
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
    and conservative inputs give a product of the same class.
    """
    if first.output_dim != second.input_dim:
        raise DimensionMismatchError(
            f"output dimension {first.output_dim} does not feed input "
            f"dimension {second.input_dim}")
    n1, n2 = first.state_dim, second.state_dim
    state = SignatureSpace.from_signs(
        np.concatenate([first.state.signs, second.state.signs]))
    A = np.block([
        [first.A, np.zeros((n1, n2))],
        [second.B @ first.C, second.A]])
    B = np.vstack([first.B, second.B @ first.D])
    C = np.hstack([second.D @ first.C, second.C])
    D = second.D @ first.D
    return Colligation(state, first.input_dim, second.output_dim, A, B, C, D)


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

    @property
    def first_components(self):
        return self.basis[: self.split, :]

    @property
    def second_components(self):
        return self.basis[self.split :, :]


def _taylor_observability_rows(first, second):
    """Stacked output-coefficient rows of the free cascade evolution.

    Row block m is [sum_j M_j C1 A1^(m-j), C2 A2^m] for m = 0..2n, where
    M_j are the Taylor coefficients of the second transfer function.  Its
    kernel is the unobservable space of the cascade, computed without
    ever forming the cascade.
    """
    n1, n2 = first.state_dim, second.state_dim
    orders = 2 * (n1 + n2) + 1
    pow1 = [np.eye(n1, dtype=complex)]
    pow2 = [np.eye(n2, dtype=complex)]
    for _ in range(orders):
        pow1.append(first.A @ pow1[-1])
        pow2.append(second.A @ pow2[-1])
    coeffs = [markov(second, j) for j in range(orders)]
    rows = []
    for m in range(orders):
        left = sum(coeffs[j] @ first.C @ pow1[m - j] for j in range(m + 1))
        blk = np.hstack([left, second.C @ pow2[m]])
        # normalizing each block row leaves the kernel unchanged but keeps
        # powers of an antistable main operator from drowning the early
        # rows at the relative rank cut
        nrm = np.linalg.norm(blk)
        rows.append(blk if nrm < 1e-280 else blk / nrm)
    return np.vstack(rows)


def _compare_kernels(primary, secondary, where):
    if primary.shape[1] != secondary.shape[1]:
        raise InternalConsistencyError(
            f"{where}: kernel dimensions disagree "
            f"({primary.shape[1]} vs {secondary.shape[1]})")
    if primary.shape[1] == 0:
        return 0.0
    angles = principal_angles(primary, secondary)
    worst = float(np.max(angles)) if angles.size else 0.0
    return certify(f"{where}: solution space angle", worst, 1e-8)


def obstruction_observable(first, second, tol=DEFAULT_TOL):
    """Kernel of the observability map of the cascade, cross-checked.

    The primary route takes the orthogonal complement of the block
    Krylov space of the assembled cascade's adjoint output columns; the
    secondary route solves the coupled Taylor-coefficient equations of the
    pair through twice the state dimension.  The two spaces must coincide.
    """
    primary = _unobservable(cascade(first, second), tol)
    secondary = nullspace(_taylor_observability_rows(first, second), tol)
    worst = _compare_kernels(primary, secondary, "observability obstruction")
    return ObstructionReport(primary, first.state_dim, worst)


def obstruction_controllable(first, second, tol=DEFAULT_TOL):
    """Metric-orthogonal annihilator of the reachable space of the cascade.

    The primary route takes the unobservable kernel of the adjoint of the
    assembled cascade, {x : Q^H J x = 0} for its Krylov basis Q; the
    secondary route runs the Taylor equations on the adjoint pair, whose
    unobservable vectors are exactly the annihilator, and swaps the blocks
    back.
    """
    primary = _unobservable(adjoint_system(cascade(first, second)), tol)
    dual = nullspace(
        _taylor_observability_rows(adjoint_system(second), adjoint_system(first)),
        tol)
    n2 = second.state_dim
    secondary = np.vstack([dual[n2:, :], dual[:n2, :]])
    worst = _compare_kernels(primary, secondary, "controllability obstruction")
    return ObstructionReport(primary, first.state_dim, worst)


class SplitKind(str, Enum):
    """Which half of a fundamental split is invariant under the main operator."""

    PLUS_INVARIANT = "plus_invariant"
    MINUS_INVARIANT = "minus_invariant"


@dataclass(frozen=True)
class FundamentalSplit:
    """Fundamental decomposition with one half invariant under A.

    Xplus is a hilbert subspace, Xminus an antihilbert one, mutually
    metric-orthogonal with dimensions summing to the state dimension.
    ``which`` names the invariant half.
    """

    which: SplitKind
    Xplus: IndefiniteSubspace
    Xminus: IndefiniteSubspace
    invariance_residual: float


def invariant_fundamental_decompositions(system, tol=DEFAULT_TOL):
    """The two fundamental splits determined by the main operator.

    For a passive index-preserving system the spectrum of A outside the
    closed disc spans an antihilbert subspace of dimension kappa; its
    metric complement completes one split.  Running the same construction
    on the metric adjoint of A gives the other split, whose positive half
    is invariant under A itself.  Returns (plus-invariant split,
    minus-invariant split).
    """
    _splittable(system, tol)
    return _fundamental_splits(system, tol)[:2]


def _splittable(system, tol):
    """Metric kind and Krylov report of a passive index-preserving system;
    any other system is refused as the fundamental splits refuse it."""
    kind = _metric_kind(system, tol)
    if kind == SystemKind.NONE:
        raise PreconditionError("fundamental splits need a passive system")
    rep = krylov_report(system, tol)
    if not _simp_kar(system, rep, tol).index_preserving:
        raise PreconditionError(
            "fundamental splits need an index-preserving system")
    return kind, rep


def _positive_band(form, basis, state, tol):
    """Refuse the eigenvalues near the unit circle unless their spectral
    subspace (basis) is positive; then they belong with the inside ones."""
    if subspace_classify(IndefiniteSubspace(state, basis), tol) != SubspaceKind.HILBERT:
        lam = np.diag(form.T)[form.near][0]
        raise AmbiguousSpectrumError(
            f"eigenvalue {lam} lies within {tol.metric_tol:g} of the unit circle")


def _fundamental_splits(system, tol):
    """invariant_fundamental_decompositions past its preconditions.

    Returns (plus-invariant split, minus-invariant split, radius), radius
    the spectral radius of A on the positive invariant half.
    """
    kappa = system.kappa
    state = system.state
    if state.dim == 0:
        empty = IndefiniteSubspace(state, np.zeros((0, 0)))
        return (FundamentalSplit(SplitKind.PLUS_INVARIANT, empty, empty, 0.0),
                FundamentalSplit(SplitKind.MINUS_INVARIANT, empty, empty, 0.0),
                0.0)
    A = system.A
    scale = max(1.0, _norm2(A))

    def invariance(sub):
        # Euclidean residual on an orthonormal basis.  The metric
        # projection onto a half can have huge norm when the other half
        # sits close to neutrality, which would drown the certificate in
        # amplified roundoff; invariance is a property of the subspace
        # alone, so the Euclidean measure is the right one.
        Q = sub.basis
        if Q.shape[1] == 0:
            return 0.0
        resid = float(np.linalg.norm(A @ Q - Q @ (Q.conj().T @ (A @ Q)), 2))
        return certify("invariance residual", resid, 1e-9 * scale)

    def check_halves(plus, minus):
        if minus.dim != kappa:
            raise InternalConsistencyError(
                f"negative half has dimension {minus.dim}, expected {kappa}")
        if plus.dim + minus.dim != state.dim:
            raise InternalConsistencyError("split dimensions do not add up")
        if kappa and subspace_classify(minus, tol) != SubspaceKind.ANTIHILBERT:
            raise InternalConsistencyError(
                "negative half is not uniformly negative")
        if plus.dim and subspace_classify(plus, tol) != SubspaceKind.HILBERT:
            raise InternalConsistencyError("positive half is not positive")

    # Each split's invariant half is a spectral subspace of one Schur form
    # of A, never a metric complement: the outside-disc subspace for the
    # minus-invariant split, and for the other the subspace of the inside
    # and near-circle spectrum, whose Euclidean complement is the
    # outside-disc subspace of A^H.  The metric complement only ever
    # supplies the non-invariant half.  Near-circle eigenvalues are allowed
    # only when their spectral subspaces, of A and of A^H, are both
    # positive; the one of A^H is the Euclidean complement of the rest of
    # the spectrum of A.
    form = _DiscSchur(A, tol.metric_tol)
    if form.near.any():
        Z, _, k = form.reordered(form.near)
        _positive_band(form, Z[:, :k], state, tol)
    Z, _, k = form.reordered(form.outside)
    minus1 = IndefiniteSubspace(state, Z[:, :k])
    plus1 = j_complement(minus1, tol)
    check_halves(plus1, minus1)
    split_minus = FundamentalSplit(
        SplitKind.MINUS_INVARIANT, plus1, minus1, invariance(minus1))

    if form.near.any():
        Z, _, k = form.reordered(~form.near)
        _positive_band(form, Z[:, k:], state, tol)
    Z, w, k = form.reordered(~form.outside)
    plus2 = IndefiniteSubspace(state, Z[:, :k])
    minus2 = j_complement(plus2, tol)
    check_halves(plus2, minus2)
    split_plus = FundamentalSplit(
        SplitKind.PLUS_INVARIANT, plus2, minus2, invariance(plus2))
    return split_plus, split_minus, float(np.max(np.abs(w[:k]), initial=0.0))


@dataclass(frozen=True)
class SystemFactorization:
    """Factor pair from splitting a system along a fundamental split.

    schur_factor has a Hilbert state space and a Schur-class transfer
    function; inverse_blaschke_factor is conservative and minimal with a
    purely negative state of dimension kappa, so its transfer function is
    the reciprocal of a finite Blaschke product.  In right mode the
    product theta_schur * theta_invb reproduces the input transfer
    function, in left mode theta_invb * theta_schur does.  state_map
    carries the cascade state basis in the original coordinates;
    unpacking yields (schur_factor, inverse_blaschke_factor).
    """

    schur_factor: Colligation
    inverse_blaschke_factor: Colligation
    mode: str
    state_map: np.ndarray
    reconstruction_residual: float

    def __iter__(self):
        return iter((self.schur_factor, self.inverse_blaschke_factor))


def _norm2(M):
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def _block_norm(system):
    return max(1.0, *(
        _norm2(M) for M in (system.A, system.B, system.C, system.D)))


def _j_orthonormal_completion(known_gram_basis, J, expect):
    """Columns completing a negative frame to a J-orthonormal one.

    known_gram_basis has Gram -I in the metric J; the returned matrix N
    satisfies N^H J N = I_expect and is J-orthogonal to the known part.
    """
    comp = nullspace(known_gram_basis.conj().T @ J)
    if comp.shape[1] != expect:
        raise InternalConsistencyError(
            "metric completion has the wrong dimension")
    if expect == 0:
        return comp
    G = comp.conj().T @ J @ comp
    G = (G + G.conj().T) / 2.0
    w, U = np.linalg.eigh(G)
    certify("metric completion Gram eigenvalue", -w[0], -1e-10)
    return comp @ U @ np.diag(1.0 / np.sqrt(w))


def _adapted_blocks(system, split, minus_first, tol):
    """State change onto a fundamental split, negative or positive block first."""
    Wm, _ = canonical_basis(split.Xminus, tol)
    Wp, _ = canonical_basis(split.Xplus, tol)
    if minus_first:
        V = np.hstack([Wm, Wp])
        pattern = np.concatenate([-np.ones(Wm.shape[1]), np.ones(Wp.shape[1])])
    else:
        V = np.hstack([Wp, Wm])
        pattern = np.concatenate([np.ones(Wp.shape[1]), -np.ones(Wm.shape[1])])
    J_X = system.state.signs
    Vinv = pattern[:, None] * (V.conj().T * J_X[None, :])
    certify("adapted basis inverse residual",
            _norm2(Vinv @ V - np.eye(V.shape[1])), 1e-8)
    A_ad = Vinv @ system.A @ V
    B_ad = Vinv @ system.B
    C_ad = system.C @ V
    return V, A_ad, B_ad, C_ad


def _factorize_simple(system, splits, mode, tol):
    split_plus, split_minus = splits
    kappa = system.kappa
    n = system.state_dim
    m, p = system.input_dim, system.output_dim
    D = system.D
    if mode == "right":
        # adapted order [minus, plus]; the plus half is invariant, so the
        # adapted main operator is lower block triangular
        V, A_ad, B_ad, C_ad = _adapted_blocks(system, split_plus, True, tol)
        A_ff, A_sf, A_ss = A_ad[:kappa, :kappa], A_ad[kappa:, :kappa], A_ad[kappa:, kappa:]
        B_f, B_s = B_ad[:kappa, :], B_ad[kappa:, :]
        C_f, C_s = C_ad[:, :kappa], C_ad[:, kappa:]
        Jp = np.diag(np.concatenate([-np.ones(kappa), np.ones(m)]))
        R = np.hstack([A_ff, B_f])
        certify("negative block row metric-isometry residual",
                _norm2(R @ Jp @ R.conj().T + np.eye(kappa)), 1e-8)
        # rows completing R to a metric-unitary (kappa+m)-frame
        S = _j_orthonormal_completion(R.conj().T, Jp, m).conj().T
        invb = Colligation(SignatureSpace(0, kappa), m, m,
                           A_ff, B_f, S[:, :kappa], S[:, kappa:])
        B2 = np.hstack([A_sf, B_s]) @ Jp @ S.conj().T
        D2 = np.hstack([C_f, D]) @ Jp @ S.conj().T
        schur = Colligation(SignatureSpace(n - kappa, 0), m, p,
                            A_ss, B2, C_s, D2)
    else:
        # adapted order [plus, minus]; the minus half is invariant
        V, A_ad, B_ad, C_ad = _adapted_blocks(system, split_minus, False, tol)
        r = n - kappa
        A_ff, A_sf, A_ss = A_ad[:r, :r], A_ad[r:, :r], A_ad[r:, r:]
        B_f, B_s = B_ad[:r, :], B_ad[r:, :]
        C_f, C_s = C_ad[:, :r], C_ad[:, r:]
        Jpp = np.diag(np.concatenate([-np.ones(kappa), np.ones(p)]))
        Ck = np.vstack([A_ss, C_s])
        certify("negative block column metric-isometry residual",
                _norm2(Ck.conj().T @ Jpp @ Ck + np.eye(kappa)), 1e-8)
        Cn = _j_orthonormal_completion(Ck, Jpp, p)
        invb = Colligation(SignatureSpace(0, kappa), p, p,
                           A_ss, Cn[:kappa, :], C_s, Cn[kappa:, :])
        C1 = Cn.conj().T @ Jpp @ np.vstack([A_sf, C_f])
        D1 = Cn.conj().T @ Jpp @ np.vstack([B_s, D])
        schur = Colligation(SignatureSpace(r, 0), m, p, A_ff, B_f, C1, D1)
    return schur, invb, V


def _factorize_nonsimple(system, rep, mode, tol):
    """Split off the orthocomplement of the connected part, then factor.

    The complement is positive and reduces the system with zero input and
    output maps, so it can be carried over to the Schur-class factor
    unchanged after the connected restriction is factorized.  rep is the
    Krylov report of the system.
    """
    state = system.state
    Ws, ssigns = canonical_basis(rep.simple_space, tol)
    comp = orthocomplement_basis(rep.simple_space, tol)
    comp_space = IndefiniteSubspace(state, comp)
    if subspace_classify(comp_space, tol) != SubspaceKind.HILBERT:
        raise InternalConsistencyError(
            "orthocomplement of the connected part is not positive")
    Wq, _ = canonical_basis(comp_space, tol)
    J_X = state.signs
    proj_s = ssigns[:, None] * (Ws.conj().T * J_X[None, :])
    proj_q = Wq.conj().T * J_X[None, :]
    sub = Colligation(SignatureSpace.from_signs(ssigns),
                      system.input_dim, system.output_dim,
                      proj_s @ system.A @ Ws, proj_s @ system.B,
                      system.C @ Ws, system.D)
    A_q = proj_q @ system.A @ Wq
    q = Wq.shape[1]
    schur0, invb, V0 = _factorize_simple(
        sub, invariant_fundamental_decompositions(sub, tol), mode, tol)
    r0 = schur0.state_dim
    m, p = schur0.input_dim, schur0.output_dim
    A_full = np.block([
        [schur0.A, np.zeros((r0, q))],
        [np.zeros((q, r0)), A_q]])
    schur = Colligation(SignatureSpace(r0 + q, 0), m, p,
                        A_full,
                        np.vstack([schur0.B, np.zeros((q, m))]),
                        np.hstack([schur0.C, np.zeros((p, q))]),
                        schur0.D)
    kappa = system.kappa
    if mode == "right":
        # cascade state order [invb, schur0, complement]
        Z = np.hstack([Ws @ V0[:, :kappa], Ws @ V0[:, kappa:], Wq])
    else:
        # cascade state order [schur0, complement, invb]
        Z = np.hstack([Ws @ V0[:, :r0], Wq, Ws @ V0[:, r0:]])
    return schur, invb, Z


def _certify_factorization(system, schur, invb, Z, mode, tol):
    kappa = system.kappa
    cas = cascade(invb, schur) if mode == "right" else cascade(schur, invb)
    scale = _block_norm(system)
    # np.max, unlike max, carries a NaN residual through to the certificate
    resid = float(np.max([
        _norm2(system.A @ Z - Z @ cas.A),
        _norm2(system.B - Z @ cas.B),
        _norm2(system.C @ Z - cas.C),
        _norm2(system.D - cas.D),
    ]))
    certify("cascade reconstruction residual", resid, 1e-8 * scale)
    J_X = system.state.signs
    certify("cascade state basis metric-orthonormality residual", _norm2(
        Z.conj().T @ (J_X[:, None] * Z) - np.diag(cas.state.signs)), 1e-8)
    if (invb.state.pos, invb.state.neg) != (0, kappa):
        raise InternalConsistencyError(
            "negative factor state has the wrong signature")
    invb_cls = classify(invb, tol)
    if invb_cls.kind != SystemKind.CONSERVATIVE or not invb_cls.minimal:
        raise InternalConsistencyError(
            "negative factor failed its conservative minimality certificate")
    if schur.state.neg != 0:
        raise InternalConsistencyError("Schur factor state is not positive")
    schur_cls = classify(schur, tol, with_krylov=False)
    wanted = (SystemKind.COISOMETRIC if mode == "right" else SystemKind.ISOMETRIC)
    if schur_cls.kind not in (wanted, SystemKind.CONSERVATIVE):
        raise InternalConsistencyError(
            f"Schur factor came out {schur_cls.kind.value}, "
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
    """
    if mode not in ("right", "left"):
        raise InputError(f"mode must be 'right' or 'left', got {mode!r}")
    kind = _metric_kind(system, tol)
    rep = krylov_report(system, tol)
    return _kl_factorize(system, _krylov_class(kind, rep), rep, mode, tol)


def _kl_factorize(system, cls, rep, mode, tol):
    """kl_factorize_system on a system already classified as cls, with
    Krylov report rep."""
    if not _simp_kar(system, rep, tol).index_preserving:
        raise PreconditionError("factorization needs an index-preserving system")
    if mode == "right":
        ok = cls.kind == SystemKind.CONSERVATIVE or (
            cls.kind == SystemKind.COISOMETRIC and cls.observable)
        if not ok:
            raise PreconditionError(
                "right mode needs a conservative or coisometric observable system")
    else:
        ok = cls.kind == SystemKind.CONSERVATIVE or (
            cls.kind == SystemKind.ISOMETRIC and cls.controllable)
        if not ok:
            raise PreconditionError(
                "left mode needs a conservative or isometric controllable system")
    if cls.kind == SystemKind.CONSERVATIVE and not cls.simple:
        schur, invb, Z = _factorize_nonsimple(system, rep, mode, tol)
    else:
        # the checks above imply the split preconditions: the kind is
        # passive and the report index-preserving
        schur, invb, Z = _factorize_simple(
            system, _fundamental_splits(system, tol)[:2], mode, tol)
    resid = _certify_factorization(system, schur, invb, Z, mode, tol)
    return SystemFactorization(schur, invb, mode, Z, resid)


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
    conjugate, so one radius, read off the Schur form of the splits,
    serves both.  Conservative connected systems give the C class,
    one-sided metric classes with the matching Krylov property the I
    classes, the rest of the passive systems the P class.
    """
    kind, rep = _splittable(system, tol)
    _, _, radius = _fundamental_splits(system, tol)
    stable = radius < 1.0 - tol.metric_tol
    cls = _krylov_class(kind, rep)
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
