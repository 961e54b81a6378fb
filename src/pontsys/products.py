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
    _schur_spans,
    _unobservable,
    adjoint_system,
    classify,
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
    _norm2,
    certify,
)
from .indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    SignatureSpace,
    SubspaceKind,
    canonical_basis,
    nullspace,
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
    second route reads the unobservable kernel off the cascade's Schur
    form by the Hautus test (colligation._schur_spans).  The two spaces
    must coincide.
    """
    cas = cascade(first, second)
    primary = _unobservable(cas, tol)
    secondary = _schur_spans(cas, (True,), tol)[0][1]
    worst = _compare_kernels(primary, secondary, "observability obstruction")
    return ObstructionReport(primary, first.state_dim, worst)


def obstruction_controllable(first, second, tol=DEFAULT_TOL):
    """Metric-orthogonal annihilator of the reachable space of the cascade.

    The primary route takes the unobservable kernel of the adjoint of the
    assembled cascade, {x : Q^H J x = 0} for its Krylov basis Q; the
    second route reads the orthogonal complement of the reachable space
    off the cascade's Schur form by the Hautus test
    (colligation._schur_spans), and J maps it onto the annihilator.
    """
    cas = cascade(first, second)
    primary = _unobservable(adjoint_system(cas), tol)
    secondary = cas.state.signs[:, None] * _schur_spans(cas, (False,), tol)[0][1]
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
    split_minus = _fundamental_split(system, outside, SplitKind.MINUS_INVARIANT, tol)
    return (_fundamental_split(system, outside, SplitKind.PLUS_INVARIANT, tol),
            split_minus)


def _fundamental_split(system, outside, which, tol):
    """One fundamental split past _split_spectrum, whose outside mask it
    takes, from one reordering Z of the system's Schur form.

    The invariant half Z[:, :k] is a spectral subspace: the outside-disc
    one for the minus-invariant split, the rest for the plus-invariant
    split.  As Z is unitary its metric complement {x : Z[:, :k]^H J x = 0}
    is J Z[:, k:], so no SVD is taken.  Each half is classified once and
    certified of its sign; a degenerate invariant half raises
    NonRegularSubspaceError, as j_complement does.  The invariance
    residual is Euclidean, on the orthonormal basis: a metric projection
    onto a half near neutrality would amplify roundoff, and invariance is
    a property of the subspace alone.
    """
    state = system.state
    if state.dim == 0:
        empty = IndefiniteSubspace(state, np.zeros((0, 0)))
        return FundamentalSplit(which, empty, empty, 0.0)
    plus_invariant = which == SplitKind.PLUS_INVARIANT
    Z, k = system._spectrum.reordered(~outside if plus_invariant else outside)
    invariant = IndefiniteSubspace._orthonormal(state, Z[:, :k])
    invariant_kind = subspace_classify(invariant, tol)
    if invariant_kind == SubspaceKind.DEGENERATE:
        raise NonRegularSubspaceError(
            "complement of a degenerate subspace is not direct")
    complement = IndefiniteSubspace._orthonormal(
        state, state.signs[:, None] * Z[:, k:])
    plus, minus = ((invariant, complement) if plus_invariant
                   else (complement, invariant))

    def kind(half):
        return invariant_kind if half is invariant else subspace_classify(half, tol)

    if system.kappa and kind(minus) != SubspaceKind.ANTIHILBERT:
        raise InternalConsistencyError("negative half is not uniformly negative")
    if plus.dim and kind(plus) != SubspaceKind.HILBERT:
        raise InternalConsistencyError("positive half is not positive")
    resid = 0.0
    if k:
        A, Q = system.A, invariant.basis
        resid = _certify_scaled(
            "invariance residual", _norm2(A @ Q - Q @ (Q.conj().T @ (A @ Q))),
            1e-9, lambda: max(1.0, _norm2(A)))
    return FundamentalSplit(which, plus, minus, resid)


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
    _certify_residual("adapted basis inverse residual",
                      Vinv @ V - np.eye(V.shape[1]), 1e-8)
    A_ad = Vinv @ system.A @ V
    B_ad = Vinv @ system.B
    C_ad = system.C @ V
    return V, A_ad, B_ad, C_ad


def _factorize_simple(system, split, mode, tol):
    """Schur and inverse Blaschke factors and the state map Z on split, the
    plus-invariant split in right mode and the minus-invariant one in left
    mode."""
    kappa = system.kappa
    n = system.state_dim
    m, p = system.input_dim, system.output_dim
    D = system.D
    if mode == "right":
        # adapted order [minus, plus]; the plus half is invariant, so the
        # adapted main operator is lower block triangular
        V, A_ad, B_ad, C_ad = _adapted_blocks(system, split, True, tol)
        A_ff, A_sf, A_ss = A_ad[:kappa, :kappa], A_ad[kappa:, :kappa], A_ad[kappa:, kappa:]
        B_f, B_s = B_ad[:kappa, :], B_ad[kappa:, :]
        C_f, C_s = C_ad[:, :kappa], C_ad[:, kappa:]
        Jp = np.diag(np.concatenate([-np.ones(kappa), np.ones(m)]))
        R = np.hstack([A_ff, B_f])
        _certify_residual("negative block row metric-isometry residual",
                          R @ Jp @ R.conj().T + np.eye(kappa), 1e-8)
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
        V, A_ad, B_ad, C_ad = _adapted_blocks(system, split, False, tol)
        r = n - kappa
        A_ff, A_sf, A_ss = A_ad[:r, :r], A_ad[r:, :r], A_ad[r:, r:]
        B_f, B_s = B_ad[:r, :], B_ad[r:, :]
        C_f, C_s = C_ad[:, :r], C_ad[:, r:]
        Jpp = np.diag(np.concatenate([-np.ones(kappa), np.ones(p)]))
        Ck = np.vstack([A_ss, C_s])
        _certify_residual("negative block column metric-isometry residual",
                          Ck.conj().T @ Jpp @ Ck + np.eye(kappa), 1e-8)
        Cn = _j_orthonormal_completion(Ck, Jpp, p)
        invb = Colligation(SignatureSpace(0, kappa), p, p,
                           A_ss, Cn[:kappa, :], C_s, Cn[kappa:, :])
        C1 = Cn.conj().T @ Jpp @ np.vstack([A_sf, C_f])
        D1 = Cn.conj().T @ Jpp @ np.vstack([B_s, D])
        schur = Colligation(SignatureSpace(r, 0), m, p, A_ff, B_f, C1, D1)
    return schur, invb, V


def _certify_factorization(system, schur, invb, Z, mode, tol):
    kappa = system.kappa
    cas = cascade(invb, schur) if mode == "right" else cascade(schur, invb)
    # np.max, unlike max, carries a NaN residual through to the certificate
    resid = float(np.max([
        _norm2(system.A @ Z - Z @ cas.A),
        _norm2(system.B - Z @ cas.B),
        _norm2(system.C @ Z - cas.C),
        _norm2(system.D - cas.D),
    ]))
    _certify_scaled("cascade reconstruction residual", resid, 1e-8,
                    lambda: _block_norm(system))
    J_X = system.state.signs
    _certify_residual("cascade state basis metric-orthonormality residual",
                      Z.conj().T @ (J_X[:, None] * Z) - np.diag(cas.state.signs),
                      1e-8)
    if (invb.state.pos, invb.state.neg) != (0, kappa):
        raise InternalConsistencyError(
            "negative factor state has the wrong signature")
    invb_cls = classify(invb, tol)
    if invb_cls.kind != SystemKind.CONSERVATIVE or not invb_cls.minimal:
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
    """
    if mode not in ("right", "left"):
        raise InputError(f"mode must be 'right' or 'left', got {mode!r}")
    return _kl_factorize(system, classify(system, tol), mode, tol)


def _qualifies(cls, mode):
    """Whether a system classified as cls has a factorization in mode:
    conservative, or coisometric and observable (right), or isometric and
    controllable (left)."""
    if cls.kind == SystemKind.CONSERVATIVE:
        return True
    if mode == "right":
        return cls.kind == SystemKind.COISOMETRIC and cls.observable
    return cls.kind == SystemKind.ISOMETRIC and cls.controllable


def _kl_factorize(system, cls, mode, tol):
    """kl_factorize_system on a system already classified as cls.

    Every qualifying system factors on the one fundamental split its mode
    reads, plus-invariant in right mode and minus-invariant in left mode,
    simple or not; _split_spectrum refuses the spectrum as both splits
    would, and only the split read is formed and certified.  For an
    index-preserving conservative system the orthocomplement of the simple
    space is a Hilbert subspace that reduces A, and B^H and C vanish on
    it, so A is unitary there: its eigenvalues lie on the circle and their
    spectral subspace is positive.  _positive_band admits them, both
    splits put them in the plus half, and the inverse Blaschke factor,
    built on the minus half, never sees them; they stay in the Schur
    factor.
    """
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
    split = _fundamental_split(system, _split_spectrum(system, tol), which, tol)
    schur, invb, Z = _factorize_simple(system, split, mode, tol)
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
