"""Linear algebra over finite-dimensional spaces with an indefinite metric.

A space is described by a signature: a pattern of +1/-1 weights on the
coordinates.  The metric matrix J is the diagonal of that pattern, so
J = J* = J^(-1).  All adjoints, projections and classifications in this
module are taken with respect to such metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import zpotrf, ztrsen

from .exceptions import (
    AmbiguousSpectrumError,
    DimensionMismatchError,
    IndefiniteDefectError,
    InputError,
    NonRegularSubspaceError,
    NotHermitianError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SignatureSpace",
    "IndefiniteSubspace",
    "Inertia",
    "MetricClass",
    "SubspaceKind",
    "SpectralRegion",
    "as_matrix",
    "metric_signs",
    "j_adjoint",
    "metric_defects",
    "metric_classify",
    "inertia",
    "subspace_classify",
    "j_complement",
    "psd_factor",
    "eig_hermitian",
    "spectral_subspace",
    "canonical_basis",
    "nullspace",
    "column_space",
    "principal_angles",
    "intersect_spans",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances and sampling controls threaded through every call.

    rank_tol governs rank decisions, psd_tol semidefiniteness slack,
    metric_tol metric identities (isometry, unitarity, similarity).
    boundary_samples and disc_samples size the default sample plans on the
    unit circle and the open disc; seed fixes every randomized choice.
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-9
    metric_tol: float = 1e-8
    boundary_samples: int = 256
    disc_samples: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("rank_tol", "psd_tol", "metric_tol"):
            if not (0 < getattr(self, name) < 1):
                raise InputError(f"{name} must lie in (0, 1)")
        for name in ("boundary_samples", "disc_samples"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")


DEFAULT_TOL = Tolerances()


def as_matrix(a, rows=None, cols=None, name="matrix"):
    """Validate input as a complex matrix with finite entries.

    Returns a read-only complex128 array.  1-D input becomes a column.
    """
    arr = np.array(a, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    if rows is not None and arr.shape[0] != rows:
        raise DimensionMismatchError(
            f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise DimensionMismatchError(
            f"{name} must have {cols} columns, got {arr.shape[1]}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SignatureSpace:
    """Finite-dimensional space with pos positive and neg negative directions.

    In the canonical coordinate order the metric is diag(I_pos, -I_neg).
    A non-canonical coordinate order (as produced by direct sums) is carried
    by the optional pattern field; pos/neg always count the +1/-1 entries.
    """

    pos: int
    neg: int
    pattern: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.pos < 0 or self.neg < 0:
            raise InputError("signature counts must be nonnegative")
        if self.pattern is not None:
            pat = tuple(int(s) for s in self.pattern)
            if any(s not in (-1, 1) for s in pat):
                raise InputError("signature pattern entries must be +1 or -1")
            if sum(1 for s in pat if s > 0) != self.pos or len(pat) != self.dim:
                raise InputError("signature pattern does not match pos/neg")
            object.__setattr__(self, "pattern", pat)

    @classmethod
    def from_signs(cls, signs):
        signs = [int(s) for s in signs]
        pos = sum(1 for s in signs if s > 0)
        space = cls(pos, len(signs) - pos)
        if not space.is_canonical_pattern(signs):
            space = cls(pos, len(signs) - pos, tuple(signs))
        return space

    def is_canonical_pattern(self, signs):
        return list(signs) == [1] * self.pos + [-1] * (len(signs) - self.pos)

    @property
    def dim(self):
        return self.pos + self.neg

    @property
    def is_canonical(self):
        return self.pattern is None

    @cached_property
    def signs(self):
        """The +1/-1 weights of the coordinates, one read-only array per space."""
        if self.pattern is not None:
            signs = np.array(self.pattern, dtype=np.float64)
        else:
            signs = np.concatenate([np.ones(self.pos), -np.ones(self.neg)])
        signs.setflags(write=False)
        return signs

    @property
    def J(self):
        return np.diag(self.signs).astype(np.complex128)

    def canonical(self):
        return SignatureSpace(self.pos, self.neg)

    def canonical_permutation(self):
        """Index order that sorts coordinates to the canonical +/- layout."""
        return np.argsort(-self.signs, kind="stable")


def metric_signs(space):
    """Signature vector of a space description.

    Accepts a SignatureSpace, an integer (a Hilbert space of that
    dimension), or an explicit vector of +1/-1 weights.
    """
    if isinstance(space, SignatureSpace):
        return space.signs
    if isinstance(space, (int, np.integer)):
        if space < 0:
            raise InputError("dimension must be nonnegative")
        return np.ones(int(space))
    signs = np.asarray(space, dtype=np.float64).reshape(-1)
    if signs.size and not np.all(np.abs(signs) == 1.0):
        raise InputError("signature vector entries must be +1 or -1")
    return signs


def j_adjoint(M, dom, cod):
    """Metric adjoint J_dom M* J_cod of an operator M mapping dom to cod."""
    dom_s = metric_signs(dom)
    cod_s = metric_signs(cod)
    M = as_matrix(M, rows=cod_s.size, cols=dom_s.size, name="operator")
    return dom_s[:, None] * M.conj().T * cod_s[None, :]


class Inertia(tuple):
    """Eigenvalue sign counts (n_plus, n_zero, n_minus) of a Hermitian matrix."""

    def __new__(cls, n_plus, n_zero, n_minus):
        return super().__new__(cls, (int(n_plus), int(n_zero), int(n_minus)))

    @property
    def n_plus(self):
        return self[0]

    @property
    def n_zero(self):
        return self[1]

    @property
    def n_minus(self):
        return self[2]


def _sym_eig(H, name="matrix", vectors=False):
    """Eigen-solve of the symmetrized (H + H^*)/2 of a square H.

    Returns (w, V, skew): ascending eigenvalues, eigenvectors (None unless
    vectors) and the Frobenius norm of H - H^*.
    """
    H = as_matrix(H, name=name)
    if H.shape[0] != H.shape[1]:
        raise DimensionMismatchError(f"{name} must be square")
    skew = float(np.linalg.norm(H - H.conj().T))
    Hs = (H + H.conj().T) / 2.0
    if vectors:
        w, V = np.linalg.eigh(Hs)
        return w, V, skew
    return np.linalg.eigvalsh(Hs), None, skew


def _spectral_radius(w):
    return float(np.max(np.abs(w), initial=0.0))


def _certify_hermitian(w, skew, name, rel):
    # ||H - H^*||_F >= ||H - H^*||_2 and max|eig(sym H)| <= ||H||_2, so this
    # refuses every matrix the spectral-norm test against max(1, ||H||_2)
    # refuses
    if skew > rel * max(1.0, _spectral_radius(w)):
        raise NotHermitianError(f"{name} is not Hermitian within {rel:g} relative")


def _hermitian_eig(H, name="matrix", rel=1e-12, vectors=False):
    """Eigenvalues (and with vectors, eigenvectors) of a certified Hermitian H.

    One eigen-solve of the symmetrized H; H is refused with
    NotHermitianError when ||H - H^*||_F > rel * max(1, max|eig|).
    """
    w, V, skew = _sym_eig(H, name, vectors)
    _certify_hermitian(w, skew, name, rel)
    return (w, V) if vectors else w


def inertia(H, tol=DEFAULT_TOL):
    """Counts of positive, numerically zero and negative eigenvalues of H.

    The zero threshold is psd_tol scaled by max(1, ||H||).  Congruence
    transformations with well-conditioned factors preserve the result.
    """
    w = _hermitian_eig(H, name="inertia input")
    if w.size == 0:
        return Inertia(0, 0, 0)
    cut = tol.psd_tol * max(1.0, _spectral_radius(w))
    return Inertia(np.sum(w > cut), np.sum(np.abs(w) <= cut), np.sum(w < -cut))


class MetricClass(str, Enum):
    """Cumulative metric classification of an operator between spaces."""

    NONE = "none"
    CONTRACTION = "contraction"
    ISOMETRY = "isometry"
    COISOMETRY = "coisometry"
    UNITARY = "unitary"


def metric_defects(M, dom, cod):
    """Primal and dual metric defects (J_dom - M* J_cod M, J_cod - M J_dom M*)."""
    dom_s = metric_signs(dom)
    cod_s = metric_signs(cod)
    M = as_matrix(M, rows=cod_s.size, cols=dom_s.size, name="operator")
    return _metric_defects(M, dom_s, cod_s)


def _metric_defects(M, dom_s, cod_s):
    """metric_defects of a complex128 M from the sign vectors of its domain
    and codomain, with no check of its shape or entries."""
    Mh = M.conj().T
    return (np.diag(dom_s) - Mh @ (cod_s[:, None] * M),
            np.diag(cod_s) - M @ (dom_s[:, None] * Mh))


def metric_classify(M, dom, cod, tol=DEFAULT_TOL):
    """Classify M as a metric contraction, (co)isometry, unitary, or none.

    Unitary means isometry and coisometry together; an isometry or a unitary
    is in particular a contraction.  Contractivity is the ordinary positive
    semidefiniteness of the primal defect.  A defect P counts as zero when
    max|eig(sym P)| + ||P - P^*||_F / 2, an upper bound on ||P||_2, is
    within metric_tol * max(1, ||M||^2).  Norm brackets and one Cholesky
    factorization decide the clear cases; the eigen-solves run only where
    they can change the verdict.
    """
    return _defect_class(M, *metric_defects(M, dom, cod), tol)


def _defect_class(M, primal, dual, tol):
    """metric_classify of M from its two defects, as metric_defects forms them."""
    verdict = _bracketed_metric_class(M, primal, dual, tol)
    if verdict is not None:
        return verdict
    w, _, skew = _sym_eig(primal)
    wd, _, skew_d = _sym_eig(dual)
    defects = (_spectral_radius(w) + skew / 2.0,
               _spectral_radius(wd) + skew_d / 2.0)
    upper = _frobenius_scale_bound(M, tol)
    if any(tol.metric_tol < d <= upper for d in defects):
        scale = max(1.0, float(np.linalg.norm(M, 2)) ** 2)
    else:
        scale = 1.0
    verdict = _zero_defect_class(*(d <= tol.metric_tol * scale for d in defects))
    if verdict is not None:
        return verdict
    # the contraction test is is_psd on the primal eigenvalues
    _certify_hermitian(w, skew, "psd input", 1e-10)
    if _psd_slack_ok(w, tol):
        return MetricClass.CONTRACTION
    return MetricClass.NONE


def _frobenius_scale_bound(M, tol):
    """metric_tol * max(1, ||M||_F^2), inflated by a few ulps.

    The scale max(1, ||M||_2^2) of metric_classify lies in
    [1, max(1, ||M||_F^2)].  A defect within metric_tol is zero at every
    scale >= 1, and one above this bound is nonzero at every scale up to
    it, so only a defect in between needs the SVD.  The inflation keeps a
    rank-one M, where the two norms coincide and rounding could put the
    computed ||M||_F below ||M||_2, on the SVD side.
    """
    return tol.metric_tol * max(1.0, float(np.linalg.norm(M)) ** 2 * (1.0 + 1e-14))


def _defect_bracket(P):
    """(lo, hi, sym P, ||P - P^*||_F) for a finite square defect P, with
    lo <= d <= hi for the bound d = max|eig(sym P)| + ||P - P^*||_F / 2
    that metric_classify computes with an eigen-solve.

    The diagonal entries of sym P are Rayleigh quotients, so
    max|diag(sym P)| <= max|eig(sym P)| <= ||sym P||_F.  Both ends are
    widened by 32 (n + 1) u (||sym P||_F + ||P - P^*||_F), u the unit
    roundoff: the Hermitian eigen-solve is backward stable, its eigenvalues
    within a small multiple of (n + 1) u ||sym P||_2 of the exact ones, and
    the slack also covers the rounding of the norms and of the sums, so
    the bracket holds for the computed d.  A non-finite norm gives NaN
    ends, which decide nothing.
    """
    Ph = P.conj().T
    skew = float(np.linalg.norm(P - Ph))
    Hs = (P + Ph) / 2.0
    fro = float(np.linalg.norm(Hs))
    if not (np.isfinite(fro) and np.isfinite(skew)):
        return np.nan, np.nan, Hs, skew
    slack = 32.0 * (P.shape[0] + 1) * _UNIT_ROUNDOFF * (fro + skew)
    diag = float(np.max(np.abs(np.diagonal(Hs)), initial=0.0))
    return diag + skew / 2.0 - slack, fro + skew / 2.0 + slack, Hs, skew


def _bracketed_metric_class(M, primal, dual, tol):
    """metric_classify's verdict when norm brackets of the defects and one
    Cholesky factorization settle it, else None.

    A defect whose bracket lies within metric_tol is zero, one whose
    bracket lies above _frobenius_scale_bound is nonzero, at every scale
    the eigen-solve route could use.  With both defects nonzero,
    _cholesky_accepts on the primal defect proves the CONTRACTION that
    route's is_psd test would return; its skew limit of 1e-10 also keeps
    that route's Hermitian guard from refusing.  A non-finite defect is
    left to the eigen-solve route, which refuses it.
    """
    if not (np.all(np.isfinite(primal)) and np.all(np.isfinite(dual))):
        return None
    # the norms run in the order of the eigen-solve route's
    brackets = [_defect_bracket(P) for P in (primal, dual)]
    upper = _frobenius_scale_bound(M, tol)
    zero = []
    for lo, hi, _, _ in brackets:
        if hi <= tol.metric_tol:
            zero.append(True)
        elif lo > upper:
            zero.append(False)
        else:
            return None
    verdict = _zero_defect_class(*zero)
    _, _, sym_primal, skew_primal = brackets[0]
    if verdict is None and _sym_cholesky_accepts(sym_primal, skew_primal, tol):
        return MetricClass.CONTRACTION
    return verdict


def _zero_defect_class(iso, coiso):
    """The class settled by which defects are zero, None when neither is."""
    if iso and coiso:
        return MetricClass.UNITARY
    if iso:
        return MetricClass.ISOMETRY
    if coiso:
        return MetricClass.COISOMETRY
    return None


def _psd_slack_ok(w, tol):
    return w.size == 0 or bool(
        w[0] >= -tol.psd_tol * max(1.0, _spectral_radius(w)))


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


def _cholesky_accepts(H, tol):
    """Whether one Cholesky factorization proves H positive semidefinite
    within the slack of is_psd, for a validated square H.

    Accepts when ||H - H^*||_F <= 1e-10, X = sym H + (psd_tol/2) I factors,
    and (n + 1) u tr(X) <= psd_tol / 4, u the unit roundoff.  A completed
    Cholesky factorization R^H R = X + Delta X of an n x n matrix has
    |Delta X| <= gamma_(n+1) |R^H| |R| (Demmel; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10), and
    || |R^H| |R| ||_2 <= ||R||_F^2 = tr(X + Delta X), so the trace
    condition keeps ||Delta X||_2 at about psd_tol / 4.  As X + Delta X is
    semidefinite, lambda_min(sym H) >= -psd_tol/2 - ||Delta X||_2, about
    -3/4 psd_tol.  The eigenvalue test of is_psd accepts
    w_min >= -psd_tol * max(1, max|w|), at least -psd_tol, and its
    Hermitian guard allows 1e-10 * max(1, max|w|), at least 1e-10, so it
    accepts every matrix accepted here; the last quarter of psd_tol
    absorbs the larger constants of complex rounding and the error of the
    eigen-solve.
    """
    if H.shape[0] == 0:
        return False
    Hh = H.conj().T
    return _sym_cholesky_accepts((H + Hh) / 2.0, float(np.linalg.norm(H - Hh)), tol)


def _sym_cholesky_accepts(Hs, skew, tol):
    """_cholesky_accepts from the symmetrized part Hs = sym H and the
    skew norm ||H - H^*||_F of a nonempty H."""
    if not skew <= 1e-10:
        return False
    shifted = Hs + (tol.psd_tol / 2.0) * np.eye(Hs.shape[0])
    return _cholesky_within(shifted, tol.psd_tol / 4.0)


def _cholesky_within(X, margin):
    """Whether LAPACK zpotrf factors the nonempty Hermitian X with
    (n + 1) u tr(X) <= margin, which keeps the backward error of the
    factorization at about margin in the 2-norm (see _cholesky_accepts).
    """
    _, info = zpotrf(X, lower=1, clean=0)
    if info:
        return False
    trace = float(np.real(np.trace(X)))
    return (X.shape[0] + 1) * _UNIT_ROUNDOFF * trace <= margin


def is_psd(H, tol=DEFAULT_TOL):
    """Positive semidefiniteness with slack psd_tol * max(1, ||H||).

    A Cholesky factorization decides the clearly semidefinite inputs; the
    rest take one eigen-solve.
    """
    H = as_matrix(H, name="psd input")
    if H.shape[0] == H.shape[1] and _cholesky_accepts(H, tol):
        return True
    return _psd_slack_ok(_hermitian_eig(H, name="psd input", rel=1e-10), tol)


@dataclass(frozen=True)
class IndefiniteSubspace:
    """Subspace of a signature space, held as a full-column-rank basis matrix."""

    ambient: SignatureSpace
    basis: np.ndarray

    def __post_init__(self):
        basis = as_matrix(self.basis, rows=self.ambient.dim, name="basis")
        object.__setattr__(self, "basis", basis)
        k = basis.shape[1]
        # ||V^*V - I||_F <= 1/2 puts every singular value in
        # [sqrt(1/2), sqrt(3/2)], which the rank test below accepts, so
        # orthonormal bases skip its SVD; a NaN norm still takes the SVD
        if k and not np.linalg.norm(basis.conj().T @ basis - np.eye(k)) <= 0.5:
            s = np.linalg.svd(basis, compute_uv=False)
            if s[-1] <= DEFAULT_TOL.rank_tol * max(1.0, s[0]):
                raise InputError("basis columns are numerically dependent")

    @classmethod
    def _orthonormal(cls, ambient, basis):
        """Subspace on a complex basis whose columns are orthonormal by
        construction, held as a read-only view without the checks of
        __post_init__: no copy, no finiteness scan, no ||V^*V - I||_F.

        The callers pass Schur vectors, the singular vectors of nullspace
        and column_space, their images under the unitary J, and Schur
        vectors times the block Arnoldi basis of colligation._krylov_basis
        on a block of the Schur form (colligation._schur_spans), each
        computed from validated finite matrices with ambient.dim rows.  The skipped test
        takes its SVD only when ||V^*V - I||_F exceeds 1/2.  Schur and
        singular vectors are orthonormal to a small multiple of n u, u the
        unit roundoff.  The Arnoldi basis is orthogonalized twice (CGS2)
        and keeps only blocks with singular values above rank_tol times its
        scale, so it loses orthogonality by about n u / rank_tol: below
        1e-4 at n = 40 and the default rank_tol, and at most 9.1e-7 as
        measured on the near-uncontrollable plants of the PBH tests.  The
        test could therefore not fire on these bases unless rank_tol is set
        below about 2 n u.
        """
        view = basis.view()
        view.setflags(write=False)
        space = object.__new__(cls)
        object.__setattr__(space, "ambient", ambient)
        object.__setattr__(space, "basis", view)
        return space

    @property
    def dim(self):
        return self.basis.shape[1]

    @property
    def gram(self):
        signs = self.ambient.signs
        g = self.basis.conj().T @ (signs[:, None] * self.basis)
        return (g + g.conj().T) / 2.0


class SubspaceKind(str, Enum):
    """Metric type of a subspace, from the inertia of its Gram matrix."""

    HILBERT = "hilbert"
    ANTIHILBERT = "antihilbert"
    REGULAR = "regular"
    DEGENERATE = "degenerate"


def subspace_classify(space, tol=DEFAULT_TOL):
    """Classify a subspace by the inertia of its Gram matrix.

    The zero subspace counts as hilbert.  Regular means invertible Gram of
    mixed sign; degenerate means a numerically singular Gram.  A clearly
    definite Gram is recognized by one Cholesky factorization, every
    other one takes the eigen-solve of inertia.
    """
    G = space.gram
    if _clearly_definite(G, tol):
        return SubspaceKind.HILBERT if G[0, 0].real > 0 else SubspaceKind.ANTIHILBERT
    n_plus, n_zero, n_minus = inertia(G, tol)
    if n_zero > 0:
        return SubspaceKind.DEGENERATE
    if n_minus == 0:
        return SubspaceKind.HILBERT
    if n_plus == 0:
        return SubspaceKind.ANTIHILBERT
    return SubspaceKind.REGULAR


def _clearly_definite(G, tol):
    """Whether one Cholesky factorization proves the exactly Hermitian
    nonempty Gram G definite, of the sign of G[0, 0], far beyond the zero
    cut of inertia.

    With c = psd_tol * max(1, ||G||_F), which is at least the cut
    psd_tol * max(1, max|eig|) of inertia, zpotrf must factor
    X = +-G - 2c I with (k + 1) u tr(X) <= c/4.  The backward error of
    the factorization is then about c/4 (see _cholesky_accepts), so
    lambda_min(+-G) >= 7/4 c.  As tr(X) + 2c >= ||G||_2 for a definite X,
    the trace condition also keeps the rounding of the eigen-solve of
    inertia, a small multiple of (k + 1) u ||G||_2, near c/4: every
    computed eigenvalue of +-G lies beyond the cut, and inertia would
    return the same kind.  A non-finite Gram is left to inertia, which refuses it.
    """
    k = G.shape[0]
    if k == 0:
        return False
    c = tol.psd_tol * max(1.0, float(np.linalg.norm(G)))
    if not np.isfinite(c):
        return False
    sign = 1.0 if G[0, 0].real > 0 else -1.0
    return _cholesky_within(sign * G - (2.0 * c) * np.eye(k), c / 4.0)


def j_complement(space, tol=DEFAULT_TOL):
    """Metric-orthogonal complement of a regular subspace.

    The ambient space splits as a direct sum with the complement; the
    dimensions add up to the ambient dimension.
    """
    kind = subspace_classify(space, tol)
    if kind == SubspaceKind.DEGENERATE:
        raise NonRegularSubspaceError("complement of a degenerate subspace is not direct")
    basis = orthocomplement_basis(space, tol)
    return IndefiniteSubspace._orthonormal(space.ambient, basis)


def orthocomplement_basis(space, tol=DEFAULT_TOL):
    """Basis of the metric-orthogonal annihilator {x : V* J x = 0}.

    Defined for every subspace; for a degenerate one it meets the subspace.
    """
    V = space.basis
    signs = space.ambient.signs
    if V.shape[1] == 0:
        return np.eye(space.ambient.dim, dtype=np.complex128)
    return nullspace(V.conj().T * signs[None, :], tol)


def psd_factor(M, tol=DEFAULT_TOL):
    """Full-column-rank E with E E* = M for positive semidefinite M.

    Eigenvalues in [-psd_tol * scale, 0) are clamped to zero; anything
    below that raises, since the input was not semidefinite.
    """
    w, V = _hermitian_eig(M, name="psd_factor input", rel=1e-10, vectors=True)
    if w.size == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    cut = tol.psd_tol * max(1.0, _spectral_radius(w))
    if w[0] < -cut:
        raise IndefiniteDefectError(
            f"matrix has a negative eigenvalue {w[0]:.3e} beyond psd slack")
    keep = w > cut
    return V[:, keep] * np.sqrt(w[keep])[None, :]


def eig_hermitian(H):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""
    return _hermitian_eig(H, name="eig_hermitian input", rel=1e-10, vectors=True)


class SpectralRegion(str, Enum):
    INSIDE_OPEN_DISC = "inside_open_disc"
    OUTSIDE_CLOSED_DISC = "outside_closed_disc"
    MODULUS_ONE_BAND = "modulus_one_band"


class _DiscSchur:
    """Complex Schur form A = Z T Z^H with its eigenvalues placed on the disc.

    A comes through as_matrix, so it is finite.  T, Z and the eigenvalues,
    the diagonal of T, are read-only.  regions(band) places the eigenvalues
    on the disc, and reordered() brings any selection to the leading block
    with LAPACK ztrsen, so every spectral subspace of A comes from this one
    Schur form.
    """

    def __init__(self, A):
        self.T, self.Z = (sla.schur(A, output="complex", check_finite=False)
                          if A.size else (np.zeros((0, 0), complex),) * 2)
        self.eigenvalues = np.diag(self.T)
        self.T.flags.writeable = self.Z.flags.writeable = False

    @cached_property
    def poles(self):
        """Reciprocals of the eigenvalues above 1e-14 in modulus, sorted."""
        lam = self.eigenvalues
        poles = np.sort_complex(1.0 / lam[np.abs(lam) > 1e-14])
        poles.flags.writeable = False
        return poles

    def regions(self, band):
        """Masks (near, inside, outside) of the eigenvalues within band of
        the unit circle, inside it and outside it."""
        mod = np.abs(self.eigenvalues)
        return np.abs(mod - 1.0) <= band, mod < 1.0 - band, mod > 1.0 + band

    def reordered(self, select):
        """(Z, k): a unitary Z whose first k columns span the A-invariant
        subspace of the selected eigenvalues."""
        k = int(np.count_nonzero(select))
        if k in (0, select.size):
            return self.Z, k
        _, Z, _, k, _, _, info = ztrsen(select, self.T, self.Z, job="N")
        if info:
            raise np.linalg.LinAlgError("Schur reordering failed")
        return Z, k


def spectral_subspace(A, space, region, tol=DEFAULT_TOL, on_boundary="error"):
    """Invariant subspace for the eigenvalues of A in a disc region.

    Generalized eigenvectors are included, so the dimension is the total
    algebraic multiplicity.  Eigenvalues within metric_tol of the unit
    circle are ambiguous for the disc regions: with on_boundary="error"
    they raise, with "exclude" they are assigned to neither side.
    """
    signs = metric_signs(space)
    A = as_matrix(A, rows=signs.size, cols=signs.size, name="operator")
    try:
        region = SpectralRegion(region)
    except ValueError:
        raise InputError(f"unknown spectral region {region!r}") from None
    if on_boundary not in ("error", "exclude"):
        raise InputError("on_boundary must be 'error' or 'exclude'")

    if A.size == 0:
        return IndefiniteSubspace(_as_space(space), np.zeros((0, 0), np.complex128))

    form = _DiscSchur(A)
    near, inside, outside = form.regions(tol.metric_tol)
    if (region != SpectralRegion.MODULUS_ONE_BAND and on_boundary == "error"
            and near.any()):
        raise AmbiguousSpectrumError(
            f"eigenvalue {form.eigenvalues[near][0]} lies within "
            f"{tol.metric_tol:g} of the unit circle")
    select = {SpectralRegion.INSIDE_OPEN_DISC: inside,
              SpectralRegion.OUTSIDE_CLOSED_DISC: outside,
              SpectralRegion.MODULUS_ONE_BAND: near}[region]
    Z, k = form.reordered(select)
    return IndefiniteSubspace._orthonormal(_as_space(space), Z[:, :k])


def _as_space(space):
    if isinstance(space, SignatureSpace):
        return space
    return SignatureSpace.from_signs(metric_signs(space))


def canonical_basis(space, tol=DEFAULT_TOL):
    """Metric-orthonormal basis of a regular subspace, positive columns first.

    Returns (W, signs) where W* J W = diag(signs) and signs is sorted with
    the +1 entries first.
    """
    V = space.basis
    if V.shape[1] == 0:
        return V.copy(), np.zeros(0)
    w, U = np.linalg.eigh(space.gram)
    if np.min(np.abs(w)) <= tol.rank_tol * max(1.0, float(np.max(np.abs(w)))):
        raise NonRegularSubspaceError("subspace is not regular; no metric basis")
    order = np.argsort(-np.sign(w), kind="stable")
    w = w[order]
    U = U[:, order]
    W = V @ (U / np.sqrt(np.abs(w))[None, :])
    return W, np.sign(w)


def nullspace(M, tol=DEFAULT_TOL):
    """Orthonormal basis of the numerical null space, rank cut at rank_tol."""
    M = as_matrix(M, name="nullspace input")
    if M.shape[0] == 0 or M.shape[1] == 0:
        return np.eye(M.shape[1], dtype=np.complex128)
    u, s, vh = np.linalg.svd(M)
    r = int(np.sum(s > tol.rank_tol * max(1.0, s[0])))
    return vh[r:].conj().T


def column_space(M, tol=DEFAULT_TOL):
    """Orthonormal basis of the numerical column space, rank cut at rank_tol."""
    M = as_matrix(M, name="column_space input")
    if M.shape[1] == 0 or M.shape[0] == 0:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > tol.rank_tol * max(1.0, s[0]))) if s.size else 0
    return u[:, :r]


def principal_angles(A, B, tol=DEFAULT_TOL):
    """Principal angles between the column spans of A and B (radians)."""
    QA = column_space(A, tol)
    QB = column_space(B, tol)
    if QA.shape[1] == 0 or QB.shape[1] == 0:
        return np.zeros(0)
    return sla.subspace_angles(QA, QB)


def intersect_spans(A, B, tol=DEFAULT_TOL):
    """Orthonormal basis of the intersection of two column spans."""
    QA = column_space(A, tol)
    QB = column_space(B, tol)
    if QA.shape[1] == 0 or QB.shape[1] == 0:
        return np.zeros((QA.shape[0], 0), dtype=np.complex128)
    ker = nullspace(np.hstack([QA, -QB]), tol)
    if ker.shape[1] == 0:
        return np.zeros((QA.shape[0], 0), dtype=np.complex128)
    return column_space(QA @ ker[: QA.shape[1]], tol)
