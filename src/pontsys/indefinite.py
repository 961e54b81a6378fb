"""Linear algebra over finite-dimensional spaces with an indefinite metric.

A space is described by a signature: a pattern of +1/-1 weights on the
coordinates.  The metric matrix J is the diagonal of that pattern, so
J = J* = J^(-1).  All adjoints, projections and classifications in this
module are taken with respect to such metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from . import _lapack
from ._lapack import zgees, zpotrf, ztrsen, ztrtri
from .exceptions import (
    DimensionMismatchError,
    IndefiniteDefectError,
    InputError,
    NonRegularSubspaceError,
    NotHermitianError,
    _fro,
    _norm2,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SignatureSpace",
    "IndefiniteSubspace",
    "Inertia",
    "MetricClass",
    "SubspaceKind",
    "as_matrix",
    "metric_signs",
    "j_adjoint",
    "metric_defects",
    "metric_classify",
    "inertia",
    "subspace_classify",
    "j_complement",
    "psd_factor",
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
    if arr.size and not np.isfinite(arr).all():
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


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


def _eigen(Hs, vectors=False):
    """(w, V): the ascending eigenvalues of an exactly Hermitian Hs and,
    with vectors, its orthonormal eigenvectors, else None."""
    return np.linalg.eigh(Hs) if vectors else (np.linalg.eigvalsh(Hs), None)


def _cut_inertia(w, skew, tol, name, rel):
    """(inertia, cut) of the ascending eigenvalues w of sym H at the zero
    cut psd_tol * max(1, max|w|), behind the Hermitian guard: H is refused
    with NotHermitianError when skew = ||H - H^*||_F > rel * max(1, max|w|).
    ||H - H^*||_F >= ||H - H^*||_2 and max|w| <= ||H||_2, so the guard
    refuses every H the spectral-norm test against max(1, ||H||_2) does."""
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if skew > rel * scale:
        raise NotHermitianError(f"{name} is not Hermitian within {rel:g} relative")
    cut = tol.psd_tol * scale
    return Inertia(np.sum(w > cut), np.sum(np.abs(w) <= cut), np.sum(w < -cut)), cut


def _cholesky(X, margin, inverse=False, upper=False):
    """(F, F^-1, ok): the lower Cholesky factor F F^H = X of a nonempty
    Hermitian X from one LAPACK zpotrf; with inverse its ztrtri inverse
    (F itself after a failed factorization), else None; and whether it
    completed with (n + 1) u tr(X) <= margin, u the unit roundoff, which
    keeps its backward error at about margin in the 2-norm (README rule
    1).  With upper, which needs inverse, F is the reversed upper factor:
    the lower one of X with rows and columns reversed, reversed back."""
    F, info = zpotrf(X[::-1, ::-1] if upper else X, lower=1, clean=1)
    Finv = None
    if inverse:
        Finv, info = (F, info) if info else ztrtri(F, lower=1)
    if upper:
        F, Finv = F[::-1, ::-1], Finv[::-1, ::-1]
    trace = float(np.trace(X).real)
    return F, Finv, not info and (X.shape[0] + 1) * _UNIT_ROUNDOFF * trace <= margin


def _hermitian_verdict(H, tol, name, rel, factor=False, upper=False):
    """(inertia, E, E^+): the inertia of sym H = (H + H^*)/2 at the zero
    cut psd_tol * max(1, max|eig|), and a factor pair (README rule 1).

    H is validated by as_matrix and refused by the guard of _cut_inertia;
    with rel None it is exactly Hermitian by construction, as a Gram
    matrix is, and is its own sym H, with no copy and no guard.  When the
    diagonal of sym H has one sign s, as a definite matrix's has, and
    ||H - H^*||_F <= rel * max(1, |d|) for its first entry d, which passes
    the guard too since |d| <= max|eig|, X = s sym H = F F^H takes one
    _cholesky, which with c = psd_tol * max(1, ||X||_F), (k + 1) u tr(X)
    <= c/4 and ||F^-1||_F^-2 >= 2c certifies lambda_min(X) >= 7/4 c, every
    eigenvalue beyond the cut: the inertia is (k, 0, 0), or (0, 0, k) for
    s = -1, with no eigen-solve.  Every other H takes one eigen-solve.

    (E, E^+) is (F, F^-1) whenever the factorization ran, certified or
    not, else (None, None).  With factor, which asks for psd_factor's pair
    E E^H = sym H, E^+ E = I, a negative diagonal takes no factorization,
    and the eigen route raises IndefiniteDefectError on an eigenvalue
    below the cut, else gives E = V diag(sqrt(w)), E^+ = diag(1/sqrt(w)) V^H
    on the eigenvalues w above the cut and their eigenvectors V.
    """
    exact = rel is None
    if exact:
        Hs, skew, rel = H, 0.0, 0.0
    else:
        H = as_matrix(H, name=name)
        if H.shape[0] != H.shape[1]:
            raise DimensionMismatchError(f"{name} must be square")
        Hh = H.conj().T
        Hs, skew = (H + Hh) / 2.0, _fro(H - Hh)
    n = Hs.shape[0]
    if n == 0:
        empty = np.zeros((0, 0), dtype=np.complex128)
        return Inertia(0, 0, 0), empty, empty
    F = Finv = None
    diagonal = Hs.diagonal().real
    positive = diagonal[0] > 0.0
    if skew <= rel * max(1.0, abs(diagonal[0])) and (
            diagonal.min() > 0.0 if positive else not factor and diagonal.max() < 0.0):
        X = Hs if positive else -Hs
        c = tol.psd_tol * max(1.0, _fro(X))
        F, Finv, ok = _cholesky(X, c / 4.0, True, upper)
        with np.errstate(over="ignore"):
            norm = _fro(Finv) if ok else 0.0
        if norm > 0.0 and 1.0 / (norm * norm) >= 2.0 * c:
            return (Inertia(n, 0, 0) if positive else Inertia(0, 0, n)), F, Finv
    if exact:
        as_matrix(Hs, name=name)  # refuses a non-finite Gram
    w, V = _eigen(Hs, factor)
    inertia, cut = _cut_inertia(w, skew, tol, name, rel)
    if not factor:
        return inertia, F, Finv
    if inertia.n_minus:
        raise IndefiniteDefectError(
            f"matrix has a negative eigenvalue {w[0]:.3e} beyond psd slack")
    keep = w > cut
    V, root = V[:, keep], np.sqrt(w[keep])[None, :]
    return inertia, V * root, (V / root).conj().T


def inertia(H, tol=DEFAULT_TOL):
    """Counts of positive, numerically zero and negative eigenvalues of H.

    The zero threshold is psd_tol scaled by max(1, ||H||).  Congruence
    transformations with well-conditioned factors preserve the result.
    A definite H may be certified by a Cholesky factor (README rule 1).
    """
    return _hermitian_verdict(H, tol, "inertia input", 1e-12)[0]


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
    return (_signs_minus(dom_s, Mh @ (cod_s[:, None] * M)),
            _signs_minus(cod_s, M @ (dom_s[:, None] * Mh)))


def _signs_minus(signs, X):
    """diag(signs) - X, formed in place in the square, C-contiguous X (a
    fresh product) that the caller gives up.  0 - X, not -X, keeps a zero
    entry +0, so every bit is that of the subtraction from np.diag(signs).
    The diagonal is a strided view of X's one flat buffer."""
    np.subtract(0.0, X, out=X)
    diagonal = X.reshape(-1)[::X.shape[0] + 1]
    diagonal += signs
    return X


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
    # the Frobenius bound of _defect_class reads M as an array
    M = as_matrix(M, name="operator")
    return _defect_class(M, *metric_defects(M, dom, cod), tol)


def _defect_class(M, primal, dual, tol):
    """metric_classify of M from its two defects, as metric_defects forms them."""
    verdict = _bracketed_metric_class(M, primal, dual, tol)
    if verdict is not None:
        return verdict
    spectra = []
    for P in (primal, dual):
        P = as_matrix(P)  # refuses a non-finite defect
        Ph = P.conj().T
        spectra.append((_eigen((P + Ph) / 2.0)[0], _fro(P - Ph)))
    (w, skew), (wd, skew_d) = spectra
    defects = (float(np.abs(w).max(initial=0.0)) + skew / 2.0,
               float(np.abs(wd).max(initial=0.0)) + skew_d / 2.0)
    upper = _frobenius_scale_bound(M, tol)
    if any(tol.metric_tol < d <= upper for d in defects):
        scale = max(1.0, _norm2(M) ** 2)
    else:
        scale = 1.0
    verdict = _zero_defect_class(*(d <= tol.metric_tol * scale for d in defects))
    if verdict is not None:
        return verdict
    # the contraction test is is_psd's eigen route on the primal eigenvalues
    if _cut_inertia(w, skew, tol, "psd input", 1e-10)[0].n_minus == 0:
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
    return tol.metric_tol * max(1.0, _fro(M) ** 2 * (1.0 + 1e-14))


def _defect_bracket(P):
    """(lo, hi) for a square defect P, with lo <= d <= hi for the
    bound d = max|eig(sym P)| + ||P - P^*||_F / 2 that metric_classify
    computes with an eigen-solve, from ||P||_F and Re diag P alone.

    The diagonal of sym P is Re diag P, and its entries are Rayleigh
    quotients, so max|Re p_ii| <= max|eig(sym P)| <= d.  sym P and
    (P - P^*)/2 are orthogonal parts of P, so with a = ||sym P||_F and
    b = ||P - P^*||_F / 2, a^2 + b^2 = ||P||_F^2 and
    d <= a + b <= sqrt(2) ||P||_F.  Both ends are widened by the slack
    s = 96 (n + 1) u ||P||_F, u the unit roundoff: the Hermitian
    eigen-solve is backward stable (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002), its eigenvalues within a small multiple
    of (n + 1) u ||sym P||_2 of the exact ones, a and b are at most
    ||P||_F, and the slack also covers the rounding of forming sym P, of
    the norms and of the sums, so the bracket holds for the computed d.
    ||P||_F is _fro's one BLAS dot over the real and imaginary parts of
    the entries.  A NaN or infinite ||P||_F, from a non-finite P or one
    whose norm overflows, gives ends that decide nothing: NaN, or -inf
    and inf.
    """
    fro = _fro(P)
    # Python floats, so that the NaN and infinite ends come without warnings
    slack = 96.0 * (P.shape[0] + 1) * float(_UNIT_ROUNDOFF) * fro
    diag = float(np.abs(P.diagonal().real).max(initial=0.0))
    return diag - slack, 2.0 ** 0.5 * fro + slack


def _bracketed_metric_class(M, primal, dual, tol):
    """metric_classify's verdict when norm brackets of the defects and one
    Cholesky factorization settle it, else None.

    A defect whose bracket lies within metric_tol is zero, one whose
    bracket lies above _frobenius_scale_bound is nonzero, at every scale
    the eigen-solve route could use.  With both defects nonzero,
    _cholesky_accepts on the primal defect proves the CONTRACTION that
    route's is_psd test would return; its skew limit of 1e-10 also keeps
    that route's Hermitian guard from refusing.  Only that test forms the
    symmetrized defect and the norm of its skew part.  A non-finite
    defect has a NaN or infinite ||P||_F, so its bracket decides nothing
    and it is left to the eigen-solve route, which refuses it.
    """
    upper = _frobenius_scale_bound(M, tol)
    zero = []
    for P in (primal, dual):
        lo, hi = _defect_bracket(P)
        if hi <= tol.metric_tol:
            zero.append(True)
        elif lo > upper:
            zero.append(False)
        else:
            return None
    verdict = _zero_defect_class(*zero)
    if verdict is None and _cholesky_accepts(primal, tol):
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


def _cholesky_accepts(H, tol):
    """Whether one Cholesky factorization proves H positive semidefinite
    within the slack of is_psd, for a validated square H: when
    ||H - H^*||_F <= 1e-10 and _cholesky factors X = sym H + (psd_tol/2) I
    within the margin psd_tol/4, lambda_min(sym H) >= -3/4 psd_tol, which
    the eigen route of is_psd, and its guard, accept (README rule 1)."""
    if H.shape[0] == 0:
        return False
    Hh = H.conj().T
    if not _fro(H - Hh) <= 1e-10:
        return False
    shifted = (H + Hh) / 2.0 + (tol.psd_tol / 2.0) * np.eye(H.shape[0])
    return _cholesky(shifted, tol.psd_tol / 4.0)[2]


def is_psd(H, tol=DEFAULT_TOL):
    """Positive semidefiniteness with slack psd_tol * max(1, ||H||).

    A Cholesky factorization decides the clearly semidefinite inputs; the
    rest take the verdict of inertia, with a Hermitian guard of 1e-10, and
    are semidefinite when no eigenvalue lies below the cut.
    """
    H = as_matrix(H, name="psd input")
    if H.shape[0] == H.shape[1] and _cholesky_accepts(H, tol):
        return True
    return _hermitian_verdict(H, tol, "psd input", 1e-10)[0].n_minus == 0


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
        if k and not _fro(basis.conj().T @ basis - np.eye(k)) <= 0.5:
            s = np.linalg.svd(basis, compute_uv=False)
            if s[-1] <= _rank_cut(s, DEFAULT_TOL):
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
    mixed sign; degenerate means a numerically singular Gram.  A Gram that
    one Cholesky factorization certifies definite takes no eigen-solve,
    and one whose diagonal has mixed signs takes no factorization
    (README rule 1).
    """
    return _subspace_kind(_hermitian_verdict(space.gram, tol, "Gram matrix", None)[0])


def _subspace_kind(inertia):
    """The SubspaceKind of a Gram matrix of the given inertia."""
    n_plus, n_zero, n_minus = inertia
    if n_zero > 0:
        return SubspaceKind.DEGENERATE
    if n_minus == 0:
        return SubspaceKind.HILBERT
    if n_plus == 0:
        return SubspaceKind.ANTIHILBERT
    return SubspaceKind.REGULAR


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
    below that raises, since the input was not semidefinite.  A matrix
    that one Cholesky factorization certifies definite beyond the cut,
    README rules 1, 3, returns its lower Cholesky factor, of full rank, with
    no eigen-solve; every other one returns V diag(sqrt(w)) on the
    eigenvalues w above the cut and their orthonormal eigenvectors V.
    """
    return _psd_factor(M, tol)[0]


def _psd_factor(M, tol):
    """(E, E^+): psd_factor of M and a left inverse of it, E^+ E = I, from
    _hermitian_verdict with a Hermitian guard of 1e-10: E = L, E^+ = L^-1
    on the Cholesky route, E^+ = diag(1/sqrt(w)) V^H on the eigen route."""
    return _hermitian_verdict(M, tol, "psd_factor input", 1e-10, factor=True)[1:]


def _no_selection(_):
    """zgees' eigenvalue selection callback, never called without sorting."""
    return 0


@lru_cache(maxsize=None)
def _gees_lwork(n):
    """The optimal zgees workspace at order n >= 1, from its lwork = -1
    query, which reads only n.  The query calls _lapack.zgees, not this
    module's name, so that a count of calls to the latter counts Schur
    forms."""
    work, info = _lapack.zgees(_no_selection, np.zeros((n, n), dtype=complex),
                               lwork=-1)[-2:]
    if info:
        raise np.linalg.LinAlgError(f"zgees workspace query failed (info {info})")
    return int(work[0].real)


class _DiscSchur:
    """Complex Schur form A = Z T Z^H with its eigenvalues placed on the disc.

    A comes through as_matrix, so it is finite.  T and Z come from one
    LAPACK zgees call with the workspace of its own size query, taken once
    per order (_gees_lwork), so they are bitwise those of
    scipy.linalg.schur(A, output="complex"), which makes the same two calls
    behind its argument checks; a nonzero info raises LinAlgError.  T, Z
    and the eigenvalues, the diagonal of T, are read-only.  regions(band)
    places the eigenvalues on the disc, and reordered() brings any
    selection to the leading block with LAPACK ztrsen, so every spectral
    subspace of A comes from this one Schur form.  An upper triangular A
    is its own form, Z = I, with no LAPACK call.
    """

    def __init__(self, A):
        n = A.shape[0]
        # a nonzero below the first diagonal entry settles a general A
        # without the scan of the whole lower triangle
        if A[1:, :1].any() or np.tril(A, -1).any():
            self.T, _, _, self.Z, _, info = zgees(_no_selection, A, lwork=_gees_lwork(n))
            if info:
                raise np.linalg.LinAlgError(
                    f"Schur form not found (zgees info {info})")
        else:
            self.T = np.asarray(A, dtype=complex).view()
            self.Z = np.eye(n, dtype=complex)
        self.eigenvalues = self.T.diagonal()
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
        return self.ordered(select)[1:]

    def ordered(self, select):
        """(T, Z, k): the Schur form A = Z T Z^H reordered so that the
        selected eigenvalues lead the diagonal of T, in its first k places."""
        k = int(np.count_nonzero(select))
        if k in (0, select.size):
            return self.T, self.Z, k
        T, Z, _, k, _, _, info = ztrsen(select, self.T, self.Z, job="N")
        if info:
            raise np.linalg.LinAlgError("Schur reordering failed")
        return T, Z, k


def canonical_basis(space, tol=DEFAULT_TOL):
    """Metric-orthonormal basis of a regular subspace, positive columns first.

    Returns (W, signs) where W* J W = diag(signs) and signs is sorted with
    the +1 entries first.
    """
    V = space.basis
    if V.shape[1] == 0:
        return V.copy(), np.zeros(0)
    w, U = np.linalg.eigh(space.gram)
    if np.min(np.abs(w)) <= _rank_cut(np.abs(w), tol):
        raise NonRegularSubspaceError("subspace is not regular; no metric basis")
    order = np.argsort(-np.sign(w), kind="stable")
    w = w[order]
    U = U[:, order]
    W = V @ (U / np.sqrt(np.abs(w))[None, :])
    return W, np.sign(w)


def _rank_cut(s, tol):
    """rank_tol * max(1, s_0), s_0 the largest of the singular values (or
    eigenvalue moduli) s along the last axis: the values above it make the
    numerical rank.  Every rank cut of that form is this one."""
    return tol.rank_tol * np.maximum(1.0, np.max(s, axis=-1, initial=0.0))


def nullspace(M, tol=DEFAULT_TOL):
    """Orthonormal basis of the numerical null space, rank cut at rank_tol;
    only a wide M needs the full V^H of its SVD."""
    M = as_matrix(M, name="nullspace input")
    if M.shape[0] == 0 or M.shape[1] == 0:
        return np.eye(M.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    r = int(np.sum(s > _rank_cut(s, tol)))
    return vh[r:].conj().T


def column_space(M, tol=DEFAULT_TOL):
    """Orthonormal basis of the numerical column space, rank cut at rank_tol."""
    M = as_matrix(M, name="column_space input")
    if M.shape[1] == 0 or M.shape[0] == 0:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > _rank_cut(s, tol)))
    return u[:, :r]


def principal_angles(A, B, tol=DEFAULT_TOL):
    """Principal angles between the column spans of A and B (radians)."""
    import scipy.linalg  # here, not at start-up: see _lapack
    QA = column_space(A, tol)
    QB = column_space(B, tol)
    if QA.shape[1] == 0 or QB.shape[1] == 0:
        return np.zeros(0)
    return scipy.linalg.subspace_angles(QA, QB)


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
