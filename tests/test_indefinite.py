"""Tests for the signature-metric linear algebra core."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from pontsys import indefinite, sampling
from pontsys.colligation import system_operator
from pontsys.exceptions import (
    AmbiguousSpectrumError,
    IndefiniteDefectError,
    InputError,
    NonRegularSubspaceError,
    NotHermitianError,
    PontsysError,
)
from pontsys.indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    MetricClass,
    SignatureSpace,
    SpectralRegion,
    SubspaceKind,
    Tolerances,
    as_matrix,
    canonical_basis,
    column_space,
    eig_hermitian,
    inertia,
    intersect_spans,
    is_psd,
    j_adjoint,
    j_complement,
    metric_classify,
    metric_defects,
    nullspace,
    orthocomplement_basis,
    principal_angles,
    psd_factor,
    spectral_subspace,
    subspace_classify,
)

from _builders import same_span, spy_attr


def random_invertible(rng, n, cond_bound=50.0):
    # conditioning guard keeps congruence numerically faithful
    while True:
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sv = np.linalg.svd(S, compute_uv=False)
        if sv[0] / sv[-1] < cond_bound:
            return S


def random_j_unitary(rng, signs, steps=6):
    """Product of plane rotations: unitary on equal signs, hyperbolic across."""
    n = len(signs)
    U = np.eye(n, dtype=complex)
    for _ in range(steps):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        G = np.eye(n, dtype=complex)
        phase = np.exp(2j * np.pi * rng.random())
        if signs[i] == signs[j]:
            t = rng.random() * 2 * np.pi
            G[i, i] = np.cos(t)
            G[j, j] = np.cos(t)
            G[i, j] = -np.sin(t) * phase
            G[j, i] = np.sin(t) * np.conj(phase)
        else:
            t = rng.random() * 0.7
            G[i, i] = np.cosh(t)
            G[j, j] = np.cosh(t)
            G[i, j] = np.sinh(t) * phase
            G[j, i] = np.sinh(t) * np.conj(phase)
        U = G @ U
    return U


class TestSignatureSpace:
    def test_metric_matrix(self):
        sp = SignatureSpace(2, 1)
        assert np.allclose(sp.J, np.diag([1, 1, -1]))
        assert sp.J.shape == (3, 3)
        assert np.allclose(sp.J @ sp.J, np.eye(3))

    def test_pattern_roundtrip(self):
        sp = SignatureSpace.from_signs([1, -1, 1])
        assert (sp.pos, sp.neg) == (2, 1)
        assert np.allclose(sp.J, np.diag([1, -1, 1]))
        perm = sp.canonical_permutation()
        assert np.allclose(sp.signs[perm], [1, 1, -1])

    def test_canonical_signs_need_no_pattern(self):
        assert SignatureSpace.from_signs([1, 1, -1]).pattern is None

    def test_invalid_pattern_rejected(self):
        with pytest.raises(InputError):
            SignatureSpace(1, 1, pattern=(1, 2))
        with pytest.raises(InputError):
            SignatureSpace(2, 0, pattern=(1, -1))

    def test_tolerances_validated(self):
        with pytest.raises(InputError):
            Tolerances(rank_tol=0.0)
        with pytest.raises(InputError):
            Tolerances(disc_samples=0)


class TestInnerAndAdjoint:
    def test_adjoint_example(self):
        sp = SignatureSpace(1, 1)
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(j_adjoint(M, sp, sp), expected)

    def test_adjoint_involutive_and_pairing(self):
        rng = np.random.default_rng(3)
        dom = SignatureSpace(2, 1)
        cod = SignatureSpace(1, 2)
        for _ in range(20):
            M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            Ms = j_adjoint(M, dom, cod)
            assert np.allclose(j_adjoint(Ms, cod, dom), M)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            # the pairing y* J x of each space
            assert np.vdot(y, cod.signs * (M @ x)) == pytest.approx(
                np.vdot(Ms @ y, dom.signs * x))

    def test_adjoint_reverses_products(self):
        rng = np.random.default_rng(7)
        a = SignatureSpace(2, 1)
        b = SignatureSpace(1, 1)
        c = SignatureSpace(2, 2)
        M = rng.standard_normal((b.dim, a.dim)) + 0j
        N = rng.standard_normal((c.dim, b.dim)) + 0j
        assert np.allclose(j_adjoint(N @ M, a, c),
                           j_adjoint(M, a, b) @ j_adjoint(N, b, c))


class TestInertia:
    def test_diagonal_example(self):
        assert tuple(inertia(np.diag([2.0, -3.0, 0.0]))) == (1, 1, 1)

    def test_empty(self):
        assert tuple(inertia(np.zeros((0, 0)))) == (0, 0, 0)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = rng.integers(1, 13)
            d = rng.choice([-1.0, 1.0, 2.5, -0.5], size=n)
            H = np.diag(d)
            S = random_invertible(rng, n)
            got = inertia(S.conj().T @ H @ S)
            want = inertia(H)
            assert tuple(got) == tuple(want)


class TestMetricClassify:
    def test_scaled_identity_contraction(self):
        sp = SignatureSpace(2, 0)
        assert metric_classify(0.5 * np.eye(2), sp, sp) == MetricClass.CONTRACTION

    def test_identity_unitary(self):
        sp = SignatureSpace(1, 1)
        assert metric_classify(np.eye(2), sp, sp) == MetricClass.UNITARY

    def test_hyperbolic_rotation_unitary(self):
        sp = SignatureSpace(1, 1)
        t = 0.83
        M = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
        assert metric_classify(M, sp, sp) == MetricClass.UNITARY

    def test_isometry_into_larger_space(self):
        dom = SignatureSpace(1, 0)
        cod = SignatureSpace(2, 0)
        M = np.array([[1.0], [0.0]])
        assert metric_classify(M, dom, cod) == MetricClass.ISOMETRY
        assert metric_classify(M.T, cod, dom) == MetricClass.COISOMETRY

    def test_expansion_is_none(self):
        sp = SignatureSpace(2, 0)
        assert metric_classify(2.0 * np.eye(2), sp, sp) == MetricClass.NONE

    def test_unitary_closed_under_adjoint(self):
        rng = np.random.default_rng(19)
        sp = SignatureSpace(2, 2)
        signs = sp.signs
        for _ in range(15):
            U = random_j_unitary(rng, signs)
            assert metric_classify(U, sp, sp) == MetricClass.UNITARY
            assert metric_classify(j_adjoint(U, sp, sp), sp, sp) == MetricClass.UNITARY

    def test_unitary_defects_vanish(self):
        sp = SignatureSpace(1, 1)
        t = 0.4
        M = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
        primal, dual = metric_defects(M, sp, sp)
        assert np.linalg.norm(primal) < 1e-12
        assert np.linalg.norm(dual) < 1e-12


class TestSubspaces:
    def test_neutral_vector_degenerate(self):
        sp = SignatureSpace(1, 1)
        S = IndefiniteSubspace(sp, np.array([[1.0], [1.0]]))
        assert subspace_classify(S) == SubspaceKind.DEGENERATE

    def test_kinds(self):
        sp = SignatureSpace(1, 1)
        e1 = IndefiniteSubspace(sp, np.array([[1.0], [0.0]]))
        e2 = IndefiniteSubspace(sp, np.array([[0.0], [1.0]]))
        both = IndefiniteSubspace(sp, np.eye(2))
        assert subspace_classify(e1) == SubspaceKind.HILBERT
        assert subspace_classify(e2) == SubspaceKind.ANTIHILBERT
        assert subspace_classify(both) == SubspaceKind.REGULAR

    def test_zero_subspace_is_hilbert(self):
        sp = SignatureSpace(1, 1)
        S = IndefiniteSubspace(sp, np.zeros((2, 0)))
        assert subspace_classify(S) == SubspaceKind.HILBERT

    def test_rank_deficient_basis_rejected(self):
        sp = SignatureSpace(2, 0)
        with pytest.raises(InputError):
            IndefiniteSubspace(sp, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_complement_of_degenerate_raises(self):
        # a neutral line has no metric-orthogonal direct complement
        sp = SignatureSpace(1, 1)
        S = IndefiniteSubspace(sp, np.array([[1.0], [1.0]]))
        with pytest.raises(NonRegularSubspaceError):
            j_complement(S)

    def test_complement_dimensions_add(self):
        sp = SignatureSpace(2, 1)
        S = IndefiniteSubspace(sp, np.array([[1.0, 0], [0, 1.0], [0, 0]]))
        C = j_complement(S)
        assert S.dim + C.dim == sp.dim
        # complement vectors are metric-orthogonal to the subspace
        cross = S.basis.conj().T @ (sp.signs[:, None] * C.basis)
        assert np.linalg.norm(cross) < 1e-10

    def test_annihilator_of_degenerate_exists(self):
        sp = SignatureSpace(1, 1)
        S = IndefiniteSubspace(sp, np.array([[1.0], [1.0]]))
        N = orthocomplement_basis(S)
        assert N.shape[1] == 1
        # for a neutral line the annihilator contains the line itself
        assert same_span(N, S.basis)

    def test_canonical_basis_gram(self):
        rng = np.random.default_rng(2)
        sp = SignatureSpace(2, 2)
        for _ in range(10):
            V = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            S = IndefiniteSubspace(sp, V)
            if subspace_classify(S) != SubspaceKind.REGULAR:
                continue
            W, signs = canonical_basis(S)
            G = W.conj().T @ (sp.signs[:, None] * W)
            assert np.allclose(G, np.diag(signs), atol=1e-9)
            assert same_span(W, V)
            # positive columns come first
            assert list(signs) == sorted(signs, reverse=True)


def _old_rank_accepts(basis):
    """The basis rank test as it was: one SVD of every basis."""
    if not basis.shape[1]:
        return True
    s = np.linalg.svd(basis, compute_uv=False)
    return not s[-1] <= DEFAULT_TOL.rank_tol * max(1.0, s[0])


def _orthonormal(rng, n, k):
    X = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return np.linalg.qr(X)[0]


class TestSubspaceRankCheck:
    """A basis with ||V^*V - I||_F <= 1/2 skips the rank SVD; every basis
    gets the verdict of the old SVD test and is stored as given."""

    def bases(self):
        rng = np.random.default_rng(41)
        out = []
        # planted sigma_min / sigma_max at three scales
        for scale in (1e-3, 1.0, 1e3):
            for ratio in (1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
                for k in (2, 5):
                    sigmas = scale * np.geomspace(1.0, ratio, k)
                    out.append((_orthonormal(rng, 8, k) * sigmas)
                               @ _orthonormal(rng, k, k))
        # orthonormal bases, scaled
        for scale in np.geomspace(1e-3, 1e3, 7):
            out.append(scale * _orthonormal(rng, 6, 3))
        # both sides of the threshold: ||V^*V - I||_F = t
        for t in (0.3, 0.49, 0.499, 0.501, 0.51, 0.7):
            d = t * np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
            out.append(_orthonormal(rng, 6, 3) * np.sqrt(1.0 + d))
        out.append(np.hstack([out[-1], out[-1][:, :1]]))
        return out

    def test_verdict_matches_the_svd_test(self):
        sp = SignatureSpace(4, 4)
        sp6 = SignatureSpace(3, 3)
        verdicts = []
        for basis in self.bases():
            space = sp if basis.shape[0] == 8 else sp6
            try:
                sub = IndefiniteSubspace(space, basis)
            except InputError:
                accepted = False
            else:
                accepted = True
                assert np.array_equal(sub.basis, basis)
            assert accepted == _old_rank_accepts(basis)
            verdicts.append(accepted)
        assert any(verdicts) and not all(verdicts)

    def test_orthonormal_bases_skip_the_svd(self, monkeypatch):
        rng = np.random.default_rng(43)
        sp = SignatureSpace(3, 3)
        M = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 6))
        near = _orthonormal(rng, 6, 3) * np.sqrt(1.0 + 0.49 / np.sqrt(3.0))
        far = _orthonormal(rng, 6, 3) * np.sqrt(1.0 + 0.51 / np.sqrt(3.0))
        skipped = [column_space(M), nullspace(M), _orthonormal(rng, 6, 2),
                   near]
        checked = [2.0 * _orthonormal(rng, 6, 2), far]
        calls = []
        real = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for basis in skipped:
            IndefiniteSubspace(sp, basis)
        assert calls == []
        for basis in checked:
            IndefiniteSubspace(sp, basis)
        assert len(calls) == len(checked)


class TestOrthonormalConstructor:
    """IndefiniteSubspace._orthonormal holds a basis the library built
    orthonormal as a read-only view, with no copy and no check."""

    def test_basis_is_a_read_only_view_and_unchecked(self, monkeypatch):
        rng = np.random.default_rng(45)
        sp = SignatureSpace(3, 3)
        Q = _orthonormal(rng, 6, 3)
        svd = spy_attr(monkeypatch, np.linalg, "svd")
        norms = spy_attr(monkeypatch, np.linalg, "norm")
        sub = IndefiniteSubspace._orthonormal(sp, Q)
        assert svd == [] and norms == []
        assert np.shares_memory(sub.basis, Q) and not sub.basis.flags.writeable
        assert Q.flags.writeable
        assert sub.ambient is sp and sub.dim == 3

    def test_library_subspaces_are_read_only(self):
        rng = np.random.default_rng(46)
        sp = SignatureSpace(4, 2)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        inside = spectral_subspace(A, sp, "inside_open_disc", on_boundary="exclude")
        complement = j_complement(IndefiniteSubspace(sp, _orthonormal(rng, 6, 2)))
        for sub in (inside, complement):
            assert not sub.basis.flags.writeable
            assert sub.basis.shape[0] == 6

    @pytest.mark.parametrize("space", [SignatureSpace(3, 2),
                                       SignatureSpace.from_signs([1, -1, 1])])
    def test_signs_are_computed_once_and_read_only(self, space):
        signs = space.signs
        assert space.signs is signs
        assert not signs.flags.writeable
        assert signs.dtype == np.float64
        assert np.array_equal(np.diag(space.J).real, signs)


class TestFactorizations:
    def test_psd_factor_reconstructs(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = rng.integers(1, 9)
            r = rng.integers(0, n + 1)
            E0 = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            M = E0 @ E0.conj().T
            E = psd_factor(M)
            assert np.allclose(E @ E.conj().T, M, atol=1e-8 * max(1, np.linalg.norm(M)))
            assert E.shape[1] == np.linalg.matrix_rank(M, tol=1e-9 * max(1, np.linalg.norm(M, 2)))

    def test_psd_factor_rejects_indefinite(self):
        with pytest.raises(IndefiniteDefectError):
            psd_factor(np.diag([1.0, -1.0]))

    def test_psd_factor_clamps_noise(self):
        M = np.diag([1.0, -1e-12])
        E = psd_factor(M)
        assert E.shape[1] == 1

    def test_eig_hermitian_reconstructs(self):
        rng = np.random.default_rng(41)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        H = (A + A.conj().T) / 2
        w, V = eig_hermitian(H)
        assert np.allclose(V @ np.diag(w) @ V.conj().T, H, atol=1e-10)


# The Hermitian guard before the single eigen-solve certificate: two
# spectral norms, ||H - H^*||_2 > rel * max(1, ||H||_2).  Kept as the
# reference the certificate must never be looser than.
def _old_symmetrized(H, rel):
    H = np.asarray(H, dtype=complex)
    if H.size and np.linalg.norm(H - H.conj().T, 2) > rel * max(
            1.0, float(np.linalg.norm(H, 2))):
        raise NotHermitianError("not Hermitian")
    return (H + H.conj().T) / 2.0


def _old_inertia(H, tol=DEFAULT_TOL):
    H = _old_symmetrized(H, 1e-12)
    if H.size == 0:
        return (0, 0, 0)
    w = np.linalg.eigvalsh(H)
    cut = tol.psd_tol * max(1.0, float(np.max(np.abs(w))))
    return (int(np.sum(w > cut)), int(np.sum(np.abs(w) <= cut)),
            int(np.sum(w < -cut)))


def _old_is_psd(H, tol=DEFAULT_TOL):
    H = _old_symmetrized(H, 1e-10)
    if H.size == 0:
        return True
    w = np.linalg.eigvalsh(H)
    return bool(w[0] >= -tol.psd_tol * max(1.0, float(np.max(np.abs(w)))))


def _old_psd_factor(M, tol=DEFAULT_TOL):
    M = _old_symmetrized(M, 1e-10)
    if M.size == 0:
        return np.zeros((0, 0), dtype=complex)
    w, V = np.linalg.eigh(M)
    cut = tol.psd_tol * max(1.0, float(np.max(np.abs(w))))
    if w[0] < -cut:
        raise IndefiniteDefectError("indefinite")
    keep = w > cut
    return V[:, keep] * np.sqrt(w[keep])[None, :]


def _old_eig_hermitian(H):
    return np.linalg.eigh(_old_symmetrized(H, 1e-10))


def _old_metric_classify(M, dom, cod, tol=DEFAULT_TOL):
    primal, dual = metric_defects(M, dom, cod)
    scale = max(1.0, float(np.linalg.norm(M, 2)) ** 2) if M.size else 1.0
    iso = np.linalg.norm(primal, 2) <= tol.metric_tol * scale if primal.size else True
    coiso = np.linalg.norm(dual, 2) <= tol.metric_tol * scale if dual.size else True
    if iso and coiso:
        return MetricClass.UNITARY
    if iso:
        return MetricClass.ISOMETRY
    if coiso:
        return MetricClass.COISOMETRY
    if _old_is_psd(primal, tol):
        return MetricClass.CONTRACTION
    return MetricClass.NONE


def _outcome(fn, *args):
    """Result of fn, or the exception type it raised."""
    try:
        return fn(*args)
    except (NotHermitianError, IndefiniteDefectError) as exc:
        return type(exc)


def _random_hermitian(rng, n, scale):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (X + X.conj().T) / 2.0


def _random_skew(rng, n, rank_one):
    if rank_one:
        u = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
        return 1j * (u @ u.conj().T)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (X - X.conj().T) / 2.0


class TestHermitianCertificate:
    """The single eigen-solve certificate against the two-norm guard."""

    SIZES = (1, 2, 5, 12, 40)
    # skew parts planted at these multiples of the old guard's bound
    FACTORS = (0.1, 0.5, 0.9, 1.1, 2.0, 10.0)

    def planted(self, rel):
        """Seeded Hermitian matrices with skew parts around the old bound:
        small and large scales, full-rank and rank-one skew parts."""
        rng = np.random.default_rng(2024)
        for n in self.SIZES:
            for scale in (1e-3, 1.0, 1e3):
                for rank_one in (False, True):
                    H0 = _random_hermitian(rng, n, scale)
                    K = _random_skew(rng, n, rank_one)
                    unit = rel * max(1.0, np.linalg.norm(H0, 2)) / (
                        2.0 * np.linalg.norm(K, 2))
                    for factor in self.FACTORS:
                        yield H0 + factor * unit * K

    @pytest.mark.parametrize("rel, checks", [
        (1e-12, (inertia,)),
        (1e-10, (is_psd, psd_factor, eig_hermitian)),
    ])
    def test_never_looser_than_the_spectral_guard(self, rel, checks):
        refused = 0
        for H in self.planted(rel):
            try:
                _old_symmetrized(H, rel)
            except NotHermitianError:
                refused += 1
                for check in checks:
                    with pytest.raises(NotHermitianError):
                        check(H)
        # the planted families straddle the bound
        assert 0 < refused < len(list(self.planted(rel)))

    def test_identical_results_on_hermitian_inputs(self):
        rng = np.random.default_rng(77)
        for n in self.SIZES:
            for _ in range(4):
                H = _random_hermitian(rng, n, 10.0 ** rng.integers(-3, 4))
                E = rng.standard_normal((n, n // 2)) + 1j * rng.standard_normal(
                    (n, n // 2))
                # Hermitian up to rounding only, and a semidefinite one
                S = random_invertible(rng, n)
                for M in (H, S.conj().T @ H @ S, E @ E.conj().T):
                    assert tuple(inertia(M)) == _old_inertia(M)
                    assert is_psd(M) == _old_is_psd(M)
                    got, want = _outcome(psd_factor, M), _outcome(_old_psd_factor, M)
                    if isinstance(want, type):
                        assert got is want
                    else:
                        assert np.array_equal(got, want)
                    for a, b in zip(eig_hermitian(M), _old_eig_hermitian(M)):
                        assert np.array_equal(a, b)

    def test_metric_classify_verdicts_unchanged(self):
        rng = np.random.default_rng(99)
        seen = set()
        for pos, neg in ((1, 0), (3, 1), (6, 2), (12, 3), (32, 8)):
            sp = SignatureSpace(pos, neg)
            signs = sp.signs
            for _ in range(3):
                U = sampling.random_j_unitary(rng, sp)
                # isometries drop metric-orthonormal columns, coisometries rows
                keep = np.concatenate([np.arange(pos - 1 if pos > 1 else pos),
                                       np.arange(pos, pos + neg)])
                sub = signs[keep]
                cases = [
                    (U, signs, signs),
                    (U[:, keep], sub, signs),
                    (U[keep, :], signs, sub),
                    (sampling.random_j_contraction(rng, sp, sp), signs, signs),
                    (sampling.random_j_contraction(rng, sp, sp, strict=0.1),
                     signs, signs),
                    (1.5 * U, signs, signs),
                ]
                # defects planted around the metric_tol bound
                unit = DEFAULT_TOL.metric_tol * max(1.0, np.linalg.norm(U, 2) ** 2)
                cases += [((1.0 - f * unit / 2.0) * U, signs, signs)
                          for f in (0.3, 3.0, 300.0)]
                for M, dom, cod in cases:
                    got = metric_classify(M, dom, cod)
                    assert got == _old_metric_classify(M, dom, cod)
                    seen.add(got)
            for system in (
                    sampling.random_conservative_colligation(rng, sp, 2),
                    sampling.random_passive_colligation(rng, sp, 2, 1, strict=0.1),
                    sampling.random_passive_colligation(rng, sp, 1, 3)):
                T = np.block([[system.A, system.B], [system.C, system.D]])
                dom = np.concatenate([signs, np.ones(system.input_dim)])
                cod = np.concatenate([signs, np.ones(system.output_dim)])
                assert metric_classify(T, dom, cod) == _old_metric_classify(
                    T, dom, cod)
        assert seen == set(MetricClass)


class TestSpectralSubspace:
    def test_jordan_block_outside(self):
        sp = SignatureSpace(2, 0)
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        S = spectral_subspace(A, sp, SpectralRegion.OUTSIDE_CLOSED_DISC)
        assert S.dim == 2

    def test_split_mixed_spectrum(self):
        sp = SignatureSpace(1, 1)
        A = np.diag([0.5, 2.0])
        inside = spectral_subspace(A, sp, SpectralRegion.INSIDE_OPEN_DISC)
        outside = spectral_subspace(A, sp, SpectralRegion.OUTSIDE_CLOSED_DISC)
        assert same_span(inside.basis, np.array([[1.0], [0.0]]))
        assert same_span(outside.basis, np.array([[0.0], [1.0]]))

    def test_invariance(self):
        rng = np.random.default_rng(4)
        sp = SignatureSpace(3, 1)
        for _ in range(10):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            if np.min(np.abs(np.abs(np.linalg.eigvals(A)) - 1)) < 1e-3:
                continue
            S = spectral_subspace(A, sp, SpectralRegion.INSIDE_OPEN_DISC)
            if S.dim == 0:
                continue
            # invariant: A maps the subspace into itself
            resid = A @ S.basis - S.basis @ np.linalg.lstsq(S.basis, A @ S.basis, rcond=None)[0]
            assert np.linalg.norm(resid) < 1e-8

    def test_near_circle_raises(self):
        sp = SignatureSpace(2, 0)
        A = np.diag([1.0 + 1e-12, 0.3])
        with pytest.raises(AmbiguousSpectrumError):
            spectral_subspace(A, sp, SpectralRegion.INSIDE_OPEN_DISC)

    def test_exclude_mode_drops_band(self):
        sp = SignatureSpace(3, 0)
        A = np.diag([1.0, 0.3, 2.0])
        S = spectral_subspace(A, sp, SpectralRegion.OUTSIDE_CLOSED_DISC,
                              on_boundary="exclude")
        assert S.dim == 1
        band = spectral_subspace(A, sp, SpectralRegion.MODULUS_ONE_BAND)
        assert band.dim == 1


    def test_unknown_on_boundary_is_refused(self):
        # checked before any eigenvalue is read, so also with none near
        # the circle
        with pytest.raises(InputError):
            spectral_subspace(np.diag([0.5, 2.0]), SignatureSpace(1, 1),
                              SpectralRegion.INSIDE_OPEN_DISC, on_boundary="exlude")

    def test_unknown_region_is_refused(self):
        with pytest.raises(InputError):
            spectral_subspace(np.diag([0.5, 2.0]), SignatureSpace(1, 1), "inside")

    def test_one_schur_form_and_no_eigenvalue_solve(self, monkeypatch):
        schur = spy_attr(monkeypatch, scipy.linalg, "schur")
        eigvals = spy_attr(monkeypatch, np.linalg, "eigvals")
        A = np.diag([0.5, 2.0, 0.3, 3.0])
        S = spectral_subspace(A, SignatureSpace(2, 2), SpectralRegion.OUTSIDE_CLOSED_DISC)
        assert S.dim == 2
        assert (len(schur), len(eigvals)) == (1, 0)


# is_psd before its Cholesky route: one eigen-solve of the symmetrized
# matrix behind the Frobenius Hermitian guard (rel 1e-10), then the slack
# psd_tol * max(1, max|eig|).  Kept as the reference for the verdicts.
def _eig_is_psd(H, tol=DEFAULT_TOL):
    H = as_matrix(H)
    w = np.linalg.eigvalsh((H + H.conj().T) / 2.0)
    radius = float(np.max(np.abs(w), initial=0.0))
    if np.linalg.norm(H - H.conj().T) > 1e-10 * max(1.0, radius):
        raise NotHermitianError("not Hermitian")
    return w.size == 0 or bool(w[0] >= -tol.psd_tol * max(1.0, radius))


# metric_classify before the Frobenius shortcut: the scale ||M||_2 is
# always an SVD.  Kept as the reference for the verdicts.
def _svd_metric_classify(M, dom, cod, tol=DEFAULT_TOL):
    primal, dual = metric_defects(M, dom, cod)
    scale = max(1.0, float(np.linalg.norm(M, 2)) ** 2) if M.size else 1.0

    def bound(P):
        w = np.linalg.eigvalsh((P + P.conj().T) / 2.0)
        return float(np.max(np.abs(w), initial=0.0)) + np.linalg.norm(
            P - P.conj().T) / 2.0

    iso = bound(primal) <= tol.metric_tol * scale
    coiso = bound(dual) <= tol.metric_tol * scale
    if iso and coiso:
        return MetricClass.UNITARY
    if iso:
        return MetricClass.ISOMETRY
    if coiso:
        return MetricClass.COISOMETRY
    return MetricClass.CONTRACTION if _eig_is_psd(primal, tol) else MetricClass.NONE


class TestCheapCertificates:
    """The Cholesky route of is_psd and the Frobenius shortcut of
    metric_classify against the eigen-solve and SVD references."""

    FACTORS = (0.1, 0.5, 0.9, 1.1, 2.0, 10.0)

    def planted(self, tol):
        """Hermitian matrices with lambda_min planted at +-0.1-10x the
        slack, at scales 1e-3 to 1e3, with skew parts of Frobenius norm
        0.1-10x 1e-10 (and none)."""
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 12, 40):
            for scale in (1e-3, 1.0, 1e3):
                Q = np.linalg.qr(rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n)))[0]
                rest = scale * rng.uniform(0.1, 1.0, n - 1)
                slack = tol.psd_tol * max(1.0, float(np.max(rest, initial=0.0)))
                K = _random_skew(rng, n, rank_one=False)
                K /= max(np.linalg.norm(K), 1e-300)
                for sign in (1.0, -1.0):
                    for factor in self.FACTORS:
                        w = np.concatenate([[sign * factor * slack], rest])
                        H = (Q * w[None, :]) @ Q.conj().T
                        for skew in (0.0, 0.1, 0.9, 1.1, 10.0):
                            yield H + skew * 1e-10 * K

    # at psd_tol = 1e-15 the rounding of a Cholesky factorization is
    # comparable to the slack, so the trace condition decides
    @pytest.mark.parametrize("psd_tol", [1e-9, 1e-8, 1e-15])
    def test_is_psd_verdicts_unchanged(self, monkeypatch, psd_tol):
        tol = Tolerances(psd_tol=psd_tol)
        cases = list(self.planted(tol))
        verdicts = [_outcome(_eig_is_psd, H, tol) for H in cases]
        calls = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        for H, want in zip(cases, verdicts):
            assert _outcome(is_psd, H, tol) == want
        # the planted families straddle the verdicts, and the Cholesky
        # route decides some of them without an eigen-solve
        assert {True, False, NotHermitianError} <= set(verdicts)
        assert len(calls) < len(cases)

    def test_large_trace_takes_the_eigen_solve(self, monkeypatch):
        # Cholesky factors H + psd_tol/2 I, but (n + 1) u tr is far above
        # psd_tol / 4, so its backward error proves nothing
        H = np.diag(np.concatenate([np.full(39, 1e6), [0.0]]))
        calls = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        assert is_psd(H)
        assert len(calls) == 1
        calls.clear()
        assert is_psd(np.diag(np.concatenate([np.full(39, 1e3), [0.0]])))
        assert calls == []

    def test_is_psd_refuses_nan_like_the_reference(self):
        H = np.eye(3, dtype=complex)
        H[1, 2] = np.nan
        for check in (is_psd, _eig_is_psd):
            with pytest.raises(InputError):
                check(H)

    def test_metric_classify_matches_the_svd_scale(self):
        rng = np.random.default_rng(12)
        cases = []
        for pos, neg in ((1, 0), (3, 1), (12, 3), (32, 8)):
            sp = SignatureSpace(pos, neg)
            for _ in range(2):
                U = sampling.random_j_unitary(rng, sp)
                unit = DEFAULT_TOL.metric_tol * max(1.0, np.linalg.norm(U, 2) ** 2)
                for f in (0.3, 0.9, 1.1, 3.0, 30.0, 300.0):
                    cases += [((1.0 - f * unit / 2.0) * U, sp.signs, sp.signs),
                              ((1.0 + f * unit / 2.0) * U, sp.signs, sp.signs)]
        # rank-one M, where ||M||_F = ||M||_2: a hyperbolic column from a
        # one-dimensional Hilbert space, and a scalar, with the defect
        # planted around the bound and on it
        for a in (0.0, 1.0, 3.0):
            c = np.cosh(2.0 * a)
            for f in (0.3, 0.99, 1.0, 1.01, 3.0, 300.0):
                t = 1.0 / np.sqrt(1.0 + f * DEFAULT_TOL.metric_tol * c)
                col = t * np.exp(0.4j) * np.array([[np.cosh(a)], [np.sinh(a)]])
                cases.append((col, [1.0], [1.0, -1.0]))
                cases.append((np.array([[1.0 / t]]), [1.0], [1.0]))
        for M, dom, cod in cases:
            assert metric_classify(M, dom, cod) == _svd_metric_classify(M, dom, cod)
        assert len({_svd_metric_classify(*case) for case in cases}) >= 3

    def test_metric_classify_on_the_bound(self):
        # rank-one hyperbolic columns with metric_tol chosen within a few
        # ulps of defect / ||M||_2^2, so the verdict turns on the last bits
        # of the scale, where ||M||_F and ||M||_2 coincide
        seen = set()
        for a in (0.5, 1.0, 2.0):
            for t in (0.999, 0.9999):
                M = t * np.exp(0.3j) * np.array([[np.cosh(a)], [np.sinh(a)]])
                primal, _ = metric_defects(M, [1.0], [1.0, -1.0])
                defect = abs(float(np.real(primal[0, 0])))
                metric_tol = defect / float(np.linalg.norm(M, 2)) ** 2
                for _ in range(4):
                    metric_tol = np.nextafter(metric_tol, 0.0)
                for _ in range(8):
                    tol = Tolerances(metric_tol=metric_tol)
                    want = _svd_metric_classify(M, [1.0], [1.0, -1.0], tol)
                    assert metric_classify(M, [1.0], [1.0, -1.0], tol) == want
                    seen.add(want)
                    metric_tol = np.nextafter(metric_tol, 1.0)
        assert seen == {MetricClass.ISOMETRY, MetricClass.CONTRACTION}


class TestSpanHelpers:
    def test_nullspace_and_column_space(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        N = nullspace(M)
        assert N.shape[1] == 1
        assert np.linalg.norm(M @ N) < 1e-10
        C = column_space(M)
        assert C.shape[1] == 1

    def test_principal_angles_orthogonal_planes(self):
        A = np.array([[1.0, 0], [0, 1.0], [0, 0]])
        B = np.array([[0.0], [0.0], [1.0]])
        ang = principal_angles(A, B)
        assert ang.size == 1
        assert ang[0] == pytest.approx(np.pi / 2)

    def test_intersection(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        I = intersect_spans(A, B)
        assert I.shape[1] == 1
        assert same_span(I, np.array([[1.0], [0.0], [0.0]]))


# metric_classify before the norm brackets: both eigen-solves, the SVD
# scale only for a defect between metric_tol and the Frobenius bound, and
# is_psd's eigenvalue test behind its Hermitian guard.  Kept as the
# reference for the verdicts; the defects are arguments so that planted
# ones can be fed to both routes.
def _eig_metric_class(M, primal, dual, tol=DEFAULT_TOL):
    def eig_bound(P):
        P = as_matrix(P)  # refuses a non-finite defect
        skew = float(np.linalg.norm(P - P.conj().T))
        w = np.linalg.eigvalsh((P + P.conj().T) / 2.0)
        return w, skew, float(np.max(np.abs(w), initial=0.0)) + skew / 2.0

    w, skew, d = eig_bound(primal)
    _, _, d_dual = eig_bound(dual)
    upper = tol.metric_tol * max(1.0, float(np.linalg.norm(M)) ** 2 * (1.0 + 1e-14))
    scale = 1.0
    if any(tol.metric_tol < x <= upper for x in (d, d_dual)):
        scale = max(1.0, float(np.linalg.norm(M, 2)) ** 2)
    iso, coiso = (x <= tol.metric_tol * scale for x in (d, d_dual))
    if iso and coiso:
        return MetricClass.UNITARY
    if iso:
        return MetricClass.ISOMETRY
    if coiso:
        return MetricClass.COISOMETRY
    radius = float(np.max(np.abs(w), initial=0.0))
    if skew > 1e-10 * max(1.0, radius):
        raise NotHermitianError("psd input is not Hermitian")
    if w.size == 0 or w[0] >= -tol.psd_tol * max(1.0, radius):
        return MetricClass.CONTRACTION
    return MetricClass.NONE


def _eig_metric_classify(M, dom, cod, tol=DEFAULT_TOL):
    return _eig_metric_class(M, *metric_defects(M, dom, cod), tol)


# subspace_classify before its Cholesky route: the inertia of the Gram
# from one eigen-solve, zero cut psd_tol * max(1, max|eig|).
def _eig_subspace_classify(space, tol=DEFAULT_TOL):
    G = as_matrix(space.gram)
    w = np.linalg.eigvalsh((G + G.conj().T) / 2.0)
    cut = tol.psd_tol * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if np.any(np.abs(w) <= cut):
        return SubspaceKind.DEGENERATE
    if np.all(w > cut):
        return SubspaceKind.HILBERT
    if np.all(w < -cut):
        return SubspaceKind.ANTIHILBERT
    return SubspaceKind.REGULAR


def _verdict(fn, *args):
    """Result of fn, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (PontsysError, RuntimeWarning) as exc:
        return type(exc)


def _spread_contraction(rng, n, lo, hi):
    """Hilbert-space M whose two defects have the eigenvalues
    +-[lo, hi] * metric_tol, signs at random: ||sym P||_F is about
    sqrt(n) times max|eig|."""
    eps = rng.uniform(lo, hi, n) * DEFAULT_TOL.metric_tol * rng.choice([-1.0, 1.0], n)
    Q1 = sampling.random_unitary(rng, n)
    Q2 = sampling.random_unitary(rng, n)
    return (Q1 * np.sqrt(1.0 - eps)[None, :]) @ Q2.conj().T


def _planted_gram_subspace(w, t):
    """Subspace of the signature space (k, k) whose Gram has eigenvalues w:
    the basis [P; N] with P^H P - N^H N = Q diag(w) Q^H, both blocks
    shifted by t > 0 to keep the basis well conditioned."""
    k = w.size
    rng = np.random.default_rng(k)
    Q = sampling.random_unitary(rng, k)
    P = (Q * np.sqrt(np.maximum(w, 0.0) + t)[None, :]) @ Q.conj().T
    N = (Q * np.sqrt(np.maximum(-w, 0.0) + t)[None, :]) @ Q.conj().T
    return IndefiniteSubspace(SignatureSpace(k, k), np.vstack([P, N]))


class TestBracketedCertificates:
    """The norm brackets and Cholesky routes of metric_classify and
    subspace_classify against the eigen-solve references."""

    FACTORS = (0.1, 0.5, 0.9, 1.1, 2.0, 10.0)

    def test_metric_classify_planted_defects(self):
        rng = np.random.default_rng(41)
        cases = []
        for pos, neg in ((1, 0), (3, 1), (12, 3), (32, 8)):
            sp = SignatureSpace(pos, neg)
            signs = sp.signs
            keep = np.concatenate([np.arange(max(pos - 1, 1)), np.arange(pos, pos + neg)])
            for _ in range(2):
                U = sampling.random_j_unitary(rng, sp)
                unit = DEFAULT_TOL.metric_tol * max(1.0, np.linalg.norm(U, 2) ** 2)
                for f in (0.3, 0.9, 1.1, 3.0, 30.0, 300.0):
                    for t in (1.0 - f * unit / 2.0, 1.0 + f * unit / 2.0):
                        cases += [(t * U, signs, signs),
                                  (t * U[:, keep], signs[keep], signs),
                                  (t * U[keep, :], signs, signs[keep])]
                cases += [
                    (sampling.random_j_contraction(rng, sp, sp), signs, signs),
                    (sampling.random_j_contraction(rng, sp, sp, strict=0.2), signs, signs),
                    (1.5 * U, signs, signs),
                ]
        # one strong hyperbolic rotation U in 40 dimensions, so that
        # ||U||_F^2 is close to ||U||_2^2, times D = diag(t) with
        # J - D J D = d I: the primal defect d I, zero at the SVD scale
        # for d <= metric_tol ||M||_2^2, has ||sym P||_F = sqrt(40) d above
        # the Frobenius bound, so only its diagonal tells it from a
        # nonzero one; the dual defect U (d I) U^H is nonzero
        signs = SignatureSpace(32, 8).signs
        for a in (2.0, 3.0):
            U = np.eye(40)
            U[np.ix_([0, 32], [0, 32])] = [[np.cosh(a), np.sinh(a)],
                                           [np.sinh(a), np.cosh(a)]]
            unit = DEFAULT_TOL.metric_tol * np.linalg.norm(U, 2) ** 2
            for f in (0.3, 0.9, 1.1, 3.0):
                cases.append((U * np.sqrt(1.0 - signs * f * unit)[None, :], signs, signs))
                for t in (1.0 - f * unit / 2.0, 1.0 + f * unit / 2.0):
                    cases.append((t * U, signs, signs))
        verdicts = [_verdict(_eig_metric_classify, *case) for case in cases]
        for case, want in zip(cases, verdicts):
            assert _verdict(metric_classify, *case) == want
        assert set(verdicts) == set(MetricClass)

    def test_spread_spectra_take_the_eigen_solve(self, monkeypatch):
        # ||sym P||_F > metric_tol >= max|eig|: the bracket cannot tell a
        # zero defect, so the eigen-solve route decides
        rng = np.random.default_rng(8)
        cases = []
        for n in (12, 40):
            for lo, hi in ((0.3, 0.9), (0.5, 1.0), (0.3, 1.5), (0.9, 3.0)):
                M = _spread_contraction(rng, n, lo, hi)
                cases.append((M, np.ones(n), np.ones(n)))
        verdicts = [_verdict(_eig_metric_classify, *case) for case in cases]
        calls = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        for case, want in zip(cases, verdicts):
            assert _verdict(metric_classify, *case) == want
        assert MetricClass.UNITARY in verdicts and len(set(verdicts)) >= 2
        assert len(calls) == 2 * len(cases)

    def test_rank_one_on_the_bound(self):
        cases = []
        for a in (0.0, 0.5, 1.0, 3.0):
            c = np.cosh(2.0 * a)
            for f in (0.3, 0.99, 1.0, 1.01, 3.0, 300.0):
                t = 1.0 / np.sqrt(1.0 + f * DEFAULT_TOL.metric_tol * c)
                col = t * np.exp(0.4j) * np.array([[np.cosh(a)], [np.sinh(a)]])
                cases.append((col, [1.0], [1.0, -1.0], DEFAULT_TOL))
                cases.append((np.array([[1.0 / t]]), [1.0], [1.0], DEFAULT_TOL))
        for a in (0.5, 1.0, 2.0):
            for t in (0.999, 0.9999):
                M = t * np.exp(0.3j) * np.array([[np.cosh(a)], [np.sinh(a)]])
                primal, _ = metric_defects(M, [1.0], [1.0, -1.0])
                metric_tol = abs(float(np.real(primal[0, 0]))) / float(
                    np.linalg.norm(M, 2)) ** 2
                for _ in range(4):
                    metric_tol = np.nextafter(metric_tol, 0.0)
                for _ in range(8):
                    cases.append((M, [1.0], [1.0, -1.0], Tolerances(metric_tol=metric_tol)))
                    metric_tol = np.nextafter(metric_tol, 1.0)
        verdicts = [_verdict(_eig_metric_classify, *case) for case in cases]
        for case, want in zip(cases, verdicts):
            assert _verdict(metric_classify, *case) == want
        assert {MetricClass.ISOMETRY, MetricClass.CONTRACTION, MetricClass.NONE} <= set(verdicts)

    def test_skew_parts_around_the_hermitian_guard(self, monkeypatch):
        # defects planted past metric_defects: nonzero, lambda_min at
        # +-0.1-10x the psd slack, skew parts of Frobenius norm 0-10x 1e-10
        rng = np.random.default_rng(17)
        n = 6
        M = 0.5 * np.eye(n)
        dual = 0.75 * np.eye(n, dtype=complex)
        cases = []
        for scale in (1.0, 1e3):
            Q = sampling.random_unitary(rng, n)
            rest = scale * rng.uniform(0.1, 1.0, n - 1)
            slack = DEFAULT_TOL.psd_tol * max(1.0, float(np.max(rest)))
            K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            K = (K - K.conj().T) / 2.0
            K /= np.linalg.norm(K)
            for sign in (1.0, -1.0):
                for f in self.FACTORS:
                    w = np.concatenate([[sign * f * slack], rest])
                    H = (Q * w[None, :]) @ Q.conj().T
                    for skew in (0.0, 0.1, 0.9, 1.1, 10.0):
                        cases.append(H + skew * 1e-10 * K)
        verdicts = []
        for primal in cases:
            want = _verdict(_eig_metric_class, M, primal, dual)
            monkeypatch.setattr(indefinite, "metric_defects",
                                lambda *_, P=primal: (P, dual))
            assert _verdict(metric_classify, M, np.ones(n), np.ones(n)) == want
            verdicts.append(want)
        assert {MetricClass.CONTRACTION, MetricClass.NONE, NotHermitianError} <= set(verdicts)

    @pytest.mark.parametrize("overflow", ["error", "ignore"])
    def test_non_finite_defects_are_refused_alike(self, monkeypatch, overflow):
        # entries large enough to overflow the defect: with the suite's
        # RuntimeWarning filter both routes stop at the overflow in
        # metric_defects, with warnings ignored both refuse the defect
        signs = SignatureSpace(2, 1).signs
        U = sampling.random_j_unitary(np.random.default_rng(2), SignatureSpace(2, 1))
        for c in (1e160, 1e200):
            for M in (c * np.eye(3), c * U):
                with warnings.catch_warnings():
                    warnings.simplefilter(overflow, RuntimeWarning)
                    want = _verdict(_eig_metric_classify, M, signs, signs)
                    assert _verdict(metric_classify, M, signs, signs) is want
                assert want is (RuntimeWarning if overflow == "error" else InputError)
        P = np.eye(3, dtype=complex)
        P[0, 2] = np.nan
        for primal, dual in ((P, np.eye(3)), (np.eye(3), P)):
            monkeypatch.setattr(indefinite, "metric_defects",
                                lambda *_, a=primal, b=dual: (a, b))
            assert _verdict(metric_classify, 0.5 * np.eye(3), signs, signs) is InputError
            assert _verdict(_eig_metric_class, 0.5 * np.eye(3), primal, dual) is InputError

    @pytest.mark.parametrize("kind", ["conservative", "passive"])
    def test_no_eigen_solve_for_clear_system_operators(self, monkeypatch, kind):
        rng = np.random.default_rng(23)
        sp = SignatureSpace(32, 8)
        for io in (1, 2, 3):
            system = (sampling.random_conservative_colligation(rng, sp, io)
                      if kind == "conservative" else
                      sampling.random_passive_colligation(rng, sp, io, io, strict=0.2))
            T, dom, cod = system_operator(system)
            want = _eig_metric_classify(T, dom, cod)
            calls = spy_attr(monkeypatch, np.linalg, "eigvalsh")
            got = metric_classify(T, dom, cod)
            monkeypatch.undo()
            assert got == want == (MetricClass.UNITARY if kind == "conservative"
                                   else MetricClass.CONTRACTION)
            assert calls == []

    def gram_cases(self, tol):
        """Subspaces whose Gram has lambda_min at +-0.1-10x the zero cut of
        inertia, at scales 1e-3 to 1e3 and k = 1 to 40, mirrored to the
        negative side, plus regular and degenerate Grams."""
        rng = np.random.default_rng(5)
        for k in (1, 2, 5, 12, 40):
            for scale in (1e-3, 1.0, 1e3):
                rest = scale * rng.uniform(0.1, 1.0, k - 1)
                cut = tol.psd_tol * max(1.0, float(np.max(rest, initial=scale)))
                for mirror in (1.0, -1.0):
                    for sign in (1.0, -1.0):
                        for f in self.FACTORS:
                            w = mirror * np.concatenate([[sign * f * cut], rest])
                            yield _planted_gram_subspace(w, scale)
                    yield _planted_gram_subspace(mirror * rest, scale)
                    yield _planted_gram_subspace(mirror * np.concatenate([[0.0], rest]), scale)
                if k > 1:
                    yield _planted_gram_subspace(rest * rng.choice([-1.0, 1.0], k - 1), scale)

    @pytest.mark.parametrize("psd_tol", [1e-9, 1e-15])
    def test_subspace_classify_verdicts_unchanged(self, monkeypatch, psd_tol):
        tol = Tolerances(psd_tol=psd_tol)
        cases = list(self.gram_cases(tol))
        verdicts = [_verdict(_eig_subspace_classify, sub, tol) for sub in cases]
        calls = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        for sub, want in zip(cases, verdicts):
            assert _verdict(subspace_classify, sub, tol) == want
        assert set(verdicts) == set(SubspaceKind)
        # the clearly definite Grams skip the eigen-solve
        assert len(calls) < len(cases)

    def test_no_eigen_solve_for_clearly_definite_subspaces(self, monkeypatch):
        rng = np.random.default_rng(6)
        for k in (1, 8, 40):
            rest = rng.uniform(0.1, 1.0, k)
            for mirror, kind in ((1.0, SubspaceKind.HILBERT),
                                 (-1.0, SubspaceKind.ANTIHILBERT)):
                sub = _planted_gram_subspace(mirror * rest, 1.0)
                calls = spy_attr(monkeypatch, np.linalg, "eigvalsh")
                assert subspace_classify(sub) == kind
                monkeypatch.undo()
                assert calls == []
                assert _eig_subspace_classify(sub) == kind

    @pytest.mark.parametrize("overflow", ["error", "ignore"])
    def test_non_finite_gram_is_refused_alike(self, overflow):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sub = IndefiniteSubspace(SignatureSpace(2, 0), 1e200 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter(overflow, RuntimeWarning)
            want = _verdict(_eig_subspace_classify, sub)
            assert _verdict(subspace_classify, sub) is want
        assert want is (RuntimeWarning if overflow == "error" else InputError)
